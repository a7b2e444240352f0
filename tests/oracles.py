"""Independent oracles and test-only helpers.

curvelab computes every intersection number by reading a witness word
(``curves.witness_reader``) and every Farey distance from a continued
fraction.  The tests check both against the slower methods kept here:

- a best-first flip-reduction search that computes i(a, b) from normal
  coordinates alone, with no witness;
- breadth-first search on height-bounded Farey windows.

Also here: the mapping-class action on witnessed curves and the half-twist
about a witnessed curve, which the tests use to build expected answers.
"""

from __future__ import annotations

import heapq
from collections import deque
from functools import lru_cache

from curvelab import farey
from curvelab.curves import BASE_CURVE_EDGES, BASE_CURVES, NormalCurve
from curvelab.mcg import apply_word, invert_word, reduce_word
from curvelab.s5windows import detect_half_twists, window_curve
from curvelab.triangulation import (
    BASE,
    NUM_EDGES,
    Coords,
    FlipStep,
    Triangulation,
    compile_flips,
    run_flip_program,
)


# ---------------------------------------------------------------- flip search


class ReductionError(RuntimeError):
    pass


def flippable(state: Triangulation, e: int) -> bool:
    """Whether edge e borders two distinct triangles (is not self-folded)."""
    (t1, _), (t2, _) = state.slots[e]
    return t1 != t2


@lru_cache(maxsize=65536)
def reduce_to_boundary(coords: Coords) -> tuple[tuple[FlipStep, ...], int]:
    """Flip program carrying coords to a neighborhood-boundary pattern.

    Returns (program, edge) such that replaying the program on coords gives
    state.neighborhood_pattern(edge), where state is the triangulation the
    program's flips lead to from the base one.  Best-first search on total
    weight; flips that reduce weight are always explored, plateaus are
    crossed by the priority queue.
    """

    def terminal_edge(state: Triangulation, cur: Coords) -> int | None:
        for e in range(NUM_EDGES):
            if cur[e] == 0:
                u, v = state.edge_endpoints(e)
                if u != v and cur == state.neighborhood_pattern(e):
                    return e
        return None

    start = (BASE, coords)
    parent: dict[tuple[Triangulation, Coords], tuple[tuple[Triangulation, Coords], int]] = {}
    seen = {start}
    heap: list[tuple[int, int, int, tuple[Triangulation, Coords]]] = []
    counter = 0
    heapq.heappush(heap, (sum(coords), 0, counter, start))
    expansions = 0
    while heap:
        _, depth, _, node = heapq.heappop(heap)
        state, cur = node
        e = terminal_edge(state, cur)
        if e is not None:
            flips = []
            while node in parent:
                node, flipped = parent[node]
                flips.append(flipped)
            return compile_flips(tuple(reversed(flips))), e
        expansions += 1
        if expansions > 200_000:
            raise ReductionError(f"flip reduction did not terminate for {coords}")
        for f in range(NUM_EDGES):
            if not flippable(state, f):
                continue
            nxt = (state.flip(f), state.flip_coords(f, cur))
            if nxt in seen:
                continue
            seen.add(nxt)
            parent[nxt] = (node, f)
            counter += 1
            heapq.heappush(heap, (sum(nxt[1]), depth + 1, counter, nxt))
    raise ReductionError(f"flip reduction exhausted the search space for {coords}")


def check_base_reductions(edges: tuple[int, ...] = BASE_CURVE_EDGES) -> None:
    """Each base curve c_k must be its own reduced form, at edges[k-1].

    The witness reading i(g(c_k), x) = 2 * (g^-1 x)[e_k] is the search's
    answer for c_k and g^-1 x exactly when this holds.
    """
    for curve, edge in zip(BASE_CURVES, edges):
        if reduce_to_boundary(curve.coords) != ((), edge):
            raise ReductionError(
                f"base curve {curve.coords} does not reduce to edge {edge} "
                "with an empty flip program"
            )


def _coords(c: NormalCurve | Coords) -> Coords:
    """Coordinates of a curve; raw tuples must be essential curves."""
    return c.coords if isinstance(c, NormalCurve) else NormalCurve(tuple(c)).coords


def intersection(a: NormalCurve | Coords, b: NormalCurve | Coords) -> int:
    """i(a, b) by flip-reducing the lesser curve, witnesses ignored."""
    a, b = sorted((_coords(a), _coords(b)))
    if a == b:
        return 0
    program, edge = reduce_to_boundary(a)
    return 2 * run_flip_program(program, b)[edge]


def disjoint(a: NormalCurve | Coords, b: NormalCurve | Coords) -> bool:
    """Distinct curves that do not meet, by flip search."""
    return _coords(a) != _coords(b) and intersection(a, b) == 0


# ---------------------------------------------------------------- the action


def act(word: str, curve: NormalCurve) -> NormalCurve:
    """Apply a word to a curve, extending its witness when present."""
    coords = apply_word(word, curve.coords)
    witness = None
    if curve.witness is not None:
        witness = (reduce_word(curve.witness[0] + word), curve.witness[1])
    return NormalCurve(coords, witness)


def orientation_parity(word: str) -> int:
    """+1 for orientation-preserving words, -1 otherwise (counts 'r's)."""
    return -1 if word.count("r") % 2 else 1


# The rotation advancing every puncture by one, as a word in the half-twists
# (checked against RHO_ATOM in test_mcg).
RHO_WORD = "DCBA"

# Word realising the half-twist about base curve c_j (c_j bounds the disk
# around puncture pair BASE_CURVE_PAIRS[j-1]); c3 = {5,1} needs a conjugate
# of h4 by the rotation.
HALF_TWIST_WORDS = {1: "a", 2: "c", 3: "abcdd" + RHO_WORD, 4: "b", 5: "d"}


def half_twist_word(beta: NormalCurve, sign: int) -> str:
    """Word realising the half-twist about beta for the chosen orientation."""
    if beta.witness is None:
        raise ValueError("half twists require a curve with a witness word")
    u, base = beta.witness
    exponent = sign * orientation_parity(u)
    h = HALF_TWIST_WORDS[base]
    return invert_word(u) + (h if exponent > 0 else invert_word(h)) + u


def half_twist_of(beta: NormalCurve, alpha: NormalCurve, sign: int) -> NormalCurve:
    """H_beta^sign(alpha), via the conjugated base half-twist."""
    if sign not in (1, -1):
        raise ValueError("sign must be +-1")
    if intersection(alpha, beta) != 2:
        raise ValueError("half-twist detection needs i(alpha, beta) = 2")
    word = half_twist_word(beta, sign)
    coords = apply_word(word, alpha.coords)
    witness = None
    if alpha.witness is not None:
        wa, base = alpha.witness
        witness = (wa + word, base)
    return NormalCurve(coords, witness)


def detected_curves(alpha: NormalCurve, beta: NormalCurve, w) -> set[NormalCurve]:
    """``s5windows.detect_half_twists`` for two window curves, as curves."""
    found = detect_half_twists(w, w.index[alpha.coords], w.index[beta.coords])
    return {window_curve(w, g) for g in found}


# ---------------------------------------------------------------- Farey BFS


class BfsOracle:
    """Independent distance oracle: breadth-first search on the window of
    all slopes of height at most ``height``.

    Distances are upper bounds in general; they stabilise to the true value
    once the ambient height bound is large enough, which the test suite checks
    by comparing two bounds.
    """

    def __init__(self, height: int):
        self.height = height
        window = farey.farey_window(height)
        self.index = window.index
        self.neighbors = window.neighbors
        self._distances: dict[farey.Slope, tuple[int, ...]] = {}

    def distances_from(self, s: farey.Slope) -> tuple[int, ...]:
        if s in self._distances:
            return self._distances[s]
        dist = [-1] * len(self.neighbors)
        src = self.index[s]
        dist[src] = 0
        queue = deque([src])
        while queue:
            i = queue.popleft()
            di = dist[i] + 1
            for j in self.neighbors[i]:
                if dist[j] < 0:
                    dist[j] = di
                    queue.append(j)
        self._distances[s] = result = tuple(dist)
        return result

    def distance(self, s: farey.Slope, t: farey.Slope) -> int:
        d = self.distances_from(s)[self.index[t]]
        if d < 0:
            raise ValueError(f"{t} not reachable inside height-{self.height} window")
        return d
