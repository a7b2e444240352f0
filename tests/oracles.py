"""Independent oracles and test-only helpers.

curvelab computes every intersection number by reading a witness word
(``curves.witness_reader``) and every Farey distance from a continued
fraction.  The tests check both against the slower methods kept here:

- a best-first flip-reduction search that computes i(a, b) from normal
  coordinates alone, with no witness;
- each generator's action replayed flip by flip through
  ``Triangulation.flip_coords``, with no generated code, against which
  ``mcg``'s straight-line kernels are checked;
- breadth-first search on height-bounded Farey windows;
- the Farey window built with a checked slope per neighbour and a sort,
  against which ``farey.farey_window``'s build off the Stern-Brocot tree
  is checked;
- the half-twists h2..h4 built as conjugates rho^i h1 rho^-i of h1 by the
  rotation rho, against which the shipped shortest encodings are certified;
- the S5 window built with those letters and read over all pairs of
  vertices, against which ``build_window``'s puncture-pair buckets are
  checked;
- the essentiality test on normal coordinates (``is_essential``), which
  ``NormalCurve`` does not run, since every curve the program makes is an
  image of a base curve; the oracles run it on each raw tuple they take
  and each curve they make (``essential_curve``);
- the two punctures a curve cuts off, traced through the complementary
  regions of its normal coordinates, against which
  ``s5windows.puncture_pair``'s reading of witness words is checked;
- the quotient's identifications found by applying every sample element
  to every window vertex, against which the Farey lattice enumeration
  (``farey.window_images``) is checked;
- the lifting and local-covering suites deciding every site by lifting it,
  with a witnessing edge stored for every pair of adjacent classes,
  against which their singleton shortcuts are checked;
- the simplicial, lifting, 2-ball and local-covering suites walking every
  vertex, edge and distance-2 pair of the window and its quotient, against
  which the suites that read only the stars next to a merged class and
  count the rest are checked;
- the pentagon-transfer suite testing each projected cycle edge by edge
  and searching each quotient pentagon for a window cycle over it, against
  which its membership tests between the two pentagon enumerations are
  checked;
- the window's and the quotient's JSON built as dict trees, whose
  ``canonical_json`` is the byte oracle for the text that
  ``Window.json_fields`` and ``QuotientWindow.json_fields`` write;
- the shape every window must have (``check_rows``): keys strictly
  increasing, each row strictly increasing, in range and loop-free, and
  the rows symmetric, which the tests check on every builder's output,
  since the constructor does not; the oracle windows build their rows
  from their own edges (``rows_from_edges``), so edge content is checked
  against them;
- the curve-level pentagon test and cycle order (``is_pentagon_set``,
  ``pentagon_cycle``), reading each pair's disjointness through a witness
  word (``witness_disjoint``), against which ``arc2.fill_triangle``'s
  cells, checked and ordered on the window's rows, are checked.

Also here: the mapping-class action on witnessed curves and the half-twist
about a witnessed curve, which the tests use to build expected answers, and
Farey adjacency and the whole-graph displacement floor of a matrix.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from collections import deque
from functools import lru_cache
from itertools import combinations
from typing import Hashable, Iterable

from curvelab import farey
from curvelab.suites import (
    LIFTING_THRESHOLD,
    SIMPLICIAL_THRESHOLD,
    _report,
    _status,
)
from curvelab.curves import (BASE_CURVE_EDGES, BASE_CURVES, NormalCurve,
                             intersection_number)
from curvelab.mcg import (
    ATOMS,
    R_ATOM,
    WORD_ALPHABET,
    Atom,
    _invert_atom,
    apply_word,
    invert_word,
    reduce_word,
)
from curvelab.s5windows import (
    S5_INSTANCE,
    boundary,
    canonical_cycle,
    detect_half_twists,
    enumerate_pentagons,
    window_curve,
    witness_str,
)
from curvelab.triangulation import (
    BASE,
    NUM_EDGES,
    PUNCTURES,
    Coords,
    FlipStep,
    Triangulation,
    compile_flips,
)
from curvelab.quotient import QuotientWindow, displacement_report
from curvelab.window import Window


# ---------------------------------------------------------------- flip replay


def run_flip_program(program: tuple[FlipStep, ...], coords: Coords) -> list[int]:
    """Coordinates after the flips of a program, as a list.

    Equal to folding Triangulation.flip_coords over the flips the program
    was compiled from.
    """
    cur = list(coords)
    for e, x, y, z, w in program:
        cur[e] = max(cur[x] + cur[z], cur[y] + cur[w]) - cur[e]
    return cur


@lru_cache(maxsize=4096)
def flip_states(flips: tuple[int, ...]) -> tuple[Triangulation, ...]:
    """The triangulation each flip of a sequence from the base one acts on."""
    states, state = [], BASE
    for f in flips:
        states.append(state)
        state = state.flip(f)
    return tuple(states)


def replay_atom(atom: Atom, coords: Coords) -> Coords:
    """The atom's action with no generated code: Triangulation.flip_coords
    folded over its flips from the base triangulation, then relabelled."""
    cur = coords
    for state, f in zip(flip_states(atom.flips), atom.flips):
        cur = state.flip_coords(f, cur)
    out = [0] * NUM_EDGES
    for e in range(NUM_EDGES):
        out[atom.relabel[e]] = cur[e]
    return tuple(out)


def replay_word(word: str, coords: Coords) -> Coords:
    """``mcg.apply_word`` through ``replay_atom`` of the shipped letters."""
    for ch in word:
        coords = replay_atom(ATOMS[ch], coords)
    return coords


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
    return c.coords if isinstance(c, NormalCurve) else essential_curve(tuple(c)).coords


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


# ---------------------------------------------------------------- conjugation


IDENTITY_ATOM = Atom((), tuple(range(NUM_EDGES)), (1, 2, 3, 4, 5))

# The rotation rho advancing every puncture by one, and the half-twist h1
# exchanging punctures 1 and 2, as derived by test_derive's flip search.
RHO_ATOM = Atom(
    flips=(6, 5, 8, 7),
    relabel=(1, 2, 3, 4, 0, 5, 6, 7, 8),
    vertex_perm=(2, 3, 4, 5, 1),
)
H1_ATOM = Atom(
    flips=(5, 6, 4, 8),
    relabel=(0, 5, 2, 3, 8, 6, 4, 1, 7),
    vertex_perm=(2, 1, 3, 4, 5),
)


def compose(first: Atom, then: Atom) -> Atom:
    """The atom acting as first, then as then."""
    unlabel = [0] * NUM_EDGES
    for e in range(NUM_EDGES):
        unlabel[first.relabel[e]] = e
    flips = first.flips + tuple(unlabel[f] for f in then.flips)
    relabel = tuple(then.relabel[first.relabel[e]] for e in range(NUM_EDGES))
    perm = tuple(then.vertex_perm[first.vertex_perm[v - 1] - 1] for v in range(1, 6))
    return Atom(flips, relabel, perm)


def word_atom(word: str) -> Atom:
    """The shipped letters of a word composed into one atom."""
    out = IDENTITY_ATOM
    for ch in word:
        out = compose(out, ATOMS[ch])
    return out


def conjugate(inner: Atom, by: Atom) -> Atom:
    """by . inner . by^-1 computed by composing atoms."""
    return compose(compose(_invert_atom(by), inner), by)


def power(atom: Atom, n: int) -> Atom:
    """atom^n for n >= 0."""
    out = IDENTITY_ATOM
    for _ in range(n):
        out = compose(out, atom)
    return out


def conjugated_half_twists() -> dict[str, Atom]:
    """h1 and its conjugates rho^i h1 rho^-i, i = 1, 2, 3, by letter."""
    out = {"a": H1_ATOM}
    for i, letter in enumerate("bcd", start=1):
        out[letter] = conjugate(H1_ATOM, power(RHO_ATOM, i))
    return out


CONJUGATED_HALF_TWISTS = conjugated_half_twists()
CONJUGATED_ATOMS: dict[str, Atom] = {
    **CONJUGATED_HALF_TWISTS,
    **{k.upper(): _invert_atom(v) for k, v in CONJUGATED_HALF_TWISTS.items()},
    "r": R_ATOM,
}


def same_mapping_class(x: Atom, y: Atom) -> bool:
    """Certificate that two orientation-preserving atoms are one mapping class.

    If x and y have the same puncture permutation and the same images of c1,
    c2 and c4, then q = y^-1 x is pure and fixes the pants decomposition
    {c1, c2}, so q = T_c1^m T_c2^n.  Since i(c1, c4) = i(c2, c4) = 2,
    i(q(c4), c4) >= 4|m| + 4|n|, and q(c4) = c4 forces m = n = 0.
    """
    c1, c2, _, c4, _ = (c.coords for c in BASE_CURVES)
    return x.vertex_perm == y.vertex_perm and all(
        replay_atom(x, c) == replay_atom(y, c) for c in (c1, c2, c4))


@lru_cache(maxsize=1 << 16)
def _conjugated_letter(letter: str, coords: Coords) -> Coords:
    return replay_atom(CONJUGATED_ATOMS[letter], coords)


def conjugated_apply_word(word: str, coords: Coords) -> Coords:
    """``mcg.apply_word`` through the conjugated letters."""
    for ch in word:
        coords = _conjugated_letter(ch, coords)
    return coords


def full_scan_window(
    word_bound: int, seeds: tuple[NormalCurve, ...] = BASE_CURVES
) -> Window:
    """``build_window`` through the conjugated letters, reading every pair.

    The same breadth-first search, and each pair of vertices read through
    the witness of the one with the shorter word, with no puncture-pair
    buckets.  Each image is checked to be an essential curve.
    """
    found: dict[Coords, tuple[str, int]] = {}
    frontier = []
    for seed in seeds:
        if seed.coords not in found:
            found[seed.coords] = seed.witness
            frontier.append(seed.coords)
    for _ in range(word_bound):
        nxt = []
        for coords in frontier:
            word, base = found[coords]
            for letter in WORD_ALPHABET:
                image = conjugated_apply_word(letter, coords)
                if image not in found:
                    essential_curve(image)
                    found[image] = (reduce_word(word + letter), base)
                    nxt.append(image)
        frontier = nxt
    vertices = tuple(sorted(found))
    witnesses = [found[c] for c in vertices]
    edges = []
    for i, j in combinations(range(len(vertices)), 2):
        p, q = (j, i) if len(witnesses[j][0]) < len(witnesses[i][0]) else (i, j)
        word, base = witnesses[p]
        image = conjugated_apply_word(invert_word(word), vertices[q])
        if image[BASE_CURVE_EDGES[base - 1]] == 0:
            edges.append((i, j))
    return Window(
        instance=S5_INSTANCE,
        basepoint=min(seed.coords for seed in seeds),
        bound=word_bound,
        vertices=vertices,
        neighbors=rows_from_edges(len(vertices), edges),
        words=tuple(witness_str(x) for x in witnesses),
    )


# ---------------------------------------------------------------- essential curves


class DisjointSets:
    """Union-find over hashable keys, each added on first use.

    Keys are only hashed and tested for equality, never ordered, so they may
    mix types.  ``groups()`` lists the classes in order of their first-added
    key, each class in the order its keys were added.
    """

    def __init__(self, keys: Iterable[Hashable] = ()):
        self.parent: dict = {k: k for k in keys}

    def find(self, x: Hashable) -> Hashable:
        parent = self.parent
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, x: Hashable, y: Hashable) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx

    def groups(self) -> list[list]:
        out: dict = {}
        for x in self.parent:
            out.setdefault(self.find(x), []).append(x)
        return list(out.values())


def corner_counts(state: Triangulation, t: int, coords: Coords) -> tuple[int, int, int] | None:
    """Arcs cutting each corner of triangle t, or None if coords are invalid."""
    x = [coords[e] for e in state.tri_edges[t]]
    if (x[0] + x[1] + x[2]) % 2:
        return None
    n = tuple((x[(j + 1) % 3] + x[(j + 2) % 3] - x[j]) // 2 for j in range(3))
    return n if all(c >= 0 for c in n) else None


def is_valid_coords(state: Triangulation, coords: Coords) -> bool:
    if len(coords) != NUM_EDGES or any(c < 0 for c in coords):
        return False
    return all(corner_counts(state, t, coords) is not None for t in range(6))


def peripheral_coords(state: Triangulation, v: int) -> Coords:
    """Coordinates of the (inessential) loop around one puncture."""
    return tuple(state.ends_at(e, v) for e in range(NUM_EDGES))


def count_components(state: Triangulation, coords: Coords) -> int:
    """Number of connected components of the multicurve with these coords.

    Crossing points along each side are matched to corner arcs inside the
    triangle (positions run along the side's direction; the first block
    belongs to the corner at the side's start) and across the gluing (which
    reverses positions).
    """
    if not is_valid_coords(state, coords):
        raise ValueError("invalid normal coordinates")
    arcs = DisjointSets()
    corner = {t: corner_counts(state, t, coords) for t in range(6)}
    # corner arcs: arc i at corner c of t crosses side c+2 at position i and
    # side c+1 at position (value of side c+1) - 1 - i
    for t in range(6):
        edges = state.tri_edges[t]
        for c in range(3):
            s1, s2 = (c + 1) % 3, (c + 2) % 3
            for i in range(corner[t][c]):
                arcs.union((t, s2, i), (t, s1, coords[edges[s1]] - 1 - i))
    # gluing reverses the direction of travel along the edge
    for e in range(NUM_EDGES):
        (t1, j1), (t2, j2) = state.slots[e]
        for pos in range(coords[e]):
            arcs.union((t1, j1, pos), (t2, j2, coords[e] - 1 - pos))
    return len(arcs.groups())


def is_essential(state: Triangulation, coords: Coords) -> bool:
    """Valid, connected, and not a loop around a single puncture."""
    if not is_valid_coords(state, coords) or not any(coords):
        return False
    if any(coords == peripheral_coords(state, v) for v in PUNCTURES):
        return False
    return count_components(state, coords) == 1


def essential_curve(coords: Coords, witness: tuple[str, int] | None = None) -> NormalCurve:
    """The curve with these coordinates, refused (ValueError) unless they
    are an essential curve, which ``NormalCurve`` does not check."""
    if not is_essential(BASE, coords):
        raise ValueError(f"coordinates {coords} are not an essential curve")
    return NormalCurve(coords, witness)


# ---------------------------------------------------------------- arc endpoints


def arc_endpoints(coords: Coords) -> frozenset[int]:
    """The two punctures on the twice-punctured side of the curve.

    Traces the complementary regions of the curve through the triangulation:
    each triangle is cut into corner regions (one per arc depth) and a
    central region, glued along edge segments; the curve's complement has
    two components and the one containing exactly two punctures names the
    arc.
    """
    if not is_essential(BASE, coords):
        raise ValueError("arc endpoints require an essential curve")
    regions = DisjointSets()
    corner = {t: corner_counts(BASE, t, coords) for t in range(6)}

    def region(t: int, j: int, k: int):
        """Region touching segment k (0..x) along side j of triangle t."""
        cu, cv = (j + 1) % 3, (j + 2) % 3
        n_u = corner[t][cu]
        if k < n_u:
            return (t, cu, k)
        x = coords[BASE.tri_edges[t][j]]
        if k > n_u:
            return (t, cv, x - k)
        # between the two corner stacks: the central region (depth n_c of
        # every corner is the same region)
        return (t, "center")

    for e in range(NUM_EDGES):
        (t1, j1), (t2, j2) = BASE.slots[e]
        x = coords[e]
        for k in range(x + 1):
            regions.union(region(t1, j1, k), region(t2, j2, x - k))
    # make the three deepest corner regions and the center one region
    for t in range(6):
        for c in range(3):
            regions.union((t, c, corner[t][c]), (t, "center"))
    sides: dict = {}
    for t in range(6):
        for c in range(3):
            root = regions.find((t, c, 0))  # the region touching the corner vertex
            sides.setdefault(root, set()).add(BASE.tri_corners[t][c])
    sizes = sorted(len(side) for side in sides.values())
    if sizes != [2, 3]:
        raise RuntimeError(f"curve complement has sides of {sizes} punctures")
    return frozenset(min(sides.values(), key=len))


# ---------------------------------------------------------------- the action


def act(word: str, curve: NormalCurve) -> NormalCurve:
    """Apply a word to a curve, extending its witness when present; the
    image is checked to be an essential curve."""
    coords = apply_word(word, curve.coords)
    witness = None
    if curve.witness is not None:
        witness = (reduce_word(curve.witness[0] + word), curve.witness[1])
    return essential_curve(coords, witness)


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
    return essential_curve(coords, witness)


def detected_curves(alpha: NormalCurve, beta: NormalCurve, w) -> set[NormalCurve]:
    """``s5windows.detect_half_twists`` for two window curves, as curves."""
    found = detect_half_twists(w, w.index[alpha.coords], w.index[beta.coords])
    return {window_curve(w, g) for g in found}


# ---------------------------------------------------------------- arc complex


def witness_disjoint(a: NormalCurve | Coords, b: NormalCurve | Coords) -> bool:
    """Adjacency in the curve graph: distinct curves that do not meet, read
    through a witness word by ``curves.intersection_number``."""
    return _coords(a) != _coords(b) and intersection_number(a, b) == 0


def is_pentagon_set(arcs) -> bool:
    """Five distinct curves of ``arc2.Arc2Vertex`` arcs forming a chordless
    5-cycle under disjointness."""
    if len({a.curve.coords for a in arcs}) != 5:
        return False
    deg = [0] * 5
    edges = 0
    for (i, a), (j, b) in combinations(enumerate(arcs), 2):
        if witness_disjoint(a.curve, b.curve):
            deg[i] += 1
            deg[j] += 1
            edges += 1
    return edges == 5 and all(d == 2 for d in deg)


def pentagon_cycle(arcs) -> tuple:
    """Five pentagon arcs along their cycle, canonically: from the least
    curve, each step to the least remaining curve disjoint from the last."""
    if not is_pentagon_set(arcs):
        raise RuntimeError("pentagon_cycle needs a chordless 5-cycle")

    def by_curve(a):
        return a.curve.coords

    arcs = sorted(arcs, key=by_curve)
    order = [arcs[0]]
    rest = arcs[1:]
    while rest:
        nxt = min((a for a in rest if witness_disjoint(order[-1].curve, a.curve)),
                  key=by_curve)
        order.append(nxt)
        rest.remove(nxt)
    return tuple(order)


# ---------------------------------------------------------------- adjacency


def set_adjacency(w: Window) -> tuple[frozenset[int], ...]:
    """The neighbours of each window vertex as a set, for membership."""
    return tuple(map(frozenset, w.neighbors))


def rows_from_edges(n: int, edges) -> tuple[tuple[int, ...], ...]:
    """The sorted neighbour rows of the graph on 0..n-1 with the pairs
    ``edges``, each pair added to both of its ends' rows."""
    rows: list[list[int]] = [[] for _ in range(n)]
    for i, j in edges:
        rows[i].append(j)
        rows[j].append(i)
    return tuple(tuple(sorted(row)) for row in rows)


def check_rows(w: Window) -> None:
    """``w.vertices`` increase strictly, as ``QuotientWindow``'s class order
    needs, and ``w.neighbors`` has a row per vertex, each strictly
    increasing (so no neighbour repeats), in range and without its own
    vertex, and j is in row i exactly when i is in row j."""
    n, keys, rows = len(w), w.vertices, w.neighbors
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert len(rows) == n
    for i, row in enumerate(rows):
        assert all(a < b for a, b in zip(row, row[1:])), (i, row)
        assert all(0 <= j < n and j != i for j in row), (i, row)
    arcs = {(i, j) for i, row in enumerate(rows) for j in row}
    assert all((j, i) in arcs for i, j in arcs)


# ---------------------------------------------------------------- JSON


def window_json(w: Window, key_str) -> dict:
    """The window's JSON object as a dict tree."""
    verts = []
    for i, v in enumerate(w.vertices):
        rec = {"id": i, "key": key_str(v)}
        if w.words is not None:
            rec["word"] = w.words[i]
        verts.append(rec)
    return {
        "instance": w.instance,
        "basepoint": key_str(w.basepoint),
        "bound": w.bound,
        "vertices": verts,
        "edges": [list(e) for e in w.edges],
    }


def quotient_json(q, key_str) -> dict:
    """The quotient's JSON object as a dict tree: its window's, plus the
    classes and the displacement report."""
    data = window_json(q.window, key_str)
    data["classes"] = [list(c) for c in q.classes]
    data["displacement"] = list(q.displacement)
    return data


# ---------------------------------------------------------------- Farey windows


def adjacent(s: farey.Slope, t: farey.Slope) -> bool:
    """Farey adjacency: the pairing |p q' - q p'| equals 1."""
    return abs(s.p * t.q - s.q * t.p) == 1


def axis_displacement(m: farey.IntMatrix) -> int | None:
    """min over all slopes s of d(s, m s), for det 1 and |trace| > 2, else
    None: the floor that ``farey._period_minimisers`` finds on m's ladder."""
    found = farey._period_minimisers(m)
    return None if found is None else found[0]


def sorted_slopes_of_height(height: int) -> list[farey.Slope]:
    """``farey.slopes_of_height`` by checking and sorting every slope."""
    out = [farey.INFINITY] if height >= 1 else []
    for q in range(1, height + 1):
        for p in range(-height, height + 1):
            if math.gcd(abs(p), q) == 1:
                out.append(farey.Slope(p, q))
    return sorted(out)


def farey_neighbors(s: farey.Slope, height: int):
    """The Farey neighbours of s of height at most ``height``, each once."""
    # the solutions (x, y) of s.p * y - s.q * x = 1 are (x0 + k p, y0 + k q)
    # with a p + b q = 1, x0 = -b, y0 = a; those of = -1 are their negatives,
    # so with |y| <= height they give every neighbour once
    a, b = farey._bezout(s.p, s.q)
    if s.q == 0:
        ks = range(-height, height + 1)
    else:
        ks = range(-((height + a) // s.q), (height - a) // s.q + 1)
    for k in ks:
        x, y = k * s.p - b, k * s.q + a
        if y < 0 or (y == 0 and x < 0):
            x, y = -x, -y
        if abs(x) <= height:
            yield farey.Slope(x, y)


def slope_neighbour_window(height: int, basepoint: farey.Slope = farey.ZERO) -> Window:
    """``farey.farey_window`` with a checked Slope per neighbour, each
    vertex's neighbours looked up and sorted."""
    vertices = sorted_slopes_of_height(height)
    index = {s: i for i, s in enumerate(vertices)}
    edges = []
    for i, s in enumerate(vertices):
        later = sorted(index[t] for t in farey_neighbors(s, height))
        edges.extend((i, j) for j in later if j > i)
    return Window(
        instance="farey",
        basepoint=basepoint,
        bound=height,
        vertices=tuple(vertices),
        neighbors=rows_from_edges(len(vertices), edges),
        words=None,
    )


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


# ---------------------------------------------------------------- quotients


def representative(q, c: int) -> int:
    """The representative of class c of the quotient q: its least vertex."""
    return q.classes[c][0]


def apply_and_lookup_moves(w: Window, words, contract) -> list[list[tuple]]:
    """vertex i -> [(j, g)] for each sample element g with g v_i = v_j, fixed
    points included, in sample order: each element applied to every window
    vertex and the image looked up."""
    moves: list[list[tuple]] = [[] for _ in range(len(w))]
    for word in words:
        g = contract.element(word)
        fn = contract.act(g)
        for i, v in enumerate(w.vertices):
            j = w.index.get(fn(v))
            if j is not None:
                moves[i].append((j, g))
    return moves


def reference_quotient(w: Window, words, contract, moves=None) -> QuotientWindow:
    """``quotient.build_quotient`` by a search from every vertex: the moves
    of every vertex (``apply_and_lookup_moves`` unless given), and a
    breadth-first search from each unreached vertex in index order, so a
    class is numbered when its least member is reached; a class with one
    member is not merged, whatever its fixed points."""
    if moves is None:
        moves = apply_and_lookup_moves(w, words, contract)
    identified = {(i, j) for i, out in enumerate(moves) for j, _ in out}
    if any((j, i) not in identified for i, j in identified):
        raise RuntimeError(f"sample {list(words)} is not closed under inverses")
    class_of = [-1] * len(w)
    transporter = [contract.element("")] * len(w)
    classes = []
    for rep in range(len(w)):
        if class_of[rep] >= 0:
            continue
        class_of[rep] = c = len(classes)
        members = [rep]
        for i in members:
            for j, g in moves[i]:
                if class_of[j] < 0:
                    class_of[j] = c
                    transporter[j] = contract.compose(transporter[i], g)
                    members.append(j)
        classes.append(tuple(sorted(members)))
    return QuotientWindow(
        window=w,
        contract=contract,
        class_of=tuple(class_of),
        classes=tuple(classes),
        merged=tuple(c for c, members in enumerate(classes) if len(members) > 1),
        transporter=tuple(transporter),
        displacement=displacement_report(w, words, contract),
    )


def window_certifies_two(w: Window, i: int, m: int, v: int) -> bool:
    """Whether the window alone shows d(i, v) = 2 along the path i, m, v.

    A window is an induced subgraph, so a missing edge between distinct
    vertices means distance at least 2, and the path gives at most 2.  The
    lifting oracles ask the contract's certificate only where this fails;
    the tests check that it never does, which is why
    ``suites.verify_lipschitz_lifting`` reads no certificate.
    """
    near = w.neighbors[i]
    return i != v and v not in near and m in near and v in w.neighbors[m]


def _edge_lifts(q, contract):
    """``QuotientWindow.lift`` with a witnessing window edge stored for every
    ordered pair of adjacent classes, singletons included."""
    w = q.window
    class_of, vertices, index = q.class_of, w.vertices, w.index
    rep_edge = {}
    for i, j in w.edges:
        ci, cj = class_of[i], class_of[j]
        if ci == cj:
            continue
        rep_edge.setdefault((ci, cj), (i, j))
        rep_edge.setdefault((cj, ci), (j, i))
    transports = {}

    def lift(i: int, other_class: int):
        u0, v0 = rep_edge[(class_of[i], other_class)]
        if u0 == i:
            return vertices[v0], v0
        fn = transports.get((u0, i))
        if fn is None:
            g = contract.compose(contract.invert(q.transporter[u0]), q.transporter[i])
            fn = transports[(u0, i)] = contract.act(g)
        v_key = fn(vertices[v0])
        return v_key, index.get(v_key)

    return lift


def per_site_lipschitz_lifting(w: Window, q, contract,
                               truncated_sites: list | None = None) -> dict:
    """``suites.verify_lipschitz_lifting`` lifting at every site.

    Each truncated site is appended to ``truncated_sites`` when given, as
    ("edge", a, b) for part (b) and ("geodesic", a, mid, b) for part (c).
    """
    key = contract.key_str
    witnesses = []
    eligible = truncated = 0
    sites = [] if truncated_sites is None else truncated_sites

    for c, i, j in q.loops:
        eligible += 1
        witnesses.append({
            "kind": "collapsed-edge",
            "edge": [key(w.vertices[i]), key(w.vertices[j])],
        })

    lift = _edge_lifts(q, contract)
    adj, class_of, classes = set_adjacency(w), q.class_of, q.classes
    for ci, cj in q.graph.edges:
        for a, b in ((ci, cj), (cj, ci)):
            for i in classes[a]:
                eligible += 1
                v_key, v = lift(i, b)
                if v is None:
                    truncated += 1
                    sites.append(("edge", a, b))
                    continue
                if not (v in adj[i] and class_of[v] == b):
                    witnesses.append({
                        "kind": "edge-lift", "at": key(w.vertices[i]),
                        "to_class": b, "lift": key(v_key),
                    })

    qw = q.graph
    qadj = set_adjacency(qw)
    geodesic = []

    def witness(mid, a, b, lifted, **extra):
        geodesic.append(((mid, a, b), {
            "kind": "geodesic-lift", "classes": [a, b],
            "lift": [key(x) for x in lifted], **extra,
        }))

    for a in range(len(q)):
        i = classes[a][0]
        seen = set()
        for mid in qw.neighbors[a]:
            for b in qw.neighbors[mid]:
                if b <= a or b in qadj[a] or b in seen:
                    continue
                seen.add(b)
                eligible += 1
                m_key, m = lift(i, mid)
                if m is None:
                    truncated += 1
                    sites.append(("geodesic", a, mid, b))
                elif class_of[m] != mid:
                    witness(mid, a, b, (w.vertices[i], m_key),
                            mid_class=mid, reached_class=class_of[m])
                else:
                    v_key, v = lift(m, b)
                    if v is None:
                        truncated += 1
                        sites.append(("geodesic", a, mid, b))
                    elif class_of[v] != b:
                        witness(mid, a, b, (w.vertices[i], m_key, v_key),
                                reached_class=class_of[v])
                    elif not window_certifies_two(w, i, m, v):
                        d, exact = contract.certificate(w.vertices[i], v_key, w)
                        if not exact:
                            truncated += 1
                            sites.append(("geodesic", a, mid, b))
                        elif d != 2:
                            witness(mid, a, b, (w.vertices[i], m_key, v_key),
                                    distance=d)
    geodesic.sort(key=lambda site: site[0])
    witnesses.extend(x for _, x in geodesic)
    return _report(
        "lipschitz-lifting", _status(witnesses, q, LIFTING_THRESHOLD),
        eligible=eligible, truncated=truncated, witnesses=witnesses,
    )


def per_site_local_covering(w: Window, q, contract) -> dict:
    """``suites.verify_local_covering`` scanning every star's pairs."""
    key = contract.key_str
    witnesses = []
    eligible = truncated = 0
    lift = _edge_lifts(q, contract)
    qw = q.graph
    adj, qadj, class_of = set_adjacency(w), set_adjacency(qw), q.class_of
    for i in range(len(w)):
        eligible += 1
        ci = class_of[i]
        by_class: dict[int, int] = {}
        for j in w.neighbors[i]:
            cj = class_of[j]
            if cj in by_class:
                witnesses.append({
                    "kind": "star-collapse", "at": key(w.vertices[i]),
                    "neighbors": [key(w.vertices[by_class[cj]]), key(w.vertices[j])],
                })
            by_class[cj] = j
        for b in qw.neighbors[ci]:
            if b in by_class:
                continue
            if lift(i, b)[1] is None:
                truncated += 1
            else:
                witnesses.append({
                    "kind": "star-missing-edge", "at": key(w.vertices[i]),
                    "to_class": b,
                })
        for j, k in combinations(w.neighbors[i], 2):
            if class_of[k] in qadj[class_of[j]] and k not in adj[j]:
                witnesses.append({
                    "kind": "star-false-triangle", "at": key(w.vertices[i]),
                    "pair": [key(w.vertices[j]), key(w.vertices[k])],
                })
    return _report(
        "local-covering", _status(witnesses, q, LIFTING_THRESHOLD),
        eligible=eligible, truncated=truncated, witnesses=witnesses,
    )


# ---------------------------------------------------------------- walked suites


def walk_simplicial(q) -> dict:
    """``suites.check_simplicial`` reading every star of the window.

    No identified pair is adjacent; no star maps two neighbors together.

    A collapsed window edge is a loop in the quotient; two distinct
    neighbors of one vertex falling into the same class create a parallel
    edge.  Both are ruled out by displacement >= 3.
    """
    witnesses = []
    w, key = q.window, q.contract.key_str
    for c, i, j in q.loops:
        witnesses.append({
            "kind": "loop", "class": c,
            "edge": [key(w.vertices[i]), key(w.vertices[j])],
        })
    nbrs = w.neighbors
    for i in range(len(w)):
        seen: dict[int, int] = {}
        for j in nbrs[i]:
            c = q.class_of[j]
            if c in seen and q.class_of[i] != c:
                witnesses.append({
                    "kind": "parallel", "at": key(w.vertices[i]),
                    "neighbors": [key(w.vertices[seen[c]]), key(w.vertices[j])],
                })
            else:
                seen[c] = j
    return _report(
        "simplicial", _status(witnesses, q, SIMPLICIAL_THRESHOLD),
        eligible=len(q), truncated=0, witnesses=witnesses,
    )


def walk_lipschitz_lifting(q) -> dict:
    """``suites.verify_lipschitz_lifting`` walking every quotient edge and
    every distance-2 pair of classes.

    Edges project to edges; quotient edges and geodesics lift.

    (a) no window edge collapses to a point; (b) every quotient edge lifts
    at every member of either endpoint class (edge-by-edge path lifting
    follows by induction); (c) every pair of classes at quotient distance 2
    admits a lift realizing true distance 2.  Lifts leaving the window are
    truncated sites.  In (c), a lift that lands outside the class it was
    taken over (possible out of hypothesis), first to the middle class or
    then to the far one, is an eligible ``geodesic-lift`` witness naming
    the class reached, never a truncated site, and no distance is measured
    to it.

    Sites at singleton classes are counted as eligible and decided without
    a lift.  In (b), the lift at the only member of a class is the
    representative window edge itself: adjacent, inside the window and in
    the other class.  In (c), when the first class and the middle one are
    singletons, both lifts are representative edges, and the window
    certifies distance 2: the two ends are distinct, and not adjacent,
    since every window edge between distinct classes is a quotient edge.
    So every truncated site touches a class with more than one member.
    """
    w, key = q.window, q.contract.key_str
    witnesses = []
    eligible = truncated = 0

    for c, i, j in q.loops:
        eligible += 1
        witnesses.append({
            "kind": "collapsed-edge",
            "edge": [key(w.vertices[i]), key(w.vertices[j])],
        })

    lift = _edge_lifts(q, q.contract)
    nbrs, class_of, classes = w.neighbors, q.class_of, q.classes
    single = [len(members) == 1 for members in classes]
    for ci, cj in q.graph.edges:
        for a, b in ((ci, cj), (cj, ci)):
            if single[a]:
                eligible += 1
                continue
            for i in classes[a]:
                eligible += 1
                v_key, v = lift(i, b)
                if v is None:
                    truncated += 1
                    continue
                if not (v in nbrs[i] and class_of[v] == b):
                    witnesses.append({
                        "kind": "edge-lift", "at": key(w.vertices[i]),
                        "to_class": b, "lift": key(v_key),
                    })

    # distance-2 geodesics, exhaustively over class pairs a < b, each taken
    # over its least common neighbour mid; a lift that leaves the class it
    # was taken over (possible out of hypothesis) is a witness naming the
    # class reached.  Witnesses are listed in (mid, a, b) order.
    qnbrs = q.graph.neighbors
    geodesic = []

    def witness(mid, a, b, lifted, **extra):
        geodesic.append(((mid, a, b), {
            "kind": "geodesic-lift", "classes": [a, b],
            "lift": [key(x) for x in lifted], **extra,
        }))

    for a in range(len(q)):
        i = classes[a][0]
        seen = set(qnbrs[a])
        for mid in qnbrs[a]:
            later = qnbrs[mid]
            later = later[bisect_right(later, a):]
            if single[a] and single[mid]:
                seen.update(later)  # decided without a lift
                continue
            for b in later:
                if b in seen:
                    continue
                seen.add(b)
                m_key, m = lift(i, mid)
                if m is None:
                    truncated += 1
                elif class_of[m] != mid:
                    witness(mid, a, b, (w.vertices[i], m_key),
                            mid_class=mid, reached_class=class_of[m])
                else:
                    v_key, v = lift(m, b)
                    if v is None:
                        truncated += 1
                    elif class_of[v] != b:
                        witness(mid, a, b, (w.vertices[i], m_key, v_key),
                                reached_class=class_of[v])
                    elif not window_certifies_two(w, i, m, v):
                        d, exact = q.contract.certificate(w.vertices[i], v_key, w)
                        if not exact:
                            truncated += 1
                        elif d != 2:
                            witness(mid, a, b, (w.vertices[i], m_key, v_key),
                                    distance=d)
        # every site of a is a class b it saw beyond its own neighbours
        eligible += len(seen) - len(qnbrs[a])
    geodesic.sort(key=lambda site: site[0])
    witnesses.extend(x for _, x in geodesic)
    return _report(
        "lipschitz-lifting", _status(witnesses, q, LIFTING_THRESHOLD),
        eligible=eligible, truncated=truncated, witnesses=witnesses,
    )


def walk_ball2_isometry(q) -> dict:
    """``suites.verify_ball2_isometry`` reading every class and every
    quotient edge.

    The projection is injective and distance-preserving on 2-balls.

    Reformulated over classes, which is exact and free of window-boundary
    effects: an injectivity failure on some B(x, 2) is a distinct identified
    pair at distance <= 4, and a distance distortion is an adjacent class
    pair with a cross-distance in {2, 3, 4} (both endpoints then lie in a
    common 2-ball centred on the short path).  Sites where the instance
    cannot certify "distance >= 5" are truncated, not passed.
    """
    w, key = q.window, q.contract.key_str
    witnesses = []
    eligible = truncated = 0

    def far_apart(x, y) -> bool | None:
        d, exact = q.contract.certificate(x, y, w)
        return None if d < 5 and not exact else d >= 5

    for members in q.classes:
        for i, j in combinations(members, 2):
            eligible += 1
            far = far_apart(w.vertices[i], w.vertices[j])
            if far is None:
                truncated += 1
            elif not far:
                witnesses.append({
                    "kind": "ball-injectivity",
                    "pair": [key(w.vertices[i]), key(w.vertices[j])],
                })
    nbrs = w.neighbors
    for a, b in q.graph.edges:
        for i in q.classes[a]:
            for j in q.classes[b]:
                eligible += 1
                if j in nbrs[i]:  # the window is an induced subgraph
                    continue
                x, y = w.vertices[i], w.vertices[j]
                far = far_apart(x, y)
                if far is None:
                    truncated += 1
                elif not far:
                    witnesses.append({
                        "kind": "distance-distortion",
                        "pair": [key(x), key(y)],
                        "classes": [a, b],
                    })
    return _report(
        "ball2-isometry", _status(witnesses, q, LIFTING_THRESHOLD),
        eligible=eligible, truncated=truncated, witnesses=witnesses,
    )


def walk_local_covering(q) -> dict:
    """``suites.verify_local_covering`` reading every star of the window.

    Stars map isomorphically: injective on neighbors, surjective onto the
    quotient star, and triangle-reflecting (two neighbors with adjacent
    classes must be adjacent; both lie in a 2-ball, so this is exact).

    The triangle scan skips every pair of neighbours in singleton classes:
    two singleton classes are adjacent exactly when their members are, since
    quotient edges are the window edges between classes.  The pairs it reads
    come in the order of ``itertools.combinations`` over the star."""
    w, key = q.window, q.contract.key_str
    witnesses = []
    eligible = truncated = 0
    lift = _edge_lifts(q, q.contract)
    nbrs, qnbrs, class_of = w.neighbors, q.graph.neighbors, q.class_of
    single = [len(members) == 1 for members in q.classes]
    for i in range(len(w)):
        eligible += 1
        ci = class_of[i]
        star = nbrs[i]
        by_class: dict[int, int] = {}
        for j in star:
            cj = class_of[j]
            if cj in by_class:
                witnesses.append({
                    "kind": "star-collapse", "at": key(w.vertices[i]),
                    "neighbors": [key(w.vertices[by_class[cj]]), key(w.vertices[j])],
                })
            by_class[cj] = j
        for b in qnbrs[ci]:
            if b in by_class:
                continue
            if lift(i, b)[1] is None:
                truncated += 1
            else:
                witnesses.append({
                    "kind": "star-missing-edge", "at": key(w.vertices[i]),
                    "to_class": b,
                })
        merged = [p for p, j in enumerate(star) if not single[class_of[j]]]
        if not merged:
            continue
        larger = [star[p] for p in merged]
        for p, j in enumerate(star):
            cj = class_of[j]
            # a neighbour in a singleton class pairs only with larger classes
            later = larger[bisect_right(merged, p):] if single[cj] else star[p + 1:]
            for k in later:
                if class_of[k] in qnbrs[cj] and k not in nbrs[j]:
                    witnesses.append({
                        "kind": "star-false-triangle", "at": key(w.vertices[i]),
                        "pair": [key(w.vertices[j]), key(w.vertices[k])],
                    })
    return _report(
        "local-covering", _status(witnesses, q, LIFTING_THRESHOLD),
        eligible=eligible, truncated=truncated, witnesses=witnesses,
    )


# ---------------------------------------------------------------- pentagon transfer


def _lift_cycle(adj, q, classes: tuple[int, ...]):
    """A window cycle over the given class cycle, or None; ``adj`` is the
    window's ``set_adjacency``."""
    n = len(classes)

    def extend(assign: list[int]):
        k = len(assign)
        if k == n:
            return assign if assign[0] in adj[assign[-1]] else None
        for v in q.classes[classes[k]]:
            if k == 0 or v in adj[assign[-1]]:
                got = extend(assign + [v])
                if got is not None:
                    return got
        return None

    return extend([])


def transfer_pentagons(w: Window, q, contract) -> dict:
    """``suites.transfer_pentagons`` testing each projected cycle's edges and
    chords in the quotient graph, and searching each quotient pentagon for a
    window cycle over it."""
    witnesses = []
    eligible = truncated = 0
    up = enumerate_pentagons(w)
    qw = q.graph
    qadj = set_adjacency(qw)

    def is_quotient_pentagon(cyc: tuple[int, ...]) -> bool:
        if len(set(cyc)) != 5:
            return False
        for k in range(5):
            if cyc[(k + 1) % 5] not in qadj[cyc[k]]:
                return False
            if cyc[(k + 2) % 5] in qadj[cyc[k]]:
                return False
        return True

    projected: dict[tuple[int, ...], int] = {}
    for pent in up:
        eligible += 1
        cyc = tuple(q.class_of[v] for v in pent)
        if not is_quotient_pentagon(cyc):
            witnesses.append({
                "kind": "projection-not-pentagon",
                "pentagon": [contract.key_str(w.vertices[v]) for v in pent],
            })
            continue
        canon = canonical_cycle(cyc)
        projected[canon] = projected.get(canon, 0) + 1

    down = enumerate_pentagons(qw)
    outer = boundary(w)
    adj = set_adjacency(w)
    lifted = 0
    for classes in down:
        eligible += 1
        lift = _lift_cycle(adj, q, classes)
        if lift is not None:
            lifted += 1
            continue
        if any(v in outer for c in classes for v in q.classes[c]):
            truncated += 1
        else:
            witnesses.append({"kind": "pentagon-no-lift", "classes": list(classes)})
    return _report(
        "pentagon-transfer", _status(witnesses, q, LIFTING_THRESHOLD),
        eligible=eligible, truncated=truncated, witnesses=witnesses,
        upstairs=len(up), downstairs=len(down), lifted=lifted,
        projected_distinct=len(projected),
    )
