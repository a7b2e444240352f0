"""Windows, pentagons, and half-twist detection on the five-punctured sphere.

Windows are generated by applying bounded-length generator words to the base
pentagon (or to supplied seed curves); edges record disjointness, read off
the vertices' witness words rather than computed pair by pair.  The same
per-window readers tell the S5 quotient contract whether a window vertex is
disjoint from any curve at all, so checking a quotient needs no
flip-reduction search.  Pentagons are chordless 5-cycles — since window
edges capture all disjointness, a chordless cycle automatically has
intersecting non-adjacent pairs, which is isometric embeddedness at the
decidable level.  A half-twist pair about beta is detected purely
combinatorially from two pentagons sharing an edge.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .curves import (
    BASE_CURVE_EDGES,
    BASE_CURVES,
    NormalCurve,
    disjoint,
    intersection_number,
)
from .mcg import (
    HALF_TWIST_WORDS,
    WORD_ALPHABET,
    apply_word,
    invert_word,
    orientation_parity,
    reduce_word,
)
from .window import Window

S5_INSTANCE = "s5"


def curve_key_str(coords) -> str:
    return ",".join(str(x) for x in coords)


def parse_curve_key(text: str):
    return tuple(int(x) for x in text.split(","))


def witness_str(witness: tuple[str, int]) -> str:
    word, base = witness
    return f"{word}.c{base}" if word else f"c{base}"


def parse_witness(text: str) -> tuple[str, int]:
    word, _, base = text.rpartition(".") if "." in text else ("", "", text)
    return word, int(base.lstrip("c"))


# where witness_readers keeps a window's readers: in the window's own
# __dict__, as functools.cached_property does, so that a lookup never hashes
# the window (a dataclass hash walks every vertex and edge)
_READERS = "_witness_readers"


def _readers(vertices, witnesses) -> tuple[tuple[str, int], ...]:
    """The ``witness_readers`` of vertices with (word, base) witnesses."""
    readers = []
    for coords, (word, base) in zip(vertices, witnesses):
        if not (
            1 <= base <= len(BASE_CURVES)
            and apply_word(word, BASE_CURVES[base - 1].coords) == coords
        ):
            raise ValueError(f"curve {coords} is not {witness_str((word, base))}")
        readers.append((invert_word(word), BASE_CURVE_EDGES[base - 1]))
    return tuple(readers)


def witness_readers(w: Window) -> tuple[tuple[str, int], ...]:
    """(g^-1, e_k) for each vertex v = g(c_k) of an S5 window, by index.

    i(v, x) = i(c_k, g^-1 x) for any curve x, and c_k is its own
    flip-reduced form at edge e_k = BASE_CURVE_EDGES[k-1] (checked when
    ``curves`` is imported), so i(v, x) = 2 * apply_word(g^-1, x)[e_k].
    Built once per window, when every witness is checked against its
    vertex: a wrong witness (in a cached or hand-made window) raises
    ValueError rather than giving wrong intersections.
    ``intersection_number`` stays the oracle for this in the tests.
    """
    readers = w.__dict__.get(_READERS)
    if readers is None:
        if w.words is None:
            raise ValueError("S5 windows need witness words")
        readers = _readers(w.vertices, [parse_witness(t) for t in w.words])
        w.__dict__[_READERS] = readers
    return readers


def build_window(
    word_bound: int, seeds: tuple[NormalCurve, ...] = BASE_CURVES
) -> Window:
    """All curves w(seed) with |w| <= word_bound, edges for disjointness.

    Vertices are ordered lexicographically by coordinates; each keeps the
    first witness found (breadth-first, letters in alphabet order), so the
    result is deterministic.

    Edges come from the witnesses, not from ``intersection_number``: each
    pair is read through the ``witness_readers`` entry of the vertex with
    the shorter witness.  The readers are kept on the window for the S5
    contract, which reads adjacency to curves outside the window the same
    way.
    """
    found: dict[tuple, tuple[str, int]] = {}
    frontier: list[tuple] = []
    for seed in seeds:
        if seed.witness is None:
            raise ValueError("window seeds must carry witness words")
        if seed.coords not in found:
            found[seed.coords] = seed.witness
            frontier.append(seed.coords)
    # images of essential curves are essential, so no NormalCurve is built
    # (and validated) per image; witnesses extend as in mcg.act
    for _ in range(word_bound):
        nxt = []
        for coords in frontier:
            word, base = found[coords]
            for letter in WORD_ALPHABET:
                image = apply_word(letter, coords)
                if image not in found:
                    found[image] = (reduce_word(word + letter), base)
                    nxt.append(image)
        frontier = nxt
    vertices = tuple(sorted(found))
    witnesses = [found[c] for c in vertices]
    readers = _readers(vertices, witnesses)
    lengths = [len(word) for word, _ in witnesses]
    edges = []
    for i, j in combinations(range(len(vertices)), 2):
        p, q = (j, i) if lengths[j] < lengths[i] else (i, j)
        inverse, edge = readers[p]
        if apply_word(inverse, vertices[q])[edge] == 0:
            edges.append((i, j))
    basepoint = min(seed.coords for seed in seeds)
    w = Window(
        instance=S5_INSTANCE,
        basepoint=basepoint,
        bound=word_bound,
        vertices=vertices,
        edges=tuple(edges),
        words=tuple(witness_str(x) for x in witnesses),
    )
    w.__dict__[_READERS] = readers
    return w


def adjacent(w: Window, a: tuple, b: tuple) -> bool:
    """Disjointness of distinct curves a and b, given as coordinates.

    Read off the witness of whichever is a vertex of w; a flip-reduction
    search runs only when neither is.
    """
    i = w.index.get(a)
    if i is None:
        i, a, b = w.index.get(b), b, a
        if i is None:
            return disjoint(a, b)
    inverse, edge = witness_readers(w)[i]
    return apply_word(inverse, b)[edge] == 0


def window_curve(w: Window, i: int) -> NormalCurve:
    word, base = parse_witness(w.words[i])
    return NormalCurve(w.vertices[i], (word, base))


def canonical_cycle(cycle: tuple[int, ...]) -> tuple[int, ...]:
    """Least representative under rotation and reflection.

    The representative starts at an occurrence of the least entry, so only
    the rotations starting there, read both ways, are compared.
    """
    low = min(cycle)
    return min(
        seq[s:] + seq[:s]
        for seq in (tuple(cycle), tuple(reversed(cycle)))
        for s, x in enumerate(seq)
        if x == low
    )


@lru_cache(maxsize=64)
def enumerate_pentagons(w: Window) -> list[tuple[int, int, int, int, int]]:
    """All chordless 5-cycles, each once in its canonical form, sorted.

    A cycle is walked from its least vertex v0 towards the smaller of v0's
    two cycle neighbours (v1 < v4), which is its ``canonical_cycle``; every
    step runs over sorted neighbour lists, so the cycles come out sorted.
    """
    nbrs, adj = w.neighbors, w.adjacency
    pentagons = []
    for v0 in range(len(w)):
        a0 = adj[v0]
        for v1 in nbrs[v0]:
            if v1 < v0:
                continue
            a1 = adj[v1]
            for v2 in nbrs[v1]:
                if v2 <= v0 or v2 in a0:
                    continue
                a2 = adj[v2]
                for v3 in nbrs[v2]:
                    if v3 <= v0 or v3 == v1 or v3 in a0 or v3 in a1:
                        continue
                    for v4 in nbrs[v3]:
                        if v4 > v1 and v4 in a0 and v4 not in a1 and v4 not in a2:
                            pentagons.append((v0, v1, v2, v3, v4))
    return pentagons


def pentagons_by_edge(w: Window) -> dict[tuple[int, int], list[tuple[int, ...]]]:
    """The pentagons through each edge (i, j), i < j, of w that lies on one."""
    by_edge: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for pent in enumerate_pentagons(w):
        for k in range(5):
            e = (pent[k], pent[(k + 1) % 5])
            by_edge.setdefault((min(e), max(e)), []).append(pent)
    return by_edge


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
    if intersection_number(alpha, beta) != 2:
        raise ValueError("half-twist detection needs i(alpha, beta) = 2")
    word = half_twist_word(beta, sign)
    coords = apply_word(word, alpha.coords)
    witness = None
    if alpha.witness is not None:
        wa, base = alpha.witness
        witness = (wa + word, base)
    return NormalCurve(coords, witness)


# Arrangement of the two detecting pentagons: they share an edge
# {gamma, delta}; alpha lies in the first pentagon adjacent to delta (not in
# the second), beta in the second pentagon adjacent to delta (not in the
# first).  Selected as the unique reading under which detection returns
# exactly the half-twist pair on the base configuration; any other choice of
# positions returns a different set there (the tests check all nine).
DETECTION_PATTERN = ("near_delta", "near_delta")


def _positions(pentagon: tuple[int, ...], g: int, d: int) -> dict[str, set[int]]:
    """Vertices of the pentagon by position relative to its edge (g, d)."""
    cyc = list(pentagon)
    n = 5
    k = cyc.index(g)
    if cyc[(k + 1) % n] == d:
        order = [cyc[(k + t) % n] for t in range(n)]
    elif cyc[(k - 1) % n] == d:
        order = [cyc[(k - t) % n] for t in range(n)]
    else:
        raise RuntimeError(f"({g}, {d}) is not an edge of pentagon {pentagon}")
    # order = [gamma, delta, x, y, z] with x adjacent to delta, z to gamma
    return {"near_delta": {order[2]}, "opposite": {order[3]}, "near_gamma": {order[4]}}


def detect_half_twist_indices(w: Window, ia: int, ib: int) -> set[int]:
    """Vertices admitting the two-pentagon configuration, by window index.

    Works on any window-shaped graph (including quotient graphs keyed by
    class representatives): only the adjacency structure is used.
    """
    pos_a, pos_b = DETECTION_PATTERN
    detected: set[int] = set()
    for (u, v), pents in pentagons_by_edge(w).items():
        if len(pents) < 2:
            continue
        for gamma, delta in ((u, v), (v, u)):
            if gamma in (ia, ib) or delta in (ia, ib):
                continue
            first = [
                p for p in pents
                if ia in _positions(p, gamma, delta)[pos_a] and ib not in p
            ]
            second = [
                p for p in pents
                if ib in _positions(p, gamma, delta)[pos_b] and ia not in p
            ]
            if any(p1 != p2 for p1 in first for p2 in second):
                detected.add(gamma)
    return detected


def detect_half_twists(
    alpha: NormalCurve, beta: NormalCurve, w: Window
) -> set[NormalCurve]:
    """All curves gamma admitting the two-pentagon configuration in w.

    Contract: the result only ever contains the pair {H_beta(alpha),
    H_beta^-1(alpha)} and equals it once w contains the detecting pentagons.
    """
    detected = detect_half_twist_indices(w, w.index[alpha.coords], w.index[beta.coords])
    return {window_curve(w, g) for g in detected}
