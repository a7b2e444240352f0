"""Windows, pentagons, and half-twist detection on the five-punctured sphere.

Windows are generated by applying bounded-length generator words to the base
pentagon (or to supplied seed curves); edges record disjointness, read off
the vertices' witness words (``curves.witness_reader``).  The same
per-window readers tell the S5 quotient contract whether a window vertex is
disjoint from any curve at all.  Pentagons are chordless 5-cycles — since
window edges capture all disjointness, a chordless cycle automatically has
intersecting non-adjacent pairs, which is isometric embeddedness at the
decidable level.  A half-twist pair about beta is detected purely
combinatorially from two pentagons sharing an edge, for curves alpha and
beta meeting twice.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .curves import BASE_CURVES, NormalCurve, intersection_number, witness_reader
from .mcg import WORD_ALPHABET, apply_word, reduce_word
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
    if not isinstance(text, str):
        raise ValueError(f"witness {text!r} is not text")
    word, _, base = text.rpartition(".") if "." in text else ("", "", text)
    return word, int(base.lstrip("c"))


# where witness_readers keeps a window's readers: in the window's own
# __dict__, as functools.cached_property does, so that a lookup never hashes
# the window (a dataclass hash walks every vertex and edge)
_READERS = "_witness_readers"
NO_WORDS = "S5 windows need witness words"


def witness_readers(w: Window) -> tuple[tuple[str, int], ...]:
    """``curves.witness_reader`` (g^-1, e_k) of each vertex v = g(c_k) of an
    S5 window, by index, so that i(v, x) = 2 * apply_word(g^-1, x)[e_k].

    Built once per window, when every witness is checked against its
    vertex: a wrong witness (in a cached or hand-made window) raises
    ValueError rather than giving wrong intersections.
    """
    readers = w.__dict__.get(_READERS)
    if readers is None:
        if w.words is None:
            raise ValueError(NO_WORDS)
        readers = tuple(witness_reader(v, parse_witness(t))
                        for v, t in zip(w.vertices, w.words))
        w.__dict__[_READERS] = readers
    return readers


def build_window(
    word_bound: int, seeds: tuple[NormalCurve, ...] = BASE_CURVES
) -> Window:
    """All curves w(seed) with |w| <= word_bound, edges for disjointness.

    Vertices are ordered lexicographically by coordinates; each keeps the
    first witness found (breadth-first, letters in alphabet order), so the
    result is deterministic.

    Edges come from the witnesses: each pair is read through the
    ``witness_readers`` entry of the vertex with the shorter witness.  The
    readers are kept on the window for the S5 contract, which reads
    adjacency to curves outside the window the same way.
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
    # (and validated) per image; a witness extends by the letter applied
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
    readers = tuple(witness_reader(v, x) for v, x in zip(vertices, witnesses))
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
    """Disjointness of a vertex a of w from a distinct curve b, both given
    as coordinates, read off a's witness word."""
    i = w.index.get(a)
    if i is None:
        raise ValueError(f"curve {curve_key_str(a)} is not a window vertex")
    inverse, edge = witness_readers(w)[i]
    return apply_word(inverse, b)[edge] == 0


def window_curve(w: Window, i: int) -> NormalCurve:
    if w.words is None:
        raise ValueError(NO_WORDS)
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


@lru_cache(maxsize=64)
def pentagons_by_edge(w: Window) -> dict[tuple[int, int], tuple[tuple[int, ...], ...]]:
    """The pentagons through each edge (i, j), i < j, of w that lies on one.

    Memoized per window like ``enumerate_pentagons``; the values are tuples
    so that no caller can change the shared map's pentagon lists.
    """
    by_edge: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for pent in enumerate_pentagons(w):
        for k in range(5):
            e = (pent[k], pent[(k + 1) % 5])
            by_edge.setdefault((min(e), max(e)), []).append(pent)
    return {e: tuple(pents) for e, pents in by_edge.items()}


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


def detect_half_twists(w: Window, ia: int, ib: int) -> set[int]:
    """The half-twist pair about beta = vertex ib applied to alpha = vertex ia.

    Refuses alpha and beta unless i(alpha, beta) = 2, the hypothesis under
    which the result only ever contains H_beta(alpha) and H_beta^-1(alpha),
    and equals that pair once w contains the detecting pentagons.
    """
    n = intersection_number(window_curve(w, ia), window_curve(w, ib))
    if n != 2:
        raise ValueError(f"half-twist detection needs i(alpha, beta) = 2, not {n}")
    return detect_half_twist_indices(w, ia, ib)
