"""Windows, pentagons, and half-twist detection on the five-punctured sphere.

Windows are generated by applying bounded-length generator words to the base
pentagon (or to supplied seed curves); edges record disjointness.  Every fact
of an S5 window that its witness words give is a per-window table read off
one parse of them (``witnesses``): the readers that give intersection
numbers (``curves.witness_reader``), which read a window's pairs in groups,
one per reader, and serve the S5 quotient contract too; the puncture pair
each curve cuts off, which rules pairs out unread and gives an arc's
endpoints in the arc complex; the boundary vertices; and each vertex's
curve.  A sample word's image of the window is kept per window too
(``word_images``).  Pentagons are chordless 5-cycles — since window edges
capture all disjointness, a chordless cycle automatically has intersecting
non-adjacent pairs, which is isometric embeddedness at the decidable level.  A half-twist
pair about beta is detected purely combinatorially from two pentagons
sharing an edge, for curves alpha and beta meeting twice.
"""

from __future__ import annotations

from itertools import compress
from operator import itemgetter, not_

from .curves import (BASE_CURVE_PAIRS, BASE_CURVES, NormalCurve,
                     intersection_number, witness_reader)
from .mcg import (NUM_EDGES, WORD_ALPHABET, apply_word, apply_word_many,
                  puncture_permutation, reduce_word)
from .window import Window, per_window

S5_INSTANCE = "s5"


def curve_key_str(coords) -> str:
    return ",".join(map(str, coords))


def parse_curve_key(text: str):
    """The coordinates a curve key names; ValueError unless it is the
    ``curve_key_str`` of nine integers."""
    try:
        coords = tuple(int(x) for x in text.split(","))
    except (AttributeError, ValueError):
        coords = ()
    if len(coords) != NUM_EDGES or curve_key_str(coords) != text:
        raise ValueError(f"curve key {text!r} is not {NUM_EDGES} comma-separated integers")
    return coords


def witness_str(witness: tuple[str, int]) -> str:
    word, base = witness
    return f"{word}.c{base}" if word else f"c{base}"


def parse_witness(text: str) -> tuple[str, int]:
    """The witness (g, k) a witness text names; ValueError unless it is the
    ``witness_str`` of one."""
    try:
        word, _, base = text.rpartition(".")
        witness = (word, int(base.removeprefix("c")))
    except (AttributeError, ValueError):
        witness = None
    if witness is None or witness_str(witness) != text:
        raise ValueError(f"witness {text!r} is not a word and a base curve such as 'ab.c3'")
    return witness


def puncture_pair(witness: tuple[str, int]) -> frozenset[int]:
    """The two punctures cut off by the curve g(c_k) that (g, k) witnesses.

    c_k bounds a disk around ``BASE_CURVE_PAIRS[k-1]``, and g carries that
    disk, with its punctures, by ``puncture_permutation(g)``.  The witness
    is trusted to give its curve, as the witnesses of a window checked by
    ``witness_readers`` do.
    """
    word, base = witness
    perm = puncture_permutation(word)
    return frozenset(perm[p - 1] for p in BASE_CURVE_PAIRS[base - 1])


NO_WORDS = "S5 windows need witness words"


@per_window
def witnesses(w: Window) -> tuple[tuple[str, int], ...]:
    """The witness (g, k) of each vertex g(c_k), by index: the window's
    witness words, parsed once per window.  The other tables are read off
    these."""
    if w.words is None:
        raise ValueError(NO_WORDS)
    return tuple(map(parse_witness, w.words))


@per_window
def witness_readers(w: Window) -> tuple[tuple[str, int], ...]:
    """``curves.witness_reader`` (g^-1, e_k) of each vertex v = g(c_k), by
    index, so that i(v, x) = 2 * apply_word(g^-1, x)[e_k].  Each witness is
    checked against its vertex: a wrong one (in a cached or hand-made
    window) raises ValueError rather than giving wrong intersections."""
    return tuple(map(witness_reader, w.vertices, witnesses(w)))


@per_window
def puncture_pairs(w: Window) -> tuple[frozenset[int], ...]:
    """The ``puncture_pair`` of each vertex, by index: the endpoints of its
    arc in the arc complex."""
    return tuple(map(puncture_pair, witnesses(w)))


@per_window
def boundary(w: Window) -> frozenset[int]:
    """The vertices generated at the window's outermost word length, whose
    sites the suites count as truncated."""
    return frozenset(i for i, (word, _) in enumerate(witnesses(w)) if len(word) >= w.bound)


def disjointness_rows(vertices, witnesses, readers, pairs) -> tuple[tuple[int, ...], ...]:
    """The sorted rows of the disjointness graph of the curves ``vertices``,
    read off their ``witnesses``, ``witness_readers`` and ``puncture_pairs``.

    Each pair is read once, by its reader: the end with the lesser (witness
    length, index).  Pairs are read in groups, one per reader: with the
    vertices taken in that order, a reader's candidates are the later
    members of the buckets whose puncture pairs are disjoint from its own,
    and its inverse word is mapped over them in one ``apply_word_many``.

    Only pairs of curves cutting off disjoint puncture pairs are read.  Every
    essential curve bounds a disk around two of the five punctures, and two
    disjoint curves bound disjoint such disks: a disk inside the other would
    hold the same two punctures, making the curves isotopic, and a disk
    holding the other's three-punctured side would hold three punctures.  So
    curves whose pairs overlap always meet.
    """
    order = sorted(range(len(vertices)), key=lambda i: (len(witnesses[i][0]), i))
    buckets: dict[frozenset[int], list[int]] = {}
    for i in order:
        buckets.setdefault(pairs[i], []).append(i)
    disjoint = {pair: [other for other in buckets if not other & pair] for pair in buckets}
    start = dict.fromkeys(buckets, 0)
    rows: list[list[int]] = [[] for _ in vertices]
    for p in order:
        start[pairs[p]] += 1  # p leaves its bucket: later readers read after it
        ids = [q for pair in disjoint[pairs[p]] for q in buckets[pair][start[pair]:]]
        inverse, edge = readers[p]
        images = apply_word_many(inverse, map(vertices.__getitem__, ids))
        for q in compress(ids, map(not_, map(itemgetter(edge), images))):
            rows[p].append(q)
            rows[q].append(p)
    return tuple(tuple(sorted(row)) for row in rows)


def build_window(
    word_bound: int, seeds: tuple[NormalCurve, ...] = BASE_CURVES
) -> Window:
    """All curves w(seed) with |w| <= word_bound, edges for disjointness.

    Vertices are ordered lexicographically by coordinates; each keeps the
    first witness found (breadth-first, letters in alphabet order), so the
    result is deterministic.  Each letter is mapped over the whole frontier.

    Edges come from the witnesses, by ``disjointness_rows``: pairs are read
    in groups, one per reader, the vertex with the shorter witness.  The
    witnesses, readers and puncture pairs are handed over as the window's
    tables, through which the S5 contract reads adjacency too.
    """
    found: dict[tuple, tuple[str, int]] = {}
    frontier: list[tuple] = []
    for seed in seeds:
        if seed.witness is None:
            raise ValueError("window seeds must carry witness words")
        if seed.coords not in found:
            found[seed.coords] = seed.witness
            frontier.append(seed.coords)
    # a curve is kept as its coordinates and a witness, which extends by the
    # letter applied; witness_reader checks each witness below
    for _ in range(word_bound):
        nxt = []
        images = zip(*(apply_word_many(letter, frontier) for letter in WORD_ALPHABET))
        for coords, row in zip(frontier, images):
            word, base = found[coords]
            for letter, image in zip(WORD_ALPHABET, row):
                if image not in found:
                    found[image] = (reduce_word(word + letter), base)
                    nxt.append(image)
        frontier = nxt
    vertices = tuple(sorted(found))
    witnesses = tuple(found[c] for c in vertices)
    readers = tuple(map(witness_reader, vertices, witnesses))
    pairs = tuple(map(puncture_pair, witnesses))
    basepoint = min(seed.coords for seed in seeds)
    w = Window(
        instance=S5_INSTANCE,
        basepoint=basepoint,
        bound=word_bound,
        vertices=vertices,
        neighbors=disjointness_rows(vertices, witnesses, readers, pairs),
        words=tuple(witness_str(x) for x in witnesses),
    )
    w.__dict__.update(witnesses=witnesses, witness_readers=readers, puncture_pairs=pairs)
    return w


@per_window
def _word_images(w: Window) -> dict[str, list[tuple]]:
    return {}  # word -> its image of each vertex, by index (``word_images``)


def word_images(w: Window, word: str) -> list[tuple]:
    """The image of each vertex of w under ``word``, by index: the word is
    mapped over the whole window at once (``mcg.apply_word_many``), once per
    window, and the list is kept as long as the window."""
    images = _word_images(w)
    if word not in images:
        images[word] = apply_word_many(word, w.vertices)
    return images[word]


def check_edges(w: Window) -> None:
    """Raise ValueError, naming one wrong pair, unless the rows of w are the
    disjointness graph that its witness words give (``disjointness_rows``)."""
    rows = disjointness_rows(w.vertices, witnesses(w), witness_readers(w), puncture_pairs(w))
    for i, (row, true) in enumerate(zip(w.neighbors, rows)):
        if row != true:
            j = min(set(row).symmetric_difference(true))
            raise ValueError(f"by the witness words, edge ({i}, {j}) joins curves that meet"
                             if j in row else f"by the witness words, no edge joins "
                             f"disjoint curves {i} and {j}")


def adjacent(w: Window, i: int, x: tuple) -> bool:
    """Disjointness of window vertex i of w, given by its index, from a
    distinct curve x, given as coordinates, read off vertex i's witness word."""
    inverse, edge = witness_readers(w)[i]
    return apply_word(inverse, x)[edge] == 0


def window_curve(w: Window, i: int) -> NormalCurve:
    return NormalCurve(w.vertices[i], witnesses(w)[i])


def canonical_cycle(cycle: tuple[int, ...]) -> tuple[int, ...]:
    """Least representative under rotation and reflection.

    The representative starts at an occurrence of the least entry.  When
    that entry occurs once and its two cycle neighbours differ, it reads on
    towards the lesser of them; otherwise the rotations starting at each
    occurrence, read both ways, are compared.
    """
    cycle = tuple(cycle)
    low = min(cycle)
    s = cycle.index(low)
    after, before = cycle[(s + 1) % len(cycle)], cycle[s - 1]
    if after != before and cycle.count(low) == 1:
        return cycle[s:] + cycle[:s] if after < before else cycle[s::-1] + cycle[:s:-1]
    return min(
        seq[s:] + seq[:s]
        for seq in (cycle, cycle[::-1])
        for s, x in enumerate(seq)
        if x == low
    )


@per_window
def enumerate_pentagons(w: Window) -> list[tuple[int, int, int, int, int]]:
    """All chordless 5-cycles, each once in its canonical form, sorted.

    A cycle is walked from its least vertex v0 towards the smaller of v0's
    two cycle neighbours (v1 < v4), which is its ``canonical_cycle``; every
    step runs over sorted neighbour lists, so the cycles come out sorted.
    The last step reads, for each v3, the later neighbours of v0 adjacent to
    it, collected once per v0.  The chord tests read neighbour sets built
    for the walk alone.  The list is kept per window and shared by every
    caller.
    """
    nbrs = w.neighbors
    adj = [set(ns) for ns in nbrs]
    pentagons = []
    for v0, near in enumerate(nbrs):
        a0 = adj[v0]
        closing: dict[int, list[int]] = {}  # x -> [v4 > v0 adjacent to v0 and x]
        for v4 in near:
            if v4 > v0:
                for x in nbrs[v4]:
                    closing.setdefault(x, []).append(v4)
        for v1 in near:
            if v1 < v0:
                continue
            a1 = adj[v1]
            for v2 in nbrs[v1]:
                if v2 <= v0 or v2 in a0:
                    continue
                a2 = adj[v2]
                for v3 in nbrs[v2]:
                    last = closing.get(v3)
                    if last is None or v3 <= v0 or v3 == v1 or v3 in a0 or v3 in a1:
                        continue
                    for v4 in last:
                        if v4 > v1 and v4 not in a1 and v4 not in a2:
                            pentagons.append((v0, v1, v2, v3, v4))
    return pentagons


@per_window
def pentagons_by_edge(w: Window) -> dict[tuple[int, int], tuple[tuple[int, ...], ...]]:
    """The pentagons through each edge (i, j), i < j, of w that lies on one.

    Kept per window like ``enumerate_pentagons``; the values are tuples so
    that no caller can change the shared map's pentagon lists.
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
