"""Quotients of curve-graph windows by closure samples.

A closure sample (a finite, inverse-closed set of group elements standing in
for a normal subgroup) identifies window vertices v ~ n(v) whenever both lie
in the window.  The quotient window carries the partition into classes, the
induced edges, per-element displacement reports, and a transporter word for
every vertex: a sample word carrying the class representative to the vertex,
which lets suites lift quotient edges exactly instead of guessing.

Instances are described by a small contract (key type, adjacency, action,
available distance information) so the same machinery runs on the Farey
graph, where distances are exact, and on the five-punctured sphere, where
only {0, 1, 2}-certificates are decidable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Any, Callable

from . import farey as farey_mod
from . import s5windows
from .curves import disjoint
from .mcg import WORD_ALPHABET, apply_word, invert_word, reduce_word
from .window import DisjointSets, Window


@dataclass(frozen=True)
class InstanceContract:
    """What the quotient machinery needs to know about a curve graph."""

    name: str
    key_str: Callable[[Any], str]
    adjacent: Callable[[Any, Any], bool]
    action: Callable[[str], Callable[[Any], Any]]  # word -> key map
    exact_distance: Callable[[Any, Any], int] | None = None
    invert: Callable[[str], str] = lambda w: w
    # compose(inner, outer): word acting as "inner first, then outer"
    compose: Callable[[str, str], str] = lambda inner, outer: inner + outer

    def certificate(self, a: Any, b: Any, w: Window) -> int | None:
        """Distance certificate: exact when available, else {0, 1, 2}."""
        if self.exact_distance is not None:
            return self.exact_distance(a, b)
        if a == b:
            return 0
        ia, ib = w.index.get(a), w.index.get(b)
        if ia is None or ib is None:
            return 1 if self.adjacent(a, b) else None
        # a window is an induced subgraph, so its edges decide adjacency
        if w.has_edge(ia, ib):
            return 1
        if set(w.neighbors[ia]) & set(w.neighbors[ib]):
            return 2
        return None


def farey_contract(base: farey_mod.IntMatrix) -> InstanceContract:
    @lru_cache(maxsize=4096)
    def action(word: str) -> Callable:
        m = farey_mod.word_matrix(word, base)
        return m.apply

    return InstanceContract(
        name="farey",
        key_str=str,
        adjacent=farey_mod.adjacent,
        action=action,
        exact_distance=farey_mod.distance,
        invert=farey_mod.invert_word,
        # matrix words multiply left to right and act with the rightmost
        # factor first, so "inner first" means outer on the left
        compose=lambda inner, outer: outer + inner,
    )


def s5_contract() -> InstanceContract:
    return InstanceContract(
        name="s5",
        key_str=s5windows.curve_key_str,
        adjacent=disjoint,
        action=lambda word: (lambda coords: apply_word(word, coords)),
        exact_distance=None,
        invert=invert_word,
    )


def s5_sample(words: tuple[str, ...] = ()) -> tuple[str, ...]:
    """An S0,5 sample from words, closed under inverses, identity removed."""
    closed: list[str] = []
    for w in words:
        if not set(w) <= set(WORD_ALPHABET):
            raise ValueError(f"sample word {w!r} is not over {WORD_ALPHABET!r}")
        for x in (reduce_word(w), reduce_word(invert_word(w))):
            if x and x not in closed:
                closed.append(x)
    return tuple(closed)


@dataclass(frozen=True)
class QuotientWindow:
    """A window modulo the in-window identifications of a sample.

    Classes are indexed 0..k-1 in order of their least vertex index, which
    is the order of their minimum vertex key since window vertices are
    sorted; the representative of a class is its least vertex.
    ``transporter[v]`` is a word over sample elements with
    action(transporter[v])(rep key) = key of v.
    """

    window: Window
    instance: str
    class_of: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int], ...]
    loops: tuple[tuple[int, int, int], ...]  # (class, vertex, vertex) collapsed edges
    transporter: tuple[str, ...]
    displacement: tuple[dict, ...]

    def __len__(self) -> int:
        return len(self.classes)

    def representative(self, c: int) -> int:
        return self.classes[c][0]

    @property
    def min_displacement(self) -> int | None:
        values = [d["min"] for d in self.displacement if d["min"] is not None]
        return min(values) if values else None

    @cached_property
    def graph(self) -> Window:
        """The quotient graph: vertex c is the representative of class c."""
        return Window(
            instance=f"{self.instance}/quotient",
            basepoint=self.window.basepoint,
            bound=self.window.bound,
            vertices=tuple(self.window.vertices[m[0]] for m in self.classes),
            edges=self.edges,
        )

    def to_json(self, contract: InstanceContract) -> dict:
        data = self.window.to_json(contract.key_str)
        data["classes"] = [list(c) for c in self.classes]
        data["displacement"] = list(self.displacement)
        return data


def displacement_report(
    w: Window, words: tuple[str, ...], contract: InstanceContract
) -> tuple[dict, ...]:
    """Per element: the window minimum of d(v, n v) and its witness.

    With exact distances the minimum is exact; otherwise only the {0, 1, 2}
    certificates contribute and vertices with no certificate are counted as
    distance >= 3, so ``min`` is a certified lower bound (argmin is null when
    only the bound is attained).
    """
    report = []
    for word in words:
        fn = contract.action(word)
        best: int | None = None
        argmin = None
        bounded = False
        for v in w.vertices:
            d = contract.certificate(v, fn(v), w)
            if d is None:
                bounded = True
                continue
            if best is None or d < best:
                best, argmin = d, v
        if best is None:
            best = 3 if bounded else None
        report.append({
            "word": word,
            "min": best,
            "argmin": None if argmin is None else contract.key_str(argmin),
        })
    return tuple(report)


def build_quotient(
    w: Window, words: tuple[str, ...], contract: InstanceContract
) -> QuotientWindow:
    """Union-find over all in-window identifications v ~ n(v).

    The sample is a tuple of words (``ClosureSample.words`` on the Farey
    graph, ``s5_sample`` on the five-punctured sphere), each acting through
    ``contract.action``.

    Class representatives are deterministic (least index); transporter words
    are found by breadth-first search over the identification graph from each
    representative.  The partition is cross-checked against a second
    union-find over the distinct identified pairs.
    """
    n = len(w)
    by_moves = DisjointSets(range(n))

    # identification graph: vertex -> [(image vertex, sample word)]
    moves: list[list[tuple[int, str]]] = [[] for _ in range(n)]
    pairs: set[tuple[int, int]] = set()
    for word in words:
        fn = contract.action(word)
        for i, v in enumerate(w.vertices):
            j = w.index.get(fn(v))
            if j is None:
                continue
            moves[i].append((j, word))
            if i != j:
                pairs.add((min(i, j), max(i, j)))
                by_moves.union(i, j)

    by_pairs = DisjointSets(range(n))
    for i, j in pairs:
        by_pairs.union(i, j)
    # both list each class in index order, and the classes by least index
    classes = tuple(map(tuple, by_moves.groups()))
    if classes != tuple(map(tuple, by_pairs.groups())):
        raise RuntimeError("union-find partition disagrees with the identified pairs")
    class_of = [0] * n
    for c, m in enumerate(classes):
        for i in m:
            class_of[i] = c

    transporter = [""] * n
    for m in classes:
        rep = m[0]
        seen = {rep: ""}
        frontier = [rep]
        while frontier:
            nxt = []
            for i in frontier:
                for j, word in moves[i]:
                    if j not in seen:
                        seen[j] = contract.compose(seen[i], word)
                        nxt.append(j)
            frontier = nxt
        if set(seen) != set(m):
            raise RuntimeError("identification graph must connect each class")
        for i, word in seen.items():
            transporter[i] = word

    loops = []
    qedges = set()
    for i, j in w.edges:
        ci, cj = class_of[i], class_of[j]
        if ci == cj:
            loops.append((ci, i, j))
        else:
            qedges.add((min(ci, cj), max(ci, cj)))

    return QuotientWindow(
        window=w,
        instance=contract.name,
        class_of=tuple(class_of),
        classes=classes,
        edges=tuple(sorted(qedges)),
        loops=tuple(sorted(loops)),
        transporter=tuple(transporter),
        displacement=displacement_report(w, words, contract),
    )
