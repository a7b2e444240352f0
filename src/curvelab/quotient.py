"""Quotients of curve-graph windows by closure samples.

A closure sample (a finite, inverse-closed set of group elements standing in
for a normal subgroup) identifies window vertices v ~ n(v) whenever both lie
in the window.  The quotient window carries the partition into classes, the
induced edges, per-element displacement reports, and a transporter for
every vertex: a product of sample elements carrying the class representative
to the vertex, which lets suites lift quotient edges exactly instead of
guessing.

Instances are described by a small contract (key type, group elements and
their action, available distance or adjacency information) so the same
machinery runs on the Farey graph, where distances are exact, and on the
five-punctured sphere, where only {0, 1, 2}-certificates are decidable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Any, Callable

from . import farey as farey_mod
from . import s5windows
from .mcg import WORD_ALPHABET, apply_word, invert_word, reduce_word
from .window import Window


@dataclass(frozen=True)
class InstanceContract:
    """What the quotient machinery needs to know about a curve graph.

    Group elements are opaque here: ``element`` evaluates a word, ``act``
    turns an element into a map on keys, and ``invert`` and ``compose``
    multiply elements.
    """

    name: str
    key_str: Callable[[Any], str]
    element: Callable[[str], Any]
    act: Callable[[Any], Callable[[Any], Any]]
    invert: Callable[[Any], Any]
    # compose(inner, outer): the element acting as "inner first, then outer"
    compose: Callable[[Any, Any], Any]
    exact_distance: Callable[[Any, Any], int] | None = None
    # (window, a, b) -> adjacency of a window vertex a and a distinct curve
    # b outside the window; what certificates read when distances are not
    # exact (every caller passes a window vertex first)
    adjacent: Callable[[Window, Any, Any], bool] | None = None
    # window -> word -> (i -> d(v_i, g v_i), floor); certificates when None
    measure: Callable[[Window], Callable[[str], tuple]] | None = None

    def action(self, word: str) -> Callable[[Any], Any]:
        return self.act(self.element(word))

    def certificate(self, a: Any, b: Any, w: Window) -> int | None:
        """Distance certificate: exact when available, else {0, 1, 2}."""
        if self.exact_distance is not None:
            return self.exact_distance(a, b)
        if a == b:
            return 0
        ia, ib = w.index.get(a), w.index.get(b)
        if ia is None or ib is None:
            return 1 if self.adjacent(w, a, b) else None
        # a window is an induced subgraph, so its edges decide adjacency
        adj = w.adjacency
        if ib in adj[ia]:
            return 1
        if not adj[ia].isdisjoint(adj[ib]):
            return 2
        return None

    def displacement(self, w: Window) -> Callable[[str], tuple]:
        """Per word g: the map i -> d(v_i, g v_i) on window vertices, which
        may answer None where nothing is certified, and a floor under
        d(v, g v) over the whole graph, or None."""
        if self.measure is not None:
            return self.measure(w)

        def per_word(word: str) -> tuple:
            fn, vertices = self.action(word), w.vertices
            return (lambda i: self.certificate(vertices[i], fn(vertices[i]), w)), None

        return per_word


def farey_contract(base: farey_mod.IntMatrix) -> InstanceContract:
    @lru_cache(maxsize=4096)
    def element(word: str) -> farey_mod.IntMatrix:
        return farey_mod.word_matrix(word, base)

    def measure(w: Window) -> Callable[[str], tuple]:
        of = farey_mod.displacement_measure(w.vertices)

        def per_word(word: str) -> tuple:
            m = element(word)
            return of(m), farey_mod.axis_displacement(m)

        return per_word

    return InstanceContract(
        name="farey",
        key_str=str,
        element=element,
        act=lambda m: m.apply,
        invert=farey_mod.IntMatrix.inverse,
        # matrices act with the rightmost factor first, so "inner first"
        # means outer on the left
        compose=lambda inner, outer: outer * inner,
        exact_distance=farey_mod.distance,
        measure=measure,
    )


def s5_contract() -> InstanceContract:
    """The five-punctured sphere: curves are coordinate tuples, elements words.

    Certificates come from window edges when both curves are window
    vertices, and otherwise from ``s5windows.adjacent``, which reads the
    witness word of the first curve, a window vertex in every call.
    """
    return InstanceContract(
        name="s5",
        key_str=s5windows.curve_key_str,
        element=lambda word: word,
        act=lambda word: (lambda coords: apply_word(word, coords)),
        invert=invert_word,
        compose=lambda inner, outer: inner + outer,
        adjacent=s5windows.adjacent,
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
    ``transporter[v]`` is a product of sample elements, in the contract's
    representation (a matrix on the Farey graph, a word on S0,5), with
    act(transporter[v])(rep key) = key of v.
    """

    window: Window
    instance: str
    class_of: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int], ...]
    loops: tuple[tuple[int, int, int], ...]  # (class, vertex, vertex) collapsed edges
    transporter: tuple
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
    only the bound is attained).  The scan keeps the first vertex attaining
    the minimum, so it stops once the contract's floor for the element is
    reached: no later vertex can change ``min`` or ``argmin``.
    """
    measure = contract.displacement(w)
    report = []
    for word in words:
        displacement, floor = measure(word)
        best: int | None = None
        argmin = None
        bounded = False
        for i, v in enumerate(w.vertices):
            d = displacement(i)
            if d is None:
                bounded = True
                continue
            if best is None or d < best:
                best, argmin = d, v
                if d == floor:
                    break
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
    """The classes of the in-window identifications v ~ n(v), in one pass.

    The sample is a tuple of words (``ClosureSample.words`` on the Farey
    graph, ``s5_sample`` on the five-punctured sphere), each evaluated by
    ``contract.element``; RuntimeError unless every identification i -> j
    has one j -> i.  A breadth-first search from each unvisited vertex, in
    index order, gives a class and its members' transporters.
    """
    n = len(w)
    # identification graph: vertex -> [(image vertex, sample element)]
    moves: list[list[tuple[int, Any]]] = [[] for _ in range(n)]
    for word in words:
        g = contract.element(word)
        fn = contract.act(g)
        for i, v in enumerate(w.vertices):
            j = w.index.get(fn(v))
            if j is not None:
                moves[i].append((j, g))

    identified = {(i, j) for i, out in enumerate(moves) for j, _ in out}
    if any((j, i) not in identified for i, j in identified):
        raise RuntimeError(f"sample {list(words)} is not closed under inverses")

    class_of = [-1] * n
    transporter = [contract.element("")] * n
    classes = []
    for rep in range(n):
        if class_of[rep] >= 0:
            continue
        c = len(classes)
        class_of[rep] = c
        members = [rep]
        for i in members:  # grows as the search reaches new vertices
            for j, g in moves[i]:
                if class_of[j] < 0:
                    class_of[j] = c
                    transporter[j] = contract.compose(transporter[i], g)
                    members.append(j)
        classes.append(tuple(sorted(members)))

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
        classes=tuple(classes),
        edges=tuple(sorted(qedges)),
        loops=tuple(sorted(loops)),
        transporter=tuple(transporter),
        displacement=displacement_report(w, words, contract),
    )
