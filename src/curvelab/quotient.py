"""Quotients of curve-graph windows by closure samples.

A closure sample (a finite, inverse-closed set of group elements standing in
for a normal subgroup) identifies window vertices v ~ n(v) whenever both lie
in the window.  The quotient window carries the partition into classes, the
induced edges, per-element displacement reports, and a transporter for
every vertex: a product of sample elements carrying the class representative
to the vertex, which lets suites lift quotient edges exactly instead of
guessing.

Instances are described by a small contract (key type, group elements and
their action, available distance or adjacency information, and each
element's window displacement) so the same machinery runs on the Farey
graph, where distances are exact, and on the five-punctured sphere, where a
certificate (floor, exact) from a window index to a curve may give only the
floor 2.  Each instance finds its own displacement minima;
``displacement_report`` only writes them down.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cached_property, lru_cache
from itertools import accumulate, filterfalse, repeat
from operator import sub
from typing import Any, Callable, Iterable, Iterator, NamedTuple

from . import farey as farey_mod
from . import s5windows
from .mcg import WORD_ALPHABET, apply_word, invert_word, reduce_word
from .serialize import canonical_json, json_list
from .window import Window


class InstanceContract(NamedTuple):
    """What the quotient machinery needs to know about a curve graph.

    Group elements are opaque here: ``element`` evaluates a word, ``act``
    turns an element into a map on keys, and ``invert`` and ``compose``
    multiply elements.  ``images(window, element)`` yields the index pairs
    (i, j) with element(v_i) = v_j, each vertex i at most once.
    ``displacement(window)`` answers, per word g, the least floor on
    d(v, g v) over the window and the least index where that floor is
    exact, or None where it is exact at no vertex; ``displacement_report``
    only writes these down.
    """

    key_str: Callable[[Any], str]
    element: Callable[[str], Any]
    act: Callable[[Any], Callable[[Any], Any]]
    invert: Callable[[Any], Any]
    # compose(inner, outer): the element acting as "inner first, then outer"
    compose: Callable[[Any, Any], Any]
    images: Callable[[Window, Any], Iterable[tuple[int, int]]]
    # window -> word -> (least floor, least index where it is exact, or None)
    displacement: Callable[[Window], Callable[[str], tuple[int | None, int | None]]]
    exact_distance: Callable[[Any, Any], int] | None = None
    # (window, i, x) -> adjacency of window vertex i and a distinct curve x
    # outside the window; what certificates read when distances are not exact
    adjacent: Callable[[Window, int, Any], bool] | None = None
    # window -> the number of vertex pairs at distance 2 in the window graph,
    # counted without a walk; the lifting suite walks the pairs when None
    distance_two_pairs: Callable[[Window], int] | None = None

    def certificate(self, w: Window, i: int, x: Any) -> tuple[int, bool]:
        """(floor, exact): a lower bound on d(v, x) from the window index i
        of v, and whether it is d(v, x).  Exact with exact distances, else
        at 0, 1, and at 2 through a common window neighbour; other distinct
        non-adjacent curves have the floor 2."""
        if self.exact_distance is not None:
            return self.exact_distance(w.vertices[i], x), True
        j = w.index.get(x)
        if j is None:
            return (1, True) if self.adjacent(w, i, x) else (2, False)
        if j == i:
            return 0, True
        # a window is an induced subgraph, so its edges decide adjacency
        near = w.neighbors[i]
        if j in near:
            return 1, True
        return 2, not set(near).isdisjoint(w.neighbors[j])


def farey_contract(base: farey_mod.IntMatrix) -> InstanceContract:
    """The Farey graph.  A matrix m is an isometry, d(v, m^-1 v) = d(m v, v)
    at every v, so m and m^-1 share one displacement measurement per window."""
    @lru_cache(maxsize=4096)
    def element(word: str) -> farey_mod.IntMatrix:
        return farey_mod.word_matrix(word, base)

    def displacement(w: Window) -> Callable[[str], tuple[int | None, int | None]]:
        # a whole-graph minimiser in the window is a window minimiser, so
        # the minimum is exact on any window.  The orbit walks stop at height
        # w.bound, so argmin is the least minimiser when w.bound is at least
        # every slope's height, as in every window farey_window builds; the
        # per-vertex table is built only for a word that must be scanned
        index, scan = w.index, None

        def per_word(word: str) -> tuple[int | None, int | None]:
            m = element(word)
            return measure(min(m, m.inverse()))

        @lru_cache(maxsize=None)  # one measurement per inverse pair
        def measure(m: farey_mod.IntMatrix) -> tuple[int | None, int | None]:
            nonlocal scan
            found = farey_mod.window_minimisers(m, w.bound)
            if found is not None:
                hits = [i for i in map(index.get, found[1]) if i is not None]
                if hits:
                    return found[0], min(hits)
            if scan is None:
                scan = farey_mod.displacement_measure(w.vertices)
            ds = scan(m)
            best = min(ds, default=None)
            return best, None if best is None else ds.index(best)

        return per_word

    def distance_two_pairs(w: Window) -> int:
        # the window holds every slope of height <= its bound.  A vertex's
        # neighbours are one Bezout progression, whose consecutive terms and
        # no others are adjacent, so a vertex of degree d > 0 lies on d - 1
        # of the T triangles.  A pair at distance 2 has one common neighbour,
        # or two: the Farey apexes (p +- r)/(q +- s) of an edge.  The lower
        # apex of an edge is no higher than its ends, so the D edges with
        # both apexes in the window satisfy E + D = 3T, and the pairs number
        # sum C(d, 2) - 3T - D = sum C(d, 2) - 6T + E.
        degrees = list(map(len, w.neighbors))
        ends = sum(degrees)  # 2E
        triangles3 = ends - len(degrees) + degrees.count(0)
        return sum(d * (d - 1) for d in degrees) // 2 - 2 * triangles3 + ends // 2

    def images(w: Window, m: farey_mod.IntMatrix) -> Iterator[tuple[int, int]]:
        # the window holds every slope of height <= its bound, so the
        # lattice enumeration finds each in-window image
        index = w.index
        for s, t in farey_mod.window_images(m, w.bound):
            yield index[s], index[t]

    return InstanceContract(
        key_str=str,
        element=element,
        act=lambda m: m.apply,
        invert=farey_mod.IntMatrix.inverse,
        # matrices act with the rightmost factor first, so "inner first"
        # means outer on the left
        compose=lambda inner, outer: outer * inner,
        images=images,
        displacement=displacement,
        exact_distance=farey_mod.distance,
        distance_two_pairs=distance_two_pairs,
    )


def s5_contract() -> InstanceContract:
    """The five-punctured sphere: curves are coordinate tuples, elements words.

    A certificate's first vertex is given by its window index.  It comes
    from window edges when the other curve is a window vertex too, and
    otherwise from ``s5windows.adjacent``, which reads that index's witness.
    Both in-window images and displacements read the word's image of every
    vertex, mapped over the window at once and once per window
    (``s5windows.word_images``); displacements certify each vertex against
    its image.  At a floor of 2 the first vertex exact at 2 is named, by its
    certificate or by meeting its image twice, as its witness reads i(v, g v).
    """

    def images(w: Window, word: str) -> Iterator[tuple[int, int]]:
        index = w.index
        for i, image in enumerate(s5windows.word_images(w, word)):
            j = index.get(image)
            if j is not None:
                yield i, j

    def displacement(w: Window) -> Callable[[str], tuple[int | None, int | None]]:
        certificate = contract.certificate

        def per_word(word: str) -> tuple[int | None, int | None]:
            images = s5windows.word_images(w, word)
            certs = list(map(certificate, repeat(w), range(len(images)), images))
            best = min(certs, default=(None,))[0]  # the least floor
            if best != 2:
                return best, certs.index((best, True)) if (best, True) in certs else None
            # i(v, g v) = 2 makes d(v, g v) = 2: the boundary of the
            # twice-punctured side of a neighbourhood of v and g v misses both
            readers = s5windows.witness_readers(w)
            for i, (cert, (inverse, edge)) in enumerate(zip(certs, readers)):
                if cert == (2, True) or apply_word(inverse, images[i])[edge] == 1:
                    return 2, i
            return 2, None

        return per_word

    contract = InstanceContract(
        key_str=s5windows.curve_key_str,
        element=lambda word: word,
        act=lambda word: (lambda coords: apply_word(word, coords)),
        invert=invert_word,
        compose=lambda inner, outer: inner + outer,
        images=images,
        displacement=displacement,
        adjacent=s5windows.adjacent,
    )
    return contract


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


class Stars(NamedTuple):
    """What ``QuotientWindow.stars`` reads off the merged members' stars."""

    near: frozenset[int]  # the window vertices within one step of a merged class
    loops: tuple[tuple[int, int, int], ...]  # collapsed edges (class, i, j), i < j, in order
    least: dict  # sorted class pair -> least window edge joining them, one end merged
    singleton_edges: int  # quotient edges between singleton classes, one window edge each


class QuotientWindow:
    """A window modulo the in-window identifications of a sample.

    Classes are indexed 0..k-1 in order of their least vertex index, which
    is the order of their minimum vertex key since window vertices are
    sorted; the representative of a class is its least vertex.
    ``transporter[v]`` is a product of sample elements, in the contract's
    representation (a matrix on the Farey graph, a word on S0,5), with
    act(transporter[v])(rep key) = key of v.  ``contract`` is the one the
    quotient was built with, so a quotient is all a suite needs.  Away from
    the merged classes the quotient map is the identity on stars, so the
    rest is read off the merged members' stars in one walk (``stars``) and
    off the window's rows, when first asked for; ``row(c)`` gives one row
    alone, and ``graph`` holds them all.  No other table of rows is kept.
    Suites name window vertices in their witnesses through ``key``, which
    formats each vertex's key once, and lift quotient edges through
    ``lift``, which gives the lifted vertex's window index.
    """

    def __init__(self, window: Window, contract: InstanceContract, class_of: tuple[int, ...],
                 classes: tuple[tuple[int, ...], ...], merged: tuple[int, ...],
                 transporter: tuple, displacement: tuple[dict, ...]):
        self.window, self.contract, self.class_of = window, contract, class_of
        self.classes = classes
        self.merged = merged  # the classes with more than one member, in order
        self.transporter, self.displacement = transporter, displacement

    def __len__(self) -> int:
        return len(self.classes)

    @cached_property
    def stars(self) -> Stars:
        """One walk over the merged members' stars, in class, member and row
        order, so loops come sorted; an edge of two merged members is taken
        at its lower end only."""
        class_of, classes, nbrs = self.class_of, self.classes, self.window.neighbors
        near, loops, least, walked = set(), [], {}, 0
        for a in self.merged:
            for u in classes[a]:
                near.add(u)
                near.update(nbrs[u])
                for v in nbrs[u]:
                    b = class_of[v]
                    if v < u and len(classes[b]) > 1:
                        continue
                    walked += 1
                    if b == a:
                        loops.append((a, u, v))
                    else:
                        pair = (a, b) if a < b else (b, a)
                        edge = (u, v) if u < v else (v, u)
                        if least.get(pair, edge) >= edge:
                            least[pair] = edge
        singles = sum(map(len, nbrs)) // 2 - walked  # the edges the walk missed
        return Stars(frozenset(near), tuple(loops), least, singles)

    def row(self, c: int) -> tuple[int, ...]:
        """The sorted classes adjacent to class c, made once.  Away from the
        merged classes it is the window row of c's member, renumbered: its
        neighbours are singletons, whose classes keep the vertex order."""
        row = self._rows.get(c)
        if row is None:
            members, nbrs = self.classes[c], self.window.neighbors
            class_at = self.class_of.__getitem__
            if members[0] not in self.stars.near:
                row = tuple(map(class_at, nbrs[members[0]]))
            else:
                row = set(map(class_at, nbrs[members[0]]))
                for i in members[1:]:
                    row.update(map(class_at, nbrs[i]))
                row.discard(c)
                row = tuple(sorted(row))
            self._rows[c] = row
        return row

    @cached_property
    def _rows(self) -> dict[int, tuple[int, ...]]:
        return {}  # the rows ``row`` has made

    @cached_property
    def key(self) -> Callable[[int], str]:
        """``key(i)``: the ``contract.key_str`` of window vertex i, the text
        by which every witness names it.  It is formatted when first asked
        for and kept for the quotient's life, at most one string per vertex."""
        keys, key_str, vertices = {}, self.contract.key_str, self.window.vertices

        def key(i: int) -> str:
            text = keys.get(i)
            if text is None:
                text = keys[i] = key_str(vertices[i])
            return text

        return key

    @cached_property
    def lift(self) -> Callable[[int, int], int | None]:
        """The lift of a quotient edge at a window vertex, as a window index.

        For each quotient edge and endpoint class one witnessing window edge
        (u0, v0) is fixed, with u0 in the class: the least window edge
        between the two classes (``stars.least``).  The true neighbour of a
        member i of that class over the other class is then the image of v0
        under the element carrying u0 to i (transporter of u0 inverted, then
        transporter of i).  That map is built at most once per (u0, i), and
        not at all when i is u0.  ``lift(i, other_class)`` returns the
        neighbour's window index, or None when it lies outside the window;
        witnesses name it by ``key``.  Two singleton classes are joined by
        one window edge, which is its own witness.
        """
        w, contract = self.window, self.contract
        class_of, classes = self.class_of, self.classes
        vertices, index = w.vertices, w.index
        rep_edge: dict[tuple[int, int], tuple[int, int]] = {}
        for i, j in self.stars.least.values():
            rep_edge[class_of[i], class_of[j]] = (i, j)
            rep_edge[class_of[j], class_of[i]] = (j, i)
        transports: dict[tuple[int, int], Callable] = {}

        def lift(i: int, other_class: int) -> int | None:
            witness = rep_edge.get((class_of[i], other_class))
            if witness is None:  # i and the one member of other_class
                return classes[other_class][0]
            u0, v0 = witness
            if u0 == i:
                return v0
            fn = transports.get((u0, i))
            if fn is None:
                transporter = self.transporter
                g = contract.compose(contract.invert(transporter[u0]), transporter[i])
                fn = transports[(u0, i)] = contract.act(g)
            return index.get(fn(vertices[v0]))

        return lift

    @property
    def min_displacement(self) -> int | None:
        values = [d["min"] for d in self.displacement if d["min"] is not None]
        return min(values) if values else None

    @cached_property
    def graph(self) -> Window:
        """The quotient graph: vertex c is the representative of class c,
        and its rows are ``row``'s.  When no class merges, class c is
        vertex c, so the graph shares the window's vertices and rows."""
        w = self.window
        return Window(
            instance=f"{w.instance}/quotient",
            basepoint=w.basepoint,
            bound=w.bound,
            vertices=(tuple(w.vertices[m[0]] for m in self.classes) if self.merged
                      else w.vertices),
            neighbors=(tuple(map(self.row, range(len(self.classes)))) if self.merged
                       else w.neighbors),
        )

    def json_fields(self) -> dict[str, str]:
        """The JSON text of the fields the quotient adds to ``Window.json_fields``;
        a singleton class is formatted by ``%``, in C."""
        return {
            "classes": json_list("[%d]" % c if len(c) == 1 else f"[{','.join(map(str, c))}]"
                                 for c in self.classes),
            "displacement": canonical_json(self.displacement)[:-1],  # no newline
        }


def displacement_report(
    w: Window, words: tuple[str, ...], contract: InstanceContract
) -> tuple[dict, ...]:
    """Per element: the window minimum of d(v, n v) and its witness, as
    ``contract.displacement`` gives them.

    ``min`` is the least floor on d(v, n v) over the window and ``argmin``
    the first window vertex where that floor is exact, null when none is.
    With exact distances the minimum is exact; on S0,5 it is at most 2.  On the
    Farey graph that vertex is read off the axis ladder when a whole-graph
    minimiser lies in the window (``farey.window_minimisers``), and every
    window vertex is scanned otherwise, once for an element and its inverse:
    an isometry n has d(v, n^-1 v) = d(n v, v) at every vertex.
    """
    per_word = contract.displacement(w)
    report = []
    for word in words:
        best, first = per_word(word)
        report.append({
            "word": word,
            "min": best,
            "argmin": None if first is None else contract.key_str(w.vertices[first]),
        })
    return tuple(report)


def build_quotient(
    w: Window, words: tuple[str, ...], contract: InstanceContract
) -> QuotientWindow:
    """The classes of the in-window identifications v ~ n(v).

    The sample is a tuple of words (the words of ``farey.sample_closure``'s
    elements on the Farey graph, ``s5_sample`` on the five-punctured
    sphere), each evaluated by ``contract.element``; RuntimeError unless
    every identification i -> j has one j -> i.  Moves are kept only for the
    vertices that some element moves, and every member of a merged class has
    one, so a breadth-first search from each unreached moved vertex, in
    index order, starts at its class's least member and gives the class and
    its members' transporters.  Every other vertex is a class of its own, numbered by
    its index less the members absorbed before it.  The search follows each
    vertex's moves in sample order, and a vertex has at most one move per
    element, so the order in which ``contract.images`` lists pairs cannot
    change a transporter.
    """
    moves = defaultdict(list)  # i -> [(j, g)] for each element g with g v_i = v_j != v_i
    for word in words:
        g = contract.element(word)
        for i, j in contract.images(w, g):
            if i != j:
                moves[i].append((j, g))

    identified = {(i, j) for i, out in moves.items() for j, _ in out}
    if any((j, i) not in identified for i, j in identified):
        raise RuntimeError(f"sample {list(words)} is not closed under inverses")

    n = len(w)
    transporter = [contract.element("")] * n
    absorbed = bytearray(n)  # 1 at each member of a merged class but its least
    found = []  # each merged class's members, least first
    for rep in sorted(moves):
        if absorbed[rep]:
            continue
        members = [rep]
        for i in members:  # grows as the search reaches new vertices
            for j, g in moves[i]:
                if j != rep and not absorbed[j]:
                    absorbed[j] = 1
                    transporter[j] = contract.compose(transporter[i], g)
                    members.append(j)
        found.append(members)

    class_of = list(map(sub, range(n), accumulate(absorbed)))
    classes = list(zip(filterfalse(absorbed.__getitem__, range(n))))
    for members in found:
        c = class_of[members[0]]
        classes[c] = tuple(sorted(members))
        for i in members:
            class_of[i] = c

    return QuotientWindow(
        window=w,
        contract=contract,
        class_of=tuple(class_of),
        classes=tuple(classes),
        merged=tuple(class_of[members[0]] for members in found),
        transporter=tuple(transporter),
        displacement=displacement_report(w, words, contract),
    )
