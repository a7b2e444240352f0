"""Finite windows into locally infinite curve graphs.

A window is a finite induced subgraph with a basepoint, canonically ordered
vertex keys, and the bound (height or word length) that generated it.  It is
the unit of computation everywhere: the ambient graphs have infinite balls,
so finite induced subgraphs stand in for them.  ``neighbors`` is the one
adjacency structure a window holds: sorted index tuples, which edge tests
read with ``in``; ``per_window`` keeps on it the tables read off it.
"""

from __future__ import annotations

from functools import cached_property, wraps
from operator import attrgetter
from typing import Any, Callable

from .serialize import json_list, json_str


class Window:
    """Finite induced subgraph of a curve graph.

    ``vertices`` holds canonical, hashable keys (slopes, coordinate tuples),
    sorted; ``neighbors`` holds each vertex's neighbour indices as a sorted
    tuple, and ``words`` optionally a witness word (same indexing).
    ``edges``, the pairs (i, j) with i < j in order, is read off the rows
    anew each time it is asked for, which only DOT and text output do.

    The constructor sets the fields, which nothing changes later, and checks
    only that there is a row, and a word if any, per vertex.  Sorted keys,
    and rows sorted, in range, loop-free and symmetric, are a promise of the
    builders (``farey.farey_window``, ``s5windows.build_window``,
    ``QuotientWindow.graph``), which the tests check; ``from_json``, the one
    door for outside windows, checks them.  A window of translated slopes,
    as a covariance test builds, is accepted unsorted.  ``index`` (key ->
    vertex index) is built when first read, or handed over by
    ``farey.farey_window``; it and the ``per_window`` tables live in the
    window's ``__dict__``.  ``==`` compares the fields, and a window is not
    hashable.
    """

    def __init__(self, instance: str, basepoint: Any, bound: int, vertices: tuple,
                 neighbors: tuple[tuple[int, ...], ...], words: tuple[str, ...] | None = None):
        if len(neighbors) != len(vertices):
            raise ValueError("neighbors must align with vertices")
        if words is not None and len(words) != len(vertices):
            raise ValueError("words must align with vertices")
        self.instance, self.basepoint, self.bound = instance, basepoint, bound
        self.vertices, self.neighbors, self.words = vertices, neighbors, words

    def __eq__(self, other) -> bool:
        return type(other) is Window and _FIELDS(self) == _FIELDS(other)

    def __len__(self) -> int:
        return len(self.vertices)

    @cached_property
    def index(self) -> dict:
        return {v: i for i, v in enumerate(self.vertices)}

    def __contains__(self, key) -> bool:
        return key in self.index

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple((i, j) for i, row in enumerate(self.neighbors) for j in row if j > i)

    def json_fields(self, key_str: Callable[[Any], str]) -> dict[str, str]:
        """The canonical JSON text of each top-level field of the window's
        JSON, written from the tuples; ``serialize.json_object`` joins them."""
        keys = map(json_str, map(key_str, self.vertices))
        if self.words is not None:  # "word" sorts after "key"
            keys = map('{},"word":{}'.format, keys, map(json_str, self.words))
        records = (f'{{"id":{i},"key":{k}}}' for i, k in enumerate(keys))
        edges = (f"[{i},{j}]" for i, row in enumerate(self.neighbors) for j in row if j > i)
        return {
            "basepoint": json_str(key_str(self.basepoint)),
            "bound": str(self.bound),
            "edges": json_list(edges),
            "instance": json_str(self.instance),
            "vertices": json_list(records),
        }

    @staticmethod
    def from_json(data: dict, str_key: Callable[[str], Any], instance: str) -> "Window":
        """The window whose JSON ``json_fields`` wrote, checked as a window of ``instance``.

        Raises ValueError unless the instance matches, the bound is a
        nonnegative integer, the vertex ids are 0..n-1, the keys increase
        strictly with the ids, each edge is two integers 0 <= i < j < n,
        the edges increase strictly (so none repeats) and the basepoint is
        a vertex; the constructor refuses words given for some vertices
        only.  The rows built from such edges are sorted, symmetric and
        loop-free.
        """
        if data["instance"] != instance:
            raise ValueError(f"expected a {instance} window, got {data['instance']!r}")
        bound = data["bound"]
        if type(bound) is not int or bound < 0:
            raise ValueError(f"bound {bound!r} is not a nonnegative integer")
        verts = sorted(data["vertices"], key=lambda r: r["id"])
        if [r["id"] for r in verts] != list(range(len(verts))):
            raise ValueError("vertex ids are not 0..n-1")
        vertices = tuple(str_key(r["key"]) for r in verts)
        if any(a >= b for a, b in zip(vertices, vertices[1:])):
            raise ValueError("vertex keys do not increase strictly with their ids")
        rows, last = [[] for _ in vertices], (-1, -1)
        for e in data["edges"]:
            if len(e) != 2 or type(e[0]) is not int or type(e[1]) is not int:
                raise ValueError(f"edge {list(e)} is not two integers")
            i, j = edge = tuple(e)
            if not (0 <= i < j < len(rows)) or edge <= last:
                raise ValueError(f"edge ({i}, {j}) is out of range or out of order")
            last = edge
            rows[i].append(j)  # each row gets its lower ends, then its higher ones
            rows[j].append(i)
        words = tuple(r["word"] for r in verts if "word" in r) or None
        w = Window(
            instance=instance,
            basepoint=str_key(data["basepoint"]),
            bound=bound,
            vertices=vertices,
            neighbors=tuple(map(tuple, rows)),
            words=words,
        )
        if w.basepoint not in w:
            raise ValueError(f"basepoint {data['basepoint']} is not a vertex")
        return w

    def to_dot(self, key_str: Callable[[Any], str]) -> str:
        lines = [f'graph "{self.instance}" {{']
        for i, v in enumerate(self.vertices):
            lines.append(f'  {i} [label="{key_str(v)}"];')
        for i, j in self.edges:
            lines.append(f"  {i} -- {j};")
        lines.append("}")
        return "\n".join(lines) + "\n"


_FIELDS = attrgetter("instance", "basepoint", "bound", "vertices", "neighbors", "words")


def per_window(build: Callable[[Window], Any]) -> Callable[[Window], Any]:
    """``build`` as a per-window table: built on a window's first call and
    kept in its ``__dict__`` under the builder's name, as a cached_property
    keeps its value, so that a lookup is one dict read and the table lives
    as long as the window.  ``s5windows.build_window`` hands over the tables
    it made so."""
    name = build.__name__

    @wraps(build)
    def table(w: Window):
        try:
            return w.__dict__[name]
        except KeyError:
            w.__dict__[name] = value = build(w)
            return value

    return table
