"""Finite windows into locally infinite curve graphs.

A window is a finite induced subgraph with a basepoint, canonically ordered
vertex keys, and the bound (height or word length) that generated it.  It is
the unit of computation everywhere: the ambient graphs have infinite balls,
so finite induced subgraphs stand in for them.  ``neighbors`` is the one
adjacency structure a window holds: sorted index tuples, which edge tests
read by membership, by bisection (``in_row``) where a row may be long.  The
union-find that triangulations use lives here too.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Hashable, Iterable

from .serialize import json_list, json_str


@dataclass(frozen=True)
class Window:
    """Finite induced subgraph of a curve graph.

    ``vertices`` holds canonical, hashable keys (slopes, coordinate tuples),
    sorted; ``edges`` holds index pairs (i, j) with i < j, sorted.  ``words``
    optionally gives a witness word per vertex (same indexing).

    The constructor checks the edges (in range, strictly increasing) and the
    length of ``words``.  Sorted keys are a promise of the builders
    (``farey.farey_window``, ``s5windows.build_window``), checked only by
    ``from_json``: a window of translated slopes, as a covariance test
    builds, is accepted unsorted.

    ``index`` (key -> vertex index) and ``neighbors`` are built from the
    fields when first read.  ``farey.farey_window`` hands over both, the
    sorted rows and the slope-keyed dict its build looked indices up in, so
    neither is built a second time.
    """

    instance: str
    basepoint: Any
    bound: int
    vertices: tuple
    edges: tuple[tuple[int, int], ...]
    words: tuple[str, ...] | None = None

    def __post_init__(self):
        n, last = len(self.vertices), (-1, -1)
        for edge in self.edges:  # strictly increasing, so no parallel edges
            i, j = edge
            if not (0 <= i < j < n) or edge <= last:
                raise ValueError(f"edge ({i}, {j}) is out of range or out of order")
            last = edge
        if self.words is not None and len(self.words) != len(self.vertices):
            raise ValueError("words must align with vertices")

    def __len__(self) -> int:
        return len(self.vertices)

    @cached_property
    def index(self) -> dict:
        return {v: i for i, v in enumerate(self.vertices)}

    def __contains__(self, key) -> bool:
        return key in self.index

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in self.vertices]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        return tuple(tuple(sorted(a)) for a in adj)

    def json_fields(self, key_str: Callable[[Any], str]) -> dict[str, str]:
        """The canonical JSON text of each top-level field of the window's
        JSON, written from the tuples; ``serialize.json_object`` joins them."""
        keys = map(json_str, map(key_str, self.vertices))
        if self.words is not None:  # "word" sorts after "key"
            keys = map('{},"word":{}'.format, keys, map(json_str, self.words))
        records = (f'{{"id":{i},"key":{k}}}' for i, k in enumerate(keys))
        return {
            "basepoint": json_str(key_str(self.basepoint)),
            "bound": str(self.bound),
            "edges": json_list(f"[{i},{j}]" for i, j in self.edges),
            "instance": json_str(self.instance),
            "vertices": json_list(records),
        }

    @staticmethod
    def from_json(data: dict, str_key: Callable[[str], Any], instance: str) -> "Window":
        """The window whose JSON ``json_fields`` wrote, checked as a window of ``instance``.

        Raises ValueError unless the instance matches, the bound is a
        nonnegative integer, the vertex ids are 0..n-1, the keys increase
        strictly with the ids, each edge is two integers and the basepoint
        is a vertex; the constructor checks the edges' range and order and
        the words.
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
        edges = tuple(tuple(e) for e in data["edges"])
        for e in edges:
            if len(e) != 2 or type(e[0]) is not int or type(e[1]) is not int:
                raise ValueError(f"edge {list(e)} is not two integers")
        words = None
        if verts and "word" in verts[0]:
            words = tuple(r["word"] for r in verts)
        w = Window(
            instance=instance,
            basepoint=str_key(data["basepoint"]),
            bound=bound,
            vertices=vertices,
            edges=edges,
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


# rows shorter than this are scanned, which is cheaper there than bisection
SHORT_ROW = 16


def in_row(row: tuple[int, ...], x: int) -> bool:
    """Whether x is in the sorted tuple ``row``: by a scan when the row is
    short, by bisection when it is long, as the rows of 0/1 and 1/0 in a
    Farey window of height h are, with about 2h vertices each."""
    if len(row) < SHORT_ROW:
        return x in row
    k = bisect_left(row, x)
    return k < len(row) and row[k] == x


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
