"""Ideal triangulations of the five-punctured sphere and the flip of an edge.

A triangulation state records, for each of its six triangles, the edge on
each side and the puncture at each corner; side j is opposite corner j and
is traversed from corner j+1 to corner j+2 in the triangle's positive cyclic
order, so glued sides run in opposite directions.  An edge flip replaces the
diagonal of the square formed by its two triangles, and a curve's normal
coordinates update across it by the tropical exchange max(a+c, b+d) - e.

No module of curvelab imports this one: each generator's flips are written
out as a straight-line kernel in ``mcg``, and the base triangulation, the
flip programs that the kernels are checked against and the tests on
coordinates alone (essentiality, flip reduction) live in ``tests/oracles.py``,
which builds on ``Triangulation``.  ``flip`` and ``flip_coords`` stay here,
where the benchmark's layer tracer counts their calls.
"""

from __future__ import annotations

from functools import cached_property

from .mcg import NUM_EDGES, Coords


class Triangulation:
    """Combinatorial state: per-triangle edge labels and corner punctures."""

    def __init__(self, tri_edges: tuple[tuple[int, int, int], ...],
                 tri_corners: tuple[tuple[int, int, int], ...]):
        self.tri_edges, self.tri_corners = tri_edges, tri_corners

    def __eq__(self, other) -> bool:
        return (type(other) is Triangulation and self.tri_edges == other.tri_edges
                and self.tri_corners == other.tri_corners)

    def __hash__(self) -> int:
        return hash((self.tri_edges, self.tri_corners))

    @cached_property
    def slots(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """For each edge, the (triangle, side) pairs where it appears."""
        out: list[list[tuple[int, int]]] = [[] for _ in range(NUM_EDGES)]
        for t, edges in enumerate(self.tri_edges):
            for j, e in enumerate(edges):
                out[e].append((t, j))
        return tuple(tuple(s) for s in out)

    def flip(self, e: int) -> "Triangulation":
        """Replace diagonal e = CA of the square ABCD by BD (same edge id)."""
        (t1, j1), (t2, j2) = self.slots[e]
        if t1 == t2:
            raise ValueError(f"edge {e} is self-folded and cannot be flipped")
        corners1, corners2 = self.tri_corners[t1], self.tri_corners[t2]
        edges1, edges2 = self.tri_edges[t1], self.tri_edges[t2]
        b, d = corners1[j1], corners2[j2]
        c, a = corners1[(j1 + 1) % 3], corners1[(j1 + 2) % 3]
        x, y = edges1[(j1 + 1) % 3], edges1[(j1 + 2) % 3]  # AB, BC
        z, w = edges2[(j2 + 1) % 3], edges2[(j2 + 2) % 3]  # CD, DA
        new_edges = list(self.tri_edges)
        new_corners = list(self.tri_corners)
        new_edges[t1], new_corners[t1] = (e, w, x), (a, b, d)
        new_edges[t2], new_corners[t2] = (z, e, y), (b, c, d)
        return Triangulation(tuple(new_edges), tuple(new_corners))

    def flip_quad(self, e: int) -> tuple[int, int, int, int]:
        """The square sides (x, y, z, w) = (AB, BC, CD, DA) around diagonal e."""
        (t1, j1), (t2, j2) = self.slots[e]
        edges1, edges2 = self.tri_edges[t1], self.tri_edges[t2]
        return (
            edges1[(j1 + 1) % 3],
            edges1[(j1 + 2) % 3],
            edges2[(j2 + 1) % 3],
            edges2[(j2 + 2) % 3],
        )

    def flip_coords(self, e: int, coords: Coords) -> Coords:
        """Tropical update of one curve's coordinates across a flip of e."""
        x, y, z, w = self.flip_quad(e)
        new = list(coords)
        new[e] = max(coords[x] + coords[z], coords[y] + coords[w]) - coords[e]
        return tuple(new)
