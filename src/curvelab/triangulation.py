"""Ideal triangulations of the five-punctured sphere and normal coordinates.

The fixed base triangulation has punctures 1..5 on an equatorial circle,
edges 0..4 along the equator between consecutive punctures, and each
hemisphere fanned from puncture 1 (edges 5, 6 north and 7, 8 south).  A
triangulation state records, for each of the six triangles, the edge on each
side and the puncture at each corner; side j is opposite corner j and is
traversed from corner j+1 to corner j+2 in the triangle's positive cyclic
order, so glued sides run in opposite directions.

Curves are coordinatised by their geometric intersection with the nine edges.
An edge flip replaces the diagonal of the square formed by its two triangles;
coordinates update by the tropical exchange max(a+c, b+d) - e.  A fixed
sequence of flips compiles to a flip program, the integer updates alone,
which transports coordinates without building the intermediate states.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .window import DisjointSets

PUNCTURES = (1, 2, 3, 4, 5)
NUM_EDGES = 9
Coords = tuple[int, int, int, int, int, int, int, int, int]
ZERO_COORDS: Coords = (0,) * NUM_EDGES

# One step of a flip program: (e, x, y, z, w) sets coordinate e to
# max(x + z, y + w) - e, the tropical exchange across a flip of edge e inside
# the square with sides x, y, z, w (Triangulation.flip_quad).
FlipStep = tuple[int, int, int, int, int]


@dataclass(frozen=True)
class Triangulation:
    """Combinatorial state: per-triangle edge labels and corner punctures."""

    tri_edges: tuple[tuple[int, int, int], ...]
    tri_corners: tuple[tuple[int, int, int], ...]

    @cached_property
    def slots(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """For each edge, the (triangle, side) pairs where it appears."""
        out: list[list[tuple[int, int]]] = [[] for _ in range(NUM_EDGES)]
        for t, edges in enumerate(self.tri_edges):
            for j, e in enumerate(edges):
                out[e].append((t, j))
        return tuple(tuple(s) for s in out)

    def side_ends(self, t: int, j: int) -> tuple[int, int]:
        """Directed endpoints (from, to) of side j of triangle t."""
        c = self.tri_corners[t]
        return c[(j + 1) % 3], c[(j + 2) % 3]

    def edge_endpoints(self, e: int) -> tuple[int, int]:
        """Unordered puncture pair (with multiplicity) at the ends of e."""
        t, j = self.slots[e][0]
        u, v = self.side_ends(t, j)
        return (u, v) if u <= v else (v, u)

    def validate(self) -> None:
        """Raise RuntimeError unless the gluing is a triangulated sphere."""
        if len(self.tri_edges) != 6 or len(self.tri_corners) != 6:
            raise RuntimeError("a triangulation needs six triangles")
        for e, slot in enumerate(self.slots):
            if len(slot) != 2:
                raise RuntimeError(f"edge {e} appears {len(slot)} times")
            (t1, j1), (t2, j2) = slot
            u1, v1 = self.side_ends(t1, j1)
            u2, v2 = self.side_ends(t2, j2)
            if (u1, v1) != (v2, u2):
                raise RuntimeError(f"edge {e} glued with matching orientation")
        # Euler characteristic of the sphere
        if len(PUNCTURES) - NUM_EDGES + len(self.tri_edges) != 2:
            raise RuntimeError("gluing is not a sphere")

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

    def ends_at(self, e: int, v: int) -> int:
        """Number of ends of edge e at puncture v (0, 1, or 2)."""
        u, w = self.edge_endpoints(e)
        return (u == v) + (w == v)

    def peripheral_coords(self, v: int) -> Coords:
        """Coordinates of the (inessential) loop around one puncture."""
        return tuple(self.ends_at(e, v) for e in range(NUM_EDGES))

    def neighborhood_pattern(self, e: int) -> Coords:
        """Coordinates of the boundary of a disk neighborhood of edge e.

        Requires distinct endpoints; the curve crosses every edge-end at
        either endpoint except the two ends of e itself, so it cuts off a
        twice-punctured disk containing e.
        """
        u, v = self.edge_endpoints(e)
        if u == v:
            raise ValueError(f"edge {e} is a loop at puncture {u}")
        return tuple(
            self.ends_at(f, u) + self.ends_at(f, v) - (2 if f == e else 0)
            for f in range(NUM_EDGES)
        )


def _base() -> Triangulation:
    # triangle order: N123, N134, N145, S123, S134, S145
    # edges: 0=E12 1=E23 2=E34 3=E45 4=E51 (equator), 5=N13 6=N14, 7=S13 8=S14
    tri = Triangulation(
        tri_edges=(
            (1, 5, 0),
            (2, 6, 5),
            (3, 4, 6),
            (1, 0, 7),
            (2, 7, 8),
            (3, 8, 4),
        ),
        tri_corners=(
            (1, 2, 3),
            (1, 3, 4),
            (1, 4, 5),
            (1, 3, 2),
            (1, 4, 3),
            (1, 5, 4),
        ),
    )
    tri.validate()
    return tri


BASE = _base()


def compile_flips(flips: tuple[int, ...]) -> tuple[FlipStep, ...]:
    """The flip program of a flip sequence starting from the base triangulation."""
    program, state = [], BASE
    for f in flips:
        program.append((f, *state.flip_quad(f)))
        state = state.flip(f)
    return tuple(program)


def run_flip_program(program: tuple[FlipStep, ...], coords: Coords) -> list[int]:
    """Coordinates after the flips of a program, as a list.

    Equal to folding Triangulation.flip_coords over the flips the program
    was compiled from.
    """
    cur = list(coords)
    for e, x, y, z, w in program:
        cur[e] = max(cur[x] + cur[z], cur[y] + cur[w]) - cur[e]
    return cur


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
    if any(coords == state.peripheral_coords(v) for v in PUNCTURES):
        return False
    return count_components(state, coords) == 1
