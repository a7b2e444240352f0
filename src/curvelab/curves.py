"""Curves on the five-punctured sphere and geometric intersection numbers.

A curve is its normal-coordinate vector with respect to the base
triangulation; coordinates are a complete isotopy invariant, so coordinate
equality is isotopy.  Intersection numbers are computed by flip-reducing the
first curve until it becomes the boundary of a disk neighborhood of a single
edge E (every essential curve cuts off a twice-punctured disk, and weight
reduction terminates in that form), transporting the second curve's
coordinates along the same flips, and reading off i(a, b) = 2 * w_E(b): the
reduced curve can be drawn crossing b only along the two strands parallel to
E, once per crossing of b with E, and w_E is minimal for normal coordinates.
Each reduction is searched for once and kept as a flip program, a tuple of
integer coordinate updates that replays without building triangulations.

``intersection_number`` is the general path, and the oracle that faster
special cases are tested against.  Window edges and the S5 quotient
contract read intersections off the vertices' witness words
(``s5windows.witness_readers``), so flip search now serves only pairs of
curves with no window witness (arc2's arc tests, ``half_twist_of``, a
certificate between two curves outside the window) and the oracle tests.
A ``NormalCurve`` is validated when it is made, so only
raw coordinate tuples are checked on each call; both checks are memoized by
coordinate vector, so each distinct curve is validated once.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache

from .triangulation import (
    BASE,
    NUM_EDGES,
    Coords,
    FlipStep,
    Triangulation,
    compile_flips,
    is_essential,
    is_valid_coords,
    run_flip_program,
)


@lru_cache(maxsize=1 << 16)
def _essential(coords: Coords) -> bool:
    return is_essential(BASE, coords)


@lru_cache(maxsize=1 << 16)
def _valid_raw(coords: Coords) -> bool:
    return is_valid_coords(BASE, coords)


@dataclass(frozen=True)
class NormalCurve:
    """An essential simple closed curve in normal coordinates.

    ``witness`` optionally records provenance: a word in the mapping class
    generators and the index (1..5) of the base curve it was applied to.
    """

    coords: Coords
    witness: tuple[str, int] | None = None

    def __post_init__(self):
        if not _essential(self.coords):
            raise ValueError(f"coordinates {self.coords} are not an essential curve")

    def __eq__(self, other):
        return isinstance(other, NormalCurve) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __lt__(self, other: "NormalCurve"):
        return self.coords < other.coords

    def to_json(self) -> dict:
        rec = {"coords": list(self.coords)}
        if self.witness is not None:
            rec["witness"] = {"word": self.witness[0], "base": self.witness[1]}
        return rec


# The base edge whose disk neighborhood c_j bounds: E12, E34, E51, E23, E45.
BASE_CURVE_EDGES = (0, 2, 4, 1, 3)


def base_curves() -> tuple[NormalCurve, ...]:
    """The five curves c1..c5, cyclically adjacent in the curve graph.

    c_j bounds a disk around the puncture pair p_j, with consecutive pairs
    disjoint: p1={1,2}, p2={3,4}, p3={5,1}, p4={2,3}, p5={4,5}.
    """
    return tuple(
        NormalCurve(BASE.neighborhood_pattern(e), witness=("", j + 1))
        for j, e in enumerate(BASE_CURVE_EDGES)
    )


BASE_CURVES = base_curves()
BASE_CURVE_PAIRS = ((1, 2), (3, 4), (5, 1), (2, 3), (4, 5))


class ReductionError(RuntimeError):
    pass


@lru_cache(maxsize=65536)
def _reduce_to_boundary(coords: Coords) -> tuple[tuple[FlipStep, ...], int]:
    """Flip program carrying coords to a neighborhood-boundary pattern.

    Returns (program, edge) such that replaying the program on coords gives
    state.neighborhood_pattern(edge), where state is the triangulation the
    program's flips lead to from the base one.  Best-first search on total
    weight; flips that reduce weight are always explored, plateaus are
    crossed by the priority queue.
    """

    def terminal_edge(state: Triangulation, cur: Coords) -> int | None:
        for e in range(NUM_EDGES):
            if cur[e] == 0:
                u, v = state.edge_endpoints(e)
                if u != v and cur == state.neighborhood_pattern(e):
                    return e
        return None

    start = (BASE, coords)
    parent: dict[tuple[Triangulation, Coords], tuple[tuple[Triangulation, Coords], int]] = {}
    seen = {start}
    heap: list[tuple[int, int, int, tuple[Triangulation, Coords]]] = []
    counter = 0
    heapq.heappush(heap, (sum(coords), 0, counter, start))
    expansions = 0
    while heap:
        _, depth, _, node = heapq.heappop(heap)
        state, cur = node
        e = terminal_edge(state, cur)
        if e is not None:
            flips = []
            while node in parent:
                node, flipped = parent[node]
                flips.append(flipped)
            return compile_flips(tuple(reversed(flips))), e
        expansions += 1
        if expansions > 200_000:
            raise ReductionError(f"flip reduction did not terminate for {coords}")
        for f in range(NUM_EDGES):
            if not state.flippable(f):
                continue
            nxt = (state.flip(f), state.flip_coords(f, cur))
            if nxt in seen:
                continue
            seen.add(nxt)
            parent[nxt] = (node, f)
            counter += 1
            heapq.heappush(heap, (sum(nxt[1]), depth + 1, counter, nxt))
    raise ReductionError(f"flip reduction exhausted the search space for {coords}")


def _check_base_reductions() -> None:
    """Each base curve c_j must be its own reduced form, at BASE_CURVE_EDGES.

    s5windows reads i(g(c_j), v) as 2 * (g^-1 v)[BASE_CURVE_EDGES[j-1]],
    which is exactly _intersection(c_j, g^-1 v) when this holds.
    """
    for curve, edge in zip(BASE_CURVES, BASE_CURVE_EDGES):
        if _reduce_to_boundary(curve.coords) != ((), edge):
            raise ReductionError(
                f"base curve {curve.coords} does not reduce to edge {edge} "
                "with an empty flip program"
            )


_check_base_reductions()


@lru_cache(maxsize=1 << 20)
def _intersection(a: Coords, b: Coords) -> int:
    if a == b:
        return 0
    program, edge = _reduce_to_boundary(a)
    return 2 * run_flip_program(program, b)[edge]


def _checked_coords(c: NormalCurve | Coords) -> Coords:
    """Coordinates of an argument, validating raw tuples (once per tuple)."""
    if isinstance(c, NormalCurve):
        return c.coords
    c = tuple(c)
    if not _valid_raw(c):
        raise ValueError("intersection_number requires valid normal coordinates")
    return c


def intersection_number(a: NormalCurve | Coords, b: NormalCurve | Coords) -> int:
    """Minimal geometric intersection number of two essential curves."""
    ca, cb = _checked_coords(a), _checked_coords(b)
    if ca <= cb:
        return _intersection(ca, cb)
    return _intersection(cb, ca)


def disjoint(a: NormalCurve | Coords, b: NormalCurve | Coords) -> bool:
    """Adjacency in the curve graph: distinct curves that do not meet."""
    return a != b and intersection_number(a, b) == 0
