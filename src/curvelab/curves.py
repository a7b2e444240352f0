"""Curves on the five-punctured sphere and geometric intersection numbers.

A curve is its normal-coordinate vector with respect to the base
triangulation; coordinates are a complete isotopy invariant, so coordinate
equality is isotopy.  Every essential curve cuts off a twice-punctured disk,
and the five base curves c_k bound disk neighbourhoods of base edges e_k.

Intersection numbers have one path: a curve carries a witness (g, k) with
curve = g(c_k), and i(g(c_k), x) = i(c_k, g^-1 x) = 2 * (g^-1 x)[e_k], since
the boundary of a disk neighbourhood of e_k crosses x along two strands
parallel to e_k, once per crossing of x with e_k, and normal coordinates are
minimal.  ``witness_reader`` checks a witness once and gives (g^-1, e_k);
window edges and the S5 quotient contract use the same readers.  The
flip-reduction search that computes i(a, b) from coordinates alone lives in
the tests, as the oracle for this reading.
A ``NormalCurve`` is validated when it is made, memoized by coordinate
vector, so each distinct curve is validated once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .mcg import WORD_ALPHABET, apply_word, invert_word
from .triangulation import BASE, Coords, is_essential


@lru_cache(maxsize=1 << 16)
def _essential(coords: Coords) -> bool:
    return is_essential(BASE, coords)


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


@lru_cache(maxsize=1 << 16)
def witness_reader(coords: Coords, witness: tuple[str, int]) -> tuple[str, int]:
    """(g^-1, e_k) for the curve coords = g(c_k) witnessed by (g, k).

    i(g(c_k), x) = i(c_k, g^-1 x) for any curve x, and c_k bounds a disk
    neighbourhood of the base edge e_k = BASE_CURVE_EDGES[k-1], so
    i(g(c_k), x) = 2 * (g^-1 x)[e_k].  Raises ValueError unless the witness
    gives the curve, so a wrong witness never gives wrong intersections.
    """
    word, base = witness
    if not (
        1 <= base <= len(BASE_CURVES)
        and set(word) <= set(WORD_ALPHABET)
        and apply_word(word, BASE_CURVES[base - 1].coords) == coords
    ):
        raise ValueError(f"curve {coords} is not witnessed by {witness}")
    return invert_word(word), BASE_CURVE_EDGES[base - 1]


def _as_curve(c: NormalCurve | Coords) -> NormalCurve:
    return c if isinstance(c, NormalCurve) else NormalCurve(tuple(c))


def intersection_number(a: NormalCurve | Coords, b: NormalCurve | Coords) -> int:
    """Minimal geometric intersection number of two essential curves.

    Read off the witness of a, or of b when a has none; raw coordinates
    are validated as curves and have no witness.
    """
    a, b = _as_curve(a), _as_curve(b)
    if a.witness is None:
        a, b = b, a
    if a.witness is None:
        raise ValueError("intersection_number needs a curve with a witness word")
    inverse, edge = witness_reader(a.coords, a.witness)
    return 2 * apply_word(inverse, b.coords)[edge]


def disjoint(a: NormalCurve | Coords, b: NormalCurve | Coords) -> bool:
    """Adjacency in the curve graph: distinct curves that do not meet."""
    a, b = _as_curve(a), _as_curve(b)
    return a != b and intersection_number(a, b) == 0
