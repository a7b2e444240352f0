"""Curves on the five-punctured sphere and geometric intersection numbers.

A curve is its normal-coordinate vector with respect to the base
triangulation; coordinates are a complete isotopy invariant, so coordinate
equality is isotopy.  Every essential curve cuts off a twice-punctured disk,
and the five base curves c_k bound disk neighbourhoods of base edges e_k.

Intersection numbers have one path: a curve carries a witness (g, k) with
curve = g(c_k), and i(g(c_k), x) = i(c_k, g^-1 x) = 2 * (g^-1 x)[e_k], since
the boundary of a disk neighbourhood of e_k crosses x along two strands
parallel to e_k, once per crossing of x with e_k, and normal coordinates are
minimal.  ``witness_reader`` checks a witness and gives (g^-1, e_k); a window
keeps one per vertex (``s5windows.witness_readers``).  The flip-reduction
search that computes i(a, b) from coordinates alone lives in the tests, as
the oracle for this reading.
A ``NormalCurve`` is coordinates and an optional witness, and is not
checked when it is made: every curve the program makes is an image g(c_k)
of a base curve, hence essential, and the one check on it is its witness
word.  The essentiality test on coordinates alone lives in the tests.
"""

from __future__ import annotations

from typing import NamedTuple

from .mcg import WORD_ALPHABET, apply_word, invert_word
from .triangulation import BASE, Coords


class NormalCurve(NamedTuple):
    """An essential simple closed curve in normal coordinates.

    ``witness`` optionally records provenance: a word in the mapping class
    generators and the index (1..5) of the base curve it was applied to.
    """

    coords: Coords
    witness: tuple[str, int] | None = None

    def __eq__(self, other):
        return isinstance(other, NormalCurve) and self.coords == other.coords

    def __ne__(self, other):  # the tuple's own would compare the witnesses too
        return not self == other

    def __hash__(self):
        return hash(self.coords)


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
    have no witness and are trusted to be a curve.
    """
    a, b = _as_curve(a), _as_curve(b)
    if a.witness is None:
        a, b = b, a
    if a.witness is None:
        raise ValueError("intersection_number needs a curve with a witness word")
    inverse, edge = witness_reader(a.coords, a.witness)
    return 2 * apply_word(inverse, b.coords)[edge]
