"""The mapping class action on curves of the five-punctured sphere.

A curve is its normal coordinates: its geometric intersection numbers with
the nine edges of a fixed ideal triangulation, the base one, a complete
isotopy invariant.  Generators are the half-twists h1..h4 (h_i exchanges
punctures i and i+1) and the reflection r (fixes every puncture and each of
the five base curves, reversing orientation).

Each letter acts through a kernel: one straight-line function of the nine
coordinates, written out below, and ``LETTERS`` pairs it with the
letter's puncture permutation.
A kernel does, on locals, the tropical exchange max(x + z, y + w) - e of
each flip of a fixed flip sequence from the base triangulation, then
returns the coordinates relabelled onto the base edges.  The flip
sequences and relabellings live in the tests (``tests/oracles.py``): the
half-twists are the shortest encodings (4, 2, 4 and 2 flips) that a search
of the flip graph finds and certifies against the conjugate rho^i h1 rho^-i
of h1 by the rotation rho, an inverse runs its letter's flips backwards,
and r swaps the two hemispheres' edges with no flips.  The tests regenerate
each kernel's text from its flips and relabelling and require it to be the
one written here, and check each kernel against a flip-by-flip replay
through ``Triangulation.flip_coords``; the relation suite locks the letters
in (braid relations, far commutation, r^2 = 1, r h_i r = h_i^-1).

A kernel is applied to one curve (``apply_word``) or mapped over a list
(``apply_word_many``, wherever one word meets many curves), and no memo is
kept, since a kernel call costs about as much as a cache lookup would.

Words are strings over 'a','b','c','d' (h1..h4), 'A'..'D' (inverses), 'r'.
"""

from __future__ import annotations

from typing import Callable, Iterable

NUM_EDGES = 9
Coords = tuple[int, int, int, int, int, int, int, int, int]

WORD_ALPHABET = "aAbBcCdDr"

_INVERSE_LETTER = {
    "a": "A", "A": "a",
    "b": "B", "B": "b",
    "c": "C", "C": "c",
    "d": "D", "D": "d",
    "r": "r",
}


def invert_word(word: str) -> str:
    return "".join(_INVERSE_LETTER[ch] for ch in reversed(word))


def reduce_word(word: str) -> str:
    out: list[str] = []
    for ch in word:
        if out and out[-1] == _INVERSE_LETTER[ch]:
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


# The kernels.  Coordinate e lives in the local c{e}; each flip of edge e
# inside the square with sides x, y, z, w sets it to max(x + z, y + w) - e,
# written as a conditional expression because a call to max costs more
# than the rest of the step.


def _a(coords):
    c0, c1, c2, c3, c4, c5, c6, c7, c8 = coords
    s = c0 + c2
    t = c1 + c6
    c5 = (s if s > t else t) - c5
    s = c0 + c3
    t = c5 + c4
    c6 = (s if s > t else t) - c6
    s = c0 + c3
    t = c6 + c8
    c4 = (s if s > t else t) - c4
    s = c0 + c2
    t = c4 + c7
    c8 = (s if s > t else t) - c8
    return (c0, c7, c2, c3, c6, c1, c5, c8, c4)


def _A(coords):
    c0, c1, c2, c3, c4, c5, c6, c7, c8 = coords
    s = c1 + c8
    t = c0 + c2
    c7 = (s if s > t else t) - c7
    s = c7 + c4
    t = c0 + c3
    c8 = (s if s > t else t) - c8
    s = c6 + c8
    t = c3 + c0
    c4 = (s if s > t else t) - c4
    s = c5 + c4
    t = c2 + c0
    c6 = (s if s > t else t) - c6
    return (c0, c5, c2, c3, c8, c6, c4, c1, c7)


def _b(coords):
    c0, c1, c2, c3, c4, c5, c6, c7, c8 = coords
    s = c1 + c8
    t = c0 + c2
    c7 = (s if s > t else t) - c7
    s = c6 + c1
    t = c5 + c7
    c2 = (s if s > t else t) - c2
    return (c5, c1, c7, c3, c4, c2, c6, c0, c8)


def _B(coords):
    c0, c1, c2, c3, c4, c5, c6, c7, c8 = coords
    s = c0 + c2
    t = c1 + c6
    c5 = (s if s > t else t) - c5
    s = c5 + c7
    t = c1 + c8
    c2 = (s if s > t else t) - c2
    return (c7, c1, c5, c3, c4, c0, c6, c2, c8)


def _c(coords):
    c0, c1, c2, c3, c4, c5, c6, c7, c8 = coords
    s = c0 + c2
    t = c1 + c6
    c5 = (s if s > t else t) - c5
    s = c2 + c0
    t = c5 + c7
    c1 = (s if s > t else t) - c1
    s = c2 + c4
    t = c7 + c3
    c8 = (s if s > t else t) - c8
    s = c4 + c2
    t = c6 + c8
    c3 = (s if s > t else t) - c3
    return (c0, c5, c2, c8, c4, c6, c3, c1, c7)


def _C(coords):
    c0, c1, c2, c3, c4, c5, c6, c7, c8 = coords
    s = c5 + c3
    t = c2 + c4
    c6 = (s if s > t else t) - c6
    s = c6 + c8
    t = c2 + c4
    c3 = (s if s > t else t) - c3
    s = c1 + c8
    t = c0 + c2
    c7 = (s if s > t else t) - c7
    s = c5 + c7
    t = c0 + c2
    c1 = (s if s > t else t) - c1
    return (c0, c7, c2, c6, c4, c1, c5, c8, c3)


def _d(coords):
    c0, c1, c2, c3, c4, c5, c6, c7, c8 = coords
    s = c5 + c3
    t = c2 + c4
    c6 = (s if s > t else t) - c6
    s = c3 + c7
    t = c6 + c8
    c2 = (s if s > t else t) - c2
    return (c0, c1, c6, c3, c8, c5, c4, c7, c2)


def _D(coords):
    c0, c1, c2, c3, c4, c5, c6, c7, c8 = coords
    s = c2 + c4
    t = c7 + c3
    c8 = (s if s > t else t) - c8
    s = c6 + c8
    t = c5 + c3
    c2 = (s if s > t else t) - c2
    return (c0, c1, c8, c3, c6, c5, c2, c7, c4)


def _r(coords):
    c0, c1, c2, c3, c4, c5, c6, c7, c8 = coords
    return (c0, c1, c2, c3, c4, c7, c8, c5, c6)


# letter: (kernel, images of punctures 1..5)
LETTERS: dict[str, tuple[Callable[[Coords], Coords], tuple[int, int, int, int, int]]] = {
    "a": (_a, (2, 1, 3, 4, 5)), "A": (_A, (2, 1, 3, 4, 5)),
    "b": (_b, (1, 3, 2, 4, 5)), "B": (_B, (1, 3, 2, 4, 5)),
    "c": (_c, (1, 2, 4, 3, 5)), "C": (_C, (1, 2, 4, 3, 5)),
    "d": (_d, (1, 2, 3, 5, 4)), "D": (_D, (1, 2, 3, 5, 4)),
    "r": (_r, (1, 2, 3, 4, 5)),
}
KERNELS = {ch: kernel for ch, (kernel, _) in LETTERS.items()}


def apply_word(word: str, coords: Coords) -> Coords:
    """Apply a word (leftmost letter acts first) to normal coordinates."""
    for ch in word:
        coords = KERNELS[ch](coords)
    return coords


def apply_word_many(word: str, curves: Iterable[Coords]) -> list[Coords]:
    """``apply_word`` on each curve: each letter's kernel mapped over them all."""
    curves = list(curves)
    for ch in word:
        curves = list(map(KERNELS[ch], curves))
    return curves


def puncture_permutation(word: str) -> tuple[int, int, int, int, int]:
    """Images of punctures 1..5 under the word (leftmost letter acts first)."""
    perm = (1, 2, 3, 4, 5)
    for ch in word:
        step = LETTERS[ch][1]
        perm = tuple(step[p - 1] for p in perm)
    return perm
