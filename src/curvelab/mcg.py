"""The mapping class action on curves of the five-punctured sphere.

Generators are the half-twists h1..h4 (h_i exchanges punctures i and i+1)
and the reflection r (fixes every puncture and each of the five base curves,
reversing orientation).  Each generator is encoded as an Atom: a fixed
sequence of edge flips from the base triangulation followed by an edge
relabelling that carries the flipped triangulation back onto the base one.
The half-twists are literal shortest encodings (4, 2, 4 and 2 flips), found
by searching the flip graph for combinatorial isomorphisms realising the
required puncture permutations.  The tests re-derive each one and certify
it against the conjugate rho^i h1 rho^-i of h1 by the rotation rho (same
puncture permutation and same images of c1, c2 and c4 determine an
orientation-preserving mapping class), and the relation suite locks them in
(braid relations, far commutation, r^2 = 1, r h_i r = h_i^-1).

Each atom acts through a kernel: one straight-line function of the nine
coordinates, generated from the atom's flips and relabelling on its first
use, which does each flip's tropical exchange on locals and returns the
relabelled tuple.  A kernel is applied to one curve (``apply_word``) or
mapped over a list (``apply_word_many``, wherever one word meets many
curves), and no memo is kept, since a kernel call costs about as much as a
cache lookup would.  The tests check every kernel against a replay of the
flips through ``Triangulation.flip_coords``.

Words are strings over 'a','b','c','d' (h1..h4), 'A'..'D' (inverses), 'r'.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Iterable

from .triangulation import NUM_EDGES, Coords, compile_flips

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


class Atom:
    """A mapping class as flips-then-relabel from the base triangulation.

    ``relabel[e]`` is the base-edge id that edge e of the flipped
    triangulation is carried to; ``vertex_perm[v]`` the image of puncture v.
    """

    def __init__(self, flips: tuple[int, ...], relabel: tuple[int, ...],
                 vertex_perm: tuple[int, int, int, int, int]):  # images of punctures 1..5
        self.flips, self.relabel, self.vertex_perm = flips, relabel, vertex_perm

    def __eq__(self, other) -> bool:
        return type(other) is Atom and (self.flips, self.relabel, self.vertex_perm) == (
            other.flips, other.relabel, other.vertex_perm)

    @cached_property
    def kernel(self) -> Callable[[Coords], Coords]:
        """The atom's action on normal coordinates, as generated code.

        Coordinate e lives in the local ``c{e}``; each flip step (e, x, y,
        z, w) sets it to max(x + z, y + w) - e, written as a conditional
        expression because a call to ``max`` costs more than the rest of
        the step.  The result puts coordinate e at ``relabel[e]``.
        """
        names = ", ".join(f"c{e}" for e in range(NUM_EDGES))
        lines = ["def kernel(coords):", f"    {names} = coords"]
        for e, x, y, z, w in compile_flips(self.flips):
            lines += [f"    s = c{x} + c{z}", f"    t = c{y} + c{w}",
                      f"    c{e} = (s if s > t else t) - c{e}"]
        unlabel = [0] * NUM_EDGES
        for e in range(NUM_EDGES):
            unlabel[self.relabel[e]] = e
        lines.append("    return (" + ", ".join(f"c{e}" for e in unlabel) + ")")
        namespace: dict = {}
        exec("\n".join(lines), namespace)
        return namespace["kernel"]


# Reflection through the plane of the punctures: swaps the two hemispheres,
# i.e. the northern fan edges with the southern ones; no flips needed.
R_ATOM = Atom((), (0, 1, 2, 3, 4, 7, 8, 5, 6), (1, 2, 3, 4, 5))

# Shortest flip encodings of the half-twists (re-derived and certified by
# tests/test_derive.py); c is the least of its six 4-flip programs.
_HALF_TWISTS = {
    "a": Atom((5, 6, 4, 8), (0, 5, 2, 3, 8, 6, 4, 1, 7), (2, 1, 3, 4, 5)),
    "b": Atom((7, 2), (7, 1, 5, 3, 4, 0, 6, 2, 8), (1, 3, 2, 4, 5)),
    "c": Atom((5, 1, 8, 3), (0, 7, 2, 6, 4, 1, 5, 8, 3), (1, 2, 4, 3, 5)),
    "d": Atom((6, 2), (0, 1, 8, 3, 6, 5, 2, 7, 4), (1, 2, 3, 5, 4)),
}


def _invert_atom(atom: Atom) -> Atom:
    unlabel = [0] * NUM_EDGES
    for e in range(NUM_EDGES):
        unlabel[atom.relabel[e]] = e
    # run the flips backwards through the relabelling
    flips = tuple(atom.relabel[f] for f in reversed(atom.flips))
    inv_perm = [0] * 5
    for v in range(1, 6):
        inv_perm[atom.vertex_perm[v - 1] - 1] = v
    return Atom(flips, tuple(unlabel), tuple(inv_perm))


ATOMS: dict[str, Atom] = {
    **_HALF_TWISTS,
    **{_INVERSE_LETTER[k]: _invert_atom(v) for k, v in _HALF_TWISTS.items()},
    "r": R_ATOM,
}


def apply_word(word: str, coords: Coords) -> Coords:
    """Apply a word (leftmost letter acts first) to normal coordinates."""
    for ch in word:
        coords = ATOMS[ch].kernel(coords)
    return coords


def apply_word_many(word: str, curves: Iterable[Coords]) -> list[Coords]:
    """``apply_word`` on each curve: each letter's kernel mapped over them all."""
    curves = list(curves)
    for ch in word:
        curves = list(map(ATOMS[ch].kernel, curves))
    return curves


def puncture_permutation(word: str) -> tuple[int, int, int, int, int]:
    """Images of punctures 1..5 under the word (leftmost letter acts first)."""
    perm = (1, 2, 3, 4, 5)
    for ch in word:
        step = ATOMS[ch].vertex_perm
        perm = tuple(step[p - 1] for p in perm)
    return perm
