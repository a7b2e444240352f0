"""The mapping class action on curves of the five-punctured sphere.

Generators are the half-twists h1..h4 (h_i exchanges punctures i and i+1)
and the reflection r (fixes every puncture and each of the five base curves,
reversing orientation).  Each generator is encoded as an Atom: a fixed
sequence of edge flips from the base triangulation followed by an edge
relabelling that carries the flipped triangulation back onto the base one.
The encodings were derived by searching the flip graph for combinatorial
isomorphisms realising the required puncture permutations and are locked in
place by the relation test suite (braid relations, far commutation, r^2 = 1,
r h_i r = h_i^-1, and the action on the base pentagon).

Words are strings over 'a','b','c','d' (h1..h4), 'A'..'D' (inverses), 'r'.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .triangulation import NUM_EDGES, Coords, FlipStep, compile_flips, run_flip_program

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


@dataclass(frozen=True)
class Atom:
    """A mapping class as flips-then-relabel from the base triangulation.

    ``relabel[e]`` is the base-edge id that edge e of the flipped
    triangulation is carried to; ``vertex_perm[v]`` the image of puncture v.
    """

    flips: tuple[int, ...]
    relabel: tuple[int, ...]
    vertex_perm: tuple[int, int, int, int, int]  # images of punctures 1..5

    @cached_property
    def program(self) -> tuple[FlipStep, ...]:
        return compile_flips(self.flips)

    def apply(self, coords: Coords) -> Coords:
        cur = run_flip_program(self.program, coords)
        out = [0] * NUM_EDGES
        for e in range(NUM_EDGES):
            out[self.relabel[e]] = cur[e]
        return tuple(out)

    def compose(self, other: "Atom") -> "Atom":
        """The atom acting as self first, then other."""
        unlabel = [0] * NUM_EDGES
        for e in range(NUM_EDGES):
            unlabel[self.relabel[e]] = e
        flips = self.flips + tuple(unlabel[f] for f in other.flips)
        relabel = tuple(other.relabel[self.relabel[e]] for e in range(NUM_EDGES))
        perm = tuple(other.vertex_perm[self.vertex_perm[v - 1] - 1] for v in range(1, 6))
        return Atom(flips, relabel, perm)


IDENTITY_ATOM = Atom((), tuple(range(NUM_EDGES)), (1, 2, 3, 4, 5))

# Reflection through the plane of the punctures: swaps the two hemispheres,
# i.e. the northern fan edges with the southern ones; no flips needed.
R_ATOM = Atom((), (0, 1, 2, 3, 4, 7, 8, 5, 6), (1, 2, 3, 4, 5))

# Derived encodings (re-derived by tests/test_derive.py): the rotation rho
# advancing every puncture by one, and the half-twist h1 exchanging
# punctures 1 and 2.
RHO_ATOM = Atom(
    flips=(6, 5, 8, 7),
    relabel=(1, 2, 3, 4, 0, 5, 6, 7, 8),
    vertex_perm=(2, 3, 4, 5, 1),
)
H1_ATOM = Atom(
    flips=(5, 6, 4, 8),
    relabel=(0, 5, 2, 3, 8, 6, 4, 1, 7),
    vertex_perm=(2, 1, 3, 4, 5),
)


def _conjugate(inner: Atom, by: Atom) -> Atom:
    """by . inner . by^-1 computed by composing atoms."""
    by_inv = _invert_atom(by)
    return by_inv.compose(inner).compose(by)


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


def _power(atom: Atom, n: int) -> Atom:
    out = IDENTITY_ATOM
    base = atom if n >= 0 else _invert_atom(atom)
    for _ in range(abs(n)):
        out = out.compose(base)
    return out


def _build_half_twists() -> dict[str, Atom]:
    out = {"a": H1_ATOM}
    for i, letter in enumerate("bcd", start=1):
        rho_i = _power(RHO_ATOM, i)
        out[letter] = _conjugate(H1_ATOM, rho_i)
    return out


_HALF_TWISTS = _build_half_twists()

ATOMS: dict[str, Atom] = {
    **_HALF_TWISTS,
    **{_INVERSE_LETTER[k]: _invert_atom(v) for k, v in _HALF_TWISTS.items()},
    "r": R_ATOM,
}


@lru_cache(maxsize=1 << 20)
def _apply_letter(letter: str, coords: Coords) -> Coords:
    return ATOMS[letter].apply(coords)


def apply_word(word: str, coords: Coords) -> Coords:
    """Apply a word (leftmost letter acts first) to normal coordinates."""
    cur = coords
    for ch in word:
        cur = _apply_letter(ch, cur)
    return cur


def puncture_permutation(word: str) -> tuple[int, int, int, int, int]:
    perm = IDENTITY_ATOM
    for ch in word:
        perm = perm.compose(ATOMS[ch])
    return perm.vertex_perm
