"""Exact model of the Farey complex and its GL(2,Z) mapping class action.

Vertices are slopes p/q in canonical form, with 1/0 playing the role of the
slope at infinity.  Two slopes are adjacent when |p q' - q p'| = 1.  Distances
are computed exactly as shortest paths through the ladder of triangles read
off a continued fraction, in time linear in its length and with no state
kept between calls, and cross-checked in the tests against a
breadth-first oracle on height-bounded windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .window import Window

FAREY_GENERATOR_ALPHABET = "tTuUj"


@dataclass(frozen=True, order=True)
class Slope:
    """A reduced fraction p/q with q >= 0; the slope 1/0 is infinity."""

    p: int
    q: int

    def __post_init__(self):
        if self.q < 0 or math.gcd(abs(self.p), self.q) != 1:
            raise ValueError(f"slope {self.p}/{self.q} is not canonical")
        if self.q == 0 and self.p != 1:
            raise ValueError("the slope at infinity must be written 1/0")

    @staticmethod
    def of(p: int, q: int) -> "Slope":
        """Canonicalise an arbitrary integer pair (p, q) != (0, 0)."""
        if p == 0 and q == 0:
            raise ValueError("0/0 is not a slope")
        g = math.gcd(abs(p), abs(q))
        p, q = p // g, q // g
        if q < 0 or (q == 0 and p < 0):
            p, q = -p, -q
        return Slope(p, q)

    @staticmethod
    def _canonical(p: int, q: int) -> "Slope":
        """A slope from a pair known to be reduced, with no gcd check."""
        if q < 0 or (q == 0 and p < 0):
            p, q = -p, -q
        s = object.__new__(Slope)
        object.__setattr__(s, "p", p)
        object.__setattr__(s, "q", q)
        return s

    @property
    def height(self) -> int:
        return max(abs(self.p), self.q)

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"

    @staticmethod
    def parse(text: str) -> "Slope":
        num, _, den = text.partition("/")
        try:
            p, q = int(num), int(den)
        except ValueError:
            raise ValueError(f"malformed slope {text!r}, expected 'p/q'") from None
        return Slope.of(p, q)


INFINITY = Slope(1, 0)
ZERO = Slope(0, 1)


@dataclass(frozen=True)
class IntMatrix:
    """A 2x2 integer matrix of determinant +-1, acting on slopes."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.det not in (1, -1):
            raise ValueError(f"matrix {self.entries} has determinant {self.det}")

    @property
    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    @property
    def trace(self) -> int:
        return self.a + self.d

    def is_hyperbolic(self) -> bool:
        return abs(self.trace) > 2

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        return IntMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "IntMatrix":
        det = self.det
        return IntMatrix(self.d * det, -self.b * det, -self.c * det, self.a * det)

    def __pow__(self, n: int) -> "IntMatrix":
        base = self if n >= 0 else self.inverse()
        result = IDENTITY
        for _ in range(abs(n)):
            result = result * base
        return result

    def apply(self, s: Slope) -> Slope:
        # a determinant +-1 matrix maps reduced pairs to reduced pairs
        return Slope._canonical(self.a * s.p + self.b * s.q, self.c * s.p + self.d * s.q)

    def projective(self) -> tuple[int, int, int, int]:
        """Sign-normalised entries; matrices act on slopes through +-1."""
        for x in self.entries:
            if x != 0:
                return self.entries if x > 0 else tuple(-y for y in self.entries)
        raise AssertionError("zero matrix")

    def __str__(self) -> str:
        return ",".join(str(x) for x in self.entries)

    @staticmethod
    def parse(text: str) -> "IntMatrix":
        try:
            a, b, c, d = (int(x) for x in text.split(","))
        except ValueError:  # a non-integer entry, or not four of them
            raise ValueError(f"malformed matrix {text!r}, expected 'a,b,c,d'") from None
        return IntMatrix(a, b, c, d)


IDENTITY = IntMatrix(1, 0, 0, 1)

# Standard generators of GL(2,Z): the two unipotents, their inverses, and one
# orientation-reversing involution.
GENERATORS = {
    "t": IntMatrix(1, 1, 0, 1),
    "T": IntMatrix(1, -1, 0, 1),
    "u": IntMatrix(1, 0, 1, 1),
    "U": IntMatrix(1, 0, -1, 1),
    "j": IntMatrix(0, 1, 1, 0),
}

_INVERSE_LETTER = {"t": "T", "T": "t", "u": "U", "U": "u", "j": "j", "a": "A", "A": "a"}


def invert_word(word: str) -> str:
    return "".join(_INVERSE_LETTER[ch] for ch in reversed(word))


def adjacent(s: Slope, t: Slope) -> bool:
    """Farey adjacency: the pairing |p q' - q p'| equals 1."""
    return abs(s.p * t.q - s.q * t.p) == 1


def _distance_to_infinity(p: int, q: int) -> int:
    """Graph distance from p/q (q >= 0) to 1/0 in the Farey graph.

    The geodesics from 1/0 to p/q run through the ladder of triangles that
    the hyperbolic geodesic between them crosses (Beardon, Hockman & Short,
    *Geodesic continued fractions*, 2012).  With p/q = [a0; a1, ..., an],
    the rungs of that ladder are the convergents c_k, and the intermediate
    fractions between c_{k-1} and c_{k+1} form a path of a_{k+1} edges, each
    vertex of it adjacent to c_k.  So d(c_{k+1}) = min(d(c_k) + 1,
    d(c_{k-1}) + a_{k+1}), starting from d(1/0) = 0 and d(a0) = 1.
    """
    if q == 0:
        return 0
    prev, cur = 0, 1
    p, q = q, p % q
    while q:
        a = p // q
        p, q = q, p - a * q
        prev, cur = cur, (cur + 1 if cur + 1 < prev + a else prev + a)
    return cur


def distance(s: Slope, t: Slope) -> int:
    """Exact Farey-graph distance, via a matrix moving t to infinity."""
    if s == t:
        return 0
    # bottom row (t.q, -t.p) kills t; top row (a, b) completes it to det -1
    a, b = _bezout(t)
    p, q = a * s.p + b * s.q, t.q * s.p - t.p * s.q
    if q < 0:
        p, q = -p, -q
    return _distance_to_infinity(p, q)


def _bezout(s: Slope) -> tuple[int, int]:
    """(a, b) with a s.p + b s.q = 1; pow raises ValueError unless the
    slope is reduced."""
    if s.q == 0:
        return 1, 0
    a = pow(s.p, -1, s.q)
    return a, (1 - a * s.p) // s.q


def displacement_measure(
    slopes: Sequence[Slope],
) -> Callable[[IntMatrix], Callable[[int], int]]:
    """For a matrix m, the map i -> d(slopes[i], m slopes[i]).

    The Bezout pair of each slope, found once, gives the matrix sending it
    to 1/0; each distance is then ``distance(m s, s)`` in plain integers,
    with no Slope built and no gcd taken.
    """
    table = [(s.p, s.q, *_bezout(s)) for s in slopes]

    def of(m: IntMatrix) -> Callable[[int], int]:
        ma, mb, mc, md = m.entries

        def displacement(i: int) -> int:
            p, q, a, b = table[i]
            x, y = ma * p + mb * q, mc * p + md * q
            top, bottom = a * x + b * y, q * x - p * y
            if bottom < 0:
                return _distance_to_infinity(-top, -bottom)
            return _distance_to_infinity(top, bottom)

        return displacement

    return of


# Walks longer than this give up: a fan of that many triangles on the axis
# means an element far outside the samples this package draws.
_AXIS_STEPS = 10_000


def axis_displacement(m: IntMatrix) -> int | None:
    """min over all slopes s of d(s, m s), for det 1 and |trace| > 2.

    Such an m translates along its axis, and the Farey triangles the axis
    crosses form an m-invariant ladder (C. Series, *The modular surface and
    continued fractions*, 1985).  A slope v off the ladder is cut off from
    it by a ladder edge {x, y}, and m v by {m x, m y}, so every path from v
    to m v runs through both edges and d(v, m v) >= min(d(x, m x),
    d(y, m y)) + 1.  The minimum is therefore attained on the ladder, and
    by periodicity on one period of it.

    The ladder's edges are those whose ends take opposite signs under the
    form f(p, q) = c p^2 + (d - a) p q - b q^2 that vanishes at the fixed
    points (Conway's river).  One is found among consecutive convergents of
    a fixed point, and the walk stops at its image under m or m^-1.
    Returns None for any other m, or if the walk is implausibly long.
    """
    if m.det != 1 or not m.is_hyperbolic():
        return None
    a, b, c, d = m.entries

    def positive(p: int, q: int) -> bool:
        return c * p * p + (d - a) * p * q - b * q * q > 0

    # convergents of the fixed point (a - d + sqrt(disc)) / 2c, where
    # (disc - P^2) / Q = 2b keeps the continued-fraction recurrence integral
    disc = (a + d) ** 2 - 4
    root = math.isqrt(disc)
    big_p, big_q = a - d, 2 * c
    prev, cur = (0, 1), (1, 0)
    for _ in range(_AXIS_STEPS):
        k = (big_p + root + (big_q < 0)) // big_q
        big_p = k * big_q - big_p
        big_q = (disc - big_p * big_p) // big_q
        prev, cur = cur, (k * cur[0] + prev[0], k * cur[1] + prev[1])
        if positive(*prev) != positive(*cur):
            break
    else:
        return None

    # walk the river from that edge: u on the positive side, w on the
    # negative, and u + w always the next triangle's third vertex
    u, w = (prev, cur) if positive(*prev) else (cur, prev)
    start = (Slope.of(*u), Slope.of(*w))
    ends = {(g.apply(start[0]), g.apply(start[1])) for g in (m, m.inverse())}
    ladder = {u, w}
    for _ in range(_AXIS_STEPS):
        if (Slope.of(*u), Slope.of(*w)) in ends:
            break
        t = (u[0] + w[0], u[1] + w[1])
        ladder.add(t)
        if positive(*t):
            u = t
        else:
            w = t
    else:
        return None
    return min(distance(s, m.apply(s)) for s in (Slope.of(*v) for v in ladder))


def slopes_of_height(height: int) -> list[Slope]:
    """All canonical slopes with max(|p|, q) <= height, sorted."""
    out = [INFINITY]
    for q in range(1, height + 1):
        for p in range(-height, height + 1):
            if math.gcd(abs(p), q) == 1:
                out.append(Slope(p, q))
    return sorted(out)


def farey_neighbors(s: Slope, height: int) -> Iterator[Slope]:
    """The Farey neighbours of s of height at most ``height``, each once."""
    # the solutions (x, y) of s.p * y - s.q * x = 1 are (x0 + k p, y0 + k q)
    # with a p + b q = 1, x0 = -b, y0 = a; those of = -1 are their negatives,
    # so with |y| <= height they give every neighbour once
    a, b = _bezout(s)
    if s.q == 0:
        ks = range(-height, height + 1)
    else:
        ks = range(-((height + a) // s.q), (height - a) // s.q + 1)
    for k in ks:
        x, y = k * s.p - b, k * s.q + a
        if y < 0 or (y == 0 and x < 0):
            x, y = -x, -y
        if abs(x) <= height:
            yield Slope(x, y)


def farey_window(height: int, basepoint: Slope = ZERO) -> Window:
    """The induced subgraph on all slopes of height <= height."""
    vertices = slopes_of_height(height)
    index = {s: i for i, s in enumerate(vertices)}
    edges = []
    for i, s in enumerate(vertices):
        # each vertex's later neighbours, in order, keep the edges sorted
        later = sorted(index[t] for t in farey_neighbors(s, height))
        edges.extend((i, j) for j in later if j > i)
    return Window(
        instance="farey",
        basepoint=basepoint,
        bound=height,
        vertices=tuple(vertices),
        edges=tuple(edges),
        words=None,
    )


@dataclass(frozen=True)
class FareyClosureSpec:
    """Sampling parameters for the normal closure of a matrix power."""

    base: IntMatrix
    power: int
    conjugator_length: int
    product_depth: int = 1

    def __post_init__(self):
        if self.power <= 0 or self.product_depth <= 0 or self.conjugator_length < 0:
            raise ValueError("power and productDepth must be positive, conjugatorLength >= 0")
        if not self.base.is_hyperbolic():
            raise ValueError(
                f"base matrix {self.base} has |trace| <= 2; the closure spec "
                "requires a hyperbolic (pseudo-Anosov) base"
            )


@dataclass(frozen=True)
class ClosureElement:
    word: str
    matrix: IntMatrix


@dataclass(frozen=True)
class ClosureSample:
    """Finite, word-length-bounded sample of a normal closure."""

    elements: tuple[ClosureElement, ...]

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def words(self) -> tuple[str, ...]:
        """The sample as the quotient machinery takes it."""
        return tuple(e.word for e in self.elements)

    def to_json(self) -> list[dict]:
        return [{"word": e.word, "matrix": list(e.matrix.entries)} for e in self.elements]


def _conjugator_words(length: int) -> Iterator[str]:
    frontier = [""]
    yield ""
    for _ in range(length):
        nxt = []
        for w in frontier:
            for ch in FAREY_GENERATOR_ALPHABET:
                if w and _INVERSE_LETTER[ch] == w[-1]:
                    continue
                nxt.append(w + ch)
                yield w + ch
        frontier = nxt


def word_matrix(word: str, base: IntMatrix | None = None) -> IntMatrix:
    """Evaluate a word over t/T/u/U/j (and a/A for the closure base)."""
    m = IDENTITY
    for ch in word:
        if ch == "a":
            m = m * base
        elif ch == "A":
            m = m * base.inverse()
        else:
            m = m * GENERATORS[ch]
    return m


def sample_closure(spec: FareyClosureSpec) -> ClosureSample:
    """All products of at most product_depth conjugates w A^{+-K} w^{-1}.

    Conjugators w range over words of length <= conjugator_length in the
    GL(2,Z) generators.  Elements are deduplicated projectively (the slope
    action factors through +-1) and the identity is excluded.
    """
    power_word = {1: "a" * spec.power, -1: "A" * spec.power}
    conjugates: list[ClosureElement] = []
    seen: set[tuple[int, int, int, int]] = set()
    for w in _conjugator_words(spec.conjugator_length):
        mw = word_matrix(w)
        mw_inv = mw.inverse()
        for sign in (1, -1):
            mat = mw * (spec.base ** (sign * spec.power)) * mw_inv
            key = mat.projective()
            if key in seen:
                continue
            seen.add(key)
            conjugates.append(ClosureElement(w + power_word[sign] + invert_word(w), mat))

    elements: dict[tuple[int, int, int, int], ClosureElement] = {}
    frontier = [ClosureElement("", IDENTITY)]
    identity_key = IDENTITY.projective()
    for _ in range(spec.product_depth):
        nxt = []
        for prefix in frontier:
            for conj in conjugates:
                word = prefix.word + conj.word
                mat = prefix.matrix * conj.matrix
                key = mat.projective()
                nxt.append(ClosureElement(word, mat))
                if key != identity_key and key not in elements:
                    elements[key] = ClosureElement(word, mat)
        frontier = nxt
    ordered = tuple(sorted(elements.values(), key=lambda e: (len(e.word), e.word)))
    return ClosureSample(ordered)

