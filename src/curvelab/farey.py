"""Exact model of the Farey complex and its GL(2,Z) mapping class action.

Vertices are slopes p/q in canonical form, with 1/0 playing the role of the
slope at infinity.  A slope is the integer pair (p, q): it hashes, compares
and orders as the plain tuple (p, q) does, and is equal to it, so slopes
must not share a dict or a set with other pairs.  Two slopes are adjacent
when |p q' - q p'| = 1.  Distances are computed exactly as shortest paths
through the ladder of triangles read off a continued fraction, in time
linear in its length and with no state kept between calls, and
cross-checked in the tests against a breadth-first oracle on
height-bounded windows.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import Callable, Iterator, NamedTuple, Sequence

from .window import Window

FAREY_GENERATOR_ALPHABET = "tTuUj"


class _Pair(NamedTuple):
    p: int
    q: int


class Slope(_Pair):
    """A reduced fraction p/q with q >= 0; the slope 1/0 is infinity.

    A slope is the integer pair (p, q), a tuple: its hash, ``==`` and ``<``
    are the tuple's, and Slope(1, 2) == (1, 2), so a dict or set holding
    slopes must hold no other pairs.  The constructor checks that the pair
    is canonical.  Hot integer code unpacks ``p, q = s`` rather than
    reading the fields one by one."""

    __slots__ = ()

    def __new__(cls, p: int, q: int) -> "Slope":
        if q < 0 or math.gcd(abs(p), q) != 1:
            raise ValueError(f"slope {p}/{q} is not canonical")
        if q == 0 and p != 1:
            raise ValueError("the slope at infinity must be written 1/0")
        return tuple.__new__(cls, (p, q))

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
        return tuple.__new__(Slope, (p, q))

    @property
    def height(self) -> int:
        return max(abs(self.p), self.q)

    def __str__(self) -> str:
        return "%d/%d" % self

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


class _Entries(NamedTuple):
    a: int
    b: int
    c: int
    d: int


class IntMatrix(_Entries):
    """A 2x2 integer matrix of determinant +-1, acting on slopes: the tuple
    (a, b, c, d) of its entries, with the tuple's hash and ``==``."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int, d: int) -> "IntMatrix":
        if a * d - b * c not in (1, -1):
            raise ValueError(f"matrix {(a, b, c, d)} has determinant {a * d - b * c}")
        return tuple.__new__(cls, (a, b, c, d))

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
        # square and multiply: O(log |n|) products
        base = self if n >= 0 else self.inverse()
        n = abs(n)
        result = IDENTITY
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def apply(self, s: Slope) -> Slope:
        # a determinant +-1 matrix maps reduced pairs to reduced pairs
        p, q = s
        return Slope._canonical(self.a * p + self.b * q, self.c * p + self.d * q)

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
    sp, sq = s
    tp, tq = t
    # bottom row (tq, -tp) kills t; top row (a, b) completes it to det -1
    a, b = _bezout(tp, tq)
    p, q = a * sp + b * sq, tq * sp - tp * sq
    if q < 0:
        p, q = -p, -q
    return _distance_to_infinity(p, q)


def _bezout(p: int, q: int) -> tuple[int, int]:
    """(a, b) with a p + b q = 1 for the slope p/q; pow raises ValueError
    unless the slope is reduced."""
    if q == 0:
        return 1, 0
    a = pow(p, -1, q)
    return a, (1 - a * p) // q


def displacement_measure(slopes: Sequence[Slope]) -> Callable[[IntMatrix], list[int]]:
    """For a matrix m, the list of d(s, m s) over the slopes s, in order.

    The Bezout pair of each slope, found once, gives the matrix sending it
    to 1/0; each distance is then ``distance(m s, s)`` in plain integers,
    with no Slope built and no gcd taken.
    """
    table = [(p, q, *_bezout(p, q)) for p, q in slopes]

    def of(m: IntMatrix) -> list[int]:
        ma, mb, mc, md = m.entries
        out = []
        for p, q, a, b in table:
            x, y = ma * p + mb * q, mc * p + md * q
            top, bottom = a * x + b * y, q * x - p * y
            if bottom < 0:
                out.append(_distance_to_infinity(-top, -bottom))
            else:
                out.append(_distance_to_infinity(top, bottom))
        return out

    return of


# Walks longer than this give up: a fan of that many triangles on the axis
# means an element far outside the samples this package draws.
_AXIS_STEPS = 10_000


def _period_minimisers(m: IntMatrix) -> tuple[int, list[Slope]] | None:
    """min over all slopes s of d(s, m s), for det 1 and |trace| > 2, and
    the vertices of one period of m's ladder that attain it.

    Such an m translates along its axis, and the Farey triangles the axis
    crosses form an m-invariant ladder (C. Series, *The modular surface and
    continued fractions*, 1985).  A slope v off the ladder is cut off from
    it by a ladder edge {x, y}, and m v by {m x, m y}, so every path from v
    to m v runs through both edges and d(v, m v) >= min(d(x, m x),
    d(y, m y)) + 1.  So every slope attaining the minimum is a ladder
    vertex, and since the ladder is the <m>-orbit of one period of it, the
    minimisers are the orbits of that period's vertices at the minimum
    (``window_minimisers`` reads them off).

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
    # negative, and u + w always the next triangle's third vertex; pairs
    # stay reduced, since u and w are always adjacent
    u, w = (prev, cur) if positive(*prev) else (cur, prev)
    ends = {(Slope._canonical(ga * u[0] + gb * u[1], gc * u[0] + gd * u[1]),
             Slope._canonical(ga * w[0] + gb * w[1], gc * w[0] + gd * w[1]))
            for ga, gb, gc, gd in ((a, b, c, d), (d, -b, -c, a))}  # m, m^-1
    ladder = {u, w}
    for _ in range(_AXIS_STEPS):
        if (Slope._canonical(*u), Slope._canonical(*w)) in ends:
            break
        t = (u[0] + w[0], u[1] + w[1])
        ladder.add(t)
        if positive(*t):
            u = t
        else:
            w = t
    else:
        return None
    period = list({Slope._canonical(*v) for v in ladder})
    ds = displacement_measure(period)(m)
    floor = min(ds)
    return floor, [s for s, x in zip(period, ds) if x == floor]


def window_minimisers(m: IntMatrix, height: int) -> tuple[int, set[Slope]] | None:
    """The least d(s, m s) over all slopes s and every slope of height <=
    ``height`` that attains it, or None where ``_period_minimisers`` gives
    no minimum.

    The minimisers are the <m>-orbits of the walked period's vertices at the
    minimum.  With eigenvalues l and 1/l of m, |m^k v|^2 = A l^2k + B l^-2k
    + C with A, B >= 0, which is convex in k; so a walk from v in either
    direction stops once |m^k v|^2 exceeds 2 height^2, which every slope of
    the window stays within, and does not decrease at the next step.
    """
    found = _period_minimisers(m)
    if found is None:
        return None
    floor, period = found
    a, b, c, d = m.entries
    limit = 2 * height * height
    out = set()
    for s in period:
        if s.height <= height:
            out.add(s)
        for ga, gb, gc, gd in ((a, b, c, d), (d, -b, -c, a)):  # m and m^-1
            p, q = s
            norm = p * p + q * q
            while True:
                p, q = ga * p + gb * q, gc * p + gd * q
                nxt = p * p + q * q
                if nxt >= norm > limit:
                    break
                norm = nxt
                if abs(p) <= height and abs(q) <= height:
                    out.add(Slope._canonical(p, q))
    return floor, out


def slopes_of_height(height: int) -> list[Slope]:
    """All canonical slopes with max(|p|, q) <= height, in Slope order.

    The pairs come out already sorted by p, then q, with 1/0 first among
    p = 1, so each slope is built once, with no gcd check of its own; p and
    -p share one list of denominators.  Every slope has height at least 1,
    so below 1 there are none.
    """
    if height < 1:
        return []
    qs = range(1, height + 1)
    coprime = [[q for q in qs if math.gcd(n, q) == 1]
               for n in range(height + 1)]  # coprime[0] == [1], for 0/1
    new = tuple.__new__
    out = []
    for p in range(-height, height + 1):
        if p == 1:
            out.append(INFINITY)
        out.extend(map(new, repeat(Slope), zip(repeat(p), coprime[abs(p)])))
    return out


def window_images(m: IntMatrix, height: int) -> Iterator[tuple[Slope, Slope]]:
    """The pairs (s, m s) with both slopes of height at most ``height``.

    For each denominator q <= height the numerators p that qualify form one
    integer interval, the intersection of |p| <= h, |a p + b q| <= h and
    |c p + d q| <= h; the reduced p in it are exactly the slopes of the
    window that m keeps in the window.  So the cost is O(height + hits),
    with no slope applied that lands outside.  Pairs come with 1/0 first,
    then in order of q and p.
    """
    a, b, c, d = m.entries
    h = height
    if abs(a) <= h and abs(c) <= h:
        yield INFINITY, Slope._canonical(a, c)
    for q in range(1, h + 1):
        lo, hi = -h, h
        for x, y in ((a, b * q), (c, d * q)):
            # the p with |x p + y| <= h
            if x > 0:
                lo, hi = max(lo, -((h + y) // x)), min(hi, (h - y) // x)
            elif x < 0:
                lo, hi = max(lo, -((h - y) // -x)), min(hi, (h + y) // -x)
            elif abs(y) > h:
                lo, hi = 1, 0
        for p in range(lo, hi + 1):
            if math.gcd(p, q) == 1:
                yield Slope._canonical(p, q), Slope._canonical(a * p + b * q, c * p + d * q)


def farey_window(height: int, basepoint: Slope = ZERO) -> Window:
    """The induced subgraph on all slopes of height <= height.

    Every slope p/q with p, q > 0 other than 1/1 is the mediant
    (a + c)/(b + d) of the ends a/b < c/d of an interval of the
    Stern-Brocot tree; those two are its only neighbours of lower height,
    and all its others are higher (Graham, Knuth & Patashnik, *Concrete
    Mathematics*, 1994, section 4.5).  Mirrored by p -> -p, the same holds
    on the left.  So the window's edges are the five among the height-1
    slopes -1/1, 0/1, 1/0 and 1/1 and the two down from each other slope,
    2n - 3 in all.  The intervals are popped from a stack, starting from
    [0/1, 1/1] and [1/1, 1/0]; a mediant above the height ends its subtree,
    since the mediants under it are higher still.  Each edge goes straight
    into both ends' rows, and again mirrored.  The window is handed its
    sorted rows as ``neighbors`` and the slope-keyed dict the build looked
    indices up in as ``index``; no edge list is made.  ValueError for a
    height below 1: such a window would hold no slope, not even its
    basepoint."""
    if height < 1:
        raise ValueError(f"height must be positive, not {height}")
    vertices = slopes_of_height(height)
    index = dict(zip(vertices, range(len(vertices))))
    rows = [[] for _ in vertices]
    neg, zero, inf, one = index[-1, 1], index[0, 1], index[1, 0], index[1, 1]
    for i, j in ((neg, zero), (neg, inf), (zero, inf), (zero, one), (inf, one)):
        rows[i].append(j)
        rows[j].append(i)
    # an interval: its left end's p, q, index and mirror's index, then its right's
    stack = [(0, 1, zero, zero, 1, 1, one, neg), (1, 1, one, neg, 1, 0, inf, inf)]
    pop, push = stack.pop, stack.append
    while stack:
        lp, lq, li, lj, rp, rq, ri, rj = pop()
        p, q = lp + rp, lq + rq
        if p > height or q > height:
            continue
        i, j = index[p, q], index[-p, q]
        rows[i] = [li, ri]  # its lower neighbours, met before any higher one
        rows[li].append(i)
        rows[ri].append(i)
        rows[j] = [lj, rj]
        rows[lj].append(j)
        rows[rj].append(j)
        push((lp, lq, li, lj, p, q, i, j))
        push((p, q, i, j, rp, rq, ri, rj))
    for i, row in enumerate(rows):
        row.sort()
        rows[i] = tuple(row)  # each list freed as its tuple is made
    w = Window(
        instance="farey",
        basepoint=basepoint,
        bound=height,
        vertices=tuple(vertices),
        neighbors=tuple(rows),
        words=None,
    )
    w.__dict__["index"] = index  # as cached_property stores it
    return w


class _ClosureParameters(NamedTuple):
    base: IntMatrix
    power: int
    conjugator_length: int
    product_depth: int = 1


class FareyClosureSpec(_ClosureParameters):
    """Sampling parameters for the normal closure of a matrix power."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "FareyClosureSpec":
        spec = super().__new__(cls, *args, **kwargs)
        for opt, v, least in (("--power", spec.power, 1), ("--depth", spec.product_depth, 1),
                              ("--conj-len", spec.conjugator_length, 0)):
            if v < least:  # each field named by the CLI option that sets it
                raise ValueError(f"{opt} must be at least {least}, got {v}")
        if not spec.base.is_hyperbolic():
            raise ValueError(
                f"base matrix {spec.base} has |trace| <= 2; the closure spec "
                "requires a hyperbolic (pseudo-Anosov) base"
            )
        return spec


class ClosureElement(NamedTuple):
    word: str
    matrix: IntMatrix


class ClosureSample:
    """Finite, word-length-bounded sample of a normal closure."""

    __slots__ = ("elements",)

    def __init__(self, elements: tuple[ClosureElement, ...]):
        self.elements = elements

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
    powers = {sign: spec.base ** (sign * spec.power) for sign in (1, -1)}
    conjugates: list[ClosureElement] = []
    seen: set[tuple[int, int, int, int]] = set()
    for w in _conjugator_words(spec.conjugator_length):
        mw = word_matrix(w)
        mw_inv = mw.inverse()
        for sign in (1, -1):
            mat = mw * powers[sign] * mw_inv
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

