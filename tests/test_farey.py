import itertools
import json
import time

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from curvelab import cli
from curvelab.farey import (
    GENERATORS,
    IDENTITY,
    INFINITY,
    ZERO,
    FareyClosureSpec,
    IntMatrix,
    Slope,
    distance,
    farey_window,
    invert_word,
    sample_closure,
    slopes_of_height,
    word_matrix,
)
from curvelab.quotient import displacement_report, farey_contract
from curvelab.serialize import json_object
from curvelab.window import Window
from oracles import (BfsOracle, adjacent, check_rows, farey_neighbors,
                     slope_neighbour_window, sorted_slopes_of_height)


@st.composite
def slopes(draw, height=60):
    p = draw(st.integers(-height, height))
    q = draw(st.integers(-height, height))
    if p == 0 and q == 0:
        p = 1
    return Slope.of(p, q)


@st.composite
def matrices(draw, length=8):
    word = draw(st.text(alphabet="tTuUj", max_size=length))
    return word_matrix(word)


class TestSlope:
    def test_canonical_forms(self):
        assert Slope.of(2, 4) == Slope(1, 2)
        assert Slope.of(-3, -6) == Slope(1, 2)
        assert Slope.of(3, -6) == Slope(-1, 2)
        assert Slope.of(-5, 0) == INFINITY

    def test_rejects_non_canonical(self):
        with pytest.raises(ValueError):
            Slope(2, 4)
        with pytest.raises(ValueError):
            Slope(1, -2)
        with pytest.raises(ValueError):
            Slope(3, 0)
        with pytest.raises(ValueError):
            Slope.of(0, 0)

    def test_parse_roundtrip(self):
        for text in ["1/0", "0/1", "-3/7", "2/5"]:
            assert str(Slope.parse(text)) == text

    @given(slopes(), slopes())
    def test_hash_equality_and_order_are_the_pairs(self, s, t):
        # drawn at height 60, so that equal draws happen
        pair_s, pair_t = (s.p, s.q), (t.p, t.q)
        assert hash(s) == hash(pair_s) and s == pair_s
        assert (s == t) == (pair_s == pair_t) and (s != t) == (pair_s != pair_t)
        assert (s < t) == (pair_s < pair_t) and (s <= t) == (pair_s <= pair_t)
        assert sorted([s, t]) == sorted([pair_s, pair_t])

    def test_repr(self):
        assert repr(Slope(-3, 7)) == "Slope(p=-3, q=7)"
        assert repr(INFINITY) == "Slope(p=1, q=0)"


class TestAdjacency:
    def test_examples(self):
        assert adjacent(ZERO, INFINITY)
        assert not adjacent(Slope(1, 2), INFINITY)
        assert adjacent(Slope(2, 5), Slope(1, 2))

    @given(slopes(), slopes())
    def test_symmetric(self, s, t):
        assert adjacent(s, t) == adjacent(t, s)

    @given(slopes())
    def test_irreflexive(self, s):
        assert not adjacent(s, s)


class TestMatrix:
    def test_determinant_guard(self):
        with pytest.raises(ValueError):
            IntMatrix(2, 0, 0, 1)

    def test_apply_examples(self):
        assert IDENTITY.apply(Slope(3, 7)) == Slope(3, 7)
        assert IntMatrix(1, 1, 0, 1).apply(INFINITY) == INFINITY
        assert IntMatrix(2, 1, 1, 1).apply(INFINITY) == Slope(2, 1)

    @given(matrices())
    def test_inverse(self, m):
        assert m * m.inverse() == IDENTITY

    @given(matrices(length=24), slopes(10**9))
    @settings(max_examples=500)
    def test_apply_without_gcd_matches_slope_of(self, m, s):
        # a determinant +-1 matrix maps reduced fractions to reduced ones
        image = m.apply(s)
        expected = Slope.of(m.a * s.p + m.b * s.q, m.c * s.p + m.d * s.q)
        assert (image.p, image.q) == (expected.p, expected.q)
        assert image == expected and hash(image) == hash(expected)

    def test_parse(self):
        assert IntMatrix.parse("2,1,1,1") == IntMatrix(2, 1, 1, 1)
        with pytest.raises(ValueError):
            IntMatrix.parse("1,2,3")

    def test_word_inversion(self):
        for word in ["tuj", "TTu", "jtU"]:
            assert word_matrix(word) * word_matrix(invert_word(word)) == IDENTITY


class TestDistance:
    def test_examples(self):
        assert distance(ZERO, ZERO) == 0
        assert distance(Slope(1, 2), INFINITY) == 2
        assert distance(Slope(2, 5), INFINITY) == 3

    @given(slopes(), slopes())
    def test_metric_axioms(self, s, t):
        d = distance(s, t)
        assert d == distance(t, s)
        assert (d == 0) == (s == t)
        assert (d == 1) == adjacent(s, t)

    @given(slopes(20), slopes(20), slopes(20))
    @settings(max_examples=50)
    def test_triangle_inequality(self, s, t, u):
        assert distance(s, u) <= distance(s, t) + distance(t, u)

    @given(matrices(), slopes(20), slopes(20))
    @settings(max_examples=200)
    def test_isometric_action(self, m, s, t):
        assert distance(m.apply(s), m.apply(t)) == distance(s, t)

    @given(matrices(), slopes(20), slopes(20))
    @settings(max_examples=200)
    def test_automorphism(self, m, s, t):
        if s != t:
            assert adjacent(m.apply(s), m.apply(t)) == adjacent(s, t)


def _neighbor(s: Slope, k: int) -> Slope:
    """The k-th Farey neighbour of s, as the image of k/1 under a matrix
    carrying 1/0 to s."""
    if s.q == 0:
        return Slope(k, 1)
    b = pow(s.p, -1, s.q)
    a = (s.p * b - 1) // s.q
    return Slope.of(a + k * s.p, b + k * s.q)


class TestLargeHeight:
    """Properties of the ladder distance far beyond any BFS window."""

    @given(slopes(10**6), slopes(10**6))
    @settings(max_examples=300)
    def test_symmetric_and_adjacency(self, s, t):
        d = distance(s, t)
        assert d == distance(t, s)
        assert (d == 1) == adjacent(s, t)

    @given(slopes(10**6), slopes(10**6))
    @settings(max_examples=100)
    def test_invariant_under_generators(self, s, t):
        d = distance(s, t)
        for m in GENERATORS.values():
            assert distance(m.apply(s), m.apply(t)) == d

    @given(slopes(10**6), slopes(10**6), st.integers(-10**6, 10**6))
    @settings(max_examples=300)
    def test_lipschitz_along_edges(self, s, t, k):
        n = _neighbor(s, k)
        assert adjacent(s, n)
        assert abs(distance(n, t) - distance(s, t)) <= 1


class TestOracle:
    def test_agrees_with_exact_distance(self):
        oracle = BfsOracle(16)
        for s, t in itertools.combinations(slopes_of_height(8), 2):
            assert oracle.distance(s, t) == distance(s, t), (s, t)

    def test_neighbors_are_the_adjacent_slopes(self):
        window = slopes_of_height(7)
        for s in window:
            expected = {t for t in window if adjacent(s, t)}
            found = list(farey_neighbors(s, 7))
            assert len(found) == len(set(found)) and set(found) == expected

    def test_stabilised_between_bounds(self):
        small, large = BfsOracle(12), BfsOracle(16)
        for s, t in itertools.combinations(slopes_of_height(8), 2):
            assert small.distance(s, t) == large.distance(s, t)


def check_rows_and_index(w: Window) -> None:
    """The rows ``farey_window`` builds have a window's shape, and the index
    it hands the window is the one the window would build itself."""
    check_rows(w)
    assert "index" in w.__dict__  # handed over, not built
    # a dict keyed by plain pairs would compare equal, so the keys' type too
    assert w.index == {v: i for i, v in enumerate(w.vertices)}
    assert all(type(v) is Slope for v in w.index)


class TestWindow:
    def test_height_window(self):
        # checked against adjacent() pair by pair, not farey_neighbors, since
        # BfsOracle searches this graph
        for height in range(1, 16):
            w = farey_window(height)
            assert all(v.height <= height for v in w.vertices)
            assert INFINITY in w and ZERO in w
            # exactly the adjacent pairs, sorted, each once
            pairs = itertools.combinations(range(len(w)), 2)
            assert list(w.edges) == [
                (i, j) for i, j in pairs if adjacent(w.vertices[i], w.vertices[j])
            ], height

    @pytest.mark.parametrize("height", [*range(1, 61), 110])
    def test_matches_the_slope_neighbour_window(self, height):
        # the mediant build against a checked Slope per neighbour
        w, expected = farey_window(height), slope_neighbour_window(height)
        assert w.vertices == expected.vertices and w.edges == expected.edges
        assert w == expected
        assert len(w.edges) == 2 * len(w) - 3
        check_rows_and_index(w)

    def test_each_slope_is_the_mediant_of_its_two_lower_neighbours(self):
        # the Stern-Brocot fact the build rests on, read off the window
        # built with a checked Slope per neighbour
        w = slope_neighbour_window(40)
        for s, row in zip(w.vertices, w.neighbors):
            if s.height < 2:
                continue
            lower = [w.vertices[j] for j in row if w.vertices[j].height < s.height]
            assert len(lower) == 2, (s, lower)
            (a, b), (c, d) = lower
            assert s in (Slope.of(a + c, b + d), Slope.of(a - c, b - d)), (s, lower)

    @pytest.mark.parametrize("height", [-2, -1, 0, 1, 2, 7])
    def test_slopes_of_height_are_the_slopes_up_to_it(self, height):
        # 0/1 and 1/0 have height 1, so below 1 there are no slopes
        slopes = slopes_of_height(height)
        assert slopes == sorted_slopes_of_height(height)
        assert all(s.height <= height for s in slopes)

    @pytest.mark.parametrize("height", [-1, 0])
    def test_window_below_height_one_is_refused(self, height):
        with pytest.raises(ValueError, match=rf"^height must be positive, not {height}$"):
            farey_window(height)

    @pytest.mark.parametrize("basepoint", [INFINITY, Slope(-3, 7), Slope(5, 2)])
    def test_matches_the_slope_neighbour_window_at_other_basepoints(self, basepoint):
        w = farey_window(9, basepoint)
        assert w == slope_neighbour_window(9, basepoint)
        check_rows_and_index(w)

    def test_json_roundtrip(self):
        w = farey_window(3)
        data = json.loads("".join(json_object(w.json_fields(str))))
        back = Window.from_json(data, Slope.parse, "farey")
        assert back == w


class TestClosure:
    def test_minimal_spec(self):
        A = IntMatrix(2, 1, 1, 1)
        sample = sample_closure(FareyClosureSpec(A, 1, 0, 1))
        mats = {e.matrix.projective() for e in sample}
        assert mats == {A.projective(), A.inverse().projective()}

    def test_power_two(self):
        A = IntMatrix(2, 1, 1, 1)
        sample = sample_closure(FareyClosureSpec(A, 2, 0, 1))
        mats = {e.matrix.projective() for e in sample}
        assert mats == {(A ** 2).projective(), (A ** -2).projective()}

    @pytest.mark.parametrize("matrix", [IntMatrix(2, 1, 1, 1), IntMatrix(3, 1, 1, 0),
                                        IntMatrix(0, -1, 1, 0), GENERATORS["j"]])
    def test_power_is_the_repeated_product(self, matrix):
        for n in range(-20, 21):
            factor = matrix if n >= 0 else matrix.inverse()
            expected = IDENTITY
            for _ in range(abs(n)):
                expected = expected * factor
            assert matrix ** n == expected, n

    def test_large_power_closure_is_fast(self):
        # square and multiply: two products per bit of the exponent
        runner = CliRunner()
        start = time.perf_counter()
        result = runner.invoke(cli.main, ["farey", "closure", "--power", "20000",
                                          "--conj-len", "0", "--format", "text"],
                               catch_exceptions=False)
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 0 and result.output == "closure sample: 2 elements\n"
        # its JSON would hold integers of about 8,400 digits, above the
        # interpreter's conversion limit: one error line, no traceback
        result = runner.invoke(cli.main, ["farey", "closure", "--power", "20000",
                                          "--conj-len", "0"], catch_exceptions=False)
        assert result.exit_code == cli.EXIT_IO_ERROR
        assert result.output.startswith("error: ") and len(result.output.splitlines()) == 1

    @pytest.mark.parametrize("conj_len", [1, 2])
    def test_base_power_is_taken_once_per_sign(self, monkeypatch, conj_len):
        real, exponents = IntMatrix.__pow__, []

        def counting(matrix, n):
            exponents.append(n)
            return real(matrix, n)

        monkeypatch.setattr(IntMatrix, "__pow__", counting)
        sample_closure(FareyClosureSpec(IntMatrix(2, 1, 1, 1), 6, conj_len, 2))
        assert sorted(exponents) == [-6, 6]

    def test_rejects_parabolic_base(self):
        with pytest.raises(ValueError):
            FareyClosureSpec(GENERATORS["t"], 1, 0, 1)

    def test_enumerated_sample_properties(self):
        A = IntMatrix(2, 1, 1, 1)
        sample = sample_closure(FareyClosureSpec(A, 6, 2, 2))
        assert len(sample) > 0
        keys = set()
        for elem in sample:
            assert elem.matrix.is_hyperbolic()
            assert word_matrix(elem.word, base=A) == elem.matrix
            keys.add(elem.matrix.projective())
        assert IDENTITY.projective() not in keys
        # inverse-closed
        for elem in sample:
            assert elem.matrix.inverse().projective() in keys


def window_displacement(word: str, base: IntMatrix, window: Window) -> int:
    """Window minimum of d(v, m v) for the matrix of a word over t/T/u/U/j/a/A."""
    (rec,) = displacement_report(window, (word,), farey_contract(base))
    return rec["min"]


class TestDisplacement:
    def test_identity_and_parabolic(self):
        w = farey_window(6)
        assert word_matrix("") == IDENTITY and word_matrix("t") == GENERATORS["t"]
        assert window_displacement("", IDENTITY, w) == 0
        assert window_displacement("t", IDENTITY, w) == 0

    def test_hyperbolic_example(self):
        w = farey_window(20)
        assert window_displacement("a", IntMatrix(2, 1, 1, 1), w) == 1

    def test_conjugation_covariance(self):
        A = IntMatrix(2, 1, 1, 1)
        g = word_matrix("tu")
        w = farey_window(8)
        translated = Window(
            instance="farey",
            basepoint=g.apply(w.basepoint),
            bound=w.bound,
            vertices=tuple(g.apply(v) for v in w.vertices),
            neighbors=w.neighbors,
        )
        assert word_matrix("tuaUT", A) == g * A * g.inverse()
        assert window_displacement("tuaUT", A, translated) == window_displacement("a", A, w)
