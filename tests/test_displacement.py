"""The displacement report against a full window scan with plain distances.

An element's floor is the minimum of d(v, m v) over one period of the ladder
crossed by m's axis, and every vertex attaining it lies in the ladder's
<m>-orbit; the report reads the window's first such vertex off those orbits
and scans the window only when none is in it.  These tests check that the
floor never exceeds the minimum that a scan of every window vertex with
``farey.distance`` finds, that the report is exactly that scan's first
minimum, and that the report scans the window exactly when no minimiser is
in it, once for an element and its inverse, whose displacements agree at
every vertex.  Scans are observed through ``farey.displacement_measure``,
which the tests replace with a wrapper that records each matrix measured
over all of the window's vertices.

On the five-punctured sphere only distances 0 and 1 are decided exactly, and
2 where the window holds a common neighbour or a vertex meets its image
twice.  The report must state only that: its ``min`` is the least decided 0
or 1, else 2, and its ``argmin`` attains it, as flip reduction or a search
for common neighbours in the bound-5 window shows.
"""

import itertools
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from curvelab import farey, quotient, s5windows, suites
from curvelab.farey import IntMatrix, Slope, word_matrix
from curvelab.mcg import apply_word, reduce_word
from oracles import axis_displacement

# the farey-verify menu of the benchmark, as (matrix, power, conjugator length)
MENU_SPECS = [
    ("2,1,1,1", 8, 1), ("2,1,1,1", 6, 1), ("2,1,1,1", 4, 1),
    ("3,2,1,1", 8, 1), ("3,2,1,1", 6, 1), ("3,2,1,1", 4, 1),
    ("2,1,1,1", 8, 2), ("2,1,1,1", 6, 2), ("1,1,1,2", 8, 1),
]
SWEEP_MATRICES = ("2,1,1,1", "3,2,1,1", "1,1,1,2", "3,1,2,1")


def plain_displacements(vertices, m: IntMatrix) -> list[int]:
    return [farey.distance(v, m.apply(v)) for v in vertices]


@contextmanager
def observed_scans(w):
    """The matrices m for which d(v, m v) is measured over every vertex v of
    w, in order, while the block runs; a measure over any other slopes (a
    ladder period) is not recorded."""
    scanned = []
    measure = farey.displacement_measure

    def observing(slopes):
        of = measure(slopes)
        if tuple(slopes) != w.vertices:
            return of

        def observed(m):
            ds = of(m)
            assert len(ds) == len(w)
            scanned.append(m)
            return ds

        return observed

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(farey, "displacement_measure", observing)
        yield scanned


def check_report(w, sample, base, plain) -> int:
    """Compare the report with the full scan; returns how many floors were
    below the window minimum.  ``plain[word]`` lists d(v, m v) per vertex."""
    with observed_scans(w) as scanned:
        words = tuple(e.word for e in sample)
        report = quotient.displacement_report(w, words, quotient.farey_contract(base))
    below = 0
    for rec, elem in zip(report, sample):
        ds = plain[elem.word]
        best = min(ds)
        first = ds.index(best)
        assert rec == {"word": elem.word, "min": best, "argmin": str(w.vertices[first])}
        floor = axis_displacement(elem.matrix)
        pair = {elem.matrix, elem.matrix.inverse()}  # d(v, m^-1 v) = d(m v, v)
        if floor is None or floor < best:
            below += floor is not None
            # one full scan for the element and its inverse together
            assert sum(m in pair for m in scanned) == 1, elem.word
        else:
            assert floor == best, elem.word  # never above the window minimum
            # a minimiser is in the window: read off the ladder orbits
            assert pair.isdisjoint(scanned), elem.word
    return below


@pytest.mark.parametrize("matrix,power,conj_len,height", [
    (m, k, c, h) for m in SWEEP_MATRICES for k in (1, 2, 3) for c in (0, 1)
    for h in (10, 20)
])
def test_floor_against_full_scan_sweep(matrix, power, conj_len, height):
    base = IntMatrix.parse(matrix)
    w = farey.farey_window(height)
    sample = farey.sample_closure(farey.FareyClosureSpec(base, power, conj_len))
    plain = {e.word: plain_displacements(w.vertices, e.matrix) for e in sample}
    check_report(w, sample, base, plain)


@pytest.mark.parametrize("matrix,power,conj_len", [
    ("2,1,1,1", 1, 1), ("3,2,1,1", 1, 1), ("2,1,1,1", 2, 1), ("2,1,1,1", 8, 1),
])
def test_floor_against_full_scan_depth_two(matrix, power, conj_len):
    base = IntMatrix.parse(matrix)
    w = farey.farey_window(20)
    sample = farey.sample_closure(farey.FareyClosureSpec(base, power, conj_len, 2))
    plain = {e.word: plain_displacements(w.vertices, e.matrix) for e in sample}
    check_report(w, sample, base, plain)
    if power == 1:  # products of two conjugates can be parabolic or elliptic
        assert any(axis_displacement(e.matrix) is None for e in sample)


@pytest.mark.parametrize("height", [1, 2, 3])
@pytest.mark.parametrize("matrix,power,conj_len,depth", [
    ("2,1,1,1", 1, 1, 1),
    ("3,2,1,1", 8, 2, 1),  # at height 1 some minimiser orbits miss the window
    ("3,1,1,0", 1, 1, 1),  # determinant -1: no floor
    ("3,1,1,0", 2, 1, 1),
    ("2,1,1,1", 1, 1, 2),  # products of two conjugates
    ("3,1,1,0", 1, 0, 2),
])
def test_report_in_the_smallest_windows(matrix, power, conj_len, depth, height):
    base = IntMatrix.parse(matrix)
    w = farey.farey_window(height)
    sample = farey.sample_closure(farey.FareyClosureSpec(base, power, conj_len, depth))
    plain = {e.word: plain_displacements(w.vertices, e.matrix) for e in sample}
    below = check_report(w, sample, base, plain)
    floors = [axis_displacement(e.matrix) for e in sample]
    if base.det == -1 and power % 2 == 1 and depth == 1:
        assert floors == [None] * len(floors)
    if power == 8 and height == 1:
        assert below > 0


def test_report_reads_no_vertex_at_h220():
    # each element of the h=220 verify scenario (K=8, c=2) has a minimiser
    # in the window, so the report scans none of its 58,904 vertices
    base = IntMatrix(2, 1, 1, 1)
    w = farey.farey_window(220)
    sample = farey.sample_closure(farey.FareyClosureSpec(base, 8, 2))
    with observed_scans(w) as scanned:
        words = tuple(e.word for e in sample)
        report = quotient.displacement_report(w, words, quotient.farey_contract(base))
    assert scanned == []
    assert [r["min"] for r in report] == [axis_displacement(e.matrix) for e in sample]


@pytest.fixture(scope="module")
def menu_windows():
    return {h: farey.farey_window(h) for h in (30, 55, 110)}


@pytest.mark.parametrize("matrix,power,conj_len", MENU_SPECS)
def test_floor_against_full_scan_menu(menu_windows, matrix, power, conj_len):
    # one plain scan at the largest height; the smaller windows are its
    # height-bounded subsets, in the same sorted order.  Height 110 takes
    # about a second per spec, so it is scanned for the in-hypothesis power
    # only.
    heights = (30, 55, 110) if power == 8 else (30, 55)
    base = IntMatrix.parse(matrix)
    sample = farey.sample_closure(farey.FareyClosureSpec(base, power, conj_len))
    top = menu_windows[heights[-1]].vertices
    full = {e.word: plain_displacements(top, e.matrix) for e in sample}
    for h in heights:
        keep = [k for k, v in enumerate(top) if v.height <= h]
        plain = {word: [ds[k] for k in keep] for word, ds in full.items()}
        # in the menu the window attains the whole-graph minimum
        assert check_report(menu_windows[h], sample, base, plain) == 0


def test_floor_is_the_whole_graph_minimum():
    # powers of the bases, their inverses and short conjugates: the floor is
    # attained in a window big enough to contain a period of the ladder
    slopes = farey.slopes_of_height(40)
    for matrix in SWEEP_MATRICES:
        base = IntMatrix.parse(matrix)
        for k, word in itertools.product((1, 2, 4), ("", "t", "uj")):
            g = word_matrix(word)
            m = g * base ** k * g.inverse()
            for x in (m, m.inverse()):
                assert axis_displacement(x) == min(plain_displacements(slopes, x))


def test_floor_undefined_off_hypothesis():
    assert axis_displacement(farey.IDENTITY) is None
    assert axis_displacement(word_matrix("t")) is None  # parabolic
    assert axis_displacement(IntMatrix(0, -1, 1, 0)) is None  # elliptic
    assert axis_displacement(IntMatrix(1, 1, 1, 0)) is None  # det -1
    assert axis_displacement(IntMatrix(2, 1, 1, 1) ** 3 * IntMatrix(0, 1, 1, 0)) is None


def test_integer_measure_matches_distance():
    w = farey.farey_window(15)
    of = farey.displacement_measure(w.vertices)
    for word in ("", "a", "tua", "AjuT"):
        m = word_matrix(word, IntMatrix(3, 2, 1, 1))
        assert of(m) == plain_displacements(w.vertices, m)
    translated = [Slope(-7, 3), Slope(1, 0), Slope(123, 457)]
    m = IntMatrix(2, 1, 1, 1)
    assert farey.displacement_measure(translated)(m) == plain_displacements(translated, m)


# ---------------------------------------------------------------- S5


@pytest.fixture(scope="module")
def s5_windows(w2, w3):
    return {0: s5windows.build_window(0), 1: s5windows.build_window(1), 2: w2, 3: w3,
            5: s5windows.build_window(5)}


def s5_short_distances(w, w5, word: str) -> list[int | None]:
    """Per vertex v of w: d(v, g v) for the word g where it is at most 2 as
    shown here (0 when equal, 1 when disjoint by flip reduction, 2 when they
    meet twice by flip reduction or through a common neighbour in the
    bound-5 window w5), else None."""
    out = []
    for v in w.vertices:
        u = apply_word(word, v)
        if u == v:
            out.append(0)
        elif oracles.disjoint(v, u):
            out.append(1)
        elif oracles.intersection(v, u) == 2 or any(
                s5windows.adjacent(w5, x, u) for x in w5.neighbors[w5.index[v]]):
            out.append(2)
        else:
            out.append(None)
    return out


def check_s5_report(w, w5, words) -> list[dict]:
    report = quotient.displacement_report(w, words, quotient.s5_contract())
    for r in report:
        ds = s5_short_distances(w, w5, r["word"])
        decided = [d for d in ds if d is not None and d <= 1]
        assert r["min"] == min(decided, default=2), r
        if r["argmin"] is not None:
            at = w.index[s5windows.parse_curve_key(r["argmin"])]
            assert ds[at] == r["min"], r
    return list(report)


def test_s5_report_floor_is_the_certified_two():
    # at bound 2 no vertex of the window has a common window neighbour with
    # its image under aCbdCb, but one meets its image twice, so d = 2 there
    w, w5 = s5windows.build_window(2), s5windows.build_window(5)
    sample = quotient.s5_sample(("aCbdCb",))
    assert sample == ("aCbdCb", "BcDBcA")
    report = check_s5_report(w, w5, sample)
    assert [(r["min"], r["argmin"]) for r in report] == [(2, "1,0,1,1,1,1,2,1,0")] * 2
    v = s5windows.parse_curve_key("1,0,1,1,1,1,2,1,0")
    for word in sample:
        u = apply_word(word, v)
        assert oracles.intersection(v, u) == 2  # by flip reduction
        assert quotient.s5_contract().certificate(w, w.index[v], u) == (2, False)


def test_s5_floor_is_read_only_from_the_certificate(monkeypatch, w2, w3, w4):
    # raising the S5 floor from 2 to 3 in the certificate alone raises the
    # report's floor and changes nothing that an exact distance decides
    cases = [(w2, "aCbdCb"), (w3, "aa"), (w3, "abc"), (w3, "cdcd"), (w4, "aa")]

    def run():
        """Per case: the displacement report, and ball2's and lifting's
        eligible, truncated and witnesses.  An argmin is named only where
        its vertex's certificate is exact at the minimum, or where the
        minimum is 2 and the vertex meets its image twice."""
        out = []
        for w, word in cases:
            contract = quotient.s5_contract()
            q = quotient.build_quotient(w, quotient.s5_sample((word,)), contract)
            for r in q.displacement:
                if r["argmin"] is not None:
                    v = s5windows.parse_curve_key(r["argmin"])
                    u = apply_word(r["word"], v)
                    cert = contract.certificate(w, w.index[v], u)
                    assert cert == (r["min"], True) or (
                        r["min"] == 2 and oracles.intersection(v, u) == 2)
            reports = suites.verify_ball2_isometry(q), suites.verify_lipschitz_lifting(q)
            sites = [[r[k] for k in ("eligible", "truncated", "witnesses")] for r in reports]
            out.append(([(r["min"], r["argmin"]) for r in q.displacement], sites))
        return out

    before = run()
    real = quotient.InstanceContract.certificate

    def floor_three(self, w, i, x):
        cert = real(self, w, i, x)
        return (3, False) if cert == (2, False) else cert

    monkeypatch.setattr(quotient.InstanceContract, "certificate", floor_three)
    after = run()
    assert before[0][0] == [(2, "1,0,1,1,1,1,2,1,0")] * 2 and after[0][0] == [(3, None)] * 2
    assert [x[0] for x in after[1:]] == [x[0] for x in before[1:]]
    assert [x[1] for x in after] == [x[1] for x in before]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.sampled_from([0, 1, 2, 3]),
       st.text("aAbBcCdD", min_size=4, max_size=12).map(reduce_word).filter(bool))
def test_s5_report_states_only_certified_distances(s5_windows, bound, word):
    check_s5_report(s5_windows[bound], s5_windows[5], quotient.s5_sample((word,)))
