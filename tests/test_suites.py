from collections import Counter
from itertools import product

import pytest

from curvelab import farey, quotient, s5windows, suites
from curvelab.curves import BASE_CURVES
from curvelab.quotient import QuotientWindow
import oracles
from oracles import (act, detected_curves, representative, set_adjacency,
                     walk_lipschitz_lifting)

BASE = farey.IntMatrix(2, 1, 1, 1)


@pytest.fixture(scope="module")
def fcontract():
    return quotient.farey_contract(BASE)


@pytest.fixture(scope="module")
def w30():
    return farey.farey_window(30)


@pytest.fixture(scope="module")
def q30(w30, fcontract):
    sample = farey.sample_closure(farey.FareyClosureSpec(BASE, 8, 1))
    return quotient.build_quotient(w30, tuple(e.word for e in sample), fcontract)


@pytest.fixture(scope="module")
def q30_small(w30, fcontract):
    sample = farey.sample_closure(farey.FareyClosureSpec(BASE, 1, 1))
    return quotient.build_quotient(w30, tuple(e.word for e in sample), fcontract)


@pytest.fixture(scope="module")
def scontract():
    return quotient.s5_contract()


@pytest.fixture(scope="module")
def sq2(w2, scontract):
    return quotient.build_quotient(w2, quotient.s5_sample(), scontract)


def test_simplicial_passes(q30):
    r = suites.check_simplicial(q30)
    assert r["status"] == "pass"
    assert r["witnesses"] == []
    assert r["eligible"] == len(q30)


def test_simplicial_out_of_hypothesis(q30_small):
    assert q30_small.min_displacement < suites.SIMPLICIAL_THRESHOLD
    r = suites.check_simplicial(q30_small)
    assert r["status"] == "out-of-hypothesis"
    assert any(wt["kind"] == "loop" for wt in r["witnesses"])


def test_lipschitz_lifting_passes(q30):
    r = suites.verify_lipschitz_lifting(q30)
    assert r["status"] == "pass"
    assert r["witnesses"] == []
    assert r["eligible"] > 0


def test_lifting_lifts_each_middle_class_once_per_start(w30, fcontract):
    # part (c) lifts a start class's first member over each middle class
    # once, when the first unseen far class needs it, and not again for
    # every far class over that middle class: 24,616 lifts went to 14,236
    # on this quotient, over 3,324 distinct (vertex, class) pairs
    sample = farey.sample_closure(farey.FareyClosureSpec(BASE, 4, 1))
    q = quotient.build_quotient(w30, tuple(e.word for e in sample), fcontract)
    real, calls = q.lift, Counter()

    def counting(i, c):
        calls[i, c] += 1
        return real(i, c)

    q.__dict__["lift"] = counting  # the cached property's slot
    report = suites.verify_lipschitz_lifting(q)
    assert (sum(calls.values()), len(calls)) == (14236, 3324)
    fresh = quotient.build_quotient(w30, tuple(e.word for e in sample), fcontract)
    assert report == suites.verify_lipschitz_lifting(fresh)


def test_ball2_isometry_passes(q30):
    r = suites.verify_ball2_isometry(q30)
    assert r["status"] == "pass"
    assert r["witnesses"] == []


def test_ball2_isometry_out_of_hypothesis(q30_small):
    r = suites.verify_ball2_isometry(q30_small)
    assert r["status"] == "out-of-hypothesis"


def test_local_covering_passes(w30, q30):
    r = suites.verify_local_covering(q30)
    assert r["status"] == "pass"
    assert r["witnesses"] == []
    assert r["eligible"] == len(w30)


def test_transfer_pentagons_empty_sample(sq2):
    r = suites.transfer_pentagons(sq2)
    assert r["status"] == "pass"
    assert r["upstairs"] == r["downstairs"] == r["lifted"]
    assert r["witnesses"] == []


def test_quotient_detection_matches_upstairs(w2, sq2):
    c1, c3 = BASE_CURVES[0], BASE_CURVES[2]
    a_cls = sq2.class_of[w2.index[c1.coords]]
    b_cls = sq2.class_of[w2.index[c3.coords]]
    detected = s5windows.detect_half_twist_indices(sq2.graph, a_cls, b_cls)
    upstairs = detected_curves(c1, c3, w2)
    projected = {sq2.class_of[w2.index[g.coords]] for g in upstairs}
    assert detected == projected
    assert len(detected) == 2


# Kept with its tests until a seed policy makes it a ``verify`` suite.
def propagate_pentagon_map(q: QuotientWindow, seed: dict[int, int],
                           first_choice: tuple[int, int] | None = None) -> dict:
    """Extend a pentagon-to-pentagon class map across half-twist detections.

    For every fully-mapped quotient pentagon and every non-adjacent pair
    (alpha, beta) in it, the two detected classes on each side must
    correspond; the assignment of the pair is forced by adjacency with
    already-mapped classes (the disjointness disambiguation), by
    ``first_choice`` (a (class, image) hint resolving the initial
    orientation ambiguity), or failing those by the least-index rule.
    Returns the extended map, the frontier where detection ran out of
    window, and any inconsistency witnesses.
    """
    qw = q.graph
    pentagons = s5windows.enumerate_pentagons(qw)
    mapped = dict(seed)
    witnesses: list[dict] = []
    frontier: list[dict] = []
    reported: set[tuple[int, int]] = set()
    oriented = False
    adj = set_adjacency(qw)

    detect_cache: dict[tuple[int, int], set[int]] = {}

    def detect(a: int, b: int) -> set[int]:
        if (a, b) not in detect_cache:
            detect_cache[(a, b)] = s5windows.detect_half_twist_indices(qw, a, b)
        return detect_cache[(a, b)]

    def consistent(gamma: int, image: int) -> bool:
        return all(
            (x in adj[gamma]) == (mapped[x] in adj[image])
            for x in mapped
            if x != gamma
        )

    while True:
        sites = set()
        for pent in pentagons:
            if all(v in mapped for v in pent):
                for k in range(5):
                    sites.add((pent[k], pent[(k + 2) % 5]))
        forced = False
        ambiguous: list[tuple[tuple[int, int], tuple]] = []
        for alpha, beta in sorted(sites):
            dom = detect(alpha, beta)
            img = detect(mapped[alpha], mapped[beta])
            if len(dom) != 2 or len(img) != 2:
                if (alpha, beta) not in reported:
                    reported.add((alpha, beta))
                    frontier.append({
                        "pair": [alpha, beta],
                        "detected": sorted(dom), "image_detected": sorted(img),
                    })
                continue
            g1, g2 = sorted(dom)
            h1, h2 = sorted(img)
            if g1 in mapped and g2 in mapped:
                if {mapped[g1], mapped[g2]} != {h1, h2}:
                    if (alpha, beta) not in reported:
                        reported.add((alpha, beta))
                        witnesses.append({
                            "kind": "inconsistent-extension",
                            "pair": [alpha, beta],
                            "detected": [g1, g2], "image_detected": [h1, h2],
                        })
                continue
            viable = []
            for opt in (((g1, h1), (g2, h2)), ((g1, h2), (g2, h1))):
                ok = True
                for gamma, image in opt:
                    if gamma in mapped:
                        if mapped[gamma] != image:
                            ok = False
                    elif not consistent(gamma, image):
                        ok = False
                if ok:
                    viable.append(opt)
            if not viable:
                if (alpha, beta) not in reported:
                    reported.add((alpha, beta))
                    witnesses.append({
                        "kind": "inconsistent-extension",
                        "pair": [alpha, beta],
                        "detected": [g1, g2], "image_detected": [h1, h2],
                    })
            elif len(viable) == 1:
                for gamma, image in viable[0]:
                    if gamma not in mapped:
                        mapped[gamma] = image
                        forced = True
            else:
                ambiguous.append(((alpha, beta), tuple(viable)))
        if forced:
            continue
        if not ambiguous:
            break
        # No forced progress.  The orientation of the extension is a single
        # global choice, so at most one unforced assignment is ever made
        # (honoring the hint); sites still ambiguous afterwards are
        # disconnected from the seeded orientation by the window's edge and
        # are left unmapped on the frontier.
        if oriented:
            for site, _ in ambiguous:
                if site not in reported:
                    reported.add(site)
                    frontier.append({"pair": list(site), "kind": "ambiguous"})
            break
        chosen = None
        if first_choice is not None:
            for site, viable in ambiguous:
                narrowed = [opt for opt in viable if first_choice in opt]
                if narrowed:
                    chosen = narrowed[0]
                    break
        if chosen is None:
            chosen = ambiguous[0][1][0]
        oriented = True
        for gamma, image in chosen:
            if gamma not in mapped:
                mapped[gamma] = image
    return {"map": mapped, "frontier": frontier, "witnesses": witnesses}


def _cls(sq2, w2, coords):
    return sq2.class_of[w2.index[coords]]


def test_propagate_identity_seed(w2, sq2):
    seed = {_cls(sq2, w2, x.coords): _cls(sq2, w2, x.coords) for x in BASE_CURVES}
    out = propagate_pentagon_map(sq2, seed)
    assert out["witnesses"] == []
    assert all(k == v for k, v in out["map"].items())
    assert len(out["map"]) == len(sq2)


def test_propagate_agrees_with_group_element(w2, sq2):
    g = "ab"
    seed = {
        _cls(sq2, w2, x.coords): _cls(sq2, w2, act(g, x).coords)
        for x in BASE_CURVES
    }

    def disagreeing(out):
        bad = []
        for k, v in out["map"].items():
            img = act(g, s5windows.window_curve(w2, representative(sq2, k))).coords
            if img in w2.index and _cls(sq2, w2, img) != v:
                bad.append(k)
        return bad

    first = propagate_pentagon_map(sq2, dict(seed))
    assert first["witnesses"] == []
    bad = disagreeing(first)
    if bad:  # wrong global orientation: the hint flips it
        k0 = bad[0]
        img = act(g, s5windows.window_curve(w2, representative(sq2, k0))).coords
        hinted = propagate_pentagon_map(
            sq2, dict(seed), first_choice=(k0, _cls(sq2, w2, img))
        )
        assert hinted["witnesses"] == []
        assert disagreeing(hinted) == []


def test_propagate_reflection_swaps_detected_pair(w2, sq2):
    c1, c3 = BASE_CURVES[0], BASE_CURVES[2]
    seed = {_cls(sq2, w2, x.coords): _cls(sq2, w2, x.coords) for x in BASE_CURVES}
    det = sorted(
        s5windows.detect_half_twist_indices(
            sq2.graph, _cls(sq2, w2, c1.coords), _cls(sq2, w2, c3.coords)
        )
    )
    swapped = propagate_pentagon_map(
        sq2, dict(seed), first_choice=(det[0], det[1])
    )
    assert swapped["witnesses"] == []
    assert swapped["map"][det[0]] == det[1]
    assert swapped["map"][det[1]] == det[0]
    # the swapped extension is the reflection's action
    for k, v in swapped["map"].items():
        img = act("r", s5windows.window_curve(w2, representative(sq2, k))).coords
        assert _cls(sq2, w2, img) == v


def test_support_sets_pass(w3, sq2, scontract):
    r = suites.check_support_sets(sq2)
    assert r["status"] == "pass"
    assert r["witnesses"] == []
    r3 = suites.check_support_sets(
        quotient.build_quotient(w3, quotient.s5_sample(), scontract))
    assert r3["status"] == "pass"


def test_report_shape(q30):
    r = suites.check_simplicial(q30)
    assert set(r) >= {"suite", "status", "eligible", "truncated", "witnesses"}
    assert r["status"] in ("pass", "fail", "out-of-hypothesis")


def test_every_suite_is_total_over_sample_sweep(w2, scontract):
    # every sample word of length 1-3; out of hypothesis, lifts can leave
    # the class they were lifted over, and no suite may crash on that
    for n in (1, 2, 3):
        for letters in product("abcdr", repeat=n):
            word = "".join(letters)
            q = quotient.build_quotient(w2, quotient.s5_sample((word,)), scontract)
            for r in (
                suites.check_simplicial(q),
                suites.verify_lipschitz_lifting(q),
                suites.verify_ball2_isometry(q),
                suites.verify_local_covering(q),
                suites.transfer_pentagons(q),
                suites.check_support_sets(q),
            ):
                assert set(r) >= {"suite", "status", "eligible", "truncated",
                                  "witnesses"}, word
                assert r["status"] in ("pass", "fail", "out-of-hypothesis"), word
                assert r["eligible"] >= 0 and r["truncated"] >= 0, word


def test_lifting_reports_lift_leaving_middle_class(w3, scontract):
    q = quotient.build_quotient(w3, quotient.s5_sample(("ab",)), scontract)
    r = suites.verify_lipschitz_lifting(q)
    assert r["status"] == "out-of-hypothesis"
    left = [x for x in r["witnesses"] if "mid_class" in x]
    assert left
    adj = set_adjacency(w3)
    for x in left:
        assert x["kind"] == "geodesic-lift"
        assert x["reached_class"] != x["mid_class"]
        i, m = (w3.index[s5windows.parse_curve_key(k)] for k in x["lift"])
        assert m in adj[i]
        assert q.class_of[i] == x["classes"][0]
        assert q.class_of[m] == x["reached_class"]
    _check_second_lifts(w3, q, r)


def _check_second_lifts(w, q, report):
    """Witnesses whose second lift left the far class name the class it
    reached; every distance reported is measured to the far class."""
    second = []
    adj = set_adjacency(w)
    for x in report["witnesses"]:
        if x["kind"] != "geodesic-lift" or "mid_class" in x:
            continue
        i, m, v = (w.index[s5windows.parse_curve_key(k)] for k in x["lift"])
        a, b = x["classes"]
        assert m in adj[i] and v in adj[m]
        assert q.class_of[i] == a
        if "reached_class" in x:
            second.append(x)
            assert q.class_of[v] == x["reached_class"] != b
            assert "distance" not in x
        else:
            assert q.class_of[v] == b
    return second


def test_lifting_reports_second_lift_leaving_far_class(w2, scontract):
    # with sample aab at bound 2, the lift from the middle class can land in
    # the first class again; it used to be reported as distance 0
    q = quotient.build_quotient(w2, quotient.s5_sample(("aab",)), scontract)
    r = suites.verify_lipschitz_lifting(q)
    second = _check_second_lifts(w2, q, r)
    assert any(x["classes"] == [6, 9] and x["reached_class"] == 6 for x in second)
    assert not any(x.get("distance") == 0 for x in r["witnesses"])


@pytest.mark.parametrize("instance", ["farey-h20-k4", "s5-bound3-aa"])
def test_window_distance_two_agrees_with_certificate(
        monkeypatch, w3, fcontract, scontract, instance):
    if instance == "farey-h20-k4":
        w, contract = farey.farey_window(20), fcontract
        spec = farey.FareyClosureSpec(BASE, 4, 2)
        sample = tuple(e.word for e in farey.sample_closure(spec))
    else:
        w, contract = w3, scontract
        sample = quotient.s5_sample(("aa",))
    q = quotient.build_quotient(w, sample, contract)

    # record every distance-2 site the window certifies in the walking oracle
    certify = oracles.window_certifies_two
    sites = []

    def spy(w_, i, m, v):
        ok = certify(w_, i, m, v)
        if ok:
            sites.append((i, m, v))
        return ok

    monkeypatch.setattr(oracles, "window_certifies_two", spy)
    assert walk_lipschitz_lifting(q) == suites.verify_lipschitz_lifting(q)
    assert len(sites) > 500
    adj = set_adjacency(w)
    for i, m, v in sites:
        assert m in adj[i] and v in adj[m]
        assert contract.certificate(w, i, w.vertices[v]) == (2, True)


def test_no_distance_is_measured_across_classes_over_sample_sweep(
        monkeypatch, w2, scontract):
    quotients = [
        quotient.build_quotient(w2, quotient.s5_sample(("".join(letters),)), scontract)
        for n in (1, 2, 3) for letters in product("abcdr", repeat=n)]
    real, answers = quotient.InstanceContract.certificate, []

    def spy(self, w, i, x):
        answers.append(real(self, w, i, x))
        return answers[-1]

    monkeypatch.setattr(quotient.InstanceContract, "certificate", spy)
    reports = [suites.verify_lipschitz_lifting(q) for q in quotients]
    assert not answers  # the suite reads no distance
    for q, r in zip(quotients, reports):
        _check_second_lifts(w2, q, r)
    # with the window's own distance-2 check skipped, the walking oracle asks
    # the certificate at every lifted (c) site, which decides each one at 2,
    # so it agrees with the suite
    monkeypatch.setattr(oracles, "window_certifies_two", lambda *args: False)
    assert [walk_lipschitz_lifting(q) for q in quotients] == reports
    assert len(answers) > 500
    assert set(answers) == {(2, True)}


def test_lifting_truncates_a_distance_with_only_a_floor(monkeypatch, w2, scontract):
    # in the walking oracle, a (c) site whose certificate is only a floor is
    # truncated, never a witness
    q = quotient.build_quotient(w2, quotient.s5_sample(("aab",)), scontract)
    before = walk_lipschitz_lifting(q)
    answers = []

    def floor(self, w, i, x):
        answers.append((i, x))
        return 2, False

    monkeypatch.setattr(oracles, "window_certifies_two", lambda *args: False)
    monkeypatch.setattr(quotient.InstanceContract, "certificate", floor)
    after = walk_lipschitz_lifting(q)
    assert answers
    assert after["truncated"] == before["truncated"] + len(answers)
    assert (after["eligible"], after["witnesses"]) == (before["eligible"], before["witnesses"])
