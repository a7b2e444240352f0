"""Acceptance gate: ten end-to-end criteria with explicit time limits.

Each criterion is one test, numbered in order.  Time limits are asserted on
the monotonic clock around the work they cover; everything else is exact.
"""

import json
import random
import time

import pytest
from click.testing import CliRunner

from curvelab import cli, farey, quotient, s5windows, suites
from curvelab.arc2 import Arc2Vertex, classify_triangle, fill_triangle
from curvelab.curves import BASE_CURVES, intersection_number
from curvelab.mcg import WORD_ALPHABET, invert_word
from curvelab.s5windows import build_window
from oracles import BfsOracle, act, detected_curves, half_twist_of, is_pentagon_set

A_MATRIX = farey.IntMatrix(2, 1, 1, 1)


@pytest.fixture(scope="module")
def farey_scenario():
    """Height-55 window with the K=8, conjugator-length-2 closure sample."""
    t0 = time.monotonic()
    w = farey.farey_window(55)
    sample = farey.sample_closure(farey.FareyClosureSpec(A_MATRIX, 8, 2))
    contract = quotient.farey_contract(A_MATRIX)
    q = quotient.build_quotient(w, sample.words, contract)
    return {"w": w, "sample": sample, "contract": contract, "q": q,
            "build_seconds": time.monotonic() - t0}


def test_01_farey_distance_oracle_equivalence():
    t0 = time.monotonic()
    oracle = BfsOracle(36)
    slopes = farey.slopes_of_height(34)
    for s in slopes:
        from_s = oracle.distances_from(s)
        for t in slopes:
            if t <= s:
                continue
            assert from_s[oracle.index[t]] == farey.distance(s, t), (s, t)
    assert time.monotonic() - t0 < 60


def test_02_farey_quotient_suites_pass(farey_scenario):
    t0 = time.monotonic()
    w, q, contract = (farey_scenario[k] for k in ("w", "q", "contract"))
    report = quotient.displacement_report(
        w, farey_scenario["sample"].words, contract)
    assert len(report) == 16
    assert all(r["min"] >= 8 for r in report)
    runs = [
        suites.check_simplicial(q),
        suites.verify_lipschitz_lifting(q),
        suites.verify_ball2_isometry(q),
        suites.verify_local_covering(q),
    ]
    for r in runs:
        assert r["status"] == "pass", r["suite"]
        assert r["witnesses"] == [], r["suite"]
        assert r["eligible"] > 0, r["suite"]
    assert farey_scenario["build_seconds"] + (time.monotonic() - t0) < 300


def test_03_hypothesis_necessity_k1():
    w = farey.farey_window(55)
    sample = farey.sample_closure(farey.FareyClosureSpec(A_MATRIX, 1, 2))
    contract = quotient.farey_contract(A_MATRIX)
    q = quotient.build_quotient(w, sample.words, contract)
    assert q.min_displacement == 1
    r = suites.check_simplicial(q)
    assert r["status"] == "out-of-hypothesis"
    assert any(wt["kind"] in ("loop", "parallel") for wt in r["witnesses"])


def test_04_generator_relations():
    t0 = time.monotonic()
    r = suites.check_relations(seed=0)
    assert r["status"] == "pass"
    assert r["witnesses"] == []
    assert time.monotonic() - t0 < 120


def test_05_base_pentagon_pattern():
    for i in range(5):
        for j in range(i + 1, 5):
            n = intersection_number(BASE_CURVES[i], BASE_CURVES[j])
            cyclically_adjacent = (j - i) % 5 in (1, 4)
            assert n == (0 if cyclically_adjacent else 2)


def test_06_half_twist_detection_pairs():
    rng = random.Random(0)
    c1, c3 = BASE_CURVES[0], BASE_CURVES[2]
    for _ in range(10):
        g = "".join(rng.choice(WORD_ALPHABET)
                    for _ in range(rng.randint(0, 3)))
        alpha, beta = act(g, c1), act(g, c3)
        w = build_window(2, seeds=tuple(act(g, c) for c in BASE_CURVES))
        detected = detected_curves(alpha, beta, w)
        plus = half_twist_of(beta, alpha, 1)
        minus = half_twist_of(beta, alpha, -1)
        assert detected == {plus, minus} and len(detected) == 2, g
        # conjugated reflection fixes alpha and beta and swaps the pair
        rg = invert_word(g) + "r" + g
        assert act(rg, alpha) == alpha and act(rg, beta) == beta
        assert act(rg, plus) == minus and act(rg, minus) == plus, g


def test_07_quotient_transfer_and_detection(w2):
    contract = quotient.s5_contract()
    q = quotient.build_quotient(w2, quotient.s5_sample(), contract)
    r = suites.transfer_pentagons(q)
    assert r["status"] == "pass"
    assert r["upstairs"] == r["downstairs"] == r["lifted"]
    c1, c3 = BASE_CURVES[0], BASE_CURVES[2]
    a_cls = q.class_of[w2.index[c1.coords]]
    b_cls = q.class_of[w2.index[c3.coords]]
    detected = s5windows.detect_half_twist_indices(q.graph, a_cls, b_cls)
    upstairs = detected_curves(c1, c3, w2)
    assert detected == {q.class_of[w2.index[g.coords]] for g in upstairs}
    assert len(detected) == 2


# One representative triple of arc coordinates per configuration class,
# drawn from the word-bound-2 window; expected pentagon counts per class.
FILL_CASES = {
    "case1": ((0, 0, 1, 0, 1, 0, 1, 0, 1), (0, 1, 0, 1, 0, 1, 1, 1, 1),
              (0, 1, 1, 1, 1, 1, 0, 1, 2), 0),
    "case2": ((0, 0, 1, 0, 1, 0, 1, 0, 1), (0, 1, 0, 1, 0, 1, 1, 1, 1),
              (1, 0, 1, 1, 1, 1, 0, 1, 2), 2),
    "case3": ((0, 0, 1, 0, 1, 0, 1, 0, 1), (0, 1, 0, 1, 0, 1, 1, 1, 1),
              (0, 1, 2, 1, 2, 1, 1, 1, 3), 0),
    "case4": ((0, 0, 1, 0, 1, 0, 1, 0, 1), (0, 1, 0, 1, 0, 1, 1, 1, 1),
              (2, 1, 2, 1, 0, 1, 1, 3, 1), 2),
    "case5": ((0, 0, 1, 0, 1, 0, 1, 0, 1), (0, 1, 0, 1, 0, 1, 1, 1, 1),
              (2, 1, 1, 1, 1, 1, 0, 3, 2), 4),
}


def test_08_arc_complex_fillings(w2, w3):
    for kind, (a, b, c, pentagons) in FILL_CASES.items():
        arcs = tuple(
            Arc2Vertex(s5windows.window_curve(w2, w2.index[coords]))
            for coords in (a, b, c)
        )
        cfg = classify_triangle(arcs, w3)
        assert cfg.kind == kind
        out = fill_triangle(cfg, w3)
        assert len(out["pentagons"]) == pentagons, kind
        if pentagons == 0:
            assert out["cells"] == "tripod" and out["center"] is not None
        for pent in out["pentagons"]:
            members = [
                Arc2Vertex(
                    s5windows.window_curve(w3, w3.index[tuple(rec["coords"])])
                )
                for rec in pent
            ]
            assert is_pentagon_set(members), kind


def test_09_support_sets(w2, w3):
    contract = quotient.s5_contract()
    for w in (w2, w3):
        r = suites.check_support_sets(
            quotient.build_quotient(w, quotient.s5_sample(), contract))
        assert r["status"] == "pass"
        assert r["witnesses"] == []
        assert r["eligible"] > 0


def test_10_determinism_byte_identical(tmp_path):
    runner = CliRunner()
    outputs = []
    artifacts = []
    for run in ("one", "two"):
        out = tmp_path / run
        result = runner.invoke(
            cli.main,
            ["verify", "--height", "30", "--power", "8", "--conj-len", "1",
             "--suites", "simplicial,lift,ball2,covering",
             "--out", str(out), "--format", "json"],
            catch_exceptions=False,
        )
        assert result.exit_code == 0
        outputs.append(result.output)
        artifacts.append({
            p.name: p.read_bytes() for p in sorted(out.iterdir())
        })
    assert outputs[0] == outputs[1]
    assert artifacts[0] == artifacts[1]
    report = json.loads(outputs[0])
    assert all(r["status"] == "pass" for r in report)
