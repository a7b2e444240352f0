"""``scripts/bench_pairs.py`` on one tiny CLI scenario, with this tree on
both sides: the outputs must be equal, every run must exit 0, and each run
must report its own peak memory, which the script reads from Linux's
``/proc/self/status``."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

pytestmark = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="peak memory is read as Linux's VmHWM")


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_tiny_scenario_with_this_tree_on_both_sides():
    bench = load_bench_pairs()
    args = ["farey", "dist", "2/5", "1/0"]
    result = bench.scenario_pairs({"before": ROOT, "after": ROOT}, 2,
                                  {"farey dist": args})
    run = result["farey dist"]
    assert run["args"] == args
    assert run["outputs_equal"]
    assert run["exit"] == {"before": [0], "after": [0]}
    assert run["sha256"]["stdout"] == bench.sha256(b"3\n")
    for side in ("before", "after"):
        assert len(run["vmhwm_mb"][side]["runs"]) == 2
        assert min(run["vmhwm_mb"][side]["runs"]) > 0
        assert min(run["wall_s"][side]["runs"]) > 0
    assert run["vmhwm_mb"]["pairs"] == 2


def test_scenarios_cover_the_north_star_list():
    names = set(load_bench_pairs().SCENARIOS)
    for h in (55, 110, 220):
        assert {f"farey verify h={h}", f"farey verify h={h} --out"} <= names
    assert "farey verify h=40 K=8 c=1 --out" in names
    for b in (3, 4, 5):
        assert {f"s5 verify bound {b} aa --out", f"s5 ball --word-bound {b}"} <= names
    assert "s5 verify bound 4 cdcd --out" in names
    assert {"farey window --height 220", "arc2 fill case5", "farey dist 2/5 1/0"} <= names
    assert {"farey closure --conj-len 2 --depth 2", "farey displacement --height 220"} <= names


def test_a_single_pair_is_its_own_median_and_quartiles():
    bench = load_bench_pairs()
    assert bench.summary([1.5]) == {"median": 1.5, "q1": 1.5, "q3": 1.5, "runs": [1.5]}
    result = bench.compare([2.0], [1.0])
    assert result["after_over_before"] == 0.5
    assert (result["pairs_after_lower"], result["pairs"]) == (1, 1)


def test_unequal_outputs_and_incorrect_runs_exit_one(monkeypatch, tmp_path):
    # a synthetic report: main writes it, then exits 1 naming each failure
    bench = load_bench_pairs()
    scenarios = {"same": {"outputs_equal": True}, "differs": {"outputs_equal": False}}
    workloads = {"farey-verify": {"all_correct": True}, "s5-verify": {"all_correct": False}}
    monkeypatch.setattr(bench, "scenario_pairs", lambda *args: scenarios)
    monkeypatch.setattr(bench, "curvebench_pairs", lambda *args: workloads)
    out = tmp_path / "OUT.json"
    with pytest.raises(SystemExit) as exc:
        bench.main([str(ROOT), str(ROOT), str(out)])
    assert exc.value.code.splitlines() == [
        f"wrote {out}, but:", "scenario 'differs': outputs differ",
        "curvebench 's5-verify': a run is not correct"]
    report = json.loads(out.read_text())
    assert (report["cli_scenarios"], report["curvebench"]) == (scenarios, workloads)
    # all equal and correct, with curvebench skipped: no exit
    scenarios.pop("differs")
    bench.main([str(ROOT), str(ROOT), str(out), "--curvebench-pairs", "0"])
    assert "curvebench" not in json.loads(out.read_text())
    assert bench.failures({"cli_scenarios": scenarios, "curvebench": workloads}) == [
        "curvebench 's5-verify': a run is not correct"]
