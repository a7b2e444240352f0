import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from curvelab import cli, s5windows, serialize
from curvelab.serialize import CACHE_ENV, cached_text, canonical_json, content_hash


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args, **kwargs):
    return runner.invoke(cli.main, args, catch_exceptions=False, **kwargs)


def test_dist_text(runner):
    result = invoke(runner, ["farey", "dist", "2/5", "1/0"])
    assert result.exit_code == 0
    assert result.output == "3\n"


def test_dist_json(runner):
    result = invoke(runner, ["farey", "dist", "2/5", "1/0", "--format", "json"])
    data = json.loads(result.output)
    assert data == {"s": "2/5", "t": "1/0", "distance": 3}


def test_dist_bad_slope(runner):
    result = invoke(runner, ["farey", "dist", "nope", "1/0"])
    assert result.exit_code == cli.EXIT_IO_ERROR


def test_window_json_shape(runner):
    result = invoke(runner, ["farey", "window", "--height", "5"])
    data = json.loads(result.output)
    assert set(data) >= {"instance", "vertices", "edges"}
    assert len(data["vertices"]) == 40
    assert all(len(e) == 2 for e in data["edges"])


def test_window_dot(runner):
    result = invoke(runner, ["farey", "window", "--height", "3", "--format", "dot"])
    assert result.output.startswith("graph")
    assert "--" in result.output


def test_closure_sample_size(runner):
    result = invoke(
        runner,
        ["farey", "closure", "--power", "8", "--conj-len", "2"],
    )
    assert len(json.loads(result.output)) == 16


def test_displacement_minimum(runner):
    result = invoke(
        runner,
        ["farey", "displacement", "--power", "8", "--conj-len", "1",
         "--height", "30"],
    )
    report = json.loads(result.output)
    assert min(r["min"] for r in report) == 8


def test_s5_ball_sizes(runner):
    result = invoke(runner, ["s5", "ball", "--word-bound", "1"])
    data = json.loads(result.output)
    assert len(data["vertices"]) == 15
    assert len(data["edges"]) == 25


def test_s5_pentagons_count(runner):
    result = invoke(runner, ["s5", "pentagons", "--word-bound", "1"])
    assert json.loads(result.output)["count"] == 21


def test_s5_pentagons_needs_exactly_one_source(runner):
    assert invoke(runner, ["s5", "pentagons"]).exit_code == cli.EXIT_IO_ERROR


def test_s5_halftwist_detects_pair(runner):
    result = invoke(
        runner,
        ["s5", "halftwist", "--alpha", "0", "--beta", "2", "--word-bound", "2"],
    )
    assert len(json.loads(result.output)["detected"]) == 2


def test_arc2_classify(runner):
    result = invoke(
        runner,
        ["arc2", "classify", "0,0,1,0,1,0,1,0,1", "0,1,0,1,0,1,1,1,1",
         "0,1,1,1,1,1,0,1,2"],
    )
    assert json.loads(result.output)["kind"] == "case1"


def test_arc2_fill_pentagon_count(runner):
    result = invoke(
        runner,
        ["arc2", "fill", "0,0,1,0,1,0,1,0,1", "0,1,0,1,0,1,1,1,1",
         "2,1,1,1,1,1,0,3,2"],
    )
    assert len(json.loads(result.output)["pentagons"]) == 4


def test_arc2_rejects_malformed_key(runner):
    result = invoke(runner, ["arc2", "classify", "bad", "0,1", "0,2"])
    assert result.exit_code == cli.EXIT_IO_ERROR


def test_quotient_build_json(runner):
    result = invoke(
        runner,
        ["quotient", "build", "--height", "30", "--power", "8",
         "--conj-len", "1"],
    )
    data = json.loads(result.output)
    assert set(data) >= {"classes", "displacement", "vertices", "edges"}
    assert min(r["min"] for r in data["displacement"]) == 8


def test_verify_pass_exit_zero(runner):
    result = invoke(
        runner,
        ["verify", "--height", "30", "--power", "8", "--conj-len", "1",
         "--suites", "simplicial,lift"],
    )
    assert result.exit_code == 0
    assert "pass" in result.output


def test_verify_out_of_hypothesis_exit_zero(runner):
    result = invoke(
        runner,
        ["verify", "--height", "30", "--power", "1", "--conj-len", "1",
         "--suites", "simplicial"],
    )
    assert result.exit_code == 0
    assert "out-of-hypothesis" in result.output


def test_verify_unknown_suite(runner):
    result = invoke(runner, ["verify", "--suites", "bogus"])
    assert result.exit_code == cli.EXIT_IO_ERROR


def test_verify_suite_instance_mismatch(runner):
    result = invoke(runner, ["verify", "--instance", "farey",
                             "--suites", "relations"])
    assert result.exit_code == cli.EXIT_IO_ERROR


def test_verify_writes_artifacts(runner, tmp_path):
    out = tmp_path / "artifacts"
    result = invoke(
        runner,
        ["verify", "--instance", "s5", "--word-bound", "1",
         "--suites", "simplicial", "--out", str(out), "--format", "json"],
    )
    assert result.exit_code == 0
    names = {p.name for p in out.iterdir()}
    assert names == {"window.json", "quotient.json", "report-simplicial.json"}
    report = json.loads((out / "report-simplicial.json").read_text())
    assert report["status"] == "pass"


def test_cache_roundtrip_identical(runner, tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV, str(tmp_path / "cache"))
    args = ["farey", "window", "--height", "12"]
    first = invoke(runner, args).output
    assert list((tmp_path / "cache").glob("*.json"))
    second = invoke(runner, args).output
    assert first == second


@pytest.mark.parametrize("args", [
    ["--instance", "farey", "--height", "30", "--power", "6", "--conj-len", "1",
     "--suites", "simplicial,lift,ball2,covering"],
    ["--instance", "s5", "--word-bound", "2", "--sample", "aab",
     "--suites", "simplicial,lift,ball2,covering,transfer,support,relations"],
])
def test_verify_out_identical_with_and_without_cache(runner, tmp_path, monkeypatch, args):
    def run(name):
        out = tmp_path / name
        result = invoke(runner, ["verify", *args, "--out", str(out)])
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        return result.exit_code, result.stdout_bytes, files

    monkeypatch.delenv(CACHE_ENV, raising=False)
    direct = run("direct")
    monkeypatch.setenv(CACHE_ENV, str(tmp_path / "cache"))
    cold, warm = run("cold"), run("warm")
    assert list((tmp_path / "cache").glob("*.json"))
    assert direct == cold == warm
    assert len(direct[2]) >= 6


def test_determinism_byte_identical(runner):
    args = ["verify", "--height", "30", "--power", "8", "--conj-len", "1",
            "--suites", "simplicial,ball2", "--format", "json"]
    assert invoke(runner, args).output == invoke(runner, args).output


@pytest.mark.parametrize("args", [
    "farey window --height 5 --basepoint 1/x",
    "farey window --height 5 --basepoint 0/0",
    "quotient build --matrix 1,1,0",
    "quotient build --matrix 1,x,0,1",
    "verify --instance s5 --word-bound 1 --suites relations --sample zz",
    "verify --instance s5 --word-bound 1 --suites simplicial --sample a,Z",
    "verify --height 0 --suites simplicial",
    "verify --height -3 --suites simplicial",
    "verify --instance s5 --word-bound -1 --suites simplicial",
    "quotient build --height 0",
    "quotient build --instance s5 --word-bound -1",
    "farey displacement --height 0",
    "s5 halftwist --alpha 0 --beta 0 --word-bound 1",
    "s5 pentagons --word-bound -1",
    "s5 halftwist --alpha 0 --beta 1 --word-bound -2",
    "s5 halftwist --alpha 0 --beta 7 --word-bound 2",  # i(alpha, beta) = 4
])
def test_malformed_input_exit_two_without_traceback(runner, args):
    result = invoke(runner, args.split())
    assert result.exit_code == cli.EXIT_IO_ERROR
    assert "Traceback" not in result.output
    lines = result.output.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("args", [
    "verify --instance s5 --word-bound 4 --sample abc --suites lift",
    "verify --height 20 --matrix 3,1,2,1 --power 2 --conj-len 1 --suites lift",
])
def test_lifting_out_of_hypothesis_reports_without_traceback(runner, args):
    # in both runs a lifted edge leaves the class it was lifted over
    result = invoke(runner, args.split())
    assert result.exit_code in (0, cli.EXIT_SUITE_FAILURE)
    assert "Traceback" not in result.output
    assert result.output.startswith("lipschitz-lifting: ")


@pytest.mark.parametrize("command", [
    ["s5", "pentagons"],
    ["s5", "halftwist", "--alpha", "0", "--beta", "1"],
])
@pytest.mark.parametrize("content", [
    "[1,2]",  # a top-level array
    '{"instance":"s5","basepoint":"0,0,1,0,1,0,1,0,1","bound":0,'
    '"vertices":5,"edges":[]}',
    '{"instance":"s5","basepoint":"0,0,1,0,1,0,1,0,1","bound":0,'
    '"vertices":[{"id":0,"key":5}],"edges":[]}',
    "[" * 100_000 + "]" * 100_000,  # deeper than the JSON decoder recurses
], ids=["array", "vertices-number", "key-number", "deep"])
def test_window_file_of_wrong_shape_exits_two(runner, tmp_path, command, content):
    path = tmp_path / "window.json"
    path.write_text(content)
    result = invoke(runner, [*command, "--window", str(path)])
    assert result.exit_code == cli.EXIT_IO_ERROR
    assert "Traceback" not in result.output
    lines = result.output.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("edit", ["drop-words", "swap-words", "number-word"])
def test_halftwist_window_without_true_witnesses_exits_two(runner, tmp_path, edit):
    # detection reads i(alpha, beta) off a witness word, so it needs true ones
    data = s5windows.build_window(2).to_json(s5windows.curve_key_str)
    if edit == "drop-words":
        for rec in data["vertices"]:
            del rec["word"]
    elif edit == "number-word":
        data["vertices"][0]["word"] = 5
    else:
        first, second = data["vertices"][0], data["vertices"][2]
        first["word"], second["word"] = second["word"], first["word"]
    path = tmp_path / "window.json"
    path.write_text(json.dumps(data))
    args = ["s5", "halftwist", "--alpha", "0", "--beta", "2", "--window", str(path)]
    result = invoke(runner, args)
    assert result.exit_code == cli.EXIT_IO_ERROR
    lines = result.output.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("corrupt", [
    b'{"vertices":[1,2',  # truncated
    b"\xff\xfe not text",  # not UTF-8
    b'{ "a": 1 }\n',  # JSON, but not canonical
])
def test_cache_rebuilds_corrupt_entry(tmp_path, monkeypatch, corrupt):
    monkeypatch.setenv(CACHE_ENV, str(tmp_path))
    key = {"kind": "test", "n": 1}
    entry = tmp_path / f"{content_hash(key)}.json"
    entry.write_bytes(corrupt)
    good = canonical_json({"a": 1})
    assert cached_text(key, lambda: good) == good
    assert entry.read_text() == good
    assert cached_text(key, lambda: pytest.fail("hit expected")) == good


def test_cache_writes_through_unique_temporary(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV, str(tmp_path))
    key = {"kind": "test", "n": 2}
    # a concurrent writer's leftover under the old shared name is not touched
    shared = tmp_path / f"{content_hash(key)}.tmp"
    shared.mkdir()
    good = canonical_json([1, 2, 3])
    assert cached_text(key, lambda: good) == good
    assert (tmp_path / f"{content_hash(key)}.json").read_text() == good
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [shared.name, f"{content_hash(key)}.json"])


def test_cache_version_change_is_a_miss(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV, str(tmp_path))
    key = {"kind": "test", "n": 3}
    old = canonical_json({"built": "old"})
    assert cached_text(key, lambda: old) == old
    assert cached_text(key, lambda: pytest.fail("hit expected")) == old
    monkeypatch.setattr(serialize, "CACHE_VERSION", serialize.CACHE_VERSION + 1)
    new = canonical_json({"built": "new"})
    assert cached_text(key, lambda: new) == new


def test_verify_output_survives_optimize_flag():
    env = {k: v for k, v in os.environ.items() if k != CACHE_ENV}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    verify = ["-m", "curvelab.cli", "verify", "--height", "20", "--power", "8",
              "--conj-len", "1", "--suites", "simplicial,lift,ball2,covering",
              "--format", "json"]
    # the case5 triangle: a four-pentagon fill, every cell checked by arc2
    fill = ["-m", "curvelab.cli", "arc2", "fill", "0,0,1,0,1,0,1,0,1",
            "0,1,0,1,0,1,1,1,1", "2,1,1,1,1,1,0,3,2"]
    for args in (verify, fill):
        plain, optimized = (
            subprocess.run([sys.executable, *flags, *args], env=env,
                           capture_output=True, text=True, check=True).stdout
            for flags in ([], ["-O"])
        )
        assert plain and optimized == plain


def test_corrupt_window_cache_entry_is_rebuilt(runner, tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV, str(tmp_path))
    args = ["s5", "ball", "--word-bound", "1"]
    first = invoke(runner, args).output
    (entry,) = tmp_path.glob("*.json")
    entry.write_text(entry.read_text()[:40])
    result = invoke(runner, args)
    assert result.exit_code == 0 and result.output == first


def assert_one_error_line(args):
    result = CliRunner().invoke(cli.main, args, catch_exceptions=False)
    assert result.exit_code == cli.EXIT_IO_ERROR, result.output
    assert "Traceback" not in result.output
    lines = result.output.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), result.output


def test_cached_window_with_wrong_witness_exits_two(runner, tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV, str(tmp_path))
    args = ["verify", "--instance", "s5", "--word-bound", "2", "--sample", "aa",
            "--suites", "simplicial"]
    assert invoke(runner, args).exit_code == 0
    (entry,) = tmp_path.glob("*.json")
    data = json.loads(entry.read_text())
    v = data["vertices"]
    v[7]["word"], v[8]["word"] = v[8]["word"], v[7]["word"]
    entry.write_text(canonical_json(data))
    assert_one_error_line(args)


# Fuzzing malformed input: each drawn value is malformed by construction,
# and the CLI must answer exit 2 with one "error:" line and no traceback.
FUZZ = settings(max_examples=100, deadline=None, derandomize=True)
_KNOWN_SUITES = {n for name, (aliases, _, _) in cli.SUITES.items()
                 for n in (name, *aliases)}


@FUZZ
@given(st.text("0123456789/-+x. ", max_size=10).filter(
    lambda s: not re.fullmatch(r"\s*[+-]?\d+\s*/\s*[+-]?\d+\s*", s)))
def test_fuzz_malformed_slope(text):
    assert_one_error_line(["farey", "dist", "--", text, "1/0"])


@FUZZ
@given(st.text("0123456789,-+x ", max_size=14).filter(
    lambda s: not re.fullmatch(r"\s*[+-]?\d+\s*(,\s*[+-]?\d+\s*){3}", s)))
def test_fuzz_malformed_matrix(text):
    assert_one_error_line(["quotient", "build", "--height", "3", "--power", "1",
                           "--conj-len", "0", f"--matrix={text}"])


@FUZZ
@given(st.text("aAbBcCdDr,xyzE1 -", min_size=1, max_size=12).filter(
    lambda s: set(s) - set("aAbBcCdDr,")))
def test_fuzz_malformed_sample(text):
    assert_one_error_line(["verify", "--instance", "s5", "--word-bound", "1",
                           "--suites", "relations", f"--sample={text}"])


@FUZZ
@given(st.text("abcdilrstx-, ", max_size=14).filter(
    lambda s: any(x.strip() not in _KNOWN_SUITES for x in s.split(","))))
def test_fuzz_unknown_suite(text):
    assert_one_error_line(["verify", "--instance", "s5", "--word-bound", "1",
                           f"--suites={text}"])


def _corrupt_window(kind, k):
    data = json.loads(invoke(CliRunner(), ["s5", "ball", "--word-bound", "1"]).output)
    edge, vertex = data["edges"][k % len(data["edges"])], data["vertices"][k % 15]
    if kind == "reversed-edge":
        edge.reverse()
    elif kind == "edge-out-of-range":
        edge[1] = len(data["vertices"]) + k
    elif kind == "repeated-edge":
        data["edges"].append(list(edge))
    elif kind == "bad-key":
        vertex["key"] = vertex["key"].replace(",", ";", 1 + k % 3)
    else:
        del data[("instance", "bound", "vertices", "edges")[k % 4]]
    return json.dumps(data).encode()


@FUZZ
@given(st.one_of(
    st.binary(max_size=40),
    st.builds(_corrupt_window, st.sampled_from(
        ["reversed-edge", "edge-out-of-range", "repeated-edge", "bad-key",
         "missing-field"]), st.integers(0, 20)),
))
def test_fuzz_malformed_window_file(tmp_path_factory, content):
    path = tmp_path_factory.mktemp("fuzz") / "window.json"
    path.write_bytes(content)
    assert_one_error_line(["s5", "pentagons", "--window", str(path)])
