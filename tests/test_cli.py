import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import click
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from curvelab import cli, farey, s5windows, serialize
from curvelab.serialize import CACHE_ENV, cached_json, canonical_json, content_hash
from curvelab.window import Window
from oracles import window_json


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


@pytest.mark.parametrize("s,t,expected", [("-1/2", "1/0", 2), ("-5/8", "1/0", 3),
                                          ("2/5", "-3/7", 4), ("-2/5", "-1/2", 1)])
def test_dist_negative_slopes_are_arguments(runner, s, t, expected):
    # a leading minus is a slope's sign, not an option, with no "--" needed
    assert expected == farey.distance(farey.Slope.parse(s), farey.Slope.parse(t))
    result = invoke(runner, ["farey", "dist", s, t])
    assert result.exit_code == 0 and result.output == f"{expected}\n"
    result = invoke(runner, ["farey", "dist", s, t, "--format", "json"])
    assert json.loads(result.output) == {"s": s, "t": t, "distance": expected}


def test_dist_unknown_option_is_a_bad_slope():
    assert_one_error_line(["farey", "dist", "-x", "1/0"])


def test_window_json_shape(runner):
    result = invoke(runner, ["farey", "window", "--height", "5"])
    data = json.loads(result.output)
    assert set(data) >= {"instance", "vertices", "edges"}
    assert len(data["vertices"]) == 40
    assert all(len(e) == 2 for e in data["edges"])


@pytest.mark.parametrize("basepoint", ["1/0", "-2/1", "1/2"])
def test_window_basepoint_of_the_window(runner, basepoint):
    # a basepoint of height up to --height is one of the window's vertices
    data = json.loads(invoke(runner, ["farey", "window", "--height", "2",
                                      "--basepoint", basepoint]).output)
    assert data["basepoint"] == basepoint
    assert basepoint in {v["key"] for v in data["vertices"]}


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


# SHA-256 of the stdout of `farey closure` with these arguments; the last
# sample holds elements of determinant -1.
CLOSURE_DIGESTS = {
    "": "c87f138343b66c644137250d1b2c5329eb273c771d9b07bb57877f07061f6975",
    "--conj-len 2 --depth 2": "b82f74bae92b38e7c0210f2e49387ec723db468d34af197c328642834b63f9f3",
    "--format text": "eeb071db2bd8798fffb34a85748475616d5b4bb2eced893dad3f8a7ea0a150bf",
    "--matrix 3,1,1,0 --power 3 --conj-len 1":
        "822853762849b321d6940faad0725111630fa2ef0912b9ef5a4824fe1909e960",
}


@pytest.mark.parametrize("args", CLOSURE_DIGESTS)
def test_closure_output_is_pinned(runner, args):
    output = invoke(runner, ["farey", "closure", *args.split()]).output
    assert hashlib.sha256(output.encode()).hexdigest() == CLOSURE_DIGESTS[args]


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


@pytest.mark.parametrize("args, head", [
    (["farey", "window", "--height", "20"], "farey window height 20"),
    (["s5", "ball", "--word-bound", "2"], "s5 window bound 2"),
])
def test_text_output_counts_edges_from_the_rows(runner, monkeypatch, args, head):
    data = json.loads(invoke(runner, args).output)
    expected = f"{head}: {len(data['vertices'])} vertices, {len(data['edges'])} edges\n"

    def unread(w):
        raise AssertionError("text output read Window.edges")

    monkeypatch.setattr(Window, "edges", property(unread))
    assert invoke(runner, [*args, "--format", "text"]).output == expected


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


@pytest.mark.parametrize("key", [
    "1,2", "1,2,x", "0,0,1,0,1,0,1,0,1,0", "0,,1",
    # nine integers that int() reads, but not as curve_key_str writes them
    " 0,0,1,0,1,0,1,0,1", "0,0,1,0,1,0,1,0,1 ", "+0,0,1,0,1,0,1,0,1",
    "00,0,1,0,1,0,1,0,1", "0,-0,1,0,1,0,1,0,1", "1_0,0,1,0,1,0,1,0,1",
])
def test_arc2_fill_names_a_key_that_is_not_nine_integers(key):
    result = CliRunner().invoke(cli.main, ["arc2", "fill", key, "3,4", "5,6"],
                                catch_exceptions=False)
    assert result.exit_code == cli.EXIT_IO_ERROR
    assert result.output == (
        f"error: curve key {key!r} is not 9 comma-separated integers\n")


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


@pytest.mark.parametrize("args,suites,expected", [
    (["--height", "20", "--conj-len", "1"], "lift,simplicial,lifting",
     ["lipschitz-lifting", "simplicial"]),
    (["--instance", "s5", "--word-bound", "1", "--sample", "aa"],
     "simplicial,support,simplicial,support-sets", ["simplicial", "support-sets"]),
])
def test_verify_runs_a_suite_named_twice_once(runner, tmp_path, monkeypatch, args, suites,
                                              expected):
    # each suite runs once, in the order first named, and writes one report
    written, real = [], Path.write_text
    monkeypatch.setattr(Path, "write_text",
                        lambda path, text: written.append(path.name) or real(path, text))
    result = invoke(runner, ["verify", *args, "--suites", suites, "--out", str(tmp_path)])
    assert result.exit_code == 0
    assert [line.split(":")[0] for line in result.output.splitlines()] == expected
    assert written == [f"report-{name}.json" for name in expected]


def test_verify_refuses_an_unknown_suite_before_an_unavailable_one():
    line = assert_one_error_line(["verify", "--suites", "relations,relations,bogus"])
    assert line == "error: unknown suite 'bogus'"


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


@pytest.mark.parametrize("instance", [["--height", "30"], ["--instance", "s5"]])
def test_verify_dot_is_refused_before_anything_is_written(tmp_path, instance):
    # dot output is only for graphs, and a verify run's reports are not one
    out = tmp_path / "artifacts"
    line = assert_one_error_line(["verify", *instance, "--suites", "simplicial",
                                  "--out", str(out), "--format", "dot"])
    assert line == "error: dot output is only available for graphs"
    assert not out.exists()


# the commands whose output is not a graph, each with well-formed arguments
NO_GRAPH_COMMANDS = {
    "farey dist": ["farey", "dist", "2/5", "1/0"],
    "farey closure": ["farey", "closure"],
    "farey displacement": ["farey", "displacement", "--height", "30"],
    "s5 pentagons": ["s5", "pentagons", "--word-bound", "5"],
    "s5 halftwist": ["s5", "halftwist", "--alpha", "0", "--beta", "1", "--word-bound", "2"],
    "arc2 classify": ["arc2", "classify", "1,0", "0,1", "1,1"],
    "arc2 fill": ["arc2", "fill", "1,0", "0,1", "1,1"],
    "verify": ["verify", "--instance", "s5", "--suites", "simplicial", "--out", "artifacts"],
}


@pytest.mark.parametrize("command", sorted(NO_GRAPH_COMMANDS))
def test_dot_is_refused_while_parsing(tmp_path, monkeypatch, command):
    # dot output is only for graphs: refused before any window or sample is
    # built, or any artifact written
    def refuse(*args, **kwargs):
        raise AssertionError("built before dot was refused")

    for module, name in ((farey, "farey_window"), (farey, "sample_closure"),
                         (s5windows, "build_window")):
        monkeypatch.setattr(module, name, refuse)
    monkeypatch.delenv(CACHE_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    line = assert_one_error_line([*NO_GRAPH_COMMANDS[command], "--format", "dot"])
    assert line == "error: dot output is only available for graphs"
    assert not list(tmp_path.iterdir())


def test_cache_roundtrip_identical(runner, tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV, str(tmp_path / "cache"))
    args = ["s5", "ball", "--word-bound", "2"]
    first = invoke(runner, args).output
    # the name pins the S5 description and CACHE_VERSION, so entries that
    # earlier code wrote under the same version stay hits
    (entry,) = (tmp_path / "cache").glob("*.json")
    assert entry.name == (
        "151282563015e82b433d06d6b14c52adbd83361a8a367d37e7f81866698c779d.json")
    monkeypatch.setattr(s5windows, "build_window",
                        lambda *a: pytest.fail("hit expected"))
    second = invoke(runner, args).output
    assert first == second


FAREY_VERIFY = ["--instance", "farey", "--height", "30", "--power", "8", "--conj-len", "2",
                "--suites", "simplicial,lift,ball2,covering"]
S5_VERIFY = ["--instance", "s5", "--word-bound", "2",
             "--suites", "simplicial,lift,ball2,covering,transfer,support,relations"]


@pytest.mark.parametrize("args, out", [(FAREY_VERIFY, False), (FAREY_VERIFY, True),
                                       (S5_VERIFY, False), (S5_VERIFY, True)])
def test_verify_never_reads_the_edge_tuple(runner, tmp_path, monkeypatch, args, out):
    # Window.edges is made anew from the rows on each read; the suites and
    # the artifact writers read the rows themselves
    def refuse(_window):
        raise AssertionError("verify read Window.edges")

    monkeypatch.delenv(CACHE_ENV, raising=False)
    monkeypatch.setattr(Window, "edges", property(refuse))
    extra = ["--out", str(tmp_path / "out")] if out else []
    assert invoke(runner, ["verify", *args, *extra]).exit_code == 0
    assert (tmp_path / "out" / "window.json").exists() == out


def test_s5_verify_formats_each_key_once(runner, tmp_path, monkeypatch):
    # every witness names its vertices through the quotient's key memo, so
    # beyond the window JSON's keys and basepoint and one displacement
    # argmin per word, a report names at most one new key per vertex
    # (1,641 keys were formatted here when each witness formatted its own)
    real, calls = s5windows.curve_key_str, []

    def counting(coords):
        calls.append(coords)
        return real(coords)

    monkeypatch.delenv(CACHE_ENV, raising=False)
    monkeypatch.setattr(s5windows, "curve_key_str", counting)
    out = tmp_path / "out"
    args = ["--instance", "s5", "--word-bound", "3", "--sample", "cdcd", "--suites",
            "simplicial,lift,ball2,covering,transfer,support,relations", "--out", str(out)]
    assert invoke(runner, ["verify", *args]).exit_code == 0
    window = json.loads((out / "window.json").read_text())
    words = json.loads((out / "quotient.json").read_text())["displacement"]
    witnesses = sum(len(json.loads(p.read_text())["witnesses"])
                    for p in out.glob("report-*.json"))
    assert len(window["vertices"]) == 119 and len(words) == 2 and witnesses > 400
    assert len(calls) <= 2 * len(window["vertices"]) + 1 + len(words)


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
    # a Farey window is always built, so only the S5 window has an entry
    entries = list((tmp_path / "cache").glob("*"))
    assert len(entries) == (args[1] == "s5")
    assert direct == cold == warm
    assert len(direct[2]) >= 6


def test_determinism_byte_identical(runner):
    args = ["verify", "--height", "30", "--power", "8", "--conj-len", "1",
            "--suites", "simplicial,ball2", "--format", "json"]
    assert invoke(runner, args).output == invoke(runner, args).output


@pytest.mark.parametrize("args", [
    "farey window --height 5 --basepoint 1/x",
    "farey window --height 5 --basepoint 0/0",
    "farey window --height 2 --basepoint 5/1",  # outside the window
    "farey window --height 2 --basepoint -1/3",
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


@pytest.mark.parametrize("args, message", [
    ("verify --height 5 --power 0 --suites simplicial",
     "error: --power must be at least 1, got 0"),
    ("verify --height 5 --depth -1 --suites simplicial",
     "error: --depth must be at least 1, got -1"),
    ("farey closure --conj-len -2",
     "error: --conj-len must be at least 0, got -2"),
], ids=["power", "depth", "conj-len"])
def test_closure_option_error_names_the_option(args, message):
    # the error names the option the user typed and its value
    result = CliRunner().invoke(cli.main, args.split(), catch_exceptions=False)
    assert result.exit_code == cli.EXIT_IO_ERROR
    assert result.output.splitlines() == [message]


@pytest.mark.parametrize("args, other", [
    ("verify --instance s5 --height 0 --word-bound 1 --sample aa "
     "--suites simplicial", "--height 0"),
    ("verify --instance farey --height 5 --power 1 --conj-len 0 --word-bound -1 "
     "--suites simplicial", "--word-bound -1"),
])
def test_verify_ignores_the_other_instance_options(runner, args, other):
    # each window helper checks only the option its instance reads
    result = invoke(runner, args.split())
    assert result.exit_code == 0
    assert result.output.startswith("simplicial: ")
    assert result.output == invoke(runner, args.replace(other + " ", "").split()).output


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
    data = window_json(s5windows.build_window(2), s5windows.curve_key_str)
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
    pytest.param(b"[" * 100_000 + b"]" * 100_000, id="deeper-than-the-decoder"),
])
def test_cache_rebuilds_corrupt_entry(tmp_path, corrupt):
    key = {"kind": "test", "n": 1}
    entry = tmp_path / f"{content_hash(key)}.json"
    entry.write_bytes(corrupt)
    good = {"a": 1}
    assert cached_json(tmp_path, key, lambda: canonical_json(good)) == good
    assert entry.read_text() == canonical_json(good)
    assert cached_json(tmp_path, key, lambda: pytest.fail("hit expected")) == good


def test_cache_writes_through_unique_temporary(tmp_path):
    key = {"kind": "test", "n": 2}
    # a concurrent writer's leftover under the old shared name is not touched
    shared = tmp_path / f"{content_hash(key)}.tmp"
    shared.mkdir()
    good = [1, 2, 3]
    assert cached_json(tmp_path, key, lambda: canonical_json(good)) == good
    assert (tmp_path / f"{content_hash(key)}.json").read_text() == canonical_json(good)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [shared.name, f"{content_hash(key)}.json"])


def test_cache_version_change_is_a_miss(tmp_path, monkeypatch):
    key = {"kind": "test", "n": 3}
    old = {"built": "old"}
    assert cached_json(tmp_path, key, lambda: canonical_json(old)) == old
    assert cached_json(tmp_path, key, lambda: pytest.fail("hit expected")) == old
    monkeypatch.setattr(serialize, "CACHE_VERSION", serialize.CACHE_VERSION + 1)
    new = {"built": "new"}
    assert cached_json(tmp_path, key, lambda: canonical_json(new)) == new


# SHA-256 of the stdout of `s5 ball --word-bound b`, b = 0..4, by the
# CACHE_VERSION whose entries hold those windows.  When the window bytes
# change, raise CACHE_VERSION, so that entries written by older code are
# misses, and pin the new digests under it.
S5_BALL_DIGESTS = {
    1: (
        "169a852475978c3d75149cd8b325a6247893af8d5e961cb06b857e76bc01240d",
        "668d41764049eb8411a82d0c2c416dc6bfcb7a94427268e24886f159b2df4d0f",
        "fd153c507c58aa4ae22a945fa7e36583938731362dbb25de4689e960eefa7d63",
        "492e71a1c65f3a97dc753ec8568afb08f54cc09899d02125cd458fca485408b1",
        "5cec5c5575ad46e68f25a5e1f588619f316c074c041d21caf7fe19d3a8e85cac",
    ),
}


def test_cache_version_pins_the_window_bytes(runner, monkeypatch):
    monkeypatch.delenv(CACHE_ENV, raising=False)
    digests = tuple(
        hashlib.sha256(invoke(runner, ["s5", "ball", "--word-bound", str(b)])
                       .output.encode()).hexdigest()
        for b in range(5))
    assert digests == S5_BALL_DIGESTS.get(serialize.CACHE_VERSION)


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


@pytest.mark.parametrize("args", [
    ["farey", "window", "--height", "20000", "--format", "text"],
    ["verify", "--height", "20000", "--suites", "simplicial"],
], ids=["window", "verify"])
def test_running_out_of_memory_is_one_error_line(args):
    # the address-space limit is set in the child alone, before it starts
    resource = pytest.importorskip("resource")
    limit = 300 * 2**20

    def limited():
        resource.setrlimit(resource.RLIMIT_AS,
                           (limit, resource.getrlimit(resource.RLIMIT_AS)[1]))

    env = {k: v for k, v in os.environ.items() if k != CACHE_ENV}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-m", "curvelab.cli", *args], env=env,
                            capture_output=True, text=True, timeout=120,
                            preexec_fn=limited)
    assert (result.returncode, result.stdout, result.stderr) == (
        cli.EXIT_IO_ERROR, "", "error: out of memory\n")


def test_corrupt_window_cache_entry_is_rebuilt(runner, tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV, str(tmp_path))
    args = ["s5", "ball", "--word-bound", "1"]
    first = invoke(runner, args).output
    (entry,) = tmp_path.glob("*.json")
    entry.write_text(entry.read_text()[:40])
    result = invoke(runner, args)
    assert result.exit_code == 0 and result.output == first


def assert_one_error_line(args, env=None) -> str:
    """The command line exits 2 with one ``error:`` line; returns the line."""
    result = CliRunner(env=env).invoke(cli.main, args, catch_exceptions=False)
    assert result.exit_code == cli.EXIT_IO_ERROR, result.output
    assert "Traceback" not in result.output
    lines = result.output.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), result.output
    return lines[0]


def _commands(group=cli.main, path=()):
    for name, cmd in sorted(group.commands.items()):
        if isinstance(cmd, click.Group):
            yield from _commands(cmd, (*path, name))
        else:
            yield (*path, name), cmd


COMMANDS = dict(_commands())
GROUPS = [()] + sorted({path[:-1] for path in COMMANDS if len(path) > 1})


def _required(cmd) -> list[str]:
    """The command's required options, each given a well-formed value."""
    out = []
    for p in cmd.params:
        if isinstance(p, click.Option) and p.required:
            out += [p.opts[0], "1" if p.type is click.INT else "simplicial"]
    return out


def _malformed(path, cmd) -> dict[str, list[str]]:
    """Command lines that click itself refuses, by the form of the mistake."""
    arguments = ["1/0"] * sum(p.nargs for p in cmd.params if isinstance(p, click.Argument))
    forms = {
        "unknown-option": [*path, *_required(cmd), "--hieght", "3", *arguments],
        "extra-argument": [*path, *_required(cmd), *arguments, "extra"],
        "bad-choice": [*path, *_required(cmd), "--format", "xml", *arguments],
    }
    ints = [p.opts[0] for p in cmd.params
            if isinstance(p, click.Option) and p.type is click.INT]
    if ints:
        forms["bad-integer"] = [*path, *_required(cmd), ints[0], "abc", *arguments]
    return forms


@pytest.mark.parametrize("path", sorted(COMMANDS), ids=" ".join)
def test_malformed_command_lines_give_one_error_line(path):
    for args in _malformed(path, COMMANDS[path]).values():
        assert_one_error_line(args)


@pytest.mark.parametrize("path", GROUPS, ids=lambda path: " ".join(path) or "main")
def test_unknown_command_gives_one_error_line(path):
    assert assert_one_error_line([*path, "nosuch"]) == "error: No such command 'nosuch'."


@pytest.mark.parametrize("args,line", [
    (["farey", "window", "--hieght", "3"],
     "error: No such option '--hieght'. Did you mean '--height'?"),
    (["farey", "dist", "2/5", "1/0", "-x"], "error: Got unexpected extra argument (-x)"),
    (["verify", "--suites", "simplicial", "--height", "abc"],
     "error: Invalid value for '--height': 'abc' is not a valid integer."),
    (["verify", "--suites", "simplicial", "--format", "xml"],
     "error: Invalid value for '--format': 'xml' is not one of 'json', 'dot', 'text'."),
    (["nosuch"], "error: No such command 'nosuch'."),
])
def test_usage_errors_name_the_mistake(args, line):
    assert assert_one_error_line(args) == line


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(COMMANDS)),
       st.text("abcdefghijklmnopqrstuvwxyz-", min_size=1, max_size=12))
def test_unknown_option_names_give_one_error_line(path, name):
    cmd = COMMANDS[path]
    known = {opt for p in cmd.params for opt in p.opts} | {"--help"}
    if f"--{name}" in known or cmd.context_settings.get("ignore_unknown_options"):
        return
    assert_one_error_line([*path, *_required(cmd), f"--{name}"])


HELP_TEXTS = {
    (): """\
Usage: main [OPTIONS] COMMAND [ARGS]...

  Exact-arithmetic laboratory for curve graphs and their quotients.

Options:
  --help  Show this message and exit.

Commands:
  arc2      The arc complex of arcs between distinct punctures.
  farey     The Farey graph: slopes, distances, windows, closure samples.
  quotient  Quotients of windows by closure samples.
  s5        The curve graph of the five-punctured sphere.
  verify    Run verification suites over a window and its quotient.
""",
    ("farey",): """\
Usage: main farey [OPTIONS] COMMAND [ARGS]...

  The Farey graph: slopes, distances, windows, closure samples.

Options:
  --help  Show this message and exit.

Commands:
  closure       Sample the normal closure of a hyperbolic matrix power.
  displacement  Per-element window displacement of a closure sample.
  dist          Exact distance between two slopes, e.g.
  window        Induced subgraph on all slopes of height at most the bound.
""",
    ("verify",): """\
Usage: main verify [OPTIONS]

  Run verification suites over a window and its quotient.

Options:
  --instance [farey|s5]     [default: farey]
  --height INTEGER          farey window height  [default: 55]
  --matrix TEXT             base matrix a,b,c,d  [default: 2,1,1,1]
  --power INTEGER           [default: 8]
  --conj-len INTEGER        [default: 2]
  --depth INTEGER           [default: 1]
  --word-bound INTEGER      s5 window word bound  [default: 2]
  --sample TEXT             s5 sample words, comma separated
  --suites TEXT             comma-separated suite names  [required]
  --out TEXT                directory for report artifacts
  --seed INTEGER            seed for randomized relation checks  [default: 0]
  --format [json|dot|text]  [default: text]
  --help                    Show this message and exit.
""",
    ("quotient", "build"): """\
Usage: main quotient build [OPTIONS]

  Build the quotient window and its displacement report.

Options:
  --instance [farey|s5]     [default: farey]
  --height INTEGER          farey window height  [default: 55]
  --matrix TEXT             base matrix a,b,c,d  [default: 2,1,1,1]
  --power INTEGER           [default: 8]
  --conj-len INTEGER        [default: 2]
  --depth INTEGER           [default: 1]
  --word-bound INTEGER      s5 window word bound  [default: 2]
  --sample TEXT             s5 sample words, comma separated
  --format [json|dot|text]  [default: json]
  --help                    Show this message and exit.
""",
    ("farey", "closure"): """\
Usage: main farey closure [OPTIONS]

  Sample the normal closure of a hyperbolic matrix power.

Options:
  --matrix TEXT             base matrix a,b,c,d  [default: 2,1,1,1]
  --power INTEGER           [default: 8]
  --conj-len INTEGER        [default: 2]
  --depth INTEGER           [default: 1]
  --format [json|dot|text]  [default: json]
  --help                    Show this message and exit.
""",
    ("farey", "displacement"): """\
Usage: main farey displacement [OPTIONS]

  Per-element window displacement of a closure sample.

Options:
  --matrix TEXT             base matrix a,b,c,d  [default: 2,1,1,1]
  --power INTEGER           [default: 8]
  --conj-len INTEGER        [default: 2]
  --depth INTEGER           [default: 1]
  --height INTEGER          [default: 55]
  --format [json|dot|text]  [default: json]
  --help                    Show this message and exit.
""",
}


def test_help_is_unchanged(runner):
    result = invoke(runner, ["farey", "window", "--help"])
    assert result.exit_code == 0
    assert result.output.startswith("Usage: main farey window [OPTIONS]")
    # the help option's text is written out rather than looked up through
    # gettext; every help page reads as click wrote it, byte for byte
    for path, text in HELP_TEXTS.items():
        result = invoke(runner, [*path, "--help"], terminal_width=80)
        assert result.exit_code == 0 and result.output == text, path


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


def _drop_last_vertex(data):
    last = len(data["vertices"]) - 1
    del data["vertices"][last]
    data["edges"] = [e for e in data["edges"] if last not in e]


def _raise_last_vertex(data):
    data["vertices"][-1]["key"] = "9/1"


@pytest.mark.parametrize("edit", [
    lambda data: data["edges"].append([0, 999]),  # not a window
    lambda data: data["vertices"].pop(),  # its edges now leave the window
    _drop_last_vertex,  # a window, missing one slope
    _raise_last_vertex,  # a window, with a slope above the bound
    lambda data: data.update(bound=4),
], ids=["edge-out-of-range", "dropped-vertex", "dropped-vertex-and-edges",
        "slope-above-bound", "wrong-bound"])
def test_hand_edited_farey_cache_entry_is_ignored(runner, tmp_path, monkeypatch, edit):
    # Farey windows are always built, so the lattice enumeration of in-window
    # images always gets every slope of height <= the bound: an entry planted
    # under the description Farey windows were once cached by is never read,
    # and no entry is written
    commands = [["verify", "--height", "3", "--power", "1", "--conj-len", "0",
                 "--suites", "simplicial"],
                ["farey", "window", "--height", "3"]]
    monkeypatch.delenv(CACHE_ENV, raising=False)
    uncached = [invoke(runner, args).output for args in commands]
    data = window_json(farey.farey_window(3), str)
    edit(data)
    description = {"kind": "window", "instance": "farey", "height": 3,
                   "basepoint": "0/1"}
    entry = tmp_path / f"{content_hash(description)}.json"
    entry.write_text(canonical_json(data))
    monkeypatch.setenv(CACHE_ENV, str(tmp_path))
    for args, expected in zip(commands, uncached):
        result = invoke(runner, args)
        assert result.exit_code == 0 and result.output == expected
    assert list(tmp_path.iterdir()) == [entry]
    assert entry.read_text() == canonical_json(data)


def test_hand_edited_s5_cache_entry_exits_two(runner, tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV, str(tmp_path))
    args = ["s5", "ball", "--word-bound", "1"]
    assert invoke(runner, args).exit_code == 0
    (entry,) = tmp_path.glob("*.json")
    data = json.loads(entry.read_text())
    data["edges"].append([0, 999])
    entry.write_text(canonical_json(data))
    assert_one_error_line(args)


@pytest.mark.parametrize("edit", ["swap-words", "drop-words"])
def test_s5_cache_entry_without_true_witnesses_exits_two(runner, tmp_path,
                                                         monkeypatch, edit):
    # every cache hit has its witnesses checked, whatever command reads it
    monkeypatch.setenv(CACHE_ENV, str(tmp_path))
    args = ["s5", "ball", "--word-bound", "1"]
    assert invoke(runner, args).exit_code == 0
    (entry,) = tmp_path.glob("*.json")
    data = json.loads(entry.read_text())
    v = data["vertices"]
    if edit == "swap-words":
        v[7]["word"], v[8]["word"] = v[8]["word"], v[7]["word"]
    else:
        for rec in v:
            del rec["word"]
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
    elif kind == "self-loop":
        edge[1] = edge[0]
    elif kind == "swapped-edges":
        edges, other = data["edges"], (k + 1) % len(data["edges"])
        edges[k % len(edges)], edges[other] = edges[other], edge
    elif kind == "bad-key":
        vertex["key"] = vertex["key"].replace(",", ";", 1 + k % 3)
    elif kind == "duplicate-key":
        # a true witness word comes along, so only the repeat is wrong
        data["vertices"].append({**vertex, "id": len(data["vertices"])})
    elif kind == "wrong-instance":
        data["instance"] = "farey"
    elif kind == "bad-bound":
        data["bound"] = (-7, 0.5, "1", None, True)[k % 5]
    elif kind == "swapped-ids":
        other = data["vertices"][(k + 1) % 15]
        vertex["id"], other["id"] = other["id"], vertex["id"]
    elif kind == "float-edge":
        edge[:] = [float(x) for x in edge]
    else:
        del data[("instance", "bound", "vertices", "edges")[k % 4]]
    return json.dumps(data).encode()


MALFORMED_WINDOWS = st.one_of(
    st.binary(max_size=40),
    st.builds(_corrupt_window, st.sampled_from(
        ["reversed-edge", "edge-out-of-range", "repeated-edge", "self-loop",
         "swapped-edges", "bad-key", "duplicate-key", "wrong-instance", "bad-bound",
         "swapped-ids", "float-edge", "missing-field"]), st.integers(0, 20)),
)


@pytest.mark.parametrize("kind", ["duplicate-key", "wrong-instance", "bad-bound",
                                  "swapped-ids", "float-edge", "swapped-edges",
                                  "reversed-edge", "edge-out-of-range",
                                  "repeated-edge", "self-loop"])
def test_edited_window_file_exits_two(tmp_path, kind):
    # each edit keeps a true witness word on every vertex
    path = tmp_path / "window.json"
    path.write_bytes(_corrupt_window(kind, 0))
    assert_one_error_line(["s5", "pentagons", "--window", str(path)])


@FUZZ
@given(MALFORMED_WINDOWS)
def test_fuzz_malformed_window_file(tmp_path_factory, content):
    path = tmp_path_factory.mktemp("fuzz") / "window.json"
    path.write_bytes(content)
    assert_one_error_line(["s5", "pentagons", "--window", str(path)])


def _window_file_with_edges(path, edit) -> Path:
    """The true bound-2 window file with its edges edited by ``edit``."""
    data = window_json(s5windows.build_window(2), s5windows.curve_key_str)
    data["edges"] = sorted(edit(list(map(tuple, data["edges"]))))
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize("edit,message", [
    (lambda edges: [*edges, (0, 2)], "edge (0, 2) joins curves that meet"),
    (lambda edges: edges[1:], "no edge joins disjoint curves 0 and 1"),
], ids=["added-edge", "dropped-edge"])
def test_window_file_with_wrong_edges_exits_two(tmp_path, edit, message):
    # a true witness word on every vertex, the edges in order, one pair wrong
    path = _window_file_with_edges(tmp_path / "window.json", edit)
    line = assert_one_error_line(["s5", "pentagons", "--window", str(path)])
    assert message in line


def test_window_file_with_true_edges_or_no_words_is_read(runner, tmp_path):
    # the true file gives the window's 97 pentagons; a file without witness
    # words is a bare graph, read as its edges say
    path = _window_file_with_edges(tmp_path / "window.json", lambda edges: edges)
    result = invoke(runner, ["s5", "pentagons", "--window", str(path), "--format", "text"])
    assert result.exit_code == 0 and result.output == "97 pentagons\n"
    data = json.loads(path.read_text())
    data["edges"] = data["edges"][1:]
    for rec in data["vertices"]:
        del rec["word"]
    path.write_text(json.dumps(data))
    result = invoke(runner, ["s5", "pentagons", "--window", str(path), "--format", "text"])
    assert result.exit_code == 0 and result.output == "80 pentagons\n"


@pytest.mark.parametrize("bare", [0, 1, -1], ids=["first", "second", "last"])
def test_window_file_with_words_on_some_vertices_only_exits_two(tmp_path, bare):
    # words on every vertex but one: neither a witnessed window nor a bare graph
    path = _window_file_with_edges(tmp_path / "window.json", lambda edges: edges)
    data = json.loads(path.read_text())
    del data["vertices"][bare]["word"]
    path.write_text(json.dumps(data))
    line = assert_one_error_line(["s5", "pentagons", "--window", str(path)])
    assert line.endswith("words must align with vertices")


@FUZZ
@given(st.sets(st.tuples(st.integers(0, 40), st.integers(0, 40)).filter(
    lambda p: p[0] < p[1]), min_size=1, max_size=4))
def test_fuzz_window_file_with_flipped_pairs(tmp_path_factory, flips):
    # each flipped pair of the 41 vertices is an edge dropped or a non-edge
    # added; the error names the least of them
    path = _window_file_with_edges(tmp_path_factory.mktemp("flip") / "window.json",
                                   lambda edges: set(edges) ^ flips)
    line = assert_one_error_line(["s5", "pentagons", "--window", str(path)])
    named = re.findall(r"\d+", line.rpartition("window.json: ")[2])[:2]
    assert tuple(map(int, named)) == min(flips)


@FUZZ
@given(MALFORMED_WINDOWS)
def test_fuzz_malformed_window_cache_entry(tmp_path_factory, content):
    # planted as canonical JSON where it parses, the draw is a hit that the
    # reader refuses; otherwise it is a miss, and the entry is rebuilt
    args = ["s5", "ball", "--word-bound", "1"]
    fresh = CliRunner(env={CACHE_ENV: None}).invoke(cli.main, args).output
    directory = tmp_path_factory.mktemp("cache")
    description = {"kind": "window", "instance": "s5", "wordBound": 1}
    entry = directory / f"{content_hash(description)}.json"
    try:
        planted = canonical_json(json.loads(content))
    except ValueError:
        entry.write_bytes(content)
    else:
        entry.write_text(planted)
        assert_one_error_line(args, env={CACHE_ENV: str(directory)})
        return
    result = CliRunner(env={CACHE_ENV: str(directory)}).invoke(
        cli.main, args, catch_exceptions=False)
    assert result.exit_code == 0 and result.output == fresh
    assert entry.read_text() == fresh
