"""Alternated before/after measurements of two curvelab trees, for a BENCH file.

    python3 scripts/bench_pairs.py BEFORE AFTER OUT.json \
        [--curvebench-pairs 5] [--scenario-pairs 3] [--seed 301]

BEFORE and AFTER are checkouts, each holding ``src/curvelab`` and
``curvebench/``.  Two parts, each run as pairs whose order alternates (even
pairs BEFORE first, odd pairs AFTER first):

- curvebench: ``curvebench/run.py --workload W --seed S --seconds 40
  --trace 0`` from each tree, one seed per pair, for every workload; the
  end-to-end metrics are read off the run's last line.
- CLI scenarios (``SCENARIOS``: Farey ``verify`` at heights 55, 110 and 220
  with and without ``--out``, a small Farey ``verify --out`` at height 40
  (power 8, conjugator length 1), S5 ``verify --out`` and ``s5 ball`` at word
  bounds 3, 4 and 5, a witness-heavy S5 ``verify --out`` (sample ``cdcd``
  at word bound 4), ``farey window`` at height 220, one case-5 ``arc2
  fill``, ``farey dist``, whose wall time is mostly start-up, and ``farey
  closure`` and ``farey displacement``, which read a closure sample): one
  fresh interpreter per run with ``PYTHONHASHSEED=0`` and
  ``CURVELAB_CACHE`` unset.  Wall time is taken around the process; inside
  it, ``import_ms`` times ``from curvelab import cli`` and ``op_ms`` times
  ``cli.main``, so that a gain shows whether it moved between the import
  and the command, and the command's time without the noise of process
  start-up.  Peak memory is the process's own ``VmHWM`` (Linux), read at
  exit: the rusage ``ru_maxrss`` of a child carries the high-water mark of
  the process it was forked from.  The SHA-256 of stdout and of every ``--out``
  artifact must be equal on both sides.

Each metric is reported per side as median, quartiles and runs, with the
ratio of the medians and the number of pairs AFTER read lower.  Once OUT.json
is written, the script exits 1, naming each, if any scenario's outputs differ
or any curvebench run is not correct.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

FAREY = "simplicial,lift,ball2,covering"
S5 = "simplicial,lift,ball2,covering,transfer,support,relations"
HEIGHTS, BOUNDS = (55, 110, 220), (3, 4, 5)


def farey_verify(height: int, conj_len: int = 2) -> list[str]:
    return ["verify", "--instance", "farey", "--height", str(height), "--power", "8",
            "--conj-len", str(conj_len), "--suites", FAREY]


def s5_verify(bound: int, sample: str = "aa") -> list[str]:
    return ["verify", "--instance", "s5", "--word-bound", str(bound), "--sample", sample,
            "--suites", S5]


# name -> CLI arguments; a final "--out" is given a fresh directory per run
SCENARIOS = {
    **{f"farey verify h={h}": farey_verify(h) for h in HEIGHTS},
    **{f"farey verify h={h} --out": [*farey_verify(h), "--out"] for h in HEIGHTS},
    # farey-verify's median curvebench op, where start-up costs weigh most
    "farey verify h=40 K=8 c=1 --out": [*farey_verify(40, 1), "--out"],
    **{f"s5 verify bound {b} aa --out": [*s5_verify(b), "--out"] for b in BOUNDS},
    "s5 verify bound 4 cdcd --out": [*s5_verify(4, "cdcd"), "--out"],
    "farey window --height 220": ["farey", "window", "--height", "220"],
    **{f"s5 ball --word-bound {b}": ["s5", "ball", "--word-bound", str(b)]
       for b in BOUNDS},
    "arc2 fill case5": ["arc2", "fill", "0,0,1,0,1,0,1,0,1", "0,1,0,1,0,1,1,1,1",
                        "2,1,1,1,1,1,0,3,2"],
    "farey dist 2/5 1/0": ["farey", "dist", "2/5", "1/0"],
    "farey closure --conj-len 2 --depth 2": ["farey", "closure", "--conj-len", "2",
                                             "--depth", "2"],
    "farey displacement --height 220": ["farey", "displacement", "--height", "220"],
}

WORKLOADS = ("farey-verify", "s5-verify", "arc2-fill")
END_TO_END = ("op_p50_ms", "op_tail_ms", "setup_s", "peak_rss_mb")

# runs the CLI with argv[1:]; the last stderr line is the process's VmHWM in
# KiB, its exit code, and the seconds that importing the CLI and running it took
PROBE = """
import sys
import time
t0 = time.perf_counter()
from curvelab import cli
t1 = time.perf_counter()
code = 0
try:
    cli.main(args=sys.argv[1:], prog_name="curvelab")
except SystemExit as exc:
    code = exc.code
sys.stdout.flush()
t2 = time.perf_counter()
with open("/proc/self/status") as fh:
    hwm = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
sys.stderr.write(f"VmHWM {hwm} {code} {t1 - t0} {t2 - t1}\\n")
"""


def summary(runs: list[float]) -> dict:
    """Median and quartiles of the runs; a single run is all three."""
    q1, median, q3 = (statistics.quantiles(runs, n=4, method="inclusive")
                      if len(runs) > 1 else runs * 3)
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "runs": [round(x, 4) for x in runs]}


def compare(before: list[float], after: list[float]) -> dict:
    b, a = summary(before), summary(after)
    return {"before": b, "after": a,
            "after_over_before": round(a["median"] / b["median"], 4),
            "pairs_after_lower": sum(y < x for x, y in zip(before, after)),
            "pairs": len(before)}


def sides(pair: int) -> list[str]:
    return ["before", "after"] if pair % 2 == 0 else ["after", "before"]


def curvebench_run(tree: Path, workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, "curvebench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", "40", "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def curvebench_pairs(trees: dict, pairs: int, seed: int) -> dict:
    result = {}
    for workload in WORKLOADS:
        runs = {side: [] for side in trees}
        for pair in range(pairs):
            for side in sides(pair):
                runs[side].append(curvebench_run(trees[side], workload, seed + pair))
                print(f"curvebench {workload} pair {pair} {side}: "
                      f"{runs[side][-1]['metrics']}", file=sys.stderr, flush=True)
        result[workload] = {
            "seeds": list(range(seed, seed + pairs)),
            "attempted": {s: sum(r["attempted"] for r in runs[s]) for s in trees},
            "failed": {s: sum(r["failed"] for r in runs[s]) for s in trees},
            "all_correct": all(r["correct"] for s in trees for r in runs[s]),
            "metrics": {m: compare([r["metrics"][m]["value"] for r in runs["before"]],
                                   [r["metrics"][m]["value"] for r in runs["after"]])
                        for m in END_TO_END},
        }
    return result


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def scenario_run(tree: Path, args: list[str], work: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "CURVELAB_CACHE"}
    env["PYTHONPATH"] = str(tree / "src")
    env["PYTHONHASHSEED"] = "0"
    out_dir = work / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = [*args, str(out_dir)] if args[-1] == "--out" else args
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], env=env,
                          capture_output=True, check=True)
    wall = time.perf_counter() - t0
    _, hwm, code, import_s, op_s = proc.stderr.decode().strip().splitlines()[-1].split()
    files = {}
    if out_dir.is_dir():
        files = {p.name: sha256(p.read_bytes()) for p in sorted(out_dir.iterdir())}
    return {"wall_s": wall, "import_ms": float(import_s) * 1000,
            "op_ms": float(op_s) * 1000, "vmhwm_mb": int(hwm) / 1024, "exit": int(code),
            "digests": {"stdout": sha256(proc.stdout), **files}}


def scenario_pairs(trees: dict, pairs: int, scenarios: dict) -> dict:
    """Each of ``scenarios`` (name -> CLI arguments) run ``pairs`` times per tree."""
    result = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, args in scenarios.items():
            runs = {side: [] for side in trees}
            for pair in range(pairs):
                for side in sides(pair):
                    runs[side].append(scenario_run(trees[side], args, Path(tmp)))
            digests = {s: [r["digests"] for r in runs[s]] for s in trees}
            exits = {s: sorted({r["exit"] for r in runs[s]}) for s in trees}
            result[name] = {
                "args": args,
                "exit": exits,
                **{metric: compare([r[metric] for r in runs["before"]],
                                   [r[metric] for r in runs["after"]])
                   for metric in ("wall_s", "import_ms", "op_ms", "vmhwm_mb")},
                "sha256": runs["after"][0]["digests"],
                "outputs_equal": all(d == digests["before"][0]
                                     for s in trees for d in digests[s]),
            }
            print(f"scenario {name}: {result[name]['vmhwm_mb']['before']['median']} -> "
                  f"{result[name]['vmhwm_mb']['after']['median']} MB, equal "
                  f"{result[name]['outputs_equal']}", file=sys.stderr, flush=True)
    return result


def failures(report: dict) -> list[str]:
    """Every scenario whose outputs differ and every workload with an
    incorrect run, one line each."""
    return ([f"scenario {name!r}: outputs differ"
             for name, run in report["cli_scenarios"].items() if not run["outputs_equal"]]
            + [f"curvebench {name!r}: a run is not correct"
               for name, run in report.get("curvebench", {}).items()
               if not run["all_correct"]])


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    parser.add_argument("out", type=Path)
    parser.add_argument("--curvebench-pairs", type=int, default=5)
    parser.add_argument("--scenario-pairs", type=int, default=3)
    parser.add_argument("--seed", type=int, default=301)
    args = parser.parse_args(argv)
    trees = {"before": args.before.resolve(), "after": args.after.resolve()}
    report = {
        "machine": f"{os.cpu_count()} cores, {sys.platform}, Python "
                   f"{sys.version.split()[0]}",
        "order": "alternated: even pairs before first, odd pairs after first",
        "cli_scenarios": scenario_pairs(trees, args.scenario_pairs, SCENARIOS),
    }
    if args.curvebench_pairs:
        report["curvebench"] = curvebench_pairs(trees, args.curvebench_pairs, args.seed)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    problems = failures(report)
    if problems:
        sys.exit("\n".join([f"wrote {args.out}, but:", *problems]))


if __name__ == "__main__":
    main()
