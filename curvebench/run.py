"""curvelab benchmark runner.

    python3 curvebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 curvebench/run.py --workload NAME --seed N --seconds S --steadiness
    python3 curvebench/run.py --calib-check

Runs one workload from the root of a checkout and checks every op's output
against the references in curvebench/refs.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones; with --trace 1 they are the per-layer
ones, from ops traced from outside (see tracer.py) and paired with untraced
runs of the same ops to measure the tracing overhead.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import time

import benchstats
import calib
import ops
import tracer
import workloads

# Stop starting ops after this long, so that a run always exits within 180 s.
DEADLINE_S = 150.0
# Warm arc2 processes started per untraced run; setup_s is their median.
SETUPS = 7


class Run:
    """Timings and failures collected over one run of one workload."""

    def __init__(self, workload: str, reference_s: float):
        self.workload = workload
        self.reference_s = reference_s
        self.attempted = 0
        self.failed = 0
        self.op_ms: list[float] = []
        self.raw_op_ms: list[float] = []
        self.setup_s: list[float] = []
        self.import_ms: list[float] = []
        self.calib_ms: list[float] = []
        self.peak_rss_kb = 0
        self.layers: list[dict] = []
        self.values: dict[str, float] = {}
        self.arc2_attempted = 0
        self.arc2_filled = 0
        self.traced_ms = 0.0
        self.untraced_ms = 0.0
        self.skipped = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"FAILED: {message}", flush=True)

    def op(self, rec: dict, ok: bool, what: str) -> float | None:
        """Account one op record; returns its corrected time in ms."""
        self.attempted += 1
        if "op_s" not in rec:
            self.fail(rec.get("error", what))
            return None
        if not ok:
            self.fail(f"{what}: output differs from the reference"
                      + (f"\n{rec['error']}" if rec.get("error") else ""))
        self.calib_ms += [rec["cal0"] * 1000, rec["cal1"] * 1000]
        return calib.correct(rec["op_s"] * 1000, self.reference_s,
                             rec["cal0"], rec["cal1"])

    def untraced(self, rec: dict, corrected: float | None) -> None:
        if corrected is None:
            return
        self.op_ms.append(corrected)
        self.raw_op_ms.append(rec["op_s"] * 1000)
        self.untraced_ms += corrected

    def traced(self, rec: dict, corrected: float | None) -> None:
        if corrected is None:
            return
        self.traced_ms += corrected
        snap = rec["trace"]
        scale = self.reference_s * 2 / (rec["cal0"] + rec["cal1"])
        self.layers.append(tracer.op_values(snap, scale))
        for key, value in snap["values"].items():
            self.values[key] = self.values.get(key, 0) + value

    def setup(self, setup_s: float, import_s: float, cal: float) -> None:
        self.setup_s.append(calib.correct(setup_s, self.reference_s, cal))
        self.import_ms.append(calib.correct(import_s * 1000, self.reference_s, cal))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def run_verify_workload(run: Run, seed: int, rounds: int, trace: bool,
                        deadline: float) -> None:
    refs = ops.load_json(ops.REFS / f"{run.workload}.json")
    schedule = workloads.verify_schedule(run.workload, seed, rounds)
    for k, entry in enumerate(schedule):
        if time.monotonic() > deadline:
            run.skipped = len(schedule) - k
            break
        modes = (False, True) if trace else (False,)
        for traced in modes:
            rec = ops.run_verify(entry, traced, f"{os.getpid()}-{k}-{int(traced)}")
            ok = rec.get("error") is None and rec.get("digest") == refs[entry["id"]]
            corrected = run.op(rec, ok, f"{run.workload} {entry['id']}")
            if corrected is None:
                continue
            run.peak_rss_kb = max(run.peak_rss_kb, rec["maxrss_kb"])
            (run.traced if traced else run.untraced)(rec, corrected)
            if traced == trace:
                run.setup(rec["setup_s"], rec["import_s"], rec["cal0"])


def _check_arc2(entry: dict, rec: dict) -> bool:
    if rec.get("outcome") != entry["outcome"]:
        return False
    if entry["outcome"] == "undecided":
        return True
    expected = json.dumps(entry["filling"], sort_keys=True, separators=(",", ":"))
    return rec.get("filling") == expected


def run_arc2_workload(run: Run, seed: int, rounds: int, trace: bool,
                      deadline: float) -> None:
    pool = ops.load_json(ops.REFS / "arc2-pool.json.gz")
    schedule = workloads.arc2_schedule(pool, seed, rounds)
    servers = []
    try:
        if trace:
            servers = [ops.Arc2Server(False), ops.Arc2Server(True)]
        else:
            # several set-ups for a steady median; the last one serves the ops
            for _ in range(SETUPS):
                servers.append(ops.Arc2Server(False))
                if len(servers) < SETUPS:
                    run.peak_rss_kb = max(run.peak_rss_kb, servers[-1].close())
        for server in servers:
            ready = server.ready
            run.setup(ready["setup_s"], ready["import_s"], ready["cal"])
        active = servers[-2:] if trace else servers[-1:]
        for k, entry in enumerate(schedule):
            if time.monotonic() > deadline:
                run.skipped = len(schedule) - k
                break
            for traced, server in zip((False, True), active):
                rec = server.op(entry["arcs"])
                what = f"arc2-fill {entry['outcome']} {','.join(entry['arcs'])}"
                corrected = run.op(rec, _check_arc2(entry, rec), what)
                if traced:
                    run.traced(rec, corrected)
                    run.arc2_attempted += 1
                    run.arc2_filled += rec.get("filling") is not None
                else:
                    run.untraced(rec, corrected)
    finally:
        for server in servers:
            if server.proc.poll() is None:
                run.peak_rss_kb = max(run.peak_rss_kb, server.close())


def end_to_end_metrics(run: Run) -> tuple[dict, list[str]]:
    p50 = benchstats.median(run.op_ms)
    tail, pct = benchstats.tail(run.op_ms)
    setup = benchstats.median(run.setup_s)
    rss = run.peak_rss_kb / 1024
    n, s = len(run.op_ms), len(run.setup_s)
    lines = [
        f"op_p50_ms = {p50:.3f} ms (p50 of {n} ops)",
        f"op_tail_ms = {tail:.3f} ms (p{pct:.1f} of {n} ops)",
        f"setup_s = {setup:.4f} s (median of {s} set-ups)",
        f"peak_rss_mb = {rss:.2f} MB (largest over the run's processes)",
    ]
    metrics = {
        "op_p50_ms": {"value": p50, "unit": "ms"},
        "op_tail_ms": {"value": tail, "unit": "ms"},
        "setup_s": {"value": setup, "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }
    return metrics, lines


LAYER_UNITS = {"calls": "count", "classes": "count", "bytes": "bytes",
               "ms": "ms", "self_ms": "ms"}


def per_layer_metrics(run: Run) -> tuple[dict, list[str]]:
    if not run.layers:
        raise SystemExit(f"error: no traced {run.workload} op completed")
    metrics = {}
    for name in run.layers[0]:
        per_op = [layer[name] for layer in run.layers]
        unit = LAYER_UNITS[name.rsplit(".", 1)[1]]
        metrics[name] = {"value": benchstats.median(per_op), "unit": unit}
    v = run.values
    eligible = v.get("suites.eligible", 0)
    ratios = {
        "suites.decided_ratio": _ratio(eligible - v.get("suites.truncated", 0),
                                       eligible),
        "s5windows.build_window.edge_yield": _ratio(
            v.get("s5windows.build_window.edges", 0),
            v.get("s5windows.build_window.intersections", 0)),
        "arc2.decided_ratio": _ratio(run.arc2_filled, run.arc2_attempted),
        "trace.overhead_ratio": _ratio(run.traced_ms, run.untraced_ms),
    }
    for name, value in ratios.items():
        metrics[name] = {"value": value, "unit": "ratio"}
    metrics["cli.import_ms"] = {"value": benchstats.median(run.import_ms),
                                "unit": "ms"}
    metrics["machine.calib_ms"] = {"value": benchstats.median(run.calib_ms),
                                   "unit": "ms"}
    metrics["machine.wall_op_p50_ms"] = {
        "value": benchstats.median(run.raw_op_ms), "unit": "ms"}
    lines = [f"{k} = {m['value']:.6g} {m['unit']}" for k, m in sorted(metrics.items())]
    lines.append(f"(per-op medians over {len(run.layers)} traced ops; "
                 "ratios over run totals)")
    return metrics, lines


def git_revision() -> str:
    if not (ops.ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ops.ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment() -> dict:
    return {"git": git_revision(), "python": platform.python_version(),
            "nproc": os.cpu_count()}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 config: dict) -> tuple[Run, dict, list[str]]:
    reference_s = config["reference_calibration_ms"] / 1000
    rounds = workloads.rounds_for(seconds, config["round_s"][workload])
    if trace:
        # every op runs untraced and traced, so halve the rounds
        rounds = max(1, rounds // 2)
    run = Run(workload, reference_s)
    deadline = time.monotonic() + DEADLINE_S
    ops.TMP.mkdir(parents=True, exist_ok=True)
    if workload == "arc2-fill":
        run_arc2_workload(run, seed, rounds, trace, deadline)
    else:
        run_verify_workload(run, seed, rounds, trace, deadline)
    if not run.op_ms:
        raise SystemExit(f"error: no {workload} op completed")
    metrics, lines = (per_layer_metrics if trace else end_to_end_metrics)(run)
    head = (f"# {workload} seed={seed} seconds={seconds:g} trace={int(trace)} "
            f"rounds={rounds} attempted={run.attempted} failed={run.failed}")
    if run.skipped:
        head += f" skipped={run.skipped} (deadline)"
    return run, metrics, [head] + lines


def steadiness(workload: str, seed: int, seconds: float, config: dict) -> None:
    """Run a workload twice and compare every end-to-end metric to its bound."""
    bench = ops.load_json(ops.ROOT / "BENCHMARK.json")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    results = []
    for s in (seed, seed + 1):
        run, metrics, lines = run_workload(workload, s, seconds, False, config)
        print("\n".join(lines), flush=True)
        results.append(metrics)
    print(f"{'metric':<14}{'first':>12}{'second':>12}{'rel diff':>10}"
          f"{'bound':>8}{'third':>8}")
    for name, bound in bounds.items():
        a, b = results[0][name]["value"], results[1][name]["value"]
        diff = benchstats.relative_difference(a, b)
        mark = "ok" if abs(diff) <= bound / 3 else "WIDE"
        print(f"{name:<14}{a:>12.4f}{b:>12.4f}{diff:>+10.3%}{bound:>8.2f}"
              f"{mark:>8}")


def calib_check(config: dict) -> None:
    """Show that the calibration kernel ignores a large live heap."""
    bench = ops.load_json(ops.ROOT / "BENCHMARK.json")
    bound = {m["name"]: m["bound"] for m in bench["end_to_end"]}["op_p50_ms"]

    def sample(k=40):
        return [calib.calibrate() * 1000 for _ in range(k)]

    def peak_mb():
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    before = sample()
    base_mb = peak_mb()
    heap = [[i, i + 1] for i in range(1_300_000)]  # lists of ints: about 200 MB
    gc.collect()
    heap_mb = peak_mb() - base_mb
    loaded = sample()
    del heap
    gc.collect()
    after = sample()
    empty = statistics.median(before + after)
    full = statistics.median(loaded)
    diff = benchstats.relative_difference(empty, full)
    print(f"calibration without heap {empty:.4f} ms, with {heap_mb:.0f} MB "
          f"live {full:.4f} ms, difference {diff:+.2%} (bound {bound:.0%})")
    print(json.dumps({
        "reference_calibration_ms": config["reference_calibration_ms"],
        "calib_ms_empty_heap": empty, "calib_ms_large_heap": full,
        "live_heap_mb": heap_mb, "relative_difference": diff, "bound": bound,
        "within_bound": abs(diff) <= bound, "environment": environment(),
    }))
    if abs(diff) > bound:
        raise SystemExit(1)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true",
                        help="run twice (seeds N and N+1) and compare to bounds")
    parser.add_argument("--calib-check", action="store_true",
                        help="compare the kernel with and without a 200 MB heap")
    args = parser.parse_args(argv)
    ops.require_source()
    config = ops.load_json(ops.HERE / "config.json")
    if args.calib_check:
        calib_check(config)
        return
    if args.workload is None:
        parser.error("--workload is required")
    if args.steadiness:
        steadiness(args.workload, args.seed, args.seconds, config)
        return
    run, metrics, lines = run_workload(args.workload, args.seed, args.seconds,
                                       bool(args.trace), config)
    env = environment()
    lines.insert(1, f"# env: python {env['python']}, nproc {env['nproc']}, "
                    f"git {env['git']}, reference calibration "
                    f"{config['reference_calibration_ms']} ms")
    print("\n".join(lines))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}), flush=True)


if __name__ == "__main__":
    main()
