"""Record the reference outputs the runner checks every op against.

    python3 curvebench/make_refs.py

Runs every farey-verify and s5-verify menu entry once, exactly as the runner
does, and stores its exit code and the SHA-256 of its stdout and of each
--out artifact in refs/<workload>.json.  Enumerates the arc2 pool, every
pairwise interior-disjoint, endpoint-sharing arc triple of the bound-2
window, runs classify_triangle and fill_triangle on each in a warm child
with the bound-3 window, and stores the outcome, the filling JSON and the
drift-corrected op time in refs/arc2-pool.json.gz.  The runner checks the
first two; the time only orders each outcome's triangles for stratified
sampling.  Run it only on code whose outputs are known good.
"""

from __future__ import annotations

import gzip
import json
import sys
from itertools import combinations

import calib
import ops
import workloads


def _write(name: str, data) -> None:
    path = ops.REFS / name
    if path.suffix == ".gz":
        text = json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
        path.write_bytes(gzip.compress(text.encode(), 9, mtime=0))
    else:
        path.write_text(json.dumps(data, sort_keys=True, indent=1) + "\n")
    print(f"wrote {path}")


def verify_refs(workload: str) -> dict:
    refs = {}
    for entry in workloads.ROUNDS[workload]:
        rec = ops.run_verify(entry, False, f"ref-{entry['id']}")
        if rec.get("error"):
            raise SystemExit(f"{entry['id']}: {rec['error']}")
        refs[entry["id"]] = rec["digest"]
        print(f"{workload} {entry['id']}: exit {rec['exit']}, "
              f"op {rec['op_s']:.3f} s, set-up {rec['setup_s']:.3f} s", flush=True)
    return refs


def arc2_pool() -> list[dict]:
    sys.path.insert(0, str(ops.ROOT / "src"))
    from curvelab import arc2, s5windows

    w = s5windows.build_window(2)
    arcs = [arc2.Arc2Vertex(s5windows.window_curve(w, i)) for i in range(len(w))]
    triples = [
        t for t in combinations(arcs, 3)
        if all(x.endpoints & y.endpoints and arc2.arcs_disjoint(x, y)
               for x, y in combinations(t, 2))
    ]
    reference_s = ops.load_json(ops.HERE / "config.json")["reference_calibration_ms"] / 1000
    server = ops.Arc2Server(False)
    pool = []
    try:
        for t in triples:
            keys = [s5windows.curve_key_str(a.curve.coords) for a in t]
            rec = server.op(keys)
            if rec["outcome"] == "exception":
                raise SystemExit(f"{keys}: {rec['error']}")
            pool.append({
                "arcs": keys, "outcome": rec["outcome"], "error": rec["error"],
                "filling": None if rec["filling"] is None else json.loads(rec["filling"]),
                "ref_ms": round(calib.correct(rec["op_s"] * 1000, reference_s,
                                              rec["cal0"], rec["cal1"]), 3),
            })
    finally:
        server.close()
    counts = {}
    for entry in pool:
        counts[entry["outcome"]] = counts.get(entry["outcome"], 0) + 1
    print(f"arc2 pool: {len(pool)} triangles, {counts}")
    return pool


def main() -> None:
    ops.require_source()
    ops.REFS.mkdir(exist_ok=True)
    ops.TMP.mkdir(parents=True, exist_ok=True)
    for workload in ("farey-verify", "s5-verify"):
        _write(f"{workload}.json", verify_refs(workload))
    _write("arc2-pool.json.gz", arc2_pool())


if __name__ == "__main__":
    main()
