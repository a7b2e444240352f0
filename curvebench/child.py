"""One benchmark process: a cold ``verify`` op, or a warm arc2 server.

    child.py verify RECORD TRACE CLI-ARGS...
        Imports curvelab, runs the CLI once with CLI-ARGS (its stdout is this
        process's stdout) and writes a JSON record of the timings to RECORD.
    child.py arc2 TRACE
        Imports curvelab, builds the bound-3 window, prints a ready line and
        then answers one JSON request per stdin line: {"arcs": [k0, k1, k2]}
        runs classify_triangle then fill_triangle; {"quit": true} ends.

The parent passes its spawn time (time.perf_counter, CLOCK_MONOTONIC on
Linux and so shared between processes) in CURVEBENCH_SPAWN; set-up is the
interval from it to the point where the first op could start.  Every op is
bracketed by calibration kernels in this process.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import calib  # noqa: E402


def _import_curvelab():
    t0 = time.perf_counter()
    import curvelab.cli as cli

    import_s = time.perf_counter() - t0
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"curvelab imported from {cli.__file__}, not {SRC}")
    return cli, import_s


def _tracer(enabled: bool):
    if not enabled:
        return None
    import tracer

    t = tracer.Tracer()
    t.install()
    return t


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def verify(record_path: str, trace: bool, args: list[str]) -> None:
    spawn = float(os.environ["CURVEBENCH_SPAWN"])
    cli, import_s = _import_curvelab()
    tr = _tracer(trace)
    ready = time.perf_counter()
    cal0 = calib.calibrate()
    code, error = 0, None
    t0 = time.perf_counter()
    try:
        cli.main(args=args, prog_name="curvelab")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception:  # reported to the runner, which counts the op as failed
        error = traceback.format_exc()
    sys.stdout.flush()
    op_s = time.perf_counter() - t0
    cal1 = calib.calibrate()
    record = {
        "setup_s": ready - spawn, "import_s": import_s, "op_s": op_s,
        "cal0": cal0, "cal1": cal1, "exit": code, "error": error,
        "maxrss_kb": _maxrss_kb(),
        "trace": tr.snapshot() if tr else None,
    }
    with open(record_path, "w") as fh:
        json.dump(record, fh)


def _filling_json(filling: dict) -> str:
    return json.dumps(filling, sort_keys=True, separators=(",", ":"))


def arc2_server(trace: bool) -> None:
    spawn = float(os.environ["CURVEBENCH_SPAWN"])
    out = sys.stdout
    cli, import_s = _import_curvelab()
    from curvelab import arc2, s5windows

    tr = _tracer(trace)
    w = s5windows.build_window(3)
    ready = time.perf_counter()
    cal = calib.calibrate()

    def send(obj):
        out.write(json.dumps(obj) + "\n")
        out.flush()

    send({"setup_s": ready - spawn, "import_s": import_s, "cal": cal})
    for line in sys.stdin:
        request = json.loads(line)
        if request.get("quit"):
            break
        arcs = tuple(
            arc2.Arc2Vertex(s5windows.window_curve(
                w, w.index[s5windows.parse_curve_key(key)]))
            for key in request["arcs"]
        )
        if tr:
            tr.reset()
        outcome, filling, error = None, None, None
        cal0 = calib.calibrate()
        t0 = time.perf_counter()
        try:
            config = arc2.classify_triangle(arcs, w)
            filling = arc2.fill_triangle(config, w)
            outcome = config.kind
        except ValueError as exc:  # arc2's documented "cannot decide here"
            outcome, error = "undecided", str(exc)
        except Exception:
            outcome, error = "exception", traceback.format_exc()
        op_s = time.perf_counter() - t0
        cal1 = calib.calibrate()
        send({
            "op_s": op_s, "cal0": cal0, "cal1": cal1, "outcome": outcome,
            "error": error,
            "filling": None if filling is None else _filling_json(filling),
            "trace": tr.snapshot() if tr else None,
        })
    send({"maxrss_kb": _maxrss_kb()})


def main(argv: list[str]) -> None:
    if len(argv) >= 3 and argv[0] == "verify":
        verify(argv[1], argv[2] == "1", argv[3:])
    elif len(argv) == 2 and argv[0] == "arc2":
        arc2_server(argv[1] == "1")
    else:
        raise SystemExit(__doc__)


if __name__ == "__main__":
    main(sys.argv[1:])
