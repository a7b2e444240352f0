"""Parent side of an operation: spawn the child, collect and check its output."""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
REFS = HERE / "refs"
TMP = ROOT / ".bench_tmp"
OP_TIMEOUT_S = 170


def require_source() -> None:
    """Refuse to run without the program's source next to the benchmark."""
    if not (ROOT / "src" / "curvelab" / "cli.py").is_file():
        raise SystemExit(f"error: no curvelab source under {ROOT / 'src'}")


def load_json(path: Path):
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rt") as fh:
        return json.load(fh)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("CURVELAB_CACHE", None)
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(TMP)
    return env


def _spawn(args: list[str], **kwargs) -> subprocess.Popen:
    env = child_env()
    env["CURVEBENCH_SPAWN"] = repr(time.perf_counter())
    return subprocess.Popen([sys.executable, str(CHILD), *args], env=env,
                            cwd=ROOT, **kwargs)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_digest(exit_code: int, stdout: bytes, out_dir: Path) -> dict:
    """Exit code plus SHA-256 of stdout and of every --out artifact."""
    files = {}
    if out_dir.is_dir():
        for path in sorted(out_dir.iterdir()):
            files[path.name] = sha256(path.read_bytes())
    return {"exit": exit_code, "stdout": sha256(stdout), "files": files}


def run_verify(entry: dict, trace: bool, tag: str) -> dict:
    """One cold verify op.  Returns the child's record plus ``digest``.

    A child that crashes, times out or writes no record yields a record with
    ``error`` set and no timings.
    """
    work = TMP / tag
    shutil.rmtree(work, ignore_errors=True)
    out_dir = work / "out"
    work.mkdir(parents=True)
    record_path = work / "record.json"
    stdout_path = work / "stdout"
    try:
        with open(stdout_path, "wb") as stdout, open(work / "stderr", "wb") as stderr:
            proc = _spawn(["verify", str(record_path), "1" if trace else "0",
                           *entry["args"], "--out", str(out_dir)],
                          stdout=stdout, stderr=stderr)
            try:
                proc.wait(timeout=OP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                return {"error": f"op {entry['id']} timed out"}
        if not record_path.is_file():
            err = (work / "stderr").read_text(errors="replace")[-2000:]
            return {"error": f"op {entry['id']} exited {proc.returncode}: {err}"}
        record = load_json(record_path)
        record["digest"] = output_digest(record["exit"], stdout_path.read_bytes(),
                                         out_dir)
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)


class Arc2Server:
    """A warm child holding the bound-3 window, fed one triangle at a time."""

    def __init__(self, trace: bool):
        TMP.mkdir(parents=True, exist_ok=True)
        self.proc = _spawn(["arc2", "1" if trace else "0"], stdin=subprocess.PIPE,
                           stdout=subprocess.PIPE, text=True)
        self.ready = self._read()

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait()
            raise RuntimeError(f"arc2 child exited {self.proc.returncode}")
        return json.loads(line)

    def op(self, arcs: list[str]) -> dict:
        self.proc.stdin.write(json.dumps({"arcs": arcs}) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> int:
        """Stop the child; returns its peak RSS in KiB."""
        try:
            self.proc.stdin.write(json.dumps({"quit": True}) + "\n")
            self.proc.stdin.close()
            maxrss = self._read()["maxrss_kb"]
            self.proc.wait(timeout=OP_TIMEOUT_S)
            return maxrss
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
