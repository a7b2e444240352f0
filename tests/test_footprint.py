"""Memory and import gates, each measured in a fresh interpreter.

Peak memory is the process's ``VmHWM`` from ``/proc/self/status``, read by
the process itself at exit, so these gates run on Linux only.  The rusage
``ru_maxrss`` of a child would not do: a child inherits its parent's
high-water mark across fork and exec, so under pytest it measures pytest.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from curvelab import cli
from curvelab.serialize import CACHE_ENV

pytestmark = pytest.mark.skipif(
    not Path("/proc/self/status").is_file(), reason="reads /proc/self/status")

# runs the CLI with argv[1:], if any, and prints the process's VmHWM in KiB last
PEAK_PROBE = """
import sys
from curvelab import cli
if sys.argv[1:]:
    try:
        cli.main(args=sys.argv[1:], prog_name="curvelab")
    except SystemExit as exc:
        assert not exc.code, exc.code
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
"""


def fresh_python(*args: str) -> str:
    """stdout of a new interpreter, with no site hooks, that imports
    curvelab and click from where this process does."""
    env = {k: v for k, v in os.environ.items() if k != CACHE_ENV}
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src, *(p for p in sys.path if p and Path(p).is_dir())])
    env["PYTHONHASHSEED"] = "0"
    return subprocess.run([sys.executable, "-S", *args], env=env, check=True,
                          capture_output=True, text=True).stdout


VERIFY_110 = ["verify", "--height", "110", "--power", "8", "--conj-len", "2",
              "--suites", "simplicial,lift,ball2,covering"]


def peak_kib(*args: str) -> int:
    """VmHWM of a fresh interpreter that imports the CLI and runs args."""
    return int(fresh_python("-c", PEAK_PROBE, *args).split()[-1])


def test_verify_out_adds_little_to_the_peak(tmp_path):
    without = peak_kib(*VERIFY_110)
    with_out = peak_kib(*VERIFY_110, "--out", str(tmp_path))
    assert (tmp_path / "quotient.json").is_file()
    # writing the artifacts at h=110 once took 9.8 MB above the run without
    assert with_out - without <= 3 * 1024, (without, with_out)


def test_verify_peaks_little_above_the_import():
    bare, run = peak_kib(), peak_kib(*VERIFY_110)
    # with a frozenset per vertex beside the neighbour tuples, on the window
    # and again on the quotient graph, the run peaked 25.2 MB above the import
    assert run - bare <= 21 * 1024, (bare, run)


def test_farey_window_peaks_little_above_the_import():
    bare, run = peak_kib(), peak_kib("farey", "window", "--height", "110")
    # 10 runs each, MB of 1024 KiB above the import: the window built from
    # each slope's neighbour progression, through a dict keyed by new (p, q)
    # tuples, peaked 6.94-7.05 (median 6.96); the mediant build, which hands
    # the window its slope-keyed dict as the index, 6.60-6.71.  The limit is
    # the former median plus 10%.  Keeping a list of edge pairs besides
    # peaked 8.4, and a second slope-keyed index on the window 7.66-7.82
    assert run - bare <= 7.66 * 1024, (bare, run)


def test_cli_import_loads_neither_openssl_nor_tempfile():
    new = fresh_python("-c", "import sys\n"
                             "before = set(sys.modules)\n"
                             "import curvelab.cli\n"
                             "print(*sorted(set(sys.modules) - before))").split()
    assert "curvelab.serialize" in new
    assert "_hashlib" not in new and "tempfile" not in new
    # nor dataclasses, whose generated methods took 15 ms of every start,
    # nor arc2, which only the arc2 commands read; it still imports alone
    assert "dataclasses" not in new and "curvelab.arc2" not in new
    alone = fresh_python("-c", "import sys\n"
                               "from curvelab import arc2\n"
                               "print(*sys.modules)").split()
    assert "curvelab.arc2" in alone and "dataclasses" not in alone


COLD_VERIFY = pytest.mark.parametrize("args", [
    ["verify", "--height", "30", "--power", "8", "--conj-len", "1",
     "--suites", "simplicial,lift,ball2,covering"],
    ["verify", "--instance", "s5", "--word-bound", "1", "--sample", "aa",
     "--suites", "simplicial,lift,ball2,covering,transfer,support,relations"],
], ids=["farey", "s5"])


@COLD_VERIFY
def test_verify_never_imports_locale(args):
    # click makes each command's help option while parsing its command line;
    # gettext's first lookup of the option's text imported locale, which took
    # 1.3-2.1 ms of every cold verify (-X importtime, 2-core box)
    probe = PEAK_PROBE + "print('locale' in sys.modules)\n"
    assert fresh_python("-c", probe, *args).split()[-1] == "False"


@COLD_VERIFY
def test_verify_never_imports_the_flip_layer(args):
    # the letter kernels and base curves are literals, so no command reads
    # a triangulation; generating and compiling the nine kernels from their
    # flips took about 1.9 ms of every cold S5 op
    probe = PEAK_PROBE + "print('curvelab.triangulation' in sys.modules)\n"
    assert fresh_python("-c", probe, *args).split()[-1] == "False"
