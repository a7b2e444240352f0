"""Command-line front end.

JSON is the source of truth for every artifact; text output is a derived
summary and DOT is available for graphs.  Identical invocations produce
byte-identical artifacts.  Windows are cached by a content hash of their
build description when CURVELAB_CACHE points at a directory, and built
directly, with no JSON round trip, when it does not.

Exit codes: 0 success (out-of-hypothesis included), 1 a verification suite
failed, 2 malformed input or I/O error.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from . import arc2 as arc2_mod
from . import farey as farey_mod
from . import quotient as quotient_mod
from . import s5windows, suites
from .serialize import cache_dir, cached_text, canonical_json
from .window import Window

EXIT_SUITE_FAILURE = 1
EXIT_IO_ERROR = 2

# suite -> (its other names, the instances it runs on, its call); each call
# looks its function up in ``suites`` when it runs, so a wrapper installed
# there after import is the one called
_ALL, _S5 = ("farey", "s5"), ("s5",)
SUITES = {
    "simplicial": ((), _ALL, lambda w, q, c, seed: suites.check_simplicial(q, c)),
    "lipschitz-lifting": (("lift", "lifting"), _ALL, lambda w, q, c, seed:
                          suites.verify_lipschitz_lifting(w, q, c)),
    "ball2-isometry": (("ball2",), _ALL, lambda w, q, c, seed:
                       suites.verify_ball2_isometry(w, q, c)),
    "local-covering": (("covering",), _ALL, lambda w, q, c, seed:
                       suites.verify_local_covering(w, q, c)),
    "pentagon-transfer": (("transfer",), _S5, lambda w, q, c, seed:
                          suites.transfer_pentagons(w, q, c)),
    "support-sets": (("support",), _S5, lambda w, q, c, seed:
                     suites.check_support_sets(w, q)),
    "relations": ((), _S5, lambda w, q, c, seed: suites.check_relations(seed=seed)),
}


def _fail(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(EXIT_IO_ERROR)


def _emit(data, fmt: str, text_fn=None, dot_fn=None) -> None:
    if fmt == "json":
        click.echo(canonical_json(data), nl=False)
    elif fmt == "dot":
        if dot_fn is None:
            _fail("dot output is only available for graphs")
        click.echo(dot_fn(), nl=False)
    else:
        click.echo(text_fn() if text_fn else canonical_json(data), nl=False)


def _format_option(default: str = "json"):
    return click.option(
        "--format", "fmt", type=click.Choice(["json", "dot", "text"]),
        default=default, show_default=True,
    )


@click.group()
def main():
    """Exact-arithmetic laboratory for curve graphs and their quotients."""


# ---------------------------------------------------------------- farey


@main.group()
def farey():
    """The Farey graph: slopes, distances, windows, closure samples."""


@farey.command("dist")
@click.argument("s")
@click.argument("t")
@_format_option(default="text")
def farey_dist(s, t, fmt):
    """Exact distance between two slopes, e.g. `farey dist 2/5 1/0`."""
    try:
        a, b = farey_mod.Slope.parse(s), farey_mod.Slope.parse(t)
    except (ValueError, ZeroDivisionError) as exc:
        _fail(str(exc))
    d = farey_mod.distance(a, b)
    _emit({"s": str(a), "t": str(b), "distance": d}, fmt, text_fn=lambda: f"{d}\n")


def _window(description: dict, build, key_str, str_key) -> Window:
    """The window ``build()`` makes, read through the cache when one is set."""
    if cache_dir() is None:
        return build()
    text = cached_text(description, lambda: canonical_json(build().to_json(key_str)))
    return Window.from_json(json.loads(text), str_key)


def _farey_window(height: int, basepoint: str) -> Window:
    try:
        base = farey_mod.Slope.parse(basepoint)
    except ValueError as exc:
        _fail(str(exc))
    return _window(
        {"kind": "window", "instance": "farey", "height": height,
         "basepoint": str(base)},
        lambda: farey_mod.farey_window(height, base),
        str, farey_mod.Slope.parse,
    )


@farey.command("window")
@click.option("--height", type=int, required=True)
@click.option("--basepoint", default="0/1", show_default=True)
@_format_option()
def farey_window_cmd(height, basepoint, fmt):
    """Induced subgraph on all slopes of height at most the bound."""
    if height <= 0:
        _fail("height must be positive")
    w = _farey_window(height, basepoint)
    _emit(
        w.to_json(str), fmt,
        dot_fn=lambda: w.to_dot(str),
        text_fn=lambda: f"farey window height {height}: "
                        f"{len(w)} vertices, {len(w.edges)} edges\n",
    )


def _closure_sample(matrix, power, conj_len, depth) -> farey_mod.ClosureSample:
    try:
        base = farey_mod.IntMatrix.parse(matrix)
        spec = farey_mod.FareyClosureSpec(base, power, conj_len, depth)
    except ValueError as exc:
        _fail(str(exc))
    return farey_mod.sample_closure(spec)


closure_options = [
    click.option("--matrix", default="2,1,1,1", show_default=True,
                 help="base matrix a,b,c,d"),
    click.option("--power", type=int, default=8, show_default=True),
    click.option("--conj-len", type=int, default=2, show_default=True),
    click.option("--depth", type=int, default=1, show_default=True),
]


def _with(options):
    def deco(fn):
        for opt in reversed(options):
            fn = opt(fn)
        return fn
    return deco


@farey.command("closure")
@_with(closure_options)
@_format_option()
def farey_closure(matrix, power, conj_len, depth, fmt):
    """Sample the normal closure of a hyperbolic matrix power."""
    sample = _closure_sample(matrix, power, conj_len, depth)
    _emit(
        sample.to_json(), fmt,
        text_fn=lambda: f"closure sample: {len(sample)} elements\n",
    )


@farey.command("displacement")
@_with(closure_options)
@click.option("--height", type=int, default=55, show_default=True)
@_format_option()
def farey_displacement(matrix, power, conj_len, depth, height, fmt):
    """Per-element window displacement of a closure sample."""
    if height <= 0:
        _fail("height must be positive")
    sample = _closure_sample(matrix, power, conj_len, depth)
    contract = quotient_mod.farey_contract(farey_mod.IntMatrix.parse(matrix))
    w = _farey_window(height, "0/1")
    report = quotient_mod.displacement_report(w, sample.words, contract)

    def text():
        lines = [f"{r['word']}: min {r['min']} at {r['argmin']}" for r in report]
        overall = min(r["min"] for r in report) if report else None
        lines.append(f"minimum over sample: {overall}")
        return "\n".join(lines) + "\n"

    _emit(report, fmt, text_fn=text)


# ---------------------------------------------------------------- s5


@main.group()
def s5():
    """The curve graph of the five-punctured sphere."""


def _s5_window(word_bound: int) -> Window:
    if word_bound < 0:
        _fail("word bound must be nonnegative")
    return _window(
        {"kind": "window", "instance": "s5", "wordBound": word_bound},
        lambda: s5windows.build_window(word_bound),
        s5windows.curve_key_str, s5windows.parse_curve_key,
    )


def _load_window(path: str) -> Window:
    try:
        data = json.loads(Path(path).read_text())
        return Window.from_json(data, s5windows.parse_curve_key)
    except (OSError, ValueError, KeyError, TypeError, AttributeError,
            RecursionError) as exc:
        _fail(f"cannot load window from {path}: {exc}")


@s5.command("ball")
@click.option("--word-bound", type=int, required=True)
@_format_option()
def s5_ball(word_bound, fmt):
    """Window of all images of the base pentagon under bounded words."""
    w = _s5_window(word_bound)
    _emit(
        w.to_json(s5windows.curve_key_str), fmt,
        dot_fn=lambda: w.to_dot(s5windows.curve_key_str),
        text_fn=lambda: f"s5 window bound {word_bound}: "
                        f"{len(w)} vertices, {len(w.edges)} edges\n",
    )


@s5.command("pentagons")
@click.option("--word-bound", type=int, default=None)
@click.option("--window", "window_file", default=None,
              help="window JSON file instead of --word-bound")
@_format_option()
def s5_pentagons(word_bound, window_file, fmt):
    """All embedded pentagons (chordless 5-cycles) of a window."""
    if (word_bound is None) == (window_file is None):
        _fail("give exactly one of --word-bound and --window")
    w = _s5_window(word_bound) if window_file is None else _load_window(window_file)
    pents = s5windows.enumerate_pentagons(w)
    data = {"count": len(pents), "pentagons": [list(p) for p in pents]}
    _emit(data, fmt, text_fn=lambda: f"{len(pents)} pentagons\n")


@s5.command("halftwist")
@click.option("--alpha", type=int, required=True, help="window vertex id")
@click.option("--beta", type=int, required=True, help="window vertex id")
@click.option("--word-bound", type=int, default=None)
@click.option("--window", "window_file", default=None)
@_format_option()
def s5_halftwist(alpha, beta, word_bound, window_file, fmt):
    """Detect the half-twist pair about beta applied to alpha."""
    if (word_bound is None) == (window_file is None):
        _fail("give exactly one of --word-bound and --window")
    if alpha == beta:
        _fail("alpha and beta must be distinct")
    w = _s5_window(word_bound) if window_file is None else _load_window(window_file)
    if not (0 <= alpha < len(w) and 0 <= beta < len(w)):
        _fail("alpha and beta must be window vertex ids")
    try:
        detected = sorted(s5windows.detect_half_twists(w, alpha, beta))
    except ValueError as exc:
        _fail(str(exc))
    data = {
        "alpha": alpha,
        "beta": beta,
        "detected": [
            {"id": g, "key": s5windows.curve_key_str(w.vertices[g])}
            for g in detected
        ],
    }
    _emit(data, fmt,
          text_fn=lambda: f"detected {len(detected)} curves: {detected}\n")


# ---------------------------------------------------------------- arc2


@main.group()
def arc2():
    """The arc complex of arcs between distinct punctures."""


def _parse_arcs(keys: tuple[str, ...], w: Window):
    arcs = []
    for key in keys:
        coords = s5windows.parse_curve_key(key)
        if coords not in w.index:
            _fail(f"curve {key} is not in the window; raise --word-bound")
        arcs.append(arc2_mod.Arc2Vertex(s5windows.window_curve(w, w.index[coords])))
    return tuple(arcs)


@arc2.command("classify")
@click.argument("arcs", nargs=3)
@click.option("--word-bound", type=int, default=3, show_default=True,
              help="window bound for the epsilon-arc search")
@_format_option()
def arc2_classify(arcs, word_bound, fmt):
    """Classify a triangle of arcs, given as three comma-coordinate keys."""
    w = _s5_window(word_bound)
    try:
        config = arc2_mod.classify_triangle(_parse_arcs(arcs, w), w)
    except ValueError as exc:
        _fail(str(exc))
    data = {
        "kind": config.kind,
        "arcs": [a.to_json() for a in config.arcs],
        "epsilons": [e.to_json() for e in config.epsilons],
    }
    _emit(data, fmt, text_fn=lambda: f"{config.kind}\n")


@arc2.command("fill")
@click.argument("arcs", nargs=3)
@click.option("--word-bound", type=int, default=3, show_default=True)
@_format_option()
def arc2_fill(arcs, word_bound, fmt):
    """Fill the delta-loop of a triangle of arcs with tripod or pentagons."""
    w = _s5_window(word_bound)
    try:
        config = arc2_mod.classify_triangle(_parse_arcs(arcs, w), w)
        filling = arc2_mod.fill_triangle(config, w)
    except ValueError as exc:
        _fail(str(exc))
    _emit(
        filling, fmt,
        text_fn=lambda: f"{filling['kind']}: {filling['cells']}, "
                        f"{len(filling['pentagons'])} pentagons\n",
    )


# ---------------------------------------------------------------- quotient


def _build_quotient(instance, height, matrix, power, conj_len, depth,
                    word_bound, sample_csv):
    if height <= 0:
        _fail("height must be positive")
    if word_bound < 0:
        _fail("word bound must be nonnegative")
    if instance == "farey":
        sample = _closure_sample(matrix, power, conj_len, depth).words
        contract = quotient_mod.farey_contract(farey_mod.IntMatrix.parse(matrix))
        w = _farey_window(height, "0/1")
    else:
        contract = quotient_mod.s5_contract()
        words = tuple(x for x in (sample_csv or "").split(",") if x)
        try:
            sample = quotient_mod.s5_sample(words)
        except ValueError as exc:
            _fail(str(exc))
        w = _s5_window(word_bound)
        try:  # a window read from the cache has its witnesses checked here
            s5windows.witness_readers(w)
        except ValueError as exc:
            _fail(str(exc))
    return w, quotient_mod.build_quotient(w, sample, contract), contract


quotient_options = [
    click.option("--instance", type=click.Choice(["farey", "s5"]),
                 default="farey", show_default=True),
    click.option("--height", type=int, default=55, show_default=True,
                 help="farey window height"),
    *closure_options,
    click.option("--word-bound", type=int, default=2, show_default=True,
                 help="s5 window word bound"),
    click.option("--sample", "sample_csv", default="",
                 help="s5 sample words, comma separated"),
]


@main.group("quotient")
def quotient_group():
    """Quotients of windows by closure samples."""


@quotient_group.command("build")
@_with(quotient_options)
@_format_option()
def quotient_build(instance, height, matrix, power, conj_len, depth,
                   word_bound, sample_csv, fmt):
    """Build the quotient window and its displacement report."""
    w, q, contract = _build_quotient(
        instance, height, matrix, power, conj_len, depth,
        word_bound, sample_csv,
    )
    _emit(
        q.to_json(contract), fmt,
        dot_fn=lambda: q.graph.to_dot(contract.key_str),
        text_fn=lambda: f"{instance} quotient: {len(q)} classes of "
                        f"{len(w)} vertices, min displacement "
                        f"{q.min_displacement}\n",
    )


# ---------------------------------------------------------------- verify


@main.command("verify")
@_with(quotient_options)
@click.option("--suites", "suite_csv", required=True,
              help="comma-separated suite names")
@click.option("--out", "out_dir", default=None,
              help="directory for report artifacts")
@click.option("--seed", type=int, default=0, show_default=True,
              help="seed for randomized relation checks")
@_format_option(default="text")
def verify(instance, height, matrix, power, conj_len, depth,
           word_bound, sample_csv, suite_csv, out_dir, seed, fmt):
    """Run verification suites over a window and its quotient."""
    names = []
    for raw in suite_csv.split(","):
        raw = raw.strip()
        name = next((n for n, (aliases, _, _) in SUITES.items()
                     if raw == n or raw in aliases), None)
        if name is None:
            _fail(f"unknown suite {raw!r}")
        names.append(name)
    for name in names:
        if instance not in SUITES[name][1]:
            _fail(f"suite {name!r} is not available for instance {instance!r}")

    w, q, contract = _build_quotient(
        instance, height, matrix, power, conj_len, depth,
        word_bound, sample_csv,
    )
    reports = [SUITES[n][2](w, q, contract, seed) for n in names]

    if out_dir is not None:
        try:
            out = Path(out_dir)
            out.mkdir(parents=True, exist_ok=True)
            (out / "window.json").write_text(
                canonical_json(w.to_json(contract.key_str)))
            (out / "quotient.json").write_text(
                canonical_json(q.to_json(contract)))
            for rep in reports:
                (out / f"report-{rep['suite']}.json").write_text(
                    canonical_json(rep))
        except OSError as exc:
            _fail(f"cannot write artifacts: {exc}")

    def text():
        lines = []
        for rep in reports:
            lines.append(
                f"{rep['suite']}: {rep['status']} "
                f"(eligible {rep['eligible']}, truncated {rep['truncated']}, "
                f"witnesses {len(rep['witnesses'])})"
            )
        return "\n".join(lines) + "\n"

    _emit(reports, fmt, text_fn=text)
    if any(rep["status"] == "fail" for rep in reports):
        sys.exit(EXIT_SUITE_FAILURE)


if __name__ == "__main__":
    main()
