"""Command-line front end.

JSON is the source of truth for every artifact; text output is a derived
summary and DOT is available for graphs.  Identical invocations produce
byte-identical artifacts.  Every window comes from ``_farey_window`` or
``_s5_window``, which check their own arguments.  Farey windows are always
built, since reading one back is slower than building it.  S5 windows are
built, or read as JSON from a ``--window`` file or, when CURVELAB_CACHE
points at a directory, from a cache entry keyed by their build description;
either JSON goes through one reader, which exits 2 on a window that is
malformed or whose witness words do not give its vertices (or a file's edges).
Only the ``arc2`` commands import ``arc2``; the others start without it.
Each ``--help`` option is spelled out (``_LiteralHelp``): click makes it
while parsing, through gettext, whose first lookup imports ``locale``; click
ships no message catalogs, so the text is the same.

Exit codes: 0 success (out-of-hypothesis included), 1 a verification suite
failed, 2 malformed input, I/O error or running out of memory.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from . import farey as farey_mod
from . import quotient as quotient_mod
from . import s5windows, suites
from .serialize import cache_dir, cached_json, canonical_json, json_object
from .window import Window

EXIT_SUITE_FAILURE = 1
EXIT_IO_ERROR = 2

# suite -> (its other names, the instances it runs on, its call); each call
# looks its function up in ``suites`` when it runs, so a wrapper installed
# there after import is the one called
_ALL, _S5 = ("farey", "s5"), ("s5",)
SUITES = {
    "simplicial": ((), _ALL, lambda q, seed: suites.check_simplicial(q)),
    "lipschitz-lifting": (("lift", "lifting"), _ALL,
                          lambda q, seed: suites.verify_lipschitz_lifting(q)),
    "ball2-isometry": (("ball2",), _ALL, lambda q, seed: suites.verify_ball2_isometry(q)),
    "local-covering": (("covering",), _ALL,
                       lambda q, seed: suites.verify_local_covering(q)),
    "pentagon-transfer": (("transfer",), _S5,
                          lambda q, seed: suites.transfer_pentagons(q)),
    "support-sets": (("support",), _S5, lambda q, seed: suites.check_support_sets(q)),
    "relations": ((), _S5, lambda q, seed: suites.check_relations(seed)),
}


def _fail(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(EXIT_IO_ERROR)


def _emit(data, fmt: str, text_fn, dot_fn=None) -> None:
    """Write ``data`` in ``fmt``: a JSON value, or, for a window or quotient,
    a function giving the field texts its JSON is written from piece by
    piece, never joined."""
    if fmt == "text":
        click.echo(text_fn(), nl=False)
    elif fmt == "dot":  # only graphs take it (``_format_option``)
        click.echo(dot_fn(), nl=False)
    elif callable(data):
        for piece in json_object(data()):
            click.echo(piece, nl=False)
    else:
        try:
            text = canonical_json(data)
        except ValueError:  # json refuses integers above the digit limit
            _fail(f"an integer in the output has more than "
                  f"{sys.get_int_max_str_digits()} digits; try --format text")
        click.echo(text, nl=False)


def _emit_window(w: Window, fmt: str, key_str, title: str) -> None:
    _emit(lambda: w.json_fields(key_str), fmt, dot_fn=lambda: w.to_dot(key_str),
          text_fn=lambda: f"{title}: {len(w)} vertices, "
                          f"{sum(map(len, w.neighbors)) // 2} edges\n")


def _refuse_dot(ctx, param, fmt: str) -> str:
    if fmt == "dot":
        _fail("dot output is only available for graphs")
    return fmt


def _format_option(default: str = "json", graph: bool = False):
    """``--format``; a command that prints no graph refuses dot while parsing."""
    return click.option(
        "--format", "fmt", type=click.Choice(["json", "dot", "text"]),
        default=default, show_default=True, callback=None if graph else _refuse_dot,
    )


# a group given no command prints its help: a usage error from click 8.2 on
_NO_ARGS_IS_HELP = getattr(click.exceptions, "NoArgsIsHelpError", ())


def _one_line_errors(call, *args, **kwargs):
    try:
        return call(*args, **kwargs)
    except _NO_ARGS_IS_HELP:
        raise
    except click.UsageError as exc:
        _fail(exc.format_message())
    except MemoryError:
        pass  # reported once the handler has let go of the failed frames
    _fail("out of memory")


class _LiteralHelp:
    """click's help option with its text written out, made once and kept on
    the command: click keeps none before 8.1.8, where it makes one per call."""

    def get_help_option(self, ctx):
        names = self.get_help_option_names(ctx)
        if not names or not self.add_help_option:
            return None
        if getattr(self, "_literal_help", None) is None:
            self._literal_help = click.Option(
                names, is_flag=True, expose_value=False, is_eager=True,
                help="Show this message and exit.", callback=self._show_help)
        return self._literal_help

    def _show_help(self, ctx, param, value) -> None:
        if value and not ctx.resilient_parsing:
            click.echo(ctx.get_help(), color=ctx.color)
            ctx.exit()


_Command = type("_Command", (_LiteralHelp, click.Command), {})
_Group = type("_Group", (_LiteralHelp, click.Group), {"command_class": _Command})


class _OneLineErrors(_Group):
    """The root group: a malformed command line anywhere below it (an
    unknown option or command, a bad value, an extra argument) prints one
    ``error:`` line and exits 2, where click would print its usage block;
    so does running out of memory, since exit 1 means a suite failed."""

    group_class = _Group

    def make_context(self, *args, **kwargs):
        return _one_line_errors(super().make_context, *args, **kwargs)

    def invoke(self, ctx):
        return _one_line_errors(super().invoke, ctx)


@click.group(cls=_OneLineErrors)
def main():
    """Exact-arithmetic laboratory for curve graphs and their quotients."""


# ---------------------------------------------------------------- farey


@main.group()
def farey():
    """The Farey graph: slopes, distances, windows, closure samples."""


@farey.command("dist", context_settings={"ignore_unknown_options": True})
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


def _farey_window(height: int, basepoint: str) -> Window:
    if height <= 0:
        _fail("height must be positive")
    try:
        base = farey_mod.Slope.parse(basepoint)
    except ValueError as exc:
        _fail(str(exc))
    if base.height > height:
        _fail(f"basepoint {base} has height {base.height}, above --height {height}")
    return farey_mod.farey_window(height, base)


@farey.command("window")
@click.option("--height", type=int, required=True)
@click.option("--basepoint", default="0/1", show_default=True)
@_format_option(graph=True)
def farey_window_cmd(height, basepoint, fmt):
    """Induced subgraph on all slopes of height at most the bound."""
    _emit_window(_farey_window(height, basepoint), fmt, str, f"farey window height {height}")


def _closure_sample(
    matrix, power, conj_len, depth
) -> tuple[farey_mod.IntMatrix, tuple[farey_mod.ClosureElement, ...]]:
    """The base matrix and its closure sample."""
    try:
        base = farey_mod.IntMatrix.parse(matrix)
        spec = farey_mod.FareyClosureSpec(base, power, conj_len, depth)
    except ValueError as exc:
        _fail(str(exc))
    return base, farey_mod.sample_closure(spec)


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
def farey_closure(fmt, **closure):
    """Sample the normal closure of a hyperbolic matrix power."""
    _, sample = _closure_sample(**closure)
    _emit(
        [{"word": word, "matrix": list(m)} for word, m in sample], fmt,
        text_fn=lambda: f"closure sample: {len(sample)} elements\n",
    )


@farey.command("displacement")
@_with(closure_options)
@click.option("--height", type=int, default=55, show_default=True)
@_format_option()
def farey_displacement(height, fmt, **closure):
    """Per-element window displacement of a closure sample."""
    base, sample = _closure_sample(**closure)
    w = _farey_window(height, "0/1")
    words = tuple(e.word for e in sample)
    report = quotient_mod.displacement_report(w, words, quotient_mod.farey_contract(base))

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


def _s5_window(word_bound: int | None, window_file: str | None = None) -> Window:
    """The window of ``word_bound``, or the one in ``window_file``.

    Window JSON, from the file or a cache hit, is read here and nowhere
    else.  It exits 2 when the JSON is not a window or its witness words do
    not give its vertices.  A file with witness words has its rows read
    anew from them, and exits 2 on a wrong pair; a file without is a bare
    graph.  A cache hit must carry witness words, and its rows are trusted,
    since ``build_window`` wrote them under their content's hash.  A cache
    entry that is not canonical JSON is a miss and is rebuilt.
    """
    if (word_bound is None) == (window_file is None):
        _fail("give exactly one of --word-bound and --window")
    if window_file is None:
        if word_bound < 0:
            _fail("word bound must be nonnegative")
        directory = cache_dir()
        if directory is None:
            return s5windows.build_window(word_bound)
    try:
        if window_file is None:
            data = cached_json(
                directory, {"kind": "window", "instance": "s5", "wordBound": word_bound},
                lambda: "".join(json_object(s5windows.build_window(word_bound)
                                            .json_fields(s5windows.curve_key_str))))
        else:
            data = json.loads(Path(window_file).read_text())
        w = Window.from_json(data, s5windows.parse_curve_key, s5windows.S5_INSTANCE)
        if window_file is None:
            s5windows.witness_readers(w)
        elif w.words is not None:
            s5windows.check_edges(w)
    except (OSError, ValueError, KeyError, TypeError, AttributeError,
            RecursionError) as exc:
        _fail(f"cannot load window from {window_file or 'the cache'}: {exc}")
    return w


@s5.command("ball")
@click.option("--word-bound", type=int, required=True)
@_format_option(graph=True)
def s5_ball(word_bound, fmt):
    """Window of all images of the base pentagon under bounded words."""
    _emit_window(_s5_window(word_bound), fmt, s5windows.curve_key_str,
                 f"s5 window bound {word_bound}")


@s5.command("pentagons")
@click.option("--word-bound", type=int, default=None)
@click.option("--window", "window_file", default=None,
              help="window JSON file instead of --word-bound")
@_format_option()
def s5_pentagons(word_bound, window_file, fmt):
    """All embedded pentagons (chordless 5-cycles) of a window."""
    w = _s5_window(word_bound, window_file)
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
    if alpha == beta:
        _fail("alpha and beta must be distinct")
    w = _s5_window(word_bound, window_file)
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
    from . import arc2 as arc2_mod
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
    from . import arc2 as arc2_mod
    w = _s5_window(word_bound)
    try:
        config = arc2_mod.classify_triangle(_parse_arcs(arcs, w), w)
    except ValueError as exc:
        _fail(str(exc))
    data = {"kind": config.kind,
            "arcs": [arc2_mod.record(w, v) for v in config.loop[0::2]],
            "epsilons": [arc2_mod.record(w, v) for v in config.loop[1::2]]}
    _emit(data, fmt, text_fn=lambda: f"{config.kind}\n")


@arc2.command("fill")
@click.argument("arcs", nargs=3)
@click.option("--word-bound", type=int, default=3, show_default=True)
@_format_option()
def arc2_fill(arcs, word_bound, fmt):
    """Fill the delta-loop of a triangle of arcs with tripod or pentagons."""
    from . import arc2 as arc2_mod
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


def _build_quotient(instance, height, word_bound, sample_csv,
                    **closure) -> quotient_mod.QuotientWindow:
    if instance == "farey":
        base, elements = _closure_sample(**closure)
        sample = tuple(e.word for e in elements)
        contract = quotient_mod.farey_contract(base)
        w = _farey_window(height, "0/1")
    else:
        contract = quotient_mod.s5_contract()
        words = tuple(x for x in (sample_csv or "").split(",") if x)
        try:
            sample = quotient_mod.s5_sample(words)
        except ValueError as exc:
            _fail(str(exc))
        w = _s5_window(word_bound)
    return quotient_mod.build_quotient(w, sample, contract)


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
@_format_option(graph=True)
def quotient_build(instance, fmt, **options):
    """Build the quotient window and its displacement report."""
    q = _build_quotient(instance, **options)
    key_str = q.contract.key_str
    _emit(
        lambda: {**q.window.json_fields(key_str), **q.json_fields()}, fmt,
        dot_fn=lambda: q.graph.to_dot(key_str),
        text_fn=lambda: f"{instance} quotient: {len(q)} classes of "
                        f"{len(q.window)} vertices, min displacement "
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
def verify(instance, suite_csv, out_dir, seed, fmt, **options):
    """Run verification suites over a window and its quotient."""
    names = {}  # each suite once, in the order first named
    for raw in suite_csv.split(","):
        raw = raw.strip()
        name = next((n for n, (aliases, _, _) in SUITES.items()
                     if raw == n or raw in aliases), None)
        if name is None:
            _fail(f"unknown suite {raw!r}")
        names[name] = None
    for name in names:
        if instance not in SUITES[name][1]:
            _fail(f"suite {name!r} is not available for instance {instance!r}")

    q = _build_quotient(instance, **options)
    reports = [SUITES[n][2](q, seed) for n in names]

    if out_dir is not None:
        try:
            out = Path(out_dir)
            out.mkdir(parents=True, exist_ok=True)
            fields = q.window.json_fields(q.contract.key_str)  # serialized once for both
            for name, extra in (("window.json", {}), ("quotient.json", q.json_fields())):
                with open(out / name, "w") as fh:
                    fh.writelines(json_object({**fields, **extra}))
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
