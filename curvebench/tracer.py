"""Outside-in layer tracing of curvelab.

The tracer replaces public functions of curvelab's modules with wrappers
that count calls and, for spans, time them.  It patches every curvelab
module namespace holding the original object, so names bound by
``from .curves import intersection_number`` are wrapped as well.  It must be
installed before any contract object captures a function (for instance
``farey_contract()`` capturing ``farey.distance``).

Self time of a span is its duration minus the duration of the traced spans
it called directly.  Counted-only functions (hot methods with no time
metric) add no span and so never reduce a parent's self time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

SPAN, COUNT = "span", "count"

SUITE_FUNCTIONS = {
    "check_simplicial": "simplicial",
    "verify_lipschitz_lifting": "lipschitz-lifting",
    "verify_ball2_isometry": "ball2-isometry",
    "verify_local_covering": "local-covering",
    "transfer_pentagons": "pentagon-transfer",
    "check_support_sets": "support-sets",
    "check_relations": "relations",
}


def _count_classes(tracer, result, _during):
    tracer.values["quotient.classes"] += len(result.classes)


def _count_report(tracer, result, _during):
    tracer.values["suites.eligible"] += result["eligible"]
    tracer.values["suites.truncated"] += result["truncated"]


def _count_window_edges(tracer, result, during):
    tracer.values["s5windows.build_window.edges"] += len(result.edges)
    tracer.values["s5windows.build_window.intersections"] += during


def _count_bytes(tracer, result, _during):
    tracer.values["serialize.canonical_json.bytes"] += len(result.encode())


# (module, attribute, span name, kind, result hook)
TARGETS = [
    ("curvelab.farey", "distance", "farey.distance", SPAN, None),
    ("curvelab.farey", "word_matrix", "farey.word_matrix", COUNT, None),
    ("curvelab.farey", "farey_window", "farey.farey_window", SPAN, None),
    ("curvelab.farey", "sample_closure", "farey.sample_closure", SPAN, None),
    ("curvelab.quotient", "build_quotient", "quotient.build_quotient", SPAN,
     _count_classes),
    *[("curvelab.suites", fn, f"suites.{suite}", SPAN, _count_report)
      for fn, suite in SUITE_FUNCTIONS.items()],
    ("curvelab.curves", "intersection_number", "curves.intersection_number",
     SPAN, None),
    ("curvelab.triangulation", "Triangulation.flip", "triangulation.flip",
     COUNT, None),
    ("curvelab.triangulation", "Triangulation.flip_coords",
     "triangulation.flip_coords", COUNT, None),
    ("curvelab.s5windows", "build_window", "s5windows.build_window", SPAN,
     _count_window_edges),
    ("curvelab.s5windows", "enumerate_pentagons",
     "s5windows.enumerate_pentagons", SPAN, None),
    ("curvelab.mcg", "apply_word", "mcg.apply_word", SPAN, None),
    ("curvelab.arc2", "classify_triangle", "arc2.classify_triangle", SPAN, None),
    ("curvelab.arc2", "fill_triangle", "arc2.fill_triangle", SPAN, None),
    ("curvelab.arc2", "epsilon_arc", "arc2.epsilon_arc", COUNT, None),
    ("curvelab.serialize", "canonical_json", "serialize.canonical_json", SPAN,
     _count_bytes),
]

# The span whose calls build_window's edge yield is divided by.
_YIELD_DENOMINATOR = "curves.intersection_number"


class Tracer:
    """Call counts, inclusive and self times, and hook values for one op."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._stack: list[list[float]] = []
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.values: Counter = Counter()

    def reset(self) -> None:
        """Forget everything recorded; installed wrappers keep recording."""
        for table in (self.calls, self.total, self.self_time, self.values):
            table.clear()

    def span(self, name: str, fn, on_result=None):
        """Wrap fn so that each call is counted and timed as a span."""
        clock, stack = self.clock, self._stack

        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            before = self.calls[_YIELD_DENOMINATOR] if on_result else 0
            children = [0.0]
            stack.append(children)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                self.total[name] += elapsed
                self.self_time[name] += elapsed - children[0]
                if stack:
                    stack[-1][0] += elapsed
            if on_result is not None:
                on_result(self, result, self.calls[_YIELD_DENOMINATOR] - before)
            return result

        return functools.wraps(fn)(wrapper)

    def counter(self, name: str, fn):
        """Wrap fn so that each call is counted, with no span."""
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return functools.wraps(fn)(wrapper)

    def install(self, targets=TARGETS) -> None:
        """Patch every target in its module, class and importing modules."""
        for module_name, attribute, name, kind, hook in targets:
            module = importlib.import_module(module_name)
            owner = module
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            if kind == SPAN:
                wrapped = self.span(name, original, hook)
            else:
                wrapped = self.counter(name, original)
            setattr(owner, leaf, wrapped)
            if owner is module:
                _rebind(original, wrapped)

    def snapshot(self) -> dict:
        """This op's raw per-layer numbers: times in seconds, counts as ints."""
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self": dict(self.self_time),
            "values": dict(self.values),
        }


def _rebind(original, wrapped) -> None:
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("curvelab"):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapped)


def op_values(snap: dict, scale: float) -> dict:
    """Per-op per-layer values from a snapshot.

    Times become milliseconds at reference machine speed (``scale`` is the
    op's drift-correction factor); counts stay exact.  Ratios are not per-op
    values: the runner forms them from run totals of ``snap["values"]``.
    """
    calls, total, own = snap["calls"], snap["total"], snap["self"]
    values = snap["values"]

    def ms(table, name):
        return table.get(name, 0.0) * 1000.0 * scale

    out = {
        "farey.distance.calls": calls.get("farey.distance", 0),
        "farey.distance.self_ms": ms(own, "farey.distance"),
        "farey.word_matrix.calls": calls.get("farey.word_matrix", 0),
        "farey.farey_window.ms": ms(total, "farey.farey_window"),
        "farey.sample_closure.ms": ms(total, "farey.sample_closure"),
        "quotient.build_quotient.ms": ms(total, "quotient.build_quotient"),
        "quotient.build_quotient.self_ms": ms(own, "quotient.build_quotient"),
        "quotient.classes": values.get("quotient.classes", 0),
        "curves.intersection_number.calls":
            calls.get("curves.intersection_number", 0),
        "curves.intersection_number.self_ms":
            ms(own, "curves.intersection_number"),
        "triangulation.flip.calls": calls.get("triangulation.flip", 0),
        "triangulation.flip_coords.calls":
            calls.get("triangulation.flip_coords", 0),
        "s5windows.build_window.ms": ms(total, "s5windows.build_window"),
        "s5windows.enumerate_pentagons.calls":
            calls.get("s5windows.enumerate_pentagons", 0),
        "s5windows.enumerate_pentagons.ms":
            ms(total, "s5windows.enumerate_pentagons"),
        "mcg.apply_word.calls": calls.get("mcg.apply_word", 0),
        "mcg.apply_word.self_ms": ms(own, "mcg.apply_word"),
        "arc2.classify_triangle.ms": ms(total, "arc2.classify_triangle"),
        "arc2.fill_triangle.ms": ms(total, "arc2.fill_triangle"),
        "arc2.epsilon_arc.calls": calls.get("arc2.epsilon_arc", 0),
        "serialize.canonical_json.ms": ms(total, "serialize.canonical_json"),
        "serialize.canonical_json.bytes":
            values.get("serialize.canonical_json.bytes", 0),
    }
    for suite in SUITE_FUNCTIONS.values():
        out[f"suites.{suite}.ms"] = ms(total, f"suites.{suite}")
    return out
