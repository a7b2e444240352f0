"""Self-tests for the benchmark's own arithmetic and checks.

    python3 -m pytest curvebench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from collections import Counter

import benchstats
import calib
import ops
import run
import tracer
import workloads


class TailTest(unittest.TestCase):
    def test_ten_samples_beyond(self):
        values = list(range(1, 31))  # 30 samples
        value, pct = benchstats.tail(reversed(values))
        self.assertEqual(value, 20)
        self.assertEqual(sum(v > value for v in values), 10)
        self.assertAlmostEqual(pct, 200 / 3)

    def test_hundred_samples_is_p90(self):
        value, pct = benchstats.tail(range(100))
        self.assertEqual((value, pct), (89, 90.0))

    def test_few_samples_fall_back_to_median(self):
        for n in (1, 2, 10, 11, 15, 20):
            values = list(range(n))
            self.assertEqual(benchstats.tail(values),
                             (benchstats.median(values), 50.0), n)

    def test_first_tail_above_median(self):
        value, pct = benchstats.tail(range(21))
        self.assertEqual(value, 10)
        self.assertGreater(pct, 50.0)

    def test_no_samples(self):
        with self.assertRaises(ValueError):
            benchstats.tail([])


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        clock = FakeClock()
        t = tracer.Tracer(clock)
        leaf = t.span("leaf", lambda: clock.advance(5))
        counted = t.counter("counted", lambda: clock.advance(4))

        def inner_body():
            clock.advance(3)
            leaf()
            leaf()
            counted()

        inner = t.span("inner", inner_body)

        def outer_body():
            clock.advance(1)
            inner()
            clock.advance(2)

        outer = t.span("outer", outer_body)
        outer()
        self.assertEqual(t.total, {"leaf": 10, "inner": 17, "outer": 20})
        # a counted-only call is no span, so it stays in its caller's self time
        self.assertEqual(t.self_time, {"leaf": 10, "inner": 7, "outer": 3})
        self.assertEqual(t.calls, {"leaf": 2, "inner": 1, "outer": 1, "counted": 1})

    def test_span_survives_exception(self):
        clock = FakeClock()
        t = tracer.Tracer(clock)

        def boom():
            clock.advance(2)
            raise ValueError("undecided")

        inner = t.span("inner", boom)

        def outer_body():
            clock.advance(1)
            try:
                inner()
            except ValueError:
                pass

        t.span("outer", outer_body)()
        self.assertEqual(t.self_time, {"inner": 2, "outer": 1})

    def test_reset_keeps_wrappers_recording(self):
        t = tracer.Tracer(FakeClock())
        f = t.counter("f", lambda: None)
        f()
        t.reset()
        f()
        self.assertEqual(t.calls, {"f": 1})

    def test_install_patches_importers(self):
        # in a fresh interpreter, since installing patches curvelab for good
        code = (
            "import sys; sys.path[:0] = [%r, %r]\n"
            "import tracer, curvelab.cli\n"
            "from curvelab import farey, quotient, s5windows, arc2, curves\n"
            "t = tracer.Tracer(); t.install()\n"
            "c = quotient.farey_contract(farey.IntMatrix(2, 1, 1, 1))\n"
            "assert c.exact_distance is farey.distance\n"
            "assert s5windows.intersection_number is curves.intersection_number\n"
            "assert arc2.intersection_number is curves.intersection_number\n"
            "c.exact_distance(farey.Slope(0, 1), farey.Slope(1, 0))\n"
            "assert t.calls['farey.distance'] == 1\n"
        ) % (str(ops.HERE), str(ops.ROOT / "src"))
        subprocess.run([sys.executable, "-c", code], check=True, env=ops.child_env())


class DriftCorrectionTest(unittest.TestCase):
    def test_slower_machine_reads_the_same(self):
        reference = 0.004
        at_reference = calib.correct(100.0, reference, 0.004, 0.004)
        half_speed = calib.correct(200.0, reference, 0.008, 0.008)
        self.assertAlmostEqual(at_reference, 100.0)
        self.assertAlmostEqual(half_speed, 100.0)

    def test_mean_of_calibrations(self):
        self.assertAlmostEqual(calib.correct(90.0, 0.003, 0.002, 0.004), 90.0)
        self.assertAlmostEqual(calib.correct(1.2, 0.003, 0.006), 0.6)

    def test_rejects_missing_calibration(self):
        for cals in ((), (0.0,), (-1.0, 0.003)):
            with self.assertRaises(ValueError):
                calib.correct(1.0, 0.003, *cals)


class ReferenceCheckTest(unittest.TestCase):
    def setUp(self):
        self.work = ops.TMP / "selftest"
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "out").mkdir(parents=True)

    def tearDown(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def test_one_flipped_byte_is_rejected(self):
        artifact = self.work / "out" / "window.json"
        artifact.write_bytes(b'{"edges":[[0,1]],"vertices":[]}\n')
        stdout = b"simplicial: pass\n"
        reference = ops.output_digest(0, stdout, self.work / "out")
        self.assertEqual(ops.output_digest(0, stdout, self.work / "out"), reference)
        data = bytearray(artifact.read_bytes())
        data[10] ^= 0x01
        artifact.write_bytes(bytes(data))
        self.assertNotEqual(ops.output_digest(0, stdout, self.work / "out"), reference)

    def test_changed_stdout_or_exit_is_rejected(self):
        reference = ops.output_digest(0, b"pass\n", self.work / "out")
        self.assertNotEqual(ops.output_digest(0, b"pasr\n", self.work / "out"), reference)
        self.assertNotEqual(ops.output_digest(1, b"pass\n", self.work / "out"), reference)

    def test_arc2_filling_with_one_flipped_byte_is_rejected(self):
        pool = ops.load_json(ops.REFS / "arc2-pool.json.gz")
        entry = next(e for e in pool if e["outcome"] == "case5")
        good = json.dumps(entry["filling"], sort_keys=True, separators=(",", ":"))
        rec = {"outcome": "case5", "filling": good}
        self.assertTrue(run._check_arc2(entry, rec))
        k = good.index("1")
        rec["filling"] = good[:k] + "0" + good[k + 1:]
        self.assertFalse(run._check_arc2(entry, rec))

    def test_undecided_is_an_outcome_not_a_failure(self):
        pool = ops.load_json(ops.REFS / "arc2-pool.json.gz")
        entry = next(e for e in pool if e["outcome"] == "undecided")
        self.assertTrue(run._check_arc2(entry, {"outcome": "undecided",
                                                "filling": None}))
        self.assertFalse(run._check_arc2(entry, {"outcome": "exception",
                                                 "filling": None}))


class ScheduleTest(unittest.TestCase):
    def test_seed_fixes_inputs_and_mix_is_fixed(self):
        pool = ops.load_json(ops.REFS / "arc2-pool.json.gz")
        first = workloads.arc2_schedule(pool, 7, 3)
        self.assertEqual(first, workloads.arc2_schedule(pool, 7, 3))
        self.assertNotEqual(first, workloads.arc2_schedule(pool, 8, 3))
        for seed in (7, 8):
            mix = Counter(e["outcome"] for e in workloads.arc2_schedule(pool, seed, 3))
            self.assertEqual(mix, Counter(workloads.ARC2_OUTCOMES * 3))
        for name in ("farey-verify", "s5-verify"):
            a = workloads.verify_schedule(name, 1, 3)
            b = workloads.verify_schedule(name, 2, 3)
            self.assertNotEqual(a, b)
            self.assertEqual(Counter(e["id"] for e in a), Counter(e["id"] for e in b))


if __name__ == "__main__":
    unittest.main()
