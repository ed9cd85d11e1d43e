"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Most checks run on tiny inputs.  The last one runs one traced cold
classification (about ten seconds) and compares its call counts with those
recorded when the benchmark was introduced; a change to the program that
moves them must update ``CLASSIFY_TRACE_COUNTS`` in ``measure.py``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
import types
import unittest
from pathlib import Path

import run

run.import_program()

import gauge  # noqa: E402
import measure  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402
from splitjac import bqf, cmhom, periodlattice, pipeline, qforms, universal  # noqa: E402

GOLDEN = pipeline.load_golden()
SMALL_PAIR = (-12, -3, False)  # two classification rows, both q3


def small_classification():
    """Screen, sweep, evaluate and check one discriminant pair, cold."""
    W.start_cold()
    cmhom.screen_all({1: (-4,)})
    results = [pipeline.evaluate_candidate(c) for c in pipeline.generate_candidates((SMALL_PAIR,))]
    survivors = [r for r in results if r["survived"]]
    rows = [
        pipeline.ClassificationRow(
            i, r["candidate"].delta_e, r["candidate"].delta_f, r["candidate"].tau,
            r["candidate"].sigma, r["form_id"], r["gram"], r["witness"],
        )
        for i, r in enumerate(survivors, start=1)
    ]
    expected = [
        row for row in GOLDEN["classification"]
        if (row["delta_e"], row["delta_f"]) == SMALL_PAIR[:2]
    ]
    pipeline.check_classification(rows, {"classification": expected})
    return rows


class TracerTest(unittest.TestCase):
    def test_every_layer_function_records_a_call(self):
        with tracing.Tracer() as tracer:
            rows = small_classification()
            for form_id in W.FORMS:
                universal.verify_universal(form_id, 40)
            universal.represented_by_enumeration(1, 30)
        self.assertEqual(len(rows), 2)
        silent = [name for name in tracing.TRACED_NAMES if tracer.stats[name].calls == 0]
        self.assertEqual(silent, [])

    def test_every_binding_is_wrapped_and_restored(self):
        originals = {
            "pipeline.cm_points_F1": bqf.cm_points_F1,
            "pipeline.gamma2_tiles": bqf.gamma2_tiles,
            "pipeline.canon_gamma2": bqf.canon_gamma2,
            "cmhom.form_class_points": bqf.form_class_points,
            "periodlattice.short_vector_values": qforms.short_vector_values,
            "universal.evaluate": qforms.evaluate,
        }
        modules = {"pipeline": pipeline, "cmhom": cmhom, "periodlattice": periodlattice,
                   "universal": universal}
        every = [getattr(sys.modules[f"splitjac.{mod}"], fn)
                 for mod, fns in tracing.TRACED.items() for fn in fns]
        with tracing.Tracer() as tracer:
            wrapped = set(tracer.bindings())
            for binding, original in originals.items():
                mod, attr = binding.split(".")
                self.assertIn(f"splitjac.{binding}", wrapped)
                self.assertIsNot(getattr(modules[mod], attr), original)
            for name, module in list(sys.modules.items()):
                if name == "splitjac" or name.startswith("splitjac."):
                    for attr, value in vars(module).items():
                        self.assertFalse(any(value is f for f in every), f"{name}.{attr} unwrapped")
        for binding, original in originals.items():
            mod, attr = binding.split(".")
            self.assertIs(getattr(modules[mod], attr), original)

    def test_self_time_excludes_child_spans(self):
        pkg = types.ModuleType("toypkg")
        mod = types.ModuleType("toypkg.m")

        def inner():
            time.sleep(0.05)

        def outer():
            time.sleep(0.02)
            mod.inner()

        mod.inner, mod.outer = inner, outer
        sys.modules.update({"toypkg": pkg, "toypkg.m": mod})
        try:
            with tracing.Tracer("toypkg", {"m": ("inner", "outer")}) as tracer:
                mod.outer()
        finally:
            del sys.modules["toypkg"], sys.modules["toypkg.m"]
        self.assertAlmostEqual(tracer.stats["m.outer"].self_s, 0.02, delta=0.015)
        self.assertAlmostEqual(tracer.stats["m.inner"].self_s, 0.05, delta=0.015)


class GateTest(unittest.TestCase):
    def test_warm_cache_sample_is_rejected(self):
        W.start_cold()
        cmhom.screen_all({1: (-4,)})
        info = W.CACHES["cmhom.degree_profile"].cache_info()
        cold = (info.misses, info.hits)
        self.assertGreater(cold[0], 0)
        W.check_cache_counts(cold)
        cmhom.screen_all({1: (-4,)})  # the same sample again, caches still full
        with self.assertRaises(W.ColdStateError):
            W.check_cache_counts(cold)
        W.start_cold()
        cmhom.screen_all({1: (-4,)})
        W.check_cache_counts(cold)

    def test_corrupted_vector_counts_as_failed(self):
        def corrupt(form_id, n):
            rep = universal.represent(form_id, n)
            v = rep.vector
            return types.SimpleNamespace(form_id=form_id, n=n, vector=(v[0] + 1,) + v[1:])

        calls = [(1, 1001), (4, 2003)]
        tally = W.Tally()
        self.assertEqual(W.represent_pass(calls, tally, represent=corrupt), [])
        self.assertEqual((tally.attempted, tally.failed), (2, 2))
        tally = W.Tally()
        self.assertEqual(len(W.represent_pass(calls, tally)), 2)
        self.assertEqual((tally.attempted, tally.failed), (2, 0))

    def test_inputs_follow_the_seed(self):
        self.assertEqual(W.represent_inputs(5, 0), W.represent_inputs(5, 0))
        self.assertNotEqual(W.represent_inputs(5, 0), W.represent_inputs(6, 0))
        lo, hi = W.REPRESENT_RANGE
        self.assertTrue(all(lo <= n < hi for _, n in W.represent_inputs(5, 0)))

    def test_tail_leaves_ten_samples_beyond(self):
        self.assertEqual(W.tail([float(x) for x in range(100)]), (89.0, 90, 10))
        self.assertEqual(W.tail([float(x) for x in range(2000)])[1:], (99, 20))

    def test_refuses_to_run_without_the_program(self):
        with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".perfbench-selftest-") as tmp:
            shutil.copytree(Path(run.__file__).parent, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "classify", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertEqual(proc.returncode, 2)
        self.assertEqual(proc.stdout, "")


class GaugeTest(unittest.TestCase):
    def test_gauge_scales_cpu_time_and_stops(self):
        affinity = os.sched_getaffinity(0)
        with gauge.Gauge() as g:
            self.assertEqual(os.sched_getaffinity(0), {g.cpu})
            _, sample = W.timed(sum, range(3_000_000))
            first = g.seconds(*sample)
            self.assertGreater(first, 0)
            # Twice the CPU time in the same interval reads twice as long.
            self.assertAlmostEqual(g.seconds(2 * sample.cpu, sample.t0, sample.t1), 2 * first)
        self.assertIsNotNone(g.proc.returncode)
        self.assertEqual(os.sched_getaffinity(0), affinity)


class ClassifyTraceTest(unittest.TestCase):
    def test_traced_cold_classify_reproduces_the_counts(self):
        with tracing.Tracer() as tracer:
            total, screen, report = W.classify_once(1, GOLDEN)
        self.assertGreater(total.cpu, screen.cpu)
        self.assertGreater(screen.cpu, 0)
        for name, expected in measure.CLASSIFY_TRACE_COUNTS.items():
            self.assertEqual(tracer.stats[name].calls, expected, name)
        self.assertEqual(tracer.stats["qforms.equivalent"].non_none, W.SURVIVORS)


if __name__ == "__main__":
    unittest.main()
