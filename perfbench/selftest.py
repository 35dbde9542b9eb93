"""Self-test of the benchmark's own arithmetic and output checks.

    python3 perfbench/selftest.py

Shows that self time is span time minus child time, that tracing wraps
every namespace holding a traced function and restores it, and that a
corrupted estimate, a rising objective trace or a broken scheme ordering is
counted as a failed operation.
"""

import time
import unittest
from types import SimpleNamespace

import run  # sets the BLAS environment and the import path of risce

import risce  # noqa: E402
from risce import experiments, lmmse_design, ls_design, phase_model, system  # noqa: E402
from risce.types import DesignTrace  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def fake_op(output, check, kind="fake", part="ls"):
    return workloads.Op(kind, part, lambda: output, check)


def one_pass(ops) -> run.Tally:
    tally = run.Tally()
    run.run_pass(ops, tally, None)
    return tally


class SelfTime(unittest.TestCase):
    def test_self_time_subtracts_direct_children_only(self):
        spans = [
            ("a", -1, 0.0, 10.0),
            ("b", 0, 1.0, 4.0),
            ("c", 1, 2.0, 3.0),
            ("d", 0, 5.0, 7.0),
        ]
        self.assertEqual(tracing.self_times(spans), [5.0, 2.0, 1.0, 2.0])

    def test_wrapped_calls_nest_and_record_errors(self):
        tracer = tracing.Tracer()

        def boom():
            raise KeyError("x")

        inner = tracer.wrap("inner", lambda: None)
        failing = tracer.wrap("failing", boom)

        def body():
            inner()
            try:
                failing()
            except KeyError:
                pass

        tracer.wrap("outer", body)()
        names = [s[0] for s in tracer.spans]
        self.assertEqual(names, ["outer", "inner", "failing"])
        self.assertEqual([s[1] for s in tracer.spans], [-1, 0, 0])
        self.assertEqual(tracer.spans[2][4], "KeyError")
        self.assertTrue(all(s[3] >= s[2] for s in tracer.spans))

    def test_install_covers_imported_names_and_uninstall_restores(self):
        original = phase_model.minimize_phase_objectives
        tracer = tracing.Tracer()
        tracer.install()
        try:
            wrapped = phase_model.minimize_phase_objectives
            self.assertIsNot(wrapped, original)
            self.assertIs(ls_design.minimize_phase_objectives, wrapped)
            self.assertIs(lmmse_design.minimize_phase_objectives, wrapped)
            self.assertIs(experiments.design_ls, ls_design.design_ls)
            self.assertIs(risce.design_ls, ls_design.design_ls)
        finally:
            tracer.uninstall()
        self.assertIs(phase_model.minimize_phase_objectives, original)
        self.assertIs(ls_design.minimize_phase_objectives, original)

    def test_workload_operations_are_traced(self):
        op = next(o for o in workloads.design_desk(0, run.OUT_DIR) if o.kind == "ls-mm")
        tracer = tracing.Tracer()
        tracer.install()
        try:
            op.run()
        finally:
            tracer.uninstall()
        names = {s[0] for s in tracer.spans}
        self.assertIn("ls_design.design_ls", names)
        self.assertIn("phase_model.minimize_phase_objectives", names)
        self.assertEqual(len(tracer.design_traces), 1)


class OutputChecks(unittest.TestCase):
    def test_paper_curve_passes_and_corrupted_estimate_fails(self):
        op = next(o for o in workloads.mc_paper(0, run.OUT_DIR) if o.kind == "naive-ls")
        tally = one_pass([op])
        self.assertEqual((tally.attempted, tally.failed, tally.wrong), (1, 0, 0))

        honest = system.estimate_ls
        system.estimate_ls = lambda y, s: honest(y, s) * (1.0 + 1e-6)
        try:
            tally = one_pass([op])
        finally:
            system.estimate_ls = honest
        self.assertEqual((tally.attempted, tally.failed, tally.wrong), (1, 1, 1))
        self.assertEqual(dict(tally.errors), {"CheckFailed": 1})
        self.assertEqual(tally.part_s["ls"], [])

    def test_rising_trace_fails(self):
        falling, rising = DesignTrace(), DesignTrace()
        for obj in (3.0, 2.0, 2.0):
            falling.record(obj, 0, 0.0)
        for obj in (3.0, 2.0, 2.5):
            rising.record(obj, 0, 0.0)
        check = workloads.check_descent
        tally = one_pass([fake_op(falling, check), fake_op(rising, check, part="lmmse")])
        self.assertEqual((tally.attempted, tally.failed, tally.wrong), (2, 1, 1))
        self.assertEqual(len(tally.part_s["ls"]), 1)
        self.assertEqual(tally.part_s["lmmse"], [])

    def test_raising_operation_is_failed_but_not_wrong(self):
        def boom():
            raise ValueError("too many values to unpack")

        tally = one_pass([workloads.Op("x", None, boom, lambda out: None)])
        self.assertEqual((tally.failed, tally.wrong), (1, 0))
        self.assertEqual(dict(tally.errors), {"ValueError": 1})

    def test_broken_scheme_ordering_fails(self):
        nmse = {"proposed": 0.5, "ideal": 0.1, "ideal-projection": 0.8,
                "naive": 0.8, "onoff": 6.0}
        rows = [SimpleNamespace(scheme=s, snr_db=0.0, analytic_nmse=v) for s, v in nmse.items()]
        workloads.check_orderings(rows, "ls")
        rows[0].analytic_nmse = 0.9      # proposed worse than ideal-projection
        with self.assertRaises(workloads.CheckFailed):
            workloads.check_orderings(rows, "ls")
        with self.assertRaises(workloads.CheckFailed):
            workloads.check_orderings(rows[:-1], "ls")

    def test_probe_time_is_taken_out_of_operation_time(self):
        def work():
            start = time.perf_counter()
            sum(i * i for i in range(2_000_000))
            return time.perf_counter() - start

        inner = []
        tally = run.Tally()
        with run.SpeedProbe() as probe:
            elapsed, ok, during = run.run_op(workloads.Op("work", "ls", work, inner.append),
                                             tally, probe)
        self.assertTrue(ok)
        self.assertGreater(len(probe.durations), 0)
        self.assertIsNotNone(during)
        self.assertLess(elapsed, inner[0])
        self.assertAlmostEqual(elapsed, inner[0] - probe.spent, delta=0.01)

    def test_tail_percentile_leaves_ten_samples_beyond(self):
        self.assertEqual(run.tail(list(range(60)))["percentile"], "p83")
        self.assertIsNone(run.tail(list(range(20))))


if __name__ == "__main__":
    run.OUT_DIR.mkdir(exist_ok=True)
    unittest.main()
