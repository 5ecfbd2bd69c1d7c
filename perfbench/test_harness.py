"""Fast self-test of the perfbench harness on tiny inputs.

    python3 perfbench/test_harness.py        (or: python3 -m pytest perfbench)

Covers wrapper install and restore, the self-time arithmetic, the speed
sampler, exact reproduction of counts across traced runs, and that the
metric names and units printed match BENCHMARK.json.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import signal
import time
import types
import unittest

import numpy as np

import harness
import run
import workloads

RQ = harness.load_program(run.ROOT)


def scripted_clock(values):
    it = iter(values)
    return lambda: next(it)


class WrapTest(unittest.TestCase):
    def test_install_records_and_restore_puts_back(self):
        class Base:
            def inherited(self):
                return "base"

        class Model(Base):
            def forward(self, x):
                return x * 2

        module = types.SimpleNamespace(step=lambda x: x + 1)
        originals = (module.step, vars(Model)["forward"])
        tracer = harness.Tracer()
        tracer.wrap(module, "step", "mod.step")
        tracer.wrap(Model, "forward", "mod.forward", aggregate=True)
        tracer.wrap(Model, "inherited", "mod.inherited")
        self.assertIsNot(module.step, originals[0])

        root = tracer.begin("op")
        self.assertEqual(module.step(1), 2)
        self.assertEqual(Model().forward(3), 6)
        self.assertEqual(Model().inherited(), "base")
        tracer.finish(root)

        restored = tracer.restore()
        self.assertEqual(len(restored), 3)
        self.assertIs(module.step, originals[0])
        self.assertIs(vars(Model)["forward"], originals[1])
        self.assertNotIn("inherited", vars(Model))
        summary = tracer.summary()
        self.assertEqual(summary["mod.step"]["calls"], 1)
        self.assertEqual(summary["mod.forward"]["calls"], 1)
        self.assertEqual(summary["mod.inherited"]["calls"], 1)

    def test_program_wrappers_are_all_restored(self):
        tracer = harness.Tracer()
        workloads.install_tracing(tracer, RQ)
        wrapped = [(owner, attr, original) for owner, attr, original, _ in tracer._patches]
        self.assertTrue(all(getattr(owner, attr) is not original
                            for owner, attr, original in wrapped))
        restored = tracer.restore()
        self.assertEqual(len(restored), len(wrapped))
        self.assertTrue(all(getattr(owner, attr) is original
                            for owner, attr, original in restored))


class SelfTimeTest(unittest.TestCase):
    def test_self_times_subtract_children_and_sum_to_root(self):
        # epoch, op start, a start, leaf x2 (start, end), a end, b start, b end, op end
        tracer = harness.Tracer(clock=scripted_clock(
            [0.0, 0.0, 1.0, 2.0, 2.5, 3.0, 3.25, 4.0, 5.0, 7.0, 10.0]))
        op = tracer.begin("op")
        a = tracer.begin("a")
        for _ in range(2):
            t0 = tracer.clock()
            tracer.add_leaf("leaf", tracer.clock() - t0)
        tracer.finish(a)
        b = tracer.begin("b")
        tracer.finish(b)
        tracer.finish(op)

        s = tracer.summary()
        self.assertEqual(s["op"], {"calls": 1, "total_s": 10.0, "self_s": 5.0})
        self.assertEqual(s["a"], {"calls": 1, "total_s": 3.0, "self_s": 2.25})
        self.assertEqual(s["b"], {"calls": 1, "total_s": 2.0, "self_s": 2.0})
        self.assertEqual(s["leaf"], {"calls": 2, "total_s": 0.75, "self_s": 0.75})
        self.assertEqual(sum(e["self_s"] for e in s.values()), 10.0)
        self.assertEqual(tracer.leaf_calls_under("a", {"leaf"}), 2)


class SpeedSamplerTest(unittest.TestCase):
    def test_busy_and_scale_arithmetic(self):
        sampler = harness.SpeedSampler()
        sampler.samples = [(1.0, 1.002), (2.0, 2.004)]
        self.assertAlmostEqual(sampler.busy(0.0, 3.0), 0.006)
        self.assertAlmostEqual(sampler.busy(1.001, 2.001), 0.002)
        self.assertAlmostEqual(sampler.scale(), harness.CAL_REF_S / 0.003)
        self.assertEqual(harness.SpeedSampler(enabled=False).scale(), 1.0)

    def test_samples_inside_the_block_then_restores_the_handler(self):
        before = signal.getsignal(signal.SIGALRM)
        with harness.SpeedSampler() as sampler:
            end = time.perf_counter() + 3.5 * harness.SAMPLE_INTERVAL_S
            while time.perf_counter() < end:
                pass
        self.assertGreaterEqual(len(sampler.samples), 3)
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))


def traced(fn, tracer):
    """Run fn inside one traced root span; returns the layer metrics."""
    workloads.install_tracing(tracer, RQ)
    try:
        span = tracer.begin("op")
        fn()
        tracer.finish(span)
    finally:
        tracer.restore()
    return workloads.layer_metrics(tracer, 1)


COUNT_KEYS = ("marketdata.eligible_universe_calls", "factors.build_panel_calls",
              "factors.panel_dates_distinct", "factors.panel_rows", "numerics.train_calls",
              "numerics.train_steps", "numerics.mlp_forward_calls",
              "numerics.lstm_forward_calls", "numerics.mlp_loss_and_gradients_calls",
              "backtest.trades")


class CountTest(unittest.TestCase):
    def test_numerics_counts_reproduce(self):
        numerics = RQ.numerics

        def work():
            rng = np.random.default_rng(0)
            x, y = rng.normal(size=(25, 3)), rng.normal(size=25)
            mlp = numerics.MlpModel.create(seed=0, input_dim=3, hidden_sizes=(2,))
            numerics.gradient_check(mlp, x[:5], y[:5])
            numerics.train(mlp, x, y, numerics.TrainConfig(epochs=2, batch_size=10))

        runs = [traced(work, harness.Tracer()) for _ in range(2)]
        self.assertEqual([{k: m[k] for k in COUNT_KEYS} for m in runs][0],
                         [{k: m[k] for k in COUNT_KEYS} for m in runs][1])
        m = runs[0]
        # 3*2+2 + 2*1+1 = 11 parameters, two forwards each; plus one per epoch.
        self.assertEqual(m["numerics.mlp_forward_calls"], 22 + 2)
        self.assertEqual(m["numerics.train_steps"], 6)
        self.assertEqual(m["numerics.mlp_loss_and_gradients_calls"], 1 + 6)
        self.assertAlmostEqual(sum(m[k] for k in workloads.SELF_PARTS), m["trace.run_s"],
                               delta=1e-9 * m["trace.run_s"])

    def test_backtest_counts_reproduce_and_outputs_unchanged(self):
        tmp = run.ROOT / ".perfbench" / "work" / f"selftest-{os.getpid()}"
        tmp.mkdir(parents=True)
        try:
            ini = tmp / "run.ini"
            ini.write_text(
                "[run]\nseed = 3\nstrategies = linreg\nstart = 2015-11-01\n"
                "end = 2015-12-31\n\n[data]\nsource = synthetic\nn_stocks = 12\n"
                "start = 2014-01-01\nend = 2015-12-31\nregime = crash\n", encoding="utf-8")
            trees, runs = [], []
            for trace in (False, True, True):
                out = tmp / f"out{len(trees)}"
                config = RQ.cli.load_run_config(str(ini), out_override=out)

                def work():
                    self.assertEqual(RQ.cli.cmd_backtest(config, out=io.StringIO()), 0)

                if trace:
                    runs.append(traced(work, harness.Tracer()))
                else:
                    work()
                trees.append(harness.tree_bytes(out))
        finally:
            shutil.rmtree(tmp)
        self.assertEqual(trees[0], trees[1])
        self.assertEqual(trees[0], trees[2])
        self.assertEqual({k: runs[0][k] for k in COUNT_KEYS},
                         {k: runs[1][k] for k in COUNT_KEYS})
        m = runs[0]
        # Two action days, each building 3 training panels and 1 ranking panel
        # over Aug..Dec month ends.
        self.assertEqual(m["marketdata.eligible_universe_calls"], 2)
        self.assertEqual(m["factors.build_panel_calls"], 8)
        self.assertEqual(m["factors.panel_dates_distinct"], 5)
        self.assertEqual(m["factors.panel_useful_ratio"], 5 / 8)
        self.assertGreater(m["factors.build_panel_s"], 0.0)
        self.assertAlmostEqual(sum(m[k] for k in workloads.SELF_PARTS), m["trace.run_s"],
                               delta=1e-9 * m["trace.run_s"])


class BenchmarkJsonTest(unittest.TestCase):
    def test_metric_names_and_units_match(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END_UNITS)
        layers = workloads.layer_metrics(harness.Tracer(), 1)
        names = set(layers) | {"exports.bytes_written", "trace.overhead_s"}
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         {name: run.layer_unit(name) for name in names})
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
