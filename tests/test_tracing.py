"""perfbench's tracer finds every name it wraps, sees the layers call them,
and puts each one back."""

import importlib
from datetime import date as Date
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from rollingquant import backtest, cli, numerics, strategies
from rollingquant.backtest import ScenarioConfig
from rollingquant.factors import MarketStore
from rollingquant.numerics import LstmModel, MlpModel, TrainConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's harness and workloads modules, imported from its directory."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("harness"), importlib.import_module("workloads")


def traced(harness, workloads):
    """A tracer with every layer wrapped."""
    tracer = harness.Tracer()
    workloads.install_tracing(tracer, SimpleNamespace(
        cli=cli, backtest=backtest, strategies=strategies, numerics=numerics))
    return tracer


def still_wrapped(restored):
    return [f"{owner}.{attr}" for owner, attr, original in restored
            if getattr(owner, attr) is not original]


def test_traced_scenarios_record_every_layer_and_restore(perfbench, crash_market):
    harness, workloads = perfbench
    tracer = traced(harness, workloads)
    try:
        store = MarketStore(crash_market)
        config = ScenarioConfig(start=Date(2015, 10, 1), end=Date(2015, 12, 31),
                                train_config=TrainConfig(epochs=1))
        op = tracer.begin("op")
        for kind in ("linreg", "fcnn"):
            backtest.run_scenario(store, kind, config)
        tracer.finish(op)
    finally:
        restored = tracer.restore()
    assert restored
    assert still_wrapped(restored) == []
    assert {span.name for span in tracer.spans} == {
        "op", "strategies.rank_linreg", "strategies.rank_fcnn",
        "marketdata.eligible_universe", "factors.build_panel", "factors.normalize",
        "numerics.least_squares_fit", "numerics.train", "backtest.rebalance"}
    assert {"numerics.mlp_forward", "numerics.mlp_loss_and_gradients"} <= {
        name for span in tracer.spans for name in span.agg}


def test_traced_gradient_check_equals_untraced(perfbench):
    harness, workloads = perfbench
    rng = np.random.default_rng(1)
    batch, labels, seq = rng.normal(size=(5, 47)), rng.normal(size=5) * 0.05, \
        rng.normal(size=(5, 3, 47))
    mlp = MlpModel.create(seed=1)
    lstm = LstmModel.create(seed=1, hidden_sizes=(6, 5, 4))

    def check():
        return [numerics.gradient_check(mlp, batch, labels),
                numerics.gradient_check(lstm, seq, labels)]

    want = check()
    tracer = traced(harness, workloads)
    try:
        op = tracer.begin("op")
        got = check()
        tracer.finish(op)
    finally:
        restored = tracer.restore()
    assert got == want
    assert restored
    assert still_wrapped(restored) == []
    assert {span.name for span in tracer.spans} == {"op", "numerics.gradient_check"}
    layers = workloads.layer_metrics(tracer, 1)
    assert layers["numerics.mlp_loss_and_gradients_calls"] == 1
    assert layers["numerics.lstm_loss_and_gradients_calls"] == 1
    assert sum(layers[name] for name in workloads.SELF_PARTS) \
        == pytest.approx(layers["trace.run_s"], rel=1e-9)
