"""perfbench's tracer finds every name it wraps, sees the layers call them,
and puts each one back."""

import importlib
from datetime import date as Date
from pathlib import Path
from types import SimpleNamespace

import pytest

from rollingquant import backtest, cli, numerics, strategies
from rollingquant.backtest import ScenarioConfig
from rollingquant.factors import MarketStore
from rollingquant.numerics import TrainConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's harness and workloads modules, imported from its directory."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("harness"), importlib.import_module("workloads")


def test_traced_scenarios_record_every_layer_and_restore(perfbench, crash_market):
    harness, workloads = perfbench
    tracer = harness.Tracer()
    workloads.install_tracing(tracer, SimpleNamespace(
        cli=cli, backtest=backtest, strategies=strategies, numerics=numerics))
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
    assert [f"{owner}.{attr}" for owner, attr, original in restored
            if getattr(owner, attr) is not original] == []
    assert {span.name for span in tracer.spans} == {
        "op", "strategies.rank_linreg", "strategies.rank_fcnn",
        "marketdata.eligible_universe", "factors.build_panel", "factors.normalize",
        "numerics.least_squares_fit", "numerics.train", "backtest.rebalance"}
    assert {"numerics.mlp_forward", "numerics.mlp_loss_and_gradients"} <= {
        name for span in tracer.spans for name in span.agg}
