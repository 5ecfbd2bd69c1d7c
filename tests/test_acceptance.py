"""Acceptance criteria, one test or more per criterion.

Each test prints a single "CRITERION n (<name>): PASS|FAIL" line before its
assertions so a -s run reads as a checklist.
"""

import math
import time
from datetime import date as Date
from pathlib import Path

import numpy as np
import pytest

from conftest import bars_of, build_market, make_bar, make_snapshot, snapshot_column, weekdays
from rollingquant import strategies
from rollingquant.backtest import CostModel, ScenarioConfig, run_scenario, scenario, trade
from rollingquant.cli import cmd_backtest
from rollingquant.config import load_run_config
from rollingquant.factors import (
    FACTOR_INDEX,
    MarketStore,
    build_panel,
    drop_sparse_rows,
    normalize_panel,
)
from rollingquant.marketdata import action_days, eligible_universe
from rollingquant.metrics import build_report, net_return, similarity_to_benchmark
from rollingquant.numerics import (
    LstmModel,
    MlpModel,
    TrainConfig,
    gradient_check,
    least_squares_fit,
    mse,
    train,
)
from rollingquant.strategies import Ranking
from rollingquant.synthetic import SyntheticMarketConfig, generate_synthetic_market


def verdict(number, name, ok):
    print(f"CRITERION {number} ({name}): {'PASS' if ok else 'FAIL'}")
    return ok


def lstm_task(seed):
    """300-stock sequence task with a planted signal and noisy labels."""
    rng = np.random.default_rng(seed)
    samples = rng.normal(size=(300, 3, 47))
    w = rng.normal(size=47)
    signal = np.tanh(samples[:, -1, :] @ w)
    signal = (signal - signal.mean()) / signal.std()
    labels = 0.15 * signal + rng.normal(0.0, 0.05, size=300)
    return samples, labels


def test_criterion_1_gradient_fidelity():
    start = time.monotonic()
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        batch = rng.normal(size=(5, 47))
        labels = rng.normal(size=5) * 0.05
        worst = max(worst, gradient_check(MlpModel.create(seed=seed), batch, labels))
        seq = rng.normal(size=(5, 3, 47))
        # narrow layers keep the full central-difference sweep inside the
        # 10 s budget; fidelity does not depend on layer width
        lstm = LstmModel.create(seed=seed, hidden_sizes=(6, 5, 4))
        worst = max(worst, gradient_check(lstm, seq, labels))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-5 and elapsed < 10.0
    assert verdict(1, "gradient fidelity", ok), \
        f"max relative error {worst:.3e}, elapsed {elapsed:.1f}s"


def test_criterion_2_ols_oracle_equivalence():
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        X = rng.normal(size=(50, 5))
        y = X @ rng.normal(size=5) + rng.normal(size=50) * 0.1
        oracle = np.linalg.pinv(X) @ y
        worst = max(worst, float(np.max(np.abs(least_squares_fit(X, y) - oracle))))
    ok = worst <= 1e-8
    assert verdict(2, "OLS oracle equivalence", ok), f"max abs diff {worst:.3e}"


def test_criterion_3_lstm_epoch10_loss():
    start = time.monotonic()
    passing = 0
    finals = []
    for seed in range(10):
        samples, labels = lstm_task(seed)
        model = LstmModel.create(seed=seed)
        _, losses = train(model, samples, labels,
                          TrainConfig(epochs=10, batch_size=10, seed=seed))
        finals.append(losses[-1])
        if losses[-1] < 0.01:
            passing += 1
    elapsed = time.monotonic() - start
    ok = passing >= 8 and elapsed < 60.0
    assert verdict(3, "LSTM epoch-10 MSE < 0.01", ok), \
        f"{passing}/10 seeds under 0.01 (losses {finals}), elapsed {elapsed:.1f}s"


def test_criterion_4_offset_similarity():
    rng = np.random.default_rng(4)
    dates = weekdays(Date(2015, 1, 1), Date(2015, 6, 30))
    worst = 0.0
    for offset in (-0.5, -0.01, 0.003, 0.2, 7.0):
        r = rng.normal(0.0, 0.01, len(dates))
        worst = max(worst, similarity_to_benchmark(r + offset, r))
    ok = worst <= 1e-12
    assert verdict(4, "offset similarity", ok), f"max similarity {worst:.3e}"


def _strategy_artifacts(dataset, strategy, config):
    result = run_scenario(MarketStore(dataset), strategy, config)
    report = build_report(strategy, result.dates[1:], result.daily_returns,
                          result.benchmark_returns).to_json().encode()
    rankings = repr([(r.date, r.entries) for r in result.rankings]).encode()
    trades = repr([(t.date, t.stock_id, t.side, t.shares, t.price, t.cost)
                   for t in result.trades]).encode()
    return rankings, trades, report


def test_criterion_5_no_lookahead_end_to_end():
    config = ScenarioConfig(start=Date(2015, 6, 1), end=Date(2015, 10, 30),
                            holdings=5, train_config=TrainConfig(seed=5))
    synth = SyntheticMarketConfig(seed=5, n_stocks=40, start=Date(2014, 1, 1),
                                  end=Date(2015, 12, 31), regime="crash",
                                  planted_signal_strength=0.5)
    before = {}
    for strategy in ("linreg", "fcnn", "lstm"):
        before[strategy] = _strategy_artifacts(generate_synthetic_market(synth)[0],
                                               strategy, config)
    # a second market, written into before any store reads it
    mutated, _ = generate_synthetic_market(synth)
    for stock_id in mutated.stocks:
        bars = bars_of(mutated, stock_id)
        after = np.array(bars.dates) > config.end
        bars.close[after] *= 7.0
        bars.prev_close[after] *= 7.0
        bars.market_cap[after] *= 7.0
        bars.suspended[after] = True
    snapshot_column(mutated, "net_profit")[mutated.snapshot_days > config.end.toordinal()] = -1e9
    mutated.benchmark[np.array(mutated.calendar.dates) > config.end] *= 0.1
    ok = all(_strategy_artifacts(mutated, s, config) == before[s]
             for s in ("linreg", "fcnn", "lstm"))
    assert verdict(5, "no lookahead end to end", ok)


def _mutate_after(dataset, d):
    """Write into the data after d: closes, prev closes and market caps x7,
    later snapshots' net_profit -1e9 and the benchmark x0.1. No bar is
    suspended: a market suspended after d has no eligible stock on the next
    action day."""
    for stock_id in dataset.stocks:
        bars = bars_of(dataset, stock_id)
        after = np.array(bars.dates) > d
        bars.close[after] *= 7.0
        bars.prev_close[after] *= 7.0
        bars.market_cap[after] *= 7.0
    snapshot_column(dataset, "net_profit")[dataset.snapshot_days > d.toordinal()] = -1e9
    dataset.benchmark[np.array(dataset.calendar.dates) > d] *= 0.1


def _up_to(result, d):
    """The rankings, trades and values of result dated on or before d."""
    return ([(r.date, r.entries) for r in result.rankings if r.date <= d],
            [(t.date, t.stock_id, t.side, t.shares, t.price, t.cost)
             for t in result.trades if t.date <= d],
            [v for day, v in zip(result.dates, result.values) if day <= d])


@pytest.mark.parametrize("strategy", ["linreg", "fcnn", "lstm"])
def test_criterion_5_no_lookahead_per_action_day(strategy):
    # criterion 5 mutates only the data after the scenario's end; a ranking
    # that read the next month's closes would pass it, and fails here
    config = ScenarioConfig(start=Date(2015, 6, 1), end=Date(2015, 10, 30),
                            holdings=5, train_config=TrainConfig(seed=5))
    synth = SyntheticMarketConfig(seed=5, n_stocks=40, start=Date(2014, 1, 1),
                                  end=Date(2015, 12, 31), regime="crash",
                                  planted_signal_strength=0.5)
    before = run_scenario(MarketStore(generate_synthetic_market(synth)[0]), strategy, config)
    days = [r.date for r in before.rankings]
    moved, unseen = [], []
    for d in days:
        mutated, _ = generate_synthetic_market(synth)
        _mutate_after(mutated, d)
        after = run_scenario(MarketStore(mutated), strategy, config)
        if _up_to(after, d) != _up_to(before, d):
            moved.append(d)
        # the mutation reaches every run that goes on past d
        if d < before.dates[-1] and after.values == before.values:
            unseen.append(d)
    ok = len(days) == 5 and moved == [] and unseen == []
    assert verdict(5, f"no lookahead per action day, {strategy}", ok), \
        f"{len(days)} action days; changed up to {moved}; mutation unseen after {unseen}"


def _accounting_errors(dataset, result, initial_capital):
    """(worst rebalance error, growth error) of criterion 6: each action
    day's trades, replayed at the closes the loop saw, change the value by
    their costs alone, and the daily returns compound to the value's growth."""
    by_day = {}
    for t in result.trades:
        by_day.setdefault(t.date, []).append(t)

    cash = initial_capital
    holdings = {}
    last_close = {}
    worst_rebalance = 0.0
    for d in result.dates:
        for stock_id in list(holdings) + [t.stock_id for t in by_day.get(d, [])]:
            close = dataset.tradeable_close(stock_id, d)
            if close is not None:
                last_close[stock_id] = close
        if d in by_day:
            value_before = cash + sum(sh * last_close[s] for s, sh in holdings.items())
            total_cost = 0.0
            for t in by_day[d]:
                total_cost += t.cost
                if t.side == "buy":
                    cash -= t.shares * t.price + t.cost
                    holdings[t.stock_id] = holdings.get(t.stock_id, 0.0) + t.shares
                else:
                    cash += t.shares * t.price - t.cost
                    holdings[t.stock_id] = holdings.get(t.stock_id, 0.0) - t.shares
                    if abs(holdings[t.stock_id]) <= 1e-12:
                        del holdings[t.stock_id]
            value_after = cash + sum(sh * last_close[s] for s, sh in holdings.items())
            worst_rebalance = max(worst_rebalance, abs(
                value_after - (value_before - total_cost)) / value_before)

    compounded = float(np.prod(1.0 + np.asarray(result.daily_returns)))
    return worst_rebalance, abs(compounded - result.values[-1] / result.values[0])


def test_criterion_6_accounting_identities(crash_market):
    config = ScenarioConfig(start=Date(2015, 6, 1), end=Date(2015, 12, 31),
                            holdings=5, train_config=TrainConfig(seed=6),
                            costs=CostModel(commission_rate=0.001,
                                            sell_tax_rate=0.001))
    result = run_scenario(MarketStore(crash_market), "linreg", config)
    worst_rebalance, growth_error = _accounting_errors(crash_market, result,
                                                       config.initial_capital)
    ok = worst_rebalance <= 1e-9 and growth_error <= 1e-9
    assert verdict(6, "accounting identities", ok), \
        f"rebalance error {worst_rebalance:.3e}, growth error {growth_error:.3e}"


def test_criterion_6_on_a_random_ranking(monkeypatch):
    # a control ranker: seeded random scores over each action day's
    # eligible universe, traded under the strategies' rule with nothing trained
    def no_training(*args, **kwargs):
        raise AssertionError("a model trained")

    monkeypatch.setattr(strategies, "train", no_training)
    monkeypatch.setattr(strategies, "least_squares_fit", no_training)
    dataset, _ = generate_synthetic_market(SyntheticMarketConfig(
        seed=6, n_stocks=300, start=Date(2014, 1, 1), end=Date(2015, 12, 31),
        regime="crash"))
    store = MarketStore(dataset)
    config = ScenarioConfig(start=Date(2015, 7, 1), end=Date(2015, 12, 31),
                            costs=CostModel(commission_rate=0.0003, sell_tax_rate=0.001,
                                            lot_size=100))
    rng = np.random.default_rng(6)
    rankings = []
    for d, universe in scenario(store, config)[2]:
        stocks = sorted(universe)
        scores = rng.random(len(stocks)).tolist()
        rankings.append(Ranking(d, sorted(zip(stocks, scores), key=lambda kv: -kv[1])))
    result = trade(store, rankings, config)
    worst_rebalance, growth_error = _accounting_errors(dataset, result, config.initial_capital)
    whole_lots = all(t.shares % 100 == 0 for t in result.trades)
    ok = (len(result.trades) > 50 and whole_lots
          and worst_rebalance <= 1e-9 and growth_error <= 1e-9)
    assert verdict(6, "accounting identities on a random ranking", ok), \
        f"{len(result.trades)} trades, whole lots {whole_lots}, " \
        f"rebalance error {worst_rebalance:.3e}, growth error {growth_error:.3e}"


@pytest.mark.slow
def test_criterion_7_upward_shift():
    wins = {"linreg": 0, "fcnn": 0, "lstm": 0}
    worst_elapsed = 0.0
    for seed in range(10):
        dataset, _ = generate_synthetic_market(SyntheticMarketConfig(
            seed=seed, n_stocks=300, start=Date(2014, 1, 1),
            end=Date(2015, 12, 31), regime="crash",
            planted_signal_strength=0.5))
        start = time.monotonic()
        # one store for the three strategies, as a backtest run shares it
        store = MarketStore(dataset)
        for strategy in wins:
            config = ScenarioConfig(start=Date(2015, 7, 1), end=Date(2015, 12, 31),
                                    train_config=TrainConfig(seed=seed * 1000))
            result = run_scenario(store, strategy, config)
            if net_return(np.asarray(result.daily_returns)) > \
                    net_return(np.asarray(result.benchmark_returns)):
                wins[strategy] += 1
        worst_elapsed = max(worst_elapsed, time.monotonic() - start)
    ok = all(w >= 8 for w in wins.values()) and worst_elapsed < 60.0
    assert verdict(7, "upward shift vs crash benchmark", ok), \
        f"wins {wins}, worst per-seed elapsed {worst_elapsed:.1f}s"


def test_criterion_8_moderating_effect():
    passing = 0
    for seed in range(10):
        samples, labels = lstm_task(seed)
        model = LstmModel.create(seed=seed)
        model, _ = train(model, samples, labels,
                         TrainConfig(epochs=10, batch_size=10, seed=seed))
        predictions = model.forward(samples)
        if predictions.std() <= labels.std():
            passing += 1
    ok = passing >= 9
    assert verdict(8, "moderating effect", ok), f"{passing}/10 seeds"


def test_criterion_9_determinism(tmp_path):
    out_dir = tmp_path / "out"
    ini = tmp_path / "run.ini"
    ini.write_text(f"""\
[run]
seed = 9
strategies = linreg,fcnn,lstm
start = 2015-09-01
end = 2015-12-31
out_dir = {out_dir}
holdings = 5

[data]
source = synthetic
n_stocks = 40
start = 2014-01-01
end = 2015-12-31
regime = crash
""", encoding="utf-8")

    def run_once():
        with open(tmp_path / "stdout.txt", "w") as fh:
            assert cmd_backtest(load_run_config(ini), out=fh) == 0
        return {p.relative_to(out_dir).as_posix(): p.read_bytes()
                for p in sorted(out_dir.rglob("*")) if p.is_file()}

    first = run_once()
    second = run_once()
    ok = first == second and len(first) == 12
    assert verdict(9, "byte-identical reruns", ok)


def test_criterion_10_factor_totality(crash_market):
    all_finite = True
    checked = 0
    for d in action_days(crash_market.calendar, Date(2015, 1, 1), Date(2015, 12, 31)):
        universe = eligible_universe(crash_market, d)
        matrix = normalize_panel(drop_sparse_rows(build_panel(MarketStore(crash_market),
                                                              universe, d)))
        checked += matrix.size
        all_finite = all_finite and bool(np.isfinite(matrix).all())

    # RET_3M must compound three consecutive RET_1M-style 21-day segments
    rng = np.random.default_rng(10)
    dates = weekdays(Date(2014, 1, 1), Date(2015, 12, 31))
    closes = 50.0 * np.exp(np.cumsum(rng.normal(0.0, 0.01, size=len(dates))))
    bars = []
    prev = closes[0]
    for d, c in zip(dates, closes):
        bars.append(make_bar("A", d, float(c), prev_close=float(prev)))
        prev = c
    market = build_market(bars, {d: 3000.0 for d in dates},
                          [make_snapshot("A", dates[0])])
    d = Date(2015, 6, 30)
    i = dates.index(d)
    values = build_panel(MarketStore(market), ["A"], d).matrix[0]
    segments = np.prod([closes[i - k * 21] / closes[i - (k + 1) * 21]
                        for k in range(3)])
    window_error = abs(values[FACTOR_INDEX["RET_3M"]] - (segments - 1.0))

    ok = all_finite and checked > 0 and window_error <= 1e-9
    assert verdict(10, "factor totality", ok), \
        f"finite={all_finite}, checked={checked}, window error {window_error:.3e}"
