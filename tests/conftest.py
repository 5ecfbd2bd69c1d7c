"""Shared fixtures: hand-built micro markets and generated ones."""

import os
import subprocess
import sys
from datetime import date as Date
from datetime import timedelta
from pathlib import Path

import pytest

import rollingquant
from rollingquant.marketdata import FundamentalSnapshot, MarketDataset, TradingCalendar
from rollingquant.synthetic import SyntheticMarketConfig, generate_synthetic_market


def run_cli(*args, env=None):
    """The CLI in a fresh interpreter, so that a traceback reaches stderr,
    with the variables of env added to its environment."""
    src = str(Path(rollingquant.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]), **(env or {})}
    return subprocess.run([sys.executable, "-m", "rollingquant.cli", *args],
                          capture_output=True, text=True, env=env, check=False)


def weekdays(start: Date, end: Date):
    out = []
    d = start
    one = timedelta(days=1)
    while d <= end:
        if d.weekday() < 5:
            out.append(d)
        d += one
    return out


def broken_backward(loss_and_gradients, error):
    """A loss_and_gradients whose first gradient entry is off by error, as a
    broken backward pass would leave it."""
    def broken(model, batch, labels):
        loss, grads = loss_and_gradients(model, batch, labels)
        grads[0] = grads[0].copy()
        grads[0].flat[0] += error
        return loss, grads
    return broken


def make_bar(stock_id, d, close, prev_close=None, shares=10.0,
             turnover=0.02, suspended=False):
    """A bar row in BARS_COLUMNS order."""
    return (stock_id, d, close, close if prev_close is None else prev_close,
            turnover * shares, turnover, close * shares, suspended)


def make_snapshot(stock_id, d, **overrides):
    fields = dict(
        net_profit=100.0,
        non_recurring_gain_loss=10.0,
        net_assets=500.0,
        total_assets=1500.0,
        avg_total_assets=1500.0,
        long_term_debt=250.0,
        operating_revenue=700.0,
        operate_income=105.0,
        gross_profit=210.0,
        net_cash_flow=120.0,
        net_operate_cash_flow=130.0,
        net_profit_growth=0.05,
        cash=100.0,
        current_assets=300.0,
        current_liabilities=150.0,
        equity=500.0,
        industry_code=1,
    )
    fields.update(overrides)
    return FundamentalSnapshot(stock_id=stock_id, date=d, **fields)


def build_market(bars, benchmark, fundamentals=()):
    """Dataset from bar rows, a date -> close benchmark and snapshots;
    calendar = union of bar/benchmark dates."""
    return MarketDataset.from_rows(bars, fundamentals, benchmark)


def snapshots(market):
    """Every fundamental snapshot of the market, by stock and date."""
    return [snap for stock_id in sorted(market.fundamentals)
            for snap in market.fundamentals[stock_id]]


def flat_market(stock_prices, start=Date(2014, 1, 1), end=Date(2015, 12, 31),
                shares=10.0, bench_level=3000.0, with_fundamentals=True):
    """Constant-price weekday market, one quarterly snapshot stream per stock."""
    dates = weekdays(start, end)
    bars = [make_bar(stock_id, d, price, shares=shares)
            for stock_id, price in stock_prices.items() for d in dates]
    fundamentals = [make_snapshot(stock_id, d)
                    for stock_id in stock_prices if with_fundamentals
                    for d in dates[::63]]
    benchmark = {d: bench_level for d in dates}
    return build_market(bars, benchmark, fundamentals)


@pytest.fixture(scope="session")
def crash_market():
    """60-stock generated market ending in a 6-month crash."""
    return generate_synthetic_market(SyntheticMarketConfig(
        seed=1, n_stocks=60, start=Date(2014, 1, 1), end=Date(2015, 12, 31),
        regime="crash", planted_signal_strength=0.6,
    ))


@pytest.fixture(scope="session")
def calendar_2015():
    return TradingCalendar(weekdays(Date(2015, 1, 1), Date(2015, 12, 31)))


@pytest.fixture
def gapped_market():
    """A 10-stock generated market rebuilt from its rows to carry frictions:

    * S0000 misses every fifth bar;
    * S0001 is suspended for 40 bars from its 300th, carried at its last close
      with no turnover;
    * S0002 lists late, with no bar and no snapshot before its 280th bar;
    * S0003's bars stop 90 bars before the end of the data.
    """
    market = generate_synthetic_market(SyntheticMarketConfig(
        seed=3, n_stocks=10, start=Date(2014, 1, 1), end=Date(2015, 12, 31),
        regime="crash", planted_signal_strength=0.5,
    ))
    dates = market.calendar.dates
    index = {d: i for i, d in enumerate(dates)}
    listing = dates[280]
    last = market.bars["S0001"]
    close, mcap = float(last.close[299]), float(last.market_cap[299])
    rows = []
    for row in market.bar_rows():
        stock_id, d = row[:2]
        i = index[d]
        if stock_id == "S0000" and i % 5 == 0 or stock_id == "S0002" and d < listing \
                or stock_id == "S0003" and i >= len(dates) - 90:
            continue
        if stock_id == "S0001" and 300 <= i < 340:
            row = (stock_id, d, close, close, 0.0, 0.0, mcap, True)
        rows.append(row)
    fundamentals = [s for s in snapshots(market)
                    if s.stock_id != "S0002" or s.date >= listing]
    return build_market(rows, market.benchmark, fundamentals)


def close_zero_spells(market):
    """The market with suspensions carried at close 0: S0004's 400th to
    413th bars, over a month end, at market cap and turnover 0 too, and
    S0005's 300th bar."""
    spell = market.bars["S0004"]
    for column in (spell.close, spell.prev_close, spell.market_cap, spell.turnover):
        column[400:414] = 0.0
    spell.suspended[400:414] = True
    single = market.bars["S0005"]
    single.close[300] = 0.0
    single.suspended[300] = True
    return market
