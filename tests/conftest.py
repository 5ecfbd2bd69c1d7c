"""Shared fixtures: hand-built micro markets and generated ones."""

from dataclasses import replace
from datetime import date as Date
from datetime import timedelta

import pytest

from rollingquant.marketdata import (
    FundamentalSnapshot,
    MarketDataset,
    TradeBar,
    TradingCalendar,
)
from rollingquant.synthetic import SyntheticMarketConfig, generate_synthetic_market


def weekdays(start: Date, end: Date):
    out = []
    d = start
    one = timedelta(days=1)
    while d <= end:
        if d.weekday() < 5:
            out.append(d)
        d += one
    return out


def make_bar(stock_id, d, close, prev_close=None, shares=10.0,
             turnover=0.02, suspended=False):
    return TradeBar(
        stock_id=stock_id,
        date=d,
        close=close,
        prev_close=close if prev_close is None else prev_close,
        volume=turnover * shares,
        turnover_ratio=turnover,
        market_cap=close * shares,
        is_suspended=suspended,
    )


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


def build_market(bars, benchmark, fundamentals=None):
    """Dataset from explicit pieces; calendar = union of bar/benchmark dates."""
    dates = set(benchmark)
    for by_date in bars.values():
        dates.update(by_date)
    return MarketDataset(
        bars=bars,
        fundamentals=fundamentals or {},
        benchmark=dict(benchmark),
        calendar=TradingCalendar(sorted(dates)),
    )


def flat_market(stock_prices, start=Date(2014, 1, 1), end=Date(2015, 12, 31),
                shares=10.0, bench_level=3000.0, with_fundamentals=True):
    """Constant-price weekday market, one quarterly snapshot stream per stock."""
    dates = weekdays(start, end)
    bars = {}
    fundamentals = {}
    for stock_id, price in stock_prices.items():
        bars[stock_id] = {d: make_bar(stock_id, d, price, shares=shares) for d in dates}
        if with_fundamentals:
            fundamentals[stock_id] = [
                make_snapshot(stock_id, d) for d in dates[::63]
            ]
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
    """A 10-stock generated market changed in place to carry frictions:

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
    bars = market.bars
    for d in sorted(bars["S0000"])[::5]:
        del bars["S0000"][d]
    dates = sorted(bars["S0001"])
    last = bars["S0001"][dates[299]]
    for d in dates[300:340]:
        bars["S0001"][d] = replace(last, date=d, prev_close=last.close, volume=0.0,
                                   turnover_ratio=0.0, is_suspended=True)
    listing = sorted(bars["S0002"])[280]
    bars["S0002"] = {d: bar for d, bar in bars["S0002"].items() if d >= listing}
    market.fundamentals["S0002"] = [s for s in market.fundamentals["S0002"]
                                    if s.date >= listing]
    for d in sorted(bars["S0003"])[-90:]:
        del bars["S0003"][d]
    return market
