"""Seeded synthetic market generator for desk-scale tests.

Benchmark monthly returns follow a regime template (anchored so the final
months of the range reproduce the template exactly); daily benchmark log
returns are noise around the monthly target with the noise de-meaned per
month, so monthly compounding is exact.

Each stock carries two latent drivers, both scaled by
planted_signal_strength:

* quality q  - shows up cleanly in profitability ratios and adds a
  persistent excess drift; the signal projection models can learn.
* value z    - a hidden discount planted in the share count. Fundamental
  line items scale with the discounted base, so every per-cap and
  per-share ratio looks ordinary; the discount survives only as a total
  market cap lower than the factor profile implies, which is exactly what
  a valuation residual measures. Discounted stocks earn excess drift.

Fundamental line items are observed with independent multiplicative noise.
The generator fills the dataset's arrays directly, from a config that
checked its settings when it was built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date as Date
from datetime import timedelta

import numpy as np

from .errors import ConfigError, require
from .marketdata import MarketDataset, TradingCalendar

REGIMES = ("inflection", "fluctuating-decline", "crash")

# Monthly benchmark return templates per regime; "crash" repeats -6%.
_MONTH_TEMPLATES = {
    "inflection": [-0.08, -0.15, -0.12, -0.05, 0.10, 0.01, 0.05],
    "fluctuating-decline": [-0.08, 0.00, -0.05, 0.03, -0.08, 0.01, -0.05],
    "crash": [-0.06],
}

# Monthly excess log drift per unit latent value at full signal strength.
_QUALITY_DRIFT = 0.03
_VALUE_DRIFT = 0.03
# Share-count discount per unit latent at full strength (log scale). The
# small quality term offsets the share of quality-driven price history that
# a linear fit cannot attribute, keeping the residual centred on value.
_VALUE_DISCOUNT = 0.50
_QUALITY_DISCOUNT = 0.08
# Std of each stock-snapshot's 11 observation noise draws, in draw order:
# the log-noise of ten line items, and at index 7 the quality ratio's
# additive noise.
_NOISE_STDS = np.array([0.2, 0.05, 0.2, 0.2, 0.2, 0.2, 0.2, 0.02, 0.2, 0.2, 0.2])
# The largest n_stocks times calendar days of start..end; generation holds
# about 75 bytes per stock-day.
_MAX_STOCK_DAYS = 10_000_000


@dataclass(frozen=True)
class SyntheticMarketConfig:
    seed: int
    start: Date
    end: Date
    n_stocks: int = 300
    regime: str = "inflection"
    planted_signal_strength: float = 0.5
    noise_level: float = 0.01  # daily idiosyncratic log-return std

    def __post_init__(self):
        require(n_stocks=(self.n_stocks >= 10, ">= 10"),
                planted_signal_strength=(0.0 <= self.planted_signal_strength <= 1.0, "in [0, 1]"),
                regime=(self.regime in REGIMES, f"one of {REGIMES}"),
                start=(self.start < self.end, "before end"))
        days = (self.end - self.start).days + 1
        require(n_stocks=(self.n_stocks * days <= _MAX_STOCK_DAYS,
                          f"<= {_MAX_STOCK_DAYS:,} over the {days} calendar days of start..end"))
        # require evaluates all its rules before it checks any, and counting
        # the weekdays steps through every day: so only once days is bounded
        require(end=(len(_weekday_dates(self.start, self.end)) >= 40,
                     "at least 40 weekdays after start"),
                noise_level=(self.noise_level >= 0, ">= 0"))


def _weekday_dates(start: Date, end: Date):
    # counted, not stepped past end, which may be the last date there is
    days = (start + timedelta(days=i) for i in range((end - start).days + 1))
    return [d for d in days if d.weekday() < 5]


def generate_synthetic_market(config: SyntheticMarketConfig):
    """(dataset, latent quality): the market, and each stock's planted
    excess drift in units of the quality driver, in dataset.stocks order."""
    rng = np.random.default_rng(config.seed)

    calendar = TradingCalendar(_weekday_dates(config.start, config.end))
    n_days = len(calendar.dates)
    n = config.n_stocks
    # each month's [start, end) positions in the calendar
    ends = [calendar.index[d] + 1 for d in calendar.month_last_days()]
    months = list(zip([0] + ends[:-1], ends))

    # Benchmark path with exact monthly compounding.
    template = _MONTH_TEMPLATES[config.regime]
    bench_log = np.empty(n_days)
    for j, (lo, hi) in enumerate(months):
        noise = rng.normal(0.0, 0.006, size=hi - lo)
        noise -= noise.mean()
        target = template[(j - len(months)) % len(template)]
        bench_log[lo:hi] = math.log1p(target) / (hi - lo) + noise
    bench_close = 3000.0 * np.exp(np.cumsum(bench_log))

    # Per-stock statics.
    strength = config.planted_signal_strength
    quality = rng.normal(0.0, 1.0, size=n)
    value = rng.normal(0.0, 1.0, size=n)
    tq = np.tanh(quality)
    close0 = rng.uniform(10.0, 100.0, size=n)
    shares_base = np.exp(rng.normal(17.0, 0.05, size=n))
    shares = shares_base * np.exp(
        -strength * (_VALUE_DISCOUNT * value + _QUALITY_DISCOUNT * quality))
    # Fundamental scale tracks the discounted cap so ratios stay ordinary
    # and the discount shows up only in the market cap level itself.
    scale0 = close0 * shares
    base_turnover = np.exp(rng.normal(math.log(0.02), 0.4, size=n))
    industry = rng.integers(0, 10, size=n)

    # Daily stock log returns: benchmark + latent drift + idiosyncratic noise.
    monthly_drift = strength * (_QUALITY_DRIFT * quality + _VALUE_DRIFT * value)
    stock_log = np.empty((n, n_days))
    # a large noise_level overflows; the check below reports it
    with np.errstate(all="ignore"):
        for lo, hi in months:
            idio = rng.normal(0.0, config.noise_level, size=(n, hi - lo))
            stock_log[:, lo:hi] = bench_log[lo:hi][None, :] \
                + (monthly_drift / (hi - lo))[:, None] + idio
        closes = close0[:, None] * np.exp(np.cumsum(stock_log, axis=1))
        market_cap = closes * shares[:, None]
    for column in (closes, market_cap):
        if not (np.isfinite(column).all() and (column > 0).all()):
            raise ConfigError(f"[data] noise_level = {config.noise_level} takes a close or "
                              "market cap out of float range; lower it")
    turnover = base_turnover[:, None] * np.exp(rng.normal(0.0, 0.25, size=(n, n_days)))

    stock_ids = [f"S{i:04d}" for i in range(n)]
    prev_close = np.hstack([close0[:, None], closes[:, :-1]])
    volume = turnover * shares[:, None]

    # Quarterly fundamentals at month-end trading days, as (stocks, snapshots)
    # arrays. Profitability ratios carry the quality signal; every line item
    # gets its own observation noise, drawn in one block.
    snapshot_days = calendar.month_last_days()[::3]
    k = len(snapshot_days)
    noise = rng.normal(0.0, _NOISE_STDS, size=(n, k, 11))
    factor = np.exp(noise)
    scale = scale0[:, None] * (closes[:, [calendar.index[d] for d in snapshot_days]]
                               / close0[:, None])
    margin = (0.10 * (1.0 + 0.5 * strength * tq))[:, None]
    gross = (0.30 * (1.0 + 0.3 * strength * tq))[:, None]
    revenue = 0.7 * scale * factor[..., 0]
    net_profit = margin * revenue * factor[..., 1]
    total_assets = scale * factor[..., 2]
    net_assets = 0.5 * scale * factor[..., 3]
    # in FUNDAMENTALS_COLUMNS[2:18] order, total_assets kept >= net_assets
    line_items = [
        net_profit, 0.1 * net_profit, net_assets, total_assets + net_assets,
        total_assets + net_assets, 0.25 * scale * factor[..., 4], revenue, 0.15 * revenue,
        gross * revenue, 0.12 * scale * factor[..., 5], 0.13 * scale * factor[..., 6],
        0.05 + 0.10 * strength * quality[:, None] + noise[..., 7],
        0.10 * scale * factor[..., 8], 0.30 * scale * factor[..., 9],
        0.15 * scale * factor[..., 10], net_assets]

    dataset = MarketDataset(
        stocks=stock_ids, calendar=calendar,
        bar_days=np.tile(np.arange(n_days), (n, 1)),
        close=closes, prev_close=prev_close, volume=volume, turnover=turnover,
        market_cap=market_cap, suspended=np.zeros((n, n_days), dtype=bool),
        benchmark=bench_close,
        snapshot_bounds=np.arange(n + 1) * k,
        snapshot_days=np.tile([d.toordinal() for d in snapshot_days], n),
        snapshot_values=np.stack(line_items, axis=-1).reshape(n * k, 16),
        industry=np.repeat(industry, k).astype(object),
    )
    latent_quality = quality + (_VALUE_DRIFT / _QUALITY_DRIFT) * value
    return dataset, latent_quality
