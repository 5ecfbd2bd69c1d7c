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
The generator fills the dataset's arrays directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date as Date
from datetime import timedelta

import numpy as np

from .errors import ConfigError
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
# Std of the independent observation noise on fundamental line items.
_FUNDAMENTAL_NOISE = 0.2


@dataclass
class SyntheticMarketConfig:
    seed: int
    n_stocks: int
    start: Date
    end: Date
    regime: str = "inflection"
    planted_signal_strength: float = 0.5
    noise_level: float = 0.01  # daily idiosyncratic log-return std

    def validate(self):
        if self.n_stocks < 10:
            raise ConfigError("n_stocks must be >= 10")
        if not 0.0 <= self.planted_signal_strength <= 1.0:
            raise ConfigError("planted_signal_strength must be in [0, 1]")
        if self.regime not in REGIMES:
            raise ConfigError(f"unknown regime {self.regime!r}; choose one of {REGIMES}")
        if self.start >= self.end:
            raise ConfigError("start must precede end")
        if self.noise_level < 0:
            raise ConfigError("noise_level must be >= 0")


def _weekday_dates(start: Date, end: Date):
    out = []
    d = start
    one = timedelta(days=1)
    while d <= end:
        if d.weekday() < 5:
            out.append(d)
        d += one
    return out


def _group_by_month(dates):
    months: dict[tuple[int, int], list[Date]] = {}
    for d in dates:
        months.setdefault((d.year, d.month), []).append(d)
    return [months[k] for k in sorted(months)]


def generate_synthetic_market(config: SyntheticMarketConfig):
    """(dataset, latent quality): the market, and each stock's planted
    excess drift in units of the quality driver, in dataset.stocks order."""
    config.validate()
    rng = np.random.default_rng(config.seed)

    dates = _weekday_dates(config.start, config.end)
    if len(dates) < 40:
        raise ConfigError("date range too short to generate a market")
    months = _group_by_month(dates)
    n_months = len(months)
    n = config.n_stocks

    # Benchmark path with exact monthly compounding.
    template = _MONTH_TEMPLATES[config.regime]
    month_targets = [template[(j - n_months) % len(template)] for j in range(n_months)]
    bench_log = np.empty(len(dates))
    pos = 0
    for target, month_days in zip(month_targets, months):
        k = len(month_days)
        noise = rng.normal(0.0, 0.006, size=k)
        noise -= noise.mean()
        bench_log[pos:pos + k] = math.log1p(target) / k + noise
        pos += k
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
    stock_log = np.empty((n, len(dates)))
    pos = 0
    # a large noise_level overflows; the check below reports it
    with np.errstate(all="ignore"):
        for month_days in months:
            k = len(month_days)
            idio = rng.normal(0.0, config.noise_level, size=(n, k))
            stock_log[:, pos:pos + k] = bench_log[pos:pos + k][None, :] \
                + (monthly_drift / k)[:, None] + idio
            pos += k
        closes = close0[:, None] * np.exp(np.cumsum(stock_log, axis=1))
        market_cap = closes * shares[:, None]
    for column in (closes, market_cap):
        if not (np.isfinite(column).all() and (column > 0).all()):
            raise ConfigError(f"[data] noise_level = {config.noise_level} takes a close or "
                              "market cap out of float range; lower it")
    turnover = base_turnover[:, None] * np.exp(rng.normal(0.0, 0.25, size=(n, len(dates))))

    stock_ids = [f"S{i:04d}" for i in range(n)]
    prev_close = np.hstack([close0[:, None], closes[:, :-1]])
    volume = turnover * shares[:, None]

    # Quarterly fundamentals at month-end trading days. Profitability ratios
    # carry the quality signal; every line item gets its own observation
    # noise.
    calendar = TradingCalendar(dates)
    snapshot_days = calendar.month_last_days()[::3]
    snapshots = []
    for i in range(n):
        margin = 0.10 * (1.0 + 0.5 * strength * tq[i])
        gross = 0.30 * (1.0 + 0.3 * strength * tq[i])
        for snap_day in snapshot_days:
            j = calendar.index[snap_day]
            scale = float(scale0[i]) * float(closes[i, j] / close0[i])

            def noisy(base):
                return base * float(np.exp(rng.normal(0.0, _FUNDAMENTAL_NOISE)))

            revenue = noisy(0.7 * scale)
            net_profit = margin * revenue * float(np.exp(rng.normal(0.0, 0.05)))
            total_assets = noisy(scale)
            net_assets = noisy(0.5 * scale)
            # in FUNDAMENTALS_COLUMNS[2:18] order, total_assets kept >=
            # net_assets; the draws keep their order
            snapshots.append([
                net_profit, 0.1 * net_profit, net_assets, total_assets + net_assets,
                total_assets + net_assets, noisy(0.25 * scale), revenue, 0.15 * revenue,
                gross * revenue, noisy(0.12 * scale), noisy(0.13 * scale),
                0.05 + 0.10 * strength * float(quality[i]) + float(rng.normal(0.0, 0.02)),
                noisy(0.10 * scale), noisy(0.30 * scale), noisy(0.15 * scale), net_assets])

    k = len(snapshot_days)
    dataset = MarketDataset(
        stocks=stock_ids, calendar=calendar,
        bar_days=np.tile(np.arange(len(dates)), (n, 1)),
        close=closes, prev_close=prev_close, volume=volume, turnover=turnover,
        market_cap=market_cap, suspended=np.zeros((n, len(dates)), dtype=bool),
        benchmark=bench_close,
        snapshot_bounds=np.arange(n + 1) * k,
        snapshot_days=np.tile([d.toordinal() for d in snapshot_days], n),
        snapshot_values=np.array(snapshots, dtype=float),
        industry=np.repeat(industry, k).astype(object),
    )
    latent_quality = quality + (_VALUE_DRIFT / _QUALITY_DRIFT) * value
    return dataset, latent_quality
