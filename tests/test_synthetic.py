"""Seeded market generator: determinism, regimes, planted signal."""

import math
from datetime import date as Date
from itertools import product

import numpy as np
import pytest

from conftest import bar_rows, bars_of, benchmark_of, snapshots, weekdays
from rollingquant import synthetic
from rollingquant.errors import ConfigError
from rollingquant.marketdata import MarketDataset, TradingCalendar, action_days
from rollingquant.synthetic import (
    REGIMES,
    SyntheticMarketConfig,
    generate_synthetic_market,
)


def _config(**overrides):
    fields = dict(seed=5, n_stocks=20, start=Date(2014, 1, 1),
                  end=Date(2015, 12, 31), regime="crash")
    fields.update(overrides)
    return SyntheticMarketConfig(**fields)


class TestValidation:
    def test_too_few_stocks(self):
        with pytest.raises(ConfigError, match=r"^n_stocks: must be >= 10$"):
            _config(n_stocks=3)

    @pytest.mark.parametrize("n_stocks", [10**15, 10**30])
    def test_too_many_stock_days(self, n_stocks):
        with pytest.raises(ConfigError, match=r"^n_stocks: must be <= 10,000,000 over the 730 "
                                              r"calendar days of start\.\.end$"):
            _config(n_stocks=n_stocks)

    def test_stock_days_bound(self):
        # 10,000 stocks over 1,000 days is the bound; one day more is over it
        _config(n_stocks=10_000, start=Date(2014, 1, 1), end=Date(2016, 9, 26))
        with pytest.raises(ConfigError, match="n_stocks"):
            _config(n_stocks=10_000, start=Date(2014, 1, 1), end=Date(2016, 9, 27))

    def test_unknown_regime(self):
        with pytest.raises(ConfigError, match=r"^regime: must be one of "
                                              r"\('inflection', 'fluctuating-decline', 'crash'\)$"):
            _config(regime="sideways")

    def test_strength_out_of_range(self):
        with pytest.raises(ConfigError, match=r"^planted_signal_strength: must be in \[0, 1\]$"):
            _config(planted_signal_strength=1.5)

    def test_inverted_range(self):
        with pytest.raises(ConfigError, match="^start: must be before end$"):
            _config(start=Date(2016, 1, 1))

    def test_range_too_short(self):
        # 2015-01-05..2015-02-27 holds 40 weekdays, the fewest a market needs
        _config(start=Date(2015, 1, 5), end=Date(2015, 2, 27))
        with pytest.raises(ConfigError, match="^end: must be at least 40 weekdays after start$"):
            _config(start=Date(2015, 1, 5), end=Date(2015, 2, 26))

    def test_range_to_the_last_date(self):
        market, _ = generate_synthetic_market(_config(start=Date(9999, 11, 1),
                                                      end=Date(9999, 12, 31)))
        assert market.calendar.dates[-1] == Date(9999, 12, 31)

    def test_all_regimes_generate(self):
        for regime in REGIMES:
            market, _ = generate_synthetic_market(_config(regime=regime))
            assert len(market.calendar.dates) > 400


class TestDeterminism:
    def test_same_seed_same_market(self):
        (a, a_latent), (b, b_latent) = (generate_synthetic_market(_config()) for _ in "ab")
        assert benchmark_of(a) == benchmark_of(b)
        assert list(bar_rows(a)) == list(bar_rows(b))
        assert snapshots(a) == snapshots(b)
        assert np.array_equal(a_latent, b_latent)

    def test_different_seed_differs(self):
        a, _ = generate_synthetic_market(_config())
        b, _ = generate_synthetic_market(_config(seed=6))
        assert benchmark_of(a) != benchmark_of(b)


class TestBenchmarkRegimes:
    def test_crash_monthly_returns_are_minus_six_percent(self):
        market, _ = generate_synthetic_market(_config())
        bench = benchmark_of(market)
        days = action_days(market.calendar, Date(2015, 1, 1), Date(2015, 12, 31))
        for t0, t1 in zip(days, days[1:]):
            r = bench[t1] / bench[t0] - 1.0
            assert abs(r - (-0.06)) < 1e-9

    def test_crash_six_month_drop_exceeds_thirty_percent(self):
        market, _ = generate_synthetic_market(_config())
        bench = benchmark_of(market)
        days = action_days(market.calendar, Date(2015, 6, 1), Date(2015, 12, 31))
        r = bench[days[-1]] / bench[days[0]] - 1.0
        assert r <= -0.30

    def test_inflection_template_anchored_to_range_end(self):
        market, _ = generate_synthetic_market(_config(regime="inflection"))
        bench = benchmark_of(market)
        days = action_days(market.calendar, Date(2015, 5, 1), Date(2015, 12, 31))
        template = [-0.08, -0.15, -0.12, -0.05, 0.10, 0.01, 0.05]
        observed = [bench[t1] / bench[t0] - 1.0
                    for t0, t1 in zip(days, days[1:])]
        for got, want in zip(observed, template):
            assert abs(got - want) < 1e-9


class TestPlantedSignal:
    def _quality_vs_excess(self, strength, seed):
        market, latent_quality = generate_synthetic_market(_config(
            seed=seed, n_stocks=300, planted_signal_strength=strength))
        days = action_days(market.calendar, Date(2015, 6, 1), Date(2015, 12, 31))
        t0, t1 = days[0], days[-1]
        bench = benchmark_of(market)[t1] / benchmark_of(market)[t0] - 1.0
        latents, excesses = [], []
        for stock_id, latent in zip(market.stocks, latent_quality.tolist()):
            latents.append(latent)
            p0, p1 = (market.tradeable_close(stock_id, d) for d in (t0, t1))
            excesses.append(p1 / p0 - 1.0 - bench)
        return float(np.corrcoef(latents, excesses)[0, 1])

    def test_zero_strength_kills_the_signal(self):
        assert abs(self._quality_vs_excess(0.0, seed=11)) < 0.1

    def test_positive_strength_plants_the_signal(self):
        assert self._quality_vs_excess(1.0, seed=11) > 0.5


class TestShape:
    def test_quarterly_fundamentals(self):
        market, _ = generate_synthetic_market(_config())
        snaps = [snap for snap in snapshots(market) if snap.stock_id == "S0000"]
        assert len(snaps) >= 7
        gaps = [(b.date - a.date).days for a, b in zip(snaps, snaps[1:])]
        assert all(80 <= g <= 100 for g in gaps)

    def test_bars_cover_every_calendar_day(self):
        market, _ = generate_synthetic_market(_config())
        for stock_id in market.stocks:
            assert len(bars_of(market, stock_id).dates) == len(market.calendar.dates)


def oracle_generate(config: SyntheticMarketConfig):
    """The generator as it was before its whole-array draws: a loop over
    (stock, snapshot) drawing each line item's noise as it goes, and months
    grouped from the dates. The bits generate_synthetic_market must give."""
    rng = np.random.default_rng(config.seed)

    dates = weekdays(config.start, config.end)
    grouped: dict[tuple[int, int], list[Date]] = {}
    for d in dates:
        grouped.setdefault((d.year, d.month), []).append(d)
    months = [grouped[k] for k in sorted(grouped)]
    n_months = len(months)
    n = config.n_stocks

    template = synthetic._MONTH_TEMPLATES[config.regime]
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

    strength = config.planted_signal_strength
    quality = rng.normal(0.0, 1.0, size=n)
    value = rng.normal(0.0, 1.0, size=n)
    tq = np.tanh(quality)
    close0 = rng.uniform(10.0, 100.0, size=n)
    shares_base = np.exp(rng.normal(17.0, 0.05, size=n))
    shares = shares_base * np.exp(-strength * (synthetic._VALUE_DISCOUNT * value
                                               + synthetic._QUALITY_DISCOUNT * quality))
    scale0 = close0 * shares
    base_turnover = np.exp(rng.normal(math.log(0.02), 0.4, size=n))
    industry = rng.integers(0, 10, size=n)

    monthly_drift = strength * (synthetic._QUALITY_DRIFT * quality
                                + synthetic._VALUE_DRIFT * value)
    stock_log = np.empty((n, len(dates)))
    pos = 0
    for month_days in months:
        k = len(month_days)
        idio = rng.normal(0.0, config.noise_level, size=(n, k))
        stock_log[:, pos:pos + k] = bench_log[pos:pos + k][None, :] \
            + (monthly_drift / k)[:, None] + idio
        pos += k
    closes = close0[:, None] * np.exp(np.cumsum(stock_log, axis=1))
    market_cap = closes * shares[:, None]
    turnover = base_turnover[:, None] * np.exp(rng.normal(0.0, 0.25, size=(n, len(dates))))

    stock_ids = [f"S{i:04d}" for i in range(n)]
    prev_close = np.hstack([close0[:, None], closes[:, :-1]])
    volume = turnover * shares[:, None]

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
                return base * float(np.exp(rng.normal(0.0, 0.2)))

            revenue = noisy(0.7 * scale)
            net_profit = margin * revenue * float(np.exp(rng.normal(0.0, 0.05)))
            total_assets = noisy(scale)
            net_assets = noisy(0.5 * scale)
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
    latent_quality = quality + (synthetic._VALUE_DRIFT / synthetic._QUALITY_DRIFT) * value
    return dataset, latent_quality


ARRAYS = ("bar_days", "close", "prev_close", "volume", "turnover", "market_cap", "suspended",
          "benchmark", "snapshot_bounds", "snapshot_days", "snapshot_values", "industry")
# a full two-year range; one that starts and ends inside a month; the 40
# weekdays of the shortest range
RANGES = [(Date(2014, 1, 1), Date(2015, 12, 31)), (Date(2014, 3, 12), Date(2015, 8, 19)),
          (Date(2015, 1, 5), Date(2015, 2, 27))]


class TestGeneratorOracle:
    """The whole-array generator gives the loop oracle's arrays, bit for bit
    and dtype for dtype, on every regime, size, strength and noise level."""

    @staticmethod
    def assert_same_market(config):
        (got, got_latent), (want, want_latent) = (
            generate_synthetic_market(config), oracle_generate(config))
        assert got.stocks == want.stocks
        assert got.calendar.dates == want.calendar.dates
        for name in ARRAYS:
            a, b = getattr(got, name), getattr(want, name)
            assert (a.dtype, a.shape) == (b.dtype, b.shape), name
            assert np.array_equal(a, b), name
        assert got_latent.dtype == want_latent.dtype
        assert np.array_equal(got_latent, want_latent)

    @pytest.mark.parametrize("regime", REGIMES)
    @pytest.mark.parametrize("n_stocks", [10, 12, 25])
    def test_small_markets_match_oracle(self, regime, n_stocks):
        cases = product(RANGES, (0.0, 0.5, 1.0), (0.0, 0.01))
        for seed, ((start, end), strength, noise_level) in enumerate(cases):
            self.assert_same_market(SyntheticMarketConfig(
                seed=seed, n_stocks=n_stocks, start=start, end=end, regime=regime,
                planted_signal_strength=strength, noise_level=noise_level))

    @pytest.mark.parametrize("regime", REGIMES)
    def test_300_stocks_match_oracle(self, regime):
        for seed, strength, noise_level in ((0, 0.5, 0.01), (1, 1.0, 0.0)):
            self.assert_same_market(_config(seed=seed, n_stocks=300, regime=regime,
                                            planted_signal_strength=strength,
                                            noise_level=noise_level))
