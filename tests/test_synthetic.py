"""Seeded market generator: determinism, regimes, planted signal."""

import math
from datetime import date as Date

import numpy as np
import pytest

from conftest import bar_rows, bars_of, benchmark_of, snapshots
from rollingquant.errors import ConfigError
from rollingquant.marketdata import action_days
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
        with pytest.raises(ConfigError):
            _config(n_stocks=3).validate()

    def test_unknown_regime(self):
        with pytest.raises(ConfigError, match="regime"):
            _config(regime="sideways").validate()

    def test_strength_out_of_range(self):
        with pytest.raises(ConfigError):
            _config(planted_signal_strength=1.5).validate()

    def test_inverted_range(self):
        with pytest.raises(ConfigError):
            _config(start=Date(2016, 1, 1)).validate()

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
