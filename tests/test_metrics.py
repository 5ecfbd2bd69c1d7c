"""Report statistics: Sharpe, similarity, monthly breakdown, JSON rendering."""

import json
import math
from datetime import date as Date

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import weekdays
from rollingquant.errors import ValidationError
from rollingquant.metrics import (
    DEFAULT_RISK_FREE_ANNUAL,
    TRADING_DAYS_PER_YEAR,
    annualized_return,
    build_report,
    monthly_breakdown,
    net_return,
    sharpe_ratio,
    similarity_to_benchmark,
)

YEAR_DAYS = weekdays(Date(2015, 1, 5), Date(2015, 12, 31))[:TRADING_DAYS_PER_YEAR]


def series(returns):
    return np.asarray(returns, dtype=float)


class TestAnnualizedReturn:
    def test_constant_daily_rate_compounds(self):
        r = 1.10 ** (1.0 / TRADING_DAYS_PER_YEAR) - 1.0
        s = series(np.full(TRADING_DAYS_PER_YEAR, r))
        assert annualized_return(s) == pytest.approx(0.10, abs=1e-12)

    def test_half_year_extrapolates(self):
        r = 1.10 ** (1.0 / TRADING_DAYS_PER_YEAR) - 1.0
        s = series(np.full(126, r))
        assert annualized_return(s) == pytest.approx(0.10, abs=1e-12)

    def test_total_loss_floors_at_minus_one(self):
        assert annualized_return(series([0.5, -1.0])) == -1.0


class TestSharpeRatio:
    def test_known_value(self):
        # portfolio compounds to exactly +10% over the year; excess returns
        # alternate +/- x so the annualized excess std is exactly 0.20
        n = TRADING_DAYS_PER_YEAR
        r_p = 1.10 ** (1.0 / n) - 1.0
        x = 0.20 / math.sqrt(n)
        signs = np.tile([1.0, -1.0], n // 2)
        portfolio = series(np.full(n, r_p))
        benchmark = series(np.full(n, r_p) - signs * x)
        value = sharpe_ratio(portfolio, benchmark, risk_free_annual=0.03)
        assert value == pytest.approx((0.10 - 0.03) / 0.20, abs=1e-12)

    def test_zero_volatility_is_signed_infinity(self):
        n = 40
        losing = series(np.full(n, -0.001))
        winning = series(np.full(n, 0.001))
        benchmark = series(np.full(n, 0.002))
        assert sharpe_ratio(losing, benchmark, 0.03) == -math.inf
        assert sharpe_ratio(winning, benchmark, 0.0) == math.inf


class TestSimilarity:
    def test_identical_series_score_zero(self):
        s = series(np.linspace(-0.01, 0.01, 30))
        assert similarity_to_benchmark(s, s) == 0.0

    def test_constant_daily_offset_scores_zero(self):
        rng = np.random.default_rng(5)
        r = rng.normal(0.0, 0.01, 60)
        assert similarity_to_benchmark(series(r + 0.003), series(r)) <= 1e-12

    def test_matches_population_std_oracle(self):
        rng = np.random.default_rng(6)
        a = rng.normal(0.0, 0.01, 80)
        b = rng.normal(0.0, 0.01, 80)
        diff = a - b
        oracle = math.sqrt(np.mean((diff - diff.mean()) ** 2))
        assert similarity_to_benchmark(series(a), series(b)) == \
            pytest.approx(oracle, abs=1e-15)

    @given(st.floats(-0.05, 0.05), st.integers(2, 100))
    def test_offset_invariance_property(self, offset, n):
        rng = np.random.default_rng(n)
        r = rng.normal(0.0, 0.01, n)
        value = similarity_to_benchmark(series(r + offset), series(r))
        assert value <= 1e-12


class TestMonthlyBreakdown:
    def test_two_months_two_rows(self):
        dates = weekdays(Date(2015, 6, 1), Date(2015, 7, 31))
        rng = np.random.default_rng(7)
        rows = monthly_breakdown(dates, series(rng.normal(0, 0.01, len(dates))),
                                 series(rng.normal(0, 0.01, len(dates))))
        assert [row.month for row in rows] == ["2015-06", "2015-07"]

    def test_flat_month_returns_zero(self):
        dates = weekdays(Date(2015, 6, 1), Date(2015, 6, 30))
        n = len(dates)
        rows = monthly_breakdown(dates, series(np.zeros(n)), series(np.full(n, 0.001)))
        assert rows[0].portfolio_return == 0.0

    def test_month_compounds_daily_returns(self):
        dates = weekdays(Date(2015, 6, 1), Date(2015, 6, 30))
        n = len(dates)
        r = (1.0 - 0.08) ** (1.0 / n) - 1.0
        rows = monthly_breakdown(dates, series(np.full(n, r)), series(np.zeros(n)))
        assert rows[0].portfolio_return == pytest.approx(-0.08, abs=1e-12)

    def test_monthly_sharpe_is_mean_over_std(self):
        dates = weekdays(Date(2015, 6, 1), Date(2015, 6, 30))
        n = len(dates)
        rng = np.random.default_rng(8)
        r_p = rng.normal(0.001, 0.01, n)
        r_b = rng.normal(0.0, 0.01, n)
        rows = monthly_breakdown(dates, series(r_p), series(r_b))
        excess = r_p - r_b
        assert rows[0].sharpe == pytest.approx(excess.mean() / excess.std())


class TestBuildReport:
    def test_report_fields_and_json_schema(self):
        rng = np.random.default_rng(9)
        n = 120
        dates = YEAR_DAYS[:n]
        portfolio = series(rng.normal(0.001, 0.01, n))
        benchmark = series(rng.normal(0.0, 0.01, n))
        report = build_report("linreg", dates, portfolio, benchmark)
        doc = json.loads(report.to_json())
        assert set(doc) == {"strategy", "sharpe_ratio", "net_return",
                            "benchmark_return", "similarity",
                            "risk_free_annual", "monthly"}
        assert doc["strategy"] == "linreg"
        assert doc["net_return"] == pytest.approx(net_return(portfolio))
        assert doc["risk_free_annual"] == DEFAULT_RISK_FREE_ANNUAL
        assert len(doc["monthly"]) == len({d.month for d in dates})

    def test_all_cash_portfolio(self):
        n = 40
        rng = np.random.default_rng(10)
        bench = rng.normal(0.0, 0.01, n)
        report = build_report("linreg", YEAR_DAYS[:n], series(np.zeros(n)), series(bench))
        assert report.net_return == 0.0
        assert report.similarity == pytest.approx(bench.std(), abs=1e-15)

    def test_infinite_sharpe_renders_undefined(self):
        n = 40
        report = build_report("lstm", YEAR_DAYS[:n], series(np.full(n, 0.001)),
                              series(np.full(n, 0.001)))
        assert json.loads(report.to_json())["sharpe_ratio"] == "undefined"

    def test_json_is_deterministic(self):
        rng = np.random.default_rng(11)
        n = 60
        portfolio = series(rng.normal(0.001, 0.01, n))
        benchmark = series(rng.normal(0.0, 0.01, n))
        a = build_report("fcnn", YEAR_DAYS[:n], portfolio, benchmark).to_json()
        b = build_report("fcnn", YEAR_DAYS[:n], portfolio, benchmark).to_json()
        assert a == b

    def test_empty_series_rejected(self):
        with pytest.raises(ValidationError):
            build_report("linreg", [], series([]), series([]))

    def test_length_mismatch_rejected(self):
        # dates against returns, then returns against benchmark returns
        for n_dates, n_benchmark in [(3, 2), (2, 1)]:
            with pytest.raises(ValidationError):
                build_report("linreg", YEAR_DAYS[:n_dates], series([0.01, 0.02]),
                             series([0.01] * n_benchmark))
