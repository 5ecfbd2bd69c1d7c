"""Indicators, the 47-factor vector, and cross-sectional normalization."""

import math
from datetime import date as Date

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import build_market, flat_market, make_bar, make_snapshot, snapshots, weekdays
from rollingquant.errors import ValidationError
from rollingquant.factors import (
    FACTOR_INDEX,
    FACTOR_NAMES,
    FactorPanel,
    MarketStore,
    apply_normalization,
    build_panel,
    compute_normalization,
    drop_sparse_rows,
    ema,
    macd_indicators,
    rolling_beta,
)


class TestEma:
    def test_constant_series_is_fixed_point(self):
        assert list(ema([5.0, 5.0, 5.0], 4)) == [5.0, 5.0, 5.0]

    def test_hand_recurrence(self):
        # k = 2/3: 1, 1 + 2/3*(2-1), 5/3 + 2/3*(3-5/3)
        out = ema([1.0, 2.0, 3.0], 2)
        assert out == pytest.approx([1.0, 1.6667, 2.5556], abs=1e-4)

    def test_window_one_is_identity(self):
        series = [3.0, -1.0, 7.5]
        assert list(ema(series, 1)) == series

    def test_empty_series_rejected(self):
        with pytest.raises(ValidationError):
            ema([], 3)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50),
           st.integers(1, 40))
    def test_stays_within_series_range(self, series, n):
        out = ema(series, n)
        assert min(series) - 1e-9 <= out.min()
        assert out.max() <= max(series) + 1e-9


class TestMacd:
    def test_constant_series(self):
        dif, dea, macd = macd_indicators([80.0] * 40)
        assert (dif, dea, macd) == (0.0, 0.0, 0.0)

    def test_uptrend_has_positive_dif(self):
        closes = [100.0 + t for t in range(60)]
        dif, _, _ = macd_indicators(closes)
        assert dif > 0

    def test_short_series_rejected(self):
        with pytest.raises(ValidationError):
            macd_indicators([1.0] * 10)


class TestRollingBeta:
    def test_exact_linear_relation(self):
        rng = np.random.default_rng(0)
        bench = rng.normal(0.0, 0.01, size=252)
        assert rolling_beta(2.0 * bench, bench) == pytest.approx(2.0, abs=1e-12)

    def test_independent_noise_is_near_zero(self):
        rng = np.random.default_rng(1)
        bench = rng.normal(0.0, 0.01, size=10_000)
        stock = rng.normal(0.0, 0.01, size=10_000)
        assert abs(rolling_beta(stock, bench)) < 0.1

    def test_zero_variance_benchmark_rejected(self):
        with pytest.raises(ValidationError):
            rolling_beta(np.ones(252), np.zeros(252))

    def test_short_window_rejected(self):
        with pytest.raises(ValidationError):
            rolling_beta(np.ones(59), np.ones(59))


def geometric_market(daily_return=0.001, turnover=0.02, price0=100.0,
                     shares=10.0):
    dates = weekdays(Date(2014, 1, 1), Date(2015, 12, 31))
    bars = []
    price = price0
    for d in dates:
        prev = price
        price = price * (1.0 + daily_return) if d != dates[0] else price
        bars.append(make_bar("A", d, price, prev_close=prev,
                             shares=shares, turnover=turnover))
    benchmark = {d: 3000.0 * (1.0 + 0.0005) ** i for i, d in enumerate(dates)}
    return build_market(bars, benchmark, [make_snapshot("A", dates[0])])


class TestRawFactors:
    def test_earnings_yield_arithmetic(self):
        market = flat_market({"A": 100.0}, shares=10.0)  # market cap 1000
        fv = MarketStore(market).row("A", Date(2015, 6, 30))
        assert fv.values[FACTOR_INDEX["EP"]] == pytest.approx(0.1)
        assert not fv.missing_mask[FACTOR_INDEX["EP"]]

    def test_log_price(self):
        market = flat_market({"A": 100.0})
        fv = MarketStore(market).row("A", Date(2015, 6, 30))
        assert fv.values[FACTOR_INDEX["LN_PRICE"]] == pytest.approx(math.log(100.0))
        assert fv.values[FACTOR_INDEX["LN_MCAP"]] == pytest.approx(math.log(1000.0))

    def test_return_turnover_mean_closed_form(self):
        r, u = 0.001, 0.02
        market = geometric_market(daily_return=r, turnover=u)
        fv = MarketStore(market).row("A", Date(2015, 6, 30))
        for name in ("RETTO_MEAN_1M", "RETTO_MEAN_3M", "RETTO_MEAN_6M", "RETTO_MEAN_12M"):
            assert fv.values[FACTOR_INDEX[name]] == pytest.approx(r * u, rel=1e-9)

    def test_window_return_compounds_daily(self):
        r = 0.001
        market = geometric_market(daily_return=r)
        fv = MarketStore(market).row("A", Date(2015, 6, 30))
        assert fv.values[FACTOR_INDEX["RET_1M"]] == pytest.approx((1 + r) ** 21 - 1)
        assert fv.values[FACTOR_INDEX["RET_12M"]] == pytest.approx((1 + r) ** 252 - 1)

    def test_quarter_return_compounds_month_segments(self):
        # identity on a seeded random walk, checked against raw closes
        rng = np.random.default_rng(7)
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
        fv = MarketStore(market).row("A", d)
        i = dates.index(d)
        segments = [closes[i - k * 21] / closes[i - (k + 1) * 21] for k in range(3)]
        want = float(np.prod(segments)) - 1.0
        assert abs(fv.values[FACTOR_INDEX["RET_3M"]] - want) < 1e-9

    def test_missing_without_bar_on_day(self):
        market = flat_market({"A": 100.0})
        fv = MarketStore(market).row("A", Date(2015, 6, 28))  # a Sunday
        assert fv.missing_mask.all()

    def test_constant_price_degenerates_cleanly(self):
        market = flat_market({"A": 100.0})
        fv = MarketStore(market).row("A", Date(2015, 6, 30))
        assert fv.values[FACTOR_INDEX["RET_1M"]] == 0.0
        assert fv.values[FACTOR_INDEX["MACD"]] == 0.0
        # constant benchmark leaves beta undefined
        assert fv.missing_mask[FACTOR_INDEX["BETA"]]

    def test_no_lookahead(self):
        market = geometric_market()
        d = Date(2015, 6, 30)
        before = MarketStore(market).row("A", d)
        rows = [row if row[1] <= d else make_bar("A", row[1], 9999.0, turnover=0.9)
                for row in market.bar_rows()]
        future = make_snapshot("A", Date(2015, 7, 10), net_profit=-5000.0)
        mutated = build_market(rows, market.benchmark, [*snapshots(market), future])
        after = MarketStore(mutated).row("A", d)
        assert np.array_equal(before.values, after.values)
        assert np.array_equal(before.missing_mask, after.missing_mask)
        # the mutation shows from the next month end on
        later = Date(2015, 7, 31)
        assert not np.array_equal(MarketStore(mutated).row("A", later).values,
                                  MarketStore(market).row("A", later).values)


def truncated(market, cutoff):
    """The market as it stood on cutoff: nothing dated after it."""
    bars = [row for row in market.bar_rows() if row[1] <= cutoff]
    fundamentals = [snap for snap in snapshots(market) if snap.date <= cutoff]
    benchmark = {d: close for d, close in market.benchmark.items() if d <= cutoff}
    return build_market(bars, benchmark, fundamentals)


class TestMarketStore:
    def test_rows_see_no_data_after_their_date(self, gapped_market):
        full = MarketStore(gapped_market)
        for d in gapped_market.calendar.month_last_days():
            asof = MarketStore(truncated(gapped_market, d))
            for stock_id in gapped_market.stock_ids():
                got, want = full.row(stock_id, d), asof.row(stock_id, d)
                assert np.array_equal(got.values, want.values)
                assert np.array_equal(got.missing_mask, want.missing_mask)

    def test_close_zero_bar_gives_no_price_factors(self, gapped_market):
        # a suspended bar at close 0 is no -100% move: no return, return
        # statistic or beta of a window ending on it, and none of a month
        # window that starts on it or holds the inf return after it
        bars = gapped_market.bars["S0004"]
        bars.close[400] = 0.0
        bars.suspended[400] = True
        store = MarketStore(gapped_market)
        priced = [FACTOR_INDEX[f"{kind}_{m}M"] for m in (1, 3, 6, 12)
                  for kind in ("RET", "RET_STD", "RETTO_MEAN", "RETTO_DECAY")]
        priced += [FACTOR_INDEX["LN_PRICE"], FACTOR_INDEX["BETA"]]
        assert store.row("S0004", bars.dates[400]).missing_mask[priced].all()
        month = [FACTOR_INDEX["RET_1M"], FACTOR_INDEX["RET_STD_1M"]]
        assert store.row("S0004", bars.dates[421]).missing_mask[month].all()
        assert not store.row("S0004", bars.dates[422]).missing_mask[month].any()

    def test_macd_matches_recomputation_on_the_prefix(self, gapped_market):
        store = MarketStore(gapped_market)
        columns = [FACTOR_INDEX["DIF"], FACTOR_INDEX["DEA"]]
        for stock_id in gapped_market.stock_ids():
            bars = gapped_market.bars[stock_id]
            closes = bars.close.tolist()
            for d in gapped_market.calendar.month_last_days():
                row = store.row(stock_id, d)
                if d not in bars.dates:
                    assert row.missing_mask.all()
                    continue
                i = bars.dates.index(d)
                if i + 1 < 35:
                    assert row.missing_mask[columns].all()
                    continue
                dif, dea, _ = macd_indicators(closes[:i + 1])
                assert np.array_equal(row.values[columns], [dif, dea])
                assert not row.missing_mask[columns].any()


class TestPanels:
    def test_shape_and_order(self, crash_market):
        d = Date(2015, 6, 30)
        panel = build_panel(MarketStore(crash_market), ["S0002", "S0000", "S0001"], d)
        assert panel.matrix.shape == (3, 47)
        assert panel.stocks == ["S0000", "S0001", "S0002"]

    def test_single_stock(self, crash_market):
        panel = build_panel(MarketStore(crash_market), ["S0005"], Date(2015, 6, 30))
        assert panel.matrix.shape == (1, 47)

    def test_deterministic(self, crash_market):
        d = Date(2015, 6, 30)
        a = build_panel(MarketStore(crash_market), ["S0000", "S0001"], d)
        b = build_panel(MarketStore(crash_market), ["S0000", "S0001"], d)
        assert np.array_equal(a.matrix, b.matrix)
        assert np.array_equal(a.missing, b.missing)


def _per_column_normalization(matrix, missing):
    """compute_normalization one column at a time: the reference its
    whole-matrix reductions must match bit for bit."""
    n_cols = matrix.shape[1]
    medians, lower, upper, means, stds = (np.zeros(n_cols) for _ in range(5))
    for j in range(n_cols):
        present = matrix[~missing[:, j], j]
        medians[j] = float(np.median(present)) if len(present) else 0.0
        filled = np.where(missing[:, j], medians[j], matrix[:, j])
        mu0, sd0 = filled.mean(), filled.std()
        lower[j], upper[j] = mu0 - 5.0 * sd0, mu0 + 5.0 * sd0
        clipped = np.clip(filled, lower[j], upper[j])
        means[j] = clipped.mean()
        sd = clipped.std()
        stds[j] = sd if sd > max(1e-12, 1e-8 * abs(means[j])) else 0.0
    return medians, lower, upper, means, stds


class TestNormalization:
    def test_three_point_column(self):
        matrix = np.array([[1.0], [2.0], [3.0]])
        missing = np.zeros((3, 1), dtype=bool)
        stats = compute_normalization(matrix, missing)
        out = apply_normalization(matrix, missing, stats)
        assert out[:, 0] == pytest.approx([-1.2247, 0.0, 1.2247], abs=1e-4)

    def test_constant_column_maps_to_zero(self):
        matrix = np.array([[7.0], [7.0], [7.0]])
        missing = np.zeros((3, 1), dtype=bool)
        stats = compute_normalization(matrix, missing)
        out = apply_normalization(matrix, missing, stats)
        assert np.array_equal(out[:, 0], np.zeros(3))

    def test_missing_imputed_with_median(self):
        matrix = np.array([[1.0], [0.0], [3.0]])
        missing = np.array([[False], [True], [False]])
        stats = compute_normalization(matrix, missing)
        out = apply_normalization(matrix, missing, stats)
        # imputed entry sits at the median (2.0), i.e. the column mean
        assert out[1, 0] == pytest.approx(0.0, abs=1e-12)
        assert out[:, 0] == pytest.approx([-1.2247, 0.0, 1.2247], abs=1e-4)

    def test_winsorized_outlier_is_clipped(self):
        col = np.zeros((101, 1))
        col[-1, 0] = 1e9
        missing = np.zeros_like(col, dtype=bool)
        stats = compute_normalization(col, missing)
        mu, sd = col.mean(), col.std()
        assert stats.upper[0] == pytest.approx(mu + 5.0 * sd)
        assert stats.upper[0] < 1e9
        out = apply_normalization(col, missing, stats)
        # the outlier enters the z-score at the clip bound, not at 1e9
        assert out[-1, 0] == pytest.approx((stats.upper[0] - stats.means[0]) / stats.stds[0])

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_per_column_loop_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        rows, cols = int(rng.integers(1, 300)), int(rng.integers(2, 48))
        scale = 10.0 ** rng.uniform(-3, 6, cols)
        matrix = (rng.standard_normal((rows, cols)) + rng.normal(0, 5, cols)) * scale
        matrix[:, 0] = 699051.291015625  # constant
        missing = rng.random((rows, cols)) < rng.uniform(0, 0.6)
        missing[:, -1] = True  # nothing present: median 0
        stats = compute_normalization(matrix, missing)
        got = (stats.medians, stats.lower, stats.upper, stats.means, stats.stds)
        for a, b in zip(got, _per_column_normalization(matrix, missing)):
            assert a.tobytes() == b.tobytes()

    def test_drop_sparse_rows(self):
        matrix = np.zeros((2, 47))
        missing = np.zeros((2, 47), dtype=bool)
        missing[1, :30] = True  # > 50% missing
        panel = FactorPanel(date=Date(2015, 6, 30), stocks=["A", "B"],
                            matrix=matrix, missing=missing)
        kept = drop_sparse_rows(panel)
        assert kept.stocks == ["A"]

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=40))
    def test_zscore_is_centered_and_bounded(self, column):
        matrix = np.array(column)[:, None]
        missing = np.zeros_like(matrix, dtype=bool)
        stats = compute_normalization(matrix, missing)
        out = apply_normalization(matrix, missing, stats)
        assert abs(out.mean()) < 1e-6
        # any z-scored sample is bounded by sqrt(n - 1) in population units
        assert np.abs(out).max() <= math.sqrt(len(column) - 1) + 1e-6


def test_factor_name_table_is_complete():
    assert len(FACTOR_NAMES) == 47
    assert len(set(FACTOR_NAMES)) == 47
