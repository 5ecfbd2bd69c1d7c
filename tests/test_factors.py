"""Indicators, the 47-factor vector, and cross-sectional normalization."""

import math
import warnings
from datetime import date as Date

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import (
    bar_rows,
    bars_of,
    benchmark_of,
    build_market,
    close_zero_spells,
    flat_market,
    make_bar,
    make_snapshot,
    snapshots,
    weekdays,
)
from rollingquant.errors import ValidationError
from rollingquant.factors import (
    FACTOR_INDEX,
    FACTOR_NAMES,
    MACD_MIN_OBSERVATIONS,
    MONTH_COUNTS,
    MONTH_DAYS,
    N_FACTORS,
    TWO_YEAR_DAYS,
    FactorPanel,
    MarketStore,
    apply_normalization,
    build_panel,
    compute_normalization,
    drop_sparse_rows,
    ema,
    macd_series,
    rolling_beta,
)


def factor_row(store, stock_id, d):
    """(values, missing): the stock's row of the store's panel on d."""
    panel = build_panel(store, [stock_id], d)
    return panel.matrix[0], panel.missing[0]


def macd_indicators(closes):
    """(dif, dea, macd) at the last close, from the series over these closes
    alone: the oracle of the store's prefix-free MACD columns."""
    return tuple(float(series[-1]) for series in macd_series(closes))


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
        values, missing = factor_row(MarketStore(market), "A", Date(2015, 6, 30))
        assert values[FACTOR_INDEX["EP"]] == pytest.approx(0.1)
        assert not missing[FACTOR_INDEX["EP"]]

    def test_log_price(self):
        market = flat_market({"A": 100.0})
        values, _ = factor_row(MarketStore(market), "A", Date(2015, 6, 30))
        assert values[FACTOR_INDEX["LN_PRICE"]] == pytest.approx(math.log(100.0))
        assert values[FACTOR_INDEX["LN_MCAP"]] == pytest.approx(math.log(1000.0))

    def test_return_turnover_mean_closed_form(self):
        r, u = 0.001, 0.02
        market = geometric_market(daily_return=r, turnover=u)
        values, _ = factor_row(MarketStore(market), "A", Date(2015, 6, 30))
        for name in ("RETTO_MEAN_1M", "RETTO_MEAN_3M", "RETTO_MEAN_6M", "RETTO_MEAN_12M"):
            assert values[FACTOR_INDEX[name]] == pytest.approx(r * u, rel=1e-9)

    def test_window_return_compounds_daily(self):
        r = 0.001
        market = geometric_market(daily_return=r)
        values, _ = factor_row(MarketStore(market), "A", Date(2015, 6, 30))
        assert values[FACTOR_INDEX["RET_1M"]] == pytest.approx((1 + r) ** 21 - 1)
        assert values[FACTOR_INDEX["RET_12M"]] == pytest.approx((1 + r) ** 252 - 1)

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
        values, _ = factor_row(MarketStore(market), "A", d)
        i = dates.index(d)
        segments = [closes[i - k * 21] / closes[i - (k + 1) * 21] for k in range(3)]
        want = float(np.prod(segments)) - 1.0
        assert abs(values[FACTOR_INDEX["RET_3M"]] - want) < 1e-9

    def test_missing_without_bar_on_day(self):
        market = flat_market({"A": 100.0})
        _, missing = factor_row(MarketStore(market), "A", Date(2015, 6, 28))  # a Sunday
        assert missing.all()

    def test_constant_price_degenerates_cleanly(self):
        market = flat_market({"A": 100.0})
        values, missing = factor_row(MarketStore(market), "A", Date(2015, 6, 30))
        assert values[FACTOR_INDEX["RET_1M"]] == 0.0
        assert values[FACTOR_INDEX["MACD"]] == 0.0
        # constant benchmark leaves beta undefined
        assert missing[FACTOR_INDEX["BETA"]]

    def test_no_lookahead(self):
        market = geometric_market()
        d = Date(2015, 6, 30)
        before = factor_row(MarketStore(market), "A", d)
        rows = [row if row[1] <= d else make_bar("A", row[1], 9999.0, turnover=0.9)
                for row in bar_rows(market)]
        future = make_snapshot("A", Date(2015, 7, 10), net_profit=-5000.0)
        mutated = build_market(rows, benchmark_of(market), [*snapshots(market), future])
        after = factor_row(MarketStore(mutated), "A", d)
        for got, want in zip(before, after):  # values, then missing
            assert np.array_equal(got, want)
        # the mutation shows from the next month end on
        later = Date(2015, 7, 31)
        assert not np.array_equal(factor_row(MarketStore(mutated), "A", later)[0],
                                  factor_row(MarketStore(market), "A", later)[0])


def truncated(market, cutoff):
    """The market as it stood on cutoff: nothing dated after it."""
    bars = [row for row in bar_rows(market) if row[1] <= cutoff]
    fundamentals = [snap for snap in snapshots(market) if snap.date <= cutoff]
    benchmark = {d: close for d, close in benchmark_of(market).items() if d <= cutoff}
    return build_market(bars, benchmark, fundamentals)


class TestMarketStore:
    def test_bar_matrices_are_the_datasets(self, gapped_market):
        # the store reads the dataset's matrices in place, and copies none
        store = MarketStore(gapped_market)
        for name in ("close", "market_cap", "turnover"):
            assert np.shares_memory(getattr(store, name), getattr(gapped_market, name))
        for name in ("benchmark", "returns", "benchmark_returns", "macd"):
            for matrix in ("close", "market_cap", "turnover", "benchmark"):
                assert not np.shares_memory(getattr(store, name), getattr(gapped_market, matrix))

    def test_rows_see_no_data_after_their_date(self, gapped_market):
        # the truncated markets lack the late-listed stock before its listing
        full = MarketStore(gapped_market)
        stocks = gapped_market.stocks
        for d in gapped_market.calendar.month_last_days():
            got = build_panel(full, stocks, d)
            want = build_panel(MarketStore(truncated(gapped_market, d)), stocks, d)
            assert np.array_equal(got.matrix, want.matrix)
            assert np.array_equal(got.missing, want.missing)

    def test_close_zero_bar_gives_no_price_factors(self, gapped_market):
        # a suspended bar at close 0 is no -100% move: no return, return
        # statistic or beta of a window ending on it, and none of a month
        # window that starts on it or holds the inf return after it
        bars = bars_of(gapped_market, "S0004")
        bars.close[400] = 0.0
        bars.suspended[400] = True
        store = MarketStore(gapped_market)
        priced = [FACTOR_INDEX[f"{kind}_{m}M"] for m in (1, 3, 6, 12)
                  for kind in ("RET", "RET_STD", "RETTO_MEAN", "RETTO_DECAY")]
        priced += [FACTOR_INDEX["LN_PRICE"], FACTOR_INDEX["BETA"]]
        assert factor_row(store, "S0004", bars.dates[400])[1][priced].all()
        month = [FACTOR_INDEX["RET_1M"], FACTOR_INDEX["RET_STD_1M"]]
        assert factor_row(store, "S0004", bars.dates[421])[1][month].all()
        assert not factor_row(store, "S0004", bars.dates[422])[1][month].any()

    def test_macd_matches_recomputation_on_the_prefix(self, gapped_market):
        store = MarketStore(gapped_market)
        columns = [FACTOR_INDEX["DIF"], FACTOR_INDEX["DEA"]]
        for stock_id in gapped_market.stocks:
            bars = bars_of(gapped_market, stock_id)
            closes = bars.close.tolist()
            for d in gapped_market.calendar.month_last_days():
                values, missing = factor_row(store, stock_id, d)
                if d not in bars.dates:
                    assert missing.all()
                    continue
                i = bars.dates.index(d)
                if i + 1 < 35:
                    assert missing[columns].all()
                    continue
                dif, dea, _ = macd_indicators(closes[:i + 1])
                assert np.array_equal(values[columns], [dif, dea])
                assert not missing[columns].any()


def _safe_ratio(numerator, denominator):
    if denominator == 0 or not math.isfinite(numerator) or not math.isfinite(denominator):
        return None
    value = numerator / denominator
    return value if math.isfinite(value) else None


class _StockColumns:
    """Series derived from one stock's bars, along its own bar dates, and its
    snapshots: the oracle's per-stock form of the store's matrix rows."""

    def __init__(self, dataset, stock_id):
        self.bars = bars = bars_of(dataset, stock_id)
        self.snapshots = [snap for snap in snapshots(dataset) if snap.stock_id == stock_id]
        benchmark = benchmark_of(dataset)
        self.benchmark = np.array([benchmark.get(d, np.nan) for d in bars.dates], dtype=float)
        # returns[j] belongs to dates[j+1]
        with np.errstate(divide="ignore", invalid="ignore"):
            self.returns = bars.close[1:] / bars.close[:-1] - 1.0
            self.benchmark_returns = self.benchmark[1:] / self.benchmark[:-1] - 1.0
        self.returns[bars.close[1:] <= 0] = np.nan
        self.macd = macd_series(bars.close) if len(bars.dates) >= MACD_MIN_OBSERVATIONS \
            else None


def _factor_row(columns, d):
    """(values, missing): all 47 raw factors of one stock from data at or
    before d, computed one value at a time; the oracle of the store's panels."""
    values = np.zeros(N_FACTORS)
    mask = np.ones(N_FACTORS, dtype=bool)

    def put(name, value):
        if value is not None and math.isfinite(value):
            values[FACTOR_INDEX[name]] = value
            mask[FACTOR_INDEX[name]] = False

    bars = columns.bars
    if d not in bars.dates:
        return values, mask
    idx = bars.dates.index(d)
    closes, turnover, returns = bars.close, bars.turnover, columns.returns
    close = float(closes[idx])
    mcap = float(bars.market_cap[idx])

    if close > 0:
        put("LN_PRICE", math.log(close))
    if mcap > 0:
        put("LN_MCAP", math.log(mcap))

    earlier = [snap for snap in columns.snapshots if snap.date <= d]
    snap = max(earlier, key=lambda snap: snap.date) if earlier else None
    if snap is not None and mcap > 0:
        put("EP", _safe_ratio(snap.net_profit, mcap))
        put("EP_CUT", _safe_ratio(snap.net_profit - snap.non_recurring_gain_loss, mcap))
        put("BP", _safe_ratio(snap.net_assets, mcap))
        put("SP", _safe_ratio(snap.operating_revenue, mcap))
        put("NCFP", _safe_ratio(snap.net_cash_flow, mcap))
        put("OCFP", _safe_ratio(snap.net_operate_cash_flow, mcap))
        put("G_PE", _safe_ratio(snap.net_profit_growth * snap.net_profit, mcap))
        put("ROE", _safe_ratio(snap.net_profit, snap.equity))
        put("ROA", _safe_ratio(snap.net_profit, snap.avg_total_assets))
        put("GROSS_MARGIN", _safe_ratio(snap.gross_profit, snap.operating_revenue))
        put("PROFIT_MARGIN", _safe_ratio(snap.net_profit, snap.operating_revenue))
        put("ASSET_TURNOVER", _safe_ratio(snap.operating_revenue, snap.avg_total_assets))
        put("OP_CASHFLOW_RATIO", _safe_ratio(snap.net_operate_cash_flow, snap.operate_income))
        put("FIN_LEVERAGE", _safe_ratio(snap.total_assets, snap.net_assets))
        put("DEBT_EQUITY", _safe_ratio(snap.long_term_debt, snap.net_assets))
        put("CASH_RATIO", _safe_ratio(snap.cash, snap.current_liabilities))
        put("CURRENT_RATIO", _safe_ratio(snap.current_assets, snap.current_liabilities))

    for w, n_months in zip(MONTH_DAYS, MONTH_COUNTS):
        if idx >= w and close > 0 and closes[idx - w] > 0:
            put(f"RET_{n_months}M", closes[idx] / closes[idx - w] - 1.0)
        if idx >= w and np.isfinite(returns[idx - w:idx]).all():
            win_returns = returns[idx - w:idx]           # dates idx-w+1 .. idx
            win_turnover = turnover[idx - w + 1:idx + 1]
            product = win_returns * win_turnover
            put(f"RETTO_MEAN_{n_months}M", float(product.mean()))
            distance = np.arange(w - 1, -1, -1, dtype=float)
            weights = np.exp(-distance / (n_months * 4.0))
            put(f"RETTO_DECAY_{n_months}M", float((product * weights).mean()))
            put(f"RET_STD_{n_months}M", float(win_returns.std()))
        if idx + 1 >= w:
            trailing = turnover[idx - w + 1:idx + 1]
            put(f"TO_{n_months}M_MINUS1", float(trailing.mean()) - 1.0)
            two_year = turnover[max(0, idx - TWO_YEAR_DAYS + 1):idx + 1]
            if len(two_year) >= 252:
                base = float(two_year.mean())
                if base > 0:
                    put(f"TO_REL2Y_{n_months}M", float(trailing.mean()) / base - 1.0)

    if idx >= 252 and (columns.benchmark[idx - 252:idx + 1] > 0).all() \
            and np.isfinite(returns[idx - 252:idx]).all():
        try:
            put("BETA", rolling_beta(returns[idx - 252:idx],
                                     columns.benchmark_returns[idx - 252:idx]))
        except ValidationError:
            pass

    if idx + 1 >= MACD_MIN_OBSERVATIONS:
        dif, dea, macd = columns.macd
        put("DIF", dif[idx])
        put("DEA", dea[idx])
        put("MACD", macd[idx])

    return values, mask


def assert_panels_match_oracle(market, dates):
    store = MarketStore(market)
    stocks = market.stocks
    columns = [_StockColumns(market, stock_id) for stock_id in stocks]
    for d in dates:
        panel = build_panel(store, stocks, d)
        rows = [_factor_row(c, d) for c in columns]
        assert np.array_equal(panel.matrix, np.array([values for values, _ in rows]))
        assert np.array_equal(panel.missing, np.array([missing for _, missing in rows]))


class TestPanelOracle:
    """The store's whole-market panels against _factor_row, bit for bit."""

    def test_gapped_market_every_calendar_date(self, gapped_market):
        assert_panels_match_oracle(gapped_market, gapped_market.calendar.dates)

    def test_close_zero_spells_every_calendar_date(self, gapped_market):
        market = close_zero_spells(gapped_market)
        assert_panels_match_oracle(market, market.calendar.dates)

    def test_crash_market_month_ends(self, crash_market):
        assert_panels_match_oracle(crash_market, crash_market.calendar.month_last_days())


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

    # signed zeros, middle values whose doubling overflows, and (a third of
    # the time) values a panel never holds: infinities and NaN
    MEDIAN_VALUES = [0.0, -0.0, 1.0, -1.0, 2.5, 0.1, 9.5e307, 1.7e308, -1.7e308]
    ODD_VALUES = [math.inf, -math.inf, math.nan]

    @staticmethod
    def _medians(matrix, missing):
        """(compute_normalization's medians, np.ma.median's) as bytes; the
        statistics after the medians warn on 0 rows ("Mean of empty slice",
        which np.errstate does not cover)."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = compute_normalization(matrix, missing).medians
            want = np.ma.median(np.ma.masked_array(matrix, missing), axis=0).filled(0.0)
        return got.tobytes(), want.tobytes()

    @pytest.mark.parametrize("seed", range(8))
    def test_medians_match_masked_median_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        values = self.MEDIAN_VALUES + (self.ODD_VALUES if seed % 3 == 2 else [])
        for _ in range(100):
            rows, cols = int(rng.integers(0, 10)), int(rng.integers(1, 7))
            matrix = rng.choice(values, size=(rows, cols))
            missing = rng.random((rows, cols)) < rng.uniform(0, 1)
            got, want = self._medians(matrix, missing)
            assert got == want, (matrix, missing)

    @pytest.mark.parametrize("column,missing,median", [
        ([3.0, 1.0, 2.0], [0, 0, 0], 2.0),
        ([4.0, 1.0, 2.0, 3.0], [0, 0, 0, 0], 2.5),
        ([-0.0, 5.0, -0.0], [0, 0, 0], 0.0),
        ([-0.0, 0.0, 1.0, -1.0], [0, 0, 0, 0], 0.0),
        ([1.0, 2.0], [1, 1], 0.0),  # nothing present
        ([], [], 0.0),
        ([-7.0], [0], -7.0),
        ([1e308, 2.0, 1e308], [0, 0, 0], math.inf),  # 1e308 doubled, then halved
        ([1e308, 2.0, 1e308], [0, 1, 0], math.inf),
        ([8e307, 1.0, 8e307], [0, 0, 0], 8e307),
    ], ids=["odd", "even", "odd_negative_zero", "even_signed_zeros", "all_missing",
            "no_rows", "one_row", "odd_overflow", "even_overflow", "below_overflow"])
    def test_median_cases(self, column, missing, median):
        matrix = np.array(column, dtype=float).reshape(-1, 1)
        got, want = self._medians(matrix, np.array(missing, dtype=bool).reshape(-1, 1))
        # the sign of a zero median is np.ma.median's, whichever it is
        assert got == want
        assert np.frombuffer(got).tolist() == [median]

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
