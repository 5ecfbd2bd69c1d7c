"""Whole-market factor panels and cross-sectional normalization.

47 factors per stock per action day. Trailing "months" are fixed trading-day
windows: 1/3/6/12 months = 21/63/126/252 days; the 2-year turnover baseline
uses up to 504 days (at least 252 required). Missing or non-computable
values are masked and later imputed with the cross-sectional median.
Overflow and x/0 give inf or NaN, and every non-finite factor is missing:
the store and the normalizations run whole under np.errstate(all="ignore").

A MarketStore computes each date's panel once for the whole market from the
dataset's (stocks, T) matrices: window statistics reduce gathered (stocks, w)
windows along their last axis, and ratios are column arithmetic over the
snapshot rows. One memo keeps the panels and the strategies' normalizations.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass
from datetime import date as Date

import numpy as np

from .errors import ValidationError
from .marketdata import FUNDAMENTALS_COLUMNS, MarketDataset

FACTOR_NAMES = (
    "EP", "LN_PRICE", "EP_CUT", "BP", "SP", "NCFP", "OCFP", "G_PE",
    "ROE", "ROA", "GROSS_MARGIN", "PROFIT_MARGIN", "ASSET_TURNOVER",
    "OP_CASHFLOW_RATIO", "FIN_LEVERAGE", "DEBT_EQUITY", "CASH_RATIO",
    "CURRENT_RATIO", "LN_MCAP",
    "RET_1M", "RET_3M", "RET_6M", "RET_12M",
    "RETTO_MEAN_1M", "RETTO_MEAN_3M", "RETTO_MEAN_6M", "RETTO_MEAN_12M",
    "RETTO_DECAY_1M", "RETTO_DECAY_3M", "RETTO_DECAY_6M", "RETTO_DECAY_12M",
    "RET_STD_1M", "RET_STD_3M", "RET_STD_6M", "RET_STD_12M",
    "TO_1M_MINUS1", "TO_3M_MINUS1", "TO_6M_MINUS1", "TO_12M_MINUS1",
    "TO_REL2Y_1M", "TO_REL2Y_3M", "TO_REL2Y_6M", "TO_REL2Y_12M",
    "BETA", "MACD", "DEA", "DIF",
)
N_FACTORS = 47
FACTOR_INDEX = {name: i for i, name in enumerate(FACTOR_NAMES)}
LN_MCAP_INDEX = FACTOR_INDEX["LN_MCAP"]

MONTH_DAYS = (21, 63, 126, 252)
MONTH_COUNTS = (1, 3, 6, 12)
TWO_YEAR_DAYS = 504
WINSOR_SIGMAS = 5.0
MAX_MISSING_FRACTION = 0.5
MACD_MIN_OBSERVATIONS = 35


def ema(series, n: int):
    """Exponential moving average along the last axis, k = 2/(n+1), seeded
    with the first value."""
    series = np.asarray(series, dtype=float)
    if series.shape[-1] == 0:
        raise ValidationError("ema requires a nonempty series")
    if n < 1:
        raise ValidationError("ema window must be >= 1")
    k = 2.0 / (n + 1.0)
    out = series.copy()
    for t in range(1, series.shape[-1]):
        out[..., t] = out[..., t - 1] + k * (series[..., t] - out[..., t - 1])
    return out


def macd_series(closes):
    """(dif, dea, macd) series along the last axis of the closes; each value
    depends only on the closes up to its date."""
    dif = ema(closes, 12) - ema(closes, 26)
    dea = ema(dif, 9)
    return dif, dea, 2.0 * (dif - dea)


def rolling_beta(stock_returns, benchmark_returns) -> float:
    """OLS slope of stock daily returns on benchmark daily returns."""
    x = np.asarray(benchmark_returns, dtype=float)
    y = np.asarray(stock_returns, dtype=float)
    if len(x) != len(y):
        raise ValidationError("return series lengths differ")
    if len(x) < 60:
        raise ValidationError("rolling_beta requires at least 60 observations")
    xc = x - x.mean()
    var = float(np.dot(xc, xc))
    if var <= 1e-18:
        raise ValidationError("benchmark variance is zero; beta undefined")
    return float(np.dot(xc, y - y.mean()) / var)


# each ratio factor's (numerator, denominator): snapshot fields, the market
# cap, and two products the panel adds (growth / PE == growth * EP)
_RATIOS = {
    "EP": ("net_profit", "market_cap"),
    "EP_CUT": ("net_profit_cut", "market_cap"),
    "BP": ("net_assets", "market_cap"),
    "SP": ("operating_revenue", "market_cap"),
    "NCFP": ("net_cash_flow", "market_cap"),
    "OCFP": ("net_operate_cash_flow", "market_cap"),
    "G_PE": ("growth_times_profit", "market_cap"),
    "ROE": ("net_profit", "equity"),
    "ROA": ("net_profit", "avg_total_assets"),
    "GROSS_MARGIN": ("gross_profit", "operating_revenue"),
    "PROFIT_MARGIN": ("net_profit", "operating_revenue"),
    "ASSET_TURNOVER": ("operating_revenue", "avg_total_assets"),
    "OP_CASHFLOW_RATIO": ("net_operate_cash_flow", "operate_income"),
    "FIN_LEVERAGE": ("total_assets", "net_assets"),
    "DEBT_EQUITY": ("long_term_debt", "net_assets"),
    "CASH_RATIO": ("cash", "current_liabilities"),
    "CURRENT_RATIO": ("current_assets", "current_liabilities"),
}


def _windows(matrix, rows, ends, w):
    """The w-long windows matrix[rows[j], ends[j] - w + 1:ends[j] + 1] as one
    C-contiguous array, whose rows each reduce in 1-D summation order."""
    return matrix[rows[:, None], ends[:, None] + np.arange(1 - w, 1)]


class MarketStore:
    """Point-in-time columnar view of one MarketDataset, shared by the
    strategies of a run. It reads the dataset's (stocks, T) matrices in
    place and adds the series derived from them, along each stock's own bar
    dates. Each date's panel, and each normalization the strategies ask it
    to memo, is computed once, so the dataset must not change while the
    store is in use: build one per run, and never keep one on the dataset.
    """

    @np.errstate(all="ignore")
    def __init__(self, dataset: MarketDataset):
        self.dataset = dataset
        self.close, self.market_cap, self.turnover = \
            dataset.close, dataset.market_cap, dataset.turnover
        self.benchmark = np.where(dataset.bar_days >= 0, dataset.benchmark[dataset.bar_days],
                                  np.nan)
        # returns[:, t] belongs to the bar at t + 1; the return into a close
        # <= 0 is NaN, not a -100% move
        self.returns = self.close[:, 1:] / self.close[:, :-1] - 1.0
        self.benchmark_returns = self.benchmark[:, 1:] / self.benchmark[:, :-1] - 1.0
        self.returns[self.close[:, 1:] <= 0] = np.nan
        # (stocks, T, 3): MACD, DEA and DIF, the last three factors in order;
        # each value depends only on the closes up to its date
        self.macd = np.stack(macd_series(self.close)[::-1], axis=-1)
        self._memo = {}

    def panel(self, d: Date):
        """(values, missing) of every stock on d, from data at or before d, in
        dataset.stocks order, then one all-missing row."""
        return self.memo(("factors", d), lambda: self._compute_panel(d))

    def memo(self, key, compute):
        """compute(), called once per key for the store's run; callers must
        not change what it returns. The strategies key each normalization by
        the (date, stocks) of the panels it comes from, so they share it."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    @np.errstate(all="ignore")
    def _compute_panel(self, d: Date):
        dataset = self.dataset
        rows, pos = dataset.bars_on(d)
        values = np.full((len(rows), N_FACTORS), np.nan)
        close, mcap = self.close[rows, pos], self.market_cap[rows, pos]
        # math.log per value: np.log may round differently
        for index, column in ((FACTOR_INDEX["LN_PRICE"], close), (LN_MCAP_INDEX, mcap)):
            values[:, index] = [math.log(x) if x > 0 else math.nan for x in column.tolist()]

        # each stock's latest snapshot, while its market cap is > 0
        snaps = np.where(mcap > 0, dataset.snapshot_asof(rows, d), -1)
        fundamentals = np.full((len(rows), 16), np.nan)
        fundamentals[snaps >= 0] = dataset.snapshot_values[snaps[snaps >= 0]]
        columns = dict(zip(FUNDAMENTALS_COLUMNS[2:18], fundamentals.T))
        columns["market_cap"] = mcap
        columns["net_profit_cut"] = columns["net_profit"] - columns["non_recurring_gain_loss"]
        columns["growth_times_profit"] = columns["net_profit_growth"] * columns["net_profit"]
        for name, (num, den) in _RATIOS.items():
            ratio = columns[num] / columns[den]
            values[:, FACTOR_INDEX[name]] = np.where(np.isfinite(columns[den]), ratio, np.nan)

        # the two-year turnover base over min(pos + 1, 504) bars, one length at
        # a time: padding to one length would change the summation order
        base = np.full(len(rows), np.nan)
        length = np.minimum(pos + 1, TWO_YEAR_DAYS)
        for n_bars in np.unique(length[length >= 252]):
            group = length == n_bars
            base[group] = _windows(self.turnover, rows[group], pos[group], n_bars).mean(axis=1)
        base[~(base > 0)] = np.nan

        for w, n_months in zip(MONTH_DAYS, MONTH_COUNTS):
            start = self.close[rows, np.maximum(pos - w, 0)]
            ok = (pos >= w) & (close > 0) & (start > 0)
            values[ok, FACTOR_INDEX[f"RET_{n_months}M"]] = close[ok] / start[ok] - 1.0
            # a window holding a close <= 0 holds a non-finite return: no statistics
            ok = pos >= w
            returns = _windows(self.returns, rows[ok], pos[ok] - 1, w)
            finite = np.isfinite(returns).all(axis=1)
            ok[ok] = finite
            returns = returns[finite]
            product = returns * _windows(self.turnover, rows[ok], pos[ok], w)
            values[ok, FACTOR_INDEX[f"RETTO_MEAN_{n_months}M"]] = product.mean(axis=1)
            # by distance in trading days from the action day, 0 on the day itself
            weights = np.exp(-np.arange(w - 1, -1, -1, dtype=float) / (n_months * 4.0))
            values[ok, FACTOR_INDEX[f"RETTO_DECAY_{n_months}M"]] = (product * weights).mean(axis=1)
            values[ok, FACTOR_INDEX[f"RET_STD_{n_months}M"]] = returns.std(axis=1)
            ok = pos + 1 >= w
            trailing = _windows(self.turnover, rows[ok], pos[ok], w).mean(axis=1)
            values[ok, FACTOR_INDEX[f"TO_{n_months}M_MINUS1"]] = trailing - 1.0
            values[ok, FACTOR_INDEX[f"TO_REL2Y_{n_months}M"]] = trailing / base[ok] - 1.0

        # rolling_beta per stock: its 1-D BLAS dot sums in an order of its own
        for j in np.flatnonzero(pos >= 252):
            i, p = rows[j], pos[j]
            returns, bench = self.returns[i, p - 252:p], self.benchmark_returns[i, p - 252:p]
            if (self.benchmark[i, p - 252:p + 1] > 0).all() and np.isfinite(returns).all():
                with suppress(ValidationError):
                    values[j, FACTOR_INDEX["BETA"]] = rolling_beta(returns, bench)

        ok = pos + 1 >= MACD_MIN_OBSERVATIONS
        values[ok, FACTOR_INDEX["MACD"]:] = self.macd[rows[ok], pos[ok]]

        full = np.full((len(dataset.stocks) + 1, N_FACTORS), np.nan)
        full[rows] = values
        missing = ~np.isfinite(full)
        return np.where(missing, 0.0, full), missing


@dataclass
class NormalizationStats:
    """Per-column imputation/winsorization/z-score parameters."""
    medians: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    means: np.ndarray
    # 0 marks a constant column, mapped to zeros: one whose clipped std is at
    # most max(1e-12, 1e-8 * |mean|). Below that spread the float64 rounding
    # of the stored mean, divided by the std, no longer centers the z-scores.
    stds: np.ndarray


@dataclass
class FactorPanel:
    date: Date
    stocks: list[str]
    matrix: np.ndarray        # |stocks| x 47
    missing: np.ndarray       # bool, same shape


def build_panel(store: MarketStore, universe, d: Date) -> FactorPanel:
    """Raw factor panel, one row per universe stock, ascending stock_id; a
    stock the dataset lacks takes the store's all-missing last row."""
    stocks = sorted(universe)
    values, missing = store.panel(d)
    rows = [store.dataset.row_of.get(stock_id, -1) for stock_id in stocks]
    return FactorPanel(date=d, stocks=stocks, matrix=values[rows], missing=missing[rows])


def _column_medians(matrix: np.ndarray, missing: np.ndarray) -> np.ndarray:
    """Each column's median over its present entries, 0 where there are none.

    Bit for bit numpy's masked-array median: the same argsort of the matrix,
    with missing entries at +inf, picks each middle pair, add.reduce sums it
    and the sum is halved (an odd count's middle entry doubled, then
    halved); a present NaN gives NaN.
    """
    medians = np.zeros(matrix.shape[1])
    if not len(matrix):
        return medians
    counts = len(matrix) - missing.sum(axis=0)
    filled = np.where(missing, np.inf, matrix)
    order = np.argsort(filled, axis=0)
    high = counts // 2
    middle = np.take_along_axis(order, np.stack([high - 1 + counts % 2, high]), axis=0)
    pair = np.take_along_axis(filled, middle, axis=0)
    np.divide(np.add.reduce(pair, axis=0), 2.0, out=medians, where=counts > 0)
    # NaN sorts after +inf, so a present NaN is last
    last = np.take_along_axis(filled, order[-1:], axis=0)[0]
    np.copyto(medians, last, where=np.isnan(last))
    return medians


@np.errstate(all="ignore")
def compute_normalization(matrix: np.ndarray, missing: np.ndarray) -> NormalizationStats:
    """Median-impute, winsorize at +-5 population sigmas, z-score.

    Columns become C-contiguous rows, so each reduction along axis 1 sums in
    the same order as a 1-D reduction of that column.
    """
    medians = _column_medians(matrix, missing)
    filled = np.ascontiguousarray(np.where(missing, medians, matrix).T)
    mu0, sd0 = filled.mean(axis=1), filled.std(axis=1)
    lower, upper = mu0 - WINSOR_SIGMAS * sd0, mu0 + WINSOR_SIGMAS * sd0
    clipped = np.clip(filled, lower[:, None], upper[:, None])
    means = clipped.mean(axis=1)
    sd = clipped.std(axis=1)
    stds = np.where(sd > np.maximum(1e-12, 1e-8 * np.abs(means)), sd, 0.0)
    return NormalizationStats(medians, lower, upper, means, stds)


@np.errstate(all="ignore")
def apply_normalization(matrix: np.ndarray, missing: np.ndarray,
                        stats: NormalizationStats) -> np.ndarray:
    filled = np.where(missing, stats.medians[None, :], matrix)
    clipped = np.clip(filled, stats.lower[None, :], stats.upper[None, :])
    normalized = (clipped - stats.means[None, :]) / stats.stds[None, :]
    normalized[:, stats.stds == 0] = 0.0  # a constant column
    return normalized


def drop_sparse_rows(panel: FactorPanel) -> FactorPanel:
    """Drop stocks with more than half their factors missing."""
    keep = panel.missing.mean(axis=1) <= MAX_MISSING_FRACTION
    if keep.all():
        return panel
    return FactorPanel(
        date=panel.date,
        stocks=[s for s, k in zip(panel.stocks, keep) if k],
        matrix=panel.matrix[keep],
        missing=panel.missing[keep],
    )


def normalize_panel(panel: FactorPanel) -> np.ndarray:
    """The panel's matrix normalized against itself, row for row."""
    stats = compute_normalization(panel.matrix, panel.missing)
    return apply_normalization(panel.matrix, panel.missing, stats)
