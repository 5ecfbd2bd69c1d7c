"""Per-stock factor computation and cross-sectional panel assembly.

47 factors per stock per action day. Trailing "months" are fixed trading-day
windows: 1/3/6/12 months = 21/63/126/252 days; the 2-year turnover baseline
uses up to 504 days (at least 252 required). Missing or non-computable
values are masked and later imputed with the cross-sectional median.

A MarketStore derives each stock's return, benchmark and MACD series from
its bar columns once and computes each (stock, date) factor row once, so the
strategies of one run share their rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date as Date

import numpy as np

from .errors import ValidationError
from .marketdata import MarketDataset

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
    """Exponential moving average, k = 2/(n+1), seeded with the first value."""
    if len(series) == 0:
        raise ValidationError("ema requires a nonempty series")
    if n < 1:
        raise ValidationError("ema window must be >= 1")
    k = 2.0 / (n + 1.0)
    out = np.empty(len(series))
    out[0] = series[0]
    for t in range(1, len(series)):
        out[t] = out[t - 1] + k * (series[t] - out[t - 1])
    return out


def macd_series(closes):
    """(dif, dea, macd) series over the close series; each value depends only
    on the closes up to its date."""
    closes = np.asarray(closes, dtype=float)
    dif = ema(closes, 12) - ema(closes, 26)
    dea = ema(dif, 9)
    return dif, dea, 2.0 * (dif - dea)


def macd_indicators(closes):
    """(dif, dea, macd) at the final date of the close series."""
    if len(closes) < MACD_MIN_OBSERVATIONS:
        raise ValidationError(
            f"macd_indicators requires at least {MACD_MIN_OBSERVATIONS} observations")
    return tuple(float(series[-1]) for series in macd_series(closes))


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


@dataclass
class FactorVector:
    stock_id: str
    date: Date
    values: np.ndarray        # length 47
    missing_mask: np.ndarray  # bool, length 47; True means value is missing


def _safe_ratio(numerator, denominator):
    if denominator == 0 or not math.isfinite(numerator) or not math.isfinite(denominator):
        return None
    value = numerator / denominator
    return value if math.isfinite(value) else None


class _StockColumns:
    """Series derived from one stock's bars, along its own bar dates.

    The benchmark is aligned to the stock's bar dates (NaN where it has no
    close), and the MACD series are computed once over the whole history:
    each value depends only on the prefix up to its date. The daily return
    into a close <= 0 is NaN, not a -100% move.
    """

    def __init__(self, dataset: MarketDataset, stock_id: str):
        self.stock_id = stock_id
        self.dataset = dataset
        self.bars = bars = dataset.bars.get(stock_id)
        if bars is None:
            return
        self.benchmark = np.array([dataset.benchmark.get(d, np.nan) for d in bars.dates],
                                  dtype=float)
        # returns[j] belongs to dates[j+1]
        with np.errstate(divide="ignore", invalid="ignore"):
            self.returns = bars.close[1:] / bars.close[:-1] - 1.0
            self.benchmark_returns = self.benchmark[1:] / self.benchmark[:-1] - 1.0
        self.returns[bars.close[1:] <= 0] = np.nan
        self.macd = macd_series(bars.close) if len(bars) >= MACD_MIN_OBSERVATIONS else None


def _factor_row(columns: _StockColumns, d: Date) -> FactorVector:
    """All 47 raw factors from data at or before d; missing values masked."""
    values = np.zeros(N_FACTORS)
    mask = np.ones(N_FACTORS, dtype=bool)

    def put(name, value):
        if value is not None and math.isfinite(value):
            values[FACTOR_INDEX[name]] = value
            mask[FACTOR_INDEX[name]] = False

    bars = columns.bars
    idx = None if bars is None else bars.position(d)
    if idx is None:
        return FactorVector(columns.stock_id, d, values, mask)
    closes, turnover, returns = bars.close, bars.turnover, columns.returns
    close = float(closes[idx])
    mcap = float(bars.market_cap[idx])

    if close > 0:
        put("LN_PRICE", math.log(close))
    if mcap > 0:
        put("LN_MCAP", math.log(mcap))

    snap = columns.dataset.fundamental_asof(columns.stock_id, d)
    if snap is not None and mcap > 0:
        put("EP", _safe_ratio(snap.net_profit, mcap))
        put("EP_CUT", _safe_ratio(snap.net_profit - snap.non_recurring_gain_loss, mcap))
        put("BP", _safe_ratio(snap.net_assets, mcap))
        put("SP", _safe_ratio(snap.operating_revenue, mcap))
        put("NCFP", _safe_ratio(snap.net_cash_flow, mcap))
        put("OCFP", _safe_ratio(snap.net_operate_cash_flow, mcap))
        # growth / PE == growth * net_profit / market_cap
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

    for w, n_months, rname, mname, dname, sname, tname, relname in zip(
        MONTH_DAYS, MONTH_COUNTS,
        ("RET_1M", "RET_3M", "RET_6M", "RET_12M"),
        ("RETTO_MEAN_1M", "RETTO_MEAN_3M", "RETTO_MEAN_6M", "RETTO_MEAN_12M"),
        ("RETTO_DECAY_1M", "RETTO_DECAY_3M", "RETTO_DECAY_6M", "RETTO_DECAY_12M"),
        ("RET_STD_1M", "RET_STD_3M", "RET_STD_6M", "RET_STD_12M"),
        ("TO_1M_MINUS1", "TO_3M_MINUS1", "TO_6M_MINUS1", "TO_12M_MINUS1"),
        ("TO_REL2Y_1M", "TO_REL2Y_3M", "TO_REL2Y_6M", "TO_REL2Y_12M"),
    ):
        if idx >= w and close > 0 and closes[idx - w] > 0:
            put(rname, closes[idx] / closes[idx - w] - 1.0)
        # a window holding a close <= 0 holds a non-finite return, so its
        # statistics are masked
        if idx >= w and np.isfinite(returns[idx - w:idx]).all():
            win_returns = returns[idx - w:idx]           # dates idx-w+1 .. idx
            win_turnover = turnover[idx - w + 1:idx + 1]
            product = win_returns * win_turnover
            put(mname, float(product.mean()))
            # distance in trading days from the action day; 0 on the day itself
            distance = np.arange(w - 1, -1, -1, dtype=float)
            weights = np.exp(-distance / (n_months * 4.0))
            put(dname, float((product * weights).mean()))
            put(sname, float(win_returns.std()))
        if idx + 1 >= w:
            trailing = turnover[idx - w + 1:idx + 1]
            put(tname, float(trailing.mean()) - 1.0)
            two_year = turnover[max(0, idx - TWO_YEAR_DAYS + 1):idx + 1]
            if len(two_year) >= 252:
                base = float(two_year.mean())
                if base > 0:
                    put(relname, float(trailing.mean()) / base - 1.0)

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

    return FactorVector(columns.stock_id, d, values, mask)


class MarketStore:
    """Point-in-time columnar view of one MarketDataset, shared by the
    strategies of a run.

    A stock's derived series are computed the first time it is asked for,
    and each (stock, date) factor row is computed once. The dataset must
    therefore not change while the store is in use: build one per run, and
    never keep one on the dataset.
    """

    def __init__(self, dataset: MarketDataset):
        self.dataset = dataset
        self._columns: dict[str, _StockColumns] = {}
        self._rows: dict[tuple[str, Date], FactorVector] = {}

    def row(self, stock_id: str, d: Date) -> FactorVector:
        """The stock's raw factors on d, from data at or before d."""
        key = (stock_id, d)
        if key not in self._rows:
            if stock_id not in self._columns:
                self._columns[stock_id] = _StockColumns(self.dataset, stock_id)
            self._rows[key] = _factor_row(self._columns[stock_id], d)
        return self._rows[key]


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
    """Raw factor panel, one row per universe stock, ascending stock_id."""
    stocks = sorted(universe)
    matrix = np.zeros((len(stocks), N_FACTORS))
    missing = np.ones((len(stocks), N_FACTORS), dtype=bool)
    for i, stock_id in enumerate(stocks):
        fv = store.row(stock_id, d)
        matrix[i] = fv.values
        missing[i] = fv.missing_mask
    return FactorPanel(date=d, stocks=stocks, matrix=matrix, missing=missing)


def compute_normalization(matrix: np.ndarray, missing: np.ndarray) -> NormalizationStats:
    """Median-impute, winsorize at +-5 population sigmas, z-score.

    Columns become C-contiguous rows, so each reduction along axis 1 sums in
    the same order as a 1-D reduction of that column.
    """
    medians = np.array([float(np.median(col[~gone])) if not gone.all() else 0.0
                        for col, gone in zip(matrix.T, missing.T)])
    filled = np.ascontiguousarray(np.where(missing, medians, matrix).T)
    mu0, sd0 = filled.mean(axis=1), filled.std(axis=1)
    lower, upper = mu0 - WINSOR_SIGMAS * sd0, mu0 + WINSOR_SIGMAS * sd0
    clipped = np.clip(filled, lower[:, None], upper[:, None])
    means = clipped.mean(axis=1)
    sd = clipped.std(axis=1)
    stds = np.where(sd > np.maximum(1e-12, 1e-8 * np.abs(means)), sd, 0.0)
    return NormalizationStats(medians, lower, upper, means, stds)


def apply_normalization(matrix: np.ndarray, missing: np.ndarray,
                        stats: NormalizationStats) -> np.ndarray:
    filled = np.where(missing, stats.medians[None, :], matrix)
    clipped = np.clip(filled, stats.lower[None, :], stats.upper[None, :])
    safe = np.where(stats.stds > 0, stats.stds, 1.0)
    normalized = (clipped - stats.means[None, :]) / safe[None, :]
    normalized[:, stats.stds == 0] = 0.0
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


def normalize_panel(panel: FactorPanel) -> FactorPanel:
    """Normalized copy of a raw panel (sparse rows dropped first)."""
    panel = drop_sparse_rows(panel)
    stats = compute_normalization(panel.matrix, panel.missing)
    matrix = apply_normalization(panel.matrix, panel.missing, stats)
    return FactorPanel(
        date=panel.date,
        stocks=list(panel.stocks),
        matrix=matrix,
        missing=np.zeros_like(panel.missing),
    )
