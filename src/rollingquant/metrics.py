"""Evaluation statistics for daily return series.

Conventions: 252-trading-day year, compound annualization, population
standard deviations. Similarity to the benchmark is the population standard
deviation of the element-wise difference of the two daily return series, so
a portfolio whose daily returns are the benchmark's plus a constant scores 0.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from datetime import date as Date

import numpy as np

from .errors import ValidationError

TRADING_DAYS_PER_YEAR = 252
DEFAULT_RISK_FREE_ANNUAL = 0.03
MIN_REPORT_RETURNS = 2  # the fewest daily returns a report's statistics take


def net_return(returns: np.ndarray) -> float:
    return float(np.prod(1.0 + returns) - 1.0)


def annualized_return(returns: np.ndarray) -> float:
    n = len(returns)
    total = float(np.prod(1.0 + returns))
    if total <= 0:
        return -1.0
    try:
        return total ** (TRADING_DAYS_PER_YEAR / n) - 1.0
    except OverflowError:  # where numpy would give inf
        return math.inf


def sharpe_ratio(returns: np.ndarray, benchmark_returns: np.ndarray,
                 risk_free_annual: float) -> float:
    """(annualized return - rf) / annualized std of daily excess returns.

    Returns signed infinity when the excess volatility is zero; reports
    render that as "undefined".
    """
    sigma = float((returns - benchmark_returns).std())
    numerator = annualized_return(returns) - risk_free_annual
    if sigma == 0.0:
        return math.copysign(math.inf, numerator) if numerator != 0 else math.inf
    return numerator / (sigma * math.sqrt(TRADING_DAYS_PER_YEAR))


def similarity_to_benchmark(returns: np.ndarray, benchmark_returns: np.ndarray) -> float:
    """Population std of the element-wise difference of the two daily series.

    Zero means the portfolio tracks the benchmark up to a constant offset
    per element.
    """
    return float((returns - benchmark_returns).std())


@dataclass
class MonthlyRow:
    month: str
    portfolio_return: float
    benchmark_return: float
    sharpe: float  # un-annualized mean/std of that month's daily excess


def monthly_breakdown(dates: list[Date], returns: np.ndarray,
                      benchmark_returns: np.ndarray) -> list[MonthlyRow]:
    groups: dict[str, list[int]] = {}
    for i, d in enumerate(dates):
        groups.setdefault(f"{d.year:04d}-{d.month:02d}", []).append(i)
    rows = []
    for month in sorted(groups):
        idx = groups[month]
        r_p = returns[idx]
        r_b = benchmark_returns[idx]
        excess = r_p - r_b
        sigma = float(excess.std())
        sharpe = float(excess.mean()) / sigma if sigma > 0 else math.inf
        rows.append(MonthlyRow(
            month=month,
            portfolio_return=net_return(r_p),
            benchmark_return=net_return(r_b),
            sharpe=sharpe,
        ))
    return rows


@dataclass
class ScenarioReport:
    strategy: str
    sharpe_ratio: float
    net_return: float
    benchmark_return: float
    similarity: float
    risk_free_annual: float
    monthly: list[MonthlyRow]

    def to_json(self) -> str:
        """The fields as JSON, each number as %.17g or "undefined" when not finite."""
        def value(x):
            if isinstance(x, (str, list)):  # a name, a month, or the monthly rows
                return x
            return float(f"{x:.17g}") if math.isfinite(x) else "undefined"

        doc = asdict(self, dict_factory=lambda fields: {k: value(v) for k, v in fields})
        return json.dumps(doc, indent=2) + "\n"


@np.errstate(all="ignore")  # an overflowing statistic is inf or NaN, rendered "undefined"
def build_report(strategy: str, dates: list[Date], returns, benchmark_returns,
                 risk_free_annual: float = DEFAULT_RISK_FREE_ANNUAL) -> ScenarioReport:
    """dates[i] is the day of returns[i] and of benchmark_returns[i]."""
    returns = np.asarray(returns, dtype=float)
    benchmark_returns = np.asarray(benchmark_returns, dtype=float)
    if not len(dates) == len(returns) == len(benchmark_returns):
        raise ValidationError("dates, returns and benchmark returns lengths differ")
    if len(returns) < MIN_REPORT_RETURNS:
        raise ValidationError(f"need at least {MIN_REPORT_RETURNS} observations")
    return ScenarioReport(
        strategy=strategy,
        sharpe_ratio=sharpe_ratio(returns, benchmark_returns, risk_free_annual),
        net_return=net_return(returns),
        benchmark_return=net_return(benchmark_returns),
        similarity=similarity_to_benchmark(returns, benchmark_returns),
        risk_free_annual=risk_free_annual,
        monthly=monthly_breakdown(dates, returns, benchmark_returns),
    )
