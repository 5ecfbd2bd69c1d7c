"""Evaluation statistics for daily return series.

Conventions: 252-trading-day year, compound annualization, population
standard deviations. Similarity to the benchmark is the population standard
deviation of the element-wise difference of the two daily return series, so
a portfolio whose daily returns are the benchmark's plus a constant scores 0.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from datetime import date as Date

import numpy as np

from .errors import ValidationError

TRADING_DAYS_PER_YEAR = 252
DEFAULT_RISK_FREE_ANNUAL = 0.03


@dataclass
class ReturnSeries:
    dates: list[Date]     # one per return; dates[i] is the day of returns[i]
    returns: np.ndarray

    def __post_init__(self):
        self.returns = np.asarray(self.returns, dtype=float)
        if len(self.dates) != len(self.returns):
            raise ValidationError("dates and returns lengths differ")

    def net_return(self) -> float:
        return float(np.prod(1.0 + self.returns) - 1.0)


def _check_pair(series: ReturnSeries, benchmark: ReturnSeries):
    if len(series.returns) != len(benchmark.returns):
        raise ValidationError("series lengths differ")
    if len(series.returns) < 2:
        raise ValidationError("need at least 2 observations")


def annualized_return(series: ReturnSeries) -> float:
    n = len(series.returns)
    total = float(np.prod(1.0 + series.returns))
    if total <= 0:
        return -1.0
    return total ** (TRADING_DAYS_PER_YEAR / n) - 1.0


def sharpe_ratio(series: ReturnSeries, benchmark: ReturnSeries,
                 risk_free_annual: float) -> float:
    """(annualized return - rf) / annualized std of daily excess returns.

    Returns signed infinity when the excess volatility is zero; reports
    render that as "undefined".
    """
    _check_pair(series, benchmark)
    excess = series.returns - benchmark.returns
    sigma = float(excess.std())
    numerator = annualized_return(series) - risk_free_annual
    if sigma == 0.0:
        return math.copysign(math.inf, numerator) if numerator != 0 else math.inf
    return numerator / (sigma * math.sqrt(TRADING_DAYS_PER_YEAR))


def similarity_to_benchmark(series: ReturnSeries, benchmark: ReturnSeries) -> float:
    """Population std of the element-wise difference of the two daily series.

    Zero means the portfolio tracks the benchmark up to a constant offset
    per element.
    """
    _check_pair(series, benchmark)
    return float((series.returns - benchmark.returns).std())


def _month_key(d: Date) -> str:
    return f"{d.year:04d}-{d.month:02d}"


@dataclass
class MonthlyRow:
    month: str
    portfolio_return: float
    benchmark_return: float
    sharpe: float  # un-annualized mean/std of that month's daily excess


def monthly_breakdown(series: ReturnSeries, benchmark: ReturnSeries) -> list[MonthlyRow]:
    _check_pair(series, benchmark)
    groups: dict[str, list[int]] = {}
    for i, d in enumerate(series.dates):
        groups.setdefault(_month_key(d), []).append(i)
    rows = []
    for month in sorted(groups):
        idx = groups[month]
        r_p = series.returns[idx]
        r_b = benchmark.returns[idx]
        excess = r_p - r_b
        sigma = float(excess.std())
        sharpe = float(excess.mean()) / sigma if sigma > 0 else math.inf
        rows.append(MonthlyRow(
            month=month,
            portfolio_return=float(np.prod(1.0 + r_p) - 1.0),
            benchmark_return=float(np.prod(1.0 + r_b) - 1.0),
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
        def num(x):
            if not math.isfinite(x):
                return "undefined"
            return float(f"{x:.17g}")

        doc = {
            "strategy": self.strategy,
            "sharpe_ratio": num(self.sharpe_ratio),
            "net_return": num(self.net_return),
            "benchmark_return": num(self.benchmark_return),
            "similarity": num(self.similarity),
            "risk_free_annual": num(self.risk_free_annual),
            "monthly": [
                {
                    "month": row.month,
                    "portfolio_return": num(row.portfolio_return),
                    "benchmark_return": num(row.benchmark_return),
                    "sharpe": num(row.sharpe),
                }
                for row in self.monthly
            ],
        }
        return json.dumps(doc, indent=2) + "\n"


def build_report(strategy: str, series: ReturnSeries, benchmark: ReturnSeries,
                 risk_free_annual: float = DEFAULT_RISK_FREE_ANNUAL) -> ScenarioReport:
    if len(series.returns) == 0:
        raise ValidationError("empty return series")
    return ScenarioReport(
        strategy=strategy,
        sharpe_ratio=sharpe_ratio(series, benchmark, risk_free_annual),
        net_return=series.net_return(),
        benchmark_return=benchmark.net_return(),
        similarity=similarity_to_benchmark(series, benchmark),
        risk_free_annual=risk_free_annual,
        monthly=monthly_breakdown(series, benchmark),
    )


def result_series(result) -> tuple[ReturnSeries, ReturnSeries]:
    """Portfolio and benchmark ReturnSeries from a BacktestResult."""
    dates = result.dates[1:]
    return (
        ReturnSeries(dates=dates, returns=np.asarray(result.daily_returns)),
        ReturnSeries(dates=dates, returns=np.asarray(result.benchmark_returns)),
    )
