"""Deterministic file writers for datasets and backtest results.

All floats are written with %.17g so files round-trip float64 exactly and
identical runs produce byte-identical outputs.
"""

from __future__ import annotations

import csv
from pathlib import Path

from .marketdata import BARS_COLUMNS, BENCHMARK_COLUMNS, FUNDAMENTALS_COLUMNS, MarketDataset


SERIES_COLUMNS = ["date", "portfolio_value", "portfolio_daily_return", "benchmark_daily_return"]


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_dataset(dataset: MarketDataset, out_dir):
    """bars.csv, fundamentals.csv and benchmark.csv under out_dir."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    with open(out_dir / "bars.csv", "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(BARS_COLUMNS)
        for stock_id, d, *values, suspended in dataset.bar_rows():
            writer.writerow([stock_id, d.isoformat(), *map(_fmt, values),
                             "1" if suspended else "0"])

    with open(out_dir / "fundamentals.csv", "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(FUNDAMENTALS_COLUMNS)
        for stock_id in sorted(dataset.fundamentals):
            for snap in dataset.fundamentals[stock_id]:
                writer.writerow([
                    snap.stock_id, snap.date.isoformat(),
                    *(_fmt(getattr(snap, name)) for name in FUNDAMENTALS_COLUMNS[2:18]),
                    str(snap.industry_code),
                ])

    with open(out_dir / "benchmark.csv", "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(BENCHMARK_COLUMNS)
        for d in sorted(dataset.benchmark):
            writer.writerow([d.isoformat(), _fmt(dataset.benchmark[d])])


def write_series_csv(result, path):
    """date,portfolio_value,portfolio_daily_return,benchmark_daily_return.

    Return columns are empty on the first row (no prior valuation).
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SERIES_COLUMNS)
        for i, d in enumerate(result.dates):
            if i == 0:
                writer.writerow([d.isoformat(), _fmt(result.values[i]), "", ""])
            else:
                writer.writerow([
                    d.isoformat(), _fmt(result.values[i]),
                    _fmt(result.daily_returns[i - 1]),
                    _fmt(result.benchmark_returns[i - 1]),
                ])


def write_trades_csv(result, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["date", "stock_id", "side", "shares", "price", "cost"])
        for trade in result.trades:
            writer.writerow([
                trade.date.isoformat(), trade.stock_id, trade.side,
                _fmt(trade.shares), _fmt(trade.price), _fmt(trade.cost),
            ])


def write_ranking_csv(rankings, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["date", "rank", "stock_id", "score"])
        for ranking in rankings:
            for rank, (stock_id, score) in enumerate(ranking.entries, start=1):
                writer.writerow([ranking.date.isoformat(), str(rank), stock_id, _fmt(score)])
