"""Deterministic file writers for datasets and backtest results, and the
reader of the series.csv they write.

All floats are written with %.17g so files round-trip float64 exactly and
identical runs produce byte-identical outputs.
"""

from __future__ import annotations

import csv
from pathlib import Path

from .errors import DataError
from .marketdata import (BARS_COLUMNS, BENCHMARK_COLUMNS, FUNDAMENTALS_COLUMNS, MarketDataset,
                         _parse_date, _parse_float, _read_rows)


SERIES_COLUMNS = ["date", "portfolio_value", "portfolio_daily_return", "benchmark_daily_return"]


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_dataset(dataset: MarketDataset, out_dir):
    """bars.csv, fundamentals.csv and benchmark.csv under out_dir."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "bars.csv", BARS_COLUMNS, (
        [stock_id, d.isoformat(), *map(_fmt, values), "1" if suspended else "0"]
        for stock_id, d, *values, suspended in dataset.bar_rows()))
    _write_csv(out_dir / "fundamentals.csv", FUNDAMENTALS_COLUMNS, (
        [snap.stock_id, snap.date.isoformat(),
         *(_fmt(getattr(snap, name)) for name in FUNDAMENTALS_COLUMNS[2:18]),
         str(snap.industry_code)]
        for stock_id in sorted(dataset.fundamentals)
        for snap in dataset.fundamentals[stock_id]))
    _write_csv(out_dir / "benchmark.csv", BENCHMARK_COLUMNS,
               ([d.isoformat(), _fmt(dataset.benchmark[d])] for d in sorted(dataset.benchmark)))


def write_series_csv(result, path):
    """date,portfolio_value,portfolio_daily_return,benchmark_daily_return.

    Return columns are empty on the first row (no prior valuation).
    """
    returns = [("", "")] + [(_fmt(p), _fmt(b)) for p, b in
                            zip(result.daily_returns, result.benchmark_returns)]
    _write_csv(path, SERIES_COLUMNS, (
        [d.isoformat(), _fmt(value), *pair]
        for d, value, pair in zip(result.dates, result.values, returns)))


def read_series_csv(path):
    """(dates, portfolio returns, benchmark returns) of a written series.csv,
    without its first row, which has no returns."""
    dates, portfolio_returns, benchmark_returns = [], [], []
    for line_no, (day, _, portfolio, bench) in _read_rows(path, SERIES_COLUMNS):
        if portfolio == "":
            continue  # the first row has no previous valuation
        dates.append(_parse_date(day, path, line_no, "date"))
        portfolio_returns.append(_parse_float(portfolio, path, line_no, "portfolio_daily_return"))
        benchmark_returns.append(_parse_float(bench, path, line_no, "benchmark_daily_return"))
    if not dates:
        raise DataError(f"{path}: no return rows")
    return dates, portfolio_returns, benchmark_returns


def write_trades_csv(result, path):
    _write_csv(path, ["date", "stock_id", "side", "shares", "price", "cost"], (
        [t.date.isoformat(), t.stock_id, t.side, _fmt(t.shares), _fmt(t.price), _fmt(t.cost)]
        for t in result.trades))


def write_ranking_csv(rankings, path):
    _write_csv(path, ["date", "rank", "stock_id", "score"], (
        [ranking.date.isoformat(), str(rank), stock_id, _fmt(score)]
        for ranking in rankings
        for rank, (stock_id, score) in enumerate(ranking.entries, start=1)))
