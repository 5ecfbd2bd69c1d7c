"""Deterministic file writers for datasets and backtest results, and the
reader of the series.csv they write.

All floats are written with %.17g so files round-trip float64 exactly and
identical runs produce byte-identical outputs.
"""

from __future__ import annotations

import csv
from datetime import date as Date
from itertools import chain, compress, repeat
from pathlib import Path

import numpy as np

from .errors import DataError, ParseError
from .marketdata import (BARS_COLUMNS, BENCHMARK_COLUMNS, FUNDAMENTALS_COLUMNS, MarketDataset,
                         _parse_date, _parse_float, _read_rows)


SERIES_COLUMNS = ["date", "portfolio_value", "portfolio_daily_return", "benchmark_daily_return"]


_fmt = "{:.17g}".format


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_dataset(dataset: MarketDataset, out_dir):
    """bars.csv, fundamentals.csv and benchmark.csv under out_dir, column by column."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    iso = [d.isoformat() for d in dataset.calendar.dates]
    # the bars in stock and date order
    bars = dataset.bar_days >= 0
    _write_csv(out_dir / "bars.csv", BARS_COLUMNS, zip(
        chain.from_iterable(map(repeat, dataset.stocks, bars.sum(axis=1).tolist())),
        map(iso.__getitem__, dataset.bar_days[bars].tolist()),
        *(map(_fmt, column[bars].tolist()) for column in (
            dataset.close, dataset.prev_close, dataset.volume, dataset.turnover,
            dataset.market_cap)),
        map("01".__getitem__, dataset.suspended[bars].tolist())))
    _write_csv(out_dir / "fundamentals.csv", FUNDAMENTALS_COLUMNS, zip(
        chain.from_iterable(map(repeat, dataset.stocks,
                                np.diff(dataset.snapshot_bounds).tolist())),
        (Date.fromordinal(day).isoformat() for day in dataset.snapshot_days.tolist()),
        *(map(_fmt, column.tolist()) for column in dataset.snapshot_values.T),
        map(str, dataset.industry)))
    closes = ~np.isnan(dataset.benchmark)
    _write_csv(out_dir / "benchmark.csv", BENCHMARK_COLUMNS,
               zip(compress(iso, closes), map(_fmt, dataset.benchmark[closes].tolist())))


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
    without its first row, which has no returns; a later row must have them,
    and every row a numeric portfolio_value and a date after the previous row's."""
    dates, portfolio_returns, benchmark_returns = [], [], []
    previous = None
    for i, (line_no, (day, value, portfolio, bench)) in enumerate(
            _read_rows(path, SERIES_COLUMNS)):
        d = _parse_date(day, path, line_no, "date")
        if previous is not None and d <= previous:
            raise ParseError(f"{path}:{line_no}: column 'date': {d.isoformat()} "
                             f"does not follow {previous.isoformat()}")
        previous = d
        _parse_float(value, path, line_no, "portfolio_value")
        if i == 0 and portfolio == "":
            continue  # the first row has no previous valuation
        dates.append(d)
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
