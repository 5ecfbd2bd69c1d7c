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
        for stock_id in dataset.stock_ids():
            for d in dataset.bar_dates(stock_id):
                bar = dataset.bars[stock_id][d]
                writer.writerow([
                    bar.stock_id, d.isoformat(), _fmt(bar.close), _fmt(bar.prev_close),
                    _fmt(bar.volume), _fmt(bar.turnover_ratio), _fmt(bar.market_cap),
                    "1" if bar.is_suspended else "0",
                ])

    with open(out_dir / "fundamentals.csv", "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(FUNDAMENTALS_COLUMNS)
        for stock_id in sorted(dataset.fundamentals):
            for snap in dataset.fundamentals[stock_id]:
                writer.writerow([
                    snap.stock_id, snap.date.isoformat(),
                    _fmt(snap.net_profit), _fmt(snap.non_recurring_gain_loss),
                    _fmt(snap.net_assets), _fmt(snap.total_assets),
                    _fmt(snap.avg_total_assets), _fmt(snap.long_term_debt),
                    _fmt(snap.operating_revenue), _fmt(snap.operate_income),
                    _fmt(snap.gross_profit), _fmt(snap.net_cash_flow),
                    _fmt(snap.net_operate_cash_flow), _fmt(snap.net_profit_growth),
                    _fmt(snap.cash), _fmt(snap.current_assets),
                    _fmt(snap.current_liabilities), _fmt(snap.equity),
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
