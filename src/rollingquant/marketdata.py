"""Daily bars, fundamentals, benchmark and trading-calendar handling.

The dataset holds each stock's bars as columns along its own bar dates, its
fundamental snapshots sorted by date, and the benchmark as a date -> close
mapping. Everything downstream (factors, strategies, backtest) reads it
afresh on each call; the factor store lives for one run or one call and is
never kept on the dataset.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from datetime import date as Date
from datetime import datetime

import numpy as np

from .errors import DataError, ParseError, ValidationError, not_utf8


class StockBars:
    """One stock's bars as columns along its strictly increasing dates."""

    def __init__(self, dates, close, prev_close, volume, turnover, market_cap, suspended):
        self.dates = list(dates)
        if any(b <= a for a, b in zip(self.dates, self.dates[1:])):
            raise ValidationError("bar dates must be strictly increasing")
        self.close = np.asarray(close, dtype=float)
        self.prev_close = np.asarray(prev_close, dtype=float)
        self.volume = np.asarray(volume, dtype=float)
        self.turnover = np.asarray(turnover, dtype=float)
        self.market_cap = np.asarray(market_cap, dtype=float)
        self.suspended = np.asarray(suspended, dtype=bool)

    def __len__(self):
        return len(self.dates)

    def position(self, d: Date):
        """Index of the bar dated d, or None; it equals the bars before d."""
        i = bisect_left(self.dates, d)
        return i if i < len(self.dates) and self.dates[i] == d else None


@dataclass
class FundamentalSnapshot:
    stock_id: str
    date: Date
    net_profit: float
    non_recurring_gain_loss: float
    net_assets: float
    total_assets: float
    avg_total_assets: float
    long_term_debt: float
    operating_revenue: float
    operate_income: float
    gross_profit: float
    net_cash_flow: float
    net_operate_cash_flow: float
    net_profit_growth: float
    cash: float
    current_assets: float
    current_liabilities: float
    equity: float
    industry_code: int


class TradingCalendar:
    """Ordered trading dates with month-end lookup."""

    def __init__(self, dates):
        self.dates = sorted(dates)
        if any(b <= a for a, b in zip(self.dates, self.dates[1:])):
            raise ValidationError("calendar dates must be strictly increasing")
        # last trading date of each (year, month) present in the calendar
        self._month_last: dict[tuple[int, int], Date] = {}
        for d in self.dates:
            self._month_last[(d.year, d.month)] = d

    def days_between(self, start: Date, end: Date):
        """Trading dates d with start <= d <= end."""
        lo = bisect_left(self.dates, start)
        hi = bisect_right(self.dates, end)
        return self.dates[lo:hi]

    def month_last_days(self):
        return [self._month_last[k] for k in sorted(self._month_last)]


def action_days(calendar: TradingCalendar, start: Date, end: Date):
    """The calendar's month-end trading dates that lie inside [start, end]
    (a month whose last trading date falls after end is left out)."""
    return [d for d in calendar.month_last_days() if start <= d <= end]


@dataclass
class MarketDataset:
    """bars[stock_id] -> StockBars; fundamentals[stock_id] -> snapshots,
    sorted by date at construction, at most one per date."""

    bars: dict[str, StockBars]
    fundamentals: dict[str, list[FundamentalSnapshot]]
    benchmark: dict[Date, float]
    calendar: TradingCalendar
    latent_quality: dict[str, float] | None = field(default=None, repr=False)

    def __post_init__(self):
        for stock_id, snaps in self.fundamentals.items():
            snaps.sort(key=lambda snap: snap.date)
            for a, b in zip(snaps, snaps[1:]):
                if a.date == b.date:
                    raise ValidationError(
                        f"duplicate snapshot for ({stock_id}, {b.date.isoformat()})")

    @classmethod
    def from_rows(cls, bar_rows, snapshots, benchmark):
        """Dataset from bar rows in BARS_COLUMNS order, fundamental snapshots
        and a date -> close benchmark; the calendar is the union of the bar
        and benchmark dates."""
        by_stock: dict[str, list] = {}
        for row in bar_rows:
            by_stock.setdefault(row[0], []).append(row)
        bars = {}
        for stock_id, rows in by_stock.items():
            rows.sort(key=lambda row: row[1])
            bars[stock_id] = StockBars(*list(zip(*rows))[1:])
        fundamentals: dict[str, list[FundamentalSnapshot]] = {}
        for snap in snapshots:
            fundamentals.setdefault(snap.stock_id, []).append(snap)
        calendar = TradingCalendar(set(benchmark).union(*(b.dates for b in bars.values())))
        return cls(bars, fundamentals, dict(benchmark), calendar)

    def bar_rows(self):
        """Bar rows in BARS_COLUMNS order by stock and date; from_rows' input."""
        for stock_id in self.stock_ids():
            b = self.bars[stock_id]
            for row in zip(b.dates, b.close.tolist(), b.prev_close.tolist(),
                           b.volume.tolist(), b.turnover.tolist(),
                           b.market_cap.tolist(), b.suspended.tolist()):
                yield (stock_id, *row)

    def stock_ids(self):
        return sorted(self.bars)

    def tradeable_close(self, stock_id: str, d: Date):
        """The stock's close on d, or None without a bar on d or while suspended."""
        bars = self.bars.get(stock_id)
        i = None if bars is None else bars.position(d)
        if i is None or bars.suspended[i]:
            return None
        return float(bars.close[i])

    def fundamental_asof(self, stock_id: str, d: Date):
        """Latest snapshot dated at or before d, or None."""
        snaps = self.fundamentals.get(stock_id, ())
        i = bisect_right(snaps, d, key=lambda snap: snap.date)
        return snaps[i - 1] if i else None


# bars of history a stock needs before the day it is eligible on
MIN_HISTORY_DAYS = 252


def eligible_universe(dataset: MarketDataset, d: Date):
    """Stocks on d with MIN_HISTORY_DAYS bars before it, not suspended and
    with a fundamental snapshot: tradeable and fully factor-computable."""
    out = set()
    for stock_id, bars in dataset.bars.items():
        # the position of the day's bar counts the history before it
        i = bars.position(d)
        if i is None or i < MIN_HISTORY_DAYS or bars.suspended[i]:
            continue
        if dataset.fundamental_asof(stock_id, d) is not None:
            out.add(stock_id)
    return out


# --- CSV ingestion ---------------------------------------------------------

BARS_COLUMNS = [
    "stock_id", "date", "close", "prev_close", "volume",
    "turnover_ratio", "market_cap", "is_suspended",
]
FUNDAMENTALS_COLUMNS = [
    "stock_id", "date", "net_profit", "non_recurring_gain_loss", "net_assets",
    "total_assets", "avg_total_assets", "long_term_debt", "operating_revenue",
    "operate_income", "gross_profit", "net_cash_flow", "net_operate_cash_flow",
    "net_profit_growth", "cash", "current_assets", "current_liabilities",
    "equity", "industry_code",
]
BENCHMARK_COLUMNS = ["date", "close"]


def _parse_date(text, path, line, column):
    try:
        return datetime.strptime(text, "%Y-%m-%d").date()
    except ValueError:
        raise ParseError(f"{path}:{line}: column '{column}': bad date {text!r}") from None


def _parse_float(text, path, line, column):
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"{path}:{line}: column '{column}': bad number {text!r}") from None
    if not math.isfinite(value):
        raise ParseError(f"{path}:{line}: column '{column}': non-finite number {text!r}")
    return value


def _read_rows(path, columns):
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise ParseError(f"{path}:1: empty file")
            if [h.strip() for h in header] != columns:
                raise ParseError(f"{path}:1: expected header {','.join(columns)}")
            for row in reader:
                if not row:
                    continue
                # line_num is the physical line the record ends on, past
                # any newline a quoted field holds
                if len(row) != len(columns):
                    raise ParseError(f"{path}:{reader.line_num}: expected {len(columns)} "
                                     f"fields, got {len(row)}")
                yield reader.line_num, row
        except UnicodeDecodeError:  # raised a decoded chunk ahead of the rows
            raise ParseError(not_utf8(path)) from None
        except csv.Error as exc:  # e.g. a field larger than csv's field limit
            raise ParseError(f"{path}:{reader.line_num}: {exc}") from None


def _date_parser(path):
    """_parse_date for one file's 'date' column, each distinct string parsed once."""
    parsed: dict[str, Date] = {}
    return lambda text, line: parsed.get(text) or parsed.setdefault(
        text, _parse_date(text, path, line, "date"))


def load_dataset(bars_path, fundamentals_path, benchmark_path) -> MarketDataset:
    """Load and validate the three-CSV dataset described in the README."""
    bar_rows = []
    seen = set()
    parse_date = _date_parser(bars_path)
    for line_no, row in _read_rows(bars_path, BARS_COLUMNS):
        stock_id = row[0]
        d = parse_date(row[1], line_no)
        suspended_raw = row[7].strip()
        if suspended_raw not in ("0", "1"):
            raise ParseError(f"{bars_path}:{line_no}: column 'is_suspended': expected 0 or 1")
        close, prev_close, volume, turnover, market_cap = [
            _parse_float(row[i], bars_path, line_no, BARS_COLUMNS[i]) for i in range(2, 7)]
        suspended = suspended_raw == "1"
        if not suspended and (close <= 0 or market_cap <= 0) or volume < 0 or turnover < 0:
            column = ("close" if not suspended and close <= 0
                      else "market_cap" if not suspended and market_cap <= 0
                      else "volume" if volume < 0 else "turnover_ratio")
            bound = ">= 0" if column in ("volume", "turnover_ratio") else "> 0"
            raise ValidationError(f"{bars_path}:{line_no}: column '{column}': bar for "
                                  f"{stock_id} on {d.isoformat()} must be {bound}")
        key = (stock_id, d)
        if key in seen:
            raise ParseError(
                f"{bars_path}:{line_no}: duplicate bar for ({stock_id}, {d.isoformat()})")
        seen.add(key)
        bar_rows.append((stock_id, d, close, prev_close, volume, turnover, market_cap, suspended))
    if not bar_rows:
        raise ParseError(f"{bars_path}: no bars")

    snapshots = []
    seen.clear()
    parse_date = _date_parser(fundamentals_path)
    for line_no, row in _read_rows(fundamentals_path, FUNDAMENTALS_COLUMNS):
        stock_id = row[0]
        d = parse_date(row[1], line_no)
        values = [
            _parse_float(row[i], fundamentals_path, line_no, FUNDAMENTALS_COLUMNS[i])
            for i in range(2, 18)
        ]
        try:
            industry_code = int(row[18])
        except ValueError:
            raise ParseError(
                f"{fundamentals_path}:{line_no}: column 'industry_code': bad integer {row[18]!r}"
            ) from None
        key = (stock_id, d)
        if key in seen:
            raise ParseError(f"{fundamentals_path}:{line_no}: duplicate snapshot for "
                             f"({stock_id}, {d.isoformat()})")
        seen.add(key)
        snapshots.append(FundamentalSnapshot(stock_id, d, *values, industry_code))

    benchmark: dict[Date, float] = {}
    parse_date = _date_parser(benchmark_path)
    for line_no, row in _read_rows(benchmark_path, BENCHMARK_COLUMNS):
        d = parse_date(row[0], line_no)
        close = _parse_float(row[1], benchmark_path, line_no, "close")
        if close <= 0:
            raise ValidationError(f"{benchmark_path}:{line_no}: column 'close': "
                                  f"benchmark close on {d.isoformat()} must be > 0")
        if d in benchmark:
            raise ParseError(
                f"{benchmark_path}:{line_no}: duplicate benchmark date {d.isoformat()}")
        benchmark[d] = close

    dataset = MarketDataset.from_rows(bar_rows, snapshots, benchmark)
    for d in dataset.calendar.dates:
        if d not in benchmark:
            raise ValidationError(f"{benchmark_path}: missing calendar date {d.isoformat()}")
    return dataset
