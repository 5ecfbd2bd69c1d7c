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
from itertools import chain, islice

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
    def from_columns(cls, stock_ids, codes, days, values, suspended, snapshots, benchmark):
        """Dataset from bar columns (each bar's stock as a code into stock_ids,
        its date as an ordinal, its close, prev_close, volume, turnover and
        market cap as a (5, bars) array, its suspension flag), grouped per
        stock by one sort, fundamental snapshots and a date -> close
        benchmark; the calendar is the union of the bar and benchmark dates."""
        order = np.lexsort((days, codes))
        codes, days = codes[order], days[order]
        values, suspended = values[:, order], suspended[order]
        dates = {day: Date.fromordinal(day) for day in np.unique(days).tolist()}
        bounds = np.searchsorted(codes, np.arange(len(stock_ids) + 1)).tolist()
        bars = {stock_id: StockBars(list(map(dates.__getitem__, days[lo:hi].tolist())),
                                    *values[:, lo:hi], suspended[lo:hi])
                for stock_id, lo, hi in zip(stock_ids, bounds, bounds[1:])}
        fundamentals: dict[str, list[FundamentalSnapshot]] = {}
        for snap in snapshots:
            fundamentals.setdefault(snap.stock_id, []).append(snap)
        calendar = TradingCalendar(set(benchmark).union(dates.values()))
        return cls(bars, fundamentals, dict(benchmark), calendar)

    def bar_rows(self):
        """Bar rows in BARS_COLUMNS order by stock and date."""
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


def _check_bar(path, line, row):
    """Raise the first error of a bars.csv record, its key aside."""
    d = _parse_date(row[1], path, line, "date")
    suspended = row[7].strip()
    if suspended not in ("0", "1"):
        raise ParseError(f"{path}:{line}: column 'is_suspended': expected 0 or 1")
    close, _, volume, turnover, market_cap = [
        _parse_float(row[i], path, line, BARS_COLUMNS[i]) for i in range(2, 7)]
    trading = suspended == "0"
    if trading and (close <= 0 or market_cap <= 0) or volume < 0 or turnover < 0:
        column = ("close" if trading and close <= 0
                  else "market_cap" if trading and market_cap <= 0
                  else "volume" if volume < 0 else "turnover_ratio")
        bound = ">= 0" if column in ("volume", "turnover_ratio") else "> 0"
        raise ValidationError(f"{path}:{line}: column '{column}': bar for "
                              f"{row[0]} on {d.isoformat()} must be {bound}")


def _check_snapshot(path, line, row):
    """Raise the first error of a fundamentals.csv record, its key aside."""
    _parse_date(row[1], path, line, "date")
    for i in range(2, 18):
        _parse_float(row[i], path, line, FUNDAMENTALS_COLUMNS[i])
    try:
        int(row[18])
    except ValueError:
        raise ParseError(
            f"{path}:{line}: column 'industry_code': bad integer {row[18]!r}") from None


def _check_benchmark(path, line, row):
    """Raise the first error of a benchmark.csv record, its key aside."""
    d = _parse_date(row[0], path, line, "date")
    if _parse_float(row[1], path, line, "close") <= 0:
        raise ValidationError(f"{path}:{line}: column 'close': "
                              f"benchmark close on {d.isoformat()} must be > 0")


# records read and converted at a time: one np.array call converts a chunk's
# numbers, and only one chunk's text is held
CHUNK_RECORDS = 1024
# a (stock, date) key as one integer: stock code * DAYS + date ordinal
DAYS = 1 << 32


def _codes(texts, table, code):
    """table[text] per text as an int64 array; a text new to table enters it
    as code(text), in order of first appearance."""
    for text in dict.fromkeys(texts):
        if text not in table:
            table[text] = code(text)
    return np.fromiter(map(table.__getitem__, texts), np.int64, len(texts))


def _ordinal(text):
    """The ordinal of a date that _parse_date accepts, or -1."""
    try:
        return datetime.strptime(text, "%Y-%m-%d").toordinal()
    except ValueError:
        return -1


def _numbers(columns):
    """The columns as one float64 array, or None if float() rejects a value
    or one is not finite."""
    try:
        values = np.array(columns, dtype=np.float64)
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


def _read_table(path, columns, convert, check, duplicate):
    """The parts convert makes of the file's records, CHUNK_RECORDS at a time.

    convert(rows) gives the records' int keys and their part, None if a
    record fails a mask; then check(path, line, row) names the first bad
    record. The error raised is the first in file order: a record whose key
    an earlier one holds (duplicate(key) names it), a bad record, or the
    error that ends the file."""
    failure = []

    def records():
        try:
            yield from _read_rows(path, columns)
        except DataError as exc:  # raised after the records read before it
            failure.append(exc)

    stream, keys, lines, parts = records(), [], [], []
    while chunk := list(islice(stream, CHUNK_RECORDS)):
        key, part = convert([row for _, row in chunk])
        if part is None:
            for n, (line, row) in enumerate(chunk):
                try:
                    check(path, line, row)
                except DataError as exc:
                    failure.insert(0, exc)
                    chunk = chunk[:n]
                    break
            else:
                raise RuntimeError(f"{path}: a record fails a mask but none of its checks")
        keys.append(key[:len(chunk)])
        lines.append(np.array([line for line, _ in chunk], dtype=np.int64))
        parts.append(part)
        if failure:
            break
    if keys:
        key = np.concatenate(keys)
        order = np.argsort(key, kind="stable")  # the records of a key stay in file order
        repeat = key[order][1:] == key[order][:-1]
        if repeat.any():
            i = order[1:][repeat].min()
            raise ParseError(f"{path}:{np.concatenate(lines)[i]}: {duplicate(key[i])}")
    if failure:
        raise failure[0]
    return parts


def load_dataset(bars_path, fundamentals_path, benchmark_path) -> MarketDataset:
    """Load and validate the three-CSV dataset described in the README."""
    # stock id -> code, of bars and of snapshots; date text -> ordinal;
    # is_suspended text -> 0, 1 or -1
    bar_ids, snapshot_ids, days, flags = {}, {}, {}, {}

    def bars(rows):
        stock_id, day, *numbers, flag = zip(*rows)
        codes = _codes(stock_id, bar_ids, lambda _: len(bar_ids))
        ordinals = _codes(day, days, _ordinal)
        suspended = _codes(flag, flags, lambda text: {"0": 0, "1": 1}.get(text.strip(), -1))
        values = _numbers(numbers)
        key = codes * DAYS + ordinals
        if values is None or (ordinals < 0).any() or (suspended < 0).any():
            return key, None
        close, _, volume, turnover, market_cap = values
        trading = suspended == 0
        if (trading & ((close <= 0) | (market_cap <= 0)) | (volume < 0) | (turnover < 0)).any():
            return key, None
        return key, (codes, ordinals, values, ~trading)

    def snapshots(rows):
        stock_id, day, *numbers, industry = zip(*rows)
        ordinals = _codes(day, days, _ordinal)
        key = _codes(stock_id, snapshot_ids, lambda _: len(snapshot_ids)) * DAYS + ordinals
        values = _numbers(numbers)
        try:
            industry = list(map(int, industry))
        except ValueError:
            return key, None
        if values is None or (ordinals < 0).any():
            return key, None
        dates = map(Date.fromordinal, ordinals.tolist())
        return key, list(map(FundamentalSnapshot, stock_id, dates, *values.tolist(), industry))

    def benchmark_closes(rows):
        day, close = zip(*rows)
        ordinals = _codes(day, days, _ordinal)
        values = _numbers([close])
        if values is None or (ordinals < 0).any() or (values <= 0).any():
            return ordinals, None
        return ordinals, zip(map(Date.fromordinal, ordinals.tolist()), values[0].tolist())

    def iso(day):
        return Date.fromordinal(day).isoformat()

    bar_parts = _read_table(bars_path, BARS_COLUMNS, bars, _check_bar, lambda key:
                            f"duplicate bar for ({list(bar_ids)[key // DAYS]}, {iso(key % DAYS)})")
    if not bar_parts:
        raise ParseError(f"{bars_path}: no bars")
    snapshot_parts = _read_table(
        fundamentals_path, FUNDAMENTALS_COLUMNS, snapshots, _check_snapshot, lambda key:
        f"duplicate snapshot for ({list(snapshot_ids)[key // DAYS]}, {iso(key % DAYS)})")
    benchmark = dict(chain.from_iterable(_read_table(
        benchmark_path, BENCHMARK_COLUMNS, benchmark_closes, _check_benchmark,
        lambda day: f"duplicate benchmark date {iso(day)}")))
    dataset = MarketDataset.from_columns(
        list(bar_ids), *(np.concatenate(column, axis=-1) for column in zip(*bar_parts)),
        list(chain.from_iterable(snapshot_parts)), benchmark)
    for d in dataset.calendar.dates:
        if d not in benchmark:
            raise ValidationError(f"{benchmark_path}: missing calendar date {d.isoformat()}")
    return dataset
