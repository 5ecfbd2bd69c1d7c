"""Daily bars, fundamentals, benchmark and trading-calendar handling.

The dataset holds the market in the layout the factor store reads: each
stock's bars as rows of (stocks, T) matrices, its fundamental snapshots as
rows of one (snapshots, 16) matrix, and the benchmark as an array on the
trading calendar. Everything downstream (factors, strategies, backtest)
reads it afresh on each call; the factor store lives for one run or one call
and is never kept on the dataset.
"""

from __future__ import annotations

import csv
import math
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from datetime import date as Date
from itertools import islice

import numpy as np

from .errors import DataError, ParseError, ValidationError, not_utf8

_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def iso_date(text: str) -> Date:
    """The date of a YYYY-MM-DD text of ASCII digits; ValueError for any
    other text, such as 2015-6-3."""
    if not _ISO_DATE.fullmatch(text):
        raise ValueError(f"not a YYYY-MM-DD date: {text!r}")
    return Date.fromisoformat(text)


class TradingCalendar:
    """Ordered trading dates with month-end lookup; index[d] is d's position."""

    def __init__(self, dates):
        self.dates = sorted(dates)
        if any(b <= a for a, b in zip(self.dates, self.dates[1:])):
            raise ValidationError("calendar dates must be strictly increasing")
        self.index = {d: i for i, d in enumerate(self.dates)}
        # last trading date of each (year, month) present in the calendar
        self._month_last = {(d.year, d.month): d for d in self.dates}

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


# a (stock, date) key as one integer: stock row or code * DAYS + date ordinal
DAYS = 1 << 32


@dataclass(eq=False)
class MarketDataset:
    """One market as arrays. Row i of each (stocks, T) bar matrix holds
    stocks[i]'s bars in date order, left-aligned: bar_days holds each bar's
    calendar position, -1 past the last bar, where the number matrices are
    NaN and suspended is False; a stock may have snapshots and no bars. The
    benchmark is the close on each calendar date, NaN without one. Snapshot
    rows are sorted by stock and date, stocks[i]'s at snapshot_bounds[i]:
    snapshot_bounds[i + 1], their numbers in FUNDAMENTALS_COLUMNS[2:18] order.
    """

    stocks: list[str]
    calendar: TradingCalendar
    bar_days: np.ndarray
    close: np.ndarray
    prev_close: np.ndarray
    volume: np.ndarray
    turnover: np.ndarray
    market_cap: np.ndarray
    suspended: np.ndarray
    benchmark: np.ndarray
    snapshot_bounds: np.ndarray
    snapshot_days: np.ndarray       # date ordinals
    snapshot_values: np.ndarray
    industry: np.ndarray            # Python ints, which int() reads at any size

    def __post_init__(self):
        self.row_of = {stock_id: i for i, stock_id in enumerate(self.stocks)}
        # bar_at[i, c]: the position of stocks[i]'s bar on calendar date c, or -1
        self.bar_at = np.full((len(self.stocks), len(self.calendar.dates)), -1)
        rows, positions = np.nonzero(self.bar_days >= 0)
        self.bar_at[rows, self.bar_days[rows, positions]] = positions
        self._snapshot_keys = self.snapshot_days + DAYS * np.repeat(
            np.arange(len(self.stocks)), np.diff(self.snapshot_bounds))

    @classmethod
    def from_columns(cls, bars, snapshots, benchmark):
        """Dataset from columns in any order: bars = (ids, codes, days,
        values, suspended), each bar's stock as a code into ids, its date
        ordinal, its close, prev_close, volume, turnover and market cap as a
        (5, bars) array and its suspension flag; snapshots = (ids, codes,
        days, values, industry) likewise, with a (16, snapshots) array;
        benchmark = (days, closes). The calendar is the union of the bar and
        benchmark dates."""
        stocks = sorted(set(bars[0]).union(snapshots[0]))
        row_of = {stock_id: i for i, stock_id in enumerate(stocks)}

        def by_stock(ids, codes, days, *columns):
            """The records' (stock row, date) keys, sorted, and their columns."""
            keys = np.array([row_of[s] for s in ids], dtype=np.int64)[codes] * DAYS + days
            order = np.argsort(keys, kind="stable")
            return keys[order], [column[..., order] for column in columns]

        keys, (values, suspended) = by_stock(*bars)
        if (keys[1:] == keys[:-1]).any():
            raise ValidationError("bar dates must be strictly increasing")
        rows, days = keys // DAYS, keys % DAYS
        ordinals = np.union1d(days, benchmark[0])
        counts = np.bincount(rows, minlength=len(stocks))
        positions = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
        # at least one column, so that an empty market still has a series
        shape = (len(stocks), max(counts.max(initial=0), 1))

        def matrix(column, fill=np.nan):
            out = np.full(shape, fill, dtype=column.dtype)
            out[rows, positions] = column
            return out

        snapshot_keys, (snapshot_values, industry) = by_stock(*snapshots)
        repeat = np.flatnonzero(snapshot_keys[1:] == snapshot_keys[:-1])
        if repeat.size:
            key = int(snapshot_keys[repeat[0]])
            raise ValidationError(f"duplicate snapshot for ({stocks[key // DAYS]}, "
                                  f"{Date.fromordinal(key % DAYS).isoformat()})")
        closes = np.full(len(ordinals), np.nan)
        closes[np.searchsorted(ordinals, benchmark[0])] = benchmark[1]
        return cls(
            stocks, TradingCalendar(map(Date.fromordinal, ordinals.tolist())),
            matrix(np.searchsorted(ordinals, days), -1), *map(matrix, values),
            matrix(suspended, False), closes,
            np.searchsorted(snapshot_keys // DAYS, np.arange(len(stocks) + 1)),
            snapshot_keys % DAYS, np.ascontiguousarray(snapshot_values.T), industry)

    def tradeable_close(self, stock_id: str, d: Date):
        """The stock's close on d, or None without a bar on d or while suspended."""
        i, c = self.row_of.get(stock_id), self.calendar.index.get(d)
        p = -1 if i is None or c is None else self.bar_at.item(i, c)
        return None if p < 0 or self.suspended.item(i, p) else self.close.item(i, p)

    def bars_on(self, d: Date):
        """(rows, positions) of the stocks with a bar on d, and of the bars."""
        c = self.calendar.index.get(d)
        positions = self.bar_at[:, c] if c is not None else np.full(len(self.stocks), -1)
        rows = np.flatnonzero(positions >= 0)
        return rows, positions[rows]

    def snapshot_asof(self, rows, d: Date):
        """The row of the latest snapshot dated at or before d of each stock
        row in rows, or -1."""
        rows = np.asarray(rows, dtype=np.int64)
        found = np.searchsorted(self._snapshot_keys, rows * DAYS + d.toordinal(), "right") - 1
        return np.where(found >= self.snapshot_bounds[rows], found, -1)


# bars of history a stock needs before the day it is eligible on
MIN_HISTORY_DAYS = 252


def eligible_universe(dataset: MarketDataset, d: Date):
    """Stocks on d with MIN_HISTORY_DAYS bars before it, not suspended and
    with a fundamental snapshot: tradeable and fully factor-computable."""
    rows, positions = dataset.bars_on(d)
    # the position of the day's bar counts the history before it
    rows = rows[(positions >= MIN_HISTORY_DAYS) & ~dataset.suspended[rows, positions]]
    rows = rows[dataset.snapshot_asof(rows, d) >= 0]
    return {dataset.stocks[i] for i in rows.tolist()}


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
        return iso_date(text)
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


def _utf8_line(line):
    """The line; UnicodeEncodeError if it holds a surrogate-escaped byte."""
    if not line.isascii():
        line.encode("utf-8")
    return line


def _read_rows(path, columns):
    try:
        # surrogateescape: the decoder reads a block ahead of the csv reader,
        # so a byte that is not UTF-8 must fail only in _utf8_line, once the
        # reader reaches its line, after every record before it
        fh = open(path, "r", encoding="utf-8", errors="surrogateescape", newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from None
    with fh:
        reader = csv.reader(map(_utf8_line, fh))
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
        except UnicodeEncodeError:  # from _utf8_line
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
        return iso_date(text).toordinal()
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


def _read_table(path, columns, convert, check, duplicate, *empty):
    """The columns convert makes of the file's records, CHUNK_RECORDS at a
    time, each joined along its last axis; empty gives their dtypes and
    shapes without records.

    convert(rows) gives the records' int keys and their columns, None if a
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
    return [np.concatenate(column, axis=-1) for column in zip(empty, *parts)]


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
        codes = _codes(stock_id, snapshot_ids, lambda _: len(snapshot_ids))
        ordinals = _codes(day, days, _ordinal)
        key = codes * DAYS + ordinals
        values = _numbers(numbers)
        try:
            industry = np.array(list(map(int, industry)), dtype=object)
        except ValueError:
            return key, None
        if values is None or (ordinals < 0).any():
            return key, None
        return key, (codes, ordinals, values, industry)

    def benchmark_closes(rows):
        day, close = zip(*rows)
        ordinals = _codes(day, days, _ordinal)
        values = _numbers([close])
        if values is None or (ordinals < 0).any() or (values <= 0).any():
            return ordinals, None
        return ordinals, (ordinals, values[0])

    def iso(day):
        return Date.fromordinal(day).isoformat()

    empty = np.zeros(0, dtype=np.int64)
    bar_columns = _read_table(
        bars_path, BARS_COLUMNS, bars, _check_bar, lambda key:
        f"duplicate bar for ({list(bar_ids)[key // DAYS]}, {iso(key % DAYS)})",
        empty, empty, np.zeros((5, 0)), np.zeros(0, bool))
    if not bar_columns[0].size:
        raise ParseError(f"{bars_path}: no bars")
    snapshot_columns = _read_table(
        fundamentals_path, FUNDAMENTALS_COLUMNS, snapshots, _check_snapshot, lambda key:
        f"duplicate snapshot for ({list(snapshot_ids)[key // DAYS]}, {iso(key % DAYS)})",
        empty, empty, np.zeros((16, 0)), np.zeros(0, object))
    dataset = MarketDataset.from_columns(
        (list(bar_ids), *bar_columns), (list(snapshot_ids), *snapshot_columns), _read_table(
            benchmark_path, BENCHMARK_COLUMNS, benchmark_closes, _check_benchmark,
            lambda day: f"duplicate benchmark date {iso(day)}", empty, np.zeros(0)))
    missing = np.flatnonzero(np.isnan(dataset.benchmark))
    if missing.size:
        d = dataset.calendar.dates[missing[0]]
        raise ValidationError(f"{benchmark_path}: missing calendar date {d.isoformat()}")
    return dataset
