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
from contextlib import suppress
from dataclasses import dataclass
from datetime import date as Date
from itertools import islice
from typing import NamedTuple

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
            raise ValidationError(_FUNDAMENTALS.repeat_message.format(
                stocks[key // DAYS], Date.fromordinal(key % DAYS).isoformat()))
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

    def tradeable_closes(self, stocks, d: Date):
        """tradeable_close of each of stocks on d, as (closes, tradeable):
        tradeable is False where it is None, and closes there are NaN."""
        rows = np.array([self.row_of.get(stock_id, -1) for stock_id in stocks], dtype=np.int64)
        c = self.calendar.index.get(d)
        positions = np.full(len(rows), -1)
        if c is not None:
            positions[rows >= 0] = self.bar_at[rows[rows >= 0], c]
        tradeable = positions >= 0
        tradeable[tradeable] = ~self.suspended[rows[tradeable], positions[tradeable]]
        closes = np.full(len(rows), np.nan)
        closes[tradeable] = self.close[rows[tradeable], positions[tradeable]]
        return closes, tradeable

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

# the kinds of column; a record's checks run on its date, flag, numbers from
# left to right and integer, then on its bounds, then on its key (id and date)
ID, DATE, FLAG, NUMBER, INTEGER = "id", "date", "flag", "number", "integer"
# the values that fail each bound
_BOUNDS = {"> 0": lambda values: values <= 0, ">= 0": lambda values: values < 0}


class _Table(NamedTuple):
    """The rules of one CSV, each stated once, like the field constraints of
    a Frictionless Data Table Schema: each column's kind, in file order; the
    bounds in the order they are checked, each as (column, bound, the flag
    column whose 1 exempts a record, or None); and the texts a failed bound
    and a repeated key raise, formatted with the record's fields."""

    kinds: dict
    bounds: tuple = ()
    bound_message: str = ""
    repeat_message: str = ""

    def checks(self):
        """(column, kind or bound) of each check, in the order they run."""
        return [(column, kind) for kind in (DATE, FLAG, NUMBER, INTEGER)
                for column in self.kinds if self.kinds[column] == kind
                ] + [(column, bound) for column, bound, _ in self.bounds]


_BARS = _Table(
    {"stock_id": ID, "date": DATE, **dict.fromkeys(
        ["close", "prev_close", "volume", "turnover_ratio", "market_cap"], NUMBER),
     "is_suspended": FLAG},
    (("close", "> 0", "is_suspended"), ("market_cap", "> 0", "is_suspended"),
     ("volume", ">= 0", None), ("turnover_ratio", ">= 0", None)),
    "bar for {0} on {1} must be {bound}", "duplicate bar for ({0}, {1})")
_FUNDAMENTALS = _Table(
    {"stock_id": ID, "date": DATE, **dict.fromkeys([
        "net_profit", "non_recurring_gain_loss", "net_assets", "total_assets",
        "avg_total_assets", "long_term_debt", "operating_revenue", "operate_income",
        "gross_profit", "net_cash_flow", "net_operate_cash_flow", "net_profit_growth",
        "cash", "current_assets", "current_liabilities", "equity"], NUMBER),
     "industry_code": INTEGER},
    repeat_message="duplicate snapshot for ({0}, {1})")
_BENCHMARK = _Table({"date": DATE, "close": NUMBER}, (("close", "> 0", None),),
                    "benchmark close on {0} must be {bound}", "duplicate benchmark date {0}")
BARS_COLUMNS, FUNDAMENTALS_COLUMNS, BENCHMARK_COLUMNS = (
    list(table.kinds) for table in (_BARS, _FUNDAMENTALS, _BENCHMARK))


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


def _open(path, errors):
    try:
        return open(path, "r", encoding="utf-8", errors=errors, newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from None


def _read_rows(path, columns):
    """The file's (line, record) pairs, blank lines skipped, after its
    header; the first structural error in file order ends them."""
    # surrogateescape: the decoder reads a block ahead of the csv reader,
    # so a byte that is not UTF-8 must fail only in _utf8_line, once the
    # reader reaches its line, after every record before it
    with _open(path, "surrogateescape") as fh:
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


# records read and converted at a time: one np.array call converts a chunk's
# numbers, and only one chunk's text is held
CHUNK_RECORDS = 1024


def _lenient(parse, failed):
    """parse, giving failed for a text that it refuses with ValueError."""
    def parsed(text):
        try:
            return parse(text)
        except ValueError:
            return failed
    return parsed


def _column(kind, texts, memo):
    """A column's texts, of a kind other than NUMBER, as an array (id codes
    in order of first appearance, date ordinals, True for a flag of 1, or
    Python ints) and the mask of those whose check fails; memo keeps codes."""
    if kind == INTEGER:
        try:
            values = np.array(list(map(int, texts)), dtype=object)
        except ValueError:  # only in a chunk that holds an error
            values = np.array(list(map(_lenient(int, None), texts)), dtype=object)
        return values, np.equal(values, None)
    code = {ID: lambda _: len(memo), DATE: _lenient(lambda text: iso_date(text).toordinal(), -1),
            FLAG: lambda text: {"0": 0, "1": 1}.get(text.strip(), -1)}[kind]
    for text in dict.fromkeys(texts):
        if text not in memo:
            memo[text] = code(text)
    codes = np.fromiter(map(memo.__getitem__, texts), np.int64, len(texts))
    return (codes == 1 if kind == FLAG else codes), codes < 0


def _convert(table, rows, memos):
    """The keys of a chunk of the table's records, their columns and the
    (checks, records) mask of the checks each fails, with no Python per
    record. The columns are in file order, the numbers as one (numbers,
    records) array in the place of the first; memos[kind] is the memo
    _column keeps for the column of that kind."""
    numbers = [column for column, kind in table.kinds.items() if kind == NUMBER]
    texts = dict(zip(table.kinds, zip(*rows) if rows else [()] * len(table.kinds)))
    try:
        matrix = np.array([texts[column] for column in numbers], dtype=np.float64)
    except ValueError:  # only in a chunk that holds an error
        matrix = np.array([list(map(_lenient(float, math.nan), texts[column]))
                           for column in numbers])
    values = dict(zip(numbers, matrix))
    failed = {(column, NUMBER): bad for column, bad in zip(numbers, ~np.isfinite(matrix))}
    key = 0
    for column, kind in table.kinds.items():
        if kind != NUMBER:
            values[column], failed[column, kind] = _column(kind, texts[column], memos.get(kind))
        if kind in (ID, DATE):  # a record's key is its id and date
            key = key * DAYS + values[column]
    for column, bound, exempt in table.bounds:
        bad = _BOUNDS[bound](values[column])
        failed[column, bound] = bad & ~values[exempt] if exempt else bad
    columns = [matrix if column == numbers[0] else values[column]
               for column in table.kinds if column not in numbers[1:]]
    return key, columns, np.array([failed[check] for check in table.checks()])


def _chunks(path, columns, found):
    """The file's records, CHUNK_RECORDS at a time, its blank rows left out,
    with no Python per record up to a chunk that may hold a structural error
    (a header other than columns, a record with another field count, or text
    that is not UTF-8 or that csv refuses); from there, as one chunk, those
    _read_rows gives before its error, the record of which goes into found."""
    count = 0
    # strict: the decoder refuses a byte that is not UTF-8 in the block it
    # reads ahead, and so also the records of that block before the byte
    with _open(path, "strict") as fh, suppress(UnicodeDecodeError, csv.Error):
        reader = csv.reader(fh)
        if [h.strip() for h in next(reader, ())] == columns:
            while rows := list(islice(reader, CHUNK_RECORDS)):
                widths = set(map(len, rows))
                if widths - {0, len(columns)}:
                    break
                if 0 in widths:  # a blank line holds no record
                    rows = list(filter(None, rows))
                yield rows
                count += len(rows)
            else:
                return
    rows = []
    try:
        for _, row in islice(_read_rows(path, columns), count, None):
            rows.append(row)
    except ParseError:  # any check: _read_rows raises the error again at its record
        found.append((count + len(rows), 0))
    yield rows


def _raise_error(path, table, record, check):
    """Raise the error of the file's record-th record (from 0): one that
    _read_rows raises as it counts the lines up to it, or else the failed
    table.checks()[check] or, if check is len(table.checks()), a repeated key."""
    line, row = next(islice(_read_rows(path, list(table.kinds)), record, None))
    checks = table.checks()
    if check == len(checks):
        raise ParseError(f"{path}:{line}: " + table.repeat_message.format(*row))
    column, rule = checks[check]
    at, text = f"{path}:{line}: column '{column}': ", row[list(table.kinds).index(column)]
    if rule in _BOUNDS:
        raise ValidationError(at + table.bound_message.format(*row, bound=rule))
    if rule in (FLAG, INTEGER):
        raise ParseError(at + ("expected 0 or 1" if rule == FLAG else f"bad integer {text!r}"))
    (_parse_date if rule == DATE else _parse_float)(text, path, line, column)
    raise RuntimeError(f"{at}a chunk's check refuses {text!r}, its parser does not")


def _read_table(path, table, days):
    """[ids, *columns] of the file's records (see _convert), each column
    joined along its last axis, or the file's first error in file order,
    raised. The first bad record is the first that fails a check or, if
    earlier, the first whose key repeats one before it: one sort of the
    keys finds it. Only then is the file read again, to name it."""
    memos = {ID: {}, DATE: days, FLAG: {}}
    key, part, _ = _convert(table, [], memos)  # the columns' dtypes and shapes
    keys, parts, found, count = [key], [part], [], 0
    for rows in _chunks(path, list(table.kinds), found):
        key, part, failed = _convert(table, rows, memos)
        keys.append(key)
        parts.append(part)
        if failed.any():  # no record after the first that fails holds an earlier error
            record, check = np.argwhere(failed.T)[0]
            found.append((count + int(record), int(check)))
            break
        count += len(rows)
    keys = np.concatenate(keys)
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    repeats = order[1:][ordered[1:] == ordered[:-1]]
    if repeats.size:
        found.append((int(repeats.min()), len(table.checks())))
    if found:
        _raise_error(path, table, *min(found))
    return [list(memos[ID]), *(np.concatenate(column, axis=-1) for column in zip(*parts))]


def load_dataset(bars_path, fundamentals_path, benchmark_path) -> MarketDataset:
    """Load and validate the three-CSV dataset described in the README."""
    days = {}  # date text -> ordinal, of the three files
    bars = _read_table(bars_path, _BARS, days)
    if not bars[1].size:
        raise ParseError(f"{bars_path}: no bars")
    snapshots = _read_table(fundamentals_path, _FUNDAMENTALS, days)
    _, ordinals, closes = _read_table(benchmark_path, _BENCHMARK, days)
    dataset = MarketDataset.from_columns(bars, snapshots, (ordinals, closes[0]))
    missing = np.flatnonzero(np.isnan(dataset.benchmark))
    if missing.size:
        d = dataset.calendar.dates[missing[0]]
        raise ValidationError(f"{benchmark_path}: missing calendar date {d.isoformat()}")
    return dataset
