"""Daily bars, fundamentals, benchmark and trading-calendar handling.

The dataset is a plain in-memory structure keyed by (stock_id, date).
Everything downstream (factors, strategies, backtest) reads it afresh on each
call; the factor store lives for one run or one call and is never kept on the
dataset, so tests may mutate rows between calls to probe lookahead behaviour.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from datetime import date as Date
from datetime import datetime

from .errors import DataError, ParseError, ValidationError


@dataclass
class TradeBar:
    stock_id: str
    date: Date
    close: float
    prev_close: float
    volume: float
    turnover_ratio: float
    market_cap: float
    is_suspended: bool


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
        self._index = {d: i for i, d in enumerate(self.dates)}
        # last trading date of each (year, month) present in the calendar
        self._month_last: dict[tuple[int, int], Date] = {}
        for d in self.dates:
            self._month_last[(d.year, d.month)] = d

    def __len__(self):
        return len(self.dates)

    def __contains__(self, d):
        return d in self._index

    def index(self, d: Date) -> int:
        try:
            return self._index[d]
        except KeyError:
            raise ValidationError(f"{d.isoformat()} is not a trading date") from None

    def days_between(self, start: Date, end: Date):
        """Trading dates d with start <= d <= end."""
        lo = bisect_left(self.dates, start)
        hi = bisect_right(self.dates, end)
        return self.dates[lo:hi]

    def month_last_days(self):
        return [self._month_last[k] for k in sorted(self._month_last)]


def action_days(calendar: TradingCalendar, start: Date, end: Date):
    """Last trading date of every month intersecting [start, end]."""
    return [d for d in calendar.month_last_days() if start <= d <= end]


@dataclass
class MarketDataset:
    """Immutable-by-convention container; bars[stock][date] -> TradeBar."""

    bars: dict[str, dict[Date, TradeBar]]
    fundamentals: dict[str, list[FundamentalSnapshot]]
    benchmark: dict[Date, float]
    calendar: TradingCalendar
    latent_quality: dict[str, float] | None = field(default=None, repr=False)

    def stock_ids(self):
        return sorted(self.bars)

    def bar_dates(self, stock_id: str):
        """Sorted trading dates on which the stock has a bar."""
        return sorted(self.bars.get(stock_id, ()))

    def fundamental_asof(self, stock_id: str, d: Date):
        """Latest snapshot dated at or before d, or None."""
        best = None
        for snap in self.fundamentals.get(stock_id, ()):
            if snap.date <= d and (best is None or snap.date > best.date):
                best = snap
        return best


@dataclass
class EligibilityRules:
    min_history_days: int = 252
    exclude_suspended: bool = True
    require_fundamentals: bool = True
    exclude_limit_locked: bool = False
    limit_fraction: float = 0.10


def eligible_universe(dataset: MarketDataset, d: Date, rules: EligibilityRules | None = None):
    """Stocks tradeable and fully factor-computable on d."""
    rules = rules or EligibilityRules()
    out = set()
    for stock_id, by_date in dataset.bars.items():
        bar = by_date.get(d)
        if bar is None:
            continue
        if rules.exclude_suspended and bar.is_suspended:
            continue
        history = sum(1 for bd in by_date if bd < d)
        if history < rules.min_history_days:
            continue
        if rules.require_fundamentals and dataset.fundamental_asof(stock_id, d) is None:
            continue
        if rules.exclude_limit_locked and bar.prev_close > 0:
            move = abs(bar.close / bar.prev_close - 1.0)
            if move >= rules.limit_fraction - 1e-12:
                continue
        out.add(stock_id)
    return out


def period_return(series, t0: Date, t1: Date) -> float:
    """p(t1)/p(t0) - 1 on a date->price mapping."""
    if t0 >= t1:
        raise ValidationError(f"period_return needs t0 < t1, got {t0} >= {t1}")
    try:
        p0 = series[t0]
        p1 = series[t1]
    except KeyError as exc:
        raise ValidationError(f"price missing for date {exc.args[0]}") from None
    if p0 <= 0 or p1 <= 0:
        raise ValidationError(f"non-positive price in period {t0}..{t1}")
    return p1 / p0 - 1.0


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
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}:1: empty file") from None
        if [h.strip() for h in header] != columns:
            raise ParseError(f"{path}:1: expected header {','.join(columns)}")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(columns):
                raise ParseError(f"{path}:{line_no}: expected {len(columns)} fields, got {len(row)}")
            yield line_no, row


def load_dataset(bars_path, fundamentals_path, benchmark_path) -> MarketDataset:
    """Load and validate the three-CSV dataset described in the README."""
    bars: dict[str, dict[Date, TradeBar]] = {}
    for line_no, row in _read_rows(bars_path, BARS_COLUMNS):
        stock_id = row[0]
        d = _parse_date(row[1], bars_path, line_no, "date")
        suspended_raw = row[7].strip()
        if suspended_raw not in ("0", "1"):
            raise ParseError(f"{bars_path}:{line_no}: column 'is_suspended': expected 0 or 1")
        bar = TradeBar(
            stock_id=stock_id,
            date=d,
            close=_parse_float(row[2], bars_path, line_no, "close"),
            prev_close=_parse_float(row[3], bars_path, line_no, "prev_close"),
            volume=_parse_float(row[4], bars_path, line_no, "volume"),
            turnover_ratio=_parse_float(row[5], bars_path, line_no, "turnover_ratio"),
            market_cap=_parse_float(row[6], bars_path, line_no, "market_cap"),
            is_suspended=suspended_raw == "1",
        )
        if not bar.is_suspended and (bar.close <= 0 or bar.market_cap <= 0):
            raise ValidationError(
                f"bar for {stock_id} on {d.isoformat()}: close and market_cap must be > 0"
            )
        if bar.volume < 0 or bar.turnover_ratio < 0:
            raise ValidationError(
                f"bar for {stock_id} on {d.isoformat()}: volume/turnover must be >= 0"
            )
        by_date = bars.setdefault(stock_id, {})
        if d in by_date:
            raise ParseError(
                f"{bars_path}:{line_no}: duplicate bar for ({stock_id}, {d.isoformat()})")
        by_date[d] = bar

    fundamentals: dict[str, list[FundamentalSnapshot]] = {}
    for line_no, row in _read_rows(fundamentals_path, FUNDAMENTALS_COLUMNS):
        stock_id = row[0]
        d = _parse_date(row[1], fundamentals_path, line_no, "date")
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
        snap = FundamentalSnapshot(stock_id, d, *values, industry_code)
        fundamentals.setdefault(stock_id, []).append(snap)
    for snaps in fundamentals.values():
        snaps.sort(key=lambda s: s.date)

    benchmark: dict[Date, float] = {}
    for line_no, row in _read_rows(benchmark_path, BENCHMARK_COLUMNS):
        d = _parse_date(row[0], benchmark_path, line_no, "date")
        close = _parse_float(row[1], benchmark_path, line_no, "close")
        if close <= 0:
            raise ValidationError(f"benchmark close on {d.isoformat()} must be > 0")
        if d in benchmark:
            raise ParseError(
                f"{benchmark_path}:{line_no}: duplicate benchmark date {d.isoformat()}")
        benchmark[d] = close

    all_dates = set(benchmark)
    for by_date in bars.values():
        all_dates.update(by_date)
    calendar = TradingCalendar(all_dates)
    for d in calendar.dates:
        if d not in benchmark:
            raise ValidationError(f"benchmark missing calendar date {d.isoformat()}")

    return MarketDataset(bars=bars, fundamentals=fundamentals, benchmark=benchmark, calendar=calendar)
