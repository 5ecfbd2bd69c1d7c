"""Dataset container, calendar, eligibility and CSV ingestion."""

import csv
import io
import math
import re
import tracemalloc
from bisect import bisect_right
from datetime import date as Date
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from conftest import (
    Snapshot,
    bar_rows,
    bars_of,
    benchmark_of,
    build_market,
    close_zero_spells,
    flat_market,
    make_bar,
    make_snapshot,
    snapshots,
    weekdays,
)
from rollingquant import marketdata
from rollingquant.errors import DataError, ParseError, ValidationError
from rollingquant.exports import write_dataset
from rollingquant.marketdata import (
    BARS_COLUMNS,
    BENCHMARK_COLUMNS,
    FUNDAMENTALS_COLUMNS,
    MIN_HISTORY_DAYS,
    TradingCalendar,
    _parse_date,
    _parse_float,
    _read_rows,
    action_days,
    eligible_universe,
    iso_date,
    load_dataset,
)
from rollingquant.synthetic import REGIMES, SyntheticMarketConfig, generate_synthetic_market


# YYYY-MM-DD texts that strptime("%Y-%m-%d") reads, and one that
# date.fromisoformat reads from Python 3.11 on
NOT_ISO_DATES = ["2015-6-3", "2015-06- 3", "\u0662\u0660\u0661\u0665-06-03", "20150603"]


class TestIsoDate:
    def test_reads_yyyy_mm_dd(self):
        assert iso_date("2015-06-03") == Date(2015, 6, 3)
        assert _parse_date("2016-02-29", "bars.csv", 2, "date") == Date(2016, 2, 29)

    @pytest.mark.parametrize("text", NOT_ISO_DATES + ["2015-02-30", "2015-06-03\n", ""])
    def test_rejects_any_other_text(self, text):
        with pytest.raises(ValueError):
            iso_date(text)
        with pytest.raises(ParseError) as caught:
            _parse_date(text, "bars.csv", 2, "date")
        assert str(caught.value) == f"bars.csv:2: column 'date': bad date {text!r}"


class TestTradingCalendar:
    def test_rejects_duplicates(self):
        with pytest.raises(ValidationError):
            TradingCalendar([Date(2015, 1, 5), Date(2015, 1, 5)])

    def test_days_between_is_inclusive(self, calendar_2015):
        days = calendar_2015.days_between(Date(2015, 3, 2), Date(2015, 3, 6))
        assert days[0] == Date(2015, 3, 2)
        assert days[-1] == Date(2015, 3, 6)
        assert len(days) == 5


class TestActionDays:
    def test_weekend_month_end_maps_to_prior_trading_day(self, calendar_2015):
        #pick the months whose last calendar day is a weekend
        days = action_days(calendar_2015, Date(2015, 1, 1), Date(2015, 12, 31))
        assert Date(2015, 5, 29) in days   # May 31 2015 is a Sunday
        assert Date(2015, 10, 30) in days  # Oct 31 2015 is a Saturday

    def test_reproduces_mid_2015_sequence(self, calendar_2015):
        days = action_days(calendar_2015, Date(2015, 3, 1), Date(2015, 6, 30))
        assert days == [Date(2015, 3, 31), Date(2015, 4, 30),
                        Date(2015, 5, 29), Date(2015, 6, 30)]

    def test_empty_range(self, calendar_2015):
        assert action_days(calendar_2015, Date(2015, 6, 2), Date(2015, 6, 10)) == []


class TestEligibility:
    def test_normal_stock_included(self):
        market = flat_market({"A": 50.0})
        assert "A" in eligible_universe(market, Date(2015, 6, 30))

    def test_suspended_excluded(self):
        market = flat_market({"A": 50.0, "B": 50.0})
        d = Date(2015, 6, 30)
        bars = bars_of(market, "B")
        bars.suspended[bars.dates.index(d)] = True
        assert eligible_universe(market, d) == {"A"}

    def test_short_history_excluded(self):
        flat = flat_market({"A": 50.0})
        first = weekdays(Date(2015, 1, 1), Date(2015, 12, 31))[0]
        rows = [make_bar("B", d, 20.0) for d in weekdays(first, Date(2015, 12, 31))]
        market = build_market([*bar_rows(flat), *rows], benchmark_of(flat),
                              [*snapshots(flat), make_snapshot("B", first)])
        # ~126 trading days of history by the end of June: too short
        assert "B" not in eligible_universe(market, Date(2015, 6, 30))
        assert "A" in eligible_universe(market, Date(2015, 6, 30))

    def test_missing_fundamentals_excluded(self):
        market = flat_market({"A": 50.0}, with_fundamentals=False)
        assert eligible_universe(market, Date(2015, 6, 30)) == set()


def brute_force_universe(snaps, by_stock, d):
    """eligible_universe as it was on per-date bars: history counted bar by
    bar, fundamentals found by a linear scan."""
    out = set()
    for stock_id, by_date in by_stock.items():
        bar = by_date.get(d)
        if bar is None or bar[7]:  # no bar, or suspended
            continue
        if sum(1 for bd in by_date if bd < d) < MIN_HISTORY_DAYS:
            continue
        if linear_asof(snaps, stock_id, d) < 0:
            continue
        out.add(stock_id)
    return out


def linear_asof(snaps, stock_id, d):
    """The index in snaps of stock_id's latest snapshot at or before d, or
    -1, by a linear scan."""
    best = -1
    for r, snap in enumerate(snaps):
        if snap.stock_id == stock_id and snap.date <= d \
                and (best < 0 or snap.date > snaps[best].date):
            best = r
    return best


def rows_by_stock(market):
    by_stock = {}
    for row in bar_rows(market):
        by_stock.setdefault(row[0], {})[row[1]] = row
    return by_stock


class TestEligibilityOracle:
    @pytest.mark.parametrize("spells", [False, True], ids=["default", "close-zero"])
    def test_every_month_end_matches_brute_force(self, gapped_market, spells):
        market = close_zero_spells(gapped_market) if spells else gapped_market
        by_stock = rows_by_stock(market)
        snaps = snapshots(market)
        sizes = set()
        for d in market.calendar.month_last_days():
            universe = eligible_universe(market, d)
            assert universe == brute_force_universe(snaps, by_stock, d)
            sizes.add(len(universe))
            for i, stock_id in enumerate(market.stocks):
                assert market.snapshot_asof([i], d).tolist() == [linear_asof(snaps, stock_id, d)]
        assert len(sizes) > 2

    def test_history_threshold_at_a_stocks_exact_history(self):
        dates = weekdays(Date(2014, 1, 1), Date(2015, 12, 31))
        k = dates.index(Date(2015, 6, 30))
        # on dates[k], A has exactly MIN_HISTORY_DAYS bars before it, B one fewer
        starts = {"A": k - MIN_HISTORY_DAYS, "B": k - MIN_HISTORY_DAYS + 1}
        bars = [make_bar(stock_id, d, 20.0)
                for stock_id, first in starts.items() for d in dates[first:]]
        market = build_market(bars, {d: 3000.0 for d in dates},
                              [make_snapshot(s, dates[0]) for s in ("A", "B")])
        assert MIN_HISTORY_DAYS == 252
        assert eligible_universe(market, dates[k]) == {"A"}
        assert eligible_universe(market, dates[k + 1]) == {"A", "B"}


class TestFundamentalAsof:
    def test_latest_at_or_before(self):
        market = flat_market({"A": 50.0})
        snaps = snapshots(market)
        assert market.snapshot_asof([0], snaps[1].date).tolist() == [1]
        assert market.snapshot_asof([0], snaps[0].date).tolist() == [0]

    def test_none_before_first_snapshot(self):
        market = flat_market({"A": 50.0})
        first = snapshots(market)[0].date
        assert market.snapshot_asof([0], Date(2013, 12, 31)).tolist() == [-1]
        assert first >= Date(2014, 1, 1)


class TestLookupOracle:
    """tradeable_close and snapshot_asof against bisects of each stock's
    dates, at every (stock, calendar date)."""

    @pytest.mark.parametrize("spells", [False, True], ids=["default", "close-zero"])
    def test_every_stock_and_calendar_date(self, gapped_market, spells):
        market = close_zero_spells(gapped_market) if spells else gapped_market
        snaps = snapshots(market)
        for i, stock_id in enumerate(market.stocks):
            bars = bars_of(market, stock_id)
            rows = [r for r, snap in enumerate(snaps) if snap.stock_id == stock_id]
            snap_dates = [snaps[r].date for r in rows]
            for d in market.calendar.dates:
                p = bisect_right(bars.dates, d) - 1
                want = None if p < 0 or bars.dates[p] != d or bars.suspended[p] \
                    else float(bars.close[p])
                assert market.tradeable_close(stock_id, d) == want
                k = bisect_right(snap_dates, d) - 1
                assert market.snapshot_asof([i], d).tolist() == [rows[k] if k >= 0 else -1]
        assert market.tradeable_close("S0001", market.calendar.dates[310]) is None
        assert market.tradeable_close("NOPE", market.calendar.dates[0]) is None
        assert market.tradeable_close("S0000", Date(2015, 6, 28)) is None  # a Sunday

    def test_array_form_matches_at_every_calendar_date(self, gapped_market):
        market = close_zero_spells(gapped_market)
        stocks = ["NOPE", *market.stocks[::-1]]
        for d in [*market.calendar.dates, Date(2015, 6, 28)]:
            closes, tradeable = market.tradeable_closes(stocks, d)
            got = [c if ok else None for c, ok in zip(closes.tolist(), tradeable.tolist())]
            assert got == [market.tradeable_close(stock_id, d) for stock_id in stocks]
        closes, tradeable = market.tradeable_closes([], market.calendar.dates[0])
        assert closes.shape == tradeable.shape == (0,)


class TestCsvRoundTrip:
    def _write(self, tmp_path, market):
        write_dataset(market, tmp_path)
        return (tmp_path / "bars.csv", tmp_path / "fundamentals.csv",
                tmp_path / "benchmark.csv")

    def test_two_stocks_five_days(self, tmp_path):
        dates = weekdays(Date(2015, 6, 1), Date(2015, 6, 5))
        bars = [make_bar(s, d, 10.0 + i) for i, s in enumerate(["A", "B"]) for d in dates]
        market = build_market(bars, {d: 3000.0 for d in dates},
                              [make_snapshot(s, dates[0]) for s in ["A", "B"]])
        loaded = load_dataset(*self._write(tmp_path, market))
        assert len(list(bar_rows(loaded))) == 10
        assert len(loaded.calendar.dates) == 5
        assert loaded.tradeable_close("B", dates[2]) == 11.0
        assert benchmark_of(loaded)[dates[0]] == 3000.0
        assert snapshots(loaded)[0].net_profit == 100.0

    def test_header_only_bars_rejected(self, tmp_path):
        paths = self._write(tmp_path, flat_market({"A": 10.0}))
        paths[0].write_text(paths[0].read_text().splitlines()[0] + "\n")
        with pytest.raises(ParseError) as caught:
            load_dataset(*paths)
        assert str(caught.value) == f"{paths[0]}: no bars"

    def test_header_only_fundamentals_loads(self, tmp_path):
        paths = self._write(tmp_path, flat_market({"A": 10.0}))
        paths[1].write_text(paths[1].read_text().splitlines()[0] + "\n")
        loaded = load_dataset(*paths)
        assert loaded.snapshot_values.shape == (0, 16)
        assert loaded.snapshot_values.dtype == np.float64
        assert loaded.snapshot_days.shape == (0,)
        assert loaded.snapshot_days.dtype == np.int64

    def test_snapshot_of_stock_without_bars_accepted(self, tmp_path):
        dates = weekdays(Date(2015, 6, 1), Date(2015, 6, 5))
        market = build_market([make_bar("A", d, 10.0) for d in dates],
                              {d: 3000.0 for d in dates},
                              [make_snapshot(s, dates[0]) for s in ["A", "Z"]])
        loaded = load_dataset(*self._write(tmp_path, market))
        # Z has a row without bars
        assert loaded.stocks == ["A", "Z"]
        assert bars_of(loaded, "Z").dates == []
        assert loaded.tradeable_close("Z", dates[0]) is None
        assert snapshots(loaded)[loaded.snapshot_asof([1], dates[0])[0]].date == dates[0]

    def test_negative_close_rejected(self, tmp_path):
        dates = weekdays(Date(2015, 6, 1), Date(2015, 6, 5))
        bars = [make_bar("A", d, 10.0) for d in dates]
        market = build_market(bars, {d: 3000.0 for d in dates},
                              [make_snapshot("A", dates[0])])
        paths = self._write(tmp_path, market)
        text = paths[0].read_text().replace("A,2015-06-03,10,", "A,2015-06-03,-1,")
        paths[0].write_text(text)
        with pytest.raises(ValidationError, match="2015-06-03"):
            load_dataset(*paths)

    def test_benchmark_gap_rejected(self, tmp_path):
        dates = weekdays(Date(2015, 6, 1), Date(2015, 6, 5))
        bars = [make_bar("A", d, 10.0) for d in dates]
        market = build_market(bars, {d: 3000.0 for d in dates},
                              [make_snapshot("A", dates[0])])
        paths = self._write(tmp_path, market)
        lines = paths[2].read_text().splitlines()
        del lines[3]  # drop 2015-06-03
        paths[2].write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match="2015-06-03"):
            load_dataset(*paths)

    def test_bad_float_names_location(self, tmp_path):
        dates = weekdays(Date(2015, 6, 1), Date(2015, 6, 5))
        bars = [make_bar("A", d, 10.0) for d in dates]
        market = build_market(bars, {d: 3000.0 for d in dates},
                              [make_snapshot("A", dates[0])])
        paths = self._write(tmp_path, market)
        text = paths[0].read_text().replace("A,2015-06-02,10,", "A,2015-06-02,oops,")
        paths[0].write_text(text)
        with pytest.raises(ParseError, match="close"):
            load_dataset(*paths)

    def test_wrong_header_rejected(self, tmp_path):
        dates = weekdays(Date(2015, 6, 1), Date(2015, 6, 5))
        bars = [make_bar("A", d, 10.0) for d in dates]
        market = build_market(bars, {d: 3000.0 for d in dates},
                              [make_snapshot("A", dates[0])])
        paths = self._write(tmp_path, market)
        lines = paths[0].read_text().splitlines()
        lines[0] = lines[0].replace("close", "klose")
        paths[0].write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="header"):
            load_dataset(*paths)

    def test_duplicate_bar_rejected(self, tmp_path):
        dates = weekdays(Date(2015, 6, 1), Date(2015, 6, 5))
        bars = [make_bar("A", d, 10.0) for d in dates]
        market = build_market(bars, {d: 3000.0 for d in dates},
                              [make_snapshot("A", dates[0])])
        paths = self._write(tmp_path, market)
        with open(paths[0], "a") as fh:
            fh.write("A,2015-06-02,999,10,0.2,0.02,9990,0\n")
        with pytest.raises(ParseError, match=r"bars\.csv:7: duplicate bar for \(A, 2015-06-02\)"):
            load_dataset(*paths)

    def test_duplicate_snapshot_rejected(self, tmp_path):
        dates = weekdays(Date(2015, 6, 1), Date(2015, 6, 5))
        bars = [make_bar("A", d, 10.0) for d in dates]
        market = build_market(bars, {d: 3000.0 for d in dates},
                              [make_snapshot("A", dates[0])])
        paths = self._write(tmp_path, market)
        lines = paths[1].read_text().splitlines()
        with open(paths[1], "a") as fh:
            fh.write(lines[1].replace(",100,", ",999,", 1) + "\n")
        with pytest.raises(ParseError, match=r"fundamentals\.csv:3: duplicate snapshot for "
                                             r"\(A, 2015-06-01\)"):
            load_dataset(*paths)

    def test_constructor_rejects_duplicates(self):
        dates = weekdays(Date(2015, 6, 1), Date(2015, 6, 5))
        bars = [make_bar("A", d, 10.0) for d in dates]
        benchmark = {d: 3000.0 for d in dates}
        snaps = [make_snapshot("A", dates[1]), make_snapshot("A", dates[1], net_profit=1.0)]
        with pytest.raises(ValidationError, match=r"duplicate snapshot for \(A, 2015-06-02\)"):
            build_market(bars, benchmark, snaps)
        with pytest.raises(ValidationError, match="strictly increasing"):
            build_market(bars + [make_bar("A", dates[2], 11.0)], benchmark)

    @pytest.mark.parametrize("file,column,value,message", [
        (0, "close", "-1", r"bars\.csv:4: column 'close': bar for A on 2015-06-03 must be > 0"),
        (0, "market_cap", "0",
         r"bars\.csv:4: column 'market_cap': bar for A on 2015-06-03 must be > 0"),
        (0, "volume", "-0.5",
         r"bars\.csv:4: column 'volume': bar for A on 2015-06-03 must be >= 0"),
        (0, "turnover_ratio", "-0.01",
         r"bars\.csv:4: column 'turnover_ratio': bar for A on 2015-06-03 must be >= 0"),
        (2, "close", "0",
         r"benchmark\.csv:4: column 'close': benchmark close on 2015-06-03 must be > 0"),
        (2, None, None, r"benchmark\.csv: missing calendar date 2015-06-03"),
    ], ids=["close", "market_cap", "volume", "turnover_ratio", "benchmark_close",
            "benchmark_gap"])
    def test_value_error_names_file_line_and_column(self, tmp_path, file, column, value,
                                                    message):
        dates = weekdays(Date(2015, 6, 1), Date(2015, 6, 5))
        bars = [make_bar("A", d, 10.0) for d in dates]
        market = build_market(bars, {d: 3000.0 for d in dates},
                              [make_snapshot("A", dates[0])])
        paths = self._write(tmp_path, market)
        lines = paths[file].read_text().splitlines()
        if column is None:
            del lines[3]
        else:
            fields = lines[3].split(",")
            fields[lines[0].split(",").index(column)] = value
            lines[3] = ",".join(fields)
        paths[file].write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match=message):
            load_dataset(*paths)

    def test_gapped_market_round_trips(self, tmp_path, gapped_market):
        names = ("bars.csv", "fundamentals.csv", "benchmark.csv")
        write_dataset(gapped_market, tmp_path / "a")
        loaded = load_dataset(*(tmp_path / "a" / name for name in names))
        write_dataset(loaded, tmp_path / "b")
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        assert_same_dataset(loaded, as_rows(gapped_market))

    def test_duplicate_benchmark_date_rejected(self, tmp_path):
        dates = weekdays(Date(2015, 6, 1), Date(2015, 6, 5))
        bars = [make_bar("A", d, 10.0) for d in dates]
        market = build_market(bars, {d: 3000.0 for d in dates},
                              [make_snapshot("A", dates[0])])
        paths = self._write(tmp_path, market)
        with open(paths[2], "a") as fh:
            fh.write("2015-06-03,3100\n")
        with pytest.raises(ParseError,
                           match=r"benchmark\.csv:7: duplicate benchmark date 2015-06-03"):
            load_dataset(*paths)


# --- the writer against its per-row oracle ---------------------------------

def oracle_write_dataset(dataset, out_dir):
    """write_dataset row by row: each bar, snapshot and benchmark close read
    value by value and formatted on its own."""
    def write(name, header, rows):
        with open(out_dir / name, "w", encoding="utf-8", newline="\n") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)

    out_dir.mkdir(parents=True, exist_ok=True)
    write("bars.csv", BARS_COLUMNS, (
        [stock_id, d.isoformat(), *(f"{x:.17g}" for x in values), "1" if suspended else "0"]
        for stock_id, d, *values, suspended in bar_rows(dataset)))
    write("fundamentals.csv", FUNDAMENTALS_COLUMNS, (
        [snap.stock_id, snap.date.isoformat(), *(f"{x:.17g}" for x in snap[2:18]),
         str(snap.industry_code)]
        for snap in snapshots(dataset)))
    write("benchmark.csv", BENCHMARK_COLUMNS, (
        [d.isoformat(), f"{close:.17g}"] for d, close in sorted(benchmark_of(dataset).items())))


class TestWriterOracle:
    """write_dataset, column by column, writes the bytes oracle_write_dataset writes."""

    def assert_writes_oracle_bytes(self, tmp_path, market):
        write_dataset(market, tmp_path / "columns")
        oracle_write_dataset(market, tmp_path / "rows")
        for name in ("bars.csv", "fundamentals.csv", "benchmark.csv"):
            assert (tmp_path / "columns" / name).read_bytes() \
                == (tmp_path / "rows" / name).read_bytes(), name

    @pytest.mark.parametrize("spells", [False, True], ids=["default", "close-zero"])
    def test_gapped_market(self, tmp_path, gapped_market, spells):
        market = close_zero_spells(gapped_market) if spells else gapped_market
        self.assert_writes_oracle_bytes(tmp_path, market)

    @pytest.mark.parametrize("regime", REGIMES)
    def test_generated_market(self, tmp_path, regime):
        market, _ = generate_synthetic_market(SyntheticMarketConfig(
            seed=4, n_stocks=12, start=Date(2014, 1, 1), end=Date(2015, 12, 31),
            regime=regime))
        self.assert_writes_oracle_bytes(tmp_path, market)

    @pytest.mark.parametrize("first_close", [None, 3000.0], ids=["benchmark-gap", "loadable"])
    def test_quoted_ids_signed_zeros_and_a_stock_without_bars(self, tmp_path, first_close):
        dates = weekdays(Date(2015, 6, 1), Date(2015, 6, 5))
        bars = [make_bar(s, d, 10.0 + i, turnover=-0.0, suspended=i % 2 == 1)
                for s in ("A,1", 'B"2', "C\n3") for i, d in enumerate(dates)]
        benchmark = {d: 3000.0 + i for i, d in enumerate(dates) if i or first_close}
        market = build_market(bars, benchmark, [
            make_snapshot("A,1", dates[0], net_profit=-0.0),
            make_snapshot("Z", dates[2], industry_code=10 ** 30)])
        self.assert_writes_oracle_bytes(tmp_path, market)
        if first_close:
            # the loader reads back what it wrote, the 31-digit industry code too
            loaded = load_dataset(*(tmp_path / "columns" / name for name in (
                "bars.csv", "fundamentals.csv", "benchmark.csv")))
            assert list(loaded.industry) == [1, 10 ** 30]
            self.assert_writes_oracle_bytes(tmp_path / "again", loaded)


# --- the loader against its per-row oracle ---------------------------------

def _oracle_date_parser(path):
    parsed = {}
    return lambda text, line: parsed.get(text) or parsed.setdefault(
        text, _parse_date(text, path, line, "date"))


def _oracle_market(bars, snaps, benchmark):
    """The dataset from its records, as rows grouped per stock row by row:
    the stocks of bars and snapshots in order, each one's bar rows and
    snapshots by date, the benchmark by date and the calendar's dates."""
    bars_by_stock, snaps_by_stock = {}, {}
    for row in bars:
        bars_by_stock.setdefault(row[0], []).append(row)
    for snap in snaps:
        snaps_by_stock.setdefault(snap.stock_id, []).append(snap)
    stocks = sorted(set(bars_by_stock) | set(snaps_by_stock))
    return SimpleNamespace(
        stocks=stocks,
        bars=[row for s in stocks for row in sorted(bars_by_stock.get(s, ()),
                                                    key=lambda row: row[1])],
        snapshots=[snap for s in stocks for snap in sorted(snaps_by_stock.get(s, ()),
                                                           key=lambda snap: snap.date)],
        benchmark=sorted(benchmark.items()),
        dates=sorted(set(benchmark).union(row[1] for row in bars)))


def as_rows(market):
    """A dataset in the form _oracle_market gives, read value by value."""
    return SimpleNamespace(stocks=list(market.stocks), bars=list(bar_rows(market)),
                           snapshots=snapshots(market),
                           benchmark=list(benchmark_of(market).items()),
                           dates=list(market.calendar.dates))


def oracle_load_dataset(bars_path, fundamentals_path, benchmark_path):
    """load_dataset record by record, each value through _parse_float: the
    errors it raises, in file order, and the dataset it builds."""
    bars = []
    seen = set()
    parse_date = _oracle_date_parser(bars_path)
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
        bars.append((stock_id, d, close, prev_close, volume, turnover, market_cap, suspended))
    if not bars:
        raise ParseError(f"{bars_path}: no bars")

    snaps = []
    seen.clear()
    parse_date = _oracle_date_parser(fundamentals_path)
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
        snaps.append(Snapshot(stock_id, d, *values, industry_code))

    benchmark = {}
    parse_date = _oracle_date_parser(benchmark_path)
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

    dataset = _oracle_market(bars, snaps, benchmark)
    for d in dataset.dates:
        if d not in benchmark:
            raise ValidationError(f"{benchmark_path}: missing calendar date {d.isoformat()}")
    return dataset


def assert_same_dataset(got, want):
    """got, a dataset, holds what want, in the form _oracle_market gives, holds."""
    for name in ("close", "prev_close", "volume", "turnover", "market_cap", "benchmark"):
        assert getattr(got, name).dtype == np.float64
    assert got.suspended.dtype == bool and got.snapshot_values.dtype == np.float64
    rows = as_rows(got)
    assert rows.stocks == want.stocks
    # repr keeps -0.0 apart from 0.0, and True from 1
    for name in ("bars", "snapshots", "benchmark"):
        assert [tuple(map(repr, row)) for row in getattr(rows, name)] \
            == [tuple(map(repr, row)) for row in getattr(want, name)]
    assert rows.dates == want.dates


def outcome(load, paths):
    """('ok', dataset) or (exception class, message) of load(*paths)."""
    try:
        return "ok", load(*paths)
    except Exception as exc:  # every exception, so that a crash is compared too
        return type(exc), str(exc)


def assert_matches_oracle(paths):
    got, want = outcome(load_dataset, paths), outcome(oracle_load_dataset, paths)
    assert got[0] == want[0], (got, want)
    if want[0] == "ok":
        assert_same_dataset(got[1], want[1])
    else:
        assert got[1] == want[1]
    return want


SWEEP_DAYS = ["2015-06-01", "2015-06-02", "2015-06-03", "2015-06-04"]


def sweep_tables():
    """Header and records of a valid two-stock, four-day market: 8 bars
    (three chunks of 3), 3 snapshots and 4 benchmark closes, as text."""
    bars = [list(BARS_COLUMNS)] + [
        [s, d, f"{10 + i + j}.5", f"{10 + i + j}", "0.2", "0.02", f"{100 + i}", "0"]
        for j, s in enumerate("AB") for i, d in enumerate(SWEEP_DAYS)]
    snaps = [list(FUNDAMENTALS_COLUMNS)] + [
        [s, d, *(f"{k + 1}.25" for k in range(16)), "3"]
        for s, d in [("A", SWEEP_DAYS[0]), ("B", SWEEP_DAYS[0]), ("A", SWEEP_DAYS[2])]]
    bench = [list(BENCHMARK_COLUMNS)] + [[d, f"{3000 + i}"] for i, d in enumerate(SWEEP_DAYS)]
    return [bars, snaps, bench]


# field values: numbers at the edges of what float() and the bounds accept,
# and texts for the id, date and is_suspended columns
SWEEP_NUMBERS = [
    "0", "-0", "1e308", "1e309", "-1e309", "4.9e-324", "2.5e-320", "1e-400", "nan", "NaN",
    "inf", "1_0", "1__0", " 1.5", "1.5 ", "١٢", "\xa01.5", "", "oops", "-1", "-0.5", "1.0",
    "0x1", "9" * 30,
]
SWEEP_TEXTS = [
    "2015-06-03", "2015-6-3", "2015-02-30", "20150603", "A", "B", "x\ny", '"', "a,b",
    "\x00", "0", "1", " 1", "1 ", "2",
]
_index = st.sampled_from(range(1 << 10))  # taken modulo the records or fields there are
_file = st.sampled_from([0, 0, 1, 2])  # bars.csv, which has the most checks, twice as often
_field = st.tuples(st.just("field"), _file, _index, _index, st.one_of(
    st.sampled_from(["0", "-0", "-1", "-0.5", " 1", "0 "]),  # at a check's edge, a third of the time
    st.sampled_from(SWEEP_NUMBERS), st.sampled_from(SWEEP_TEXTS)))
SWEEP_EDITS = st.one_of(
    _field, _field, _field, _field, _field,
    st.tuples(st.just("copy"), _file, _index, _index),
    st.tuples(st.just("drop"), _file, _index),
    st.tuples(st.just("swap"), _file, _index, _index),
    st.tuples(st.just("width"), _file, _index, st.sampled_from([-1, 1])),
    st.tuples(st.just("byte"), _file, st.floats(0, 1),
              st.sampled_from([b"\xff", b"\xc3", b"\x00", b'"', b",", b"\n", b"\r", b"9", b""]),
              st.booleans()),
)


def write_sweep_case(directory, edits):
    """The three files of sweep_tables() after edits, in order: a record's
    field set, a line copied to a place, a record dropped or swapped with another,
    a line (the header too) with a field too many or too few, then byte
    edits (insert or overwrite) of the written text past the header."""
    tables = sweep_tables()
    for kind, file, *args in edits:
        rows = tables[file]
        if kind == "field" and len(rows) > 1:
            row = rows[1 + args[0] % (len(rows) - 1)]
            if row:
                row[args[1] % len(row)] = args[2]
            else:  # a record a width edit emptied
                row.append(args[2])
        elif kind == "copy":  # the header too, to a place after it
            rows.insert(1 + args[1] % len(rows), list(rows[args[0] % len(rows)]))
        elif kind == "drop" and len(rows) > 1:
            del rows[1 + args[0] % (len(rows) - 1)]
        elif kind == "swap" and len(rows) > 1:
            i, j = (1 + a % (len(rows) - 1) for a in args)
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == "width":
            row = rows[args[0] % len(rows)]  # the header too
            if args[1] > 0:
                row.append("1")
            elif row:
                row.pop()
    paths = [directory / name for name in ("bars.csv", "fundamentals.csv", "benchmark.csv")]
    data = []
    for rows in tables:
        text = io.StringIO()
        csv.writer(text, lineterminator="\n").writerows(rows)
        data.append(bytearray(text.getvalue().encode("utf-8")))
    for kind, file, *args in edits:
        if kind == "byte":  # past the header, which _read_rows checks for both loaders
            start = data[file].find(b"\n") + 1
            at = start + int(args[0] * (len(data[file]) - start))
            data[file][at:at + (1 if args[2] else 0)] = args[1]
    for path, blob in zip(paths, data):
        path.write_bytes(bytes(blob))
    return paths


class TestLoaderOracle:
    """load_dataset, chunk by chunk and column by column, against
    oracle_load_dataset, record by record: the same dataset or the same
    error (class and message), with chunks of 3 records."""

    @seed(16)
    @settings(max_examples=600, deadline=None)
    @given(st.lists(SWEEP_EDITS, max_size=3))
    def test_sweep_matches_oracle(self, tmp_path_factory, edits):
        paths = write_sweep_case(tmp_path_factory.mktemp("sweep"), edits)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(marketdata, "CHUNK_RECORDS", 3)
            assert_matches_oracle(paths)

    def test_unedited_case_loads(self, tmp_path, monkeypatch):
        monkeypatch.setattr(marketdata, "CHUNK_RECORDS", 3)
        assert assert_matches_oracle(write_sweep_case(tmp_path, []))[0] == "ok"

    @pytest.mark.parametrize("edits,error", [
        # a repeated key in the first chunk before a bad value in the third
        ([("field", 0, 1, 1, SWEEP_DAYS[0]), ("field", 0, 7, 2, "oops")],
         r"bars\.csv:3: duplicate bar for \(A, 2015-06-01\)"),
        # a bad value in the first chunk before a repeat in the third
        ([("field", 0, 1, 2, "oops"), ("field", 0, 7, 1, SWEEP_DAYS[0])],
         r"bars\.csv:3: column 'close': bad number 'oops'"),
        # a value error in the record before a wrong field count
        ([("field", 0, 3, 5, "-1"), ("width", 0, 5, 1)],
         r"bars\.csv:5: column 'turnover_ratio': bar for A on 2015-06-04 must be >= 0"),
        ([("width", 0, 4, 1), ("field", 0, 4, 5, "-1")], r"bars\.csv:5: expected 8 fields, got 9"),
        # a quoted newline moves the lines after it
        ([("field", 2, 0, 0, "x\ny"), ("field", 2, 2, 1, "0")],
         r"benchmark\.csv:3: column 'date': bad date 'x\\ny'"),
        ([("field", 0, 0, 0, "x\ny"), ("field", 0, 2, 2, "0")],
         r"bars\.csv:5: column 'close': bar for A on 2015-06-03 must be > 0"),
        ([("field", 1, 2, 18, "1.0")],
         r"fundamentals\.csv:4: column 'industry_code': bad integer '1\.0'"),
        ([("copy", 2, 2, 4)], r"benchmark\.csv:6: duplicate benchmark date 2015-06-02"),
        ([("drop", 2, 1)], r"benchmark\.csv: missing calendar date 2015-06-02"),
    ], ids=["repeat-first", "value-first", "value-before-width", "width-before-value",
            "quoted-newline", "quoted-id", "industry", "benchmark-repeat", "benchmark-gap"])
    def test_first_error_in_file_order(self, tmp_path, monkeypatch, edits, error):
        monkeypatch.setattr(marketdata, "CHUNK_RECORDS", 3)
        kind, message = assert_matches_oracle(write_sweep_case(tmp_path, edits))
        assert issubclass(kind, DataError) and re.fullmatch(f".*{error}", message)

    @pytest.mark.parametrize("text", NOT_ISO_DATES)
    @pytest.mark.parametrize("file,name,column", [
        (0, "bars.csv", 1), (1, "fundamentals.csv", 1), (2, "benchmark.csv", 0)])
    def test_date_not_in_yyyy_mm_dd_rejected(self, tmp_path, text, file, name, column):
        kind, message = assert_matches_oracle(
            write_sweep_case(tmp_path, [("field", file, 0, column, text)]))
        assert kind is ParseError
        assert message.endswith(f"{name}:2: column 'date': bad date {text!r}")

    @pytest.mark.parametrize("bad_close", [True, False])
    def test_bad_byte_after_a_bad_value_comes_second(self, tmp_path, bad_close):
        """A byte that is not UTF-8 on line 9 is reported after a value error
        on line 2, which the decoder read in the same block of text."""
        edits = [("field", 0, 0, 2, "oops")] if bad_close else []
        paths = write_sweep_case(tmp_path, edits)
        lines = paths[0].read_bytes().split(b"\n")
        lines[8] = lines[8].replace(b",0.2,", b",0.\xff2,")
        paths[0].write_bytes(b"\n".join(lines))
        kind, message = assert_matches_oracle(paths)
        assert kind is ParseError
        assert message == (f"{paths[0]}:2: column 'close': bad number 'oops'" if bad_close
                           else f"{paths[0]}:9: byte 0xff is not UTF-8 text")

    @pytest.mark.parametrize("ending", [b"\n", b"\r", b"\r\n", b"mixed"],
                             ids=["lf", "cr", "crlf", "mixed"])
    def test_bad_byte_line_counts_every_line_end(self, tmp_path, ending):
        """A byte that is not UTF-8 on line 4 names line 4, as a bad close on
        line 3 names line 3, whether lines end at \\n, \\r or \\r\\n."""
        def write(edits, bad_byte):
            paths = write_sweep_case(tmp_path, edits)
            lines = paths[0].read_bytes().splitlines()
            if bad_byte:
                lines[3] = lines[3].replace(b",0.2,", b",0.\xff2,")
            ends = [b"\r", b"\r\n", b"\n"] * len(lines) if ending == b"mixed" \
                else [ending] * len(lines)
            paths[0].write_bytes(b"".join(line + end for line, end in zip(lines, ends)))
            return paths

        paths = write([], bad_byte=True)
        assert assert_matches_oracle(paths) == \
            (ParseError, f"{paths[0]}:4: byte 0xff is not UTF-8 text")
        paths = write([("field", 0, 1, 2, "oops")], bad_byte=False)
        assert assert_matches_oracle(paths) == \
            (ParseError, f"{paths[0]}:3: column 'close': bad number 'oops'")

    @pytest.mark.parametrize("late", ["not-utf8", "huge-field"])
    def test_value_error_before_a_later_structural_error(self, tmp_path, monkeypatch, late):
        """A structural error past the first block of text the reader decodes
        comes after a value error in an earlier record, and alone it is raised."""
        monkeypatch.setattr(marketdata, "CHUNK_RECORDS", 3)
        paths = write_sweep_case(tmp_path, [])
        lines = paths[0].read_text().splitlines()
        filler = [f"Z,{d},1,1,0,0,1,0" for d in weekdays(Date(1998, 1, 1), Date(2001, 12, 31))]
        tail = "\xff" if late == "not-utf8" else "9" * 140_000
        for bad_close in ("oops", "10"):
            text = "\n".join([lines[0], lines[1].replace(",10.5,", f",{bad_close},"),
                              *lines[2:], *filler]) + "\n"
            blob = text.encode() + (b"\xff\n" if late == "not-utf8" else f"{tail}\n".encode())
            paths[0].write_bytes(blob)
            assert len(blob) > 20_000
            kind, message = assert_matches_oracle(paths)
            first = "bad number 'oops'" if bad_close == "oops" else (
                "is not UTF-8 text" if late == "not-utf8" else "field larger than field limit")
            assert first in message


class TestChunkBoundaries:
    """Errors and records at the edges of the loader's chunks, against the
    oracle. With chunks of 3 records the sweep's 8 bars are read as records
    1-3 (lines 2-4), 4-6 and 7-8."""

    @pytest.fixture(autouse=True)
    def chunks_of_three(self, monkeypatch):
        monkeypatch.setattr(marketdata, "CHUNK_RECORDS", 3)

    @staticmethod
    def bars_with_lines(paths, after, lines):
        """Put lines, as bytes, into bars.csv after its line number after."""
        text = paths[0].read_bytes().split(b"\n")
        paths[0].write_bytes(b"\n".join(text[:after] + lines + text[after:]))
        return paths

    @pytest.mark.parametrize("record,line", [(3, 5), (2, 4), (5, 7), (6, 8)],
                             ids=["first", "last", "second-last", "third-first"])
    def test_first_error_at_a_chunk_edge(self, tmp_path, record, line):
        # a later error in the next chunk, which must not be named
        edits = [("field", 0, record, 2, "oops"), ("field", 0, 7, 4, "-1")]
        paths = write_sweep_case(tmp_path, edits)
        assert assert_matches_oracle(paths) == \
            (ParseError, f"{paths[0]}:{line}: column 'close': bad number 'oops'")

    @pytest.mark.parametrize("error", [False, True])
    def test_quoted_newline_in_a_chunks_last_record(self, tmp_path, error):
        """A stock id holding a newline in record 3 ends on line 5, so record
        4, the next chunk's first, is on line 6."""
        edits = [("field", 0, 2, 0, "x\ny")] + ([("field", 0, 3, 2, "oops")] if error else [])
        paths = write_sweep_case(tmp_path, edits)
        kind, got = assert_matches_oracle(paths)
        if error:
            assert (kind, got) == (ParseError, f"{paths[0]}:6: column 'close': bad number 'oops'")
        else:
            assert kind == "ok" and "x\ny" in got.stocks

    @pytest.mark.parametrize("blank", [1, 3], ids=["one", "a-whole-chunk"])
    @pytest.mark.parametrize("error", [False, True])
    def test_blank_lines_on_a_chunk_boundary(self, tmp_path, blank, error):
        paths = self.bars_with_lines(
            write_sweep_case(tmp_path, [("field", 0, 3, 2, "oops")] if error else []),
            4, [b""] * blank)
        kind, got = assert_matches_oracle(paths)
        if error:
            assert (kind, got) == (
                ParseError, f"{paths[0]}:{5 + blank}: column 'close': bad number 'oops'")
        else:
            assert kind == "ok"

    @pytest.mark.parametrize("bad_close", [False, True])
    def test_bad_byte_in_a_chunks_first_record(self, tmp_path, bad_close):
        """A byte that is not UTF-8 in record 4 comes after a bad value in
        record 2, in the chunk before it."""
        paths = write_sweep_case(tmp_path, [("field", 0, 1, 2, "oops")] if bad_close else [])
        lines = paths[0].read_bytes().split(b"\n")
        lines[4] = lines[4].replace(b",0.2,", b",0.\xff2,")
        paths[0].write_bytes(b"\n".join(lines))
        assert assert_matches_oracle(paths) == (ParseError, (
            f"{paths[0]}:3: column 'close': bad number 'oops'" if bad_close
            else f"{paths[0]}:5: byte 0xff is not UTF-8 text"))

    @pytest.mark.parametrize("file,edits,error", [
        (0, [("field", 0, 4, 0, "A")], "6: duplicate bar for (A, 2015-06-01)"),
        (0, [("field", 0, 6, 1, SWEEP_DAYS[1])], "8: duplicate bar for (B, 2015-06-02)"),
        (2, [("field", 2, 3, 0, SWEEP_DAYS[0])], "5: duplicate benchmark date 2015-06-01"),
    ], ids=["bars-first-chunk", "bars-second-chunk", "benchmark"])
    def test_key_repeated_from_an_earlier_chunk(self, tmp_path, file, edits, error):
        paths = write_sweep_case(tmp_path, edits)
        assert assert_matches_oracle(paths) == (ParseError, f"{paths[file]}:{error}")

    def test_header_only_bars(self, tmp_path):
        paths = write_sweep_case(tmp_path, [])
        paths[0].write_text(",".join(BARS_COLUMNS) + "\n")
        assert assert_matches_oracle(paths) == (ParseError, f"{paths[0]}: no bars")

    def test_non_ascii_stock_id_loads(self, tmp_path):
        paths = write_sweep_case(tmp_path, [])
        for path in paths[:2]:
            path.write_bytes(re.sub(rb"^A,", "Ä股,".encode(), path.read_bytes(), flags=re.M))
        kind, got = assert_matches_oracle(paths)
        assert kind == "ok" and got.stocks == ["B", "Ä股"]


@pytest.mark.parametrize("edit,error,calls", [
    (("field", 0, 7, 1, SWEEP_DAYS[2]), "9: duplicate bar for (B, 2015-06-03)", 0),
    (("field", 0, 7, 2, "oops"), "9: column 'close': bad number 'oops'", 1),
], ids=["repeated-key", "bad-close"])
def test_naming_an_error_checks_no_record_in_python(tmp_path, monkeypatch, edit, error, calls):
    """An error in the last chunk is found by the chunks' masks and named by
    reading up to its record: _parse_float parses its one field at most."""
    monkeypatch.setattr(marketdata, "CHUNK_RECORDS", 3)
    parsed = []

    def parse_float(*args):
        parsed.append(args)
        return _parse_float(*args)

    monkeypatch.setattr(marketdata, "_parse_float", parse_float)
    paths = write_sweep_case(tmp_path, [edit])
    with pytest.raises(DataError) as caught:
        load_dataset(*paths)
    assert str(caught.value) == f"{paths[0]}:{error}"
    assert len(parsed) == calls


def test_loader_peak_memory_within_oracle_bound(tmp_path):
    """The loader's traced allocation peak on a 25-stock generated market is
    at most 1.25 times the per-row oracle's."""
    write_dataset(generate_synthetic_market(SyntheticMarketConfig(
        seed=1, n_stocks=25, start=Date(2014, 1, 1), end=Date(2015, 12, 31),
        regime="crash", planted_signal_strength=0.5))[0], tmp_path)
    paths = [tmp_path / name for name in ("bars.csv", "fundamentals.csv", "benchmark.csv")]
    peaks = []
    for load in (load_dataset, oracle_load_dataset):
        tracemalloc.start()
        try:
            dataset = load(*paths)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        del dataset
    assert peaks[0] <= 1.25 * peaks[1], peaks
