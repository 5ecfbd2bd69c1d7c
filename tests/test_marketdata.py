"""Dataset container, calendar, eligibility and CSV ingestion."""

import math
from datetime import date as Date

import numpy as np
import pytest

from conftest import (
    build_market,
    close_zero_spells,
    flat_market,
    make_bar,
    make_snapshot,
    snapshots,
    weekdays,
)
from rollingquant.errors import ParseError, ValidationError
from rollingquant.exports import write_dataset
from rollingquant.marketdata import (
    MIN_HISTORY_DAYS,
    TradingCalendar,
    action_days,
    eligible_universe,
    load_dataset,
)


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
        bars = market.bars["B"]
        bars.suspended[bars.position(d)] = True
        assert eligible_universe(market, d) == {"A"}

    def test_short_history_excluded(self):
        flat = flat_market({"A": 50.0})
        first = weekdays(Date(2015, 1, 1), Date(2015, 12, 31))[0]
        rows = [make_bar("B", d, 20.0) for d in weekdays(first, Date(2015, 12, 31))]
        market = build_market([*flat.bar_rows(), *rows], flat.benchmark,
                              [*snapshots(flat), make_snapshot("B", first)])
        # ~126 trading days of history by the end of June: too short
        assert "B" not in eligible_universe(market, Date(2015, 6, 30))
        assert "A" in eligible_universe(market, Date(2015, 6, 30))

    def test_missing_fundamentals_excluded(self):
        market = flat_market({"A": 50.0}, with_fundamentals=False)
        assert eligible_universe(market, Date(2015, 6, 30)) == set()


def brute_force_universe(market, by_stock, d):
    """eligible_universe as it was on per-date bars: history counted bar by
    bar, fundamentals found by a linear scan."""
    out = set()
    for stock_id, by_date in by_stock.items():
        bar = by_date.get(d)
        if bar is None or bar[7]:  # no bar, or suspended
            continue
        if sum(1 for bd in by_date if bd < d) < MIN_HISTORY_DAYS:
            continue
        if linear_asof(market, stock_id, d) is None:
            continue
        out.add(stock_id)
    return out


def linear_asof(market, stock_id, d):
    best = None
    for snap in market.fundamentals.get(stock_id, ()):
        if snap.date <= d and (best is None or snap.date > best.date):
            best = snap
    return best


def rows_by_stock(market):
    by_stock = {}
    for row in market.bar_rows():
        by_stock.setdefault(row[0], {})[row[1]] = row
    return by_stock


class TestEligibilityOracle:
    @pytest.mark.parametrize("spells", [False, True], ids=["default", "close-zero"])
    def test_every_month_end_matches_brute_force(self, gapped_market, spells):
        market = close_zero_spells(gapped_market) if spells else gapped_market
        by_stock = rows_by_stock(market)
        sizes = set()
        for d in market.calendar.month_last_days():
            universe = eligible_universe(market, d)
            assert universe == brute_force_universe(market, by_stock, d)
            sizes.add(len(universe))
            for stock_id in market.stock_ids():
                assert market.fundamental_asof(stock_id, d) is linear_asof(market, stock_id, d)
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
        snaps = market.fundamentals["A"]
        assert market.fundamental_asof("A", snaps[1].date) is snaps[1]
        assert market.fundamental_asof("A", snaps[0].date) is snaps[0]

    def test_none_before_first_snapshot(self):
        market = flat_market({"A": 50.0})
        first = market.fundamentals["A"][0].date
        assert market.fundamental_asof("A", Date(2013, 12, 31)) is None
        assert first >= Date(2014, 1, 1)


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
        assert sum(len(v) for v in loaded.bars.values()) == 10
        assert len(loaded.calendar.dates) == 5
        assert loaded.tradeable_close("B", dates[2]) == 11.0
        assert loaded.benchmark[dates[0]] == 3000.0
        assert loaded.fundamentals["A"][0].net_profit == 100.0

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
        assert loaded.stock_ids() == gapped_market.stock_ids()
        for stock_id in loaded.stock_ids():
            got, want = loaded.bars[stock_id], gapped_market.bars[stock_id]
            assert got.dates == want.dates
            for column in ("close", "prev_close", "volume", "turnover", "market_cap",
                           "suspended"):
                assert np.array_equal(getattr(got, column), getattr(want, column))
        assert loaded.fundamentals == gapped_market.fundamentals
        assert loaded.benchmark == gapped_market.benchmark
        assert loaded.calendar.dates == gapped_market.calendar.dates

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
