"""Dataset container, calendar, eligibility and CSV ingestion."""

import math
from datetime import date as Date

import pytest

from conftest import build_market, flat_market, make_bar, make_snapshot, weekdays
from rollingquant.errors import ParseError, ValidationError
from rollingquant.exports import write_dataset
from rollingquant.marketdata import (
    EligibilityRules,
    TradingCalendar,
    action_days,
    eligible_universe,
    load_dataset,
    period_return,
)


class TestTradingCalendar:
    def test_rejects_duplicates(self):
        with pytest.raises(ValidationError):
            TradingCalendar([Date(2015, 1, 5), Date(2015, 1, 5)])

    def test_index_of_non_trading_date(self, calendar_2015):
        with pytest.raises(ValidationError, match="2015-01-03"):
            calendar_2015.index(Date(2015, 1, 3))  # a Saturday

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
        market.bars["B"][d] = make_bar("B", d, 50.0, suspended=True)
        assert eligible_universe(market, d) == {"A"}

    def test_short_history_excluded(self):
        market = flat_market({"A": 50.0})
        first = weekdays(Date(2015, 1, 1), Date(2015, 12, 31))[0]
        market.bars["B"] = {
            d: make_bar("B", d, 20.0)
            for d in weekdays(first, Date(2015, 12, 31))
        }
        market.fundamentals["B"] = [make_snapshot("B", first)]
        # ~126 trading days of history by the end of June: too short
        assert "B" not in eligible_universe(market, Date(2015, 6, 30))
        assert "A" in eligible_universe(market, Date(2015, 6, 30))

    def test_missing_fundamentals_excluded(self):
        market = flat_market({"A": 50.0})
        market.fundamentals["A"] = []
        assert eligible_universe(market, Date(2015, 6, 30)) == set()
        relaxed = EligibilityRules(require_fundamentals=False)
        assert eligible_universe(market, Date(2015, 6, 30), relaxed) == {"A"}

    def test_limit_locked_excluded_when_enabled(self):
        market = flat_market({"A": 50.0})
        d = Date(2015, 6, 30)
        market.bars["A"][d] = make_bar("A", d, 55.0, prev_close=50.0)
        rules = EligibilityRules(exclude_limit_locked=True)
        assert eligible_universe(market, d, rules) == set()
        assert eligible_universe(market, d) == {"A"}


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


class TestPeriodReturn:
    def test_forced_arithmetic(self):
        series = {Date(2015, 1, 5): 100.0, Date(2015, 1, 6): 110.0}
        assert period_return(series, Date(2015, 1, 5), Date(2015, 1, 6)) == pytest.approx(0.10)

    def test_identity(self):
        series = {Date(2015, 1, 5): 88.0, Date(2015, 1, 6): 88.0}
        assert period_return(series, Date(2015, 1, 5), Date(2015, 1, 6)) == 0.0

    def test_requires_increasing_dates(self):
        series = {Date(2015, 1, 5): 100.0}
        with pytest.raises(ValidationError):
            period_return(series, Date(2015, 1, 5), Date(2015, 1, 5))

    def test_missing_date(self):
        series = {Date(2015, 1, 5): 100.0}
        with pytest.raises(ValidationError):
            period_return(series, Date(2015, 1, 5), Date(2015, 1, 6))

    def test_monthly_compounding_fixture(self):
        # month-end closes encoding a -8% June
        series = {Date(2015, 5, 29): 3000.0, Date(2015, 6, 30): 3000.0 * 0.92}
        r = period_return(series, Date(2015, 5, 29), Date(2015, 6, 30))
        assert abs(r - (-0.08)) < 1e-12


class TestCsvRoundTrip:
    def _write(self, tmp_path, market):
        write_dataset(market, tmp_path)
        return (tmp_path / "bars.csv", tmp_path / "fundamentals.csv",
                tmp_path / "benchmark.csv")

    def test_two_stocks_five_days(self, tmp_path):
        dates = weekdays(Date(2015, 6, 1), Date(2015, 6, 5))
        bars = {s: {d: make_bar(s, d, 10.0 + i) for d in dates}
                for i, s in enumerate(["A", "B"])}
        market = build_market(bars, {d: 3000.0 for d in dates},
                              {s: [make_snapshot(s, dates[0])] for s in ["A", "B"]})
        loaded = load_dataset(*self._write(tmp_path, market))
        assert sum(len(v) for v in loaded.bars.values()) == 10
        assert len(loaded.calendar) == 5
        assert loaded.bars["B"][dates[2]].close == 11.0
        assert loaded.benchmark[dates[0]] == 3000.0
        assert loaded.fundamentals["A"][0].net_profit == 100.0

    def test_negative_close_rejected(self, tmp_path):
        dates = weekdays(Date(2015, 6, 1), Date(2015, 6, 5))
        bars = {"A": {d: make_bar("A", d, 10.0) for d in dates}}
        market = build_market(bars, {d: 3000.0 for d in dates},
                              {"A": [make_snapshot("A", dates[0])]})
        paths = self._write(tmp_path, market)
        text = paths[0].read_text().replace("A,2015-06-03,10,", "A,2015-06-03,-1,")
        paths[0].write_text(text)
        with pytest.raises(ValidationError, match="2015-06-03"):
            load_dataset(*paths)

    def test_benchmark_gap_rejected(self, tmp_path):
        dates = weekdays(Date(2015, 6, 1), Date(2015, 6, 5))
        bars = {"A": {d: make_bar("A", d, 10.0) for d in dates}}
        market = build_market(bars, {d: 3000.0 for d in dates},
                              {"A": [make_snapshot("A", dates[0])]})
        paths = self._write(tmp_path, market)
        lines = paths[2].read_text().splitlines()
        del lines[3]  # drop 2015-06-03
        paths[2].write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match="2015-06-03"):
            load_dataset(*paths)

    def test_bad_float_names_location(self, tmp_path):
        dates = weekdays(Date(2015, 6, 1), Date(2015, 6, 5))
        bars = {"A": {d: make_bar("A", d, 10.0) for d in dates}}
        market = build_market(bars, {d: 3000.0 for d in dates},
                              {"A": [make_snapshot("A", dates[0])]})
        paths = self._write(tmp_path, market)
        text = paths[0].read_text().replace("A,2015-06-02,10,", "A,2015-06-02,oops,")
        paths[0].write_text(text)
        with pytest.raises(ParseError, match="close"):
            load_dataset(*paths)

    def test_wrong_header_rejected(self, tmp_path):
        dates = weekdays(Date(2015, 6, 1), Date(2015, 6, 5))
        bars = {"A": {d: make_bar("A", d, 10.0) for d in dates}}
        market = build_market(bars, {d: 3000.0 for d in dates},
                              {"A": [make_snapshot("A", dates[0])]})
        paths = self._write(tmp_path, market)
        lines = paths[0].read_text().splitlines()
        lines[0] = lines[0].replace("close", "klose")
        paths[0].write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="header"):
            load_dataset(*paths)

    def test_duplicate_bar_rejected(self, tmp_path):
        dates = weekdays(Date(2015, 6, 1), Date(2015, 6, 5))
        bars = {"A": {d: make_bar("A", d, 10.0) for d in dates}}
        market = build_market(bars, {d: 3000.0 for d in dates},
                              {"A": [make_snapshot("A", dates[0])]})
        paths = self._write(tmp_path, market)
        with open(paths[0], "a") as fh:
            fh.write("A,2015-06-02,999,10,0.2,0.02,9990,0\n")
        with pytest.raises(ParseError, match=r"bars\.csv:7: duplicate bar for \(A, 2015-06-02\)"):
            load_dataset(*paths)

    def test_duplicate_benchmark_date_rejected(self, tmp_path):
        dates = weekdays(Date(2015, 6, 1), Date(2015, 6, 5))
        bars = {"A": {d: make_bar("A", d, 10.0) for d in dates}}
        market = build_market(bars, {d: 3000.0 for d in dates},
                              {"A": [make_snapshot("A", dates[0])]})
        paths = self._write(tmp_path, market)
        with open(paths[2], "a") as fh:
            fh.write("2015-06-03,3100\n")
        with pytest.raises(ParseError,
                           match=r"benchmark\.csv:7: duplicate benchmark date 2015-06-03"):
            load_dataset(*paths)
