"""Window protocol, labels, the three ranking strategies, target selection."""

import math
from bisect import bisect_right
from datetime import date as Date

import numpy as np
import pytest

from conftest import build_market, flat_market, snapshots
from rollingquant import strategies
from rollingquant.errors import StrategyError, ValidationError
from rollingquant.factors import MarketStore
from rollingquant.marketdata import eligible_universe
from rollingquant.numerics import TrainConfig
from rollingquant.strategies import (
    Ranking,
    build_window,
    excess_return_label,
    rank_stocks,
    select_targets,
)
from rollingquant.synthetic import SyntheticMarketConfig, generate_synthetic_market


def fresh_market(seed=1, n_stocks=50):
    return generate_synthetic_market(SyntheticMarketConfig(
        seed=seed, n_stocks=n_stocks, start=Date(2014, 1, 1),
        end=Date(2015, 12, 31), regime="crash", planted_signal_strength=0.6,
    ))


class TestBuildWindow:
    def test_mid_2015_window(self, calendar_2015):
        assert build_window(calendar_2015, Date(2015, 6, 30), 3) == [
            Date(2015, 3, 31), Date(2015, 4, 30), Date(2015, 5, 29)]

    def test_window_slides_one_action_day(self, calendar_2015):
        assert build_window(calendar_2015, Date(2015, 7, 31), 3) == [
            Date(2015, 4, 30), Date(2015, 5, 29), Date(2015, 6, 30)]

    def test_single_day_window(self, calendar_2015):
        assert build_window(calendar_2015, Date(2015, 6, 30), 1) == [Date(2015, 5, 29)]

    def test_insufficient_history(self, calendar_2015):
        with pytest.raises(StrategyError):
            build_window(calendar_2015, Date(2015, 2, 27), 3)


class TestExcessReturnLabel:
    def _market(self, stock_end, bench_end):
        market = flat_market({"A": 100.0})
        t1 = Date(2015, 7, 31)
        bars = market.bars["A"]
        bars.close[bars.position(t1)] = stock_end
        for d in list(market.benchmark):
            if d >= t1:
                market.benchmark[d] = bench_end
        return market

    def test_cancellation(self):
        market = self._market(110.0, 3300.0)
        label = excess_return_label(market, "A", Date(2015, 6, 30), Date(2015, 7, 31))
        assert label == pytest.approx(0.0, abs=1e-12)

    def test_forced_arithmetic(self):
        market = self._market(105.0, 2910.0)  # stock +5%, benchmark -3%
        label = excess_return_label(market, "A", Date(2015, 6, 30), Date(2015, 7, 31))
        assert label == pytest.approx(0.08, abs=1e-12)

    def test_suspended_at_horizon_dropped(self):
        market = self._market(105.0, 2910.0)
        t1 = Date(2015, 7, 31)
        bars = market.bars["A"]
        bars.suspended[bars.position(t1)] = True
        assert excess_return_label(market, "A", Date(2015, 6, 30), t1) is None

    def test_missing_bar_dropped(self):
        market = self._market(105.0, 2910.0)
        t1 = Date(2015, 7, 31)
        market = build_market([row for row in market.bar_rows() if row[1] != t1],
                              market.benchmark, snapshots(market))
        assert excess_return_label(market, "A", Date(2015, 6, 30), t1) is None


class TestSelectTargets:
    def test_top_two_equal_weight(self):
        ranking = Ranking(date=Date(2015, 6, 30),
                          entries=[("A", 3.0), ("B", 2.0), ("C", 1.0),
                                   ("D", 0.5), ("E", 0.1)])
        assert select_targets(ranking, 2) == {"A": 0.5, "B": 0.5}

    def test_shallow_ranking_leaves_cash(self):
        ranking = Ranking(date=Date(2015, 6, 30),
                          entries=[(s, 1.0 - i) for i, s in enumerate("ABCD")])
        targets = select_targets(ranking, 10)
        assert targets == {s: 0.1 for s in "ABCD"}
        assert sum(targets.values()) == pytest.approx(0.4)

    def test_k_must_be_positive(self):
        ranking = Ranking(date=Date(2015, 6, 30), entries=[("A", 1.0)])
        with pytest.raises(ValidationError):
            select_targets(ranking, 0)


class TestRankLinearRegression:
    def test_tie_scores_break_by_stock_id(self):
        market = flat_market({s: 100.0 for s in ("B", "A", "C")})
        ranking = rank_stocks("linreg", MarketStore(market), Date(2015, 6, 30),
                              {"A", "B", "C"})
        # identical stocks: all scores equal, order falls back to stock id
        scores = [score for _, score in ranking.entries]
        assert max(scores) - min(scores) < 1e-9
        assert [s for s, _ in ranking.entries] == ["A", "B", "C"]

    # Scale fundamentals with the cap so ratio factors stay put and the
    # discount survives only in the valuation label.
    _LEVEL_FIELDS = (
        "net_profit", "non_recurring_gain_loss", "net_assets", "total_assets",
        "avg_total_assets", "long_term_debt", "operating_revenue",
        "operate_income", "gross_profit", "net_cash_flow",
        "net_operate_cash_flow", "cash", "current_assets",
        "current_liabilities", "equity")

    def test_planted_undervaluation_rises_to_the_top(self):
        d = Date(2015, 9, 30)
        market = fresh_market()
        universe = eligible_universe(market, d)
        baseline = dict(rank_stocks("linreg", MarketStore(market), d, universe).entries)
        victim = sorted(universe)[7]
        delta = 1.0
        discount = math.exp(-delta)
        market = fresh_market()
        market.bars[victim].market_cap *= discount
        for snap in market.fundamentals[victim]:
            for name in self._LEVEL_FIELDS:
                setattr(snap, name, getattr(snap, name) * discount)
        shifted = rank_stocks("linreg", MarketStore(market), d, universe)
        scores = dict(shifted.entries)
        order = [s for s, _ in shifted.entries]
        assert order.index(victim) < 3
        assert scores[victim] - baseline[victim] > 0.5 * delta

    def test_window_exceeding_history_raises(self):
        market = fresh_market()
        with pytest.raises(StrategyError):
            rank_stocks("linreg", MarketStore(market), Date(2015, 9, 30),
                        eligible_universe(market, Date(2015, 9, 30)), w=40)

    def test_empty_panels_raise_without_warnings(self, crash_market):
        # every window panel has 0 rows; normalizing one would warn, and the
        # suite turns warnings into errors
        with pytest.raises(StrategyError, match="no regression samples for 2015-09-30"):
            rank_stocks("linreg", MarketStore(crash_market), Date(2015, 9, 30), set())


class TestProjectionStrategies:
    def test_fcnn_deterministic(self):
        market = fresh_market()
        d = Date(2015, 9, 30)
        universe = eligible_universe(market, d)
        a = rank_stocks("fcnn", MarketStore(market), d, universe, train_config=TrainConfig(seed=5))
        b = rank_stocks("fcnn", MarketStore(market), d, universe, train_config=TrainConfig(seed=5))
        assert a.entries == b.entries

    def test_lstm_deterministic(self):
        market = fresh_market()
        d = Date(2015, 9, 30)
        universe = eligible_universe(market, d)
        a = rank_stocks("lstm", MarketStore(market), d, universe, train_config=TrainConfig(seed=5))
        b = rank_stocks("lstm", MarketStore(market), d, universe, train_config=TrainConfig(seed=5))
        assert a.entries == b.entries

    def test_rankings_cover_the_universe(self):
        market = fresh_market()
        d = Date(2015, 9, 30)
        universe = eligible_universe(market, d)
        for kind in ("linreg", "fcnn", "lstm"):
            ranking = rank_stocks(kind, MarketStore(market), d, universe,
                                  train_config=TrainConfig(seed=1))
            assert {s for s, _ in ranking.entries} == universe

    def test_unknown_strategy_rejected(self):
        market = fresh_market()
        with pytest.raises(ValidationError):
            rank_stocks("cnn", MarketStore(market), Date(2015, 9, 30), {"S0000"})


class TestWindowPanels:
    @pytest.mark.parametrize("kind", ["linreg", "fcnn", "lstm"])
    def test_one_panel_per_window_date(self, kind, monkeypatch):
        d = Date(2015, 9, 30)
        market = fresh_market()
        universe = eligible_universe(market, d)
        built = []
        build_panel = strategies.build_panel

        def counting_build_panel(dataset, universe, day):
            built.append(day)
            return build_panel(dataset, universe, day)

        monkeypatch.setattr(strategies, "build_panel", counting_build_panel)
        rank_stocks(kind, MarketStore(market), d, universe, w=3,
                    train_config=TrainConfig(epochs=1))
        assert built == build_window(market.calendar, d, 3) + [d]


class TestNoLookahead:
    def _mutated_after(self, cutoff):
        """A fresh market whose bars, benchmark and snapshots after cutoff
        are replaced."""
        market = fresh_market()
        for bars in market.bars.values():
            i = bisect_right(bars.dates, cutoff)
            bars.close[i:] = bars.prev_close[i:] = 1.0
            bars.turnover[i:] = 0.99
            bars.volume[i:] = 9.9
            bars.market_cap[i:] = 10.0
        for d in market.benchmark:
            if d > cutoff:
                market.benchmark[d] = 1.0
        for snaps in market.fundamentals.values():
            for snap in snaps:
                if snap.date > cutoff:
                    snap.net_profit = -1e9
        return market

    @pytest.mark.parametrize("kind", ["linreg", "fcnn", "lstm"])
    def test_future_mutation_leaves_ranking_unchanged(self, kind):
        d = Date(2015, 9, 30)
        market = fresh_market()
        universe = eligible_universe(market, d)
        before = rank_stocks(kind, MarketStore(market), d, universe,
                             train_config=TrainConfig(seed=2))
        after = rank_stocks(kind, MarketStore(self._mutated_after(d)), d, universe,
                            train_config=TrainConfig(seed=2))
        assert before.entries == after.entries
