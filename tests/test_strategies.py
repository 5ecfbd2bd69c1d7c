"""Window protocol, labels, the three ranking strategies, target selection."""

import math
from datetime import date as Date

import numpy as np
import pytest

from conftest import flat_market, make_bar
from rollingquant import strategies
from rollingquant.errors import StrategyError, ValidationError
from rollingquant.factors import MarketStore
from rollingquant.marketdata import eligible_universe
from rollingquant.numerics import TrainConfig
from rollingquant.strategies import (
    Ranking,
    TrainingWindow,
    build_window,
    excess_return_label,
    rank_fcnn,
    rank_linear_regression,
    rank_lstm,
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
        window = build_window(calendar_2015, Date(2015, 6, 30), 3)
        assert window.training_days == [Date(2015, 3, 31), Date(2015, 4, 30),
                                        Date(2015, 5, 29)]

    def test_window_slides_one_action_day(self, calendar_2015):
        window = build_window(calendar_2015, Date(2015, 7, 31), 3)
        assert window.training_days == [Date(2015, 4, 30), Date(2015, 5, 29),
                                        Date(2015, 6, 30)]

    def test_single_day_window(self, calendar_2015):
        window = build_window(calendar_2015, Date(2015, 6, 30), 1)
        assert window.training_days == [Date(2015, 5, 29)]

    def test_insufficient_history(self, calendar_2015):
        with pytest.raises(StrategyError):
            build_window(calendar_2015, Date(2015, 2, 27), 3)

    def test_training_days_must_precede_action_day(self):
        with pytest.raises(ValidationError):
            TrainingWindow(action_day=Date(2015, 6, 30),
                           training_days=[Date(2015, 6, 30)])


class TestExcessReturnLabel:
    def _market(self, stock_end, bench_end):
        market = flat_market({"A": 100.0})
        t1 = Date(2015, 7, 31)
        market.bars["A"][t1] = make_bar("A", t1, stock_end)
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
        market.bars["A"][t1] = make_bar("A", t1, 105.0, suspended=True)
        assert excess_return_label(market, "A", Date(2015, 6, 30), t1) is None

    def test_missing_bar_dropped(self):
        market = self._market(105.0, 2910.0)
        del market.bars["A"][Date(2015, 7, 31)]
        assert excess_return_label(market, "A", Date(2015, 6, 30), Date(2015, 7, 31)) is None


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
        ranking = rank_linear_regression(market, Date(2015, 6, 30), {"A", "B", "C"})
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
        baseline = dict(rank_linear_regression(market, d, universe).entries)
        victim = sorted(universe)[7]
        delta = 1.0
        discount = math.exp(-delta)
        for bar in market.bars[victim].values():
            bar.market_cap *= discount
        for snap in market.fundamentals[victim]:
            for name in self._LEVEL_FIELDS:
                setattr(snap, name, getattr(snap, name) * discount)
        shifted = rank_linear_regression(market, d, universe)
        scores = dict(shifted.entries)
        order = [s for s, _ in shifted.entries]
        assert order.index(victim) < 3
        assert scores[victim] - baseline[victim] > 0.5 * delta

    def test_window_exceeding_history_raises(self):
        market = fresh_market()
        with pytest.raises(StrategyError):
            rank_linear_regression(market, Date(2015, 9, 30),
                                   eligible_universe(market, Date(2015, 9, 30)), w=40)


class TestProjectionStrategies:
    def test_fcnn_deterministic(self):
        market = fresh_market()
        d = Date(2015, 9, 30)
        universe = eligible_universe(market, d)
        a = rank_fcnn(market, d, universe, train_config=TrainConfig(seed=5))
        b = rank_fcnn(market, d, universe, train_config=TrainConfig(seed=5))
        assert a.entries == b.entries

    def test_lstm_deterministic(self):
        market = fresh_market()
        d = Date(2015, 9, 30)
        universe = eligible_universe(market, d)
        a = rank_lstm(market, d, universe, train_config=TrainConfig(seed=5))
        b = rank_lstm(market, d, universe, train_config=TrainConfig(seed=5))
        assert a.entries == b.entries

    def test_rankings_cover_the_universe(self):
        market = fresh_market()
        d = Date(2015, 9, 30)
        universe = eligible_universe(market, d)
        for kind in ("linreg", "fcnn", "lstm"):
            ranking = rank_stocks(kind, market, d, universe,
                                  train_config=TrainConfig(seed=1))
            assert {s for s, _ in ranking.entries} == universe

    def test_unknown_strategy_rejected(self):
        market = fresh_market()
        with pytest.raises(ValidationError):
            rank_stocks("cnn", market, Date(2015, 9, 30), {"S0000"})


class TestWindowPanels:
    @pytest.mark.parametrize("rank,kwargs", [
        (rank_linear_regression, {}),
        (rank_fcnn, {"train_config": TrainConfig(epochs=1)}),
        (rank_lstm, {"train_config": TrainConfig(epochs=1)}),
    ], ids=["linreg", "fcnn", "lstm"])
    def test_one_panel_per_window_date(self, rank, kwargs, monkeypatch):
        d = Date(2015, 9, 30)
        market = fresh_market()
        universe = eligible_universe(market, d)
        built = []
        build_panel = strategies.build_panel

        def counting_build_panel(dataset, universe, day):
            built.append(day)
            return build_panel(dataset, universe, day)

        monkeypatch.setattr(strategies, "build_panel", counting_build_panel)
        rank(market, d, universe, w=3, **kwargs)
        assert built == build_window(market.calendar, d, 3).training_days + [d]

    def test_store_of_another_dataset_rejected(self):
        d = Date(2015, 9, 30)
        market = fresh_market()
        with pytest.raises(ValidationError, match="another dataset"):
            rank_linear_regression(market, d, eligible_universe(market, d),
                                   store=MarketStore(fresh_market()))


class TestNoLookahead:
    def _mutate_after(self, market, cutoff):
        for stock_id, by_date in market.bars.items():
            for d in by_date:
                if d > cutoff:
                    by_date[d] = make_bar(stock_id, d, 1.0, turnover=0.99)
        for d in market.benchmark:
            if d > cutoff:
                market.benchmark[d] = 1.0
        for snaps in market.fundamentals.values():
            for i, snap in enumerate(snaps):
                if snap.date > cutoff:
                    snaps[i] = type(snap)(**{**snap.__dict__, "net_profit": -1e9})

    @pytest.mark.parametrize("kind", ["linreg", "fcnn", "lstm"])
    def test_future_mutation_leaves_ranking_unchanged(self, kind):
        d = Date(2015, 9, 30)
        market = fresh_market()
        universe = eligible_universe(market, d)
        before = rank_stocks(kind, market, d, universe,
                             train_config=TrainConfig(seed=2))
        self._mutate_after(market, d)
        after = rank_stocks(kind, market, d, universe,
                            train_config=TrainConfig(seed=2))
        assert before.entries == after.entries
