"""Window protocol, labels, the three ranking strategies, target selection."""

import math
from bisect import bisect_right
from datetime import date as Date

import numpy as np
import pytest

from conftest import (bar_rows, bars_of, benchmark_of, build_market, flat_market,
                      snapshot_column, snapshots)
from rollingquant import strategies
from rollingquant.errors import StrategyError, TrainingError, ValidationError
from rollingquant.factors import MarketStore
from rollingquant.marketdata import eligible_universe
from rollingquant.numerics import TrainConfig
from rollingquant.strategies import (
    SEED_STRIDE,
    Ranking,
    build_window,
    excess_return_label,
    rank_stocks,
    select_targets,
)
from rollingquant.synthetic import SyntheticMarketConfig, generate_synthetic_market


def rank_day(kind, store, d, universe, **kwargs):
    """The ranking of the one action day d."""
    [ranking] = rank_stocks(kind, store, [(d, universe)], **kwargs)
    return ranking


def fresh_market(seed=1, n_stocks=50):
    return generate_synthetic_market(SyntheticMarketConfig(
        seed=seed, n_stocks=n_stocks, start=Date(2014, 1, 1),
        end=Date(2015, 12, 31), regime="crash", planted_signal_strength=0.6,
    ))[0]


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
        bars = bars_of(market, "A")
        bars.close[bars.dates.index(t1)] = stock_end
        market.benchmark[np.array(market.calendar.dates) >= t1] = bench_end
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
        bars = bars_of(market, "A")
        bars.suspended[bars.dates.index(t1)] = True
        assert excess_return_label(market, "A", Date(2015, 6, 30), t1) is None

    def test_missing_bar_dropped(self):
        market = self._market(105.0, 2910.0)
        t1 = Date(2015, 7, 31)
        market = build_market([row for row in bar_rows(market) if row[1] != t1],
                              benchmark_of(market), snapshots(market))
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
        ranking = rank_day("linreg", MarketStore(market), Date(2015, 6, 30),
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
        baseline = dict(rank_day("linreg", MarketStore(market), d, universe).entries)
        victim = sorted(universe)[7]
        delta = 1.0
        discount = math.exp(-delta)
        market = fresh_market()
        bars_of(market, victim).market_cap[:] *= discount
        i = market.row_of[victim]
        for name in self._LEVEL_FIELDS:
            snapshot_column(market, name)[
                market.snapshot_bounds[i]:market.snapshot_bounds[i + 1]] *= discount
        shifted = rank_day("linreg", MarketStore(market), d, universe)
        scores = dict(shifted.entries)
        order = [s for s, _ in shifted.entries]
        assert order.index(victim) < 3
        assert scores[victim] - baseline[victim] > 0.5 * delta

    def test_window_exceeding_history_raises(self):
        market = fresh_market()
        with pytest.raises(StrategyError):
            rank_day("linreg", MarketStore(market), Date(2015, 9, 30),
                     eligible_universe(market, Date(2015, 9, 30)), w=40)

    def test_empty_panels_raise_without_warnings(self, crash_market):
        # every window panel has 0 rows; normalizing one would warn, and the
        # suite turns warnings into errors
        with pytest.raises(StrategyError, match="no regression samples for 2015-09-30"):
            rank_day("linreg", MarketStore(crash_market), Date(2015, 9, 30), set())


class TestProjectionStrategies:
    def test_fcnn_deterministic(self):
        market = fresh_market()
        d = Date(2015, 9, 30)
        universe = eligible_universe(market, d)
        a = rank_day("fcnn", MarketStore(market), d, universe, train_config=TrainConfig(seed=5))
        b = rank_day("fcnn", MarketStore(market), d, universe, train_config=TrainConfig(seed=5))
        assert a.entries == b.entries

    def test_lstm_deterministic(self):
        market = fresh_market()
        d = Date(2015, 9, 30)
        universe = eligible_universe(market, d)
        a = rank_day("lstm", MarketStore(market), d, universe, train_config=TrainConfig(seed=5))
        b = rank_day("lstm", MarketStore(market), d, universe, train_config=TrainConfig(seed=5))
        assert a.entries == b.entries

    def test_rankings_cover_the_universe(self):
        market = fresh_market()
        d = Date(2015, 9, 30)
        universe = eligible_universe(market, d)
        for kind in ("linreg", "fcnn", "lstm"):
            ranking = rank_day(kind, MarketStore(market), d, universe,
                               train_config=TrainConfig(seed=1))
            assert {s for s, _ in ranking.entries} == universe

    def test_unknown_strategy_rejected(self):
        market = fresh_market()
        with pytest.raises(ValidationError):
            rank_day("cnn", MarketStore(market), Date(2015, 9, 30), {"S0000"})


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
        rank_day(kind, MarketStore(market), d, universe, w=3,
                 train_config=TrainConfig(epochs=1))
        assert built == build_window(market.calendar, d, 3) + [d]


class TestNoLookahead:
    def _mutated_after(self, cutoff):
        """A fresh market whose bars, benchmark and snapshots after cutoff
        are replaced."""
        market = fresh_market()
        for stock_id in market.stocks:
            bars = bars_of(market, stock_id)
            i = bisect_right(bars.dates, cutoff)
            bars.close[i:] = bars.prev_close[i:] = 1.0
            bars.turnover[i:] = 0.99
            bars.volume[i:] = 9.9
            bars.market_cap[i:] = 10.0
        market.benchmark[np.array(market.calendar.dates) > cutoff] = 1.0
        snapshot_column(market, "net_profit")[market.snapshot_days > cutoff.toordinal()] = -1e9
        return market

    @pytest.mark.parametrize("kind", ["linreg", "fcnn", "lstm"])
    def test_future_mutation_leaves_ranking_unchanged(self, kind):
        d = Date(2015, 9, 30)
        market = fresh_market()
        universe = eligible_universe(market, d)
        before = rank_day(kind, MarketStore(market), d, universe,
                          train_config=TrainConfig(seed=2))
        after = rank_day(kind, MarketStore(self._mutated_after(d)), d, universe,
                         train_config=TrainConfig(seed=2))
        assert before.entries == after.entries


class PlantedFailure(frozenset):
    """A universe whose panel cannot be built."""

    def __iter__(self):
        raise StrategyError("planted failure")


class TestErrorOrder:
    """rank_stocks raises what ranking its days one by one would raise."""

    DAYS = [Date(2015, 7, 31), Date(2015, 8, 31), Date(2015, 9, 30), Date(2015, 10, 30)]

    def _days(self, market, failing=None):
        return [(d, PlantedFailure() if i == failing else eligible_universe(market, d))
                for i, d in enumerate(self.DAYS)]

    def _diverge(self, monkeypatch, day, from_step):
        """Make action day `day` diverge from its step from_step on, and
        record the seeds of the members trained."""
        trained = []
        train = strategies.train

        def diverging_train(model, samples, labels, config, seeds):
            trained.extend(seeds)
            loss_and_gradients = model.loss_and_gradients
            target = seeds.index(5 + day * SEED_STRIDE) if 5 + day * SEED_STRIDE in seeds else -1
            steps = []

            def poisoned(batch, batch_labels):
                loss, grads = loss_and_gradients(batch, batch_labels)
                steps.append(None)
                if len(steps) >= from_step:
                    loss = np.where(np.arange(len(loss)) == target, np.nan, loss)
                return loss, grads

            model.loss_and_gradients = poisoned
            return train(model, samples, labels, config, seeds)

        monkeypatch.setattr(strategies, "train", diverging_train)
        return trained

    @pytest.mark.parametrize("kind", ["fcnn", "lstm"])
    def test_divergence_beats_a_later_strategy_error(self, kind, crash_market, monkeypatch):
        # 60 stocks: 180 fcnn or 60 lstm samples a day, 18 or 6 steps an epoch
        steps_per_epoch = 18 if kind == "fcnn" else 6
        trained = self._diverge(monkeypatch, 1, 2 * steps_per_epoch + 1)
        with pytest.raises(TrainingError, match=r"^training diverged at epoch 3$"):
            rank_stocks(kind, MarketStore(crash_market), self._days(crash_market, failing=3),
                        train_config=TrainConfig(epochs=4, seed=5))
        assert trained == [5 + i * SEED_STRIDE for i in range(3)]

    @pytest.mark.parametrize("kind", ["fcnn", "lstm"])
    def test_strategy_error_beats_a_later_divergence(self, kind, crash_market, monkeypatch):
        trained = self._diverge(monkeypatch, 3, 1)
        with pytest.raises(StrategyError, match=r"^2015-08-31: planted failure$"):
            rank_stocks(kind, MarketStore(crash_market), self._days(crash_market, failing=1),
                        train_config=TrainConfig(epochs=2, seed=5))
        assert trained == [5]

    def test_days_after_a_failing_day_are_not_read(self, crash_market):
        read = []

        def days():
            for d, universe in self._days(crash_market, failing=1):
                read.append(d)
                yield d, universe

        with pytest.raises(StrategyError, match="^2015-08-31: planted failure$"):
            rank_stocks("fcnn", MarketStore(crash_market), days(),
                        train_config=TrainConfig(epochs=1))
        assert read == self.DAYS[:2]

    @pytest.mark.parametrize("diverging_day,error", [
        (2, "^2015-08-31: degenerate panel on 2015-08-31$"),
        (1, "^training diverged at epoch 1$"),
    ], ids=["later_day_diverges", "same_day_diverges"])
    def test_degenerate_day_after_its_training(self, crash_market, monkeypatch,
                                               diverging_day, error):
        # August's action-day panel is empty: it trains, then has no stock to
        # score; one by one, its own training error would come first
        build_panel = strategies.build_panel

        def empty_in_august(store, universe, day):
            return build_panel(store, set() if day == self.DAYS[1] else universe, day)

        monkeypatch.setattr(strategies, "build_panel", empty_in_august)
        trained = self._diverge(monkeypatch, diverging_day, 1)
        with pytest.raises((StrategyError, TrainingError), match=error):
            rank_stocks("fcnn", MarketStore(crash_market), self._days(crash_market),
                        train_config=TrainConfig(epochs=1, seed=5))
        assert trained[:2] == [5, 5 + SEED_STRIDE]

    @pytest.mark.parametrize("kind", ["fcnn", "lstm"])
    @pytest.mark.parametrize("diverging_day,degenerate_day,error", [
        (1, 4, "^training diverged at epoch 1$"),
        (4, 1, "^2015-05-29: degenerate panel on 2015-05-29$"),
    ], ids=["second_group_diverges_first", "second_group_degenerate_first"])
    def test_earliest_error_across_shape_groups(self, gapped_market, monkeypatch, kind,
                                                diverging_day, degenerate_day, error):
        # April and August share a training-set shape and train first as one
        # stack, May in a later one; whichever of May and August fails,
        # May's error is raised
        days = [(d, eligible_universe(gapped_market, d)) for d in [
            Date(2015, 4, 30), Date(2015, 5, 29), Date(2015, 6, 30), Date(2015, 7, 31),
            Date(2015, 8, 31)]]
        empty_day, empty_universe = days[degenerate_day]
        build_panel = strategies.build_panel

        def empty_action_day(store, universe, day):
            # only that day's own action-day panel, so no training set changes
            empty = universe is empty_universe and day == empty_day
            return build_panel(store, set() if empty else universe, day)

        shapes = []
        train_and_rank = strategies._train_and_rank

        def record_shapes(kind, training_days, *args):
            shapes.extend(day.samples.shape for day in training_days)
            return train_and_rank(kind, training_days, *args)

        monkeypatch.setattr(strategies, "build_panel", empty_action_day)
        monkeypatch.setattr(strategies, "_train_and_rank", record_shapes)
        self._diverge(monkeypatch, diverging_day, 1)
        with pytest.raises((StrategyError, TrainingError), match=error):
            rank_stocks(kind, MarketStore(gapped_market), days,
                        train_config=TrainConfig(epochs=1, seed=5))
        assert shapes[0] == shapes[4] != shapes[1]
