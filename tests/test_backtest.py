"""Portfolio rebalance arithmetic and scenario-level accounting."""

from collections import Counter
from dataclasses import replace
from datetime import date as Date

import pytest

from conftest import bar_rows, bars_of, benchmark_of, build_market, flat_market, snapshots
from rollingquant import backtest, strategies
from rollingquant.backtest import (
    BacktestResult,
    CostModel,
    Portfolio,
    ScenarioConfig,
    rebalance,
    run_scenario,
    scenario,
    trade,
)
from rollingquant.errors import ConfigError, RebalanceError, StrategyError, ValidationError
from rollingquant.exports import read_series_csv, write_ranking_csv, write_series_csv
from rollingquant.factors import MarketStore, apply_normalization, build_panel, drop_sparse_rows
from rollingquant.marketdata import MarketDataset, action_days, eligible_universe
from rollingquant.numerics import LstmModel, MlpModel, TrainConfig, train
from rollingquant.strategies import SEED_STRIDE, Ranking, build_window, rank_stocks
from rollingquant.synthetic import SyntheticMarketConfig, generate_synthetic_market

D0 = Date(2015, 6, 30)


class TestRebalance:
    def test_equal_weight_buy_from_cash(self):
        portfolio = Portfolio(cash=1000.0)
        trades = rebalance(portfolio, {"A": 0.5, "B": 0.5},
                           {"A": 10.0, "B": 20.0}, CostModel(), D0)
        assert portfolio.holdings == {"A": 50.0, "B": 25.0}
        assert portfolio.cash == pytest.approx(0.0, abs=1e-12)
        assert {(t.stock_id, t.side, t.shares) for t in trades} == {
            ("A", "buy", 50.0), ("B", "buy", 25.0)}

    def test_empty_targets_liquidate(self):
        portfolio = Portfolio(cash=0.0, holdings={"A": 50.0, "B": 25.0})
        trades = rebalance(portfolio, {}, {"A": 10.0, "B": 20.0}, CostModel(), D0)
        assert portfolio.holdings == {}
        assert portfolio.cash == pytest.approx(1000.0)
        assert all(t.side == "sell" for t in trades)

    def test_commission_charged_both_ways(self):
        costs = CostModel(commission_rate=0.001, sell_tax_rate=0.002)
        portfolio = Portfolio(cash=1000.0)
        buys = rebalance(portfolio, {"A": 0.5}, {"A": 10.0}, costs, D0)
        assert buys[0].cost == pytest.approx(buys[0].shares * 10.0 * 0.001)
        assert portfolio.cash >= -1e-9
        held = portfolio.holdings["A"]
        cash_before = portfolio.cash
        sells = rebalance(portfolio, {}, {"A": 10.0}, costs, D0)
        notional = held * 10.0
        assert sells[0].cost == pytest.approx(notional * 0.003)
        assert portfolio.cash == pytest.approx(
            cash_before + notional - notional * 0.003)

    def test_buys_scale_down_when_cash_is_short(self):
        # 10% commission on a full-cash target forces a proportional scale-back
        costs = CostModel(commission_rate=0.1)
        portfolio = Portfolio(cash=100.0)
        rebalance(portfolio, {"A": 1.0}, {"A": 10.0}, costs, D0)
        assert portfolio.holdings["A"] == pytest.approx(100.0 / 11.0)
        assert portfolio.cash == pytest.approx(0.0, abs=1e-9)

    def test_lot_size_rounds_down(self):
        costs = CostModel(lot_size=10.0)
        portfolio = Portfolio(cash=1000.0)
        rebalance(portfolio, {"A": 0.5, "B": 0.5}, {"A": 10.0, "B": 20.0},
                  costs, D0)
        assert portfolio.holdings == {"A": 50.0, "B": 20.0}

    def test_frozen_holding_is_untouched(self):
        portfolio = Portfolio(cash=0.0, holdings={"A": 50.0, "B": 25.0})
        rebalance(portfolio, {"B": 1.0}, {"A": 10.0, "B": 20.0}, CostModel(),
                  D0, frozen={"A"})
        assert portfolio.holdings["A"] == 50.0

    def test_overweight_targets_rejected(self):
        with pytest.raises(ValidationError):
            rebalance(Portfolio(cash=100.0), {"A": 0.7, "B": 0.7},
                      {"A": 1.0, "B": 1.0}, CostModel(), D0)

    def test_missing_price_rejected(self):
        with pytest.raises(RebalanceError):
            rebalance(Portfolio(cash=100.0), {"A": 1.0}, {}, CostModel(), D0)

    def test_order_of_infinite_shares_rejected(self):
        # 0.5 of 1000 over a subnormal price of 1e-320 overflows to inf shares
        with pytest.raises(RebalanceError, match=r"^the order for A on 2015-06-30 is inf "
                                                 r"shares at a price of 1e-320$"):
            rebalance(Portfolio(cash=1000.0), {"A": 0.5, "B": 0.5},
                      {"A": 1e-320, "B": 10.0}, CostModel(), D0)

    def test_overflowing_valuation_rejected(self):
        # 1e308 in cash and 1e308 in A overflow to inf before any order is sized
        with pytest.raises(RebalanceError, match=r"^the portfolio value on 2015-06-30 is inf$"):
            rebalance(Portfolio(cash=1e308, holdings={"A": 1e307}), {"A": 1.0},
                      {"A": 10.0}, CostModel(), D0)

    def test_negative_cost_rates_rejected(self):
        # rebalance takes a CostModel as valid: one with a negative rate cannot be built
        with pytest.raises(ConfigError, match=r"^commission_rate: must be >= 0$"):
            CostModel(commission_rate=-0.1)


class TestMarkToMarket:
    def test_single_holding_gain(self):
        portfolio = Portfolio(cash=0.0, holdings={"A": 50.0})
        assert portfolio.valuation({"A": 11.0}) / 500.0 - 1.0 == pytest.approx(0.10)

    def test_all_cash_is_flat(self):
        assert Portfolio(cash=1000.0).valuation({}) == 1000.0

    def test_prices_of_stocks_not_held_are_ignored(self):
        portfolio = Portfolio(cash=5.0, holdings={"A": 2.0})
        assert portfolio.valuation({"A": 10.0, "B": 99.0}) == 25.0

    def test_first_day_has_no_return(self, tmp_path):
        days = [Date(2015, 6, 29), D0, Date(2015, 7, 1)]
        result = BacktestResult(dates=days, values=[100.0, 110.0, 99.0],
                                daily_returns=[0.1, -0.1], benchmark_returns=[0.01, 0.02],
                                trades=[], rankings=[])
        write_series_csv(result, tmp_path / "series.csv")
        first = (tmp_path / "series.csv").read_text().splitlines()[1]
        assert first == "2015-06-29,100,,"
        assert read_series_csv(tmp_path / "series.csv") == (days[1:], [0.1, -0.1], [0.01, 0.02])

    def test_offsetting_moves_cancel(self):
        portfolio = Portfolio(cash=0.0, holdings={"A": 10.0, "B": 10.0})
        before = portfolio.valuation({"A": 100.0, "B": 100.0})
        after = portfolio.valuation({"A": 110.0, "B": 90.0})
        assert after / before - 1.0 == pytest.approx(0.0, abs=1e-12)


def _replay_value(result, initial_capital, final_prices):
    cash = initial_capital
    holdings = {}
    for t in result.trades:
        if t.side == "buy":
            cash -= t.shares * t.price + t.cost
            holdings[t.stock_id] = holdings.get(t.stock_id, 0.0) + t.shares
        else:
            cash += t.shares * t.price - t.cost
            holdings[t.stock_id] = holdings.get(t.stock_id, 0.0) - t.shares
    value = cash
    for stock_id, shares in holdings.items():
        if shares > 1e-12:
            value += shares * final_prices[stock_id]
    return value


class TestRunScenario:
    def test_seven_action_days_and_series_shapes(self, crash_market):
        config = ScenarioConfig(start=Date(2015, 6, 1), end=Date(2015, 12, 31),
                                holdings=5, train_config=TrainConfig(seed=3))
        result = run_scenario(MarketStore(crash_market), "linreg", config)
        assert len(result.rankings) == 7
        assert len(result.values) == len(result.dates)
        assert len(result.daily_returns) == len(result.dates) - 1
        assert len(result.benchmark_returns) == len(result.dates) - 1
        for v0, v1, r in zip(result.values, result.values[1:],
                             result.daily_returns):
            assert v1 / v0 - 1.0 == pytest.approx(r, abs=1e-12)

    def test_cash_until_first_action_day(self, crash_market):
        config = ScenarioConfig(start=Date(2015, 6, 1), end=Date(2015, 12, 31),
                                holdings=5, train_config=TrainConfig(seed=3))
        result = run_scenario(MarketStore(crash_market), "linreg", config)
        first_action = result.rankings[0].date
        for d, v in zip(result.dates, result.values):
            if d < first_action:
                assert v == config.initial_capital
        assert result.trades[0].date == first_action

    def test_trade_replay_matches_final_value(self, crash_market):
        config = ScenarioConfig(start=Date(2015, 6, 1), end=Date(2015, 12, 31),
                                holdings=5, train_config=TrainConfig(seed=3),
                                costs=CostModel(commission_rate=0.001,
                                                sell_tax_rate=0.001))
        result = run_scenario(MarketStore(crash_market), "linreg", config)
        final_prices = {}
        for stock_id in crash_market.stocks:
            for d in reversed(result.dates):
                close = crash_market.tradeable_close(stock_id, d)
                if close is not None:
                    final_prices[stock_id] = close
                    break
        replayed = _replay_value(result, config.initial_capital, final_prices)
        assert replayed == pytest.approx(result.values[-1], rel=1e-9)

    def test_determinism(self, crash_market):
        config = ScenarioConfig(start=Date(2015, 9, 1), end=Date(2015, 12, 31),
                                holdings=5, train_config=TrainConfig(seed=7))
        a = run_scenario(MarketStore(crash_market), "fcnn", config)
        b = run_scenario(MarketStore(crash_market), "fcnn", config)
        assert a.values == b.values
        assert [(t.stock_id, t.shares) for t in a.trades] == \
               [(t.stock_id, t.shares) for t in b.trades]

    def test_capital_times_a_power_of_two_scales_every_amount(self, tmp_path):
        """At capital C * 2**-60 each share count, cost and value is C's times
        2**-60, exactly, so series.csv's dates and returns and ranking.csv are
        the same bytes: no holding is dropped for being small."""
        market = generate_synthetic_market(SyntheticMarketConfig(
            seed=1, n_stocks=12, start=Date(2014, 1, 1), end=Date(2015, 12, 31),
            regime="crash", planted_signal_strength=0.5))[0]
        store = MarketStore(market)
        runs = []
        for scale in (1.0, 2.0 ** -60):
            config = ScenarioConfig(start=Date(2015, 7, 1), end=Date(2015, 12, 31), holdings=5,
                                    initial_capital=1e6 * scale,
                                    costs=CostModel(commission_rate=0.0003, sell_tax_rate=0.001))
            result = run_scenario(store, "linreg", config)
            write_series_csv(result, tmp_path / "series.csv")
            write_ranking_csv(result.rankings, tmp_path / "ranking.csv")
            series = [row.split(",") for row in (tmp_path / "series.csv").read_text().splitlines()]
            runs.append((
                [row[:1] + row[2:] for row in series], (tmp_path / "ranking.csv").read_bytes(),
                [value / scale for value in result.values],
                [(t.date, t.stock_id, t.side, t.shares / scale, t.price, t.cost / scale)
                 for t in result.trades]))
        assert len(runs[0][3]) > 10
        assert runs[1] == runs[0]

    def test_scenario_training_seed_is_used(self, crash_market):
        rankings = []
        for seed in (5, 6):
            config = ScenarioConfig(start=Date(2015, 11, 1), end=Date(2015, 12, 31),
                                    holdings=5,
                                    train_config=TrainConfig(epochs=1, seed=seed))
            result = run_scenario(MarketStore(crash_market), "fcnn", config)
            rankings.append([r.entries for r in result.rankings])
        assert rankings[0] != rankings[1]

    def test_ranking_pass_precedes_trading(self, crash_market, monkeypatch):
        ranked = []
        rebalanced = []
        rank_stocks = backtest.rank_stocks

        class PlantedFailure(frozenset):
            def __iter__(self):
                raise StrategyError("planted failure")

        def fail_on_third_day(kind, store, days, *args):
            def planted():
                for d, universe in days:
                    ranked.append(d)
                    yield d, PlantedFailure() if len(ranked) == 3 else universe
            return rank_stocks(kind, store, planted(), *args)

        def record_rebalance(*args):
            rebalanced.append(args)
            return []

        monkeypatch.setattr(backtest, "rank_stocks", fail_on_third_day)
        monkeypatch.setattr(backtest, "rebalance", record_rebalance)
        config = ScenarioConfig(start=Date(2015, 6, 1), end=Date(2015, 12, 31), holdings=5)
        with pytest.raises(StrategyError) as caught:
            run_scenario(MarketStore(crash_market), "linreg", config)
        assert ranked[2] == Date(2015, 8, 31)
        assert len(ranked) == 3
        assert str(caught.value) == "2015-08-31: planted failure"
        assert rebalanced == []

    def test_empty_range_rejected(self, crash_market):
        config = ScenarioConfig(start=Date(2015, 6, 6), end=Date(2015, 6, 7))
        with pytest.raises(ValidationError):
            run_scenario(MarketStore(crash_market), "linreg", config)

    def test_each_call_sees_the_dataset_as_it_is(self):
        def market():
            return generate_synthetic_market(SyntheticMarketConfig(
                seed=2, n_stocks=30, start=Date(2014, 1, 1), end=Date(2015, 12, 31),
                regime="crash", planted_signal_strength=0.5))[0]

        def inflate_turnover(dataset):
            bars_of(dataset, "S0000").turnover[:] *= 3.0

        config = ScenarioConfig(start=Date(2015, 9, 1), end=Date(2015, 10, 31),
                                holdings=5, train_config=TrainConfig(seed=1))
        dataset = market()
        first = run_scenario(MarketStore(dataset), "linreg", config)
        inflate_turnover(dataset)
        second = run_scenario(MarketStore(dataset), "linreg", config)
        fresh = market()
        inflate_turnover(fresh)
        expected = run_scenario(MarketStore(fresh), "linreg", config)
        assert [r.entries for r in second.rankings] != [r.entries for r in first.rankings]
        assert [r.entries for r in second.rankings] == [r.entries for r in expected.rankings]

    def test_suspended_holding_carries_last_close(self):
        market = flat_market({f"S{i}": 50.0 + i for i in range(12)})
        # suspend S0 from the July action day onward
        bars = bars_of(market, "S0")
        bars.suspended[bars.dates.index(Date(2015, 7, 31)):] = True
        config = ScenarioConfig(start=Date(2015, 6, 1), end=Date(2015, 8, 31),
                                holdings=12, train_config=TrainConfig(seed=0))
        result = run_scenario(MarketStore(market), "linreg", config)
        # flat prices, no costs: valuation never moves even while S0 is frozen
        traded = {t.stock_id for t in result.trades}
        assert "S0" in traded
        assert all(t.side == "buy" for t in result.trades if t.stock_id == "S0")
        for v in result.values[result.dates.index(result.rankings[0].date):]:
            assert v == pytest.approx(config.initial_capital, rel=1e-12)

    def test_each_stock_is_priced_once_a_day(self, crash_market, monkeypatch):
        # the trading loop's lookups, after the ranking pass
        lookups = []
        tradeable_close = MarketDataset.tradeable_close

        def record(dataset, stock_id, d):
            lookups.append((stock_id, d))
            return tradeable_close(dataset, stock_id, d)

        store = MarketStore(crash_market)
        config = ScenarioConfig(start=Date(2015, 6, 1), end=Date(2015, 12, 31),
                                holdings=5, train_config=TrainConfig(seed=3))
        rankings = rank_stocks("linreg", store, scenario(store, config)[2],
                               config.window, config.train_config)
        monkeypatch.setattr(MarketDataset, "tradeable_close", record)
        result = trade(store, rankings, config)
        assert {(t.stock_id, t.date) for t in result.trades} <= set(lookups)
        assert [key for key, n in Counter(lookups).items() if n > 1] == []

    def test_untradeable_holdings_keep_their_shares(self):
        july, august = Date(2015, 7, 31), Date(2015, 8, 31)
        flat = flat_market({f"S{i}": 50.0 + i for i in range(6)})
        # S1's bars stop in mid-July, while it is held
        market = build_market([row for row in bar_rows(flat)
                               if row[0] != "S1" or row[1] <= Date(2015, 7, 15)],
                              benchmark_of(flat), snapshots(flat))
        # S0 is suspended over the July action day and trades again in August
        bars = bars_of(market, "S0")
        bars.suspended[bars.dates.index(Date(2015, 7, 27)):bars.dates.index(Date(2015, 8, 7))] = True

        store = MarketStore(market)
        config = ScenarioConfig(start=Date(2015, 6, 1), end=Date(2015, 10, 31), holdings=4)
        rankings = [Ranking(date=d, entries=[
            (s, 1.0) for s in (["S0", "S1", "S2", "S3"] if d < july
                               else ["S2", "S3", "S4", "S5"])])
                    for d, _ in scenario(store, config)[2]]
        result = trade(store, rankings, config)

        def trades_of(stock_id):
            return [(t.date, t.side, t.shares) for t in result.trades if t.stock_id == stock_id]

        # S0 is not sold while suspended, but on the first action day after
        bought = trades_of("S0")[0][2]
        assert trades_of("S0") == [(Date(2015, 6, 30), "buy", bought),
                                   (august, "sell", bought)]
        # S1 is never sold: it is carried at its last close to the end
        assert [(d, side) for d, side, _ in trades_of("S1")] == [(Date(2015, 6, 30), "buy")]
        assert result.dates[-1] == Date(2015, 10, 30)
        for v in result.values:
            assert v == pytest.approx(config.initial_capital, rel=1e-12)


def ranking_alone(kind, store, d, universe, w, config):
    """(training-set size, ranking) of one action day, trained as rank_stocks
    trained each day before days were stacked: one model, on its own."""
    dataset = store.dataset
    panels = [drop_sparse_rows(build_panel(store, universe, day))
              for day in build_window(dataset.calendar, d, w) + [d]]
    stats = strategies._pooled_stats(panels[:-1])
    normalized = [apply_normalization(p.matrix, p.missing, stats) for p in panels]
    if kind == "fcnn":
        samples, labels = strategies._flat_samples(dataset, panels, normalized)
        stocks, inputs = panels[-1].stocks, normalized[-1]
        model = MlpModel.create(seed=config.seed)
    else:
        samples, labels = strategies._sequence_samples(dataset, panels, normalized)
        stocks, inputs = strategies._sequences(panels[1:], normalized[1:])
        model = LstmModel.create(seed=config.seed)
    model, _ = train(model, samples, labels, config)
    scores = {stock_id: float(p) for stock_id, p in zip(stocks, model.forward(inputs))}
    return len(samples), Ranking(d, sorted(scores.items(), key=lambda kv: (-kv[1], kv[0])))


class TestRankingPass:
    @pytest.mark.parametrize("kind", ["fcnn", "lstm"])
    @pytest.mark.parametrize("market_name,sizes_differ", [
        ("crash_market", False), ("gapped_market", True)])
    def test_stacked_days_rank_as_days_trained_alone(self, request, kind, market_name,
                                                     sizes_differ):
        market = request.getfixturevalue(market_name)
        config = ScenarioConfig(start=Date(2015, 7, 1), end=Date(2015, 12, 31),
                                train_config=TrainConfig(epochs=3, seed=11))
        store = MarketStore(market)
        rankings = rank_stocks(kind, store, scenario(store, config)[2], config.window,
                               config.train_config)
        alone = [ranking_alone(kind, MarketStore(market), d, eligible_universe(market, d),
                               config.window,
                               replace(config.train_config, seed=11 + i * SEED_STRIDE))
                 for i, d in enumerate(action_days(market.calendar, config.start, config.end))]
        assert (len({n for n, _ in alone}) > 1) == sizes_differ
        assert [(r.date, r.entries) for r in rankings] == [(r.date, r.entries) for _, r in alone]
