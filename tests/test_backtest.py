"""Portfolio rebalance arithmetic and scenario-level accounting."""

from datetime import date as Date

import pytest

from conftest import flat_market, make_bar, build_market
from rollingquant.backtest import (
    CostModel,
    Portfolio,
    ScenarioConfig,
    mark_to_market,
    rebalance,
    run_scenario,
)
from rollingquant.errors import RebalanceError, ValidationError
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

    def test_negative_cost_rates_rejected(self):
        with pytest.raises(ValidationError):
            rebalance(Portfolio(cash=100.0), {"A": 1.0}, {"A": 1.0},
                      CostModel(commission_rate=-0.1), D0)


class TestMarkToMarket:
    def test_single_holding_gain(self):
        portfolio = Portfolio(cash=0.0, holdings={"A": 50.0})
        value, ret = mark_to_market(portfolio, {"A": 11.0}, 500.0)
        assert value == pytest.approx(550.0)
        assert ret == pytest.approx(0.10)

    def test_all_cash_is_flat(self):
        value, ret = mark_to_market(Portfolio(cash=1000.0), {}, 1000.0)
        assert value == 1000.0
        assert ret == 0.0

    def test_first_day_has_no_return(self):
        _, ret = mark_to_market(Portfolio(cash=1000.0), {})
        assert ret is None

    def test_offsetting_moves_cancel(self):
        portfolio = Portfolio(cash=0.0, holdings={"A": 10.0, "B": 10.0})
        previous = portfolio.valuation({"A": 100.0, "B": 100.0})
        _, ret = mark_to_market(portfolio, {"A": 110.0, "B": 90.0}, previous)
        assert ret == pytest.approx(0.0, abs=1e-12)


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
                                holdings=5, seed=3)
        result = run_scenario(crash_market, "linreg", config)
        assert len(result.rankings) == 7
        assert len(result.values) == len(result.dates)
        assert len(result.daily_returns) == len(result.dates) - 1
        assert len(result.benchmark_returns) == len(result.dates) - 1
        for v0, v1, r in zip(result.values, result.values[1:],
                             result.daily_returns):
            assert v1 / v0 - 1.0 == pytest.approx(r, abs=1e-12)

    def test_cash_until_first_action_day(self, crash_market):
        config = ScenarioConfig(start=Date(2015, 6, 1), end=Date(2015, 12, 31),
                                holdings=5, seed=3)
        result = run_scenario(crash_market, "linreg", config)
        first_action = result.rankings[0].date
        for d, v in zip(result.dates, result.values):
            if d < first_action:
                assert v == config.initial_capital
        assert result.trades[0].date == first_action

    def test_trade_replay_matches_final_value(self, crash_market):
        config = ScenarioConfig(start=Date(2015, 6, 1), end=Date(2015, 12, 31),
                                holdings=5, seed=3,
                                costs=CostModel(commission_rate=0.001,
                                                sell_tax_rate=0.001))
        result = run_scenario(crash_market, "linreg", config)
        final_prices = {}
        end = result.dates[-1]
        for stock_id, by_date in crash_market.bars.items():
            for d in reversed(result.dates):
                bar = by_date.get(d)
                if bar is not None and not bar.is_suspended:
                    final_prices[stock_id] = bar.close
                    break
        replayed = _replay_value(result, config.initial_capital, final_prices)
        assert replayed == pytest.approx(result.values[-1], rel=1e-9)

    def test_determinism(self, crash_market):
        config = ScenarioConfig(start=Date(2015, 9, 1), end=Date(2015, 12, 31),
                                holdings=5, seed=7)
        a = run_scenario(crash_market, "fcnn", config)
        b = run_scenario(crash_market, "fcnn", config)
        assert a.values == b.values
        assert [(t.stock_id, t.shares) for t in a.trades] == \
               [(t.stock_id, t.shares) for t in b.trades]

    def test_empty_range_rejected(self, crash_market):
        config = ScenarioConfig(start=Date(2015, 6, 6), end=Date(2015, 6, 7))
        with pytest.raises(ValidationError):
            run_scenario(crash_market, "linreg", config)

    def test_each_call_sees_the_dataset_as_it_is(self):
        def market():
            return generate_synthetic_market(SyntheticMarketConfig(
                seed=2, n_stocks=30, start=Date(2014, 1, 1), end=Date(2015, 12, 31),
                regime="crash", planted_signal_strength=0.5))

        def inflate_turnover(dataset):
            for bar in dataset.bars["S0000"].values():
                bar.turnover_ratio *= 3.0

        config = ScenarioConfig(start=Date(2015, 9, 1), end=Date(2015, 10, 31),
                                holdings=5, seed=1)
        dataset = market()
        first = run_scenario(dataset, "linreg", config)
        inflate_turnover(dataset)
        second = run_scenario(dataset, "linreg", config)
        fresh = market()
        inflate_turnover(fresh)
        expected = run_scenario(fresh, "linreg", config)
        assert [r.entries for r in second.rankings] != [r.entries for r in first.rankings]
        assert [r.entries for r in second.rankings] == [r.entries for r in expected.rankings]

    def test_suspended_holding_carries_last_close(self):
        market = flat_market({f"S{i}": 50.0 + i for i in range(12)})
        # suspend S0 from the July action day onward
        for d, bar in market.bars["S0"].items():
            if d >= Date(2015, 7, 31):
                bar.is_suspended = True
        config = ScenarioConfig(start=Date(2015, 6, 1), end=Date(2015, 8, 31),
                                holdings=12, seed=0)
        result = run_scenario(market, "linreg", config)
        # flat prices, no costs: valuation never moves even while S0 is frozen
        traded = {t.stock_id for t in result.trades}
        assert "S0" in traded
        assert all(t.side == "buy" for t in result.trades if t.stock_id == "S0")
        for v in result.values[result.dates.index(result.rankings[0].date):]:
            assert v == pytest.approx(config.initial_capital, rel=1e-12)
