"""Monthly-rebalance portfolio simulation in two passes.

The ranking pass (rank_scenario) ranks every action day of the scenario
range; the trading loop only reads those rankings. Trades fill at action-day
closes; the portfolio is marked to market every trading day. Suspended
holdings are carried at their last known close and liquidated at the first
tradeable opportunity when not in targets.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from datetime import date as Date

from .errors import RebalanceError, StrategyError, ValidationError
from .factors import MarketStore
from .marketdata import action_days, eligible_universe
from .numerics import TrainConfig
from .strategies import DEFAULT_HOLDINGS, DEFAULT_WINDOW, Ranking, rank_stocks, select_targets

DEFAULT_INITIAL_CAPITAL = 1_000_000.0
# Per-action-day training-seed stride; keeps per-rebalance streams disjoint.
SEED_STRIDE = 10_007


@dataclass
class CostModel:
    commission_rate: float = 0.0
    sell_tax_rate: float = 0.0
    lot_size: float = 0.0  # 0 means fractional shares

    def validate(self):
        # written so that a NaN fails too
        if not (self.commission_rate >= 0 and self.sell_tax_rate >= 0 and self.lot_size >= 0):
            raise ValidationError("cost rates and lot size must be >= 0")


@dataclass
class Portfolio:
    cash: float
    holdings: dict[str, float] = field(default_factory=dict)

    def valuation(self, prices) -> float:
        total = self.cash
        for stock_id, shares in self.holdings.items():
            total += shares * prices[stock_id]
        return total


@dataclass
class Trade:
    date: Date
    stock_id: str
    side: str  # "buy" | "sell"
    shares: float
    price: float
    cost: float


def _round_lot(shares: float, lot: float) -> float:
    if lot <= 0:
        return shares
    return lot * int(shares / lot + 1e-12)


def rebalance(portfolio: Portfolio, targets: dict[str, float], prices: dict[str, float],
              costs: CostModel, date: Date, frozen=frozenset()):
    """Trade to target weights of current valuation; returns the trade list.

    frozen stocks cannot be traded this day and keep their current shares.
    """
    costs.validate()
    if sum(targets.values()) > 1.0 + 1e-9:
        raise ValidationError("target weights must sum to at most 1")
    for stock_id in set(portfolio.holdings) | set(targets):
        if stock_id not in prices:
            raise RebalanceError(f"no price for {stock_id} on {date.isoformat()}")

    value = portfolio.valuation(prices)
    trades: list[Trade] = []

    # Sells first (full exits and trims), so buys see the freed-up cash.
    sells = []
    buys = []
    for stock_id in sorted(set(portfolio.holdings) | set(targets)):
        if stock_id in frozen:
            continue
        current = portfolio.holdings.get(stock_id, 0.0)
        desired = targets.get(stock_id, 0.0) * value / prices[stock_id]
        delta = desired - current
        if delta < 0:
            sells.append((stock_id, min(-delta, current)))
        elif delta > 0:
            buys.append((stock_id, delta))

    for stock_id, shares in sells:
        shares = _round_lot(shares, costs.lot_size)
        if shares <= 0:
            continue
        notional = shares * prices[stock_id]
        cost = notional * (costs.commission_rate + costs.sell_tax_rate)
        portfolio.cash += notional - cost
        portfolio.holdings[stock_id] = portfolio.holdings.get(stock_id, 0.0) - shares
        if portfolio.holdings[stock_id] <= 1e-12:
            del portfolio.holdings[stock_id]
        trades.append(Trade(date, stock_id, "sell", shares, prices[stock_id], cost))

    outlay = sum(shares * prices[s] for s, shares in buys) * (1.0 + costs.commission_rate)
    scale = 1.0 if outlay <= portfolio.cash or outlay == 0 else portfolio.cash / outlay
    for stock_id, shares in buys:
        shares = _round_lot(shares * scale, costs.lot_size)
        if shares <= 0:
            continue
        notional = shares * prices[stock_id]
        cost = notional * costs.commission_rate
        portfolio.cash -= notional + cost
        portfolio.holdings[stock_id] = portfolio.holdings.get(stock_id, 0.0) + shares
        trades.append(Trade(date, stock_id, "buy", shares, prices[stock_id], cost))
    if portfolio.cash < -1e-9 * max(value, 1.0):
        raise RebalanceError(f"cash went negative on {date.isoformat()}")
    portfolio.cash = max(portfolio.cash, 0.0)
    return trades


def mark_to_market(portfolio: Portfolio, prices, previous_valuation: float | None = None):
    """(valuation, daily return); return is None without a previous value."""
    value = portfolio.valuation(prices)
    if previous_valuation is None:
        return value, None
    return value, value / previous_valuation - 1.0


@dataclass
class ScenarioConfig:
    start: Date
    end: Date
    window: int = DEFAULT_WINDOW
    holdings: int = DEFAULT_HOLDINGS
    initial_capital: float = DEFAULT_INITIAL_CAPITAL
    costs: CostModel = field(default_factory=CostModel)
    # action day i trains with train_config.seed + i * SEED_STRIDE
    train_config: TrainConfig = field(default_factory=TrainConfig)


@dataclass
class BacktestResult:
    dates: list[Date]
    values: list[float]
    daily_returns: list[float]       # length len(dates) - 1
    benchmark_returns: list[float]   # length len(dates) - 1
    trades: list[Trade]
    rankings: list[Ranking]  # one per action day


def rank_scenario(store: MarketStore, strategy: str, config: ScenarioConfig) -> list[Ranking]:
    """One ranking per action day of the scenario range, in date order.

    Action day i ranks its eligible universe with training seed
    train_config.seed + i * SEED_STRIDE. A StrategyError names the first
    failing day.
    """
    rankings = []
    for i, d in enumerate(action_days(store.dataset.calendar, config.start, config.end)):
        universe = eligible_universe(store.dataset, d)
        seed = config.train_config.seed + i * SEED_STRIDE
        try:
            rankings.append(rank_stocks(strategy, store, d, universe, config.window,
                                        replace(config.train_config, seed=seed)))
        except StrategyError as exc:
            raise StrategyError(f"{d.isoformat()}: {exc}") from exc
    return rankings


def run_scenario(store: MarketStore, strategy: str, config: ScenarioConfig) -> BacktestResult:
    """Simulate one strategy over the scenario range on the run's store.

    All action days are ranked first; the daily loop then trades each day's
    top holdings. The store shares factor rows with the run's other scenarios.
    """
    dataset = store.dataset
    days = dataset.calendar.days_between(config.start, config.end)
    if not days:
        raise ValidationError("scenario range contains no trading days")
    rankings = rank_scenario(store, strategy, config)
    targets = {r.date: select_targets(r, config.holdings) for r in rankings}

    portfolio = Portfolio(cash=config.initial_capital)
    last_close: dict[str, float] = {}
    values: list[float] = []
    returns: list[float] = []
    trades: list[Trade] = []
    previous = None

    for d in days:
        # Carry forward the last tradeable close for every held stock.
        for stock_id in portfolio.holdings:
            close = dataset.tradeable_close(stock_id, d)
            if close is not None:
                last_close[stock_id] = close

        if d in targets:
            prices = {}
            frozen = set()
            for stock_id in set(portfolio.holdings) | set(targets[d]):
                close = dataset.tradeable_close(stock_id, d)
                if close is not None:
                    prices[stock_id] = last_close[stock_id] = close
                elif stock_id in last_close:
                    prices[stock_id] = last_close[stock_id]
                    frozen.add(stock_id)
            trades.extend(rebalance(portfolio, targets[d], prices,
                                    config.costs, d, frozen))

        prices = {s: last_close[s] for s in portfolio.holdings}
        value, ret = mark_to_market(portfolio, prices, previous)
        values.append(value)
        if ret is not None:
            returns.append(ret)
        previous = value

    bench = [dataset.benchmark[d] for d in days]
    bench_returns = [b1 / b0 - 1.0 for b0, b1 in zip(bench, bench[1:])]

    return BacktestResult(
        dates=list(days),
        values=values,
        daily_returns=returns,
        benchmark_returns=bench_returns,
        trades=trades,
        rankings=rankings,
    )
