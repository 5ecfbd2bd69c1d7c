"""Monthly-rebalance portfolio simulation: rankings in, portfolio out.

scenario derives a range's days, benchmark returns and eligible universes
once per run. run_scenario ranks each action day, then trade trades the
rankings; trade takes any ranker's rankings. Trades fill at action-day
closes; the portfolio is valued every trading day at each holding's last
tradeable close. A holding that does not trade on an action day keeps its
shares at its last close. It is sold only on a later action day on which it
trades and is not a target, so a holding whose bars have ended is carried at
its last close to the end. A ScenarioConfig and its CostModel check their
ranges when built, so a rebalance trusts the costs it is given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import date as Date

from .errors import ConfigError, RebalanceError, ValidationError, require
from .factors import MarketStore
from .marketdata import action_days, eligible_universe
from .metrics import MIN_REPORT_RETURNS
from .numerics import TrainConfig
from .strategies import DEFAULT_HOLDINGS, DEFAULT_WINDOW, Ranking, rank_stocks, select_targets

DEFAULT_INITIAL_CAPITAL = 1_000_000.0


@dataclass(frozen=True)
class CostModel:
    commission_rate: float = 0.0
    sell_tax_rate: float = 0.0
    lot_size: float = 0.0  # 0 means fractional shares

    def __post_init__(self):
        require(commission_rate=(self.commission_rate >= 0, ">= 0"),
                sell_tax_rate=(self.sell_tax_rate >= 0, ">= 0"),
                lot_size=(self.lot_size >= 0, ">= 0"))
        require(lot_size=(math.isfinite(self.lot_size), "finite"))
        # at a sum of 1 a sale pays all its proceeds in costs, and a portfolio
        # sold out is worth 0, which no daily return can divide by
        if not self.commission_rate + self.sell_tax_rate < 1:
            raise ConfigError("commission_rate + sell_tax_rate must be below 1")


@dataclass
class Portfolio:
    cash: float
    holdings: dict[str, float] = field(default_factory=dict)

    def valuation(self, prices) -> float:
        total = self.cash
        for stock_id, shares in self.holdings.items():
            total += shares * prices[stock_id]
        return total


def _value(portfolio: Portfolio, prices, date: Date) -> float:
    """The portfolio's valuation at prices on date. One that overflows to inf
    or nan is a RebalanceError: no return or order can be taken from it."""
    value = portfolio.valuation(prices)
    if not math.isfinite(value):
        raise RebalanceError(f"the portfolio value on {date.isoformat()} is {value}")
    return value


@dataclass
class Trade:
    date: Date
    stock_id: str
    side: str  # "buy" | "sell"
    shares: float
    price: float
    cost: float


def _round_lot(shares: float, lot: float) -> float:
    # shares / lot is inf when the lot is finer than the float spacing of shares: no rounding
    if lot <= 0 or not math.isfinite(shares / lot):
        return shares
    return lot * int(shares / lot + 1e-12)


def rebalance(portfolio: Portfolio, targets: dict[str, float], prices: dict[str, float],
              costs: CostModel, date: Date, frozen=frozenset()):
    """Trade to target weights of current valuation; returns the trade list.

    frozen stocks cannot be traded this day and keep their current shares.
    """
    if sum(targets.values()) > 1.0 + 1e-9:
        raise ValidationError("target weights must sum to at most 1")
    for stock_id in set(portfolio.holdings) | set(targets):
        if stock_id not in prices:
            raise RebalanceError(f"no price for {stock_id} on {date.isoformat()}")

    value = _value(portfolio, prices, date)
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
        # a price so small that value / price overflows orders inf shares
        if not math.isfinite(delta):
            raise RebalanceError(f"the order for {stock_id} on {date.isoformat()} is {delta} "
                                 f"shares at a price of {prices[stock_id]}")
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
        if portfolio.holdings[stock_id] <= 0:
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


@dataclass(frozen=True)
class ScenarioConfig:
    start: Date
    end: Date
    window: int = DEFAULT_WINDOW
    holdings: int = DEFAULT_HOLDINGS
    initial_capital: float = DEFAULT_INITIAL_CAPITAL
    costs: CostModel = field(default_factory=CostModel)
    # action day i trains with train_config.seed + i * strategies.SEED_STRIDE
    train_config: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        require(start=(self.start < self.end, "before end"),
                window=(self.window >= 1, ">= 1"), holdings=(self.holdings >= 1, ">= 1"),
                initial_capital=(self.initial_capital > 0, "> 0"))


@dataclass
class BacktestResult:
    dates: list[Date]
    values: list[float]
    daily_returns: list[float]       # length len(dates) - 1
    benchmark_returns: list[float]   # length len(dates) - 1
    trades: list[Trade]
    rankings: list[Ranking]  # one per action day


def scenario(store: MarketStore, config: ScenarioConfig):
    """(trading days, benchmark daily returns over them, each action day with
    its eligible universe) of the scenario range, computed once per store
    and range: a run's strategies share them, so none may change them."""
    def compute():
        dataset = store.dataset
        days = dataset.calendar.days_between(config.start, config.end)
        if len(days) < MIN_REPORT_RETURNS + 1:  # a return is taken between two days
            raise ValidationError(f"a report needs at least {MIN_REPORT_RETURNS + 1} trading days "
                                  f"in the scenario range {config.start.isoformat()}.."
                                  f"{config.end.isoformat()}, got {len(days)}")
        first = dataset.calendar.index[days[0]]  # days is a run of the calendar
        bench = dataset.benchmark[first:first + len(days)].tolist()
        universes = [(d, eligible_universe(dataset, d))
                     for d in action_days(dataset.calendar, config.start, config.end)]
        return days, [b1 / b0 - 1.0 for b0, b1 in zip(bench, bench[1:])], universes
    return store.memo(("scenario", config.start, config.end), compute)


def run_scenario(store: MarketStore, strategy: str, config: ScenarioConfig) -> BacktestResult:
    """Rank each action day of the scenario with strategy, on its eligible
    universe, then trade the rankings. The store shares the scenario and
    factor rows with the run's other strategies."""
    _, _, universes = scenario(store, config)
    rankings = rank_stocks(strategy, store, universes, config.window, config.train_config)
    return trade(store, rankings, config)


def trade(store: MarketStore, rankings: list[Ranking], config: ScenarioConfig) -> BacktestResult:
    """Trade any ranker's rankings over the scenario range: on each ranking's
    action day, rebalance to its top holdings at equal weight."""
    dataset = store.dataset
    days, bench_returns, _ = scenario(store, config)
    targets = {r.date: select_targets(r, config.holdings) for r in rankings}

    portfolio = Portfolio(cash=config.initial_capital)
    last_close: dict[str, float] = {}
    values: list[float] = []
    trades: list[Trade] = []

    for d in days:
        # one lookup per held or targeted stock; a stock that does not trade
        # today keeps its last close
        names = set(portfolio.holdings) | set(targets.get(d, ()))
        traded = set()
        for stock_id in names:
            close = dataset.tradeable_close(stock_id, d)
            if close is not None:
                last_close[stock_id] = close
                traded.add(stock_id)
        if d in targets:
            prices = {s: last_close[s] for s in names if s in last_close}
            trades.extend(rebalance(portfolio, targets[d], prices, config.costs, d,
                                    prices.keys() - traded))
        values.append(_value(portfolio, last_close, d))

    return BacktestResult(
        dates=list(days),
        values=values,
        daily_returns=[v1 / v0 - 1.0 for v0, v1 in zip(values, values[1:])],
        benchmark_returns=list(bench_returns),
        trades=trades,
        rankings=rankings,
    )
