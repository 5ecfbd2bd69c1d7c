"""Deterministic monthly-rebalance backtester for three factor-ranking
strategies: linear-regression valuation skew, a dense excess-return
projector, and a from-scratch LSTM sequence projector."""

from .backtest import BacktestResult, CostModel, Portfolio, ScenarioConfig, run_scenario
from .marketdata import (
    EligibilityRules,
    MarketDataset,
    TradingCalendar,
    action_days,
    eligible_universe,
    load_dataset,
)
from .metrics import ReturnSeries, ScenarioReport, build_report, sharpe_ratio, similarity_to_benchmark
from .numerics import LstmModel, MlpModel, TrainConfig, gradient_check, least_squares_fit, mse, train
from .strategies import Ranking, build_window, rank_stocks, select_targets
from .synthetic import SyntheticMarketConfig, generate_synthetic_market

__all__ = [
    "BacktestResult", "CostModel", "Portfolio", "ScenarioConfig", "run_scenario",
    "EligibilityRules", "MarketDataset", "TradingCalendar", "action_days",
    "eligible_universe", "load_dataset",
    "ReturnSeries", "ScenarioReport", "build_report", "sharpe_ratio",
    "similarity_to_benchmark",
    "LstmModel", "MlpModel", "TrainConfig", "gradient_check", "least_squares_fit",
    "mse", "train",
    "Ranking", "build_window", "rank_stocks", "select_targets",
    "SyntheticMarketConfig", "generate_synthetic_market",
]

__version__ = "0.1.0"
