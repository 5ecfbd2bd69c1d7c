"""The three ranking strategies and the rolling-window training protocol.

All three retrain from scratch on each action day using only the W most
recent preceding action days, then rank the eligible cross-section:

* linreg - fits the day's log market cap to the other 46 factors and ranks
  by the fitted-minus-actual gap (undervalued first).
* fcnn   - dense network trained on realized next-action-day excess returns,
  one flat sample per (stock, training day).
* lstm   - recurrent network trained on per-stock 3-step factor sequences;
  prediction uses the training window shifted right by one action day.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date as Date

import numpy as np

from .errors import StrategyError, ValidationError
from .factors import (
    LN_MCAP_INDEX,
    MarketStore,
    apply_normalization,
    build_panel,
    compute_normalization,
    drop_sparse_rows,
    normalize_panel,
)
from .marketdata import MarketDataset, TradingCalendar
from .numerics import LstmModel, MlpModel, TrainConfig, least_squares_fit, train

STRATEGY_KINDS = ("linreg", "fcnn", "lstm")
DEFAULT_WINDOW = 3
DEFAULT_HOLDINGS = 10

_NON_LABEL_COLUMNS = [i for i in range(47) if i != LN_MCAP_INDEX]


@dataclass
class TrainingWindow:
    action_day: Date
    training_days: list[Date]

    def __post_init__(self):
        if any(d >= self.action_day for d in self.training_days):
            raise ValidationError("training days must precede the action day")


def build_window(calendar: TradingCalendar, action_day: Date, w: int) -> TrainingWindow:
    """The w action days immediately preceding action_day, ascending."""
    if w < 1:
        raise ValidationError("window length must be >= 1")
    preceding = [d for d in calendar.month_last_days() if d < action_day]
    if len(preceding) < w:
        raise StrategyError(
            f"need {w} action days before {action_day.isoformat()}, have {len(preceding)}"
        )
    return TrainingWindow(action_day=action_day, training_days=preceding[-w:])


def excess_return_label(dataset: MarketDataset, stock_id: str, t0: Date, t1: Date):
    """Stock return minus benchmark return over [t0, t1]; None if unavailable."""
    c0 = dataset.tradeable_close(stock_id, t0)
    c1 = dataset.tradeable_close(stock_id, t1)
    if c0 is None or c1 is None or c0 <= 0 or c1 <= 0:
        return None
    bench0 = dataset.benchmark.get(t0)
    bench1 = dataset.benchmark.get(t1)
    if bench0 is None or bench1 is None or bench0 <= 0:
        return None
    return (c1 / c0 - 1.0) - (bench1 / bench0 - 1.0)


@dataclass
class Ranking:
    date: Date
    entries: list[tuple[str, float]]  # (stock_id, score), descending score


def _sorted_entries(scores: dict[str, float]) -> list[tuple[str, float]]:
    return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))


def select_targets(ranking: Ranking, k: int) -> dict[str, float]:
    """Top min(k, |ranking|) stocks at weight 1/k each; remainder stays cash."""
    if k < 1:
        raise ValidationError("holdings count must be >= 1")
    if not ranking.entries:
        raise StrategyError(f"empty ranking on {ranking.date.isoformat()}")
    return {stock: 1.0 / k for stock, _ in ranking.entries[:k]}


def _mcap_log(dataset, stock_id, d):
    bars = dataset.bars.get(stock_id)
    i = None if bars is None else bars.position(d)
    if i is None or bars.suspended[i] or bars.market_cap[i] <= 0:
        return None
    return math.log(bars.market_cap[i])


def _window_panels(store: MarketStore, universe, window: TrainingWindow):
    """Raw panels for the training days then the action day, sparse rows dropped."""
    days = window.training_days + [window.action_day]
    return [drop_sparse_rows(build_panel(store, universe, day)) for day in days]


def _pooled_stats(panels):
    """Normalization stats pooled over the rows of all the given panels."""
    matrix = np.vstack([p.matrix for p in panels])
    if matrix.shape[0] == 0:
        raise StrategyError("no training rows available")
    return compute_normalization(matrix, np.vstack([p.missing for p in panels]))


def rank_linear_regression(store: MarketStore, action_day: Date, universe,
                           w: int = DEFAULT_WINDOW) -> Ranking:
    """Rank by valuation skew: fitted log market cap minus observed."""
    dataset = store.dataset
    window = build_window(dataset.calendar, action_day, w)
    *training, action = [normalize_panel(p) for p in _window_panels(store, universe, window)]
    rows = []
    labels = []
    for panel in training:
        for i, stock_id in enumerate(panel.stocks):
            label = _mcap_log(dataset, stock_id, panel.date)
            if label is None:
                continue
            rows.append(panel.matrix[i, _NON_LABEL_COLUMNS])
            labels.append(label)
    if not rows:
        raise StrategyError(f"no regression samples for {action_day.isoformat()}")
    X = np.column_stack([np.ones(len(rows)), np.array(rows)])
    weights = least_squares_fit(X, np.array(labels))

    scores = {}
    for i, stock_id in enumerate(action.stocks):
        actual = _mcap_log(dataset, stock_id, action_day)
        if actual is None:
            continue
        features = np.concatenate(([1.0], action.matrix[i, _NON_LABEL_COLUMNS]))
        scores[stock_id] = float(features @ weights) - actual
    if not scores:
        raise StrategyError(f"degenerate panel on {action_day.isoformat()}")
    return Ranking(date=action_day, entries=_sorted_entries(scores))


def rank_fcnn(store: MarketStore, action_day: Date, universe,
              w: int = DEFAULT_WINDOW, train_config: TrainConfig | None = None) -> Ranking:
    """Dense-network excess-return projector, one sample per (stock, day)."""
    train_config = train_config or TrainConfig()
    dataset = store.dataset
    window = build_window(dataset.calendar, action_day, w)
    panels = _window_panels(store, universe, window)
    stats = _pooled_stats(panels[:-1])
    samples = []
    labels = []
    for panel, horizon in zip(panels, panels[1:]):
        normalized = apply_normalization(panel.matrix, panel.missing, stats)
        for i, stock_id in enumerate(panel.stocks):
            label = excess_return_label(dataset, stock_id, panel.date, horizon.date)
            if label is None:
                continue
            samples.append(normalized[i])
            labels.append(label)
    if not samples:
        raise StrategyError(f"no projection samples for {action_day.isoformat()}")

    model = MlpModel.create(seed=train_config.seed)
    model, _ = train(model, np.array(samples), np.array(labels), train_config)

    panel = panels[-1]
    if not panel.stocks:
        raise StrategyError(f"degenerate panel on {action_day.isoformat()}")
    normalized = apply_normalization(panel.matrix, panel.missing, stats)
    preds = model.forward(normalized)
    scores = {stock_id: float(p) for stock_id, p in zip(panel.stocks, preds)}
    return Ranking(date=action_day, entries=_sorted_entries(scores))


def _sequence_inputs(panels, normalized):
    """Per-stock sequences of normalized rows over consecutive panels.

    Only stocks with a usable panel row on every day are kept.
    """
    index_maps = [{s: i for i, s in enumerate(p.stocks)} for p in panels]
    common = sorted(set.intersection(*(set(p.stocks) for p in panels)))
    return {
        stock_id: np.stack([rows[index[stock_id]] for rows, index in zip(normalized, index_maps)])
        for stock_id in common
    }


def rank_lstm(store: MarketStore, action_day: Date, universe,
              w: int = DEFAULT_WINDOW, train_config: TrainConfig | None = None) -> Ranking:
    """Sequence projector; prediction window is the training window shifted
    right by one action day."""
    train_config = train_config or TrainConfig()
    dataset = store.dataset
    window = build_window(dataset.calendar, action_day, w)
    panels = _window_panels(store, universe, window)
    stats = _pooled_stats(panels[:-1])
    normalized = [apply_normalization(p.matrix, p.missing, stats) for p in panels]

    train_sequences = _sequence_inputs(panels[:-1], normalized[:-1])
    samples = []
    labels = []
    for stock_id in sorted(train_sequences):
        label = excess_return_label(dataset, stock_id, window.training_days[-1], action_day)
        if label is None:
            continue
        samples.append(train_sequences[stock_id])
        labels.append(label)
    if not samples:
        raise StrategyError(f"no sequence samples for {action_day.isoformat()}")

    model = LstmModel.create(seed=train_config.seed, sequence_length=w)
    model, _ = train(model, np.stack(samples), np.array(labels), train_config)

    predict_sequences = _sequence_inputs(panels[1:], normalized[1:])
    if not predict_sequences:
        raise StrategyError(f"degenerate panel on {action_day.isoformat()}")
    stocks = sorted(predict_sequences)
    preds = model.forward(np.stack([predict_sequences[s] for s in stocks]))
    scores = {stock_id: float(p) for stock_id, p in zip(stocks, preds)}
    return Ranking(date=action_day, entries=_sorted_entries(scores))


def rank_stocks(kind: str, store: MarketStore, action_day: Date, universe,
                w: int = DEFAULT_WINDOW, train_config: TrainConfig | None = None) -> Ranking:
    """Rank with the named strategy on the run's store."""
    if kind == "linreg":
        return rank_linear_regression(store, action_day, universe, w)
    if kind == "fcnn":
        return rank_fcnn(store, action_day, universe, w, train_config)
    if kind == "lstm":
        return rank_lstm(store, action_day, universe, w, train_config)
    raise ValidationError(f"unknown strategy kind {kind!r}")
