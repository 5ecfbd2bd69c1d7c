"""The three ranking strategies and the rolling-window training protocol.

All three retrain from scratch on each action day using only the W most
recent preceding action days, then rank the eligible cross-section; each is
one kind of rank_stocks:

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


def _pooled_stats(panels):
    """Normalization stats pooled over the rows of all the given panels."""
    matrix = np.vstack([p.matrix for p in panels])
    if matrix.shape[0] == 0:
        raise StrategyError("no training rows available")
    return compute_normalization(matrix, np.vstack([p.missing for p in panels]))


def _linreg_scores(dataset: MarketDataset, panels) -> dict[str, float]:
    """Fitted minus observed log market cap on the last panel, fitted on the
    others; each panel is normalized against itself."""
    # a 0-row panel adds no rows, and its normalization would only warn
    *training, action = [normalize_panel(p) if p.stocks else p for p in panels]
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
        raise StrategyError(f"no regression samples for {action.date.isoformat()}")
    X = np.column_stack([np.ones(len(rows)), np.array(rows)])
    weights = least_squares_fit(X, np.array(labels))

    scores = {}
    for i, stock_id in enumerate(action.stocks):
        actual = _mcap_log(dataset, stock_id, action.date)
        if actual is None:
            continue
        features = np.concatenate(([1.0], action.matrix[i, _NON_LABEL_COLUMNS]))
        scores[stock_id] = float(features @ weights) - actual
    return scores


def _flat_samples(dataset: MarketDataset, panels, normalized):
    """fcnn: one row per (stock, training day), labelled with the excess
    return to the next window day."""
    samples = []
    labels = []
    for panel, rows, horizon in zip(panels, normalized, panels[1:]):
        for i, stock_id in enumerate(panel.stocks):
            label = excess_return_label(dataset, stock_id, panel.date, horizon.date)
            if label is None:
                continue
            samples.append(rows[i])
            labels.append(label)
    if not samples:
        raise StrategyError(f"no projection samples for {panels[-1].date.isoformat()}")
    return np.array(samples), np.array(labels)


def _sequences(panels, normalized):
    """The stocks with a usable row on every panel, sorted, and their
    normalized rows over the panels as a (stocks, panels, factors) array."""
    stocks = sorted(set.intersection(*(set(p.stocks) for p in panels)))
    steps = []
    for panel, rows in zip(panels, normalized):
        index = {s: i for i, s in enumerate(panel.stocks)}
        steps.append(rows[[index[s] for s in stocks]])
    return stocks, np.stack(steps, axis=1)


def _sequence_samples(dataset: MarketDataset, panels, normalized):
    """lstm: one sequence per stock over the training days, labelled with the
    excess return from the last training day to the action day."""
    stocks, sequences = _sequences(panels[:-1], normalized[:-1])
    t0, t1 = panels[-2].date, panels[-1].date
    labels = [excess_return_label(dataset, s, t0, t1) for s in stocks]
    keep = [i for i, label in enumerate(labels) if label is not None]
    if not keep:
        raise StrategyError(f"no sequence samples for {t1.isoformat()}")
    return sequences[keep], np.array([labels[i] for i in keep])


def rank_stocks(kind: str, store: MarketStore, action_day: Date, universe,
                w: int = DEFAULT_WINDOW, train_config: TrainConfig | None = None) -> Ranking:
    """Rank the universe on action_day with the named strategy, trained from
    scratch on the w preceding action days of the run's store.

    fcnn and lstm predict with the training window shifted right by one
    action day: fcnn from the action-day panel, lstm from the last w panels.
    """
    if kind not in STRATEGY_KINDS:
        raise ValidationError(f"unknown strategy kind {kind!r}")
    train_config = train_config or TrainConfig()
    dataset = store.dataset
    window = build_window(dataset.calendar, action_day, w)
    panels = [drop_sparse_rows(build_panel(store, universe, day))
              for day in window.training_days + [action_day]]
    if kind == "linreg":
        scores = _linreg_scores(dataset, panels)
    else:
        stats = _pooled_stats(panels[:-1])
        normalized = [apply_normalization(p.matrix, p.missing, stats) for p in panels]
        if kind == "fcnn":
            samples, labels = _flat_samples(dataset, panels, normalized)
            stocks, inputs = panels[-1].stocks, normalized[-1]
            model = MlpModel.create(seed=train_config.seed)
        else:
            samples, labels = _sequence_samples(dataset, panels, normalized)
            stocks, inputs = _sequences(panels[1:], normalized[1:])
            model = LstmModel.create(seed=train_config.seed, sequence_length=w)
        model, _ = train(model, samples, labels, train_config)
        scores = {stock_id: float(p) for stock_id, p in zip(stocks, model.forward(inputs))}
    if not scores:
        raise StrategyError(f"degenerate panel on {action_day.isoformat()}")
    return Ranking(date=action_day, entries=_sorted_entries(scores))
