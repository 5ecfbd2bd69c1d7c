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

from .errors import StrategyError, TrainingError, ValidationError
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
from .numerics import LstmModel, MlpModel, TrainConfig, least_squares_fit, stack, train

STRATEGY_KINDS = ("linreg", "fcnn", "lstm")
DEFAULT_WINDOW = 3
DEFAULT_HOLDINGS = 10
# Per-action-day training-seed stride; keeps per-rebalance streams disjoint.
SEED_STRIDE = 10_007

_NON_LABEL_COLUMNS = [i for i in range(47) if i != LN_MCAP_INDEX]


def build_window(calendar: TradingCalendar, action_day: Date, w: int) -> list[Date]:
    """The w action days immediately preceding action_day, ascending."""
    if w < 1:
        raise ValidationError("window length must be >= 1")
    preceding = [d for d in calendar.month_last_days() if d < action_day]
    if len(preceding) < w:
        raise StrategyError(
            f"need {w} action days before {action_day.isoformat()}, have {len(preceding)}"
        )
    return preceding[-w:]


def excess_return_label(dataset: MarketDataset, stock_id: str, t0: Date, t1: Date):
    """Stock return minus benchmark return over [t0, t1]; None if unavailable."""
    c0 = dataset.tradeable_close(stock_id, t0)
    c1 = dataset.tradeable_close(stock_id, t1)
    if c0 is None or c1 is None or c0 <= 0 or c1 <= 0:
        return None
    # both dates have a bar, so both are on the calendar; NaN marks no close
    index = dataset.calendar.index
    bench0, bench1 = float(dataset.benchmark[index[t0]]), float(dataset.benchmark[index[t1]])
    if not bench0 > 0 or math.isnan(bench1):
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


def _pooled_stats(panels):
    """Normalization stats pooled over the rows of all the given panels."""
    matrix = np.vstack([p.matrix for p in panels])
    if matrix.shape[0] == 0:
        raise StrategyError("no training rows available")
    return compute_normalization(matrix, np.vstack([p.missing for p in panels]))


def _labelled_rows(dataset: MarketDataset, panel):
    """(stock, normalized non-label factors, LN_MCAP) of each panel stock
    that has an LN_MCAP factor and trades on the panel's date; the panel is
    normalized against itself."""
    # a 0-row panel has no rows, and its normalization would only warn
    normalized = normalize_panel(panel).matrix if panel.stocks else panel.matrix
    ln_mcap = panel.matrix[:, LN_MCAP_INDEX].tolist()
    for i, stock_id in enumerate(panel.stocks):
        if not panel.missing[i, LN_MCAP_INDEX] \
                and dataset.tradeable_close(stock_id, panel.date) is not None:
            yield stock_id, normalized[i, _NON_LABEL_COLUMNS], ln_mcap[i]


def _linreg_scores(dataset: MarketDataset, panels) -> dict[str, float]:
    """Fitted minus observed log market cap on the last panel, fitted on the
    others."""
    *training, action = panels
    samples = [(x, y) for panel in training for _, x, y in _labelled_rows(dataset, panel)]
    if not samples:
        raise StrategyError(f"no regression samples for {action.date.isoformat()}")
    rows, labels = zip(*samples)
    X = np.column_stack([np.ones(len(rows)), np.array(rows)])
    weights = least_squares_fit(X, np.array(labels))
    return {stock_id: float(np.concatenate(([1.0], x)) @ weights) - actual
            for stock_id, x, actual in _labelled_rows(dataset, action)}


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


def _ranking(action_day: Date, scores: dict[str, float]) -> Ranking:
    if not scores:
        raise StrategyError(f"degenerate panel on {action_day.isoformat()}")
    return Ranking(date=action_day, entries=_sorted_entries(scores))


@dataclass
class _TrainingDay:
    """One fcnn or lstm action day: its training set, and the stocks it
    scores with the inputs they score from."""
    date: Date
    seed: int
    samples: np.ndarray
    labels: np.ndarray
    stocks: list[str]
    inputs: np.ndarray


def _training_day(kind, dataset, panels, seed) -> _TrainingDay:
    stats = _pooled_stats(panels[:-1])
    normalized = [apply_normalization(p.matrix, p.missing, stats) for p in panels]
    if kind == "fcnn":
        samples, labels = _flat_samples(dataset, panels, normalized)
        stocks, inputs = panels[-1].stocks, normalized[-1]
    else:
        samples, labels = _sequence_samples(dataset, panels, normalized)
        stocks, inputs = _sequences(panels[1:], normalized[1:])
    return _TrainingDay(panels[-1].date, seed, samples, labels, stocks, inputs)


def rank_stocks(kind: str, store: MarketStore, days, w: int = DEFAULT_WINDOW,
                train_config: TrainConfig | None = None) -> list[Ranking]:
    """Rank each (action_day, universe) of days with the named strategy,
    trained from scratch on the w action days before it on the run's store.

    Day i (counting from 0) initializes and shuffles its model with seed
    train_config.seed + i * SEED_STRIDE. fcnn and lstm predict with the
    training window shifted right by one action day: fcnn from the
    action-day panel, lstm from the last w panels. Their days whose training
    sets have one shape train in lockstep as one stacked model.

    The rankings, and any error, are those of ranking the days one by one in
    order: a StrategyError names its day, and days is read no further than
    the first day whose training set cannot be built.
    """
    if kind not in STRATEGY_KINDS:
        raise ValidationError(f"unknown strategy kind {kind!r}")
    train_config = train_config or TrainConfig()
    dataset = store.dataset
    rankings = []
    training_days = []
    failure = None  # the first day whose training set cannot be built
    for i, (action_day, universe) in enumerate(days):
        try:
            panels = [drop_sparse_rows(build_panel(store, universe, day))
                      for day in build_window(dataset.calendar, action_day, w) + [action_day]]
            if kind == "linreg":
                rankings.append(_ranking(action_day, _linreg_scores(dataset, panels)))
            else:
                seed = train_config.seed + i * SEED_STRIDE
                training_days.append(_training_day(kind, dataset, panels, seed))
        except StrategyError as exc:
            failure = StrategyError(f"{action_day.isoformat()}: {exc}")
            break
    if training_days:
        # every training day comes before the failing day, so its errors come first
        rankings = _train_and_rank(kind, training_days, w, train_config)
    if failure is not None:
        raise failure
    return rankings


def _train_and_rank(kind, training_days, w, train_config):
    """Train the days in stacks of one training-set shape and rank each day
    with its member; raise the error of the earliest day that fails."""
    errors = {}  # day index -> the error ranking that day alone raises
    groups = {}
    for i, day in enumerate(training_days):
        if not day.stocks:
            errors[i] = StrategyError(
                f"{day.date.isoformat()}: degenerate panel on {day.date.isoformat()}")
        groups.setdefault(day.samples.shape, []).append(i)
    rankings = [None] * len(training_days)
    for members in groups.values():
        group = [training_days[i] for i in members]
        if kind == "fcnn":
            model = stack([MlpModel.create(seed=day.seed) for day in group])
        else:
            model = stack([LstmModel.create(seed=day.seed, sequence_length=w) for day in group])
        try:
            model, _ = train(model, np.stack([day.samples for day in group]),
                             np.stack([day.labels for day in group]), train_config,
                             [day.seed for day in group])
        except (TrainingError, ValidationError) as exc:
            if not hasattr(exc, "member"):
                raise
            errors[members[exc.member]] = exc
            continue
        for k, (i, day) in enumerate(zip(members, group)):
            if i not in errors:
                predictions = model.member(k).forward(day.inputs)
                rankings[i] = _ranking(day.date, {stock_id: float(p) for stock_id, p
                                                  in zip(day.stocks, predictions)})
    if errors:
        raise errors[min(errors)]
    return rankings
