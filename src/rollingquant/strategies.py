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


def excess_return_labels(dataset: MarketDataset, stocks, t0: Date, t1: Date):
    """(labels, available): each stock's return minus the benchmark's over
    [t0, t1]. A label is available where the stock trades at a close > 0 on
    both dates, the benchmark closes above 0 on t0, and the label is finite:
    a NaN close or benchmark, or a return that overflows, leaves none."""
    c0, tradeable0 = dataset.tradeable_closes(stocks, t0)
    c1, tradeable1 = dataset.tradeable_closes(stocks, t1)
    traded = tradeable0 & tradeable1 & (c0 > 0) & (c1 > 0)
    labels = np.full(len(traded), np.nan)
    if traded.any():
        # both dates have a bar, so both are on the calendar; NaN marks no close
        index = dataset.calendar.index
        bench0, bench1 = float(dataset.benchmark[index[t0]]), float(dataset.benchmark[index[t1]])
        if bench0 > 0:
            with np.errstate(all="ignore"):  # overflow gives inf or nan, as in Python
                labels[traded] = (c1[traded] / c0[traded] - 1.0) - (bench1 / bench0 - 1.0)
    return labels, np.isfinite(labels)


@dataclass
class Ranking:
    date: Date
    entries: list[tuple[str, float]]  # (stock_id, score), descending score


def select_targets(ranking: Ranking, k: int) -> dict[str, float]:
    """Top min(k, |ranking|) stocks at weight 1/k each; remainder stays cash."""
    if k < 1:
        raise ValidationError("holdings count must be >= 1")
    return {stock: 1 / k for stock, _ in ranking.entries[:k]}


def _pooled_stats(panels):
    """Normalization stats pooled over the rows of all the given panels."""
    matrix = np.vstack([p.matrix for p in panels])
    if matrix.shape[0] == 0:
        raise StrategyError("no training rows available")
    return compute_normalization(matrix, np.vstack([p.missing for p in panels]))


def _panel_key(panel):
    return panel.date, tuple(panel.stocks)


def _labelled_rows(store: MarketStore, panel):
    """(stocks, normalized non-label factors, LN_MCAP) of the panel stocks
    that have an LN_MCAP factor and trade on the panel's date; the panel is
    normalized against itself, once per store."""
    # a 0-row panel has no rows, and its normalization would only warn
    normalized = store.memo(("panel", _panel_key(panel)), lambda: normalize_panel(panel)) \
        if panel.stocks else panel.matrix
    _, tradeable = store.dataset.tradeable_closes(panel.stocks, panel.date)
    keep = ~panel.missing[:, LN_MCAP_INDEX] & tradeable
    return ([s for s, k in zip(panel.stocks, keep.tolist()) if k],
            normalized[np.ix_(keep, _NON_LABEL_COLUMNS)], panel.matrix[keep, LN_MCAP_INDEX])


def _linreg_ranking(store: MarketStore, panels) -> Ranking:
    """The last panel's stocks scored by fitted minus observed log market
    cap, fitted on the other panels."""
    *training, action = panels
    _, rows, labels = zip(*(_labelled_rows(store, panel) for panel in training))
    rows, labels = np.concatenate(rows), np.concatenate(labels)
    if not len(labels):
        raise StrategyError(f"no regression samples for {action.date.isoformat()}")
    X = np.column_stack([np.ones(len(rows)), rows])
    weights = least_squares_fit(X, labels)
    stocks, rows, actual = _labelled_rows(store, action)
    return _ranking(action.date, stocks, lambda: [
        float(np.concatenate(([1.0], x)) @ weights) - y for x, y in zip(rows, actual.tolist())])


def _flat_samples(dataset: MarketDataset, panels, normalized):
    """fcnn: one row per (stock, training day), labelled with the excess
    return to the next window day."""
    samples = []
    labels = []
    for panel, rows, horizon in zip(panels, normalized, panels[1:]):
        day_labels, available = excess_return_labels(dataset, panel.stocks, panel.date,
                                                     horizon.date)
        samples.append(rows[available])
        labels.append(day_labels[available])
    samples, labels = np.concatenate(samples), np.concatenate(labels)
    if not len(labels):
        raise StrategyError(f"no projection samples for {panels[-1].date.isoformat()}")
    return samples, labels


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
    labels, available = excess_return_labels(dataset, stocks, t0, t1)
    if not available.any():
        raise StrategyError(f"no sequence samples for {t1.isoformat()}")
    return sequences[available], labels[available]


def _ranking(action_day: Date, stocks, score) -> Ranking:
    """The stocks by the scores score() gives them, highest first and ties by
    id. A day with no stocks is a degenerate panel, and calls no score()."""
    if not stocks:
        raise StrategyError(f"degenerate panel on {action_day.isoformat()}")
    return Ranking(action_day, sorted(zip(stocks, score()), key=lambda kv: (-kv[1], kv[0])))


def _dated(action_day: Date, exc: StrategyError) -> StrategyError:
    return StrategyError(f"{action_day.isoformat()}: {exc}")


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


def _training_day(kind, store, panels, seed) -> _TrainingDay:
    # fcnn and lstm share each window's stats, not the matrices they normalize
    window = panels[:-1]
    stats = store.memo(("window", tuple(map(_panel_key, window))),
                       lambda: _pooled_stats(window))
    dataset = store.dataset
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
    outcomes = []  # one per day read: its Ranking, _TrainingDay or error
    for i, (action_day, universe) in enumerate(days):
        try:
            panels = [drop_sparse_rows(build_panel(store, universe, day))
                      for day in build_window(dataset.calendar, action_day, w) + [action_day]]
            seed = train_config.seed + i * SEED_STRIDE
            outcomes.append(_linreg_ranking(store, panels) if kind == "linreg"
                            else _training_day(kind, store, panels, seed))
        except StrategyError as exc:
            outcomes.append(_dated(action_day, exc))
            break
    _train_and_rank(kind, outcomes, train_config)
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return outcomes


def _train_and_rank(kind, outcomes, train_config):
    """Replace each _TrainingDay of outcomes with its Ranking, or with the
    error ranking that day alone raises, training the days in stacks of one
    training-set shape. A stack's days after its failing day are left as
    they are: they come after an error."""
    groups = {}
    for i, outcome in enumerate(outcomes):
        if isinstance(outcome, _TrainingDay):
            groups.setdefault(outcome.samples.shape, []).append(i)
    model_class = MlpModel if kind == "fcnn" else LstmModel
    for members in groups.values():
        group = [outcomes[i] for i in members]
        model = stack([model_class.create(seed=day.seed) for day in group])
        try:
            # model trains in place, so the members before a failing one are trained
            train(model, np.stack([day.samples for day in group]),
                  np.stack([day.labels for day in group]), train_config,
                  [day.seed for day in group])
        except (TrainingError, ValidationError) as exc:
            if not hasattr(exc, "member"):
                raise
            outcomes[members[exc.member]] = exc
            group = group[:exc.member]
        for k, (i, day) in enumerate(zip(members, group)):
            try:
                outcomes[i] = _ranking(day.date, day.stocks,
                                       lambda: model.member(k).forward(day.inputs).tolist())
            except StrategyError as exc:
                outcomes[i] = _dated(day.date, exc)
