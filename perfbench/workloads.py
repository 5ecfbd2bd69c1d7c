"""The three perfbench workloads and the layers the tracer wraps.

Each workload has a set-up and an operation. The harness repeats the pair
in a closed loop with one client: the next set-up starts when the previous
operation returns. Every operation of a run does the same work on the same
inputs, so counts per operation repeat exactly.

All inputs come from the workload seed. The program is driven through its
public functions; only the tracer reaches into module namespaces.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import traceback
from pathlib import Path

import numpy as np

from harness import tree_bytes

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

# backtest-crash25: the ROADMAP reference shape (300 stocks) cut to 25
# stocks, so that one run can repeat the backtest several times.
N_STOCKS = 25
DATA_START, DATA_END = "2014-01-01", "2015-12-31"
RUN_START, RUN_END = "2015-07-01", "2015-12-31"
STRATEGIES = ("linreg", "fcnn", "lstm")
HOLDINGS = 10
# Outputs are checked against a reference recorded per market, so the seed
# picks one of this many recorded markets.
N_MARKETS = 10
# Absolute tolerance on each strategy's net_return against the reference.
NET_RETURN_TOLERANCE = 1e-9
OUTPUT_FILES = 12

# gradcheck-sweep: the criterion-1 shape. The seed picks one of criterion
# 1's seeds. On other seeds a central difference of step 1e-5 can cross a
# ReLU kink of the MLP and the check reports a relative error above 1e-5
# (1.2e-2 on seed 101); that is a limit of the check, not of the gradients.
GRADCHECK_LSTM_HIDDEN = (6, 5, 4)
GRADCHECK_BATCH = 5
GRADCHECK_SEEDS = 10

# train-actionday: the sample counts of one action day of a 300-stock backtest.
TRAIN_LSTM_SAMPLES = 300
TRAIN_MLP_SAMPLES = 900
TRAIN_EPOCHS = 10
TRAIN_BATCH = 10
TRAIN_LR = 1e-3


def _failure(exc):
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


class Workload:
    """Defaults for workloads that need no input files and write no outputs."""

    def prepare(self):
        pass

    def extra_layer_metrics(self, outcomes):
        return {"exports.bytes_written": 0}


# -- backtest-crash25 --------------------------------------------------------

class BacktestWorkload(Workload):
    name = "backtest-crash25"
    item = "strategy-action-days"
    items_per_op = len(STRATEGIES) * 6  # month ends Jul..Dec 2015
    checks_per_op = len(STRATEGIES)

    def __init__(self, rq, root: Path, work: Path, seed: int):
        self.rq = rq
        self.root = root
        self.work = work
        self.market = seed % N_MARKETS
        self.ini = work / "backtest.ini"
        self.first_tree = None
        self.op_count = 0

    def prepare(self):
        """Write the market CSVs with ``rollingquant gen-data`` (not timed)."""
        self.work.mkdir(parents=True, exist_ok=True)
        gen_ini = self.work / "gen.ini"
        gen_ini.write_text(
            f"[run]\nseed = {self.market}\nstart = {RUN_START}\nend = {RUN_END}\n\n"
            f"[data]\nsource = synthetic\nn_stocks = {N_STOCKS}\nstart = {DATA_START}\n"
            f"end = {DATA_END}\nregime = crash\nplanted_signal_strength = 0.5\n",
            encoding="utf-8")
        self.ini.write_text(
            f"[run]\nseed = {self.market}\nstrategies = {','.join(STRATEGIES)}\n"
            f"start = {RUN_START}\nend = {RUN_END}\nholdings = {HOLDINGS}\n\n"
            "[data]\nsource = csv\nbars = data/bars.csv\n"
            "fundamentals = data/fundamentals.csv\nbenchmark = data/benchmark.csv\n",
            encoding="utf-8")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        done = subprocess.run(
            [sys.executable, "-m", "rollingquant.cli", "gen-data", "--config", str(gen_ini),
             "--out", str(self.work / "data")],
            cwd=self.root, env=env, capture_output=True, text=True, timeout=600, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"gen-data failed ({done.returncode}): {done.stderr.strip()}")

    def setup(self):
        """``load_run_config`` plus ``load_dataset`` of the CSVs."""
        cli = self.rq.cli
        config = cli.load_run_config(str(self.ini))
        dataset = cli.load_dataset(config.bars_path, config.fundamentals_path,
                                   config.benchmark_path)
        return config, dataset

    def op(self, state):
        """One ``rollingquant backtest`` on the dataset its set-up loaded."""
        config, dataset = state
        cli = self.rq.cli
        out_dir = self.work / f"out-{self.op_count}"
        self.op_count += 1
        config = dataclasses.replace(config, out_dir=out_dir)
        loader = cli.load_dataset
        cli.load_dataset = lambda *paths: dataset
        try:
            code = cli.cmd_backtest(config, out=io.StringIO())
            return {"code": code, "out_dir": out_dir}
        except Exception as exc:  # a failed operation is counted, not fatal
            return {"error": _failure(exc), "out_dir": out_dir}
        finally:
            cli.load_dataset = loader

    def check(self, outcome, reference):
        """Failure messages for the three strategy operations of one backtest."""
        if "error" in outcome or outcome["code"] != 0:
            reason = outcome.get("error") or f"exit {outcome['code']}"
            return [f"{s}: {reason}" for s in STRATEGIES]
        tree = tree_bytes(outcome["out_dir"])
        if self.first_tree is None:
            self.first_tree = tree
        failures = []
        for strategy in STRATEGIES:
            problem = self._check_strategy(strategy, tree, reference)
            if problem:
                failures.append(f"{strategy}: {problem}")
        return failures

    def _check_strategy(self, strategy, tree, reference):
        if len(tree) != OUTPUT_FILES:
            return f"{len(tree)} output files, expected {OUTPUT_FILES}"
        mine = {k: v for k, v in tree.items() if k.startswith(strategy + "/")}
        first = {k: v for k, v in self.first_tree.items() if k.startswith(strategy + "/")}
        if mine != first:
            return "output differs from the first run of this invocation"
        want = reference["markets"].get(str(self.market), {}).get(strategy)
        if want is None:
            return f"no reference recorded for market {self.market}"
        got = strategy_summary(tree, strategy)
        if got["baskets"] != want["baskets"]:
            return "top-K baskets differ from the reference"
        if not abs(got["net_return"] - want["net_return"]) <= NET_RETURN_TOLERANCE:
            return f"net_return {got['net_return']!r} vs reference {want['net_return']!r}"
        return None

    def extra_layer_metrics(self, outcomes):
        # Every tree of a run is checked to be identical, so one stands for all.
        tree = tree_bytes(outcomes[0]["out_dir"])
        return {"exports.bytes_written": sum(len(b) for b in tree.values())}


def strategy_summary(tree, strategy):
    """Per-action-day top-K baskets (sorted) and net_return of one strategy."""
    baskets: dict[str, list[str]] = {}
    lines = tree[f"{strategy}/ranking.csv"].decode("utf-8").splitlines()[1:]
    for line in lines:
        day, rank, stock, _ = line.split(",")
        if int(rank) <= HOLDINGS:
            baskets.setdefault(day, []).append(stock)
    report = json.loads(tree[f"{strategy}/report.json"])
    return {"baskets": {d: sorted(s) for d, s in baskets.items()},
            "net_return": report["net_return"]}


# -- gradcheck-sweep ---------------------------------------------------------

class GradcheckWorkload(Workload):
    name = "gradcheck-sweep"
    item = "gradient-entries"
    checks_per_op = 2

    def __init__(self, rq, root, work, seed):
        self.rq = rq
        self.seed = seed % GRADCHECK_SEEDS
        self.first = None
        mlp, lstm = self.setup()[:2]
        self.items_per_op = sum(p.size for p in mlp.parameters() + lstm.parameters())

    def setup(self):
        """Criterion-1 inputs: full MLP and narrow LSTM, batch 5."""
        numerics = self.rq.numerics
        rng = np.random.default_rng(self.seed)
        batch = rng.normal(size=(GRADCHECK_BATCH, 47))
        labels = rng.normal(size=GRADCHECK_BATCH) * 0.05
        seq = rng.normal(size=(GRADCHECK_BATCH, 3, 47))
        mlp = numerics.MlpModel.create(seed=self.seed)
        lstm = numerics.LstmModel.create(seed=self.seed, hidden_sizes=GRADCHECK_LSTM_HIDDEN)
        return mlp, lstm, batch, labels, seq

    def op(self, state):
        # gradient_check restores every perturbed entry exactly, so the
        # models can be checked again by the next operation.
        mlp, lstm, batch, labels, seq = state
        numerics = self.rq.numerics
        try:
            return {"errors": [numerics.gradient_check(mlp, batch, labels),
                               numerics.gradient_check(lstm, seq, labels)]}
        except Exception as exc:
            return {"error": _failure(exc)}

    def check(self, outcome, reference):
        if "error" in outcome:
            return [outcome["error"]] * self.checks_per_op
        tolerance = self.rq.cli.GRADCHECK_TOLERANCE
        self.first = self.first or outcome
        failures = []
        for i, model in enumerate(("mlp", "lstm")):
            err = outcome["errors"][i]
            if not err <= tolerance:
                failures.append(f"{model}: max relative error {err!r} > {tolerance}")
            elif err != self.first["errors"][i]:
                failures.append(f"{model}: error differs from the first run of this invocation")
        return failures


# -- train-actionday ---------------------------------------------------------

def planted_task(rng, shape):
    """Normal inputs with labels 0.15 * standardized tanh(last step @ w) plus noise."""
    samples = rng.normal(size=shape)
    w = rng.normal(size=shape[-1])
    last = samples[:, -1, :] if samples.ndim == 3 else samples
    signal = np.tanh(last @ w)
    signal = (signal - signal.mean()) / signal.std()
    labels = 0.15 * signal + rng.normal(0.0, 0.05, size=shape[0])
    return samples, labels


class TrainWorkload(Workload):
    name = "train-actionday"
    item = "sample-epochs"
    items_per_op = (TRAIN_LSTM_SAMPLES + TRAIN_MLP_SAMPLES) * TRAIN_EPOCHS
    checks_per_op = 2

    def __init__(self, rq, root, work, seed):
        self.rq = rq
        self.seed = seed
        self.first = None

    def setup(self):
        """One action day's training sets: 300 LSTM sequences, 900 MLP vectors."""
        rng = np.random.default_rng(self.seed)
        lstm_task = planted_task(rng, (TRAIN_LSTM_SAMPLES, 3, 47))
        mlp_task = planted_task(rng, (TRAIN_MLP_SAMPLES, 47))
        return lstm_task, mlp_task

    def op(self, state):
        """Train a fresh LSTM and a fresh MLP, as one action day does."""
        (seq, seq_labels), (flat, flat_labels) = state
        numerics = self.rq.numerics
        config = numerics.TrainConfig(epochs=TRAIN_EPOCHS, batch_size=TRAIN_BATCH,
                                      learning_rate=TRAIN_LR, seed=self.seed)
        try:
            _, lstm_losses = numerics.train(numerics.LstmModel.create(seed=self.seed),
                                            seq, seq_labels, config)
            _, mlp_losses = numerics.train(numerics.MlpModel.create(seed=self.seed),
                                           flat, flat_labels, config)
        except Exception as exc:
            return {"error": _failure(exc)}
        return {"losses": [lstm_losses, mlp_losses]}

    def check(self, outcome, reference):
        if "error" in outcome:
            return [outcome["error"]] * self.checks_per_op
        self.first = self.first or outcome
        failures = []
        for i, model in enumerate(("lstm", "mlp")):
            losses = outcome["losses"][i]
            if not all(math.isfinite(x) for x in losses):
                failures.append(f"{model}: non-finite loss")
            elif not losses[-1] < losses[0]:
                failures.append(f"{model}: last-epoch loss {losses[-1]!r} not below "
                                f"first-epoch loss {losses[0]!r}")
            elif losses != self.first["losses"][i]:
                failures.append(f"{model}: losses differ from the first run of this invocation")
        return failures


WORKLOADS = {w.name: w for w in (BacktestWorkload, GradcheckWorkload, TrainWorkload)}


# -- tracing -----------------------------------------------------------------

def install_tracing(tracer, rq):
    """Wrap each layer's public functions where their callers look them up.

    The package imports names directly (``from .factors import build_panel``),
    so wrapping ``factors.build_panel`` would record nothing: the wrappers go
    on the importing module's binding.
    """
    cli, backtest, strategies, numerics = rq.cli, rq.backtest, rq.strategies, rq.numerics

    def count_trades(t, args, result):
        t.observed["backtest.trades"] = t.observed.get("backtest.trades", 0) + len(result)

    def count_panel(t, args, panel):
        t.observed["factors.panel_rows"] = t.observed.get("factors.panel_rows", 0) \
            + len(panel.stocks)
        t.observed.setdefault("factors.panel_dates", set()).add((t.root().id, args[2]))

    tracer.wrap(cli, "load_run_config", "config.load_run_config")
    tracer.wrap(cli, "load_dataset", "marketdata.load_dataset")
    tracer.wrap(cli, "run_scenario", "backtest.run_scenario")
    tracer.wrap(cli, "build_report", "metrics.build_report")
    for writer in ("write_series_csv", "write_trades_csv", "write_ranking_csv"):
        tracer.wrap(cli, writer, "exports.write")
    tracer.wrap(backtest, "eligible_universe", "marketdata.eligible_universe")
    tracer.wrap(backtest, "rank_stocks", lambda args: f"strategies.rank_{args[0]}")
    tracer.wrap(backtest, "rebalance", "backtest.rebalance", observe=count_trades)
    tracer.wrap(strategies, "build_panel", "factors.build_panel", observe=count_panel)
    for fn in ("normalize_panel", "compute_normalization", "apply_normalization",
               "drop_sparse_rows"):
        tracer.wrap(strategies, fn, "factors.normalize")
    tracer.wrap(strategies, "least_squares_fit", "numerics.least_squares_fit")
    tracer.wrap(strategies, "train", "numerics.train")
    tracer.wrap(numerics, "train", "numerics.train")
    tracer.wrap(numerics, "gradient_check", "numerics.gradient_check")
    for cls, kind in ((numerics.MlpModel, "mlp"), (numerics.LstmModel, "lstm")):
        tracer.wrap(cls, "forward", f"numerics.{kind}_forward", aggregate=True)
        tracer.wrap(cls, "loss_and_gradients", f"numerics.{kind}_loss_and_gradients",
                    aggregate=True)


# Layer self times that together make up one traced operation; their sum
# must equal trace.run_s.
SELF_PARTS = (
    "trace.unattributed_s", "backtest.self_s", "strategies.self_s",
    "marketdata.eligible_universe_s", "factors.build_panel_s", "factors.normalize_s",
    "numerics.gradient_check_self_s", "numerics.train_self_s",
    "numerics.mlp_forward_s", "numerics.lstm_forward_s",
    "numerics.mlp_loss_and_gradients_s", "numerics.lstm_loss_and_gradients_s",
    "numerics.least_squares_fit_s", "backtest.rebalance_s", "metrics.build_report_s",
    "exports.write_s",
)


def layer_metrics(tracer, n_ops):
    """Per-operation layer metrics from a traced run of ``n_ops`` set-ups and operations."""
    s = tracer.summary()

    def get(name, key):
        return s.get(name, {}).get(key, 0)

    def per_op(name, key="total_s"):
        return get(name, key) / n_ops

    def count(total):
        """Per operation; a whole number when every operation did the same work."""
        return total // n_ops if total % n_ops == 0 else total / n_ops

    ranks = [f"strategies.rank_{kind}" for kind in STRATEGIES]
    calls = count(get("factors.build_panel", "calls"))
    dates = count(len(tracer.observed.get("factors.panel_dates", ())))
    out = {
        "config.load_run_config_s": per_op("config.load_run_config"),
        "marketdata.load_dataset_s": per_op("marketdata.load_dataset"),
        "marketdata.eligible_universe_s": per_op("marketdata.eligible_universe"),
        "marketdata.eligible_universe_calls": count(get("marketdata.eligible_universe", "calls")),
        "factors.build_panel_s": per_op("factors.build_panel"),
        "factors.build_panel_calls": calls,
        "factors.panel_rows": count(tracer.observed.get("factors.panel_rows", 0)),
        "factors.panel_dates_distinct": dates,
        "factors.panel_useful_ratio": dates / calls if calls else 0.0,
        "factors.normalize_s": per_op("factors.normalize"),
        "numerics.gradient_check_s": per_op("numerics.gradient_check"),
        "numerics.gradient_check_self_s": per_op("numerics.gradient_check", "self_s"),
        "numerics.train_s": per_op("numerics.train"),
        "numerics.train_calls": count(get("numerics.train", "calls")),
        "numerics.train_steps": count(tracer.leaf_calls_under(
            "numerics.train", {"numerics.mlp_loss_and_gradients",
                               "numerics.lstm_loss_and_gradients"})),
        "numerics.train_self_s": per_op("numerics.train", "self_s"),
        "numerics.least_squares_fit_s": per_op("numerics.least_squares_fit"),
        "strategies.self_s": sum(per_op(r, "self_s") for r in ranks),
        "backtest.run_scenario_s": per_op("backtest.run_scenario"),
        "backtest.self_s": per_op("backtest.run_scenario", "self_s"),
        "backtest.rebalance_s": per_op("backtest.rebalance"),
        "backtest.trades": count(tracer.observed.get("backtest.trades", 0)),
        "metrics.build_report_s": per_op("metrics.build_report"),
        "exports.write_s": per_op("exports.write"),
        "trace.run_s": per_op("op"),
        "trace.unattributed_s": per_op("op", "self_s"),
    }
    for kind in ("mlp", "lstm"):
        for fn in ("forward", "loss_and_gradients"):
            out[f"numerics.{kind}_{fn}_s"] = per_op(f"numerics.{kind}_{fn}")
            out[f"numerics.{kind}_{fn}_calls"] = count(get(f"numerics.{kind}_{fn}", "calls"))
    for rank, kind in zip(ranks, STRATEGIES):
        out[f"strategies.rank_{kind}_s"] = per_op(rank)
    return out
