"""Command-line entry point.

Subcommands: gen-data, backtest, gradcheck, report. Exit codes: 0 success,
1 configuration or usage error, 2 data error, 3 numeric/training error.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .backtest import run_scenario
from .config import load_run_config
from .errors import ConfigError, DataError, NumericError
from .exports import (
    read_series_csv,
    write_dataset,
    write_ranking_csv,
    write_series_csv,
    write_trades_csv,
)
from .factors import MarketStore
from .marketdata import load_dataset
from .metrics import DEFAULT_RISK_FREE_ANNUAL, build_report
from .numerics import LstmModel, MlpModel, gradient_check
from .synthetic import generate_synthetic_market

GRADCHECK_TOLERANCE = 1e-5


@contextmanager
def _writing(path):
    """Report an OSError raised while writing to path as a ConfigError naming
    the path the system refused."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {exc.filename or path}: {exc.strerror or exc}") from None


def cmd_gen_data(config, out=None):
    out = out if out is not None else sys.stdout
    if config.synthetic is None:
        raise ConfigError("gen-data requires data.source = synthetic")
    dataset, _ = generate_synthetic_market(config.synthetic)
    with _writing(config.out_dir):
        write_dataset(dataset, config.out_dir)
    dates = dataset.calendar.dates
    cumulative = float(dataset.benchmark[-1] / dataset.benchmark[0]) - 1.0
    print(f"stocks: {len(dataset.stocks)}", file=out)
    print(f"bars: {int((dataset.bar_days >= 0).sum())}", file=out)
    print(f"span: {dates[0].isoformat()}..{dates[-1].isoformat()}", file=out)
    print(f"benchmark_cumulative_return: {cumulative:.6f}", file=out)
    return 0


def cmd_backtest(config, out=None):
    out = out if out is not None else sys.stdout
    if config.synthetic is None:
        dataset = load_dataset(config.bars_path, config.fundamentals_path,
                               config.benchmark_path)
    else:
        dataset, _ = generate_synthetic_market(config.synthetic)
    strategy_dirs = [Path(config.out_dir) / strategy for strategy in config.strategies]
    with _writing(config.out_dir):  # an unwritable --out fails before any scenario runs
        for strategy_dir in strategy_dirs:
            strategy_dir.mkdir(parents=True, exist_ok=True)
    # one store for all strategies, so each factor row is computed once
    store = MarketStore(dataset)
    for strategy, strategy_dir in zip(config.strategies, strategy_dirs):
        result = run_scenario(store, strategy, config.scenario_config(strategy))
        report = build_report(strategy, result.dates[1:], result.daily_returns,
                              result.benchmark_returns, config.risk_free_annual)
        with _writing(strategy_dir):
            (strategy_dir / "report.json").write_text(report.to_json(), encoding="utf-8")
            write_series_csv(result, strategy_dir / "series.csv")
            write_trades_csv(result, strategy_dir / "trades.csv")
            write_ranking_csv(result.rankings, strategy_dir / "ranking.csv")
        print(f"{strategy}: net_return={report.net_return:.6f} "
              f"benchmark={report.benchmark_return:.6f} "
              f"sharpe={report.sharpe_ratio:.4f}", file=out)
    return 0


def cmd_gradcheck(seed: int, out=None):
    out = out if out is not None else sys.stdout
    if seed < 0:
        raise ConfigError("--seed must be a non-negative integer")
    rng = np.random.default_rng(seed)
    batch = rng.normal(size=(5, 47))
    labels = rng.normal(size=5) * 0.05
    mlp_err = gradient_check(MlpModel.create(seed=seed), batch, labels)
    seq = rng.normal(size=(5, 3, 47))
    lstm_err = gradient_check(LstmModel.create(seed=seed + 1), seq, labels)
    ok = mlp_err <= GRADCHECK_TOLERANCE and lstm_err <= GRADCHECK_TOLERANCE
    print(f"mlp_max_relative_error: {mlp_err:.3e}", file=out)
    print(f"lstm_max_relative_error: {lstm_err:.3e}", file=out)
    print("PASS" if ok else "FAIL", file=out)
    return 0 if ok else 3


def cmd_report(series_path, out_path, strategy: str, risk_free_annual: float,
               out=None):
    """Re-render report.json from a previously written series.csv."""
    out = out if out is not None else sys.stdout
    if not math.isfinite(risk_free_annual):
        raise ConfigError(f"--risk-free must be a finite number, got {risk_free_annual}")
    report = build_report(strategy, *read_series_csv(series_path), risk_free_annual)
    with _writing(out_path):
        Path(out_path).parent.mkdir(parents=True, exist_ok=True)
        Path(out_path).write_text(report.to_json(), encoding="utf-8")
    print(f"wrote {out_path}", file=out)
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 as a ConfigError; 2 is for data errors
        self.print_usage(sys.stderr)
        raise ConfigError(f"{self.prog}: {message}")


def _build_parser():
    parser = _Parser(
        prog="rollingquant",
        description="Deterministic monthly-rebalance factor-strategy backtester",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-data", help="generate synthetic market CSVs")
    gen.add_argument("--config", required=True)
    gen.add_argument("--out", default=None, help="output directory override")
    gen.add_argument("--seed", type=int, default=None, help="master seed override")

    bt = sub.add_parser("backtest", help="run scenario backtests")
    bt.add_argument("--config", required=True)
    bt.add_argument("--out", default=None)
    bt.add_argument("--seed", type=int, default=None)

    gc = sub.add_parser("gradcheck", help="verify analytic gradients")
    gc.add_argument("--seed", type=int, default=0)

    rep = sub.add_parser("report", help="re-render report.json from series.csv")
    rep.add_argument("--series", required=True)
    rep.add_argument("--out", required=True, help="path of the report.json to write")
    rep.add_argument("--strategy", default="unknown")
    rep.add_argument("--risk-free", type=float, default=DEFAULT_RISK_FREE_ANNUAL)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "gen-data":
            config = load_run_config(args.config, args.seed, args.out)
            return cmd_gen_data(config)
        if args.command == "backtest":
            config = load_run_config(args.config, args.seed, args.out)
            return cmd_backtest(config)
        if args.command == "gradcheck":
            return cmd_gradcheck(args.seed)
        return cmd_report(args.series, args.out, args.strategy, args.risk_free)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
