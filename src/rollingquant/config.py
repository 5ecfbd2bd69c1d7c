"""Run configuration parsed from an INI-style config file.

Sections and keys mirror the run-config fields; see README for a full
example. A master seed drives every random stream through fixed offsets,
so a run is a pure function of (config bytes, input data bytes).
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, replace
from datetime import date as Date
from datetime import datetime
from pathlib import Path

from .backtest import CostModel, ScenarioConfig
from .errors import ConfigError
from .marketdata import EligibilityRules
from .metrics import DEFAULT_RISK_FREE_ANNUAL
from .numerics import TrainConfig
from .strategies import STRATEGY_KINDS
from .synthetic import SyntheticMarketConfig

# Fixed master-seed offsets per component.
SEED_OFFSET_DATA = 1
SEED_OFFSET_STRATEGY = {"linreg": 100_000, "fcnn": 200_000, "lstm": 300_000}


def _parse_iso_date(text: str, key: str) -> Date:
    try:
        return datetime.strptime(text, "%Y-%m-%d").date()
    except ValueError:
        raise ConfigError(f"{key}: expected YYYY-MM-DD, got {text!r}") from None


@dataclass
class RunConfig:
    source: str                      # "csv" | "synthetic"
    start: Date
    end: Date
    strategies: list[str]
    out_dir: Path
    seed: int
    window: int = 3
    holdings: int = 10
    risk_free_annual: float = DEFAULT_RISK_FREE_ANNUAL
    initial_capital: float = 1_000_000.0
    bars_path: Path | None = None
    fundamentals_path: Path | None = None
    benchmark_path: Path | None = None
    synthetic: SyntheticMarketConfig | None = None
    train: TrainConfig = field(default_factory=TrainConfig)
    costs: CostModel = field(default_factory=CostModel)
    eligibility: EligibilityRules = field(default_factory=EligibilityRules)

    def scenario_config(self, strategy: str) -> ScenarioConfig:
        return ScenarioConfig(
            start=self.start,
            end=self.end,
            window=self.window,
            holdings=self.holdings,
            initial_capital=self.initial_capital,
            costs=self.costs,
            eligibility=self.eligibility,
            train_config=replace(self.train),
            seed=self.seed + SEED_OFFSET_STRATEGY[strategy],
        )


def _get(section, key, default=None, required=False):
    if key in section:
        return section[key].strip()
    if required:
        raise ConfigError(f"missing required key '{key}' in section [{section.name}]")
    return default


def load_run_config(path, seed_override: int | None = None,
                    out_override=None) -> RunConfig:
    parser = configparser.ConfigParser()
    read = parser.read(path, encoding="utf-8")
    if not read:
        raise ConfigError(f"config file not found: {path}")

    if "run" not in parser:
        raise ConfigError("config must contain a [run] section")
    run = parser["run"]
    data = parser["data"] if "data" in parser else {}

    try:
        seed = int(_get(run, "seed", "0"))
    except ValueError:
        raise ConfigError("run.seed must be an integer") from None
    if seed_override is not None:
        seed = seed_override

    strategies_raw = _get(run, "strategies", "linreg,fcnn,lstm")
    strategies = [s.strip() for s in strategies_raw.split(",") if s.strip()]
    if not strategies:
        raise ConfigError("run.strategies must name at least one strategy")
    for s in strategies:
        if s not in STRATEGY_KINDS:
            raise ConfigError(f"unknown strategy {s!r}; choose from {STRATEGY_KINDS}")

    start = _parse_iso_date(_get(run, "start", required=True), "run.start")
    end = _parse_iso_date(_get(run, "end", required=True), "run.end")
    if start >= end:
        raise ConfigError("run.start must precede run.end")

    out_dir = Path(out_override if out_override is not None
                   else _get(run, "out_dir", "out"))

    source = _get(data, "source", "synthetic") if data else "synthetic"
    bars = fundamentals = benchmark = None
    synthetic = None
    if source == "csv":
        base = Path(path).parent
        bars = base / _get(data, "bars", required=True)
        fundamentals = base / _get(data, "fundamentals", required=True)
        benchmark = base / _get(data, "benchmark", required=True)
    elif source == "synthetic":
        try:
            synthetic = SyntheticMarketConfig(
                seed=seed + SEED_OFFSET_DATA,
                n_stocks=int(_get(data, "n_stocks", "300")),
                start=_parse_iso_date(_get(data, "start", required=True), "data.start"),
                end=_parse_iso_date(_get(data, "end", required=True), "data.end"),
                regime=_get(data, "regime", "inflection"),
                planted_signal_strength=float(_get(data, "planted_signal_strength", "0.5")),
                noise_level=float(_get(data, "noise_level", "0.01")),
            )
        except ValueError as exc:
            raise ConfigError(f"bad [data] value: {exc}") from None
        synthetic.validate()
    else:
        raise ConfigError("data.source must be 'csv' or 'synthetic'")

    train_section = parser["train"] if "train" in parser else {}
    costs_section = parser["costs"] if "costs" in parser else {}
    try:
        config = RunConfig(
            source=source,
            start=start,
            end=end,
            strategies=strategies,
            out_dir=out_dir,
            seed=seed,
            window=int(_get(run, "window", "3")),
            holdings=int(_get(run, "holdings", "10")),
            risk_free_annual=float(_get(run, "risk_free_annual",
                                        str(DEFAULT_RISK_FREE_ANNUAL))),
            initial_capital=float(_get(run, "initial_capital", "1000000")),
            bars_path=bars,
            fundamentals_path=fundamentals,
            benchmark_path=benchmark,
            synthetic=synthetic,
            train=TrainConfig(
                epochs=int(_get(train_section, "epochs", "10")),
                batch_size=int(_get(train_section, "batch_size", "10")),
                learning_rate=float(_get(train_section, "learning_rate", "0.001")),
                beta1=float(_get(train_section, "beta1", "0.9")),
                beta2=float(_get(train_section, "beta2", "0.999")),
            ),
            costs=CostModel(
                commission_rate=float(_get(costs_section, "commission_rate", "0")),
                sell_tax_rate=float(_get(costs_section, "sell_tax_rate", "0")),
                lot_size=float(_get(costs_section, "lot_size", "0")),
            ),
        )
    except ValueError as exc:
        raise ConfigError(f"bad config value: {exc}") from None
    if config.window < 1 or config.holdings < 1:
        raise ConfigError("run.window and run.holdings must be >= 1")
    return config
