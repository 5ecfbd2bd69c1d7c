"""Run configuration parsed from an INI-style config file.

Sections and keys mirror the run-config fields; see README for a full
example. A master seed drives every random stream through fixed offsets,
so a run is a pure function of (config bytes, input data bytes).
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, replace
from pathlib import Path

from .backtest import CostModel, ScenarioConfig
from .errors import ConfigError, ValidationError, not_utf8
from .marketdata import iso_date
from .metrics import DEFAULT_RISK_FREE_ANNUAL
from .numerics import TrainConfig
from .strategies import STRATEGY_KINDS
from .synthetic import SyntheticMarketConfig

# Fixed master-seed offsets per component.
SEED_OFFSET_DATA = 1
SEED_OFFSET_STRATEGY = {"linreg": 100_000, "fcnn": 200_000, "lstm": 300_000}


@dataclass
class RunConfig:
    strategies: list[str]
    out_dir: Path
    # scenario.train_config.seed is the master seed
    scenario: ScenarioConfig
    risk_free_annual: float = DEFAULT_RISK_FREE_ANNUAL
    bars_path: Path | None = None
    fundamentals_path: Path | None = None
    benchmark_path: Path | None = None
    synthetic: SyntheticMarketConfig | None = None  # None: the data are the CSVs

    def scenario_config(self, strategy: str) -> ScenarioConfig:
        train = self.scenario.train_config
        return replace(self.scenario, train_config=replace(
            train, seed=train.seed + SEED_OFFSET_STRATEGY[strategy]))


def _iso_date(key: str):
    def parse(text: str):
        try:
            return iso_date(text)
        except ValueError:
            raise ConfigError(f"{key}: expected YYYY-MM-DD, got {text!r}") from None
    return parse


def _seed(text) -> int:
    """The master seed from the file's text or the --seed integer."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise ConfigError("run.seed must be a non-negative integer")
    return seed


def _finite_float(text: str) -> float:
    """float(text), rejecting nan and +-inf with a ValueError."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _strategies(text: str) -> list[str]:
    strategies = [s.strip() for s in text.split(",") if s.strip()]
    if not strategies:
        raise ConfigError("run.strategies must name at least one strategy")
    for i, s in enumerate(strategies):
        if s not in STRATEGY_KINDS:
            raise ConfigError(f"unknown strategy {s!r}; choose from {STRATEGY_KINDS}")
        if s in strategies[:i]:
            raise ConfigError(f"run.strategies names {s!r} twice")
    return strategies


# One key -> parser table per dataclass. Only the keys a file sets are passed
# on, so an absent key takes its dataclass default.
_RUN_KEYS = {  # RunConfig, and the master seed
    "seed": _seed,
    "strategies": _strategies,
    "out_dir": Path,
    "risk_free_annual": _finite_float,
}
_SCENARIO_KEYS = {
    "start": _iso_date("run.start"),
    "end": _iso_date("run.end"),
    "window": int,
    "holdings": int,
    "initial_capital": _finite_float,
}
_TRAIN_KEYS = {
    "epochs": int,
    "batch_size": int,
    "learning_rate": _finite_float,
    "beta1": _finite_float,
    "beta2": _finite_float,
}
_COST_KEYS = {"commission_rate": _finite_float, "sell_tax_rate": _finite_float,
              "lot_size": _finite_float}
_DATA_KEYS = {"source": str, "bars": Path, "fundamentals": Path, "benchmark": Path}
_SYNTHETIC_KEYS = {
    "n_stocks": int,
    "start": _iso_date("data.start"),
    "end": _iso_date("data.end"),
    "regime": str,
    "planted_signal_strength": _finite_float,
    "noise_level": _finite_float,
}
_SECTION_KEYS = {
    "run": _RUN_KEYS | _SCENARIO_KEYS,
    "data": _DATA_KEYS | _SYNTHETIC_KEYS,
    "train": _TRAIN_KEYS,
    "costs": _COST_KEYS,
}


def _values(parser, name: str, table, required=()) -> dict:
    """The keys of table that section [name] sets, parsed."""
    section = parser[name] if name in parser else {}
    for key in required:
        if key not in section:
            raise ConfigError(f"missing required key '{key}' in section [{name}]")
    values = {}
    for key, parse in table.items():
        if key in section:
            try:
                values[key] = parse(section[key].strip())
            except (ValueError, configparser.Error) as exc:  # Error: bad interpolation
                raise ConfigError(f"[{name}] {key}: {exc}") from None
    return values


def _syntax_error(path, exc: configparser.Error) -> ConfigError:
    """The file, line and reason of a parse error configparser raised on path."""
    if isinstance(exc, configparser.DuplicateSectionError):
        reason = f"duplicate section [{exc.section}]"
    elif isinstance(exc, configparser.DuplicateOptionError):
        reason = f"duplicate key '{exc.option}' in [{exc.section}]"
    elif isinstance(exc, configparser.MissingSectionHeaderError):
        reason = "a key before any section header"
    else:  # a ParsingError, which lists the lines it rejected
        reason = "neither 'key = value' nor a '[section]' header"
    line = getattr(exc, "lineno", None) or exc.errors[0][0]
    return ConfigError(f"{path}:{line}: {reason}")


def load_run_config(path, seed_override: int | None = None,
                    out_override=None) -> RunConfig:
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path, encoding="utf-8")
    except UnicodeDecodeError:
        raise ConfigError(not_utf8(path)) from None
    except configparser.Error as exc:
        raise _syntax_error(path, exc) from None
    if not read:
        raise ConfigError(f"config file not found: {path}")

    if "run" not in parser:
        raise ConfigError("config must contain a [run] section")
    for name in parser.sections():  # [DEFAULT] is not among them
        if name not in _SECTION_KEYS:
            raise ConfigError(f"unknown section [{name}]")
    for name, table in _SECTION_KEYS.items():
        # a section's keys include those merged in from [DEFAULT]
        for key in parser[name] if name in parser else ():
            if key not in table:
                raise ConfigError(f"unknown key '{key}' in [{name}]")

    run = _values(parser, "run", _RUN_KEYS)
    scenario = _values(parser, "run", _SCENARIO_KEYS, required=("start", "end"))
    train = _values(parser, "train", _TRAIN_KEYS)
    costs = _values(parser, "costs", _COST_KEYS)
    if scenario["start"] >= scenario["end"]:
        raise ConfigError("run.start must precede run.end")
    if seed_override is not None:
        run["seed"] = _seed(seed_override)
    if "seed" in run:
        train["seed"] = run.pop("seed")
    scenario = ScenarioConfig(**scenario, costs=CostModel(**costs),
                              train_config=TrainConfig(**train))
    if scenario.window < 1 or scenario.holdings < 1:
        raise ConfigError("run.window and run.holdings must be >= 1")
    if not scenario.initial_capital > 0:
        raise ConfigError("run.initial_capital must be > 0")
    try:
        scenario.costs.validate()
        scenario.train_config.validate()
    except ValidationError as exc:
        raise ConfigError(str(exc)) from None
    options = {"strategies": list(STRATEGY_KINDS), "out_dir": Path("out")} | run
    if out_override is not None:
        options["out_dir"] = Path(out_override)

    source = _values(parser, "data", _DATA_KEYS).get("source", "synthetic")
    if source == "csv":
        files = _values(parser, "data", _DATA_KEYS,
                        required=("bars", "fundamentals", "benchmark"))
        base = Path(path).parent
        options.update(bars_path=base / files["bars"],
                       fundamentals_path=base / files["fundamentals"],
                       benchmark_path=base / files["benchmark"])
    elif source == "synthetic":
        synthetic = _values(parser, "data", _SYNTHETIC_KEYS, required=("start", "end"))
        options["synthetic"] = SyntheticMarketConfig(
            seed=scenario.train_config.seed + SEED_OFFSET_DATA,
            **{"n_stocks": 300} | synthetic)
        options["synthetic"].validate()
    else:
        raise ConfigError("data.source must be 'csv' or 'synthetic'")
    return RunConfig(scenario=scenario, **options)
