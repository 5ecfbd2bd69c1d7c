"""Run configuration parsed from an INI-style config file.

Most keys are the fields of the run-config dataclasses, parsed by their
types, with their defaults; see README for a full example. Every section is
parsed first; then each dataclass checks its own ranges as it is built, and
a value it rejects is reported under its section. A master seed drives every
random stream through fixed offsets, so a run is a pure function of (config
bytes, input data bytes).
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .backtest import CostModel, ScenarioConfig
from .errors import ConfigError, not_utf8
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
    # scenario.train_config.seed is the master seed
    scenario: ScenarioConfig
    strategies: list[str] = field(default_factory=lambda: list(STRATEGY_KINDS))
    out_dir: Path = Path("out")
    risk_free_annual: float = DEFAULT_RISK_FREE_ANNUAL
    bars_path: Path | None = None
    fundamentals_path: Path | None = None
    benchmark_path: Path | None = None
    synthetic: SyntheticMarketConfig | None = None  # None: the data are the CSVs

    def scenario_config(self, strategy: str) -> ScenarioConfig:
        train = self.scenario.train_config
        return replace(self.scenario, train_config=replace(
            train, seed=train.seed + SEED_OFFSET_STRATEGY[strategy]))


def _seed(text: str) -> int:
    """The master seed from the file's text; main checks --seed itself."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise ValueError("must be a non-negative integer")
    return seed


def _finite_float(text: str) -> float:
    """float(text), rejecting nan and +-inf with a ValueError."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _path(text: str) -> Path:
    """Path(text), rejecting empty text, which Path would take as the working
    directory, and the NUL character no system call accepts."""
    if not text.strip():
        raise ValueError("a path cannot be empty")
    if "\0" in text:
        raise ValueError(f"a path cannot hold a NUL character, got {text!r}")
    return Path(text)


def _source(text: str) -> str:
    if text not in ("csv", "synthetic"):
        raise ValueError("must be 'csv' or 'synthetic'")
    return text


def _strategies(text: str) -> list[str]:
    strategies = [s.strip() for s in text.split(",") if s.strip()]
    if not strategies:
        raise ValueError("must name at least one strategy")
    for i, s in enumerate(strategies):
        if s not in STRATEGY_KINDS:
            raise ValueError(f"unknown strategy {s!r}; choose from {STRATEGY_KINDS}")
        if s in strategies[:i]:
            raise ValueError(f"names {s!r} twice")
    return strategies


# A dataclass's keys are its fields, each parsed by its annotation's parser,
# but for nested configs and the seed, which only [run] seed sets. An absent
# key is not passed on, so it takes the field's default.
_PARSERS = {"int": int, "float": _finite_float, "Date": iso_date, "str": str}


def _keys(cls) -> dict:
    return {f.name: _PARSERS[f.type] for f in fields(cls)
            if f.name != "seed" and f.type in _PARSERS}


_RUN_KEYS = {  # RunConfig, and the master seed
    "seed": _seed,
    "strategies": _strategies,
    "out_dir": _path,
    "risk_free_annual": _finite_float,
}
_SCENARIO_KEYS = _keys(ScenarioConfig)
_FILE_KEYS = {"bars": _path, "fundamentals": _path, "benchmark": _path}
_SYNTHETIC_KEYS = _keys(SyntheticMarketConfig)
_SECTION_KEYS = {  # in the order load_run_config reads them
    "run": _RUN_KEYS | _SCENARIO_KEYS,
    "data": {"source": _source} | _FILE_KEYS | _SYNTHETIC_KEYS,
    "train": _keys(TrainConfig),
    "costs": _keys(CostModel),
}


def _section(parser, name: str) -> dict:
    """The keys section [name] sets, each parsed by its _SECTION_KEYS entry;
    a section the file lacks sets none."""
    section = parser[name] if name in parser else {}
    table = _SECTION_KEYS[name]
    values = {}
    for key in section:  # with those merged in from [DEFAULT]
        if key not in table:
            raise ConfigError(f"unknown key '{key}' in [{name}]")
        try:
            values[key] = table[key](section[key].strip())
        except (ValueError, configparser.Error) as exc:  # Error: bad interpolation
            raise ConfigError(f"[{name}] {key}: {exc}") from None
    return values


def _require(values: dict, name: str, keys):
    for key in keys:
        if key not in values:
            raise ConfigError(f"missing required key '{key}' in section [{name}]")


def _build(name: str, cls, **fields):
    """cls(**fields), the ConfigError of a field it rejects naming [name]."""
    try:
        return cls(**fields)
    except ConfigError as exc:
        raise ConfigError(f"[{name}] {exc}") from None


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

    run, data, train, costs = (_section(parser, name) for name in _SECTION_KEYS)
    scenario = {key: run.pop(key) for key in _SCENARIO_KEYS if key in run}
    _require(scenario, "run", ("start", "end"))
    if seed_override is not None:
        run["seed"] = seed_override
    if "seed" in run:
        train["seed"] = run.pop("seed")
    scenario = _build("run", ScenarioConfig, **scenario,
                      train_config=_build("train", TrainConfig, **train),
                      costs=_build("costs", CostModel, **costs))
    if out_override is not None:
        try:
            run["out_dir"] = _path(str(out_override))
        except ValueError as exc:
            raise ConfigError(f"--out: {exc}") from None

    if data.get("source", "synthetic") == "csv":
        _require(data, "data", _FILE_KEYS)
        run.update({f"{key}_path": Path(path).parent / data[key] for key in _FILE_KEYS})
    else:
        _require(data, "data", ("start", "end"))
        run["synthetic"] = _build(
            "data", SyntheticMarketConfig, seed=scenario.train_config.seed + SEED_OFFSET_DATA,
            **{key: data[key] for key in _SYNTHETIC_KEYS if key in data})
    return RunConfig(scenario=scenario, **run)
