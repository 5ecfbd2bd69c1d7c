"""INI parsing: where each key lands, the defaults of absent keys, unknown
sections and keys, bad values and the order they are reported in, the seed
derivation, and the range rules the config dataclasses check when built."""

import csv
import io
import json
import math
from dataclasses import replace
from datetime import date as Date
from pathlib import Path

import pytest

from conftest import run_cli
from rollingquant import strategies
from rollingquant.backtest import CostModel, ScenarioConfig
from rollingquant.cli import cmd_backtest, main
from rollingquant.config import RunConfig, load_run_config
from rollingquant.errors import ConfigError
from rollingquant.numerics import TrainConfig
from rollingquant.synthetic import SyntheticMarketConfig

# the keys a config must set
MINIMAL = {"run": {"start": "2015-09-01", "end": "2015-12-31"},
           "data": {"start": "2014-01-01", "end": "2015-12-31"}}


def write_ini(tmp_path, **sections):
    """An INI of MINIMAL with the given keys set or added, section by section."""
    merged = {name: dict(body) for name, body in MINIMAL.items()}
    for name, body in sections.items():
        merged.setdefault(name, {}).update(body)
    path = tmp_path / "run.ini"
    path.write_text("\n".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in body.items())
        for name, body in merged.items()), encoding="utf-8")
    return path


def minimal_config():
    """What MINIMAL parses to: the dataclass defaults, the master seed
    at TrainConfig's default and the parser's own defaults."""
    return RunConfig(
        strategies=["linreg", "fcnn", "lstm"],
        out_dir=Path("out"),
        scenario=ScenarioConfig(start=Date(2015, 9, 1), end=Date(2015, 12, 31)),
        synthetic=SyntheticMarketConfig(seed=1, n_stocks=300, start=Date(2014, 1, 1),
                                        end=Date(2015, 12, 31)),
    )


def test_absent_keys_take_dataclass_defaults(tmp_path):
    config = load_run_config(write_ini(tmp_path))
    assert config == minimal_config()
    assert config.scenario.train_config == TrainConfig()
    assert config.scenario.costs == CostModel()


def _scenario(**changes):
    return lambda c: replace(c, scenario=replace(c.scenario, **changes))


def _train(**changes):
    return lambda c: replace(c, scenario=replace(
        c.scenario, train_config=replace(c.scenario.train_config, **changes)))


def _costs(**changes):
    return lambda c: replace(c, scenario=replace(
        c.scenario, costs=replace(c.scenario.costs, **changes)))


def _synthetic(**changes):
    return lambda c: replace(c, synthetic=replace(c.synthetic, **changes))


KEY_CASES = [
    ("run", "seed", "7",
     lambda c: _synthetic(seed=8)(_train(seed=7)(c))),
    ("run", "strategies", "lstm,linreg", lambda c: replace(c, strategies=["lstm", "linreg"])),
    ("run", "start", "2015-08-03", _scenario(start=Date(2015, 8, 3))),
    ("run", "end", "2015-11-30", _scenario(end=Date(2015, 11, 30))),
    ("run", "out_dir", "results", lambda c: replace(c, out_dir=Path("results"))),
    ("run", "window", "2", _scenario(window=2)),
    ("run", "holdings", "4", _scenario(holdings=4)),
    ("run", "risk_free_annual", "0.02", lambda c: replace(c, risk_free_annual=0.02)),
    ("run", "initial_capital", "5000", _scenario(initial_capital=5000.0)),
    ("data", "source", "synthetic", lambda c: c),
    ("data", "n_stocks", "40", _synthetic(n_stocks=40)),
    ("data", "start", "2013-06-03", _synthetic(start=Date(2013, 6, 3))),
    ("data", "end", "2016-01-29", _synthetic(end=Date(2016, 1, 29))),
    ("data", "regime", "crash", _synthetic(regime="crash")),
    ("data", "planted_signal_strength", "0.2", _synthetic(planted_signal_strength=0.2)),
    ("data", "noise_level", "0.03", _synthetic(noise_level=0.03)),
    ("train", "epochs", "3", _train(epochs=3)),
    ("train", "batch_size", "7", _train(batch_size=7)),
    ("train", "learning_rate", "0.01", _train(learning_rate=0.01)),
    ("train", "beta1", "0.8", _train(beta1=0.8)),
    ("train", "beta2", "0.99", _train(beta2=0.99)),
    ("costs", "commission_rate", "0.0003", _costs(commission_rate=0.0003)),
    ("costs", "sell_tax_rate", "0.001", _costs(sell_tax_rate=0.001)),
    ("costs", "lot_size", "100", _costs(lot_size=100.0)),
]


@pytest.mark.parametrize("section,key,text,expect", KEY_CASES,
                         ids=[f"{section}.{key}" for section, key, *_ in KEY_CASES])
def test_ini_keys_reach_their_fields(tmp_path, section, key, text, expect):
    config = load_run_config(write_ini(tmp_path, **{section: {key: text}}))
    assert config == expect(minimal_config())


def test_csv_keys_reach_their_fields(tmp_path):
    path = write_ini(tmp_path, data={"source": "csv", "bars": "b.csv",
                                     "fundamentals": "f.csv", "benchmark": "x.csv"})
    config = load_run_config(path)
    assert config == replace(minimal_config(), synthetic=None,
                             bars_path=tmp_path / "b.csv",
                             fundamentals_path=tmp_path / "f.csv",
                             benchmark_path=tmp_path / "x.csv")


@pytest.mark.parametrize("section,key,reported", [
    ("run", "holding", "run"),
    ("data", "n_stock", "data"),
    ("train", "epoch", "train"),
    ("costs", "commission", "costs"),
    ("DEFAULT", "holding", "run"),
])
def test_unknown_key_is_config_error(tmp_path, capsys, section, key, reported):
    path = write_ini(tmp_path, **{section: {key: "1"}})
    assert main(["backtest", "--config", str(path)]) == 1
    assert capsys.readouterr().err == \
        f"config error: unknown key '{key}' in [{reported}]\n"


def test_unknown_section_is_config_error(tmp_path):
    path = write_ini(tmp_path, cost={"commission_rate": "0.5"})
    with pytest.raises(ConfigError, match=r"^unknown section \[cost\]$"):
        load_run_config(path)


BAD_VALUE_CASES = [
    ("costs", "commission_rate", "-0.001", "[costs] commission_rate: must be >= 0"),
    ("costs", "sell_tax_rate", "-0.001", "[costs] sell_tax_rate: must be >= 0"),
    ("costs", "lot_size", "-100", "[costs] lot_size: must be >= 0"),
    ("costs", "commission_rate", "nan",
     "[costs] commission_rate: expected a finite number, got 'nan'"),
    ("run", "window", "2.5", "[run] window: invalid literal for int() with base 10: '2.5'"),
    ("run", "window", "0", "[run] window: must be >= 1"),
    ("run", "holdings", "-1", "[run] holdings: must be >= 1"),
    ("train", "epochs", "0", "[train] epochs: must be >= 1"),
    ("train", "batch_size", "-2", "[train] batch_size: must be >= 1"),
    ("train", "learning_rate", "0", "[train] learning_rate: must be > 0"),
    ("train", "beta1", "1.0", "[train] beta1: must be >= 0 and < 1"),
    ("train", "beta2", "1.0", "[train] beta2: must be >= 0 and < 1"),
    ("train", "beta1", "-0.5", "[train] beta1: must be >= 0 and < 1"),
    ("run", "initial_capital", "0", "[run] initial_capital: must be > 0"),
    ("run", "initial_capital", "-5", "[run] initial_capital: must be > 0"),
    ("run", "strategies", "linreg, fcnn, linreg", "[run] strategies: names 'linreg' twice"),
]


@pytest.mark.parametrize("section,key,text,message", BAD_VALUE_CASES,
                         ids=[f"{s}.{k}={t}" for s, k, t, _ in BAD_VALUE_CASES])
def test_bad_scenario_value_is_config_error(tmp_path, capsys, section, key, text, message):
    # the CSVs do not exist, so loading any data would exit 2
    sections = {"run": {"out_dir": tmp_path / "out"},
                "data": {"source": "csv", "bars": "b.csv", "fundamentals": "f.csv",
                         "benchmark": "x.csv"}}
    sections.setdefault(section, {})[key] = text
    assert main(["backtest", "--config", str(write_ini(tmp_path, **sections))]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sections,message", [
    ({"run": {"window": "0"}, "data": {"n_stocks": "x"}},
     "[data] n_stocks: invalid literal for int() with base 10: 'x'"),
    ({"train": {"epochs": "0"}, "costs": {"lot_size": "-"}},
     "[costs] lot_size: could not convert string to float: '-'"),
    ({"run": {"holdings": "0"}, "train": {"beta1": "1"}}, "[train] beta1: must be >= 0 and < 1"),
    ({"train": {"epochs": "0"}, "costs": {"commission_rate": "-1"}},
     "[train] epochs: must be >= 1"),
    ({"run": {"window": "0"}, "costs": {"commission_rate": "-1"}},
     "[costs] commission_rate: must be >= 0"),
    ({"run": {"window": "0"}, "data": {"n_stocks": "3"}}, "[run] window: must be >= 1"),
    ({"run": {"start": "2016-01-01"}, "train": {"epochs": "0"}}, "[train] epochs: must be >= 1"),
    ({"run": {"start": "2016-01-01"}, "costs": {"commission_rate": "-1"}},
     "[costs] commission_rate: must be >= 0"),
    ({"run": {"window": "0"}, "data": {"source": "bogus"}},
     "[data] source: must be 'csv' or 'synthetic'"),
    ({"data": {"source": "bogus"}, "train": {"epochs": "x"}},
     "[data] source: must be 'csv' or 'synthetic'"),
], ids=["run-range/data-parse", "train-range/costs-parse", "run-range/train-range",
        "train-range/costs-range", "run-range/costs-range", "run-range/data-range",
        "run-order/train-range", "run-order/costs-range", "run-range/data-source",
        "data-source/train-parse"])
def test_every_section_parses_before_any_range_is_checked(tmp_path, capsys, sections, message):
    # all parse errors first, then the [train], [costs], [run] and [data] ranges
    sections = sections | {"run": sections.get("run", {}) | {"out_dir": tmp_path / "out"}}
    assert main(["backtest", "--config", str(write_ini(tmp_path, **sections))]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


CSV_FILES = {"source": "csv", "bars": "b.csv", "fundamentals": "f.csv", "benchmark": "x.csv"}


@pytest.mark.parametrize("data,message", [
    (CSV_FILES | {"n_stocks": "abc"},
     "[data] n_stocks: invalid literal for int() with base 10: 'abc'"),
    (CSV_FILES | {"noise_level": "oops"},
     "[data] noise_level: could not convert string to float: 'oops'"),
    ({"source": "synthetic", "bars": ""}, "[data] bars: a path cannot be empty"),
], ids=["csv-n_stocks", "csv-noise_level", "synthetic-bars"])
def test_data_key_of_the_other_source_is_parsed(tmp_path, capsys, data, message):
    # every key [data] sets is parsed, whichever source the run reads
    path = write_ini(tmp_path, run={"out_dir": tmp_path / "out"}, data=data)
    assert main(["backtest", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


# YYYY-MM-DD texts that strptime("%Y-%m-%d") reads, and one that
# date.fromisoformat reads from Python 3.11 on
NOT_ISO_DATES = ["2015-6-3", "2015-06- 3", "\u0662\u0660\u0661\u0665-06-03", "20150603"]


@pytest.mark.parametrize("text", NOT_ISO_DATES + ["2015-02-30"])
@pytest.mark.parametrize("section,key", [("run", "start"), ("run", "end"), ("data", "start"),
                                         ("data", "end")])
def test_date_not_in_yyyy_mm_dd_is_config_error(tmp_path, section, key, text):
    path = write_ini(tmp_path, **{section: {key: text}})
    with pytest.raises(ConfigError) as caught:
        load_run_config(path)
    assert str(caught.value) == f"[{section}] {key}: not a YYYY-MM-DD date: {text!r}"


# a 25-stock crash market on which three holdings turn over completely
COSTS_RUN = {"run": {"seed": "1", "strategies": "linreg", "start": "2015-07-01",
                     "holdings": "3"},
             "data": {"n_stocks": "25", "regime": "crash"}}


@pytest.mark.parametrize("rates", [{"commission_rate": "1.0"},
                                   {"commission_rate": "0.5", "sell_tax_rate": "0.5"}],
                         ids=["commission", "commission+tax"])
def test_costs_taking_a_whole_sale_are_config_error(tmp_path, capsys, rates):
    # a sale that pays all its proceeds in costs can leave a portfolio worth
    # 0, and the next daily return then divided by it (ZeroDivisionError)
    path = write_ini(tmp_path, **COSTS_RUN, costs=rates)
    assert main(["backtest", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == \
        "config error: [costs] commission_rate + sell_tax_rate must be below 1\n"
    assert not (tmp_path / "out").exists()


def csv_numbers(path):
    """The fields of a CSV that float() reads, as floats."""
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            for field in row:
                try:
                    yield float(field)
                except ValueError:  # a date, a stock id, a side, a header
                    pass


def test_costs_just_below_a_whole_sale_write_finite_numbers(tmp_path, capsys):
    path = write_ini(tmp_path, **COSTS_RUN,
                     costs={"commission_rate": "0.5", "sell_tax_rate": "0.49999"})
    assert main(["backtest", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    files = sorted((tmp_path / "out" / "linreg").iterdir())
    assert [f.name for f in files] == ["ranking.csv", "report.json", "series.csv", "trades.csv"]
    for f in files[::2]:  # the CSVs: every field float() reads is finite
        numbers = list(csv_numbers(f))
        assert numbers and all(map(math.isfinite, numbers)), f.name
    report = files[1].read_text()  # non-finite statistics would read "undefined"
    assert "undefined" not in report
    json.loads(report, parse_constant=lambda name: pytest.fail(f"report.json holds {name}"))
    assert "net_return=-1.000000" in capsys.readouterr().out


FLOAT_KEYS = [
    ("run", "risk_free_annual"), ("run", "initial_capital"),
    ("train", "learning_rate"), ("train", "beta1"), ("train", "beta2"),
    ("costs", "commission_rate"), ("costs", "sell_tax_rate"), ("costs", "lot_size"),
    ("data", "planted_signal_strength"), ("data", "noise_level"),
]


@pytest.mark.parametrize("text", ["nan", "inf"])
@pytest.mark.parametrize("section,key", FLOAT_KEYS,
                         ids=[f"{section}.{key}" for section, key in FLOAT_KEYS])
def test_non_finite_number_is_config_error(tmp_path, capsys, section, key, text):
    # a non-finite rate, lot or capital would print net_return=nan and exit 0
    sections = {"run": {"out_dir": tmp_path / "out"}}
    sections.setdefault(section, {})[key] = text
    assert main(["backtest", "--config", str(write_ini(tmp_path, **sections))]) == 1
    assert capsys.readouterr().err == \
        f"config error: [{section}] {key}: expected a finite number, got {text!r}\n"
    assert not (tmp_path / "out").exists()


RUN = b"[run]\nstart = 2015-09-01\nend = 2015-12-31\n"


@pytest.mark.parametrize("text,message", [
    (RUN + b"start = 2015-09-02\n", "{path}:4: duplicate key 'start' in [run]"),
    (RUN + b"[run]\nwindow = 2\n", "{path}:4: duplicate section [run]"),
    (b"seed = 1\n" + RUN, "{path}:1: a key before any section header"),
    (RUN + b"holdings\n", "{path}:4: neither 'key = value' nor a '[section]' header"),
    (RUN + b"out_dir = \xff\n", "{path}:4: byte 0xff is not UTF-8 text"),
    # configparser ends a line at a lone \r too
    (RUN.replace(b"\n", b"\r") + b"out_dir = \xff\r", "{path}:4: byte 0xff is not UTF-8 text"),
    (RUN.replace(b"\n", b"\r\n") + b"\rout_dir = \xff\n", "{path}:5: byte 0xff is not UTF-8 text"),
    (RUN.replace(b"\n", b"\r") + b"start = 2015-09-02\r", "{path}:4: duplicate key 'start' in [run]"),
    (RUN + b"out_dir = 100%\n", "[run] out_dir: '%' must be followed by '%' or '(', found: '%'"),
], ids=["duplicate_key", "duplicate_section", "no_section", "no_equals", "not_utf8",
        "not_utf8_cr", "not_utf8_crlf_cr", "duplicate_key_cr", "bad_interpolation"])
def test_unparsable_file_is_config_error(tmp_path, text, message):
    path = tmp_path / "run.ini"
    path.write_bytes(text)
    done = run_cli("backtest", "--config", str(path))
    assert (done.returncode, done.stderr) == (1, f"config error: {message.format(path=path)}\n")


@pytest.mark.parametrize("command,seed,message", [
    ("backtest", None, "[run] seed: must be a non-negative integer"),
    ("gen-data", "-5", "--seed must be a non-negative integer"),
    ("backtest", "-5", "--seed must be a non-negative integer"),
    ("gradcheck", "-1", "--seed must be a non-negative integer"),
], ids=["run.seed=-3", "gen-data--seed=-5", "backtest--seed=-5", "gradcheck--seed=-1"])
def test_negative_seed_is_config_error(tmp_path, command, seed, message):
    args = [command]
    if command != "gradcheck":
        path = write_ini(tmp_path, run={"seed": "-3" if seed is None else "4",
                                        "out_dir": tmp_path / "out"})
        args += ["--config", str(path)]
    if seed is not None:
        args += ["--seed", seed]
    done = run_cli(*args)
    assert (done.returncode, done.stderr) == (1, f"config error: {message}\n")
    assert "Traceback" not in done.stderr
    assert not (tmp_path / "out").exists()


def test_training_seeds_follow_the_derivation(tmp_path, monkeypatch):
    seeds = []
    train = strategies.train

    def recording_train(model, samples, labels, config, member_seeds):
        seeds.extend(member_seeds)
        return train(model, samples, labels, config, member_seeds)

    monkeypatch.setattr(strategies, "train", recording_train)
    path = write_ini(tmp_path, run={"seed": "4", "strategies": "linreg,fcnn,lstm",
                                    "out_dir": tmp_path / "out"},
                     data={"n_stocks": "40", "regime": "crash"}, train={"epochs": "1"})
    assert cmd_backtest(load_run_config(path), out=io.StringIO()) == 0
    # master + strategy offset + action day index * 10,007; linreg trains nothing
    assert seeds == [4 + offset + i * 10_007
                     for offset in (200_000, 300_000) for i in range(4)]


# Every range rule of the config dataclasses: (a valid instance, the field
# set to a value the rule rejects, the message). The CLI reports each under
# its section; built directly, each raises the message alone.
TRAIN = TrainConfig()
COSTS = CostModel()
SCENARIO = minimal_config().scenario
SYNTHETIC = minimal_config().synthetic
RANGE_RULES = [
    (TRAIN, "epochs", 0, "epochs: must be >= 1"),
    (TRAIN, "batch_size", 0, "batch_size: must be >= 1"),
    (TRAIN, "learning_rate", 0.0, "learning_rate: must be > 0"),
    (TRAIN, "learning_rate", math.nan, "learning_rate: must be > 0"),
    *((TRAIN, beta, value, f"{beta}: must be >= 0 and < 1")
      for beta in ("beta1", "beta2") for value in (-0.5, 1.0, math.nan)),
    *((COSTS, key, value, f"{key}: must be >= 0")
      for key in ("commission_rate", "sell_tax_rate", "lot_size") for value in (-0.1, math.nan)),
    (COSTS, "lot_size", math.inf, "lot_size: must be finite"),
    (COSTS, "commission_rate", 1.0, "commission_rate + sell_tax_rate must be below 1"),
    (COSTS, "sell_tax_rate", math.inf, "commission_rate + sell_tax_rate must be below 1"),
    (SCENARIO, "start", Date(2015, 12, 31), "start: must be before end"),
    (SCENARIO, "window", 0, "window: must be >= 1"),
    (SCENARIO, "holdings", 0, "holdings: must be >= 1"),
    (SCENARIO, "initial_capital", 0.0, "initial_capital: must be > 0"),
    (SCENARIO, "initial_capital", math.nan, "initial_capital: must be > 0"),
    (SYNTHETIC, "n_stocks", 9, "n_stocks must be >= 10"),
    *((SYNTHETIC, "planted_signal_strength", value, "planted_signal_strength must be in [0, 1]")
      for value in (-0.1, 1.1, math.nan)),
    (SYNTHETIC, "regime", "sideways",
     "unknown regime 'sideways'; choose one of ('inflection', 'fluctuating-decline', 'crash')"),
    (SYNTHETIC, "start", Date(2015, 12, 31), "start must precede end"),
    (SYNTHETIC, "n_stocks", 13_699,
     "n_stocks times the 730 calendar days of start..end must be <= 10,000,000"),
    (SYNTHETIC, "start", Date(2015, 11, 7), "date range too short to generate a market"),
    (SYNTHETIC, "noise_level", -0.01, "noise_level must be >= 0"),
    (SYNTHETIC, "noise_level", math.nan, "noise_level must be >= 0"),
]


@pytest.mark.parametrize("valid,key,value,message", RANGE_RULES,
                         ids=[f"{type(c).__name__}.{k}={v}" for c, k, v, _ in RANGE_RULES])
def test_config_dataclass_cannot_be_built_out_of_range(valid, key, value, message):
    with pytest.raises(ConfigError) as built:
        type(valid)(**vars(valid) | {key: value})
    with pytest.raises(ConfigError) as replaced:
        replace(valid, **{key: value})
    assert str(built.value) == str(replaced.value) == message


@pytest.mark.parametrize("valid,key,value", [
    (TRAIN, "epochs", 1), (TRAIN, "batch_size", 1), (TRAIN, "learning_rate", 5e-324),
    (TRAIN, "beta1", 0.0), (TRAIN, "beta2", 0.0),
    (COSTS, "commission_rate", 0.0), (COSTS, "lot_size", 0.0), (COSTS, "lot_size", 1e300),
    (replace(COSTS, sell_tax_rate=0.5), "commission_rate", 0.49999),
    (SCENARIO, "start", Date(2015, 12, 30)), (SCENARIO, "window", 1), (SCENARIO, "holdings", 1),
    (SCENARIO, "initial_capital", 5e-324),
    (SYNTHETIC, "n_stocks", 10), (SYNTHETIC, "n_stocks", 13_698),
    (SYNTHETIC, "planted_signal_strength", 0.0), (SYNTHETIC, "planted_signal_strength", 1.0),
    (SYNTHETIC, "start", Date(2015, 11, 6)), (SYNTHETIC, "noise_level", 0.0),
], ids=lambda x: type(x).__name__ if hasattr(x, "__dataclass_fields__") else str(x))
def test_config_dataclass_takes_a_value_at_its_bound(valid, key, value):
    assert getattr(replace(valid, **{key: value}), key) == value
