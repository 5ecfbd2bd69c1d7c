"""End-to-end CLI runs through main(): exit codes, outputs, determinism."""

import io
import json
import warnings
from collections import Counter
from datetime import date as Date
from datetime import timedelta
from pathlib import Path

import pytest

from conftest import bars_of, broken_backward, flat_market, run_cli
from rollingquant import cli
from rollingquant.cli import cmd_backtest, main
from rollingquant.config import load_run_config
from rollingquant.errors import DataError
from rollingquant.exports import write_dataset
from rollingquant.factors import MarketStore
from rollingquant.numerics import MlpModel

BASE_INI = """\
[run]
seed = 4
strategies = {strategies}
start = 2015-09-01
end = 2015-12-31
out_dir = {out_dir}
holdings = 5

[data]
source = synthetic
n_stocks = 40
start = 2014-01-01
end = 2015-12-31
regime = crash
planted_signal_strength = 0.5
"""


def write_config(tmp_path, strategies="linreg", out_name="out", **extra):
    out_dir = tmp_path / out_name
    text = BASE_INI.format(strategies=strategies, out_dir=out_dir)
    for section, body in extra.items():
        text += f"\n[{section}]\n" + "".join(
            f"{k} = {v}\n" for k, v in body.items())
    path = tmp_path / f"run_{out_name}.ini"
    path.write_text(text, encoding="utf-8")
    return path, out_dir


def csv_config(tmp_path):
    """A backtest config over the three CSVs in tmp_path, July to December 2015."""
    config = tmp_path / "run.ini"
    config.write_text("[run]\nstart = 2015-07-01\nend = 2015-12-31\n"
                      f"out_dir = {tmp_path / 'out'}\n\n[data]\nsource = csv\n"
                      "bars = bars.csv\nfundamentals = fundamentals.csv\n"
                      "benchmark = benchmark.csv\n", encoding="utf-8")
    return config


def tree_bytes(root: Path):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestGenData:
    def test_writes_csvs_and_summary(self, tmp_path, capsys):
        config, out_dir = write_config(tmp_path)
        assert main(["gen-data", "--config", str(config)]) == 0
        for name in ("bars.csv", "fundamentals.csv", "benchmark.csv"):
            assert (out_dir / name).is_file()
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "stocks: 40"
        cumulative = float(lines[3].split(": ")[1])
        assert cumulative <= -0.30  # crash regime ends deep underwater

    def test_same_seed_is_byte_identical(self, tmp_path):
        config_a, out_a = write_config(tmp_path, out_name="a")
        config_b, out_b = write_config(tmp_path, out_name="b")
        main(["gen-data", "--config", str(config_a)])
        main(["gen-data", "--config", str(config_b)])
        assert tree_bytes(out_a) == tree_bytes(out_b)

    def test_seed_override_changes_data(self, tmp_path):
        config, out_dir = write_config(tmp_path)
        main(["gen-data", "--config", str(config)])
        first = tree_bytes(out_dir)
        main(["gen-data", "--config", str(config), "--seed", "99"])
        assert tree_bytes(out_dir) != first

    def test_too_few_stocks_is_config_error(self, tmp_path, capsys):
        config, _ = write_config(tmp_path)
        text = config.read_text().replace("n_stocks = 40", "n_stocks = 3")
        config.write_text(text)
        assert main(["gen-data", "--config", str(config)]) == 1
        assert "config error" in capsys.readouterr().err


class TestBacktest:
    def test_three_strategies_write_reports(self, tmp_path, capsys):
        config, out_dir = write_config(tmp_path, strategies="linreg,fcnn,lstm")
        assert main(["backtest", "--config", str(config)]) == 0
        for strategy in ("linreg", "fcnn", "lstm"):
            for name in ("report.json", "series.csv", "trades.csv", "ranking.csv"):
                assert (out_dir / strategy / name).is_file()
            doc = json.loads((out_dir / strategy / "report.json").read_text())
            assert doc["strategy"] == strategy
        assert len(capsys.readouterr().out.splitlines()) == 3

    def test_rerun_is_byte_identical(self, tmp_path):
        config, out_dir = write_config(tmp_path)
        main(["backtest", "--config", str(config)])
        first = tree_bytes(out_dir)
        main(["backtest", "--config", str(config)])
        assert tree_bytes(out_dir) == first

    def test_rerun_under_another_hash_seed_is_byte_identical(self, tmp_path):
        # str hashes, and so the order of a set of strings, differ between interpreters
        trees = []
        for seed in ("1", "2"):
            config, out_dir = write_config(tmp_path, strategies="linreg,fcnn,lstm",
                                           out_name=f"hash{seed}", train={"epochs": 1})
            done = run_cli("backtest", "--config", str(config), env={"PYTHONHASHSEED": seed})
            assert (done.returncode, done.stderr) == (0, "")
            trees.append(tree_bytes(out_dir))
        assert len(trees[0]) == 12
        assert trees[1] == trees[0]

    def test_lot_finer_than_float_spacing_trades_fractional_shares(self, tmp_path):
        # shares / 1e-320 is inf, which int() cannot round to whole lots
        trees = []
        for lot in ("0", "1e-320"):
            config, out_dir = write_config(tmp_path, strategies="linreg,fcnn,lstm",
                                           out_name=f"lot{lot}", train={"epochs": 1},
                                           costs={"lot_size": lot})
            assert main(["backtest", "--config", str(config)]) == 0
            trees.append(tree_bytes(out_dir))
        assert len(trees[0]) == 12
        assert trees[1] == trees[0]

    def test_strategies_share_each_factor_row(self, tmp_path, monkeypatch):
        computed = Counter()
        compute_panel = MarketStore._compute_panel

        def counting_compute_panel(store, d):
            computed[d] += 1
            return compute_panel(store, d)

        monkeypatch.setattr(MarketStore, "_compute_panel", counting_compute_panel)
        config, _ = write_config(tmp_path, strategies="linreg,fcnn,lstm",
                                 train={"epochs": 1})
        assert main(["backtest", "--config", str(config)]) == 0
        # 4 action days with 3-day windows reach 7 month ends, each one
        # date's panel computed once for all three strategies
        assert len(computed) == 7
        assert set(computed.values()) == {1}

    def test_close_zero_suspension_raises_no_warning(self, tmp_path, gapped_market):
        # a bar at close 0 makes the next daily return inf; the return
        # statistics and the beta of every window holding it are masked, and
        # computing them printed numpy's "invalid value" warnings
        bars = bars_of(gapped_market, "S0004")
        for column in (bars.close, bars.prev_close, bars.market_cap, bars.volume,
                       bars.turnover):
            column[400] = 0.0
        bars.suspended[400] = True
        write_dataset(gapped_market, tmp_path)
        trees = []
        for action in ("ignore", "error"):
            config, out_dir = write_config(tmp_path, strategies="linreg,fcnn,lstm",
                                           out_name=action, train={"epochs": 1})
            config.write_text(config.read_text().replace(
                "source = synthetic",
                "source = csv\nbars = bars.csv\nfundamentals = fundamentals.csv\n"
                "benchmark = benchmark.csv"))
            with warnings.catch_warnings():
                warnings.simplefilter(action, RuntimeWarning)
                assert cmd_backtest(load_run_config(config)) == 0
            trees.append(tree_bytes(out_dir))
        assert len(trees[1]) == 12
        assert trees[1] == trees[0]

    def test_each_strategy_alone_writes_what_one_run_of_all_three_writes(self, tmp_path):
        """The store's normalization memo, shared by the strategies of a run,
        changes none of the bytes a strategy writes or prints."""
        def run(strategies):
            config, out_dir = write_config(tmp_path, strategies=strategies,
                                           out_name=strategies.replace(",", "-"),
                                           train={"epochs": 2})
            out = io.StringIO()
            assert cmd_backtest(load_run_config(config), out=out) == 0
            return tree_bytes(out_dir), out.getvalue().splitlines()

        tree, lines = run("linreg,fcnn,lstm")
        assert len(tree) == 12
        for i, strategy in enumerate(("linreg", "fcnn", "lstm")):
            alone, alone_lines = run(strategy)
            assert alone == {name: data for name, data in tree.items()
                             if name.startswith(f"{strategy}/")}
            assert alone_lines == [lines[i]]

    def test_unknown_strategy_is_config_error(self, tmp_path, capsys):
        config, _ = write_config(tmp_path, strategies="cnn")
        assert main(["backtest", "--config", str(config)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        assert main(["backtest", "--config", str(tmp_path / "nope.ini")]) == 1

    def test_missing_bars_csv_is_data_error(self, tmp_path, capsys):
        config, out_dir = write_config(tmp_path)
        text = config.read_text().replace(
            "source = synthetic",
            "source = csv\nbars = bars.csv\nfundamentals = fundamentals.csv\n"
            "benchmark = benchmark.csv")
        config.write_text(text)
        assert main(["backtest", "--config", str(config)]) == 2
        assert "data error" in capsys.readouterr().err


class TestGradcheck:
    def test_passes_and_is_deterministic(self, capsys):
        assert main(["gradcheck", "--seed", "0"]) == 0
        first = capsys.readouterr().out
        assert first.endswith("PASS\n")
        assert main(["gradcheck", "--seed", "0"]) == 0
        assert capsys.readouterr().out == first

    def test_corrupted_gradient_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(MlpModel, "loss_and_gradients",
                            broken_backward(MlpModel.loss_and_gradients, 0.01))
        assert main(["gradcheck", "--seed", "0"]) == 3
        assert capsys.readouterr().out.endswith("FAIL\n")


class TestReport:
    def test_rerender_matches_backtest_report(self, tmp_path):
        config, out_dir = write_config(tmp_path)
        main(["backtest", "--config", str(config)])
        rendered = tmp_path / "rerendered.json"
        assert main(["report",
                     "--series", str(out_dir / "linreg" / "series.csv"),
                     "--out", str(rendered),
                     "--strategy", "linreg"]) == 0
        assert rendered.read_bytes() == \
            (out_dir / "linreg" / "report.json").read_bytes()

    @pytest.mark.parametrize("rate", ["nan", "inf"])
    def test_non_finite_risk_free_is_config_error(self, tmp_path, capsys, rate):
        code = main(["report", "--series", str(tmp_path / "series.csv"),
                     "--out", str(tmp_path / "r.json"), "--risk-free", rate])
        assert code == 1
        assert capsys.readouterr().err == \
            f"config error: --risk-free must be a finite number, got {rate}\n"
        assert not (tmp_path / "r.json").exists()

    def test_empty_series_is_data_error(self, tmp_path, capsys):
        empty = tmp_path / "series.csv"
        empty.write_text("date,portfolio_value,portfolio_daily_return,"
                         "benchmark_daily_return\n")
        code = main(["report", "--series", str(empty),
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "no return rows" in capsys.readouterr().err

    @pytest.mark.parametrize("text,message", [
        ("date,value,portfolio_daily_return,benchmark_daily_return\n"
         "2015-09-01,1000000,,\n",
         "data error: {path}:1: expected header"),
        ("date,portfolio_value,portfolio_daily_return,benchmark_daily_return\n"
         "2015-09-01,1000000,,\n2015-09-02,1000100,oops,0.001\n",
         "data error: {path}:3: column 'portfolio_daily_return': bad number 'oops'"),
        ("date,portfolio_value,portfolio_daily_return,benchmark_daily_return\n"
         '2015-09-01,"1000000\n",,\n2015-09-02,1000100,0.0001,0.001\n'
         "2015-09-03,1000200,oops,0.001\n",
         "data error: {path}:5: column 'portfolio_daily_return': bad number 'oops'"),
        ("date,portfolio_value,portfolio_daily_return,benchmark_daily_return\n"
         "2015-09-01,1000000,,\n2015-09-02,1000100,0.0001,0.001\n"
         "2015-09-03,1000200,,\n2015-09-04,1000300,0.0001,0.001\n",
         "data error: {path}:4: column 'portfolio_daily_return': bad number ''"),
        ("date,portfolio_value,portfolio_daily_return,benchmark_daily_return\n"
         "2015-01-05,1000000,,\n2015-01-05,1000100,0.0001,0.001\n"
         "2015-01-02,1000200,0.0001,0.001\n2015-01-02,1000300,0.0001,0.001\n",
         "data error: {path}:3: column 'date': 2015-01-05 does not follow 2015-01-05"),
        ("date,portfolio_value,portfolio_daily_return,benchmark_daily_return\n"
         "2015-09-01,1000000,,\n2015-09-02,abc,0.0001,0.001\n"
         "2015-09-03,1000200,0.0001,0.001\n",
         "data error: {path}:3: column 'portfolio_value': bad number 'abc'"),
        (None, "data error: cannot read {path}"),
    ], ids=["wrong_header", "bad_number", "quoted_newline", "blank_return_after_first_row",
            "dates_not_increasing", "bad_portfolio_value", "missing_file"])
    def test_malformed_series_is_data_error(self, tmp_path, capsys, text, message):
        series = tmp_path / "series.csv"
        if text is not None:
            series.write_text(text)
        code = main(["report", "--series", str(series), "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith(message.format(path=series))


class TestBadInputExitCodes:
    @pytest.mark.parametrize("args,message", [
        (["backtest"], "rollingquant backtest: the following arguments are required: --config"),
        (["report", "--series", "s.csv", "--out", "r.json", "--risk-free", "abc"],
         "rollingquant report: argument --risk-free: invalid float value: 'abc'"),
        (["bogus"], "rollingquant: argument command: invalid choice: 'bogus'"),
    ], ids=["missing_config", "bad_risk_free", "unknown_command"])
    def test_usage_error_is_config_error(self, args, message):
        done = run_cli(*args)
        assert done.returncode == 1
        assert f"\nconfig error: {message}" in done.stderr
        assert "Traceback" not in done.stderr

    def test_help_exits_0(self):
        done = run_cli("--help")
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.startswith("usage: rollingquant")

    @pytest.mark.parametrize("name,damage,message", [
        ("bars.csv", lambda line: b"\xff" + line, "{path}:400: byte 0xff is not UTF-8 text"),
        ("benchmark.csv", lambda line: line + b"1" * 200_000,
         "{path}:400: field larger than field limit (131072)"),
        ("series.csv", lambda line: b"\xff" + line, "{path}:400: byte 0xff is not UTF-8 text"),
    ], ids=["bars_not_utf8", "benchmark_field_too_large", "series_not_utf8"])
    def test_undecodable_csv_is_data_error(self, tmp_path, name, damage, message):
        # line 400 lies past the first chunk that the reader decodes
        write_dataset(flat_market({"A": 10.0}), tmp_path)
        (tmp_path / "series.csv").write_text(
            "date,portfolio_value,portfolio_daily_return,benchmark_daily_return\n"
            + "".join(f"{Date(2015, 1, 1) + timedelta(days=i)},1000000,0.001,0.001\n"
                      for i in range(500)))
        path = tmp_path / name
        lines = path.read_bytes().split(b"\n")
        lines[399] = damage(lines[399])
        path.write_bytes(b"\n".join(lines))
        if name == "series.csv":
            done = run_cli("report", "--series", str(path), "--out", str(tmp_path / "r.json"))
        else:
            done = run_cli("backtest", "--config", str(csv_config(tmp_path)))
        assert (done.returncode, done.stderr) == (2, f"data error: {message.format(path=path)}\n")

    def test_market_without_bars_is_data_error(self, tmp_path):
        write_dataset(flat_market({"A": 10.0}), tmp_path)
        bars = tmp_path / "bars.csv"
        bars.write_text(bars.read_text().splitlines()[0] + "\n")  # the header alone
        done = run_cli("backtest", "--config", str(csv_config(tmp_path)))
        assert (done.returncode, done.stderr) == (2, f"data error: {bars}: no bars\n")

    @pytest.mark.parametrize("command", ["gen-data", "backtest"])
    def test_overflowing_synthetic_market_is_config_error(self, tmp_path, command):
        # noise this large takes closes to inf and 0, which no command can use
        config = tmp_path / "run.ini"
        config.write_text(
            f"[run]\nseed = 0\nstart = 2015-07-01\nend = 2015-12-31\nout_dir = {tmp_path / 'out'}\n"
            "\n[data]\nsource = synthetic\nn_stocks = 25\nstart = 2014-01-01\n"
            "end = 2015-12-31\nregime = crash\nnoise_level = 50\n\n[costs]\nlot_size = 100\n",
            encoding="utf-8")
        done = run_cli(command, "--config", str(config))
        assert (done.returncode, done.stderr) == (
            1, "config error: [data] noise_level = 50.0 takes a close or market cap out of "
               "float range; lower it\n")
        assert not (tmp_path / "out").exists()

    def test_unwritable_output_fails_before_any_scenario(self, tmp_path, capsys, monkeypatch):
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        config, _ = write_config(tmp_path, strategies="linreg,fcnn")
        calls = []

        def run_scenario(store, strategy, scenario):
            calls.append(strategy)
            raise DataError("a scenario ran")

        monkeypatch.setattr(cli, "run_scenario", run_scenario)
        code = main(["backtest", "--config", str(config), "--out", str(blocker)])
        assert calls == []
        assert code == 1
        assert capsys.readouterr().err == \
            f"config error: cannot write {blocker / 'linreg'}: Not a directory\n"

    def test_unwritable_output_is_config_error(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        series = tmp_path / "series.csv"
        series.write_text(
            "date,portfolio_value,portfolio_daily_return,benchmark_daily_return\n"
            "2015-01-01,1000000,,\n"
            + "".join(f"2015-01-0{d},1001000,0.001,0.002\n" for d in range(2, 7)),
            encoding="utf-8")
        config, _ = write_config(tmp_path)
        runs = [
            (("backtest", "--config", str(config), "--out", str(blocker)),
             f"{blocker / 'linreg'}: Not a directory"),
            (("gen-data", "--config", str(config), "--out", str(blocker)),
             f"{blocker}: File exists"),
            (("report", "--series", str(series), "--out", str(blocker / "r.json")),
             f"{blocker}: File exists"),
            (("report", "--series", str(series), "--out", str(tmp_path)),
             f"{tmp_path}: Is a directory"),
        ]
        for args, message in runs:
            done = run_cli(*args)
            assert (done.returncode, done.stderr) == (1, f"config error: cannot write {message}\n")
        assert blocker.read_text(encoding="utf-8") == ""
