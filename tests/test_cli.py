"""End-to-end CLI runs through main(): exit codes, outputs, determinism."""

import json
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from rollingquant import factors
from rollingquant.cli import cmd_backtest, main
from rollingquant.config import load_run_config
from rollingquant.exports import write_dataset

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

    def test_strategies_share_each_factor_row(self, tmp_path, monkeypatch):
        computed = Counter()
        factor_row = factors._factor_row

        def counting_factor_row(columns, d):
            computed[columns.stock_id, d] += 1
            return factor_row(columns, d)

        monkeypatch.setattr(factors, "_factor_row", counting_factor_row)
        config, _ = write_config(tmp_path, strategies="linreg,fcnn,lstm",
                                 train={"epochs": 1})
        assert main(["backtest", "--config", str(config)]) == 0
        # 4 action days with 3-day windows reach 7 month ends
        assert len({d for _, d in computed}) == 7
        assert set(computed.values()) == {1}

    def test_close_zero_suspension_raises_no_warning(self, tmp_path, gapped_market):
        # a bar at close 0 makes the next daily return inf; the return
        # statistics and the beta of every window holding it are masked, and
        # computing them printed numpy's "invalid value" warnings
        bars = gapped_market.bars["S0004"]
        d = sorted(bars)[400]
        bars[d] = replace(bars[d], close=0.0, prev_close=0.0, market_cap=0.0,
                          volume=0.0, turnover_ratio=0.0, is_suspended=True)
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

    def test_corrupted_gradient_fails(self, capsys):
        assert main(["gradcheck", "--seed", "0", "--corrupt", "0.01"]) == 3
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
        (None, "data error: cannot read {path}"),
    ], ids=["wrong_header", "bad_number", "missing_file"])
    def test_malformed_series_is_data_error(self, tmp_path, capsys, text, message):
        series = tmp_path / "series.csv"
        if text is not None:
            series.write_text(text)
        code = main(["report", "--series", str(series), "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith(message.format(path=series))
