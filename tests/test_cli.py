"""End-to-end CLI runs through main(): exit codes, outputs, determinism."""

import io
import json
import random
import re
import warnings
from collections import Counter
from datetime import date as Date
from datetime import timedelta
from pathlib import Path

import pytest

from conftest import bars_of, broken_backward, flat_market, run_cli
from rollingquant import backtest, cli
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


CSV_NAMES = ("bars.csv", "fundamentals.csv", "benchmark.csv")


def crash_market_config(data: Path, edit=None, data_end="2015-12-31"):
    """A backtest config of all three strategies, holdings 5, July-December
    2015, out_dir data/out, on the CSVs that gen-data writes to data for the
    seed-0 12-stock crash market to data_end, after edit(data)."""
    gen = data.with_suffix(".ini")
    gen.write_text("[run]\nseed = 0\nstart = 2015-07-01\nend = 2015-12-31\n\n"
                   "[data]\nsource = synthetic\nn_stocks = 12\nstart = 2014-01-01\n"
                   f"end = {data_end}\nregime = crash\n", encoding="utf-8")
    assert main(["gen-data", "--config", str(gen), "--out", str(data)]) == 0
    if edit is not None:
        edit(data)
    config = data / "backtest.ini"
    config.write_text("[run]\nseed = 0\nstrategies = linreg,fcnn,lstm\n"
                      "start = 2015-07-01\nend = 2015-12-31\nholdings = 5\n"
                      f"out_dir = {data / 'out'}\n\n[data]\nsource = csv\n"
                      "bars = bars.csv\nfundamentals = fundamentals.csv\n"
                      "benchmark = benchmark.csv\n", encoding="utf-8")
    return config


def crash_market_tree(data: Path, edit=None, data_end="2015-12-31"):
    """The 12-file output tree of crash_market_config's backtest."""
    assert main(["backtest", "--config", str(crash_market_config(data, edit, data_end))]) == 0
    return tree_bytes(data / "out")


def edit_records(data: Path, change, *names):
    """Rewrite each named CSV in data with change(its records), header kept."""
    for name in names:
        header, *records = (data / name).read_text(encoding="utf-8").splitlines()
        (data / name).write_text("\n".join([header, *change(records)]) + "\n",
                                 encoding="utf-8")


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

    def test_stock_never_eligible_changes_nothing(self, tmp_path):
        """A stock ZZZ with 10 bars, on the market's last 10 dates, and one
        snapshot never has the 252 bars before an action day that eligibility
        asks for, so adding it to the CSVs leaves all 12 files the same bytes."""
        def add_zzz(data):
            bars = (data / "bars.csv").read_text(encoding="utf-8").splitlines()
            zzz_bars = ["ZZZ," + line.split(",", 1)[1] for line in bars[-10:]]
            snapshot = (data / "fundamentals.csv").read_text(encoding="utf-8") \
                .splitlines()[-1].split(",")
            zzz_snapshot = ",".join(["ZZZ", zzz_bars[0].split(",")[1], *snapshot[2:]])
            with open(data / "bars.csv", "a", encoding="utf-8") as f:
                f.write("\n".join(zzz_bars) + "\n")
            with open(data / "fundamentals.csv", "a", encoding="utf-8") as f:
                f.write(zzz_snapshot + "\n")

        tree = crash_market_tree(tmp_path / "market")
        assert len(tree) == 12
        assert crash_market_tree(tmp_path / "with-zzz", add_zzz) == tree

    def test_renaming_every_stock_renames_only(self, tmp_path):
        """S0007 -> XS0007 keeps the order of the ids, so the renamed run's
        files, with the names mapped back, are the same bytes."""
        def rename(data):
            edit_records(data, lambda records: ["X" + line for line in records],
                         "bars.csv", "fundamentals.csv")

        tree = crash_market_tree(tmp_path / "market")
        renamed = crash_market_tree(tmp_path / "renamed", rename)
        assert any(b"XS0" in content for content in renamed.values())
        assert {name: re.sub(rb"\bXS(\d{4})\b", rb"S\1", content)
                for name, content in renamed.items()} == tree

    def test_record_order_changes_nothing(self, tmp_path):
        def shuffle(data):
            edit_records(data, lambda records: random.Random(0).sample(records, len(records)),
                         *CSV_NAMES)

        tree = crash_market_tree(tmp_path / "market")
        assert crash_market_tree(tmp_path / "shuffled", shuffle) == tree

    def test_records_after_the_run_change_nothing(self, tmp_path):
        """A market generated to 2016-03-31 and the same market cut at the
        run's end, 2015-12-31, give the same bytes."""
        def cut(data):
            for name in CSV_NAMES:
                header = (data / name).read_text(encoding="utf-8").split("\n", 1)[0]
                column = header.split(",").index("date")
                edit_records(data, lambda records: [
                    line for line in records if line.split(",")[column] <= "2015-12-31"], name)

        tree = crash_market_tree(tmp_path / "market", data_end="2016-03-31")
        assert crash_market_tree(tmp_path / "cut", cut, data_end="2016-03-31") == tree

    def test_holdings_beyond_the_float_range_stay_in_cash(self, tmp_path, capsys):
        """holdings = 10**400 is a valid count whose weight 1 / k rounds to
        0.0, as 10**20's does: every portfolio stays in cash, and the run
        writes its 12 files."""
        config = crash_market_config(tmp_path / "market")
        config.write_text(config.read_text(encoding="utf-8").replace(
            "holdings = 5\n", f"holdings = {10 ** 400}\n"), encoding="utf-8")
        capsys.readouterr()
        assert main(["backtest", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert re.findall(r"net_return=(\S+)", out) == ["0.000000"] * 3
        tree = tree_bytes(tmp_path / "market" / "out")
        assert len(tree) == 12
        for strategy in ("linreg", "fcnn", "lstm"):
            assert json.loads(tree[f"{strategy}/report.json"])["net_return"] == 0.0

    def test_subnormal_close_is_numeric_error(self, tmp_path, capsys):
        """S0003's close at 1e-320 from 2015-03-02 on is valid, but a weight of
        the portfolio over it is inf shares: exit 3 before any file is written."""
        def tiny_close(record):
            stock_id, day, _, rest = record.split(",", 3)
            if stock_id == "S0003" and day >= "2015-03-02":
                return f"{stock_id},{day},1e-320,{rest}"
            return record

        config = crash_market_config(tmp_path / "market", lambda data: edit_records(
            data, lambda records: map(tiny_close, records), "bars.csv"))
        capsys.readouterr()
        assert main(["backtest", "--config", str(config)]) == 3
        assert capsys.readouterr().err == ("numeric error: the order for S0003 on 2015-11-30 "
                                           "is inf shares at a price of 1e-320\n")
        assert not [p for p in (tmp_path / "market" / "out").rglob("*") if p.is_file()]

    def test_overflowing_label_is_no_training_sample(self, tmp_path, capsys):
        """S0003's closes of 1e-300 on 2015-05-29 and 1e300 on 2015-06-30 are
        valid, but its return between them overflows to inf: that label is
        left out of training, and the run writes its 12 finite files."""
        closes = {"2015-05-29": "1e-300", "2015-06-30": "1e300"}

        def overflow(record):
            stock_id, day, _, rest = record.split(",", 3)
            if stock_id == "S0003" and day in closes:
                return f"{stock_id},{day},{closes[day]},{rest}"
            return record

        tree = crash_market_tree(tmp_path / "market", lambda data: edit_records(
            data, lambda records: map(overflow, records), "bars.csv"))
        assert len(tree) == 12
        assert "nan" not in capsys.readouterr().out

    @pytest.mark.parametrize("regime,day", [("crash", "2015-08-05"),
                                            ("inflection", "2015-11-09")])
    def test_overflowing_portfolio_value_is_numeric_error(self, tmp_path, capsys, regime,
                                                          day):
        """A capital of 1.797e308 is valid, but the fcnn portfolio grows past
        the largest float: exit 3 naming the day, where an inf value would be
        written to series.csv. linreg's files, written before, are kept."""
        config = tmp_path / "run.ini"
        config.write_text("[run]\nseed = 0\nstart = 2015-07-01\nend = 2015-12-30\n"
                          "holdings = 5\ninitial_capital = 1.797e308\n"
                          f"out_dir = {tmp_path / 'out'}\n\n[data]\nsource = synthetic\n"
                          "n_stocks = 12\nstart = 2014-01-01\nend = 2015-12-30\n"
                          f"regime = {regime}\n", encoding="utf-8")
        assert main(["backtest", "--config", str(config)]) == 3
        assert capsys.readouterr().err == \
            f"numeric error: the portfolio value on {day} is inf\n"
        assert (tmp_path / "out" / "linreg" / "series.csv").exists()
        assert not (tmp_path / "out" / "fcnn" / "series.csv").exists()

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

    @pytest.mark.parametrize("case", ["close_zero_suspension", "close_1e300",
                                      "market_cap_1e-300"])
    def test_valid_extreme_bars_raise_no_warning(self, tmp_path, gapped_market, case):
        # valid bars whose factors overflow or divide by 0: each such factor
        # is inf or NaN, and so missing, and numpy prints no warning
        bars = bars_of(gapped_market, "S0004")
        if case == "close_zero_suspension":
            # the next daily return is inf: the return statistics and the beta
            # of every window holding it are masked
            for column in (bars.close, bars.prev_close, bars.market_cap, bars.volume,
                           bars.turnover):
                column[400] = 0.0
            bars.suspended[400] = True
        elif case == "close_1e300":
            # returns near 1e298 overflow the squares of the RET_STD windows
            bars.close[400:404], bars.market_cap[400:404] = 1e300, 1e308
        else:
            # ratios over a market cap of 1e-300 (EP, BP, SP, ...) overflow the
            # squares of the normalization
            bars.market_cap[400:] = 1e-300
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

    def test_each_action_day_is_made_eligible_once_a_run(self, tmp_path, monkeypatch):
        # the three strategies share the run's scenario and its universes
        days = []
        eligible_universe = backtest.eligible_universe

        def record(dataset, d):
            days.append(d)
            return eligible_universe(dataset, d)

        monkeypatch.setattr(backtest, "eligible_universe", record)
        config, _ = write_config(tmp_path, strategies="linreg,fcnn,lstm", train={"epochs": 1})
        assert main(["backtest", "--config", str(config)]) == 0
        assert [(d.year, d.month) for d in days] == [(2015, 9), (2015, 10), (2015, 11),
                                                     (2015, 12)]

    def test_unknown_strategy_is_config_error(self, tmp_path, capsys):
        config, _ = write_config(tmp_path, strategies="cnn")
        assert main(["backtest", "--config", str(config)]) == 1
        assert capsys.readouterr().err == (
            "config error: [run] strategies: unknown strategy 'cnn'; "
            "choose from ('linreg', 'fcnn', 'lstm')\n")

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

    @pytest.mark.parametrize("rows", [
        # the annualized return overflows a Python float's power
        "2015-09-02,1000100,0.1,0.2\n2015-09-03,1000200,1e308,1e308\n",
        # the product of the daily growth factors overflows
        "2015-09-02,1000100,1e308,0.1\n2015-09-03,1000200,1e308,0.1\n",
    ], ids=["annualized_return", "product"])
    def test_overflowing_series_reports_undefined(self, tmp_path, capsys, rows):
        series = tmp_path / "series.csv"
        series.write_text("date,portfolio_value,portfolio_daily_return,"
                          "benchmark_daily_return\n2015-09-01,1000000,,\n" + rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["report", "--series", str(series), "--out", str(tmp_path / "r.json")])
        assert (code, capsys.readouterr().err) == (0, "")
        assert json.loads((tmp_path / "r.json").read_text())["sharpe_ratio"] == "undefined"

    def test_empty_series_is_data_error(self, tmp_path, capsys):
        empty = tmp_path / "series.csv"
        empty.write_text("date,portfolio_value,portfolio_daily_return,"
                         "benchmark_daily_return\n")
        code = main(["report", "--series", str(empty),
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "a report needs at least 2 return rows, got 0" in capsys.readouterr().err

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
        ("date,portfolio_value,portfolio_daily_return,benchmark_daily_return\n"
         "2015-09-01,1000000,,\n2015-09-02,1000100,-1,-1\n2015-09-03,1000200,-2,-2\n",
         "data error: {path}:4: column 'portfolio_daily_return': daily return on 2015-09-03 "
         "must be >= -1"),
        ("date,portfolio_value,portfolio_daily_return,benchmark_daily_return\n"
         "2015-09-01,1000000,,\n2015-09-02,1000100,0.0001,-1.5\n",
         "data error: {path}:3: column 'benchmark_daily_return': daily return on 2015-09-02 "
         "must be >= -1"),
        ("date,portfolio_value,portfolio_daily_return,benchmark_daily_return\n"
         "2015-09-01,1000000,,oops\n2015-09-02,1000100,0.0001,0.001\n",
         "data error: {path}:2: column 'benchmark_daily_return': 'oops' beside an empty "
         "portfolio_daily_return"),
        # one return, where a report's statistics take 2
        ("date,portfolio_value,portfolio_daily_return,benchmark_daily_return\n"
         "2015-09-01,1000000,,\n2015-09-02,1000100,0.0001,0.001\n",
         "data error: {path}: a report needs at least 2 return rows, got 1\n"),
        (None, "data error: cannot read {path}"),
    ], ids=["wrong_header", "bad_number", "quoted_newline", "blank_return_after_first_row",
            "dates_not_increasing", "bad_portfolio_value", "portfolio_return_below_minus_1",
            "benchmark_return_below_minus_1", "benchmark_return_on_first_row", "one_return_row",
            "missing_file"])
    def test_malformed_series_is_data_error(self, tmp_path, capsys, text, message):
        series = tmp_path / "series.csv"
        if text is not None:
            series.write_text(text)
        code = main(["report", "--series", str(series), "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith(message.format(path=series))
        assert not (tmp_path / "r.json").exists()


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
        ("bars.csv", lambda line: re.sub(rb"^([^,]*,[^,]*,)[^,]*", rb"\1oops", line),
         "{path}:400: column 'close': bad number 'oops'"),
    ], ids=["bars_not_utf8", "benchmark_field_too_large", "series_not_utf8", "bars_bad_number"])
    def test_bad_csv_line_is_data_error(self, tmp_path, name, damage, message):
        # line 400 lies past the first chunk that the reader decodes; a run
        # that fails on it writes nothing under out
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
            done = run_cli("report", "--series", str(path),
                           "--out", str(tmp_path / "out" / "r.json"))
        else:
            done = run_cli("backtest", "--config", str(csv_config(tmp_path)))
        assert (done.returncode, done.stderr) == (2, f"data error: {message.format(path=path)}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("start,days", [
        ("2015-12-30", 2), ("2015-12-31", 1), ("2016-01-02", 0)])
    def test_scenario_of_fewer_than_3_trading_days_is_data_error(self, tmp_path, capsys,
                                                                  monkeypatch, start, days):
        # the market ends on 2015-12-31; fewer than 2 daily returns make no
        # report, which is found before any strategy ranks
        def no_ranking(*args):
            raise AssertionError("a strategy ranked")

        monkeypatch.setattr(backtest, "rank_stocks", no_ranking)
        write_dataset(flat_market({"A": 10.0}), tmp_path)
        config = csv_config(tmp_path)
        config.write_text(config.read_text(encoding="utf-8").replace(
            "start = 2015-07-01\nend = 2015-12-31", f"start = {start}\nend = 2016-01-03"),
            encoding="utf-8")
        assert main(["backtest", "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            "data error: a report needs at least 3 trading days in the scenario range "
            f"{start}..2016-01-03, got {days}\n")
        assert tree_bytes(tmp_path / "out") == {}
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("command", ["gen-data", "backtest"])
    @pytest.mark.parametrize("n_stocks", [10**15, 10**30])
    def test_oversized_synthetic_market_is_config_error(self, tmp_path, capsys, command,
                                                         n_stocks):
        # rejected before any array is allocated: 10**15 stocks would ask
        # for petabytes, and 10**30 for more array dimensions than numpy has
        config = tmp_path / "run.ini"
        config.write_text(
            f"[run]\nstart = 2015-07-01\nend = 2015-12-31\nout_dir = {tmp_path / 'out'}\n"
            f"\n[data]\nsource = synthetic\nn_stocks = {n_stocks}\nstart = 2014-01-01\n"
            "end = 2015-12-31\n", encoding="utf-8")
        assert main([command, "--config", str(config)]) == 1
        assert capsys.readouterr().err == "config error: [data] n_stocks times the 730 " \
                                          "calendar days of start..end must be <= 10,000,000\n"
        assert list(tmp_path.iterdir()) == [config]

    @pytest.mark.parametrize("command", ["gen-data", "backtest"])
    @pytest.mark.parametrize("key, value, message", [
        ("n_stocks", 5, "n_stocks must be >= 10"),
        ("planted_signal_strength", 1.5, "planted_signal_strength must be in [0, 1]"),
        ("regime", "boom", "unknown regime 'boom'; choose one of "),
        ("start", "2016-01-01", "start must precede end"),
        ("noise_level", -1, "noise_level must be >= 0"),
        ("n_stocks", 20_000, "n_stocks times the 730 calendar days "),
        # 23 weekdays in January and 15 to February 20
        ("end", "2014-02-20", "date range too short to generate a market"),
    ], ids=["n_stocks", "strength", "regime", "dates", "noise", "stock-days", "short-range"])
    def test_synthetic_market_error_names_data_section(self, tmp_path, capsys, command,
                                                       key, value, message):
        data = {"source": "synthetic", "start": "2014-01-01", "end": "2015-12-31", key: value}
        config = tmp_path / "run.ini"
        config.write_text(
            f"[run]\nstart = 2015-07-01\nend = 2015-12-31\nout_dir = {tmp_path / 'out'}\n"
            "\n[data]\n" + "".join(f"{k} = {v}\n" for k, v in data.items()), encoding="utf-8")
        assert main([command, "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: [data] " + message)
        assert err.count("\n") == 1 and err.endswith("\n")
        assert list(tmp_path.iterdir()) == [config]

    @pytest.mark.parametrize("command,run,data,message", [
        ("backtest", "start = 2015-12-31\nend = 2015-12-31\n", "source = synthetic\n",
         "[run] start: must be before end"),
        ("backtest", "start = 2015-07-01\nend = 2015-12-31\n", "source = bogus\n",
         "[data] source: must be 'csv' or 'synthetic'"),
        ("gen-data", "start = 2015-07-01\nend = 2015-12-31\n",
         "source = csv\nbars = b.csv\nfundamentals = f.csv\nbenchmark = x.csv\n",
         "gen-data requires [data] source = synthetic"),
    ], ids=["run-dates", "data-source", "gen-data-source"])
    def test_config_error_names_section_and_key(self, tmp_path, capsys, command, run, data,
                                                message):
        config = tmp_path / "run.ini"
        config.write_text(f"[run]\n{run}out_dir = {tmp_path / 'out'}\n\n[data]\n{data}"
                          "start = 2014-01-01\nend = 2015-12-31\n", encoding="utf-8")
        assert main([command, "--config", str(config)]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert list(tmp_path.iterdir()) == [config]

    @staticmethod
    def run_with_paths(tmp_path, monkeypatch, command, paths, *args):
        """main([command, ...args]) run from tmp_path on a config holding
        paths, whose data a csv backtest loads; every call to load or
        generate data is recorded and fails. Returns (exit code, calls)."""
        calls = []

        def no_data(*args):
            calls.append(args)
            raise AssertionError("data loaded or generated")

        monkeypatch.setattr(cli, "load_dataset", no_data)
        monkeypatch.setattr(cli, "generate_synthetic_market", no_data)
        source = "csv" if command == "backtest" else "synthetic"
        config = tmp_path / "run.ini"
        config.write_text(
            f"[run]\nstart = 2015-07-01\nend = 2015-12-31\nout_dir = {paths['out_dir']}\n\n"
            f"[data]\nsource = {source}\nstart = 2014-01-01\nend = 2015-12-31\n"
            + "".join(f"{k} = {paths[k]}\n" for k in ("bars", "fundamentals", "benchmark")),
            encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        return main([command, "--config", str(config), *args]), calls

    PATHS = {"bars": "bars.csv", "fundamentals": "f.csv", "benchmark": "b.csv",
             "out_dir": "out"}

    @pytest.mark.parametrize("command,section,key", [
        ("backtest", "data", "bars"),
        ("backtest", "data", "fundamentals"),
        ("backtest", "data", "benchmark"),
        ("backtest", "run", "out_dir"),
        ("gen-data", "run", "out_dir"),
    ])
    def test_nul_in_a_path_is_config_error(self, tmp_path, capsys, monkeypatch,
                                           command, section, key):
        paths = self.PATHS | {key: "x\0" + self.PATHS[key]}
        code, calls = self.run_with_paths(tmp_path, monkeypatch, command, paths)
        err = capsys.readouterr().err
        assert (code, calls) == (1, [])
        assert err == f"config error: [{section}] {key}: a path cannot hold a NUL character, " \
                      f"got {paths[key]!r}\n"
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == [tmp_path / "run.ini"]

    @pytest.mark.parametrize("command,key", [
        ("backtest", "[data] bars"),
        ("backtest", "[data] fundamentals"),
        ("backtest", "[data] benchmark"),
        ("backtest", "[run] out_dir"),
        ("gen-data", "[run] out_dir"),
        ("backtest", "--out"),
        ("gen-data", "--out"),
    ])
    def test_empty_path_is_config_error(self, tmp_path, capsys, monkeypatch, command, key):
        # Path("") is the working directory, where gen-data would write its CSVs
        if key == "--out":
            paths, args = self.PATHS, ("--out", "")
        else:
            paths, args = self.PATHS | {key.split()[1]: ""}, ()
        code, calls = self.run_with_paths(tmp_path, monkeypatch, command, paths, *args)
        err = capsys.readouterr().err
        assert (code, calls) == (1, [])
        assert err == f"config error: {key}: a path cannot be empty\n"
        assert list(tmp_path.iterdir()) == [tmp_path / "run.ini"]

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
