"""Record the golden manifest: the sha256 digest of every output of a fixed
set of runs, and the platform they ran on.

    PYTHONPATH=src python tests/record_golden.py

writes tests/golden/manifest.json. The runs, each through cli.main in this
process, are: gen-data on three 12-stock markets, one per regime; a backtest
of all three strategies on each market's CSVs, with no costs and with
commission 0.0003, sell tax 0.001 and lots of 100; and gradcheck --seed 0..2.
A digest covers one output file or one command's stdout.

test_golden.py reruns them and compares, where the platform matches: the
BLAS kernel moves the bits of some scores (test_kernel_contract.py). A
change that means to move an output records the manifest again and names
each digest that moved, and why.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

from rollingquant.cli import main

MANIFEST = Path(__file__).parent / "golden" / "manifest.json"
REGIMES = ("crash", "inflection", "fluctuating-decline")
COSTS = {"no-costs": "",
         "costs": "[costs]\ncommission_rate = 0.0003\nsell_tax_rate = 0.001\nlot_size = 100\n"}
GRADCHECK_SEEDS = range(3)


def backtest_ini(data_dir, costs=""):
    """A backtest of the three strategies on the market CSVs in data_dir."""
    return ("[run]\nseed = 0\nstart = 2015-07-01\nend = 2015-12-31\nholdings = 5\n"
            f"[data]\nsource = csv\nbars = {data_dir}/bars.csv\n"
            f"fundamentals = {data_dir}/fundamentals.csv\n"
            f"benchmark = {data_dir}/benchmark.csv\n" + costs)


def gen_data_ini(regime, n_stocks=12):
    """A synthetic market of n_stocks in regime, and a scenario on it."""
    return ("[run]\nseed = 0\nstart = 2015-07-01\nend = 2015-12-31\n"
            f"[data]\nsource = synthetic\nn_stocks = {n_stocks}\nstart = 2014-01-01\n"
            f"end = 2015-12-31\nregime = {regime}\n")


def _stdout(*argv) -> bytes:
    """main's stdout on argv, which must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(arg) for arg in argv])
    if code != 0:
        raise RuntimeError(f"rollingquant {' '.join(map(str, argv))} exited {code}")
    return out.getvalue().encode()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _tree(prefix, root: Path) -> dict:
    return {f"{prefix}/{path.relative_to(root).as_posix()}": _sha256(path.read_bytes())
            for path in sorted(root.rglob("*")) if path.is_file()}


def digests(work: Path) -> dict:
    """Each output's name and sha256, the runs writing under work."""
    found = {}
    for regime in REGIMES:
        data = work / regime / "data"
        (work / regime).mkdir()
        (work / regime / "gen.ini").write_text(gen_data_ini(regime), encoding="utf-8")
        found[f"gen-data/{regime}/stdout"] = _sha256(
            _stdout("gen-data", "--config", work / regime / "gen.ini", "--out", data))
        found |= _tree(f"gen-data/{regime}", data)
        for name, costs in COSTS.items():
            ini, out = work / regime / f"{name}.ini", work / regime / name
            ini.write_text(backtest_ini("data", costs), encoding="utf-8")
            found[f"backtest/{regime}/{name}/stdout"] = _sha256(
                _stdout("backtest", "--config", ini, "--out", out))
            found |= _tree(f"backtest/{regime}/{name}", out)
    for seed in GRADCHECK_SEEDS:
        found[f"gradcheck/{seed}/stdout"] = _sha256(_stdout("gradcheck", "--seed", seed))
    return found


def _cpu():
    """(model name, the SIMD extensions OpenBLAS picks its kernels by)."""
    try:
        info = Path("/proc/cpuinfo").read_text(encoding="utf-8", errors="replace")
    except OSError:
        return platform.processor(), ""
    fields = dict(re.findall(r"^(model name|flags)\s*:\s*(.*)$", info, re.M))
    simd = sorted(f for f in fields.get("flags", "").split()
                  if re.match(r"(sse|ssse|avx|fma|amx)", f))
    return fields.get("model name", ""), " ".join(simd)


def platform_key() -> dict:
    """What the bits of the outputs depend on besides the program: numpy, its
    BLAS as show_config reports it, the kernel that BLAS runs and the CPU."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = " ".join(str(blas.get(key, "")) for key in ("name", "version",
                                                            "openblas configuration"))
    except TypeError:  # show_config only prints
        blas = "not reported by numpy < 1.26"
    model, simd = _cpu()
    return {"numpy": np.__version__, "blas": blas,
            "openblas_coretype": os.environ.get("OPENBLAS_CORETYPE", ""),
            "machine": platform.machine(), "cpu": model, "simd": simd}


def record():
    with tempfile.TemporaryDirectory() as work:
        manifest = {"platform": platform_key(), "digests": digests(Path(work))}
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(manifest['digests'])} digests to {MANIFEST}", file=sys.stderr)


if __name__ == "__main__":
    record()
