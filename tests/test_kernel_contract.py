"""What a backtest's outputs keep across BLAS kernels.

OpenBLAS picks its kernels by CPU, and OPENBLAS_CORETYPE makes it pick
another; a kernel may sum a product in another order. On one kernel a rerun
is byte-identical (test_golden.py). Across kernels only the scores in
ranking.csv move: every other output byte, and every ranking's dates, ranks
and stock ids, stay equal.

The market has the benchmark's 25 stocks, so each linreg fit has more rows
than columns. Over 60 such backtests (3 regimes, seeds 0-9, costs off and
on), each run under an AVX-512 Xeon's own kernel, Haswell and Prescott,
scores moved by up to 4.8e-9 relative, linreg's most: its normal equations
are near-singular, EP_CUT being 0.9 x EP on every synthetic market.
SCORE_RTOL leaves about 20x slack over that. On 12 stocks a linreg fit has
36 rows for 47 columns, and its scores moved by up to 2.4e-4 relative, so
no tight bound holds there.
"""

import csv
import io
import platform

import pytest

from conftest import run_cli
from record_golden import COSTS, gen_data_ini, platform_key

CORETYPES = ("Haswell", "Prescott")  # x86-64 kernels: AVX2, and SSE3 only
SCORE_RTOL = 1e-7


def _outputs(tmp_path, coretype):
    """Each output file's bytes, and stdout, of one backtest on the kernel
    coretype names (None: the one OpenBLAS picks for this CPU)."""
    out = tmp_path / (coretype or "default")
    proc = run_cli("backtest", "--config", str(tmp_path / "run.ini"), "--out", str(out),
                   env={"OPENBLAS_CORETYPE": coretype} if coretype else None)
    assert proc.returncode == 0, proc.stderr
    files = {path.relative_to(out).as_posix(): path.read_bytes()
             for path in sorted(out.rglob("*")) if path.is_file()}
    return files | {"stdout": proc.stdout.encode()}


def _ranking(data: bytes):
    rows = list(csv.reader(io.StringIO(data.decode())))
    return [row[:3] for row in rows], [float(row[3]) for row in rows[1:]]


def test_only_ranking_scores_move_across_blas_kernels(tmp_path):
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip(f"{CORETYPES} are x86-64 kernels; this machine is {platform.machine()}")
    blas = platform_key()["blas"]
    if "openblas" not in blas.lower():
        pytest.skip(f"numpy's BLAS is {blas!r}, not OpenBLAS, whose kernels "
                    "OPENBLAS_CORETYPE selects")
    (tmp_path / "run.ini").write_text(gen_data_ini("crash", n_stocks=25) + COSTS["costs"],
                                      encoding="utf-8")
    default = _outputs(tmp_path, None)
    assert len(default) == 13
    for coretype in CORETYPES:
        other = _outputs(tmp_path, coretype)
        assert other.keys() == default.keys()
        for name, data in default.items():
            if not name.endswith("ranking.csv"):
                assert other[name] == data, f"{coretype}: {name} differs"
                continue
            (keys, scores), (other_keys, other_scores) = _ranking(data), _ranking(other[name])
            assert other_keys == keys, f"{coretype}: {name} orders its stocks otherwise"
            for a, b in zip(scores, other_scores):
                assert abs(a - b) <= SCORE_RTOL * max(abs(a), abs(b)), (coretype, name, a, b)
