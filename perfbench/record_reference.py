"""Record the reference outputs that backtest-crash25 is checked against.

    python3 perfbench/record_reference.py

For each of the workload's markets it generates the market, runs one
backtest and stores each strategy's per-action-day top-K baskets and
net_return in ``perfbench/reference.json``. Run it from the root of a
checkout whose outputs are known to be right; the benchmark then holds
every later version of the program to them.
"""

from __future__ import annotations

import json
import shutil
import sys

import harness
import workloads
from run import ROOT


def main():
    rq = harness.load_program(ROOT)
    markets = {}
    for market in range(workloads.N_MARKETS):
        work = ROOT / ".perfbench" / "work" / f"reference-market{market}"
        try:
            workload = workloads.BacktestWorkload(rq, ROOT, work, market)
            workload.prepare()
            outcome = workload.op(workload.setup())
            if "error" in outcome or outcome["code"] != 0:
                raise RuntimeError(f"market {market}: {outcome}")
            tree = harness.tree_bytes(outcome["out_dir"])
            markets[str(market)] = {s: workloads.strategy_summary(tree, s)
                                    for s in workloads.STRATEGIES}
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(f"market {market}: " + ", ".join(
            f"{s} net_return={markets[str(market)][s]['net_return']:.6f}"
            for s in workloads.STRATEGIES), flush=True)
    machine = harness.machine_block(ROOT, workloads.BacktestWorkload.name, None)
    reference = {"recorded_with": {"git_commit": machine["git_commit"],
                                   "src_sha256": machine["src_sha256"]},
                 "markets": markets}
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
