"""Run one perfbench workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the run reports the end-to-end metrics. With
``--trace 1`` it first makes the same untraced run, then three more set-ups
and operations with every layer wrapped, and reports the per-layer metrics;
the traced outputs must equal the untraced ones.

Every metric is printed by name and unit, with the machine block and any
failed check. The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
A fuller record, with the raw samples and, when traced, every span, goes
to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

import harness
import workloads

ROOT = Path(__file__).resolve().parent.parent
END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "throughput": "items/s"}
# Fewest operations per run, and the number of traced operations.
MIN_OPS = 3
# Relative tolerance on "layer self times sum to the traced run_s".
SELF_SUM_TOLERANCE = 1e-9


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def in_span(tracer, name, fn, *args):
    """``fn(*args)``, inside a root span when tracing."""
    if tracer is None:
        return fn(*args)
    span = tracer.begin(name)
    try:
        return fn(*args)
    finally:
        tracer.finish(span)


def run_ops(workload, seconds=None, count=None, tracer=None):
    """Closed loop, one client: set up, then run one operation, until
    ``seconds`` pass and at least ``MIN_OPS`` operations have run, or exactly
    ``count`` times.

    Returns the set-up and operation wall seconds, the outcomes and, per
    operation, the reference seconds per wall second. Untraced, the
    machine's speed is sampled during each set-up and operation to give that
    scale, and the sampling time is taken out of the wall seconds; traced,
    the scale is 1.
    """
    setup_times, times, outcomes, scales = [], [], [], []
    start = time.perf_counter()
    while (len(times) < count) if count is not None else \
            (len(times) < MIN_OPS or time.perf_counter() - start < seconds):
        state = None  # release the previous set-up before building the next
        sampler = harness.SpeedSampler(enabled=tracer is None)
        with sampler:
            t0 = time.perf_counter()
            state = in_span(tracer, "setup", workload.setup)
            t1 = time.perf_counter()
            outcomes.append(in_span(tracer, "op", workload.op, state))
            t2 = time.perf_counter()
        setup_times.append(t1 - t0 - sampler.busy(t0, t1))
        times.append(t2 - t1 - sampler.busy(t1, t2))
        scales.append(sampler.scale())
    return setup_times, times, outcomes, scales


def traced_run(workload, rq, count):
    """Run ``count`` set-ups and operations with every layer wrapped."""
    tracer = harness.Tracer()
    workloads.install_tracing(tracer, rq)
    try:
        _, times, outcomes, _ = run_ops(workload, count=count, tracer=tracer)
    finally:
        restored = tracer.restore()
    still_wrapped = [f"{getattr(owner, '__name__', owner)}.{attr}"
                     for owner, attr, original in restored if getattr(owner, attr) is not original]
    return tracer, times, outcomes, still_wrapped


def main(argv=None):
    args = parse_args(argv)
    try:
        rq = harness.load_program(ROOT)
    except (RuntimeError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    reference = json.loads(workloads.REFERENCE_PATH.read_text(encoding="utf-8")) \
        if cls is workloads.BacktestWorkload else None
    work = ROOT / ".perfbench" / "work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": harness.machine_block(ROOT, args.workload, args.seed)}
    try:
        workload = cls(rq, ROOT, work, args.seed)
        workload.prepare()
        setup_times, times, outcomes, scales = run_ops(workload, seconds=args.seconds)
        run_s = statistics.median(t * k for t, k in zip(times, scales))
        problems = []
        if args.trace:
            # Counts per operation repeat exactly, so a few traced operations
            # suffice; the untraced loop above sets the end-to-end figures.
            tracer, traced_times, traced_outcomes, still_wrapped = \
                traced_run(workload, rq, MIN_OPS)
            outcomes += traced_outcomes
            problems += [f"not restored after tracing: {name}" for name in still_wrapped]
        failures = [msg for outcome in outcomes for msg in workload.check(outcome, reference)]
        if args.trace:
            layers = workloads.layer_metrics(tracer, len(traced_times))
            layers.update(workload.extra_layer_metrics(traced_outcomes))
            # Wall against wall: the traced run takes no speed samples.
            layers["trace.overhead_s"] = statistics.median(traced_times) - statistics.median(times)
            self_sum = sum(layers[name] for name in workloads.SELF_PARTS)
            if abs(self_sum - layers["trace.run_s"]) > SELF_SUM_TOLERANCE * layers["trace.run_s"]:
                problems.append(f"layer self times sum to {self_sum!r}, "
                                f"traced run_s is {layers['trace.run_s']!r}")
            metrics = {name: {"value": value, "unit": layer_unit(name)}
                       for name, value in sorted(layers.items())}
            record["spans"] = tracer.dump()
        else:
            values = {
                "run_s": run_s,
                "setup_s": statistics.median(t * k for t, k in zip(setup_times, scales)),
                "peak_rss_mb": harness.peak_rss_mb(),
                "throughput": workload.items_per_op / run_s,
            }
            metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                       for name, value in values.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = workload.checks_per_op * len(outcomes)
    result = {"correct": not failures and not problems, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    record.update(setup_wall_s=setup_times, op_wall_s=times, reference_per_wall=scales,
                  failures=failures, problems=problems, result=result)
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str), encoding="utf-8")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(times)} untraced operations, closed loop, one client; wall seconds "
          f"per operation min {min(times)!r}, median {statistics.median(times)!r}, "
          f"max {max(times)!r}; reference seconds per wall second median "
          f"{statistics.median(scales)!r}")
    print("machine " + json.dumps(record["machine"]))
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    print(f"error_rate = {len(failures)}/{attempted} failed/attempted checks "
          f"({workload.checks_per_op} per operation; {workload.items_per_op} "
          f"{workload.item} per operation)")
    for message in failures + problems:
        print(f"FAILED {message}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
