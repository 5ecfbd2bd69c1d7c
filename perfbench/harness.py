"""Measurement plumbing shared by the perfbench workloads.

The tracer measures layers from outside the program: it replaces public
functions and methods, where their callers look them up, with wrappers that
record spans, and puts the originals back afterwards. Nothing inside
``src/`` knows it is being measured.
"""

from __future__ import annotations

import ctypes
import hashlib
import importlib
import os
import platform
import resource
import signal
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np


class Span:
    """One call of a wrapped function: name, start, end and parent.

    ``agg`` holds leaf children that are counted rather than stored one by
    one, as ``{name: [calls, seconds]}``.
    """

    __slots__ = ("id", "name", "parent", "start", "end", "agg")

    def __init__(self, span_id, name, parent, start):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.start = start
        self.end = None
        self.agg = {}

    def to_dict(self, epoch):
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "start": self.start - epoch, "end": self.end - epoch,
                "agg": self.agg}


class Tracer:
    """Span recorder plus the wrappers that feed it.

    Calls to a function wrapped with ``aggregate=True`` happen tens of
    thousands of times per run; they are added to the enclosing span's
    ``agg`` instead of becoming spans. Such a function must not itself call
    another wrapped function.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.epoch = clock()
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.observed: dict[str, object] = {}
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- spans -------------------------------------------------------------

    def begin(self, name):
        parent = self.stack[-1].id if self.stack else None
        span = Span(len(self.spans), name, parent, self.clock())
        self.spans.append(span)
        self.stack.append(span)
        return span

    def finish(self, span):
        span.end = self.clock()
        popped = self.stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def add_leaf(self, name, seconds):
        if not self.stack:
            raise RuntimeError(f"aggregated call {name} outside any span")
        entry = self.stack[-1].agg.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += seconds

    def root(self):
        """The outermost open span (the current operation)."""
        return self.stack[0] if self.stack else None

    # -- wrapping ----------------------------------------------------------

    def wrap(self, owner, attr, name, aggregate=False, observe=None):
        """Replace ``owner.attr`` with a recording wrapper.

        ``name`` is the span name, or a function of the call's positional
        arguments that returns it. ``observe(tracer, args, result)`` may
        record counts from the call.
        """
        original = getattr(owner, attr)
        own = attr in vars(owner)
        tracer = self

        if aggregate:
            def wrapper(*args, **kwargs):
                t0 = tracer.clock()
                result = original(*args, **kwargs)
                tracer.add_leaf(name, tracer.clock() - t0)
                return result
        else:
            def wrapper(*args, **kwargs):
                span = tracer.begin(name(args) if callable(name) else name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer.finish(span)
                if observe is not None:
                    observe(tracer, args, result)
                return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, own))

    def restore(self):
        """Put every wrapped attribute back, newest first.

        Returns ``(owner, attr, original)`` for each, so callers can check
        that ``getattr(owner, attr) is original`` again.
        """
        restored = []
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
            restored.append((owner, attr, original))
        return restored

    # -- results -----------------------------------------------------------

    def summary(self):
        """Per name: calls, inclusive seconds and self seconds.

        A span's self time is its duration minus the durations of its direct
        children, stored or aggregated. Calls run on one thread, so children
        never overlap and the self times of all names sum to the total
        duration of the root spans.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        out: dict[str, dict[str, float]] = {}

        def entry(name):
            return out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

        for span in self.spans:
            duration = span.end - span.start
            leaves = sum(seconds for _, seconds in span.agg.values())
            e = entry(span.name)
            e["calls"] += 1
            e["total_s"] += duration
            e["self_s"] += duration - child_time[span.id] - leaves
            for leaf, (calls, seconds) in span.agg.items():
                le = entry(leaf)
                le["calls"] += calls
                le["total_s"] += seconds
                le["self_s"] += seconds
        return out

    def leaf_calls_under(self, parent_name, leaf_names):
        """Aggregated calls of ``leaf_names`` made directly inside ``parent_name`` spans."""
        return sum(calls for span in self.spans if span.name == parent_name
                   for leaf, (calls, _) in span.agg.items() if leaf in leaf_names)

    def dump(self):
        return [span.to_dict(self.epoch) for span in self.spans]


def load_program(root: Path):
    """Import rollingquant from ``root/src`` and nowhere else.

    Returns a namespace of the modules the workloads drive and the tracer
    wraps. Raises ``RuntimeError`` when the checkout has no source tree.
    """
    src = (root / "src").resolve()
    if not (src / "rollingquant" / "__init__.py").is_file():
        raise RuntimeError(f"no rollingquant package under {src}")
    sys.path.insert(0, str(src))
    modules = {name: importlib.import_module(f"rollingquant.{name}")
               for name in ("cli", "backtest", "strategies", "numerics")}
    found = Path(modules["cli"].__file__).resolve()
    if src not in found.parents:
        raise RuntimeError(f"rollingquant imported from {found}, not from {src}")
    return types.SimpleNamespace(**modules)


# Seconds that calibrate() takes on a quiet 2-core Xeon VM; the timing
# metrics are in seconds at that speed ("reference seconds").
CAL_REF_S = 0.002
# Wall seconds between two speed samples while work is timed.
SAMPLE_INTERVAL_S = 0.1


def calibrate():
    """Wall seconds of a fixed mix of pure-Python arithmetic and small numpy
    calls, the two kinds of work the program does."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(12_500):
        acc += (i % 7) * 0.5
    x = np.full((10, 47), 0.1)
    w = np.full((47, 47), 0.01)
    for _ in range(200):
        x = np.tanh(x @ w) + 0.1
    return time.perf_counter() - t0


class SpeedSampler:
    """Samples the machine's speed while a block of work runs.

    The speed of a shared machine swings by up to 2x, within a second and
    for minutes, for all work at once. Inside the block a SIGALRM handler
    runs ``calibrate()`` every ``SAMPLE_INTERVAL_S``. The handler runs
    between bytecodes of the main thread, so the samples fall inside the
    timed work itself. Callers subtract the handler's own time with
    ``busy()`` and multiply by ``scale()`` to get reference seconds.

    A disabled sampler takes no samples, and its ``scale()`` is 1.
    """

    def __init__(self, enabled=True):
        self.enabled = enabled
        self.samples: list[tuple[float, float]] = []  # (start, end) of each
        self._previous = None

    def __enter__(self):
        if self.enabled:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
            if not self.samples:  # the block was shorter than one interval
                self._sample()
        return False

    def _sample(self, *signal_args):
        start = time.perf_counter()
        self.samples.append((start, start + calibrate()))

    def busy(self, t0, t1):
        """Seconds of ``[t0, t1]`` that went to sampling."""
        return sum(max(0.0, min(end, t1) - max(start, t0)) for start, end in self.samples)

    def scale(self):
        """Reference seconds per wall second during the block."""
        if not self.samples:
            return 1.0
        return CAL_REF_S * len(self.samples) / sum(end - start for start, end in self.samples)


def peak_rss_mb():
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tree_bytes(root: Path):
    """{relative posix path: bytes} for every file under root."""
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


# -- machine block ---------------------------------------------------------

def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _mem_total_mb():
    try:
        with open("/proc/meminfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def _openblas_threads():
    """Thread count of the OpenBLAS that numpy loaded, as found, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                           and line.split()[-1].startswith("/")})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def source_digest(src: Path):
    """sha256 over the paths and bytes of every .py file under src."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def machine_block(root: Path, workload: str, seed: int):
    blas = {}
    try:
        blas = dict(np.show_config(mode="dicts")["Build Dependencies"]["blas"])
    except (TypeError, KeyError):
        pass
    affinity = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    return {
        "cpu_model": _cpu_model(),
        "nproc": len(affinity) if affinity is not None else os.cpu_count(),
        "mem_total_mb": _mem_total_mb(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _openblas_threads(),
        "git_commit": _git_commit(root),
        "src_sha256": source_digest(root / "src"),
        "workload": workload,
        "seed": seed,
    }
