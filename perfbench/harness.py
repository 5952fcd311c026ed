"""Timing, tracing and summary helpers shared by the three workloads.

Spans are recorded only by the benchmark's own code, around each public
hermlie call, and kept in memory until the run ends.  With tracing off the
workloads call the same code through a no-op tracer, so the untraced path
pays one method call per public call and nothing else.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import json
import math
import os
import random
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction

# Layers with spans in an operation's own call tree, outside SPLIT spans;
# self time is reported for these.
LAYERS = ("hermitian", "shear", "search", "salamon", "cli")

# Name of the span around the extra calls the traced run makes to take one
# public call apart; operation times and self times leave that work out.
SPLIT = "split"

# Percentiles tried for a tail figure, highest last.
TAIL_GRID = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

# The measured loop probes the host's speed between operations whenever
# this many seconds have passed since the last probe.
PROBE_EVERY_S = 0.25
# An operation's time is scaled by the median of this many probes nearest
# to its start, so a host that changes speed within a run is followed.
NEAREST_PROBES = 8
# Seconds one probe takes at the nominal host speed that every reported
# time is scaled to; about its median on a 2-vCPU x86-64 VM, Python 3.11.
NOMINAL_PROBE_S = 0.006


@dataclass
class Span:
    name: str
    dim: int | None
    start: float
    end: float
    parent: int | None
    op: int | None


# Returned for every span while tracing is off; reusable and free.
_NO_SPAN = contextlib.nullcontext()


class Tracer:
    """In-memory span recorder; ``Tracer(False)`` records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op: int | None = None
        self.scale = 1.0  # host-speed scale applied to every duration read

    def span(self, name: str, dim: int | None = None):
        if not self.enabled:
            return _NO_SPAN
        return self._record(name, dim)

    @contextlib.contextmanager
    def _record(self, name: str, dim: int | None):
        parent = self.stack[-1] if self.stack else None
        span = Span(name, dim, time.perf_counter(), 0.0, parent, self.op)
        self.spans.append(span)
        self.stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self.stack.pop()

    def durations(self, name: str, dim: int | None = None) -> list[float]:
        """Scaled durations in seconds of every span with this name (and dim)."""
        return [
            (s.end - s.start) * self.scale
            for s in self.spans
            if s.name == name and (dim is None or s.dim == dim)
        ]

    def write(self, path) -> None:
        """Every span as one JSON line, times in seconds from the first."""
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                row = dict(vars(s), start=s.start - origin, end=s.end - origin)
                fh.write(json.dumps(row) + "\n")

    def self_seconds_by_layer(self) -> dict[str, float]:
        """Span duration minus the part covered by child spans, per layer,
        over the spans of operations.  Set-up spans are left out, and so is
        everything under a ``SPLIT`` span: that work repeats, call by call,
        work an enclosing-level span already timed."""
        child = [0.0] * len(self.spans)
        skip = [False] * len(self.spans)
        for i, s in enumerate(self.spans):
            skip[i] = s.op is None or s.name == SPLIT or (
                s.parent is not None and skip[s.parent])
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out = {layer: 0.0 for layer in LAYERS}
        for i, s in enumerate(self.spans):
            layer = s.name.split(".", 1)[0]
            if layer in out and not skip[i]:
                out[layer] += ((s.end - s.start) - child[i]) * self.scale
        return out


def _probe_work():
    """Fixed pure-Python work like hermlie's exact code, calling none of it:
    rational elimination on a 9 x 10 matrix, then a dict of rationals keyed
    by sorted tuples.  No change to hermlie moves its time."""
    rng = random.Random(7)
    n = 9
    m = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n + 1)]
         for _ in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c])
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    sums = {}
    for i in range(300):
        key = tuple(sorted((i % 7, i % 11, i % 5)))
        sums[key] = sums.get(key, Fraction(0)) + Fraction(i, 1 + i % 4)
    return m, sorted(sums.items())


class HostSpeed:
    """Times of a fixed probe, taken between the measured steps.

    The benchmark shares a few cores of a host whose speed drifts by a
    fifth or more within minutes, so raw times of one program differ
    between runs by more than the changes they are meant to show.  The time
    of each measured step is multiplied by ``scale_at`` its moment: the
    nominal probe time over the median of the probes nearest to it, which
    gives the time the step would take on a host where the probe takes
    ``NOMINAL_PROBE_S``.  ``scale()`` is the same over all probes, for span
    times.  Garbage collection is off during a probe, so the heap the
    workload has built does not add to the probe's time.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.times: list[float] = []  # when each sample ended
        self.last = -math.inf

    def probe(self, times: int = 1) -> None:
        collecting = gc.isenabled()
        gc.disable()
        try:
            for _ in range(times):
                t0 = time.perf_counter()
                _probe_work()
                self.times.append(time.perf_counter())
                self.samples.append(self.times[-1] - t0)
        finally:
            if collecting:
                gc.enable()
        self.last = time.perf_counter()

    def scale(self) -> float:
        return NOMINAL_PROBE_S / statistics.median(self.samples)

    def scale_at(self, moment: float) -> float:
        i = bisect.bisect(self.times, moment)
        lo, hi = max(0, i - NEAREST_PROBES), min(len(self.times), i + NEAREST_PROBES)
        near = sorted(range(lo, hi), key=lambda j: abs(self.times[j] - moment))
        return NOMINAL_PROBE_S / statistics.median(self.samples[j] for j in near[:NEAREST_PROBES])


@dataclass
class OpRecord:
    """One closed-loop operation: what it was, how long, how it ended."""

    kind: str  # "verdict", "cli", "search", or "raised" when it raised
    label: str
    dim: int
    seconds: float
    failed: bool = False  # wrong answer or unexpected error
    known_defect: bool = False  # failure the benchmark documents and expects
    note: str = ""
    extra: dict = field(default_factory=dict)


def attempt(run_one, op, index: int) -> OpRecord:
    """``run_one(op, index)``; an operation that raises becomes a failed
    record with its time and the exception, so the run still reports."""
    t0 = time.perf_counter()
    try:
        return run_one(op, index)
    except Exception as exc:
        return OpRecord(
            "raised", op.label, getattr(op, "dim", 0), time.perf_counter() - t0,
            failed=True, note="".join(traceback.format_exception_only(exc)).strip())


def closed_loop(ops: list, seconds: float, run_one, min_ops: int,
                host: HostSpeed) -> list[OpRecord]:
    """Run ``run_one(op, index)`` over ``ops`` cyclically until time is up.

    One client waits for each operation before sending the next.  At least
    ``min_ops`` operations run, so counters taken from them always exist.
    Between operations ``host`` is probed every ``PROBE_EVERY_S`` seconds,
    and once more at the end, so its samples cover the run evenly; each
    record's time is then scaled by the probes nearest to its start.
    """
    records = []
    deadline = time.perf_counter() + seconds
    i = 0
    starts = []
    while i < min_ops or time.perf_counter() < deadline:
        if time.perf_counter() - host.last >= PROBE_EVERY_S:
            host.probe()
        starts.append(time.perf_counter())
        records.append(attempt(run_one, ops[i % len(ops)], i))
        i += 1
    host.probe()
    for record, start in zip(records, starts):
        record.seconds *= host.scale_at(start)
    return records


def spread_evenly(counts: dict) -> list:
    """``(key, k)`` for every ``k < counts[key]``, ordered so that each key's
    copies are spread evenly over the list: any stretch of it holds every key
    in about its share, so a run that stops part-way still has the mix."""
    return sorted(
        ((key, k) for key, n in counts.items() for k in range(n)),
        key=lambda item: (item[1] + 0.5) / counts[item[0]],
    )


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def tail(values) -> tuple[float, float, int]:
    """(percentile, value, n): the highest grid percentile with at least ten
    samples above it.  Falls back to the maximum when there are fewer than
    eleven samples, flagged by percentile 100."""
    ordered = sorted(values)
    n = len(ordered)
    best = (100.0, ordered[-1] if ordered else 0.0, n)
    for p in TAIL_GRID:
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= 10:
            best = (p, ordered[rank - 1], n)
    return best


def verdict_metrics(records: list, verdicts: list, what: str, mix: dict, key) -> dict:
    """The metrics every workload reports from its operation times.

    ``records`` are all operations of the run; ``verdicts`` the ones whose
    latency the verdict figures describe.  ``mix`` maps each class of
    operation, as ``key(record)`` names it, to its count in one pass of the
    workload.  ``verdicts_per_s`` is the operations of one pass over the time
    that pass takes at this run's mean time per class.  A plain count over
    time would move with where the run stopped: the dearest classes run once
    or twice a pass, and one of them more or less is several per cent of a
    run's time.  The mean, unlike a median, counts every input's cost, so
    the few dear inputs of a class move the figure as they move real work.
    """
    times = defaultdict(list)
    for r in records:
        times[key(r)].append(r.seconds)
    seen = {k: n for k, n in mix.items() if times[k]}
    pass_seconds = sum(n * statistics.fmean(times[k]) for k, n in seen.items())
    ms = [r.seconds * 1000 for r in verdicts]
    p, value, n = tail(ms)
    d6 = [r.seconds * 1000 for r in verdicts if r.dim == 6]
    return {
        "verdicts_per_s": (sum(seen.values()) / pass_seconds, "1/s",
                           f"at the mix of one pass, from {len(records)} operations"),
        "verdict_ms_p50.d6": (median(d6), "ms", f"{len(d6)} {what}"),
        "verdict_ms_tail": (value, "ms", f"p{p:g} of {n} {what}"),
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in kilobytes on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def provenance(seed: int, workload: str) -> dict:
    import numpy

    blas_vars = (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
    return {
        "workload": workload,
        "seed": seed,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_env": {v: os.environ.get(v) for v in blas_vars},
    }
