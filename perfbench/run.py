"""hermlie benchmark: exact verdicts, catalog documents and metric search.

Run from the root of a checkout:

    python3 perfbench/run.py --workload generated-shears --seed 1 --seconds 30 --trace 0

One single-threaded process runs one closed-loop workload: each operation
starts when the previous one has finished.  Every answer is checked against
a source other than the route under test.  ``--trace 0`` prints the
end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer metrics
from spans recorded around each public hermlie call.  Every time is scaled
to a nominal host speed by a fixed probe timed between the measured steps
(``harness.HostSpeed``).  Lines starting with
``#`` are for people; the last line is one JSON object.  See README.md in
this directory for every workload and metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = {
    "generated-shears": "generated_shears",
    "sparse-catalog": "sparse_catalog",
    "metric-search": "metric_search",
}
SETUPS = 3  # set-up parts per run; setup_s reports their median
IMPORT_PROBES = 3  # fresh interpreters timing the import; median reported
SETUP_HOST_PROBES = 8  # host-speed probes before each import probe and set-up part, and after
OVERHEAD_OPS = 16  # at most this many operations of the first pass price the tracing
IMPORT_CODE = (
    "import time; t = time.perf_counter(); import numpy, hermlie, hermlie.cli; "
    "print(time.perf_counter() - t)"
)


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_seconds(host) -> list:
    """(seconds, moment) of each import probe; ``host`` is probed around them."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    times = []
    for _ in range(IMPORT_PROBES):
        host.probe(SETUP_HOST_PROBES)
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_CODE], env=env, cwd=ROOT,
            capture_output=True, text=True, check=True, timeout=60,
        )
        seconds = float(out.stdout.strip().splitlines()[-1])
        times.append((seconds, time.perf_counter() - seconds / 2))
    return times


def _tracing_overhead(workload, state, ops, harness) -> float:
    """(traced - untraced) / untraced time of the same operations.

    Each operation runs once with tracing off and once on, in alternating
    order, so warm-up and drift of the machine fall on both sides.  An
    operation's time leaves out the split calls, which the untraced run never
    makes.  These runs are not part of the measured loop.
    """
    plain, probe = harness.Tracer(False), harness.Tracer(True)
    seconds = {plain: 0.0, probe: 0.0}
    for i, op in enumerate(ops):
        for tr in (plain, probe) if i % 2 == 0 else (probe, plain):
            record = harness.attempt(lambda o, _: workload.run(state, o, tr), op, i)
            seconds[tr] += record.seconds
    return (seconds[probe] - seconds[plain]) / seconds[plain]


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "hermlie" / "__init__.py").is_file():
        print(f"error: no hermlie sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hermlie

    if Path(hermlie.__file__).resolve().parent != (SRC / "hermlie").resolve():
        print(f"error: imported hermlie from {hermlie.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness

    workload = __import__(WORKLOADS[args.workload])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    env_seeds = os.environ.pop("HERMLIE_SEEDS", None)  # in-process CLI calls use defaults

    setup_host, host = harness.HostSpeed(), harness.HostSpeed()
    imports = _import_seconds(setup_host)
    tracer = harness.Tracer(args.trace == 1)
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times, parts = [], []
        for part in range(SETUPS):
            setup_host.probe(SETUP_HOST_PROBES)
            t0 = time.perf_counter()
            parts.append(workload.setup(args.seed, part, tracer, workdir))
            t1 = time.perf_counter()
            setup_times.append((t1 - t0, (t0 + t1) / 2))
        setup_host.probe(SETUP_HOST_PROBES)
        state = workload.join(parts)
        ops = workload.operations(state)
        pass_length = len(workload.operations(parts[0]))
        overhead_ops = ops[: min(OVERHEAD_OPS, pass_length)]
        if tracer.enabled:
            overhead = _tracing_overhead(workload, state, overhead_ops, harness)

        def run_one(op, index):
            tracer.op = index
            with tracer.span("op", getattr(op, "dim", None)):
                return workload.run(state, op, tracer)

        records = harness.closed_loop(ops, args.seconds, run_one, pass_length, host)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    scale = tracer.scale = host.scale()
    first_pass = records[:pass_length]
    failed = sum(r.failed for r in records)
    defects = sum(r.known_defect for r in records)
    measured = workload.end_to_end(records)
    setup_scale = setup_host.scale()
    import_s = statistics.median(s for s, _ in imports)
    raw_setup_s = import_s + statistics.median(s for s, _ in setup_times)
    scaled_setup_s = (statistics.median(s * setup_host.scale_at(m) for s, m in imports)
                      + statistics.median(s * setup_host.scale_at(m) for s, m in setup_times))
    measured["setup_s"] = (scaled_setup_s, "s",
                           f"import {import_s:.3f} s + median of {SETUPS} set-up parts, "
                           f"{raw_setup_s:.4f} s before scaling")
    measured["peak_rss_mb"] = (harness.peak_rss_mb(), "MB")
    measured["failed_share"] = ((failed + defects) / len(records), "share",
                                f"{failed} wrong or crashed, {defects} known defect")
    if tracer.enabled:
        spans_file = ROOT / ".perfbench_spans" / f"{args.workload}-seed{args.seed}.jsonl"
        spans_file.parent.mkdir(exist_ok=True)
        tracer.write(spans_file)
        measured.update(workload.per_layer(state, records, first_pass, tracer))
        traced_ops = len(records)
        for layer, seconds in tracer.self_seconds_by_layer().items():
            measured[f"self_ms_per_op.{layer}"] = (seconds * 1000 / traced_ops, "ms")
        measured["trace.overhead_share"] = (overhead, "share",
                                            f"over the first {len(overhead_ops)} operations")

    print(f"# hermlie benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    prov = harness.provenance(args.seed, args.workload)
    prov["HERMLIE_SEEDS_cleared"] = env_seeds
    print("# provenance " + json.dumps(prov, sort_keys=True))
    print(f"# host speed: scale {scale:.4f} in the run, {setup_scale:.4f} in set-up: the nominal "
          f"{harness.NOMINAL_PROBE_S * 1000:g} ms over the median of {len(host.samples)} and "
          f"{len(setup_host.samples)} probes; each step is scaled by its "
          f"{harness.NEAREST_PROBES} nearest")
    print(f"# operations {len(records)}: {failed} failed, {defects} known defect")
    for r in records:
        if r.failed:
            print(f"# FAILED {r.label}: {r.note}")
    for line in sorted({r.note for r in records if r.known_defect}):
        print(f"# known defect: {line}")
    for line in workload.notes(state):
        print(f"# {line}")
    if tracer.enabled:
        print(f"# {len(tracer.spans)} spans written to {spans_file.relative_to(ROOT)}")
    for name in sorted(measured):
        value, unit, *detail = measured[name]
        print(f"# {name} = {_fmt(value)} {unit}" + (f"  ({detail[0]})" if detail else ""))

    wanted = spec["per_layer"] if tracer.enabled else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] in measured:
            value = measured[m["name"]][0]
        elif tracer.enabled:
            value = 0  # a layer this workload never calls
        else:
            raise KeyError(f"{args.workload} does not measure {m['name']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    correct = failed == 0 and not getattr(state, "setup_problems", ())
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
