"""Run one benchmark workload and print its metrics as one JSON line.

Usage::

    python3 perfbench/run.py --workload verify-pass --seed 1 --seconds 15 --trace 0

The workload is set up ``SETUP_REPEATS`` times (the median is ``setup_s``),
then whole cycles of its operations run one at a time.  The number of cycles
is fixed by ``--seconds`` and the workload's nominal rate (see
:func:`cycle_count`), never by the clock, so a seed gives the same
operations, the same ``attempted`` and the same ``failed`` on every run.
Every answer is checked.  With ``--trace 0`` the end-to-end metrics are printed; with
``--trace 1`` the run is traced instead and the per-layer metrics are
printed, and the spans are written to ``.perfbench/``.  The last line of
stdout is the JSON result; a summary goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import polyadic  # noqa: E402

if not Path(polyadic.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"polyadic imported from {polyadic.__file__}, not from {ROOT / 'src'}")

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
MIN_OPS = 100          # p90 then has at least ten samples beyond it

# per-layer metric: (kind, key, unit, better).  Times are milliseconds per
# operation of the timed loop (self time unless "incl"); counts are per
# operation; "setup_*" kinds are per set-up instead, and "probe_*" kinds per
# call made by the workload's probe (the CLI, after the timed loop).
LAYER_METRICS = {
    "core.verify_ms": ("incl", "core.verify", "ms", "lower"),
    "core.assoc_ms": ("self", "core.assoc", "ms", "lower"),
    "core.quasi_ms": ("self", "core.quasi", "ms", "lower"),
    "core.skew_ms": ("self", "core.verify", "ms", "lower"),
    "core.checked_tuples": ("count", "core.verify.checked", "count", "lower"),
    "core.exact_frac": ("exact", None, "frac", "higher"),
    "core.dense_ms": ("setup_self", "core.dense", "ms", "lower"),
    "core.table_bytes": ("setup_count", "core.dense.bytes", "B", "lower"),
    "binary.verify_table_ms": ("self", "binary.verify_table", "ms", "lower"),
    "binary.verify_table_cells": ("count", "binary.verify_table.cells", "count", "lower"),
    "binary.iso_ms": ("self", "binary.iso", "ms", "lower"),
    "retract.retract_ms": ("self", "retract.retract", "ms", "lower"),
    "retract.decompose_ms": ("self", "retract.decompose", "ms", "lower"),
    "cover.build_ms": ("self", "cover.build", "ms", "lower"),
    "cover.H_ms": ("self", "cover.H", "ms", "lower"),
    "cover.embedding_ms": ("self", "cover.embedding", "ms", "lower"),
    "cover.products": ("count", "cover.build.products", "count", "lower"),
    "action.classes_ms": ("self", "action.classes", "ms", "lower"),
    "action.centralizer_ms": ("self", "action.centralizer", "ms", "lower"),
    "rep.one_dim_ms": ("self", "rep.one_dim", "ms", "lower"),
    "rep.reps_found": ("count", "rep.one_dim.reps", "count", "higher"),
    "structure.subgroups_ms": ("self", "structure.subgroups", "ms", "lower"),
    "structure.subgroups_found": ("count", "structure.subgroups.found", "count", "higher"),
    "structure.classify_ms": ("self", "structure.classify", "ms", "lower"),
    "structure.quotient_ms": ("self", "structure.quotient", "ms", "lower"),
    "fileformat.load_ms": ("probe_self", "fileformat.load", "ms", "lower"),
    "fileformat.file_bytes": ("probe_count", "fileformat.load.bytes", "B", "lower"),
    "cli.floor_ms": ("probe_median", "cli.floor", "ms", "lower"),
    "cli.main_ms": ("probe_incl", "cli.main", "ms", "lower"),
    "trace.op_ms_p50": ("traced", "op_ms_p50", "ms", "lower"),
    "trace.ops_per_s": ("traced", "ops_per_s", "1/s", "higher"),
}


def cycle_count(cycle: workloads.Cycle, seconds: float) -> int:
    """Whole cycles that take about ``seconds`` at the cycle's nominal rate.

    At least ``MIN_OPS`` operations.  The count depends only on the
    arguments, so a slow or fast machine changes how long a run takes, not
    which operations it attempts.
    """
    per_cycle = len(cycle.ops)
    return max(math.ceil(MIN_OPS / per_cycle), round(seconds * cycle.rate / per_cycle))


def measure(cycle: workloads.Cycle, cycles: int, tracer: spans.Tracer | None):
    """Closed loop over ``cycles`` whole cycles; returns latencies, cycle times and failures."""
    latencies: list[float] = []
    cycle_times: list[float] = []
    failures: Counter = Counter()
    unexpected = 0
    for _ in range(cycles):
        first = len(latencies)
        for op in cycle.ops:
            if tracer is not None:
                tracer.op = len(latencies)
            t0 = time.perf_counter()
            try:
                result = op.call()
                reason = None
            except Exception as exc:  # a raising operation is a failed one
                result, reason = None, f"raised {type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.op = None
            if reason is None:
                reason = op.check(result)
            if reason is not None:
                cause = op.known(reason)
                unexpected += cause is None
                failures[(op.name, reason, cause or "unexpected")] += 1
        cycle_times.append(sum(latencies[first:]))
    return latencies, cycle_times, failures, unexpected


def end_to_end(latencies, cycle_times, cycle_ops, setup_times, peak_kib, failed) -> dict:
    """``ops_per_s`` is one cycle's operations over the median cycle's busy time."""
    ms = [t * 1000 for t in latencies]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (cycle_ops / statistics.median(cycle_times), "1/s"),
        "op_ms_p50": (statistics.median(ms), "ms"),
        "op_ms_p90": (statistics.quantiles(ms, n=10)[8], "ms"),
        "peak_rss_mb": (peak_kib / 1024, "MiB"),
        "ops_ok_frac": (1 - failed / len(latencies), "frac"),
    }


def per_layer(tracer: spans.Tracer, cycle: workloads.Cycle, latencies, cycle_times,
              probes: dict[str, list[float]]) -> dict:
    ops = len(latencies)
    self_s, incl_s, counts = tracer.totals(spans.OPS)
    setup_self, _, setup_counts = tracer.totals(spans.SETUP)
    probe_self, probe_incl, probe_counts = tracer.totals(spans.PROBE)

    def per_call(total, span):
        calls = probe_counts.get(f"{span}.calls", 0)
        return total / calls if calls else 0.0

    calls = counts.get("core.verify.calls", 0) + setup_counts.get("core.verify.calls", 0)
    exact = counts.get("core.verify.exact", 0) + setup_counts.get("core.verify.exact", 0)
    traced = end_to_end(latencies, cycle_times, len(cycle.ops), [0.0], 0, 0)
    out = {}
    for name, (kind, key, unit, _) in LAYER_METRICS.items():
        if kind == "self":
            value = 1000 * self_s.get(key, 0.0) / ops
        elif kind == "incl":
            value = 1000 * incl_s.get(key, 0.0) / ops
        elif kind == "count":
            value = counts.get(key, 0) / ops
        elif kind == "setup_self":
            value = 1000 * setup_self.get(key, 0.0)
        elif kind == "setup_count":
            value = setup_counts.get(key, 0)
        elif kind == "exact":
            value = exact / calls if calls else 0.0
        elif kind == "probe_self":
            value = 1000 * per_call(probe_self.get(key, 0.0), key)
        elif kind == "probe_incl":
            value = 1000 * per_call(probe_incl.get(key, 0.0), key)
        elif kind == "probe_count":
            value = per_call(probe_counts.get(key, 0), key.rsplit(".", 1)[0])
        elif kind == "probe_median":
            samples = probes.get(key, [])
            value = 1000 * statistics.median(samples) if samples else 0.0
        else:
            value = traced[key][0]
        out[name] = (value, unit)
    return out


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    setup = workloads.SETUPS[workload]
    tracer = spans.Tracer() if trace else None
    setup_times = []
    probes: dict[str, list[float]] = {}
    probe_errors: list[str] = []
    try:
        if tracer is not None:
            tracer.instrument()
            tracer.op = spans.SETUP
            cycle = setup(seed)
            tracer.op = None
        else:
            for _ in range(SETUP_REPEATS):
                cycle = None            # free the last set-up's inputs first
                t0 = time.perf_counter()
                cycle = setup(seed)
                setup_times.append(time.perf_counter() - t0)
        latencies, cycle_times, failures, unexpected = measure(
            cycle, cycle_count(cycle, seconds), tracer)
        if tracer is not None and cycle.probe is not None:
            tracer.op = spans.PROBE
            probes, probe_errors = cycle.probe()
            tracer.op = None
    finally:
        if tracer is not None:
            tracer.restore()
    failed = sum(failures.values())
    if tracer is not None:
        metrics = per_layer(tracer, cycle, latencies, cycle_times, probes)
        tracer.write(workloads.SCRATCH / f"spans-{workload}-seed{seed}.jsonl")
    else:
        metrics = end_to_end(latencies, cycle_times, len(cycle.ops), setup_times,
                             resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, failed)
    summary(workload, seed, latencies, failures, metrics)
    for reason in probe_errors:
        print(f"  PROBE FAILED {reason} [unexpected]", file=sys.stderr)
    return {
        "correct": unexpected == 0 and not probe_errors,
        "attempted": len(latencies),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def summary(workload, seed, latencies, failures, metrics) -> None:
    err = sys.stderr
    print(f"{workload} seed={seed}: {len(latencies)} operations "
          f"(percentiles over {len(latencies)} samples), "
          f"{sum(failures.values())} failed", file=err)
    for (name, reason, cause), count in sorted(failures.items()):
        print(f"  FAILED x{count} {name}: {reason} [{cause}]", file=err)
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit}", file=err)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SETUPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.pop("POLYAD_BUDGET", None)   # default budget: the environment sets no verdict
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
