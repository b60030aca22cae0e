"""Print every benchmark metric with its unit, the tracing overhead and the machine.

Usage::

    python3 perfbench/report.py [--seed 1] [--seconds 30] [--workload NAME ...]

For each workload this runs ``run.py`` twice, untraced (end-to-end metrics)
and traced (per-layer metrics), and prints both.  The tracing overhead is
the traced run's ``op_ms_p50`` and ``ops_per_s`` against the untraced run's.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def machine_facts() -> dict[str, str]:
    facts = {
        "nproc": str(len(os.sched_getaffinity(0))),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": platform.machine(),
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        name = f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")
        facts[f"{name} cache (per instance)"] = size
    return facts


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args(argv)

    print("machine:")
    for key, value in machine_facts().items():
        print(f"  {key:26s} {value}")
    for workload in args.workload or names:
        plain = run_one(workload, args.seed, args.seconds, 0)
        traced = run_one(workload, args.seed, args.seconds, 1)
        print(f"\n{workload} (seed {args.seed}, {args.seconds:g} s): "
              f"{plain['attempted']} operations, {plain['failed']} failed, "
              f"correct={plain['correct']}")
        for section, result in (("end to end", plain), ("per layer (traced run)", traced)):
            print(f"  {section}:")
            for name, metric in result["metrics"].items():
                print(f"    {name:28s} {metric['value']:16.6f} {metric['unit']}")
        print("  tracing overhead (traced - untraced; includes run-to-run noise):")
        for key, unit in (("op_ms_p50", "ms"), ("ops_per_s", "1/s")):
            base = plain["metrics"][key]["value"]
            diff = traced["metrics"][f"trace.{key}"]["value"] - base
            print(f"    {key:28s} {diff:+16.6f} {unit} ({100 * diff / base:+.1f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
