"""The three workloads: set-up from a seed, and one cycle of checked operations.

Each workload's ``setup(seed)`` builds its inputs and returns a
:class:`Cycle`: the operations of one schedule cycle in a seeded order.
The runner repeats whole cycles, one operation at a time (a closed loop with
one client), so every run sees the same mix of operations.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import polyadic as P
import polyadic.cli

import checks
import gen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"

SAMPLED_MISS = ("sampled verifier misses the single changed cell: 100 000 sampled "
                "tuples rarely touch one cell of a 2^24-cell table")
SUBGROUPS_INCOMPLETE = ("structure.subgroups lists only subgroups generated by at most "
                        "two elements for 13 <= m <= 24, so the whole carrier is missing")


@dataclass
class Op:
    """One operation: ``call`` is timed, ``check`` inspects its result.

    ``known`` maps a check failure to the cause of a known defect of the
    program, or None when the failure is unexpected.
    """

    name: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    known: Callable[[str], str | None] = lambda reason: None


@dataclass
class Cycle:
    """``probe`` runs once after the timed loop of a traced run; it returns
    sample lists for per-layer metrics and the reasons of any wrong answer."""

    ops: list[Op]
    rate: float                     # nominal operations per second, sizes a run
    probe: Callable[[], tuple[dict[str, list[float]], list[str]]] | None = None


# Nominal operations per second of each workload on a 2-vCPU Xeon; a run does
# the whole cycles that take about --seconds at this rate (run.cycle_count).
VERIFY_RATE = 6.0
ANALYZE_RATE = 30.0


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _shuffled(ops: list[Op], seed: int) -> list[Op]:
    return [ops[i] for i in _rng(seed, 99).permutation(len(ops))]


# -- verify-pass / verify-fail ----------------------------------------------------

# (catalog factors, arity, weight).  Exhaustive today: (16,3) (24,3) (8,4) (5,5);
# sampled today: (32,3) (12,4) (6,5) (4,7); (16,6) is DENSE_LIMIT = 2^24 cells.
# The weight repeats (24,3) three times per cycle so that, on both the pass and
# the failure path, p50 and p90 fall inside one size class instead of on the
# boundary between two, which keeps both percentiles steady from run to run.
LADDER = [
    (("Z2", "D4"), 3, 1),
    (("Z3", "D4"), 3, 3),
    (("Q8",), 4, 1),
    (("Z5",), 5, 1),
    (("Z4", "D4"), 3, 1),
    (("Z2", "S3"), 4, 1),
    (("S3",), 5, 1),
    (("Z4",), 7, 1),
    (("Z2", "Z8"), 6, 1),
]


def ladder_tables(seed: int, mutated: bool) -> list[tuple[int, int, np.ndarray]]:
    """Dense tables of the ladder groups, each with one changed cell if ``mutated``."""
    rng = _rng(seed, 1)
    out = []
    for factors, arity, _ in LADDER:
        table = gen.hg_group(factors, arity, rng).dense()
        if mutated:
            gen.mutate(table, rng)
        out.append((table.shape[0], arity, table))
    return out


def _verify_op(m: int, n: int, table: np.ndarray, mutated: bool) -> Op:
    def call():
        return P.verify_nary_group(P.NaryGroup(n, m, table=table))

    if not mutated:
        return Op(f"verify {m}x{n}", call, checks.verdict_pass)

    def known(reason):
        return SAMPLED_MISS if reason == "mutated table passed the sampled verifier" else None

    return Op(f"verify-mutated {m}x{n}", call,
              lambda report: checks.verdict_fail(report, table), known)


def setup_verify(seed: int, mutated: bool) -> Cycle:
    ops = []
    for (m, n, table), (_, _, weight) in zip(ladder_tables(seed, mutated), LADDER):
        ops += [_verify_op(m, n, table, mutated)] * weight
    return Cycle(_shuffled(ops, seed), VERIFY_RATE)


# -- analyze --------------------------------------------------------------------------

# (catalog factors, arity).  The isomorphism type of each slot is fixed (the
# last valid (phi, b) of every factor) so each slot does the same work on
# every seed; the seed relabels the elements and picks anchors.
SLOTS = [
    (("S3",), 3),
    (("Q8",), 4),
    (("D4",), 5),
    (("Z2", "S3"), 3),
    (("klein", "klein"), 3),
    (("Z2", "D4"), 4),
    (("Z4", "S3"), 3),
    (("Z3", "Z8"), 3),
    (("Z4", "D4"), 3),
    (("Z2", "klein", "S3"), 3),
    (("D4", "Q8"), 3),
]
SUBGROUP_MAX = 24


def smallest_normal(group: P.NaryGroup):
    """Least proper normal subgroup among the closures of single elements."""
    found = set()
    for x in range(group.order):
        h = P.subgroup_closure(group, [x])
        if 1 < len(h) < group.order:
            found.add(h)
    normal = [h for h in sorted(found, key=lambda h: (len(h), h)) if P.is_normal(group, h)]
    return normal[0] if normal else None


def _analyze_ops(group: P.NaryGroup, rng: np.random.Generator) -> list[Op]:
    m, n = group.order, group.arity
    table = group.dense()
    a, c = (int(v) for v in rng.integers(0, m, size=2))
    tag = f"{m}x{n}"

    def cover():
        cov = P.covering_group(group, a)
        return cov, P.cover_H(cov), P.verify_embedding(cov)

    def defect(reason):
        if 13 <= m <= SUBGROUP_MAX and "lacks the whole carrier" in reason:
            return SUBGROUPS_INCOMPLETE
        return None

    ops = [
        Op(f"retract {tag}", lambda: P.retract(group, a),
           lambda r: checks.retract_ok(table, a, r)),
        Op(f"hg_decompose {tag}", lambda: P.hg_decompose(group, a),
           lambda r: checks.decompose_ok(table, r)),
        Op(f"cover {tag}", cover, lambda r: checks.cover_ok(group, a, *r)),
        Op(f"classes {tag}", lambda: P.conjugacy_classes(group),
           lambda r: checks.partition_ok(m, r.blocks)),
        Op(f"centralizer {tag}", lambda: P.centralizer(group, c),
           lambda r: checks.centralizer_ok(table, c, r)),
        Op(f"reps {tag}", lambda: P.one_dim_reps(group),
           lambda r: checks.reps_ok(table, r)),
    ]
    if m <= SUBGROUP_MAX:
        ops += [
            Op(f"subgroups {tag}", lambda: P.subgroups(group),
               lambda r: checks.subgroups_ok(group, r), defect),
            Op(f"classify {tag}", lambda: P.classify_simplicity(group),
               lambda r: checks.classify_ok(group, r), defect),
        ]
    h = smallest_normal(group)
    if h is not None:
        ops.append(Op(f"quotient {tag}", lambda: P.quotient(group, h),
                      lambda r: checks.quotient_ok(group, h, r)))
    return ops


def setup_analyze(seed: int) -> Cycle:
    rng = _rng(seed, 2)
    ops = []
    groups = []
    for factors, arity in SLOTS:
        group = gen.hg_group(factors, arity, rng, fixed=True)
        group.dense()
        group.require_verified()
        group.skew_table()
        ops += _analyze_ops(group, rng)
        groups.append(group)
    directory = SCRATCH / f"cli-{os.getpid()}"
    return Cycle(_shuffled(ops, seed), ANALYZE_RATE, probe=lambda: cli_probe(groups, directory))


# -- the CLI, probed from analyze's traced run ----------------------------------------

def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "POLYAD_BUDGET"}
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_probe(groups: list[P.NaryGroup], directory: Path):
    """Each group through the CLI the way a user meets it.

    The group is saved to a file and ``polyadic.cli.main(["classes", file])``
    runs in process twice (load, verify, classes, JSON out; the two outputs
    must be byte-identical), then one interpreter starts and imports
    ``polyadic.cli``.  Returns the start-up times and the reasons of any
    wrong answer.  This runs after the timed loop of a traced run only.
    """
    env = child_env()
    floors: list[float] = []
    reasons: list[str] = []
    directory.mkdir(parents=True, exist_ok=True)
    try:
        for i, group in enumerate(groups):
            path = directory / f"group{i}.json"
            P.save_group(group, path)
            previous = None
            for _ in range(2):
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = polyadic.cli.main(["classes", str(path)])
                reason = checks.cli_ok(code, out.getvalue(), 0,
                                       lambda doc: checks.partition_ok(group.order, doc["classes"]),
                                       previous)
                previous = out.getvalue()
                if reason is not None:
                    reasons.append(f"cli classes {group.order}x{group.arity}: {reason}")
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import polyadic.cli"], env=env, cwd=ROOT,
                           check=True, timeout=120)
            floors.append(time.perf_counter() - t0)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return {"cli.floor": floors}, reasons


SETUPS = {
    "verify-pass": lambda seed: setup_verify(seed, mutated=False),
    "verify-fail": lambda seed: setup_verify(seed, mutated=True),
    "analyze": setup_analyze,
}
