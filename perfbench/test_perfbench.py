"""Self-tests of the benchmark: seeded inputs, mutations and output checks.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import hashlib
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import polyadic as P  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def digests(tables):
    return [hashlib.sha256(t.tobytes()).hexdigest() for _, _, t in tables]


def is_latin(table: np.ndarray) -> bool:
    """Permutation test on rows: every line along every axis permutes 0..m-1."""
    m = table.shape[0]
    for place in range(table.ndim):
        rows = np.moveaxis(table, place, -1).reshape(-1, m)
        if not (np.sort(rows, axis=1) == np.arange(m)).all():
            return False
    return True


# -- seeded inputs ----------------------------------------------------------------------

@pytest.mark.parametrize("mutated", [False, True])
def test_same_seed_same_ladder(mutated):
    first = digests(workloads.ladder_tables(7, mutated))
    assert first == digests(workloads.ladder_tables(7, mutated))
    assert first != digests(workloads.ladder_tables(8, mutated))


def test_same_seed_same_analyze_groups():
    def tables(seed):
        rng = np.random.default_rng(seed)
        return [gen.hg_group(f, n, rng, fixed=True).dense().tobytes()
                for f, n in workloads.SLOTS[:6]]

    assert tables(3) == tables(3)
    assert tables(3) != tables(4)


def test_relabelled_group_is_valid_and_isomorphic():
    rng = np.random.default_rng(0)
    data = gen.product_hg(("Z2", "S3"), 3, rng)
    group = P.hg_construct(data)
    assert P.verify_nary_group(P.NaryGroup(3, 12, table=group.dense())).passed
    plain = gen.relabel(data, np.arange(12))
    assert np.array_equal(P.hg_construct(plain).dense(), group.dense())


# -- mutations ------------------------------------------------------------------------------

def test_ladder_groups_are_latin_before_mutation():
    for _, _, table in workloads.ladder_tables(3, mutated=False)[:8]:
        assert is_latin(table)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_mutation_breaks_unique_solvability(seed):
    for m, n, table in workloads.ladder_tables(seed, mutated=True):
        assert not is_latin(table), (m, n)


def test_mutate_changes_exactly_one_cell():
    rng = np.random.default_rng(5)
    for _ in range(50):
        table = gen.hg_group(("S3",), 3, rng).dense().copy()
        before = table.copy()
        cell, new = gen.mutate(table, rng)
        assert np.count_nonzero(table != before) == 1
        assert table[cell] == new != before[cell]
        assert not is_latin(table)


# -- output checks reject wrong answers ------------------------------------------------------

@pytest.fixture(scope="module")
def s3t():
    return P.derived(P.symmetric_group_3(), 3)


@pytest.fixture(scope="module")
def mutated_table():
    rng = np.random.default_rng(9)
    table = gen.hg_group(("Z2", "S3"), 3, rng).dense().copy()
    gen.mutate(table, rng)
    return table


def test_verdict_checks(mutated_table):
    bad = P.verify_nary_group(P.NaryGroup(3, 12, table=mutated_table))
    assert checks.verdict_fail(bad, mutated_table) is None
    assert checks.verdict_pass(bad) is not None
    good = P.VerificationReport.ok(checked=1)
    assert checks.verdict_fail(good, mutated_table) is not None
    assert checks.verdict_pass(good) is None


def test_wrong_witness_rejected(mutated_table):
    report = P.verify_nary_group(P.NaryGroup(3, 12, table=mutated_table))
    first = report.first()
    assert checks.witness_breaks(mutated_table, first.axiom, first.witness)
    clean = gen.hg_group(("Z2", "S3"), 3, np.random.default_rng(1)).dense()
    assert not checks.witness_breaks(clean, first.axiom, first.witness)
    forged = P.VerificationReport.fail([("associativity(i=1,j=2)", (0,) * 5)])
    reason = checks.verdict_fail(forged, clean)
    assert reason is not None and "does not break" in reason
    assert not checks.witness_breaks(clean, "no-such-axiom", (0,))


def test_solvability_witness_lookup():
    table = P.NaryGroup.from_function(3, 3, lambda x, y, z: (x + y + z) % 3).dense().copy()
    table[0, 1, 2] = 1
    report = P.verify_quasigroup(P.NaryGroup(3, 3, table=table))
    first = report.first()
    assert checks.witness_breaks(table, first.axiom, first.witness)
    assert not checks.witness_breaks(table, first.axiom, (2, 2))


def test_structure_checks_reject(s3t):
    m = s3t.order
    assert checks.partition_ok(m, [(0, 1, 2), (3, 4, 5)]) is None
    assert checks.partition_ok(m, [(0, 1, 2), (3, 4)]) is not None
    assert checks.partition_ok(m, [(0, 1, 2), (2, 3, 4, 5)]) is not None
    subs = P.subgroups(s3t)
    assert checks.subgroups_ok(s3t, subs) is None
    assert checks.subgroups_ok(s3t, [h for h in subs if len(h) < m]) is not None
    assert checks.subgroups_ok(s3t, subs + [(3,)]) is not None
    table = s3t.dense()
    cent = P.centralizer(s3t, 1)
    assert checks.centralizer_ok(table, 1, cent) is None
    assert checks.centralizer_ok(table, 1, tuple(sorted(set(cent) ^ {3}))) is not None


def test_cover_check_rejects(s3t):
    cov = P.covering_group(s3t, 0)
    h, emb = P.cover_H(cov), P.verify_embedding(cov)
    assert checks.cover_ok(s3t, 0, cov, h, emb) is None
    small = SimpleNamespace(group=SimpleNamespace(order=6, identity=0), pair_of=cov.pair_of)
    assert "order" in checks.cover_ok(s3t, 0, small, h, emb)
    shifted = SimpleNamespace(group=SimpleNamespace(order=12, identity=cov.group.identity + 2),
                              pair_of=cov.pair_of)
    assert "identity" in checks.cover_ok(s3t, 0, shifted, h, emb)
    assert checks.cover_ok(s3t, 0, cov, h, P.VerificationReport.fail([("x", ())])) is not None


def test_reps_and_quotient_checks_reject(s3t):
    reps = P.one_dim_reps(s3t)
    table = s3t.dense()
    assert checks.reps_ok(table, reps) is None
    broken = SimpleNamespace(images=np.asarray(reps[-1].images) * 1j)
    assert checks.reps_ok(table, reps[:-1] + [broken]) is not None
    assert checks.reps_ok(table, reps + reps[:1]) is not None
    quot = P.quotient(s3t, (0, 3, 4))
    assert checks.quotient_ok(s3t, (0, 3, 4), quot) is None
    wrong = SimpleNamespace(partition=quot.partition, identity_block=1 - quot.identity_block,
                            block_index=quot.block_index, group=quot.group)
    assert checks.quotient_ok(s3t, (0, 3, 4), wrong) is not None


def test_classify_check_rejects(s3t):
    result = P.classify_simplicity(s3t)
    assert checks.classify_ok(s3t, result) is None
    without_carrier = tuple(h for h in result.normal_subgroups if len(h) < s3t.order)
    missing = SimpleNamespace(normal_subgroups=without_carrier,
                              proper_normal=result.proper_normal, case=result.case)
    assert checks.classify_ok(s3t, missing) is not None
    wrong_case = SimpleNamespace(normal_subgroups=result.normal_subgroups,
                                 proper_normal=(), case=result.case)
    assert checks.classify_ok(s3t, wrong_case) is not None


def test_cli_probe_checks_and_times(s3t, tmp_path):
    probes, reasons = workloads.cli_probe([s3t], tmp_path / "cli")
    assert reasons == []
    assert len(probes["cli.floor"]) == 1
    assert not (tmp_path / "cli").exists()


def test_cli_check_rejects():
    assert checks.cli_ok(0, '{"passed": true}\n', 0) is None
    assert checks.cli_ok(1, '{"passed": true}\n', 0) is not None
    assert checks.cli_ok(0, "not json", 0) is not None
    assert checks.cli_ok(0, '{"a": 1}\n', 0, previous='{"a": 2}\n') is not None
    assert checks.cli_ok(2, "", 2) is None
    assert checks.cli_ok(2, "{}", 2) is not None
    assert checks.cli_ok(0, "{}", 0, lambda doc: "bad") == "bad"


# -- the runner ---------------------------------------------------------------------------------

def test_measure_counts_failures_and_known_defects():
    def boom():
        raise ValueError("no")

    ops = [
        workloads.Op("ok", lambda: 1, lambda r: None),
        workloads.Op("wrong", lambda: 2, lambda r: "wrong answer"),
        workloads.Op("known", lambda: 3, lambda r: "old bug", lambda reason: "the cause"),
        workloads.Op("raises", boom, lambda r: None),
    ]
    cycle = workloads.Cycle(ops, rate=1.0)
    assert run.cycle_count(cycle, 0.0) == run.MIN_OPS // 4
    latencies, cycle_times, failures, unexpected = run.measure(cycle, run.MIN_OPS // 4, None)
    assert len(latencies) == run.MIN_OPS
    assert len(cycle_times) == run.MIN_OPS // 4
    assert sum(failures.values()) == 3 * run.MIN_OPS // 4
    assert unexpected == 2 * run.MIN_OPS // 4
    assert any(cause == "the cause" for _, _, cause in failures)


def test_subgroup_defect_only_claims_its_sizes():
    rng = np.random.default_rng(0)
    small = gen.hg_group(("S3",), 3, rng, fixed=True)
    ops = {op.name.split()[0]: op for op in workloads._analyze_ops(small, rng)}
    assert ops["subgroups"].known("subgroup list lacks the whole carrier") is None


def test_same_seed_same_attempts_and_failures():
    """A run's work is fixed by its arguments, so failures repeat exactly."""
    counts = []
    for _ in range(2):
        cycle = workloads.SETUPS["verify-fail"](3)
        latencies, _, failures, unexpected = run.measure(cycle, 1, None)
        counts.append((len(latencies), sorted(failures.items()), unexpected))
    assert counts[0] == counts[1]
