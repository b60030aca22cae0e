"""Operation evaluation and the n-ary group axiom checkers."""

import itertools
import time
import tracemalloc

import numpy as np
import pytest

import oracle
import polyadic as P
import polyadic.core as core
from conftest import A3, binary_catalog, derived_corpus


class TestEval:
    def test_examples(self, t2, t2b, z4m):
        assert t2.eval((1, 1, 1)) == 1
        assert t2b.eval((0, 0, 0)) == 1
        assert z4m.eval((3, 1, 2)) == 0

    def test_arity_mismatch(self, t2):
        with pytest.raises(ValueError, match="expected 3"):
            t2.eval((1, 1))

    def test_index_out_of_range(self, t2):
        with pytest.raises(ValueError, match="out of range"):
            t2.eval((0, 2, 0))

    def test_backends_agree(self, t2b):
        rebuilt = P.hg_construct(P.hg_decompose(t2b, 0))
        for xs in itertools.product(range(2), repeat=3):
            assert rebuilt.eval(xs) == t2b.eval(xs)

    def test_call_matches_eval(self, fixtures, hg_stock):
        # scalars, rows and np.ix_ grids; a cold hg group and its dense copy
        for name, group in list(fixtures.items()) + hg_stock:
            m, n = group.order, group.arity
            tuples = list(itertools.product(range(m), repeat=n))
            flat = [group.eval(xs) for xs in tuples]
            cold = group if group.kind == "dense" else P.NaryGroup.from_hg(group.hg)
            if group.kind == "hg":
                assert flat == [oracle.eval_by_hg_formula(group, xs) for xs in tuples], name
            for g in (cold, P.NaryGroup(n, m, table=cold.dense().copy())):
                assert [int(g(*xs)) for xs in tuples] == flat, name
                assert g(*oracle.all_tuples(m, n).T).tolist() == flat, name
                assert g(*np.ix_(*[np.arange(m)] * n)).reshape(-1).tolist() == flat, name

    def test_call_checks_the_arity(self, t2):
        with pytest.raises(ValueError, match="expected 3"):
            t2(0, 1)

    def test_hg_dense_is_a_writable_grid_evaluation(self, hg_stock):
        group = P.NaryGroup.from_hg(hg_stock[0][1].hg)
        table = group.dense()
        assert table is group.dense() and table.flags.writeable and table.flags.c_contiguous
        assert table.shape == (group.order,) * group.arity

    def test_hg_dense_equals_the_fold(self, fixtures, hg_stock_60):
        for name, group in list(fixtures.items()) + hg_stock_60 + derived_corpus():
            grid = np.ix_(*[np.arange(group.order)] * group.arity)
            fold = P.NaryGroup.from_hg(group.hg)(*grid)
            table = P.NaryGroup.from_hg(group.hg).dense()
            assert table.dtype == np.int64 and table.flags.writeable, name
            assert np.array_equal(table, fold), name


class TestAboveDenseLimit:
    """derived(D8 x Z4, n = 6) has 2^36 cells; questions that read a few of them answer."""

    @pytest.fixture()
    def base_and_group(self, monkeypatch):
        base = P.direct_product(P.dihedral_group(8), P.cyclic_group(4))
        group = P.derived(base, 6)
        monkeypatch.setattr(P.NaryGroup, "dense", lambda self: pytest.fail("dense() called"))
        return base, group

    def test_subgroup_questions_answer(self, base_and_group):
        base, group = base_and_group
        # a derived group's subgroups, normality and cosets are its base's:
        # {e} x Z4 is normal, a reflection's subgroup {e, (s, 0)} is not
        for h, normal in (((0, 1, 2, 3), True), ((0, 32), False)):
            assert P.verify_subgroup(group, h).passed
            assert P.is_normal(group, h) == normal == base.is_normal_subgroup(h)
            want = sorted({tuple(sorted(base.table[a, list(h)].tolist())) for a in range(64)})
            assert list(P.cosets(group, h).blocks) == want
        assert P.verify_subgroup(group, (0, 1)).first().axiom == "subgroup-closure"
        assert [e for e in range(group.order) if P.is_nary_identity(group, e)] == [base.identity]

    def test_full_grid_refused(self, base_and_group):
        _, group = base_and_group
        with pytest.raises(P.SizeLimitError):
            group(*np.ix_(*[np.arange(group.order)] * group.arity))

    def test_arity_beyond_numpy_operand_limit(self):
        # np.broadcast takes at most 64 operands; the size guard takes any number
        group = P.derived(P.cyclic_group(3), 70)
        assert group.eval((1,) * 70) == 1
        assert group(*[np.arange(3)] * 70).tolist() == [0, 1, 2]   # 70 x = x mod 3
        with pytest.raises(P.SizeLimitError):
            group.dense()

    def test_dense_refused_without_multiplying_out_the_arity(self):
        group = P.derived(P.symmetric_group_3(), 10 ** 6)
        for call in (group.dense, lambda: P.is_central(group, 0),
                     lambda: P.central_elements(group)):
            start = time.perf_counter()
            with pytest.raises(P.SizeLimitError):
                call()
            assert time.perf_counter() - start < 0.5


class TestEvalLong:
    """The long-sequence fold that the cover oracles build on."""

    def test_examples(self, t2, z4m):
        assert oracle.eval_long(t2, (1, 1, 1, 1, 1)) == 1
        assert oracle.eval_long(z4m, (1, 2, 3, 0, 1)) == 3

    def test_derived_matches_permutation_products(self, s3, s3t):
        rng = np.random.default_rng(7)
        for _ in range(50):
            xs = rng.integers(0, 6, size=5)
            direct = s3.product(xs)
            assert oracle.eval_long(s3t, tuple(xs)) == direct

    def test_invalid_length(self, t2):
        with pytest.raises(ValueError, match="k\\(n-1\\)\\+1"):
            oracle.eval_long(t2, (1, 1, 1, 1))

    def test_fold_order_independent(self, fixtures):
        rng = np.random.default_rng(11)
        for group in fixtures.values():
            n = group.arity
            for k in (2, 3):
                xs = tuple(rng.integers(0, group.order, size=k * (n - 1) + 1))
                assert oracle.eval_long(group, xs, fold="left") == \
                    oracle.eval_long(group, xs, fold="right")

    def test_agrees_with_eval_on_length_n(self, fixtures):
        for group in fixtures.values():
            for xs in itertools.product(range(group.order), repeat=group.arity):
                assert oracle.eval_long(group, xs) == group.eval(xs)


class TestAssociativity:
    def test_fixtures_pass(self, t2, z4m):
        assert P.verify_associativity(t2).passed
        assert P.verify_associativity(z4m).passed

    def test_mutation_detected_with_witness(self, t2):
        table = t2.dense().copy()
        table[0, 0, 0] = 1
        broken = P.NaryGroup(3, 2, table=table)
        report = P.verify_associativity(broken)
        assert not report.passed
        axiom, witness = report.first()
        assert axiom.startswith("associativity(")
        assert len(witness) == 5

    def test_refused_above_the_scan_size(self, s3t, monkeypatch):
        monkeypatch.setattr(core, "_SCAN_TUPLES", 100)
        with pytest.raises(P.SizeLimitError, match="verify_nary_group"):
            P.verify_associativity(s3t)
        assert P.verify_quasigroup(s3t).passed   # exhaustive at every dense size

    def test_refused_at_huge_arity_without_the_tuple_count(self):
        # 6^(2n-1) at n = 10^9 would be a 5 * 10^9-bit integer
        group = P.derived(P.symmetric_group_3(), 10 ** 9)
        for scan in (P.verify_associativity, P.verify_quasigroup):
            with pytest.raises(P.SizeLimitError):
                scan(group)


class TestQuasigroup:
    def test_fixtures_pass(self, t2b, s3t):
        assert P.verify_quasigroup(t2b).passed
        assert P.verify_quasigroup(s3t).passed

    def test_repeated_row_fails(self):
        table = np.zeros((2, 2, 2), dtype=int)  # constant operation
        broken = P.NaryGroup(3, 2, table=table)
        report = P.verify_quasigroup(broken)
        assert not report.passed
        assert report.first().axiom.startswith("solvability(")


class TestNaryGroup:
    def test_fixtures_pass_exhaustively(self, fixtures):
        for name, group in fixtures.items():
            report = P.verify_nary_group(group)
            assert report.passed and not report.sampled, name

    def test_random_stock_passes(self, hg_stock):
        for name, group in hg_stock:
            report = P.verify_nary_group(group)
            assert report.passed and not report.sampled, name

    def test_mutations_fail(self, z4m):
        rng = np.random.default_rng(3)
        flat = z4m.dense().reshape(-1)
        for _ in range(10):
            pos = int(rng.integers(flat.size))
            table = flat.copy()
            table[pos] = (table[pos] + 1 + rng.integers(3)) % 4
            report = P.verify_nary_group(P.NaryGroup(3, 4, table=table))
            assert not report.passed
            assert report.failures

    def test_derived_groups_pass(self):
        for name, base in binary_catalog().items():
            if base.order > 6:
                continue
            assert P.verify_nary_group(P.derived(base, 3)).passed, name

    def test_b_derived_passes_for_every_central_twist(self):
        for base in (P.cyclic_group(4), P.quaternion_group(), P.symmetric_group_3()):
            for b in base.center:
                for arity in (3, 4):
                    assert P.verify_nary_group(P.b_derived(base, b, arity)).passed


class TestCertificate:
    def test_passing_reports_are_exact_certificates(self, fixtures):
        for name, group in fixtures.items():
            report = P.verify_nary_group(group)
            m, n = group.order, group.arity
            assert report.method == "certificate" and not report.sampled, name
            compared = m ** n if group.kind == "dense" else 0
            assert report.checked == compared + m ** 3, name
            assert report.to_dict()["method"] == "certificate"

    def test_agrees_with_scan_on_hg_stock(self, hg_stock):
        for name, group in hg_stock:
            dense_copy = P.NaryGroup(group.arity, group.order, table=group.dense().copy())
            assert oracle.scan_verdict(dense_copy), name
            assert P.verify_nary_group(dense_copy).method == "certificate", name

    def test_agrees_with_scan_on_every_single_cell_mutation(self, fixtures):
        tables = 0
        for name, group in fixtures.items():
            for cell, _, mutated in oracle.single_cell_mutations(group):
                report = P.verify_nary_group(mutated)
                assert report.passed == oracle.scan_verdict(mutated), (name, cell)
                if not report.passed:
                    scan = P.verify_associativity(mutated).merge(P.verify_quasigroup(mutated))
                    assert report == scan, (name, cell)
                tables += 1
        assert tables == 1304

    def test_exhaustive_scan_contradicting_the_certificate_raises(self, t2, monkeypatch):
        monkeypatch.setattr(core, "_certify_dense", lambda table: core._Rejection(None, None))
        with pytest.raises(RuntimeError, match="exhaustive scan"):
            P.verify_nary_group(P.NaryGroup(3, 2, table=t2.dense()))

    def test_hg_backed_group_needs_no_dense_table(self):
        group = P.derived(P.cyclic_group(8), 9)         # 8^9 cells, above DENSE_LIMIT
        report = P.verify_nary_group(group)
        assert report.passed and report.method == "certificate"
        assert report.checked == 8 ** 3
        assert group._table is None

    def test_hg_data_corrupted_after_construction_raises(self):
        # the verified base table and phi are read-only, so the report kept
        # from construction stays true of them
        base = P.cyclic_group(3)
        group = P.derived(base, 3)
        with pytest.raises(ValueError, match="read-only"):
            base.table[0, 0] = 1
        with pytest.raises(ValueError, match="read-only"):
            group.hg.phi[0] = 1
        assert P.verify_nary_group(group).passed

    def test_hg_group_reuses_its_base_report(self, s3t, binary_table_checks):
        # a checked base keeps its construction report; an unchecked one is verified once
        calls = binary_table_checks
        checked = P.derived(P.symmetric_group_3(), 3)
        assert calls == [(6, 6)]
        assert P.verify_nary_group(checked).checked == 6 ** 3 and calls == [(6, 6)]
        unchecked = P.hg_construct(P.hg_decompose(s3t, 1))
        assert unchecked.hg.group.report is None and calls == [(6, 6)] * 2
        assert P.verify_nary_group(unchecked).passed and calls == [(6, 6)] * 2

    def test_unchecked_hg_base_that_is_no_group_raises_with_its_report(self):
        # a Latin table with identity 0 that is not associative, built unchecked
        loop = P.BinaryGroup(np.array([[0, 1, 2], [1, 2, 0], [2, 1, 0]]), check=False)
        with pytest.raises(P.InvalidGroupError, match="hg base is not a group") as exc:
            P.NaryGroup(3, 3, hg=P.HGData(loop, np.arange(3), 0, 3))
        assert exc.value.report == P.verify_binary_table(loop.table)


class TestVerdictOnConstruction:
    """The constructor decides the axioms; a verified group is its decomposition."""

    def test_table_changed_after_construction_changes_nothing(self):
        # the caller's table is not kept: the group answers from its anchor-0 data
        t = P.NaryGroup.from_function(3, 2, lambda x, y, z: (x + y + z) % 2).dense().copy()
        want = t.copy()
        g = P.NaryGroup(3, 2, table=t)
        t[0, 0, 0] ^= 1
        g.require_verified()
        assert P.verify_nary_group(g).passed
        assert np.array_equal(g(*np.ix_(*[np.arange(2)] * 3)), want)
        assert np.array_equal(g.dense(), want)
        assert P.retract(g, 0).identity == 0

    def test_equality_above_the_dense_limit(self, monkeypatch):
        # derived(D8 x Z4, n = 6) has 2^36 cells; == reads the anchor-0 data
        g = P.derived(P.direct_product(P.dihedral_group(8), P.cyclic_group(4)), 6)
        monkeypatch.setattr(P.NaryGroup, "dense", lambda self: pytest.fail("dense() called"))
        assert g == g
        for a in (1, 33):
            assert g == P.hg_construct(P.hg_decompose(g, a))
        assert g != P.derived(P.direct_product(P.dihedral_group(8), P.cyclic_group(4)), 5)

    def test_equals_agrees_with_the_dense_compare(self, fixtures, hg_stock):
        groups = list(fixtures.values()) + [g for _, g in hg_stock]
        groups += [P.hg_construct(P.hg_decompose(g, g.order - 1)) for g in groups]
        groups += [P.NaryGroup(g.arity, g.order, table=g.dense().copy()) for g in groups[:10]]
        pairs = same = 0
        for a, b in itertools.product(groups, repeat=2):
            if (a.arity, a.order) == (b.arity, b.order):
                dense_equal = np.array_equal(a.dense(), b.dense())
                assert a.equals(b) == (a == b) == dense_equal
                pairs, same = pairs + 1, same + dense_equal
        assert pairs > 200 and pairs > same > len(groups)

    def test_rejected_table_answers_only_the_verifiers(self, s3t):
        table = s3t.dense().copy()
        table[1, 2, 3] = (table[1, 2, 3] + 1) % 6
        broken = P.NaryGroup(3, 6, table=table)
        report = P.verify_nary_group(broken)
        assert not report.passed and broken.report is report
        assert report == P.verify_associativity(broken).merge(P.verify_quasigroup(broken))
        refused = [
            lambda g: g.require_verified(), lambda g: g(0, 0, 0), lambda g: g.eval((0, 0, 0)),
            lambda g: g.skew_table(), lambda g: g.skew(0), lambda g: g.dense(), lambda g: g.hg,
            lambda g: P.retract(g, 0), lambda g: P.hg_decompose(g, 0),
            lambda g: P.covering_group(g, 0), P.conjugacy_classes,
            lambda g: P.centralizer(g, 0), P.subgroups, lambda g: P.quotient(g, A3),
            lambda g: P.is_central(g, 0), P.one_dim_reps,
        ]
        for call in refused:
            with pytest.raises(P.InvalidGroupError, match="not an n-ary group") as exc:
                call(broken)
            assert exc.value.report is report
        # equality compares a rejected table's cells, and never raises
        assert broken == broken == P.NaryGroup(3, 6, table=table.copy())
        assert broken != s3t and s3t != broken and len({broken, s3t}) == 2
        other = table.copy()
        other[0, 0, 0] = (other[0, 0, 0] + 1) % 6
        assert broken != P.NaryGroup(3, 6, table=other)

    def test_passing_report_kept_from_construction(self, s3t, monkeypatch):
        group = P.NaryGroup(3, 6, table=s3t.dense().copy())
        monkeypatch.setattr(core, "_certify_dense", lambda table: pytest.fail("certified again"))
        assert P.verify_nary_group(group) is group.report and group.report.passed
        assert group.kind == "dense" and group._table is None

    def test_table_built_by_the_constructor_is_the_dense_cache(self, s3t, monkeypatch):
        # a list (a parsed file) or a cast is copied into a new array: kept, not rebuilt
        want = s3t.dense()
        monkeypatch.setattr(core, "_require_small", lambda shape: pytest.fail("folded"))
        for table in (want.tolist(), want.astype(np.int32)):
            group = P.NaryGroup(3, 6, table=table)
            assert group.report.passed and np.array_equal(group._table, want)
            assert group.dense() is group._table and group(1, 2, 3) == want[1, 2, 3]

    def test_verified_group_above_the_dense_limit_refuses_scans(self):
        # 32^6 cells: both scans refuse before they build the m^n table
        g = P.derived(P.direct_product(P.dihedral_group(8), P.cyclic_group(4)), 6)
        for scan in (P.verify_associativity, P.verify_quasigroup):
            with pytest.raises(P.SizeLimitError):
                scan(g)
        assert g._table is None and P.verify_nary_group(g).passed


class TestReadOnly:
    """The arrays a verified group rests on cannot be written."""

    @staticmethod
    def arrays(value):
        return [(name, v) for name, v in vars(value).items() if isinstance(v, np.ndarray)]

    def test_value_types_hold_read_only_arrays(self, fixtures, hg_stock):
        seen = set()
        for name, group in list(fixtures.items()) + hg_stock:
            hg = group.hg
            hg.phi_powers
            cover = P.covering_group(group, group.order - 1)
            cover.embed
            values = [hg, hg.group, P.retract(group, 0), cover, cover.group,
                      P.canonical_action(group), P.conjugacy_classes(group)]
            values += [P.quotient(group, h).partition for h in P.subgroups(group)
                       if P.is_normal(group, h)]
            for value in values:
                for attr, array in self.arrays(value) + [("skew_table", group.skew_table())]:
                    assert not array.flags.writeable, (name, type(value).__name__, attr)
                    seen.add((type(value).__name__, attr))
        assert seen >= {("HGData", "phi"), ("HGData", "phi_powers"), ("BinaryGroup", "table"),
                        ("BinaryGroup", "inverse"), ("CoveringGroup", "embed"),
                        ("Action", "table"), ("Partition", "index")}


def _mutate(table, cells, rng):
    """Copy of ``table`` with each of ``cells`` changed to another element."""
    m = table.shape[0]
    out = table.copy()
    for cell in cells:
        out[cell] = (out[cell] + rng.integers(1, m)) % m
    return out


def _multi_cell_mutations(s3t, z4m, hg_stock):
    """(name, group, cells, table): seeded tables with two to five cells changed."""
    rng = np.random.default_rng(17)
    groups = [("S3T", s3t, 10), ("Z4M", z4m, 10)]
    groups += [(name, g, 2) for name, g in hg_stock if g.order > 2]
    for name, group, tables in groups:
        table = group.dense()
        for _ in range(tables):
            count = int(rng.integers(2, 6))
            flat = rng.choice(table.size, size=count, replace=False)
            cells = [np.unravel_index(int(f), table.shape) for f in flat]
            yield name, group, cells, _mutate(table, cells, rng)


class TestDifferenceSet:
    """Failure witnesses searched for through the cells that leave a decomposition."""

    def test_multi_cell_mutations_match_the_scan(self, s3t, z4m, hg_stock):
        searched = failing = 0
        for name, group, cells, changed in _multi_cell_mutations(s3t, z4m, hg_stock):
            mutated = P.NaryGroup(group.arity, group.order, table=changed)
            report = P.verify_nary_group(mutated)
            if report.passed:
                continue
            scan = oracle.exhaustive_scan(mutated)
            assert report.to_dict() == scan.to_dict(), (name, cells)
            direct = core._difference_report(changed, core._certify_dense(changed))
            if direct is not None:
                assert direct == scan, (name, cells)
                searched += 1
            failing += 1
        assert searched * 10 >= failing * 9

    def test_solvability_witnesses_equal_the_line_oracle(self, s3t, z4m, hg_stock):
        searched = 0
        for name, _, cells, changed in _multi_cell_mutations(s3t, z4m, hg_stock):
            direct = core._difference_report(changed, core._certify_dense(changed))
            if direct is None:
                continue
            lines = [(f.axiom, f.witness) for f in direct.failures
                     if f.axiom.startswith("solvability")]
            assert lines == oracle.solvability_lines(changed), (name, cells)
            searched += 1
        assert searched > 30

    def test_sweep_skips_non_associative_retracts_cheaply(self, monkeypatch):
        # (x o y) o z with x o y = sigma(x) + y: Latin, and no anchor decomposes
        m = 256
        sigma = np.random.default_rng(3).permutation(m)
        table = _ternary(m, lambda x, y, z: sigma[(sigma[x] + y) % m] + z)
        built, binary_group = [], core.BinaryGroup
        monkeypatch.setattr(core, "BinaryGroup",
                            lambda *args: built.append(args) or binary_group(*args))
        report = P.NaryGroup(3, m, table=table).report
        assert len(built) == 1   # anchor 0's, for the certificate; the sweep builds none
        assert report == P.VerificationReport.certificate(
            [("associativity(i=1,j=3)", (0, 0, 0, 0, 0))], checked=4 * m ** 3)
        assert oracle.witness_breaks(table, *report.first())

    def test_block_rows_agree_with_the_slices(self, monkeypatch):
        # derived(Q8, 6) has 2^18 cells, compared in 4 blocks of 2^16: changed
        # cells at the first and last cell of a block, and spread across blocks
        group = P.derived(P.quaternion_group(), 6)
        table, data, block = group.dense(), group.hg, 1 << 16
        assert len(list(core._mismatches((table + 1) % 8, data))) == 4
        edges = [0, block - 1, block, 2 * block - 1, 3 * block, table.size - 1]
        cases = [[f] for f in edges] + [[block - 1, block], [5, 6], [0, table.size - 1],
                                        [block - 1, block, 3 * block], [7, 2 * block + 9, 70000],
                                        [block - 1, 2 * block - 1, table.size - 1]]
        rng, reports = np.random.default_rng(5), 0
        for flat in cases:
            changed = _mutate(table, [np.unravel_index(f, table.shape) for f in flat], rng)
            found = [core._difference_set(table.shape, mismatches(changed, data), table.size)
                     for mismatches in (core._mismatches, oracle.mismatches_by_slices)]
            assert np.array_equal(*found) and found[0].tolist() == sorted(
                list(np.unravel_index(f, table.shape)) for f in flat), flat
            report = core._difference_report(changed, core._certify_dense(changed))
            with monkeypatch.context() as patch:
                patch.setattr(core, "_mismatches", oracle.mismatches_by_slices)
                assert core._difference_report(changed, core._certify_dense(changed)) == report, flat
            reports += report is not None
        assert reports > len(cases) // 2   # the rest fall back to the scan on both routes

    def test_changed_retract_cell_answered_through_anchor_one(self, s3t):
        table = _mutate(s3t.dense(), [(1, 0, 2)], np.random.default_rng(0))
        mutated = P.NaryGroup(3, 6, table=table)
        rejection = core._certify_dense(table)
        assert rejection.data is None and core._decompose(table, 1)[1] is not None
        report = core._difference_report(table, rejection)
        assert report is not None and report == oracle.exhaustive_scan(mutated)
        assert P.verify_nary_group(mutated) == report

    def test_exact_witnesses_where_the_scan_would_sample(self, s3t, monkeypatch):
        table = _mutate(s3t.dense(), [(2, 4, 3)], np.random.default_rng(1))
        mutated = P.NaryGroup(3, 6, table=table)
        want = oracle.exhaustive_scan(mutated).to_dict()
        monkeypatch.setattr(core, "_SCAN_TUPLES", 1000)
        with pytest.raises(P.SizeLimitError):
            P.verify_associativity(mutated)
        report = P.verify_nary_group(P.NaryGroup(3, 6, table=table))
        assert report.method == "scan" and report.to_dict() == want

    def test_changed_twist_cell_falls_back_to_the_scan(self):
        # b' still gives a valid decomposition, one that differs in every cell
        group = P.b_derived(P.cyclic_group(8), 5, 3)
        table = group.dense().copy()
        cell = (group.skew(0),) * 3
        table[cell] = (table[cell] + 1) % 8
        mutated = P.NaryGroup(3, 8, table=table)
        rejection = core._certify_dense(table)
        assert rejection.data is not None
        assert core._difference_report(table, rejection) is None
        assert P.verify_nary_group(mutated) == oracle.exhaustive_scan(mutated)

    def test_garbage_table_falls_back_to_the_scan(self):
        table = np.random.default_rng(2).integers(0, 6, size=(6, 6, 6))
        garbage = P.NaryGroup(3, 6, table=table)
        assert core._difference_report(table, core._certify_dense(table)) is None
        report = P.verify_nary_group(garbage)
        assert report == P.verify_associativity(garbage).merge(P.verify_quasigroup(garbage))
        assert not report.passed


def _ternary(m, fn):
    """The (m, m, m) table of ``fn(x, y, z) mod m``."""
    x = np.arange(m)
    return fn(x[:, None, None], x[:, None], x) % m


def _xor_4ary():
    """w ^ gray(x) ^ swap(y) ^ z ^ 1 on 2-bit labels: anchor 0 reads a group Ret_0 with
    identity 1, the automorphism phi = gray and b = 2, but phi(b) = 3."""
    x = np.arange(4)
    gray, swap = x ^ (x >> 1), ((x & 1) << 1) | (x >> 1)
    return x[:, None, None, None] ^ gray[:, None, None] ^ swap[:, None] ^ x ^ 1


def _toggled_subcube(m):
    """x - y + z mod m (phi = -x, phi^2 = 1) with the Latin subcube {1, 1 + m/2}^3 toggled:
    still Latin, and off the cells anchor 0 reads."""
    table, h = _ternary(m, lambda x, y, z: x - y + z), m // 2
    cells = np.ix_(*[[1, 1 + h]] * 3)
    table[cells] = (table[cells] + h) % m
    return table


class TestExactFailureReports:
    """A rejected table past the scans gets the certificate's exact failure, never a sample."""

    def test_random_table_reports_the_first_failing_line_at_each_place(self):
        table = np.random.default_rng(3).integers(0, 32, size=(32,) * 3)
        report = P.verify_nary_group(P.NaryGroup(3, 32, table=table))
        assert report.method == "certificate" and report.to_dict()["sampled"] is False
        assert list(report.failures) == oracle.solvability_lines(table)
        assert report.checked == 3 * 32 ** 3

    def test_non_associative_retract_is_a_table_witness(self):
        # x - y - z is Latin; its retract x - y is not associative
        table = _ternary(32, lambda x, y, z: x - y - z)
        report = P.verify_nary_group(P.NaryGroup(3, 32, table=table))
        assert report.method == "certificate" and len(report.failures) == 1
        axiom, witness = report.first()
        assert axiom == "associativity(i=1,j=3)" and oracle.witness_breaks(table, axiom, witness)
        assert report.checked == 3 * 32 ** 3 + 32 ** 3

    def test_phi_no_automorphism_is_a_table_witness(self):
        # x1 + psi(x2) + x3 with psi a permutation that fixes 0 and is no automorphism
        psi = np.r_[0, np.random.default_rng(4).permutation(np.arange(1, 32))]
        assert not P.is_automorphism(P.cyclic_group(32), psi)
        table = _ternary(32, lambda x, y, z: x + psi[y] + z)
        report = P.verify_nary_group(P.NaryGroup(3, 32, table=table))
        assert report.method == "certificate" and len(report.failures) == 1
        axiom, witness = report.first()
        assert axiom in ("associativity(i=1,j=2)", "associativity(i=1,j=3)")
        assert oracle.witness_breaks(table, axiom, witness)

    def test_every_residual_branch_gives_genuine_witnesses(self, s3t, z4m, monkeypatch):
        # with no scan and no difference search, every rejected table is
        # answered by its failing lines or by the failed certificate step;
        # the lines are sorted one x1 slice at a time
        monkeypatch.setattr(core, "_SCAN_TUPLES", 0)
        monkeypatch.setattr(core, "_CHUNK_CELLS", 1)
        mutations = 0
        for group in (s3t, z4m):
            for cell, table, mutated in oracle.single_cell_mutations(group):
                report = P.verify_nary_group(mutated)
                assert report.method == "certificate", cell
                assert list(report.failures) == oracle.solvability_lines(table), cell
                mutations += 1
        assert mutations == 6 ** 3 * 5 + 4 ** 3 * 3
        branches = [
            ("associativity(i=1,j=3)", _ternary(5, lambda x, y, z: x - y - z)),
            ("associativity(i=1,j=2)", _ternary(5, lambda x, y, z: x + np.array([0, 2, 1, 3, 4])[y] + z)),
            ("hosszu-gluskin(phi-fixes-b)", _xor_4ary()),
            ("hosszu-gluskin(phi-power)", _ternary(5, lambda x, y, z: x + 2 * y + z)),
            ("hosszu-gluskin(rebuild)", _toggled_subcube(8)),
        ]
        for axiom, table in branches:
            report = P.verify_nary_group(P.NaryGroup(table.ndim, len(table), table=table))
            assert report.method == "certificate" and len(report.failures) == 1, axiom
            assert report.first().axiom == axiom
            assert oracle.witness_breaks(table, *report.first()), axiom

    def test_hosszu_gluskin_witness_without_the_patch(self):
        # x + 2y + z mod 27: Latin, no anchor decomposes, phi^2 = 4x is not the identity
        table = _ternary(27, lambda x, y, z: x + 2 * y + z)
        report = P.verify_nary_group(P.NaryGroup(3, 27, table=table))
        assert report == P.VerificationReport.certificate(
            [("hosszu-gluskin(phi-power)", (1,))], checked=3 * 27 ** 3 + 27 ** 3 + 27 ** 2 + 28)
        assert oracle.hosszu_gluskin_breaks(table, *report.first())

    def test_random_order_128_table_reports_within_a_second(self):
        table = np.random.default_rng(5).integers(0, 128, size=(128,) * 3)
        start = time.perf_counter()
        report = P.NaryGroup(3, 128, table=table).report
        assert time.perf_counter() - start < 1.0
        assert not report.passed and report.method == "certificate"


class TestSkew:
    def test_values(self, z4m, q4, t2b):
        assert list(z4m.skew_table()) == [0, 1, 2, 3]
        assert list(q4.skew_table()) == [1, 1]
        assert list(t2b.skew_table()) == [1, 0]

    def test_double_skew_ternary(self, ternary_fixtures):
        for group in ternary_fixtures.values():
            for x in range(group.order):
                assert group.skew(group.skew(x)) == x

    def test_double_skew_can_fail_above_ternary(self, q4):
        assert q4.skew(q4.skew(0)) != 0

    def test_ternary_skew_antihomomorphism(self, ternary_fixtures):
        for group in ternary_fixtures.values():
            for xs in itertools.product(range(group.order), repeat=3):
                lhs = group.skew(group.eval(xs))
                rhs = group.eval((group.skew(xs[2]), group.skew(xs[1]), group.skew(xs[0])))
                assert lhs == rhs

    def test_skew_identities_all_fixtures(self, fixtures):
        for group in fixtures.values():
            n = group.arity
            for x in range(group.order):
                xb = group.skew(x)
                for k in range(1, n + 1):
                    assert group.eval((x,) * (k - 1) + (xb,) + (x,) * (n - k)) == x
                for y in range(group.order):
                    for i in range(2, n + 1):
                        assert group.eval((x,) * (i - 2) + (xb,) + (x,) * (n - i) + (y,)) == y
                    for j in range(2, n + 1):
                        assert group.eval((y,) + (x,) * (n - j) + (xb,) + (x,) * (j - 2)) == y

    def test_ambiguous_skew_on_broken_table(self):
        broken = P.NaryGroup(3, 2, table=np.zeros((2, 2, 2), dtype=int))
        with pytest.raises(P.InvalidGroupError, match=r"not an n-ary group: solvability\(place=1\)"):
            broken.skew(1)

    def test_table_equals_per_element_skew(self, fixtures, hg_stock):
        for name, group in list(fixtures.items()) + hg_stock:
            want = [oracle.skew_by_element(group, x) for x in range(group.order)]
            assert group.skew_table().tolist() == want, name
            assert [group.skew(x) for x in range(group.order)] == want, name

    def test_table_is_read_only(self, s3t, hg_stock):
        for group in (s3t, hg_stock[0][1]):
            with pytest.raises(ValueError):
                group.skew_table()[0] = 1

    def test_broken_hg_closed_form_names_first_element(self, t2b, monkeypatch):
        group = P.NaryGroup.from_hg(P.hg_decompose(t2b, 0))
        monkeypatch.setattr(P.NaryGroup, "__call__", lambda self, *xs: (xs[0] + 1) % self.order)
        with pytest.raises(P.InvalidGroupError, match="closed form failed at 0"):
            group.skew_table()

    def test_hg_closed_form_matches_scan(self, hg_stock):
        for name, group in hg_stock[:8]:
            dense_copy = P.NaryGroup(group.arity, group.order, table=group.dense().copy())
            assert list(group.skew_table()) == list(dense_copy.skew_table()), name


class TestPredicates:
    def test_nary_identity(self, t2, t2b, s3t):
        assert oracle.has_nary_identity(t2) == 0
        assert oracle.has_nary_identity(t2b) is None
        assert oracle.has_nary_identity(s3t) == 0

    def test_semiabelian(self, fixtures):
        expected = {"T2": True, "T2b": True, "Z4M": True, "Q4": True, "S3T": False}
        for name, group in fixtures.items():
            assert P.is_semiabelian(group) == expected[name], name

    def test_semiabelian_implies_medial(self, fixtures):
        for name, group in fixtures.items():
            if P.is_semiabelian(group):
                assert oracle.medial_grid_scan(group), name

    def test_b_derived_semiabelian_iff_abelian_base(self):
        assert P.is_semiabelian(P.b_derived(P.cyclic_group(4), 2, 3))
        q8 = P.quaternion_group()
        assert not P.is_semiabelian(P.b_derived(q8, 1, 3))
        assert not P.is_semiabelian(P.derived(P.symmetric_group_3(), 3))

    def test_retract_table_is_dense_slice(self, fixtures, hg_stock_60):
        for name, group in list(fixtures.items()) + hg_stock_60:
            n, table = group.arity, group.dense()
            for a in range(group.order):
                want = table[(slice(None),) + (a,) * (n - 2) + (slice(None),)]
                assert np.array_equal(P.retract_table(group, a), want), (name, a)

    def test_semiabelian_and_medial_equal_scans(self, fixtures, hg_stock_60):
        refuted = 0
        for name, group in list(fixtures.items()) + hg_stock_60:
            verdict = P.is_semiabelian(group)
            assert verdict == oracle.semiabelian_scan(group), name
            for a in range(group.order):   # every retract is abelian or none is
                ret = P.retract_table(group, a)
                assert np.array_equal(ret, ret.T) == verdict, (name, a)
            if group.order ** (group.arity ** 2) <= oracle.MEDIAL_GRID_LIMIT:
                assert oracle.medial_grid_scan(group) == verdict, name
            witness = oracle.medial_two_cell_witness(group)
            assert (witness is None) == verdict, name
            refuted += witness is not None
            if verdict:   # in a medial group the skew map is a homomorphism
                assert oracle.skew_is_homomorphism(group), name
        assert refuted > 0

    def test_medial_above_dense_limit(self):
        # derived(Z4^3, n=6) has 2^36 cells; the answer, medial iff semiabelian
        # (Głazek and Gleichgewicht), needs only its retract
        z4 = P.cyclic_group(4)
        group = P.derived(P.direct_product(z4, P.direct_product(z4, z4)), 6)
        assert P.is_semiabelian(group)
        assert not P.is_semiabelian(P.derived(P.direct_product(z4, P.quaternion_group()), 6))

    def test_budget_environment_ignored(self, fixtures, monkeypatch):
        want = [P.is_semiabelian(g) for g in fixtures.values()]
        monkeypatch.setenv("POLYAD_BUDGET", "1")
        assert [P.is_semiabelian(g) for g in fixtures.values()] == want

    def test_unverified_input_rejected(self):
        broken = P.NaryGroup(3, 2, table=np.zeros((2, 2, 2), dtype=int))
        with pytest.raises(P.InvalidGroupError):
            P.is_semiabelian(broken)


def _add_one(table, flats):
    """Copy of the order-8 ``table`` with the cells at ``flats`` changed to v + 1 mod 8."""
    out = table.copy()
    out.flat[flats] = (out.flat[flats] + 1) % 8
    return out


def _with_last(table, value):
    out = table.copy()
    out.flat[-1] = value
    return out


class TestConstruction:
    @pytest.fixture(scope="class")
    def q8_6(self):
        """derived(Q8, 6): 2^18 cells, compared and range-checked in 4 blocks of 2^16."""
        return P.derived(P.quaternion_group(), 6)

    def test_table_length_checked(self):
        with pytest.raises(P.InvalidGroupError, match="entries"):
            P.NaryGroup(3, 2, table=[0, 1, 1])

    def test_entry_range_checked(self):
        with pytest.raises(P.InvalidGroupError, match="indices"):
            P.NaryGroup(3, 2, table=[0, 1, 1, 0, 1, 0, 0, 7])

    def test_negative_entry_rejected(self):
        # the range check is one max() over the table viewed as unsigned
        for bad in (-1, -(2 ** 63)):
            with pytest.raises(P.InvalidGroupError, match="indices"):
                P.NaryGroup(3, 2, table=[0, 1, 1, 0, 1, 0, bad, 1])

    def test_every_cell_range_checked(self, s3t):
        # m, 256 + v (v as uint8), -1, -256 + v and 2^63 - 1 in each cell; the
        # certificate reads the twist cell (0bar, ..., 0bar) and anchor 0's phi
        # line as indices, so those are named first
        z4 = P.hg_construct(P.HGData(P.cyclic_group(4), np.array([0, 3, 2, 1]), 2, 5))
        for group in (s3t, z4):
            table, m, n, abar = group.dense(), group.order, group.arity, group.skew(0)
            twist_cell = (abar,) * n
            phi_line = [(abar, x) + (0,) * (n - 2) for x in range(m)]
            for cell in [twist_cell, *phi_line, *itertools.product(range(m), repeat=n)]:
                v = int(table[cell])
                for bad in (m, 256 + v, -1, -256 + v, 2 ** 63 - 1):
                    changed = table.copy()
                    changed[cell] = bad
                    with pytest.raises(P.InvalidGroupError, match="indices"):
                        P.NaryGroup(n, m, table=changed)

    def test_bad_entry_in_a_later_block_raises(self, q8_6):
        table = q8_6.dense()
        changed = _add_one(table, [1000])   # in range, in block 0
        assert core._decompose(changed, 0)[1] is not None
        for bad in (8, -1, 256 + int(table.flat[-1])):
            with pytest.raises(P.InvalidGroupError, match="indices"):
                P.NaryGroup(6, 8, table=_with_last(changed, bad))

    def test_bad_entry_past_the_difference_limit_raises(self, q8_6):
        # block 1 changed whole, and without anchor 0's retract cells, so that
        # anchor 0 decomposes and D passes the limit before block 3 is read
        table, block = q8_6.dense(), core._COMPARE_CELLS
        retract = [np.ravel_multi_index((x, 0, 0, 0, 0, y), table.shape)
                   for x in range(8) for y in range(8)]
        whole = _add_one(table, np.arange(block, 2 * block))
        spared = _add_one(table, np.setdiff1d(np.arange(block, 2 * block), retract))
        assert core._decompose(whole, 0)[1] is None
        assert core._decompose(spared, 0)[1] is not None
        limit = core._SCAN_TUPLES // (2 * 6 * core._FIRST_ROWS)
        assert len(core._difference_set(table.shape, core._mismatches(spared, q8_6.hg),
                                        table.size)) > limit
        for changed in (whole, spared):
            for bad in (8, -1, 256 + int(table.flat[-1])):
                with pytest.raises(P.InvalidGroupError, match="indices"):
                    P.NaryGroup(6, 8, table=_with_last(changed, bad))

    def test_only_differing_blocks_are_range_checked(self, q8_6, monkeypatch):
        read, check = [], core._require_indices
        monkeypatch.setattr(core, "_require_indices",
                            lambda cells, m: read.append(cells.size) or check(cells, m))
        changed = _add_one(q8_6.dense(), [70000])
        assert core._decompose(changed, 0)[1] is not None
        assert P.NaryGroup(6, 8, table=changed).report.method == "scan"
        assert read == [core._COMPARE_CELLS]

    def test_failure_report_builds_no_prefix_table(self, q8_6):
        # x1 phi(x2) ... phi^4(x5) over all 8^5 tuples would be 256 KiB of int64
        changed = _add_one(q8_6.dense(), [70000])
        tracemalloc.start()
        try:
            report = P.NaryGroup(6, 8, table=changed).report
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.method == "scan" and peak < 8 * 8 ** 5

    def test_labels_length(self, t2):
        with pytest.raises(P.InvalidGroupError, match="label"):
            P.NaryGroup(3, 2, table=t2.dense(), labels=("a",))

    def test_dense_limit(self):
        with pytest.raises(P.SizeLimitError):
            P.NaryGroup(9, 8, table=np.zeros(1, dtype=int))
