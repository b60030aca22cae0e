"""Actions, orbits/conjugacy classes, stabilizers/centralizers."""

import itertools

import numpy as np
import pytest

import oracle
import polyadic as P
from conftest import A3, TRANSPOSITIONS, derived_corpus


def brute_orbits(act):
    """Independent orbit oracle: repeated closure of reachability sets."""
    reach = {a: {a} for a in range(act.npoints)}
    changed = True
    while changed:
        changed = False
        for a in range(act.npoints):
            new = {int(act.table[x, b]) for b in reach[a] for x in range(act.group.order)}
            if not new <= reach[a]:
                reach[a] |= new
                changed = True
    blocks = {tuple(sorted(v)) for v in reach.values()}
    return tuple(sorted(blocks))


def mutants(table):
    """The table, then every bijective mutation: two entries of one row swapped,
    or one row copied over another."""
    m = len(table)
    out = [table]
    for x in range(m):
        for p, q in itertools.combinations(range(table.shape[1]), 2):
            t = table.copy()
            t[x, [p, q]] = t[x, [q, p]]
            out.append(t)
        for y in range(m):
            if y != x:
                t = table.copy()
                t[x] = table[y]
                out.append(t)
    return out


class TestCanonicalAction:
    def test_s3t_is_conjugation(self, s3, s3t):
        act = P.canonical_action(s3t)
        for x, a in itertools.product(range(6), repeat=2):
            assert act.apply(x, a) == s3.mul(s3.mul(x, a), s3.inv(x))

    def test_t2b_trivial(self, t2b):
        act = P.canonical_action(t2b)
        assert np.array_equal(act.table, np.tile(np.arange(2), (2, 1)))

    def test_z4m_reflection_form(self, z4m):
        act = P.canonical_action(z4m)
        for x, a in itertools.product(range(4), repeat=2):
            assert act.apply(x, a) == (2 * x - a) % 4

    def test_axioms_pass_on_all_fixtures(self, fixtures):
        for name, group in fixtures.items():
            report = P.verify_action(P.canonical_action(group))
            assert report.passed, name
            assert report.method == "certificate", name

    def test_equals_eval_oracle(self, fixtures, hg_stock):
        for name, group in list(fixtures.items()) + hg_stock:
            want = oracle.canonical_action_by_eval(group)
            assert np.array_equal(P.canonical_action(group).table, want), name


class TestVerifyAction:
    def test_constant_map_fails_bijectivity(self, t2):
        act = P.Action(t2, 2, np.zeros((2, 2), dtype=int))
        report = P.verify_action(act)
        assert not report.passed
        assert any(f.axiom.startswith("action-bijectivity") for f in report.failures)

    def test_fixed_point_axiom(self, t2):
        # every element acts as the swap: no point is ever fixed
        act = P.Action(t2, 2, np.array([[1, 0], [1, 0]]))
        report = P.verify_action(act)
        assert any(f.axiom == "action-fixed-point" for f in report.failures)

    def test_composition_axiom(self, t2):
        # both elements act as the same 3-cycle: the triple fold collapses to
        # the identity map while the image of f keeps cycling
        act = P.Action(t2, 3, np.array([[1, 2, 0], [1, 2, 0]]))
        report = P.verify_action(act)
        assert any(f.axiom == "action-composition" for f in report.failures)
        assert report.method == "certificate"
        assert report.checked == (2 * 2 + 2 + 1) * 3
        witness = [f.witness for f in report.failures if f.axiom == "action-composition"][0]
        assert oracle.composition_breaks(act, witness)

    def test_certificate_counts(self, s3t):
        report = P.verify_action(P.canonical_action(s3t))
        assert report.passed and not report.sampled
        assert report.checked == (36 + 6 + 1) * 6

    def test_certificate_equals_scan_on_mutations(self, fixtures, hg_stock):
        # canonical actions, then every bijective mutation of each: two entries
        # of one row swapped, or one row copied over another
        agreed = passing = 0
        for name, group in list(fixtures.items()) + hg_stock:
            for t in mutants(P.canonical_action(group).table):
                act = P.Action(group, group.order, t)
                report, scan = P.verify_action(act), oracle.exhaustive_action_scan(act)
                assert report.passed == scan.passed, name
                axioms = [f.axiom for f in report.failures]
                assert axioms == [f.axiom for f in scan.failures], name
                for f in report.failures:
                    if f.axiom == "action-composition":
                        assert oracle.composition_breaks(act, f.witness), (name, f)
                agreed += 1
                passing += report.passed
        assert agreed > 1000 and 0 < passing < agreed

    def test_order_64_is_certificate(self):
        # derived(D4 x Q8, n=3): m^n * npoints = 2^24 tuples, above the old scan budget
        base = P.direct_product(P.dihedral_group(4), P.quaternion_group())
        report = P.verify_action(P.canonical_action(P.derived(base, 3)))
        assert report.passed and report.method == "certificate"
        assert report.checked == (64 * 64 + 64 + 1) * 64

    def test_budget_environment_ignored(self, s3t, monkeypatch):
        act = P.canonical_action(s3t)
        bad = P.Action(s3t, 6, np.tile(act.table[1], (6, 1)))
        want = [P.verify_action(act), P.verify_action(bad)]
        monkeypatch.setenv("POLYAD_BUDGET", "1")
        assert [P.verify_action(act), P.verify_action(bad)] == want


class TestOrbits:
    def test_s3t_class_sizes(self, s3t):
        part = P.conjugacy_classes(s3t)
        assert part.blocks == ((0,), TRANSPOSITIONS, (3, 4))
        assert sorted(part.sizes()) == [1, 2, 3]

    def test_t2b_singletons(self, t2b):
        assert P.conjugacy_classes(t2b).blocks == ((0,), (1,))

    def test_z4m_two_classes(self, z4m):
        # canonical action x.a = 2x - a pairs each a with 2 - a
        assert P.conjugacy_classes(z4m).blocks == ((0, 2), (1, 3))

    def test_matches_brute_force_oracle(self, fixtures):
        for name, group in fixtures.items():
            act = P.canonical_action(group)
            assert P.orbits(act).blocks == brute_orbits(act), name

    def test_label_propagation_equals_union_find(self, fixtures, hg_stock):
        split = 0
        for name, group in list(fixtures.items()) + hg_stock:
            for t in mutants(P.canonical_action(group).table):
                act = P.Action(group, group.order, t)
                blocks = P.orbits(act).blocks
                assert blocks == oracle.orbits_by_union_find(act) == brute_orbits(act), name
                split += len(blocks) > 1
        assert split > 100

    def test_non_bijective_actions_equal_union_find(self, fixtures):
        # components of the graph a -- x.a; the reachability oracle needs bijections
        rng = np.random.default_rng(7)
        for name, group in fixtures.items():
            for npoints in (1, 3, 9):
                for _ in range(20):
                    t = rng.integers(0, npoints, size=(group.order, npoints))
                    t[:, rng.integers(npoints)] = rng.integers(npoints)   # one column constant
                    act = P.Action(group, npoints, t)
                    assert P.orbits(act).blocks == oracle.orbits_by_union_find(act), (name, t)

    def test_blocks_partition(self, fixtures):
        for group in fixtures.values():
            part = P.conjugacy_classes(group)
            flat = sorted(x for blk in part.blocks for x in blk)
            assert flat == list(range(group.order))

    def test_orbits_invariant_under_every_element(self, fixtures):
        for group in fixtures.values():
            act = P.canonical_action(group)
            part = P.orbits(act)
            for blk in part.blocks:
                for x in range(group.order):
                    assert tuple(sorted(int(act.table[x, a]) for a in blk)) == blk


class TestStabilizers:
    def test_s3t_transposition(self, s3t):
        act = P.canonical_action(s3t)
        assert P.stabilizer(act, 1) == (0, 1)

    def test_identity_fixed_by_all(self, s3t):
        act = P.canonical_action(s3t)
        assert P.stabilizer(act, 0) == tuple(range(6))

    def test_trivial_action_whole_group(self, t2b):
        act = P.canonical_action(t2b)
        for a in range(2):
            assert P.stabilizer(act, a) == (0, 1)

    def test_stabilizers_are_subgroups_everywhere(self, fixtures):
        for group in fixtures.values():
            act = P.canonical_action(group)
            for a in range(group.order):
                sub = P.stabilizer(act, a)
                assert P.verify_subgroup(group, sub).passed


class TestCentralizer:
    def test_s3t_three_cycle(self, s3t):
        assert P.centralizer(s3t, 3) == A3

    def test_z4m(self, z4m):
        assert P.centralizer(z4m, 0) == (0, 2)
        assert P.centralizer(z4m, 1) == (1, 3)

    def test_shifted_identities_hold(self, fixtures, hg_stock_60):
        # Post's embedding makes them hold on the stabilizer, so centralizer() does not check them
        for name, group in list(fixtures.items()) + hg_stock_60 + derived_corpus():
            for a in range(group.order):
                assert oracle.shifted_identity_failure(group, a, P.centralizer(group, a)) is None, \
                    (name, a)

    def test_large_arity_evaluates_the_action_and_the_subgroup_check_only(self, monkeypatch):
        # Regression: the shifted-identity scan evaluated about n^2 |C| n-folds, so
        # `polyadic centralizer` took seconds on derived(S3, 700)
        group = P.derived(P.symmetric_group_3(), 700)
        group.skew_table()
        evaluated, call = [], P.NaryGroup.__call__

        def counting(self, *xs):
            out = call(self, *xs)
            evaluated.append(np.size(out))
            return out

        monkeypatch.setattr(P.NaryGroup, "__call__", counting)
        elems = P.centralizer(group, 1)
        assert elems == (0, 1)
        # the m^2 cells of the canonical action, then |C|^2 + |C| for the subgroup check
        m, c = group.order, len(elems)
        assert sum(evaluated) <= m * m + c * c + c

    def test_large_subgroups_at_arity_six(self):
        # Regression: verify_subgroup evaluated |C|^6 tuples, so a = 0 (|C| = 64) raised
        # SizeLimitError; for a derived group the centralizer is the base's
        base = P.direct_product(P.dihedral_group(8), P.cyclic_group(4))
        group = P.derived(base, 6)
        for a in (0, 32):
            want = tuple(np.flatnonzero(base.table[a] == base.table[:, a]).tolist())
            assert P.centralizer(group, a) == want
        assert len(P.centralizer(group, 0)) == 64

    def test_shifted_identity_check_equals_loop(self, fixtures, hg_stock):
        # on the whole carrier most elements fail, so the first failure is compared too
        for name, group in list(fixtures.items()) + hg_stock:
            for a in range(group.order):
                assert oracle.shifted_identity_failure_by_eval(group, a, P.centralizer(group, a)) is None
                everything = range(group.order)
                assert oracle.shifted_identity_failure(group, a, everything) == \
                    oracle.shifted_identity_failure_by_eval(group, a, everything), (name, a)


class TestCongruence:
    def test_semiabelian_fixtures_are_congruences(self, fixtures):
        for name, group in fixtures.items():
            if P.is_semiabelian(group):
                assert P.is_conjugation_congruence(group), name

    def test_s3t_not_a_congruence(self, s3t):
        assert not P.is_conjugation_congruence(s3t)

    def test_equals_the_dict_loop(self, fixtures, hg_stock):
        for name, group in list(fixtures.items()) + hg_stock:
            assert P.is_conjugation_congruence(group) == \
                oracle.conjugation_congruence_by_dict(group), name


class TestConjugateClosure:
    def test_z4m(self, z4m):
        assert P.conjugate_subgroup_closure(z4m, (0, 2)) == (0, 2)
        # {0} is a subgroup; its class is {0,2}, itself a subgroup
        assert P.conjugate_subgroup_closure(z4m, (0,)) == (0, 2)

    def test_output_is_subgroup(self, fixtures):
        for group in fixtures.values():
            if not P.is_semiabelian(group):
                continue
            for sub in P.subgroups(group):
                closure = P.conjugate_subgroup_closure(group, sub)
                assert P.verify_subgroup(group, closure).passed

    def test_non_semiabelian_rejected(self, s3t):
        with pytest.raises(P.InvalidGroupError, match="semiabelian"):
            P.conjugate_subgroup_closure(s3t, A3)
