"""Covering groups: structure, formulas, embedding, and module transfer."""

import dataclasses

import numpy as np
import pytest

import oracle
import polyadic as P
from polyadic.binary import commutator_subgroup, linear_characters


class TestCoveringGroup:
    def test_t2_cover_is_klein(self, t2):
        cov = P.covering_group(t2, 0)
        assert cov.group.order == 4
        klein = P.direct_product(P.cyclic_group(2), P.cyclic_group(2))
        assert P.find_isomorphism(cov.group, klein) is not None
        assert P.small_group_tag(cov.group) == "klein"
        ident = cov.group.identity
        for x in range(4):
            assert cov.group.mul(x, x) == ident

    def test_t2b_cover_is_cyclic_four(self, t2b):
        cov = P.covering_group(t2b, 0)
        assert P.small_group_tag(cov.group) == "Z4"
        assert cov.group.element_order(cov.pair_index(0, 0)) == 4

    def test_q4_cover_order_six_quotient_z3(self, q4):
        cov = P.covering_group(q4, 0)
        assert cov.group.order == 6
        h = P.cover_H(cov)
        assert len(h) == 2
        quot, _ = cov.group.quotient(h)
        assert quot.order == 3 and quot.is_cyclic

    def test_identity_pair(self, fixtures):
        for group in fixtures.values():
            for a in range(group.order):
                cov = P.covering_group(group, a)
                assert cov.pair_of(cov.group.identity) == (group.skew(a), group.arity - 2)

    def test_inverse_formula_exact_everywhere(self, fixtures):
        for name, group in fixtures.items():
            for a in range(group.order):
                cov = P.covering_group(group, a)
                assert np.array_equal(oracle.cover_inverse_formula(cov), cov.group.inverse), (name, a)

    def test_table_equals_eval_long_oracle(self, fixtures, hg_stock):
        for name, group in list(fixtures.items()) + hg_stock:
            for a in range(group.order):
                cov = P.covering_group(group, a)
                want = oracle.cover_table_by_eval_long(group, a)
                assert cov.group.table.tobytes() == want.tobytes(), (name, a)

    def test_no_eval_long_call(self, s3t, monkeypatch):
        # eval_long (now a test oracle) folds scalar eval calls: refusing eval
        # refuses every per-element fold
        def refuse(self, xs):
            raise AssertionError("covering_group called the scalar eval")

        monkeypatch.setattr(P.NaryGroup, "eval", refuse)
        assert P.covering_group(s3t, 1).group.order == 12

    def test_anchors_give_isomorphic_covers(self, fixtures):
        for name, group in fixtures.items():
            base = P.covering_group(group, 0).group
            for a in range(1, group.order):
                other = P.covering_group(group, a).group
                assert P.find_isomorphism(base, other) is not None, (name, a)


class TestCoverH:
    def test_h_is_retract_copy(self, fixtures):
        for name, group in fixtures.items():
            cov = P.covering_group(group, 0)
            h = P.cover_H(cov)   # raises unless normal, cyclic quotient, retract copy
            assert len(h) == group.order, name

    def test_derived_cover_contains_base(self, s3):
        cov = P.covering_group(P.derived(s3, 3), 0)
        h = P.cover_H(cov)
        h_group, _ = cov.group.subgroup_group(h)
        assert P.find_isomorphism(h_group, s3) is not None

    def test_slice_map_is_an_isomorphism(self, fixtures, hg_stock):
        # find_isomorphism as the oracle: H is a retract copy, and x -> <x, n-2> is a map that shows it
        for name, group in list(fixtures.items()) + hg_stock:
            for a in range(group.order):
                cov = P.covering_group(group, a)
                h = P.cover_H(cov)
                assert h == tuple(cov.pair_index(x, group.arity - 2) for x in range(group.order))
                h_group, pos = cov.group.subgroup_group(h)
                ret = P.retract(group, a)
                assert P.find_isomorphism(h_group, ret) is not None, (name, a)
                index = np.array([pos[v] for v in h])
                assert np.array_equal(h_group.table[np.ix_(index, index)], index[ret.table]), (name, a)

    def test_pair_index_check_equals_normality_and_cyclic_quotient(self, fixtures, hg_stock):
        # the parent's route: normal by the loops, then a cyclic quotient of order n-1
        for name, group in list(fixtures.items()) + hg_stock:
            for a in range(group.order):
                cov = P.covering_group(group, a)
                h = P.cover_H(cov)
                assert oracle.binary_subgroup_by_loops(cov.group, h) == (True, True), (name, a)
                table, _ = oracle.binary_quotient_by_loops(cov.group, h)
                quot = P.BinaryGroup(table)
                assert quot.order == cov.period and quot.is_cyclic, (name, a)

    def test_relabelled_cover_rejected(self, s3t):
        # the same group with <0,0> and <0,1> swapped: t+1 is no longer a homomorphism
        cov = P.covering_group(s3t, 0)
        perm = np.arange(cov.group.order)
        perm[[0, 1]] = perm[[1, 0]]
        table = np.empty_like(cov.group.table)
        table[np.ix_(perm, perm)] = perm[cov.group.table]
        relabelled = dataclasses.replace(cov, group=P.BinaryGroup(table))
        with pytest.raises(P.InvalidGroupError, match="homomorphism"):
            P.cover_H(relabelled)

    def test_wrong_anchor_rejected(self, s3t):
        # the anchor-1 retract is not the H of the anchor-0 cover under x -> <x, 1>
        cov = dataclasses.replace(P.covering_group(s3t, 0), anchor=1)
        with pytest.raises(P.InvalidGroupError, match="isomorphism"):
            P.cover_H(cov)

    def test_above_old_search_limit(self):
        # derived(D40, n=3), order 80: above find_isomorphism's order-64 cap
        group = P.derived(P.dihedral_group(40), 3)
        assert P.cover_H(P.covering_group(group, 0)) == tuple(range(1, 160, 2))

    def test_no_isomorphism_search(self, s3t, monkeypatch):
        monkeypatch.setattr(P.binary, "_isomorphism_search",
                            lambda *args: pytest.fail("isomorphism search"))
        assert len(P.cover_H(P.covering_group(s3t, 2))) == 6


def with_embedding(cov, emb):
    """A copy of ``cov`` whose embedding is ``emb`` instead of the <x,0> slice."""
    out = dataclasses.replace(cov)
    out.__dict__["embed"] = np.asarray(emb, dtype=np.int64)
    return out


class TestEmbedding:
    def test_exhaustive_on_fixtures(self, fixtures):
        for name, group in fixtures.items():
            m = group.order
            cov = P.covering_group(group, 0)
            report = P.verify_embedding(cov)
            assert report.passed and report.method == "certificate"
            assert report.checked == m * m + m + 1, name

    def test_certificate_equals_oracle_at_every_anchor(self, fixtures, hg_stock):
        for name, group in list(fixtures.items()) + hg_stock:
            for a in range(group.order):
                cov = P.covering_group(group, a)
                assert P.verify_embedding(cov).passed, (name, a)
                assert oracle.exhaustive_embedding_scan(cov).passed, (name, a)

    def test_certificate_equals_oracle_on_mutated_embeddings(self, fixtures, hg_stock):
        failing = 0
        for name, group in list(fixtures.items()) + hg_stock:
            cov = P.covering_group(group, 0)
            table = group.dense()
            for x in range(group.order):
                for z in range(cov.group.order):
                    if z == cov.embed[x]:
                        continue
                    emb = cov.embed.copy()
                    emb[x] = z
                    mutated = with_embedding(cov, emb)
                    report = P.verify_embedding(mutated)
                    assert report.passed == oracle.exhaustive_embedding_scan(mutated).passed, \
                        (name, x, z)
                    if report.passed:
                        continue
                    failing += 1
                    w = report.first().witness
                    prod = emb[w[0]]
                    for v in w[1:]:
                        prod = cov.group.mul(prod, emb[v])
                    assert prod != emb[table[w]], (name, x, z, w)
        assert failing > 0


class TestLiftFromCover:
    def test_trivial_character_always_lifts(self, fixtures):
        for group in fixtures.values():
            cov = P.covering_group(group, 0)
            n = cov.group.order
            gamma = P.BinaryRepresentation(cov.group, np.ones((n, 1, 1), dtype=complex))
            lifted = P.lift_module_from_cover(cov, gamma)
            assert lifted is not None
            assert np.abs(lifted.images - 1).max() < 1e-12

    def test_klein_character_kernels(self, t2):
        cov = P.covering_group(t2, 0)
        ident = cov.group.identity
        inside = set(int(v) for v in cov.embed)
        accepted = rejected = 0
        for row in P.abelian_characters(cov.group):
            gamma = P.BinaryRepresentation(cov.group, row.reshape(-1, 1, 1))
            kernel_idx = {x for x in range(4) if abs(row[x] - 1) < 1e-9}
            lifted = P.lift_module_from_cover(cov, gamma)
            if kernel_idx & inside:
                assert lifted is not None
                accepted += 1
            else:
                assert lifted is None
                rejected += 1
                # the rejected one is the character whose kernel is {identity, <1,1>}
                assert kernel_idx == {ident, cov.pair_index(1, 1)}
        assert accepted == 3 and rejected == 1

    def test_unverified_gamma_rejected(self, t2):
        cov = P.covering_group(t2, 0)
        bad = np.ones((4, 1, 1), dtype=complex)
        bad[0] = 2.0
        # a BinaryRepresentation verifies on construction, so gamma never reaches the lift
        with pytest.raises(P.InvalidGroupError, match="not a representation"):
            P.lift_module_from_cover(cov, P.BinaryRepresentation(cov.group, bad))

    def test_bijection_with_direct_search_on_abelian_covers(self, t2, t2b, q4):
        for group in (t2, t2b, q4):
            cov = P.covering_group(group, 0)
            lifted = []
            for row in P.abelian_characters(cov.group):
                gamma = P.BinaryRepresentation(cov.group, row.reshape(-1, 1, 1))
                rep = P.lift_module_from_cover(cov, gamma)
                if rep is not None:
                    lifted.append(rep)
            assert P.value_vector_set(lifted) == P.value_vector_set(
                P.one_dim_reps_bruteforce(group)
            )


class TestSubsetOperationsAgainstLoops:
    """Covers and retracts of the fixtures and the stock against the per-element loops."""

    @staticmethod
    def _groups(fixtures, hg_stock):
        for name, group in list(fixtures.items()) + hg_stock:
            for a in range(group.order):
                yield (name, "cover", a), P.covering_group(group, a).group
                yield (name, "retract", a), P.retract(group, a)

    def test_generators_orders_and_quotients(self, fixtures, hg_stock):
        for key, group in self._groups(fixtures, hg_stock):
            assert group.generating_set() == oracle.generating_set_by_frontier(group), key
            assert group.element_orders == tuple(
                oracle.element_order_by_loop(group, x) for x in range(group.order)), key
            derived = commutator_subgroup(group)
            assert derived == oracle.closure_by_frontier(group, oracle.commutators_by_loops(group))
            quot, index = group.quotient(derived)
            table, want = oracle.binary_quotient_by_loops(group, derived)
            assert index.tolist() == want and np.array_equal(quot.table, table), key

    def test_characters(self, fixtures, hg_stock):
        for key, group in self._groups(fixtures, hg_stock):
            quot, _ = group.quotient(commutator_subgroup(group))
            got = P.abelian_characters(quot)
            want = oracle.abelian_characters_by_propagation(quot)
            assert got.shape == want.shape, key
            # the rows agree as sets; the order may differ where the loop's products
            # carried a -0 imaginary part into the sort key
            def canonical(chars):
                keys = [str(row) for row in (np.round(chars, 6) + 0).tolist()]
                return chars[sorted(range(len(keys)), key=keys.__getitem__)]
            assert np.abs(canonical(got) - canonical(want)).max() < 1e-9, key


class TestDerivedGroupsBuiltUnchecked:
    """Retracts (Dörnte), covers (Post) and their quotients are built with ``check=False``."""

    def test_the_table_check_passes_on_every_one(self, fixtures, hg_stock):
        for name, group in list(fixtures.items()) + hg_stock:
            for a in range(group.order):
                assert P.verify_binary_table(P.retract(group, a).table).passed, (name, a)
                cov = P.covering_group(group, a)
                assert P.verify_binary_table(cov.group.table).passed, (name, a)
                for normal in (P.cover_H(cov), commutator_subgroup(cov.group), cov.group.center):
                    quot, _ = cov.group.quotient(normal)
                    assert P.verify_binary_table(quot.table).passed, (name, a, normal)

    def test_no_table_check_once_the_group_is_verified(self, fixtures, hg_stock, monkeypatch):
        import polyadic.binary
        groups = list(fixtures.values()) + [group for _, group in hg_stock]
        for group in groups:
            group.require_verified()
        calls = []
        real = P.verify_binary_table
        monkeypatch.setattr(polyadic.binary, "verify_binary_table",
                            lambda table: calls.append(table.shape) or real(table))
        for group in groups:
            a = group.order - 1
            P.retract(group, a)
            P.hg_decompose(group, a)
            cov = P.covering_group(group, a)
            P.one_dim_reps(group)
            linear_characters(cov.group)
        assert calls == []
