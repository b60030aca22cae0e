"""Retracts, the inverse formula, and the decomposition round-trip."""

import itertools

import numpy as np
import pytest

import oracle
import polyadic as P


class TestRetract:
    def test_z4m_at_zero_is_plain_addition(self, z4m):
        ret = P.retract(z4m, 0)
        idx = np.arange(4)
        assert np.array_equal(ret.table, (idx[:, None] + idx[None, :]) % 4)
        assert ret.identity == 0

    def test_t2b_at_zero(self, t2b):
        ret = P.retract(t2b, 0)
        assert ret.identity == 1 == t2b.skew(0)
        assert ret.mul(0, 0) == 1   # x*y = x+y+1

    def test_s3t_retracts_all_isomorphic_to_s3(self, s3, s3t):
        for a in range(6):
            assert P.find_isomorphism(P.retract(s3t, a), s3) is not None

    def test_inverse_formula_never_disagrees(self, fixtures):
        # retract() raises if the closed-form inverse differs from the table
        for group in fixtures.values():
            for a in range(group.order):
                P.retract(group, a)

    def test_unverified_input_rejected(self):
        broken = P.NaryGroup(3, 2, table=np.zeros((2, 2, 2), dtype=int))
        with pytest.raises(P.InvalidGroupError):
            P.retract(broken, 0)

    def test_inverse_formula_equals_loop(self, fixtures, hg_stock):
        for name, group in list(fixtures.items()) + hg_stock:
            for a in range(group.order):
                want = oracle.retract_inverse_by_eval(group, a)
                assert P.retract(group, a).inverse.tolist() == want, (name, a)

    def test_above_dense_limit(self, monkeypatch):
        # derived(Z4^3, n=6) has 2^36 cells; retract and decomposition read m^2 rows
        z4 = P.cyclic_group(4)
        base = P.direct_product(z4, P.direct_product(z4, z4))
        group = P.derived(base, 6)
        monkeypatch.setattr(P.NaryGroup, "dense", lambda self: pytest.fail("dense() called"))
        assert P.retract(group, 0) == base
        data = P.hg_decompose(group, 0)
        assert data.group == base and data.b == base.identity
        assert np.array_equal(data.phi, np.arange(64))


class TestRetractIsomorphism:
    def test_same_anchor_is_automorphism(self, z4m):
        h = P.retract_isomorphism(z4m, 0, 0)
        assert sorted(h.tolist()) == list(range(4))

    def test_z4m_across_anchors(self, z4m):
        h = P.retract_isomorphism(z4m, 0, 1)
        r0, r1 = P.retract(z4m, 0), P.retract(z4m, 1)
        for x, y in itertools.product(range(4), repeat=2):
            assert h[r0.mul(x, y)] == r1.mul(h[x], h[y])

    def test_all_fixture_anchor_pairs(self, fixtures):
        for group in fixtures.values():
            for e, p in itertools.product(range(group.order), repeat=2):
                P.retract_isomorphism(group, e, p)

    def test_map_equals_loop(self, fixtures, hg_stock):
        for name, group in list(fixtures.items()) + hg_stock:
            for e, p in itertools.product(range(group.order), repeat=2):
                want = oracle.retract_map_by_eval(group, e, p)
                assert P.retract_isomorphism(group, e, p).tolist() == want, (name, e, p)


class TestDecomposition:
    def test_round_trip_every_fixture_and_anchor(self, fixtures):
        for name, group in fixtures.items():
            for a in range(group.order):
                data = P.hg_decompose(group, a)
                assert P.hg_construct(data).equals(group), (name, a)

    def test_phi_line_equals_loop(self, fixtures, hg_stock):
        for name, group in list(fixtures.items()) + hg_stock:
            for a in range(group.order):
                data = P.hg_decompose(group, a)
                assert data.phi.tolist() == oracle.phi_line_by_eval(group, a), (name, a)

    def test_derived_at_identity_gives_trivial_data(self, s3, s3t):
        data = P.hg_decompose(s3t, 0)
        assert np.array_equal(data.phi, np.arange(6))
        assert data.b == data.group.identity

    def test_identity_exists_iff_trivial_decomposition(self, fixtures):
        for name, group in fixtures.items():
            e = oracle.has_nary_identity(group)
            trivial_at = []
            for a in range(group.order):
                data = P.hg_decompose(group, a)
                if np.array_equal(data.phi, np.arange(group.order)) and data.b == data.group.identity:
                    trivial_at.append(a)
            if e is None:
                assert not trivial_at, name
            else:
                assert e in trivial_at, name

    def test_t2b_reconstruction(self, t2b):
        data = P.hg_decompose(t2b, 0)
        assert P.hg_construct(data).equals(t2b)

    def test_construct_explicit_forms(self, t2b, z4m):
        z2 = P.cyclic_group(2)
        assert P.hg_construct(P.HGData(z2, np.arange(2), 1, 3)).equals(t2b)
        z4 = P.cyclic_group(4)
        inversion = np.array([0, 3, 2, 1])
        assert P.hg_construct(P.HGData(z4, inversion, 0, 3)).equals(z4m)

    def test_derived_constructors(self, t2, q4):
        assert P.derived(P.cyclic_group(2), 3).equals(t2)
        assert P.b_derived(P.cyclic_group(2), 1, 4).equals(q4)

    def test_stock_decomposes_at_every_anchor(self, hg_stock):
        for name, group in hg_stock[:6]:
            for a in range(group.order):
                data = P.hg_decompose(group, a)
                assert P.hg_construct(data).equals(group), (name, a)

    def test_rebuild_oracle_every_anchor(self, fixtures, hg_stock):
        # hg_decompose does not re-check the product formula; this is that check
        for name, group in list(fixtures.items()) + hg_stock:
            for a in range(group.order):
                rebuilt = P.hg_construct(P.hg_decompose(group, a))
                assert np.array_equal(rebuilt.dense(), group.dense()), (name, a)
