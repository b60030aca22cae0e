"""Subgroups, cosets, quotients and the simplicity classification."""

import pytest

import polyadic as P
from conftest import (A3, TRANSPOSITIONS, binary_catalog, d8_z4, derived_corpus,
                      large_corpus, z2_4_ternary)
from oracle import (closed_by_grid, cosets_by_loops, first_skew_outside, has_nary_identity,
                    is_normal_by_eval, normal_subgroups_by_blocks, normal_subgroups_by_enumeration,
                    powerset_subgroups, scan_verdict, subgroups_by_closure)


class TestSubgroups:
    def test_s3t_has_ten(self, s3t):
        subs = P.subgroups(s3t)
        assert len(subs) == 10
        assert (0,) in subs and (1,) in subs and (2,) in subs and (5,) in subs
        assert (0, 1) in subs and (0, 2) in subs and (0, 5) in subs
        assert A3 in subs and TRANSPOSITIONS in subs
        assert tuple(range(6)) in subs

    def test_t2_has_three(self, t2):
        assert P.subgroups(t2) == [(0,), (0, 1), (1,)]

    def test_z4m_exact_list(self, z4m):
        assert P.subgroups(z4m) == [
            (0,), (0, 1, 2, 3), (0, 2), (1,), (1, 3), (2,), (3,)
        ]

    def test_verify_subgroup_witnesses(self, s3t):
        report = P.verify_subgroup(s3t, (0, 3))   # not closed: (123)(123) misses
        assert not report.passed
        assert report.first().axiom == "subgroup-closure"
        assert not P.verify_subgroup(s3t, ()).passed

    def test_skew_witness_equals_the_loop(self, fixtures, hg_stock):
        for name, group in list(fixtures.items()) + hg_stock:
            m = group.order
            for mask in range(1, 1 << m):
                elems = [e for e in range(m) if mask >> e & 1]
                report = P.verify_subgroup(group, elems)
                got = [f.witness for f in report.failures if f.axiom == "subgroup-skew"]
                want = first_skew_outside(group, elems)
                assert got == ([] if want is None else [(want,)]), (name, elems)

    def test_closure_verdict_equals_the_grid(self, fixtures, hg_stock):
        # the retract criterion decides closure with |H|^2 + |H| values
        count = 0
        for name, group in list(fixtures.items()) + hg_stock:
            m, n = group.order, group.arity
            if m ** n > 5000:
                continue
            for mask in range(1, 1 << m):
                elems = [e for e in range(m) if mask >> e & 1]
                got = [f.witness for f in P.verify_subgroup(group, elems).failures
                       if f.axiom == "subgroup-closure"]
                assert (not got) == closed_by_grid(group, elems), (name, elems)
                for witness in got:
                    assert set(witness) <= set(elems), (name, elems)
                    assert group.eval(witness) not in elems, (name, elems)
                count += 1
        assert count > 1000

    def test_closure_driven_search_matches_powerset(self, s3t):
        from polyadic.structure import subgroup_closure
        found = {subgroup_closure(s3t, (x,)) for x in range(6)}
        found |= {subgroup_closure(s3t, pair) for pair in
                  [(x, y) for x in range(6) for y in range(x + 1, 6)]}
        assert sorted(found) == P.subgroups(s3t)

    def test_matches_powerset_oracle(self, fixtures, hg_stock):
        groups = list(fixtures.items()) + list(hg_stock)
        for name, group in groups:
            assert P.subgroups(group) == powerset_subgroups(group), name

    def test_complete_above_order_twelve(self):
        # Regression: above order 12 only subgroups generated by at most two
        # elements used to be listed, 136 of these 307.
        group = z2_4_ternary()
        subs = P.subgroups(group)
        sizes = [len(h) for h in subs]
        assert len(subs) == 307
        assert sizes.count(4) == 140 and sizes.count(8) == 30
        assert tuple(range(16)) in subs
        assert all(P.is_subgroup(group, h) for h in subs)


class TestSubgroupsFromDecomposition:
    """The batched set-product lattice against the table-closure search it replaced."""

    def test_equals_the_closure_search(self, fixtures, hg_stock_60):
        for name, group in list(fixtures.items()) + hg_stock_60 + derived_corpus():
            assert P.subgroups(group) == subgroups_by_closure(group), name

    def test_large_arity_reads_no_table(self, monkeypatch):
        # Regression: derived(S3, 70) has 6^70 cells, and the search read them all
        group = P.derived(P.symmetric_group_3(), 70)

        def refuse(self):
            raise AssertionError("dense table read")

        monkeypatch.setattr(P.NaryGroup, "dense", refuse)
        assert P.subgroups(group) == powerset_subgroups(group)


class TestNormality:
    def test_s3t(self, s3t):
        assert P.is_normal(s3t, A3)
        assert P.is_normal(s3t, TRANSPOSITIONS)
        assert not P.is_normal(s3t, (1,))
        assert not P.is_normal(s3t, (0, 1))

    def test_matches_eval_loop(self, fixtures, hg_stock):
        for name, group in list(fixtures.items()) + hg_stock:
            for h in P.subgroups(group):
                assert P.is_normal(group, h) == is_normal_by_eval(group, h), (name, h)

    def test_z4m(self, z4m):
        assert P.is_normal(z4m, (0, 2))
        assert P.is_normal(z4m, (1, 3))
        assert not P.is_normal(z4m, (0,))

    def test_requires_subgroup(self, s3t):
        with pytest.raises(P.InvalidGroupError):
            P.is_normal(s3t, (0, 3))


class TestNormalSubgroups:
    """``normal_subgroups`` from (G, phi, b) against the subgroups-then-filter route."""

    @staticmethod
    def agree(groups):
        for name, group in groups:
            assert P.normal_subgroups(group) == normal_subgroups_by_enumeration(group), name

    def test_fixtures_and_stock(self, fixtures, hg_stock_60):
        self.agree(list(fixtures.items()) + hg_stock_60)

    def test_catalog_derived(self):
        self.agree([(f"{name}/n={n}", P.derived(base, n))
                    for name, base in binary_catalog().items() for n in (3, 4, 7)])
        self.agree([("Z2^4/n=3", z2_4_ternary())])

    def test_groups_read_from_dense_tables(self, hg_stock):
        # the decomposition is then anchor 0's, whose base identity is skew(0)
        self.agree([(name, P.NaryGroup(g.arity, g.order, table=g.dense())) for name, g in hg_stock])

    def test_equals_the_all_place_route(self, fixtures, hg_stock_60):
        # the two-place test in one mask gather, against one subgroup of G at a time, all n places
        for name, group in list(fixtures.items()) + hg_stock_60 + derived_corpus() + large_corpus():
            assert P.normal_subgroups(group) == normal_subgroups_by_blocks(group), name

    def test_trivial_group(self):
        group = P.derived(P.cyclic_group(1), 3)
        assert P.normal_subgroups(group) == [(0,)]
        assert P.classify_simplicity(group).central_singleton == 0


class TestCosets:
    def test_equal_the_loop(self, fixtures, hg_stock):
        for name, group in list(fixtures.items()) + hg_stock:
            for sub in P.subgroups(group):
                part = P.cosets(group, sub)
                assert part.blocks == cosets_by_loops(group, sub), (name, sub)
                for i, blk in enumerate(part.blocks):
                    assert all(part.block_of(x) == i for x in blk)

    def test_s3t_mod_a3(self, s3t):
        part = P.cosets(s3t, A3)
        assert part.blocks == (A3, TRANSPOSITIONS)

    def test_z4m_mod_02(self, z4m):
        part = P.cosets(z4m, (0, 2))
        assert part.blocks == ((0, 2), (1, 3))

    def test_block_sizes_for_every_subgroup(self, fixtures):
        for group in fixtures.values():
            for sub in P.subgroups(group):
                part = P.cosets(group, sub)
                assert all(len(b) == len(sub) for b in part.blocks)
                assert sum(len(b) for b in part.blocks) == group.order

    def test_long_form_agrees(self, s3t):
        # aH via all (n-1)-tuples from H equals the two-variable form
        import itertools
        for sub in P.subgroups(s3t):
            part = P.cosets(s3t, sub)
            for a in range(6):
                block = {s3t.eval((a,) + rest)
                         for rest in itertools.product(sub, repeat=2)}
                assert tuple(sorted(block)) == part.blocks[part.block_of(a)]


class TestQuotient:
    def test_s3t_mod_a3(self, s3t):
        quot = P.quotient(s3t, A3)
        assert quot.group.order == 2
        assert quot.identity_block == 0
        assert has_nary_identity(quot.group) == 0
        assert quot.retract_group().order == 2

    def test_z4m_mod_02_reducible(self, z4m):
        quot = P.quotient(z4m, (0, 2))
        assert quot.group.order == 2
        assert has_nary_identity(quot.group) is not None

    def test_non_normal_rejected(self, s3t):
        with pytest.raises(P.InvalidGroupError, match="normal"):
            P.quotient(s3t, (0, 1))

    def test_subgroup_verified_once(self, s3t, z4m, verify_subgroup_calls):
        P.quotient(s3t, A3)
        P.quotient(z4m, (0, 2))
        assert verify_subgroup_calls == [A3, (0, 2)]

    def test_quotients_verify(self, fixtures, hg_stock):
        # quotient() no longer verifies its table: every quotient by a normal
        # subgroup must pass the certificate and the independent scan
        count = 0
        for name, group in list(fixtures.items()) + hg_stock:
            for sub in P.subgroups(group):
                if P.is_normal(group, sub):
                    quot = P.quotient(group, sub)
                    assert P.verify_nary_group(quot.group).passed, (name, sub)
                    assert scan_verdict(quot.group), (name, sub)
                    count += 1
        assert count > 40

    def test_ill_defined_blockwise_operation_rejected(self, s3t, monkeypatch):
        # the cosets of a transposition partition S3T, but the blockwise
        # operation is not well-defined; with normality forced, only the
        # check over every tuple stands between it and a quotient table
        import polyadic.structure
        monkeypatch.setattr(polyadic.structure, "_is_normal", lambda group, sub: True)
        with pytest.raises(P.InvalidGroupError, match="not well-defined"):
            P.quotient(s3t, (0, 1))

    def test_quotient_table_not_reverified(self, s3t, z4m, monkeypatch):
        import polyadic.core
        s3t.require_verified()
        z4m.require_verified()

        def refuse(table):
            raise AssertionError("a table was verified")

        monkeypatch.setattr(polyadic.core, "_certify_dense", refuse)
        assert P.quotient(s3t, A3).group.order == 2
        assert P.quotient(z4m, (0, 2)).group.order == 2

    def test_refused_above_the_dense_limit_before_the_cosets(self, monkeypatch):
        # derived(D8 x Z4, n = 6) has 2^36 cells; its 16^6-cell quotient table was built, then refused
        import polyadic.structure
        group = P.derived(P.direct_product(P.dihedral_group(8), P.cyclic_group(4)), 6)
        monkeypatch.setattr(polyadic.structure, "_cosets", lambda *args: pytest.fail("cosets built"))
        with pytest.raises(P.SizeLimitError):
            P.quotient(group, (0, 1, 2, 3))


class TestCentral:
    def test_central_elements(self, fixtures, s3t):
        assert P.central_elements(fixtures["T2"]) == (0, 1)
        assert P.central_elements(fixtures["T2b"]) == (0, 1)
        assert P.central_elements(fixtures["Z4M"]) == ()
        assert P.central_elements(s3t) == (0,)


class TestClassify:
    def test_s3t(self, s3t):
        result = P.classify_simplicity(s3t)
        assert result.case == "has-proper-normal"
        assert set(result.proper_normal) == {A3, TRANSPOSITIONS}

    def test_t2_central_singleton_branch(self, t2):
        result = P.classify_simplicity(t2)
        assert result.case == "b-derived-abelian"
        assert result.central_singleton == 0
        assert result.carrier_abelian is True
        assert P.is_central(t2, result.central_singleton)

    def test_z4m(self, z4m):
        result = P.classify_simplicity(z4m)
        assert result.case == "has-proper-normal"
        assert set(result.proper_normal) == {(0, 2), (1, 3)}

    def test_strongly_simple_candidate(self):
        # (Z3, x-y+z): singletons are subgroups but none is normal, and no
        # two-element subset is closed, so only G itself is normal.
        group = P.NaryGroup.from_function(3, 3, lambda x, y, z: (x - y + z) % 3)
        result = P.classify_simplicity(group)
        assert result.case == "strongly-simple-candidate"
        assert result.normal_subgroups == ((0, 1, 2),)

    def test_central_singleton_is_central(self, fixtures, hg_stock_60):
        # the singleton branch no longer tests centrality: it holds by theorem
        count = 0
        for name, group in list(fixtures.items()) + hg_stock_60:
            p = P.classify_simplicity(group).central_singleton
            if p is not None:
                assert P.is_central(group, p), name
                count += 1
        assert count > 5

    def test_above_order_24(self):
        # Regression: classify enumerated every subgroup and refused above order 24
        for group, count in [(P.derived(d8_z4(), 6), 37),
                             (P.derived(d8_z4(P.cyclic_group(2)), 3), 707)]:
            result = P.classify_simplicity(group)
            assert result.case == "has-proper-normal"
            assert len(result.normal_subgroups) == count
            assert tuple(range(group.order)) in result.normal_subgroups
            assert all(P.is_normal(group, h) for h in result.normal_subgroups)

    def test_large_arity(self):
        # Regression: derived(Z2, 70) has 2^70 cells; the centrality test read them all
        result = P.classify_simplicity(P.derived(P.cyclic_group(2), 70))
        assert result.case == "b-derived-abelian"
        assert result.normal_subgroups == ((0,), (0, 1))
        assert result.central_singleton == 0 and result.twist == 0

    def test_no_subgroup_reverified(self, fixtures, verify_subgroup_calls):
        for group in fixtures.values():
            P.classify_simplicity(group)
        assert verify_subgroup_calls == []

    def test_derived_nonabelian_has_proper_normal(self):
        group = P.derived(P.quaternion_group(), 3)
        result = P.classify_simplicity(group)
        assert result.case == "has-proper-normal"
