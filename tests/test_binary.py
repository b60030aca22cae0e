"""Ordinary-group machinery: verification, automorphisms, isomorphisms, characters."""

import numpy as np
import pytest

import oracle
import polyadic as P
import polyadic.binary
from polyadic.binary import commutator_subgroup, coset_partition, linear_characters, perm_power
from conftest import binary_catalog


def test_verify_binary_table_rejects_non_group():
    report = P.verify_binary_table(np.zeros((2, 2), dtype=int))
    assert not report.passed
    bad = np.array([[0, 1], [1, 1]])
    assert not P.verify_binary_table(bad).passed


def test_first_failure_search_equals_the_cube(monkeypatch):
    # the catalog, every one-cell mutation of S3, D4 and Q8, and orders 8 to 128:
    # random tables, loops (Z_m with one intercalate swapped) and cyclic groups;
    # in chunks of the default size, and of one row each
    tables = [group.table for group in binary_catalog().values()]
    for base in (P.symmetric_group_3(), P.dihedral_group(4), P.quaternion_group()):
        m = base.order
        for cell in np.ndindex(base.table.shape):
            for shift in range(1, m):
                changed = base.table.copy()
                changed[cell] = (changed[cell] + shift) % m
                tables.append(changed)
    rng = np.random.default_rng(6)
    for m in (8, 16, 32, 64, 128):
        loop, h = P.cyclic_group(m).table.copy(), m // 2
        loop[1, 1], loop[1 + h, 1 + h], loop[1, 1 + h], loop[1 + h, 1] = 2 + h, 2 + h, 2, 2
        tables += [rng.integers(0, m, size=(m, m)), loop, P.cyclic_group(m).table]
    want = [oracle.binary_report_by_cube(table) for table in tables]
    assert [P.verify_binary_table(table) for table in tables] == want
    monkeypatch.setattr(polyadic.binary, "_ASSOC_CELLS", 1)
    assert [P.verify_binary_table(table) for table in tables] == want


def test_unchecked_table_without_identity_rejected():
    with pytest.raises(P.InvalidGroupError, match="identity-missing"):
        P.BinaryGroup(np.zeros((2, 2), dtype=int), check=False)


def test_empty_table_is_a_shape_failure():
    report = P.verify_binary_table(np.zeros((0, 0), dtype=int))
    assert not report.passed and report.first().axiom == "table-shape"


def test_identity_must_be_two_sided():
    left_only = np.array([[0, 1], [0, 1]])     # both rows are the identity row
    assert P.verify_binary_table(left_only).first().axiom == "identity-missing"
    with pytest.raises(P.InvalidGroupError, match="identity-missing"):
        P.BinaryGroup(left_only, check=False)
    idx = np.arange(3)
    assert P.BinaryGroup((idx[:, None] + idx + 1) % 3, check=False).identity == 2


def test_group_basics():
    z6 = P.cyclic_group(6)
    assert z6.identity == 0
    assert z6.inv(2) == 4
    assert z6.element_order(2) == 3
    assert z6.is_cyclic and z6.is_abelian
    s3 = P.symmetric_group_3()
    assert s3.center == (0,)
    assert not s3.is_abelian
    assert sorted(s3.element_orders) == [1, 2, 2, 2, 3, 3]


def test_closure_and_generators():
    s3 = P.symmetric_group_3()
    assert s3.closure([1]) == (0, 1)
    assert len(s3.closure([1, 2])) == 6
    gens = s3.generating_set()
    assert len(s3.closure(gens)) == 6


def test_power_negative():
    z5 = P.cyclic_group(5)
    assert z5.power(2, -1) == z5.inv(2)
    assert z5.power(3, 0) == 0


def test_subgroup_and_normality():
    s3 = P.symmetric_group_3()
    assert s3.is_subgroup((0, 3, 4))
    assert s3.is_normal_subgroup((0, 3, 4))
    assert s3.is_subgroup((0, 1))
    assert not s3.is_normal_subgroup((0, 1))


def test_subgroup_tests_match_the_loops():
    for group in (P.symmetric_group_3(), P.dihedral_group(4), P.quaternion_group()):
        m = group.order
        for mask in range(1 << m):
            elems = [e for e in range(m) if mask >> e & 1]
            want = oracle.binary_subgroup_by_loops(group, elems)
            assert (group.is_subgroup(elems), group.is_normal_subgroup(elems)) == want, elems
        ident = group.identity
        assert all(group.mul(x, group.inv(x)) == ident for x in range(m))
        assert commutator_subgroup(group) == group.closure(oracle.commutators_by_loops(group))


def test_quotient():
    s3 = P.symmetric_group_3()
    quot, index = s3.quotient((0, 3, 4))
    assert quot.order == 2 and quot.is_cyclic
    assert index.tolist() == [0, 1, 1, 0, 0, 1] and not index.flags.writeable
    with pytest.raises(P.InvalidGroupError):
        s3.quotient((0, 1))


def test_automorphism_counts():
    assert len(P.automorphisms(P.cyclic_group(4))) == 2
    assert len(P.automorphisms(P.symmetric_group_3())) == 6
    klein = P.direct_product(P.cyclic_group(2), P.cyclic_group(2))
    assert len(P.automorphisms(klein)) == 6


def test_is_automorphism():
    z4 = P.cyclic_group(4)
    assert P.is_automorphism(z4, np.array([0, 3, 2, 1]))   # inversion
    assert not P.is_automorphism(z4, np.array([1, 0, 2, 3]))


def test_find_isomorphism():
    z4 = P.cyclic_group(4)
    klein = P.direct_product(P.cyclic_group(2), P.cyclic_group(2))
    assert P.find_isomorphism(z4, klein) is None
    z6 = P.cyclic_group(6)
    z2xz3 = P.direct_product(P.cyclic_group(2), P.cyclic_group(3))
    iso = P.find_isomorphism(z6, z2xz3)
    assert iso is not None
    assert np.array_equal(z2xz3.table[iso][:, iso], iso[z6.table])


def test_abelian_characters_orthogonal():
    for group in (P.cyclic_group(4), P.direct_product(P.cyclic_group(2), P.cyclic_group(4))):
        chars = P.abelian_characters(group)
        assert chars.shape == (group.order, group.order)
        gram = chars @ chars.conj().T / group.order
        assert np.abs(gram - np.eye(group.order)).max() < 1e-9


def test_abelian_characters_reject_nonabelian():
    with pytest.raises(P.InvalidGroupError):
        P.abelian_characters(P.symmetric_group_3())


def test_commutator_and_linear_characters():
    s3 = P.symmetric_group_3()
    assert commutator_subgroup(s3) == (0, 3, 4)
    lin = linear_characters(s3)
    assert lin.shape == (2, 6)
    d4 = P.dihedral_group(4)
    assert linear_characters(d4).shape == (4, 8)
    for row in linear_characters(d4):
        assert np.abs(row[d4.table] - np.outer(row, row)).max() < 1e-9


def test_abelian_invariants_and_tags():
    assert P.abelian_invariants(P.cyclic_group(8)) == [8]
    assert P.abelian_invariants(P.direct_product(P.cyclic_group(2), P.cyclic_group(4))) == [4, 2]
    klein = P.direct_product(P.cyclic_group(2), P.cyclic_group(2))
    assert P.small_group_tag(klein) == "klein"
    assert P.small_group_tag(P.cyclic_group(4)) == "Z4"
    assert P.small_group_tag(P.symmetric_group_3()) == "S3"
    assert P.small_group_tag(P.dihedral_group(4)) == "D4"
    assert P.small_group_tag(P.quaternion_group()) == "Q8"


def test_hg_data_invariants():
    z4 = P.cyclic_group(4)
    with pytest.raises(P.InvalidGroupError, match="automorphism"):
        P.HGData(z4, np.array([1, 0, 2, 3]), 0, 3)
    s3 = P.symmetric_group_3()
    conj = s3.conjugation(3)
    with pytest.raises(P.InvalidGroupError, match="fix"):
        P.HGData(s3, conj, 1, 3)
    # phi = id but b non-central: conjugation condition fails
    with pytest.raises(P.InvalidGroupError, match="conjugation"):
        P.HGData(s3, np.arange(6), 1, 3)


def test_b_derived_rejects_noncentral():
    s3 = P.symmetric_group_3()
    with pytest.raises(P.InvalidGroupError, match="central"):
        P.b_derived(s3, 1, 3)


def test_perm_power():
    perm = np.array([1, 2, 0])
    assert np.array_equal(perm_power(perm, 3), np.arange(3))
    assert np.array_equal(perm_power(perm, 0), np.arange(3))


def _catalog_automorphisms():
    return [(name, phi) for name, base in binary_catalog().items() for phi in P.automorphisms(base)]


def test_perm_power_by_squaring_matches_the_loop():
    for name, phi in _catalog_automorphisms():
        looped = np.arange(len(phi))
        for k in range(61):
            assert np.array_equal(perm_power(phi, k), looped), (name, k)
            looped = phi[looped]


def test_perm_power_at_a_huge_exponent():
    k = 10 ** 12
    for name, phi in _catalog_automorphisms():
        order, power = 1, phi
        while not np.array_equal(power, np.arange(len(phi))):
            order, power = order + 1, phi[power]
        assert np.array_equal(perm_power(phi, k), perm_power(phi, k % order)), name


def test_hg_data_checks_phi_power_at_arity_a_billion():
    # phi^(n-1) is taken by squaring, so the conditions cost O(m log n)
    group = P.derived(P.symmetric_group_3(), 10 ** 9)
    assert P.verify_nary_group(group).passed and group.hg.arity == 10 ** 9


SMALL = {"S3": P.symmetric_group_3(), "D4": P.dihedral_group(4), "Q8": P.quaternion_group()}


def _subsets(m):
    return ([e for e in range(m) if mask >> e & 1] for mask in range(1 << m))


def test_mask_closure_equals_frontier_on_every_subset():
    for name, group in SMALL.items():
        for elems in _subsets(group.order):
            assert group.closure(elems) == oracle.closure_by_frontier(group, elems), (name, elems)
        assert group.generating_set() == oracle.generating_set_by_frontier(group), name
        assert group.element_orders == tuple(
            oracle.element_order_by_loop(group, a) for a in range(group.order)), name


def test_subgroup_tables_and_quotients_equal_the_loops():
    for name, group in SMALL.items():
        for elems in _subsets(group.order):
            sub, normal = oracle.binary_subgroup_by_loops(group, elems)
            if not sub:
                if elems:
                    with pytest.raises(P.InvalidGroupError):
                        group.subgroup_group(elems)
                continue
            h_group, pos = group.subgroup_group(elems)
            assert np.array_equal(h_group.table, oracle.subgroup_table_by_loops(group, elems))
            assert pos == {e: i for i, e in enumerate(elems)}
            if normal:
                quot, index = group.quotient(elems)
                table, want = oracle.binary_quotient_by_loops(group, elems)
                assert index.tolist() == want and np.array_equal(quot.table, table), (name, elems)
            else:
                with pytest.raises(P.InvalidGroupError, match="normal"):
                    group.quotient(elems)


def test_derived_subgroups_and_quotients_are_groups():
    # built unchecked: closure (resp. normality and cosets) makes them groups
    for name, group in SMALL.items():
        for elems in _subsets(group.order):
            sub, normal = oracle.binary_subgroup_by_loops(group, elems)
            if sub:
                assert P.verify_binary_table(group.subgroup_group(elems)[0].table).passed
            if normal:
                assert P.verify_binary_table(group.quotient(elems)[0].table).passed, (name, elems)


def test_characters_equal_the_propagation_search():
    for group in binary_catalog().values():
        if group.is_abelian:
            got = P.abelian_characters(group)
            want = oracle.abelian_characters_by_propagation(group)
            assert got.shape == want.shape and np.abs(got - want).max() < 1e-9


def test_coset_partition_rejects_overlapping_rows():
    with pytest.raises(P.InvalidGroupError, match="partition evenly"):
        coset_partition(np.array([[0, 1], [1, 2], [2, 0]]), 2)
    with pytest.raises(P.InvalidGroupError, match="partition evenly"):
        coset_partition(np.array([[0, 0], [1, 1]]), 2)
    # the blocks of the least members partition, but row 1 is not its block
    with pytest.raises(P.InvalidGroupError, match="partition evenly"):
        coset_partition(np.array([[0, 1], [0, 2], [2, 3], [3, 2]]), 2)


def test_subset_operations_make_no_mul_call(monkeypatch):
    groups = [P.quaternion_group(), P.direct_product(P.cyclic_group(2), P.cyclic_group(4))]

    def refuse(self, a, b):
        raise AssertionError("BinaryGroup.mul called")

    monkeypatch.setattr(P.BinaryGroup, "mul", refuse)
    for group in groups:
        group.generating_set()
        group.closure([2, 3])
        group.element_order(2)
        group.subgroup_group(group.closure([2]))
        commutator_subgroup(group)
        linear_characters(group)
        group.quotient(group.center)
    P.abelian_characters(groups[1])
    P.abelian_invariants(groups[1])


def test_automorphism_search_order_unchanged(monkeypatch):
    # generating_set feeds the search order that fixes seeded (phi, b) choices
    found = {name: P.automorphisms(group) for name, group in binary_catalog().items()}
    monkeypatch.setattr(P.BinaryGroup, "generating_set", oracle.generating_set_by_frontier)
    for name, group in binary_catalog().items():
        want = P.automorphisms(group)
        assert len(found[name]) == len(want), name
        assert all(np.array_equal(a, b) for a, b in zip(found[name], want)), name
