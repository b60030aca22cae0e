"""Shared fixtures: the five standard groups and some helpers.

S3 is enumerated on permutations of (0,1,2) in lexicographic order with
(pq)(i) = p(q(i)), so index 0 is the identity, {1,2,5} are the
transpositions and {3,4} the 3-cycles; A3 = {0,3,4}.
"""

import itertools

import numpy as np
import pytest

import polyadic as P

A3 = (0, 3, 4)
TRANSPOSITIONS = (1, 2, 5)
SIGN = np.array([1, -1, -1, 1, 1, -1], dtype=complex)


@pytest.fixture(scope="session")
def t2():
    return P.NaryGroup.from_function(3, 2, lambda x, y, z: (x + y + z) % 2)


@pytest.fixture(scope="session")
def t2b():
    return P.NaryGroup.from_function(3, 2, lambda x, y, z: (x + y + z + 1) % 2)


@pytest.fixture(scope="session")
def z4m():
    return P.NaryGroup.from_function(3, 4, lambda x, y, z: (x - y + z) % 4)


@pytest.fixture(scope="session")
def q4():
    return P.NaryGroup.from_function(4, 2, lambda w, x, y, z: (w + x + y + z + 1) % 2)


@pytest.fixture(scope="session")
def s3():
    return P.symmetric_group_3()


@pytest.fixture(scope="session")
def s3t(s3):
    return P.derived(s3, 3)


@pytest.fixture(scope="session")
def fixtures(t2, t2b, z4m, q4, s3t):
    return {"T2": t2, "T2b": t2b, "Z4M": z4m, "Q4": q4, "S3T": s3t}


@pytest.fixture(scope="session")
def ternary_fixtures(t2, t2b, z4m, s3t):
    return {"T2": t2, "T2b": t2b, "Z4M": z4m, "S3T": s3t}


def s3_permutations():
    return list(itertools.permutations(range(3)))


def s3_two_dim():
    """Standard 2-dim irreducible of S3 on the sum-zero plane (exact integers)."""
    perms = s3_permutations()
    basis = np.array([[1, 0], [-1, 1], [0, -1]], dtype=complex)
    pinv = np.linalg.pinv(basis)
    mats = []
    for p in perms:
        mat = np.zeros((3, 3))
        for j in range(3):
            mat[p[j], j] = 1
        mats.append(pinv @ mat @ basis)
    return np.array(mats).round(12)


def z2_4_ternary():
    """The ternary group derived from Z2^4: its subgroups are the 307 affine subspaces."""
    z2 = P.cyclic_group(2)
    return P.derived(P.direct_product(P.direct_product(z2, z2), P.direct_product(z2, z2)), 3)


def binary_catalog():
    z = P.cyclic_group
    return {
        "Z2": z(2), "Z3": z(3), "Z4": z(4), "Z5": z(5),
        "Z6": z(6), "Z7": z(7), "Z8": z(8),
        "klein": P.direct_product(z(2), z(2)),
        "Z2xZ4": P.direct_product(z(2), z(4)),
        "Z2xZ2xZ2": P.direct_product(z(2), P.direct_product(z(2), z(2))),
        "S3": P.symmetric_group_3(),
        "D4": P.dihedral_group(4),
        "Q8": P.quaternion_group(),
    }


def derived_corpus():
    """The 13 catalog bases derived at n = 3, 4 and 7, Z2^4 ternary and the trivial group."""
    return ([(f"{name}/n={n}", P.derived(base, n))
             for name, base in binary_catalog().items() for n in (3, 4, 7)]
            + [("Z2^4/n=3", z2_4_ternary()), ("trivial", P.derived(P.cyclic_group(1), 3))])


def d8_z4(*more):
    """D8 x Z4 (order 64) times the given factors; D8 is the dihedral group of order 16."""
    base = P.direct_product(P.dihedral_group(8), P.cyclic_group(4))
    for factor in more:
        base = P.direct_product(base, factor)
    return base


def large_corpus():
    """Groups past the m^n budget or the subgroup search: large arity, or orders 64 and 128.

    derived(D8 x Z4, 6) has 37 normal n-ary subgroups, derived(D8 x Z4 x Z2, 3) has 707.
    """
    return [("S3/n=70", P.derived(P.symmetric_group_3(), 70)),
            ("D8xZ4/n=6", P.derived(d8_z4(), 6)),
            ("D8xZ4xZ2/n=3", P.derived(d8_z4(P.cyclic_group(2)), 3))]


def random_hg_stock(count=20, seed=0xC0FFEE):
    """Deterministic stock of decomposition-built n-ary groups.

    Sizes are drawn so the full associativity scan stays within its
    10^7 tuples (n = 5 caps the order at 5), keeping every check exhaustive.
    """
    from polyadic.binary import automorphisms, perm_power

    catalog = binary_catalog()
    options = []
    for arity in (3, 4, 5):
        max_order = 8 if arity < 5 else 5
        for name, base in sorted(catalog.items()):
            if base.order > max_order:
                continue
            pairs = []
            for phi in automorphisms(base):
                power = perm_power(phi, arity - 1)
                for b in range(base.order):
                    if phi[b] == b and np.array_equal(power, base.conjugation(b)):
                        pairs.append((phi, b))
            if pairs:
                options.append((name, base, arity, pairs))
    rng = np.random.default_rng(seed)
    stock = []
    for idx in rng.choice(len(options), size=count, replace=True):
        name, base, arity, pairs = options[idx]
        phi, b = pairs[rng.integers(len(pairs))]
        stock.append((f"{name}/n={arity}/b={b}", P.hg_construct(P.HGData(base, phi, b, arity))))
    return stock


@pytest.fixture()
def verify_subgroup_calls(monkeypatch):
    """Route ``verify_subgroup`` through a counter wherever it is bound; the list of calls."""
    import polyadic.rep
    import polyadic.structure
    calls, real = [], polyadic.structure.verify_subgroup

    def counting(group, elems):
        calls.append(tuple(elems))
        return real(group, elems)

    for module in (polyadic.structure, polyadic.rep):
        monkeypatch.setattr(module, "verify_subgroup", counting)
    return calls


@pytest.fixture()
def binary_table_checks(monkeypatch):
    """Route ``verify_binary_table`` through a counter wherever it is bound; the shapes checked."""
    import polyadic.binary
    import polyadic.core
    calls, real = [], polyadic.binary.verify_binary_table

    def counting(table):
        calls.append(table.shape)
        return real(table)

    for module in (polyadic.binary, polyadic.core):
        monkeypatch.setattr(module, "verify_binary_table", counting)
    return calls


@pytest.fixture()
def no_conjugacy_classes(monkeypatch):
    """Fail the test if conjugacy classes are computed, by whatever name they are reached."""
    import polyadic.action

    def refuse(group):
        raise AssertionError("conjugacy classes computed")

    monkeypatch.setattr(polyadic.action, "canonical_action", refuse)


@pytest.fixture(scope="session")
def hg_stock():
    return random_hg_stock()


@pytest.fixture(scope="session")
def hg_stock_60():
    return random_hg_stock(60)
