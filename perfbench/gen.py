"""Seeded inputs: n-ary groups built from (base, phi, b) and their mutations.

Every group is ``hg_construct`` over a direct product of groups from the
binary catalog that the test suite uses (orders 2 to 8).  The automorphism
phi and the twist b are chosen per factor among the valid pairs of that
factor (phi fixes b, phi^(n-1) is conjugation by b), so ``automorphisms()``
only ever runs on catalog groups of order at most 8, never on a large base.
The product of valid pairs is a valid pair of the product.  A seeded
relabelling of the elements then makes every seed's tables distinct while
leaving the group's structure, and so the work each operation does, the same.
"""

from __future__ import annotations

import numpy as np

import polyadic as P
from polyadic.binary import perm_power

CATALOG = {
    "Z2": lambda: P.cyclic_group(2),
    "Z3": lambda: P.cyclic_group(3),
    "Z4": lambda: P.cyclic_group(4),
    "Z5": lambda: P.cyclic_group(5),
    "Z8": lambda: P.cyclic_group(8),
    "klein": lambda: P.direct_product(P.cyclic_group(2), P.cyclic_group(2)),
    "S3": P.symmetric_group_3,
    "D4": lambda: P.dihedral_group(4),
    "Q8": P.quaternion_group,
}


def valid_pairs(base: P.BinaryGroup, arity: int) -> list[tuple[np.ndarray, int]]:
    """Every (phi, b) that presents an n-ary group over ``base``."""
    pairs = []
    for phi in P.automorphisms(base):
        power = perm_power(phi, arity - 1)
        for b in range(base.order):
            if phi[b] == b and np.array_equal(power, base.conjugation(b)):
                pairs.append((phi, b))
    return pairs


def product_hg(factors: tuple[str, ...], arity: int, rng: np.random.Generator,
               fixed: bool = False) -> P.HGData:
    """Valid (phi, b) over the product of catalog factors, relabelled by the seed.

    Per factor the pair is seeded, or with ``fixed`` the last valid pair in
    search order (a non-identity automorphism wherever the factor has one),
    which fixes the isomorphism type and leaves only the labels to the seed.
    """
    base = phi = b = None
    for name in factors:
        group = CATALOG[name]()
        pairs = valid_pairs(group, arity)
        f_phi, f_b = pairs[-1] if fixed else pairs[rng.integers(len(pairs))]
        if base is None:
            base, phi, b = group, np.asarray(f_phi), int(f_b)
            continue
        k = group.order
        phi = (phi[:, None] * k + f_phi[None, :]).reshape(-1)
        b = b * k + int(f_b)
        base = P.direct_product(base, group)
    return relabel(P.HGData(base, phi, b, arity), rng.permutation(base.order))


def relabel(data: P.HGData, perm: np.ndarray) -> P.HGData:
    """The same n-ary group with element x renamed perm[x]."""
    inv = np.argsort(perm)
    table = perm[data.group.table[np.ix_(inv, inv)]]
    return P.HGData(P.BinaryGroup(table), perm[data.phi[inv]], int(perm[data.b]), data.arity)


def hg_group(factors: tuple[str, ...], arity: int, rng: np.random.Generator,
             fixed: bool = False) -> P.NaryGroup:
    return P.hg_construct(product_hg(factors, arity, rng, fixed))


def mutate(table: np.ndarray, rng: np.random.Generator) -> tuple[tuple[int, ...], int]:
    """Change one seeded cell of a dense table in place to another element.

    Returns the cell and its new value.  A single changed cell always breaks
    unique solvability: its row now holds the new value twice.
    """
    m = table.shape[0]
    cell = tuple(int(v) for v in rng.integers(0, m, size=table.ndim))
    old = int(table[cell])
    new = int((old + rng.integers(1, m)) % m)
    table[cell] = new
    return cell, new
