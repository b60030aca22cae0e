"""Independent oracles for the n-ary group axioms, checked by direct lookup.

``scan_verdict`` is the verdict the library reached before its Hosszú–Gluskin
certificate: the exhaustive associativity and solvability scans, then the
Dörnte skew identities element by element.  The certificate must agree with
it on every table.  ``powerset_subgroups`` tests every subset for the
subgroup axioms; the closure-lattice search must find the same list.
"""

import re

import numpy as np

import polyadic as P


def skew_identity_failures(group):
    """Dörnte identities for every element and admissible position."""
    m, n = group.order, group.arity
    failures = []
    skews = group.skew_table()
    for x in range(m):
        xb = int(skews[x])
        for k in range(1, n + 1):
            if group.eval((x,) * (k - 1) + (xb,) + (x,) * (n - k)) != x:
                failures.append((f"skew-neutrality(k={k})", (x,)))
                break
        for y in range(m):
            for i in range(2, n + 1):
                if group.eval((x,) * (i - 2) + (xb,) + (x,) * (n - i) + (y,)) != y:
                    failures.append((f"skew-cancel-left(i={i})", (x, y)))
                    break
            for j in range(2, n + 1):
                if group.eval((y,) + (x,) * (n - j) + (xb,) + (x,) * (j - 2)) != y:
                    failures.append((f"skew-cancel-right(j={j})", (x, y)))
                    break
    return failures


def exhaustive_scan(group):
    """The associativity + solvability scan over every tuple, whatever its size."""
    budget = group.order ** (2 * group.arity - 1)
    scan = P.verify_associativity(group, budget=budget).merge(
        P.verify_quasigroup(group, budget=budget))
    assert not scan.sampled
    return scan


def scan_verdict(group):
    """Exhaustive associativity + solvability scan, then the skew identities."""
    scan = exhaustive_scan(group)
    if not scan.passed:
        return False
    try:
        return not skew_identity_failures(group)
    except P.InvalidGroupError:
        return False


def powerset_subgroups(group):
    """Every n-ary subgroup, by testing all 2^m - 1 non-empty subsets."""
    m = group.order
    subsets = (tuple(e for e in range(m) if mask >> e & 1) for mask in range(1, 1 << m))
    return sorted(s for s in subsets if P.is_subgroup(group, s))


def witness_breaks(table, axiom, witness):
    """Does ``witness`` violate the associativity or solvability ``axiom``?"""
    m, n = table.shape[0], table.ndim
    w = tuple(int(v) for v in witness)

    def fold(i):
        inner = table[w[i - 1:i - 1 + n]]
        return table[w[:i - 1] + (inner,) + w[i - 1 + n:]]

    hit = re.fullmatch(r"associativity\(i=(\d+),j=(\d+)\)", axiom)
    if hit:
        return len(w) == 2 * n - 1 and fold(int(hit[1])) != fold(int(hit[2]))
    hit = re.fullmatch(r"solvability\(place=(\d+)\)", axiom)
    if hit:
        row = np.moveaxis(table, int(hit[1]) - 1, -1)[w]
        return len(w) == n - 1 and not np.array_equal(np.sort(row), np.arange(m))
    return False


def single_cell_mutations(group):
    """Every table that differs from ``group``'s in exactly one cell."""
    table = group.dense()
    m = group.order
    for cell in np.ndindex(table.shape):
        for shift in range(1, m):
            mutated = table.copy()
            mutated[cell] = (mutated[cell] + shift) % m
            yield cell, P.NaryGroup(group.arity, m, table=mutated)
