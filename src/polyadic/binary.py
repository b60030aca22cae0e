"""Ordinary finite groups on dense Cayley tables.

Retracts and covering groups of polyadic groups are values of
:class:`BinaryGroup`.  Construction always verifies the group axioms eagerly
(the O(m^3) cost is acceptable at desk scale).  The module also carries the
small-group machinery the rest of the package leans on: closure, centers,
quotients, automorphisms, isomorphism search by backtracking on generator
images, and character enumeration for abelian groups.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidGroupError, SizeLimitError
from .report import VerificationReport

ISO_ORDER_LIMIT = 64


def verify_binary_table(table: np.ndarray) -> VerificationReport:
    """Check that an m x m index table is a group: identity, inverses, associativity."""
    table = np.asarray(table)
    m = table.shape[0]
    if table.shape != (m, m) or table.min() < 0 or table.max() >= m:
        return VerificationReport.fail([("table-shape", ())])
    failures = []
    rng = np.arange(m)
    ident = [e for e in range(m) if np.array_equal(table[e], rng) and np.array_equal(table[:, e], rng)]
    if not ident:
        failures.append(("identity-missing", ()))
    else:
        e = ident[0]
        for x in range(m):
            if not np.any(table[x] == e):
                failures.append((f"inverse-missing(x={x})", (x,)))
                break
    assoc_lhs = table[table, :]            # (a,b,c) -> (ab)c
    assoc_rhs = table[:, table]            # (a,b,c) -> a(bc), axes (a,b,c)
    bad = np.argwhere(assoc_lhs != assoc_rhs)
    if bad.size:
        failures.append(("associativity", tuple(bad[0])))
    checked = m * m * m
    if failures:
        return VerificationReport.fail(failures, checked=checked)
    return VerificationReport.ok(checked=checked)


class BinaryGroup:
    """Finite group given by a Cayley table of element indices 0..m-1."""

    def __init__(self, table, check: bool = True):
        self.table = np.ascontiguousarray(np.asarray(table, dtype=np.int64))
        self.order = self.table.shape[0]
        if check:
            report = verify_binary_table(self.table)
            if not report.passed:
                f = report.first()
                raise InvalidGroupError(f"not a group: {f.axiom} witness={f.witness}")
        rng = np.arange(self.order)
        self.identity = next(
            e for e in range(self.order)
            if np.array_equal(self.table[e], rng) and np.array_equal(self.table[:, e], rng)
        )
        self.inverse = np.argmax(self.table == self.identity, axis=1)

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverse[a])

    def power(self, a: int, k: int) -> int:
        """a**k, negative k through the inverse."""
        if k < 0:
            a, k = self.inv(a), -k
        acc = self.identity
        for _ in range(k):
            acc = self.mul(acc, a)
        return acc

    def product(self, xs) -> int:
        acc = self.identity
        for x in xs:
            acc = self.mul(acc, int(x))
        return acc

    def conjugation(self, b: int) -> np.ndarray:
        """The permutation x -> b * x * b^-1."""
        return self.table[self.table[b], self.inv(b)]

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != self.identity:
            x = self.mul(x, a)
            k += 1
        return k

    @cached_property
    def element_orders(self) -> tuple[int, ...]:
        return tuple(self.element_order(a) for a in range(self.order))

    @cached_property
    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.table, self.table.T))

    @cached_property
    def center(self) -> tuple[int, ...]:
        return tuple(
            z for z in range(self.order)
            if np.array_equal(self.table[z], self.table[:, z])
        )

    @cached_property
    def is_cyclic(self) -> bool:
        return max(self.element_orders) == self.order

    def closure(self, gens) -> tuple[int, ...]:
        """Subgroup generated by ``gens`` (sorted element indices)."""
        seen = {self.identity} | {int(g) for g in gens}
        frontier = list(seen)
        while frontier:
            new = []
            for a in list(seen):
                for b in frontier:
                    for c in (self.mul(a, b), self.mul(b, a)):
                        if c not in seen:
                            seen.add(c)
                            new.append(c)
            frontier = new
        return tuple(sorted(seen))

    def generating_set(self) -> list[int]:
        """Small generating set, greedily grown in element order."""
        gens: list[int] = []
        closed = {self.identity}
        for x in range(self.order):
            if x not in closed:
                gens.append(x)
                closed = set(self.closure(gens))
                if len(closed) == self.order:
                    break
        return gens

    def _mask(self, elems) -> np.ndarray:
        mask = np.zeros(self.order, dtype=bool)
        mask[[int(x) for x in elems]] = True
        return mask

    def is_subgroup(self, elems) -> bool:
        mask = self._mask(elems)
        if not mask[self.identity]:
            return False
        e = np.flatnonzero(mask)
        return bool(mask[self.table[np.ix_(e, e)]].all())

    def is_normal_subgroup(self, elems) -> bool:
        """Subgroup closed under every conjugation h -> g h g^-1."""
        if not self.is_subgroup(elems):
            return False
        mask = self._mask(elems)
        e = np.flatnonzero(mask)
        return bool(mask[self.table[self.table[:, e], self.inverse[:, None]]].all())

    def subgroup_group(self, elems) -> tuple["BinaryGroup", dict[int, int]]:
        """The subgroup on ``elems`` as a standalone group, plus index map."""
        elems = sorted(int(x) for x in elems)
        pos = {e: i for i, e in enumerate(elems)}
        k = len(elems)
        table = np.zeros((k, k), dtype=np.int64)
        for i, a in enumerate(elems):
            for j, b in enumerate(elems):
                c = self.mul(a, b)
                if c not in pos:
                    raise InvalidGroupError(f"set not closed: {a}*{b}={c}")
                table[i, j] = pos[c]
        return BinaryGroup(table), pos

    def quotient(self, normal) -> tuple["BinaryGroup", tuple[tuple[int, ...], ...]]:
        """Quotient by a normal subgroup; blocks sorted by least member."""
        h = sorted(int(x) for x in normal)
        if not self.is_normal_subgroup(h):
            raise InvalidGroupError("quotient requires a normal subgroup")
        block_of = {}
        blocks = []
        for a in range(self.order):
            if a in block_of:
                continue
            blk = tuple(sorted(int(self.table[a, x]) for x in h))
            for x in blk:
                block_of[x] = len(blocks)
            blocks.append(blk)
        q = len(blocks)
        table = np.zeros((q, q), dtype=np.int64)
        for i, bi in enumerate(blocks):
            for j, bj in enumerate(blocks):
                table[i, j] = block_of[self.mul(bi[0], bj[0])]
        return BinaryGroup(table), tuple(blocks)

    def __eq__(self, other):
        return isinstance(other, BinaryGroup) and np.array_equal(self.table, other.table)

    def __hash__(self):
        return hash((self.order, self.table.tobytes()))

    def __repr__(self):
        return f"BinaryGroup(order={self.order})"


def is_automorphism(group: BinaryGroup, perm) -> bool:
    """Does the permutation preserve the table, phi(xy) = phi(x)phi(y)?"""
    perm = np.asarray(perm, dtype=np.int64)
    if sorted(perm.tolist()) != list(range(group.order)):
        return False
    return bool(np.array_equal(group.table[perm][:, perm], perm[group.table]))


def perm_power(perm: np.ndarray, k: int) -> np.ndarray:
    acc = np.arange(len(perm))
    for _ in range(k):
        acc = perm[acc]
    return acc


def _extend_partial(a: BinaryGroup, b: BinaryGroup, pairs: dict[int, int]) -> dict[int, int] | None:
    """Close a partial generator assignment under products.

    Returns the closed partial map, or None on any clash (non-homomorphic or
    non-injective extension).
    """
    pairs = dict(pairs)
    used = set(pairs.values())
    if len(used) != len(pairs):
        return None
    frontier = list(pairs.items())
    while frontier:
        new = []
        for x1, y1 in list(pairs.items()):
            for x2, y2 in frontier:
                for xa, ya in ((a.mul(x1, x2), b.mul(y1, y2)), (a.mul(x2, x1), b.mul(y2, y1))):
                    got = pairs.get(xa)
                    if got is None:
                        if ya in used:
                            return None
                        pairs[xa] = ya
                        used.add(ya)
                        new.append((xa, ya))
                    elif got != ya:
                        return None
        frontier = new
    return pairs


def _isomorphism_search(a: BinaryGroup, b: BinaryGroup, collect_all: bool) -> list[np.ndarray]:
    if a.order != b.order:
        return []
    if sorted(a.element_orders) != sorted(b.element_orders):
        return []
    if a.order > ISO_ORDER_LIMIT:
        raise SizeLimitError(f"isomorphism search limited to order {ISO_ORDER_LIMIT}")
    gens = a.generating_set()
    if not gens:  # trivial group
        return [np.array([0])]
    by_order: dict[int, list[int]] = {}
    for y in range(b.order):
        by_order.setdefault(b.element_orders[y], []).append(y)
    found: list[np.ndarray] = []

    def rec(k: int, partial: dict[int, int]):
        if found and not collect_all:
            return
        if k == len(gens):
            if len(partial) == a.order:
                img = np.array([partial[x] for x in range(a.order)], dtype=np.int64)
                if np.array_equal(b.table[img][:, img], img[a.table]):
                    found.append(img)
            return
        g = gens[k]
        for cand in by_order.get(a.element_orders[g], []):
            ext = _extend_partial(a, b, {**partial, g: cand})
            if ext is not None:
                rec(k + 1, ext)
                if found and not collect_all:
                    return

    rec(0, {a.identity: b.identity})
    return found


def find_isomorphism(a: BinaryGroup, b: BinaryGroup) -> np.ndarray | None:
    """First isomorphism a -> b found by deterministic backtracking, or None."""
    found = _isomorphism_search(a, b, collect_all=False)
    return found[0] if found else None


def automorphisms(group: BinaryGroup) -> list[np.ndarray]:
    """All automorphisms, in deterministic search order."""
    return _isomorphism_search(group, group, collect_all=True)


def abelian_characters(group: BinaryGroup, tol: float = 1e-9) -> np.ndarray:
    """All 1-dim complex characters of an abelian group, as a (m, m) array.

    Characters are found by assigning roots of unity to a generating set and
    propagating through products; each candidate is verified multiplicatively
    on the full table.  Rows are sorted by rounded value vector, so the order
    is reproducible.
    """
    if not group.is_abelian:
        raise InvalidGroupError("character enumeration requires an abelian group")
    m = group.order
    gens = group.generating_set()
    if not gens:
        return np.ones((1, 1), dtype=complex)
    orders = [group.element_order(g) for g in gens]
    chars = {}
    for choice in itertools.product(*[range(o) for o in orders]):
        values = np.zeros(m, dtype=complex)
        known = np.zeros(m, dtype=bool)
        values[group.identity] = 1.0
        known[group.identity] = True
        for g, k, o in zip(gens, choice, orders):
            root = np.exp(2j * np.pi * k / o)
            if known[g] and abs(values[g] - root) > tol:
                break
            values[g], known[g] = root, True
        else:
            frontier = [group.identity] + list(gens)
            ok = True
            while frontier and ok:
                new = []
                for x in np.nonzero(known)[0]:
                    for y in frontier:
                        z = group.mul(int(x), int(y))
                        v = values[x] * values[y]
                        if not known[z]:
                            values[z], known[z] = v, True
                            new.append(z)
                        elif abs(values[z] - v) > tol:
                            ok = False
                frontier = new
            if ok and known.all():
                prod = np.outer(values, values)
                if np.abs(values[group.table] - prod).max() <= tol:
                    key = tuple(np.round(values, 9).tolist())
                    chars.setdefault(key, values)
    out = np.array([chars[k] for k in sorted(chars, key=str)])
    if len(out) != m:
        raise InvalidGroupError(f"expected {m} characters, found {len(out)}")
    return out


def commutator_subgroup(group: BinaryGroup) -> tuple[int, ...]:
    """Subgroup generated by all commutators a b a^-1 b^-1."""
    t, inv = group.table, group.inverse
    comms = t[t, t[np.ix_(inv, inv)]]
    return group.closure(np.unique(comms).tolist())


def linear_characters(group: BinaryGroup, tol: float = 1e-9) -> np.ndarray:
    """All 1-dim characters, for any finite group.

    Linear characters factor through the abelianization, so they are the
    characters of the quotient by the commutator subgroup pulled back along
    the block map.
    """
    derived_sub = commutator_subgroup(group)
    quot, blocks = group.quotient(derived_sub)
    idx = np.zeros(group.order, dtype=np.int64)
    for i, blk in enumerate(blocks):
        idx[list(blk)] = i
    return abelian_characters(quot, tol=tol)[:, idx]


def abelian_invariants(group: BinaryGroup) -> list[int]:
    """Invariant factors d1 >= d2 >= ... of an abelian group."""
    if not group.is_abelian:
        raise InvalidGroupError("invariants defined for abelian groups only")
    if group.order == 1:
        return []
    g = max(range(group.order), key=group.element_order)
    d = group.element_order(g)
    q, _ = group.quotient(group.closure([g]))
    return [d] + abelian_invariants(q)


def small_group_tag(group: BinaryGroup) -> str:
    """Short human-readable isomorphism tag for small groups."""
    m = group.order
    if group.is_abelian:
        inv = abelian_invariants(group)
        if inv == [2, 2]:
            return "klein"
        return "x".join(f"Z{d}" for d in inv) if inv else "Z1"
    if m == 6:
        return "S3"
    if m == 8:
        return "D4" if group.element_orders.count(2) == 5 else "Q8"
    return f"nonabelian-{m}"


@dataclass(frozen=True)
class HGData:
    """Binary group, automorphism phi and element b presenting an n-ary group.

    The invariants are the classical decomposition conditions: phi fixes b,
    and phi^(n-1) is conjugation by b; the n-ary operation is then
    ``x1 * phi(x2) * phi^2(x3) * ... * phi^(n-1)(xn) * b``.
    """

    group: BinaryGroup
    phi: np.ndarray
    b: int
    arity: int

    def __post_init__(self):
        object.__setattr__(self, "phi", np.asarray(self.phi, dtype=np.int64))
        if self.arity < 3:
            raise InvalidGroupError("arity must be at least 3")
        if not is_automorphism(self.group, self.phi):
            raise InvalidGroupError("phi is not an automorphism of the carried group")
        if int(self.phi[self.b]) != int(self.b):
            raise InvalidGroupError(f"phi does not fix b={self.b}")
        want = self.group.conjugation(self.b)
        got = perm_power(self.phi, self.arity - 1)
        if not np.array_equal(got, want):
            bad = int(np.nonzero(got != want)[0][0])
            raise InvalidGroupError(
                f"phi^(n-1) differs from conjugation by b at x={bad}"
            )

    @cached_property
    def phi_powers(self) -> np.ndarray:
        """(arity, m) array of phi^0 .. phi^(n-1)."""
        m = self.group.order
        out = np.zeros((self.arity, m), dtype=np.int64)
        out[0] = np.arange(m)
        for k in range(1, self.arity):
            out[k] = self.phi[out[k - 1]]
        return out


# Small-group constructors, mostly for fixtures and randomized test stock.

def cyclic_group(m: int) -> BinaryGroup:
    idx = np.arange(m)
    return BinaryGroup((idx[:, None] + idx[None, :]) % m)

def direct_product(a: BinaryGroup, b: BinaryGroup) -> BinaryGroup:
    na, nb = a.order, b.order
    table = np.zeros((na * nb, na * nb), dtype=np.int64)
    for (x1, y1) in itertools.product(range(na), range(nb)):
        for (x2, y2) in itertools.product(range(na), range(nb)):
            table[x1 * nb + y1, x2 * nb + y2] = a.mul(x1, x2) * nb + b.mul(y1, y2)
    return BinaryGroup(table)

def dihedral_group(k: int) -> BinaryGroup:
    """Dihedral group of order 2k: indices 0..k-1 rotations, k..2k-1 reflections."""
    m = 2 * k
    table = np.zeros((m, m), dtype=np.int64)
    for i in range(k):
        for j in range(k):
            table[i, j] = (i + j) % k
            table[i, j + k] = (i + j) % k + k
            table[i + k, j] = (i - j) % k + k
            table[i + k, j + k] = (i - j) % k
    return BinaryGroup(table)

def quaternion_group() -> BinaryGroup:
    """Q8 with elements 1,-1,i,-i,j,-j,k,-k encoded as (sign, axis) pairs."""
    names = [(1, 0), (-1, 0), (1, 1), (-1, 1), (1, 2), (-1, 2), (1, 3), (-1, 3)]
    pos = {v: i for i, v in enumerate(names)}
    mul_axis = {  # quaternion unit products: (axis_a, axis_b) -> (sign, axis)
        (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
        (1, 0): (1, 1), (2, 0): (1, 2), (3, 0): (1, 3),
        (1, 1): (-1, 0), (2, 2): (-1, 0), (3, 3): (-1, 0),
        (1, 2): (1, 3), (2, 3): (1, 1), (3, 1): (1, 2),
        (2, 1): (-1, 3), (3, 2): (-1, 1), (1, 3): (-1, 2),
    }
    table = np.zeros((8, 8), dtype=np.int64)
    for (sa, xa), (sb, xb) in itertools.product(names, names):
        s, x = mul_axis[(xa, xb)]
        table[pos[(sa, xa)], pos[(sb, xb)]] = pos[(sa * sb * s, x)]
    return BinaryGroup(table)

def symmetric_group_3() -> BinaryGroup:
    """S3 on permutations of (0,1,2) in lexicographic order, (pq)(i)=p(q(i))."""
    perms = list(itertools.permutations(range(3)))
    pos = {p: i for i, p in enumerate(perms)}
    table = np.zeros((6, 6), dtype=np.int64)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            table[i, j] = pos[tuple(p[q[k]] for k in range(3))]
    return BinaryGroup(table)
