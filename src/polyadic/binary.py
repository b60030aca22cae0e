"""Ordinary finite groups on dense Cayley tables.

Retracts and covering groups of polyadic groups are values of
:class:`BinaryGroup`.  A table is verified (O(m^3)) where it enters the
library; a table that a theorem makes a group, given a verified parent, is
built unchecked: retracts (Dörnte), covers (Post), and the subgroups and
quotients derived here.  The module also carries the small-group machinery
the rest of the package leans on: closure, centers, quotients,
automorphisms, isomorphism search by backtracking on generator images, and
character enumeration for abelian groups.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidGroupError, SizeLimitError
from .report import VerificationReport

ISO_ORDER_LIMIT = 64
_ASSOC_CELLS = 1 << 18   # the triples of one associativity chunk


def read_only(array: np.ndarray) -> np.ndarray:
    """``array``, made read-only."""
    array.setflags(write=False)
    return array


def verify_binary_table(table: np.ndarray) -> VerificationReport:
    """Check that an m x m index table is a group: identity, inverses, associativity.

    Associativity compares (ab)c with a(bc) over increasing rows a, about
    ``_ASSOC_CELLS`` triples at a time, and stops at the first chunk that
    fails, whose first mismatch is the lexicographically first failing
    (a, b, c).  No m^3 array is built; ``checked`` is m^3.
    """
    table = np.asarray(table)
    m = len(table) if table.ndim else 0
    if not m or table.shape != (m, m) or table.min() < 0 or table.max() >= m:
        return VerificationReport.fail([("table-shape", ())])
    failures = []
    e = _identity(table)
    if e is None:
        failures.append(("identity-missing", ()))
    else:
        for x in range(m):
            if not np.any(table[x] == e):
                failures.append((f"inverse-missing(x={x})", (x,)))
                break
    step = max(1, _ASSOC_CELLS // (m * m))
    for lo in range(0, m, step):
        rows = table[lo:lo + step]
        bad = (table[rows] != np.take(rows, table, axis=1)).reshape(-1)
        first = int(bad.argmax())   # stops at the first True
        if bad[first]:
            a, b, c = np.unravel_index(first, (len(rows), m, m))
            failures.append(("associativity", (lo + a, b, c)))
            break
    checked = m * m * m
    if failures:
        return VerificationReport.fail(failures, checked=checked)
    return VerificationReport.ok(checked=checked)


def _identity(table: np.ndarray) -> int | None:
    """The first two-sided identity of a square table, or None."""
    r = np.arange(len(table))
    hits = np.flatnonzero((table == r).all(1) & (table.T == r).all(1))
    return int(hits[0]) if hits.size else None


def grid(elems: np.ndarray, k: int) -> tuple[np.ndarray, ...]:
    """Index arrays that broadcast ``elems`` over k axes, like ``np.ix_(*[elems] * k)`` at any k."""
    return tuple(elems.reshape((-1,) + (1,) * (k - 1 - i)) for i in range(k))


def close(table: np.ndarray, inverse: np.ndarray, elems) -> tuple[int, ...]:
    """Grow an element mask from ``elems`` until it is closed under ``table`` and ``inverse``.

    ``table`` is a binary or n-ary group table (any ``ndim``); ``inverse`` is
    the group inverse, or the skew map of an n-ary group.  Once the mask holds
    more than half the carrier, its closure H is the whole carrier: for a
    binary group by Lagrange; for an n-ary group because, for x outside H and
    h in H, f(x, h^(n-2), H) would have |H| elements and miss H (solving
    inside the finite H would put x in H).
    """
    n, m = table.ndim, len(inverse)
    mask = np.zeros(m, dtype=bool)
    mask[elems] = True
    count = np.count_nonzero(mask)
    while 2 * count <= m:
        e = np.flatnonzero(mask)
        mask[table[grid(e, n)]] = True
        mask[inverse[e]] = True
        grown = np.count_nonzero(mask)
        if grown == count:
            return tuple(e.tolist())
        count = grown
    return tuple(range(m))


def coset_partition(members: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Coset blocks from a member matrix whose row a lists the coset of a, repeats allowed.

    Returns the (blocks, size) array of distinct cosets sorted by least member,
    and the block index of every element.  Raises unless every row holds
    ``size`` distinct members and the distinct rows are disjoint and cover
    the carrier.
    """
    rows = np.sort(members, axis=1)
    new = np.ones(rows.shape, dtype=bool)
    new[:, 1:] = rows[:, 1:] != rows[:, :-1]
    m = len(rows)
    if (np.count_nonzero(new, axis=1) == size).all():
        rows = rows[new].reshape(m, size)
        # one row per least member; every row must equal its block
        _, first, block_of_row = np.unique(rows[:, 0], return_index=True, return_inverse=True)
        blocks = rows[first]
        flat = blocks.reshape(-1)
        if (len(flat) == m and np.array_equal(rows, blocks[block_of_row])
                and np.array_equal(np.sort(flat), np.arange(m))):
            index = np.empty(m, dtype=np.int64)
            index[flat] = np.repeat(np.arange(len(blocks)), size)
            return blocks, index
    raise InvalidGroupError("cosets do not partition evenly")


class BinaryGroup:
    """Finite group given by a Cayley table of element indices 0..m-1.

    ``check`` verifies the table and keeps the report as ``report`` (a
    failure raises, carrying it).  ``check=False`` is for tables that a
    theorem makes a group, given a verified parent; ``report`` is then None.
    The table is a read-only copy, so the report stays true of it; ``inverse`` is read-only.
    """

    def __init__(self, table, check: bool = True):
        self.table = read_only(np.array(table, dtype=np.int64, order="C"))
        self.order = self.table.shape[0]
        self.report = verify_binary_table(self.table) if check else None
        if check and not self.report.passed:
            f = self.report.first()
            raise InvalidGroupError(f"not a group: {f.axiom} witness={f.witness}", self.report)
        self.identity = _identity(self.table)
        if self.identity is None:
            raise InvalidGroupError("not a group: identity-missing witness=()")
        self.inverse = read_only(np.argmax(self.table == self.identity, axis=1))

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
        return self.element_orders[a]

    @cached_property
    def element_orders(self) -> tuple[int, ...]:
        """Every element advances through its powers together, one table gather per step."""
        m, e = self.order, self.identity
        orders = np.zeros(m, dtype=np.int64)
        power, base = np.arange(m), np.arange(m)
        for k in range(1, m + 1):
            orders[(power == e) & (orders == 0)] = k
            if orders.all():
                break
            power = self.table[power, base]
        return tuple(orders.tolist())

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
        return close(self.table, self.inverse, [self.identity, *(int(g) for g in gens)])

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
        """The subgroup on ``elems`` as a standalone group, plus index map.

        A non-empty subset closed under the product of a finite group is a
        subgroup, so once closure is checked the table needs no re-check.
        """
        e = np.array(sorted({int(x) for x in elems}), dtype=np.int64)
        products = self.table[np.ix_(e, e)]
        pos = np.minimum(np.searchsorted(e, products), len(e) - 1)
        bad = np.argwhere(e[pos] != products)
        if bad.size:
            i, j = bad[0]
            raise InvalidGroupError(f"set not closed: {e[i]}*{e[j]}={products[i, j]}")
        return BinaryGroup(pos, check=False), {int(x): i for i, x in enumerate(e)}

    def quotient(self, normal) -> tuple["BinaryGroup", np.ndarray]:
        """Quotient by a normal subgroup, and each element's coset, numbered by least member.

        Normality and the coset partition are checked; the quotient of a
        group by a normal subgroup is a group, so its table is not re-checked.
        """
        h = sorted(int(x) for x in normal)
        if not self.is_normal_subgroup(h):
            raise InvalidGroupError("quotient requires a normal subgroup")
        blocks, index = coset_partition(self.table[:, h], len(h))
        reps = blocks[:, 0]
        table = index[self.table[np.ix_(reps, reps)]]
        return BinaryGroup(table, check=False), read_only(index)

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
    """``perm`` applied k times (the identity for k <= 0), by repeated squaring: O(m log k)."""
    acc, square = np.arange(len(perm)), np.asarray(perm)
    while k > 0:
        if k & 1:
            acc = square[acc]
        square, k = square[square], k >> 1
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


def abelian_phases(group: BinaryGroup) -> tuple[np.ndarray, int]:
    """All 1-dim characters of an abelian group as exact integer phases: (phases, period).

    Row c of the (m, m) ``phases`` is the character x -> exp(2 pi i c[x] / period),
    rows in lexicographic order; ``period`` is the exponent of the group.

    Over the generating set g1..gk of orders o1..ok, every element x gets a
    coordinate row: the first exponent tuple e, in lexicographic order, with
    x = g1^e1 ... gk^ek.  The candidate for exponents c has phases
    sum_j c_j e_j L / o_j in units of 1/L, L = lcm(o1..ok); all candidates
    come from one product of the exponent and coordinate matrices.  A
    candidate is kept when its phases add up along the full table, all rows
    in one (k, m, m) compare, so every kept row is exactly multiplicative.
    """
    if not group.is_abelian:
        raise InvalidGroupError("character enumeration requires an abelian group")
    m, table = group.order, group.table
    gens = group.generating_set()
    if not gens:
        return np.zeros((1, 1), dtype=np.int64), 1
    orders = np.array([group.element_orders[g] for g in gens])
    exps = np.stack(np.unravel_index(np.arange(orders.prod()), orders), axis=1)
    elems = np.full(len(exps), group.identity)
    for g, o, col in zip(gens, orders, exps.T):
        powers = [group.identity]
        for _ in range(o - 1):
            powers.append(table[powers[-1], g])
        elems = table[elems, np.array(powers)[col]]
    coords = exps[np.unique(elems, return_index=True)[1]]
    period = int(np.lcm.reduce(orders))
    phases = np.unique((exps * (period // orders)) @ coords.T % period, axis=0)
    valid = phases[(phases[:, table] == (phases[:, :, None] + phases[:, None, :]) % period)
                   .all(axis=(1, 2))]
    if len(valid) != m:
        raise InvalidGroupError(f"expected {m} characters, found {len(valid)}")
    return valid, period


def abelian_characters(group: BinaryGroup) -> np.ndarray:
    """All 1-dim complex characters of an abelian group, as a (m, m) array.

    The :func:`abelian_phases` rows as roots of unity, sorted by rounded
    value vector, so the order is reproducible.
    """
    phases, period = abelian_phases(group)
    values = np.exp(2j * np.pi * phases / period)
    keys = [str(tuple(np.round(v, 9).tolist())) for v in values]
    return values[sorted(range(len(keys)), key=keys.__getitem__)]


def commutator_subgroup(group: BinaryGroup) -> tuple[int, ...]:
    """Subgroup generated by all commutators a b a^-1 b^-1."""
    t, inv = group.table, group.inverse
    return close(t, inv, t[t, t[np.ix_(inv, inv)]].reshape(-1))


def linear_characters(group: BinaryGroup) -> np.ndarray:
    """All 1-dim characters, for any finite group.

    Linear characters factor through the abelianization, so they are the
    characters of the quotient by the commutator subgroup pulled back along
    the block map.
    """
    quot, index = group.quotient(commutator_subgroup(group))
    return abelian_characters(quot)[:, index]


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


@dataclass(frozen=True, eq=False)
class HGData:
    """Binary group, automorphism phi and element b presenting an n-ary group.

    The invariants are the classical decomposition conditions: phi fixes b,
    and phi^(n-1) is conjugation by b; the n-ary operation is then
    ``x1 * phi(x2) * phi^2(x3) * ... * phi^(n-1)(xn) * b``.  They are checked
    on construction; ``phi`` is a read-only copy and ``phi_powers`` read-only.
    """

    group: BinaryGroup
    phi: np.ndarray
    b: int
    arity: int

    def __post_init__(self):
        object.__setattr__(self, "phi", read_only(np.array(self.phi, dtype=np.int64)))
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
        return read_only(out)


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
