"""n-ary subgroups, normality, cosets, quotients and simplicity classes.

A subgroup is a non-empty subset closed under the operation and under the
skew map.  Normality follows the conjugation-style condition
``f(a^(n-3), skew(a), h, a) in H``; the normal subgroups are listed from the
decomposition (G, phi, b), without enumerating subgroups.  Quotients by
normal subgroups are n-ary groups with the subgroup as identity block, hence
reducible to an ordinary group; that reduction is what eventually carries
representations back to binary group theory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .binary import BinaryGroup, HGData, close, coset_partition, read_only
from .core import NaryGroup, is_nary_identity
from .errors import InvalidGroupError, SizeLimitError
from .report import VerificationReport
from .retract import retract

SubgroupRef = tuple[int, ...]

SUBGROUP_ORDER_LIMIT = 24


def verify_subgroup(group: NaryGroup, elems) -> VerificationReport:
    """Closure under the operation and the skew map, with witnesses: |H|^2 + |H| values of f.

    With a = min(H), H is closed under f iff it is a subgroup of the retract
    Ret_a (x.y = f(x, a^(n-2), y)) that phi_a (x -> f(skew(a), x, a^(n-2)))
    maps into itself.  Forward, both are values of f on H, once skew(a) is in
    H.  Conversely, a product-closed subset of the finite Ret_a is a subgroup,
    so it holds the identity skew(a); at anchor a the twist b_a is
    (phi_a(a) ... phi_a^(n-2)(a))^-1, in H, so the Hosszú–Gluskin form
    x1 phi_a(x2) ... phi_a^(n-1)(xn) b_a stays in H.  The |H|^2 grid
    (x, a^(n-2), y) is checked first; only if it stays in H is the phi_a line
    (skew(a), h, a^(n-2)) checked.  A failing row is a failing n-tuple of H
    and is the closure witness.  The skew check reads the skew table.
    """
    elems = sorted({int(x) for x in elems})
    if not elems:
        return VerificationReport.fail([("subgroup-empty", ())])
    n, a, h = group.arity, elems[0], np.array(elems, dtype=np.int64)
    mask = np.zeros(group.order, dtype=bool)
    mask[h] = True
    failures = []
    products = group(h[:, None], *(a,) * (n - 2), h)
    bad = np.argwhere(~mask[products])
    if bad.size:
        x, y = h[bad[0]]
        failures.append(("subgroup-closure", (int(x),) + (a,) * (n - 2) + (int(y),)))
    else:
        abar = int(group.skew_table()[a])
        bad = np.flatnonzero(~mask[group(abar, h, *(a,) * (n - 2))])
        if bad.size:
            failures.append(("subgroup-closure", (abar, int(h[bad[0]])) + (a,) * (n - 2)))
    outside = np.flatnonzero(~mask[group.skew_table()[h]])
    if outside.size:
        failures.append(("subgroup-skew", (elems[outside[0]],)))
    if failures:
        return VerificationReport.fail(failures)
    return VerificationReport.ok(checked=len(h) ** 2 + 2 * len(h))


def is_subgroup(group: NaryGroup, elems) -> bool:
    return verify_subgroup(group, elems).passed


def subgroup_closure(group: NaryGroup, gens) -> SubgroupRef:
    """Smallest f-closed, skew-closed subset containing ``gens``."""
    # binary.close grows masks on a materialized table
    return close(group.dense(), group.skew_table(), [int(x) for x in gens])


def subgroups(group: NaryGroup) -> list[SubgroupRef]:
    """All n-ary subgroups, sorted lexicographically; complete up to order 24.

    :func:`normal_subgroups` lists the normal ones without this search, at any order.

    A closure lattice, built level by level from the decomposition (G, phi, b):
    level 0 closes the m singletons; each further level closes ``S + {x}``
    for every subgroup S new at the level before and every x outside it,
    until a level brings no new subgroup.  Every subgroup H is reached, by
    adding its elements one at a time to the closure of one of them.  Rows
    are told apart by integer keys, their elements as bits (m <= 24).

    All sets of a level are closed in one batch of (k, m) masks by
    :func:`_close_rows`: no m^n table is read, and a round costs n - 1 set
    products in G, O(n k m^2).
    """
    m = group.order
    if m > SUBGROUP_ORDER_LIMIT:
        raise SizeLimitError(f"subgroup enumeration limited to order {SUBGROUP_ORDER_LIMIT}")
    gathers = _product_gathers(group.hg)
    weights = 1 << np.arange(m)            # a row's key: its elements as bits
    rows, found = _close_rows(gathers, np.eye(m, dtype=bool)), {}
    while True:
        new = {}
        for key, row in zip((rows @ weights).tolist(), rows):
            if key not in found:
                found[key] = new[key] = row
        if not new:
            return sorted(tuple(np.flatnonzero(r).tolist()) for r in found.values())
        # every new S joined with every x outside it
        new = np.array(list(new.values()))
        level = np.repeat(new, m, axis=0)
        level[np.arange(len(level)), np.tile(np.arange(m), len(new))] = True
        level = level[~new.reshape(-1)]
        rows = _close_rows(gathers, level[np.unique(level @ weights, return_index=True)[1]])


def _product_gathers(hg: HGData) -> np.ndarray:
    """Where the factors of f(M^n) = M phi(M) ... phi^(n-1)(M) b read M: an (n-1, m, m) array.

    Entry [k-1, x, z] is the element whose membership in M decides that of
    x^-1 z in the factor phi^k(M): phi^-k(x^-1 z), and phi^-(n-1)(x^-1 z b^-1)
    for the last factor, which carries b.
    """
    t, inv, m = hg.group.table, hg.group.inverse, hg.group.order
    ldiv = t[inv[:, None], np.arange(m)]
    unphi = np.argsort(hg.phi_powers[1:], axis=1)   # the inverse permutations
    gathers = unphi[:, ldiv]
    gathers[-1] = unphi[-1][t[ldiv, inv[hg.b]]]
    return gathers


def _close_rows(gathers: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Close every row of a (k, m) bool mask under f: M <- M | f(M^n) until no row grows.

    f(M^n) = M phi(M) ... phi^(n-1)(M) b is n - 1 set products in G, read
    through :func:`_product_gathers`.  A product C = A B has C[r, z] =
    or_x A[r, x] and B[r, x^-1 z]: one float32 batched matmul of A against B
    gathered, its counts clipped to 1.  A row holding more than half the
    carrier closes to the carrier (the lemma of :func:`~polyadic.binary.close`);
    a row leaves the batch when it stops growing.  A non-empty f-closed
    subset of a finite n-ary group is a subgroup, so no skew step is needed.
    """
    m = masks.shape[1]
    out = masks.copy()
    rows, cur = np.arange(len(out)), masks
    count = np.count_nonzero(cur, axis=1)
    while len(rows):
        big = 2 * count > m
        out[rows[big]] = True
        rows, cur, count = rows[~big], cur[~big], count[~big]
        f = cur.astype(np.float32)
        prod = f
        for g in gathers:
            prod = np.matmul(prod[:, None, :], f[:, g])[:, 0]
            np.minimum(prod, 1, out=prod)
        cur = cur | (prod > 0)
        grown = np.count_nonzero(cur, axis=1)
        done = grown == count
        out[rows[done]] = cur[done]
        rows, cur, count = rows[~done], cur[~done], grown[~done]
    return out


def _require_subgroup(group: NaryGroup, subgroup: SubgroupRef) -> None:
    report = verify_subgroup(group, subgroup)
    if not report.passed:
        raise InvalidGroupError(f"not a subgroup: {report.first().axiom}")


def is_normal(group: NaryGroup, subgroup: SubgroupRef) -> bool:
    """f(a^(n-3), skew(a), h, a) stays in the subgroup for all h, a."""
    _require_subgroup(group, subgroup)
    return _is_normal(group, subgroup)


def _is_normal(group: NaryGroup, subgroup: SubgroupRef) -> bool:
    """:func:`is_normal` for a subgroup already verified."""
    n, m = group.arity, group.order
    inside = np.zeros(m, dtype=bool)
    inside[list(subgroup)] = True
    a = np.arange(m)[:, None]          # rows a, columns h
    values = group(*(a,) * (n - 3), group.skew_table()[a], np.flatnonzero(inside), a)
    return bool(inside[values].all())


def normal_subgroups(group: NaryGroup) -> list[SubgroupRef]:
    """All normal n-ary subgroups, sorted lexicographically, from the decomposition (G, phi, b).

    The product of G and phi are polynomial operations of f, so the
    congruences of (G, f) are the coset partitions of the normal subgroups N
    of G with phi(N) = N, and a normal n-ary subgroup is a block xN that is
    an n-ary identity of the quotient: f(x^i, y, x^(n-1-i)) lies in yN for
    every y and every place i.  No subgroup is enumerated and no m^n table
    is read:

    - the orbits of <inner automorphisms, phi> on G each generate a
      phi-invariant normal subgroup A, one closure on the m x m table each;
    - every phi-invariant normal N is a join of those, reached from {e} by
      joins with one A at a time, level by level in a (k, m) bool mask
      matrix: N A is the union of the cosets xA (labelled by least member)
      that meet N, one scatter and one gather per level;
    - every N and every x are tested in one gather of the masks, by the
      two-place theorem: xN is an identity iff y^-1 x phi(y) S_1(x) lies in
      N for every y, S_1(x) = phi^2(x) ... phi^(n-1)(x) b.

    Two-place theorem.  In Post's cover E = G x Z_(n-1), (x, i)(y, j) =
    (x phi^i(y) b^[i+j >= n-1], i+j mod n-1), iota(x) = (x, 1) turns f into
    the product of E, and N^ = N x {0} is normal.  Place 0 puts iota(x)^(n-1)
    in N^; with it, place 1 makes iota(x) commute mod N^ with every iota(y),
    and these generate E, so iota(x)^i iota(y) iota(x)^(n-1-i) = iota(y) mod
    N^ at every place i.  In G, place 1 is x phi(y) S_1(x) in yN, and place 0,
    phi(x) S_1(x) in N, is place 1 at y = x.
    """
    hg = group.hg
    base, phi = hg.group, hg.phi
    t, inv, m = base.table, base.inverse, base.order
    moves = np.vstack([t[t, inv[:, None]], phi])   # rows a: x -> a x a^-1, then phi
    orbits = Partition.components(moves).blocks
    gens = np.zeros((len(orbits), m), dtype=bool)
    for row, orbit in zip(gens, orbits):
        row[list(close(t, inv, list(orbit)))] = True
    gens = np.unique(gens, axis=0)                 # orbits may generate alike
    ldiv = t[inv[:, None], np.arange(m)]           # ldiv[x, z] = x^-1 z
    least = gens[:, ldiv].argmax(axis=2)           # [A, x]: the least member of xA
    a = np.arange(len(gens))
    level = (np.arange(m) == base.identity)[None]
    masks, seen = [level], {level.tobytes()}
    while len(level):
        which, member = np.nonzero(level)
        meets = np.zeros((len(level), len(gens), m), dtype=bool)   # [N, A, c]: coset c meets N
        meets[which[:, None], a, least[:, member].T] = True
        grown = meets[:, a[:, None], least].reshape(-1, m)          # every N A
        fresh = {row.tobytes(): row for row in grown}
        level = np.array([row for key, row in fresh.items() if key not in seen],
                         dtype=bool).reshape(-1, m)
        seen.update(fresh)
        masks.append(level)
    masks = np.concatenate(masks)
    s1 = np.full(m, base.identity)                 # S_1(x) = phi^2(x) ... phi^(n-1)(x) b
    for power in hg.phi_powers[2:]:
        s1 = t[s1, power]
    s1 = t[s1, hg.b]
    place1 = t[inv, t[t[:, phi], s1[:, None]]]          # [x, y]: y^-1 x phi(y) S_1(x)
    ok = masks[:, place1].all(axis=2)                   # [N, x]: xN is an identity
    passing = ok.any(axis=1)
    cosets = masks[passing][:, ldiv]                    # [N, x, z]: z in xN
    leaders = ok[passing] & (cosets.argmax(axis=2) == np.arange(m))
    return sorted(tuple(np.flatnonzero(c).tolist()) for c in cosets[leaders])


@dataclass(frozen=True, eq=False)
class Partition:
    """Disjoint sorted blocks covering {0..m-1}, numbered by least member.

    ``index[x]`` is the number of the block holding x.
    """

    blocks: tuple[tuple[int, ...], ...]
    index: np.ndarray

    @classmethod
    def from_index(cls, index) -> "Partition":
        """The partition with block numbers ``index`` (ordered by least member), copied read-only."""
        index = read_only(np.array(index, dtype=np.int64))
        members = np.argsort(index, kind="stable")
        bounds = np.cumsum(np.bincount(index))[:-1]
        return cls(tuple(tuple(b.tolist()) for b in np.split(members, bounds)), index)

    @classmethod
    def components(cls, table) -> "Partition":
        """Components of the graph joining a to ``table[x, a]`` for every row x.

        Label propagation: each round lowers every label to the least label of
        its images (pull) and sources (push, ``np.minimum.at``), then to its
        label's label.  Labels only fall and stay in their component, so the
        fixed point is each component's least member, for non-bijective rows too.
        """
        labels = np.arange(table.shape[1])
        while True:
            new = np.minimum(labels, labels[table].min(axis=0))
            np.minimum.at(new, table.reshape(-1), np.broadcast_to(labels, table.shape).reshape(-1))
            new = new[new]
            if np.array_equal(new, labels):
                return cls.from_index(np.unique(labels, return_inverse=True)[1].reshape(-1))
            labels = new

    @property
    def representatives(self) -> tuple[int, ...]:
        return tuple(b[0] for b in self.blocks)

    def block_of(self, x: int) -> int:
        return int(self.index[x])

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)


def cosets(group: NaryGroup, subgroup: SubgroupRef) -> Partition:
    """Left cosets aH = {f(a, x^(n-2), y) : x, y in H}, verified to partition.

    One evaluation on the broadcast (a, x, y) grid of (a, x^(n-2), y) gives
    the member matrix that :func:`~polyadic.binary.coset_partition` checks
    and turns into blocks.
    """
    _require_subgroup(group, subgroup)
    return _cosets(group, subgroup)


def _cosets(group: NaryGroup, subgroup: SubgroupRef) -> Partition:
    """:func:`cosets` of a subgroup already verified."""
    n, m = group.arity, group.order
    h = np.array(sorted(subgroup), dtype=np.int64)
    members = group(np.arange(m)[:, None, None], *(h[:, None],) * (n - 2), h)
    return Partition.from_index(coset_partition(members.reshape(m, -1), len(h))[1])


@dataclass(frozen=True)
class QuotientGroup:
    """Quotient n-ary group together with its block structure."""

    base: NaryGroup
    group: NaryGroup
    partition: Partition
    identity_block: int

    @property
    def block_index(self) -> np.ndarray:
        return self.partition.index

    def retract_group(self) -> BinaryGroup:
        """The ordinary group the quotient reduces to (retract at the identity block)."""
        return retract(self.group, self.identity_block)


def quotient(group: NaryGroup, subgroup: SubgroupRef) -> QuotientGroup:
    """Blockwise operation f_H(a1 H, ..., an H) = f(a1..an) H for normal H.

    Well-definedness is checked exhaustively: the block of f must be constant
    across every choice of representatives.  The quotient table is then not
    verified again: a well-defined blockwise operation makes the block map a
    surjective homomorphism, and a finite homomorphic image of an n-ary
    group is one: images of solutions solve the image equations, and a
    surjective translation of a finite carrier is a bijection.  The subgroup
    is verified once, by :func:`is_normal`.
    """
    if not is_normal(group, subgroup):
        raise InvalidGroupError(f"{subgroup} is not a normal subgroup")
    table = group.dense()   # every choice of representatives; refused before the work
    part = _cosets(group, subgroup)
    n, cls = group.arity, part.index
    q = len(part.blocks)
    qtable = cls[group(*np.ix_(*[part.representatives] * n))]
    blocked = cls[table]
    expected = qtable[np.ix_(*([cls] * n))]
    if not np.array_equal(blocked, expected):
        bad = np.argwhere(blocked != expected)[0]
        raise InvalidGroupError(
            f"blockwise operation not well-defined at {tuple(int(v) for v in bad)}"
        )
    ident = part.blocks.index(tuple(sorted(subgroup)))
    # At the identity block e the quotient is derived from its retract, a group by Dörnte that
    # the constructor checks (q^3); qtable stays the dense cache, written as such, uncertified.
    base = BinaryGroup(qtable[(slice(None),) + (ident,) * (n - 2) + (slice(None),)], check=False)
    qgroup = NaryGroup._with_dense_cache(HGData(base, np.arange(q), base.identity, n), qtable)
    if not is_nary_identity(qgroup, ident):
        raise InvalidGroupError("subgroup block is not a quotient identity")
    return QuotientGroup(group, qgroup, part, ident)


def is_central(group: NaryGroup, c: int) -> bool:
    """Can c be swapped with a neighbouring argument without changing any value?"""
    n = group.arity
    table = group.dense()   # every cell, with c at each place
    for pos in range(n - 1):
        left = np.moveaxis(table, (pos, pos + 1), (0, 1))[c]      # c at pos
        right = np.moveaxis(table, (pos, pos + 1), (0, 1))[:, c]  # c at pos+1
        if not np.array_equal(left, right):
            return False
    return True


def central_elements(group: NaryGroup) -> tuple[int, ...]:
    return tuple(c for c in range(group.order) if is_central(group, c))


@dataclass(frozen=True)
class SimplicityReport:
    """Outcome of the four-way normal-subgroup classification."""

    case: str
    normal_subgroups: tuple[SubgroupRef, ...]
    proper_normal: tuple[SubgroupRef, ...]
    central_singleton: int | None = None
    twist: int | None = None
    carrier_abelian: bool | None = None


HAS_PROPER_NORMAL = "has-proper-normal"
B_DERIVED_ABELIAN = "b-derived-abelian"
REDUCIBLE_NONABELIAN = "reducible-nonabelian"
STRONGLY_SIMPLE_CANDIDATE = "strongly-simple-candidate"


def classify_simplicity(group: NaryGroup) -> SimplicityReport:
    """Classify by normal subgroups: proper ones, central singleton, or neither.

    "Proper" means distinct from the whole group with at least two elements.
    The normal subgroups come from :func:`normal_subgroups`, which is
    complete at any order and reads no m^n table.  A singleton normal
    subgroup {p} is an n-ary identity, so Ret_p has identity p, phi_p = id
    and b_p = p: p is central, and the group is derived from its retract
    there, with an abelian or a reducible non-abelian carrier.  The
    decomposition at p is still built, and its twist map checked.  A group
    with neither has no normal subgroup but itself, and is reported as a
    strongly simple candidate.
    """
    from .retract import hg_decompose

    m = group.order
    normals = tuple(normal_subgroups(group))
    proper = tuple(h for h in normals if len(h) >= 2 and len(h) < m)
    if proper:
        return SimplicityReport(HAS_PROPER_NORMAL, normals, proper)
    singles = [h[0] for h in normals if len(h) == 1]
    if singles:
        p = singles[0]
        data = hg_decompose(group, p)
        if not np.array_equal(data.phi, np.arange(m)):
            raise InvalidGroupError(
                "decomposition at a central element should have trivial twist map"
            )
        if data.group.is_abelian:
            return SimplicityReport(
                B_DERIVED_ABELIAN, normals, proper,
                central_singleton=p, twist=int(data.b), carrier_abelian=True,
            )
        if data.b == data.group.identity:
            return SimplicityReport(
                REDUCIBLE_NONABELIAN, normals, proper,
                central_singleton=p, twist=int(data.b), carrier_abelian=False,
            )
        raise InvalidGroupError("non-abelian carrier with non-identity central twist")
    return SimplicityReport(STRONGLY_SIMPLE_CANDIDATE, normals, proper)
