"""n-ary subgroups, normality, cosets, quotients and simplicity classes.

A subgroup is a non-empty subset closed under the operation and under the
skew map.  Normality follows the conjugation-style condition
``f(a^(n-3), skew(a), h, a) in H``.  Quotients by normal subgroups are n-ary
groups with the subgroup as identity block, hence reducible to an ordinary
group; that reduction is what eventually carries representations back to
binary group theory.
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
    """Closure under the operation and the skew map, with witnesses."""
    elems = sorted({int(x) for x in elems})
    if not elems:
        return VerificationReport.fail([("subgroup-empty", ())])
    mask = np.zeros(group.order, dtype=bool)
    mask[elems] = True
    failures = []
    inside = mask[group(*np.ix_(*[elems] * group.arity))]
    if not inside.all():
        pos = np.argwhere(~inside)[0]
        failures.append(("subgroup-closure", tuple(elems[int(i)] for i in pos)))
    outside = np.flatnonzero(~mask[group.skew_table()[elems]])
    if outside.size:
        failures.append(("subgroup-skew", (elems[outside[0]],)))
    if failures:
        return VerificationReport.fail(failures)
    return VerificationReport.ok(checked=len(elems) ** group.arity + len(elems))


def is_subgroup(group: NaryGroup, elems) -> bool:
    return verify_subgroup(group, elems).passed


def subgroup_closure(group: NaryGroup, gens) -> SubgroupRef:
    """Smallest f-closed, skew-closed subset containing ``gens``."""
    # binary.close grows masks on a materialized table
    return close(group.dense(), group.skew_table(), [int(x) for x in gens])


def subgroups(group: NaryGroup) -> list[SubgroupRef]:
    """All n-ary subgroups, sorted lexicographically; complete up to order 24.

    One closure-lattice search: start from the closures of single elements,
    then close ``S + {x}`` for every subgroup S found and every x outside it,
    until no new subgroup appears.  Every subgroup H is reached, by adding
    its elements one at a time to the closure of one of them.

    For each S only one x per set f(S^(n-1), x) is tried.  That loses
    nothing: y = f(s1, ..., s(n-1), x) with si in S lies in <S, x>; and
    z -> f(s1, ..., s(n-1), z) is injective and maps the finite <S, y> into
    itself, hence onto it, so the unique preimage x of y lies in <S, y>.
    Thus <S, y> = <S, x>, and trying y would add nothing.
    """
    m, n = group.order, group.arity
    if m > SUBGROUP_ORDER_LIMIT:
        raise SizeLimitError(f"subgroup enumeration limited to order {SUBGROUP_ORDER_LIMIT}")
    table, skews = group.dense(), group.skew_table()   # thousands of closures on one table
    found = {close(table, skews, [x]) for x in range(m)}
    todo = list(found)
    while todo:
        s = list(todo.pop())
        done = np.zeros(m, dtype=bool)
        done[s] = True
        # column x holds the set f(S^(n-1), x)
        reached = table[np.ix_(*([s] * (n - 1)))].reshape(-1, m)
        for x in range(m):
            if done[x]:
                continue
            done[reached[:, x]] = True
            h = close(table, skews, s + [x])
            if h not in found:
                found.add(h)
                todo.append(h)
    return sorted(found)


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
    A singleton normal subgroup forces its element to be central, and the
    group is then a twisted product over its retract there: abelian carrier
    or reducible non-abelian carrier.  Since :func:`subgroups` is complete,
    a group with neither has no normal subgroup but itself, and is reported
    as a strongly simple candidate.
    """
    from .retract import hg_decompose

    m = group.order
    all_subs = subgroups(group)
    normals = tuple(h for h in all_subs if _is_normal(group, h))   # subgroups() returns closures
    proper = tuple(h for h in normals if len(h) >= 2 and len(h) < m)
    if proper:
        return SimplicityReport(HAS_PROPER_NORMAL, normals, proper)
    singles = [h[0] for h in normals if len(h) == 1]
    if singles:
        p = singles[0]
        if not is_central(group, p):
            raise InvalidGroupError(
                f"singleton normal subgroup {{{p}}} with non-central element"
            )
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
