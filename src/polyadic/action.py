"""Actions of n-ary groups on finite sets; conjugacy via the canonical self-action.

An action assigns to every group element a map on points such that folding
the group operation matches composing the maps, every point is fixed by some
element, and every element acts bijectively.  The canonical self-action
``x.a = f(x, a, x^(n-3), skew(x))`` turns orbits into conjugacy classes and
stabilizers into centralizers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .binary import read_only
from .core import NaryGroup, homomorphism_certificate_rows, is_semiabelian
from .errors import InvalidGroupError
from .report import VerificationReport
from .structure import Partition, SubgroupRef, _require_subgroup, verify_subgroup


@dataclass(frozen=True, eq=False)
class Action:
    """Materialized action table: ``table[x, a]`` is the image of point a under x (a read-only copy)."""

    group: NaryGroup
    npoints: int
    table: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "table", read_only(np.array(self.table, dtype=np.int64)))
        if self.table.shape != (self.group.order, self.npoints):
            raise InvalidGroupError("action table must be (order, npoints)")
        if self.table.size and (self.table.min() < 0 or self.table.max() >= self.npoints):
            raise InvalidGroupError("action table entries must be point indices")

    def apply(self, x: int, a: int) -> int:
        return int(self.table[x, a])


def verify_action(act: Action) -> VerificationReport:
    """Check the three action axioms (bijectivity, fixed points, composition).

    Once every element acts bijectively, x -> act.table[x] maps the group
    into the permutations of the points, so its composition axiom
    f(x1..xn).a = x1.(x2.(...(xn.a))) is decided by the homomorphism
    certificate: the m^2 + m + 1 rows of
    :func:`~polyadic.core.homomorphism_certificate_rows`, at every point
    (``method="certificate"``, ``checked`` = (m^2 + m + 1) * npoints).  A
    failing row, extended by the failing point, is a genuine witness; without
    bijectivity the rows can still refute composition, but not prove it.  The
    group must verify: :class:`InvalidGroupError` is raised otherwise.
    """
    g, t, points = act.group, act.table, np.arange(act.npoints)
    failures = []
    bad = np.flatnonzero((np.sort(t, axis=1) != points).any(axis=1))
    if bad.size:
        failures.append((f"action-bijectivity(x={bad[0]})", (bad[0],)))
    unfixed = np.flatnonzero(~(t == points).any(axis=0))
    if unfixed.size:
        failures.append(("action-fixed-point", (unfixed[0],)))
    rows = homomorphism_certificate_rows(g)
    composed = t[rows[:, -1]]
    for k in range(g.arity - 2, -1, -1):
        composed = np.take_along_axis(t[rows[:, k]], composed, axis=1)
    wrong = np.argwhere(t[g(*rows.T)] != composed)
    if wrong.size:
        r, a = wrong[0]
        failures.append(("action-composition", tuple(rows[r]) + (a,)))
    return VerificationReport.certificate(failures, checked=len(rows) * len(points))


def canonical_action(group: NaryGroup) -> Action:
    """The self-action x.a = f(x, a, x^(n-3), skew(x)), one evaluation on the (x, a) grid."""
    m, n = group.order, group.arity
    x = np.arange(m)[:, None]
    return Action(group, m, group(x, np.arange(m), *(x,) * (n - 3), group.skew_table()[x]))


def orbits(act: Action) -> Partition:
    """Components of the graph joining a to x.a; blocks keyed by least member.

    :meth:`Partition.components` of the action table, by label propagation.
    """
    return Partition.components(act.table)


def stabilizer(act: Action, a: int) -> SubgroupRef:
    """{x : x.a = a}, verified to be an n-ary subgroup."""
    elems = tuple(int(x) for x in np.nonzero(act.table[:, a] == a)[0])
    report = verify_subgroup(act.group, elems)
    if not report.passed:
        raise InvalidGroupError(
            f"stabilizer of {a} is not a subgroup: {report.first().axiom}"
        )
    return elems


def conjugacy_classes(group: NaryGroup) -> Partition:
    """Orbits of the canonical self-action."""
    return orbits(canonical_action(group))


def centralizer(group: NaryGroup, a: int) -> SubgroupRef:
    """Stabilizer of a under the canonical action; the shifted identities hold on it.

    They are f(x^i, a, x^j, skew(x), x^k) = a and its variant with a and
    skew(x) exchanged, i+j+k = n-2.  Post's embedding iota into the covering
    group turns f into its product and skew(x) into iota(x)^-(n-2), so x.a = a
    says iota(x) commutes with iota(a); either variant conjugates iota(a) by
    a power of iota(x).
    """
    return stabilizer(canonical_action(group), a)


def is_conjugation_congruence(group: NaryGroup) -> bool:
    """Is componentwise conjugacy compatible with the operation?

    True iff the class of f(x1..xn) only depends on the classes of the
    arguments, checked over all tuples.  Guaranteed for semiabelian groups.
    Each tuple's class tuple is one int64 key (c^n <= m^n); one ``np.unique``
    over the pairs (key, class of value) then holds one pair per key exactly
    when the classes of values are determined by the keys.
    """
    cls = conjugacy_classes(group).index
    c, table = int(cls.max()) + 1, group.dense()   # every tuple is checked
    key = np.zeros((), dtype=np.int64)
    for _ in range(group.arity):
        key = key[..., None] * c + cls
    pairs = np.unique(key * c + cls[table])
    return bool((np.diff(pairs // c) > 0).all())


def conjugate_subgroup_closure(group: NaryGroup, subgroup: SubgroupRef) -> SubgroupRef:
    """All elements conjugate to members of the subgroup (semiabelian only)."""
    if not is_semiabelian(group):
        raise InvalidGroupError("conjugate closure requires a semiabelian group")
    _require_subgroup(group, subgroup)
    classes = conjugacy_classes(group)
    out: set[int] = set()
    for blk in classes.blocks:
        if set(blk) & set(subgroup):
            out |= set(blk)
    closure = tuple(sorted(out))
    check = verify_subgroup(group, closure)
    if not check.passed:
        raise InvalidGroupError(
            f"conjugate closure is not a subgroup: {check.first().axiom}"
        )
    return closure
