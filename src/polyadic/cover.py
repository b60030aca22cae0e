"""Post covering groups: the binary group on G x Z_(n-1) realizing the operation.

The smallest covering group at anchor a multiplies pairs by padding with
anchor copies and one anchor skew so the total length folds back into the
carrier:

    <x,r> * <y,s> = <fold(x, a^r, y, a^s, skew(a), a^(n-2-r*s)), r*s>

with r*s = (r+s+1) mod (n-1).  The carrier embeds as the <x,0> slice, the
retract reappears as the normal subgroup H = {<x,n-2>} (x -> <x,n-2> is the
isomorphism) with cyclic quotient of order n-1, and n-fold products of
embedded elements project back onto the n-ary operation.  That last law is
decided by the homomorphism certificate of
:func:`polyadic.core.homomorphism_certificate_rows`, m^2 + m + 1 tuples
instead of all m^n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .binary import BinaryGroup, read_only
from .core import NaryGroup, homomorphism_certificate_rows, retract_table
from .errors import InvalidGroupError
from .report import VerificationReport


@dataclass(frozen=True)
class CoveringGroup:
    """Covering group of ``base`` at ``anchor``, with pair enumeration x*(n-1)+t."""

    base: NaryGroup
    anchor: int
    group: BinaryGroup

    @property
    def period(self) -> int:
        return self.base.arity - 1

    def pair_index(self, x: int, t: int) -> int:
        return int(x) * self.period + int(t)

    def pair_of(self, idx: int) -> tuple[int, int]:
        return divmod(int(idx), self.period)

    @cached_property
    def embed(self) -> np.ndarray:
        """Indices of the <x,0> slice identified with the carrier, read-only."""
        return read_only(np.arange(self.base.order, dtype=np.int64) * self.period)


def covering_group(group: NaryGroup, a: int) -> CoveringGroup:
    """Build the smallest covering group at anchor a of a verified n-ary group.

    Each (r, s) block of the table holds the m^2 products <x,r> * <y,s>.
    Their sequence x, a^r, y, a^s, skew(a), a^(n-2-r*s) has length n or
    2n-1, so a block is one left fold of the operation on the broadcast
    (x, y) grid: one evaluation for length n, two for 2n-1.  The table is a
    group by Post's theorem ("Polyadic groups", 1940), so it is not
    re-checked; its identity must be <skew(a), n-2>, or the build raises.
    The closed-form inverse
    ``<fold(skew(a), a^(n-2-t), skew(x), x^(n-3), skew(a), a^(n-2-k)), k>``
    with ``k = (n-3-t) mod (n-1)`` is proved equal to the table's inverse by
    the tests (``tests/oracle.py``), not here.
    """
    m, n = group.order, group.arity
    period = n - 1
    a = int(a)
    abar = group.skew(a)
    x = np.arange(m)
    table = np.empty((m, period, m, period), dtype=np.int64)
    for r in range(period):
        for s in range(period):
            rs = (r + s + 1) % period
            seq = (x[:, None],) + (a,) * r + (x,) + (a,) * s + (abar,) + (a,) * (n - 2 - rs)
            acc = group(*seq[:n])
            if len(seq) > n:
                acc = group(acc, *seq[n:])
            table[:, r, :, s] = acc * period + rs
    size = m * period
    cover = BinaryGroup(table.reshape(size, size), check=False)
    if cover.identity != abar * period + (n - 2):
        raise InvalidGroupError(
            f"cover identity is {cover.identity}, expected pair ({abar},{n - 2})"
        )
    return CoveringGroup(group, a, cover)


def cover_H(cover: CoveringGroup) -> tuple[int, ...]:
    """The slice H = {<x, n-2>}: normal, cyclic quotient of order n-1, a retract copy.

    The cover product adds pair coordinates as t = (r+s+1) mod (n-1), so one
    table compare proves <x,t> -> t+1 a homomorphism onto Z_(n-1).  Its
    kernel is H, which is therefore normal with cyclic quotient of order
    n-1.  And x -> <x, n-2> is itself an isomorphism Ret_a -> H: the cover
    product <x, n-2> * <y, n-2> folds f(f(x, a^(n-2), y), a^(n-2), skew(a)),
    which is (x.y).skew(a) = x.y in Ret_a.  So one m^2 table compare proves
    H a retract copy; each check that fails raises.
    """
    n, p = cover.base.arity, cover.period
    table = cover.group.table
    t = np.arange(len(table)) % p
    if not np.array_equal(table % p, (t[:, None] + t[None, :] + 1) % p):
        raise InvalidGroupError(
            f"<x,t> -> t+1 is not a homomorphism onto Z_{p}: H is not the kernel of a cyclic quotient"
        )
    h = cover.embed + (n - 2)
    if not np.array_equal(table[np.ix_(h, h)], h[retract_table(cover.base, cover.anchor)]):
        raise InvalidGroupError("x -> <x, n-2> is not an isomorphism from the retract onto H")
    return tuple(h.tolist())


def verify_embedding(cover: CoveringGroup) -> VerificationReport:
    """n-fold products of embedded elements must project to the n-ary operation.

    Decided by the homomorphism certificate: the product law holds on every
    n-tuple iff it holds on the m^2 + m + 1 rows of
    :func:`~polyadic.core.homomorphism_certificate_rows`
    (``method="certificate"``).  A failing row is itself a failing n-tuple
    and is reported as the witness.
    """
    g = cover.base
    emb = cover.embed
    table = cover.group.table
    rows = homomorphism_certificate_rows(g)
    acc = emb[rows[:, 0]]
    for k in range(1, g.arity):
        acc = table[acc, emb[rows[:, k]]]
    bad = np.nonzero(acc != emb[g(*rows.T)])[0]
    failures = [("embedding-product", rows[bad[0]])] if bad.size else []
    return VerificationReport.certificate(failures, checked=len(rows))
