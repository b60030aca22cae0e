"""Binary retracts and the decomposition of n-ary groups into twisted form.

Any verified n-ary group is, for every anchor a, the group
``Ret_a: x*y = f(x, a^(n-2), y)`` twisted by an automorphism phi and an
element b so that ``f(x1..xn) = x1 phi(x2) phi^2(x3) ... phi^(n-1)(xn) b``.
phi and b are read from the table at the anchor's skew (phi(x) =
f(skew(a), x, a^(n-2)), b = f(skew(a)^n)).  :class:`~polyadic.binary.HGData`
checks the automorphism, fixpoint and conjugation conditions on construction
and fails loudly if one does not hold.  The product formula is not re-checked
on the group: for a verified n-ary group it holds by the theorem, and
``tests/test_retract.py`` keeps the full rebuild as an oracle.
"""

from __future__ import annotations

import numpy as np

from .binary import BinaryGroup, HGData
from .core import NaryGroup, retract_table
from .errors import InvalidGroupError


def retract(group: NaryGroup, a: int) -> BinaryGroup:
    """The binary group x*y = f(x, a,...,a, y) with n-2 anchor copies.

    Built from :func:`~polyadic.core.retract_table`, so no m^n table is
    needed.  Every retract of a verified n-ary group is a group (Dörnte
    1928), so the table is not re-checked.  The identity must be the skew
    of a, and the inverse must match
    ``x^-1 = f(skew(a), x^(n-3), skew(x), skew(a))``; both are checked.
    """
    m, n, a = group.order, group.arity, int(a)
    ret = BinaryGroup(retract_table(group, a), check=False)
    abar = group.skew(a)
    if ret.identity != abar:
        raise InvalidGroupError(
            f"retract identity {ret.identity} differs from skew({a})={abar}"
        )
    x = np.arange(m)
    bad = np.flatnonzero(group(abar, *(x,) * (n - 3), group.skew_table(), abar) != ret.inverse)
    if bad.size:
        raise InvalidGroupError(
            f"retract inverse formula disagrees with table at x={bad[0]}"
        )
    return ret


def retract_isomorphism(group: NaryGroup, e: int, p: int) -> np.ndarray:
    """The map h(x) = f(e^(n-2), x, skew(p)), verified Ret_e -> Ret_p."""
    n, m = group.arity, group.order
    h = group(*(int(e),) * (n - 2), np.arange(m), group.skew(p))
    if not np.array_equal(np.sort(h), np.arange(m)):
        raise InvalidGroupError(f"retract map e={e}, p={p} is not a bijection")
    re_tab, rp_tab = retract_table(group, e), retract_table(group, p)
    if not np.array_equal(h[re_tab], rp_tab[h][:, h]):
        raise InvalidGroupError(
            f"retract map e={e}, p={p} is not a homomorphism"
        )
    return h


def hg_decompose(group: NaryGroup, a: int) -> HGData:
    """Decompose a verified n-ary group at anchor a.

    Uses phi(x) = f(skew(a), x, a^(n-2)) and b = f(skew(a)^(n)); :class:`HGData`
    validates the automorphism/fixpoint/conjugation conditions on construction.
    The product formula itself needs no re-check: it holds at every anchor of
    every n-ary group (Hosszú–Gluskin), and the group is verified first.
    """
    n, m, a = group.arity, group.order, int(a)
    base = retract(group, a)
    abar = group.skew(a)
    phi = group(abar, np.arange(m), *(a,) * (n - 2))
    return HGData(base, phi, int(group(*(abar,) * n)), n)


def hg_construct(data: HGData, labels=None) -> NaryGroup:
    """n-ary group from decomposition data (invariants checked by HGData)."""
    return NaryGroup.from_hg(data, labels=labels)


def derived(base: BinaryGroup, arity: int) -> NaryGroup:
    """f(x1..xn) = x1 x2 ... xn, the reducible n-ary group over ``base``."""
    m = base.order
    return hg_construct(HGData(base, np.arange(m), base.identity, arity))


def b_derived(base: BinaryGroup, b: int, arity: int) -> NaryGroup:
    """f(x1..xn) = x1 x2 ... xn b for a central twist b."""
    if b not in base.center:
        raise InvalidGroupError(f"twist element {b} is not central")
    return hg_construct(HGData(base, np.arange(base.order), int(b), arity))
