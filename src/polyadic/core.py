"""Finite n-ary groups and the polyadic group axioms.

An :class:`NaryGroup` is a carrier {0..m-1} with an n-ary operation (n >= 3),
given as a dense table of m^n element indices or in decomposed form as
:class:`~polyadic.binary.HGData` (binary group, automorphism, twist element).
The constructor decides the axioms and keeps the verdict as ``report``; a
verified group is its Hosszú–Gluskin decomposition (anchor 0's, for a table),
and a failing table answers only the verifiers.  Every evaluation is
``group(*xs)``, elementwise on broadcast index arguments: the fold, or one
gather from the m^n table :meth:`NaryGroup.dense` caches.

The certificate decides the axioms exactly: a table is an n-ary group iff it
equals ``x1 phi(x2) ... phi^(n-1)(xn) b`` for a valid decomposition, which
costs O(n m^n + m^3) to check, so passing verdicts are never sampled.  The
table is compared in block rows with the block product ``right[left]`` of
:func:`_hg_blocks`; cells equal to it are element indices, so a rejected
table is range-checked only in the blocks that differ, or whole, once, when
anchor 0 does not decompose, before any report.

A rejected table gets an exact report, never a sample.  Mostly it is the
exhaustive scan's: the lexicographically first witness of each violated
axiom, (i,j)-associativity for all argument pairs and unique solvability at
every place, searched for among the tuples and lines that read the
difference set, the cells where the table leaves a valid decomposition.
When that search does not answer, :func:`verify_associativity` and
:func:`verify_quasigroup` scan every tuple while the m^(2n-1) tuples stay
within ``_SCAN_TUPLES``.  Above that the report is the certificate's: the
scan's first failing line at each place, or, when every line is a
permutation, the first step of the certificate that fails at anchor 0
(:func:`_certificate_failure`).  No argument, flag or environment variable
changes any of this, so a verdict and its witnesses depend on the table
alone.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from math import prod
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .binary import BinaryGroup, HGData, perm_power, read_only, verify_binary_table
from .errors import InvalidGroupError, SizeLimitError
from .report import VerificationReport

DENSE_LIMIT = 1 << 24
_SCAN_TUPLES = 10 ** 7   # the associativity scan's reach, and the difference search's cap
_CHUNK_CELLS = 1 << 21
_BLOCK_CELLS, _COMPARE_CELLS = 1 << 12, 1 << 16   # the certificate's right block and compare step
_FIRST_ROWS, _MAX_ROWS = 256, 1 << 16   # chunk sizes of the difference-set search


def within_dense_limit(order: int, arity: int) -> bool:
    """Does m^n fit ``DENSE_LIMIT``?  Never forms a power above 2^24 of 25 or more axes."""
    return arity <= 24 and order ** arity <= DENSE_LIMIT


class NaryGroup:
    """Carrier {0..m-1} with an n-ary operation, verified on construction into ``report``.

    ``kind`` ("dense" or "hg") is the form the operation was given in, which the file writer keeps.
    """

    def __init__(self, arity: int, order: int, table=None, hg: HGData | None = None,
                 labels: Sequence[str] | None = None):
        if arity < 3:
            raise InvalidGroupError("arity must be at least 3")
        if order < 1:
            raise InvalidGroupError("order must be positive")
        if (table is None) == (hg is None):
            raise InvalidGroupError("exactly one backend (table or hg) required")
        self.arity = int(arity)
        self.order = int(order)
        self.labels = tuple(labels) if labels is not None else None
        if self.labels is not None and len(self.labels) != self.order:
            raise InvalidGroupError("label list length must equal the order")
        m, n = self.order, self.arity
        self._table = None      # the dense() cache
        self._rejected = None   # a failing table, read by the verifiers alone
        if table is not None:
            self.kind = "dense"
            if not within_dense_limit(m, n):
                raise SizeLimitError(
                    f"dense tables limited to {DENSE_LIMIT} entries; use the hg backend"
                )
            arr = np.asarray(table, dtype=np.int64)
            if arr.size != m ** n:
                raise InvalidGroupError(f"table needs {m ** n} entries, got {arr.size}")
            arr = np.ascontiguousarray(arr.reshape((m,) * n))
            certified = _certify_dense(arr)
            if isinstance(certified, HGData):
                hg, self.report = certified, VerificationReport.certificate(checked=m ** n + m ** 3)
                if not (isinstance(table, np.ndarray) and np.may_share_memory(arr, table)):
                    self._table = arr   # built here from a list or a cast: no caller holds it
            else:
                self._rejected = arr
                report = _difference_report(arr, certified)
                self.report = report if report is not None else _witness_report(self, certified)
        else:
            self.kind = "hg"
            if hg.group.order != m or hg.arity != n:
                raise InvalidGroupError("hg data does not match order/arity")
            base = hg.group.report or verify_binary_table(hg.group.table)
            if not base.passed:
                f = base.first()
                raise InvalidGroupError(f"hg base is not a group: {f.axiom} witness={f.witness}",
                                        base)
            self.report = VerificationReport.certificate(checked=m ** 3)
        self._hg = hg

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_function(cls, arity: int, order: int, fn, labels=None) -> "NaryGroup":
        """Materialize ``fn(*xs) -> int`` into a dense table."""
        shape = (order,) * arity
        grids = np.indices(shape).reshape(arity, -1)
        flat = np.array([fn(*xs) for xs in grids.T], dtype=np.int64)
        return cls(arity, order, table=flat.reshape(shape), labels=labels)

    @classmethod
    def from_hg(cls, hg: HGData, labels=None) -> "NaryGroup":
        return cls(hg.arity, hg.group.order, hg=hg, labels=labels)

    @classmethod
    def _with_dense_cache(cls, hg: HGData, table: np.ndarray) -> "NaryGroup":
        """The group of ``hg``, read as ``table``, its known operation, kept uncertified as the cache."""
        group = cls.from_hg(hg)
        group._table, group.kind = table, "dense"
        return group

    # -- the verdict -----------------------------------------------------------

    @property
    def hg(self) -> HGData:
        """The anchor-0 data the certificate built, or the data given; the one guard of a rejected table."""
        if self._hg is None:
            f = self.report.first()
            raise InvalidGroupError(f"not an n-ary group: {f.axiom} witness={f.witness}",
                                    self.report)
        return self._hg

    def require_verified(self) -> None:
        """Raise :class:`InvalidGroupError`, carrying the report, unless the axioms hold."""
        self.hg   # the guard

    # -- evaluation ----------------------------------------------------------

    def __call__(self, *xs):
        """f applied elementwise to n broadcastable index arguments (ints or integer arrays).

        One gather from the :meth:`dense` cache, else the fold ``x1 phi(x2) ...
        phi^(n-1)(xn) b``, which raises :class:`SizeLimitError` before it allocates
        more than ``DENSE_LIMIT`` values.  Indices are not range-checked;
        :meth:`eval` is the checked scalar form.
        """
        if len(xs) != self.arity:
            raise ValueError(f"expected {self.arity} arguments, got {len(xs)}")
        if self._table is not None:
            return self._table[xs]
        hg = self.hg
        # np.broadcast_shapes, unlike np.broadcast, takes any number of operands
        _require_small(np.broadcast_shapes(*map(np.shape, xs)))
        g, pows = hg.group, hg.phi_powers
        acc = xs[0]
        for k in range(1, self.arity):
            acc = g.table[acc, pows[k][xs[k]]]
        return g.table[acc, hg.b]

    def eval(self, xs: Iterable[int]) -> int:
        """Apply the n-ary operation once, with the arguments checked."""
        xs = tuple(int(x) for x in xs)
        if any(x < 0 or x >= self.order for x in xs):
            raise ValueError(f"element index out of range in {xs}")
        return int(self(*xs))

    def dense(self) -> np.ndarray:
        """The full operation table, shape (m,)*n, int64: cached and writable; kept from the
        constructor when it built the array, else one row gather ``right[left]``
        of the Hosszú–Gluskin blocks (:func:`_hg_blocks`), with no n-axis grid.

        Only code that reads every cell calls it: the scans, ``quotient``,
        ``is_central``, ``is_conjugation_congruence``, ``one_dim_reps_bruteforce``,
        the dense file writer and ``subgroup_closure``.
        """
        if self._table is None:
            if not within_dense_limit(self.order, self.arity):   # refused before n axes multiply out
                raise SizeLimitError(f"evaluation limited to {DENSE_LIMIT} values at once")
            shape = (self.order,) * self.arity
            left, right = _hg_blocks(self.hg, _block_split(self.order, self.arity))
            self._table = right.take(left, axis=0).reshape(shape)
        return self._table

    # -- skew elements ---------------------------------------------------------

    def skew(self, x: int) -> int:
        """The unique z with f(x,...,x,z) = x, read from :meth:`skew_table`."""
        return int(self.skew_table()[x])

    def skew_table(self) -> np.ndarray:
        """The skew of every element, computed once and returned read-only."""
        return self._skews

    @cached_property
    def _skews(self) -> np.ndarray:
        # closed form: inverse of phi(x) phi^2(x) ... phi^(n-2)(x) b
        hg, m, n = self.hg, self.order, self.arity
        g, pows = hg.group, hg.phi_powers
        acc = np.full(m, g.identity, dtype=np.int64)
        for k in range(1, n - 1):
            acc = g.table[acc, pows[k]]
        skews = g.inverse[g.table[acc, hg.b]]
        xs = np.arange(m)
        bad = np.flatnonzero(self(*(xs,) * (n - 1), skews) != xs)
        if bad.size:
            raise InvalidGroupError(f"skew closed form failed at {int(bad[0])}")
        return read_only(skews)

    # -- bookkeeping -----------------------------------------------------------

    def equals(self, other: "NaryGroup") -> bool:
        """Same arity, order and operation, compared through the anchor-0 decomposition.

        The retract at 0, phi_0 and b_0 fix f (Hosszú–Gluskin); each is one
        evaluation of at most m^2 values, so this is O(m^2) at any arity.  A
        rejected table equals only a rejected table with the same cells.
        """
        if self.arity != other.arity or self.order != other.order:
            return False
        if self._rejected is not None or other._rejected is not None:   # None equals no table
            return np.array_equal(self._rejected, other._rejected)
        return all(np.array_equal(x, y) for x, y in zip(self._anchor0(), other._anchor0()))

    def _anchor0(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The retract table, phi and b at anchor 0, evaluated."""
        n, abar = self.arity, self.skew(0)
        phi = self(abar, np.arange(self.order), *(0,) * (n - 2))
        return retract_table(self, 0), phi, self(*(abar,) * n)

    def __eq__(self, other):
        return isinstance(other, NaryGroup) and self.equals(other)

    def __hash__(self):
        return hash((self.arity, self.order))

    def __repr__(self):
        return f"NaryGroup(arity={self.arity}, order={self.order}, {self.kind})"


def _require_small(shape: tuple[int, ...]) -> None:
    """Raise :class:`SizeLimitError` before an hg evaluation of more than ``DENSE_LIMIT`` values."""
    if prod(shape) > DENSE_LIMIT:
        raise SizeLimitError(f"evaluation limited to {DENSE_LIMIT} values at once")


# -- associativity ------------------------------------------------------------

def _fold_chunk(table: np.ndarray, n: int, i: int, lo: int, hi: int) -> np.ndarray:
    """f(x_1^{i-1}, f(x_i^{n+i-1}), x_{n+i}^{2n-1}) over the tuple cube.

    The first of the 2n-1 variables is restricted to [lo, hi); the result has
    shape (hi-lo, m, ..., m) with one axis per remaining variable.
    """
    m = table.shape[0]
    total_dims = 2 * n - 1
    index = []
    for k in range(1, n + 1):
        if k == i:
            arr = table[lo:hi] if i == 1 else table
            before = i - 1
            index.append(arr.reshape((1,) * before + arr.shape + (1,) * (total_dims - before - n)))
        else:
            dim = (k - 1) if k < i else (n + k - 2)
            ar = np.arange(lo, hi) if dim == 0 else np.arange(m)
            index.append(ar.reshape((1,) * dim + (ar.size,) + (1,) * (total_dims - dim - 1)))
    return table[tuple(index)]


def _fold_at(ev, i: int, xs: np.ndarray) -> np.ndarray:
    """Row-wise value of the i-composed fold of the evaluator ``ev`` on an (N, 2n-1) sample matrix."""
    n, cols = (xs.shape[1] + 1) // 2, xs.T
    return ev(*cols[:i - 1], ev(*cols[i - 1:i + n - 1]), *cols[i + n - 1:])


def _gather(table: np.ndarray):
    """The evaluator of a table as given: what the scans read of a rejected one."""
    return lambda *xs: table[xs]


def verify_associativity(group: NaryGroup) -> VerificationReport:
    """Check (i,j)-associativity for all 1 <= i < j <= n over all (2n-1)-tuples.

    The scan of every tuple, and the reference for the failure reports of
    :func:`verify_nary_group`, which runs it when its difference-set search
    does not answer.  The scan is chunked over the first variable in
    increasing order, so the first witness of an axiom is its
    lexicographically lowest.  Above ``_SCAN_TUPLES`` tuples it raises
    :class:`SizeLimitError`; the verdict there is :func:`verify_nary_group`'s.
    """
    m, n, rejected = group.order, group.arity, group._rejected
    total = m ** (2 * n - 1) if m == 1 or n <= 12 else None   # 2^25 > 10^7: no power of 25+ axes
    if total is None or total > _SCAN_TUPLES:
        raise SizeLimitError(f"the associativity scan is limited to {_SCAN_TUPLES} tuples; "
                             "verify_nary_group decides the axioms at every size")
    table = group.dense() if rejected is None else rejected   # the scan reads every cell
    chunk_len = max(1, _CHUNK_CELLS // max(1, m ** (2 * n - 2)))
    found = {}
    for lo in range(0, m, chunk_len):
        hi = min(lo + chunk_len, m)
        folds = {i: _fold_chunk(table, n, i, lo, hi) for i in range(1, n + 1)}
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                axiom = f"associativity(i={i},j={j})"
                if axiom in found:
                    continue
                bad = np.argwhere(folds[i] != folds[j])
                if bad.size:
                    w = bad[0]
                    found[axiom] = (int(w[0]) + lo,) + tuple(int(v) for v in w[1:])
    if found:
        return VerificationReport.fail(sorted(found.items()), checked=total)
    return VerificationReport.ok(checked=total)


# -- solvability ----------------------------------------------------------------

def verify_quasigroup(group: NaryGroup) -> VerificationReport:
    """At each place i, with the other arguments fixed, z -> f(...z...) must permute.

    Exhaustive at every size :meth:`NaryGroup.dense` allows.  Each place's
    lines are sorted about ``_CHUNK_CELLS`` cells at a time, in lexicographic
    order of the fixed arguments, up to the first chunk holding a line that is
    no permutation; its first such line is the place's witness.
    """
    m, n, rejected = group.order, group.arity, group._rejected
    if not within_dense_limit(m, n):   # refused before dense() multiplies out n axes
        raise SizeLimitError(f"the solvability scan reads the m^n table, limited to {DENSE_LIMIT}")
    table = group.dense() if rejected is None else rejected   # the scan reads every line
    want, step = np.arange(m), max(1, _CHUNK_CELLS // m ** (n - 1))
    failures = []
    for place in range(n):
        lines = np.moveaxis(table, place, -1)
        for lo in range(0, m, step):
            rows = lines[lo:lo + step].reshape(-1, m)
            bad = np.flatnonzero((np.sort(rows, axis=1) != want).any(axis=1))
            if bad.size:
                fixed = np.unravel_index(lo * m ** (n - 2) + int(bad[0]), (m,) * (n - 1))
                failures.append((f"solvability(place={place + 1})", fixed))
                break
    checked = n * m ** n
    if failures:
        return VerificationReport.fail(failures, checked=checked)
    return VerificationReport.ok(checked=checked)


# -- the Hosszú–Gluskin certificate -------------------------------------------------

class _Rejection(NamedTuple):
    """Why the certificate rejected a dense table, as far as it got."""

    abar: int | None                   # skew of the anchor 0, when unique
    mismatch: tuple[int, ...] | None   # first cell differing from the rebuild
    data: HGData | None = None         # the decomposition at anchor 0, when valid
    flats: Iterator[np.ndarray] | None = None   # the differing blocks, mismatch's first


def _decompose(table: np.ndarray, a: int) -> tuple[int | None, HGData | None]:
    """The skew of ``a`` and the decomposition read from the table at anchor ``a``.

    Formulas as in :func:`polyadic.retract.hg_decompose`: the retract ``x*y =
    f(x, a^(n-2), y)``, ``phi(x) = f(skew(a), x, a^(n-2))`` and ``b =
    f(skew(a)^n)``.  Either part is None when the table does not yield it.
    No unchecked cell is used as an index: b is range-checked here, the
    retract and the phi line as a group table and an automorphism.
    """
    m, n = table.shape[0], table.ndim
    anchors = (a,) * (n - 2)
    hits = np.nonzero(table[(a,) * (n - 1)] == a)[0]
    if len(hits) != 1:
        return None, None
    abar = int(hits[0])
    b = int(table[(abar,) * n])
    if not 0 <= b < m:
        return abar, None
    try:
        g = BinaryGroup(table[(slice(None),) + anchors + (slice(None),)])
        return abar, HGData(g, table[(abar, slice(None)) + anchors], b, n)
    except InvalidGroupError:
        return abar, None


def _block_split(m: int, n: int) -> int:
    """The largest k <= n-1, at least 1, whose right block of m^(k+1) cells fits ``_BLOCK_CELLS``."""
    return max([1] + [k for k in range(2, n) if m ** (k + 1) <= _BLOCK_CELLS])


def _hg_blocks(data: HGData, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The operation as a block product: f(x1..xn) = right[left[x1..x(n-k)], x(n-k+1)..xn].

    ``left`` is x1 phi(x2) ... phi^(n-k-1)(x(n-k)), flat over its m^(n-k)
    arguments; row v of ``right`` is v phi^(n-k)(x(n-k+1)) ... phi^(n-1)(xn) b,
    flat over the last k arguments, so ``right`` has shape (m, m^k).
    """
    g, pows, n = data.group.table, data.phi_powers, data.arity
    left = np.arange(data.group.order)
    for j in range(1, n - k):
        left = g[left[:, None], pows[j]].reshape(-1)
    tail = g[pows[n - 1], data.b]
    for j in range(n - 2, n - k - 1, -1):
        tail = g[pows[j][:, None], tail].reshape(-1)
    return left, g[:, tail]


def _require_indices(cells: np.ndarray, m: int) -> None:
    """Raise :class:`InvalidGroupError` unless every int64 entry of ``cells`` is in [0, m).

    As uint64 a negative entry is huge, so one max() catches both ends.
    """
    if cells.view(np.uint64).max() >= m:
        raise InvalidGroupError("table entries must be element indices")


def _mismatches(table: np.ndarray, data: HGData) -> Iterator[np.ndarray]:
    """Yield the flat indices of the cells that differ from the rebuild, one array per block.

    The table's rows of the :func:`_hg_blocks` split are compared with
    ``right[left]``, ``_COMPARE_CELLS`` at a time.  ``right`` is uint8, which
    holds every index of a dense table (n >= 3, m^n <= 2^24 give m <= 256);
    the table is read as given, never cast, so an entry 256 + v differs from v.
    A cell equal to the rebuild is an element index, so only a block that
    differs is range-checked, before its indices are yielded.
    """
    m = table.shape[0]
    left, right = _hg_blocks(data, _block_split(m, table.ndim))
    right, step = right.astype(np.uint8), max(1, _COMPARE_CELLS // right.shape[1])
    given = table.reshape(len(left), right.shape[1])
    for lo in range(0, len(left), step):
        block, rebuilt = given[lo:lo + step], right.take(left[lo:lo + step], axis=0)
        if not np.array_equal(block, rebuilt):
            _require_indices(block, m)
            yield lo * right.shape[1] + np.flatnonzero(block != rebuilt)


def _certify_dense(table: np.ndarray) -> HGData | _Rejection:
    """The anchor-0 decomposition when the table is an n-ary group, else what the certificate saw.

    At anchor 0 (Hosszú 1963, Gluskin 1965): the skew of 0 must be unique, the
    retract must be a group, phi and b must satisfy the :class:`HGData`
    conditions, and the table must equal ``x1 phi(x2) ... phi^(n-1)(xn) b``
    cell by cell, compared in block rows by :func:`_mismatches`.  Every n-ary
    group passes all four steps, and any table that does is an n-ary group,
    so a passing table holds only element indices and is never range-checked.
    A rejected one is checked where it differs from the rebuild
    (:func:`_mismatches`), or whole by the anchor sweep of
    :func:`_difference_report`, before any report.
    """
    abar, data = _decompose(table, 0)
    if data is None:
        return _Rejection(abar, None)
    flats = _mismatches(table, data)
    for flat in flats:
        mismatch = tuple(int(v) for v in np.unravel_index(int(flat[0]), table.shape))
        return _Rejection(abar, mismatch, data, chain([flat], flats))
    return data


def _difference_set(shape: tuple[int, ...], flats, limit: int) -> np.ndarray | None:
    """The cells of the flat indices ``flats`` of :func:`_mismatches`, unravelled over ``shape``.

    Returned as a (|D|, n) array in lexicographic order, or None when there
    are more than ``limit`` of them.  ``flats`` is drained to the end either
    way, so every differing block has been range-checked before any report.
    """
    found, count = [], 0
    for flat in flats:
        count += flat.size
        if count <= limit:
            found.append(flat)
    if count > limit:
        return None
    flat = np.concatenate(found) if found else np.empty(0, dtype=np.int64)
    return np.stack(np.unravel_index(flat, shape), axis=1)


def _difference_report(table: np.ndarray, rejection: _Rejection) -> VerificationReport | None:
    """The exhaustive scan's failure report, searched for through the difference set.

    The table is compared with a valid decomposition G (anchor 0's, else the
    first anchor that decomposes); D is the set of cells where they differ.
    A fold reads D when its inner n-tuple is in D, or when its inner n-tuple is
    clean and its outer cell is in D.  If neither of two folds reads D, both
    agree with the associative G, so every failing (2n-1)-tuple has a fold k
    that reads D.  Those tuples form 2n families per cell d: fold k's inner
    tuple is d, or fold k's outer cell is d and its inner tuple lies in G's
    preimage of d_k (the last inner argument solved from G's rows).  A family
    has n-1 free arguments, walked in lexicographic order in growing chunks
    on the real table, and is left as soon as each axiom (k, j) has its
    first failure or cannot improve on the best one found.  Lines that avoid
    D are lines of G, hence permutations, so the first failing line through D
    at each place is the scan's solvability witness; each place's lines
    through D are one gather.

    Every evaluated tuple, and m per line, is charged to ``_SCAN_TUPLES``,
    capped at the m^(2n-1) tuples of the scan the search stands in for.
    Since each of the 2n |D| families may cost its first chunk, D may hold at most
    limit = cap / (2n * first chunk) cells.  The lines cost at most n |D| m
    <= cap / 2, since a dense table has m <= 256 and m <= m^(n-1), so only
    the families can reach the cap.  Returns None when no anchor decomposes,
    D is empty or larger than ``limit``, or the search would exceed the cap;
    the caller then falls back to :func:`_witness_report`.

    A table whose anchor 0 does not decompose is range-checked whole before
    the sweep over the other anchors reads it; otherwise the cells that
    differ from anchor 0's rebuild are (:func:`_mismatches`).
    """
    m, n = table.shape[0], table.ndim
    cap = min(_SCAN_TUPLES, m ** (2 * n - 1))
    limit = cap // (2 * n * min(_FIRST_ROWS, m ** (n - 1)))
    data, flats = rejection.data, rejection.flats   # compared up to the mismatch's block
    if data is None:
        _require_indices(table, m)
        for a in range(1, m):
            ret = table[(slice(None),) + (a,) * (n - 2) + (slice(None),)]
            top = ret[:2]
            # a group retract has (x.y).z = x.(y.z) for x, z in {0, 1}, 4m cells; two of
            # each, as the row of a left identity and the column of a right one pass trivially
            if np.array_equal(ret[top, :2], top[:, ret[:, :2]]):
                data = _decompose(table, a)[1]
                if data is not None:
                    break
        else:
            return None
        flats = _mismatches(table, data)
    cells = _difference_set(table.shape, flats, limit)
    if cells is None or len(cells) == 0:
        return None

    spent, want = 0, np.arange(m)
    solvability = []
    for place in range(n):
        # the lines through D, one per cell, keyed by their fixed arguments in lexicographic order
        lines = table[tuple(want if j == place else cells[:, j, None] for j in range(n))]
        keys = np.ravel_multi_index(np.delete(cells, place, axis=1).T, (m,) * (n - 1))
        bad, distinct = keys[(np.sort(lines, axis=1) != want).any(axis=1)], np.unique(keys)
        first = bad.min() if bad.size else distinct[-1]
        spent += m * int(np.count_nonzero(distinct <= first))   # m per line, up to the first failing
        if bad.size:
            solvability.append((f"solvability(place={place + 1})",
                                np.unravel_index(first, (m,) * (n - 1))))

    ev = _gather(table)
    g, pows = data.group.table, data.phi_powers
    solve = np.argsort(g[:, g[pows[n - 1], data.b]], axis=1)   # v phi^(n-1)(solve[v, w]) b == w

    def rows(k: int, d: np.ndarray, outer: bool, idx: np.ndarray) -> np.ndarray:
        """The tuples at free index ``idx`` of the families (k, outer) through ``d``."""
        free = np.stack(np.unravel_index(idx, (m,) * (n - 1)), axis=1)
        d = np.broadcast_to(d, (len(idx), n))
        if not outer:
            return np.concatenate((free[:, :k - 1], d, free[:, k - 1:]), axis=1)
        prefix = free[:, 0]   # x1 phi(x2) ... phi^(n-2)(x(n-1))
        for j in range(1, n - 1):
            prefix = g[prefix, pows[j][free[:, j]]]
        last = solve[prefix, d[:, k - 1]]
        return np.concatenate((d[:, :k - 1], free, last[:, None], d[:, k:]), axis=1)

    # Families in the order of their first tuples: once every axiom has a
    # witness below a family's first tuple, no later family can improve one.
    kinds = [(k, outer) for k in range(1, n + 1) for outer in (False, True)]
    zero = np.zeros(len(cells), dtype=np.int64)
    firsts = np.concatenate([rows(k, cells, outer, zero) for k, outer in kinds])
    best: dict[str, tuple[int, ...]] = {}
    size = m ** (n - 1)
    for f in np.lexsort(firsts.T[::-1]):
        if len(best) == n * (n - 1) // 2 and max(best.values()) <= tuple(firsts[f].tolist()):
            break
        (k, outer), d = kinds[f // len(cells)], cells[f % len(cells)]
        axioms = {j: f"associativity(i={min(k, j)},j={max(k, j)})"
                  for j in range(1, n + 1) if j != k}
        lo, step = 0, _FIRST_ROWS
        while axioms and lo < size:
            hi = min(size, lo + step)
            xs = rows(k, d, outer, np.arange(lo, hi))
            start = tuple(xs[0].tolist())
            axioms = {j: ax for j, ax in axioms.items() if ax not in best or best[ax] > start}
            if not axioms:
                break
            spent += hi - lo
            if spent > cap:
                return None
            fold_k = _fold_at(ev, k, xs)
            for j, ax in list(axioms.items()):
                bad = np.flatnonzero(fold_k != _fold_at(ev, j, xs))
                if bad.size:
                    witness = tuple(xs[bad[0]].tolist())
                    best[ax] = min(best.get(ax, witness), witness)
                    del axioms[j]
            lo, step = hi, min(2 * step, _MAX_ROWS)

    failures = sorted(best.items()) + solvability
    if not failures:
        return None
    return VerificationReport.fail(failures, checked=m ** (2 * n - 1) + n * m ** n)


def _certificate_failure(table: np.ndarray, rejection: _Rejection
                         ) -> tuple[tuple[str, tuple[int, ...]], int]:
    """The first certificate step that fails at anchor 0, as one failure, and the cells read.

    Every line of ``table`` must be a permutation, so abar = skew(0) is
    unique and the retract x.y = f(x, 0^(n-2), y) is a Latin square, a group
    iff associative.  The steps in order:

    - the retract fails associativity first at (x, y, z): then
      (x, 0^(n-2), y, 0^(n-2), z) breaks (1,n), fold 1 being (x.y).z and
      fold n x.(y.z);
    - phi(x) = f(abar, x, 0^(n-2)) is no automorphism, first at (x, y): then
      T1 = (abar, x, 0^(n-2), y, 0^(n-2)) breaks (1,2) or
      T2 = (phi(x), 0^(n-2), abar, y, 0^(n-2)) breaks (1,n).  Proof: 0.abar =
      f(0^(n-1), abar) = 0, so abar is the identity of the group, and fold 1
      of both is f(phi(x), y, 0^(n-2)); fold 2 of T1 is phi(x.y) and fold n
      of T2 is phi(x).phi(y), which differ, so one differs from fold 1;
    - else ``hosszu-gluskin(phi-fixes-b)`` at (b,) for b = f(abar^n),
      ``hosszu-gluskin(phi-power)`` at the first x with phi^(n-1)(x) !=
      b.x.b^-1, or ``hosszu-gluskin(rebuild)`` at the certificate's first
      differing cell, when the difference set is past the search's cap.

    The cells read, up to the failing step: m^3 for the retract's group
    check, m^2 for phi's, m + 1 for the conditions on b, m^n for the rebuild.
    """
    m, n = table.shape[0], table.ndim
    zeros, abar = (0,) * (n - 2), rejection.abar
    ret = table[(slice(None),) + zeros + (slice(None),)]
    retract, read = verify_binary_table(ret), m ** 3
    if not retract.passed:
        x, y, z = dict(retract.failures)["associativity"]
        return (f"associativity(i=1,j={n})", (x, *zeros, y, *zeros, z)), read
    phi, read = table[(abar, slice(None)) + zeros], read + m * m
    bad = np.argwhere(phi[ret] != ret[phi[:, None], phi])
    if bad.size:
        x, y = bad[0].tolist()
        if table[(phi[x], y) + zeros] != phi[ret[x, y]]:   # fold 1 and fold 2 of T1
            return ("associativity(i=1,j=2)", (abar, x, *zeros, y, *zeros)), read
        return (f"associativity(i=1,j={n})", (phi[x], *zeros, abar, y, *zeros)), read
    b, read = int(table[(abar,) * n]), read + m + 1
    if phi[b] != b:
        return ("hosszu-gluskin(phi-fixes-b)", (b,)), read
    conjugation = ret[ret[b], np.flatnonzero(ret[b] == abar)[0]]
    bad = np.flatnonzero(perm_power(phi, n - 1) != conjugation)
    if bad.size:
        return ("hosszu-gluskin(phi-power)", (bad[0],)), read
    return ("hosszu-gluskin(rebuild)", rejection.mismatch), read + m ** n


def verify_nary_group(group: NaryGroup) -> VerificationReport:
    """The verdict on the n-ary group axioms, decided when ``group`` was built.

    A passing table's report is the Hosszú–Gluskin certificate's
    (``method="certificate"``, ``checked`` = m^n cells + m^3 retract cells; m^3
    for an hg group, whose base is checked once or its report reused).  A
    rejected table's is exact: the exhaustive scan's (``method="scan"``,
    ``checked`` = m^(2n-1) + n m^n), the first witness of each violated
    axiom, associativity by name then solvability by place, found from the
    difference set (:func:`_difference_report`) or by the scans within
    ``_SCAN_TUPLES``; past them, the certificate's (``method="certificate"``),
    the first failing line at each place, else the first failing step at
    anchor 0 (:func:`_certificate_failure`).  Only a scan that contradicts the
    certificate raises (:class:`RuntimeError`).
    """
    return group.report


def _witness_report(group: NaryGroup, rejection: _Rejection) -> VerificationReport:
    """Failure report for a rejected table that the difference-set search does not answer."""
    m, n = group.order, group.arity
    if m ** (2 * n - 1) <= _SCAN_TUPLES:
        report = verify_associativity(group).merge(verify_quasigroup(group))
        if report.passed:
            raise RuntimeError("certificate rejected a table the exhaustive scan accepts")
        return report
    lines = verify_quasigroup(group)
    if not lines.passed:
        return VerificationReport.certificate(lines.failures, checked=lines.checked)
    failure, read = _certificate_failure(group._rejected, rejection)
    return VerificationReport.certificate([failure], checked=lines.checked + read)


# -- homomorphism certificate -------------------------------------------------------

def homomorphism_certificate_rows(group: NaryGroup) -> np.ndarray:
    """The m^2 + m + 1 n-tuples on which a map is decided to be a homomorphism.

    Take a map rho from the carrier into a group (invertible matrices, the
    elements of a binary group), the anchor a = 0, R = rho(a)^(n-2) and
    abar = skew(a).  Then rho(f(x1..xn)) = rho(x1)...rho(xn) holds for every
    n-tuple iff it holds on these rows, in this order:

    - (A) (x, a^(n-2), y) for all x, then y;
    - (B) (abar, x, a^(n-2)) for all x;
    - (C) (abar, ..., abar).

    Proof: (A) at (abar, a) reads rho(a) = rho(abar) R rho(a), since
    f(abar, a^(n-1)) = a, so rho(abar) R = 1 and x -> rho(x) R is a
    homomorphism of the retract x.y = f(x, a^(n-2), y).  Iterating (B) gives
    rho(phi^k(x)) = rho(abar)^k rho(x) R^k for phi(x) = f(abar, x, a^(n-2)),
    and (C) is rho(b) = rho(abar)^n for b = f(abar^n).  The Hosszú–Gluskin
    decomposition f(x1..xn) = x1.phi(x2)...phi^(n-1)(xn).b then maps to a
    product that telescopes to rho(x1)...rho(xn), because R rho(abar) = 1.
    The converse is trivial, so a failing row is a genuine witness.  The
    group must be an n-ary group: :class:`InvalidGroupError` is raised if it
    does not verify.
    """
    m, n = group.order, group.arity
    a, abar, x = 0, group.skew(0), np.arange(m, dtype=np.int64)
    rows = np.full((m * m + m + 1, n), a, dtype=np.int64)
    rows[:m * m, 0], rows[:m * m, n - 1] = np.repeat(x, m), np.tile(x, m)
    rows[m * m:-1, 0], rows[m * m:-1, 1] = abar, x
    rows[-1] = abar
    return rows


def retract_table(group: NaryGroup, a: int) -> np.ndarray:
    """The m x m table x.y = f(x, a^(n-2), y) of the retract at anchor ``a``.

    One evaluation on the broadcast (x, y) grid, so an hg group of any size
    answers without its m^n table.  Nothing is verified here.
    """
    x = np.arange(group.order)
    return group(x[:, None], *(int(a),) * (group.arity - 2), x)


# -- structural predicates --------------------------------------------------------

def is_nary_identity(group: NaryGroup, e: int) -> bool:
    """Does f(e..e, x, e..e) = x hold at every argument position?

    Such elements need not be unique: in (Z2, x+y+z) both elements qualify.
    """
    n, want = group.arity, np.arange(group.order)
    return all(np.array_equal(group(*(e,) * i, want, *(e,) * (n - 1 - i)), want)
               for i in range(n))


def is_semiabelian(group: NaryGroup) -> bool:
    """Does swapping the first and last arguments never change the value?

    Decided by the m^2 retract table at anchor 0: (G, f) is semiabelian iff
    that retract is abelian.  Forward, put x2..x(n-1) = a in the swap law to
    get x.y = y.x.  Conversely, in an abelian retract phi^(n-1), conjugation by
    b, is the identity, so the Hosszú–Gluskin form gives
    x1 P phi^(n-1)(xn) b = xn P phi^(n-1)(x1) b.  For n-ary groups this is
    also the medial law (Głazek and Gleichgewicht 1982, "Abelian n-groups").
    The group must verify.
    """
    table = retract_table(group, 0)
    return bool(np.array_equal(table, table.T))

