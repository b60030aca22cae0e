"""Output checks: each returns None when an answer is right, else a reason.

The checks recompute what they can from the dense table by direct lookup,
independently of the code path that produced the answer.
"""

from __future__ import annotations

import json
import re

import numpy as np

import polyadic as P


def _f(table: np.ndarray, xs) -> int:
    return int(table[tuple(int(x) for x in xs)])


def _fold(table: np.ndarray, n: int, i: int, xs) -> int:
    """x_1..x_(i-1), f(x_i..x_(i+n-1)), x_(i+n)..x_(2n-1) folded once more."""
    inner = _f(table, xs[i - 1:i - 1 + n])
    return _f(table, tuple(xs[:i - 1]) + (inner,) + tuple(xs[i - 1 + n:]))


def _skew(table: np.ndarray, x: int) -> int | None:
    n = table.ndim
    hits = np.nonzero(table[(x,) * (n - 1)] == x)[0]
    return int(hits[0]) if len(hits) == 1 else None


def witness_breaks(table: np.ndarray, axiom: str, witness) -> bool:
    """Does ``witness`` violate ``axiom`` in ``table``, by direct lookup?"""
    m, n = table.shape[0], table.ndim
    w = tuple(int(v) for v in witness)
    if any(v < 0 or v >= m for v in w):
        return False
    hit = re.fullmatch(r"associativity\(i=(\d+),j=(\d+)\)", axiom)
    if hit:
        i, j = int(hit[1]), int(hit[2])
        return len(w) == 2 * n - 1 and _fold(table, n, i, w) != _fold(table, n, j, w)
    hit = re.fullmatch(r"solvability\(place=(\d+)\)", axiom)
    if hit:
        place = int(hit[1]) - 1
        if len(w) != n - 1:
            return False
        row = np.moveaxis(table, place, -1)[w]
        return not np.array_equal(np.sort(row), np.arange(m))
    if axiom == "skew-undefined":
        return any(_skew(table, x) is None for x in range(m))
    hit = re.fullmatch(r"skew-(neutrality|cancel-left|cancel-right)\((?:k|i|j)=(\d+)\)", axiom)
    if hit:
        kind, k, x = hit[1], int(hit[2]), w[0]
        xb = _skew(table, x)
        if xb is None:
            return True
        if kind == "neutrality":
            return _f(table, (x,) * (k - 1) + (xb,) + (x,) * (n - k)) != x
        y = w[1]
        if kind == "cancel-left":
            return _f(table, (x,) * (k - 2) + (xb,) + (x,) * (n - k) + (y,)) != y
        return _f(table, (y,) + (x,) * (n - k) + (xb,) + (x,) * (k - 2)) != y
    return False


def verdict_pass(report) -> str | None:
    if not report.passed or report.failures:
        return f"group rejected: {report.first()}"
    return None


def verdict_fail(report, table: np.ndarray) -> str | None:
    """Mutated table: must fail, and the first witness must break its axiom."""
    if report.passed:
        kind = "sampled" if report.sampled else "exhaustive"
        return f"mutated table passed the {kind} verifier"
    first = report.first()
    if not witness_breaks(table, first.axiom, first.witness):
        return f"witness {first.witness} does not break {first.axiom}"
    return None


def retract_ok(table: np.ndarray, a: int, ret) -> str | None:
    n = table.ndim
    want = table[(slice(None),) + (a,) * (n - 2) + (slice(None),)]
    if not np.array_equal(ret.table, want):
        return "retract table differs from f(x, a^(n-2), y)"
    return None


def decompose_ok(table: np.ndarray, data) -> str | None:
    if not np.array_equal(P.hg_construct(data).dense(), table):
        return "decomposition does not rebuild the table"
    return None


def cover_ok(group, a: int, cov, h, embedding) -> str | None:
    m, n = group.order, group.arity
    if cov.group.order != m * (n - 1):
        return f"cover order {cov.group.order}, expected {m * (n - 1)}"
    skew_a = _skew(group.dense(), a)
    if cov.pair_of(cov.group.identity) != (skew_a, n - 2):
        return f"cover identity pair {cov.pair_of(cov.group.identity)}, expected ({skew_a}, {n - 2})"
    if sorted(h) != [x * (n - 1) + n - 2 for x in range(m)]:
        return "cover slice H is not {<x, n-2>}"
    if not embedding.passed:
        return f"embedding failed: {embedding.first()}"
    return None


def partition_ok(m: int, blocks) -> str | None:
    flat = sorted(int(x) for blk in blocks for x in blk)
    if flat != list(range(m)):
        return "classes do not partition the carrier"
    return None


def centralizer_ok(table: np.ndarray, a: int, elems) -> str | None:
    """Exactly the x with x.a = f(x, a, x^(n-3), skew(x)) = a."""
    m, n = table.shape[0], table.ndim
    want = [x for x in range(m)
            if _f(table, (x, a) + (x,) * (n - 3) + (_skew(table, x),)) == a]
    if sorted(int(x) for x in elems) != want:
        return f"centralizer of {a} differs from the stabilizer by lookup"
    return None


def reps_ok(table: np.ndarray, reps) -> str | None:
    """Each 1-dim rep multiplies over every n-tuple and is distinct."""
    n = table.ndim
    if not reps:
        return "no 1-dim representations found"
    keys = set()
    for rep in reps:
        values = np.asarray(rep.images)[:, 0, 0]
        prod = values
        for _ in range(n - 1):
            prod = np.multiply.outer(prod, values)
        if np.abs(values[table] - prod).max() > 1e-6:
            return "a 1-dim representation breaks the product identity"
        keys.add(tuple(np.round(values, 6).tolist()))
    if len(keys) != len(reps):
        return "duplicate 1-dim representations"
    return None


def subgroups_ok(group, subs) -> str | None:
    if tuple(range(group.order)) not in {tuple(h) for h in subs}:
        return "subgroup list lacks the whole carrier"
    for h in subs:
        if not P.verify_subgroup(group, h).passed:
            return f"{h} is not a subgroup"
    return None


def classify_ok(group, result) -> str | None:
    m = group.order
    if tuple(range(m)) not in {tuple(h) for h in result.normal_subgroups}:
        return "normal subgroup list lacks the whole carrier"
    for h in result.normal_subgroups:
        if not P.is_normal(group, h):
            return f"{h} is listed normal but is not"
    if any(not 2 <= len(h) < m for h in result.proper_normal):
        return "a listed proper normal subgroup is not proper"
    if (result.case == "has-proper-normal") != bool(result.proper_normal):
        return f"case {result.case} contradicts the proper normal list"
    return None


def quotient_ok(group, h, quot) -> str | None:
    table = group.dense()
    m, n = group.order, group.arity
    if partition_ok(m, quot.partition.blocks):
        return "cosets do not partition the carrier"
    if any(len(blk) != len(h) for blk in quot.partition.blocks):
        return "cosets differ in size"
    if quot.partition.blocks[quot.identity_block] != tuple(sorted(h)):
        return "identity block is not the subgroup"
    cls = quot.block_index
    if not np.array_equal(cls[table], quot.group.dense()[np.ix_(*([cls] * n))]):
        return "quotient table is not the blockwise operation"
    return None


def cli_ok(code: int, stdout: str, expect_code: int, doc_check=None,
           previous: str | None = None) -> str | None:
    """Exit code, JSON on stdout (none on a usage error), stable bytes."""
    if code != expect_code:
        return f"exit code {code}, expected {expect_code}"
    if previous is not None and stdout != previous:
        return "stdout differs from the previous run of the same command"
    if expect_code == 2:
        return "usage error printed to stdout" if stdout else None
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return "stdout is not valid JSON"
    return doc_check(doc) if doc_check is not None else None
