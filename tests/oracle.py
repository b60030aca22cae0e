"""Independent oracles for the n-ary group axioms, checked by direct lookup.

``scan_verdict`` is the verdict the library reached before its Hosszú–Gluskin
certificate: the exhaustive associativity and solvability scans, then the
Dörnte skew identities element by element.  The certificate must agree with
it on every table.  ``powerset_subgroups`` tests every subset for the
subgroup axioms; the closure-lattice search must find the same list, as
must ``subgroups_by_closure``, the search ``subgroups`` ran on the m^n
table, one closure per candidate set, before it closed each level in one
batch of set products in G.
``normal_subgroups_by_enumeration`` filters that list by the normality
test, the route ``classify_simplicity`` took before it read the normal
subgroups from (G, phi, b); ``normal_subgroups_by_blocks`` is the first
route from (G, phi, b), one subgroup N of G at a time with the identity
test at all n places.  ``closed_by_grid`` is ``verify_subgroup``'s old
closure check over all |H|^n tuples.

The cover and representation oracles are the code those layers ran before
their certificates: ``eval_long`` folds the operation over a long sequence,
``cover_table_by_eval_long`` builds a covering group's table one
``eval_long`` call per cell, ``cover_inverse_formula`` evaluates the
closed-form cover inverse, and ``exhaustive_representation_scan`` and
``exhaustive_embedding_scan`` check the product identity on every n-tuple.

The action and predicate oracles are the scans those checks ran before the
certificates: ``exhaustive_action_scan`` gathers every (n-tuple, point),
``semiabelian_scan`` swaps two axes of the dense table and
``medial_grid_scan`` composes every n x n grid.  The ``*_by_eval`` functions
are the per-element loops that single evaluations ``group(*xs)`` replaced, and
``eval_by_hg_formula`` is the hg backend's old scalar fold, one ``mul`` at a
time.

The subset oracles are the loops of the binary and n-ary subset operations:
``closure_by_frontier`` grows a closure one ``mul`` at a time,
``binary_quotient_by_loops`` and ``cosets_by_loops`` build coset blocks
member by member, ``abelian_characters_by_propagation`` propagates roots of
unity through products, ``conjugation_congruence_by_dict`` walks every tuple
with a dict, and ``skew_by_element`` solves for one skew at a time.

The last oracles are routes the library once ran beside its own answer:
``orbits_by_union_find`` joins points one (element, point) pair at a time,
``shifted_identity_failure`` is the check ``centralizer`` ran on its
stabilizer, ``first_skew_outside`` walks a subset's skews, ``lift_criterion_by_eval``
tests the inner-tuple lift criterion one ``eval`` per tuple (with the ternary
skew criterion cross-checked), and ``hat_char_by_eval`` and
``kernel_by_element`` evaluate one element at a time.
``one_dim_reps_by_cover`` is the route ``one_dim_reps`` took before its
closed form from (G, phi, b): the linear characters of the covering group,
restricted to the carrier.
``character_class_spread`` scans the conjugacy classes that ``character``
once checked its trace against.
``mismatches_by_slices`` is the certificate's compare before block rows: the
rebuilt table one slice x1 at a time.
``binary_report_by_cube`` is ``verify_binary_table`` before it stopped at its
first failure, with two m^3 cubes; ``solvability_lines`` walks every line of
a table one at a time; ``hosszu_gluskin_breaks`` re-reads a failed
certificate step from the anchor-0 cells; and ``has_nary_identity`` searches
every element for an identity at every position.
"""

import itertools
import re
from functools import reduce

import numpy as np

import polyadic as P
from polyadic.rep import EPS


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
    """The associativity + solvability scan over every tuple, within the scan's 10^7 tuples."""
    return P.verify_associativity(group).merge(P.verify_quasigroup(group))


def solvability_lines(table):
    """The first line at each place that is no permutation, one line at a time in lexicographic order."""
    m, n = table.shape[0], table.ndim
    failures = []
    for place in range(n):
        lines = np.moveaxis(table, place, -1)
        for fixed in np.ndindex(lines.shape[:-1]):
            if sorted(lines[fixed].tolist()) != list(range(m)):
                failures.append((f"solvability(place={place + 1})", fixed))
                break
    return failures


def binary_report_by_cube(table):
    """``verify_binary_table`` before its chunked first-failure search: two m^3 cubes compared."""
    table = np.asarray(table)
    m = len(table) if table.ndim else 0
    if not m or table.shape != (m, m) or table.min() < 0 or table.max() >= m:
        return P.VerificationReport.fail([("table-shape", ())])
    failures = []
    r = np.arange(m)
    hits = np.flatnonzero((table == r).all(1) & (table.T == r).all(1))
    if not hits.size:
        failures.append(("identity-missing", ()))
    else:
        for x in range(m):
            if not np.any(table[x] == hits[0]):
                failures.append((f"inverse-missing(x={x})", (x,)))
                break
    bad = np.argwhere(table[table, :] != table[:, table])
    if bad.size:
        failures.append(("associativity", tuple(bad[0])))
    if failures:
        return P.VerificationReport.fail(failures, checked=m ** 3)
    return P.VerificationReport.ok(checked=m ** 3)


def has_nary_identity(group):
    """Smallest element acting as an identity at every position, if any."""
    for e in range(group.order):
        if P.is_nary_identity(group, e):
            return e
    return None


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


def is_normal_by_eval(group, subgroup):
    """f(a^(n-3), skew(a), h, a) in H, one ``eval`` per (a, h)."""
    n, s = group.arity, set(subgroup)
    return all(group.eval((a,) * (n - 3) + (group.skew(a), h, a)) in s
               for a in range(group.order) for h in subgroup)


def normal_subgroups_by_enumeration(group):
    """Every subgroup from the closure-lattice search, kept when it passes the normality test."""
    from polyadic.structure import _is_normal
    return [h for h in P.subgroups(group) if _is_normal(group, h)]


def normal_subgroups_by_blocks(group):
    """The normal n-ary subgroups by the per-subgroup route, testing all n places.

    The route ``normal_subgroups`` took before its two-place mask gather:
    the phi-invariant normal subgroups N of G are reached one at a time, each
    N A read from N's coset index, and for each N the coset blocks are built
    and a block xN kept when f(x^i, y, x^(n-1-i)) lies in yN at every place
    i, from the prefix P_i(x) = x phi(x) ... phi^(i-1)(x) and suffix
    S_i(x) = phi^(i+1)(x) ... phi^(n-1)(x) b of every x.
    """
    from polyadic.binary import close, coset_partition
    from polyadic.structure import Partition
    hg, n = group.hg, group.arity
    base, pows = hg.group, hg.phi_powers
    t, inv, m = base.table, base.inverse, base.order
    moves = np.vstack([t[t, inv[:, None]], hg.phi])
    orbits = Partition.components(moves).blocks
    gens = np.zeros((len(orbits), m), dtype=bool)
    for row, orbit in zip(gens, orbits):
        row[list(close(t, inv, list(orbit)))] = True
    gen_row, gen_elem = np.nonzero(gens)
    prefix = np.empty((n, m), dtype=np.int64)
    suffix = np.empty((n, m), dtype=np.int64)
    prefix[0], suffix[n - 1] = base.identity, hg.b
    for i in range(1, n):
        prefix[i] = t[prefix[i - 1], pows[i - 1]]
        suffix[n - 1 - i] = t[pows[n - i], suffix[n - i]]
    trivial = np.zeros(m, dtype=bool)
    trivial[base.identity] = True
    seen, todo, out = {trivial.tobytes()}, [trivial], []
    while todo:
        normal = np.flatnonzero(todo.pop())
        blocks, index = coset_partition(t[:, normal], len(normal))
        r = blocks[:, 0]
        values = t[t[prefix[:, r, None], pows[:, None, r]], suffix[:, r, None]]
        keep = (index[values] == np.arange(len(r))).all(axis=(0, 2))
        out += [tuple(b) for b in blocks[keep].tolist()]
        hits = np.zeros((len(gens), len(r)), dtype=bool)
        hits[gen_row, index[gen_elem]] = True
        for join in hits[:, index]:
            if join.tobytes() not in seen:
                seen.add(join.tobytes())
                todo.append(join)
    return sorted(out)


def subgroups_by_closure(group):
    """Every n-ary subgroup by the closure-lattice search over the m^n table, one closure per set.

    Closures of single elements, then ``S + {x}`` for every subgroup S found
    and one x per set f(S^(n-1), x) outside S: y = f(s1..s(n-1), x) has
    <S, y> = <S, x>.
    """
    from polyadic.binary import close, grid
    m, n = group.order, group.arity
    table, skews = group.dense(), group.skew_table()
    found = {close(table, skews, [x]) for x in range(m)}
    todo = list(found)
    while todo:
        s = list(todo.pop())
        done = np.zeros(m, dtype=bool)
        done[s] = True
        reached = table[grid(np.array(s), n - 1)].reshape(-1, m)   # column x: f(S^(n-1), x)
        for x in range(m):
            if done[x]:
                continue
            done[reached[:, x]] = True
            h = close(table, skews, s + [x])
            if h not in found:
                found.add(h)
                todo.append(h)
    return sorted(found)


def closed_by_grid(group, elems):
    """Is the subset closed under f?  One evaluation of all |H|^n tuples."""
    elems = sorted(set(elems))
    mask = np.zeros(group.order, dtype=bool)
    mask[elems] = True
    return bool(mask[group(*np.ix_(*[elems] * group.arity))].all())


def binary_subgroup_by_loops(group, elems):
    """(is_subgroup, is_normal_subgroup) of a binary group, one ``mul`` per pair."""
    s = {int(x) for x in elems}
    sub = bool(s) and group.identity in s and all(group.mul(a, b) in s for a in s for b in s)
    normal = sub and all(group.mul(group.mul(g, h), group.inv(g)) in s
                         for g in range(group.order) for h in s)
    return sub, normal


def commutators_by_loops(group):
    """The set of all a b a^-1 b^-1, one ``mul`` per step."""
    return {group.mul(group.mul(a, b), group.mul(group.inv(a), group.inv(b)))
            for a in range(group.order) for b in range(group.order)}


def witness_breaks(table, axiom, witness):
    """Does ``witness`` violate the associativity, solvability or ``hosszu-gluskin`` ``axiom``?"""
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
    return hosszu_gluskin_breaks(table, axiom, w)


def hosszu_gluskin_breaks(table, axiom, witness):
    """Does ``witness`` break the condition of a ``hosszu-gluskin(...)`` ``axiom``?

    Re-reads anchor 0 one cell at a time: abar, the unique z with
    f(0^(n-1), z) = 0; the retract x.y = f(x, 0^(n-2), y); phi(x) =
    f(abar, x, 0^(n-2)); b = f(abar^n).  In an n-ary group abar is the
    retract's identity, phi fixes b, phi^(n-1) is conjugation by b and the
    table is x1.phi(x2)...phi^(n-1)(xn).b, so each failure proves the table
    is none.
    """
    m, n = table.shape[0], table.ndim
    w, zeros = tuple(int(v) for v in witness), (0,) * (n - 2)

    def f(*xs):
        return int(table[xs])

    abars = [z for z in range(m) if f(*(0,) * (n - 1), z) == 0]
    if len(abars) != 1 or any(v < 0 or v >= m for v in w):
        return False
    abar = abars[0]
    b = f(*(abar,) * n)

    def mul(x, y):
        return f(x, *zeros, y)

    def phi(x, times=1):
        for _ in range(times):
            x = f(abar, x, *zeros)
        return x

    if axiom == "hosszu-gluskin(phi-fixes-b)":
        return w == (b,) and phi(b) != b
    if axiom == "hosszu-gluskin(phi-power)":
        inverses = [z for z in range(m) if mul(b, z) == abar]
        return (len(w) == 1 and len(inverses) == 1
                and phi(w[0], n - 1) != mul(mul(b, w[0]), inverses[0]))
    if axiom == "hosszu-gluskin(rebuild)":
        if len(w) != n:
            return False
        acc = w[0]
        for k in range(1, n):
            acc = mul(acc, phi(w[k], k))
        return f(*w) != mul(acc, b)
    return False


def single_cell_mutations(group):
    """(cell, table, group) for every table that differs from ``group``'s in exactly one cell."""
    table = group.dense()
    m = group.order
    for cell in np.ndindex(table.shape):
        for shift in range(1, m):
            mutated = table.copy()
            mutated[cell] = (mutated[cell] + shift) % m
            yield cell, mutated, P.NaryGroup(group.arity, m, table=mutated)


def eval_long(group, xs, fold="left"):
    """Fold the operation over a sequence of length k(n-1)+1, k >= 1, from the left or right."""
    xs = [int(x) for x in xs]
    n = group.arity
    if len(xs) < n or (len(xs) - 1) % (n - 1) != 0:
        raise ValueError(f"sequence length must be k(n-1)+1 for k>=1, got {len(xs)}")
    while len(xs) > n:
        if fold == "left":
            xs[:n] = [group.eval(xs[:n])]
        elif fold == "right":
            xs[-n:] = [group.eval(xs[-n:])]
        else:
            raise ValueError(f"unknown fold order {fold!r}")
    return group.eval(xs)


def eval_by_hg_formula(group, xs):
    """x1 phi(x2) ... phi^(n-1)(xn) b of an hg-backed group, one ``mul`` at a time."""
    g, pows = group.hg.group, group.hg.phi_powers
    acc = int(xs[0])
    for k in range(1, group.arity):
        acc = g.mul(acc, int(pows[k][xs[k]]))
    return g.mul(acc, group.hg.b)


def cover_table_by_eval_long(group, a):
    """The covering group's table at anchor ``a``, one ``eval_long`` call per cell."""
    m, n = group.order, group.arity
    period = n - 1
    abar = group.skew(a)
    table = np.zeros((m * period, m * period), dtype=np.int64)
    for x, r, y, s in itertools.product(range(m), range(period), range(m), range(period)):
        rs = (r + s + 1) % period
        seq = (x,) + (a,) * r + (y,) + (a,) * s + (abar,) + (a,) * (n - 2 - rs)
        table[x * period + r, y * period + s] = eval_long(group, seq) * period + rs
    return table


def cover_inverse_formula(cover):
    """Inverse of every cover element by the closed form.

    ``<x,t>^-1 = <fold(skew(a), a^(n-2-t), skew(x), x^(n-3), skew(a), a^(n-2-k)), k>``
    with ``k = (n-3-t) mod (n-1)``; the tail exponent n-2-k equals the usual
    t+1 except at t = n-2, where k wraps and the padding shrinks with it.
    """
    group, a = cover.base, cover.anchor
    n, period = group.arity, cover.period
    abar = group.skew(a)
    out = np.zeros(cover.group.order, dtype=np.int64)
    for x, t in itertools.product(range(group.order), range(period)):
        k = (n - 3 - t) % period
        seq = ((abar,) + (a,) * (n - 2 - t) + (group.skew(x),) + (x,) * (n - 3)
               + (abar,) + (a,) * (n - 2 - k))
        out[cover.pair_index(x, t)] = cover.pair_index(eval_long(group, seq), k)
    return out


def all_tuples(m, n):
    return np.stack(np.unravel_index(np.arange(m ** n), (m,) * n), axis=1)


def exhaustive_representation_scan(group, images, eps=EPS):
    """Product identity on every n-tuple, non-empty kernel, then skew powers."""
    images = np.asarray(images, dtype=complex)
    m, n, d = group.order, group.arity, images.shape[1]
    rows = all_tuples(m, n)
    acc = images[rows[:, 0]]
    for k in range(1, n):
        acc = acc @ images[rows[:, k]]
    err = np.abs(acc - images[group(*rows.T)]).reshape(len(rows), -1).max(axis=1)
    bad = np.nonzero(err > eps)[0]
    failures = [("homomorphism", rows[bad[0]])] if bad.size else []
    eye = np.eye(d)
    if not any(np.abs(images[x] - eye).max() <= eps for x in range(m)):
        failures.append(("kernel-empty", ()))
    if not failures:
        for e in range(m):
            want = np.linalg.matrix_power(images[e], 2 - n)
            if np.abs(images[group.skew(e)] - want).max() > eps * 10:
                failures.append((f"skew-power(e={e})", (e,)))
                break
    return P.VerificationReport.fail(failures, checked=len(rows)) if failures \
        else P.VerificationReport.ok(checked=len(rows))


def exhaustive_embedding_scan(cover):
    """n-fold cover products of embedded elements against the operation, every n-tuple."""
    group, emb, table = cover.base, cover.embed, cover.group.table
    rows = all_tuples(group.order, group.arity)
    acc = emb[rows[:, 0]]
    for k in range(1, group.arity):
        acc = table[acc, emb[rows[:, k]]]
    bad = np.nonzero(acc != emb[group(*rows.T)])[0]
    if bad.size:
        return P.VerificationReport.fail([("embedding-product", rows[bad[0]])], checked=len(rows))
    return P.VerificationReport.ok(checked=len(rows))


def product_identity_breaks(group, images, witness, eps=EPS):
    """Does the n-tuple ``witness`` break rho(f(w)) = rho(w1)...rho(wn), by lookup?"""
    images = np.asarray(images, dtype=complex)
    w = tuple(int(v) for v in witness)
    prod = images[w[0]]
    for v in w[1:]:
        prod = prod @ images[v]
    return len(w) == group.arity and np.abs(prod - images[group.dense()[w]]).max() > eps


def exhaustive_action_scan(act):
    """The action axioms over every point and every (n-tuple, point), by gather."""
    g, t, npts = act.group, act.table, act.npoints
    failures = []
    for x in range(g.order):
        if sorted(t[x].tolist()) != list(range(npts)):
            failures.append((f"action-bijectivity(x={x})", (x,)))
            break
    for a in range(npts):
        if not np.any(t[:, a] == a):
            failures.append(("action-fixed-point", (a,)))
            break
    composed = t
    for _ in range(g.arity - 1):
        composed = t[:, composed]          # prepend one more acting element
    bad = np.argwhere(t[g.dense()] != composed)
    if bad.size:
        failures.append(("action-composition", tuple(int(v) for v in bad[0])))
    checked = g.order ** g.arity * npts
    return P.VerificationReport.fail(failures, checked=checked) if failures \
        else P.VerificationReport.ok(checked=checked)


def composition_breaks(act, witness):
    """Does (x1..xn, a) break f(x1..xn).a = x1.(x2.(...(xn.a))), by lookup?"""
    *xs, a = (int(v) for v in witness)
    rhs = a
    for x in reversed(xs):
        rhs = act.apply(x, rhs)
    return len(xs) == act.group.arity and act.apply(int(act.group.dense()[tuple(xs)]), a) != rhs


def semiabelian_scan(group):
    """f(x1, .., xn) = f(xn, .., x1) with the ends swapped, on every n-tuple."""
    table = group.dense()
    return bool(np.array_equal(table, np.swapaxes(table, 0, group.arity - 1)))


MEDIAL_GRID_LIMIT = 10 ** 7


def medial_grid_scan(group):
    """The medial law on every n x n grid, for m^(n^2) up to ``MEDIAL_GRID_LIMIT``.

    One broadcast gather per composite, with one axis per grid cell.
    """
    m, n = group.order, group.arity
    assert m ** (n * n) <= MEDIAL_GRID_LIMIT, "grid scan too large"
    table = group.dense()

    def cell(r, c):
        k = r * n + c
        return np.arange(m).reshape((1,) * k + (m,) + (1,) * (n * n - k - 1))

    rows = tuple(table[tuple(cell(r, c) for c in range(n))] for r in range(n))
    cols = tuple(table[tuple(cell(r, c) for r in range(n))] for c in range(n))
    return bool(np.array_equal(table[rows], table[cols]))


def medial_two_cell_witness(group):
    """A grid breaking the medial law among those with all cells equal but two, else None.

    Every background element, every pair of cells and every pair of values:
    m^3 C(n^2, 2) grids, so a refutation at any size; finding none proves nothing.
    """
    m, n = group.order, group.arity
    p, q = np.array(list(itertools.combinations(range(n * n), 2))).T
    pair, background, x, y = np.unravel_index(np.arange(len(p) * m ** 3), (len(p), m, m, m))
    grids = np.repeat(background[:, None], n * n, axis=1)
    idx = np.arange(len(grids))
    grids[idx, p[pair]], grids[idx, q[pair]] = x, y
    grids = grids.reshape(-1, n, n)
    rows = [group(*grids[:, r, :].T) for r in range(n)]
    cols = [group(*grids[:, :, c].T) for c in range(n)]
    bad = np.flatnonzero(group(*rows) != group(*cols))
    return grids[bad[0]] if bad.size else None


def skew_is_homomorphism(group):
    """skew(f(x1..xn)) = f(skew(x1)..skew(xn)) on every n-tuple."""
    skews, table = group.skew_table(), group.dense()
    return bool(np.array_equal(skews[table], table[np.ix_(*([skews] * group.arity))]))


def canonical_action_by_eval(group):
    """x.a = f(x, a, x^(n-3), skew(x)), one ``eval`` per (x, a)."""
    m, n = group.order, group.arity
    return np.array([[group.eval((x, a) + (x,) * (n - 3) + (group.skew(x),)) for a in range(m)]
                     for x in range(m)], dtype=np.int64)


def shifted_identity_failure_by_eval(group, a, elems):
    """First (x, i, j, swapped) with f(x^i, a, x^j, skew(x), x^k) != a (or a, skew(x) exchanged)."""
    n = group.arity
    for x in elems:
        xb = group.skew(x)
        for i in range(n - 1):
            for j in range(n - 1 - i):
                k = n - 2 - i - j
                if group.eval((x,) * i + (a,) + (x,) * j + (xb,) + (x,) * k) != a:
                    return x, i, j, False
                if group.eval((x,) * i + (xb,) + (x,) * j + (a,) + (x,) * k) != a:
                    return x, i, j, True
    return None


def shifted_identity_failure(group, a, elems):
    """The first (x, i, j, swapped) in ``elems`` whose shifted identity fails, or None.

    The check ``centralizer`` ran after its stabilizer until Post's embedding
    showed it redundant: one evaluation on the (key, x) grid of every x,
    i + j <= n-2 and both variants, searched in that order.
    """
    n, xs = group.arity, np.asarray(elems, dtype=np.int64)
    keys = [(i, j, s) for i in range(n - 1) for j in range(n - 1 - i) for s in (False, True)]
    i, j, swapped = (np.array(col)[:, None] for col in zip(*keys))
    xb = group.skew_table()[xs]
    first, second = np.where(swapped, xb, a), np.where(swapped, a, xb)
    args = [np.where(i == p, first, np.where(i + j + 1 == p, second, xs)) for p in range(n)]
    bad = np.argwhere((group(*args) != a).T)
    return (int(xs[bad[0, 0]]),) + keys[bad[0, 1]] if bad.size else None


def retract_inverse_by_eval(group, a):
    """x^-1 = f(skew(a), x^(n-3), skew(x), skew(a)) in Ret_a, one ``eval`` per x."""
    n, abar = group.arity, group.skew(a)
    return [group.eval((abar,) + (x,) * (n - 3) + (group.skew(x), abar)) for x in range(group.order)]


def phi_line_by_eval(group, a):
    """phi(x) = f(skew(a), x, a^(n-2)), one ``eval`` per x."""
    n, abar = group.arity, group.skew(a)
    return [group.eval((abar, x) + (a,) * (n - 2)) for x in range(group.order)]


def retract_map_by_eval(group, e, p):
    """h(x) = f(e^(n-2), x, skew(p)), one ``eval`` per x."""
    n, pbar = group.arity, group.skew(p)
    return [group.eval((e,) * (n - 2) + (x, pbar)) for x in range(group.order)]

def closure_by_frontier(group, gens):
    """Subgroup of a binary group generated by ``gens``, grown one ``mul`` at a time."""
    seen = {group.identity} | {int(g) for g in gens}
    frontier = list(seen)
    while frontier:
        new = []
        for a in list(seen):
            for b in frontier:
                for c in (group.mul(a, b), group.mul(b, a)):
                    if c not in seen:
                        seen.add(c)
                        new.append(c)
        frontier = new
    return tuple(sorted(seen))


def generating_set_by_frontier(group):
    """Greedy generating set in element order, closed by ``closure_by_frontier``."""
    gens, closed = [], {group.identity}
    for x in range(group.order):
        if x not in closed:
            gens.append(x)
            closed = set(closure_by_frontier(group, gens))
            if len(closed) == group.order:
                break
    return gens


def element_order_by_loop(group, a):
    k, x = 1, a
    while x != group.identity:
        x = group.mul(x, a)
        k += 1
    return k


def subgroup_table_by_loops(group, elems):
    """The table of the subgroup on sorted ``elems`` in their positions, one ``mul`` per cell."""
    elems = sorted(int(x) for x in elems)
    pos = {e: i for i, e in enumerate(elems)}
    return np.array([[pos[group.mul(a, b)] for b in elems] for a in elems], dtype=np.int64)


def binary_quotient_by_loops(group, normal):
    """(table, index) of the quotient by a normal subgroup: cosets numbered by least member,
    ``index[x]`` the coset of x."""
    h = sorted(int(x) for x in normal)
    block_of, blocks = {}, []
    for a in range(group.order):
        if a in block_of:
            continue
        blk = tuple(sorted(int(group.table[a, x]) for x in h))
        for x in blk:
            block_of[x] = len(blocks)
        blocks.append(blk)
    table = np.array([[block_of[group.mul(bi[0], bj[0])] for bj in blocks] for bi in blocks],
                     dtype=np.int64)
    return table, [block_of[x] for x in range(group.order)]


def cosets_by_loops(group, subgroup):
    """Blocks aH = {f(a, x^(n-2), y)}, one ``eval`` per member; raises unless they partition."""
    n, h = group.arity, sorted(subgroup)
    seen, blocks = set(), []
    for a in range(group.order):
        if a in seen:
            continue
        blk = sorted({group.eval((a,) + (x,) * (n - 2) + (y,)) for x in h for y in h})
        if len(blk) != len(h) or seen & set(blk):
            raise P.InvalidGroupError(f"cosets of {subgroup} do not partition evenly")
        seen |= set(blk)
        blocks.append(tuple(blk))
    return tuple(blocks)


def abelian_characters_by_propagation(group, tol=1e-9):
    """Characters of an abelian group: roots of unity on the generators, propagated by products."""
    m = group.order
    gens = generating_set_by_frontier(group)
    if not gens:
        return np.ones((1, 1), dtype=complex)
    orders = [element_order_by_loop(group, g) for g in gens]
    chars = {}
    for choice in itertools.product(*[range(o) for o in orders]):
        values = np.zeros(m, dtype=complex)
        known = np.zeros(m, dtype=bool)
        values[group.identity], known[group.identity] = 1.0, True
        for g, k, o in zip(gens, choice, orders):
            root = np.exp(2j * np.pi * k / o)
            if known[g] and abs(values[g] - root) > tol:
                break
            values[g], known[g] = root, True
        else:
            frontier, ok = [group.identity] + list(gens), True
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
            if ok and known.all() and \
                    np.abs(values[group.table] - np.outer(values, values)).max() <= tol:
                chars.setdefault(tuple(np.round(values, 9).tolist()), values)
    return np.array([chars[k] for k in sorted(chars, key=str)])


def conjugation_congruence_by_dict(group):
    """Does the class of f(x1..xn) depend only on the argument classes?  One dict step per tuple."""
    cls = np.zeros(group.order, dtype=np.int64)
    for i, blk in enumerate(P.conjugacy_classes(group).blocks):
        cls[list(blk)] = i
    table = group.dense()
    seen = {}
    keys = np.stack([cls[idx] for idx in np.indices(table.shape)], axis=-1).reshape(-1, group.arity)
    for key, val in zip(map(tuple, keys.tolist()), cls[table].reshape(-1).tolist()):
        if seen.setdefault(key, val) != val:
            return False
    return True


def skew_by_element(group, x):
    """The skew of x: the one hit of row (x^(n-1), .), or the hg closed form checked by ``eval``."""
    n = group.arity
    if group.kind == "dense":
        hits = np.nonzero(group.dense()[(x,) * (n - 1)] == x)[0]
        if len(hits) != 1:
            raise P.InvalidGroupError(f"skew of {x} not unique: {len(hits)} solutions")
        return int(hits[0])
    g, pows = group.hg.group, group.hg.phi_powers
    acc = g.identity
    for k in range(1, n - 1):
        acc = g.mul(acc, int(pows[k][x]))
    z = g.inv(g.mul(acc, group.hg.b))
    if group.eval((x,) * (n - 1) + (z,)) != x:
        raise P.InvalidGroupError(f"skew closed form failed at {x}")
    return z


def orbits_by_union_find(act):
    """Orbit blocks by union-find over every (element, point) pair, keyed by least member."""
    parent = list(range(act.npoints))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for x in range(act.group.order):
        for a in range(act.npoints):
            ra, rb = find(a), find(act.apply(x, a))
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    blocks = {}
    for a in range(act.npoints):
        blocks.setdefault(find(a), []).append(a)
    return tuple(tuple(b) for b in sorted(blocks.values()))


def first_skew_outside(group, elems):
    """The first member of sorted ``elems`` whose skew is not a member, else None."""
    s = {int(x) for x in elems}
    return next((x for x in sorted(s) if group.skew(x) not in s), None)


def lift_criterion_by_eval(group, gamma, e):
    """G(f(skew(e), x2..x(n-1), skew(e))) = G(x2)...G(x(n-1)) on every inner tuple.

    For n = 3 the ternary criterion G(skew(x)) = G(x)^-1 must give the same answer.
    """
    n, m, images = group.arity, group.order, gamma.images
    tol = EPS * 10
    ebar = group.skew(e)
    ok = all(
        np.abs(images[group.eval((ebar,) + xs + (ebar,))]
               - reduce(np.matmul, [images[x] for x in xs])).max() <= tol
        for xs in itertools.product(range(m), repeat=n - 2))
    if n == 3:
        skew_ok = all(np.abs(images[group.skew(x)] - np.linalg.inv(images[x])).max() <= tol
                      for x in range(m))
        assert skew_ok == ok, "ternary skew criterion disagrees with the inner-tuple one"
    return ok


def hat_char_by_eval(char, e, p):
    """chi(f(e^(n-2), x, skew(p))), one ``eval`` per x."""
    g = char.group
    return char.values[[g.eval((e,) * (g.arity - 2) + (x, g.skew(p))) for x in range(g.order)]]


def kernel_by_element(rep):
    """{x : L(x) = id}, one matrix compare per element."""
    eye = np.eye(rep.dim)
    return tuple(x for x in range(rep.group.order)
                 if np.abs(rep.images[x] - eye).max() <= EPS)


def one_dim_reps_by_cover(group):
    """Every 1-dim representation as a restricted linear character of the cover at anchor 0.

    The cover's linear characters whose kernel meets the embedded carrier,
    restricted, deduplicated by rounded value vector.
    """
    from polyadic.binary import linear_characters
    cov = P.covering_group(group, 0)
    seen = {}
    for row in linear_characters(cov.group):
        restricted = row[cov.embed]
        if np.abs(restricted - 1.0).min() <= EPS:
            seen.setdefault(tuple(np.round(restricted, 9).tolist()),
                            P.Representation(group, restricted.reshape(-1, 1, 1)))
    return list(seen.values())


def character_class_spread(rep):
    """The largest spread of the trace of ``rep`` within one conjugacy class."""
    traces = np.trace(rep.images, axis1=1, axis2=2)
    return max(np.abs(traces[list(blk)] - traces[blk[0]]).max()
               for blk in P.conjugacy_classes(rep.group).blocks)


def mismatches_by_slices(table, data):
    """Yield the flat indices of the cells differing from the rebuild, one array per slice x1.

    Slice x1 of ``x1 phi(x2) ... phi^(n-1)(xn) b`` is ``tail[g.table[x1, prefix]]``:
    ``prefix`` is phi(x2) ... phi^(n-2)(x(n-1)) flattened over x2..x(n-1), and
    row y of ``tail`` is y phi^(n-1)(xn) b; a slice has shape (m^(n-2), m).
    """
    g, pows, n = data.group, data.phi_powers, data.arity
    m = g.order
    prefix = pows[1]
    for k in range(2, n - 1):
        prefix = g.table[prefix[..., None], pows[k]]
    prefix, tail = prefix.reshape(-1), g.table[:, g.table[pows[n - 1], data.b]]
    for x1 in range(m):
        rebuilt = tail[g.table[x1, prefix]]
        given = table[x1].reshape(-1, m)
        if not np.array_equal(rebuilt, given):
            yield x1 * m ** (n - 1) + np.flatnonzero(rebuilt != given)
