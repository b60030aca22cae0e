"""Complex matrix representations and characters of finite n-ary groups.

A representation maps elements to invertible matrices so that the image of
``f(x1..xn)`` is the n-fold matrix product, and at least one element maps to
the identity matrix (the kernel condition): multiplicative solutions with an
empty kernel ("hom-solutions", e.g. the constant -1) are deliberately not
representations and are tracked separately where they matter.  Whether a
map is a representation is decided exactly, by the homomorphism certificate
on m^2 + m + 1 tuples (:func:`verify_representation`), never by sampling.

:class:`Representation` and :class:`BinaryRepresentation` are verified
values, as :class:`~polyadic.binary.BinaryGroup` is: construction runs the
verifier and raises :class:`~polyadic.errors.InvalidGroupError`, carrying
the report, on failure (:func:`one_dim_reps` certifies its results first).
The images are kept read-only, so nothing checks a representation again.

Matrix equality uses two fixed tolerances, ``EPS`` = 1e-9 per entry and
``SUM_EPS`` = 1e-6 for accumulated sums such as orthogonality; no argument
changes them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .binary import (BinaryGroup, HGData, abelian_characters, abelian_phases, close,
                     commutator_subgroup, read_only)
from .core import NaryGroup, homomorphism_certificate_rows, is_semiabelian
from .cover import CoveringGroup
from .errors import CriterionUnavailableError, InvalidGroupError, SizeLimitError
from .report import VerificationReport
from .retract import hg_construct, retract, hg_decompose
from .structure import QuotientGroup, SubgroupRef, _is_normal, central_elements, verify_subgroup

EPS = 1e-9
SUM_EPS = 1e-6
_CHUNK = 1 << 15


def _mat_close(a: np.ndarray, b: np.ndarray, eps: float) -> bool:
    return bool(np.abs(a - b).max() <= eps)


def _require(report: VerificationReport) -> None:
    """Raise :class:`InvalidGroupError`, carrying the report, unless it passed."""
    if not report.passed:
        f = report.first()
        raise InvalidGroupError(f"not a representation: {f.axiom} witness={f.witness}", report)


def _verified_images(rep, verify) -> None:
    """Keep ``rep.images`` as a read-only complex copy and verify them; raise on failure."""
    arr = read_only(np.array(rep.images, dtype=complex))
    object.__setattr__(rep, "images", arr)
    _require(verify(rep.group, arr))


@dataclass(frozen=True, eq=False)
class Representation:
    """Map from carrier elements to invertible complex matrices, verified on construction
    (:func:`one_dim_reps` alone skips the verifier, through :meth:`_certified`)."""

    group: NaryGroup
    images: np.ndarray

    def __post_init__(self):
        _verified_images(self, verify_representation)

    @classmethod
    def _certified(cls, group: NaryGroup, images: np.ndarray) -> "Representation":
        """A representation of ``images`` that a certificate has already decided, kept read-only."""
        rep = object.__new__(cls)
        object.__setattr__(rep, "group", group)
        object.__setattr__(rep, "images", read_only(images))
        return rep

    @property
    def dim(self) -> int:
        return self.images.shape[1]


@dataclass(frozen=True, eq=False)
class BinaryRepresentation:
    """Ordinary matrix representation of a finite binary group, verified on construction."""

    group: BinaryGroup
    images: np.ndarray

    def __post_init__(self):
        _verified_images(self, verify_binary_representation)

    @property
    def dim(self) -> int:
        return self.images.shape[1]


@dataclass(frozen=True, eq=False)
class Character:
    """Trace vector of a representation."""

    group: NaryGroup
    values: np.ndarray
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=complex))


@dataclass(frozen=True)
class GModule:
    """A representation together with an element acting as the identity."""

    rep: Representation
    p: int

    def __post_init__(self):
        d = self.rep.dim
        if not _mat_close(self.rep.images[self.p], np.eye(d), EPS):
            raise InvalidGroupError(f"element {self.p} does not act as the identity")


def _square_images(images, m: int) -> np.ndarray | None:
    """``images`` as an (m, d, d) complex array, or None when they have another shape."""
    images = np.asarray(images, dtype=complex)
    if images.ndim != 3 or images.shape != (m, images.shape[1], images.shape[1]):
        return None
    return images


def verify_representation(group: NaryGroup, images) -> VerificationReport:
    """Invertible images, the product identity on every n-tuple, non-empty kernel.

    The product identity is decided by the homomorphism certificate: it
    holds on every n-tuple iff it holds on the m^2 + m + 1 rows of
    :func:`~polyadic.core.homomorphism_certificate_rows`
    (``method="certificate"``, ``checked`` = m^2 + m + 1).  A failing row is
    itself a failing n-tuple and is the ``homomorphism`` witness.  The skew
    law ``L(skew(e)) = L(e)^(2-n)`` follows, from f(e^(n-1), skew(e)) = e.
    """
    m = group.order
    images = _square_images(images, m)
    if images is None:
        return VerificationReport.fail([("images-shape", ())])
    d = images.shape[1]
    dets = np.linalg.det(images)
    bad = np.nonzero(np.abs(dets) <= EPS)[0]
    if bad.size:
        return VerificationReport.fail([(f"not-invertible(x={int(bad[0])})", (int(bad[0]),))])
    rows = homomorphism_certificate_rows(group)
    failures = []
    for lo in range(0, len(rows), _CHUNK):
        chunk = rows[lo:lo + _CHUNK]
        acc = images[chunk[:, 0]]
        for k in range(1, group.arity):
            acc = acc @ images[chunk[:, k]]
        want = images[group(*chunk.T)]
        err = np.abs(acc - want).reshape(len(chunk), -1).max(axis=1)
        idx = np.nonzero(err > EPS)[0]
        if idx.size:
            failures.append(("homomorphism", chunk[idx[0]]))
            break
    if not (np.abs(images - np.eye(d)).reshape(m, -1).max(axis=1) <= EPS).any():
        failures.append(("kernel-empty", ()))
    return VerificationReport.certificate(failures, checked=len(rows))


def verify_binary_representation(group: BinaryGroup, images) -> VerificationReport:
    """Ordinary-group check: pairwise homomorphism and identity image."""
    m = group.order
    images = _square_images(images, m)
    if images is None:
        return VerificationReport.fail([("images-shape", ())])
    d = images.shape[1]
    if not _mat_close(images[group.identity], np.eye(d), EPS):
        return VerificationReport.fail([("identity-image", (group.identity,))])
    pairs = np.stack(np.unravel_index(np.arange(m * m), (m, m)), axis=1)
    acc = images[pairs[:, 0]] @ images[pairs[:, 1]]
    want = images[group.table[pairs[:, 0], pairs[:, 1]]]
    err = np.abs(acc - want).reshape(len(pairs), -1).max(axis=1)
    idx = np.nonzero(err > EPS)[0]
    if idx.size:
        return VerificationReport.fail(
            [("homomorphism", tuple(int(v) for v in pairs[idx[0]]))], checked=m * m
        )
    return VerificationReport.ok(checked=m * m)


# -- characters and kernels ------------------------------------------------------

def character(rep: Representation) -> Character:
    """Trace vector of a representation, a class function by theorem.

    From f(x^(n-1), skew(x)) = x, L(skew(x)) = L(x)^(2-n), so the canonical
    action x.a = f(x, a, x^(n-3), skew(x)) maps to conjugation:
    L(x.a) = L(x) L(a) L(x)^-1.  The trace is therefore constant on its
    orbits, the conjugacy classes, and no classes are computed here.
    """
    return Character(rep.group, np.trace(rep.images, axis1=1, axis2=2), rep.dim)


def kernel(rep: Representation) -> SubgroupRef:
    """{x : L(x) = id}, in one compare of every image, verified a normal subgroup."""
    err = np.abs(rep.images - np.eye(rep.dim)).reshape(rep.group.order, -1).max(axis=1)
    by_matrix = tuple(np.flatnonzero(err <= EPS).tolist())
    report = verify_subgroup(rep.group, by_matrix)
    if not report.passed:
        raise InvalidGroupError(f"kernel is not a subgroup: {report.first().axiom}")
    if not _is_normal(rep.group, by_matrix):
        raise InvalidGroupError("kernel is not a normal subgroup")
    return by_matrix


def kernel_chi(char: Character) -> SubgroupRef:
    """{x : chi(x) = dim}, the trace route to the kernel."""
    return tuple(np.flatnonzero(np.abs(char.values - char.dim) <= EPS * 10).tolist())


# -- transfer to and from the retract ---------------------------------------------

def hat_rep(rep: Representation, e: int) -> BinaryRepresentation:
    """L_hat(x) = L(e)^(n-2) L(x), an ordinary representation of the retract at e.

    Verified, with its identity image, as the :class:`BinaryRepresentation`
    is built.
    """
    head = np.linalg.matrix_power(rep.images[e], rep.group.arity - 2)
    return BinaryRepresentation(retract(rep.group, e), head @ rep.images)


def hat_char(char: Character, e: int, p: int) -> np.ndarray:
    """chi_hat(x) = chi(f(e^(n-2), x, skew(p))) for any kernel element p."""
    g = char.group
    if abs(char.values[p] - char.dim) > EPS * 10:
        raise InvalidGroupError(f"element {p} is not in the character kernel")
    return char.values[g(*(int(e),) * (g.arity - 2), np.arange(g.order), g.skew(p))]


def lift_from_retract(group: NaryGroup, gamma: BinaryRepresentation,
                      e: int) -> Representation | None:
    """Reinterpret a retract representation as an n-ary one, when legal; else None.

    Legal means the same images build a :class:`Representation`, that is,
    :func:`verify_representation` passes on them.  That decides the
    inner-tuple criterion
    ``G(f(skew(e), x2..x_(n-1), skew(e))) = G(x2)...G(x_(n-1))`` (for n = 3,
    ``G(skew(x)) = G(x)^-1``): in Ret_e, f(x1..xn) = x1.f(skew(e), x2..x_(n-1),
    skew(e)).xn, so a retract representation meets it iff it is an n-ary one.
    """
    if not np.array_equal(gamma.group.table, retract(group, e).table):
        raise InvalidGroupError("gamma is not a representation of the retract at e")
    try:
        return Representation(group, gamma.images)
    except InvalidGroupError:
        return None


def character_conjugation_rule(group: NaryGroup, values) -> bool:
    """Pointwise test chi(skew(x)) == conj(chi(x)) on any value vector."""
    values = np.asarray(values, dtype=complex)
    skews = group.skew_table()
    return bool(np.abs(values[skews] - np.conj(values)).max() <= EPS * 10)


@dataclass(frozen=True)
class DerivedLiftCriteria:
    """Lift tests for groups that are twisted products over a central element."""

    product_rule: bool
    ternary_skew_rule: bool | None
    character_rule: bool
    lift_succeeds: bool


def der_b_lift_criteria(group: NaryGroup, gamma: BinaryRepresentation,
                        e: int | None = None) -> DerivedLiftCriteria:
    """Evaluate the central-element lift criteria for a retract representation.

    Requires the group to have a central element (equivalently, to be a
    twisted product of its retract there by a central twist b).  The three
    tests are the (n-1)-fold product rule ``G(x2...xn b) = G(x2)...G(xn)``,
    the ternary rule ``G((b x)^-1) = G(x)^-1``, and the character rule
    ``chi(skew(x)) = conj(chi(x))``.
    """
    centrals = central_elements(group)
    if not centrals:
        raise CriterionUnavailableError("group has no central element")
    e = centrals[0] if e is None else int(e)
    if e not in centrals:
        raise InvalidGroupError(f"element {e} is not central")
    data = hg_decompose(group, e)
    base, b = data.group, data.b
    if not np.array_equal(gamma.group.table, base.table):
        raise InvalidGroupError("gamma is not a representation of the retract at e")
    n, m = group.arity, group.order
    product_rule = True
    for xs in itertools.product(range(m), repeat=n - 1):
        lhs = gamma.images[base.product(xs + (b,))]
        rhs = reduce(np.matmul, [gamma.images[x] for x in xs])
        if not _mat_close(lhs, rhs, EPS * 10):
            product_rule = False
            break
    ternary_rule = None
    if n == 3:
        ternary_rule = all(
            _mat_close(
                gamma.images[base.inv(base.mul(b, x))],
                np.linalg.inv(gamma.images[x]),
                EPS * 10,
            )
            for x in range(m)
        )
    traces = np.trace(gamma.images, axis1=1, axis2=2)
    char_rule = character_conjugation_rule(group, traces)
    lifted = lift_from_retract(group, gamma, e)
    return DerivedLiftCriteria(product_rule, ternary_rule, char_rule, lifted is not None)


# -- equivalence -------------------------------------------------------------------

def _pick_hat_anchor(group: NaryGroup) -> int:
    centrals = central_elements(group)
    if centrals:
        return centrals[0]
    if is_semiabelian(group):
        return 0
    raise CriterionUnavailableError(
        "equivalence criterion needs a central element or a semiabelian group"
    )


def equivalent(rep1: Representation, rep2: Representation, e: int | None = None) -> bool:
    """Hat-character equality plus matching trace at the anchor element."""
    if rep1.group is not rep2.group and not rep1.group.equals(rep2.group):
        raise InvalidGroupError("representations live on different groups")
    e = _pick_hat_anchor(rep1.group) if e is None else int(e)
    c1, c2 = character(rep1), character(rep2)
    p1 = kernel_chi(c1)[0]
    p2 = kernel_chi(c2)[0]
    h1, h2 = hat_char(c1, e, p1), hat_char(c2, e, p2)
    if h1.shape != h2.shape or np.abs(h1 - h2).max() > SUM_EPS:
        return False
    return abs(c1.values[e] - c2.values[e]) <= SUM_EPS


def similar_representations(rep1: Representation, rep2: Representation,
                            trials: int = 64, seed: int = 0x5EED) -> bool:
    """Brute-force similarity oracle: search for an invertible intertwiner.

    Solves S L1(x) = L2(x) S as a linear system, then draws random complex
    combinations of the solution basis looking for an invertible one.
    """
    if rep1.dim != rep2.dim:
        return False
    d, m = rep1.dim, rep1.group.order
    if d > 3 or m > 8:
        raise SizeLimitError("similarity oracle limited to dim <= 3, order <= 8")
    eye = np.eye(d)
    blocks = [
        np.kron(eye, rep1.images[x].T) - np.kron(rep2.images[x], eye)
        for x in range(m)
    ]
    system = np.concatenate(blocks, axis=0)
    _, sing, vh = np.linalg.svd(system)
    tol = max(1.0, sing.max() if sing.size else 1.0) * 1e-9
    null = vh[np.sum(sing > tol):].conj()
    if null.shape[0] == 0:
        return False
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        coeff = rng.normal(size=null.shape[0]) + 1j * rng.normal(size=null.shape[0])
        s = (coeff @ null).reshape(d, d)
        if abs(np.linalg.det(s)) > 1e-6:
            return True
    return False


# -- complete reducibility ------------------------------------------------------------

def maschke_decompose(module: GModule, w_basis) -> tuple[np.ndarray, np.ndarray]:
    """Averaged projector onto an invariant subspace and an invariant complement.

    theta = (1/|G|) sum_x L(skew(x)) P L(x), with P the orthogonal projection
    onto the subspace.  The result is checked to be an idempotent equivariant
    projector with image the given subspace; the complement returned is its
    null space.  Used at desk scale on ternary modules.
    """
    rep = module.rep
    g, d, eps = rep.group, rep.dim, EPS
    w = np.asarray(w_basis, dtype=complex).reshape(d, -1)
    k = w.shape[1]
    if k:
        q, _ = np.linalg.qr(w)
        proj = q @ q.conj().T
        for x in range(g.order):
            moved = rep.images[x] @ q
            if np.abs(moved - proj @ moved).max() > eps * 100:
                raise InvalidGroupError(f"subspace is not invariant under element {x}")
    else:
        q = w
        proj = np.zeros((d, d), dtype=complex)
    theta = np.zeros((d, d), dtype=complex)
    for x in range(g.order):
        theta += rep.images[g.skew(x)] @ proj @ rep.images[x]
    theta /= g.order
    if not _mat_close(theta @ theta, theta, eps * 100):
        raise InvalidGroupError("averaged map is not idempotent")
    for x in range(g.order):
        if not _mat_close(theta @ rep.images[x], rep.images[x] @ theta, eps * 100):
            raise InvalidGroupError(f"averaged map does not commute with element {x}")
    if k and np.abs(theta @ q - q).max() > eps * 100:
        raise InvalidGroupError("averaged map does not fix the subspace")
    _, sing, vh = np.linalg.svd(theta)
    rank = int(np.sum(sing > eps * 100))
    if rank != k:
        raise InvalidGroupError(f"projector rank {rank} differs from subspace dim {k}")
    complement = vh[rank:].conj().T
    if complement.shape[1]:
        if np.abs(theta @ complement).max() > eps * 100:
            raise InvalidGroupError("complement is not annihilated by the projector")
        cproj = complement @ complement.conj().T
        for x in range(g.order):
            moved = rep.images[x] @ complement
            if np.abs(moved - cproj @ moved).max() > eps * 100:
                raise InvalidGroupError(f"complement not invariant under element {x}")
    stacked = np.concatenate([q, complement], axis=1)
    if stacked.shape[1] != d or np.linalg.matrix_rank(stacked, tol=eps * 100) != d:
        raise InvalidGroupError("subspace and complement do not span the space")
    return theta, complement


def orthogonality_check(char1: Character, p1: int, char2: Character, p2: int,
                        e: int) -> complex:
    """(1/|G|) sum_x chi1_hat(x) conj(chi2_hat(x)) via the kernel-shifted forms."""
    h1 = hat_char(char1, e, p1)
    h2 = hat_char(char2, e, p2)
    return complex(np.mean(h1 * np.conj(h2)))


# -- enumeration and classification -----------------------------------------------------

def one_dim_reps(group: NaryGroup) -> list[Representation]:
    """All 1-dim representations, in closed form from the decomposition (G, phi, b).

    Theorem: the 1-dim representations are rho = u chi, for chi a linear
    character of G with chi o phi = chi and u a root of u^(n-1) = chi(b),
    such that u^-1 lies in chi(G); distinct pairs (chi, u) give distinct rho.

    Proof.  With e the identity of G, f(x1..xn) = x1 phi(x2) ... phi^(n-1)(xn) b
    and phi^(n-1)(y) = b y b^-1 give f(e^n) = b, f(x, e^(n-1)) = x b,
    f(e^(n-1), y) = b y, f(x, e^(n-2), y) = x b y and f(e, x, e^(n-2)) = phi(x) b.
    Let rho be multiplicative and u = rho(e).  Then rho(x b) = rho(x) u^(n-1)
    = rho(b x), so rho(x y) = rho(x b (b^-1 y)) = rho(x) u^(n-2) rho(y) u^(1-n),
    and chi = rho / u is multiplicative on G; rho(phi(x) b) = u^(n-1) rho(x)
    gives chi o phi = chi; and chi(b) = rho(b) / u = u^(n-1).  Conversely, for
    such (chi, u), rho(f(x1..xn)) = u chi(b) chi(x1) ... chi(xn) = prod rho(xi)
    by phi-invariance, and u = rho(e), chi = rho / u recover the pair.  The
    kernel condition, rho(x) = 1 for some x, is u^-1 in chi(G).

    The phi-invariant linear characters are those of A = G / N, N generated by
    the commutators and every x phi(x)^-1 (normal, as it holds G').  With
    c(x) the integer phase of chi in units of 1/E, E the exponent of A, the
    roots u are the phases c(b) + E j in units of 1/(E(n-1)), j = 0..n-2, so
    rho has phase (n-1) c(x) + c(b) + E j mod E(n-1): each pair is kept iff
    some phase is 0, decided on integers.  No cover is built and no m^n
    table is read: past the O(m^2) of N and A the pairs cost O(n m |A|).
    All k results are certified at once, with no tolerance: their phases must
    add up mod E(n-1) on the rows of :func:`~polyadic.core.homomorphism_certificate_rows`
    (roots of unity are invertible; the kernel is the filter above), or
    :class:`~polyadic.errors.InvalidGroupError` is raised.  Sorted by phase
    vector, they are built by :meth:`Representation._certified`.
    """
    hg, n = group.hg, group.arity
    base, phi = hg.group, hg.phi
    t, inv = base.table, base.inverse
    normal = close(t, inv, [*commutator_subgroup(base), *t[np.arange(base.order), inv[phi]]])
    quot, block_of = base.quotient(normal)
    phases, period = abelian_phases(quot)
    c = phases[:, block_of]                          # rows chi, columns x
    roots = c[:, hg.b, None] + period * np.arange(n - 1)
    full = period * (n - 1)
    rho = ((n - 1) * c[:, None, :] + roots[:, :, None]) % full
    rho = rho.reshape(-1, base.order)
    rho = rho[(rho == 0).any(axis=1)]
    rho = rho[np.lexsort(rho.T[::-1])]
    rows = homomorphism_certificate_rows(group)
    excess = -rho[:, group(*rows.T)]                 # rho(x1) + ... + rho(xn) - rho(f(x1..xn))
    for col in rows.T:
        excess += rho[:, col]
    wrong = np.argwhere(excess % full)[:1, 1]
    _require(VerificationReport.certificate([("homomorphism", rows[r]) for r in wrong], len(rows)))
    images = read_only(np.exp(2j * np.pi * rho / full).reshape(len(rho), -1, 1, 1))
    return [Representation._certified(group, row) for row in images]


def one_dim_reps_bruteforce(group: NaryGroup) -> list[np.ndarray]:
    """Independent search: value vectors over fixed roots of unity.

    Tries every assignment of (m(n-1))-th roots of unity to the carrier,
    keeping assignments that satisfy the n-ary product identity and have a
    value 1 somewhere.  Deliberately separate from the closed form so the two
    can be compared as sets.
    """
    m, n = group.order, group.arity
    order = m * (n - 1)
    if order ** m > 5_000_000:
        raise SizeLimitError("brute-force search space too large")
    roots = np.exp(2j * np.pi * np.arange(order) / order)
    table = group.dense()   # every assignment is checked on every cell
    found: dict[tuple, np.ndarray] = {}
    for combo in itertools.product(range(order), repeat=m):
        values = roots[list(combo)]
        prod = reduce(np.multiply.outer, [values] * n)
        if np.abs(values[table] - prod).max() > EPS:
            continue
        if np.abs(values - 1.0).min() > EPS:
            continue
        found.setdefault(tuple(np.round(values, 9).tolist()), values)
    return [found[key] for key in sorted(found, key=str)]


def value_vector_set(reps, digits: int = 9) -> set[tuple]:
    """Canonical set of rounded 1-dim value vectors for set comparison."""
    out = set()
    for rep in reps:
        values = rep.images.reshape(-1) if isinstance(rep, Representation) else np.asarray(rep).reshape(-1)
        out.add(tuple(np.round(values, digits).tolist()))
    return out


@dataclass(frozen=True)
class TernaryMinusClassification:
    """1-dim classification of the ternary difference group over an abelian base."""

    group: NaryGroup
    valid: tuple[tuple[int, np.ndarray, Representation], ...]
    hom_only: tuple[tuple[int, np.ndarray], ...]


def classify_ternary_minus(base: BinaryGroup) -> TernaryMinusClassification:
    """Classify 1-dim representations of (base, x - y + z) as sign * character.

    Every candidate is a +-1 involution times an ordinary character of the
    abelian base; each is built once as a :class:`Representation`, which
    verifies it (homomorphism and non-empty kernel).  A candidate rejected
    for its empty kernel alone is a hom-solution.  The tests check that the
    surviving set is the enumeration of :func:`one_dim_reps`.
    """
    if not base.is_abelian:
        raise InvalidGroupError("classification requires an abelian base group")
    group = hg_construct(HGData(base, base.inverse, base.identity, 3))
    valid = []
    hom_only = []
    for sign in (1, -1):
        for row in abelian_characters(base):
            try:
                valid.append((sign, row, Representation(group, (sign * row).reshape(-1, 1, 1))))
            except InvalidGroupError as exc:
                if {f.axiom for f in exc.report.failures} == {"kernel-empty"}:
                    hom_only.append((sign, row))
    return TernaryMinusClassification(group, tuple(valid), tuple(hom_only))


def coset_example_group(ambient: BinaryGroup, subgroup, a: int,
                        arity: int = 3) -> tuple[NaryGroup, tuple[int, ...]]:
    """n-ary group on the coset a*H of an ordinary group.

    Two shapes: for an involution a outside a normal subgroup H the ternary
    operation is the plain triple product; for a central element a of order
    ``arity`` outside any subgroup H the operation is a times the product of
    all arguments.
    """
    h = sorted(int(x) for x in subgroup)
    if not ambient.is_subgroup(h):
        raise InvalidGroupError("subgroup required")
    if int(a) in h:
        raise InvalidGroupError("coset representative must lie outside the subgroup")
    carrier = tuple(sorted(ambient.mul(int(a), x) for x in h))
    pos = {e: i for i, e in enumerate(carrier)}
    k = len(carrier)
    involution = arity == 3 and ambient.element_order(int(a)) == 2
    if involution:
        if not ambient.is_normal_subgroup(h):
            raise InvalidGroupError("involution form needs a normal subgroup")
        def op(xs):
            return ambient.product(xs)
    else:
        if int(a) not in ambient.center:
            raise InvalidGroupError("general form needs a central representative")
        if ambient.element_order(int(a)) != arity:
            raise InvalidGroupError(
                f"representative order {ambient.element_order(int(a))} must equal arity {arity}"
            )
        def op(xs):
            return ambient.mul(int(a), ambient.product(xs))
    table = np.zeros((k,) * arity, dtype=np.int64)
    for combo in itertools.product(range(k), repeat=arity):
        val = op(tuple(carrier[c] for c in combo))
        if val not in pos:
            raise InvalidGroupError("coset is not closed under the operation")
        table[combo] = pos[val]
    group = NaryGroup(arity, k, table=table)
    if not group.report.passed:
        raise InvalidGroupError(f"coset operation failed: {group.report.first().axiom}")
    return group, carrier


def restrict_to_coset(images, carrier, group: NaryGroup) -> Representation:
    """Restrict an ambient-group representation to a coset group's carrier."""
    return Representation(group, np.asarray(images, dtype=complex)[list(carrier)])


# -- transfer along covers and quotients ---------------------------------------------

def lift_module_from_cover(cover: CoveringGroup,
                           gamma: BinaryRepresentation) -> Representation | None:
    """Restrict a covering-group representation when its kernel meets the carrier, else None.

    The restriction is multiplicative because the embedding is, so the
    :class:`Representation` built from it fails only the kernel condition.
    """
    if not np.array_equal(gamma.group.table, cover.group.table):
        raise InvalidGroupError("gamma is not a representation of this cover")
    try:
        return Representation(cover.base, gamma.images[cover.embed])
    except InvalidGroupError:
        return None


def factor_rep(rep: Representation, quot: QuotientGroup) -> Representation:
    """Representation of the quotient, L_bar(aH) = L(a), for H inside the kernel."""
    h = quot.partition.blocks[quot.identity_block]
    ker = kernel(rep)
    if not set(h) <= set(ker):
        raise InvalidGroupError("the subgroup must lie inside the kernel")
    reps_idx = list(quot.partition.representatives)
    for i, blk in enumerate(quot.partition.blocks):
        block_images = rep.images[list(blk)]
        if np.abs(block_images - block_images[0]).max() > EPS * 10:
            raise InvalidGroupError(f"representation not constant on block {blk}")
    return Representation(quot.group, rep.images[reps_idx])


def pull_back_rep(quot: QuotientGroup, qrep: Representation) -> Representation:
    """Representation of the base group pulled back through the block map."""
    if qrep.group is not quot.group and not qrep.group.equals(quot.group):
        raise InvalidGroupError("representation does not live on this quotient")
    return Representation(quot.base, qrep.images[quot.block_index])
