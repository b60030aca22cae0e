"""Representations: verification, characters, transfer, Maschke, classification."""

import itertools

import numpy as np
import pytest

import oracle
import polyadic as P
from polyadic.binary import linear_characters
from polyadic.core import homomorphism_certificate_rows
from conftest import (A3, SIGN, TRANSPOSITIONS, binary_catalog, derived_corpus, large_corpus,
                      s3_two_dim)


def one_dim(values):
    return np.asarray(values, dtype=complex).reshape(-1, 1, 1)


@pytest.fixture(scope="module")
def sign_rep(s3t):
    return P.Representation(s3t, one_dim(SIGN))


@pytest.fixture(scope="module")
def conjugated_t2_rep(t2):
    rng = np.random.default_rng(42)
    while True:
        basis = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        if abs(np.linalg.det(basis)) > 0.5:
            break
    diag = [np.eye(2, dtype=complex), np.diag([1.0, -1.0]).astype(complex)]
    images = np.array([basis @ diag[x] @ np.linalg.inv(basis) for x in range(2)])
    return P.Representation(t2, images), basis


class TestVerifyRepresentation:
    def test_trivial_passes_everywhere(self, fixtures):
        for group in fixtures.values():
            report = P.verify_representation(group, one_dim(np.ones(group.order)))
            assert report.passed

    def test_t2_plus_minus(self, t2):
        report = P.verify_representation(t2, one_dim([1, -1]))
        assert report.passed

    def test_t2b_hom_solution_has_empty_kernel(self, t2b):
        report = P.verify_representation(t2b, one_dim([1j, -1j]))
        assert not report.passed and report.method == "certificate"
        assert {f.axiom for f in report.failures} == {"kernel-empty"}

    def test_homomorphism_failure(self, t2):
        report = P.verify_representation(t2, one_dim([1, 1j]))
        assert not report.passed
        assert any(f.axiom == "homomorphism" for f in report.failures)

    def test_non_invertible_rejected(self, t2):
        images = np.zeros((2, 1, 1), dtype=complex)
        images[0, 0, 0] = 1
        report = P.verify_representation(t2, images)
        assert not report.passed
        assert report.first().axiom.startswith("not-invertible")

    def test_skew_power_identity(self, fixtures):
        for group in fixtures.values():
            n = group.arity
            for rep in P.one_dim_reps(group):
                for e in range(group.order):
                    want = np.linalg.matrix_power(rep.images[e], 2 - n)
                    assert np.abs(rep.images[group.skew(e)] - want).max() < 1e-9


def single_entry_mutations(images, root_order):
    """Images with one entry changed: times -1 or a primitive root, or another element's image."""
    root = np.exp(2j * np.pi / root_order)
    for x in range(len(images)):
        for factor in (-1, root):
            mutated = images.copy()
            mutated[x] = factor * images[x]
            yield mutated
        for y in range(len(images)):
            if np.abs(images[y] - images[x]).max() > 1e-9:
                mutated = images.copy()
                mutated[x] = images[y]
                yield mutated


class TestVerifiedOnConstruction:
    """Representations verify on construction and carry the failing report."""

    @staticmethod
    def rejected(cls, group, images, verify):
        with pytest.raises(P.InvalidGroupError, match="not a representation") as exc:
            cls(group, images)
        assert exc.value.report == verify(group, images)
        return exc.value.report

    def test_images_that_are_no_homomorphism_raise(self, s3t, t2):
        for mutated in single_entry_mutations(s3_two_dim().astype(complex), 6):
            report = self.rejected(P.Representation, s3t, mutated, P.verify_representation)
            assert not report.passed
        report = self.rejected(P.Representation, t2, one_dim([1, 1j]), P.verify_representation)
        assert report.first().axiom == "homomorphism"
        ret = P.retract(s3t, 0)
        for mutated in single_entry_mutations(s3_two_dim().astype(complex), 6):
            self.rejected(P.BinaryRepresentation, ret, mutated, P.verify_binary_representation)

    def test_empty_kernel_and_bad_shapes_raise(self, t2b, t2):
        report = self.rejected(P.Representation, t2b, one_dim([1j, -1j]), P.verify_representation)
        assert {f.axiom for f in report.failures} == {"kernel-empty"}
        for images in (np.ones((2, 1)), np.ones((3, 1, 1)), np.ones((2, 1, 2))):
            report = self.rejected(P.Representation, t2, images, P.verify_representation)
            assert report.first().axiom == "images-shape"
            report = self.rejected(P.BinaryRepresentation, P.retract(t2, 0), images,
                                   P.verify_binary_representation)
            assert report.first().axiom == "images-shape"

    def test_images_are_a_read_only_copy(self, t2):
        images = one_dim([1, -1])
        rep = P.Representation(t2, images)
        images[1] = 1                      # the caller's array stays writable
        assert rep.images[1, 0, 0] == -1
        with pytest.raises(ValueError, match="read-only"):
            rep.images[1] = 1

    def test_equivalent_verifies_nothing(self, t2, sign_rep, monkeypatch):
        import polyadic.rep
        r1 = P.Representation(t2, one_dim([1, -1]))
        r2 = P.Representation(t2, one_dim([1, 1]))

        def refuse(group, images):
            raise AssertionError("representation verified again")

        monkeypatch.setattr(polyadic.rep, "verify_representation", refuse)
        assert P.equivalent(sign_rep, sign_rep) and P.equivalent(r1, r1)
        assert not P.equivalent(r1, r2)

    def test_hat_rep_verifies_once(self, sign_rep, monkeypatch):
        import polyadic.rep
        calls, real = [], P.verify_binary_representation

        def counting(group, images):
            calls.append(group.order)
            return real(group, images)

        monkeypatch.setattr(polyadic.rep, "verify_binary_representation", counting)
        assert P.hat_rep(sign_rep, 0).dim == 1
        assert calls == [6]

    def test_lifts_verify_their_result_once(self, s3t, t2, monkeypatch):
        import polyadic.rep
        calls = []

        def counting(name, real):
            def wrapper(group, images):
                calls.append(name)
                return real(group, images)
            return wrapper

        gamma = P.BinaryRepresentation(P.retract(s3t, 0), one_dim(SIGN))
        cov = P.covering_group(t2, 0)
        cover_gamma = P.BinaryRepresentation(cov.group, np.ones((4, 1, 1)))
        monkeypatch.setattr(polyadic.rep, "verify_representation",
                            counting("n-ary", P.verify_representation))
        monkeypatch.setattr(polyadic.rep, "verify_binary_representation",
                            counting("binary", P.verify_binary_representation))
        assert P.lift_from_retract(s3t, gamma, 0) is not None
        assert P.lift_module_from_cover(cov, cover_gamma) is not None
        assert calls == ["n-ary", "n-ary"]


class TestValueEquality:
    def test_values_holding_arrays_compare_by_identity(self):
        # == and hash are identity's, as for Partition; equivalence is ``equivalent``
        group = P.derived(P.cyclic_group(2), 3)
        ones = np.ones((2, 1, 1))
        makers = [
            lambda: P.Representation(group, ones),
            lambda: P.BinaryRepresentation(P.retract(group, 0), ones),
            lambda: P.character(P.Representation(group, ones)),
            lambda: P.hg_decompose(group, 0),
            lambda: P.canonical_action(group),
        ]
        for make in makers:
            a, b = make(), make()
            assert a == a and a != b and a in [b, a] and a not in [b], type(a)
            assert len({a, b, a}) == 2, type(a)


class TestCertificate:
    """The homomorphism certificate against the scan of every n-tuple."""

    @staticmethod
    def agree(group, images):
        m = group.order
        report = P.verify_representation(group, images)
        scan = oracle.exhaustive_representation_scan(group, images)
        assert report.method == "certificate" and report.checked == m * m + m + 1
        assert report.passed == scan.passed
        assert {f.axiom for f in report.failures} == {f.axiom for f in scan.failures}
        for f in report.failures:
            if f.axiom == "homomorphism":
                assert oracle.product_identity_breaks(group, images, f.witness), f.witness
        return report.passed

    def test_one_dim_reps_and_mutations(self, fixtures, hg_stock):
        outcomes = set()
        for name, group in list(fixtures.items()) + hg_stock:
            for rep in P.one_dim_reps(group):
                assert self.agree(group, rep.images), name
                for mutated in single_entry_mutations(rep.images, group.order * (group.arity - 1)):
                    outcomes.add(self.agree(group, mutated))
        assert outcomes == {True, False}

    def test_two_dim_and_sign_reps_and_mutations(self, s3t, sign_rep):
        for images in (s3_two_dim().astype(complex), sign_rep.images):
            assert self.agree(s3t, images)
            for mutated in single_entry_mutations(images, 6):
                assert not self.agree(s3t, mutated)


class TestCharacter:
    def test_trivial_constant(self, s3t):
        rep = P.Representation(s3t, np.broadcast_to(np.eye(2), (6, 2, 2)).copy())
        char = P.character(rep)
        assert np.abs(char.values - 2).max() < 1e-12

    def test_t2_values(self, t2):
        rep = P.Representation(t2, one_dim([1, -1]))
        assert np.allclose(P.character(rep).values, [1, -1])

    def test_constant_on_classes_for_all_fixture_reps(self, fixtures, hg_stock, s3t,
                                                      conjugated_t2_rep):
        # character() no longer scans the classes; the theorem must hold on every rep
        reps = [(name, rep) for name, group in list(fixtures.items()) + hg_stock
                for rep in P.one_dim_reps(group)]
        reps += [("S3T 2-dim", P.Representation(s3t, s3_two_dim())),
                 ("T2 conjugated", conjugated_t2_rep[0])]
        for name, rep in reps:
            assert oracle.character_class_spread(rep) < 1e-9, name
            assert np.array_equal(P.character(rep).values,
                                  np.trace(rep.images, axis1=1, axis2=2)), name

    def test_no_conjugacy_classes_computed(self, fixtures, s3t, no_conjugacy_classes):
        for group in fixtures.values():
            for rep in P.one_dim_reps(group):
                P.character(rep)
        assert P.character(P.Representation(s3t, s3_two_dim())).values[0] == 2


class TestKernel:
    def test_trivial_rep_kernel_is_carrier(self, z4m):
        rep = P.Representation(z4m, one_dim(np.ones(4)))
        assert P.kernel(rep) == (0, 1, 2, 3)

    def test_t2_kernel(self, t2):
        rep = P.Representation(t2, one_dim([1, -1]))
        assert P.kernel(rep) == (0,)

    def test_sign_rep_kernel_normal(self, sign_rep):
        assert P.kernel(sign_rep) == A3

    def test_matrix_and_trace_routes_agree(self, fixtures, sign_rep):
        for group in fixtures.values():
            for rep in P.one_dim_reps(group):
                assert P.kernel(rep) == P.kernel_chi(P.character(rep))
        assert P.kernel(sign_rep) == P.kernel_chi(P.character(sign_rep))

    def test_one_compare_equals_the_loop(self, fixtures, hg_stock, sign_rep):
        reps = [rep for _, group in list(fixtures.items()) + hg_stock
                for rep in P.one_dim_reps(group)]
        for rep in reps + [sign_rep]:
            assert P.kernel(rep) == oracle.kernel_by_element(rep)

    def test_subgroup_verified_once_and_no_classes(self, sign_rep, verify_subgroup_calls,
                                                   no_conjugacy_classes):
        assert P.kernel(sign_rep) == A3
        assert verify_subgroup_calls == [A3]

    def test_kernels_are_normal_subgroups(self, fixtures):
        for group in fixtures.values():
            for rep in P.one_dim_reps(group):
                assert P.is_normal(group, P.kernel(rep))


class TestHatTransfer:
    def test_trivial(self, t2):
        rep = P.Representation(t2, one_dim([1, 1]))
        hat = P.hat_rep(rep, 0)
        assert np.abs(hat.images - 1).max() < 1e-12

    def test_t2_formula(self, t2):
        rep = P.Representation(t2, one_dim([1, -1]))
        hat = P.hat_rep(rep, 0)
        assert np.allclose(hat.images[:, 0, 0], [1, -1])

    def test_hat_identity_is_retract_identity(self, fixtures):
        for group in fixtures.values():
            for rep in P.one_dim_reps(group):
                for e in range(group.order):
                    hat = P.hat_rep(rep, e)
                    assert np.abs(hat.images[group.skew(e)] - 1).max() < 1e-9

    def test_hat_char_equals_hat_trace(self, fixtures):
        for group in fixtures.values():
            for rep in P.one_dim_reps(group):
                char = P.character(rep)
                kernel_elems = P.kernel_chi(char)
                for e in range(group.order):
                    traces = np.trace(P.hat_rep(rep, e).images, axis1=1, axis2=2)
                    for p in kernel_elems:
                        assert np.abs(P.hat_char(char, e, p) - traces).max() < 1e-9

    def test_hat_char_equals_the_loop(self, fixtures, hg_stock):
        for name, group in list(fixtures.items()) + hg_stock:
            for rep in P.one_dim_reps(group):
                char = P.character(rep)
                p = P.kernel_chi(char)[0]
                for e in range(group.order):
                    want = oracle.hat_char_by_eval(char, e, p)
                    assert np.array_equal(P.hat_char(char, e, p), want), (name, e)

    def test_hat_char_requires_kernel_element(self, t2):
        rep = P.Representation(t2, one_dim([1, -1]))
        with pytest.raises(P.InvalidGroupError, match="kernel"):
            P.hat_char(P.character(rep), 0, 1)


class TestLiftFromRetract:
    def test_z4m_characters_lift_iff_k_even(self, z4m):
        ret = P.retract(z4m, 0)
        for k in range(4):
            values = np.array([1j ** (k * x) for x in range(4)])
            gamma = P.BinaryRepresentation(ret, one_dim(values))
            lifted = P.lift_from_retract(z4m, gamma, 0)
            assert (lifted is not None) == (k in (0, 2)), k

    def test_trivial_lifts_everywhere(self, fixtures):
        for group in fixtures.values():
            gamma = P.BinaryRepresentation(P.retract(group, 0), one_dim(np.ones(group.order)))
            assert P.lift_from_retract(group, gamma, 0) is not None

    def test_s3t_sign_and_standard_lift(self, s3t):
        ret = P.retract(s3t, 0)
        sign_gamma = P.BinaryRepresentation(ret, one_dim(SIGN))
        assert P.lift_from_retract(s3t, sign_gamma, 0) is not None
        std = P.BinaryRepresentation(ret, s3_two_dim())
        lifted = P.lift_from_retract(s3t, std, 0)
        assert lifted is not None and lifted.dim == 2
        assert P.verify_representation(s3t, lifted.images).passed

    def test_equals_the_inner_tuple_loop(self, fixtures, hg_stock):
        # every 1-dim character of every retract, at every anchor
        count = lifted_count = 0
        for name, group in list(fixtures.items()) + hg_stock:
            for e in range(group.order):
                ret = P.retract(group, e)
                for row in linear_characters(ret):
                    gamma = P.BinaryRepresentation(ret, one_dim(row))
                    lifted = P.lift_from_retract(group, gamma, e)
                    assert (lifted is not None) == oracle.lift_criterion_by_eval(group, gamma, e), \
                        (name, e, row)
                    if lifted is not None:
                        assert np.array_equal(lifted.images, gamma.images)
                    count += 1
                    lifted_count += lifted is not None
        assert 0 < lifted_count < count

    def test_two_dim_equals_the_inner_tuple_loop(self, s3t):
        # x -> rho(x) rho(e) is a representation of the retract x.y = x e y of derived S3
        # it lifts iff rho(e) is a central involution: rho is faithful and
        # irreducible, so only at the identity
        rho, lifts = s3_two_dim(), set()
        for e in range(6):
            gamma = P.BinaryRepresentation(P.retract(s3t, e), rho @ rho[e])
            lifted = P.lift_from_retract(s3t, gamma, e)
            assert oracle.lift_criterion_by_eval(s3t, gamma, e) == (lifted is not None), e
            if lifted is not None:
                lifts.add(e)
        assert lifts == {0}

    def test_wrong_retract_rejected(self, z4m, t2):
        gamma = P.BinaryRepresentation(P.retract(t2, 0), one_dim([1, 1]))
        with pytest.raises(P.InvalidGroupError):
            P.lift_from_retract(z4m, gamma, 0)


class TestDerivedCriteria:
    def test_criteria_match_lift_success(self, t2, t2b, s3t):
        for group in (t2, t2b):
            e = P.central_elements(group)[0]
            ret = P.retract(group, e)
            gammas = [P.BinaryRepresentation(ret, one_dim(row))
                      for row in P.abelian_characters(ret)]
            for gamma in gammas:
                crit = P.der_b_lift_criteria(group, gamma, e)
                assert crit.product_rule == crit.lift_succeeds
                assert crit.ternary_skew_rule == crit.lift_succeeds
                assert crit.character_rule == crit.lift_succeeds
        ret = P.retract(s3t, 0)
        for images in (one_dim(np.ones(6)), one_dim(SIGN), s3_two_dim()):
            gamma = P.BinaryRepresentation(ret, images)
            crit = P.der_b_lift_criteria(s3t, gamma, 0)
            assert crit.product_rule == crit.ternary_skew_rule == crit.lift_succeeds

    def test_no_central_element_rejected(self, z4m):
        gamma = P.BinaryRepresentation(P.retract(z4m, 0), one_dim(np.ones(4)))
        with pytest.raises(P.CriterionUnavailableError):
            P.der_b_lift_criteria(z4m, gamma)

    def test_hom_solution_mismatch_case(self, t2b):
        # (i, -i) satisfies the pointwise conjugation rule but is not a
        # representation (kernel empty) nor a retract character.
        values = np.array([1j, -1j])
        assert P.character_conjugation_rule(t2b, values)
        report = P.verify_representation(t2b, one_dim(values))
        assert {f.axiom for f in report.failures} == {"kernel-empty"}
        ret = P.retract(t2b, 0)
        assert abs(values[ret.identity] - 1) > 0.5   # not a character of the retract


class TestEquivalence:
    def test_reflexive(self, sign_rep):
        assert P.equivalent(sign_rep, sign_rep)

    def test_t2_distinct_reps(self, t2):
        r1 = P.Representation(t2, one_dim([1, -1]))
        r2 = P.Representation(t2, one_dim([1, 1]))
        assert not P.equivalent(r1, r2)

    def test_hat_equal_but_anchor_trace_differs(self, s3t):
        plus = P.Representation(s3t, one_dim(SIGN))
        minus = P.Representation(s3t, one_dim(-SIGN))
        c1, c2 = P.character(plus), P.character(minus)
        h1 = P.hat_char(c1, 0, P.kernel_chi(c1)[0])
        h2 = P.hat_char(c2, 0, P.kernel_chi(c2)[0])
        assert np.abs(h1 - h2).max() < 1e-9          # same hat character
        assert not P.equivalent(plus, minus)          # but traces differ at e

    def test_oracle_agreement_one_dim(self, t2, z4m):
        for group in (t2, z4m):
            reps = P.one_dim_reps(group)
            for r1, r2 in itertools.product(reps, repeat=2):
                assert P.equivalent(r1, r2) == P.similar_representations(r1, r2)

    def test_oracle_agreement_two_dim(self, conjugated_t2_rep, t2):
        twisted, _ = conjugated_t2_rep
        diag = P.Representation(
            t2, np.array([np.eye(2), np.diag([1.0, -1.0])]).astype(complex)
        )
        assert P.equivalent(twisted, diag)
        assert P.similar_representations(twisted, diag)

    def test_criterion_unavailable(self):
        q8 = P.quaternion_group()
        phi = np.array([0, 1, 4, 5, 6, 7, 2, 3])   # outer: i->j->k->i
        group = P.hg_construct(P.HGData(q8, phi, 0, 4))
        assert P.central_elements(group) == ()
        assert not P.is_semiabelian(group)
        rep = P.Representation(group, one_dim(np.ones(8)))
        with pytest.raises(P.CriterionUnavailableError):
            P.equivalent(rep, rep)


class TestMaschke:
    def test_whole_space_gives_identity(self, conjugated_t2_rep):
        rep, _ = conjugated_t2_rep
        theta, comp = P.maschke_decompose(P.GModule(rep, 0), np.eye(2, dtype=complex))
        assert np.abs(theta - np.eye(2)).max() < 1e-9
        assert comp.shape == (2, 0)

    def test_zero_space_gives_zero(self, conjugated_t2_rep):
        rep, _ = conjugated_t2_rep
        theta, comp = P.maschke_decompose(P.GModule(rep, 0), np.zeros((2, 0), dtype=complex))
        assert np.abs(theta).max() < 1e-12
        assert comp.shape == (2, 2)

    def test_recovers_invariant_summand(self, conjugated_t2_rep):
        rep, basis = conjugated_t2_rep
        module = P.GModule(rep, 0)
        theta, comp = P.maschke_decompose(module, basis[:, :1])
        assert np.linalg.matrix_rank(theta, tol=1e-9) == 1
        assert np.abs(theta @ theta - theta).max() < 1e-9
        for x in range(2):
            assert np.abs(theta @ rep.images[x] - rep.images[x] @ theta).max() < 1e-9
        assert comp.shape == (2, 1)
        # complement spans the second conjugated summand
        target = basis[:, 1] / np.linalg.norm(basis[:, 1])
        overlap = abs(np.vdot(target, comp[:, 0]))
        assert overlap > 1 - 1e-9

    def test_non_invariant_subspace_rejected(self, conjugated_t2_rep):
        rep, basis = conjugated_t2_rep
        bad = basis[:, :1] + np.array([[1.0], [3.0]])
        with pytest.raises(P.InvalidGroupError, match="invariant"):
            P.maschke_decompose(P.GModule(rep, 0), bad)

    def test_module_needs_identity_actor(self, conjugated_t2_rep):
        rep, _ = conjugated_t2_rep
        with pytest.raises(P.InvalidGroupError):
            P.GModule(rep, 1)


class TestOrthogonality:
    def test_trivial_pair_is_one(self, t2):
        rep = P.Representation(t2, one_dim([1, 1]))
        char = P.character(rep)
        assert abs(P.orthogonality_check(char, 0, char, 0, 0) - 1) < 1e-9

    def test_all_pairs_all_fixtures(self, fixtures):
        for name, group in fixtures.items():
            chars = [P.character(rep) for rep in P.one_dim_reps(group)]
            for c1, c2 in itertools.product(chars, repeat=2):
                p1, p2 = P.kernel_chi(c1)[0], P.kernel_chi(c2)[0]
                value = P.orthogonality_check(c1, p1, c2, p2, 0)
                h1, h2 = P.hat_char(c1, 0, p1), P.hat_char(c2, 0, p2)
                delta = 1.0 if np.abs(h1 - h2).max() < 1e-9 else 0.0
                assert abs(value - delta) < 1e-6, name


class TestOneDimReps:
    def test_counts(self, fixtures):
        expected = {"T2": 3, "T2b": 1, "Z4M": 3, "Q4": 2, "S3T": 3}
        for name, group in fixtures.items():
            assert len(P.one_dim_reps(group)) == expected[name], name

    def test_cover_route_matches_bruteforce(self, fixtures):
        for name in ("T2", "T2b", "Z4M", "Q4"):
            group = fixtures[name]
            assert P.value_vector_set(P.one_dim_reps(group)) == P.value_vector_set(
                P.one_dim_reps_bruteforce(group)
            ), name

    def test_all_outputs_verified(self, fixtures, hg_stock_60):
        # built unverified after the phase certificate; the float check must agree
        for name, group in list(fixtures.items()) + hg_stock_60 + derived_corpus() + large_corpus():
            for rep in P.one_dim_reps(group):
                assert P.verify_representation(group, rep.images).passed, name
                assert not rep.images.flags.writeable, name

    def test_anchor_choice_irrelevant(self, z4m):
        # the restrictions of the linear characters of the cover at any anchor
        base = P.value_vector_set(P.one_dim_reps(z4m))
        for a in range(4):
            cov = P.covering_group(z4m, a)
            rows = linear_characters(cov.group)[:, cov.embed]
            assert P.value_vector_set(r for r in rows if np.abs(r - 1).min() <= 1e-9) == base


class TestOneDimClosedForm:
    """Theorem 1's closed form from (G, phi, b) against the cover route it replaced."""

    def test_equals_the_cover_route(self, fixtures, hg_stock_60):
        for name, group in list(fixtures.items()) + hg_stock_60 + derived_corpus():
            got = P.one_dim_reps(group)
            want = P.value_vector_set(oracle.one_dim_reps_by_cover(group))
            assert P.value_vector_set(got) == want and len(got) == len(want), name

    def test_sorted_by_phase_vector_and_repeatable(self, fixtures, hg_stock):
        for name, group in list(fixtures.items()) + hg_stock:
            reps = P.one_dim_reps(group)
            phases = [tuple(np.round(np.angle(r.images[:, 0, 0]) / (2 * np.pi), 9) % 1)
                      for r in reps]
            assert phases == sorted(phases), name
            again = P.one_dim_reps(group)
            assert all(np.array_equal(a.images, b.images) for a, b in zip(reps, again)), name

    def test_builds_no_cover(self, fixtures, monkeypatch):
        import polyadic.cover

        def refuse(*args, **kwargs):
            raise AssertionError("covering group built")

        for module in (polyadic.cover, P):
            monkeypatch.setattr(module, "covering_group", refuse)
        for group in fixtures.values():
            assert P.one_dim_reps(group)

    def test_large_arity(self):
        # Regression: the cover of derived(S3, 70) took seconds; at n = 700 it has 4194 elements
        reps = P.one_dim_reps(P.derived(P.symmetric_group_3(), 700))
        assert P.value_vector_set(reps) == P.value_vector_set([np.ones(6), SIGN])
        assert [P.kernel(r) for r in reps] == [tuple(range(6)), A3]


class TestOneDimCertificate:
    """One exact phase certificate decides every 1-dim representation, with no float check."""

    def test_float_check_never_runs(self, fixtures, hg_stock, monkeypatch):
        import polyadic.rep

        def refuse(group, images):
            raise AssertionError("verify_representation called")

        monkeypatch.setattr(polyadic.rep, "verify_representation", refuse)
        for group in list(fixtures.values()) + [group for _, group in hg_stock]:
            assert P.one_dim_reps(group)

    def test_a_changed_phase_raises(self, monkeypatch):
        # with |G/G'| >= 3, one changed value of a character is never a character
        import polyadic.rep
        original = polyadic.rep.abelian_phases

        def changed(quot):
            phases, period = original(quot)
            phases = phases.copy()
            phases[-1, -1] = (phases[-1, -1] + 1) % period
            return phases, period

        monkeypatch.setattr(polyadic.rep, "abelian_phases", changed)
        catalog = binary_catalog()
        for name in ("Z3", "Z4", "klein", "D4", "Q8"):
            for n in (3, 4, 7):
                group = P.derived(catalog[name], n)
                with pytest.raises(P.InvalidGroupError, match="homomorphism") as caught:
                    P.one_dim_reps(group)
                witness = caught.value.report.first().witness
                assert len(witness) == n and witness in set(
                    map(tuple, homomorphism_certificate_rows(group).tolist())), (name, n)


class TestTernaryMinusClassification:
    @pytest.mark.parametrize("order,valid_count", [(4, 3), (2, 3), (3, 1)])
    def test_counts(self, order, valid_count):
        result = P.classify_ternary_minus(P.cyclic_group(order))
        assert len(result.valid) == valid_count

    def test_hom_only_tracked_separately(self):
        result = P.classify_ternary_minus(P.cyclic_group(3))
        assert len(result.hom_only) == 1
        sign, char = result.hom_only[0]
        assert sign == -1 and np.abs(char - 1).max() < 1e-12

    def test_observed_involution_relation(self):
        # tested conjecture: in 1 dim, valid pairs satisfy char(y)^2 = 1
        for order in (2, 3, 4, 6):
            result = P.classify_ternary_minus(P.cyclic_group(order))
            for _, char, _ in result.valid:
                assert np.abs(char * char - 1).max() < 1e-9

    def test_klein_base(self):
        # the sign-times-character set is the one_dim_reps enumeration
        klein = P.direct_product(P.cyclic_group(2), P.cyclic_group(2))
        for base in [klein] + [P.cyclic_group(m) for m in (2, 3, 4, 6)]:
            result = P.classify_ternary_minus(base)
            got = P.value_vector_set(rep for _, _, rep in result.valid)
            assert got == P.value_vector_set(P.one_dim_reps(result.group)), base

    def test_nonabelian_rejected(self):
        with pytest.raises(P.InvalidGroupError, match="abelian"):
            P.classify_ternary_minus(P.symmetric_group_3())


class TestCosetExamples:
    def test_klein_involution_form(self):
        klein = P.direct_product(P.cyclic_group(2), P.cyclic_group(2))
        group, carrier = P.coset_example_group(klein, (0, 1), 2, arity=3)
        assert group.order == 2 and group.arity == 3
        assert carrier == (2, 3)

    def test_z4_has_no_involution_outside(self):
        z4 = P.cyclic_group(4)
        with pytest.raises(P.InvalidGroupError):
            P.coset_example_group(z4, (0, 2), 1, arity=3)

    def test_z4_central_order_four_form(self):
        z4 = P.cyclic_group(4)
        group, carrier = P.coset_example_group(z4, (0, 2), 1, arity=4)
        assert group.arity == 4 and carrier == (1, 3)
        assert P.verify_nary_group(group).passed

    def test_restriction_with_kernel_condition(self):
        klein = P.direct_product(P.cyclic_group(2), P.cyclic_group(2))
        group, carrier = P.coset_example_group(klein, (0, 1), 2, arity=3)
        # ambient character with a=2 in its kernel restricts
        for row in P.abelian_characters(klein):
            if abs(row[2] - 1) < 1e-9:
                rep = P.restrict_to_coset(one_dim(row), carrier, group)
                assert P.verify_representation(group, rep.images).passed


class TestFactorRep:
    def test_trivial(self, s3t):
        quot = P.quotient(s3t, A3)
        rep = P.Representation(s3t, one_dim(np.ones(6)))
        factored = P.factor_rep(rep, quot)
        assert np.abs(factored.images - 1).max() < 1e-12

    def test_sign_through_a3(self, s3t, sign_rep):
        quot = P.quotient(s3t, A3)
        factored = P.factor_rep(sign_rep, quot)
        assert P.kernel(factored) == (0,)   # faithful on the 2-element quotient
        back = P.pull_back_rep(quot, factored)
        assert np.abs(back.images - sign_rep.images).max() < 1e-12

    def test_subgroup_outside_kernel_rejected(self, s3t, sign_rep):
        quot = P.quotient(s3t, TRANSPOSITIONS)
        with pytest.raises(P.InvalidGroupError, match="kernel"):
            P.factor_rep(sign_rep, quot)

    def test_bijection_on_one_dim(self, s3t):
        # reps of G with H <= kernel <-> quotient reps whose identity block
        # lies in the kernel (equivalently ordinary reps of the retract there)
        quot = P.quotient(s3t, A3)
        g_side = [rep for rep in P.one_dim_reps(s3t) if set(A3) <= set(P.kernel(rep))]
        q_side = [rep for rep in P.one_dim_reps(quot.group)
                  if abs(rep.images[quot.identity_block, 0, 0] - 1) < 1e-9]
        assert len(g_side) == len(q_side) == 2
        pulled = P.value_vector_set(P.pull_back_rep(quot, rep) for rep in q_side)
        assert pulled == P.value_vector_set(g_side)
