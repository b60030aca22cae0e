"""Acceptance suite: one test per criterion, each printing a PASS line.

Fixtures: T2=(Z2, x+y+z), T2b=(Z2, x+y+z+1), Z4M=(Z4, x-y+z), S3T=der(S3),
Q4=(Z2, w+x+y+z+1, n=4).  Every check here is exhaustive (no sampling).
"""

import itertools
import json

import numpy as np

import oracle
import polyadic as P
from conftest import A3, SIGN, TRANSPOSITIONS, random_hg_stock, s3_two_dim
from polyadic.cli import main


def one_dim(values):
    return np.asarray(values, dtype=complex).reshape(-1, 1, 1)


def _announce(num, text):
    print(f"ACCEPTANCE {num:02d} PASS: {text}")


def test_criterion_01_axiom_suite(fixtures, tmp_path, capsys):
    for name, group in fixtures.items():
        report = P.verify_nary_group(group)
        assert report.passed and not report.sampled, name
    for name, group in random_hg_stock(20):
        report = P.verify_nary_group(group)
        assert report.passed and not report.sampled, name

    rng = np.random.default_rng(0xC0FFEE)
    mutations = []
    t2_flat = [int(v) for v in fixtures["T2"].dense().reshape(-1)]
    for pos in range(8):   # all single-entry mutations of T2
        table = list(t2_flat)
        table[pos] ^= 1
        mutations.append((3, 2, table))
    z4m_flat = [int(v) for v in fixtures["Z4M"].dense().reshape(-1)]
    seen = set()
    while len(mutations) < 50:
        pos = int(rng.integers(64))
        delta = int(rng.integers(1, 4))
        if (pos, delta) in seen:
            continue
        seen.add((pos, delta))
        table = list(z4m_flat)
        table[pos] = (table[pos] + delta) % 4
        mutations.append((3, 4, table))
    for i, (arity, order, table) in enumerate(mutations):
        path = tmp_path / f"mut{i}.json"
        path.write_text(json.dumps(
            {"arity": arity, "order": order, "kind": "dense", "table": table}
        ))
        code = main(["verify", str(path)])
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert code == 1 and doc["failures"], i
        assert all(isinstance(v, int) for v in doc["failures"][0]["witness"])
    _announce(1, "axioms on 5 fixtures + 20 random groups; 50 mutations detected")


def test_criterion_02_skew_identities(fixtures):
    for name, group in fixtures.items():
        n = group.arity
        for x in range(group.order):
            xb = group.skew(x)
            for k in range(1, n + 1):
                assert group.eval((x,) * (k - 1) + (xb,) + (x,) * (n - k)) == x
            for y in range(group.order):
                for i in range(2, n + 1):
                    assert group.eval((x,) * (i - 2) + (xb,) + (x,) * (n - i) + (y,)) == y, name
                for j in range(2, n + 1):
                    assert group.eval((y,) + (x,) * (n - j) + (xb,) + (x,) * (j - 2)) == y, name
    assert list(fixtures["Z4M"].skew_table()) == [0, 1, 2, 3]
    assert list(fixtures["Q4"].skew_table()) == [1, 1]
    assert list(fixtures["T2b"].skew_table()) == [1, 0]
    _announce(2, "skew identities at every position; skew tables match derived values")


def test_criterion_03_decomposition_round_trip(fixtures):
    for name, group in fixtures.items():
        for a in range(group.order):
            data = P.hg_decompose(group, a)   # re-verifies all four conditions
            rebuilt = P.hg_construct(data)    # re-checks the data invariants
            assert rebuilt.equals(group), (name, a)
    _announce(3, "decomposition round-trip entrywise equal at every anchor")


def test_criterion_04_retract_suite(fixtures):
    for name, group in fixtures.items():
        n = group.order
        for a in range(n):
            ret = P.retract(group, a)
            abar = group.skew(a)
            for x in range(n):
                formula = group.eval(
                    (abar,) + (x,) * (group.arity - 3) + (group.skew(x), abar)
                )
                brute = next(
                    y for y in range(n)
                    if ret.mul(x, y) == ret.identity and ret.mul(y, x) == ret.identity
                )
                assert formula == brute, (name, a, x)
        for e, p in itertools.product(range(n), repeat=2):
            P.retract_isomorphism(group, e, p)   # raises unless an isomorphism
    _announce(4, "inverse formula matches brute force; all retracts pairwise isomorphic")


def test_criterion_05_covering_suite(fixtures):
    klein = P.direct_product(P.cyclic_group(2), P.cyclic_group(2))
    assert P.find_isomorphism(P.covering_group(fixtures["T2"], 0).group, klein) is not None
    assert P.find_isomorphism(
        P.covering_group(fixtures["T2b"], 0).group, P.cyclic_group(4)
    ) is not None
    for name, group in fixtures.items():
        for a in range(group.order):
            cov = P.covering_group(group, a)
            assert cov.pair_of(cov.group.identity) == (group.skew(a), group.arity - 2)
            assert np.array_equal(oracle.cover_inverse_formula(cov), cov.group.inverse), (name, a)
            h = P.cover_H(cov)   # raises unless normal with cyclic quotient Z_(n-1)
            assert len(h) == group.order
            report = P.verify_embedding(cov)
            assert report.passed and report.method == "certificate", (name, a)
    _announce(5, "covers: Klein/Z4 shapes, H normal with cyclic quotient, formulas exact")


def test_criterion_06_representation_counts(fixtures):
    expected = {"T2": 3, "T2b": 1, "Z4M": 3}
    for name, count in expected.items():
        assert len(P.one_dim_reps(fixtures[name])) == count, name
    for name in ("T2", "T2b", "Z4M", "Q4"):
        group = fixtures[name]
        cover_route = P.value_vector_set(P.one_dim_reps(group))
        search_route = P.value_vector_set(P.one_dim_reps_bruteforce(group))
        assert cover_route == search_route, name
    _announce(6, "one-dim counts 3/1/3; cover route equals root-of-unity search")


def test_criterion_07_character_suite(fixtures):
    for name, group in fixtures.items():
        reps = P.one_dim_reps(group)
        chars = []
        for rep in reps:
            char = P.character(rep)   # verifies constancy on classes
            chars.append(char)
            assert P.kernel(rep) == P.kernel_chi(char), name
            for e in range(group.order):
                hat = P.hat_rep(rep, e)
                traces = np.trace(hat.images, axis1=1, axis2=2)
                for p in P.kernel_chi(char):
                    assert np.abs(P.hat_char(char, e, p) - traces).max() <= 1e-9
        for c1, c2 in itertools.product(chars, repeat=2):
            p1, p2 = P.kernel_chi(c1)[0], P.kernel_chi(c2)[0]
            value = P.orthogonality_check(c1, p1, c2, p2, 0)
            h1, h2 = P.hat_char(c1, 0, p1), P.hat_char(c2, 0, p2)
            delta = 1.0 if np.abs(h1 - h2).max() < 1e-9 else 0.0
            assert abs(value - delta) <= 1e-6, name
    _announce(7, "characters class-constant, kernels agree, hats and orthogonality exact")


def test_criterion_08_lifting_equivalences(ternary_fixtures, s3t):
    for name, group in ternary_fixtures.items():
        ret = P.retract(group, 0)
        candidates = []
        if ret.is_abelian:
            candidates = [one_dim(row) for row in P.abelian_characters(ret)]
        elif group is s3t:
            candidates = [one_dim(np.ones(6)), one_dim(SIGN), s3_two_dim()]
        centrals = P.central_elements(group)
        for images in candidates:
            gamma = P.BinaryRepresentation(ret, images)
            lifted = P.lift_from_retract(group, gamma, 0)
            skew_rule = all(
                np.abs(
                    gamma.images[group.skew(x)] - np.linalg.inv(gamma.images[x])
                ).max() <= 1e-8
                for x in range(group.order)
            )
            assert (lifted is not None) == skew_rule, name
            if centrals and 0 in centrals:
                crit = P.der_b_lift_criteria(group, gamma, 0)
                assert crit.product_rule == skew_rule == crit.ternary_skew_rule, name
                assert crit.lift_succeeds == skew_rule, name
    ret = P.retract(ternary_fixtures["Z4M"], 0)
    lifting = []
    for k in range(4):
        values = np.array([1j ** (k * x) for x in range(4)])
        gamma = P.BinaryRepresentation(ret, one_dim(values))
        if P.lift_from_retract(ternary_fixtures["Z4M"], gamma, 0) is not None:
            lifting.append(k)
    assert lifting == [0, 2]
    _announce(8, "retract lifting equivalent to skew-inverse and central-twist criteria")


def test_criterion_09_maschke(t2):
    rng = np.random.default_rng(42)
    while True:
        basis = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        if abs(np.linalg.det(basis)) > 0.5:
            break
    diag = [np.eye(2, dtype=complex), np.diag([1.0, -1.0]).astype(complex)]
    images = np.array([basis @ diag[x] @ np.linalg.inv(basis) for x in range(2)])
    rep = P.Representation(t2, images)
    theta, complement = P.maschke_decompose(P.GModule(rep, 0), basis[:, :1])
    assert np.abs(theta @ theta - theta).max() <= 1e-9
    for x in range(2):
        assert np.abs(theta @ rep.images[x] - rep.images[x] @ theta).max() <= 1e-9
    q = basis[:, :1] / np.linalg.norm(basis[:, 0])
    assert np.abs(theta @ q - q).max() <= 1e-9            # image is W
    assert complement.shape == (2, 1)
    assert np.abs(theta @ complement).max() <= 1e-9       # V = W + ker theta
    stacked = np.concatenate([q, complement], axis=1)
    assert abs(np.linalg.det(stacked)) > 1e-6             # direct sum
    for x in range(2):                                     # both invariant
        moved = rep.images[x] @ complement
        proj = complement @ complement.conj().T
        assert np.abs(moved - proj @ moved).max() <= 1e-9
    _announce(9, "averaged projector idempotent, equivariant, splits the module")


def test_criterion_10_structure_suite(fixtures, s3t):
    assert len(P.subgroups(s3t)) == 10
    normals = [h for h in P.subgroups(s3t) if P.is_normal(s3t, h)]
    assert len(normals) == 4
    proper = [h for h in normals if 2 <= len(h) < 6]
    assert set(proper) == {A3, TRANSPOSITIONS}
    for name, group in fixtures.items():
        for sub in P.subgroups(group):
            part = P.cosets(group, sub)
            assert all(len(b) == len(sub) for b in part.blocks), name
    quot = P.quotient(s3t, A3)   # raises unless well-defined on all tuples
    assert P.verify_nary_group(quot.group).passed
    assert quot.partition.blocks[quot.identity_block] == A3
    _announce(10, "10 subgroups, 4 normal (2 proper), equal cosets, quotient verified")


def test_criterion_11_classification(s3t, t2):
    result = P.classify_simplicity(s3t)
    assert result.case == "has-proper-normal"
    assert set(result.proper_normal) == {A3, TRANSPOSITIONS}
    result = P.classify_simplicity(t2)
    assert result.case == "b-derived-abelian"
    assert result.central_singleton is not None
    assert P.is_central(t2, result.central_singleton)
    _announce(11, "S3T has proper normal subgroups; T2 is a central abelian twist")


def test_criterion_12_cli_contract(fixtures, tmp_path, capsys):
    from polyadic.fileformat import save_group

    paths = {}
    for name, group in fixtures.items():
        path = tmp_path / f"{name}.json"
        save_group(group, path)
        paths[name] = str(path)
    commands = [
        ("verify", []), ("skew-table", []), ("retract", ["--at", "0"]),
        ("hg", ["--at", "0"]), ("cover", ["--at", "0"]), ("classes", []),
        ("centralizer", ["--of", "0"]), ("subgroups", ["--normal"]),
        ("reps", ["--dim", "1"]), ("chars", ["--orthogonality"]), ("classify", []),
    ]
    for name, path in paths.items():
        for cmd, extra in commands:
            outputs = []
            for _ in range(2):
                code = main([cmd, path] + extra)
                out = capsys.readouterr().out
                assert code == 0, (name, cmd, out)
                outputs.append(out)
            assert outputs[0] == outputs[1], (name, cmd)
    bad = tmp_path / "bad.json"
    table = [int(v) for v in fixtures["T2"].dense().reshape(-1)]
    table[3] ^= 1
    bad.write_text(json.dumps({"arity": 3, "order": 2, "kind": "dense", "table": table}))
    assert main(["verify", str(bad)]) == 1
    capsys.readouterr()
    trunc = tmp_path / "trunc.json"
    trunc.write_text("{")
    assert main(["verify", str(trunc)]) == 2
    capsys.readouterr()
    _announce(12, "byte-identical output across runs; exit codes honored")
