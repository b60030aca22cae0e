"""Exit-code contract, JSON output determinism, and round-trips through files."""

import json

import numpy as np
import pytest

import polyadic as P
from polyadic.cli import main
from polyadic.fileformat import group_to_dict, load_group, save_group
from conftest import z2_4_ternary


@pytest.fixture()
def files(tmp_path, t2, t2b, z4m, q4, s3t):
    paths = {}
    for name, group in [("T2", t2), ("T2b", t2b), ("Z4M", z4m), ("Q4", q4), ("S3T", s3t)]:
        path = tmp_path / f"{name}.json"
        save_group(group, path)
        paths[name] = str(path)
    return paths


@pytest.fixture()
def mutated_s3t(tmp_path, s3t):
    """S3T with one changed cell: a failing file, answered through the difference set."""
    doc = group_to_dict(P.NaryGroup(3, 6, table=s3t.dense()))
    doc["table"][0] = 1
    path = tmp_path / "S3T-mutated.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestExitCodes:
    def test_verify_pass(self, capsys, files):
        code, out = run(capsys, "verify", files["T2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True and doc["method"] == "certificate"

    def test_verify_mutation_exits_one_with_witness(self, capsys, tmp_path, t2):
        table = [int(v) for v in t2.dense().reshape(-1)]
        table[0] ^= 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"arity": 3, "order": 2, "kind": "dense", "table": table}))
        code, out = run(capsys, "verify", str(path))
        assert code == 1
        doc = json.loads(out)
        assert doc["passed"] is False and doc["failures"]
        assert all(isinstance(v, int) for v in doc["failures"][0]["witness"])

    def test_truncated_file_exits_two(self, capsys, tmp_path):
        path = tmp_path / "trunc.json"
        path.write_text('{"arity": 3, "order":')
        code, _ = run(capsys, "verify", str(path))
        assert code == 2

    def test_boolean_indices_exit_two(self, capsys, tmp_path):
        z2 = {"arity": 2, "order": 2, "kind": "binary", "table": [0, 1, 1, 0]}
        docs = [
            {"arity": 3, "order": 2, "kind": "dense", "table": [0, 1, 1, 0, 1, 0, 0, True]},
            {"arity": 2, "order": 2, "kind": "binary", "table": [0, 1, True, 0]},
            {"arity": 3, "order": 2, "kind": "hg", "group": z2, "phi": [False, 1], "b": 0},
            {"arity": 3, "order": 2, "kind": "hg", "group": z2, "phi": [0, 1], "b": False},
            {"arity": 3, "order": True, "kind": "dense", "table": [0]},
            {"arity": True, "order": 2, "kind": "binary", "table": [0, 1, 1, 0]},
        ]
        for i, doc in enumerate(docs):
            path = tmp_path / f"bool{i}.json"
            path.write_text(json.dumps(doc))
            code, _ = run(capsys, "verify", str(path))
            assert code == 2, doc

    def test_schema_error_exits_two(self, capsys, tmp_path):
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"arity": 3, "order": 2, "kind": "dense", "table": [0, 1]}))
        code, _ = run(capsys, "verify", str(path))
        assert code == 2

    def test_oversized_dense_document_exits_two(self, capsys, tmp_path):
        # 2^20000 has more than 4300 digits: the size is refused before any power is printed
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"arity": 20000, "order": 2, "kind": "dense", "table": [0, 1]}))
        for command in ("verify", "classes"):
            assert main([command, str(path)]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: dense tables are limited to"), command

    def test_integer_too_long_to_parse_exits_two(self, capsys, tmp_path):
        path = tmp_path / "long.json"
        path.write_text('{"arity": 3, "order": ' + "9" * 5000 + ', "kind": "dense", "table": []}')
        assert main(["verify", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: invalid JSON")

    def test_internal_value_error_propagates(self, capsys, files, monkeypatch):
        # only the library's own errors become exit 1; anything else is a bug to see
        import polyadic.cli

        def broken(group):
            raise ValueError("internal")

        monkeypatch.setattr(polyadic.cli, "conjugacy_classes", broken)
        with pytest.raises(ValueError, match="internal"):
            main(["classes", files["S3T"]])
        assert capsys.readouterr().out == ""

    def test_unknown_subcommand_exits_two(self, capsys, files):
        code, _ = run(capsys, "frobnicate", files["T2"])
        assert code == 2

    def test_semantic_precondition_exits_one(self, capsys, files):
        code, out = run(capsys, "quotient", files["S3T"], "--subgroup", "0,1")
        assert code == 1
        assert "error" in json.loads(out)

    @pytest.mark.parametrize("command,flag,values", [
        ("retract", "--at", ["-1", "6"]),
        ("hg", "--at", ["-1", "6"]),
        ("cover", "--at", ["-2", "7"]),
        ("centralizer", "--of", ["-1", "9"]),
        ("quotient", "--subgroup", ["0,9", "0,-1", ",", "0,a"]),
    ])
    def test_element_outside_the_carrier_exits_two(self, capsys, files, command, flag, values):
        # S3T has order 6: each value is checked once the group is loaded
        for value in values:
            assert main([command, files["S3T"], flag, value]) == 2, value
            out, err = capsys.readouterr()
            assert out == "" and err.startswith(f"error: {flag} takes element indices in 0..5"), value

    def test_binary_group_file_verifies(self, capsys, tmp_path):
        path = tmp_path / "z4.json"
        save_group(P.cyclic_group(4), path)
        code, out = run(capsys, "verify", str(path))
        assert code == 0 and json.loads(out)["passed"]

    def test_decomposed_form_file_verifies(self, capsys, tmp_path, t2b):
        path = tmp_path / "hg.json"
        save_group(P.hg_construct(P.hg_decompose(t2b, 0)), path)
        code, out = run(capsys, "verify", str(path))
        assert code == 0 and json.loads(out)["passed"]


COMMANDS = [
    ("verify", []),
    ("skew-table", []),
    ("retract", ["--at", "0"]),
    ("hg", ["--at", "0"]),
    ("cover", ["--at", "0"]),
    ("classes", []),
    ("centralizer", ["--of", "0"]),
    ("subgroups", []),
    ("subgroups", ["--normal"]),
    ("reps", ["--dim", "1"]),
    ("chars", []),
    ("chars", ["--orthogonality"]),
    ("classify", []),
]


class TestDeterminism:
    def test_byte_identical_across_runs_and_workers(self, capsys, files):
        for name, path in files.items():
            quotient_args = {"S3T": "0,3,4", "Z4M": "0,2", "T2": "0", "T2b": "0,1", "Q4": "0,1"}
            commands = COMMANDS + [("quotient", ["--subgroup", quotient_args[name]])]
            for cmd, extra in commands:
                outs = []
                for _ in range(2):
                    code, out = run(capsys, cmd, path, *extra)
                    assert code == 0, (name, cmd, out)
                    outs.append(out)
                assert outs[0] == outs[1], (name, cmd)


class TestEmittedGroups:
    def test_cover_out_reverifies(self, capsys, files, tmp_path):
        out_path = tmp_path / "cover.json"
        code, out = run(capsys, "cover", files["T2"], "--at", "0", "--out", str(out_path))
        assert code == 0
        assert json.loads(out)["tag"] == "klein"
        code, _ = run(capsys, "verify", str(out_path))
        assert code == 0

    def test_embedded_groups_reverify(self, capsys, files, tmp_path):
        jobs = [("retract", ["--at", "0"]), ("hg", ["--at", "0"]),
                ("cover", ["--at", "0"]), ("quotient", ["--subgroup", "0,3,4"])]
        for cmd, extra in jobs:
            code, out = run(capsys, cmd, files["S3T"], *extra)
            assert code == 0
            doc = json.loads(out)["group"]
            path = tmp_path / f"emitted-{cmd}.json"
            path.write_text(json.dumps(doc))
            code, _ = run(capsys, "verify", str(path))
            assert code == 0, cmd

    def test_reps_counts(self, capsys, files):
        for name, count in [("T2", 3), ("T2b", 1), ("Z4M", 3)]:
            code, out = run(capsys, "reps", files[name], "--dim", "1")
            assert code == 0
            assert json.loads(out)["count"] == count

    def test_subgroups_normal_s3t(self, capsys, files):
        code, out = run(capsys, "subgroups", files["S3T"], "--normal")
        assert code == 0
        assert len(json.loads(out)["subgroups"]) == 4

    def test_subgroups_complete_above_order_twelve(self, capsys, tmp_path):
        path = tmp_path / "Z2^4.json"
        save_group(z2_4_ternary(), path)
        code, out = run(capsys, "subgroups", str(path))
        assert code == 0
        assert len(json.loads(out)["subgroups"]) == 307
        code, out = run(capsys, "classify", str(path))
        assert code == 0
        assert list(range(16)) in json.loads(out)["normal_subgroups"]

    def test_large_arity_answers(self, capsys, tmp_path):
        # Regression: reps raised ValueError (np.ix_ over 70 axes) on this order-6 group,
        # and classify exited 1 on its 6^70 cells
        path = tmp_path / "S3-70.json"
        save_group(P.derived(P.symmetric_group_3(), 70), path)
        code, out = run(capsys, "reps", str(path))
        assert code == 0 and json.loads(out)["count"] == 2
        code, out = run(capsys, "classify", str(path))
        assert code == 0 and json.loads(out)["normal_subgroups"] == [[0], [0, 1, 2, 3, 4, 5], [0, 3, 4]]

    def test_large_arity_reads_no_table(self, capsys, tmp_path, monkeypatch):
        # Regression: subgroups exited 1 on the 6^70 cells of derived(S3, 70)
        path = tmp_path / "S3-70.json"
        save_group(P.derived(P.symmetric_group_3(), 70), path)

        def refuse(self):
            raise AssertionError("dense table read")

        monkeypatch.setattr(P.NaryGroup, "dense", refuse)
        code, out = run(capsys, "subgroups", str(path))
        assert code == 0 and len(json.loads(out)["subgroups"]) == 8
        for command in ("reps", "chars"):
            code, out = run(capsys, command, str(path))
            assert code == 0 and json.loads(out), command

    def test_classify_cases(self, capsys, files):
        code, out = run(capsys, "classify", files["S3T"])
        assert json.loads(out)["case"] == "has-proper-normal"
        code, out = run(capsys, "classify", files["T2"])
        assert json.loads(out)["case"] == "b-derived-abelian"


class TestBudgetEnv:
    # No budget exists: neither the environment nor a flag changes a verdict
    # or its witnesses.
    def test_env_budget_ignored(self, capsys, files, mutated_s3t, monkeypatch):
        paths = [mutated_s3t] + list(files.values())
        want = [run(capsys, "verify", path) for path in paths]
        monkeypatch.setenv("POLYAD_BUDGET", "10")
        assert [run(capsys, "verify", path) for path in paths] == want
        code, out = want[0]
        doc = json.loads(out)
        assert code == 1 and doc["sampled"] is False and doc["method"] == "scan"

    def test_budget_flag_rejected_by_every_command(self, capsys, files, mutated_s3t):
        for path in (files["T2"], mutated_s3t):
            code, out = run(capsys, "verify", path, "--budget", "10")
            assert code == 2 and out == "", path
        for command in ("skew-table", "classes", "subgroups", "reps", "chars", "classify"):
            code, out = run(capsys, command, files["T2"], "--budget", "10")
            assert code == 2 and out == "", command

    def test_passing_verdict_never_sampled(self, capsys, files, monkeypatch):
        monkeypatch.setenv("POLYAD_BUDGET", "10")
        code, out = run(capsys, "verify", files["S3T"])
        assert code == 0
        doc = json.loads(out)
        assert doc["sampled"] is False and doc["method"] == "certificate"


class TestFileFormat:
    def test_hg_round_trip(self, tmp_path, t2b):
        data = P.hg_decompose(t2b, 0)
        group = P.hg_construct(data)
        path = tmp_path / "hg.json"
        save_group(group, path)
        loaded = load_group(path)
        assert loaded.equals(t2b)

    def test_hg_serialization_ignores_the_dense_cache(self, tmp_path):
        group = P.derived(P.symmetric_group_3(), 3)
        before = group_to_dict(group)
        group.dense()
        assert group_to_dict(group) == before and before["kind"] == "hg"
        path = tmp_path / "hg.json"
        save_group(group, path)
        loaded = load_group(path)
        assert loaded.kind == "hg" and loaded == group

    def test_labels_preserved(self, tmp_path, t2):
        labelled = P.NaryGroup(3, 2, table=t2.dense(), labels=("e", "a"))
        path = tmp_path / "labelled.json"
        save_group(labelled, path)
        assert load_group(path).labels == ("e", "a")

    def test_binary_document_verified_once(self, tmp_path, binary_table_checks, capsys):
        # the parser checks a binary table through BinaryGroup's one check,
        # and `verify` reports from that load instead of checking again
        path = tmp_path / "z4.json"
        save_group(P.cyclic_group(4), path)
        calls = binary_table_checks
        calls.clear()                      # count from the load on
        assert load_group(path).order == 4
        assert calls == [(4, 4)]
        code, out = run(capsys, "verify", str(path))
        assert code == 0 and calls == [(4, 4)] * 2
        assert json.loads(out) == P.verify_binary_table(P.cyclic_group(4).table).to_dict()

    def test_hg_document_verified_once(self, tmp_path, binary_table_checks, capsys):
        # the parser checks the embedded table; `verify` reuses that report
        path = tmp_path / "s3t.json"
        save_group(P.derived(P.symmetric_group_3(), 3), path)
        assert json.loads(path.read_text())["kind"] == "hg"
        binary_table_checks.clear()        # count from the load on
        code, out = run(capsys, "verify", str(path))
        assert code == 0 and binary_table_checks == [(6, 6)]
        doc = json.loads(out)
        assert doc["method"] == "certificate" and doc["checked"] == 6 ** 3

    def test_failing_binary_document_reports_the_table_check(self, tmp_path, capsys):
        table = [0, 1, 2, 1, 2, 0, 2, 1, 0]    # Latin with identity 0, not associative
        path = tmp_path / "loop.json"
        path.write_text(json.dumps({"arity": 2, "order": 3, "kind": "binary", "table": table}))
        code, out = run(capsys, "verify", str(path))
        want = P.verify_binary_table(np.array(table).reshape(3, 3))
        assert code == 1 and json.loads(out) == want.to_dict()
        assert want.failures[0] == ("associativity", (1, 1, 1)) and want.checked == 27
        with pytest.raises(P.InvalidGroupError, match="^not a group: associativity$"):
            load_group(path)

    def test_hg_document_with_failing_group_keeps_its_message(self, tmp_path, capsys):
        loop = {"arity": 2, "order": 3, "kind": "binary", "table": [0, 1, 2, 1, 2, 0, 2, 1, 0]}
        path = tmp_path / "hg_loop.json"
        path.write_text(json.dumps({"arity": 3, "order": 3, "kind": "hg", "group": loop,
                                    "phi": [0, 1, 2], "b": 0}))
        code, out = run(capsys, "verify", str(path))
        doc = json.loads(out)
        assert code == 1 and doc["checked"] == 0
        assert doc["failures"] == [{"axiom": "not a group: associativity", "witness": []}]

    def test_bad_phi_rejected(self, tmp_path):
        doc = {
            "arity": 3, "order": 2, "kind": "hg",
            "group": group_to_dict(P.cyclic_group(2)),
            "phi": [0, 0], "b": 0,
        }
        path = tmp_path / "bad_hg.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(P.InvalidGroupError):
            load_group(path)
