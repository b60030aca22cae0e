"""Command-line interface: verify group files, run analyses, emit JSON reports.

Exit codes: 0 pass, 1 mathematical failure or unmet semantic precondition,
2 usage or parse failure.  All reports are printed to stdout as JSON with
sorted keys and sorted element lists, so output is byte-stable across runs.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .action import centralizer, conjugacy_classes
from .binary import BinaryGroup, small_group_tag
from .core import NaryGroup
from .cover import cover_H, covering_group, verify_embedding
from .errors import InvalidGroupError, ParseError, PolyadicError
from .fileformat import group_to_dict, load_group, save_group
from .rep import character, kernel, kernel_chi, one_dim_reps, orthogonality_check
from .report import VerificationReport
from .retract import hg_decompose, retract
from .structure import classify_simplicity, normal_subgroups, quotient, subgroups

PASS, FAIL, USAGE = 0, 1, 2


def _round(z: complex) -> list[float]:
    return [round(float(z.real), 12) + 0.0, round(float(z.imag), 12) + 0.0]


def emit(doc: dict) -> None:
    print(json.dumps(doc, sort_keys=True, indent=2))


def _load_nary(path) -> NaryGroup:
    group = load_group(path)
    if isinstance(group, BinaryGroup):
        raise InvalidGroupError("this command needs an n-ary group file")
    if not group.report.passed:
        first = group.report.first()
        raise InvalidGroupError(f"group fails {first.axiom} at {first.witness}")
    return group


def _element(group: NaryGroup, value, flag: str) -> int:
    """``value`` as an element index; :class:`ParseError` unless it is an integer in 0..m-1."""
    try:
        x = int(value)
    except ValueError:
        x = -1
    if not 0 <= x < group.order:
        raise ParseError(f"{flag} takes element indices in 0..{group.order - 1}, got {value!r}")
    return x


def cmd_verify(args) -> int:
    try:
        group = load_group(args.path)
    except InvalidGroupError as exc:
        # structurally valid file, mathematically broken (binary or hg kinds
        # verify on construction): report the failure rather than erroring,
        # with a binary table's own report when there is one
        report = exc.report or VerificationReport.fail([(str(exc), ())])
        emit(report.to_dict())
        return FAIL
    emit(group.report.to_dict())
    return PASS if group.report.passed else FAIL


def cmd_skew_table(args) -> int:
    group = _load_nary(args.path)
    emit({"order": group.order, "skew": [int(v) for v in group.skew_table()]})
    return PASS


def cmd_retract(args) -> int:
    group = _load_nary(args.path)
    at = _element(group, args.at, "--at")
    ret = retract(group, at)
    emit({
        "at": at,
        "identity": int(ret.identity),
        "abelian": bool(ret.is_abelian),
        "group": group_to_dict(ret),
    })
    return PASS


def cmd_hg(args) -> int:
    group = _load_nary(args.path)
    at = _element(group, args.at, "--at")
    data = hg_decompose(group, at)
    emit({
        "at": at,
        "arity": group.arity,
        "phi": [int(v) for v in data.phi],
        "b": int(data.b),
        "group": group_to_dict(data.group),
    })
    return PASS


def cmd_cover(args) -> int:
    group = _load_nary(args.path)
    at = _element(group, args.at, "--at")
    cov = covering_group(group, at)
    h = cover_H(cov)
    embedding = verify_embedding(cov)
    if not embedding.passed:
        raise InvalidGroupError("embedding product law failed")
    if args.out:
        save_group(cov.group, args.out)
    emit({
        "at": at,
        "order": int(cov.group.order),
        "identity_pair": [int(v) for v in cov.pair_of(cov.group.identity)],
        "tag": small_group_tag(cov.group),
        "H": [int(v) for v in h],
        "quotient_cyclic_order": group.arity - 1,
        "group": group_to_dict(cov.group),
    })
    return PASS


def cmd_classes(args) -> int:
    group = _load_nary(args.path)
    part = conjugacy_classes(group)
    emit({"classes": [[int(v) for v in blk] for blk in part.blocks]})
    return PASS


def cmd_centralizer(args) -> int:
    group = _load_nary(args.path)
    of = _element(group, args.of, "--of")
    elems = centralizer(group, of)
    emit({"of": of, "centralizer": [int(v) for v in elems]})
    return PASS


def cmd_subgroups(args) -> int:
    group = _load_nary(args.path)
    subs = normal_subgroups(group) if args.normal else subgroups(group)
    emit({"normal_only": bool(args.normal), "subgroups": [[int(v) for v in h] for h in subs]})
    return PASS


def cmd_quotient(args) -> int:
    group = _load_nary(args.path)
    subgroup = tuple(_element(group, v, "--subgroup") for v in args.subgroup.split(","))
    quot = quotient(group, subgroup)
    emit({
        "subgroup": [int(v) for v in sorted(subgroup)],
        "blocks": [[int(v) for v in blk] for blk in quot.partition.blocks],
        "identity_block": int(quot.identity_block),
        "group": group_to_dict(quot.group),
    })
    return PASS


def _matrix_doc(mat) -> list:
    return [[_round(z) for z in row] for row in np.asarray(mat)]


def cmd_reps(args) -> int:
    group = _load_nary(args.path)
    if args.dim != 1:
        raise InvalidGroupError("only 1-dimensional enumeration is supported")
    reps = one_dim_reps(group)
    emit({
        "dim": 1,
        "count": len(reps),
        "reps": [
            {
                "images": [_matrix_doc(rep.images[x]) for x in range(group.order)],
                "kernel": [int(v) for v in kernel(rep)],
            }
            for rep in reps
        ],
    })
    return PASS


def cmd_chars(args) -> int:
    group = _load_nary(args.path)
    reps = one_dim_reps(group)
    chars = [character(rep) for rep in reps]
    doc = {"chars": [[_round(z) for z in c.values] for c in chars]}
    if args.orthogonality:
        sums = []
        for c1 in chars:
            row = []
            for c2 in chars:
                p1, p2 = kernel_chi(c1)[0], kernel_chi(c2)[0]
                row.append(_round(complex(orthogonality_check(c1, p1, c2, p2, 0))))
            sums.append(row)
        doc["orthogonality"] = sums
    emit(doc)
    return PASS


def cmd_classify(args) -> int:
    group = _load_nary(args.path)
    result = classify_simplicity(group)
    emit({
        "case": result.case,
        "normal_subgroups": [[int(v) for v in h] for h in result.normal_subgroups],
        "proper_normal": [[int(v) for v in h] for h in result.proper_normal],
        "central_singleton": result.central_singleton,
        "twist": result.twist,
        "carrier_abelian": result.carrier_abelian,
    })
    return PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyadic",
        description="Construct, verify and analyze finite polyadic groups.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **extra):
        p = sub.add_parser(name)
        p.add_argument("path", help="group file (JSON)")
        for flag, kwargs in extra.items():
            p.add_argument(flag, **kwargs)
        p.set_defaults(handler=fn)
        return p

    add("verify", cmd_verify)
    add("skew-table", cmd_skew_table)
    add("retract", cmd_retract, **{"--at": {"type": int, "required": True}})
    add("hg", cmd_hg, **{"--at": {"type": int, "required": True}})
    add("cover", cmd_cover, **{
        "--at": {"type": int, "required": True},
        "--out": {"type": str, "default": None},
    })
    add("classes", cmd_classes)
    add("centralizer", cmd_centralizer, **{"--of": {"type": int, "required": True}})
    add("subgroups", cmd_subgroups, **{"--normal": {"action": "store_true"}})
    add("quotient", cmd_quotient, **{"--subgroup": {"type": str, "required": True}})
    add("reps", cmd_reps, **{"--dim": {"type": int, "default": 1}})
    add("chars", cmd_chars, **{"--orthogonality": {"action": "store_true"}})
    add("classify", cmd_classify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code not in (0, None) else 0
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except PolyadicError as exc:
        emit({"error": str(exc)})
        print(f"error: {exc}", file=sys.stderr)
        return FAIL


if __name__ == "__main__":
    sys.exit(main())
