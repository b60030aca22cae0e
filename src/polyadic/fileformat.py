"""JSON group files.

Schema::

    {"arity": n, "order": m, "kind": "dense" | "hg" | "binary",
     "table": [ints],                 # dense (m^n entries) or binary (m^2)
     "group": {...}, "phi": [...], "b": int,   # hg: nested binary group file
     "labels": ["..."]}               # optional, m strings

Numbers are element indices; JSON ``true``/``false`` are not numbers here.
Parsing errors raise :class:`ParseError` so the CLI can map them to its usage
exit code.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .binary import BinaryGroup, HGData
from .core import DENSE_LIMIT, NaryGroup, within_dense_limit
from .errors import InvalidGroupError, ParseError


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ParseError(message)


def _are_indices(values, m: int) -> bool:
    # ``type(v) is int``, not ``isinstance``: JSON true/false parse to bool, an int subclass
    return all(type(v) is int and 0 <= v < m for v in values)


def group_from_dict(doc: dict) -> NaryGroup | BinaryGroup:
    """Parse a group document; structural validation only, no axiom checks
    beyond what construction itself enforces (a binary table is verified
    once, on construction; a failure carries its report)."""
    _require(isinstance(doc, dict), "group document must be an object")
    kind = doc.get("kind")
    _require(kind in ("dense", "hg", "binary"), f"unknown kind {kind!r}")
    _require(type(doc.get("order")) is int and doc["order"] >= 1, "order must be a positive integer")
    m = doc["order"]
    labels = doc.get("labels")
    if labels is not None:
        _require(
            isinstance(labels, list) and len(labels) == m
            and all(isinstance(s, str) for s in labels),
            "labels must be a list of order-many strings",
        )
    if kind == "binary":
        _require(doc.get("arity", 2) == 2, "binary groups have arity 2")
        table = doc.get("table")
        _require(isinstance(table, list) and len(table) == m * m, f"binary table needs {m * m} entries")
        _require(_are_indices(table, m), "table entries must be element indices")
        try:
            return BinaryGroup(np.array(table).reshape(m, m))
        except InvalidGroupError as exc:
            raise InvalidGroupError(f"not a group: {exc.report.first().axiom}", exc.report) from None
    arity = doc.get("arity")
    _require(type(arity) is int and arity >= 3, "arity must be an integer >= 3")
    if kind == "dense":
        _require(within_dense_limit(m, arity), f"dense tables are limited to {DENSE_LIMIT} entries")
        table = doc.get("table")
        if not (isinstance(table, list) and len(table) == m ** arity):
            raise ParseError(f"dense table needs {m ** arity} entries")
        _require(_are_indices(table, m), "table entries must be element indices")
        return NaryGroup(arity, m, table=table, labels=labels)   # built from the list: kept as the cache
    inner = doc.get("group")
    _require(isinstance(inner, dict) and inner.get("kind") == "binary", "hg documents embed a binary group")
    try:
        base = group_from_dict(inner)
    except InvalidGroupError as exc:   # the hg document fails, not a binary one: no table report
        raise InvalidGroupError(str(exc)) from None
    _require(base.order == m, "embedded group order mismatch")
    phi = doc.get("phi")
    _require(isinstance(phi, list) and len(phi) == m, "phi must be a permutation list")
    _require(_are_indices(phi, m), "phi entries must be element indices")
    b = doc.get("b")
    _require(_are_indices([b], m), "b must be an element index")
    try:
        data = HGData(base, np.array(phi, dtype=np.int64), b, arity)
    except InvalidGroupError as exc:
        raise InvalidGroupError(f"hg data rejected: {exc}") from exc
    return NaryGroup.from_hg(data, labels=labels)


def group_to_dict(group: NaryGroup | BinaryGroup) -> dict:
    if isinstance(group, BinaryGroup):
        return {
            "arity": 2,
            "order": int(group.order),
            "kind": "binary",
            "table": [int(v) for v in group.table.reshape(-1)],
        }
    doc = {"arity": int(group.arity), "order": int(group.order)}
    if group.labels is not None:
        doc["labels"] = list(group.labels)
    doc["kind"] = group.kind
    if group.kind == "hg":
        doc["group"] = group_to_dict(group.hg.group)
        doc["phi"] = [int(v) for v in group.hg.phi]
        doc["b"] = int(group.hg.b)
    else:
        doc["table"] = [int(v) for v in group.dense().reshape(-1)]   # a dense file lists every cell
    return doc


def load_group(path) -> NaryGroup | BinaryGroup:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except ValueError as exc:   # a JSONDecodeError, or an integer too long to convert
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    return group_from_dict(doc)


def save_group(group: NaryGroup | BinaryGroup, path) -> None:
    Path(path).write_text(json.dumps(group_to_dict(group), sort_keys=True) + "\n")
