"""In-memory span tracing around calls into each polyadic module.

A traced run wraps the public functions listed in ``TARGETS`` wherever the
package binds them (the defining module and every module that imported the
name), so calls made inside the library are traced too: ``verify_nary_group``
shows its ``verify_associativity`` and ``verify_quasigroup`` children, and
``one_dim_reps`` its ``covering_group`` child.  Nothing under ``src/`` is
edited; the wrappers are removed again by :meth:`Tracer.restore`.

Each span holds name, start, end, parent span and operation id.  A layer's
self time is its span's duration minus the time its direct children cover.
Spans are kept in memory and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path

# What a span belongs to: the set-up, the probe after the timed loop, or
# (OPS) one of the timed operations, whose ``op`` is its index.
SETUP = "setup"
PROBE = "probe"
OPS = "ops"


def _verify_counts(args, kwargs, report):
    return {"checked": report.checked, "calls": 1, "exact": int(not report.sampled)}


def _table_cells(args, kwargs, report):
    m = len(args[0]) if args else len(kwargs["table"])
    return {"cells": m ** 3}


def _cover_products(args, kwargs, cover):
    return {"products": cover.group.order ** 2}


def _load_bytes(args, kwargs, group):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"]), "calls": 1}


# (span name, module, function, counter from (args, kwargs, result))
TARGETS = [
    ("core.verify", "polyadic.core", "verify_nary_group", _verify_counts),
    ("core.assoc", "polyadic.core", "verify_associativity", None),
    ("core.quasi", "polyadic.core", "verify_quasigroup", None),
    ("binary.verify_table", "polyadic.binary", "verify_binary_table", _table_cells),
    ("binary.iso", "polyadic.binary", "find_isomorphism", None),
    ("retract.retract", "polyadic.retract", "retract", None),
    ("retract.decompose", "polyadic.retract", "hg_decompose", None),
    ("cover.build", "polyadic.cover", "covering_group", _cover_products),
    ("cover.H", "polyadic.cover", "cover_H", None),
    ("cover.embedding", "polyadic.cover", "verify_embedding", None),
    ("action.classes", "polyadic.action", "conjugacy_classes", None),
    ("action.centralizer", "polyadic.action", "centralizer", None),
    ("rep.one_dim", "polyadic.rep", "one_dim_reps", lambda a, k, r: {"reps": len(r)}),
    ("structure.subgroups", "polyadic.structure", "subgroups", lambda a, k, r: {"found": len(r)}),
    ("structure.classify", "polyadic.structure", "classify_simplicity", None),
    ("structure.quotient", "polyadic.structure", "quotient", None),
    ("fileformat.load", "polyadic.fileformat", "load_group", _load_bytes),
    ("cli.main", "polyadic.cli", "main", lambda a, k, r: {"calls": 1}),
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "counts")

    def __init__(self, name, start, parent, op):
        self.name, self.start, self.end = name, start, start
        self.parent, self.op, self.counts = parent, op, None

    def to_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op, "counts": self.counts}


class Tracer:
    """Collects spans while ``op`` is set; idle (no spans) while it is None."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        if self.op is None:
            return -1
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent, self.op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int, counts: dict | None = None) -> None:
        if idx < 0:
            return
        self.spans[idx].end = time.perf_counter()
        self.spans[idx].counts = counts
        self._stack.pop()

    def wrap(self, name: str, fn, counter=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            counts = None
            try:
                result = fn(*args, **kwargs)
                if counter is not None and idx >= 0:
                    counts = counter(args, kwargs, result)
                return result
            finally:
                tracer.close(idx, counts)

        return traced

    def instrument(self) -> None:
        """Wrap every target wherever a polyadic module binds it."""
        modules = [mod for name, mod in list(sys.modules.items())
                   if name == "polyadic" or name.startswith("polyadic.")]
        for name, modname, attr, counter in TARGETS:
            original = getattr(sys.modules[modname], attr)
            traced = self.wrap(name, original, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, traced)
        self._instrument_dense()

    def _instrument_dense(self) -> None:
        """Span ``NaryGroup.dense`` only when it materializes a table."""
        from polyadic.core import NaryGroup

        original = NaryGroup.dense
        tracer = self

        @functools.wraps(original)
        def dense(group):
            if group._table is not None:
                return group._table
            idx = tracer.open("core.dense")
            table = None
            try:
                table = original(group)
                return table
            finally:
                tracer.close(idx, {"bytes": table.nbytes} if table is not None else None)

        self._patches.append((NaryGroup, "dense", original))
        NaryGroup.dense = dense

    def restore(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the duration of its direct children."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def totals(self, phase: str) -> tuple[dict, dict, dict]:
        """Summed self seconds, inclusive seconds and counts per span name,
        over the spans of ``phase`` (SETUP, PROBE or OPS)."""
        own = self.self_times()
        self_s: dict[str, float] = {}
        incl_s: dict[str, float] = {}
        counts: dict[str, float] = {}
        for s, t in zip(self.spans, own):
            if (s.op if s.op in (SETUP, PROBE) else OPS) != phase:
                continue
            self_s[s.name] = self_s.get(s.name, 0.0) + t
            incl_s[s.name] = incl_s.get(s.name, 0.0) + (s.end - s.start)
            for key, value in (s.counts or {}).items():
                full = f"{s.name}.{key}"
                counts[full] = counts.get(full, 0) + value
        return self_s, incl_s, counts

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.to_dict()) + "\n")
