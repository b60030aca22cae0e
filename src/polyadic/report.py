"""Verification reports and the fixed tuple budget.

Every axiom checker returns a :class:`VerificationReport` instead of raising,
so that mutated or otherwise broken tables are first-class inputs.  A report
says how it was reached (``method``):

- ``certificate``: an exact verdict that rests on a theorem instead of a scan
  of every tuple, never sampled: the Hosszú–Gluskin certificate of
  :func:`polyadic.core.verify_nary_group`, and the homomorphism certificate
  of :func:`polyadic.rep.verify_representation`,
  :func:`polyadic.cover.verify_embedding` and
  :func:`polyadic.action.verify_action`.  A certificate can also reject;
  its witness is then a genuine failing tuple, but it need not be the
  lexicographically first one;
- ``scan``: an exhaustive scan of every tuple;
- ``sampled-scan``: a fixed-seed pseudo-random sample.  It arises only in
  the fallback of :func:`polyadic.core.verify_nary_group`'s failure-witness
  search, when the scan's tuple count exceeds ``DEFAULT_BUDGET`` (10^7
  tuples).  ``sampled`` is true exactly for these reports.  The budget is a
  constant: no argument, flag or environment variable changes it, so a
  report depends on its input alone.

A scan carries the first witness found for each violated axiom, scanning in
lexicographic tuple order so results are deterministic.  ``checked`` counts
the tuples (or cells) a report rests on:

- for the Hosszú–Gluskin certificate, the table cells compared with the
  rebuilt table plus the m^3 cells of the retract's group check;
- for the homomorphism certificate, its m^2 + m + 1 n-tuples, times the
  number of points for an action;
- for a ``scan``, every tuple the verdict covers, m^(2n-1) for associativity
  plus n m^n for solvability.  A failure report that
  :func:`polyadic.core.verify_nary_group` finds through the difference set
  evaluates far fewer, but it covers them all, so it is equal to the
  exhaustive scan's report, ``checked`` included;
- for a ``sampled-scan``, the sampled tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

DEFAULT_BUDGET = 10_000_000
SAMPLE_SEED = 0xC0FFEE
SAMPLE_COUNT = 100_000
METHODS = ("certificate", "scan", "sampled-scan")


def sample_tuples(count: int, width: int, high: int) -> np.ndarray:
    """Deterministic (count, width) matrix of indices below ``high``."""
    rng = np.random.default_rng(SAMPLE_SEED)
    return rng.integers(0, high, size=(count, width), dtype=np.int64)


class Failure(NamedTuple):
    axiom: str
    witness: tuple[int, ...]


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of an axiom check: passed flag, witnessed failures, method."""

    passed: bool
    failures: tuple[Failure, ...] = ()
    method: str = "scan"
    checked: int = 0

    def __post_init__(self):
        if self.passed != (len(self.failures) == 0):
            raise ValueError("passed flag inconsistent with failure list")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")

    @property
    def sampled(self) -> bool:
        return self.method == "sampled-scan"

    @classmethod
    def ok(cls, checked: int = 0, sampled: bool = False) -> "VerificationReport":
        return cls(True, (), _scan_method(sampled), checked)

    @classmethod
    def fail(cls, failures, checked: int = 0, sampled: bool = False) -> "VerificationReport":
        return cls(False, _failures(failures), _scan_method(sampled), checked)

    @classmethod
    def certificate(cls, failures=(), checked: int = 0) -> "VerificationReport":
        """An exact verdict: passing when ``failures`` is empty."""
        fails = _failures(failures)
        return cls(not fails, fails, "certificate", checked)

    def first(self) -> Failure | None:
        return self.failures[0] if self.failures else None

    def merge(self, other: "VerificationReport") -> "VerificationReport":
        return VerificationReport(
            self.passed and other.passed,
            self.failures + other.failures,
            max(self.method, other.method, key=METHODS.index),
            self.checked + other.checked,
        )

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "method": self.method,
            "sampled": self.sampled,
            "checked": int(self.checked),
            "failures": [
                {"axiom": f.axiom, "witness": [int(x) for x in f.witness]}
                for f in self.failures
            ],
        }


def _failures(failures) -> tuple[Failure, ...]:
    return tuple(Failure(str(a), tuple(int(x) for x in w)) for a, w in failures)


def _scan_method(sampled: bool) -> str:
    return "sampled-scan" if sampled else "scan"
