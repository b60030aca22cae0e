"""Verification reports.

Every axiom checker returns a :class:`VerificationReport` instead of raising,
so that mutated or otherwise broken tables are first-class inputs.  A report
says how it was reached (``method``), and no report rests on a sample:

- ``certificate``: an exact verdict that rests on a theorem instead of a scan
  of every tuple: the Hosszú–Gluskin certificate of
  :func:`polyadic.core.verify_nary_group`, and the homomorphism certificate
  of :func:`polyadic.rep.verify_representation`,
  :func:`polyadic.cover.verify_embedding` and
  :func:`polyadic.action.verify_action`.  A certificate can also reject;
  its witness is then a genuine failing tuple, but it need not be the
  lexicographically first one.  A rejected dense table that neither the
  difference-set search nor the scans answer gets such a report: the first
  line at each place that is no permutation (``solvability(place=i)``, the
  scan's own witnesses), else the first certificate step that fails at
  anchor 0, as an ``associativity(i=..,j=..)`` witness of the table or as a
  ``hosszu-gluskin(<condition>)`` failure, witnessed by the argument where
  the named condition fails;
- ``scan``: an exhaustive scan of every tuple.

A scan carries the first witness found for each violated axiom, scanning in
lexicographic tuple order so results are deterministic.  ``checked`` counts
the tuples (or cells) a report rests on:

- for the Hosszú–Gluskin certificate, the table cells compared with the
  rebuilt table plus the m^3 cells of the retract's group check.  When it
  rejects a table, the n m^n cells of the lines, plus, if every line is a
  permutation, the cells of the steps up to the failing one: m^3 for the
  retract's group check, m^2 for phi's automorphism check, m + 1 for the
  conditions on b and m^n for the rebuild;
- for the homomorphism certificate, its m^2 + m + 1 n-tuples, times the
  number of points for an action;
- for a ``scan``, every tuple the verdict covers, m^(2n-1) for associativity
  plus n m^n for solvability.  A failure report that
  :func:`polyadic.core.verify_nary_group` finds through the difference set
  evaluates far fewer, but it covers them all, so it is equal to the
  exhaustive scan's report, ``checked`` included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

METHODS = ("certificate", "scan")


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
        """Always False: no report rests on a sample; kept for readers of ``to_dict``'s key."""
        return False

    @classmethod
    def ok(cls, checked: int = 0) -> "VerificationReport":
        return cls(True, (), "scan", checked)

    @classmethod
    def fail(cls, failures, checked: int = 0) -> "VerificationReport":
        return cls(False, _failures(failures), "scan", checked)

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

