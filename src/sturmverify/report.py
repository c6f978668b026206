"""Schema-versioned JSON verification reports."""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field

SCHEMA_VERSION = "1"


def write_json(data, out_path=None) -> None:
    """``data`` as indented JSON and a newline, into ``out_path`` or to stdout."""
    text = json.dumps(data, indent=2) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _finite_or_none(value):
    """A float for JSON: None, written as null, when it is NaN or infinite."""
    return value if math.isfinite(value) else None


@dataclass
class CheckRecord:
    """Outcome of one identity or estimate comparison."""

    check_id: str
    statement: str
    expected: float
    actual: float
    tol: float
    mode: str
    passed: bool
    abs_err: float
    rel_err: float
    stderr: float | None = None
    note: str = ""

    @classmethod
    def compare(cls, check_id, statement, expected, actual, tol, *, mode="rel", stderr=None, note=""):
        """Build a record; ``mode`` is "rel", "abs", or "sigma" (tol * stderr).

        Sigma comparisons carry a 1e-12 relative floor: when the sampling
        proposal matches the integrand exactly the reported stderr collapses
        to 0 and only float rounding separates the two values.

        A non-finite ``expected``, ``actual`` or ``stderr`` fails the record
        and is named in its note; ``to_json`` writes it as null.
        """
        expected = float(expected)
        actual = float(actual)
        abs_err = abs(actual - expected)
        denom = max(abs(expected), abs(actual))
        # denom is 0 when both values are 0 (abs_err 0) or one is NaN (abs_err NaN)
        rel_err = abs_err / denom if denom else abs_err
        if mode == "rel":
            passed = rel_err <= tol
        elif mode == "abs":
            passed = abs_err <= tol
        elif mode == "sigma":
            passed = abs_err <= tol * (stderr or 0.0) + 1e-12 * denom
        else:
            raise ValueError(f"unknown comparison mode {mode!r}")
        fields = (("expected", expected), ("actual", actual), ("stderr", stderr))
        non_finite = [name for name, value in fields if value is not None and not math.isfinite(value)]
        if non_finite:
            passed = False
            note = "; ".join(filter(None, (note, f"non-finite {', '.join(non_finite)}, written as null")))
        return cls(
            check_id=check_id,
            statement=statement,
            expected=expected,
            actual=actual,
            tol=tol,
            mode=mode,
            passed=passed,
            abs_err=abs_err,
            rel_err=rel_err,
            stderr=stderr,
            note=note,
        )

    def to_json(self) -> dict:
        data = {
            "id": self.check_id,
            "statement": self.statement,
            "expected": _finite_or_none(self.expected),
            "actual": _finite_or_none(self.actual),
            "abs_err": _finite_or_none(self.abs_err),
            "rel_err": _finite_or_none(self.rel_err),
            "tol": self.tol,
            "mode": self.mode,
            "pass": self.passed,
        }
        if self.stderr is not None:
            data["stderr"] = _finite_or_none(self.stderr)
        if self.note:
            data["note"] = self.note
        return data


@dataclass
class VerificationReport:
    """All check outcomes of one suite run."""

    suite: str
    seed: int
    checks: list = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "suite": self.suite,
            "seed": self.seed,
            "passed": self.passed,
            "wall_time_s": self.wall_time_s,
            "checks": [c.to_json() for c in self.checks],
        }
