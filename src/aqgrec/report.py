"""Shared check/report machinery with deterministic JSON output."""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple

from .linalg import worst


class Check(NamedTuple):
    # a NamedTuple: immutable like a frozen dataclass, and cheap to create
    # for the tens of thousands of rows a validation report can hold
    name: str
    location: str
    residual: float
    passed: bool
    skipped: bool = False

    def to_dict(self) -> dict:
        d = {
            "check": self.name,
            "location": self.location,
            "residual": _round_trippable(self.residual),
            "pass": bool(self.passed),
        }
        if self.skipped:
            d["skipped"] = True
        return d


def _round_trippable(x: float) -> float:
    # NaN/inf are not valid JSON; clamp for reporting only.
    import math

    if math.isnan(x):
        return -1.0
    if math.isinf(x):
        return 1e308
    return float(x)


@dataclass
class Report:
    title: str
    checks: list[Check] = field(default_factory=list)

    def add(self, name: str, location: str, res: float, ok: bool) -> Check:
        c = Check(name, location, float(res), bool(ok))
        self.checks.append(c)
        return c

    def skip(self, name: str, location: str) -> Check:
        c = Check(name, location, 0.0, True, skipped=True)
        self.checks.append(c)
        return c

    def extend(self, other: "Report") -> None:
        self.checks.extend(other.checks)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_residual(self) -> float:
        """Largest residual of the checks run; NaN if any of them is NaN."""
        return worst(*(c.residual for c in self.checks if not c.skipped))

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]

    def to_dict(self) -> dict:
        return {
            "report": self.title,
            "pass": self.passed,
            "max_residual": _round_trippable(self.max_residual),
            "checks": [c.to_dict() for c in self.checks],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def to_text(self) -> str:
        lines = [f"== {self.title}: {'PASS' if self.passed else 'FAIL'} =="]
        for c in self.checks:
            if c.skipped:
                lines.append(f"  skip {c.name} @ {c.location}")
            else:
                tag = "ok  " if c.passed else "FAIL"
                lines.append(f"  {tag} {c.name} @ {c.location}  residual={c.residual:.3e}")
        return "\n".join(lines)
