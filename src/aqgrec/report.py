"""Shared check/report machinery with deterministic JSON output."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import partial
from itertools import repeat
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

import numpy as np

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


# a Check from its five fields, without the Python-level NamedTuple __new__
_check = partial(tuple.__new__, Check)


def _round_trippable(x: float) -> float:
    # NaN/inf are not valid JSON; clamp for reporting only.
    if math.isnan(x):
        return -1.0
    if math.isinf(x):
        return 1e308
    return float(x)


# to_json writes what json.dumps(to_dict(), sort_keys=True, indent=2) writes:
# one row template, strings as json escapes them and floats as float.__repr__
_ROW = ('    {\n      "check": %s,\n      "location": %s,\n      "pass": %s,\n'
        '      "residual": %s%s\n    }')
_SKIPPED = ',\n      "skipped": true'
_NON_FINITE = {"nan": repr(-1.0), "inf": repr(1e308), "-inf": repr(1e308)}


@dataclass
class Report:
    title: str
    checks: list[Check] = field(default_factory=list)

    def add(self, name: str, location: str, res: float, ok: bool) -> Check:
        c = Check(name, location, float(res), bool(ok))
        self.checks.append(c)
        return c

    def add_rows(self, name, locations, residuals, ok, fail_fast: bool = False,
                 skipped=None) -> bool:
        """Append one row per location, as add does (or skip where skipped).

        name is one check name or one per row.  With fail_fast the rows stop
        after the first failing one; returns True when they stopped there.
        """
        ok = np.asarray(ok, dtype=bool)
        res = np.asarray(residuals, dtype=float)
        skip = np.zeros(len(ok), dtype=bool) if skipped is None else np.asarray(skipped, dtype=bool)
        if skipped is not None:
            res, ok = np.where(skip, 0.0, res), ok | skip
        stop = fail_fast and not ok.all()
        n = int(np.argmin(ok)) + 1 if stop else len(ok)
        names = repeat(name, n) if isinstance(name, str) else name[:n]
        self.checks.extend(map(_check, zip(names, locations[:n], res[:n].tolist(),
                                           ok[:n].tolist(), skip[:n].tolist())))
        return stop

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
        return worst([c.residual for c in self.checks if not c.skipped])

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
        """json.dumps(self.to_dict(), sort_keys=True, indent=2), written in bulk."""
        enc = encode_basestring_ascii
        names = {n: enc(n) for n in dict.fromkeys(c.name for c in self.checks)}
        numbers = [_NON_FINITE.get(s, s) for s in
                   map(float.__repr__, map(float, (c.residual for c in self.checks)))]
        rows = ",\n".join([
            _ROW % (names[c.name], enc(c.location), "true" if c.passed else "false", num,
                    _SKIPPED if c.skipped else "")
            for c, num in zip(self.checks, numbers)
        ])
        return "".join((
            '{\n  "checks": [', "\n" + rows + "\n  ]" if rows else "]",
            ',\n  "max_residual": ', json.dumps(_round_trippable(self.max_residual)),
            ',\n  "pass": ', "true" if self.passed else "false",
            ',\n  "report": ', enc(self.title), "\n}",
        ))

    def to_text(self) -> str:
        lines = [f"== {self.title}: {'PASS' if self.passed else 'FAIL'} =="]
        for c in self.checks:
            if c.skipped:
                lines.append(f"  skip {c.name} @ {c.location}")
            else:
                tag = "ok  " if c.passed else "FAIL"
                lines.append(f"  {tag} {c.name} @ {c.location}  residual={c.residual:.3e}")
        return "\n".join(lines)
