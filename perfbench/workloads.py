"""Workloads, seeded inputs and output checks shared by the timed and traced runs.

A workload is one bundle family at one size.  Each cycle generates the bundle,
runs the listed subcommands on it in order, then runs ``check`` on two seeded
corruptions of it: a fusion isometry scaled by 1+1e-4 (must exit 1) and the
same entry set to NaN (a malformed bundle, must exit 2).
"""
from __future__ import annotations

import copy
import json
import math
import random
from dataclasses import dataclass, field

EXIT_PASS, EXIT_FAIL, EXIT_INPUT = 0, 1, 2

# Subcommands whose output is a report with a "pass" field.
REPORT_OPS = ("validate", "check", "dual", "rmatrix", "group")

# Failures the program has today, keyed by (family, op); family None means
# every family.  Such an op still runs and counts as failed, but its failure
# does not make the run incorrect.  Wrong output with the expected exit code
# always does.
KNOWN_DEFECTS = {
    ("pointed", "group"): "grouplikes asks for a dense N^4 x N^4 SVD (MemoryError)",
    ("suq2", "rmatrix"): "braiding_to_r iterates a missing braiding (AttributeError)",
    (None, "nan"): "NaN entries pass parse and validation, so check exits 1",
}


def known_defect(family: str, op: str) -> str | None:
    return KNOWN_DEFECTS.get((family, op)) or KNOWN_DEFECTS.get((None, op))


def qint(n: int, q: float) -> float:
    """The quantum integer [n]_q."""
    return (q ** n - q ** -n) / (q - 1 / q)


@dataclass(frozen=True)
class Workload:
    name: str
    family: str                 # "pointed", "suq2" or "group"
    gen: tuple[str, ...]        # arguments of `aqgrec gen`
    ops: tuple[str, ...]        # subcommands on the good bundle, in order
    expect: dict = field(default_factory=dict)  # op -> exit code if not 0
    labels: int = 0
    q: float = 0.5              # suq2 only
    triangular: bool | None = None
    order: int | None = None
    element_orders: tuple[int, ...] | None = None
    cocommutative: bool | None = None

    def exit_code(self, op: str) -> int:
        return {"reject": EXIT_FAIL, "nan": EXIT_INPUT}.get(op, self.expect.get(op, EXIT_PASS))


def _pointed(name: str, n: int, t: int) -> Workload:
    return Workload(
        name, "pointed", ("pointed", "--n", str(n), "--t", str(t)),
        ("validate", "check", "rmatrix", "dims", "group"),
        labels=n, triangular=(2 * t) % n == 0, order=n,
    )


def _suq2(name: str, q: float, L: int) -> Workload:
    return Workload(
        name, "suq2", ("suq2", "--q", repr(q), "--L", str(L)),
        ("validate", "check", "dims", "rmatrix", "dual", "group"),
        expect={"rmatrix": EXIT_INPUT, "dual": EXIT_INPUT, "group": EXIT_INPUT},
        labels=L + 1, q=q,
    )


def _group(name: str, group: str, labels: int, orders: tuple[int, ...]) -> Workload:
    return Workload(
        name, "group", (group,),
        ("validate", "check", "dual", "group", "rmatrix", "dims"),
        labels=labels, triangular=True, order=len(orders),
        element_orders=orders, cocommutative=True,
    )


WORKLOADS = {w.name: w for w in (
    _pointed("pointed-z16", 16, 1),
    _suq2("suq2-l8", 0.5, 8),
    _group("group-d4", "d4", 5, (1, 2, 2, 2, 2, 2, 4, 4)),
)}

SMOKE = {w.name: w for w in (
    _pointed("pointed-z4", 4, 1),
    _suq2("suq2-l3", 0.5, 3),
    _group("group-s3", "s3", 3, (1, 2, 2, 2, 3, 3)),
)}


def cycle(w: Workload, good: str, bad: str, nan: str, seed: int):
    """The (op, argv) pairs of one closed-loop cycle, in order."""
    yield "gen", ["gen", *w.gen, "-o", good]
    for op in w.ops:
        yield op, [op, good, "--seed", str(seed)]
    yield "reject", ["check", bad, "--seed", str(seed)]
    yield "nan", ["check", nan, "--seed", str(seed)]


def corrupt(text: str, seed: int) -> tuple[str, str]:
    """Two seeded corruptions of a bundle: (scaled by 1+1e-4, set to NaN).

    The seed picks one fusion isometry; its largest entry is the one changed.
    """
    doc = json.loads(text)
    rng = random.Random(seed)
    entry = rng.randrange(len(doc["fusion"]))
    iso = rng.randrange(len(doc["fusion"][entry]["isometries"]))
    scaled, nan = copy.deepcopy(doc), copy.deepcopy(doc)
    data = doc["fusion"][entry]["isometries"][iso]["data"]
    k = max(range(len(data)), key=lambda t: math.hypot(*data[t]))
    scaled["fusion"][entry]["isometries"][iso]["data"][k] = [x * (1 + 1e-4) for x in data[k]]
    nan["fusion"][entry]["isometries"][iso]["data"][k] = [math.nan, data[k][1]]
    return json.dumps(scaled), json.dumps(nan)


def describe(text: str | None) -> dict:
    """Fixed size descriptors of a bundle; zeros when there is none."""
    doc = json.loads(text) if text else {"labels": [], "dims": {}, "fusion": []}
    dims = [doc["dims"][i] for i in doc["labels"]]
    return {
        "bundle.json_bytes": len(text.encode()) if text else 0,
        "bundle.channels": sum(len(e["isometries"]) for e in doc["fusion"]),
        "aqg.labels": len(dims),
        "aqg.N": sum(d * d for d in dims),
        "aqg.block_cube_sum": sum(d ** 3 for d in dims),
        "aqg.triples": len(dims) ** 3,
    }


def check_output(w: Workload, op: str, code: int, out: str, err: str,
                 bundle_text: str | None) -> tuple[list[str], bool]:
    """Check one op's result.

    Returns (problems, wrong): the list of failed checks, and whether the op
    exited as expected yet gave a wrong answer.  For `gen`, `bundle_text` is
    the bundle it wrote.
    """
    want = w.exit_code(op)
    problems = []
    if "Traceback" in err:
        problems.append("traceback on stderr")
    if code != want:
        problems.append(f"exit {code}, expected {want}")
    if problems or want != EXIT_PASS:
        return problems, False
    try:
        found = _content_problems(w, op, out, bundle_text)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        found = [f"unreadable output: {exc!r}"]
    return found, bool(found)


def _content_problems(w: Workload, op: str, out: str, bundle_text: str | None) -> list[str]:
    if op == "gen":
        doc = json.loads(bundle_text)
        return [] if len(doc["labels"]) == w.labels else [f"{len(doc['labels'])} labels"]
    payload = json.loads(out)
    problems = []
    if op in REPORT_OPS and payload.get("pass") is not True:
        problems.append("report does not pass")
    if op == "dims":
        rows = payload["labels"]
        if len(rows) != w.labels:
            problems.append(f"{len(rows)} labels")
        for r in rows:
            want = qint(int(r["label"]) + 1, w.q) if w.family == "suq2" else r["hilbert_dim"]
            if w.family == "pointed" and r["hilbert_dim"] != 1:
                problems.append(f"label {r['label']} has dimension {r['hilbert_dim']}")
            if not abs(r["quantum_dim"] - want) <= 1e-9 * abs(want):
                problems.append(f"quantum dim of {r['label']} is {r['quantum_dim']}, expected {want}")
    if op == "rmatrix" and payload["triangular"] is not w.triangular:
        problems.append(f"triangular is {payload['triangular']}")
    if op == "group":
        g = payload["group"]
        if g["order"] != w.order:
            problems.append(f"group order {g['order']}, expected {w.order}")
        if w.element_orders and tuple(sorted(g["element_orders"])) != w.element_orders:
            problems.append(f"element orders {sorted(g['element_orders'])}")
        if w.cocommutative is not None and payload["cocommutative"] is not w.cocommutative:
            problems.append(f"cocommutative is {payload['cocommutative']}")
    return problems


def check_digits(out: str) -> float:
    """-log10 of a check report's max_residual, clamped to [0, 16].

    The report writes a NaN residual as -1.0, which reads as 0 digits.
    """
    res = json.loads(out)["max_residual"]
    if not res >= 0:
        return 0.0
    return 16.0 if res <= 1e-16 else min(16.0, max(0.0, -math.log10(res)))
