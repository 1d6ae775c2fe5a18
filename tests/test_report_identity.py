"""Report identity: the CLI reports on a fixed set of bundles match the
reports pinned under tests/data/reports/, row for row and exactly.

Every row keeps its check name, location, position, pass flag and skipped
flag, and its residual is bitwise equal.  A change that moves a row on
purpose re-pins the reports once, by running this module as a script
(``PYTHONPATH=src python tests/test_report_identity.py``, which overwrites
every pinned file), and names each moved row where the change is recorded.

Two cases are built here rather than by ``aqgrec gen``: A4, which no
built-in family covers, and the SU_q(2) L=3 window, which comes from the
Temperley-Lieb construction that wrote its pinned reports (``gen_suq2_tl`` in
test_examples.py).  ``gen suq2`` works in the weight basis, a different
gauge of the same category, whose L=3 reports keep every row and flag and
move the residuals at roundoff only (test_weight_basis_suq2_keeps_the_rows).

The last re-pin moved two rows at roundoff.  ``4-t-inverse-identities``
takes T1^-1 and T2^-1 of Delta channel pair by channel pair and multiplies by
c (by a) after, where it had inverted the pair blocks of Delta(a) cut by c:
its residual moved in the ``check`` reports of s3, d4, q8, a4, suq2-l3 and
suq2-l10.  ``completeness`` reads the pair's worst channel Gram entry in
place of max |sum v v* - I|: one row each moved in the ``validate`` reports
of s3, a4 and suq2-l3.  No other row and no ``max_residual`` moved.

The re-pin before it took one leg of Delta(a) channel by channel in
``3-antipode-laws`` and ``6-haar-invariance``, which then multiply by c,
where they had cut the pair blocks of Delta(a) by c first: their residuals
moved at roundoff in every ``check`` report (within a factor of 1.4), and
with row 6 the ``max_residual`` of the closed bundles' reports.  Row
``2-counit-laws`` reads the same bits, and no other row moved.

The one before made two rows read the pairs' channel Gram: the
``8-delta-homomorphism`` row of every ``check`` report and the
``comult-flip`` row of every ``rmatrix`` report changed location and
residual, and ``suq2-l3.validate.json`` gained a
``cross-label-orthogonality`` row per incomplete pair.  No other row and no
``max_residual`` moved.

Before that, a re-pin deleted the rows that hold by construction: from ``check``,
``4-t1-bijective`` and ``4-t2-bijective`` (replaced by
``4-t-inverse-identities`` on every bundle) and ``7-haar-faithful``, and
``8-delta-star-homomorphism`` became ``8-delta-homomorphism``; from
``dual``, ``coassociativity``, ``counit-left``, ``counit-right``,
``haar-invariance``, ``haar-positivity``, every universal-corep row but
``unitarity``, and the Pontryagin rows.  On the closed bundles row 4 now
draws its samples from the shared generator, so the sampled rows after it
moved at roundoff.  Only the ``check`` reports of s3, d4, q8, pointed-z4,
a4 and suq2-l3 and the ``dual`` reports changed.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from aqgrec.bundle import serialize_bundle
from aqgrec.cli import run
from aqgrec.examples import GroupPresentation, _table_from_matrices, gen_finite_group
from test_examples import gen_suq2_tl

DATA = Path(__file__).parent / "data" / "reports"

# (case, gen arguments, subcommands)
CASES = [
    ("pointed-z4", ("pointed", "--n", "4", "--t", "1"),
     ("validate", "check", "rmatrix", "dual", "group")),
    ("s3", ("s3",), ("validate", "check", "rmatrix", "dual", "group")),
    ("d4", ("d4",), ("validate", "check", "rmatrix", "dual", "group")),
    ("q8", ("q8",), ("validate", "check", "rmatrix", "dual", "group")),
    ("suq2-l3", None, ("validate", "check")),  # q = 0.5, Temperley-Lieb
    ("a4", None, ("validate", "check", "rmatrix", "dual", "group")),  # 3 (x) 3 holds 3 twice
    # ten labels or more: "10" sorts before "2", so Delta's name order is
    # not label order, and pairs such as (5,5) have channels to both
    ("suq2-l10", ("suq2", "--q", "0.5", "--L", "10"), ("check",)),
]


def a4_bundle() -> str:
    """The alternating group A4 as rotations of the cube's diagonals: its
    3-dimensional irrep has multiplicity 2 in 3 (x) 3, which no built-in
    family has."""
    signs = [np.diag(s).astype(complex) for s in ([1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1])]
    cyc = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex)
    mats = [v @ np.linalg.matrix_power(cyc, k) for k in range(3) for v in signs]
    omega = np.exp(2j * np.pi / 3)
    ones = [[np.array([[omega ** (m * k)]]) for k in range(3) for _ in signs] for m in range(3)]
    return serialize_bundle(gen_finite_group(
        GroupPresentation(12, _table_from_matrices(mats), ones + [mats])))


def suq2_l3_bundle() -> str:
    return serialize_bundle(gen_suq2_tl(0.5, 3))


BUILT = {"a4": a4_bundle, "suq2-l3": suq2_l3_bundle}


def scale_entry(doc: dict) -> dict:
    """Scale the largest entry of the first fusion isometry of shape 2x2 by
    1+1e-4: a bundle that fails orthonormality, completeness, recoupling and
    the hexagons at known locations."""
    for ent in doc["fusion"]:
        mat = ent["isometries"][0]
        if mat["rows"] == 2 and mat["cols"] == 2:
            data = mat["data"]
            k = max(range(len(data)), key=lambda t: math.hypot(*data[t]))
            data[k] = [x * (1 + 1e-4) for x in data[k]]
            return doc
    raise ValueError("no 2x2 fusion isometry")


def _jobs(tmp: Path):
    """(file name, argv) of every pinned report; writes the bundles into tmp."""
    for case, gen, ops in CASES:
        path = tmp / f"{case}.json"
        if gen is None:
            path.write_text(BUILT[case]())
        else:
            assert run(["gen", *gen, "-o", str(path)]) == 0
        for op in ops:
            yield f"{case}.{op}.json", [op, str(path)]
    bad = tmp / "d4-scaled.json"
    bad.write_text(json.dumps(scale_entry(json.loads((tmp / "d4.json").read_text()))))
    yield "d4-scaled.validate.json", ["validate", str(bad)]


def _report(argv: list[str], out: Path) -> dict:
    code = run([*argv, "-o", str(out)])
    doc = json.loads(out.read_text())
    doc["exit"] = code
    return doc


def _rows(doc: dict) -> list[tuple]:
    return [(c["check"], c["location"], c["pass"], c.get("skipped", False), c["residual"])
            for c in doc["checks"]]


@pytest.fixture(scope="module")
def jobs(tmp_path_factory):
    return dict(_jobs(tmp_path_factory.mktemp("bundles")))


# ids from the case name and its subcommands, so that a new case renames none
PINNED = [(c[0], c[2]) for c in CASES] + [("d4-scaled", ("validate",))]


@pytest.mark.parametrize("case,ops", PINNED, ids=["-".join((c, *ops)) for c, ops in PINNED])
def test_reports_match_pinned(tmp_path, jobs, case, ops):
    for op in ops:
        name = f"{case}.{op}.json"
        want = json.loads((DATA / name).read_text())
        got = _report(jobs[name], tmp_path / "out.json")
        assert got["exit"] == want["exit"], name
        assert got["pass"] == want["pass"], name
        assert _rows(got) == _rows(want), name
        for extra in ("triangular", "triangular_residual", "group", "cocommutative"):
            assert got.get(extra) == want.get(extra), (name, extra)


def test_weight_basis_suq2_keeps_the_rows(tmp_path):
    """The L=3 window from ``gen suq2`` against the pinned reports of the
    Temperley-Lieb one: same rows, locations, order and flags; residuals
    within roundoff."""
    path = tmp_path / "suq2.json"
    assert run(["gen", "suq2", "--q", "0.5", "--L", "3", "-o", str(path)]) == 0
    for op in ("validate", "check"):
        want = json.loads((DATA / f"suq2-l3.{op}.json").read_text())
        got = _report([op, str(path)], tmp_path / "out.json")
        assert (got["exit"], got["pass"]) == (want["exit"], want["pass"]), op
        rows, pinned = _rows(got), _rows(want)
        assert [g[:4] for g in rows] == [w[:4] for w in pinned], op
        assert max(abs(g[4] - w[4]) for g, w in zip(rows, pinned)) <= 1e-13, op


def main(tmp: Path) -> None:
    DATA.mkdir(parents=True, exist_ok=True)
    for name, argv in _jobs(tmp):
        doc = _report(argv, tmp / "out.json")
        text = json.dumps(doc, sort_keys=True).replace("}, {", "},\n {")
        (DATA / name).write_text(text + "\n")
        print(name, "exit", doc["exit"])


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        main(Path(d))
