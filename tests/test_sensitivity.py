"""Every report row can fail on a defective bundle.

The row-level twin of test_reachability.py: a row that no defect in the
bundle can fail certifies nothing.  DEFECTS maps every row name that
verify_axioms, dual_hopf, verify_universal and verify_quasitriangular emit
to a seeded defect that fails it.  A defect is a bundle that validation rejects, reconstructed with
validate=False so that the rows see it, and there is no exemption list:
a new row needs a defect here, and a row that holds by construction belongs
in the tests as an oracle.  VALIDATE_DEFECTS does the same for the rows of
validate_bundle, which read the defective bundle itself, and
MODULAR_DEFECTS for the ``modular-data`` row that the CLI adds to
``check``, one defect per error of modular_data.

Six kinds of defect get past reconstruct's own gates:

- ``channel``: the isometries of one channel i (x) j -> k scaled by 1+1e-6;
- ``rbar``: one rbar_i scaled by 1+5e-8, which breaks the conjugate
  equations and the trace balance of F_i by less than reconstruct's gate of
  100 tol;
- ``turn``: R_i -> R_i G and Rbar_i -> conj(G)^-1 Rbar_i for a rotation G by
  0.3 of the first two basis vectors of H_i.  Both zigzag products still
  give the identity, but r_i is no longer invariant, and the antipode moves
  by an inner automorphism;
- ``braid-scale``: one braiding c_ij scaled by 1+1e-6, so it is no longer
  unitary;
- ``braid-phase``: the first row of one c_ij times exp(0.3i), unitary but not
  natural;
- ``braid-turn``: one c_ij -> G c_ij for the rotation G by 0.3 of the first
  two basis vectors of H_j (x) H_i.  Unlike a phase, it does not commute with
  the other blocks, so Yang-Baxter sees it.

Reconstruct reads no braiding, so the braiding kinds reach the R-matrix rows
untouched.  One kind mixes two labels of an incomplete pair of a window,
where no completeness row looks:

- ``cross-label``: the isometry of i (x) j -> k turned by 1e-6 toward the
  range of i (x) j -> m, each basis vector of H_k toward the one of H_m of
  its weight, and re-orthonormalised.  Orthonormality holds, and the
  F-move certificate sees the defect only at second order.

Three more kinds are one-line edits of the structure that only
validate_bundle reads:

- ``dual``: the dual of label i set to j;
- ``twice``: the isometries of one channel i (x) j -> k listed twice, so
  N_ij^k doubles;
- ``braid-drop``: one braiding c_ij left out.
"""
import dataclasses

import numpy as np
import pytest

from aqgrec.aqg import modular_data, reconstruct, verify_axioms
from aqgrec.braid import braiding_to_r, verify_quasitriangular
from aqgrec.bundle import parse_bundle, validate_bundle
from aqgrec.dual import dual_hopf, universal_corep, verify_universal
from aqgrec.errors import InconsistentSolve
from test_aqg import scaled_channel
from test_report_identity import a4_bundle

S3_PAIR = ("s3", "channel", ("1", "1", "0"))
DEFECTS = {
    # verify_axioms
    "1-coassociativity": ("d4", "channel", ("2", "3", "1")),
    "2-counit-laws": ("s3", "channel", ("1", "0", "1")),
    "3-antipode-laws": ("suq2-q0.5-L4", "channel", ("1", "1", "0")),
    "4-t-inverse-identities": ("pointed-z5-t1", "channel", ("1", "1", "2")),
    "5-f-trace-balance": ("a4", "rbar", "3"),
    "5-s-squared-ad-f": ("s3", "turn", "2"),
    "5-antipode-of-f": ("suq2-q0.5-L4", "rbar", "0"),
    "6-haar-invariance": ("suq2-q0.5-L4", "channel", ("1", "1", "0")),
    "8-delta-homomorphism": ("suq2-q0.5-L4", "channel", ("0", "1", "1")),
    # dual_hopf
    "associativity": ("d4", "channel", ("2", "3", "1")),
    "unit-left": ("s3", "channel", ("0", "0", "0")),
    "unit-right": ("a4", "channel", ("2", "0", "2")),
    "comult-homomorphism": ("pointed-z5-t1", "channel", ("1", "1", "2")),
    "counit-homomorphism": ("a4", "channel", ("0", "1", "1")),
    "antipode-left": S3_PAIR,
    "antipode-right": S3_PAIR,
    "star-involutive": ("s3", "rbar", "2"),
    "star-antimultiplicative": ("d4", "channel", ("2", "3", "1")),
    "comult-star": ("pointed-z5-t1", "rbar", "1"),
    "parseval": ("d4", "channel", ("2", "2", "0")),
    "antipode-involutive": ("d4", "turn", "4"),
    # verify_universal
    "unitarity": S3_PAIR,
    # verify_quasitriangular
    "unitary": ("pointed-z5-t1", "braid-scale", ("1", "2")),
    "comult-leg1": ("pointed-z5-t1", "channel", ("1", "1", "2")),
    "comult-leg2": ("pointed-z5-t1", "braid-phase", ("1", "2")),
    "comult-flip": ("pointed-z5-t1", "channel", ("1", "3", "4")),
    "yang-baxter": ("d4", "braid-turn", ("4", "4")),
    "counit-legs": ("pointed-z5-t1", "braid-phase", ("0", "2")),
    "antipode-leg1": ("d4", "braid-turn", ("1", "4")),
    "antipode-both": ("a4", "braid-turn", ("3", "3")),
}
VALIDATE_DEFECTS = {
    "dual-involution": ("pointed-z5-t1", "dual", ("1", "2")),
    "dual-fixes-unit": ("pointed-z5-t1", "dual", ("0", "1")),
    "orthonormality": ("d4", "channel", ("2", "3", "1")),
    "completeness": ("a4", "channel", ("3", "3", "3")),
    "unit-dual-fusion-rules": ("d4", "dual", ("1", "2")),
    "fusion-symmetries": ("pointed-z5-t1", "twice", ("1", "1", "2")),
    "conjugate-equation": ("s3", "rbar", "2"),
    "conjugate-normalization": ("a4", "rbar", "3"),
    "r-in-unit-channel": ("s3", "turn", "2"),
    "recoupling": ("suq2-q0.5-L4", "channel", ("1", "1", "0")),
    "braiding-coverage": ("d4", "braid-drop", ("1", "4")),
    "braiding-unit": ("pointed-z5-t1", "braid-scale", ("0", "2")),
    "braiding-unitarity": ("q8", "braid-scale", ("4", "4")),
    "braiding-hexagon-left": ("d4", "braid-turn", ("4", "4")),
    "braiding-hexagon-right": ("pointed-z5-t1", "braid-phase", ("1", "2")),
    "cross-label-orthogonality": ("suq2-q0.5-L4", "cross-label", ("3", "3", "4", "2")),
}
# the CLI's modular-data row is modular_data, which raises InconsistentSolve
# on a defect: a bundle whose KMS conjugation fails, and one whose modular
# element differs between probes
MODULAR_DEFECTS = {
    "KMS conjugation check failed": ("s3", "rbar", "2"),
    "modular element inconsistent across probes": ("d4", "channel", ("2", "2", "0")),
}
# second defects of rows that read the channel Gram: comult-flip off the
# Gram, through a braiding that is no morphism (X reads 0.149), and row 8
# through the cross-label overlap that only it and the validate row see
MORE_DEFECTS = [
    ("comult-flip", ("d4", "braid-phase", ("4", "4"))),
    ("8-delta-homomorphism", VALIDATE_DEFECTS["cross-label-orthogonality"]),
]


def scaled_rbar(b, i, s=1 + 5e-8):
    conj = dict(b.conj)
    r, rbar = conj[i]
    conj[i] = (r, rbar * s)
    return dataclasses.replace(b, conj=conj)


def rotation(d, theta=0.3):
    """The rotation by theta of the first two basis vectors of C^d."""
    G = np.eye(d, dtype=complex)
    G[:2, :2] = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    return G


def turned_pair(b, i, theta=0.3):
    ib = b.dual[i]
    di, dib = b.d(i), b.d(ib)
    G = rotation(di, theta)
    r, rbar = b.conj[i]
    R, Rbar = r.reshape(dib, di) @ G, np.linalg.inv(G).conj() @ rbar.reshape(di, dib)
    return dataclasses.replace(b, conj={**b.conj, i: (R.reshape(-1), Rbar.reshape(-1))})


def crossed(b, i, j, k, m, theta=1e-6):
    """b with the isometry v of i (x) j -> k turned toward w of i (x) j -> m:
    v + theta w P, with P matching each basis vector of H_m to the one of
    H_k of its weight (the first d_m without weights).  P is a partial
    permutation, so the columns stay orthogonal and normalising them
    re-orthonormalises v."""
    v, w = b.fusion[(i, j)][k][0], b.fusion[(i, j)][m][0]
    wk, wm = (np.asarray(b.weights[x]) if b.weights else np.arange(b.d(x)) for x in (k, m))
    v = v + theta * w @ (wm[:, None] == wk[None, :])
    fusion = {p: dict(chans) for p, chans in b.fusion.items()}
    fusion[(i, j)][k] = [v / np.linalg.norm(v, axis=0)]
    return dataclasses.replace(b, fusion=fusion)


def changed_braiding(b, pair, kind):
    if kind == "braid-drop":
        return dataclasses.replace(b, braiding={p: c for p, c in b.braiding.items() if p != pair})
    c = b.braiding[pair]
    if kind == "braid-scale":
        c = c * (1 + 1e-6)
    elif kind == "braid-phase":
        c = np.exp(0.3j * (np.arange(len(c)) == 0))[:, None] * c
    else:
        c = rotation(len(c)) @ c
    return dataclasses.replace(b, braiding={**b.braiding, pair: c})


def defective(b, kind, where):
    if kind == "channel":
        return scaled_channel(b, *where)
    if kind == "dual":
        return dataclasses.replace(b, dual={**b.dual, where[0]: where[1]})
    if kind == "twice":
        i, j, k = where
        return dataclasses.replace(b, fusion={**b.fusion, (i, j): {
            **b.fusion[(i, j)], k: 2 * b.fusion[(i, j)][k]}})
    if kind.startswith("braid-"):
        return changed_braiding(b, where, kind)
    if kind == "cross-label":
        return crossed(b, *where)
    return (scaled_rbar if kind == "rbar" else turned_pair)(b, where)


def rows(q):
    """Name -> row of every check row of verify_axioms, on a closed bundle
    of dual_hopf and verify_universal, and on a braided one of
    verify_quasitriangular."""
    reps = [verify_axioms(q)]
    if q.bundle.closed:
        T, Td, rep = dual_hopf(q)
        reps += [rep, verify_universal(universal_corep(T), T, Td)]
    if q.bundle.braiding is not None:
        reps.append(verify_quasitriangular(q, braiding_to_r(q)))
    return {c.name: c for rep in reps for c in rep.checks}


@pytest.fixture(scope="module")
def bundles(shipped_bundles):
    return dict(shipped_bundles, a4=parse_bundle(a4_bundle()))


def test_every_row_has_a_defect(bundles):
    names = set()
    for name in [n for n, b in bundles.items() if b.closed] + ["suq2-q0.5-L4"]:
        got = rows(reconstruct(bundles[name]))
        assert all(c.passed for c in got.values()), (name, [c for c in got.values() if not c.passed])
        names |= set(got)
    assert names == set(DEFECTS)


@pytest.mark.parametrize("row", sorted(DEFECTS))
def test_the_defect_fails_its_row(bundles, row):
    name, kind, where = DEFECTS[row]
    bad = defective(bundles[name], kind, where)
    assert not validate_bundle(bad).passed
    got = rows(reconstruct(bad, validate=False))[row]
    assert not got.passed, got


@pytest.mark.parametrize("row, defect", MORE_DEFECTS, ids=[r for r, _ in MORE_DEFECTS])
def test_a_second_defect_fails_its_row(bundles, row, defect):
    name, kind, where = defect
    bad = defective(bundles[name], kind, where)
    assert not validate_bundle(bad).passed
    got = rows(reconstruct(bad, validate=False))[row]
    assert not got.passed, got


@pytest.mark.parametrize("message", sorted(MODULAR_DEFECTS))
def test_the_defect_fails_the_modular_data(bundles, message):
    name, kind, where = MODULAR_DEFECTS[message]
    bad = defective(bundles[name], kind, where)
    assert not validate_bundle(bad).passed
    with pytest.raises(InconsistentSolve, match=message):
        modular_data(reconstruct(bad, validate=False))


def test_every_validate_row_has_a_defect(bundles):
    names = set()
    for b in bundles.values():
        rep = validate_bundle(b)
        assert rep.passed
        names |= {c.name for c in rep.checks}
    assert names == set(VALIDATE_DEFECTS)


@pytest.mark.parametrize("row", sorted(VALIDATE_DEFECTS))
def test_the_defect_fails_its_validate_row(bundles, row):
    name, kind, where = VALIDATE_DEFECTS[row]
    got = [c for c in validate_bundle(defective(bundles[name], kind, where)).checks
           if c.name == row]
    assert got and not all(c.passed for c in got), got
