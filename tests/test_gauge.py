"""Gauge oracle: every verdict survives a complex unitary change of basis.

A unitary U_i on each H_i, and one on each multiplicity space, is a unitary
natural isomorphism of the embedding functor; the reconstructed algebra
changes by Ad(+U_i), so every subcommand must give the same exit code and
pass flags on the gauged bundle (test_aqg.gauge), with residuals moved at
roundoff only, and the quantum dimensions, the singular values of the
F-matrices, the spectra of the modular blocks and the scaling constant mu,
triangularity and intrinsic group must agree.  Every generator
writes real isometries, so this is what tells a dropped complex conjugation
apart.
"""
import dataclasses
import json

import numpy as np
import pytest

from aqgrec.aqg import modular_data, reconstruct
from aqgrec.bundle import parse_bundle, serialize_bundle, validate_bundle
from aqgrec.cli import run
from aqgrec.examples import builtin_group, gen_finite_group, gen_pointed, gen_suq2
from test_aqg import gauge, haar_unitary
from test_report_identity import a4_bundle

BUNDLES = {
    "s3": lambda: gen_finite_group(builtin_group("s3")),
    "d4": lambda: gen_finite_group(builtin_group("d4")),
    "q8": lambda: gen_finite_group(builtin_group("q8")),
    "a4": lambda: parse_bundle(a4_bundle()),
    "pointed-z5-t1": lambda: gen_pointed(5, 1),
    "z5": lambda: gen_finite_group(builtin_group("z5")),
}
OPS = ("validate", "check", "rmatrix", "dims", "dual", "group")


def _outputs(b, tmp_path, name, ops=OPS):
    path = tmp_path / f"{name}.json"
    path.write_text(serialize_bundle(b))
    out = {}
    for op in ops:
        code = run([op, str(path), "-o", str(tmp_path / "out.json")])
        out[op] = (code, json.loads((tmp_path / "out.json").read_text()))
    return out


def _same_f_singular_values(b, g):
    """The F-matrices of b and of its gauge g have the same singular values,
    quadruple by quadruple, within 1e-12."""
    (_, quads, _, F), (_, gquads, _, G) = b.layout.fmoves, g.layout.fmoves
    assert np.array_equal(quads, gquads)
    for f, h in zip(F, G):
        assert f.shape == h.shape
        if f.size:
            assert np.max(np.abs(np.linalg.svd(f, compute_uv=False)
                                 - np.linalg.svd(h, compute_uv=False))) <= 1e-12


def _same_modular_data(qb, qg):
    """The modular blocks of b and of its gauge g, reconstructed as qb and
    qg, have the same eigenvalues, label by label, within 1e-12 of the
    largest (up to 4096 at q = 0.5, L = 6), and mu is the same within
    1e-12."""
    (delta, _, mu), (gdelta, _, gmu) = modular_data(qb), modular_data(qg)
    for i in qb.labels:
        ev, gev = (np.sort_complex(np.linalg.eigvals(d[i])) for d in (delta, gdelta))
        assert np.max(np.abs(ev - gev)) <= 1e-12 * np.max(np.abs(ev)), i
    assert abs(mu - gmu) <= 1e-12


def _rows(doc):
    return [(c["check"], c["location"], c["pass"], c.get("skipped", False))
            for c in doc["checks"]]


@pytest.mark.parametrize("name", sorted(BUNDLES))
def test_verdicts_survive_a_unitary_gauge(tmp_path, name):
    b = BUNDLES[name]()
    g = gauge(b, np.random.default_rng(3))
    _same_f_singular_values(b, g)
    # a finite quantum group is of Kac type (S^2 = id), so f is central and
    # the trace balance fixes it to 1: every F_k is the identity, also after
    # a gauge, and F_k and its transpose are the same matrix
    qg = reconstruct(g)
    assert all(np.max(np.abs(qg.F[k] - np.eye(g.d(k)))) <= 1e-14 for k in g.labels)
    _same_modular_data(reconstruct(b), qg)
    plain = _outputs(b, tmp_path, "plain")
    gauged = _outputs(g, tmp_path, "gauged")
    for op in OPS:
        (code, want), (got_code, got) = plain[op], gauged[op]
        assert got_code == code == 0, op
        if op == "dims":
            continue
        assert got["pass"] == want["pass"] and _rows(got) == _rows(want), op
        for c, w in zip(got["checks"], want["checks"]):
            assert abs(c["residual"] - w["residual"]) <= 1e-9, (op, c, w)
    dims = [[r["quantum_dim"] for r in doc[1]["labels"]] for doc in (plain["dims"], gauged["dims"])]
    assert np.max(np.abs(np.subtract(*dims))) <= 1e-12
    assert gauged["rmatrix"][1]["triangular"] == plain["rmatrix"][1]["triangular"]
    group, want = gauged["group"][1]["group"], plain["group"][1]["group"]
    assert group["order"] == want["order"]
    assert sorted(group["element_orders"]) == sorted(want["element_orders"])


def test_window_verdicts_survive_a_unitary_gauge(tmp_path):
    _window_verdicts_survive_a_unitary_gauge(tmp_path, 0.5, 6)


def test_window_verdicts_survive_a_unitary_gauge_at_q09_l8(tmp_path):
    _window_verdicts_survive_a_unitary_gauge(tmp_path, 0.9, 8)


def _window_verdicts_survive_a_unitary_gauge(tmp_path, q, L):
    # on an SU_q(2) window the gauge makes every F_i of dimension > 1
    # non-diagonal and every isometry complex, so a conjugation dropped in
    # the sampled rows of check shows here.  It also mixes the weights, so
    # the graded window runs the certificate by weight sectors and its gauge
    # the one-sector certificate, and the two agree
    b = gen_suq2(q, L)
    g = gauge(b, np.random.default_rng(3))
    assert b.weights is not None and g.weights is None
    _same_f_singular_values(b, g)
    qb, qg = reconstruct(b), reconstruct(g)
    _same_modular_data(qb, qg)
    F, G = qb.F, qg.F
    for i in b.labels:
        assert np.iscomplexobj(G[i])
        if b.d(i) > 1:
            assert np.max(np.abs(G[i] - np.diag(np.diagonal(G[i])))) > 1e-3, i
        assert np.max(np.abs(np.linalg.eigvalsh(G[i]) - np.linalg.eigvalsh(F[i]))) <= 1e-12, i
    assert all(np.abs(v.imag).max() > 0 for chans in g.fusion.values()
               for vs in chans.values() for v in vs if v.size > 1)
    ops = ("validate", "check", "dims")
    plain, gauged = _outputs(b, tmp_path, "plain", ops), _outputs(g, tmp_path, "gauged", ops)
    for op in ops:
        (code, want), (got_code, got) = plain[op], gauged[op]
        assert got_code == code == 0, op
        if op == "dims":
            continue
        assert got["pass"] == want["pass"] and _rows(got) == _rows(want), op
        for c, w in zip(got["checks"], want["checks"]):
            assert abs(c["residual"] - w["residual"]) <= 1e-9, (op, c, w)
    dims = [[r["quantum_dim"] for r in doc[1]["labels"]] for doc in (plain["dims"], gauged["dims"])]
    assert np.max(np.abs(np.subtract(*dims))) <= 1e-12


@pytest.mark.parametrize("name", ["a4", "d4"])
def test_a_one_leg_gauge_is_not_natural(name):
    # v -> (U_i (x) I) v on every channel is no natural isomorphism.  Not on
    # pointed Z/5: on one-dimensional spaces it only multiplies channel
    # (i,j) by a phase, which leaves Delta and every hexagon as they were,
    # so that bundle stays valid
    b = BUNDLES[name]()
    rng = np.random.default_rng(4)
    u = {i: haar_unitary(b.d(i), rng) for i in b.labels}
    fusion = {(i, j): {k: [np.kron(u[i], np.eye(b.d(j))) @ v for v in vs]
                       for k, vs in chans.items()}
              for (i, j), chans in b.fusion.items()}
    assert not validate_bundle(dataclasses.replace(b, fusion=fusion)).passed
