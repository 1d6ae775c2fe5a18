import numpy as np
import pytest

from aqgrec.braid import (
    MissingBraiding,
    RMatrix,
    braiding_to_r,
    triangularity,
    verify_quasitriangular,
)
from aqgrec.linalg import flip, residual
from test_aqg import delta, random_element


def r_block(R, i, j):
    """R's block on the pair (i, j); MissingBraiding where it has none."""
    p = R.layout.pair_index.get((i, j))
    if p is None or not R.have[p]:
        raise MissingBraiding(i, j)
    return R.stacks[R.shape[p]][R.slot[p]]


def test_quasitriangular_suite_on_pointed_bundles(shipped_aqgs):
    for n in (2, 3, 5):
        q = shipped_aqgs[f"pointed-z{n}-t1"]
        R = braiding_to_r(q)
        rep = verify_quasitriangular(q, R)
        assert rep.passed, f"z{n}: {rep.failures()}"
        assert rep.max_residual < 1e-10


def test_triangularity_detects_symmetric_braidings(shipped_aqgs):
    # w^{jk} on Z/n is a symmetric bicharacter only for n = 2
    for n, want in ((2, True), (3, False), (5, False)):
        q = shipped_aqgs[f"pointed-z{n}-t1"]
        tri, res = triangularity(q, braiding_to_r(q))
        assert tri == want, n
        if want:
            assert res < 1e-12


def test_group_bundle_braiding_is_trivial(shipped_aqgs):
    q = shipped_aqgs["s3"]
    R = braiding_to_r(q)
    rep = verify_quasitriangular(q, R)
    assert rep.passed, rep.failures()
    for i, j in q.bundle.braiding:
        assert residual(r_block(R, i, j), np.eye(q.d(i) * q.d(j))) < 1e-12
    tri, res = triangularity(q, R)
    assert tri and res < 1e-12


def test_braiding_roundtrip_is_exact(shipped_aqgs):
    for name in ("pointed-z3-t1", "s3"):
        q = shipped_aqgs[name]
        R = braiding_to_r(q)
        for (i, j), c in q.bundle.braiding.items():
            back = flip(q.d(i), q.d(j)) @ r_block(R, i, j)
            assert residual(back, c) == 0.0, (name, i, j)


def test_rep_level_braiding_intertwines(shipped_aqgs, rng):
    q = shipped_aqgs["pointed-z5-t1"]
    R = braiding_to_r(q)
    # c = flip o (pi_1 (x) pi_2)(R): one-dim labels, so the braiding is
    # flip times the bicharacter phase
    c = flip(q.d("1"), q.d("2")) @ r_block(R, "1", "2")
    w = np.exp(2j * np.pi / 5)
    assert residual(c, flip(1, 1) * w**2) < 1e-12
    # and it intertwines pi_1 x pi_2 with pi_2 x pi_1
    a = random_element(q, rng)
    x = delta(q, a, [("1", "2"), ("2", "1")])
    assert residual(c @ x[("1", "2")], x[("2", "1")] @ c) < 1e-12


def test_random_unitary_is_not_an_r_matrix(shipped_aqgs, rng):
    q = shipped_aqgs["pointed-z3-t1"]
    blocks = {}
    for (i, j) in q.bundle.braiding:
        z = rng.standard_normal((1, 1)) + 1j * rng.standard_normal((1, 1))
        blocks[(i, j)] = z / np.abs(z)
    lay = q.bundle.layout
    rep = verify_quasitriangular(q, RMatrix(lay, *lay.pair_stacks(blocks)))
    assert not rep.passed


def test_missing_block_raises(shipped_aqgs):
    q = shipped_aqgs["pointed-z2-t1"]
    R = braiding_to_r(q)
    with pytest.raises(MissingBraiding):
        r_block(R, "0", "bogus")
    # sigma(R)_01 needs R_10
    lay = q.bundle.layout
    blocks = {p: r_block(R, *p) for p in q.bundle.braiding if p != ("1", "0")}
    with pytest.raises(MissingBraiding):
        RMatrix(lay, *lay.pair_stacks(blocks)).sigma()


def test_sigma_and_inverse_are_consistent(shipped_aqgs):
    q = shipped_aqgs["pointed-z5-t1"]
    R = braiding_to_r(q)
    # R is unitary, so R^-1 = R* blockwise, and sigma commutes with it
    lay = q.bundle.layout
    Rinv = RMatrix(lay, *lay.pair_stacks({p: r_block(R, *p).conj().T
                                          for p in q.bundle.braiding}))
    sig, sig_inv = R.sigma(), Rinv.sigma()
    for key in q.bundle.braiding:
        m = r_block(R, *key)
        assert residual(r_block(Rinv, *key) @ m, np.eye(m.shape[0])) < 1e-12
        assert residual(r_block(sig_inv, *key) @ r_block(sig, *key), np.eye(m.shape[0])) < 1e-12
    # sigma is an involution on the block family
    sig2 = sig.sigma()
    for key in q.bundle.braiding:
        assert residual(r_block(sig2, *key), r_block(R, *key)) < 1e-12
