import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqgrec.linalg import (
    DEFAULT_TOL,
    Tolerance,
    dagger,
    eye,
    flip,
    kron,
    orthonormalize,
    residual,
    solve_intertwiners,
)

dims = st.integers(min_value=1, max_value=4)


def _rand(rng, n, m):
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


@given(dims, dims, st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_flip_exchanges_tensor_legs(d1, d2, seed):
    rng = np.random.default_rng(seed)
    x = _rand(rng, d1, 1)[:, 0]
    y = _rand(rng, d2, 1)[:, 0]
    assert residual(flip(d1, d2) @ np.kron(x, y), np.kron(y, x)) < 1e-12


@given(dims, dims)
@settings(max_examples=16, deadline=None)
def test_flip_is_unitary_with_flip_inverse(d1, d2):
    f = flip(d1, d2)
    assert residual(f @ flip(d2, d1), eye(d2 * d1)) == 0.0
    assert residual(dagger(f) @ f, eye(d1 * d2)) == 0.0


@given(dims, dims, dims, dims, st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_kron_mixed_product(a, b, c, d, seed):
    rng = np.random.default_rng(seed)
    x, y = _rand(rng, a, b), _rand(rng, b, c)
    z, w = _rand(rng, c, d), _rand(rng, d, a)
    lhs = kron(x, z) @ kron(y, w)
    rhs = kron(x @ y, z @ w)
    assert residual(lhs, rhs) < 1e-10


def test_kronn_associates(rng):
    a, b, c = (_rand(rng, 2, 2) for _ in range(3))
    assert residual(kron(kron(a, b), c), kron(a, kron(b, c))) < 1e-12


def test_dagger_is_conjugate_transpose(rng):
    a = _rand(rng, 3, 2)
    assert residual(dagger(a), a.conj().T) == 0.0


def test_tolerance_bound_scales_with_magnitude():
    tol = Tolerance(absolute=1e-9, relative=1e-9)
    assert tol.bound(1.0) == pytest.approx(2e-9)
    assert tol.bound(np.full((2, 2), 100.0)) > tol.bound(1.0)


def test_orthonormalize_produces_orthonormal_family(rng):
    vecs = [_rand(rng, 6, 1)[:, 0] for _ in range(4)]
    # add a dependent vector; it must be dropped
    vecs.append(vecs[0] + 2 * vecs[1])
    out = orthonormalize(vecs)
    assert len(out) == 4
    for i, u in enumerate(out):
        for j, v in enumerate(out):
            assert abs(np.vdot(u, v) - (1.0 if i == j else 0.0)) < 1e-10


def test_solve_intertwiners_schur_for_inequivalent_reps():
    # two inequivalent one-dimensional actions have no intertwiner
    a = {"x": np.array([[1.0 + 0j]]), "y": np.array([[-1.0 + 0j]])}
    b = {"x": np.array([[1.0 + 0j]]), "y": np.array([[1.0 + 0j]])}
    assert solve_intertwiners(a, b) == []


def test_solve_intertwiners_finds_commutant_of_identity(rng):
    a = {"e": eye(2)}
    basis = solve_intertwiners(a, a)
    assert len(basis) == 4


def test_worst_is_nan_sticky():
    from aqgrec.linalg import worst

    assert max(0.0, float("nan")) == 0.0  # why the builtin cannot be used
    assert np.isnan(worst(0.0, float("nan"), 1.0))
    assert np.isnan(worst(np.array([1.0, np.nan]), 2.0))
    assert worst(0.5, np.array([[0.25, 2.0]])) == 2.0
    assert worst() == 0.0
