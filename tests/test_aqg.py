import numpy as np
import pytest

from aqgrec.aqg import (
    AqgElement,
    ConjInconsistent,
    InvalidBundle,
    NotFinite,
    antipode,
    counit,
    element_residual,
    elementary_pair,
    f_element,
    haar,
    haar_sample_support,
    modular_data,
    reconstruct,
    t1_inverse,
    t1_map,
    t2_inverse,
    t2_map,
    t_blocks,
    unit_index,
    verify_axioms,
)
from aqgrec.dual import table_from_aqg
from aqgrec.linalg import residual


def matrix_unit(d, p, s):
    """The d x d matrix unit E_ps."""
    m = np.zeros((d, d), dtype=complex)
    m[p, s] = 1.0
    return m


def identity(q):
    """The unit of M(A) restricted to the loaded window."""
    return AqgElement({i: np.eye(q.d(i), dtype=complex) for i in q.labels})


def t_matrix(q, which):
    """Dense T1 or T2 on A (x) A, column by column from matrix units: the
    oracle for the blockwise singular values of t_blocks."""
    total = q.total_dim()
    singles = [(i, p, s) for i in q.labels for p in range(q.d(i)) for s in range(q.d(i))]
    mat = np.zeros((total * total, total * total), dtype=complex)
    for i, p, s in singles:
        e1 = AqgElement({i: matrix_unit(q.d(i), p, s)})
        for j, r, u in singles:
            e2 = AqgElement({j: matrix_unit(q.d(j), r, u)})
            x = t1_map(q, e1, e2) if which == "t1" else t2_map(q, e1, e2)
            col = unit_index(q, i)[p, s] * total + unit_index(q, j)[r, u]
            for (n, m), blk in x.items():
                dn, dm = q.d(n), q.d(m)
                t = blk.reshape(dn, dm, dn, dm)
                for a in range(dn):
                    for c in range(dn):
                        rows = unit_index(q, n)[a, c] * total + unit_index(q, m).ravel()
                        mat[rows, col] += t[a, :, c, :].reshape(-1)
    return mat


def test_haar_gram_is_weighted_f(shipped_aqgs):
    # 7-haar-faithful takes its least eigenvalue from w_i (I (x) F_i)
    for name, q in shipped_aqgs.items():
        for i in q.labels:
            d, w = q.d(i), q.haar_weights[i]
            units = [matrix_unit(d, p, s) for p in range(d) for s in range(d)]
            gram = np.array([[w * np.trace(q.F[i] @ ub.conj().T @ ua) for ub in units]
                             for ua in units])
            assert np.array_equal(gram, w * np.kron(np.eye(d), q.F[i])), (name, i)


def test_axiom_suite_passes_on_all_bundles(shipped_aqgs):
    for name, q in shipped_aqgs.items():
        rep = verify_axioms(q)
        assert rep.passed, f"{name}: {rep.failures()}"
        assert rep.max_residual < 1e-8, name


def test_f_element_blocks_are_positive(shipped_aqgs):
    for name, q in shipped_aqgs.items():
        for i in q.labels:
            ev = np.linalg.eigvalsh(q.F[i]).real
            assert np.min(ev) > 0, (name, i)
            assert residual(q.F[i] @ q.Finv[i], np.eye(q.d(i))) < 1e-9
            # standardness: Tr F_i = Tr F_i^{-1}
            assert abs(np.trace(q.F[i]) - np.trace(q.Finv[i])) < 1e-9


def test_f_element_rejects_mismatched_pair(shipped_bundles):
    b = shipped_bundles["suq2-q0.5-L4"]
    conj = dict(b.conj)
    r, rbar = conj["1"]
    conj["1"] = (r, rbar * 1.01)
    bad = type(b)(
        labels=b.labels, unit=b.unit, dims=b.dims, dual=b.dual,
        fusion=b.fusion, conj=conj, braiding=b.braiding, closed=b.closed,
    )
    with pytest.raises(ConjInconsistent):
        f_element(bad)
    # a 3x2 isometry R with Rbar = R^T: conj(Rbar) R = I_2, but R conj(Rbar)
    # is only a projection, so the check needs both zigzag products
    R, one = np.eye(3, 2, dtype=complex), np.ones(1, dtype=complex)
    nonsquare = type(b)(
        labels=["0", "a", "b"], unit="0", dims={"0": 1, "a": 2, "b": 3},
        dual={"0": "0", "a": "b", "b": "b"}, fusion={},
        conj={"0": (one, one), "a": (R.reshape(-1), R.T.reshape(-1)),
              "b": (np.eye(3).reshape(-1), np.eye(3).reshape(-1))},
    )
    with pytest.raises(ConjInconsistent, match="label a"):
        f_element(nonsquare)


def test_reconstruct_rejects_invalid_bundle(shipped_bundles):
    b = shipped_bundles["z2"]
    fusion = {k: {kk: [m.copy() for m in vv] for kk, vv in v.items()}
              for k, v in b.fusion.items()}
    next(iter(fusion.values()))[next(iter(next(iter(fusion.values()))))][0][0, 0] += 1e-3
    bad = type(b)(
        labels=b.labels, unit=b.unit, dims=b.dims, dual=b.dual,
        fusion=fusion, conj=b.conj, braiding=b.braiding, closed=b.closed,
    )
    with pytest.raises(InvalidBundle):
        reconstruct(bad)


def test_counit_is_a_star_character(s3_aqg, rng):
    q = s3_aqg
    a, c = q.random_element(rng), q.random_element(rng)
    assert abs(counit(q, a.mul(c)) - counit(q, a) * counit(q, c)) < 1e-10
    assert abs(counit(q, a.star()) - np.conj(counit(q, a))) < 1e-12
    assert abs(counit(q, identity(q)) - 1.0) < 1e-12


def test_antipode_antihomomorphism_and_inverse(shipped_aqgs, rng):
    for name in ("s3", "q8", "suq2-q0.5-L4"):
        q = shipped_aqgs[name]
        a, c = q.random_element(rng), q.random_element(rng)
        lhs = antipode(q, a.mul(c))
        rhs = antipode(q, c).mul(antipode(q, a))
        assert element_residual(q, lhs, rhs) < 1e-9, name

        def s_inv(x):  # S^{-1}(x) = S(x*)*
            return antipode(q, x.star()).star()

        assert element_residual(q, s_inv(antipode(q, a)), a) < 1e-9, name
        assert element_residual(q, antipode(q, s_inv(a)), a) < 1e-9, name


def test_antipode_squared_is_conjugation_by_f(shipped_aqgs, rng):
    for name in ("d4", "suq2-q0.5-L4"):
        q = shipped_aqgs[name]
        a = q.random_element(rng)
        s2 = antipode(q, antipode(q, a))
        adf = AqgElement(
            {i: q.F[i] @ a.blocks[i] @ q.Finv[i] for i in a.support}
        )
        assert element_residual(q, s2, adf) < 1e-9, name


def test_haar_is_positive_and_faithful(shipped_aqgs, rng):
    for name in ("z5", "s3", "suq2-q0.5-L4"):
        q = shipped_aqgs[name]
        a = q.random_element(rng)
        val = haar(q, a.star().mul(a))
        assert abs(val.imag) < 1e-9 * max(1.0, abs(val))
        assert val.real > 1e-8 * a.norm() ** 2


def test_haar_weighted_trace_values(s3_aqg):
    q = s3_aqg
    for i in q.labels:
        # group bundles: F = I, so phi(e_i I) = d_i^2
        val = haar(q, AqgElement({i: np.eye(q.d(i), dtype=complex)}))
        assert abs(val - q.d(i) ** 2) < 1e-10


def haar_uniqueness_dim(q):
    """Dimension of the space of left-invariant functionals omega, which
    solve (iota (x) omega)Delta(e_u) = omega(e_u) 1 on the dense tables:
    sum_w Delta[u,v,w] omega_w = omega_u 1_v (closed bundles only)."""
    T = table_from_aqg(q)
    system = T.comult - np.einsum("uw,v->uvw", np.eye(T.dim), T.unit)
    svals = np.linalg.svd(system.reshape(-1, T.dim), compute_uv=False)
    return T.dim - int(np.sum(svals > svals[0] * 1e-9))


def test_haar_uniqueness_on_closed_bundles(closed_aqgs):
    for name, q in closed_aqgs.items():
        assert haar_uniqueness_dim(q) == 1, name


def test_haar_uniqueness_rejects_window(suq2_half):
    with pytest.raises(NotFinite):
        haar_uniqueness_dim(suq2_half)


def test_t_maps_invert_on_elementary_tensors(shipped_aqgs, rng):
    for name in ("s3", "pointed-z3-t1", "suq2-q0.5-L4"):
        q = shipped_aqgs[name]
        # windows: roundtrips are exact only on supports whose products stay
        # representable, the same set the invariance checks use
        sup = haar_sample_support(q)
        a = q.random_element(rng, support=sup)
        c = q.random_element(rng, support=sup)
        x = elementary_pair(q, a, c)
        for got in (t1_inverse(q, t1_map(q, a, c)), t2_inverse(q, t2_map(q, a, c))):
            for (i, j), blk in x.items():
                if i in sup and j in sup:
                    assert residual(got.get((i, j), 0.0), blk) < 1e-8, (name, i, j)


def test_t_matrices_are_invertible_on_closed_bundles(closed_aqgs):
    for name, q in closed_aqgs.items():
        for which in ("t1", "t2"):
            m = t_matrix(q, which)
            s = np.linalg.svd(m, compute_uv=False)
            assert s[-1] > 1e-8, (name, which)


def test_t_blocks_carry_the_dense_singular_values(closed_aqgs):
    # T1 = sum_j M_j (x) I_{d_j}: the dense spectrum is the blocks' spectra,
    # block j repeated d_j times (T2 likewise over the first leg)
    for name in ("s3", "d4", "q8", "pointed-z5-t1"):
        q = closed_aqgs[name]
        for which in ("t1", "t2"):
            dense = np.linalg.svd(t_matrix(q, which), compute_uv=False)
            blocks = [
                np.repeat(np.linalg.svd(m, compute_uv=False), q.d(h))
                for h, m in zip(q.labels, t_blocks(q, which))
            ]
            blockwise = np.sort(np.concatenate(blocks))[::-1]
            assert blockwise.shape == dense.shape, (name, which)
            assert np.max(np.abs(blockwise - dense)) < 1e-12, (name, which)


def test_t_blocks_reject_window(suq2_half):
    with pytest.raises(NotFinite):
        t_blocks(suq2_half, "t1")


def test_modular_data(shipped_aqgs):
    for name in ("q8", "suq2-q0.5-L4"):
        q = shipped_aqgs[name]
        delta_mod, rho, mu = modular_data(q)
        assert abs(mu - 1.0) < 1e-8, name
        for i in q.labels:
            assert residual(delta_mod.block(i), q.Finv[i] @ q.Finv[i]) < 1e-8
            fi, fiinv = rho[i]
            assert residual(fi, q.F[i]) == 0.0 and residual(fiinv, q.Finv[i]) == 0.0


def test_element_algebra_is_associative_star_algebra(suq2_half, rng):
    q = suq2_half
    a, c, e = (q.random_element(rng) for _ in range(3))
    assert element_residual(q, a.mul(c).mul(e), a.mul(c.mul(e))) < 1e-10
    assert element_residual(q, a.mul(c).star(), c.star().mul(a.star())) < 1e-12
    one = identity(q)
    assert element_residual(q, one.mul(a), a) < 1e-12
    assert element_residual(q, a.mul(one), a) < 1e-12
