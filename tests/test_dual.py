import dataclasses

import numpy as np
import pytest

from aqgrec.aqg import (
    AqgElement,
    NotFinite,
    antipode,
    counit,
    delta,
    haar,
    reconstruct,
    unit_index,
)
from aqgrec.bundle import parse_bundle
from aqgrec.dual import (
    _haar_gram,
    dual_hopf,
    dual_table,
    pontryagin_check,
    table_from_aqg,
    universal_corep,
    verify_table,
    verify_universal,
)
from aqgrec.linalg import DEFAULT_TOL, residual, worst
from test_aqg import matrix_unit
from test_report_identity import a4_bundle


def element_to_vec(q, a):
    """Coefficients of a on the matrix-unit basis."""
    v = np.zeros(q.total_dim(), dtype=complex)
    for i in a.support:
        v[unit_index(q, i)] = a.blocks[i]
    return v


def matrix_unit_element(q, u):
    """The basis element e_u of A: the matrix unit at position u."""
    for i in q.labels:
        hit = np.argwhere(unit_index(q, i) == u)
        if len(hit):
            p, s = hit[0]
            return AqgElement({i: matrix_unit(q.d(i), p, s)})
    raise IndexError(u)


# corepresentations of (A, Delta) on B(K), V = sum_u e_u (x) V[u] on the
# matrix-unit basis of A: the oracle for the Woronowicz correspondence
# between corepresentations and *-representations of the dual


def corep_residual(T, V):
    """Max residual of V*V = VV* = 1 and of (Delta (x) iota)V = V13 V23."""
    one = np.einsum("c,xy->cxy", T.unit, np.eye(V.shape[1]))
    vstar_v = np.einsum("uw,wvc,uyx,vyz->cxz", T.star, T.mult, V.conj(), V, optimize=True)
    v_vstar = np.einsum("uw,vwc,vxy,uzy->cxz", T.star, T.mult, V, V.conj(), optimize=True)
    lhs = np.einsum("uab,uxy->abxy", T.comult, V)
    rhs = np.einsum("axy,byz->abxz", V, V)
    return worst(residual(vstar_v, one), residual(v_vstar, one), residual(lhs, rhs))


def corep_from_rep(U, mats):
    """(iota (x) pi)U for pi given on the dual basis, mats[v] = pi(omega_v)."""
    return np.einsum("uv,vxy->uxy", U, mats)


def rep_from_corep(T, V):
    """pi_V(omega_a) = (omega_a (x) iota)V = sum_v omega_a(e_v) V[v]."""
    return np.einsum("va,vxy->axy", T.pairing(), V)


def dual_rep_residual(Td, mats):
    """Max residual of pi being a unital *-representation of the dual."""
    n = mats.shape[1]
    mult = residual(np.einsum("abv,vxy->abxy", Td.mult, mats),
                    np.einsum("axz,bzy->abxy", mats, mats))
    unital = residual(np.einsum("v,vxy->xy", Td.unit, mats), np.eye(n))
    star = residual(np.einsum("uw,wxy->uxy", Td.star, mats),
                    np.swapaxes(mats.conj(), 1, 2))
    return worst(mult, unital, star)


def regular_rep(Td):
    """The left regular action of the dual on itself, made a
    *-representation in the inner product of the dual's Haar functional."""
    lam = np.einsum("vsw->vws", Td.mult)
    gram = _haar_gram(Td)
    w, e = np.linalg.eigh((gram + gram.conj().T) / 2)
    half = (e * np.sqrt(w)) @ e.conj().T
    ihalf = (e / np.sqrt(w)) @ e.conj().T
    return np.einsum("xw,vws,sy->vxy", half, lam, ihalf, optimize=True)


def tensor_corep(T, V, W):
    """V x W = V13 W23 on K (x) K'."""
    n, m = V.shape[1], W.shape[1]
    out = np.einsum("abc,axy,bzw->cxzyw", T.mult, V, W, optimize=True)
    return out.reshape(T.dim, n * m, n * m)


def trivial_corep(T):
    return T.unit.astype(complex).reshape(-1, 1, 1)


def regular_corep(q):
    T, Td, _ = dual_hopf(q)
    return T, Td, corep_from_rep(universal_corep(T), regular_rep(Td))


def tables_by_matrix_units(q):
    """The Hopf tables of A built one matrix unit at a time through the
    element API (counit, antipode and Delta of each E^i_ps): the oracle for
    the closed forms of table_from_aqg."""
    N = q.total_dim()
    mult = np.zeros((N, N, N), dtype=complex)
    unit = np.zeros(N, dtype=complex)
    comult = np.zeros((N, N, N), dtype=complex)
    counit_v = np.zeros(N, dtype=complex)
    anti = np.zeros((N, N), dtype=complex)
    star = np.zeros((N, N), dtype=complex)
    haar_v = np.zeros(N, dtype=complex)
    pairs = q.bundle.layout.pairs
    for i in q.labels:
        d = q.d(i)
        idx = unit_index(q, i)
        for p in range(d):
            unit[idx[p, p]] = 1.0
            for s in range(d):
                u = idx[p, s]
                star[u, idx[s, p]] = 1.0
                haar_v[u] = q.haar_weights[i] * q.F[i][s, p]
                mult[u, idx[s], idx[p]] = 1.0
                eu = AqgElement({i: matrix_unit(d, p, s)})
                counit_v[u] = counit(q, eu)
                anti[u] = element_to_vec(q, antipode(q, eu))
                for (n, m), blk in delta(q, eu, pairs).items():
                    dn, dm = q.d(n), q.d(m)
                    tt = blk.reshape(dn, dm, dn, dm).transpose(0, 2, 1, 3)
                    rows, cols = unit_index(q, n).ravel(), unit_index(q, m).ravel()
                    comult[u][np.ix_(rows, cols)] += tt.reshape(dn * dn, dm * dm)
    return {"mult": mult, "unit": unit, "comult": comult, "counit": counit_v,
            "antipode": anti, "star": star, "haar": haar_v}


def test_closed_form_tables_match_matrix_units(closed_aqgs):
    # bitwise: each entry is one product of isometry entries in both
    for name, q in closed_aqgs.items():
        T = table_from_aqg(q)
        for field, want in tables_by_matrix_units(q).items():
            assert np.array_equal(getattr(T, field), want), (name, field)
    # A4 sums two channels of 3 (x) 3 -> 3 in another order.  Every shipped
    # R_i is real; the same phase on r_i and rbar_i still solves the
    # conjugate equations and makes R_i complex, and the antipode's complex
    # products are then rounded differently from the matrix products
    b = closed_aqgs["s3"].bundle
    z = np.exp(0.7j)
    phased = dataclasses.replace(
        b, conj={i: (r * z, rbar * z) for i, (r, rbar) in b.conj.items()})
    for bundle in (parse_bundle(a4_bundle()), phased):
        q = reconstruct(bundle)
        T = table_from_aqg(q)
        for field, want in tables_by_matrix_units(q).items():
            assert residual(getattr(T, field), want) <= 1e-15, field


def test_primal_table_satisfies_hopf_axioms(closed_aqgs):
    for name, q in closed_aqgs.items():
        T = table_from_aqg(q)
        rep = verify_table(T)
        assert rep.passed, f"{name}: {rep.failures()}"


def test_dual_hopf_verifies(closed_aqgs):
    for name, q in closed_aqgs.items():
        _, _, rep = dual_hopf(q)
        assert rep.passed, f"{name}: {rep.failures()}"
        assert rep.max_residual < 1e-8


def test_dual_requires_closed_bundle(suq2_half):
    with pytest.raises(NotFinite):
        dual_hopf(suq2_half)
    with pytest.raises(NotFinite):
        table_from_aqg(suq2_half)


def test_commutativity_swaps_with_cocommutativity(closed_aqgs):
    def commutative(T):
        return residual(T.mult, np.swapaxes(T.mult, 0, 1)) <= DEFAULT_TOL.bound(T.mult)

    # nonabelian group: the algebra is noncommutative but cocommutative,
    # while its dual (functions on the group) is commutative
    T = table_from_aqg(closed_aqgs["s3"])
    Td = dual_table(T)
    assert not commutative(T) and T.cocommutative()[0]
    assert commutative(Td) and not Td.cocommutative()[0]
    # abelian case: everything on both sides
    T = table_from_aqg(closed_aqgs["z5"])
    Td = dual_table(T)
    assert commutative(T) and T.cocommutative()[0]
    assert commutative(Td) and Td.cocommutative()[0]


def test_double_dual_table_matches_primal_dimension(closed_aqgs):
    q = closed_aqgs["q8"]
    T = table_from_aqg(q)
    Tdd = dual_table(dual_table(T))
    assert Tdd.dim == T.dim


def test_fourier_roundtrip(closed_aqgs, rng):
    # a -> omega = a . haar, with values omega(e_v) = haar(e_v a), is
    # inverted by the pairing
    for name in ("z2", "s3", "pointed-z5-t1"):
        q = closed_aqgs[name]
        T = table_from_aqg(q)
        a = q.random_element(rng)
        values = np.array([haar(q, matrix_unit_element(q, v).mul(a))
                           for v in range(T.dim)])
        back = np.linalg.solve(T.pairing(), values)
        assert residual(back, element_to_vec(q, a)) < 1e-10, name


def test_vec_element_roundtrip(closed_aqgs, rng):
    q = closed_aqgs["d4"]
    total = q.total_dim()
    positions = np.concatenate([unit_index(q, i).reshape(-1) for i in q.labels])
    assert np.array_equal(np.sort(positions), np.arange(total))
    v = rng.standard_normal(total) + 1j * rng.standard_normal(total)
    a = AqgElement({i: v[unit_index(q, i)] for i in q.labels})
    assert residual(element_to_vec(q, a), v) == 0.0


def test_universal_corep_properties(closed_aqgs):
    for name in ("z2", "s3", "pointed-z3-t1", "q8"):
        q = closed_aqgs[name]
        T, Td, _ = dual_hopf(q)
        U = universal_corep(T)
        rep = verify_universal(q, U, T, Td)
        assert rep.passed, f"{name}: {rep.failures()}"
        assert rep.max_residual < 1e-8


def test_defining_identity_detects_a_perturbed_entry(closed_aqgs):
    for name in ("z2", "s3", "pointed-z3-t1"):
        q = closed_aqgs[name]
        T, Td, _ = dual_hopf(q)
        U = universal_corep(T)
        U[1, 0] += 1e-6
        rows = {c.name: c for c in verify_universal(q, U, T, Td).checks}
        assert not rows["defining-identity"].passed, name


def test_regular_corep_is_unitary_corep(closed_aqgs):
    for name in ("s3", "q8", "pointed-z3-t1"):
        q = closed_aqgs[name]
        T, Td, V = regular_corep(q)
        assert corep_residual(T, V) < 1e-8, name
        mats = rep_from_corep(T, V)
        assert dual_rep_residual(Td, mats) < 1e-8, name
        # (iota (x) pi_V)U = V
        assert residual(corep_from_rep(universal_corep(T), mats), V) < 1e-8, name


def test_trivial_and_tensor_coreps(closed_aqgs):
    q = closed_aqgs["s3"]
    T, Td, V = regular_corep(q)
    E = trivial_corep(T)
    assert corep_residual(T, E) < 1e-12
    VE = tensor_corep(T, V, E)
    assert corep_residual(T, VE) < 1e-8
    assert residual(VE, V) < 1e-12
    # pi_{V x V} = (pi_V (x) pi_V) Delta-hat
    mats = rep_from_corep(T, V)
    n = mats.shape[1]
    want = np.einsum("uab,axy,bzw->uxzyw", Td.comult, mats, mats,
                     optimize=True).reshape(T.dim, n * n, n * n)
    assert residual(rep_from_corep(T, tensor_corep(T, V, V)), want) < 1e-8


def test_nan_entry_fails_corep_check(closed_aqgs):
    T = table_from_aqg(closed_aqgs["s3"])
    V = trivial_corep(T).copy()
    V[-1, 0, 0] = np.nan
    assert np.isnan(corep_residual(T, V))


def test_conjugate_corep(closed_aqgs):
    # Vbar = (S^-1 (x) j)V with j the transpose is a unitary corep, and
    # pi_Vbar = transpose o pi_V o S-hat^-1
    for name in ("z5", "s3"):
        q = closed_aqgs[name]
        T, Td, V = regular_corep(q)
        Vb = np.einsum("uw,uyx->wxy", np.linalg.inv(T.antipode), V)
        assert corep_residual(T, Vb) < 1e-8, name
        mats = rep_from_corep(T, V)
        want = np.einsum("uv,vxy->uyx", np.linalg.inv(Td.antipode), mats)
        assert residual(rep_from_corep(T, Vb), want) < 1e-8, name


def test_pontryagin_isomorphism(closed_aqgs):
    for name, q in closed_aqgs.items():
        T, Td, _ = dual_hopf(q)
        theta, rep = pontryagin_check(T, Td)
        assert rep.passed, f"{name}: {rep.failures()}"
        assert rep.max_residual < 1e-8
        assert theta.shape == (q.total_dim(), q.total_dim())
