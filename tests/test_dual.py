import dataclasses

import numpy as np
import pytest

from aqgrec.aqg import reconstruct, unit_index
from aqgrec.bundle import parse_bundle
from aqgrec.dual import (
    dual_hopf,
    dual_table,
    table_from_aqg,
    universal_corep,
    verify_table,
    verify_universal,
)
from aqgrec.errors import NotFinite
from aqgrec.linalg import DEFAULT_TOL, dagger, residual, worst
from aqgrec.report import Report
from test_aqg import (AqgElement, antipode, counit, delta, haar, matrix_unit, phased,
                      random_element)
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


def haar_gram(T):
    """Gram[u,v] = haar(e_v* e_u)."""
    stars = T.star.conj()  # row u = coefficients of e_u*
    return np.einsum("vz,zuw,w->uv", stars, T.mult, T.haar, optimize=True)


def table_identities(T):
    """Residuals of the Hopf-table claims that hold by construction for
    a dual table: coassociativity, both counit laws, one-sided invariance of
    the Haar functional, and the least eigenvalue of its Gram form."""
    c = T.comult
    left = residual(np.einsum("uab,b->ua", c, T.haar), np.outer(T.haar, T.unit))
    right = residual(np.einsum("uab,a->ub", c, T.haar), np.outer(T.haar, T.unit))
    gram = haar_gram(T)
    return {
        "coassociativity": residual(np.einsum("umd,mab->uabd", c, c, optimize=True),
                                    np.einsum("uam,mbd->uabd", c, c, optimize=True)),
        "counit-left": residual(np.einsum("uab,a->ub", c, T.counit), np.eye(T.dim)),
        "counit-right": residual(np.einsum("uab,b->ua", c, T.counit), np.eye(T.dim)),
        "haar-invariance": -worst(-left, -right),
        "haar-min-eigenvalue": float(np.linalg.eigvalsh((gram + dagger(gram)) / 2)[0]),
    }


def universal_identities(U, T, Td):
    """Residuals of the defining properties of the universal
    corepresentation besides unitarity: both comultiplication laws, both
    slices against the pairing P, and the evaluation identity."""
    P = T.pairing()
    B1 = np.einsum("tab,av,bs->vst", T.comult, P, P, optimize=True)
    return {
        # (Delta (x) iota)U = U13 U23 and (iota (x) Delta-hat)U = U12 U13
        "comult-leg1": residual(np.einsum("uc,uab->abc", U, T.comult, optimize=True),
                                np.einsum("az,bw,zwc->abc", U, U, Td.mult, optimize=True)),
        "comult-leg2": residual(np.einsum("uv,vab->uab", U, Td.comult, optimize=True),
                                np.einsum("xb,uc,xua->abc", U, U, T.mult, optimize=True)),
        "slice-functional": residual(P.T @ U, np.eye(T.dim)),
        "slice-element": residual(U @ P.T, np.eye(T.dim)),
        # [U(x (x) omega)](y) = (iota (x) omega)(Delta(y)(x (x) 1))
        "defining-identity": residual(
            np.einsum("urw,uv,vst->wrst", T.mult, U, B1, optimize=True),
            np.einsum("tab,bs,arw->wrst", T.comult, P, T.mult, optimize=True)),
    }


def pontryagin_check(T, Td, tol=DEFAULT_TOL):
    """Canonical evaluation map A -> (A-hat)-hat is a Hopf *-isomorphism,
    for the tables T of A and Td = dual_table(T) (as dual_hopf returns them).

    Returns (theta, report): theta[:,u] holds the double-dual coefficients
    of the basis element e_u.
    """
    Tdd = dual_table(Td)
    P = T.pairing()
    Phat = Td.pairing()
    theta = np.linalg.solve(Phat, P.T)
    rep = Report("pontryagin")

    svals = np.linalg.svd(theta, compute_uv=False)
    rep.add("bijective", "singular values", 0.0,
            bool(svals[-1] > tol.absolute * max(1.0, float(svals[0]))))
    res = residual(theta @ T.unit, Tdd.unit)
    rep.add("unital", "theta(1)", res, res <= tol.bound(1.0) * 100)
    lhs = np.einsum("uvw,cw->uvc", T.mult, theta, optimize=True)
    rhs = np.einsum("au,bv,abc->uvc", theta, theta, Tdd.mult, optimize=True)
    res = residual(lhs, rhs)
    rep.add("multiplicative", "basis pairs", res,
            res <= tol.bound(lhs, rhs) * 100)
    lhs = np.einsum("uw,cw->cu", T.star, theta, optimize=True)
    rhs = np.einsum("cu,cz->zu", theta.conj(), Tdd.star, optimize=True)
    res = residual(lhs, rhs)
    rep.add("star-homomorphism", "basis", res, res <= tol.bound(lhs, rhs) * 100)
    lhs = np.einsum("uab,ca,db->ucd", T.comult, theta, theta, optimize=True)
    rhs = np.einsum("wu,wcd->ucd", theta, Tdd.comult, optimize=True)
    res = residual(lhs, rhs)
    rep.add("comultiplicative", "basis", res, res <= tol.bound(lhs, rhs) * 100)
    res = residual(Tdd.counit @ theta, T.counit)
    rep.add("counit-compatible", "basis", res, res <= tol.bound(1.0) * 100)
    return theta, rep


def noisy_haar(T, rng, size=1e-2):
    """T with its Haar functional moved off by noise of the given size."""
    noise = rng.standard_normal(T.dim) + 1j * rng.standard_normal(T.dim)
    return dataclasses.replace(T, haar=T.haar + size * noise)


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
    gram = haar_gram(Td)
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


def test_dual_hopf_verifies_on_complex_tables(closed_aqgs):
    # A4's one-dimensional irreps are cube roots of unity and a phased basis
    # makes every isometry and conjugate pair complex, so the dual product
    # is complex; a star row that conjugates the wrong factor fails here
    rng = np.random.default_rng(4)
    bundles = [parse_bundle(a4_bundle())] + [
        phased(closed_aqgs[name].bundle, rng) for name in ("s3", "d4")]
    for b in bundles:
        _, Td, rep = dual_hopf(reconstruct(b))
        assert np.abs(Td.mult.imag).max() > 0.1
        assert rep.passed, rep.failures()


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
        a = random_element(q, rng)
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
        rep = verify_universal(U, T, Td)
        assert rep.passed, f"{name}: {rep.failures()}"
        assert rep.max_residual < 1e-8


def test_defining_identity_detects_a_perturbed_entry(closed_aqgs):
    for name in ("z2", "s3", "pointed-z3-t1"):
        q = closed_aqgs[name]
        T, Td, _ = dual_hopf(q)
        U = universal_corep(T)
        U[1, 0] += 1e-6
        rows = {c.name: c for c in verify_universal(U, T, Td).checks}
        assert not rows["unitarity"].passed, name
        assert universal_identities(U, T, Td)["defining-identity"] > 1e-7, name


def test_universal_identities_hold_by_construction(closed_aqgs):
    # U = inv(P)^T solves every defining identity through P inv(P) = I, for
    # whatever pairing P the tables give: with 1e-2 noise on the Haar
    # functional they still hold, so none of them is a report row
    rng = np.random.default_rng(8)
    for name, q in closed_aqgs.items():
        T, Td, _ = dual_hopf(q)
        noisy = noisy_haar(T, rng)
        for A, Ahat in ((T, Td), (noisy, dual_table(noisy))):
            got = universal_identities(universal_corep(A), A, Ahat)
            assert max(got.values()) < 1e-8, (name, got)


def test_dual_table_identities_hold_by_construction(closed_aqgs):
    # coassociativity, the counit laws and Haar invariance of the dual read
    # only A's product, unit and counit and the pairing; they hold for A and
    # its dual, and still for the dual of tables with 1e-2 noise on A's Haar
    # functional.  The dual's Haar functional is positive (its Gram form is
    # positive definite), which parseval and phi > 0 imply
    rng = np.random.default_rng(9)
    for name, q in closed_aqgs.items():
        T, Td, _ = dual_hopf(q)
        for tables, positive in ((T, True), (Td, True), (dual_table(noisy_haar(T, rng)), False)):
            got = table_identities(tables)
            eig = got.pop("haar-min-eigenvalue")
            assert max(got.values()) < 1e-8, (name, got)
            assert eig > 1e-9 or not positive, name


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
