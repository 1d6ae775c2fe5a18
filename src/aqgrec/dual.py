"""Duality for closed finite bundles: the compact dual Hopf *-algebra on the
Fourier-transformed basis, the universal corepresentation, and the
Pontryagin double-dual check.

Everything here works with dense structure-constant tables over the
matrix-unit basis of A, so all axioms can be checked exhaustively.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aqg import Aqg, NotFinite, unit_index
from .bundle import CategoryBundle
from .linalg import DEFAULT_TOL, Array, Tolerance, dagger, eye, residual, worst
from .report import Report


# ---------------------------------------------------------------------------
# dense Hopf tables


@dataclass
class TableHopf:
    """A finite-dimensional Hopf *-algebra with a distinguished functional,
    given by structure constants on a fixed basis e_0..e_{N-1}.

    mult[u,v,w]: coefficient of e_w in e_u e_v; comult[u,v,w]: coefficient
    of e_v (x) e_w in the coproduct of e_u; antipode and star are matrices
    (star coefficients are applied after conjugating the input); haar holds
    the invariant functional on the basis.
    """

    dim: int
    mult: Array
    unit: Array
    comult: Array
    counit: Array
    antipode: Array
    star: Array
    haar: Array

    def product(self, x: Array, y: Array) -> Array:
        return np.einsum("u,v,uvw->w", x, y, self.mult, optimize=True)

    def star_of(self, x: Array) -> Array:
        return np.einsum("u,uw->w", x.conj(), self.star)

    def antipode_of(self, x: Array) -> Array:
        return np.einsum("u,uw->w", x, self.antipode)

    def haar_of(self, x: Array) -> complex:
        return complex(np.dot(self.haar, x))

    def counit_of(self, x: Array) -> complex:
        return complex(np.dot(self.counit, x))

    def pairing(self) -> Array:
        """P[v,u] = haar(e_v e_u)."""
        return np.einsum("vuw,w->vu", self.mult, self.haar)

    def cocommutative(self, tol: Tolerance = DEFAULT_TOL) -> tuple[bool, float]:
        res = residual(self.comult, np.swapaxes(self.comult, 1, 2))
        return res <= tol.bound(self.comult), res


def require_closed(b: CategoryBundle) -> None:
    """Refuse a window: the Hopf tables need all of A."""
    if not b.closed:
        raise NotFinite("Hopf tables require a closed bundle")


def table_from_aqg(q: Aqg) -> TableHopf:
    """Materialize the reconstructed algebra as dense Hopf tables.

    Every table is a closed form in the matrix units E^k_ps: E_ps E_st =
    E_pt, the unit sums the E^k_pp, E_ps* = E_sp, the counit is 1 on the
    unit label, phi(E^k_ps) = w_k F_k[s,p], S(E^k_ps) = Rbar_i[:,s]
    conj(R_i)[p,:] on the block of i = dual(k), and Delta(E^k_ab) sums
    v E_ab v* over the channels v of (n,m) -> k.
    """
    b = q.bundle
    require_closed(b)
    N = q.total_dim()
    mult = np.zeros((N, N, N), dtype=complex)
    unit = np.zeros(N, dtype=complex)
    comult = np.zeros((N, N, N), dtype=complex)
    counit_v = np.zeros(N, dtype=complex)
    anti = np.zeros((N, N), dtype=complex)
    star = np.zeros((N, N), dtype=complex)
    haar_v = np.zeros(N, dtype=complex)
    idx = {k: unit_index(q, k) for k in q.labels}

    for k in q.labels:
        ik, i = idx[k], b.dual[k]
        mult[ik[:, :, None], ik[None, :, :], ik[:, None, :]] = 1.0
        unit[ik.diagonal()] = 1.0
        star[ik, ik.T] = 1.0
        haar_v[ik] = q.haar_weights[k] * q.F[k].T
        anti[ik[:, :, None, None], idx[i]] = np.einsum(
            "as,pb->psab", q._rbarmat(i), q._rmat(i).conj())
    counit_v[idx[b.unit][0, 0]] = 1.0
    for n, m in b.layout.pairs:
        dn, dm = q.d(n), q.d(m)
        for k, _, v in b.layout.channels[(n, m)]:
            dk = q.d(k)
            # [a, b, (x, x'), (y, y')] = v[(x, y), a] conj(v[(x', y'), b])
            blk = np.einsum("ra,cb->abrc", v, v.conj()).reshape(dk, dk, dn, dm, dn, dm)
            comult[np.ix_(idx[k].ravel(), idx[n].ravel(), idx[m].ravel())] += (
                blk.transpose(0, 1, 2, 4, 3, 5).reshape(dk * dk, dn * dn, dm * dm))
    return TableHopf(N, mult, unit, comult, counit_v, anti, star, haar_v)


def dual_table(T: TableHopf) -> TableHopf:
    """The dual Hopf *-algebra on the Fourier basis omega_u = e_u . haar.

    All structure constants come from solving against the (faithful)
    pairing P[v,u] = haar(e_v e_u).
    """
    P = T.pairing()
    Pinv = np.linalg.inv(P)
    # product: (omega_a omega_b)(e_v) = sum comult[v,r,s] P[r,a] P[s,b]
    lhs = np.einsum("vrs,ra,sb->vab", T.comult, P, P, optimize=True)
    mult_hat = np.einsum("cv,vab->abc", Pinv, lhs, optimize=True)
    unit_hat = Pinv @ T.counit
    # coproduct: pairing of Delta-hat against e_v (x) e_w is omega_u(e_v e_w)
    G = np.einsum("vwr,ru->uvw", T.mult, P, optimize=True)
    comult_hat = np.einsum("av,bw,uvw->uab", Pinv, Pinv, G, optimize=True)
    counit_hat = P.T @ T.unit
    H = np.einsum("vw,wu->vu", T.antipode, P)
    anti_hat = (Pinv @ H).T
    K = np.einsum("vw,wz,zu->vu", T.antipode, T.star.conj(), P.conj(), optimize=True)
    star_hat = (Pinv @ K).T
    haar_hat = T.counit.copy()
    return TableHopf(T.dim, mult_hat, unit_hat, comult_hat, counit_hat,
                     anti_hat, star_hat, haar_hat)


def verify_table(T: TableHopf, tol: Tolerance = DEFAULT_TOL,
                 title: str = "hopf-table") -> Report:
    """Exhaustive Hopf-*-algebra axiom check on structure constants."""
    rep = Report(title)
    m, c = T.mult, T.comult

    def check(name, lhs, rhs):
        res = residual(lhs, rhs)
        rep.add(name, "tables", res, res <= tol.bound(lhs, rhs) * 10)

    check("associativity",
          np.einsum("uvw,wkz->uvkz", m, m, optimize=True),
          np.einsum("vkw,uwz->uvkz", m, m, optimize=True))
    check("unit-left", np.einsum("u,uvw->vw", T.unit, m), eye(T.dim))
    check("unit-right", np.einsum("v,uvw->uw", T.unit, m), eye(T.dim))
    check("coassociativity",
          np.einsum("umd,mab->uabd", c, c, optimize=True),
          np.einsum("uam,mbd->uabd", c, c, optimize=True))
    check("counit-left", np.einsum("uab,a->ub", c, T.counit), eye(T.dim))
    check("counit-right", np.einsum("uab,b->ua", c, T.counit), eye(T.dim))
    check("comult-homomorphism",
          np.einsum("uvw,wab->uvab", m, c, optimize=True),
          np.einsum("uxy,vzt,xza,ytb->uvab", c, c, m, m, optimize=True))
    check("counit-homomorphism",
          np.einsum("uvw,w->uv", m, T.counit),
          np.outer(T.counit, T.counit))
    check("antipode-left",
          np.einsum("uab,ac,cbw->uw", c, T.antipode, m, optimize=True),
          np.outer(T.counit, T.unit))
    check("antipode-right",
          np.einsum("uab,bc,acw->uw", c, T.antipode, m, optimize=True),
          np.outer(T.counit, T.unit))
    check("star-involutive",
          np.einsum("uw,wz->uz", T.star.conj(), T.star), eye(T.dim))
    check("star-antimultiplicative",
          np.einsum("uvw,wz->uvz", m, T.star, optimize=True).conj(),
          np.einsum("vx,uy,xyz->uvz", T.star.conj(), T.star.conj(), m,
                    optimize=True).conj())
    check("comult-star",
          np.einsum("uw,wab->uab", T.star, c, optimize=True),
          np.einsum("uxy,xa,yb->uab", c.conj(), T.star, T.star, optimize=True))
    # the functional: at least one-sided invariance must hold
    left_inv = residual(np.einsum("uab,b->ua", c, T.haar),
                        np.outer(T.haar, T.unit))
    right_inv = residual(np.einsum("uab,a->ub", c, T.haar),
                         np.outer(T.haar, T.unit))
    inv = -worst(-left_inv, -right_inv)
    rep.add("haar-invariance", "tables", inv, inv <= tol.bound(T.haar) * 10)
    gram = _haar_gram(T)
    eigs = np.linalg.eigvalsh((gram + dagger(gram)) / 2)
    rep.add("haar-positivity", "Gram eigenvalues",
            0.0 if eigs[0] > 0 else abs(float(eigs[0])), bool(eigs[0] > tol.absolute))
    return rep


def _haar_gram(T: TableHopf) -> Array:
    """Gram[u,v] = haar(e_v* e_u)."""
    stars = T.star.conj()  # row u = coefficients of e_u*
    return np.einsum("vz,zuw,w->uv", stars, T.mult, T.haar, optimize=True)


def dual_hopf(q: Aqg, tol: Tolerance = DEFAULT_TOL):
    """Materialize A and its dual as Hopf tables, with the dual verified.

    Returns (T, T_hat, report); the report covers the dual's Hopf-*-algebra
    axioms, unitality, and the Parseval identity psi-hat(a-hat* a-hat) =
    phi(a* a).
    """
    T = table_from_aqg(q)
    Td = dual_table(T)
    rep = verify_table(Td, tol, title="dual-hopf")
    rng = np.random.default_rng(23)
    diffs = []
    for _ in range(8):
        cvec = rng.standard_normal(T.dim) + 1j * rng.standard_normal(T.dim)
        lhs = Td.haar_of(Td.product(Td.star_of(cvec), cvec))
        rhs = T.haar_of(T.product(T.star_of(cvec), cvec))
        diffs.append(abs(lhs - rhs))
    res = worst(*diffs)
    rep.add("parseval", "random elements", res, res <= tol.bound(1.0) * 100)
    res = residual(Td.antipode @ Td.antipode, eye(Td.dim))
    rep.add("antipode-involutive", "dual antipode squared", res,
            res <= tol.bound(Td.antipode) * 100)
    return T, Td, rep


# ---------------------------------------------------------------------------
# universal corepresentation


def universal_corep(T: TableHopf) -> Array:
    """The universal corepresentation U in A (x) A-hat, U[u,v] being the
    coefficient of e_u (x) omega_v.

    A-hat is A's dual under the faithful pairing P, so U = sum_u e_u (x) e^u
    over the dual basis e^u = sum_v inv(P)[v,u] omega_v: U = inv(P)^T.
    verify_universal checks it against the defining evaluation identity.
    """
    return np.linalg.inv(T.pairing()).T


def verify_universal(q: Aqg, U: Array, T: TableHopf, Td: TableHopf,
                     tol: Tolerance = DEFAULT_TOL) -> Report:
    """The five properties of the universal corepresentation, and the
    defining evaluation identity it is the solution of."""
    rep = Report("universal-corep")
    N = T.dim
    P = T.pairing()

    def tens_prod(X, Y):
        return np.einsum("uv,rs,urw,vsc->wc", X, Y, T.mult, Td.mult,
                         optimize=True)

    def tens_star(X):
        return np.einsum("uv,uw,vc->wc", X.conj(), T.star, Td.star,
                         optimize=True)

    one = np.outer(T.unit, Td.unit)
    res = worst(residual(tens_prod(tens_star(U), U), one),
                residual(tens_prod(U, tens_star(U)), one))
    rep.add("unitarity", "A (x) dual", res, res <= tol.bound(one, U) * 100)

    # U13 has the unit in leg 2 and U23 in leg 1, so U13 U23 multiplies
    # only in the dual leg; likewise U12 U13 only in A
    lhs2 = np.einsum("uc,uab->abc", U, T.comult, optimize=True)
    rhs2 = np.einsum("az,bw,zwc->abc", U, U, Td.mult, optimize=True)
    res = residual(lhs2, rhs2)
    rep.add("comult-leg1", "(Delta x iota)U = U13 U23", res,
            res <= tol.bound(lhs2, rhs2) * 100)

    lhs3 = np.einsum("uv,vab->uab", U, Td.comult, optimize=True)
    rhs3 = np.einsum("xb,uc,xua->abc", U, U, T.mult, optimize=True)
    res = residual(lhs3, rhs3)
    rep.add("comult-leg2", "(iota x Delta-hat)U = U12 U13", res,
            res <= tol.bound(lhs3, rhs3) * 100)

    res = residual(P.T @ U, eye(N))
    rep.add("slice-functional", "(omega x iota)U = omega", res,
            res <= tol.bound(1.0) * 100)
    res = residual(U @ P.T, eye(N))
    rep.add("slice-element", "(iota x a)U = a", res,
            res <= tol.bound(1.0) * 100)

    # [U(x (x) omega)](y) = (iota (x) omega)(Delta(y)(x (x) 1)) for x = e_r,
    # omega = omega_s, y = e_t, with B1[v,s,t] = (omega_v omega_s)(e_t); the
    # left side is contracted factor by factor, holding N^4 entries
    B1 = np.einsum("tab,av,bs->vst", T.comult, P, P, optimize=True)
    lhs = np.einsum("urw,uv,vst->wrst", T.mult, U, B1, optimize=True)
    rhs = np.einsum("tab,bs,arw->wrst", T.comult, P, T.mult, optimize=True)
    res = residual(lhs, rhs)
    rep.add("defining-identity", "U(x (x) omega)(y) = omega(Delta(y)(x (x) 1))",
            res, res <= tol.bound(rhs) * 100)
    return rep


# ---------------------------------------------------------------------------
# Pontryagin double dual


def pontryagin_check(T: TableHopf, Td: TableHopf, tol: Tolerance = DEFAULT_TOL):
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
