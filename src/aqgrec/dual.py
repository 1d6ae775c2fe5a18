"""Duality for closed finite bundles: the compact dual Hopf *-algebra on the
Fourier-transformed basis and the universal corepresentation.

Everything here works with dense structure-constant tables over the
matrix-unit basis of A, so all axioms can be checked exhaustively.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aqg import Aqg, unit_index
from .document import require_tables
from .linalg import DEFAULT_TOL, Array, Tolerance, eye, residual, worst
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


def table_from_aqg(q: Aqg) -> TableHopf:
    """Materialize the reconstructed algebra as dense Hopf tables.

    Every table is a closed form in the matrix units E^k_ps: E_ps E_st =
    E_pt, the unit sums the E^k_pp, E_ps* = E_sp, the counit is 1 on the
    unit label, phi(E^k_ps) = w_k F_k[s,p], S(E^k_ps) = Rbar_i[:,s]
    conj(R_i)[p,:] on the block of i = dual(k), and Delta(E^k_ab) sums
    v E_ab v* over the channels v of (n,m) -> k.
    """
    b = q.bundle
    require_tables(b.closed)
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
    lay = b.layout
    for c, (p, k) in enumerate(zip(lay.chan_pair.tolist(), lay.chan_label.tolist())):
        (n, m), k = lay.pairs[p], q.labels[k]
        dn, dm, dk = q.d(n), q.d(m), q.d(k)
        v = lay.chan_stacks[lay.chan_shape[c]][lay.chan_slot[c]]
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
    """Hopf-*-algebra axiom check on structure constants.

    For the dual tables of dual_table, coassociativity, the counit laws and
    Haar invariance read only A's product, unit and counit, closed forms in
    the matrix units, and the pairing P, and they hold for every invertible
    P; Haar positivity follows from parseval and phi > 0.  No bundle defect
    reaches them, so they are test oracles rather than rows.
    """
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
    # (e_u e_v)* = e_v* e_u*, the star applied after conjugating the input
    check("star-antimultiplicative",
          np.einsum("uvw,wz->uvz", m.conj(), T.star, optimize=True),
          np.einsum("vx,uy,xyz->uvz", T.star, T.star, m, optimize=True))
    check("comult-star",
          np.einsum("uw,wab->uab", T.star, c, optimize=True),
          np.einsum("uxy,xa,yb->uab", c.conj(), T.star, T.star, optimize=True))
    return rep


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
    """
    return np.linalg.inv(T.pairing()).T


def verify_universal(U: Array, T: TableHopf, Td: TableHopf,
                     tol: Tolerance = DEFAULT_TOL) -> Report:
    """Unitarity of the universal corepresentation in A (x) A-hat.

    Its other defining properties, (Delta (x) iota)U = U13 U23,
    (iota (x) Delta-hat)U = U12 U13, both slices and the evaluation
    identity, contract to each other through P inv(P) = I for U = inv(P)^T,
    so they hold by construction and are test oracles instead.
    """
    rep = Report("universal-corep")

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
    return rep
