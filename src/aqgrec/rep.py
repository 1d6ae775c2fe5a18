"""Finite-dimensional non-degenerate *-representations of the reconstructed
algebra, with tensor products through the coproduct, conjugates through the
f-element, Hom spaces, and quantum dimensions.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aqg import Aqg, AqgElement, MissingDual
from .category import ObjectDecomp, hom_decomps, irreducible_decomp, nat_component, tensor_decomp
from .linalg import DEFAULT_TOL, Array, Tolerance, cmat, dagger, eye, kron, residual


@dataclass
class Representation:
    """A representation carried by its irreducible decomposition.

    The action is pi(a) = sum s a_i s* over the decomposition isometries;
    non-degeneracy is exactly completeness of the decomposition.
    """

    space_dim: int
    decomp: ObjectDecomp

    def act(self, q: Aqg, a: AqgElement) -> Array:
        blocks = {i: a.block(i, q.d(i)) for i, _ in self.decomp.parts}
        return nat_component(q.bundle, blocks, self.decomp)

    def act_multiplier(self, q: Aqg, m) -> Array:
        blocks = {i: m.block(i) for i, _ in self.decomp.parts}
        return nat_component(q.bundle, blocks, self.decomp)

    def labels(self) -> list[str]:
        return self.decomp.labels()


def irrep(q: Aqg, i: str) -> Representation:
    """The block projection onto B(H_i) as an irreducible representation."""
    return Representation(q.d(i), irreducible_decomp(q.bundle, i))


def counit_rep(q: Aqg) -> Representation:
    return irrep(q, q.bundle.unit)


def direct_sum(q: Aqg, pis: list[Representation]) -> Representation:
    n = sum(p.space_dim for p in pis)
    parts = []
    off = 0
    for p in pis:
        for i, s in p.decomp.parts:
            w = np.zeros((n, s.shape[1]), dtype=complex)
            w[off : off + p.space_dim, :] = s
            parts.append((i, w))
        off += p.space_dim
    return Representation(n, ObjectDecomp(n, parts))


def tensor_rep(q: Aqg, pi: Representation, pi2: Representation) -> Representation:
    """pi x pi2 acting through the coproduct on the tensor-product space."""
    dec = tensor_decomp(q.bundle, pi.decomp, pi2.decomp)
    return Representation(pi.space_dim * pi2.space_dim, dec)


def conjugate_rep(q: Aqg, pi: Representation):
    """Conjugate representation with its standard conjugate solution.

    The conjugate space is C^n decomposed into dual labels slot by slot;
    r and rbar are assembled from the per-label conjugate vectors, which
    keeps the solution standard and the quantum dimension correct.
    """
    b = q.bundle
    n = pi.space_dim
    parts = []
    slots = []
    off = 0
    for i, s in pi.decomp.parts:
        ib = b.dual[i]
        if ib not in b.conj:
            raise MissingDual(ib)
        dib = q.d(ib)
        w = np.zeros((n, dib), dtype=complex)
        w[off : off + dib, :] = eye(dib)
        parts.append((ib, w))
        slots.append((i, s, w))
        off += dib
    if off != n:
        # dual dims always match primal dims blockwise; defensive guard
        raise ValueError("conjugate space dimension mismatch")
    pibar = Representation(n, ObjectDecomp(n, parts))
    r = np.zeros(n * n, dtype=complex)
    rbar = np.zeros(n * n, dtype=complex)
    for i, s, w in slots:
        ri, rbari = b.conj[i]
        r += (kron(w, s) @ ri.reshape(-1, 1)).reshape(-1)
        rbar += (kron(s, w) @ rbari.reshape(-1, 1)).reshape(-1)
    return pibar, r, rbar


def hom_reps(
    q: Aqg, pi: Representation, pi2: Representation, tol: Tolerance = DEFAULT_TOL
) -> list[Array]:
    """Hilbert-Schmidt orthonormal basis of the intertwiner space."""
    return hom_decomps(pi.decomp, pi2.decomp, tol)


def dimension(q: Aqg, pi: Representation, tol: Tolerance = DEFAULT_TOL) -> float:
    """Quantum dimension Tr pi(f), cross-checked against Tr pi(f^{-1})."""
    tf = float(np.trace(pi.act_multiplier(q, q.f)).real)
    tfinv = float(np.trace(pi.act_multiplier(q, q.finv)).real)
    if abs(tf - tfinv) > tol.bound(tf, tfinv) * 100:
        raise ValueError(
            f"trace of f and f^-1 disagree on representation: {tf} vs {tfinv}"
        )
    return tf


def decompose_rep(q: Aqg, pi: Representation, tol: Tolerance = DEFAULT_TOL):
    """Return the stored decomposition after re-validating it."""
    res = pi.decomp.check(tol)
    if res > tol.bound(1.0) * 100:
        raise ValueError(f"stored decomposition fails validation (residual {res:.3e})")
    return [(i, s) for i, s in pi.decomp.parts]
