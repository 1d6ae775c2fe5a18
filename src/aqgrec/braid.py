"""R-matrices from braidings.

A braiding on the category induces a unitary R-matrix in M(A (x) A), with
R_ij = flip o c_ij, so c_ij = flip o R_ij recovers the braiding; this module
builds R and verifies the quasitriangularity identities, the Yang-Baxter
equation, and the antipode compatibilities, blockwise on the loaded pairs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .aqg import Aqg, delta
from .bundle import require_braiding
from .errors import MissingBraiding
from .linalg import (
    DEFAULT_TOL,
    Array,
    Tolerance,
    add_in_order,
    bdagger,
    by_shape,
    cmat,
    eye,
    frozen_eye,
    flip,
    max_abs,
    residual,
    worst,
    zero_stacks,
)
from .report import Report


@dataclass
class RMatrix:
    """Blockwise element of M(A (x) A): blocks[(i,j)] in B(H_i (x) H_j)."""

    blocks: dict[tuple[str, str], Array]

    def block(self, i: str, j: str) -> Array:
        if (i, j) not in self.blocks:
            raise MissingBraiding(i, j)
        return self.blocks[(i, j)]

    def sigma(self, q: Aqg) -> "RMatrix":
        """The flipped R-matrix sigma(R)_{ij} = flip R_{ji} flip."""
        out = {}
        for (i, j), _ in self.blocks.items():
            di, dj = q.d(i), q.d(j)
            out[(i, j)] = flip(dj, di) @ self.blocks[(j, i)] @ flip(di, dj)
        return RMatrix(out)


def braiding_to_r(q: Aqg) -> RMatrix:
    """R_{ij} = flip o c_{ij}, per loaded braiding block."""
    b = q.bundle
    require_braiding(b)
    blocks = {}
    for (i, j), c in b.braiding.items():
        blocks[(i, j)] = flip(q.d(j), q.d(i)) @ cmat(c)
    if not blocks:
        raise MissingBraiding("*", "*")
    return RMatrix(blocks)


def _s_leg1(q: Aqg, R: RMatrix, i: str, j: str):
    """Operands of ((S (x) iota)R) at block (i,j), from the closed-form
    antipode: (Rbar_i, conj(R_i), R_{dual(i), j} as a 4-index tensor)."""
    ib = q.bundle.dual[i]
    x = R.block(ib, j).reshape(q.d(ib), q.d(j), q.d(ib), q.d(j))
    return q._rbarmat(i), q._rmat(i).conj(), x


def _apply_s_leg1(rbm, rmc, x) -> Array:
    """Stacked (S (x) iota) on the operands of _s_leg1, as square blocks."""
    return _square(np.einsum("gud,gbw,gbxdy->guxwy", rbm, rmc, x, optimize=True))


def _apply_s_leg2(rbm, rmc, x) -> Array:
    """Stacked (iota (x) S) on (Rbar_j, conj(R_j), X) with X living on
    (i, dual(j)) as a 4-index tensor, as square blocks."""
    return _square(np.einsum("gud,gbw,gxbyd->gxuyw", rbm, rmc, x, optimize=True))


def verify_quasitriangular(
    q: Aqg,
    R: RMatrix,
    tol: Tolerance = DEFAULT_TOL,
    n_samples: int = 8,
    seed: int = 42,
) -> Report:
    """Quasitriangularity, Yang-Baxter, counit/antipode compatibility, and
    unitarity for an R-matrix, blockwise over the loaded pairs.  Block
    families are evaluated as stacked products, one per block shape."""
    rep = Report("quasitriangular")
    b = q.bundle
    labels = q.labels
    pairs = sorted(R.blocks)
    rng = np.random.default_rng(seed)
    blk = R.blocks
    d = {i: q.d(i) for i in labels}
    r4 = {(i, j): m.reshape(d[i], d[j], d[i], d[j]) for (i, j), m in blk.items()}
    bound = tol.bound(1.0) * 100

    res = [0.0]
    for _, (m,) in by_shape([(m,) for m in blk.values()]):
        one = eye(m.shape[-1])
        res += [max_abs(bdagger(m) @ m - one), max_abs(m @ bdagger(m) - one)]
    res = worst(*res)
    rep.add("unitary", "all blocks", res, res <= bound)

    # (Delta x iota)R = R13 R23 at (i,j,m): sum_v (v x I) R_km (v x I)*
    rows, lhs, rhs = [], [], []
    for i in labels:
        for j in labels:
            if not b.complete(i, j):
                continue
            for m in labels:
                need = [(i, m), (j, m)] + [(k, m) for k, _ in b.support(i, j)]
                if any(p not in blk for p in need):
                    continue
                row = len(rows)
                rows.append(d[i] * d[j] * d[m])
                rhs.append(((r4[(i, m)], frozen_eye(d[j]), frozen_eye(d[i]), r4[(j, m)]), row))
                for k, _, v in b.layout.channels[(i, j)]:
                    lhs.append(((v, r4[(k, m)]), row))
    res = _leg_residuals(rows, lhs, "gpk,gkxly,gql->gpxqy",
                         rhs, ("gaxcy,gbd->gabxcdy", "gac,gbxdy->gabxcdy"))
    rep.add("comult-leg1", "(Delta x iota)R = R13 R23", res,
            bool(rows) and res <= bound)

    # (iota x Delta)R = R13 R12 at (m,i,j): sum_v (I x v) R_mk (I x v)*
    rows, lhs, rhs = [], [], []
    for m in labels:
        for i in labels:
            for j in labels:
                if not b.complete(i, j):
                    continue
                need = [(m, i), (m, j)] + [(m, k) for k, _ in b.support(i, j)]
                if any(p not in blk for p in need):
                    continue
                row = len(rows)
                rows.append(d[m] * d[i] * d[j])
                rhs.append(((r4[(m, j)], frozen_eye(d[i]), r4[(m, i)], frozen_eye(d[j])), row))
                for k, _, v in b.layout.channels[(i, j)]:
                    lhs.append(((v.reshape(d[i], d[j], d[k]), r4[(m, k)]), row))
    res = _leg_residuals(rows, lhs, "gabk,gxkyl,gcdl->gxabycd",
                         rhs, ("gxbyd,gac->gxabycd", "gxayc,gbd->gxabycd"))
    rep.add("comult-leg2", "(iota x Delta)R = R13 R12", res,
            bool(rows) and res <= bound)

    # R Delta = Delta-op R on pairs complete both ways
    flip_pairs = [(i, j) for i, j in pairs if b.complete(i, j) and b.complete(j, i)]
    both = flip_pairs + [(j, i) for i, j in flip_pairs]
    res = [0.0]
    for _ in range(n_samples):
        dl = delta(q, q.random_element(rng), both)
        items = []
        for i, j in flip_pairs:
            di, dj = q.d(i), q.d(j)
            items.append((blk[(i, j)], dl[(i, j)], dl[(j, i)], _flip(dj, di), _flip(di, dj)))
        for _, (rij, dij, dji, f1, f2) in by_shape(items):
            res.append(max_abs(rij @ dij - f1 @ dji @ f2 @ rij))
    res = worst(*res)
    rep.add("comult-flip", "R Delta = Delta-op R", res, res <= bound)

    # Yang-Baxter on every triple with loaded blocks
    items = []
    for i in labels:
        for j in labels:
            for k in labels:
                if any(p not in blk for p in ((i, j), (i, k), (j, k))):
                    continue
                items.append((r4[(i, j)], frozen_eye(d[k]), r4[(i, k)], frozen_eye(d[j]),
                              r4[(j, k)], frozen_eye(d[i])))
    res = [0.0]
    for _, (rij, ek, rik, ej, rjk, ei) in by_shape(items):
        r12 = _square(np.einsum("gabcd,gxy->gabxcdy", rij, ek))
        r13 = _square(np.einsum("gaxcy,gbd->gabxcdy", rik, ej))
        r23 = _square(np.einsum("gbxdy,gac->gabxcdy", rjk, ei))
        res.append(max_abs(r12 @ r13 @ r23 - r23 @ r13 @ r12))
    res = worst(*res)
    rep.add("yang-baxter", "R12 R13 R23 = R23 R13 R12", res, res <= bound)

    res = []
    e = b.unit
    for j in labels:
        if (e, j) in blk:
            res.append(residual(R.block(e, j), eye(q.d(j))))
        if (j, e) in blk:
            res.append(residual(R.block(j, e), eye(q.d(j))))
    res = worst(*res)
    rep.add("counit-legs", "(eps x iota)R = 1 = (iota x eps)R", res, res <= bound)

    items = [(*_s_leg1(q, R, i, j), m) for (i, j), m in blk.items()
             if (b.dual[i], j) in blk and i in b.conj]
    if items:
        res = worst(*(max_abs(_apply_s_leg1(rbm, rmc, x) - np.linalg.inv(m))
                      for _, (rbm, rmc, x, m) in by_shape(items)))
        rep.add("antipode-leg1", "(S x iota)R = R^-1", res, res <= bound)
    else:
        rep.skip("antipode-leg1", "(S x iota)R = R^-1")

    items = []
    for (i, j), m in blk.items():
        ib, jb = b.dual[i], b.dual[j]
        if (ib, jb) in blk and i in b.conj and j in b.conj:
            items.append((*_s_leg1(q, R, i, jb), q._rbarmat(j), q._rmat(j).conj(), m))
    if items:
        res = []
        for _, (rbm, rmc, x, rbm2, rmc2, m) in by_shape(items):
            s1 = _apply_s_leg1(rbm, rmc, x)  # on (i, dual(j)); rbm is (g, d_i, d_i)
            di, djb = rbm.shape[1], s1.shape[1] // rbm.shape[1]
            s1 = s1.reshape(-1, di, djb, di, djb)
            res.append(max_abs(_apply_s_leg2(rbm2, rmc2, s1) - m))
        res = worst(*res)
        rep.add("antipode-both", "(S x S)R = R", res, res <= bound)
    else:
        rep.skip("antipode-both", "(S x S)R = R")
    return rep


def _square(x: Array) -> Array:
    """Stack of 2k-index tensors -> stack of square matrices."""
    n = math.isqrt(math.prod(x.shape[1:]))
    return x.reshape(x.shape[0], n, n)


def _leg_residuals(rows, lhs, lhs_spec, rhs, rhs_specs) -> float:
    """Worst residual between two stacked sums, one block per row.

    lhs items ((v, R_k), row) add up einsum(lhs_spec, v, R_k, v*) in
    order; rhs items ((A, B, C, D), row) are the products of two leg
    embeddings, einsum(rhs_specs[0], A, B) @ einsum(rhs_specs[1], C, D).
    """
    pos, _ = zero_stacks(rows)
    kernels = (
        lambda v, rk: np.einsum(lhs_spec, v, rk, v.conj(), optimize=True),
        lambda a, b, c, d: _square(np.einsum(rhs_specs[0], a, b))
        @ _square(np.einsum(rhs_specs[1], c, d)),
    )
    sums = []
    for items, kernel in zip((lhs, rhs), kernels):
        _, out = zero_stacks(rows)
        add_in_order(out, pos[[row for _, row in items]], (
            (nums, _square(kernel(*stacks)))
            for nums, stacks in by_shape([it for it, _ in items])
        ))
        sums.append(out)
    return worst(0.0, *(max_abs(sums[0][s] - sums[1][s]) for s in sums[0]))


@lru_cache(maxsize=None)
def _flip(d1: int, d2: int) -> Array:
    """flip(d1, d2), cached and read-only, for stacked work items."""
    m = flip(d1, d2)
    m.flags.writeable = False
    return m


def triangularity(q: Aqg, R: RMatrix, tol: Tolerance = DEFAULT_TOL):
    """Whether sigma(R) R = 1, with the residual."""
    sig = R.sigma(q)
    res = worst(*(
        residual(sig.block(i, j) @ m, eye(m.shape[0])) for (i, j), m in R.blocks.items()
    ))
    return res <= tol.bound(1.0) * 100, res
