"""R-matrices from braidings.

A braiding on the category induces a unitary R-matrix in M(A (x) A), with
R_ij = flip o c_ij, so c_ij = flip o R_ij recovers the braiding; this module
builds R and verifies the quasitriangularity identities, the Yang-Baxter
equation, and the antipode compatibilities, blockwise on the loaded pairs.

R is stacked by pair index, and every row is planned from the layout's
index arrays: its items are index arrays over pairs, labels and channels,
grouped by block dimensions, and each group gathers its blocks at once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .aqg import Aqg, _conj_stacks
from .bundle import FusionLayout
from .document import require_braiding
from .errors import MissingBraiding
from .linalg import (DEFAULT_TOL, Array, Tolerance, add_in_order, bdagger, eye, flip,
                     frozen_eye, group_by, max_abs, split_by, worst,
                     zero_stacks)
from .report import Report


@dataclass
class RMatrix:
    """Blockwise element of M(A (x) A), stacked by pair index as
    FusionLayout.pair_stacks stacks matrices: pair p = (i,j) has a block,
    in B(H_i (x) H_j), when have[p], and it is stacks[shape[p]][slot[p]]."""

    layout: FusionLayout
    have: Array
    shape: Array
    slot: Array
    stacks: list

    def take(self, pairs) -> Array:
        """The blocks of the int array pairs, which share one shape."""
        return self.stacks[self.shape[pairs[0]]][self.slot[pairs]]

    def tensors(self, i, j) -> Array:
        """The blocks of the pairs (i[x], j[x]), of one shape, as 4-index
        tensors (d_i, d_j, d_i, d_j)."""
        d = self.layout.dims
        return self.take(i * len(d) + j).reshape(-1, d[i[0]], d[j[0]], d[i[0]], d[j[0]])

    def mapped(self, fn) -> "RMatrix":
        """The R-matrix on the same pairs whose block (i,j) is
        fn(d_i, d_j, i, j), called once per (d_i, d_j) on index arrays."""
        pairs = np.flatnonzero(self.have)
        i, j = np.divmod(pairs, len(self.layout.dims))
        stacks = [np.empty_like(s, dtype=complex) for s in self.stacks]
        for (di, dj), sel in group_by(self.layout.dims[i], self.layout.dims[j]):
            stacks[self.shape[pairs[sel[0]]]][self.slot[pairs[sel]]] = fn(di, dj, i[sel], j[sel])
        return RMatrix(self.layout, self.have, self.shape, self.slot, stacks)

    def sigma(self) -> "RMatrix":
        """The flipped R-matrix sigma(R)_{ij} = flip R_{ji} flip."""
        n = len(self.layout.dims)
        h = self.have.reshape(n, n)
        if (h & ~h.T).any():
            raise MissingBraiding("*", "*", "sigma(R) needs R_ji wherever R_ij is loaded")
        return self.mapped(lambda di, dj, i, j: _flip(dj, di) @ self.take(j * n + i)
                           @ _flip(di, dj))


def braiding_to_r(q: Aqg) -> RMatrix:
    """R_{ij} = flip o c_{ij}, per loaded braiding block."""
    b = q.bundle
    require_braiding(b.braiding)
    lay = b.layout
    c = RMatrix(lay, *lay.braidings)  # the layout's braidings, stacked as R is
    if not c.have.any():
        raise MissingBraiding("*", "*")
    return c.mapped(lambda di, dj, i, j: _flip(dj, di) @ c.take(i * len(lay.dims) + j))


def _eyes(g: int, d: int) -> Array:
    """g copies of the d x d identity, as a read-only stack."""
    return np.broadcast_to(frozen_eye(d), (g, d, d))


def _apply_s_leg1(rbm, rmc, x) -> Array:
    """Stacked (S (x) iota) on (Rbar_i, conj(R_i), X) with X living on
    (dual(i), j) as a 4-index tensor, as square blocks."""
    return _square(np.einsum("gud,gbw,gbxdy->guxwy", rbm, rmc, x, optimize=True))


def _apply_s_leg2(rbm, rmc, x) -> Array:
    """Stacked (iota (x) S) on (Rbar_j, conj(R_j), X) with X living on
    (i, dual(j)) as a 4-index tensor, as square blocks."""
    return _square(np.einsum("gud,gbw,gxbyd->gxuyw", rbm, rmc, x, optimize=True))


def verify_quasitriangular(q: Aqg, R: RMatrix, tol: Tolerance = DEFAULT_TOL) -> Report:
    """Quasitriangularity, Yang-Baxter, counit/antipode compatibility, and
    unitarity for an R-matrix, blockwise over the loaded pairs.  The items
    of a row follow loops over labels in label order, and run as one
    stacked product per group of block dimensions.  No row is sampled:
    comult-flip (R Delta = Delta-op R) certifies the braiding a morphism of
    the channels, with the layout's channel Gram of both pairs."""
    rep = Report("quasitriangular")
    b, lay = q.bundle, q.bundle.layout
    n, d = len(q.labels), lay.dims
    have = R.have.reshape(n, n)
    bound = tol.bound(1.0) * 100

    res = worst(0.0, *(max_abs(x) for m in R.stacks for x in (
        bdagger(m) @ m - eye(m.shape[-1]), m @ bdagger(m) - eye(m.shape[-1]))))
    rep.add("unitary", "all blocks", res, res <= bound)

    # rows (i,j,m) of leg 1 and (m,i,j) of leg 2: i (x) j complete, and R
    # loaded on (i,m), (j,m), (k,m), or (m,i), (m,j), (m,k), for each summand k
    pairs = np.flatnonzero(lay.complete_pair)
    i, j = np.divmod(pairs, n)
    sup, lacks = lay.loaded[pairs].astype(float), (~have).astype(float)
    ok1 = (have[i] & have[j] & (sup @ lacks == 0)).reshape(-1)
    ok2 = (have[:, i] & have[:, j] & (lacks @ sup.T == 0)).reshape(-1)
    p1, m1 = np.repeat(pairs, n)[ok1], np.tile(np.arange(n), len(pairs))[ok1]
    p2, m2 = np.tile(pairs, n)[ok2], np.repeat(np.arange(n), len(pairs))[ok2]
    res = _leg_residual(R, p1, m1, 1)
    rep.add("comult-leg1", "(Delta x iota)R = R13 R23", res, bool(len(p1)) and res <= bound)
    res = _leg_residual(R, p2, m2, 2)
    rep.add("comult-leg2", "(iota x Delta)R = R13 R12", res, bool(len(p2)) and res <= bound)

    # R Delta = Delta-op R on pairs complete both ways: with V_ij and V_ji
    # unitary it holds exactly when X = V_ji* c_ij V_ij = (+)_k M_k (x) I_{d_k},
    # c_ij = flip R_ij; per block of channels (a, c), |X| across labels and
    # |X - (tr X / d_k) I| on one label, and the Grams of both pairs
    both = lay.complete_pair & lay.complete_pair.reshape(n, n).T.reshape(-1)
    pf = np.flatnonzero(R.have & both)
    i, j = np.divmod(pf, n)
    t, a = lay.channels_of(pf)
    x, c = lay.channels_of(j[t] * n + i[t])  # channel a[x] of pf[t[x]], c[x] of its flip
    t, a, k = t[x], a[x], lay.chan_label
    res = [lay.gram[:, a], lay.gram[:, c]]  # the Grams of both pairs
    for (di, dj, da, _), sel in group_by(d[i[t]], d[j[t]], d[k[a]], d[k[c]]):
        x = (bdagger(lay.isometries(c[sel])) @ _flip(di, dj) @ R.take(pf[t[sel]])
             @ lay.isometries(a[sel]))
        same = k[a[sel]] == k[c[sel]]  # less M_k (x) I on the blocks of one label
        x[same] -= np.trace(x[same], axis1=1, axis2=2)[:, None, None] / da * np.eye(*x.shape[1:])
        res.append(max_abs(x))
    res = worst(*res)
    rep.add("comult-flip", "V_ji* flip R_ij V_ij = (+)_k M_k x I", res, res <= bound)

    # Yang-Baxter on every triple with loaded blocks
    use = have[:, :, None] & have[:, None, :] & have[None, :, :]  # (i,j), (i,k), (j,k)
    i, j, k = np.indices((n, n, n)).reshape(3, -1)[:, use.reshape(-1)]
    res = [0.0]
    for (di, dj, dk), sel in group_by(d[i], d[j], d[k]):
        g, si, sj, sk = len(sel), i[sel], j[sel], k[sel]
        r12 = _square(np.einsum("gabcd,gxy->gabxcdy", R.tensors(si, sj), _eyes(g, dk)))
        r13 = _square(np.einsum("gaxcy,gbd->gabxcdy", R.tensors(si, sk), _eyes(g, dj)))
        r23 = _square(np.einsum("gbxdy,gac->gabxcdy", R.tensors(sj, sk), _eyes(g, di)))
        res.append(max_abs(r12 @ r13 @ r23 - r23 @ r13 @ r12))
    res = worst(*res)
    rep.add("yang-baxter", "R12 R13 R23 = R23 R13 R12", res, res <= bound)

    e = lay.label_index[b.unit]
    legs = np.concatenate([e * n + np.arange(n), np.arange(n) * n + e])
    legs = legs[R.have[legs]]
    res = worst(*(max_abs(R.take(legs[sel]) - eye(R.stacks[s].shape[-1]))
                  for s, sel in split_by(R.shape[legs])))
    rep.add("counit-legs", "(eps x iota)R = 1 = (iota x eps)R", res, res <= bound)

    # the antipode rows, with Rbar_i and conj(R_i) from the conjugate-pair
    # stacks; d_dual(i) = d_i, so the blocks of each (d_i, d_j) share shapes
    dual, conj = lay.dual, _conj_stacks(q)

    def s_ops(x):  # (Rbar_x, conj(R_x)) for the int array x of labels of one size
        return [m[lay.block_of[x]] for m in conj[d[x[0]]][:2]]

    i, j = np.divmod(np.flatnonzero(R.have), n)
    res = [[], []]
    for (di, dj), sel in group_by(d[i], d[j]):
        ok = R.have[dual[i[sel]] * n + j[sel]]  # (S x iota)R against R^-1
        if ok.any():
            si, sj = i[sel][ok], j[sel][ok]
            s1 = _apply_s_leg1(*s_ops(si), R.tensors(dual[si], sj))
            res[0].append(max_abs(s1 - np.linalg.inv(R.take(si * n + sj))))
        ok = R.have[dual[i[sel]] * n + dual[j[sel]]]  # (S x S)R against R
        if ok.any():
            si, sj = i[sel][ok], j[sel][ok]
            s1 = _apply_s_leg1(*s_ops(si), R.tensors(dual[si], dual[sj]))  # on (i, dual(j))
            s2 = _apply_s_leg2(*s_ops(sj), s1.reshape(-1, di, dj, di, dj))
            res[1].append(max_abs(s2 - R.take(si * n + sj)))
    for name, loc, r in zip(("antipode-leg1", "antipode-both"),
                            ("(S x iota)R = R^-1", "(S x S)R = R"), res):
        if r:
            rep.add(name, loc, worst(*r), worst(*r) <= bound)
        else:
            rep.skip(name, loc)
    return rep


def _leg_residual(R: RMatrix, p: Array, m: Array, leg: int) -> float:
    """Worst residual of comult-leg1 (leg 1) or comult-leg2 (leg 2) over the
    rows (i,j,m) or (m,i,j), with (i,j) = pair p[r] and label m[r]: row r
    sums (v x I) R_km (v x I)* or (I x v) R_mk (I x v)* over the channels v
    of its pair (to k) in channel order, against R13 R23 or R13 R12.
    """
    lay, d = R.layout, R.layout.dims
    i, j = np.divmod(p, len(d))
    pos, out = zero_stacks(d[i] * d[j] * d[m])
    at, ch = lay.channels_of(p)
    k, mk, ia, ja = lay.chan_label[ch], m[at], i[at], j[at]

    def lhs(sel):
        v = lay.isometries(ch[sel])
        if leg == 1:
            spec, rk = "gpk,gkxly,gql->gpxqy", R.tensors(k[sel], mk[sel])
        else:
            spec, rk = "gabk,gxkyl,gcdl->gxabycd", R.tensors(mk[sel], k[sel])
            v = v.reshape(len(sel), d[ia[sel[0]]], d[ja[sel[0]]], -1)
        return np.einsum(spec, v, rk, v.conj(), optimize=True)

    # groups of equal operand shapes: v is (d_i d_j, d_k) on leg 1 and
    # (d_i, d_j, d_k) on leg 2
    keys = (d[ia] * d[ja],) if leg == 1 else (d[ia], d[ja])
    add_in_order(out, pos[at], ((sel, _square(lhs(sel)))
                                for _, sel in group_by(*keys, d[k], d[mk])))
    res = [0.0]
    for (di, dj, dm), sel in group_by(d[i], d[j], d[m]):
        g, si, sj, sm = len(sel), i[sel], j[sel], m[sel]
        if leg == 1:
            rhs = (_square(np.einsum("gaxcy,gbd->gabxcdy", R.tensors(si, sm), _eyes(g, dj)))
                   @ _square(np.einsum("gac,gbxdy->gabxcdy", _eyes(g, di), R.tensors(sj, sm))))
        else:
            rhs = (_square(np.einsum("gxbyd,gac->gxabycd", R.tensors(sm, sj), _eyes(g, di)))
                   @ _square(np.einsum("gxayc,gbd->gxabycd", R.tensors(sm, si), _eyes(g, dj))))
        s = di * dj * dm
        res.append(max_abs(out[(s, s)][pos[sel]] - rhs))
    return worst(*res)


def _square(x: Array) -> Array:
    """Stack of 2k-index tensors -> stack of square matrices."""
    n = math.isqrt(math.prod(x.shape[1:]))
    return x.reshape(x.shape[0], n, n)


@lru_cache(maxsize=None)
def _flip(d1: int, d2: int) -> Array:
    """flip(d1, d2), cached and read-only, for stacked work items."""
    m = flip(d1, d2)
    m.flags.writeable = False
    return m


def triangularity(q: Aqg, R: RMatrix, tol: Tolerance = DEFAULT_TOL):
    """Whether sigma(R) R = 1, with the residual."""
    res = worst(*(max_abs(s @ m - eye(m.shape[-1]))
                  for s, m in zip(R.sigma().stacks, R.stacks)))
    return res <= tol.bound(1.0) * 100, res
