"""The F-move certificate of a fusion layout, by weight sectors.

For an admissible triple (i,j,k) and a label m, U stacks (v (x) I_k) w over
the left paths i (x) j -> l, l (x) k -> m, and W stacks (I_i (x) v') w' over
the right paths j (x) k -> n, i (x) n -> m, both in channel order.  The two
bracketings of Delta agree on all of B(H_m) exactly when G = W* U =
M (x) I_{d_m} with M unitary; M is the F-matrix, or 6j symbol.

Every isometry conserves the weights of the layout (grading.py; one weight,
0, on a bundle without a grading), so G is block-diagonal over the weights w of
H_m.  The block G_w = W_w* U_w pairs the rows of weight w of
H_i (x) H_j (x) H_k with the r_w basis vectors of weight w of H_m, and the
certificate is G_w = M (x) I_{r_w} for every w, with M the sum of the
r_w-traces of the G_w over d_m.  On one sector each path is one product of
its two isometries, and each quadruple one block G.
"""
from __future__ import annotations

import numpy as np

from .grading import pair_weights
from .linalg import (
    CHUNK_BYTES,
    Array,
    bdagger,
    bkron,
    distinct,
    eye,
    frozen_eye,
    group_by,
    max_abs,
    ranges,
)


# the bytes that a chunk holds per item of _left or _right: its index
# arrays, 13 int64 from _left and 16 from _right
ITEM_BYTES = 14 * 8


def certificate(lay):
    """(triples, quads, residual, F) of the layout lay; see
    FusionLayout.fmoves."""
    n_lab = len(lay.dims)
    whole = lay.complete_pair.reshape(n_lab, n_lab)
    triples = np.argwhere(whole[:, :, None] & whole[None, :, :])
    ti, tj, tk = triples.T

    def paths(first, second):
        # (triple, v, w) over v in the channels of first[t] and w in those
        # of second(label of v, t), in channel order
        t, v = lay.channels_of(first)
        s, w = lay.channels_of(second(lay.chan_label[v], t))
        return t[s], v[s], w

    sides = (paths(ti * n_lab + tj, lambda l, t: l * n_lab + tk[t]),
             paths(tj * n_lab + tk, lambda n, t: ti[t] * n_lab + n))
    keys = [t * n_lab + lay.chan_label[w] for t, _, w in sides]
    quad_key = distinct(np.concatenate(keys))
    quads = np.column_stack((triples[quad_key // n_lab], quad_key % n_lab))
    # per side: the (v, w) channels of every path, by quadruple, and per
    # quadruple its path count, first path and item count (_left, _right)
    sec = _LayoutSectors(lay)
    ordered, counts, starts, items = [], [], [], 0
    for (_, v, w), key, per_path in zip(sides, keys, (sec.n_sec[lay.chan_label[sides[0][1]]],
                                                      sec.runs[sides[1][2]])):
        quad = np.searchsorted(quad_key, key)
        order = np.argsort(quad, kind="stable")
        ordered.append((v[order], w[order]))
        counts.append(np.bincount(quad, minlength=len(quads)))
        starts.append(np.cumsum(counts[-1]) - counts[-1])
        items = items + np.bincount(quad, per_path, minlength=len(quads)).astype(int)
    rows = _Rows(sec, quads, np.cumsum(np.diff(quad_key // n_lab, prepend=-1) != 0) - 1)
    blocks = _Blocks(sec, rows, quads, *counts, items)
    res, fmats = np.zeros(len(quads)), [None] * len(quads)
    for lo, hi in _chunks(rows.tri, blocks.cost, CHUNK_BYTES):
        side = [(v[a:b], w[a:b], np.repeat(np.arange(hi - lo), c[lo:hi]),
                 np.arange(b - a) - np.repeat(s[lo:hi] - a, c[lo:hi]))
                for (v, w), c, s in zip(ordered, counts, starts)
                for a, b in [(s[lo], s[hi - 1] + c[hi - 1])]]
        res[lo:hi], fmats[lo:hi] = _chunk(lay, sec, rows, blocks, quads, lo, hi, side)
    return triples, quads, res, fmats


def _find(space, weight, at_space, at_weight) -> Array:
    """Where the pairs (at_space, at_weight) stand among the pairs (space,
    weight), which are distinct and sorted by space, then weight; -1 where
    a pair is absent."""
    if not len(space):
        return np.full(len(at_space), -1)
    lo, span = weight.min(), weight.max() - weight.min() + 1
    key = space * span + (weight - lo)
    inside = (at_weight >= lo) & (at_weight < lo + span)
    want = at_space * span + np.where(inside, at_weight - lo, 0)
    at = np.minimum(np.searchsorted(key, want), len(key) - 1)
    return np.where(inside & (key[at] == want), at, -1)


def _each(n):
    """(item, index) over the indices range(n[t]) of every item t."""
    return ranges(np.zeros(len(n), dtype=int), n)


class _Sectors:
    """The weight sectors of a family of spaces: space s has sizes[s] basis
    vectors, and basis vector x of it is number lo[s] + x, of weight
    w[lo[s] + x] (w holds the weights of all spaces, one after the other).

    A sector is one weight of one space; sectors are numbered by space, then
    weight, those of space s from first[s] to first[s + 1].  Sector g holds
    the size[g] basis vectors pos[start[g]:start[g] + size[g]], in
    increasing order, of space[g], of weight weight[g]; basis vector number
    y lies in sector[y], at place rank[y].
    """

    def __init__(self, sizes, w):
        self.sizes, self.lo = sizes, np.cumsum(sizes) - sizes
        space = np.repeat(np.arange(len(sizes)), sizes)
        order = np.lexsort((w, space))
        s, w = space[order], w[order]
        new = np.ones(len(order), dtype=bool)
        new[1:] = (s[1:] != s[:-1]) | (w[1:] != w[:-1])
        self.start = np.flatnonzero(new)
        self.size = np.diff(np.append(self.start, len(order)))
        self.space, self.weight = s[self.start], w[self.start]
        self.pos = order - self.lo[s]
        self.sector = np.empty(len(order), dtype=int)
        self.sector[order] = np.cumsum(new) - 1
        self.rank = np.empty(len(order), dtype=int)
        self.rank[order] = np.arange(len(order)) - self.start[self.sector[order]]
        self.first = np.searchsorted(self.space, np.arange(len(sizes) + 1))


class _LayoutSectors:
    """The sectors that the certificate reads: per label number (labels);
    per pair (i,j), numbered as in the layout, of H_i (x) H_j by the sum of
    the weights (pairs, basis vector a d_j + b); and per pair (i,m) of
    H_i* (x) H_m by w_e - w_a (diffs, basis vector a d_m + e).  A sector of
    diffs splits into runs of one a: run_first[g] to run_first[g + 1] are
    those of sector g, run x of one a = run_a[x] starting at place
    run_start[x] of it.

    Per channel c, (i,j) -> k, and per sector s of the label k, i or j (by
    place in that label): the sector of pairs (i,j) of the weight of s
    (by_target[target[c] + s]), of diffs (j,k) (by_first[first[c] + s]) and
    of diffs (i,k) (by_second[second[c] + s]), -1 where there is none, and
    runs[c], the runs of one a in those sectors of diffs (i,k): the items of
    a right path through c as its second channel (_right).
    """

    def __init__(self, lay):
        dims, n_lab = lay.dims, len(lay.dims)
        self.labels = L = _Sectors(dims, np.concatenate(lay.weights))
        total, diff = pair_weights(lay)
        self.pairs = P = _Sectors(lay.pair_size, total)
        self.diffs = D = _Sectors(lay.pair_size, diff)
        a = D.pos // dims[D.space % n_lab][np.repeat(np.arange(len(D.size)), D.size)]
        new = np.ones(len(a), dtype=bool)
        new[1:] = a[1:] != a[:-1]
        new[D.start] = True
        self.run_start = np.flatnonzero(new)
        self.run_a = a[self.run_start]
        self.run_first = np.searchsorted(self.run_start, np.append(D.start, len(a)))
        self.n_sec = L.first[1:] - L.first[:-1]
        ci, cj = np.divmod(lay.chan_pair, n_lab)
        ck, tables = lay.chan_label, []
        for label, space, family in ((ck, lay.chan_pair, P), (ci, cj * n_lab + ck, D),
                                     (cj, ci * n_lab + ck, D)):
            c, s = ranges(L.first[label], self.n_sec[label])
            tables += [np.cumsum(self.n_sec[label]) - self.n_sec[label],
                       _find(family.space, family.weight, space[c], L.weight[s])]
        (self.target, self.by_target, self.first, self.by_first,
         self.second, self.by_second) = tables
        g = self.by_second
        self.runs = np.bincount(np.repeat(np.arange(len(cj)), self.n_sec[cj]),
                                np.where(g >= 0, self.run_first[g + 1] - self.run_first[g], 0),
                                minlength=len(cj)).astype(int)


class _Rows:
    """The rows of weight w of H_i (x) H_j (x) H_k, per triple, numbered by
    tri (the triple of each quadruple, nondecreasing from 0).

    The rows of one weight run by sector of i (x) j, then by basis vector
    ab of that sector, then by basis vector c of k, which lies in the
    sector of k of the remaining weight; on one sector that is the order of
    ab d_k + c.  A grid (sector g of i (x) j, sector h of k) per triple
    holds the place of the first row of g and h among the rows of weight
    w_g + w_h.  Per (triple, weight), by triple then weight: sec_t, sec_w
    and the row count sec_n.
    """

    def __init__(self, sec, quads, tri):
        L, P, n_lab = sec.labels, sec.pairs, len(sec.n_sec)
        self.tri = tri
        head = np.flatnonzero(np.diff(tri, prepend=-1))
        self.ij, self.k = quads[head, 0] * n_lab + quads[head, 1], quads[head, 2]
        n_g = P.first[self.ij + 1] - P.first[self.ij]
        self.n_h = sec.n_sec[self.k]
        self.grid_lo = np.cumsum(n_g * self.n_h) - n_g * self.n_h
        t, x = _each(n_g * self.n_h)
        g, h = np.divmod(x, self.n_h[t])
        g, h = P.first[self.ij[t]] + g, L.first[self.k[t]] + h
        omega, cells = P.weight[g] + L.weight[h], P.size[g] * L.size[h]
        order = np.lexsort((g, omega, t))
        new = np.ones(len(order), dtype=bool)
        new[1:] = (np.diff(t[order]) != 0) | (np.diff(omega[order]) != 0)
        start = np.flatnonzero(new)
        before = np.cumsum(cells[order]) - cells[order]
        self.place = np.empty(len(order), dtype=int)
        self.place[order] = before - np.repeat(before[start],
                                               np.diff(np.append(start, len(order))))
        self.sec_t, self.sec_w = t[order][start], omega[order][start]
        self.sec_n = np.add.reduceat(cells[order], start) if len(start) else start

    def places(self, sec, t0, t1):
        """The place of every row ab d_k + c of the triples t0:t1 among the
        rows of its weight, triple after triple; returns (place, lo), with
        triple t from lo[t - t0] on."""
        L, P = sec.labels, sec.pairs
        ij, k = self.ij[t0:t1], self.k[t0:t1]
        n = P.sizes[ij] * L.sizes[k]
        t, x = _each(n)
        ab, c = np.divmod(x, L.sizes[k][t])
        y, z = P.lo[ij[t]] + ab, L.lo[k[t]] + c
        g, h = P.sector[y], L.sector[z]
        cell = (self.grid_lo[t0 + t] + (g - P.first[ij[t]]) * self.n_h[t0 + t]
                + h - L.first[k[t]])
        return self.place[cell] + P.rank[y] * L.size[h] + L.rank[z], np.cumsum(n) - n


class _Blocks:
    """The blocks (quadruple, sector of H_m), quadruple by quadruple, then
    by sector: quad, sector, and their rows n, size r (of the sector), and
    the left and right path counts p and pp of the quadruple.  Quadruple q
    has count[q] blocks from first[q] on, qp[q] and qpp[q] paths and
    items[q] items of _left and _right.  cost[q] counts the bytes of its U,
    W and G at 32 per entry, of its items at ITEM_BYTES each, and the first
    quadruple of a triple also 64 per row of H_i (x) H_j (x) H_k, for the
    rows' places."""

    def __init__(self, sec, rows, quads, p, pp, items):
        L, m, dims = sec.labels, quads[:, 3], sec.labels.sizes
        self.count = sec.n_sec[m]
        self.first = np.cumsum(self.count) - self.count
        self.qp, self.qpp = p, pp
        self.quad, self.sector = ranges(L.first[m], self.count)
        at = _find(rows.sec_t, rows.sec_w, rows.tri[self.quad], L.weight[self.sector])
        self.n = np.where(at >= 0, rows.sec_n[at], 0)
        self.r, self.p, self.pp = L.size[self.sector], p[self.quad], pp[self.quad]
        cost = self.r * ((self.p + self.pp) * self.n + self.p * self.pp * self.r)
        self.cost = 32 * np.bincount(self.quad, cost, minlength=len(quads)).astype(int)
        self.cost += ITEM_BYTES * items
        head = np.flatnonzero(np.diff(rows.tri, prepend=-1))
        self.cost[head] += 64 * dims[quads[head, 0]] * dims[quads[head, 1]] * dims[quads[head, 2]]


def _cuts(cost, budget):
    """Cut items of the given costs, in order, into runs of at most budget
    (at least one item a run): the run boundaries."""
    total, cuts = np.cumsum(cost), [0]
    while cuts[-1] < len(cost):
        done = total[cuts[-1] - 1] if cuts[-1] else 0
        cuts.append(max(int(np.searchsorted(total, done + budget, side="right")), cuts[-1] + 1))
    return cuts


def _chunks(tri, cost, budget):
    """The quadruples, numbered by triple tri (nondecreasing), in (lo, hi)
    ranges of whole triples whose costs add up to at most budget, or of one
    triple where that alone exceeds it."""
    ends = np.append(np.flatnonzero(np.diff(tri)) + 1, len(tri))
    starts = np.append(0, ends[:-1])
    bounds = starts.tolist() + [len(tri)]
    cuts = _cuts(np.add.reduceat(cost, starts), budget) if len(tri) else [0]
    return [(bounds[a], bounds[b]) for a, b in zip(cuts[:-1], cuts[1:])]


def _chunk(lay, sec, rows, blocks, quads, lo, hi, side):
    """Residuals and F-matrices of the quadruples lo:hi, which cover whole
    triples.  side holds per side (left, right) the (v, w, quad, slot) of
    every path: its two channels, its quadruple (counted from lo) and its
    place among the paths of that quadruple.

    The blocks of U and of W lie one after the other in two flat buffers,
    sorted by (p, p', r, n).  The sector products of the paths are scattered
    into them (_scatter), and the blocks G_w of one shape are one stacked
    product.
    """
    L, dims = sec.labels, lay.dims
    quads, tri = quads[lo:hi], rows.tri[lo:hi]
    m = quads[:, 3]
    qp, qpp = blocks.qp[lo:hi], blocks.qpp[lo:hi]
    B = slice(blocks.first[lo], blocks.first[hi - 1] + blocks.count[hi - 1])
    bq, n, r, p, pp = (x[B] for x in (blocks.quad, blocks.n, blocks.r, blocks.p, blocks.pp))
    bq = bq - lo
    order = np.lexsort((n, r, pp, p))
    offsets, buffers = [], []
    for width in (p, pp):
        z = n * width * r
        off = np.empty(len(z), dtype=int)
        off[order] = np.cumsum(z[order]) - z[order]
        offsets.append(off)
        buffers.append(np.zeros(int(z.sum()), dtype=complex))
    # the block of quadruple q and sector g of its m is block[q] + g
    block = blocks.first[lo:hi] - blocks.first[lo] - L.first[m]
    place, tlo = rows.places(sec, tri[0], tri[-1] + 1)
    tlo = tlo[tri - tri[0]]
    _scatter(lay, sec, place, offsets[0], buffers[0],
             *_left(lay, sec, quads, tlo, block, qp, *side[0]))
    _scatter(lay, sec, place, offsets[1], buffers[1],
             *_right(lay, sec, quads, tlo, block, qpp, *side[1]))
    # G_w = W_w* U_w per block, in groups of equal (p, p', r, n); per class
    # of equal (p, p'), the r-traces of its blocks in block order, which sum
    # to M per quadruple
    classes = list(group_by(qpp, qp))
    cls = np.zeros(hi - lo, dtype=int)
    for c, (_, qs) in enumerate(classes):
        cls[qs] = c
    by_cls = np.argsort(cls[bq], kind="stable")
    at = np.empty(len(bq), dtype=int)
    at[by_cls] = np.arange(len(bq)) - np.searchsorted(cls[bq][by_cls], cls[bq][by_cls])
    traces = [np.zeros((blocks.count[lo + qs].sum(), b, a), dtype=complex)
              for (b, a), qs in classes]
    key = np.stack((p, pp, r, n))[:, order]
    cuts = np.flatnonzero((key[:, 1:] != key[:, :-1]).any(axis=0)) + 1
    heads = order[np.append(0, cuts)]
    products = {}
    for sel, (a, b, rr, nn, u0, w0, c) in zip(np.split(order, cuts), np.stack(
            (p, pp, r, n, offsets[0], offsets[1], cls[bq]))[:, heads].T.tolist()):
        u = buffers[0][u0:u0 + len(sel) * nn * a * rr].reshape(len(sel), nn, a * rr)
        w = buffers[1][w0:w0 + len(sel) * nn * b * rr].reshape(len(sel), nn, b * rr)
        g = bdagger(w) @ u
        # the rr-trace, summed over i in order
        diag = g.reshape(len(sel), b, rr, a, rr).diagonal(axis1=2, axis2=4)
        trace = diag[..., 0]
        for i in range(1, rr):
            trace = trace + diag[..., i]
        traces[c][at[sel]] = trace
        products.setdefault((c, rr), []).append((sel, g))
    M, slot = [], np.zeros(hi - lo, dtype=int)
    for t, (_, qs) in zip(traces, classes):
        count = blocks.count[lo + qs]
        M.append(np.add.reduceat(t, np.cumsum(count) - count, axis=0) / dims[m[qs]][:, None, None])
        slot[qs] = np.arange(len(qs))
    # G_w against M (x) I per class and r, whose blocks share one shape
    res = np.zeros(len(bq))
    for (c, rr), parts in products.items():
        sel, g = (np.concatenate(x) for x in zip(*parts))
        res[sel] = max_abs(g - bkron(M[c][slot[bq[sel]]], frozen_eye(rr)))
    res = np.maximum.reduceat(res, blocks.first[lo:hi] - blocks.first[lo])
    fmats = [None] * (hi - lo)
    for f, ((b, a), qs) in zip(M, classes):
        res[qs] = np.maximum.reduce([res[qs], max_abs(bdagger(f) @ f - eye(a)),
                                     max_abs(f @ bdagger(f) - eye(b))])
        for q, x in zip(qs.tolist(), f):
            fmats[q] = x
    return res, fmats


def _left(lay, sec, quads, tlo, block, width, v, w, q, slot):
    """The items of the left paths for _scatter.

    Item (path, sector s of l) is v_s @ w~_s: v_s holds the rows of weight
    w_s of i (x) j and the columns of sector s of v, and w~_s the rows of
    sector s of w as a d_l x d_k d_m matrix and its columns c d_m + e with
    w_e - w_c = w_s.  Entry (ab, (c, e)) of the product is row (ab, c) and
    column e.
    """
    L, dims = sec.labels, lay.dims
    label = lay.chan_label[v]
    t, s = _each(sec.n_sec[label])
    q, label, dk, m = q[t], label[t], dims[quads[q[t], 2]], quads[q[t], 3]
    return (block[q], m, slot[t], width[q], lay.chan_start[v[t]], dims[label],
            sec.by_target[sec.target[v[t]] + s], L.first[label] + s, lay.chan_start[w[t]],
            dk * dims[m], sec.diffs, sec.by_first[sec.first[w[t]] + s], tlo[q], dk)


def _right(lay, sec, quads, tlo, block, width, v, w, q, slot):
    """The items of the right paths for _scatter.

    Item (path, basis vector a of i, sector s of n) is v_s @ w_a: v_s holds
    the rows of weight w_s of j (x) k and the columns of sector s of v, and
    w_a the rows a d_n + (sector s) of w and its columns of weight w_a +
    w_s.  Entry (bc, e) of the product is row a d_j d_k + bc and column e.
    The items are the runs of one a in the sectors (i,m) of diffs of weight
    w_s.
    """
    L, dims = sec.labels, lay.dims
    label = lay.chan_label[v]
    t, s = _each(sec.n_sec[label])
    gC = sec.by_second[sec.second[w[t]] + s]
    t, s, gC = t[gC >= 0], s[gC >= 0], gC[gC >= 0]
    x, run = ranges(sec.run_first[gC], sec.run_first[gC + 1] - sec.run_first[gC])
    t, s, a = t[x], s[x], sec.run_a[run]
    q, label = q[t], label[t]
    i, j, k, m = quads[q].T
    dn, dm = dims[label], dims[m]
    e = sec.diffs.pos[sec.run_start[run]] % dm
    return (block[q], m, slot[t], width[q], lay.chan_start[v[t]], dn,
            sec.by_target[sec.target[v[t]] + s], L.first[label] + s,
            lay.chan_start[w[t]] + a * dn * dm, dm, L, L.sector[L.lo[m] + e],
            tlo[q] + a * dims[j] * dims[k], np.ones(len(q), dtype=int))


def _scatter(lay, sec, place, off, out, block, m, slot, width, a_start, a_cols, gR, gX,
             b_start, b_step, cols, gC, p_start, p_step):
    """Scatter the products A @ B of the items into their blocks (at off in
    the flat buffer out), in stacks of one shape.

    Per item: A holds the rows of sector gR of pairs and the columns of
    sector gX of labels of the isometry at a_start (a_cols columns), and B
    the rows at b_start + b_step x, x in sector gX, and the columns of
    sector gC of cols of its isometry.  Entry (ab, y) of A @ B, y = c d_m +
    e, is row p_start + ab p_step + c of the rows' places, and column
    slot r + the place of e in its sector of m (of size r), of the block of
    that sector.  Items with gR or gC -1 have no product.  The items run in
    batches whose index work fits a quarter of CHUNK_BYTES, counted at 64
    bytes per row, inner index and column and 32 per entry of A, B and
    A @ B.
    """
    L, P = sec.labels, sec.pairs
    keep = np.flatnonzero((gR >= 0) & (gC >= 0))
    nR, nX, nC = P.size[gR[keep]], L.size[gX[keep]], cols.size[gC[keep]]
    order = np.lexsort((nC, nX, nR))
    keep, nR, nX, nC = keep[order], nR[order], nX[order], nC[order]
    cuts = _cuts(64 * (nR + nX + nC) + 32 * (nR * nX + nX * nC + nR * nC), CHUNK_BYTES // 4)
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        t, x = _each(nR[lo:hi])
        t = keep[lo:hi][t]
        pos = P.pos[P.start[gR[t]] + x]
        a_row, p_row = a_start[t] + pos * a_cols[t], p_start[t] + pos * p_step[t]
        t, x = _each(nX[lo:hi])
        t = keep[lo:hi][t]
        a_col = L.pos[L.start[gX[t]] + x]
        b_row = b_start[t] + a_col * b_step[t]
        t, x = _each(nC[lo:hi])
        t = keep[lo:hi][t]
        b_col = cols.pos[cols.start[gC[t]] + x]
        c, e = np.divmod(b_col, lay.dims[m[t]])
        e = L.lo[m[t]] + e
        g = L.sector[e]
        r = L.size[g]
        d_col, d_mul = off[block[t] + g] + slot[t] * r + L.rank[e], width[t] * r
        # per group of one shape: its items and where its rows, inner
        # indices and columns start
        new = np.flatnonzero((np.diff(nR[lo:hi]) != 0) | (np.diff(nX[lo:hi]) != 0)
                             | (np.diff(nC[lo:hi]) != 0)) + 1
        first = np.append(0, new)
        shape = np.stack((nR[lo:hi][first], nX[lo:hi][first], nC[lo:hi][first]), axis=1)
        count = np.diff(np.append(first, hi - lo))
        ends = np.cumsum(shape * count[:, None], axis=0)
        for (R, X, C), N, (r1, x1, c1), (r0, x0, c0) in zip(
                shape.tolist(), count.tolist(), ends.tolist(),
                np.vstack(([0, 0, 0], ends[:-1])).tolist()):
            A = lay.chan_flat[a_row[r0:r1].reshape(N, R, 1) + a_col[x0:x1].reshape(N, 1, X)]
            Bm = lay.chan_flat[b_row[x0:x1].reshape(N, X, 1) + b_col[c0:c1].reshape(N, 1, C)]
            dest = (d_col[c0:c1].reshape(N, 1, C) + d_mul[c0:c1].reshape(N, 1, C)
                    * place[p_row[r0:r1].reshape(N, R, 1) + c[c0:c1].reshape(N, 1, C)])
            out[dest] = A @ Bm
