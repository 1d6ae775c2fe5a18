"""The F-move certificate of a fusion layout, by weight sectors.

For an admissible triple (i,j,k) and a label m, U stacks (v (x) I_k) w over
the left paths i (x) j -> l, l (x) k -> m, and W stacks (I_i (x) v') w' over
the right paths j (x) k -> n, i (x) n -> m, both in channel order.  The two
bracketings of Delta agree on all of B(H_m) exactly when G = W* U =
M (x) I_{d_m} with M unitary; M is the F-matrix, or 6j symbol.

Every isometry conserves the weights of the layout (grading.py; one weight,
0, without a grading), so it is block-diagonal over them, and so is G:
G_w = W_w* U_w pairs the rows of weight w of H_i (x) H_j (x) H_k with the
r_w basis vectors of weight w of H_m, and the certificate is
G_w = M (x) I_{r_w} for every w, with M the sum of their r_w-traces over d_m.

Each call cuts every channel's isometry into sector blocks once, in the
three forms that a path reads (_Cut); a path product is a block of its first
factor times the block of its second factor of the same weight of the middle
label, scattered once into U or W.  Without a grading each is one block.
"""
from __future__ import annotations

import numpy as np

from .grading import pair_weights
from . import linalg
from .linalg import bdagger, bkron, distinct, eye, frozen_eye, group_by, max_abs, ranges, walk


def certificate(lay):
    """(triples, quads, residual, F) of the layout lay: see FusionLayout.fmoves."""
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
    plan = _Plan(lay, quads, np.cumsum(np.diff(quad_key // n_lab, prepend=-1) != 0) - 1,
                 [(v, w, np.searchsorted(quad_key, key)) for (_, v, w), key in zip(sides, keys)])
    res, fmats = np.zeros(len(quads)), [None] * len(quads)
    for lo, hi in walk(plan.cost, plan.room, plan.tri):
        res[lo:hi], fmats[lo:hi] = plan.chunk(lo, hi)
    return triples, quads, res, fmats


class _Sectors:
    """The weight sectors of a family of spaces: basis vector x of space s,
    of sizes[s], is number lo[s] + x, of weight w[lo[s] + x].  A sector is one
    weight of one space, numbered by space, then weight, the n[s] of space s
    from first[s] on.  Sector g holds the size[g] basis vectors
    pos[start[g]:start[g] + size[g]], in increasing order, of space[g], of
    weight weight[g]; number y lies in sector[y] at place rank[y], and order
    lists them sector by sector."""

    def __init__(self, sizes, w):
        self.sizes, self.lo = sizes, np.cumsum(sizes) - sizes
        space = np.repeat(np.arange(len(sizes)), sizes)
        self.order = order = np.lexsort((w, space))
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
        self.n = np.diff(self.first)

    def find(self, space, weight):
        """The sector of weight weight[x] of space[x], or -1 if there is none."""
        if not len(self.space):
            return np.full(len(space), -1)
        lo, span = self.weight.min(), self.weight.max() - self.weight.min() + 1
        key = self.space * span + (self.weight - lo)
        inside = (weight >= lo) & (weight < lo + span)
        want = space * span + np.where(inside, weight - lo, 0)
        at = np.minimum(np.searchsorted(key, want), len(key) - 1)
        return np.where(inside & (key[at] == want), at, -1)


class _Cut:
    """Sector blocks of the channels' isometries.  Block b of channel c[b]
    (those of c from first[c] on, count[c] of them) runs along axis x over
    the size[x][b] basis vectors pos of sector g[x][b] of the family S, in
    order; its entry there is chan_flat[chan_start[c[b]] + sum over x of
    pos * stride[x]].  It has n[b] entries and is stacks[shape[b]][slot[b]]
    reshaped to forms[shape[b]]: a whole isometry in its layout stack, the
    other blocks gathered at once per shape; shape -1 where a sector is -1.
    """

    def __init__(self, lay, S, c, g, stride):
        self.count = np.bincount(c, minlength=len(lay.chan_start))
        self.first, self.c, self.g = np.cumsum(self.count) - self.count, c, g
        self.size = size = [np.where(x >= 0, S.size[x], 0) for x in g]
        self.n = n = np.prod(size, axis=0)
        whole = n == lay.pair_size[lay.chan_pair[c]] * lay.dims[lay.chan_label[c]]
        code = np.ravel_multi_index(size, [int(z.max(initial=0)) + 1 for z in size])
        code = np.where(whole, (lay.chan_shape[c] + 1) * (int(code.max(initial=0)) + 1), 0) + code
        order = np.flatnonzero(n)
        order = order[np.argsort(code[order], kind="stable")]
        part = order[~whole[order]]
        t, e = ranges(np.zeros(len(part), dtype=int), n[part])
        at = lay.chan_start[c[part]][t]
        for x, z, st in zip(g[::-1], size[::-1], stride[::-1]):
            e, y = np.divmod(e, z[part][t])
            at += S.pos[S.start[x[part]][t] + y] * (st if np.isscalar(st) else st[part][t])
        new = np.diff(code[order], prepend=-1) != 0
        self.shape, self.slot = np.full(len(c), -1), np.zeros(len(c), dtype=int)
        self.shape[order], new = np.cumsum(new) - 1, np.flatnonzero(new)
        self.slot[order] = np.where(whole[order], lay.chan_slot[c[order]],
                                    np.arange(len(order)) - new[self.shape[order]])
        ends, flat = np.cumsum(n[order] * ~whole[order]), lay.chan_flat[at]
        self.forms = [tuple(z[order[b]] for z in size) for b in new.tolist()]
        self.stacks = [lay.chan_stacks[lay.chan_shape[c[order[b]]]] if whole[order[b]]
                       else flat[ends[b] - n[order[b]]:ends[e - 1]].reshape((e - b,) + form)
                       for b, e, form in zip(new.tolist(), new[1:].tolist() + [len(order)],
                                             self.forms)]


class _Plan:
    """What the chunks of one certificate read: the sectors S of the labels
    (space x for label x) and of every H_i (x) H_j by w_a + w_b (space
    N + pair) and by w_b - w_a (space N + N^2 + pair); the cuts (those of
    second factors without empty blocks); per side the paths (v, w) by
    quadruple, count[q] from start[q] on; per quadruple (triple tri) one
    block per sector of H_m from bfirst[q] on, n rows by r columns a path.
    The rows of weight w of H_i (x) H_j (x) H_k run by sector g of i (x) j,
    by basis vector ab of g, by c in the sector h of k of the rest of w (on
    one sector, ab d_k + c); a grid (g, h) per triple holds the place of
    its first row among those of w."""

    def __init__(self, lay, quads, tri, sides):
        dims, n_lab = lay.dims, len(lay.dims)
        self.lay, self.tri = lay, tri
        self.qi, self.qj, self.qk, self.qm = quads.T
        total, diff = pair_weights(lay)
        self.S = S = _Sectors(np.concatenate((dims, lay.pair_size, lay.pair_size)),
                              np.concatenate(lay.weights + [total, diff]))
        i, j = np.divmod(lay.chan_pair, n_lab)
        k = lay.chan_label
        # per sector s of k: the rows of weight w_s and the columns of s
        c, s = ranges(S.first[k], S.n[k])
        self.first = _Cut(lay, S, c, [S.find(n_lab + lay.chan_pair[c], S.weight[s]), s],
                          [dims[k[c]], 1])
        # as a d_l x d_k d_m matrix, per sector s of l: the rows of s and the
        # columns c d_m + e with w_e - w_c = w_s
        c, s = ranges(S.first[i], S.n[i])
        g = S.find(n_lab * (n_lab + 1) + j[c] * n_lab + k[c], S.weight[s])
        c, s, g = c[g >= 0], s[g >= 0], g[g >= 0]
        self.left = _Cut(lay, S, c, [s, g], [dims[j[c]] * dims[k[c]], 1])
        # per sector a of i and s of n: the rows a d_n + (s), stacked over a,
        # and the columns of weight w_a + w_s
        c, x = ranges(np.zeros(len(k), dtype=int), S.n[i] * S.n[j])
        a, s = S.first[i[c]] + x // S.n[j[c]], S.first[j[c]] + x % S.n[j[c]]
        g = S.find(k[c], S.weight[a] + S.weight[s])
        c, a, s, g = c[g >= 0], a[g >= 0], s[g >= 0], g[g >= 0]
        self.right = _Cut(lay, S, c, [a, s, g], [dims[j[c]] * dims[k[c]], dims[k[c]], 1])
        orders = [np.argsort(quad, kind="stable") for _, _, quad in sides]
        counts = [np.bincount(quad, minlength=len(quads)) for _, _, quad in sides]
        self.paths = [(v[o], w[o], c, np.cumsum(c) - c)
                      for (v, w, _), o, c in zip(sides, orders, counts)]
        # the rows' grid per triple, and per cell its place
        head = np.flatnonzero(np.diff(tri, prepend=-1))
        self.ij, self.k = n_lab + quads[head, 0] * n_lab + quads[head, 1], quads[head, 2]
        n_g, self.n_h = S.n[self.ij], S.n[self.k]
        self.grid_lo = np.cumsum(n_g * self.n_h) - n_g * self.n_h
        t, x = ranges(np.zeros(len(head), dtype=int), n_g * self.n_h)
        g, h = S.first[self.ij[t]] + x // self.n_h[t], S.first[self.k[t]] + x % self.n_h[t]
        W = _Sectors(n_g * self.n_h, S.weight[g] + S.weight[h])
        cells = (S.size[g] * S.size[h])[W.order]
        before = np.cumsum(cells) - cells
        self.place = np.empty(len(cells), dtype=int)
        self.place[W.order] = before - before[W.start][W.sector[W.order]]
        # the blocks of every quadruple
        self.count = S.n[self.qm]
        self.bfirst = np.cumsum(self.count) - self.count
        bq, h = ranges(S.first[self.qm], self.count)
        at = W.find(tri[bq], S.weight[h])
        n = np.add.reduceat(cells, W.start) if len(cells) else cells
        self.n, self.r = np.where(at >= 0, n[np.maximum(at, 0)], 0), S.size[h]
        self.cost, self.room = self._cost(bq, head)

    def _cost(self, bq, head):
        """(cost, room): cost[t, q] is what quadruple q holds in phase t of
        its chunk, 16 bytes a complex and 8 an integer entry of the arrays of
        chunk and _scatter: U, W, 24 integers a block and the rows' places
        throughout, and in turn 11 integers a row while the places are found;
        14 integers an item of _scatter and 12 a column of a left or 8 a row
        of a right one; G with its traces, concatenation, M (x) I,
        difference, moduli and M with its checks.  The batches of path
        products of phase t get what its chunk leaves, at least room[t]: the
        largest path of any quadruple, its gathered blocks, products and
        indices."""
        lay, S, n_q = self.lay, self.S, len(self.qm)
        (v, w, p, p0), (vv, ww, pp, pp0) = self.paths
        one = np.bincount(bq, self.n * self.r, minlength=n_q).astype(int)  # a path's U or W
        rows = np.zeros(n_q, dtype=int)
        rows[head] = S.sizes[self.ij] * S.sizes[self.k]
        i, (f, l, r) = lay.chan_pair[ww] // len(lay.dims), (
            lambda x, c=cut.c: np.bincount(c, x, minlength=len(lay.chan_label)).astype(int)
            for cut in (self.first, self.left, self.right))  # x summed per channel

        def per_quad(start, count, x):  # x summed over the paths of each quadruple
            total = np.concatenate(([0], np.cumsum(x)))
            return total[start + count] - total[start]

        left = per_quad(p0, p, 112 * self.left.count[w] + 96 * l(self.left.size[1])[w])
        right = per_quad(pp0, pp, 112 * self.right.count[ww]
                         + 64 * lay.dims[i] * f(self.first.size[0])[vv])
        g = np.bincount(bq, 88 * (p * pp)[bq] * self.r ** 2, minlength=n_q).astype(int)

        room = [0, 24 * np.repeat(one, p) + 16 * (f(self.first.n)[v] + l(self.left.n)[w]),
                24 * np.repeat(one, pp) + 16 * (S.n[i] * f(self.first.n)[vv] + r(self.right.n)[ww]),
                0]
        return 16 * (p + pp) * one + 192 * self.count + 8 * rows + np.array(
            (88 * rows, left, right, g + 64 * (p * p + pp * pp) + 16 * p * pp)), np.array(
                [np.max(x, initial=0) for x in room])

    def chunk(self, lo, hi):
        """Residuals and F-matrices of the quadruples lo:hi, whole triples: the
        blocks of U and of conj(W) lie in two flat buffers by (p, p', r, n)."""
        S, dims, count = self.S, self.lay.dims, self.count[lo:hi]
        # what the batches of each phase find held: a chunk of one triple
        # that overruns the budget still leaves them the room
        held = np.minimum(self.cost[:, lo:hi].sum(1), linalg.CHUNK_BYTES - self.room)
        tri, m = self.tri[lo:hi], self.qm[lo:hi]
        qp, qpp = (c[lo:hi] for _, _, c, _ in self.paths)
        bq = np.repeat(np.arange(hi - lo), count)
        B = slice(self.bfirst[lo], self.bfirst[lo] + len(bq))
        n, r, p, pp = self.n[B], self.r[B], qp[bq], qpp[bq]
        order = np.lexsort((n, r, pp, p))
        sizes = [n * p * r, n * pp * r]
        offsets = [np.empty(len(bq), dtype=int), np.empty(len(bq), dtype=int)]
        for off, z in zip(offsets, sizes):
            off[order] = np.cumsum(z[order]) - z[order]
        buffers = [np.zeros(int(z.sum()), dtype=complex) for z in sizes]
        bfirst = self.bfirst[lo:hi] - self.bfirst[lo]
        # the place of every row ab d_k + c of the chunk's triples among the
        # rows of its weight, triple t from tlo[t] on
        ij, k = self.ij[tri[0]:tri[-1] + 1], self.k[tri[0]:tri[-1] + 1]
        t, x = ranges(np.zeros(len(k), dtype=int), S.sizes[ij] * S.sizes[k])
        y, z = S.lo[ij[t]] + x // S.sizes[k][t], S.lo[k[t]] + x % S.sizes[k][t]
        place = self.place[self.grid_lo[tri[0] + t] + (S.sector[y] - S.first[ij[t]])
                           * self.n_h[tri[0] + t] + S.sector[z] - S.first[k[t]]]
        place += S.rank[y] * S.size[S.sector[z]] + S.rank[z]
        tlo = np.cumsum(S.sizes[ij] * S.sizes[k]) - S.sizes[ij] * S.sizes[k]
        for side in (0, 1):
            self._scatter(side, lo, hi, buffers[side], offsets[side], bfirst - S.first[m],
                          (qp, qpp)[side], place, tlo[tri - tri[0]], held[1 + side])
        # per class of equal (p, p'), the r-traces of its blocks in block
        # order (block b at at[b]), which sum to M per quadruple
        classes = list(group_by(qpp, qp))
        cls, slot, tfirst = (np.zeros(hi - lo, dtype=int) for _ in range(3))
        for c, (_, qs) in enumerate(classes):
            cls[qs], slot[qs], tfirst[qs] = c, np.arange(len(qs)), np.cumsum(count[qs]) - count[qs]
        at = tfirst[bq] + np.arange(len(bq)) - bfirst[bq]
        traces = [np.zeros((count[qs].sum(), b, a), dtype=complex) for (b, a), qs in classes]
        key = np.stack((p, pp, r, n))[:, order]
        cuts = np.flatnonzero(np.diff(key, axis=1, prepend=-1).any(axis=0)).tolist() + [len(bq)]
        products = {}
        for b0, b1, (a, b, rr, nn, u0, w0, c) in zip(cuts[:-1], cuts[1:], np.stack(
                (p, pp, r, n, offsets[0], offsets[1], cls[bq]))[:, order[cuts[:-1]]].T.tolist()):
            sel = order[b0:b1]
            u = buffers[0][u0:u0 + len(sel) * nn * a * rr].reshape(len(sel), nn, a * rr)
            w = buffers[1][w0:w0 + len(sel) * nn * b * rr].reshape(len(sel), nn, b * rr)
            g = w.swapaxes(1, 2) @ u  # W* U, W's entries conjugate in its buffer
            traces[c][at[sel]] = np.einsum("qbiai->qba", g.reshape(len(sel), b, rr, a, rr))
            products.setdefault((c, rr), []).append((sel, g))
        M = [np.add.reduceat(t, tfirst[qs], axis=0) / dims[m[qs]][:, None, None]
             for t, (_, qs) in zip(traces, classes)]
        # G_w against M (x) I per class and r, whose blocks share one shape
        res = np.zeros(len(bq))
        for (c, rr), parts in products.items():
            sel, g = (np.concatenate(x) for x in zip(*parts))
            res[sel] = max_abs(g - bkron(M[c][slot[bq[sel]]], frozen_eye(rr)))
        res, fmats = np.maximum.reduceat(res, bfirst), [None] * (hi - lo)
        for f, ((b, a), qs) in zip(M, classes):
            res[qs] = np.maximum.reduce([res[qs], max_abs(bdagger(f) @ f - eye(a)),
                                         max_abs(f @ bdagger(f) - eye(b))])
            for q, x in zip(qs.tolist(), f):
                fmats[q] = x
        return res, fmats

    def _scatter(self, side, lo, hi, out, off, block, width, place, tlo, held):
        """Scatter the path products of one side (0 left, 1 right) of the
        quadruples lo:hi into out, where quadruple lo + q has width[q] paths,
        rows from tlo[q] on in place and the block of sector h of its m at
        off[block[q] + h].  An item is a path and a block X x C of its second
        factor (on the right stacked over the a of a sector of i); its product
        is the path's first-factor block R x X of that sector of the middle
        label times it, entry (rho, c d_m + e) going to row (ab, c), column e
        on the left, entry (a, rho, e) to row a d_j d_k + bc on the right,
        conjugate.  The items run in batches within CHUNK_BYTES beside the
        held bytes."""
        S, dims, first, second = self.S, self.lay.dims, self.first, (self.left, self.right)[side]
        v, w, count, start = self.paths[side]
        q = np.repeat(np.arange(hi - lo), count[lo:hi])
        v, w = v[start[lo]:start[lo] + len(q)], w[start[lo]:start[lo] + len(q)]
        slot = np.arange(len(q)) - (start[lo:hi] - start[lo])[q]
        x, B = ranges(second.first[w], second.count[w])
        A = (first.first[v] - S.first[self.lay.chan_label[v]])[x] + second.g[side][B]
        keep = np.flatnonzero(first.shape[A] >= 0)
        code = (first.shape[A] * len(second.stacks) + second.shape[B])[keep]
        keep = keep[np.argsort(code, kind="stable")]
        code, A, B, q, slot = code[keep], A[keep], B[keep], q[x[keep]], slot[x[keep]]
        R, C, alpha = first.size[0][A], second.size[-1][B], second.size[0][B] if side else 1
        k, m, tri = self.qk[lo + q], self.qm[lo + q], self.tri[lo + q]
        if side == 0:
            # per column y = (c, e): U holds entry (rho, y) at col + rho step
            t, z = ranges(S.start[second.g[1][B]], C)
            z, dm = S.pos[z], dims[m][t]
            c, e = S.lo[k][t] + z // dm, S.lo[m][t] + z % dm
            h, r = S.sector[c], S.size[S.sector[e]]
            z = self.place[(self.grid_lo[tri] + (first.g[0][A] - S.first[self.ij[tri]])
                            * self.n_h[tri] - S.first[k])[t] + h] + S.rank[c]
            step = width[q][t] * r
            col = off[block[q][t] + S.sector[e]] + slot[t] * r + S.rank[e] + step * z
            step *= S.size[h]
        else:
            # per row (a, rho): W holds entry (a, rho, e) at row + col + e
            t, z = ranges(np.zeros(len(A), dtype=int), alpha * R)
            a, z = np.divmod(z, R[t])
            z = (S.pos[S.start[second.g[0][B]][t] + a] * (dims[self.qj[lo + q]] * dims[k])[t]
                 + S.pos[S.start[first.g[0][A]][t] + z])
            row = (width[q] * C)[t] * place[tlo[q][t] + z]
            col = off[block[q] + second.g[2][B]] + slot * C
        # in batches of one shape within what the chunk leaves beside held:
        # the gathered blocks, products and indices
        cuts = _bounds(16 * (first.n[A] + second.n[B]) + 24 * alpha * R * C, held,
                       np.diff(code, prepend=-1) != 0)
        at = np.cumsum(np.append(0, alpha * R if side else C))[cuts].tolist()
        heads, fa, sb = cuts[:-1], first.slot[A], second.slot[B]
        for b, (i0, i1, f, s) in enumerate(zip(heads, cuts[1:], first.shape[A[heads]].tolist(),
                                               second.shape[B[heads]].tolist())):
            f = first.stacks[f][fa[i0:i1]].reshape((i1 - i0,) + first.forms[f])
            s = second.stacks[s][sb[i0:i1]].reshape((i1 - i0,) + second.forms[s])
            prod = f[:, None] @ s.reshape(i1 - i0, -1, f.shape[2], s.shape[-1])
            N, al, rr, cc = prod.shape
            if side == 0:
                dest = np.arange(rr)[:, None] * step[at[b]:at[b + 1]].reshape(N, 1, 1, cc)
                dest += col[at[b]:at[b + 1]].reshape(N, 1, 1, cc)
            else:
                dest = (row[at[b]:at[b + 1]].reshape(N, al, rr, 1)
                        + (col[i0:i1, None] + np.arange(cc)).reshape(N, 1, 1, cc))
                np.conjugate(prod, out=prod)  # W holds conj(W), so G reads W* as a view
            out[dest] = prod


def _bounds(size, held, new) -> list[int]:
    """The bounds of the batches of items in order that hold size[x] bytes
    each: a batch starts where new is true and where the walk within
    CHUNK_BYTES beside the held bytes starts one."""
    cuts = {lo for lo, _ in walk(size, held)}.union(np.flatnonzero(new).tolist())
    return sorted(cuts) + [len(size)]
