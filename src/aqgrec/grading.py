"""Weight gradings: an integer weight per basis vector of each H_i.

A bundle may declare a grading (CategoryBundle.weights).  It is certified
when the fusion layout is built (certify_grading): every isometry,
conjugate-pair and braiding entry off its sector must be exactly 0, so that
the isometries conserve weight and the grading is a grouplike of the
reconstructed algebra.  A bundle without a grading has one weight, 0,
throughout (FusionLayout.weights).  The F-move certificate reads the
grading by sectors (sectors.py).
"""
from __future__ import annotations

import numpy as np

from .errors import BundleSyntaxError, GradingError, ShapeError
from .linalg import Array, ranges


# weights stay below this in magnitude, so that sums of three of them and
# the sector keys that sectors.py searches fit in 64 bits
_WEIGHT_LIMIT = 2 ** 31


def weights_of(b) -> list[Array]:
    """Per label number, the weight of each basis vector: b.weights, checked
    for shape and type."""
    if not isinstance(b.weights, dict) or set(b.weights) != set(b.labels):
        raise BundleSyntaxError("weights must map every label to a list")
    out = []
    for k in b.labels:
        w = b.weights[k]
        if not isinstance(w, (list, tuple, np.ndarray)) or any(
                isinstance(x, bool) or not isinstance(x, (int, np.integer))
                or not -_WEIGHT_LIMIT < x < _WEIGHT_LIMIT for x in w):
            raise BundleSyntaxError(
                f"weights of {k!r} must be a list of integers of magnitude below 2^31")
        if len(w) != b.dims[k]:
            raise ShapeError(f"weights of {k!r}: {len(w)} entries for dimension {b.dims[k]}")
        out.append(np.array(w, dtype=np.int64))
    return out


def pair_weights(lay):
    """The basis vectors a d_j + b of every H_i (x) H_j, pair after pair in
    the layout's pair order, weighted by w_a + w_b and by w_b - w_a."""
    dims, n_lab = lay.dims, len(lay.dims)
    w = np.concatenate(lay.weights)
    lo = np.cumsum(dims) - dims
    p, x = ranges(np.zeros(n_lab * n_lab, dtype=int), lay.pair_size)
    i, j = np.divmod(p, n_lab)
    a, b = np.divmod(x, dims[j])
    wa, wb = w[lo[i] + a], w[lo[j] + b]
    return wa + wb, wb - wa


def certify_grading(b, lay) -> None:
    """Raise GradingError at the first isometry, conjugate-pair or braiding
    entry that lies off its weight sector and is not exactly 0."""
    lab, w = b.labels, lay.weights
    pair_w, _ = pair_weights(lay)
    pair_lo = np.cumsum(lay.pair_size) - lay.pair_size

    def pair(i, j):  # the weights of H_i (x) H_j
        p = lay.pair_index[(i, j)]
        return pair_w[pair_lo[p]:pair_lo[p] + lay.pair_size[p]]

    # the channel, row and column of every nonzero isometry entry
    nz = np.flatnonzero(lay.chan_flat)
    by_start = np.argsort(lay.chan_start, kind="stable")
    c = by_start[np.searchsorted(lay.chan_start[by_start], nz, side="right") - 1]
    r, x = np.divmod(nz - lay.chan_start[c], lay.dims[lay.chan_label[c]])
    w_lo = np.cumsum(lay.dims) - lay.dims
    bad = np.flatnonzero(pair_w[pair_lo[lay.chan_pair[c]] + r]
                         != np.concatenate(w)[w_lo[lay.chan_label[c]] + x])
    if bad.size:
        at = bad[np.lexsort((nz[bad], c[bad]))[0]]
        (i, j), k = lay.pairs[lay.chan_pair[c[at]]], lab[lay.chan_label[c[at]]]
        raise GradingError(f"fusion({i},{j}->{k}): entry ({r[at]}, {x[at]}) lies off its "
                           "weight sector")
    for i in lab:
        for name, v, ws in (("r", b.conj[i][0], pair(b.dual[i], i)),
                            ("rbar", b.conj[i][1], pair(i, b.dual[i]))):
            bad = np.flatnonzero((ws != 0) & (v != 0))
            if bad.size:
                raise GradingError(f"conj({i}).{name}: entry {bad[0]} lies off its "
                                   "weight sector")
    for (i, j), c in (b.braiding or {}).items():
        bad = np.argwhere((pair(j, i)[:, None] != pair(i, j)[None, :]) & (c != 0))
        if bad.size:
            raise GradingError(f"braiding({i},{j}): entry ({bad[0][0]}, {bad[0][1]}) lies "
                               "off its weight sector")
