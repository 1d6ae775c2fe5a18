"""Reconstruction of the discrete algebraic quantum group attached to a
bundle: the block algebra A, comultiplication, counit, antipode, the
positive element f, Haar functionals, modular data, and the numerical
verification suite for the multiplier-Hopf-*-algebra axioms.

Elements of A are finitely supported block maps i -> B(H_i), handled in
batches: a batch of n elements maps each block size d to an array (labels of
size d, n, d, d), whose row layout.block_of[i] holds label i, zero where an
element has no block.  Elements of A (x) A are block maps (i,j) ->
B(H_i (x) H_j) on a list of pairs, handled as one stack (pairs, n, D, D) per
class of pairs of equal (d_i, d_j) (_pair_classes).  The sample axis comes
after the block axis, so every planned product runs once per batch.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bundle import CategoryBundle, validate_bundle
from .errors import ConjInconsistent, InconsistentSolve, InvalidBundle
from .linalg import (
    CHUNK_BYTES,
    DEFAULT_TOL,
    Array,
    Tolerance,
    add_in_order,
    add_planned,
    bdagger,
    bkron,
    dagger,
    frozen_eye,
    group_by,
    max_abs,
    order_plan,
    plan_entries,
    ranges,
    residual,
    slots,
    split_by,
    worst,
)
from .report import Report


# ---------------------------------------------------------------------------
# the reconstructed quantum group


@dataclass
class Aqg:
    bundle: CategoryBundle
    F: dict[str, Array]
    Finv: dict[str, Array]
    haar_weights: dict[str, float]
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def labels(self) -> list[str]:
        return self.bundle.labels

    def d(self, i: str) -> int:
        return self.bundle.d(i)

    def total_dim(self) -> int:
        return sum(self.d(i) ** 2 for i in self.labels)

    def random_batch(self, rng, n: int, k: int = 1, support=None) -> list[dict]:
        """k batches of n random elements with blocks on support (every
        label by default).  Sample t draws its k elements in turn, and each
        element its blocks in support order, a block as a d x d standard
        normal real part and then imaginary part; all in one call of rng,
        which yields the same numbers as drawing them one block at a time."""
        lay = self.bundle.layout
        at = np.array([lay.label_index[i] for i in support or self.labels], dtype=int)
        size = 2 * lay.dims[at] ** 2
        start = np.cumsum(size) - size
        flat = rng.standard_normal(n * k * int(size.sum())).reshape(n, k, -1)
        out = [_zero_batch(lay, n) for _ in range(k)]
        for d, sel in split_by(lay.dims[at]):
            x = flat[:, :, start[sel, None] + np.arange(2 * d * d)]
            x = x.reshape(n, k, len(sel), 2, d, d)
            m = (x[:, :, :, 0] + 1j * x[:, :, :, 1]).transpose(1, 2, 0, 3, 4)
            for batch, blocks in zip(out, m):
                batch[d][lay.block_of[at[sel]]] = blocks
        return out

    # conjugate-pair matrices, used by the antipode formulas
    def _rmat(self, i: str) -> Array:
        r, _ = self.bundle.conj[i]
        return r.reshape(self.d(self.bundle.dual[i]), self.d(i))

    def _rbarmat(self, i: str) -> Array:
        _, rbar = self.bundle.conj[i]
        return rbar.reshape(self.d(i), self.d(self.bundle.dual[i]))

    def export(self) -> dict:
        """JSON-ready structure dump: dims, F blocks, Haar weights."""
        return {
            "labels": list(self.labels),
            "unit": self.bundle.unit,
            "closed": self.bundle.closed,
            "block_dims": {i: self.d(i) for i in self.labels},
            "total_dim": self.total_dim(),
            "haar_weights": {i: float(self.haar_weights[i]) for i in self.labels},
            "f_blocks": {
                i: [[float(z.real), float(z.imag)] for z in self.F[i].reshape(-1)]
                for i in self.labels
            },
        }


def unit_index(q: Aqg, i: str) -> Array:
    """Positions of the matrix units of B(H_i) in the basis of A: entry
    [p, s] is the index of E^i_ps.  The blocks follow label order and each
    is row-major, so a coefficient vector v holds a's block i as
    v[unit_index(q, i)]."""
    lay = q.bundle.layout
    n = lay.label_index[i]
    start = int(np.sum(lay.dims[:n] ** 2))
    d = int(lay.dims[n])
    return np.arange(start, start + d * d).reshape(d, d)


def f_element(b: CategoryBundle, tol: Tolerance = DEFAULT_TOL):
    """Extract the positive blocks F_i (and inverses) from the conjugate pairs.

    r_i encodes an antilinear J via its matrix R (r = sum_m J e_m (x) e_m)
    and rbar_i its partner Rbar.  The conjugate equations say Rbar =
    conj(R^-1), checked as the zigzag products conj(Rbar) R = I and
    R conj(Rbar) = I; then F_i = (J*J)^-1 = Rbar Rbar*, with no inversion.
    A pair that fails either product is inconsistent; so is a J*J whose
    condition number reaches 1/eps, and the error names it.
    """
    F, Finv = {}, {}
    bound = tol.bound(1.0) * 100
    for i in b.labels:
        ib = b.dual[i]
        di, dib = b.d(i), b.d(ib)
        r, rbar = b.conj[i]
        rm = r.reshape(dib, di)
        rbm = rbar.reshape(di, dib)
        if not (residual(rbm.conj() @ rm, np.eye(di)) <= bound
                and residual(rm @ rbm.conj(), np.eye(dib)) <= bound):
            raise ConjInconsistent(
                f"rbar for label {i} does not match the inverse of r"
            )
        jstarj = rm.T @ rm.conj()
        Finv[i] = (jstarj + dagger(jstarj)) / 2.0
        f = rbm @ dagger(rbm)
        F[i] = (f + dagger(f)) / 2.0
        cond = np.linalg.cond(Finv[i])
        if not cond * np.finfo(float).eps < 1:
            raise ConjInconsistent(
                f"F for label {i} is beyond double precision: J*J has "
                f"condition number {cond:.3e}")
    return F, Finv


def reconstruct(
    b: CategoryBundle, tol: Tolerance = DEFAULT_TOL, validate: bool = True
) -> Aqg:
    """Build the discrete quantum group over a bundle.

    Validates the bundle, extracts f, fixes the Haar weights w_i = Tr F_i,
    and spot-checks left invariance of the weighted-trace Haar ansatz on
    two seeded samples before returning.
    """
    if validate:
        vrep = validate_bundle(b, tol)
        if not vrep.passed:
            raise InvalidBundle(vrep)
    F, Finv = f_element(b, tol)
    weights = {}
    for i in b.labels:
        w = float(np.trace(F[i]).real)
        winv = float(np.trace(Finv[i]).real)
        if not (w > 0 and abs(w - winv) <= tol.bound(w, winv) * 100):
            raise ConjInconsistent(f"trace balance fails at label {i}")
        weights[i] = w
    q = Aqg(bundle=b, F=F, Finv=Finv, haar_weights=weights)

    # spot-check invariance of the Haar ansatz before first use
    rng = np.random.default_rng(7)
    sample = haar_sample_support(q)
    cuts = _Cuts(q, sample, sample, (1,))
    plan = _HaarPlan(q, cuts.idx[0], 2, "left")
    for n in sample_batches(2, cuts.entries):
        a, c = q.random_batch(rng, n, 2, sample)
        got = plan.contract(cuts.cut(cuts.delta(a), c, 0)[0], n)
        want = _scaled(c, haar(q, a, "left"))
        res = _sample_max(*(got[d] - want[d] for d in want))
        bad = np.flatnonzero(~(res <= 1e-6 * np.maximum(1.0, _sample_max(*a.values())
                                                        * _sample_max(*c.values()))))
        if len(bad):
            raise InconsistentSolve(
                f"Haar ansatz fails invariance (residual {res[bad[0]]:.3e})"
            )
    return q


# ---------------------------------------------------------------------------
# batches


def sample_batches(n: int, entries: int) -> list[int]:
    """Sizes of consecutive batches covering n samples, each within
    CHUNK_BYTES for work of `entries` complex entries per sample (at least
    one sample a batch)."""
    step = max(1, CHUNK_BYTES // (32 * max(1, entries)))
    return [min(step, n - lo) for lo in range(0, n, step)]


def _zero_batch(lay, n: int) -> dict:
    return {d: np.zeros((c, n, d, d), dtype=complex) for d, c in lay.dim_count.items()}


def _label_stacks(q: Aqg, mats: dict) -> dict:
    """Blocks per label stacked by block size, zero where mats has none:
    label n's block is stacks[d_n][layout.block_of[n]]."""
    lay = q.bundle.layout
    stacks = {d: np.zeros((c, d, d), dtype=complex) for d, c in lay.dim_count.items()}
    for k, m in mats.items():
        n = lay.label_index[k]
        stacks[lay.dims[n]][lay.block_of[n]] = m
    return stacks


def _mul(a: dict, c: dict) -> dict:
    """The products a c of two batches, sample by sample."""
    return {d: a[d] @ c[d] for d in a}


def _scaled(c: dict, z: Array) -> dict:
    """Sample t of c times z[t]."""
    return {d: z[:, None, None] * m for d, m in c.items()}


def _sample_max(*stacks) -> Array:
    """Per sample, the largest entry modulus of stacks (blocks, n, ...)."""
    return np.max([np.max(np.abs(s), axis=(0, 2, 3), initial=0.0) for s in stacks], axis=0)


def _pair_classes(lay, idx) -> list:
    """The pairs with layout indices idx grouped by (d_i, d_j): a list of
    ((d_i, d_j), positions in idx), the key order of every pair stack."""
    first, second = np.divmod(idx, len(lay.dims))
    return list(group_by(lay.dims[first], lay.dims[second]))


# ---------------------------------------------------------------------------
# structure maps


class DeltaPlan:
    """The index work of Delta on the pairs with layout indices idx, done
    once for every batch whose blocks lie on `labels`.

    slot and count place the blocks: pair p's is out[(s, s)][slot[p]] with s
    = d_i d_j, and count[s] blocks have size s.  The items are the channels
    of the wanted pairs into `labels`, a join over the layout's channel
    arrays, numbered by pair, then the name of k, then alpha.  work holds
    them per isometry shape as (numbers, V, V*, block of k among its size),
    and order is the schedule that sums them per pair in item order.
    entries counts the complex entries it holds per sample.
    """

    def __init__(self, q: Aqg, labels, idx):
        lay = q.bundle.layout
        idx = np.asarray(idx, dtype=int)
        sizes = np.zeros(len(lay.pairs), dtype=int)
        sizes[idx] = lay.pair_size[idx]
        self.slot, self.count = slots(sizes)
        have = np.zeros(len(q.labels), dtype=bool)
        have[[lay.label_index[k] for k in labels]] = True
        _, chans = lay.channels_of(np.flatnonzero(sizes))
        chans = chans[have[lay.chan_label[chans]]]
        chans = chans[np.lexsort((lay.chan_alpha[chans], lay.name_rank[lay.chan_label[chans]],
                                  lay.chan_pair[chans]))]
        self.work = []
        for _, nums in split_by(lay.chan_shape[chans]):
            v = lay.isometries(chans[nums])
            self.work.append((nums, v, bdagger(v), lay.block_of[lay.chan_label[chans[nums]]]))
        self.order = order_plan(self.slot[lay.chan_pair[chans]], [w[0] for w in self.work],
                                [(w[1].shape[1],) * 2 for w in self.work])
        self.entries = sum(n * d * d for d, n in self.count.items()) + plan_entries(self.order)


def delta_stacks(a: dict, plan: DeltaPlan):
    """Delta of the batch a on the pairs of plan, as stacks of blocks; a's
    blocks must lie on the plan's labels.

    Returns (out, slot): pair p's blocks are out[(s, s)][slot[p]], one per
    sample, where s is d_i d_j.  Each block sums v a_k v* over the loaded
    channels k of a's labels, in label-name order, as one stacked product
    per isometry shape of the plan's items.
    """
    n = next(iter(a.values())).shape[1]

    def part(g):
        _, v, vd, blk = plan.work[g]
        return v[:, None] @ a[v.shape[2]][blk] @ vd[:, None]

    out = {(d, d): np.zeros((c, n, d, d), dtype=complex) for d, c in plan.count.items()}
    return add_planned(out, plan.order, part), plan.slot


class _Cuts:
    """Cut-off coproducts Delta(a) times c on one leg, for batches a with
    blocks on a_labels and c with blocks on c_labels, planned once.

    Cut k multiplies by c on legs[k] (1: c (x) 1, 2: 1 (x) c), from the
    right or the left.  Its blocks are the pairs of _cut_pairs, with layout
    indices idx[k] and the labels lead[k] of c's leg; a cut is a pair stack
    on them.  classes[k] holds per class of _pair_classes (d of c's leg, d
    of the other leg, rows of Delta's stacks, blocks of c among their
    size).  One Delta plan covers the blocks of every cut; entries counts
    the complex entries held per sample.
    """

    def __init__(self, q: Aqg, a_labels, c_labels, legs, others=None):
        lay = q.bundle.layout
        self.legs = legs
        where = [_cut_pairs(q, a_labels, sorted(c_labels), leg, others) for leg in legs]
        self.plan = DeltaPlan(q, a_labels, np.concatenate([w[0] for w in where]))
        self.idx = [idx for idx, _ in where]
        self.lead = [lead for _, lead in where]
        self.classes = [[
            ((di, dj) if leg == 1 else (dj, di)) + (self.plan.slot[idx[sel]],
                                                  lay.block_of[lead[sel]])
            for (di, dj), sel in _pair_classes(lay, idx)
        ] for leg, (idx, lead) in zip(legs, where)]
        self.entries = self.plan.entries + 2 * sum(
            len(rows) * (dl * do) ** 2 for cls in self.classes for dl, do, rows, _ in cls)

    def delta(self, a: dict) -> dict:
        """Delta(a) on the blocks of every cut, as delta_stacks's stacks."""
        return delta_stacks(a, self.plan)[0]

    def cut(self, da: dict, c: dict, k: int, sides=("right",)) -> list[list]:
        """Cut k of the Delta(a) stacks da by the batch c, from each of the
        sides."""
        prods = [[] for _ in sides]
        for dl, do, rows, blocks in self.classes[k]:
            blk = da[(dl * do,) * 2][rows]
            cn = c[dl][blocks]
            cut = bkron(cn, frozen_eye(do)) if self.legs[k] == 1 else bkron(frozen_eye(do), cn)
            for side, out in zip(sides, prods):
                out.append(blk @ cut if side == "right" else cut @ blk)
        return prods


def _cut_pairs(q: Aqg, a_labels, c_labels, leg: int, others=None):
    """The blocks of a cut-off coproduct: n runs over the labels c_labels
    of c, the other leg over every label (or others(n)), and blocks where
    Delta(a) vanishes for a on a_labels are dropped.  Returns their layout
    indices with the label indices of the c leg (lead)."""
    lay = q.bundle.layout
    n_lab = len(q.labels)
    li = lay.label_index
    lead, other = [], []
    for n in c_labels:
        oth = range(n_lab) if others is None else [li[o] for o in others(n)]
        lead += [li[n]] * len(oth)
        other += oth
    lead, other = np.array(lead, dtype=int), np.array(other, dtype=int)
    idx = lead * n_lab + other if leg == 1 else other * n_lab + lead
    have = np.zeros(n_lab, dtype=bool)
    have[[li[k] for k in a_labels]] = True
    keep = lay.loaded[idx][:, have].any(axis=1)
    return idx[keep], lead[keep]


def _dual_index(q: Aqg) -> Array:
    """The label number of each label's dual."""
    return np.array([q.bundle.layout.label_index[q.bundle.dual[k]] for k in q.labels])


def _conj_stacks(q: Aqg):
    """Per block size d: Rbar_i and conj(R_i) of the labels i of size d,
    stacked in block order, with the blocks of their duals (d_dual(i) =
    d_i, as the zigzag checks of f_element force); built once per q."""
    if "conj" not in q._cache:
        lay = q.bundle.layout
        rbar = _label_stacks(q, {i: q._rbarmat(i) for i in q.labels})
        rmc = _label_stacks(q, {i: q._rmat(i).conj() for i in q.labels})
        dual = _dual_index(q)
        q._cache["conj"] = {int(d): (rbar[d], rmc[d], lay.block_of[dual[sel]])
                            for d, sel in split_by(lay.dims)}
    return q._cache["conj"]


def antipode(q: Aqg, a: dict) -> dict:
    """S on a batch: S(a)_i = (I (x) r_i*)(I (x) a_{ibar} (x) I)(rbar_i (x) I).

    Written with the conjugate matrices this is S(a)_i = Rbar_i a^T conj(R_i).
    """
    conj = _conj_stacks(q)
    return {d: rb[:, None] @ a[d][dual].swapaxes(-1, -2) @ rmc[:, None]
            for d, (rb, rmc, dual) in conj.items()}


def _haar_stacks(q: Aqg, side: str):
    """(stacks, transposed, weights) of a Haar functional, built once per
    q: F_k (side 'left') or F_k^-1 ('right') stacked per block size as
    _label_stacks does, the same transposed, and the weights w_k by label
    number."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    if side not in q._cache:
        mats = _label_stacks(q, q.F if side == "left" else q.Finv)
        q._cache[side] = (mats, {d: m.swapaxes(-1, -2).copy() for d, m in mats.items()},
                          np.array([q.haar_weights[k] for k in q.labels]))
    return q._cache[side]


def haar(q: Aqg, a: dict, side: str = "left") -> Array:
    """phi(a) = sum w_i Tr(F_i a_i) for every sample of the batch a, the
    terms added in label-name order; the right functional uses F_i^{-1}."""
    mats, _, weights = _haar_stacks(q, side)
    lay = q.bundle.layout
    terms = {d: np.trace(mats[d][:, None] @ m, axis1=-2, axis2=-1) for d, m in a.items()}
    total = np.zeros(next(iter(a.values())).shape[1], dtype=complex)
    for i in sorted(q.labels):
        n = lay.label_index[i]
        total += weights[n] * terms[lay.dims[n]][lay.block_of[n]]
    return total


# ---------------------------------------------------------------------------
# leg-wise operations on pair stacks


class _LabelSums:
    """Sums by label of stacked item results, planned once: item n has the
    label number labels[n], part g holds the items numbers[g] (of one block
    size), and sums(part, n) is the batch of n samples whose block o sums,
    in item order, the results of the items labelled o, part(g) being part
    g's as a stack (items, n, d, d)."""

    def __init__(self, q: Aqg, labels, numbers):
        self.lay = lay = q.bundle.layout
        self.order = order_plan(lay.block_of[labels], numbers,
                                [(lay.dims[labels[nums[0]]],) * 2 for nums in numbers])

    def sums(self, part, n: int) -> dict:
        out = {(d, d): m for d, m in _zero_batch(self.lay, n).items()}
        add_planned(out, self.order, part)
        return {d: out[(d, d)] for d in self.lay.dim_count}


class _MultPlan:
    """m(S (x) iota) (which 's-left') or m(iota (x) S) ('s-right') on pair
    stacks over the pairs idx, which must be (dual(j), j) or (i, dual(i)),
    so that every block is exact: per class of _pair_classes its dims, the
    conjugate-pair stacks of its output labels and a fixed einsum path, and
    the sums by output label."""

    def __init__(self, q: Aqg, idx, which: str):
        if which not in ("s-left", "s-right"):
            raise ValueError("which must be 's-left' or 's-right'")
        lay = q.bundle.layout
        first, second = np.divmod(idx, len(q.labels))
        if not (_dual_index(q)[first] == second).all():
            raise ValueError("the pairs must be (dual(j), j) or (i, dual(i))")
        self.left = left = which == "s-left"
        labels = second if left else first
        conj = _conj_stacks(q)
        # sum_ps S(e^i_ps) Y_ps with S(e_ps) = outer(Rbar[:,s], conj(R[p,:]))
        self.spec = "gus,gpe,gpesw->guw" if left else "gapes,ges,gpw->gaw"
        self.work = []
        classes = _pair_classes(lay, idx)
        for (di, dj), sel in classes:
            rb, rmc, _ = conj[dj if left else di]
            rb, rmc = (s[lay.block_of[labels[sel]]] for s in (rb, rmc))
            t = np.broadcast_to(np.zeros((), dtype=complex), (len(sel), di, dj, di, dj))
            path = np.einsum_path(self.spec, *((rb, rmc, t) if left else (t, rb, rmc)),
                                  optimize=True)[0]
            self.work.append((di, dj, rb, rmc, path))
        self.sums = _LabelSums(q, labels, [sel for _, sel in classes])

    def apply(self, x: list, n: int) -> dict:
        """The batch m(S (x) iota)(x) or m(iota (x) S)(x) of the pair stack
        x of n samples."""
        def part(g):
            di, dj, rb, rmc, path = self.work[g]
            rb, rmc = np.repeat(rb, n, axis=0), np.repeat(rmc, n, axis=0)
            t = x[g].reshape(-1, di, dj, di, dj)
            ops = (rb, rmc, t) if self.left else (t, rb, rmc)
            y = np.einsum(self.spec, *ops, optimize=path)
            return y.reshape((-1, n) + y.shape[1:])

        return self.sums.sums(part, n)


class _HaarPlan:
    """A Haar functional on one leg of pair stacks over the pairs idx: per
    class of _pair_classes its dims, the F stack and the weights of the
    contracted leg, and the sums by the label of the other leg."""

    def __init__(self, q: Aqg, idx, leg: int, side: str):
        lay = q.bundle.layout
        first, second = np.divmod(idx, len(q.labels))
        h, o = (second, first) if leg == 2 else (first, second)
        _, fstacks, weights = _haar_stacks(q, side)
        self.spec = "gab,gpaqb->gpq" if leg == 2 else "gab,gapbq->gpq"
        classes = _pair_classes(lay, idx)
        self.work = [
            (di, dj, fstacks[lay.dims[h[sel[0]]]][lay.block_of[h[sel]]],
             weights[h[sel]][:, None, None, None])
            for (di, dj), sel in classes
        ]
        self.sums = _LabelSums(q, o, [sel for _, sel in classes])

    def contract(self, x: list, n: int) -> dict:
        """The batch of the pair stack x of n samples with one leg
        contracted."""
        def part(g):
            di, dj, f, w = self.work[g]
            y = np.einsum(self.spec, np.repeat(f, n, axis=0), x[g].reshape(-1, di, dj, di, dj))
            return w * y.reshape((-1, n) + y.shape[1:])

        return self.sums.sums(part, n)


# ---------------------------------------------------------------------------
# window admissibility


def haar_sample_support(q: Aqg) -> list[str]:
    """Largest greedy label set on which invariance contractions stay loaded.

    The set is pairwise complete, complete against duals, and contains the
    unit; for closed bundles it is everything.
    """
    b = q.bundle
    if b.closed:
        return list(b.labels)
    chosen = [b.unit]
    for i in b.labels:
        if i in chosen:
            continue
        cand = chosen + [i]
        if all(
            b.complete(x, y) and b.complete(b.dual[x], y) and b.complete(x, b.dual[y])
            for x in cand
            for y in cand
        ):
            chosen = cand
    return chosen


# ---------------------------------------------------------------------------
# the inverses of T1 and T2


class _TInversePlan:
    """T1^-1 (which 't1') or T2^-1 ('t2') on pair stacks over the pairs
    idx: sum x_(1) (x) S(x_(2)) x_(3) or x_(1) S(x_(2)) (x) x_(3), blockwise.

    An item is a block (i,j) of x with a channel v: of n (x) m -> i,
    m = dual(j), for T1, which adds to the output block (n,j); of
    m (x) n -> j, m = dual(i), for T2, which adds to (i,n).  Output block
    (n,j) of T1 is exact whenever all channels of n (x) dual(j) are loaded,
    and (i,n) of T2 whenever those of dual(i) (x) n are.  Items run by
    block, then n in label order, then multiplicity, and every output block
    sums its items in that order.  Per item the output block is a fixed
    chain of two matmuls, L X then R (L X) reshaped for T1 and X R then
    L (X R) for T2, with X the input block; L and R contract v with the
    conjugate pair of j (T1) or i (T2), depend on the item only, and are
    formed here, stacked per item shape.  Pair p's output block is at
    where[p] among those of its size (-1: none).
    """

    def __init__(self, q: Aqg, idx, which: str):
        lay = q.bundle.layout
        n_lab = len(q.labels)
        self.t1 = t1 = which == "t1"
        dual = _dual_index(q)
        first, second = np.divmod(idx, n_lab)
        # the channels of (n, m) -> i (T1) or (m, n) -> j (T2) by (m, i or j),
        # n increasing, joined to the blocks (i, j) with m = dual(j) or dual(i)
        code = (lay.chan_pair % n_lab if t1 else lay.chan_pair // n_lab) * n_lab + lay.chan_label
        order = np.argsort(code, kind="stable")
        want = dual[second] * n_lab + first if t1 else dual[first] * n_lab + second
        lo = np.searchsorted(code[order], want)
        at, cs = ranges(lo, np.searchsorted(code[order], want, side="right") - lo)
        cs = order[cs]
        other = lay.chan_pair[cs] // n_lab if t1 else lay.chan_pair[cs] % n_lab
        opair = other * n_lab + second[at] if t1 else first[at] * n_lab + other
        sizes = np.zeros(len(lay.pairs), dtype=int)
        sizes[opair] = lay.pair_size[opair]
        self.where, self.count = slots(sizes)
        classes = _pair_classes(lay, idx)
        cls, row = np.zeros(len(idx), dtype=int), np.zeros(len(idx), dtype=int)
        for g, (_, sel) in enumerate(classes):
            cls[sel], row[sel] = g, np.arange(len(sel))
        conj = _conj_stacks(q)
        self.work = []
        d = lay.dims
        for (di, dj, dn), nums in group_by(d[first[at]], d[second[at]], d[other]):
            t = at[nums]
            rb, rmc, _ = conj[dj if t1 else di]
            lab = lay.block_of[second[t] if t1 else first[t]]
            rb, rmc = rb[lab], rmc[lab]
            v = lay.isometries(cs[nums])
            if t1:
                vt = v.reshape(len(nums), dn, -1, di)
                left = (vt.swapaxes(2, 3) @ rmc[:, None]).reshape(-1, dn, di * dj)
                right = (rb[:, None] @ vt.conj()).swapaxes(1, 2).reshape(-1, dj * dn, di)
            else:
                vt = v.reshape(len(nums), -1, dn * dj)
                right = (rb @ vt.conj()).reshape(-1, di, dn, dj).swapaxes(2, 3)
                right = right.reshape(-1, di * dj, dn)
                left = (rmc.swapaxes(1, 2) @ vt).reshape(-1, di, dn, dj).swapaxes(1, 2)
                left = left.reshape(-1, dn * di, dj)
            self.work.append((nums, cls[t[0]], row[t], di, dj, dn, left, right))
        self.order = order_plan(self.where[opair], [w[0] for w in self.work],
                                [(lay.pair_size[opair[w[0][0]]],) * 2 for w in self.work])
        self.entries = sum(n * s * s for s, n in self.count.items()) + plan_entries(self.order)

    def inverse(self, x: list, n: int) -> dict:
        """The inverse of the pair stack x of n samples: output block of
        pair p at out[(s, s)][where[p]], s = d_p1 d_p2."""
        def part(g):
            _, c, rows, di, dj, dn, left, right = self.work[g]
            xs = x[c][rows]
            if self.t1:
                z = (left[:, None] @ xs).reshape(-1, n, dn, di, dj)
                return (right[:, None, None] @ z).reshape(-1, n, dn * dj, dn * dj)
            y = (xs @ right[:, None]).reshape(-1, n, di, dj, dn)
            return (left[:, None, None] @ y).reshape(-1, n, di * dn, di * dn)

        out = {(s, s): np.zeros((c, n, s, s), dtype=complex) for s, c in self.count.items()}
        return add_planned(out, self.order, part)


# ---------------------------------------------------------------------------
# modular data


def modular_data(q: Aqg, tol: Tolerance = DEFAULT_TOL):
    """Solve for the modular element, KMS conjugation, and scaling constant.

    The modular blocks are recovered from the right-hand Haar identity
    (phi (x) iota)(Delta(a)(1 (x) b)) = phi(a) delta b, checked consistent
    across probes and against the closed form f^{-2}; rho is conjugation by
    f (verified via the trace-exchange identity); mu compares phi after S^2
    with phi.  Returns delta as its blocks by label, rho and mu.
    """
    rng = np.random.default_rng(11)
    sample = haar_sample_support(q)
    lay = q.bundle.layout
    n_lab = len(q.labels)
    fst, fstacks, weights = _haar_stacks(q, "left")
    finv = _haar_stacks(q, "right")[0]
    # the probes a_i = f^-2 restricted to block i, one sample each, for the
    # i with phi(a_i) != 0
    at = np.array([lay.label_index[i] for i in sample], dtype=int)
    probe = _zero_batch(lay, len(sample))
    for t, n in enumerate(at):
        probe[lay.dims[n]][lay.block_of[n], t] = finv[lay.dims[n]][lay.block_of[n]]
    phi = dict(zip(sample, haar(q, probe, "left")))
    probes = [i for i in sample if abs(phi[i]) >= 1e-12]
    slot = np.full(n_lab, -1, dtype=int)
    slot[[lay.label_index[i] for i in probes]] = np.arange(len(probes))
    delta_blocks = {i: q.Finv[i] @ q.Finv[i] for i in q.labels}
    for j in sample:
        dj = q.d(j)
        # (phi (x) iota)(Delta(a_i)(1 (x) 1_j)) for every probe at once: per
        # channel v of (k,j) -> i, w_k Tr_1((F_k (x) 1) v a_i v*), summed by i
        at, chans = lay.channels_of(np.arange(n_lab) * n_lab + lay.label_index[j])
        probe = slot[lay.chan_label[chans]]
        use = probe >= 0
        at, chans, probe = at[use], chans[use], probe[use]

        def parts():
            for _, nums in split_by(lay.chan_shape[chans]):
                v, k, i = lay.isometries(chans[nums]), at[nums], lay.chan_label[chans[nums]]
                dk = int(lay.dims[k[0]])
                x = v @ finv[v.shape[-1]][lay.block_of[i]] @ bdagger(v)
                yield nums, weights[k][:, None, None] * np.einsum(
                    "gab,gapbq->gpq", fstacks[dk][lay.block_of[k]], x.reshape(-1, dk, dj, dk, dj))

        sums = add_in_order({(dj, dj): np.zeros((len(probes), dj, dj), dtype=complex)},
                            probe, parts())[(dj, dj)]
        solved = None
        for n, i in enumerate(probes):
            cand = sums[n] / phi[i]
            if solved is None:
                solved = cand
            elif not residual(solved, cand) <= 1e-6 * worst(1.0, np.abs(solved)):
                raise InconsistentSolve(
                    f"modular element inconsistent across probes at block {j}"
                )
        if solved is None:
            raise InconsistentSolve(f"no probe with nonzero Haar value for block {j}")
        if not residual(solved, delta_blocks[j]) <= 1e-6:
            raise InconsistentSolve(f"modular block {j} off the f^-2 form")
        delta_blocks[j] = solved

    # rho(a) = f a f^{-1}, checked through phi(ab) = phi(b rho(a))
    a, c = q.random_batch(rng, 4, 2, sample)
    lhs = haar(q, _mul(a, c), "left")
    rho_a = {d: fst[d][:, None] @ m @ finv[d][:, None] for d, m in a.items()}
    rhs = haar(q, _mul(c, rho_a), "left")
    if not (abs(lhs - rhs) <= 1e-7 * np.maximum(1.0, np.maximum(abs(lhs), abs(rhs)))).all():
        raise InconsistentSolve("KMS conjugation check failed")

    # mu from phi(S^2 a) = mu phi(a)
    (a,) = q.random_batch(rng, 4, 1, sample)
    phi_a = haar(q, a, "left")
    keep = ~(abs(phi_a) < 1e-9)
    mus = haar(q, antipode(q, antipode(q, a)), "left")[keep] / phi_a[keep]
    mu = complex(np.mean(mus)) if len(mus) else 1.0 + 0j
    rho = {i: (q.F[i], q.Finv[i]) for i in q.labels}
    return delta_blocks, rho, mu


# ---------------------------------------------------------------------------
# the axiom suite


def verify_axioms(
    q: Aqg,
    tol: Tolerance = DEFAULT_TOL,
    n_samples: int = 16,
    seed: int = 42,
) -> Report:
    """Numerically verify the multiplier-Hopf-*-algebra axioms.

    Seven check groups: coassociativity (the fusion layout's F-move
    certificate), counit laws, antipode laws, T1/T2 bijectivity (the inverse
    identities), f-element properties, Haar invariance, and the homomorphism
    property of the coproduct.  Haar faithfulness and Delta(a*) = Delta(a)*
    hold by construction and are test oracles.  Window bundles get each check
    on its admissible blocks; anything unreachable is skipped explicitly.
    Each sampled row plans its index work (blocks, classes, work groups, sum
    schedules) once, then draws its samples in batches within CHUNK_BYTES
    and runs each planned product once per batch, with the samples stacked
    along an axis after the block axis.
    """
    rep = Report("hopf-axioms")
    rng = np.random.default_rng(seed)
    b = q.bundle
    lay = b.layout
    sample = haar_sample_support(q)
    n_small = max(2, n_samples // 4)
    u = b.unit

    # (1) coassociativity on all of B(H_m), from the F-move certificate of
    # every admissible (i,j,k -> m)
    triples, _, fres, _ = lay.fmoves
    if len(triples):
        res = worst(fres)
        rep.add("1-coassociativity", f"{len(triples)} triples", res,
                res <= tol.bound(1.0))
    else:
        rep.skip("1-coassociativity", "no admissible triples")
    # n_small random elements are drawn and dropped: the seeded rows below
    # keep the values that the pinned reports hold
    q.random_batch(rng, n_small)

    # (2) counit laws: the cuts hold the blocks (u, n) of Delta(a)(1 (x) c)
    # and (n, u) of (c (x) 1) Delta(a), whose counit legs are their blocks
    # on label n
    res, scale = [0.0], [1.0]
    cuts = _Cuts(q, sample, sample, (2, 1), lambda n: [u])
    legs = [_LabelSums(q, cuts.lead[k], [sel for _, sel in _pair_classes(lay, cuts.idx[k])])
            for k in (0, 1)]
    for n in sample_batches(n_samples, cuts.entries):
        a, c = q.random_batch(rng, n, 2, sample)
        da = cuts.delta(a)
        ac = _mul(a, c)
        for k, leg in enumerate(legs):
            x = cuts.cut(da, c, k)[0]
            got = leg.sums(lambda g: x[g], n)
            res += [max_abs(got[d] - ac[d]) for d in ac]
        scale += [max_abs(m) for m in ac.values()]
    res, scale = worst(*res), worst(*scale)
    rep.add("2-counit-laws", "samples", res, res <= tol.bound(scale))

    # (3) antipode laws
    res, scale = [0.0], [1.0]
    duals = {n: [o for o in b.labels if b.dual[o] == n] for n in b.labels}
    cuts = _Cuts(q, sample, sample, (2, 1), duals.get)
    mults = [_MultPlan(q, cuts.idx[0], "s-left"), _MultPlan(q, cuts.idx[1], "s-right")]
    for n in sample_batches(n_samples, cuts.entries):
        a, c = q.random_batch(rng, n, 2, sample)
        target = _scaled(c, a[1][lay.block_of[lay.label_index[u]], :, 0, 0])
        da = cuts.delta(a)
        for k, (plan, side) in enumerate(zip(mults, ("right", "left"))):
            got = plan.apply(cuts.cut(da, c, k, (side,))[0], n)
            res += [max_abs(got[d] - target[d]) for d in target]
        scale += [max_abs(m) for m in target.values()]
        scale.append(_sample_max(*a.values()) * _sample_max(*c.values()))
    res, scale = worst(*res), worst(*scale)
    rep.add("3-antipode-laws", "samples", res, res <= tol.bound(scale))

    # (4) T1/T2 bijectivity: T1^-1 and T2^-1 give back a (x) c on the
    # sample support; on a closed bundle a left inverse of an endomorphism of
    # the finite-dimensional A (x) A certifies bijectivity.  T1(a (x) c) =
    # Delta(a)(1 (x) c) and T2(a (x) c) = (a (x) 1)Delta(c).  The blocks
    # a_i (x) c_j are compared per (d_i, d_j) class of the support's pairs,
    # zero where an inverse has no block
    res, scale = [0.0], [1.0]
    cuts1, cuts2 = (_Cuts(q, sample, sample, (leg,)) for leg in (2, 1))
    invs = [_TInversePlan(q, cuts1.idx[0], "t1"), _TInversePlan(q, cuts2.idx[0], "t2")]
    at = np.array([lay.label_index[k] for k in sample], dtype=int)
    first, second = np.repeat(at, len(at)), np.tile(at, len(at))
    targets = []
    for dims, sel in group_by(lay.dims[first], lay.dims[second]):
        pos = [inv.where[first[sel] * len(q.labels) + second[sel]] for inv in invs]
        targets.append((dims, lay.block_of[first[sel]], lay.block_of[second[sel]],
                        [(p >= 0, p[p >= 0]) for p in pos]))
    entries = cuts1.entries + cuts2.entries + sum(inv.entries for inv in invs)
    for n in sample_batches(n_small, entries):
        a, c = q.random_batch(rng, n, 2, sample)
        backs = [invs[0].inverse(cuts1.cut(cuts1.delta(a), c, 0)[0], n),
                 invs[1].inverse(cuts2.cut(cuts2.delta(c), a, 0, ("left",))[0], n)]
        for (di, dj), ia, jc, pos in targets:
            want = bkron(a[di][ia], c[dj][jc])
            for back, (have, p) in zip(backs, pos):
                got = np.zeros_like(want)
                if len(p):
                    got[have] = back[want.shape[2:]][p]
                res.append(max_abs(got - want))
            scale.append(max_abs(want))
    res, scale = worst(*res), worst(*scale)
    rep.add("4-t-inverse-identities", "samples" if b.closed else "window samples", res,
            res <= tol.bound(scale))

    # (5) f-element properties
    worst_tr = worst(*(
        abs(float(np.trace(q.F[i]).real - np.trace(q.Finv[i]).real))
        for i in b.labels
    ))
    rep.add("5-f-trace-balance", "all labels", worst_tr,
            worst_tr <= tol.bound(worst(*q.haar_weights.values())))
    res, scale = [0.0], [1.0]
    fst, finv = _haar_stacks(q, "left")[0], _haar_stacks(q, "right")[0]
    for n in sample_batches(n_small, q.total_dim()):
        (a,) = q.random_batch(rng, n)
        s2 = antipode(q, antipode(q, a))
        adf = {d: fst[d][:, None] @ m @ finv[d][:, None] for d, m in a.items()}
        res += [max_abs(s2[d] - adf[d]) for d in adf]
        scale += [max_abs(m) for m in adf.values()]
    res, scale = worst(*res), worst(*scale)
    rep.add("5-s-squared-ad-f", "samples", res, res <= tol.bound(scale))
    sf = antipode(q, {d: m[:, None] for d, m in fst.items()})
    res = worst(*(max_abs(sf[d][:, 0] - finv[d]) for d in finv))
    rep.add("5-antipode-of-f", "all labels", res,
            res <= tol.bound(worst(*(np.abs(m) for m in finv.values()))))

    # (6) Haar invariance: left invariance of phi on the blocks of
    # Delta(a)(c (x) 1) and (c (x) 1)Delta(a), right invariance of psi on
    # those of Delta(a)(1 (x) c) and (1 (x) c)Delta(a); one Delta(a) serves
    # every cutoff
    res, scale = [0.0], [1.0]
    cuts = _Cuts(q, sample, sample, (1, 2))
    haars = [_HaarPlan(q, cuts.idx[0], 2, "left"), _HaarPlan(q, cuts.idx[1], 1, "right")]
    for n in sample_batches(n_samples, cuts.entries):
        a, c = q.random_batch(rng, n, 2, sample)
        da = cuts.delta(a)
        for k, (plan, side) in enumerate(zip(haars, ("left", "right"))):
            target = _scaled(c, haar(q, a, side))
            for x in cuts.cut(da, c, k, ("right", "left")):
                got = plan.contract(x, n)
                res += [max_abs(got[d] - target[d]) for d in target]
            scale += [max_abs(m) for m in target.values()]
        scale.append(_sample_max(*a.values()) * _sample_max(*c.values()))
    res, scale = worst(*res), worst(*scale)
    rep.add("6-haar-invariance", f"support {sample}", res,
            res <= tol.bound(scale) * 10)

    # (8) homomorphism property of Delta.  The residual and scale are
    # maxima, so the pairs are taken one size d_i d_j at a time, with their
    # own plan, and the batches hold three Delta stacks of one size
    res, scale = [0.0], [1.0]
    a, c = q.random_batch(rng, n_small, 2)
    ac = _mul(a, c)
    cn = np.maximum(1.0, _sample_max(*c.values()))
    for _, pairs in split_by(lay.pair_size):
        plan = DeltaPlan(q, b.labels, pairs)
        lo = 0
        for n in sample_batches(n_small, 3 * plan.entries):
            da, dac, dc = (delta_stacks({d: m[:, lo:lo + n] for d, m in x.items()}, plan)[0]
                           for x in (a, ac, c))
            for shape in da:
                res.append(max_abs(dac[shape] - da[shape] @ dc[shape]))
                scale.append(max_abs(da[shape]) * cn[lo:lo + n])
            del da, dac, dc
            lo += n
        del plan
    res, scale = worst(*res), worst(*scale)
    rep.add("8-delta-homomorphism", "all pairs", res, res <= tol.bound(scale))
    return rep
