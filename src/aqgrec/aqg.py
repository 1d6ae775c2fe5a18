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

from . import linalg
from .bundle import CategoryBundle, validate_bundle
from .errors import ConjInconsistent, InconsistentSolve, InvalidBundle
from .linalg import (
    DEFAULT_TOL,
    Array,
    Tolerance,
    add_planned,
    bdagger,
    bkron,
    dagger,
    distinct,
    frozen_eye,
    group_by,
    max_abs,
    order_plan,
    ranges,
    ranks,
    residual,
    slots,
    split_by,
    walk,
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
        label by default), of its block sizes.  Sample t draws its k
        elements in turn, each its blocks in support order, a block as a
        d x d standard normal real part and then imaginary part; all in one
        call of rng, which yields the numbers drawn one block at a time."""
        lay = self.bundle.layout
        at = np.array([lay.label_index[i] for i in support or self.labels], dtype=int)
        size = 2 * lay.dims[at] ** 2
        start = np.cumsum(size) - size
        flat = rng.standard_normal(n * k * int(size.sum())).reshape(n, k, -1)
        out = [_zero_batch(lay, n, lay.dims[at]) for _ in range(k)]
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

    # spot-check invariance of the Haar ansatz before first use,
    # (iota (x) phi)(Delta(a)) c = phi(a) c, per sample against the larger
    # of 1 and the samples' scale
    def ansatz(a, c, got):
        want = _scaled(c, haar(q, a, "left"))
        res = _sample_max(*(got[0][d] @ c[d] - want[d] for d in want))
        return [res / np.maximum(1.0, _sample_max(*a.values()) * _sample_max(*c.values()))], []

    sample = haar_sample_support(q)
    res, _ = _channel_row(q, np.random.default_rng(7), 2, sample, [
        _Contraction(q, sample, sample, 1, _leg(q, _haar_stacks(q, "left")[1]))], ansatz)
    if not res <= 1e-6:
        raise InconsistentSolve(f"Haar ansatz fails invariance (relative residual {res:.3e})")
    return q


# ---------------------------------------------------------------------------
# batches


def sample_draws(q: Aqg, rng, n: int, k: int, support, kept: int, held: int):
    """(m, k batches of m random elements on support) per group of the n
    samples, drawn as random_batch draws them all: a group holds its batches
    and `kept` more of their size within CHUNK_BYTES beside held (walk)."""
    lay = q.bundle.layout
    sizes = lay.dims[[lay.label_index[i] for i in support or q.labels]]
    per = 16 * (k + kept) * sum(c * d * d for d, c in lay.dim_count.items() if d in sizes)
    for lo, hi in walk(np.full(n, per), held):
        yield hi - lo, q.random_batch(rng, hi - lo, k, support)


def chunks(key, fixed, phases, n: int, held: int):
    """(lo, hi, slices of the n samples) per chunk of a row's items (walk):
    item p holds fixed[p] bytes and phases[t, p] a sample in phase t of its
    chunk, which takes whole runs of equal key (each item a run without
    one) beside held; a run that does not fit alone runs its samples in
    slices."""
    for lo, hi in walk(fixed + n * phases, held, key):
        per = phases[:, lo:hi].sum(axis=1).max()
        yield lo, hi, [slice(*r) for r in walk(np.full(n, per), held + fixed[lo:hi].sum())]


def lone(key, fixed, phases) -> int:
    """The bytes of a row's largest chunk of one run (one item without a
    key) and one sample (chunks) within CHUNK_BYTES, which its groups of
    samples leave free (sample_draws).  A run that overruns the budget
    alone overruns it whatever its group holds, and does not shrink the
    groups."""
    key = np.arange(len(fixed)) if key is None else key
    start = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))[:len(key)]
    runs = np.add.reduceat(fixed + phases, start, axis=1).max(axis=0, initial=0)
    return int(np.max(runs[runs <= linalg.CHUNK_BYTES], initial=0))


def _at(a: dict, s: slice) -> dict:
    """The samples s of the batch a, as views."""
    return {d: m[:, s] for d, m in a.items()}


def _nbytes(*batches) -> int:
    return sum(m.nbytes for x in batches for m in x.values())


def _zero_batch(lay, n: int, sizes=None) -> dict:
    return {d: np.zeros((c, n, d, d), dtype=complex) for d, c in lay.dim_count.items()
            if sizes is None or d in sizes}


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
    arrays, in the order of the name of k, then alpha, within a pair; the
    item of rank r is the r-th of its pair.  work holds them per rank, then
    isometry shape, as (V, V*, block of k among its size, slot of the pair):
    one item a pair, added rank by rank, so every block sums its items in
    item order and Delta holds one product a pair at a time.
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
        pair = lay.chan_pair[chans]
        self.work = []
        for _, nums in split_by(ranks(pair) * len(lay.chan_stacks) + lay.chan_shape[chans]):
            v = lay.isometries(chans[nums])
            self.work.append((v, bdagger(v), lay.block_of[lay.chan_label[chans[nums]]],
                              _places(self.slot[pair[nums]])))


def _places(at):
    """The increasing places at of a stack, as a slice when they are
    consecutive: their sums are then added in place, without the read
    (a copy) and the write of an index."""
    lo, hi = int(at[0]), int(at[-1]) + 1
    return slice(lo, hi) if hi - lo == len(at) else at


def delta_cost(q: Aqg, pairs, have) -> tuple[Array, Array, Array]:
    """(fixed, block, work): the bytes of Delta on each of the pairs for a
    on the labels have (a mask), 16 a complex entry: V and
    V* of its channels; per sample its block; and per sample, while Delta
    runs, one channel's product with, before it, a's block and V a or,
    after it, its read in the sum."""
    lay = q.bundle.layout
    at, chans = lay.channels_of(pairs)
    use = have[lay.chan_label[chans]]
    at, chans = at[use], chans[use]
    s, d = lay.pair_size[pairs], lay.dims[lay.chan_label[chans]]
    most = np.zeros(len(pairs), dtype=int)
    np.maximum.at(most, at, d * d + s[at] * d)
    return (np.bincount(at, 32 * s[at] * d, minlength=len(pairs)), 16 * s * s,
            16 * (s * s + np.maximum(most, s * s)))


def delta_stacks(a: dict, plan: DeltaPlan):
    """Delta of the batch a on the pairs of plan, as stacks of blocks; a's
    blocks must lie on the plan's labels.

    Pair p's blocks are out[(s, s)][plan.slot[p]], one per sample, where
    s is d_i d_j.  Each block sums v a_k v* over the loaded
    channels k of a's labels, in label-name order, as one stacked product
    per rank and isometry shape of the plan's items.
    """
    n = next(iter(a.values())).shape[1]
    out = {(d, d): np.zeros((c, n, d, d), dtype=complex) for d, c in plan.count.items()}
    for v, vd, blk, slot in plan.work:
        x = v[:, None] @ a[v.shape[2]][blk] @ vd[:, None]
        out[(v.shape[1],) * 2][slot] += x  # read after the product is made
        del x  # before the next one
    return out


def _cut(lay, da: dict, c: dict, plan: DeltaPlan, idx, leg: int) -> list:
    """Row 4's cut-off coproducts on the pairs idx, per class of
    _pair_classes: the Delta(a) stacks da of plan cut by the batch c, as
    (c (x) 1)Delta(a) (leg 1) or Delta(a)(1 (x) c) (leg 2)."""
    lead = np.divmod(idx, len(lay.dims))[leg - 1]
    prods = []
    for (di, dj), sel in _pair_classes(lay, idx):
        blk = da[(di * dj,) * 2][plan.slot[idx[sel]]]
        cn = c[(di, dj)[leg - 1]][lay.block_of[lead[sel]]]
        prods.append(bkron(cn, frozen_eye(dj)) @ blk if leg == 1
                     else blk @ bkron(frozen_eye(di), cn))
    return prods


def _cut_chunks(q: Aqg, support, leg: int):
    """(lone, chunks) of row 4's cuts by c on leg `leg` (_cut) for batches a
    and c on support, planned once per row: chunks(n, held) yields per
    chunk (chunks) its pairs and the slices of the n samples.  The cuts
    hold the blocks (n, o) (leg 1) or (o, n) (leg 2), n in support, o every
    label, where Delta(a) does not vanish, lead-major, and a chunk takes
    each n's pairs whole.  A chunk holds Delta's blocks with Delta's work
    (delta_cost), then Delta's blocks and the phases of _t_inverse_cost."""
    lay = q.bundle.layout
    n_lab = len(lay.dims)
    have = np.zeros(n_lab, dtype=bool)
    have[[lay.label_index[k] for k in support]] = True
    key = (np.flatnonzero(have)[:, None] * n_lab + np.arange(n_lab)).ravel()  # n, then o
    pairs = key if leg == 1 else key % n_lab * n_lab + key // n_lab
    into = lay.loaded[pairs][:, have].any(axis=1)  # the pairs where Delta(a) does not vanish
    key, pairs = key[into] // n_lab, pairs[into]
    fixed, block, work = delta_cost(q, pairs, have)
    more, phases = _t_inverse_cost(q, pairs, leg == 2)
    fixed, phases = fixed + more, np.array([block + work, block + phases[0], *phases[1:]])
    return lone(key, fixed, phases), lambda n, held: (
        (pairs[lo:hi], batches) for lo, hi, batches in chunks(key, fixed, phases, n, held))


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
            for d, (rb, rmc, dual) in conj.items() if d in a}


def _haar_stacks(q: Aqg, side: str):
    """(stacks, weighted) of a Haar functional, built once per q: F_k (side
    'left') or F_k^-1 ('right') stacked per block size as _label_stacks
    does, and the same times the weights w_k."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    if side not in q._cache:
        mats = q.F if side == "left" else q.Finv
        q._cache[side] = (_label_stacks(q, mats), _label_stacks(
            q, {k: q.haar_weights[k] * m for k, m in mats.items()}))
    return q._cache[side]


def haar(q: Aqg, a: dict, side: str = "left") -> Array:
    """phi(a) = sum Tr(w_i F_i a_i) for every sample of the batch a, the
    terms added in label-name order; the right functional uses F_i^{-1}."""
    weighted = _haar_stacks(q, side)[1]
    lay = q.bundle.layout
    terms = {d: np.trace(weighted[d][:, None] @ m, axis1=-2, axis2=-1) for d, m in a.items()}
    total = np.zeros(next(iter(a.values())).shape[1], dtype=complex)
    for i in sorted(q.labels):
        n = lay.label_index[i]
        if lay.dims[n] in terms:
            total += terms[lay.dims[n]][lay.block_of[n]]
    return total


# ---------------------------------------------------------------------------
# one leg of Delta(a), channel by channel


class _Contraction:
    """One leg of Delta(a) taken, channel by channel, for batches a with
    blocks on `labels`: per lead label n of leads, the sum over the pairs
    (n, o) (keep 1) or (o, n) (keep 2), o in others(n) (every label by
    default), and over their channels v : H_k -> H_i (x) H_j, k in labels,
    of the d_n x d_n block (P a_k) Q, with P a_k split into rows of Q's
    height.  bind(v, lead, other, keep) makes P and Q for a stack of
    channels of one shape, v as (channels, d_i, d_j, d_k), from v and
    conj(v) bound to the operator of the leg that is not kept (_leg, _mult),
    so that no pair block of Delta(a) is formed.  Multiplying by c on the
    kept leg commutes with taking the other one, so a row multiplies the
    sums by c.

    Items are the channels, by lead in the order of leads, then o, then
    channel; an item holds 80 bytes an entry of v (P, Q and their making),
    and per sample a's block, P a_k and twice its block.  lone is its
    largest item (lone); run walks the items in chunks."""

    def __init__(self, q: Aqg, labels, leads, keep: int, bind, others=None):
        lay = q.bundle.layout
        li, n_lab = lay.label_index, len(lay.dims)
        lead, other = np.array([(li[n], li[o]) for n in leads for o in (others or (
            lambda n: q.labels))(n)], dtype=int).reshape(-1, 2).T
        at, chans = lay.channels_of(lead * n_lab + other if keep == 1 else other * n_lab + lead)
        have = np.zeros(n_lab, dtype=bool)
        have[[li[k] for k in labels]] = True
        use = have[lay.chan_label[chans]]
        self.chans, self.lead, self.other = chans[use], lead[at[use]], other[at[use]]
        self.lay, self.keep, self.bind = lay, keep, bind
        s, d = lay.pair_size[lay.chan_pair[self.chans]], lay.dims[lay.chan_label[self.chans]]
        self.fixed = 80 * s * d
        self.phases = 16 * (d * d + s * d + 2 * lay.dims[self.lead] ** 2)[None]
        self.lone = lone(None, self.fixed, self.phases)

    def run(self, a: dict, out: dict, held: int) -> None:
        """Add the sums for the batch a to out, a batch on the leads'
        sizes, each in item order over the chunks (chunks) within
        CHUNK_BYTES beside held."""
        lay = self.lay
        for lo, hi, batches in chunks(None, self.fixed, self.phases,
                                      next(iter(a.values())).shape[1], held):
            chans, lead, other = self.chans[lo:hi], self.lead[lo:hi], self.other[lo:hi]
            work = []
            for (dl, _, _), nums in group_by(lay.dims[lead], lay.dims[other],
                                             lay.chan_shape[chans]):
                v = lay.isometries(chans[nums])
                g, _, dk = v.shape
                p, m = self.bind(v.reshape((g, dl, -1, dk) if self.keep == 1 else (g, -1, dl, dk)),
                                 lead[nums], other[nums], self.keep)
                work.append((nums, p, m, lay.block_of[lay.chan_label[chans[nums]]], dl))
            order = order_plan(lay.block_of[lead], [w[0] for w in work], [w[4] for w in work])
            for s in batches:
                parts = []
                for _, p, m, blk, dl in work:
                    x = p[:, None] @ a[p.shape[2]][blk, s]
                    x = x.reshape(x.shape[:2] + (-1, m.shape[1])) @ m[:, None]
                    parts.append(x.reshape(x.shape[:2] + (dl, dl)))
                add_planned({(d, d): o[:, s] for d, o in out.items()}, order, parts)
                del parts, x  # before the next batch's


def _leg(q: Aqg, ops: dict):
    """The bind of _Contraction that takes the leg it does not keep by the
    functional Tr(M .), M the operator ops[d][block] of that leg's label:
    (iota (x) Tr(M .))(v a v*) = (v a) Q with Q = (I (x) M^T) conj(v),
    v a as d_i rows, and (Tr(M .) (x) iota)(v a v*) the same with the legs
    of v swapped."""
    lay = q.bundle.layout

    def bind(v, lead, other, keep):
        v = v if keep == 1 else v.swapaxes(1, 2)  # the kept leg first
        g, dl, do, dk = v.shape
        mt = ops[do][lay.block_of[other]].swapaxes(1, 2)
        return (v.reshape(g, dl * do, dk),
                (mt[:, None] @ v.conj()).transpose(0, 2, 3, 1).reshape(g, do * dk, dl))

    return bind


def _mult(q: Aqg):
    """The bind of _Contraction for m(S (x) iota) on the pairs (dual(j), j)
    (keep 2) or m(iota (x) S) on (i, dual(i)) (keep 1), with S(e_ps) =
    Rbar[:, s] conj(R)[p, :] for the conjugate pair of the lead (antipode):
    m(S (x) iota)(v a v*) = r a Q with r = conj(R) . v, the form of conj(R)
    with the output legs of v, and Q = Rbar conj(v); m(iota (x) S)(v a v*) =
    (v a) Q with Q = conj(R) (x) rho, rho = Rbar . conj(v)."""
    lay, conj = q.bundle.layout, _conj_stacks(q)

    def bind(v, lead, other, keep):
        g, d, _, dk = v.shape
        rb, rmc = (x[lay.block_of[lead]] for x in conj[d][:2])
        v, cv = v.reshape(g, d * d, dk), v.conj().reshape(g, d * d, dk)
        if keep == 2:
            m = (rb @ cv.reshape(g, d, d * dk)).reshape(g, d, d, dk).transpose(0, 3, 1, 2)
            return rmc.reshape(g, 1, d * d) @ v, m.reshape(g, dk, d * d)
        rho = rb.reshape(g, 1, d * d) @ cv
        return v, (rmc[:, :, None] * rho[:, :, :, None]).reshape(g, d * dk, d)

    return bind


def _channel_row(q: Aqg, rng, n: int, support, cuts, check):
    """(residual, scale) of a sampled row, the maxima of check(a, c, got)
    over the groups a, c of n samples on support (sample_draws): got[k]
    holds the sums of the _Contraction cuts[k] for a, by lead."""
    lay = q.bundle.layout
    res, scale = [0.0], [1.0]
    # a group holds a, c, the sums, and the check's target, product and
    # difference
    for ng, (a, c) in sample_draws(q, rng, n, 2, support, len(cuts) + 3,
                                   max(cut.lone for cut in cuts)):
        got = [_zero_batch(lay, ng, c) for _ in cuts]
        for cut, out in zip(cuts, got):
            cut.run(a, out, _nbytes(a, c, *got))
        more_res, more_scale = check(a, c, got)
        res, scale = res + more_res, scale + more_scale
        del a, c, got  # before the next group's
    return worst(*res), worst(*scale)


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
    formed here, stacked per rank and item shape, the item of rank r being
    the r-th of its output block: one item a block, added rank by rank.
    Pair p's output block is at where[p] among those of its size (-1: none).
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
        for (_, di, dj, dn), nums in group_by(ranks(opair), d[first[at]], d[second[at]],
                                              d[other]):
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
            self.work.append((cls[t[0]], row[t], di, dj, dn, left, right, self.where[opair[nums]]))

    def inverse(self, x: list, n: int) -> dict:
        """The inverse of the pair stack x of n samples: output block of
        pair p at out[(s, s)][where[p]], s = d_p1 d_p2."""
        out = {(s, s): np.zeros((c, n, s, s), dtype=complex) for s, c in self.count.items()}
        for c, rows, di, dj, dn, left, right, where in self.work:
            if self.t1:
                y = right[:, None, None] @ (left[:, None] @ x[c][rows]).reshape(-1, n, dn, di, dj)
            else:
                y = left[:, None, None] @ (x[c][rows] @ right[:, None]).reshape(-1, n, di, dj, dn)
            s = dn * (dj if self.t1 else di)
            out[(s, s)][where] += y.reshape(-1, n, s, s)  # read after the product is made
            del y  # before the next one
        return out


def _t_inverse_cost(q: Aqg, idx, t1: bool) -> tuple[Array, Array]:
    """(fixed, per_sample): the bytes of row 4 per pair (i,j) of idx, whose
    items in _TInversePlan are its channels to n (Frobenius reciprocity),
    with output (n,j) for T1 and (i,n) for T2: L and R; and per sample, in
    turn, a block of Delta and of c (x) 1 being cut and the product; the
    product and, charged to its first item, each output block and the most
    that one of its items holds (the input block and L X or X R, then the
    product with its read in the sum); and the output blocks and, charged
    to the first pair of its label j (i), the comparison of one class of
    blocks a_i (x) c_j at a time (the blocks, a read and their difference),
    at most all labels of one size."""
    lay, n_lab = q.bundle.layout, len(q.labels)
    at, chans = lay.channels_of(idx)
    s, n = lay.pair_size[idx[at]], lay.chan_label[chans]
    first, second = np.divmod(idx[at], n_lab)
    opair = n * n_lab + second if t1 else first * n_lab + n
    ls, out = lay.dims[n] * s, 16 * lay.pair_size[opair] ** 2
    block, lead = 16 * lay.pair_size[idx] ** 2, np.divmod(idx, n_lab)[1 if t1 else 0]
    most = np.zeros(n_lab * n_lab)
    np.maximum.at(most, opair, np.maximum(16 * (s * s + ls), out + np.maximum(16 * ls, out)))
    widest = 48 * lay.dims[lead] ** 2 * max(c * d * d for d, c in lay.dim_count.items())
    o = ranks(opair) == 0  # the first item of each output block
    return (np.bincount(at, 32 * ls, minlength=len(idx)), np.array((
        3 * block, block + np.bincount(at[o], out[o] + most[opair[o]], len(idx)),
        np.bincount(at[o], out[o], len(idx)) + np.where(ranks(lead) == 0, widest, 0))))


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
    fst, weighted = _haar_stacks(q, "left")
    finv = _haar_stacks(q, "right")[0]
    # per probe a_i = f^-1 restricted to block i with phi(a_i) != 0,
    # phi(a_i) and (phi (x) iota)(Delta(a_i)) on the blocks j of the sample:
    # per channel v of (k,j) -> i, w_k Tr_1((F_k (x) 1) v a_i v*)
    sums = []
    for i in sample:
        a = {d: m[:, None] for d, m in _label_stacks(q, {i: q.Finv[i]}).items()}
        phi = haar(q, a, "left")[0]
        if abs(phi) >= 1e-12:
            sums.append((phi, _zero_batch(lay, 1)))
            _Contraction(q, [i], sample, 2, _leg(q, weighted)).run(
                a, sums[-1][1], _nbytes(a, *(x for _, x in sums)))
    delta_blocks = {i: q.Finv[i] @ q.Finv[i] for i in q.labels}
    for j in sample:
        dj, bj = q.d(j), lay.block_of[lay.label_index[j]]
        solved = [x[dj][bj, 0] / phi for phi, x in sums]
        if not solved:
            raise InconsistentSolve(f"no probe with nonzero Haar value for block {j}")
        if not all(residual(solved[0], x) <= 1e-6 * worst(1.0, np.abs(solved[0]))
                   for x in solved[1:]):
            raise InconsistentSolve(f"modular element inconsistent across probes at block {j}")
        if not residual(solved[0], delta_blocks[j]) <= 1e-6:
            raise InconsistentSolve(f"modular block {j} off the f^-2 form")
        delta_blocks[j] = solved[0]

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
    property of the coproduct (V*V = I on every pair, from the layout's
    channel Gram, which validation computes once and shares).  Rows 1 and 8
    hold for all of A, not only for samples.  Haar faithfulness and
    Delta(a*) = Delta(a)* hold by construction and are test oracles.  Window
    bundles get each check on its admissible blocks; anything unreachable is
    skipped explicitly.
    Rows 2, 3 and 6 take one leg of Delta(a) channel by channel
    (_Contraction): per channel v, the counit, the antipode or a Haar
    functional of one leg of v a_k v*, summed by the label of the other
    leg, which they multiply by c after, as taking a leg commutes with it;
    no pair block of Delta(a) is formed.  Row 4 cuts the pair blocks of
    Delta(a) by c (_cut) for the inverses of T1 and T2.
    Each sampled row counts the bytes its items hold (its channels, or
    delta_cost and row 4's own phases), draws its samples in groups that get
    what the row's largest chunk of one run and one sample leaves of
    CHUNK_BYTES (sample_draws, lone), and runs a group's items in chunks
    within the rest (chunks, one walk): a chunk plans its index work once
    and runs each product once for the group's samples, stacked after the
    block axis, or per batch of samples when its items do not fit; sums
    carry over the chunks.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
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

    # (2) counit laws: (eps (x) iota)(Delta(a)) c and (iota (x) eps)(Delta(a)) c
    # against a c, from the blocks (u, n) and (n, u) of Delta(a), whose
    # counit leg is the unit's
    def counit(a, c, got):
        ac = _mul(a, c)
        return ([max_abs(x[d] @ c[d] - ac[d]) for x in got for d in ac],
                [*map(max_abs, ac.values())])

    unit = _leg(q, _label_stacks(q, {u: np.ones((1, 1))}))
    res, scale = _channel_row(q, rng, n_samples, sample, [
        _Contraction(q, sample, sample, keep, unit, lambda n: [u]) for keep in (2, 1)], counit)
    rep.add("2-counit-laws", "samples", res, res <= tol.bound(scale))

    # (3) antipode laws: m(S (x) iota)(Delta(a)) c on the pairs (dual(j), j)
    # and c m(iota (x) S)(Delta(a)) on (i, dual(i)), against eps(a) c
    def antipode_laws(a, c, got):
        ac = _scaled(c, a[1][lay.block_of[lay.label_index[u]], :, 0, 0])
        return ([max_abs(got[0][d] @ c[d] - ac[d]) for d in ac]
                + [max_abs(c[d] @ got[1][d] - ac[d]) for d in ac],
                [*map(max_abs, ac.values()), _sample_max(*a.values()) * _sample_max(*c.values())])

    res, scale = _channel_row(q, rng, n_samples, sample, [
        _Contraction(q, sample, sample, keep, _mult(q), lambda n: [b.dual[n]])
        for keep in (2, 1)], antipode_laws)
    rep.add("3-antipode-laws", "samples", res, res <= tol.bound(scale))

    # (4) T1/T2 bijectivity (_t_inverse_row)
    res, scale = _t_inverse_row(q, rng, sample, n_small)
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
    # a, per antipode a gather and two products, ad f(a) and a difference
    for _, (a,) in sample_draws(q, rng, n_small, 1, None, 10, 0):
        s2 = antipode(q, antipode(q, a))
        adf = {d: fst[d][:, None] @ m @ finv[d][:, None] for d, m in a.items()}
        res += [max_abs(s2[d] - adf[d]) for d in adf]
        scale += [max_abs(m) for m in adf.values()]
        del a, s2, adf  # before the next group's
    res, scale = worst(*res), worst(*scale)
    rep.add("5-s-squared-ad-f", "samples", res, res <= tol.bound(scale))
    sf = antipode(q, {d: m[:, None] for d, m in fst.items()})
    res = worst(*(max_abs(sf[d][:, 0] - finv[d]) for d in finv))
    rep.add("5-antipode-of-f", "all labels", res,
            res <= tol.bound(worst(*(np.abs(m) for m in finv.values()))))

    # (6) Haar invariance: left invariance of phi on the blocks of
    # Delta(a)(c (x) 1) and (c (x) 1)Delta(a), right invariance of psi on
    # those of Delta(a)(1 (x) c) and (1 (x) c)Delta(a): (iota (x) phi)(Delta(a))
    # and (psi (x) iota)(Delta(a)) times c on either side
    def invariance(a, c, got):
        res, scale = [], [_sample_max(*a.values()) * _sample_max(*c.values())]
        for x, side in zip(got, ("left", "right")):
            target = _scaled(c, haar(q, a, side))
            res += [max_abs(y - target[d]) for d in target for y in (x[d] @ c[d], c[d] @ x[d])]
            scale += [max_abs(m) for m in target.values()]
        return res, scale

    res, scale = _channel_row(q, rng, n_samples, sample, [
        _Contraction(q, sample, sample, keep, _leg(q, _haar_stacks(q, side)[1]))
        for keep, side in ((1, "left"), (2, "right"))], invariance)
    rep.add("6-haar-invariance", f"support {sample}", res,
            res <= tol.bound(scale) * 10)

    # (8) homomorphism property of Delta on all of A: on a pair (i,j),
    # Delta(a)Delta(c) - Delta(ac) = V D_a (V* V - I) D_c V*, with V = V_ij
    # stacking the pair's channels and D_a = (+)_k a_k, so the row is the
    # worst entry of the channel Gram V* V - I over all pairs
    res = worst(lay.gram)
    rep.add("8-delta-homomorphism", "V*V = I on all pairs", res, res <= tol.bound(1.0))
    return rep


def _t_inverse_row(q: Aqg, rng, sample, n: int):
    """(residual, scale) of row 4 on n samples: T1^-1 and T2^-1 give back
    a (x) c on the sample support; on a closed bundle a left inverse of an
    endomorphism of the finite-dimensional A (x) A certifies bijectivity.
    T1(a (x) c) = Delta(a)(1 (x) c), T2(a (x) c) = (a (x) 1)Delta(c).  A
    chunk takes whole the labels j (i) whose pairs an output block (i,j)
    sums over and compares the blocks a_i (x) c_j of the support per
    (d_i, d_j) class, zero where the inverse has none, as no chunk's are."""
    lay, n_lab = q.bundle.layout, len(q.labels)
    res, scale = [0.0], [1.0]
    at = np.array([lay.label_index[k] for k in sample], dtype=int)
    held, cut_chunks = zip(*(_cut_chunks(q, sample, leg) for leg in (2, 1)))
    for ng, (a, c) in sample_draws(q, rng, n, 2, sample, 0, max(held)):

        def compare(leg, lead, where, back, s):
            pairs = (at[:, None] * n_lab + lead if leg == 2
                     else lead[:, None] * n_lab + at).ravel()
            first, second = np.divmod(pairs, n_lab)
            for (di, dj), sel in group_by(lay.dims[first], lay.dims[second]):
                want = bkron(a[di][lay.block_of[first[sel]], s],
                             c[dj][lay.block_of[second[sel]], s])
                scale.append(max_abs(want) if leg == 2 else 0.0)  # once a block
                p = where[pairs[sel]]
                want[p >= 0] -= back[want.shape[2:]][p[p >= 0]] if (p >= 0).any() else 0
                res.append(max_abs(want))

        for leg, (x, y), cut in zip((2, 1), ((a, c), (c, a)), cut_chunks):
            taken = np.zeros(n_lab, dtype=bool)
            for idx, batches in cut(ng, _nbytes(a, c)):
                plan = DeltaPlan(q, sample, idx)
                inv = _TInversePlan(q, idx, "t1" if leg == 2 else "t2")
                lead = distinct(np.divmod(idx, n_lab)[leg - 1])
                taken[lead] = True
                for s in batches:
                    back = inv.inverse(_cut(lay, delta_stacks(_at(x, s), plan), _at(y, s), plan,
                                            idx, leg), s.stop - s.start)
                    compare(leg, lead, inv.where, back, s)
                    del back
                del plan, inv
            compare(leg, at[~taken[at]], np.full(n_lab * n_lab, -1), {}, slice(None))
        del a, c, x, y  # before the next group's
    return worst(*res), worst(*scale)
