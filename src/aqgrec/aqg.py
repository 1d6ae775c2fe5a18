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
    add_in_order,
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

    # spot-check invariance of the Haar ansatz before first use
    def ansatz(a, c, got):
        want = _scaled(c, haar(q, a, "left"))
        res = _sample_max(*(got[0][0][d] - want[d] for d in want))
        bad = np.flatnonzero(~(res <= 1e-6 * np.maximum(1.0, _sample_max(*a.values())
                                                        * _sample_max(*c.values()))))
        if len(bad):
            raise InconsistentSolve(f"Haar ansatz fails invariance (residual {res[bad[0]]:.3e})")
        return [], []

    _cut_row(q, np.random.default_rng(7), 2, haar_sample_support(q), (1,), [("right",)], ansatz,
             _HaarPlan)
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
    chunk, which takes whole runs of equal key beside held; a run that does
    not fit alone runs its samples in slices."""
    for lo, hi in walk(fixed + n * phases, held, key):
        per = phases[:, lo:hi].sum(axis=1).max()
        yield lo, hi, [slice(*r) for r in walk(np.full(n, per), held + fixed[lo:hi].sum())]


def lone(key, fixed, phases) -> int:
    """The bytes of a row's largest chunk of one run and one sample (chunks)
    within CHUNK_BYTES, which its groups of samples leave free
    (sample_draws).  A run that overruns the budget alone overruns it
    whatever its group holds, and does not shrink the groups."""
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


class _Cuts:
    """Cut-off coproducts Delta(a) times c on one leg, for batches a with
    blocks on a_labels, planned per chunk of _cut_chunks.  Cut k multiplies
    by c on legs[k] (1: c (x) 1, 2: 1 (x) c), from the right or the left, on
    the pairs idx[k], whose labels of c's leg are lead[k]; per class of
    _pair_classes, groups[k] holds its dims and positions, and classes[k]
    (d of c's leg, d of the other leg, rows of the stacks of plan, the Delta
    plan of every cut, blocks of c)."""

    def __init__(self, q: Aqg, a_labels, idx, legs):
        lay = q.bundle.layout
        self.legs, self.idx = legs, idx
        self.plan = DeltaPlan(q, a_labels, np.concatenate(idx))
        self.lead = [np.divmod(i, len(lay.dims))[leg - 1] for i, leg in zip(idx, legs)]
        self.groups = [_pair_classes(lay, i) for i in idx]
        self.classes = [[
            ((di, dj) if leg == 1 else (dj, di)) + (self.plan.slot[i[sel]],
                                                  lay.block_of[lead[sel]])
            for (di, dj), sel in groups
        ] for leg, i, lead, groups in zip(legs, idx, self.lead, self.groups)]

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


def _cut_chunks(q: Aqg, support, legs, others=None, sides: int = 1, extra=None,
                whole_leads: bool = False):
    """(lone, chunks) of a sampled row's cuts for batches a and c on
    support, planned once per row: chunks(n, held) yields per chunk
    (chunks) a _Cuts over its pairs and the slices of the n samples.  Cut k
    holds the blocks (n, o) by c (x) 1 (legs[k] = 1) or (o, n) by 1 (x) c, n
    in support, o in every label (or others(n)), where Delta(a) does not
    vanish.  The pairs run lead-major for legs[0], so a sum by n carried
    over the chunks adds a cut's pairs by o as one pass does; with
    whole_leads a chunk takes each n's pairs whole.  A chunk holds Delta's
    blocks with Delta's work (delta_cost), then per cut k in turn Delta's
    blocks and extra(k, idx) = (fixed, per_sample), per pair of the cut and
    per sample in each phase (row of per_sample) of its own, the later ones
    without Delta's blocks: by default one phase, a block of Delta and of
    c (x) 1 being cut, the products on `sides` sides and two blocks of their
    consumer (an einsum's copy of the products it contracts, and its
    results)."""
    lay = q.bundle.layout
    n_lab, li = len(lay.dims), lay.label_index
    have = np.zeros(n_lab, dtype=bool)
    have[[li[k] for k in support]] = True
    sup = np.array([li[x] for x in sorted(support)], dtype=int)
    lead, other = (np.array([(li[x], li[o]) for x in sorted(support) for o in others(x)]).T
                   if others else (np.repeat(sup, n_lab), np.tile(np.arange(n_lab), len(sup))))
    into = lay.loaded[:, have].any(axis=1)  # the pairs where Delta(a) does not vanish
    idx = [i[into[i]] for i in (lead * n_lab + other if leg == 1 else other * n_lab + lead
                                for leg in legs)]
    pairs = distinct(np.concatenate(idx))
    key = pairs if legs[0] == 1 else pairs % n_lab * n_lab + pairs // n_lab
    pairs, key = pairs[np.argsort(key)], np.sort(key)
    at = np.zeros(n_lab * n_lab, dtype=int)
    at[pairs] = np.arange(len(pairs))
    fixed, block, work = delta_cost(q, pairs, have)
    phases = [block + work]
    for k, i in enumerate(idx):
        f, x = extra(k, i) if extra else (0, (sides + 4) * block[None, at[i]])
        fixed[at[i]] += f
        x = [np.bincount(at[i], y, len(pairs)) for y in x]
        phases += [block + x[0]] + x[1:]  # Delta's blocks until cut k is made
    key, phases = key // n_lab if whole_leads else key, np.array(phases)
    return lone(key, fixed, phases), lambda n, held: (
        (_Cuts(q, support, [i[(at[i] >= lo) & (at[i] < hi)] for i in idx], legs), batches)
        for lo, hi, batches in chunks(key, fixed, phases, n, held))


def _cut_row(q: Aqg, rng, n: int, support, legs, sides, check, plan=None, others=None):
    """(residual, scale) of a sampled row, the maxima of check(a, c, got)
    over the groups a, c of n samples on support (sample_draws): got[k][t]
    sums by c's label, in item order over the chunks of _cut_chunks, the
    classes plan(q, cuts, k).parts(x) of the products x of cut k from the
    side sides[k][t], or x itself without a plan."""
    lay = q.bundle.layout
    held, cut_chunks = _cut_chunks(q, support, legs, others, len(sides[0]))
    res, scale = [0.0], [1.0]
    for ng, (a, c) in sample_draws(q, rng, n, 2, support, 1 + sum(map(len, sides)), held):
        got = [[_zero_batch(lay, ng, c) for _ in s] for s in sides]
        for cuts, batches in cut_chunks(ng, _nbytes(a, c, *(x for g in got for x in g))):
            adds = [(plan(q, cuts, k).parts if plan else list,
                     order_plan(lay.block_of[cuts.lead[k]], [sel for _, sel in cuts.groups[k]],
                                [dl for dl, *_ in cuts.classes[k]]))
                    for k in range(len(legs))]
            for s in batches:
                da = delta_stacks(_at(a, s), cuts.plan)
                for k, (parts, order) in enumerate(adds):
                    for x, out in zip(cuts.cut(da, _at(c, s), k, sides[k]), got[k]):
                        add_planned({(d, d): m[:, s] for d, m in out.items()}, order, parts(x))
                    del x  # one cut's products at a time
                del da
            del cuts, adds  # before the next chunk's
        more_res, more_scale = check(a, c, got)
        res, scale = res + more_res, scale + more_scale
        del a, c, got  # before the next group's
    return worst(*res), worst(*scale)


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
        if lay.dims[n] in terms:
            total += weights[n] * terms[lay.dims[n]][lay.block_of[n]]
    return total


# ---------------------------------------------------------------------------
# leg-wise operations on pair stacks


class _MultPlan:
    """m(S (x) iota) on cut k of cuts if it is by 1 (x) c, whose pairs must
    be (dual(j), j), or m(iota (x) S) if by c (x) 1, on pairs (i, dual(i)),
    so that every block is exact: per class its dims, the conjugate-pair
    stacks of its output labels and a fixed einsum path."""

    def __init__(self, q: Aqg, cuts, k: int):
        lay = q.bundle.layout
        first, second = np.divmod(cuts.idx[k], len(q.labels))
        if not (_dual_index(q)[first] == second).all():
            raise ValueError("the pairs must be (dual(j), j) or (i, dual(i))")
        self.left = left = cuts.legs[k] == 2
        conj = _conj_stacks(q)
        # sum_ps S(e^i_ps) Y_ps with S(e_ps) = outer(Rbar[:,s], conj(R[p,:]))
        self.spec = "gus,gpe,gpesw->guw" if left else "gapes,ges,gpw->gaw"
        self.work = []
        for (di, dj), sel in cuts.groups[k]:
            rb, rmc, _ = conj[dj if left else di]
            rb, rmc = (s[lay.block_of[cuts.lead[k][sel]]] for s in (rb, rmc))
            t = np.broadcast_to(np.zeros((), dtype=complex), (len(sel), di, dj, di, dj))
            path = np.einsum_path(self.spec, *((rb, rmc, t) if left else (t, rb, rmc)),
                                  optimize=True)[0]
            self.work.append((di, dj, rb, rmc, path))

    def parts(self, x: list) -> list:
        """The parts of add_planned: per class, m(S (x) iota) or
        m(iota (x) S) of the pair stack x."""
        out = []
        for (di, dj, rb, rmc, path), xg in zip(self.work, x):
            n = xg.shape[1]
            rb, rmc = np.repeat(rb, n, axis=0), np.repeat(rmc, n, axis=0)
            t = xg.reshape(-1, di, dj, di, dj)
            y = np.einsum(self.spec, *((rb, rmc, t) if self.left else (t, rb, rmc)), optimize=path)
            out.append(y.reshape((-1, n) + y.shape[1:]))
        return out


class _HaarPlan:
    """The Haar functional on the leg that c does not cut of cut k of cuts:
    phi on leg 2 of a cut by c (x) 1, psi on leg 1 of one by 1 (x) c; per
    class its dims, the F stack and the weights of the contracted leg."""

    def __init__(self, q: Aqg, cuts, k: int):
        lay = q.bundle.layout
        leg = 3 - cuts.legs[k]
        h = np.divmod(cuts.idx[k], len(q.labels))[leg - 1]
        _, fstacks, weights = _haar_stacks(q, "left" if leg == 2 else "right")
        self.spec = "gab,gpaqb->gpq" if leg == 2 else "gab,gapbq->gpq"
        self.work = [
            (di, dj, fstacks[lay.dims[h[sel[0]]]][lay.block_of[h[sel]]],
             weights[h[sel]][:, None, None, None])
            for (di, dj), sel in cuts.groups[k]
        ]

    def parts(self, x: list) -> list:
        """The parts of add_planned: per class, the pair stack x with one
        leg contracted."""
        out = []
        for (di, dj, f, w), xg in zip(self.work, x):
            n = xg.shape[1]
            y = np.einsum(self.spec, np.repeat(f, n, axis=0), xg.reshape(-1, di, dj, di, dj))
            out.append(w * y.reshape((-1, n) + y.shape[1:]))
        return out


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
    property of the coproduct (V*V = I on every pair, from the layout's
    channel Gram, which validation computes once and shares).  Rows 1 and 8
    hold for all of A, not only for samples.  Haar faithfulness and
    Delta(a*) = Delta(a)* hold by construction and are test oracles.  Window
    bundles get each check on its admissible blocks; anything unreachable is
    skipped explicitly.
    Each sampled row counts the bytes its items hold (delta_cost and the
    row's own phases), draws its samples in groups that get what the row's
    largest chunk of one run and one sample leaves of CHUNK_BYTES
    (sample_draws, lone), and runs a group's pairs in chunks within the rest
    (chunks, one walk): a chunk plans its index work once and runs each
    product once for the group's samples, stacked after the block axis, or
    per batch of samples when its pairs do not fit; sums carry over the
    chunks.
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

    # (2) counit laws: the cuts hold the blocks (u, n) of Delta(a)(1 (x) c)
    # and (n, u) of (c (x) 1) Delta(a), whose counit legs are their blocks
    # on label n
    def counit(a, c, got):
        ac = _mul(a, c)
        return [max_abs(g[0][d] - ac[d]) for g in got for d in ac], [*map(max_abs, ac.values())]

    res, scale = _cut_row(q, rng, n_samples, sample, (2, 1), [("right",)] * 2, counit,
                          others=lambda n: [u])
    rep.add("2-counit-laws", "samples", res, res <= tol.bound(scale))

    # (3) antipode laws
    def antipode_laws(a, c, got):
        ac = _scaled(c, a[1][lay.block_of[lay.label_index[u]], :, 0, 0])
        return ([max_abs(g[0][d] - ac[d]) for g in got for d in ac],
                [*map(max_abs, ac.values()), _sample_max(*a.values()) * _sample_max(*c.values())])

    duals = {n: [o for o in b.labels if b.dual[o] == n] for n in b.labels}
    res, scale = _cut_row(q, rng, n_samples, sample, (2, 1), [("right",), ("left",)],
                          antipode_laws, _MultPlan, duals.get)
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
    # those of Delta(a)(1 (x) c) and (1 (x) c)Delta(a); one Delta(a) serves
    # every cutoff
    def invariance(a, c, got):
        res, scale = [], [_sample_max(*a.values()) * _sample_max(*c.values())]
        for g, side in zip(got, ("left", "right")):
            target = _scaled(c, haar(q, a, side))
            res += [max_abs(x[d] - target[d]) for x in g for d in target]
            scale += [max_abs(m) for m in target.values()]
        return res, scale

    res, scale = _cut_row(q, rng, n_samples, sample, (1, 2), [("right", "left")] * 2,
                          invariance, _HaarPlan)
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
    held, cut_chunks = zip(*(_cut_chunks(q, sample, (leg,), whole_leads=True,
                                         extra=lambda k, idx, t1=leg == 2: _t_inverse_cost(
                                             q, idx, t1)) for leg in (2, 1)))
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

        for leg, (x, y, side), cut in zip((2, 1), ((a, c, "right"), (c, a, "left")), cut_chunks):
            taken = np.zeros(n_lab, dtype=bool)
            for cuts, batches in cut(ng, _nbytes(a, c)):
                inv = _TInversePlan(q, cuts.idx[0], "t1" if leg == 2 else "t2")
                lead = distinct(cuts.lead[0])
                taken[lead] = True
                for s in batches:
                    back = inv.inverse(cuts.cut(delta_stacks(_at(x, s), cuts.plan),
                                                _at(y, s), 0, (side,))[0], s.stop - s.start)
                    compare(leg, lead, inv.where, back, s)
                    del back
                del cuts, inv
            compare(leg, at[~taken[at]], np.full(n_lab * n_lab, -1), {}, slice(None))
        del a, c, x, y  # before the next group's
    return worst(*res), worst(*scale)
