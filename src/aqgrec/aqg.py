"""Reconstruction of the discrete algebraic quantum group attached to a
bundle: the block algebra A, comultiplication, counit, antipode, the
positive element f, Haar functionals, modular data, and the numerical
verification suite for the multiplier-Hopf-*-algebra axioms.

Elements of A are finitely supported block maps i -> B(H_i), handled in
batches: a batch of n elements maps each block size d to an array (labels of
size d, n, d, d), whose row layout.block_of[i] holds label i, zero where an
element has no block.  Elements of A (x) A are block maps (i,j) ->
B(H_i (x) H_j), and row 4 holds its blocks (i,j) of T1^-1(Delta(a)) and
T2^-1(Delta(c)) stacked per side D = d_i d_j as (blocks, n, D, D).  The
sample axis comes after the block axis, so every planned product runs once
per batch.
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
    Normals,
    Tolerance,
    add_planned,
    dagger,
    group_by,
    max_abs,
    order_plan,
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
        call of rng (linalg.Normals), one stream, which yields the numbers
        drawn one block at a time."""
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

    Extracts f and fixes the Haar weights w_i = Tr F_i.  With validate, the
    bundle passes both input guards first: validate_bundle, and then the
    Haar spot check (haar_spot_check) before returning; without it, neither
    runs, so that the checks see a defective bundle.
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
    if validate:
        haar_spot_check(q)
    return q


def haar_spot_check(q: Aqg) -> None:
    """Left invariance of the weighted-trace Haar ansatz on two seeded
    samples, (iota (x) phi)(Delta(a)) c = phi(a) c, per sample against the
    larger of 1 and the samples' scale; raises InconsistentSolve past a
    relative 1e-6."""
    def ansatz(a, c, got):
        want = _scaled(c, haar(q, a, "left"))
        res = _sample_max(*(got[0][d] @ c[d] - want[d] for d in want))
        return [res / np.maximum(1.0, _sample_max(*a.values()) * _sample_max(*c.values()))], []

    sample = haar_sample_support(q)
    res, _ = _channel_row(q, Normals(7), 2, sample, [
        _Contraction(q, sample, sample, 1, _leg(q, _haar_stacks(q, "left")[1]))], ansatz)
    if not res <= 1e-6:
        raise InconsistentSolve(f"Haar ansatz fails invariance (relative residual {res:.3e})")


# ---------------------------------------------------------------------------
# batches


def sample_draws(q: Aqg, rng, n: int, k: int, support, kept: int, held: int):
    """(m, k batches of m random elements on support) per group of the n
    samples, drawn as random_batch draws them all: a group holds its batches
    and kept bytes a sample more within CHUNK_BYTES beside held (walk)."""
    for lo, hi in walk(np.full(n, k * _sample_bytes(q, support) + kept), held):
        yield hi - lo, q.random_batch(rng, hi - lo, k, support)


def _sample_bytes(q: Aqg, support) -> int:
    """The bytes of one sample of a batch on support (random_batch)."""
    lay = q.bundle.layout
    sizes = lay.dims[[lay.label_index[i] for i in support or q.labels]]
    return 16 * sum(c * d * d for d, c in lay.dim_count.items() if d in sizes)


def chunks(fixed, phases, n: int, held: int):
    """(lo, hi, slices of the n samples) per chunk of a row's items (walk):
    item p holds fixed[p] bytes and phases[t, p] a sample in phase t of its
    chunk, beside held; an item that does not fit alone runs its samples in
    slices."""
    for lo, hi in walk(fixed + n * phases, held):
        per = phases[:, lo:hi].sum(axis=1).max()
        yield lo, hi, [slice(*r) for r in walk(np.full(n, per), held + fixed[lo:hi].sum())]


def lone(fixed, phases) -> int:
    """The bytes of a row's largest item and one sample (chunks) within
    CHUNK_BYTES, which its groups of samples leave free (sample_draws).  An
    item that overruns the budget alone overruns it whatever its group
    holds, and does not shrink the groups."""
    most = (fixed + phases).max(axis=0, initial=0)
    return int(np.max(most[most <= linalg.CHUNK_BYTES], initial=0))


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


# ---------------------------------------------------------------------------
# structure maps


def _conj_stacks(q: Aqg):
    """The conjugate pairs, stacked once per q on first use: per block size
    d, Rbar_i and conj(R_i) of the labels i of size d in block order, and
    the blocks of their duals.  R_i is r_i as a d_dual(i) x d_i matrix and
    Rbar_i is rbar_i as d_i x d_dual(i), both square as the zigzag checks of
    f_element force.  The antipode, rows 3 and 4, the R-matrix's antipode
    rows and the dual's antipode table read them."""
    if "conj" not in q._cache:
        lay, conj = q.bundle.layout, q.bundle.conj
        r, rbar = (_label_stacks(q, {i: conj[i][t].reshape(q.d(i), -1) for i in q.labels})
                   for t in (0, 1))
        q._cache["conj"] = {int(d): (rbar[d], r[d].conj(), lay.block_of[lay.dual[sel]])
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
    channel; an item holds 80 bytes an entry of v (P, Q and their making).
    The kernel (_plan, run) serves _TInverse too: item x, whose channel
    chans[x] goes into the label k of a_k, adds its D x D block, D =
    size[x], to out[D][slot[x]] (here the lead's block); the items of equal
    keys share their shapes, and _items makes their P and Q, stacked."""

    def __init__(self, q: Aqg, labels, leads, keep: int, bind, others=None):
        lay = q.bundle.layout
        li, n_lab = lay.label_index, len(lay.dims)
        lead, other = np.array([(li[n], li[o]) for n in leads for o in (others or (
            lambda n: q.labels))(n)], dtype=int).reshape(-1, 2).T
        at, chans = lay.channels_of(lead * n_lab + other if keep == 1 else other * n_lab + lead)
        have = np.zeros(n_lab, dtype=bool)
        have[[li[k] for k in labels]] = True
        use = have[lay.chan_label[chans]]
        self.lead, self.other = lead[at[use]], other[at[use]]
        self.lay, self.keep, self.bind = lay, keep, bind
        chans = chans[use]
        s, d = lay.pair_size[lay.chan_pair[chans]], lay.dims[lay.chan_label[chans]]
        self._plan(chans, lay.block_of[self.lead], lay.dims[self.lead],
                   (lay.dims[self.other], lay.chan_shape[chans]), 80 * s * d, s)

    def _plan(self, chans, slot, size, keys, fixed, rows) -> None:
        """The items: item x holds fixed[x] bytes, and per sample a's block,
        P a_k (rows[x] rows) and twice its block; lone is its largest item
        (lone)."""
        self.chans, self.slot, self.size, self.keys = chans, slot, size, (size, *keys)
        d = self.lay.dims[self.lay.chan_label[chans]]
        self.fixed, self.phases = fixed, 16 * (d * d + rows * d + 2 * size ** 2)[None]
        self.lone = lone(self.fixed, self.phases)

    def _items(self, nums):
        """P and Q for the items nums, of equal keys (bind)."""
        v = self.lay.isometries(self.chans[nums])
        g, _, dk = v.shape
        dl = self.size[nums[0]]
        return self.bind(v.reshape((g, dl, -1, dk) if self.keep == 1 else (g, -1, dl, dk)),
                         self.lead[nums], self.other[nums], self.keep)

    def run(self, a: dict, out: dict, held: int, lo: int = 0, hi: int | None = None,
            slot=None) -> None:
        """Add the sums of the items lo:hi (all by default) for the batch a
        to out (blocks of side D as out[D], (blocks, samples, D, D)), item
        x's at out[size[x]][slot[x - lo]] (its own slot by default), each in
        item order over the chunks (chunks) within CHUNK_BYTES beside
        held."""
        lay = self.lay
        hi = len(self.chans) if hi is None else hi
        slot = self.slot[lo:hi] if slot is None else slot
        for c0, c1, batches in chunks(self.fixed[lo:hi], self.phases[:, lo:hi],
                                      next(iter(a.values())).shape[1], held):
            work = []
            for _, nums in group_by(*(k[lo + c0:lo + c1] for k in self.keys)):
                x = lo + c0 + nums
                p, m = self._items(x)
                work.append((nums, p, m, lay.block_of[lay.chan_label[self.chans[x]]],
                             self.size[x[0]]))
            order = order_plan(slot[c0:c1], [w[0] for w in work], [w[4] for w in work])
            for s in batches:
                parts = []
                for _, p, m, blk, d in work:
                    x = p[:, None] @ a[p.shape[2]][blk, s]
                    x = x.reshape(x.shape[:2] + (-1, m.shape[1])) @ m[:, None]
                    parts.append(x.reshape(x.shape[:2] + (d, d)))
                add_planned({(d, d): o[:, s] for d, o in out.items()}, order, parts)
                del parts, x  # before the next batch's


class _TInverse(_Contraction):
    """Row 4's blocks of T1^-1(Delta(a)) (keep 2) or T2^-1(Delta(c))
    (keep 1), where T1^-1(x (x) y) = x_(1) (x) S(x_(2)) y and T2^-1(x (x)
    y) = x S(y_(1)) (x) y_(2): for s and n in support, the block (n, s) of
    T1^-1(Delta(a)), which is a_n (x) I_s, or (s, n) of T2^-1(Delta(c)),
    which is I_s (x) c_n.  Taking T1^-1 commutes with multiplying leg 2 by
    c, and T2^-1 with multiplying leg 1 by a, so the row multiplies the
    blocks by c (by a) after.

    An item is a channel v of n (x) dual(s) -> m (T1) or dual(s) (x) n -> m
    (T2) with a channel w of m (x) s -> k (T1) or s (x) m -> k (T2), k in
    support; it holds the making of P and Q as its fixed bytes.  Per item,
    u = (v (x) 1) w (T1) or (1 (x) v) w (T2) maps H_k into H_n (x)
    H_dual(s) (x) H_s or H_s (x) H_dual(s) (x) H_n, and the block adds
    m(S (x) iota) or m(iota (x) S) (_mult) of the legs of s and dual(s) of
    u a_k u*, the leg of n passive.  It is (P x_k) Q, laid out as a d_n x
    d_n grid of d_s x d_s blocks (leg of n, then leg of s), which is x_n
    (x) I_s for the batch x that run is given: T1's x is a, its P =
    conj(R_s) . u takes both legs and Q = Rbar_s conj(u) one; T2's x is the
    transpose of c, as its P = (Rbar_s . conj(u))^T takes both legs of the
    right side u* and Q = (conj(R_s) u)^T one.  So no pair block of
    Delta(a) is formed.

    The blocks are the pairs (s[b], n[b]) of support, s-major; the items
    run by block, item x adds to block[x], and the items of block b are
    start[b]:start[b + 1].  run takes the slots of the blocks it is given."""

    def __init__(self, q: Aqg, support, keep: int):
        lay = q.bundle.layout
        n_lab = len(lay.dims)
        at = np.array([lay.label_index[k] for k in support], dtype=int)
        self.s, self.n = np.repeat(at, len(at)), np.tile(at, len(at))
        dual = lay.dual[self.s]
        vat, v = lay.channels_of(self.n * n_lab + dual if keep == 2 else dual * n_lab + self.n)
        mid = lay.chan_label[v]
        wat, w = lay.channels_of(mid * n_lab + self.s[vat] if keep == 2
                                 else self.s[vat] * n_lab + mid)
        have = np.zeros(n_lab, dtype=bool)
        have[at] = True
        use = have[lay.chan_label[w]]
        self.v, w, pair = v[wat[use]], w[use], vat[wat[use]]
        self.lead, self.other, self.lay, self.keep = self.s[pair], self.n[pair], lay, keep
        self.conj = _conj_stacks(q)
        self.start = np.searchsorted(pair, np.arange(len(self.s) + 1))
        self.block = pair
        ds, dn, dm = (lay.dims[x] for x in (self.lead, self.other, mid[wat[use]]))
        dk = lay.dims[lay.chan_label[w]]
        self._plan(w, None, ds * dn,
                   (dn, lay.chan_shape[self.v], lay.chan_shape[w]),
                   16 * (3 * dn * ds * dm + 2 * dm * ds * dk + dn * dk + 2 * dn * ds * ds * dk),
                   dn)

    def _items(self, nums):
        lay, g = self.lay, len(nums)
        v, w = lay.isometries(self.v[nums]), lay.isometries(self.chans[nums])
        ds, dn = (int(lay.dims[x[nums[0]]]) for x in (self.lead, self.other))
        dm, dk = v.shape[2], w.shape[2]
        rb, rmc = (x[lay.block_of[self.lead[nums]]] for x in self.conj[ds][:2])
        if self.keep == 2:
            v = v.reshape(g, dn, ds, dm)
            p = (v.swapaxes(2, 3) @ rmc[:, None]).reshape(g, dn, dm * ds) @ w
            m = (rb[:, None] @ v.conj()).reshape(g, dn * ds, dm) @ w.conj().reshape(g, dm, ds * dk)
            return p, m.reshape(g, dn, ds, ds, dk).transpose(0, 4, 1, 2, 3).reshape(g, dk, -1)
        v = v.reshape(g, ds, dn * dm)
        t = (rb @ v.conj()).reshape(g, ds, dn, dm).swapaxes(1, 2)
        p = t.reshape(g, dn, ds * dm) @ w.conj()
        t = (v.swapaxes(1, 2) @ rmc).reshape(g, dn, dm, ds).swapaxes(1, 2)
        m = w.reshape(g, ds, dm, dk).transpose(0, 3, 1, 2).reshape(g, dk * ds, dm) @ t.reshape(
            g, dm, dn * ds)
        return p, m.reshape(g, dk, ds, dn, ds).swapaxes(2, 3).reshape(g, dk, -1)


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
    for ng, (a, c) in sample_draws(q, rng, n, 2, support,
                                   (len(cuts) + 3) * _sample_bytes(q, support),
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
# modular data


def modular_data(q: Aqg, tol: Tolerance = DEFAULT_TOL):
    """Solve for the modular element, KMS conjugation, and scaling constant.

    The modular blocks are recovered from the right-hand Haar identity
    (phi (x) iota)(Delta(a)(1 (x) b)) = phi(a) delta b, checked consistent
    across probes and against the closed form f^{-2}; rho is conjugation by
    f (verified via the trace-exchange identity); mu compares phi after S^2
    with phi.  Returns delta as its blocks by label, rho and mu.
    """
    rng = Normals(11)
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
    no pair block of Delta(a) is formed.  Row 4 runs on its sibling
    _TInverse: per pair of channels it takes m(S (x) iota) or m(iota (x) S)
    of two legs of (v (x) 1) w a_k w* (v* (x) 1), and multiplies the blocks
    of T1^-1(Delta(a)) and T2^-1(Delta(c)) by c and a after.
    Each sampled row counts the bytes its items hold, draws its samples in
    groups that get what the row's largest item and one sample leaves of
    CHUNK_BYTES (sample_draws, lone), and runs a group's items in chunks
    within the rest (chunks, one walk; row 4 first cuts its blocks into
    parts whose sums fit): a chunk plans its index work once and runs each
    product once for the group's samples, stacked after the block axis, or
    per batch of samples when its items do not fit; sums carry over the
    chunks.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    rep = Report("hopf-axioms")
    rng = Normals(seed)
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
    for _, (a,) in sample_draws(q, rng, n_small, 1, None, 10 * _sample_bytes(q, None), 0):
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
    T1(a (x) c) = Delta(a)(1 (x) c), T2(a (x) c) = (a (x) 1)Delta(c).  The
    blocks of T1^-1(Delta(a)) times c_s and of T2^-1(Delta(c)) (_TInverse of
    the transpose of c) times a_s are compared with a_i (x) c_j, per (d_n,
    d_s) class, for every pair of the support, zero where no item adds.

    The blocks run in parts (walk) that hold their sums for the group's
    samples, whose items run in chunks within the rest (run), and are
    compared per class in slices of the samples, a slice holding four times
    its sums.  A group of samples leaves room for the largest block and item
    (lone)."""
    lay = q.bundle.layout
    cuts = [_TInverse(q, sample, keep) for keep in (2, 1)]
    sizes = [lay.dims[cut.s] * lay.dims[cut.n] for cut in cuts]
    res, scale = [0.0], [1.0]
    for ng, (a, c) in sample_draws(q, rng, n, 2, sample, 0, max(cut.lone for cut in cuts)):
        for cut, size, x, y in zip(cuts, sizes, (a, {d: m.swapaxes(2, 3) for d, m in c.items()}),
                                   (c, a)):
            for lo, hi in walk(80 * ng * size ** 2, _nbytes(a, c) + cut.lone):
                slot, count = slots(size[lo:hi])
                out = {d: np.zeros((k, ng, d, d), dtype=complex) for d, k in count.items()}
                first, last = cut.start[lo], cut.start[hi]
                cut.run(x, out, _nbytes(a, c, out), first, last, slot[cut.block[first:last] - lo])
                for (dn, ds), sel in group_by(lay.dims[cut.n[lo:hi]], lay.dims[cut.s[lo:hi]]):
                    for t in walk(np.full(ng, 64 * len(sel) * (dn * ds) ** 2), _nbytes(a, c, out)):
                        t = slice(*t)
                        ys = y[ds][lay.block_of[cut.s[lo + sel]], t, None, None]
                        want = x[dn][lay.block_of[cut.n[lo + sel]], t, :, :, None, None] * ys
                        got = out[dn * ds][slot[sel], t].reshape(want.shape[:4] + (ds, ds))
                        got = got @ ys if cut.keep == 2 else ys @ got
                        got -= want
                        scale.append(worst(max_abs(want)))
                        res.append(worst(max_abs(got)))
                del out, got, want  # before the next part's
    return worst(*res), worst(*scale)
