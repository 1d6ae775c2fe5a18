"""Reconstruction of the discrete algebraic quantum group attached to a
bundle: the block algebra A, comultiplication, counit, antipode, the
positive element f, Haar functionals, modular data, and the numerical
verification suite for the multiplier-Hopf-*-algebra axioms.

Elements of A are finitely supported block maps i -> B(H_i); elements of
A (x) A are block maps (i,j) -> B(H_i (x) H_j) stored as plain dicts.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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
    cmat,
    dagger,
    distinct,
    frozen_eye,
    group_by,
    max_abs,
    order_plan,
    residual,
    split_by,
    stack_equal,
    worst,
    zero_stacks,
)
from .report import Report


class MissingDual(KeyError):
    pass


# ---------------------------------------------------------------------------
# elements and multipliers


@dataclass
class AqgElement:
    """Finitely supported block map i -> matrix in B(H_i)."""

    blocks: dict[str, Array]

    @property
    def support(self) -> list[str]:
        return sorted(self.blocks)

    def block(self, i: str, d: int) -> Array:
        return self.blocks.get(i, np.zeros((d, d), dtype=complex))

    def scale(self, z: complex) -> "AqgElement":
        return AqgElement({i: z * m for i, m in self.blocks.items()})

    def mul(self, other: "AqgElement") -> "AqgElement":
        common = set(self.blocks) & set(other.blocks)
        return AqgElement({i: self.blocks[i] @ other.blocks[i] for i in common})

    def star(self) -> "AqgElement":
        return AqgElement({i: dagger(m) for i, m in self.blocks.items()})

    def norm(self) -> float:
        return worst(*(np.abs(m) for m in self.blocks.values()))


@dataclass
class Multiplier:
    """Totally defined block map, evaluated lazily with caching."""

    evaluator: object  # callable label -> matrix
    _cache: dict = field(default_factory=dict, repr=False)

    def block(self, i: str) -> Array:
        if i not in self._cache:
            self._cache[i] = cmat(self.evaluator(i))
        return self._cache[i]

    def restrict(self, labels) -> AqgElement:
        return AqgElement({i: self.block(i) for i in labels})


PairElement = dict  # (i, j) -> matrix in B(H_i (x) H_j)


# ---------------------------------------------------------------------------
# the reconstructed quantum group


@dataclass
class Aqg:
    bundle: CategoryBundle
    F: dict[str, Array]
    Finv: dict[str, Array]
    haar_weights: dict[str, float]
    _haar_stacks: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def labels(self) -> list[str]:
        return self.bundle.labels

    def d(self, i: str) -> int:
        return self.bundle.d(i)

    @property
    def f(self) -> Multiplier:
        return Multiplier(lambda i: self.F[i])

    @property
    def finv(self) -> Multiplier:
        return Multiplier(lambda i: self.Finv[i])

    def total_dim(self) -> int:
        return sum(self.d(i) ** 2 for i in self.labels)

    def random_element(self, rng, support=None, hermitian: bool = False) -> AqgElement:
        if support is None:
            support = self.labels
        blocks = {}
        for i in support:
            d = self.d(i)
            m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            blocks[i] = (m + dagger(m)) / 2 if hermitian else cmat(m)
        return AqgElement(blocks)

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
    and spot-checks left invariance of the weighted-trace Haar ansatz on a
    seeded sample before returning.
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
    plan = _HaarPlan(q, cuts.keys[0], 2, "left")
    for _ in range(2):
        a = q.random_element(rng, support=sample)
        bb = q.random_element(rng, support=sample)
        res = _haar_invariance_residual(q, a, bb, cuts, plan)
        if not res <= 1e-6 * worst(1.0, a.norm() * bb.norm()):
            raise InconsistentSolve(
                f"Haar ansatz fails invariance (residual {res:.3e})"
            )
    return q


# ---------------------------------------------------------------------------
# structure maps


def _label_stacks(q: Aqg, mats: dict):
    """Blocks per label stacked by block size, zero where mats has none.

    Returns (have, stacks): have[n] tells whether label n has a block, which
    is stacks[d_n][layout.block_of[n]].
    """
    lay = q.bundle.layout
    have = np.zeros(len(q.labels), dtype=bool)
    stacks = {d: np.zeros((c, d, d), dtype=complex) for d, c in lay.dim_count.items()}
    for k, m in mats.items():
        n = lay.label_index[k]
        have[n] = True
        stacks[lay.dims[n]][lay.block_of[n]] = m
    return have, stacks


class DeltaPlan:
    """The index work of Delta on the pairs with layout indices idx, done
    once for every element whose blocks lie on `labels`.

    slot and count place the blocks: pair p's is out[(s, s)][slot[p]] with s
    = d_i d_j, and count[s] blocks have size s.  work holds, per shape group
    of the layout's Delta work list, the items (channels k in `labels`) of
    wanted pairs as (numbers, V, V*, block of k among its size), and order
    is the schedule that sums them per pair in item order.
    """

    def __init__(self, q: Aqg, labels, idx):
        lay = q.bundle.layout
        groups, item_pair, pair_groups = lay.delta
        self.slot = np.full(len(lay.pairs), -1, dtype=int)
        wanted = distinct(np.asarray(idx, dtype=int))
        self.count = {}
        for d, members in split_by(lay.pair_size[wanted]):
            self.slot[wanted[members]] = np.arange(len(members))
            self.count[int(d)] = len(members)
        have = np.zeros(len(q.labels), dtype=bool)
        have[[lay.label_index[k] for k in labels]] = True
        self.work = []
        for g in sorted(set().union(*(pair_groups[p] for p in wanted))):
            nums, (v, lab, pair) = groups[g]
            use = have[lab] & (self.slot[pair] >= 0)
            if not use.all():
                if not use.any():
                    continue
                nums, v, lab = nums[use], v[use], lab[use]
            self.work.append((nums, v, bdagger(v), lay.block_of[lab]))
        self.order = order_plan(self.slot[item_pair], [w[0] for w in self.work],
                                [(w[1].shape[1],) * 2 for w in self.work])


def delta_stacks(q: Aqg, a: AqgElement, plan: DeltaPlan):
    """Delta(a) on the pairs of plan, as stacks of blocks; a's blocks must
    lie on the plan's labels.

    Returns (out, slot): pair p's block is out[(s, s)][slot[p]], where s is
    d_i d_j.  Each block sums v a_k v* over the loaded channels k in a's
    support, in a.support order, as one stacked product per shape group of
    the layout's Delta work list.
    """
    _, stacks = _label_stacks(q, a.blocks)

    def part(g):
        _, v, vd, blk = plan.work[g]
        return v @ stacks[v.shape[2]][blk] @ vd

    out = {(d, d): np.zeros((n, d, d), dtype=complex) for d, n in plan.count.items()}
    return add_planned(out, plan.order, part), plan.slot


class _Cuts:
    """Cut-off coproducts Delta(a) times b on one leg, for every a with
    blocks on a_labels and b with blocks on b_labels, planned once.

    Cut k multiplies by b on legs[k], from the right, the left or both.
    Its blocks are those of _cut_pairs (others as there), keys[k] in
    delta_cut order, and classes[k] holds per block class (d of b's leg,
    d of the other leg, positions, rows of Delta's stacks, blocks of b
    among their size).  One Delta plan covers the blocks of every cut.
    """

    def __init__(self, q: Aqg, a_labels, b_labels, legs, others=None):
        lay = q.bundle.layout
        self.q, self.legs = q, legs
        where = [_cut_pairs(q, a_labels, sorted(b_labels), leg, others) for leg in legs]
        self.plan = DeltaPlan(q, a_labels, np.concatenate([w[0] for w in where]))
        self.keys = [[lay.pairs[t] for t in idx] for idx, _, _ in where]
        self.classes = [[
            (dl, do, sel, self.plan.slot[idx[sel]], lay.block_of[lead[sel]])
            for (dl, do), sel in group_by(lay.dims[lead], lay.dims[other])
        ] for idx, lead, other in where]

    def delta(self, a: AqgElement) -> dict:
        """Delta(a) on the blocks of every cut, as delta_stacks's stacks."""
        return delta_stacks(self.q, a, self.plan)[0]

    def cut(self, da: dict, b: AqgElement, k: int, sides=("right",)) -> list[PairElement]:
        """Cut k of the Delta(a) stacks da by b, from each of the sides."""
        _, bstacks = _label_stacks(self.q, b.blocks)
        prods = [[None] * len(self.keys[k]) for _ in sides]
        for dl, do, sel, rows, blocks in self.classes[k]:
            blk = da[(dl * do,) * 2][rows]
            bn = bstacks[dl][blocks]
            cut = bkron(bn, frozen_eye(do)) if self.legs[k] == 1 else bkron(frozen_eye(do), bn)
            for side, out in zip(sides, prods):
                for t, m in zip(sel, blk @ cut if side == "right" else cut @ blk):
                    out[t] = m
        return [dict(zip(self.keys[k], p)) for p in prods]


def delta_cut(q: Aqg, a: AqgElement, b: AqgElement, leg: int, side: str,
              plan: _Cuts | None = None) -> PairElement:
    """Cut-off coproduct: Delta(a) multiplied by b on one tensor leg.

    leg=1 means b (x) 1, leg=2 means 1 (x) b; side='left' multiplies the
    cutoff from the left, side='right' from the right.  plan, a _Cuts over
    the supports of a and b with legs (leg,), serves many calls.
    """
    if side not in ("left", "right") or leg not in (1, 2):
        raise ValueError("side must be left/right and leg 1/2")
    plan = plan or _Cuts(q, a.blocks, b.blocks, (leg,))
    return plan.cut(plan.delta(a), b, 0, (side,))[0]


def _cut_pairs(q: Aqg, a_labels, b_support, leg: int, others=None):
    """The blocks of a cut-off coproduct, in delta_cut order: n runs over the
    labels b_support of b, the other leg over every label (or others(n)),
    and blocks where Delta(a) vanishes for a on a_labels are dropped.
    Returns their layout indices with the label indices of the b leg (lead)
    and of the other leg."""
    lay = q.bundle.layout
    n_lab = len(q.labels)
    li = lay.label_index
    lead, other = [], []
    for n in b_support:
        oth = range(n_lab) if others is None else [li[o] for o in others(n)]
        lead += [li[n]] * len(oth)
        other += oth
    lead, other = np.array(lead, dtype=int), np.array(other, dtype=int)
    idx = lead * n_lab + other if leg == 1 else other * n_lab + lead
    have = np.zeros(n_lab, dtype=bool)
    have[[li[k] for k in a_labels]] = True
    keep = lay.loaded[idx][:, have].any(axis=1)
    return idx[keep], lead[keep], other[keep]


def counit(q: Aqg, a: AqgElement) -> complex:
    u = q.bundle.unit
    if u not in a.blocks:
        return 0.0 + 0j
    return complex(a.blocks[u][0, 0])


def antipode(q: Aqg, a: AqgElement) -> AqgElement:
    """S(a)_i = (I (x) r_i*)(I (x) a_{ibar} (x) I)(rbar_i (x) I).

    Written with the conjugate matrices this is S(a)_i = Rbar_i a^T conj(R_i).
    """
    b = q.bundle
    out: dict[str, Array] = {}
    for k in a.support:
        i = b.dual[k]
        if i not in b.conj:
            raise MissingDual(i)
        s = q._rbarmat(i) @ a.blocks[k].T @ q._rmat(i).conj()
        out[i] = out.get(i, 0) + s
    return AqgElement(out)


def haar(q: Aqg, a: AqgElement, side: str = "left") -> complex:
    """phi(a) = sum w_i Tr(F_i a_i); the right functional uses F_i^{-1}."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    mats = q.F if side == "left" else q.Finv
    total = 0.0 + 0j
    for i in a.support:
        total += q.haar_weights[i] * complex(np.trace(mats[i] @ a.blocks[i]))
    return total


# ---------------------------------------------------------------------------
# leg-wise operations on pair elements


class _LabelSums:
    """Sums by label of stacked item results, planned once: item n has the
    label labels[n], part g holds the items numbers[g] (of one block size),
    and sums(part) is the AqgElement whose block o sums, in item order,
    the results of the items labelled o, part(g) being part g's."""

    def __init__(self, q: Aqg, labels, numbers):
        self.q = q
        self.first = {o: n for n, o in enumerate(dict.fromkeys(labels))}
        self.pos, out = zero_stacks([q.d(o) for o in self.first])
        self.shapes = {k: s.shape for k, s in out.items()}
        self.order = order_plan(self.pos[[self.first[o] for o in labels]], numbers,
                                [(q.d(labels[nums[0]]),) * 2 for nums in numbers])

    def sums(self, part) -> AqgElement:
        out = {k: np.zeros(s, dtype=complex) for k, s in self.shapes.items()}
        add_planned(out, self.order, part)
        return AqgElement({o: out[(self.q.d(o),) * 2][self.pos[n]]
                           for o, n in self.first.items()})


class _MultPlan:
    """The work of mult_pair on pair elements with blocks keys: the keys
    whose antipode leg lands on the other leg's label, grouped by block
    shape as by_shape groups them, with per group the item numbers, the
    conjugate-pair stacks and a fixed einsum path."""

    def __init__(self, q: Aqg, keys, which: str):
        if which not in ("s-left", "s-right"):
            raise ValueError("which must be 's-left' or 's-right'")
        b = q.bundle
        self.left = left = which == "s-left"
        self.keys = [(i, j) for i, j in keys if (b.dual[i] == j if left else b.dual[j] == i)]
        labels = [j if left else i for i, j in self.keys]
        shapes: dict[tuple, list[int]] = {}
        for n, (i, j) in enumerate(self.keys):
            shapes.setdefault((q.d(i), q.d(j)), []).append(n)
        # sum_ps S(e^i_ps) Y_ps with S(e_ps) = outer(Rbar[:,s], conj(R[p,:]))
        self.spec = "gus,gpe,gpesw->guw" if left else "gapes,ges,gpw->gaw"
        self.work = []
        for (di, dj), nums in shapes.items():
            o = [labels[n] for n in nums]
            rb = np.stack([q._rbarmat(k) for k in o])
            rmc = np.stack([q._rmat(k).conj() for k in o])
            t = np.broadcast_to(np.zeros((), dtype=complex), (len(nums), di, dj, di, dj))
            path = np.einsum_path(self.spec, *((rb, rmc, t) if left else (t, rb, rmc)),
                                  optimize=True)[0]
            self.work.append((np.array(nums), di, dj, rb, rmc, path))
        self.sums = _LabelSums(q, labels, [w[0] for w in self.work])


def mult_pair(q: Aqg, x: PairElement, which: str, plan: _MultPlan | None = None) -> AqgElement:
    """m(S (x) iota)(x) for which='s-left', m(iota (x) S)(x) for which='s-right'.

    Only the pair blocks whose antipode leg lands on the other leg's label
    contribute, so the result is exact on every loaded block.  plan, a
    _MultPlan over the keys of x, serves many calls.
    """
    plan = plan or _MultPlan(q, list(x), which)

    def part(g):
        nums, di, dj, rb, rmc, path = plan.work[g]
        t = stack_equal([x[plan.keys[n]] for n in nums], (di * dj, di * dj))
        t = t.reshape(-1, di, dj, di, dj)
        ops = (rb, rmc, t) if plan.left else (t, rb, rmc)
        return np.einsum(plan.spec, *ops, optimize=path)

    return plan.sums.sums(part)


def counit_pair(q: Aqg, x: PairElement, leg: int) -> AqgElement:
    """(eps (x) iota)(x) for leg=1, (iota (x) eps)(x) for leg=2."""
    u = q.bundle.unit
    out: dict[str, Array] = {}
    for (i, j), blk in x.items():
        if leg == 1 and i == u:
            out[j] = out.get(j, 0) + blk
        elif leg == 2 and j == u:
            out[i] = out.get(i, 0) + blk
    return AqgElement(out)


def _haar_stacks(q: Aqg, side: str):
    """(stacks, weights) of a Haar functional, built once per q: the
    transposed F_k (side 'left') or F_k^-1 ('right') stacked per block size
    as _label_stacks does, and the weights w_k by label number."""
    if side not in q._haar_stacks:
        mats = q.F if side == "left" else q.Finv
        q._haar_stacks[side] = (
            _label_stacks(q, {k: cmat(m).T for k, m in mats.items()})[1],
            np.array([q.haar_weights[k] for k in q.labels]),
        )
    return q._haar_stacks[side]


class _HaarPlan:
    """The work of haar_pair on pair elements with blocks keys: per block
    class its positions, its dims, the F stack and the weights of the
    contracted leg, and the sums by the label of the other leg."""

    def __init__(self, q: Aqg, keys, leg: int, side: str):
        lay = q.bundle.layout
        self.keys = list(keys)
        idx = np.array([lay.pair_index[p] for p in self.keys], dtype=int)
        first, second = idx // len(q.labels), idx % len(q.labels)
        h, o = (second, first) if leg == 2 else (first, second)
        fstacks, weights = _haar_stacks(q, side)
        self.spec = "gab,gpaqb->gpq" if leg == 2 else "gab,gapbq->gpq"
        self.work = [
            (sel, di, dj, fstacks[lay.dims[h[sel[0]]]][lay.block_of[h[sel]]],
             weights[h[sel]][:, None, None])
            for (di, dj), sel in group_by(lay.dims[first], lay.dims[second])
        ]
        self.sums = _LabelSums(q, [q.labels[n] for n in o], [w[0] for w in self.work])


def haar_pair(q: Aqg, x: PairElement, leg: int, side: str = "left",
              plan: _HaarPlan | None = None) -> AqgElement:
    """Contract one leg of a pair element with a Haar functional.  plan, a
    _HaarPlan over the keys of x, serves many calls."""
    plan = plan or _HaarPlan(q, x, leg, side)

    def part(g):
        sel, di, dj, f, w = plan.work[g]
        t = stack_equal([x[plan.keys[n]] for n in sel], (di * dj, di * dj))
        return w * np.einsum(plan.spec, f, t.reshape(-1, di, dj, di, dj))

    return plan.sums.sums(part)


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


def _haar_invariance_residual(q: Aqg, a: AqgElement, b: AqgElement,
                              cuts: _Cuts, plan: _HaarPlan) -> float:
    """Residual of (iota (x) phi)(Delta(a)(b (x) 1)) = phi(a) b; cuts is a
    _Cuts over the supports of a and b with legs (1,), plan the _HaarPlan
    of its blocks on leg 2."""
    x = delta_cut(q, a, b, leg=1, side="right", plan=cuts)
    lhs = haar_pair(q, x, leg=2, side="left", plan=plan)
    rhs = b.scale(haar(q, a, "left"))
    return element_residual(q, lhs, rhs)


def element_residual(q: Aqg, x: AqgElement, y: AqgElement) -> float:
    return worst(*(
        residual(x.block(i, q.d(i)), y.block(i, q.d(i)))
        for i in set(x.blocks) | set(y.blocks)
    ))


# ---------------------------------------------------------------------------
# T1/T2 and their Sweedler-calculus inverses


def t1_map(q: Aqg, a: AqgElement, b: AqgElement, plan: _Cuts | None = None) -> PairElement:
    """T1(a (x) b) = Delta(a)(1 (x) b); plan as for delta_cut."""
    return delta_cut(q, a, b, leg=2, side="right", plan=plan)


def t2_map(q: Aqg, a: AqgElement, b: AqgElement, plan: _Cuts | None = None) -> PairElement:
    """T2(a (x) b) = (a (x) 1)Delta(b); plan as for delta_cut."""
    return delta_cut(q, b, a, leg=1, side="left", plan=plan)


class _TInversePlan:
    """The work of t1_inverse (which 't1') or t2_inverse ('t2') on pair
    elements with blocks keys.

    An item is a block (i,j) of x with a channel v: of n (x) m -> i,
    m = dual(j), for T1, which adds to the output block (n,j); of
    m (x) n -> j, m = dual(i), for T2, which adds to (i,n).  Items run by
    block, then n in label order, then multiplicity, and every output block
    sums its items in that order.  Per item the output block is a fixed
    chain of two matmuls, L X then R (L X) reshaped for T1 and X R then
    L (X R) for T2, with X the input block; L and R contract v with the
    conjugate pair of j (T1) or i (T2), depend on the item only, and are
    formed here, stacked per item shape.
    """

    def __init__(self, q: Aqg, keys, which: str):
        b = q.bundle
        lay = b.layout
        n_lab = len(q.labels)
        li = lay.label_index
        self.t1 = which == "t1"
        # the channels of (n, m) -> i (T1) or (m, n) -> j (T2) by (m, i or j), n increasing
        m_of = lay.chan_pair % n_lab if self.t1 else lay.chan_pair // n_lab
        chans = {int(c): s for c, s in split_by(m_of * n_lab + lay.chan_label)}
        self.keys, out, size, rows = list(keys), {}, [], []
        groups: dict[tuple, list] = {}
        for t, (i, j) in enumerate(self.keys):
            m = b.dual[j] if self.t1 else b.dual[i]
            for c in chans.get(li[m] * n_lab + li[i if self.t1 else j], ()):
                other = lay.chan_pair[c] // n_lab if self.t1 else lay.chan_pair[c] % n_lab
                n = q.labels[other]
                key = (n, j) if self.t1 else (i, n)
                if key not in out:
                    out[key] = len(out)
                    size.append(q.d(key[0]) * q.d(key[1]))
                rows.append(out[key])
                groups.setdefault((q.d(i), q.d(j), q.d(n)), []).append(
                    (len(rows) - 1, t, c))
        self.out, self.size = list(out), size
        self.pos, zeros = zero_stacks(size)
        self.shapes = {k: s.shape for k, s in zeros.items()}
        self.work = []
        for (di, dj, dn), its in groups.items():
            nums, at, cs = (np.array(col) for col in zip(*its))
            conj = [self.keys[t][1] if self.t1 else self.keys[t][0] for t in at]
            rb = np.stack([q._rbarmat(k) for k in conj])
            rm = np.stack([q._rmat(k) for k in conj])
            v = lay.isometries(cs)
            if self.t1:
                vt = v.reshape(len(cs), dn, -1, di)
                left = (vt.swapaxes(2, 3) @ rm.conj()[:, None]).reshape(-1, dn, di * dj)
                right = (rb[:, None] @ vt.conj()).swapaxes(1, 2).reshape(-1, dj * dn, di)
            else:
                vt = v.reshape(len(cs), -1, dn * dj)
                right = (rb @ vt.conj()).reshape(-1, di, dn, dj).swapaxes(2, 3)
                right = right.reshape(-1, di * dj, dn)
                left = (bdagger(rm) @ vt).reshape(-1, di, dn, dj).swapaxes(1, 2)
                left = left.reshape(-1, dn * di, dj)
            self.work.append((nums, at, di, dj, dn, left, right))
        self.order = order_plan(self.pos[rows], [w[0] for w in self.work],
                                [(size[rows[w[0][0]]],) * 2 for w in self.work])

    def inverse(self, x: PairElement) -> PairElement:
        def part(g):
            _, at, di, dj, dn, left, right = self.work[g]
            xs = stack_equal([x[self.keys[t]] for t in at], (di * dj, di * dj))
            if self.t1:
                z = (left @ xs).reshape(-1, dn, di, dj)
                return (right[:, None] @ z).reshape(-1, dn * dj, dn * dj)
            y = (xs @ right).reshape(-1, di, dj, dn)
            return (left[:, None] @ y).reshape(-1, di * dn, di * dn)

        out = {k: np.zeros(s, dtype=complex) for k, s in self.shapes.items()}
        add_planned(out, self.order, part)
        return {key: out[(s, s)][p] for key, s, p in zip(self.out, self.size, self.pos)}


def t1_inverse(q: Aqg, x: PairElement, plan: _TInversePlan | None = None) -> PairElement:
    """Sum x_(1) (x) S(x_(2)) x_(3) evaluated blockwise.

    Inverts T1 on its image; output pair block (n,j) is exact whenever all
    channels of n (x) dual(j) are loaded.  plan, a _TInversePlan over the
    keys of x, serves many calls.
    """
    return (plan or _TInversePlan(q, x, "t1")).inverse(x)


def t2_inverse(q: Aqg, x: PairElement, plan: _TInversePlan | None = None) -> PairElement:
    """Sum x_(1) S(x_(2)) (x) x_(3) over (iota (x) Delta), inverting T2.

    Output pair block (i,n) is exact whenever all channels of
    dual(i) (x) n are loaded.  plan as for t1_inverse.
    """
    return (plan or _TInversePlan(q, x, "t2")).inverse(x)


# ---------------------------------------------------------------------------
# modular data


def modular_data(q: Aqg, tol: Tolerance = DEFAULT_TOL):
    """Solve for the modular element, KMS conjugation, and scaling constant.

    The modular blocks are recovered from the right-hand Haar identity
    (phi (x) iota)(Delta(a)(1 (x) b)) = phi(a) delta b, checked consistent
    across probes and against the closed form f^{-2}; rho is conjugation by
    f (verified via the trace-exchange identity); mu compares phi after S^2
    with phi.
    """
    rng = np.random.default_rng(11)
    sample = haar_sample_support(q)
    lay = q.bundle.layout
    n_lab = len(q.labels)
    # the probes a_i = f^-2 restricted to block i, for the i with phi(a_i) != 0
    phi = {i: haar(q, AqgElement({i: cmat(q.Finv[i])}), "left") for i in sample}
    probes = [i for i in sample if abs(phi[i]) >= 1e-12]
    slot = np.full(n_lab, -1, dtype=int)
    slot[[lay.label_index[i] for i in probes]] = np.arange(len(probes))
    _, finv = _label_stacks(q, q.Finv)
    fstacks, weights = _haar_stacks(q, "left")
    delta_blocks: dict[str, Array] = {}
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
        if not residual(solved, q.Finv[j] @ q.Finv[j]) <= 1e-6:
            raise InconsistentSolve(f"modular block {j} off the f^-2 form")
        delta_blocks[j] = solved

    delta_mod = Multiplier(
        lambda i: delta_blocks[i] if i in delta_blocks else q.Finv[i] @ q.Finv[i]
    )

    # rho(a) = f a f^{-1}, checked through phi(ab) = phi(b rho(a))
    for _ in range(4):
        a = q.random_element(rng, support=sample)
        c = q.random_element(rng, support=sample)
        lhs = haar(q, a.mul(c), "left")
        rho_a = AqgElement({i: q.F[i] @ a.blocks[i] @ q.Finv[i] for i in a.support})
        rhs = haar(q, c.mul(rho_a), "left")
        if not abs(lhs - rhs) <= 1e-7 * worst(1.0, abs(lhs), abs(rhs)):
            raise InconsistentSolve("KMS conjugation check failed")

    # mu from phi(S^2 a) = mu phi(a)
    mus = []
    for _ in range(4):
        a = q.random_element(rng, support=sample)
        phi_a = haar(q, a, "left")
        if abs(phi_a) < 1e-9:
            continue
        mus.append(haar(q, antipode(q, antipode(q, a)), "left") / phi_a)
    mu = complex(np.mean(mus)) if mus else 1.0 + 0j
    rho = {i: (q.F[i], q.Finv[i]) for i in q.labels}
    return delta_mod, rho, mu


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
    on its admissible blocks;
    anything unreachable is skipped explicitly.  Block families are
    evaluated as stacked products, one per block shape.  The samples of a
    row share one support, so each row plans its index work (blocks,
    classes, work groups, sum schedules) once and runs only the products
    per sample.
    """
    rep = Report("hopf-axioms")
    rng = np.random.default_rng(seed)
    b = q.bundle
    sample = haar_sample_support(q)
    n_small = max(2, n_samples // 4)
    u = b.unit

    # (1) coassociativity on all of B(H_m), from the F-move certificate of
    # every admissible (i,j,k -> m)
    triples, _, fres, _ = b.layout.fmoves
    if len(triples):
        res = worst(fres)
        rep.add("1-coassociativity", f"{len(triples)} triples", res,
                res <= tol.bound(1.0))
    else:
        rep.skip("1-coassociativity", "no admissible triples")
    # n_small random elements are drawn and dropped: the seeded rows below
    # keep the values that the pinned reports hold
    for _ in range(n_small):
        q.random_element(rng)

    # (2) counit laws
    res, scale = [0.0], [1.0]
    cuts = _Cuts(q, sample, sample, (2, 1), lambda n: [u])
    for t in range(n_samples):
        a = q.random_element(rng, support=sample)
        c = q.random_element(rng, support=sample)
        da = cuts.delta(a)
        (x1,), (x2,) = cuts.cut(da, c, 0), cuts.cut(da, c, 1)
        ac = a.mul(c)
        res += [element_residual(q, counit_pair(q, x1, leg=1), ac),
                element_residual(q, counit_pair(q, x2, leg=2), ac)]
        scale.append(ac.norm())
    res, scale = worst(*res), worst(*scale)
    rep.add("2-counit-laws", "samples", res, res <= tol.bound(scale))

    # (3) antipode laws
    res, scale = [0.0], [1.0]
    duals = {n: [o for o in b.labels if b.dual[o] == n] for n in b.labels}
    cuts = _Cuts(q, sample, sample, (2, 1), duals.get)
    mults = [_MultPlan(q, cuts.keys[0], "s-left"), _MultPlan(q, cuts.keys[1], "s-right")]
    for t in range(n_samples):
        a = q.random_element(rng, support=sample)
        c = q.random_element(rng, support=sample)
        eps_a = counit(q, a)
        da = cuts.delta(a)
        (x1,), (x2,) = cuts.cut(da, c, 0), cuts.cut(da, c, 1, ("left",))
        target = c.scale(eps_a)
        res += [element_residual(q, mult_pair(q, x1, "s-left", mults[0]), target),
                element_residual(q, mult_pair(q, x2, "s-right", mults[1]), target)]
        scale += [target.norm(), a.norm() * c.norm()]
    res, scale = worst(*res), worst(*scale)
    rep.add("3-antipode-laws", "samples", res, res <= tol.bound(scale))

    # (4) T1/T2 bijectivity: T1^-1 and T2^-1 give back a (x) c on the
    # sample support; on a closed bundle a left inverse of an endomorphism of
    # the finite-dimensional A (x) A certifies bijectivity.  The blocks a_i
    # (x) c_j are compared per (d_i, d_j) class of the support's pairs
    res, scale = [0.0], [1.0]
    cuts1, cuts2 = (_Cuts(q, sample, sample, (leg,)) for leg in (2, 1))
    inv1 = _TInversePlan(q, cuts1.keys[0], "t1")
    inv2 = _TInversePlan(q, cuts2.keys[0], "t2")
    lay = b.layout
    at = np.array([lay.label_index[k] for k in sample], dtype=int)
    first, second = np.repeat(at, len(at)), np.tile(at, len(at))
    targets = [([(q.labels[i], q.labels[j]) for i, j in zip(first[sel], second[sel])],
                dims, lay.block_of[first[sel]], lay.block_of[second[sel]])
               for dims, sel in group_by(lay.dims[first], lay.dims[second])]
    for t in range(n_small):
        a = q.random_element(rng, support=sample)
        c = q.random_element(rng, support=sample)
        backs = (t1_inverse(q, t1_map(q, a, c, cuts1), inv1),
                 t2_inverse(q, t2_map(q, a, c, cuts2), inv2))
        _, astacks = _label_stacks(q, a.blocks)
        _, cstacks = _label_stacks(q, c.blocks)
        for keys, (di, dj), ia, jc in targets:
            want = bkron(astacks[di][ia], cstacks[dj][jc])
            zero = np.zeros(want.shape[1:], dtype=complex)
            for back in backs:
                got = stack_equal([back.get(k, zero) for k in keys], want.shape[1:])
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
    fmul = q.f.restrict(b.labels)
    finvmul = q.finv.restrict(b.labels)
    for t in range(n_small):
        a = q.random_element(rng)
        s2 = antipode(q, antipode(q, a))
        adf = fmul.mul(a).mul(finvmul)
        res.append(element_residual(q, s2, adf))
        scale.append(adf.norm())
    res, scale = worst(*res), worst(*scale)
    rep.add("5-s-squared-ad-f", "samples", res, res <= tol.bound(scale))
    sf = antipode(q, fmul)
    res = element_residual(q, sf, finvmul)
    rep.add("5-antipode-of-f", "all labels", res,
            res <= tol.bound(finvmul.norm()))

    # (6) Haar invariance
    res, scale = [0.0], [1.0]
    cuts = _Cuts(q, sample, sample, (1, 2))
    haars = [_HaarPlan(q, cuts.keys[0], 2, "left"), _HaarPlan(q, cuts.keys[1], 1, "right")]
    for t in range(n_samples):
        a = q.random_element(rng, support=sample)
        c = q.random_element(rng, support=sample)
        # one Delta(a) serves every cutoff
        da = cuts.delta(a)
        # left invariance of phi, both cutoff shapes
        x1, x2 = cuts.cut(da, c, 0, ("right", "left"))
        lhs1 = haar_pair(q, x1, leg=2, side="left", plan=haars[0])
        lhs2 = haar_pair(q, x2, leg=2, side="left", plan=haars[0])
        t1 = c.scale(haar(q, a, "left"))
        # right invariance of psi
        x3, x4 = cuts.cut(da, c, 1, ("right", "left"))
        lhs3 = haar_pair(q, x3, leg=1, side="right", plan=haars[1])
        lhs4 = haar_pair(q, x4, leg=1, side="right", plan=haars[1])
        t2 = c.scale(haar(q, a, "right"))
        res += [
            element_residual(q, lhs1, t1),
            element_residual(q, lhs2, t1),
            element_residual(q, lhs3, t2),
            element_residual(q, lhs4, t2),
        ]
        scale += [t1.norm(), t2.norm(), a.norm() * c.norm()]
    res, scale = worst(*res), worst(*scale)
    rep.add("6-haar-invariance", f"support {sample}", res,
            res <= tol.bound(scale) * 10)

    # (8) homomorphism property of Delta.  The residual and scale are
    # maxima, so the pairs are taken one size d_i d_j at a time, with their
    # own plan, and at most three Delta stacks of one size are held
    res, scale = [0.0], [1.0]
    samples = [(q.random_element(rng), q.random_element(rng)) for _ in range(n_small)]
    samples = [(a, a.mul(c), c, worst(1.0, c.norm())) for a, c in samples]
    for _, pairs in split_by(b.layout.pair_size):
        plan = DeltaPlan(q, b.labels, pairs)
        for a, ac, c, cn in samples:
            da, _ = delta_stacks(q, a, plan)
            dac, _ = delta_stacks(q, ac, plan)
            dc, _ = delta_stacks(q, c, plan)
            for shape in da:
                res.append(max_abs(dac[shape] - da[shape] @ dc[shape]))
                scale.append(max_abs(da[shape]) * cn)
            del da, dac, dc
        del plan
    res, scale = worst(*res), worst(*scale)
    rep.add("8-delta-homomorphism", "all pairs", res, res <= tol.bound(scale))
    return rep

