"""Dense complex matrix kernel.

All matrices are 2-d complex numpy arrays in row-major layout. Columns of
isometries are basis vectors of morphism spaces; everything downstream of this
module manipulates only such arrays.

Work that repeats over blocks runs on stacks: items (tuples of matrices) are
grouped by shape, each group is stacked along a leading axis, and one
np.matmul / broadcast product evaluates the whole group.  Per item, a stacked
product performs the same floating-point operations as the 2-d one.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

Array = np.ndarray


@dataclass(frozen=True)
class Tolerance:
    """Combined absolute/relative comparison contract.

    x matches y iff ||x - y|| <= absolute + relative * max(||x||, ||y||),
    with the max-entry norm.
    """

    absolute: float = 1e-9
    relative: float = 1e-9

    def __post_init__(self):
        if not (np.isfinite(self.absolute) and np.isfinite(self.relative)):
            raise ValueError("tolerances must be finite")
        if self.absolute < 0 or self.relative < 0:
            raise ValueError("tolerances must be >= 0")

    def bound(self, x: Array | float, y: Array | float = 0.0) -> float:
        nx = np.max(np.abs(x)) if np.size(x) else 0.0
        ny = np.max(np.abs(y)) if np.size(y) else 0.0
        return self.absolute + self.relative * max(nx, ny)

    def bounds(self, x: Array, y: Array) -> Array:
        """bound(x[n], y[n]) for every matrix n of two stacks."""
        return self.absolute + self.relative * np.maximum(max_abs(x), max_abs(y))


DEFAULT_TOL = Tolerance()

# the memory budget of every chunk of stacked work (walk): the quadruples of
# an F-move certificate and their batches of path products, the groups of
# samples of a sampled check, and its chunks of pairs and batches of samples
# beside the group; counted from the shapes of what a chunk holds
CHUNK_BYTES = 1 << 22


class Normals:
    """A seeded stream of standard normal draws on the stdlib generator,
    random.Random(seed), which numpy loads anyway: no process loads
    numpy.random.

    Each draw takes 16 bytes of Random.randbytes, read as two little-endian
    64-bit words whatever the platform, turns their top 53 bits into
    uniforms u, v in (0, 1], and is the Box-Muller normal
    sqrt(-2 ln u) cos(2 pi v) (Box & Muller 1958).  The sine of the pair is
    dropped, so every draw takes the same bytes, and n draws and then m
    draws are the n + m draws of one call, bit for bit.
    """

    def __init__(self, seed: int):
        self._gen = random.Random(seed)

    def standard_normal(self, size) -> Array:
        """Draws of shape size (an int or a tuple), in row-major order."""
        shape = tuple(size) if isinstance(size, tuple) else (size,)
        words = np.frombuffer(self._gen.randbytes(16 * math.prod(shape)), dtype="<u8")
        u = ((words >> np.uint64(11)) + np.uint64(1)) * 2.0 ** -53
        return (np.sqrt(-2.0 * np.log(u[0::2])) * np.cos(2 * np.pi * u[1::2])).reshape(shape)


def residual(x, y) -> float:
    """Max-entry norm of x - y (scalars and arrays alike)."""
    d = np.asarray(x) - np.asarray(y)
    return float(np.max(np.abs(d))) if d.size else 0.0


def worst(*values) -> float:
    """NaN-sticky maximum of scalars and arrays; 0.0 when all are empty.

    The builtin max drops NaN (max(0.0, nan) == 0.0), which would let a NaN
    residual through every bound; this returns NaN if any value is NaN.
    """
    flat = [np.ravel(np.asarray(v, dtype=float)) for v in values]
    flat = [v for v in flat if v.size]
    return float(np.max(np.concatenate(flat))) if flat else 0.0


def max_abs(x: Array) -> Array:
    """Per-matrix max-entry norm over the last two axes of a stack (0 for
    an empty matrix)."""
    return np.max(np.abs(x), axis=(-2, -1), initial=0.0)


# ---------------------------------------------------------------------------
# stacked kernels

def flat_stacks(mats) -> tuple[Array, Array, Array, Array, list]:
    """Matrices stacked per shape, in first-seen shape order, every stack a
    view of one flat buffer.

    Returns (flat, start, shape, slot, stacks): mats[n] is
    stacks[shape[n]][slot[n]], and its entries, in row-major order, are
    flat[start[n]:start[n] + mats[n].size].
    """
    ids: dict[tuple, int] = {}
    lists: list[list] = []
    shape, slot = np.zeros(len(mats), dtype=int), np.zeros(len(mats), dtype=int)
    for n, m in enumerate(mats):
        s = ids.setdefault(m.shape, len(ids))
        if s == len(lists):
            lists.append([])
        shape[n], slot[n] = s, len(lists[s])
        lists[s].append(m)
    sizes = np.array([math.prod(sh) for sh in ids], dtype=int)
    lo = np.cumsum([0] + [len(ms) * z for ms, z in zip(lists, sizes.tolist())])
    flat = np.empty(int(lo[-1]), dtype=np.result_type(*{m.dtype for m in mats})
                    if mats else complex)
    stacks = [flat[lo[s]:lo[s + 1]].reshape((len(ms),) + sh)
              for s, (sh, ms) in enumerate(zip(ids, lists))]
    for stack, ms in zip(stacks, lists):
        np.concatenate(ms, out=stack.reshape((-1,) + stack.shape[2:]))
    return flat, lo[shape] + slot * sizes[shape], shape, slot, stacks


def walk(cost, held=0, key=None) -> list[tuple[int, int]]:
    """The chunks of the items in order, as ranges (lo, hi) within
    CHUNK_BYTES beside held bytes (held[t] in phase t).  Item x holds
    cost[x], or cost[t, x] in phase t of its chunk, which holds the most of
    its phases' sums.  A chunk takes whole runs of equal key (each item is
    a run without one) while they fit, or one run alone when it does not
    fit."""
    cost = np.atleast_2d(cost)  # phase by item
    total = np.zeros((len(cost), cost.shape[1] + 1))
    np.cumsum(cost, axis=1, out=total[:, 1:])
    ends = (np.arange(1, cost.shape[1] + 1) if key is None
            else np.flatnonzero(np.concatenate((key[1:] != key[:-1], [True]))) + 1)
    out, run = [(0, 0)], 0
    while out[-1][1] < cost.shape[1]:  # each phase's sums never fall as a chunk grows
        lo = out[-1][1]
        fit = min(t.searchsorted(b, "right")  # the items lo:fit fit
                  for t, b in zip(total, total[:, lo] + (CHUNK_BYTES - held))) - 1
        run = max(int(ends.searchsorted(fit, "right")), run + 1)
        out.append((lo, int(ends[run - 1])))
    return out[1:]


def distinct(x) -> Array:
    """Sorted distinct values of an array.

    np.unique imports numpy.ma on first use, which every CLI process would
    pay for; a sort and a comparison of neighbours need no import.
    """
    s = np.sort(np.ravel(x))
    return s[np.concatenate(([True], s[1:] != s[:-1]))] if s.size else s


def split_by(code):
    """Positions of equal values of an int array: yields (value, positions)
    in increasing value order, the positions of each value increasing."""
    code = np.asarray(code)
    order = np.argsort(code, kind="stable")
    ordered = code[order]
    bounds = [0] + (np.flatnonzero(ordered[1:] != ordered[:-1]) + 1).tolist() + [len(code)]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi > lo:
            yield ordered[lo], order[lo:hi]


def group_by(*keys):
    """Positions grouped by equal values of the int arrays keys, which share
    one length: yields (key values, positions) in increasing key order (the
    first key leading), the positions of each group increasing."""
    if not len(keys[0]):
        return
    code = np.ravel_multi_index(keys, [int(k.max()) + 1 for k in keys])
    for _, sel in split_by(code):
        yield tuple(int(k[sel[0]]) for k in keys), sel


def ranges(lo, n) -> tuple[Array, Array]:
    """The ranges lo[t], ..., lo[t] + n[t] - 1 one after the other.

    Returns (at, values): values[x] lies in range at[x].
    """
    lo, n = np.asarray(lo, dtype=int), np.asarray(n, dtype=int)
    if (n == 1).all():  # one value per range, as often (np.repeat is slow)
        return np.arange(len(n)), lo.copy()
    at = np.repeat(np.arange(len(n)), n)
    return at, np.arange(len(at)) + np.repeat(lo - (np.cumsum(n) - n), n)


def slots(sizes) -> tuple[Array, dict]:
    """Segment n of size sizes[n] (0: no segment, slot -1) is number slot[n]
    among the count[d] segments of its size d, in increasing n.

    Returns (slot, count), count keyed by size in increasing order.
    """
    size = np.asarray(sizes, dtype=int)
    slot, count = np.full(len(size), -1, dtype=int), {}
    for d, members in split_by(size):
        if d > 0:
            slot[members] = np.arange(len(members))
            count[int(d)] = len(members)
    return slot, count


def zero_stacks(sizes) -> tuple[Array, dict]:
    """Zero sums for segments of d x d blocks, stacked per d.

    Returns (pos, out): segment n, of size sizes[n] (0: no segment, pos -1),
    is out[(d, d)][pos[n]].
    """
    pos, count = slots(sizes)
    return pos, {(d, d): np.zeros((c, d, d), dtype=complex) for d, c in count.items()}


def ranks(sums) -> Array:
    """The place of every item among the items of its sum sums[x], in item
    order.  Items added rank by rank reach every sum in increasing item
    number, one at a time, so every sum rounds exactly like a sequential
    loop."""
    order = np.argsort(sums, kind="stable")
    rank = np.empty(len(sums), dtype=int)
    rank[order] = np.arange(len(sums)) - np.searchsorted(sums[order], sums[order])
    return rank


def add_in_order(out: dict, pos: Array, parts) -> dict:
    """Accumulate stacked item results into per-segment sums, in item order.

    parts yields (numbers, P): P[t] is the result of item numbers[t].  Each
    item n is added to out[P.shape[-2:]][pos[n]], where out maps a matrix
    shape to a stack of sums that start at zero.  The schedule is
    order_plan's, which work repeated on the same items plans once and runs
    through add_planned.
    """
    parts = list(parts)
    plan = order_plan(pos, [n for n, _ in parts], [p.shape[-1] for _, p in parts])
    return add_planned(out, plan, [p for _, p in parts])


def order_plan(pos: Array, numbers, sizes) -> list:
    """The schedule of add_in_order for parts known before their results:
    part g holds the items numbers[g], whose results are d x d with d =
    sizes[g].

    It lists the steps (part, rows, targets) rank by rank (ranks) among the
    items of each sum, of one size and place: rows of the part's results,
    added at once to the sums pos[items] at targets, one item a sum.
    """
    nums = np.concatenate(numbers) if len(numbers) else np.zeros(0, dtype=int)
    part, row = ranges(np.zeros(len(numbers), dtype=int), [len(n) for n in numbers])
    sums = pos[nums] * (max(sizes, default=0) + 1) + np.array(sizes, dtype=int)[part]
    order = np.argsort(nums, kind="stable")
    rank = np.empty(len(nums), dtype=int)
    rank[order] = ranks(sums[order])
    return [(int(part[sel[0]]), row[sel], pos[nums[sel]])
            for _, sel in split_by(rank * len(numbers) + part)]


def add_planned(out: dict, plan: list, parts: list) -> dict:
    """add_in_order on the schedule plan of order_plan: parts[g] is the
    stacked result of part g, whose sums are out[its matrix shape]."""
    for g, rows, where in plan:
        sums = out[parts[g].shape[-2:]]
        if len(where) == 1:  # in place, without the copies of a gather and a scatter
            sums[where[0]] += parts[g][rows[0]]
        else:
            sums[where] += parts[g][rows]
    return out


def bdagger(m: Array) -> Array:
    """Conjugate transpose of every matrix in a stack."""
    return m.conj().swapaxes(-1, -2)


def bkron(a: Array, b: Array) -> Array:
    """Kronecker product of matching matrices of two stacks (broadcasting).

    Entry for entry the same products as np.kron.
    """
    a, b = cmat(a), cmat(b)
    (m, n), (p, r) = a.shape[-2:], b.shape[-2:]
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (m * p, n * r))


def cmat(data) -> Array:
    return np.asarray(data, dtype=complex)


def dagger(m: Array) -> Array:
    return m.conj().T


def kron(a: Array, b: Array) -> Array:
    return np.kron(cmat(a), cmat(b))


def eye(n: int) -> Array:
    return np.eye(n, dtype=complex)


@lru_cache(maxsize=None)
def frozen_eye(n: int) -> Array:
    """The n x n identity, cached and read-only, for stacked work items."""
    m = eye(n)
    m.flags.writeable = False
    return m


def flip(d1: int, d2: int) -> Array:
    """Permutation matrix sending x (x) y -> y (x) x for x in C^d1, y in C^d2."""
    if d1 < 1 or d2 < 1:
        raise ValueError("flip dimensions must be >= 1")
    f = np.zeros((d1 * d2, d1 * d2), dtype=complex)
    for a in range(d1):
        for b in range(d2):
            f[b * d1 + a, a * d2 + b] = 1.0
    return f


def orthonormalize(vectors: list[Array], tol: Tolerance = DEFAULT_TOL) -> list[Array]:
    """Orthonormal basis of the span, via modified Gram-Schmidt.

    Dependent vectors are dropped; one re-orthogonalization pass keeps the
    result stable. Rank cutoff is tol.absolute * sqrt(dim).
    """
    if not vectors:
        return []
    dim = vectors[0].shape[0]
    cutoff = max(tol.absolute * np.sqrt(dim), 1e-300)
    scale = max((float(np.linalg.norm(v)) for v in vectors), default=1.0)
    if scale == 0.0:
        return []
    out: list[Array] = []
    for v in vectors:
        w = cmat(v).astype(complex).reshape(dim)
        for _ in range(2):  # MGS + re-orthogonalization
            for u in out:
                w = w - (u.conj() @ w) * u
        n = np.linalg.norm(w)
        if n > cutoff * scale:
            out.append(w / n)
    return out


def solve_intertwiners(
    blocks_a: dict, blocks_b: dict, tol: Tolerance = DEFAULT_TOL
) -> list[Array]:
    """Hilbert-Schmidt orthonormal basis of {T : T A(i) = B(i) T for all i}.

    blocks_a[i] acts on the source space, blocks_b[i] on the target; the
    nullspace of the stacked Sylvester system is found by SVD, singular
    values below the tolerance cutoff spanning the solution space.
    """
    keys = sorted(blocks_a, key=str)
    if set(keys) != set(blocks_b):
        raise ValueError("intertwiner systems need identical label sets")
    if not keys:
        raise ValueError("empty generator family")
    dv = cmat(blocks_a[keys[0]]).shape[0]
    dw = cmat(blocks_b[keys[0]]).shape[0]
    rows = []
    for k in keys:
        a = cmat(blocks_a[k])
        b = cmat(blocks_b[k])
        if a.shape != (dv, dv) or b.shape != (dw, dw):
            raise ValueError(f"inconsistent shapes for label {k!r}")
        # vec(TA - BT) with column-major vec: (A^T (x) I) - (I (x) B)
        rows.append(np.kron(a.T, eye(dw)) - np.kron(eye(dv), b))
    system = np.vstack(rows)
    _, s, vh = np.linalg.svd(system)
    smax = s[0] if len(s) else 0.0
    cutoff = tol.absolute + tol.relative * smax
    null = [vh[i].conj() for i in range(len(vh)) if i >= len(s) or s[i] <= cutoff]
    return [v.reshape(dv, dw).T.copy() for v in null]  # undo column-major vec
