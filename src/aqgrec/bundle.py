"""CategoryBundle: the on-disk presentation of a concrete semisimple tensor
*-category with conjugates and optional braiding.

File format (Category Bundle v1) is UTF-8 JSON:

    { "version": 1, "labels": [...], "unit": "...", "dims": {label: int},
      "dual": {label: label}, "closed": bool,
      "fusion": [ {"i","j","k","isometries": [matrix,...]}, ... ],
      "conj": {label: {"r": vector, "rbar": vector}},
      "braiding": [ {"i","j","c": matrix}, ... ] }            (optional)

A matrix is {"rows", "cols", "data": [[re,im],...]} in row-major order and a
vector is {"len", "data": [[re,im],...]}.  A missing (i,j,k) entry means
N_{ij}^k = 0.  Label order in "labels" fixes the block order everywhere.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import BundleSyntaxError, MissingBraiding, NotFinite, ShapeError
from .linalg import (
    DEFAULT_TOL,
    Array,
    Tolerance,
    add_in_order,
    bdagger,
    bkron,
    by_shape,
    cmat,
    dagger,
    distinct,
    eye,
    frozen_eye,
    kron,
    max_abs,
    ranges,
    residual,
    shape_stacks,
    split_by,
    worst,
    zero_stacks,
)
from .report import Report


@dataclass
class CategoryBundle:
    """Fusion, conjugation and (optionally) braiding data of a category.

    The fusion layout (see layout) is built from the fusion data on first use
    and kept; the fusion data must not change after that.  A modified bundle
    is a new CategoryBundle (dataclasses.replace starts it without a layout).
    """

    labels: list[str]
    unit: str
    dims: dict[str, int]
    dual: dict[str, str]
    fusion: dict[tuple[str, str], dict[str, list[Array]]]
    conj: dict[str, tuple[Array, Array]]
    braiding: dict[tuple[str, str], Array] | None = None
    closed: bool = True
    _layout: "FusionLayout | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    # -- basic accessors -------------------------------------------------
    def d(self, i: str) -> int:
        return self.dims[i]

    def isometries(self, i: str, j: str, k: str) -> list[Array]:
        return self.fusion.get((i, j), {}).get(k, [])

    @property
    def layout(self) -> "FusionLayout":
        """The stacked fusion layout, built on first use."""
        if self._layout is None:
            self._layout = FusionLayout(self)
        return self._layout

    def support(self, i: str, j: str) -> list[tuple[str, int]]:
        """Loaded fusion channels of i (x) j, in label order."""
        return self.layout.support[(i, j)]

    def complete(self, i: str, j: str) -> bool:
        """True when all summands of i (x) j lie inside the loaded window."""
        return self.layout.complete[(i, j)]


def require_tables(b: CategoryBundle) -> None:
    """Refuse a window: the Hopf tables need all of A."""
    if not b.closed:
        raise NotFinite("Hopf tables require a closed bundle")


def require_group(b: CategoryBundle) -> None:
    """Refuse a window: the intrinsic group needs all of A."""
    if not b.closed:
        raise NotFinite("intrinsic group requires a closed bundle")


def require_braiding(b: CategoryBundle) -> None:
    """Refuse a bundle without braiding data."""
    if b.braiding is None:
        raise MissingBraiding("*", "*", "the bundle has no braiding")


class FusionLayout:
    """A bundle's fusion isometries in one stacked layout, built once.

    Labels are numbered in label order and the pair (i,j) is n_i N + n_j.
    Every fusion channel (a column block v of V_ij = [v_ij^{k,alpha}]_{k,alpha})
    has one number: channels run pair by pair, and within a pair by k in label
    order, then alpha.  For channel c:

    - chan_pair[c], chan_label[c] and chan_alpha[c] are its pair, its label k
      and its multiplicity index, and pair_start[p]:pair_start[p + 1] are the
      channels of pair p;
    - its isometry is chan_stacks[chan_shape[c]][chan_slot[c]], one stack per
      isometry shape.

    Per pair (i,j): channels[(i,j)] lists (k, alpha, v) over its channels,
    support[(i,j)] lists (k, N_ij^k) over loaded k, and complete[(i,j)]
    (complete_pair[p] as an array) tells whether those summands fill
    H_i (x) H_j.  Per label: dims and block_of (the slot of a label among the
    dim_count[d] labels of its size d).  Per pair: pair_size = d_i d_j, and
    count[p, k] = N_ij^k over loaded channels, with loaded = count > 0.

    Built from it on first use: delta, the work list of Delta (every channel
    as one item), and fmoves, the F-move certificate of every admissible
    quadruple.
    """

    def __init__(self, b: CategoryBundle):
        self.label_index = {k: n for n, k in enumerate(b.labels)}
        self.pairs = [(i, j) for i in b.labels for j in b.labels]
        self.pair_index = {p: n for n, p in enumerate(self.pairs)}
        self.support: dict[tuple[str, str], list[tuple[str, int]]] = {}
        self.complete: dict[tuple[str, str], bool] = {}
        self.count = np.zeros((len(self.pairs), len(b.labels)), dtype=int)
        chans, mats = [], []
        for n, (i, j) in enumerate(self.pairs):
            loaded = b.fusion.get((i, j), {})
            sup = [(k, len(loaded[k])) for k in b.labels if loaded.get(k)]
            self.support[(i, j)] = sup
            self.complete[(i, j)] = sum(c * b.dims[k] for k, c in sup) == b.dims[i] * b.dims[j]
            for k, c in sup:
                self.count[n, self.label_index[k]] = c
                chans += [(n, self.label_index[k], a) for a in range(c)]
                mats += loaded[k]
        self.chan_pair, self.chan_label, self.chan_alpha = np.array(
            chans, dtype=int).reshape(-1, 3).T
        self.chan_shape, self.chan_slot, self.chan_stacks = shape_stacks(mats)
        self.pair_start = np.searchsorted(self.chan_pair, np.arange(len(self.pairs) + 1))
        self.channels: dict[tuple[str, str], list] = {p: [] for p in self.pairs}
        for n, (p, k, a) in enumerate(chans):
            self.channels[self.pairs[p]].append(
                (b.labels[k], a, self.chan_stacks[self.chan_shape[n]][self.chan_slot[n]]))
        self.complete_pair = np.array([self.complete[p] for p in self.pairs], dtype=bool)
        self.loaded = self.count > 0
        # per label: its dimension and its slot among the labels of that size
        self.dims = np.array([b.dims[k] for k in b.labels], dtype=int)
        self.block_of = np.zeros(len(b.labels), dtype=int)
        self.dim_count: dict[int, int] = {}
        for n, d in enumerate(b.dims[k] for k in b.labels):
            self.block_of[n] = self.dim_count.get(d, 0)
            self.dim_count[d] = self.block_of[n] + 1
        self.pair_size = np.outer(self.dims, self.dims).reshape(-1)
        self._delta = None
        self._fmoves = None

    def isometries(self, chans) -> Array:
        """The stacked isometries of channels chans, which share one shape."""
        return self.chan_stacks[self.chan_shape[chans[0]]][self.chan_slot[chans]]

    def channels_of(self, pairs) -> tuple[Array, Array]:
        """The channels of each pair of the int array pairs, in order.

        Returns (at, chans): chans[x] is a channel of pairs[at[x]].
        """
        lo = self.pair_start[pairs]
        return ranges(lo, self.pair_start[pairs + 1] - lo)

    @property
    def delta(self):
        """Work list of Delta: every channel (pair, k, alpha) is one item.

        Items run by pair, then by the name of k (the order in which
        AqgElement.support lists labels), then alpha.  Returns (groups,
        item_pair, pair_groups): groups are (numbers, [V, label, pair]) per
        isometry shape, with V the stacked isometries and label/pair the
        index of k and of the pair; item_pair[n] is the pair index of item n,
        and pair_groups[p] the set of groups holding items of pair p.
        """
        if self._delta is None:
            items = [
                (v, np.intp(self.label_index[k]), np.intp(n))
                for n, p in enumerate(self.pairs)
                for k, _, v in sorted(self.channels[p], key=lambda c: (c[0], c[1]))
            ]
            groups = list(by_shape(items))
            pair_groups: list[set] = [set() for _ in self.pairs]
            for g, (_, (_, _, pair)) in enumerate(groups):
                for p in set(pair.tolist()):
                    pair_groups[p].add(g)
            self._delta = (groups, np.array([int(it[2]) for it in items], dtype=int),
                           pair_groups)
        return self._delta

    @property
    def fmoves(self):
        """The F-move certificate of every admissible quadruple (i,j,k -> m).

        A triple (i,j,k) is admissible when i (x) j and j (x) k are complete.
        Per m, U stacks (v (x) I_k) w over the left paths i (x) j -> l,
        l (x) k -> m, and W stacks (I_i (x) v') w' over the right paths
        j (x) k -> n, i (x) n -> m, both in channel order.  The two
        bracketings of Delta agree on all of B(H_m) exactly when
        G = W* U = M (x) I_{d_m} with M unitary; M (the F-matrix, or 6j
        symbol) is the d_m-traces of G over d_m, and the residual is the
        worst of max|G - M (x) I|, max|M* M - I| and max|M M* - I|, which is
        1 when one side has no path.

        Returns (triples, quads, residual, F): the admissible triples in
        label order as rows (n_i, n_j, n_k) of label numbers, the quadruples
        as rows (n_i, n_j, n_k, n_m) in the same order with m in label
        order, and per quadruple its residual and its F-matrix (right paths
        x left paths).  The paths come from joins over the channel numbers,
        and quadruples are run in groups of equal (D, d_m, p, p') in
        first-seen order, chunked to a memory budget.
        """
        if self._fmoves is None:
            n_lab, dims = len(self.dims), self.dims
            whole = self.complete_pair.reshape(n_lab, n_lab)
            triples = np.argwhere(whole[:, :, None] & whole[None, :, :])
            ti, tj, tk = triples.T

            def paths(first, second):
                # (triple, v, w) over v in the channels of first[t] and w in
                # those of second(label of v, t), in channel order
                t, v = self.channels_of(first)
                s, w = self.channels_of(second(self.chan_label[v], t))
                return t[s], v[s], w

            sides = (paths(ti * n_lab + tj, lambda l, t: l * n_lab + tk[t]),
                     paths(tj * n_lab + tk, lambda n, t: ti[t] * n_lab + n))
            keys = [t * n_lab + self.chan_label[w] for t, _, w in sides]
            quad_key = distinct(np.concatenate(keys))
            quads = np.column_stack((triples[quad_key // n_lab], quad_key % n_lab))
            # per side: the (v, w) channels of every path, by quadruple, and
            # per quadruple its path count and first path
            ordered, counts, starts = [], [], []
            for (_, v, w), key in zip(sides, keys):
                quad = np.searchsorted(quad_key, key)
                order = np.argsort(quad, kind="stable")
                ordered.append((v[order], w[order]))
                counts.append(np.bincount(quad, minlength=len(quads)))
                starts.append(np.cumsum(counts[-1]) - counts[-1])
            size = dims[quads[:, 0]] * dims[quads[:, 1]] * dims[quads[:, 2]]
            key = np.stack((size, dims[quads[:, 3]], counts[0], counts[1]))
            order = np.lexsort((np.arange(len(quads)),) + tuple(key[::-1]))
            cuts = np.flatnonzero((np.diff(key[:, order], axis=1) != 0).any(axis=0)) + 1
            groups = np.split(order, cuts) if len(quads) else []
            res, fmats = np.zeros(len(quads)), [None] * len(quads)
            for nums in sorted(groups, key=lambda g: g[0]):
                dim, dm, p, pp = key[:, nums[0]].tolist()
                step = max(1, _FMOVE_CHUNK_BYTES // (32 * ((p + pp) * dim * dm + p * pp * dm * dm)))
                for at in range(0, len(nums), step):
                    chunk = nums[at:at + step]
                    chans = [(v[s], w[s]) for (v, w), s in (
                        (ordered[0], starts[0][chunk, None] + np.arange(p)),
                        (ordered[1], starts[1][chunk, None] + np.arange(pp)))]
                    res[chunk], f = _fmove_chunk(self, chans, dim, dm, p, pp)
                    for n, m in zip(chunk.tolist(), f):
                        fmats[n] = m
            self._fmoves = (triples, quads, res, fmats)
        return self._fmoves


# memory budget of one certificate chunk: U, W and G with their
# intermediates, counted at 32 bytes per complex entry
_FMOVE_CHUNK_BYTES = 1 << 22


def _fmove_chunk(lay, chans, dim, dm, p, pp):
    """Residuals and F-matrices of quadruples that share (D, d_m, p, p'):
    chans holds per side (left, right) the channel numbers (v, w) of the
    paths, each of shape (quadruples, paths)."""
    nq = len(chans[0][0])
    out = []
    for side, (count, (vc, wc)) in enumerate(zip((p, pp), chans)):
        stack = np.zeros((nq, dim, count, dm), dtype=complex)
        vc, wc = vc.reshape(-1), wc.reshape(-1)
        quad_of, slot = np.repeat(np.arange(nq), count), np.tile(np.arange(count), nq)
        code = lay.chan_shape[vc] * len(lay.chan_stacks) + lay.chan_shape[wc]
        for _, nums in split_by(code):
            v, w = lay.isometries(vc[nums]), lay.isometries(wc[nums])
            if side == 0:  # (v (x) I_k) w
                prod = v @ w.reshape(len(nums), v.shape[-1], -1)
            else:  # (I_i (x) v) w
                prod = v[:, None] @ w.reshape(len(nums), -1, v.shape[-1], dm)
            stack[quad_of[nums], :, slot[nums]] = prod.reshape(len(nums), dim, dm)
        out.append(stack.reshape(nq, dim, count * dm))
    g = bdagger(out[1]) @ out[0]
    f = np.einsum("qaibi->qab", g.reshape(nq, pp, dm, p, dm)) / dm
    res = np.maximum.reduce([max_abs(g - bkron(f, frozen_eye(dm))),
                             max_abs(bdagger(f) @ f - eye(p)),
                             max_abs(f @ bdagger(f) - eye(pp))])
    return res, f


# ---------------------------------------------------------------------------
# parsing / serialization


def _decode_data(obj: dict) -> dict:
    """json.loads object hook: a list-valued "data" becomes a complex array
    as soon as its object is parsed, so the entries never stand as a tree of
    Python lists.  A list that does not convert is left in place for
    _parse_matrix or _parse_vector to report at its location."""
    data = obj.get("data")
    if type(data) is list:
        try:
            obj["data"] = _complex_array(data)
        except (TypeError, ValueError, OverflowError):
            pass
    return obj


def _complex_array(data) -> Array:
    return np.array([complex(re, im) for re, im in data], dtype=complex)


def _entries(data, what: str) -> Array:
    """The entries of a "data" field as a complex array."""
    if isinstance(data, np.ndarray):
        return data
    try:
        return _complex_array(data)
    except (TypeError, ValueError) as exc:
        raise BundleSyntaxError(f"{what}: {exc}") from None


def _parse_matrix(obj, where: str) -> Array:
    try:
        rows, cols, data = int(obj["rows"]), int(obj["cols"]), obj["data"]
    except (KeyError, TypeError, ValueError) as exc:
        raise BundleSyntaxError(f"malformed matrix at {where}: {exc}") from None
    if len(data) != rows * cols:
        raise ShapeError(f"matrix at {where}: {len(data)} entries for {rows}x{cols}")
    return _entries(data, f"bad matrix entry at {where}").reshape(rows, cols)


def _parse_vector(obj, where: str) -> Array:
    try:
        n, data = int(obj["len"]), obj["data"]
    except (KeyError, TypeError, ValueError) as exc:
        raise BundleSyntaxError(f"malformed vector at {where}: {exc}") from None
    if len(data) != n:
        raise ShapeError(f"vector at {where}: {len(data)} entries for len {n}")
    return _entries(data, f"bad vector entry at {where}")


def _require_finite(fusion, conj, braiding) -> None:
    """Reject NaN and infinite entries, which json.loads accepts."""
    arrays = [m for chans in fusion.values() for mats in chans.values() for m in mats]
    arrays += [v for pair in conj.values() for v in pair]
    arrays += list((braiding or {}).values())
    if np.isfinite(np.concatenate(arrays, axis=None)).all():
        return
    located = [(f"fusion({i},{j}->{k})", m) for (i, j), chans in fusion.items()
               for k, mats in chans.items() for m in mats]
    located += [(f"conj({i})", v) for i, pair in conj.items() for v in pair]
    located += [(f"braiding({i},{j})", c) for (i, j), c in (braiding or {}).items()]
    where = next(w for w, a in located if not np.isfinite(a).all())
    raise BundleSyntaxError(f"non-finite entry at {where}")


def parse_bundle(text: str) -> CategoryBundle:
    """Parse Category Bundle v1 text.  Checks shapes only, not the mathematics."""
    try:
        doc = json.loads(text, object_hook=_decode_data)
    except json.JSONDecodeError as exc:
        raise BundleSyntaxError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise BundleSyntaxError("top level must be a JSON object")
    if doc.get("version") != 1:
        raise BundleSyntaxError(f"unsupported version {doc.get('version')!r}")
    for key in ("labels", "unit", "dims", "dual", "closed", "fusion", "conj"):
        if key not in doc:
            raise BundleSyntaxError(f"missing key {key!r}")

    labels = [str(x) for x in doc["labels"]]
    if len(set(labels)) != len(labels):
        raise BundleSyntaxError("duplicate labels")
    lset = set(labels)
    unit = str(doc["unit"])
    if unit not in lset:
        raise BundleSyntaxError(f"unit label {unit!r} not in labels")

    dims = {}
    for i, v in doc["dims"].items():
        if i not in lset:
            raise BundleSyntaxError(f"dims mentions unknown label {i!r}")
        if not isinstance(v, int) or v < 1:
            raise BundleSyntaxError(f"dim of {i!r} must be a positive integer")
        dims[i] = v
    if set(dims) != lset:
        raise BundleSyntaxError("dims must cover every label")
    if dims[unit] != 1:
        raise ShapeError("unit label must have dimension 1")

    dual = {str(i): str(j) for i, j in doc["dual"].items()}
    if set(dual) != lset or not set(dual.values()) <= lset:
        raise BundleSyntaxError("dual map must be a self-map of the label set")

    fusion: dict[tuple[str, str], dict[str, list[Array]]] = {}
    for ent in doc["fusion"]:
        try:
            i, j, k = str(ent["i"]), str(ent["j"]), str(ent["k"])
            mats = ent["isometries"]
        except (KeyError, TypeError) as exc:
            raise BundleSyntaxError(f"malformed fusion entry: {exc}") from None
        for lab in (i, j, k):
            if lab not in lset:
                raise BundleSyntaxError(f"fusion entry uses unknown label {lab!r}")
        where = f"fusion({i},{j}->{k})"
        parsed = [_parse_matrix(m, where) for m in mats]
        want = (dims[i] * dims[j], dims[k])
        for m in parsed:
            if m.shape != want:
                raise ShapeError(f"{where}: isometry shape {m.shape}, expected {want}")
        if parsed:
            fusion.setdefault((i, j), {}).setdefault(k, []).extend(parsed)

    conj = {}
    for i, ent in doc["conj"].items():
        if i not in lset:
            raise BundleSyntaxError(f"conj mentions unknown label {i!r}")
        r = _parse_vector(ent["r"], f"conj({i}).r")
        rbar = _parse_vector(ent["rbar"], f"conj({i}).rbar")
        di, dib = dims[i], dims[dual[i]]
        if r.shape != (dib * di,):
            raise ShapeError(f"conj({i}).r has length {r.shape[0]}, expected {dib * di}")
        if rbar.shape != (di * dib,):
            raise ShapeError(
                f"conj({i}).rbar has length {rbar.shape[0]}, expected {di * dib}"
            )
        conj[i] = (r, rbar)
    if set(conj) != lset:
        raise BundleSyntaxError("conj must cover every label")

    braiding = None
    if doc.get("braiding") is not None:
        braiding = {}
        for ent in doc["braiding"]:
            try:
                i, j = str(ent["i"]), str(ent["j"])
            except (KeyError, TypeError) as exc:
                raise BundleSyntaxError(f"malformed braiding entry: {exc}") from None
            if i not in lset or j not in lset:
                raise BundleSyntaxError(f"braiding entry uses unknown label")
            c = _parse_matrix(ent["c"], f"braiding({i},{j})")
            want = (dims[j] * dims[i], dims[i] * dims[j])
            if c.shape != want:
                raise ShapeError(f"braiding({i},{j}): shape {c.shape}, expected {want}")
            braiding[(i, j)] = c

    _require_finite(fusion, conj, braiding)
    return CategoryBundle(
        labels=labels,
        unit=unit,
        dims=dims,
        dual=dual,
        fusion=fusion,
        conj=conj,
        braiding=braiding,
        closed=bool(doc["closed"]),
    )


def _pairs(m: Array) -> list:
    """The entries of m in row-major order as [re, im] lists of floats."""
    return np.ascontiguousarray(cmat(m)).reshape(-1).view(float).reshape(-1, 2).tolist()


def _dump_matrix(m: Array) -> dict:
    m = cmat(m)
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": _pairs(m)}


def _dump_vector(v: Array) -> dict:
    return {"len": int(np.size(v)), "data": _pairs(v)}


def serialize_bundle(b: CategoryBundle) -> str:
    """Serialize to Category Bundle v1 text; parse(serialize(b)) reproduces b."""
    doc = {
        "version": 1,
        "labels": list(b.labels),
        "unit": b.unit,
        "dims": {i: int(b.dims[i]) for i in b.labels},
        "dual": {i: b.dual[i] for i in b.labels},
        "closed": bool(b.closed),
        "fusion": [
            {"i": i, "j": j, "k": k, "isometries": [_dump_matrix(m) for m in mats]}
            for i in b.labels
            for j in b.labels
            for k in b.labels
            for mats in [b.isometries(i, j, k)]
            if mats
        ],
        "conj": {
            i: {"r": _dump_vector(b.conj[i][0]), "rbar": _dump_vector(b.conj[i][1])}
            for i in b.labels
        },
    }
    if b.braiding is not None:
        doc["braiding"] = [
            {"i": i, "j": j, "c": _dump_matrix(b.braiding[(i, j)])}
            for i in b.labels
            for j in b.labels
            if (i, j) in b.braiding
        ]
    # repr-style floats keep 17 significant digits and roundtrip exactly;
    # without indent json.dumps runs its C encoder
    return json.dumps(doc)




# ---------------------------------------------------------------------------
# validation


def validate_bundle(
    b: CategoryBundle,
    tol: Tolerance = DEFAULT_TOL,
    fail_fast: bool = False,
) -> Report:
    """Run the mathematical consistency checks on a bundle.

    Checks, in order: involution/unit structure, isometry orthonormality,
    completeness (skipped where a window loses summands), unit/dual fusion
    constraints and fusion symmetries, conjugate equations with normalization
    and the channel-0 membership of r, recoupling consistency, and the
    braiding identities when braiding data is present.  Failures are
    reported, never raised.  Each row family is built from the fusion
    layout's index arrays, evaluated as stacked products (one np.matmul per
    block shape) and appended in bulk.
    """
    rep = Report("bundle-validation")

    def done() -> bool:
        return fail_fast and not rep.passed

    def add_rows(name, locs, res, ok, skipped=None) -> bool:
        return rep.add_rows(name, locs, res, ok, fail_fast, skipped)

    # structural involution facts
    inv_res = 0.0 if all(b.dual[b.dual[i]] == i for i in b.labels) else 1.0
    rep.add("dual-involution", "all", inv_res, inv_res == 0.0)
    rep.add(
        "dual-fixes-unit", b.unit, 0.0 if b.dual[b.unit] == b.unit else 1.0,
        b.dual[b.unit] == b.unit,
    )
    if done():
        return rep

    lay, lab = b.layout, b.labels
    n_lab = len(lab)
    one = tol.bound(1.0)
    locs, res = _orthonormality(b)
    if add_rows("orthonormality", locs, res, res <= one):
        return rep

    # completeness; a pair that loses summands fails (closed) or is skipped
    whole = lay.complete_pair
    res = np.where(whole, _completeness(b), 1.0)
    locs = [f"({i},{j})" if w or b.closed else f"({i},{j}) window"
            for (i, j), w in zip(lay.pairs, whole.tolist())]
    if add_rows("completeness", locs, res, whole & (res <= one),
                None if b.closed else ~whole):
        return rep

    # unit and dual fusion constraints: N[i, j, k] = N_ij^k
    N = lay.count.reshape(n_lab, n_lab, n_lab)
    u = lay.label_index[b.unit]
    dual = np.array([lay.label_index[b.dual[i]] for i in lab], dtype=int)
    ident = np.eye(n_lab, dtype=int)
    ok_unit = bool((N[u] == ident).all() and (N[:, u] == ident).all()
                   and (N[:, :, u] == ident[dual]).all())
    rep.add("unit-dual-fusion-rules", "all", 0.0 if ok_unit else 1.0, ok_unit)
    if done():
        return rep

    # Frobenius fusion symmetries where every participant is loaded
    i, j, k = np.nonzero(N)
    n, comp = N[i, j, k], whole.reshape(n_lab, n_lab)
    sym_ok = not ((comp[k, dual[j]] & (n != N[k, dual[j], i]))
                  | (comp[dual[i], k] & (n != N[dual[i], k, j]))).any()
    rep.add("fusion-symmetries", "all", 0.0 if sym_ok else 1.0, sym_ok)
    if done():
        return rep

    # conjugate equations, normalization, r in the unit fusion channel
    for i in b.labels:
        ib = b.dual[i]
        di, dib = b.d(i), b.d(ib)
        r, rbar = b.conj[i]
        rc, rbc = r.reshape(-1, 1), rbar.reshape(-1, 1)
        lhs1 = kron(dagger(rbc), eye(di)) @ kron(eye(di), rc)
        lhs2 = kron(dagger(rc), eye(dib)) @ kron(eye(dib), rbc)
        zig = worst(residual(lhs1, eye(di)), residual(lhs2, eye(dib)))
        rep.add("conjugate-equation", f"{i} zigzag", zig, zig <= tol.bound(1.0, r))
        nres = abs(float(np.vdot(r, r).real - np.vdot(rbar, rbar).real))
        rep.add("conjugate-normalization", i, nres, nres <= tol.bound(r, rbar))
        # r must live in the unit channel of ibar (x) i
        chan = b.isometries(ib, i, b.unit)
        if chan:
            basis = np.column_stack([v.reshape(-1) for v in chan])
            proj = basis @ dagger(basis)
            pres = residual(proj @ r, r)
            rep.add("r-in-unit-channel", i, pres, pres <= tol.bound(r))
        else:
            rep.add("r-in-unit-channel", i, 1.0, False)
        if done():
            return rep

    # recoupling: the F-move certificate of each admissible (i,j,k -> m), by
    # triple in label order; on a window every other triple is a skipped row
    triples, quads, res, _ = lay.fmoves
    locs = [f"({lab[i]},{lab[j]},{lab[k]})->{lab[m]}" for i, j, k, m in quads.tolist()]
    ok, skipped = res <= one, None
    if not b.closed:
        admissible = np.zeros(n_lab ** 3, dtype=bool)
        admissible[triples @ [n_lab * n_lab, n_lab, 1]] = True
        skip = np.flatnonzero(~admissible)
        order = np.argsort(np.concatenate((quads[:, :3] @ [n_lab * n_lab, n_lab, 1], skip)),
                           kind="stable")
        locs += [f"({lab[t // n_lab // n_lab]},{lab[t // n_lab % n_lab]},{lab[t % n_lab]}) window"
                 for t in skip.tolist()]
        locs = [locs[n] for n in order.tolist()]
        res = np.append(res, np.zeros(len(skip)))[order]
        ok = np.append(ok, np.ones(len(skip), dtype=bool))[order]
        skipped = order >= len(quads)
    if add_rows("recoupling", locs, res, ok, skipped):
        return rep

    # braiding identities
    if b.braiding is not None:
        _validate_braiding(b, tol, rep, fail_fast)
    return rep


def _name_rank(b: CategoryBundle) -> Array:
    """Per label number, the position of the label's name in sorted order."""
    rank = np.zeros(len(b.labels), dtype=int)
    rank[[b.layout.label_index[k] for k in sorted(b.labels)]] = np.arange(len(b.labels))
    return rank


def _by_name(b: CategoryBundle):
    """The channels in the order of sorted(b.fusion.items()) and sorted(chans):
    by the names of i, j and k, then alpha.  Returns (order, row): order[x] is
    the x-th channel, and row[x] numbers its (i,j)->k in that order."""
    lay, rank = b.layout, _name_rank(b)
    i, j = np.divmod(lay.chan_pair, len(b.labels))
    order = np.lexsort((lay.chan_alpha, rank[lay.chan_label], rank[j], rank[i]))
    pair, label = lay.chan_pair[order], lay.chan_label[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (pair[1:] != pair[:-1]) | (label[1:] != label[:-1])
    return order, np.cumsum(new) - 1


def _orthonormality(b: CategoryBundle):
    """Rows (i,j)->k, by name, and their residual max |v_a* v_c - delta_ac I|
    over a <= c."""
    lay, lab = b.layout, b.labels
    order, row = _by_name(b)
    mult = lay.count[lay.chan_pair[order], lay.chan_label[order]]
    at, partner = ranges(np.arange(len(order)), mult - lay.chan_alpha[order])
    va, vc, diag = order[at], order[partner], at == partner
    res = np.zeros(int(row[-1]) + 1 if len(row) else 0)
    for _, nums in split_by(lay.chan_shape[va]):
        g = bdagger(lay.isometries(va[nums])) @ lay.isometries(vc[nums])
        g[diag[nums]] -= frozen_eye(g.shape[-1])
        with np.errstate(invalid="ignore"):  # NaN rows stay NaN
            np.maximum.at(res, row[at[nums]], max_abs(g))
    first = order[np.flatnonzero(np.diff(row, prepend=-1))]
    pi, pj = np.divmod(lay.chan_pair[first], len(lab))
    return [f"({lab[i]},{lab[j]})->{lab[k]}" for i, j, k in
            zip(pi.tolist(), pj.tolist(), lay.chan_label[first].tolist())], res


def _completeness(b: CategoryBundle) -> Array:
    """Per pair (i,j) in label order: max |sum_v v v* - I| where i (x) j is
    complete, 0 where a summand is not loaded."""
    lay = b.layout
    whole = np.flatnonzero(lay.complete_pair)
    sizes = np.zeros(len(lay.pairs), dtype=int)
    sizes[whole] = lay.pair_size[whole]
    pos, out = zero_stacks(sizes)
    at, chans = lay.channels_of(whole)

    def parts():
        for _, nums in split_by(lay.chan_shape[chans]):
            v = lay.isometries(chans[nums])
            yield nums, v @ bdagger(v)

    add_in_order(out, pos[whole[at]], parts())
    res = np.zeros(len(lay.pairs))
    for (d, _), acc in out.items():
        mine = sizes == d
        res[mine] = max_abs(acc - eye(d))[pos[mine]]
    return res


def _validate_braiding(b, tol, rep, fail_fast):
    # reached only while rep passes or without fail_fast
    missing = [
        (i, j) for i in b.labels for j in b.labels if (i, j) not in b.braiding
    ]
    rep.add("braiding-coverage", "all", float(len(missing)), not missing)
    if missing:
        return

    u = b.unit
    one = tol.bound(1.0)
    res = np.array([worst(residual(b.braiding[(u, j)], eye(b.d(j))),
                          residual(b.braiding[(j, u)], eye(b.d(j)))) for j in b.labels])
    if rep.add_rows("braiding-unit", b.labels, res, res <= one, fail_fast):
        return

    # the braidings stacked per shape: c(i, m) is braidings(i N + m)
    lay, lab = b.layout, b.labels
    n_lab = len(lab)
    cshape, cslot, cstacks = shape_stacks([b.braiding[p] for p in lay.pairs])

    def braidings(pairs):
        return cstacks[cshape[pairs[0]]][cslot[pairs]]

    res = np.zeros(len(lay.pairs))
    for s, c in enumerate(cstacks):
        res[cshape == s] = max_abs(bdagger(c) @ c - eye(c.shape[-1]))
    rank = _name_rank(b)
    pi, pj = np.divmod(np.arange(len(lay.pairs)), n_lab)
    by_name = np.lexsort((rank[pj], rank[pi]))
    if rep.add_rows("braiding-unitarity", [f"({lab[i]},{lab[j]})" for i, j in
                                           zip(pi[by_name].tolist(), pj[by_name].tolist())],
                    res[by_name], res[by_name] <= one, fail_fast):
        return

    # naturality hexagons against every loaded fusion isometry: one item per
    # channel (i,j)->k#alpha and label m, by (i,j)->k by name, then m, then alpha
    order, row = _by_name(b)
    ch, m = np.repeat(order, n_lab), np.tile(np.arange(n_lab), len(order))
    item = np.lexsort((lay.chan_alpha[ch], m, np.repeat(row, n_lab)))
    ch, m = ch[item], m[item]
    i, j = np.divmod(lay.chan_pair[ch], n_lab)
    k, d = lay.chan_label[ch], lay.dims
    big = int(d.max()) + 1
    out = np.zeros((len(ch), 4))
    for _, sel in split_by(((d[i] * big + d[j]) * big + d[k]) * big + d[m]):
        si, sj, sk, sm = i[sel], j[sel], k[sel], m[sel]
        cim, cjm = braidings(si * n_lab + sm), braidings(sj * n_lab + sm)
        cmj, cmi = braidings(sm * n_lab + sj), braidings(sm * n_lab + si)
        ckm, cmk = braidings(sk * n_lab + sm), braidings(sm * n_lab + sk)
        v = lay.isometries(ch[sel])
        ei, ej, em = (frozen_eye(int(d[x[0]])) for x in (si, sj, sm))
        # c_{i (x) j, m} compatibility: move m leftwards past v
        lhs = bkron(cim, ej) @ bkron(ei, cjm) @ bkron(v, em)
        rhs = bkron(em, v) @ ckm
        # mirror: braid m leftwards into i (x) j
        lhs2 = bkron(ei, cmj) @ bkron(cmi, ej) @ bkron(em, v)
        rhs2 = bkron(v, em) @ cmk
        out[sel] = np.stack([max_abs(lhs - rhs), tol.bounds(lhs, rhs),
                             max_abs(lhs2 - rhs2), tol.bounds(lhs2, rhs2)], axis=1)
    # two rows per item, left then right; fail_fast stops after the item
    ok = out[:, [0, 2]] <= out[:, [1, 3]]
    n = len(ok)
    if fail_fast and not ok.all():
        n = int(np.argmin(ok.all(axis=1))) + 1
    prefix = [f"({lab[p // n_lab]},{lab[p % n_lab]})->{lab[c]}#{a} vs " for p, c, a in
              zip(lay.chan_pair.tolist(), lay.chan_label.tolist(), lay.chan_alpha.tolist())]
    locs = [prefix[c] + lab[x] for c, x in zip(ch[:n].tolist(), m[:n].tolist())]
    rep.add_rows(["braiding-hexagon-left", "braiding-hexagon-right"] * n,
                 [loc for loc in locs for _ in (0, 1)], out[:n, [0, 2]].reshape(-1),
                 ok[:n].reshape(-1))
