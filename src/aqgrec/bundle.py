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
    eye,
    frozen_eye,
    kron,
    max_abs,
    residual,
    worst,
    zero_stacks,
)
from .report import Report


class BundleSyntaxError(ValueError):
    """Raised when bundle text is not well-formed."""


class ShapeError(ValueError):
    """Raised when a matrix/vector in a bundle has inconsistent dimensions."""


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

    def N(self, i: str, j: str, k: str) -> int:
        return len(self.fusion.get((i, j), {}).get(k, []))

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

    def conj_pair(self, i: str) -> tuple[Array, Array]:
        return self.conj[i]


class FusionLayout:
    """A bundle's fusion isometries in one stacked layout, built once.

    For every label pair (i,j), in label order:

    - stacked[(i,j)] is V_ij = [v_ij^{k,alpha}]_{k,alpha}, of shape
      (d_i d_j) x sum_k N_ij^k d_k (absent when nothing is loaded), and
      channels[(i,j)] lists (k, alpha, v) in label order, v being the column
      slice of V_ij for that channel;
    - support[(i,j)] lists (k, N_ij^k) over loaded k, and complete[(i,j)]
      tells whether those summands fill H_i (x) H_j;
    - pairs numbers the pairs (pair (i,j) is n_i N + n_j for label numbers
      n_i, n_j), with arrays over labels (dims, block_of: the slot of a label
      among the dim_count[d] labels of its size d) and over pairs (pair_size = d_i d_j,
      loaded[p, k]: pair p has a channel into label k).

    Built from it on first use: delta, the work list of Delta (every channel
    as one item), and fmoves, the F-move certificate of every admissible
    quadruple.
    """

    def __init__(self, b: CategoryBundle):
        self.label_index = {k: n for n, k in enumerate(b.labels)}
        self.pairs = [(i, j) for i in b.labels for j in b.labels]
        self.pair_index = {p: n for n, p in enumerate(self.pairs)}
        self.stacked: dict[tuple[str, str], Array] = {}
        self.channels: dict[tuple[str, str], list] = {}
        self.support: dict[tuple[str, str], list[tuple[str, int]]] = {}
        self.complete: dict[tuple[str, str], bool] = {}
        for i, j in self.pairs:
            chans = b.fusion.get((i, j), {})
            sup = [(k, len(chans[k])) for k in b.labels if chans.get(k)]
            self.support[(i, j)] = sup
            self.complete[(i, j)] = sum(n * b.dims[k] for k, n in sup) == b.dims[i] * b.dims[j]
            mats = [(k, a, v) for k, _ in sup for a, v in enumerate(chans[k])]
            self.channels[(i, j)] = []
            if mats:
                stacked = np.hstack([v for _, _, v in mats])
                self.stacked[(i, j)] = stacked
                col = 0
                for k, a, v in mats:
                    self.channels[(i, j)].append((k, a, stacked[:, col:col + v.shape[1]]))
                    col += v.shape[1]
        # per label: its dimension and its slot among the labels of that size
        self.dims = np.array([b.dims[k] for k in b.labels], dtype=int)
        self.block_of = np.zeros(len(b.labels), dtype=int)
        self.dim_count: dict[int, int] = {}
        for n, d in enumerate(b.dims[k] for k in b.labels):
            self.block_of[n] = self.dim_count.get(d, 0)
            self.dim_count[d] = self.block_of[n] + 1
        self.pair_size = np.outer(self.dims, self.dims).reshape(-1)
        # loaded[p, k]: pair p has a channel into label k
        self.loaded = np.zeros((len(self.pairs), len(b.labels)), dtype=bool)
        for p, sup in self.support.items():
            for k, _ in sup:
                self.loaded[self.pair_index[p], self.label_index[k]] = True
        self._bundle = b
        self._delta = None
        self._fmoves = None

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
        label order, the quadruples (i,j,k,m) with m in label order, and per
        quadruple its residual and its F-matrix (right paths x left paths).
        """
        if self._fmoves is None:
            b = self._bundle
            chans = self.channels
            triples = [(i, j, k) for i in b.labels for j in b.labels for k in b.labels
                       if self.complete[(i, j)] and self.complete[(j, k)]]
            quads, paths, groups = [], [], {}
            for i, j, k in triples:
                by_m: dict[str, tuple[list, list]] = {}
                for l, _, v in chans[(i, j)]:
                    for m, _, w in chans[(l, k)]:
                        by_m.setdefault(m, ([], []))[0].append((v, w))
                for n, _, v in chans[(j, k)]:
                    for m, _, w in chans[(i, n)]:
                        by_m.setdefault(m, ([], []))[1].append((v, w))
                dijk = b.dims[i] * b.dims[j] * b.dims[k]
                for m in sorted(by_m, key=self.label_index.get):
                    left, right = by_m[m]
                    key = (dijk, b.dims[m], len(left), len(right))
                    groups.setdefault(key, []).append(len(quads))
                    quads.append((i, j, k, m))
                    paths.append(by_m[m])
            res, fmats = np.zeros(len(quads)), [None] * len(quads)
            for (dim, dm, p, pp), nums in groups.items():
                step = max(1, _FMOVE_CHUNK_BYTES // (32 * ((p + pp) * dim * dm + p * pp * dm * dm)))
                for at in range(0, len(nums), step):
                    chunk = nums[at:at + step]
                    res[chunk], f = _fmove_chunk([paths[n] for n in chunk], dim, dm, p, pp)
                    for t, n in enumerate(chunk):
                        fmats[n] = f[t]
            self._fmoves = (triples, quads, res, fmats)
        return self._fmoves


# memory budget of one certificate chunk: U, W and G with their
# intermediates, counted at 32 bytes per complex entry
_FMOVE_CHUNK_BYTES = 1 << 22


def _fmove_chunk(paths, dim, dm, p, pp):
    """Residuals and F-matrices of quadruples that share (D, d_m, p, p'):
    paths holds per quadruple its (left, right) lists of (v, w) items."""
    nq = len(paths)
    out = []
    for side, count in ((0, p), (1, pp)):
        stack = np.zeros((nq, dim, count, dm), dtype=complex)
        items = [it for quad in paths for it in quad[side]]
        quad_of, slot = np.repeat(np.arange(nq), count), np.tile(np.arange(count), nq)
        for nums, (v, w) in by_shape(items):
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


def _parse_matrix(obj, where: str) -> Array:
    try:
        rows, cols, data = int(obj["rows"]), int(obj["cols"]), obj["data"]
    except (KeyError, TypeError, ValueError) as exc:
        raise BundleSyntaxError(f"malformed matrix at {where}: {exc}") from None
    if len(data) != rows * cols:
        raise ShapeError(f"matrix at {where}: {len(data)} entries for {rows}x{cols}")
    try:
        flat = np.array([complex(re, im) for re, im in data], dtype=complex)
    except (TypeError, ValueError) as exc:
        raise BundleSyntaxError(f"bad matrix entry at {where}: {exc}") from None
    return flat.reshape(rows, cols)


def _parse_vector(obj, where: str) -> Array:
    try:
        n, data = int(obj["len"]), obj["data"]
    except (KeyError, TypeError, ValueError) as exc:
        raise BundleSyntaxError(f"malformed vector at {where}: {exc}") from None
    if len(data) != n:
        raise ShapeError(f"vector at {where}: {len(data)} entries for len {n}")
    try:
        flat = np.array([complex(re, im) for re, im in data], dtype=complex)
    except (TypeError, ValueError) as exc:
        raise BundleSyntaxError(f"bad vector entry at {where}: {exc}") from None
    return flat


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
        doc = json.loads(text)
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


def _dump_matrix(m: Array) -> dict:
    m = cmat(m)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": [[float(z.real), float(z.imag)] for z in m.reshape(-1)],
    }


def _dump_vector(v: Array) -> dict:
    v = cmat(v).reshape(-1)
    return {"len": int(v.shape[0]), "data": [[float(z.real), float(z.imag)] for z in v]}


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
    # repr-style floats keep 17 significant digits and roundtrip exactly
    return json.dumps(doc, indent=1)




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
    reported, never raised.  Each block family is evaluated as stacked
    products over the fusion layout, one np.matmul per block shape.
    """
    rep = Report("bundle-validation")

    def done() -> bool:
        return fail_fast and not rep.passed

    def add_rows(name, rows, res, bound) -> bool:
        for loc, r in zip(rows, res):
            rep.add(name, loc, r, r <= bound)
            if done():
                return True
        return False

    # structural involution facts
    inv_res = 0.0 if all(b.dual[b.dual[i]] == i for i in b.labels) else 1.0
    rep.add("dual-involution", "all", inv_res, inv_res == 0.0)
    rep.add(
        "dual-fixes-unit", b.unit, 0.0 if b.dual[b.unit] == b.unit else 1.0,
        b.dual[b.unit] == b.unit,
    )
    if done():
        return rep

    one = tol.bound(1.0)
    rows, res = _orthonormality(b)
    if add_rows("orthonormality", rows, res, one):
        return rep

    for (i, j), r in zip(b.layout.pairs, _completeness(b)):
        if r is None:
            if b.closed:
                rep.add("completeness", f"({i},{j})", 1.0, False)
            else:
                rep.skip("completeness", f"({i},{j}) window")
        else:
            rep.add("completeness", f"({i},{j})", r, r <= one)
        if done():
            return rep

    # unit and dual fusion constraints
    ok_unit = True
    for j in b.labels:
        for k in b.labels:
            if b.N(b.unit, j, k) != (1 if j == k else 0):
                ok_unit = False
            if b.N(j, b.unit, k) != (1 if j == k else 0):
                ok_unit = False
        n0 = b.N(j, b.dual[j], b.unit)
        if n0 != 1:
            ok_unit = False
        for jj in b.labels:
            if jj != b.dual[j] and b.N(j, jj, b.unit) != 0:
                ok_unit = False
    rep.add("unit-dual-fusion-rules", "all", 0.0 if ok_unit else 1.0, ok_unit)
    if done():
        return rep

    # Frobenius fusion symmetries where every participant is loaded
    sym_ok = True
    for (i, j), chans in b.fusion.items():
        for k in chans:
            n = b.N(i, j, k)
            if b.complete(k, b.dual[j]) and n != b.N(k, b.dual[j], i):
                sym_ok = False
            if b.complete(b.dual[i], k) and n != b.N(b.dual[i], k, j):
                sym_ok = False
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

    # recoupling: the F-move certificate of each admissible (i,j,k -> m);
    # on a window every other triple is a skipped row
    lay = b.layout
    _, quads, fres, _ = lay.fmoves
    rows: dict[tuple, list] = {}
    for (i, j, k, m), r in zip(quads, fres.tolist()):
        rows.setdefault((i, j, k), []).append((f"({i},{j},{k})->{m}", r))
    for i in b.labels:
        for j in b.labels:
            for k in b.labels:
                if lay.complete[(i, j)] and lay.complete[(j, k)]:
                    for loc, r in rows.get((i, j, k), []):
                        rep.add("recoupling", loc, r, r <= one)
                        if done():
                            return rep
                elif not b.closed:
                    rep.skip("recoupling", f"({i},{j},{k}) window")

    # braiding identities
    if b.braiding is not None:
        _validate_braiding(b, tol, rep, done, add_rows)
    return rep


def _orthonormality(b: CategoryBundle):
    """Rows (i,j)->k and their residual max |v_a* v_c - delta_ac I|, a <= c."""
    rows, items, row_of = [], [], []
    for (i, j), chans in sorted(b.fusion.items()):
        for k in sorted(chans):
            mats = chans[k]
            for a, va in enumerate(mats):
                for c in range(a, len(mats)):
                    items.append((va, mats[c]))
                    row_of.append((len(rows), a == c))
            rows.append(f"({i},{j})->{k}")
    res = np.zeros(len(rows))
    for nums, (va, vc) in by_shape(items):
        g = bdagger(va) @ vc
        diag = np.array([row_of[n][1] for n in nums])
        g[diag] -= frozen_eye(g.shape[-1])
        with np.errstate(invalid="ignore"):  # NaN rows stay NaN
            np.maximum.at(res, [row_of[n][0] for n in nums], max_abs(g))
    return rows, res


def _completeness(b: CategoryBundle) -> list:
    """Per pair (i,j) in label order: max |sum_v v v* - I|, or None where a
    summand of i (x) j is not loaded."""
    lay = b.layout
    sizes = [b.d(i) * b.d(j) if lay.complete[(i, j)] else None for i, j in lay.pairs]
    pos, out = zero_stacks(sizes)
    items, pair_of = [], []
    for n, p in enumerate(lay.pairs):
        if sizes[n]:
            items += [(v,) for _, _, v in lay.channels[p]]
            pair_of += [n] * len(lay.channels[p])
    add_in_order(out, pos[pair_of], (
        (nums, v @ bdagger(v)) for nums, (v,) in by_shape(items)
    ))
    res = {s: max_abs(acc - eye(s[0])) for s, acc in out.items()}
    return [None if d is None else float(res[(d, d)][p]) for d, p in zip(sizes, pos)]


def _validate_braiding(b, tol, rep, done, add_rows):
    missing = [
        (i, j) for i in b.labels for j in b.labels if (i, j) not in b.braiding
    ]
    rep.add("braiding-coverage", "all", float(len(missing)), not missing)
    if missing or done():
        return

    u = b.unit
    one = tol.bound(1.0)
    for j in b.labels:
        res = worst(
            residual(b.braiding[(u, j)], eye(b.d(j))),
            residual(b.braiding[(j, u)], eye(b.d(j))),
        )
        rep.add("braiding-unit", j, res, res <= one)
        if done():
            return

    pairs = sorted(b.braiding)
    res = np.zeros(len(pairs))
    for nums, (c,) in by_shape([(b.braiding[p],) for p in pairs]):
        res[nums] = max_abs(bdagger(c) @ c - eye(c.shape[-1]))
    if add_rows("braiding-unitarity", [f"({i},{j})" for i, j in pairs], res, one):
        return

    # naturality hexagons against every loaded fusion isometry
    c, locs, items = b.braiding, [], []
    for (i, j), chans in sorted(b.fusion.items()):
        ei, ej = frozen_eye(b.d(i)), frozen_eye(b.d(j))
        for k in sorted(chans):
            for m in b.labels:
                em = frozen_eye(b.d(m))
                for alpha, v in enumerate(chans[k]):
                    locs.append(f"({i},{j})->{k}#{alpha} vs {m}")
                    items.append((c[(i, m)], c[(j, m)], c[(m, j)], c[(m, i)], v,
                                  c[(k, m)], c[(m, k)], ei, ej, em))
    out = np.zeros((len(items), 4))
    for nums, (cim, cjm, cmj, cmi, v, ckm, cmk, ei, ej, em) in by_shape(items):
        # c_{i (x) j, m} compatibility: move m leftwards past v
        lhs = bkron(cim, ej) @ bkron(ei, cjm) @ bkron(v, em)
        rhs = bkron(em, v) @ ckm
        # mirror: braid m leftwards into i (x) j
        lhs2 = bkron(ei, cmj) @ bkron(cmi, ej) @ bkron(em, v)
        rhs2 = bkron(v, em) @ cmk
        out[nums] = np.stack([max_abs(lhs - rhs), tol.bounds(lhs, rhs),
                              max_abs(lhs2 - rhs2), tol.bounds(lhs2, rhs2)], axis=1)
    for loc, (res, bd, res2, bd2) in zip(locs, out):
        rep.add("braiding-hexagon-left", loc, res, res <= bd)
        rep.add("braiding-hexagon-right", loc, res2, res2 <= bd2)
        if done():
            return
