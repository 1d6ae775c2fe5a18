"""CategoryBundle: the on-disk presentation of a concrete semisimple tensor
*-category with conjugates and optional braiding.

File format (Category Bundle v1) is UTF-8 JSON:

    { "version": 1, "labels": [...], "unit": "...", "dims": {label: int},
      "weights": {label: [int,...]},                          (optional)
      "dual": {label: label}, "closed": bool,
      "fusion": [ {"i","j","k","isometries": [matrix,...]}, ... ],
      "conj": {label: {"r": vector, "rbar": vector}},
      "braiding": [ {"i","j","c": matrix}, ... ] }            (optional)

A matrix is {"rows", "cols", "data": [[re,im],...]} in row-major order and a
vector is {"len", "data": [[re,im],...]}.  Either may carry "at", strictly
increasing flat row-major positions: then "data" holds only the entries at
those positions, and every other entry is exactly 0.  A missing (i,j,k)
entry means N_{ij}^k = 0.  Label order in "labels" fixes the block order
everywhere.

"weights" grades each H_i by one integer per basis vector (magnitude below
2^31).  Every isometry must conserve the weights, every r_i and rbar_i have
weight 0 and every braiding conserve them: an entry off its sector must be
exactly 0.  The layout certifies this when it is built, which parse_bundle
does for a bundle that declares a grading, so a broken grading raises
GradingError (or ShapeError or BundleSyntaxError for a malformed list), which
the command line reports with exit 2.  A bundle without weights is one
sector of weight 0.
"""
from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .document import BundleDocument, load_document, positions, typed
from .errors import BundleSyntaxError, ShapeError
from .linalg import (
    DEFAULT_TOL,
    Array,
    Tolerance,
    bdagger,
    bkron,
    cmat,
    dagger,
    eye,
    flat_stacks,
    frozen_eye,
    kron,
    max_abs,
    ranges,
    residual,
    split_by,
    walk,
    worst,
)
from .report import Report


@dataclass
class CategoryBundle:
    """Fusion, conjugation and (optionally) braiding data of a category.

    The fusion layout (see layout) is built from the fusion data on first use
    and kept, and from then on it owns the bundle's isometries and
    braidings: building it replaces fusion and braiding with new dicts, of
    the same keys in the same order, whose matrices are views of the
    layout's stacks, so each matrix is held once.  The fusion and braiding
    data must not change after that.  A modified bundle is a new
    CategoryBundle (dataclasses.replace starts it without a layout, and the
    dicts it shares with the old bundle are never mutated).  weights, when
    given, grades each H_i by an integer per basis vector; the layout
    certifies it when it is built (see FusionLayout).
    """

    labels: list[str]
    unit: str
    dims: dict[str, int]
    dual: dict[str, str]
    fusion: dict[tuple[str, str], dict[str, list[Array]]]
    conj: dict[str, tuple[Array, Array]]
    braiding: dict[tuple[str, str], Array] | None = None
    closed: bool = True
    weights: dict[str, list[int]] | None = None
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

    def complete(self, i: str, j: str) -> bool:
        """True when all summands of i (x) j lie inside the loaded window."""
        lay = self.layout
        return bool(lay.complete_pair[lay.pair_index[(i, j)]])


class FusionLayout:
    """A bundle's fusion isometries and braidings in one stacked layout,
    built once.  It is the one owner of those arrays: the bundle's fusion and
    braiding matrices are views of its stacks (CategoryBundle).

    Labels are numbered in label order and the pair (i,j) is n_i N + n_j.
    Every fusion channel (a column block v of V_ij = [v_ij^{k,alpha}]_{k,alpha})
    has one number: channels run pair by pair, and within a pair by k in label
    order, then alpha.  For channel c:

    - chan_pair[c], chan_label[c] and chan_alpha[c] are its pair, its label k
      and its multiplicity index, and pair_start[p]:pair_start[p + 1] are the
      channels of pair p;
    - its isometry is chan_stacks[chan_shape[c]][chan_slot[c]], one stack per
      isometry shape, and its entries in row-major order start at
      chan_start[c] in chan_flat, of which the stacks are views.

    Every work list over channels (validation, Delta and its cut-offs, the
    F-moves, the T-inverses, the R-matrix rows, the dual's tables) is a join
    over these arrays.  Per label: dims, block_of (the slot of a label among
    the dim_count[d] labels of its size d) and name_rank (the place of its
    name among the sorted names, the order of the reports' rows by name).
    dual[n] is the label number of the dual of label n.  Per pair:
    pair_size = d_i d_j, count[p, k] = N_ij^k over loaded channels, with
    loaded = count > 0, and complete_pair[p], whether those summands fill
    H_i (x) H_j.  braidings holds the braidings c_ij as pair_stacks stacks
    them (None without a braiding), which validation and the R-matrix read.

    weights[n] holds the weight of each basis vector of label n: the bundle's
    grading, or 0 throughout when it declares none.  A declared grading is
    certified here: every isometry, conjugate-pair and braiding entry off
    its sector must be exactly 0, or GradingError is raised.

    Built from it on first use: fmoves, the F-move certificate of every
    admissible quadruple, and gram, the channel Gram of every pair.
    """

    def __init__(self, b: CategoryBundle):
        self.label_index = {k: n for n, k in enumerate(b.labels)}
        self.name_rank = np.zeros(len(b.labels), dtype=int)
        self.name_rank[[self.label_index[k] for k in sorted(b.labels)]] = np.arange(len(b.labels))
        self.pairs = [(i, j) for i in b.labels for j in b.labels]
        self.pair_index = {p: n for n, p in enumerate(self.pairs)}
        self.count = np.zeros((len(self.pairs), len(b.labels)), dtype=int)
        chans, mats, first = [], [], {}
        for n, (i, j) in enumerate(self.pairs):
            loaded = b.fusion.get((i, j), {})
            for c, k in enumerate(b.labels):
                if loaded.get(k):
                    self.count[n, c], first[(i, j, k)] = len(loaded[k]), len(mats)
                    chans += [(n, c, a) for a in range(len(loaded[k]))]
                    mats += loaded[k]
        self.chan_pair, self.chan_label, self.chan_alpha = np.array(
            chans, dtype=int).reshape(-1, 3).T
        (self.chan_flat, self.chan_start, self.chan_shape, self.chan_slot,
         self.chan_stacks) = flat_stacks(mats)
        self.pair_start = np.searchsorted(self.chan_pair, np.arange(len(self.pairs) + 1))
        self.loaded = self.count > 0
        # per label: its dimension and its slot among the labels of that size
        self.dims = np.array([b.dims[k] for k in b.labels], dtype=int)
        self.block_of = np.zeros(len(b.labels), dtype=int)
        self.dim_count: dict[int, int] = {}
        for n, d in enumerate(b.dims[k] for k in b.labels):
            self.block_of[n] = self.dim_count.get(d, 0)
            self.dim_count[d] = self.block_of[n] + 1
        self.pair_size = np.outer(self.dims, self.dims).reshape(-1)
        self.complete_pair = self.count @ self.dims == self.pair_size
        self.dual = np.array([self.label_index[b.dual[k]] for k in b.labels], dtype=int)
        self.braidings = None if b.braiding is None else self.pair_stacks(b.braiding)
        # grading.py and sectors.py load on use: every process compiles what
        # it imports, gen needs neither and the window refusals no certificate
        if b.weights is None:
            self.weights = [np.zeros(d, dtype=np.int64) for d in self.dims]
        else:
            from .grading import certify_grading, weights_of

            self.weights = weights_of(b)
            certify_grading(b, self)
        self._fmoves = self._gram = None
        # the bundle's matrices become views of the stacks, in new dicts, so
        # that each is held once and a bundle sharing b's dicts keeps its own
        view = [self.chan_stacks[s][t] for s, t in zip(self.chan_shape.tolist(),
                                                       self.chan_slot.tolist())]
        b.fusion = {(i, j): {k: view[first[(i, j, k)]:first[(i, j, k)] + len(mats)]
                             if (i, j, k) in first else mats for k, mats in loaded.items()}
                    for (i, j), loaded in b.fusion.items()}
        if b.braiding is not None:
            _, shape, slot, stacks = self.braidings
            b.braiding = {p: stacks[shape[self.pair_index[p]]][slot[self.pair_index[p]]]
                          for p in b.braiding}

    def isometries(self, chans) -> Array:
        """The stacked isometries of channels chans, which share one shape."""
        return self.chan_stacks[self.chan_shape[chans[0]]][self.chan_slot[chans]]

    def channels_of(self, pairs) -> tuple[Array, Array]:
        """The channels of each pair of the int array pairs, in order.

        Returns (at, chans): chans[x] is a channel of pairs[at[x]].
        """
        lo = self.pair_start[pairs]
        return ranges(lo, self.pair_start[pairs + 1] - lo)

    def pair_stacks(self, mats: dict):
        """The matrices of mats, keyed by pair, stacked per shape by pair
        index.

        Returns (have, shape, slot, stacks): pair p has a matrix when
        have[p], and it is stacks[shape[p]][slot[p]] (shape and slot are -1
        elsewhere).
        """
        have = np.array([p in mats for p in self.pairs], dtype=bool)
        shape, slot = np.full(len(have), -1), np.full(len(have), -1)
        _, _, shape[have], slot[have], stacks = flat_stacks(
            [mats[p] for p in self.pairs if p in mats])
        return have, shape, slot, stacks

    @property
    def gram(self):
        """The channel Gram of every pair, v_a* v_c for every two channels
        a <= c of one pair: the blocks of V_ij* V_ij on and above the
        diagonal, where V_ij stacks the channels of (i,j).

        Returns, per channel a, the worst of max |v_a* v_c - delta_ac I|
        over the channels c >= a of its pair of its own label (row 0) and
        of other labels (row 1).  The items (a, c), by pair of isometry
        shapes, run in chunks within CHUNK_BYTES (walk), a chunk holding its
        gathered isometries, the conjugate of v_a, their products, the
        products' masked copy and moduli, and its index arrays.
        """
        if self._gram is None:
            n = np.arange(len(self.chan_pair))
            a, c = ranges(n, self.pair_start[self.chan_pair + 1] - n)
            code = self.chan_shape[a] * len(self.chan_stacks) + self.chan_shape[c]
            order = np.argsort(code, kind="stable")  # by pair of shapes
            a, c, code = a[order], c[order], code[order]
            da, dc = self.dims[self.chan_label[a]], self.dims[self.chan_label[c]]
            res = np.zeros(len(a))
            for lo, hi in walk(16 * self.pair_size[self.chan_pair[a]] * (2 * da + dc)
                               + 40 * da * dc + 64):
                for _, x in split_by(code[lo:hi]):
                    x += lo
                    g = bdagger(self.isometries(a[x])) @ self.isometries(c[x])
                    diagonal = a[x] == c[x]
                    if diagonal.any():  # only where a shape meets itself
                        g[diagonal] -= np.eye(*g.shape[1:])
                    res[x] = max_abs(g)
            self._gram = np.zeros((2, len(n)))
            with np.errstate(invalid="ignore"):  # a NaN residual stays NaN
                np.maximum.at(self._gram, ((self.chan_label[a] != self.chan_label[c]).astype(int), a),
                              res)
        return self._gram

    def gram_worst(self, group, size: int, row: int) -> Array:
        """The worst of the Gram's row (gram) per group[a] of size groups,
        over the channels a.  NaN stays."""
        out = np.zeros(size)
        with np.errstate(invalid="ignore"):
            np.maximum.at(out, group, self.gram[row])
        return out

    @property
    def fmoves(self):
        """The F-move certificate of every admissible quadruple (i,j,k -> m).

        A triple (i,j,k) is admissible when i (x) j and j (x) k are complete.
        Per m, U stacks (v (x) I_k) w over the left paths i (x) j -> l,
        l (x) k -> m, and W stacks (I_i (x) v') w' over the right paths
        j (x) k -> n, i (x) n -> m, both in channel order.  The two
        bracketings of Delta agree on all of B(H_m) exactly when
        G = W* U = M (x) I_{d_m} with M unitary; M (the F-matrix, or 6j
        symbol) is the d_m-traces of G over d_m.

        Every isometry conserves the weights (one sector, 0, without a
        grading), so G is block-diagonal over the weights w of H_m: the
        block G_w = W_w* U_w pairs the rows of weight w of H_i (x) H_j (x)
        H_k with the basis vectors of weight w of H_m, r_w of them, and the
        certificate is G_w = M (x) I_{r_w} for every w, with M the sum of the
        r_w-traces of the G_w over d_m.  The residual is the worst of
        max|G_w - M (x) I|, max|M* M - I| and max|M M* - I|, which is 1 when
        one side has no path.

        Returns (triples, quads, residual, F): the admissible triples in
        label order as rows (n_i, n_j, n_k) of label numbers, the quadruples
        as rows (n_i, n_j, n_k, n_m) in the same order with m in label
        order, and per quadruple its residual and its F-matrix (right paths
        x left paths).  The paths come from joins over the channel numbers,
        and the quadruples run in chunks of whole triples within a memory
        budget (see sectors.py).
        """
        if self._fmoves is None:
            from .sectors import certificate

            self._fmoves = certificate(self)
        return self._fmoves


# ---------------------------------------------------------------------------
# parsing / serialization


def _complex_array(data) -> Array:
    return np.array([complex(re, im) for re, im in data], dtype=complex)


def _shape_text(shape: tuple[int, ...]) -> str:
    return "x".join(map(str, shape)) if len(shape) == 2 else f"len {shape[0]}"


def _entries(obj: dict, data, shape: tuple[int, ...], kind: str, where: str) -> Array:
    """The entries of a matrix or vector object as an array of that shape:
    its "data" in row-major order, or with "at", its "data" at those flat
    positions and 0 elsewhere."""
    size, at = math.prod(shape), None
    if isinstance(data, array):  # decoded by the document's object hook
        data = np.frombuffer(data, dtype=complex)
    try:
        n = len(data)
    except TypeError:
        raise BundleSyntaxError(
            f"malformed {kind} at {where}: data must be a JSON array") from None
    if "at" in obj:
        at = positions(obj["at"])
        if at is None:
            raise BundleSyntaxError(
                f"malformed {kind} at {where}: at must be a JSON array of integers")
        at = np.frombuffer(at, dtype=np.int64)
        if len(at) != n:
            raise ShapeError(f"{kind} at {where}: {n} entries for {len(at)} positions")
    elif n != size:
        raise ShapeError(f"{kind} at {where}: {n} entries for {_shape_text(shape)}")
    if min(shape) < 0:
        raise ShapeError(f"{kind} at {where}: negative shape {_shape_text(shape)}")
    if at is not None and n and (not (at[1:] > at[:-1]).all() or at[0] < 0 or at[-1] >= size):
        raise ShapeError(
            f"{kind} at {where}: positions must increase strictly within 0..{size - 1}")
    if not isinstance(data, np.ndarray):
        try:
            data = _complex_array(data)
        except (TypeError, ValueError, OverflowError) as exc:
            raise BundleSyntaxError(f"bad {kind} entry at {where}: {exc}") from None
    if at is None:
        return data.reshape(shape)
    try:
        out = np.zeros(size, dtype=complex)
    except MemoryError:
        raise ShapeError(
            f"{kind} at {where}: {_shape_text(shape)} does not fit in memory") from None
    out[at] = data
    return out.reshape(shape)


def _parse_matrix(obj, where: str) -> Array:
    try:
        rows, cols, data = int(obj["rows"]), int(obj["cols"]), obj["data"]
    except (KeyError, TypeError, ValueError) as exc:
        raise BundleSyntaxError(f"malformed matrix at {where}: {exc}") from None
    return _entries(obj, data, (rows, cols), "matrix", where)


def _parse_vector(obj, where: str) -> Array:
    try:
        n, data = int(obj["len"]), obj["data"]
    except (KeyError, TypeError, ValueError) as exc:
        raise BundleSyntaxError(f"malformed vector at {where}: {exc}") from None
    return _entries(obj, data, (n,), "vector", where)


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


def parse_bundle(source: str | BundleDocument) -> CategoryBundle:
    """Parse Category Bundle v1 text, or its document (load_document).
    Checks shapes, and a declared weight grading (GradingError), not the rest
    of the mathematics.

    The arrays are built from the document: an entry list that its object
    hook decoded is viewed as complex entries without a copy, and one that
    did not decode is reported at its location."""
    doc = source if isinstance(source, BundleDocument) else load_document(source)
    labels, unit, dims, dual = doc.labels, doc.unit, doc.dims, doc.dual
    lset = set(labels)

    fusion: dict[tuple[str, str], dict[str, list[Array]]] = {}
    for ent in typed(doc.fusion, list, "fusion"):
        try:
            i, j, k = str(ent["i"]), str(ent["j"]), str(ent["k"])
            mats = typed(ent["isometries"], list, "isometries")
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
    for i, ent in typed(doc.conj, dict, "conj").items():
        if i not in lset:
            raise BundleSyntaxError(f"conj mentions unknown label {i!r}")
        try:
            r, rbar = ent["r"], ent["rbar"]
        except (KeyError, TypeError) as exc:
            raise BundleSyntaxError(f"malformed conj entry for {i!r}: {exc}") from None
        r = _parse_vector(r, f"conj({i}).r")
        rbar = _parse_vector(rbar, f"conj({i}).rbar")
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
    if doc.braiding is not None:
        braiding = {}
        for ent in typed(doc.braiding, list, "braiding"):
            try:
                i, j, c = str(ent["i"]), str(ent["j"]), ent["c"]
            except (KeyError, TypeError) as exc:
                raise BundleSyntaxError(f"malformed braiding entry: {exc}") from None
            if i not in lset or j not in lset:
                raise BundleSyntaxError(f"braiding entry uses unknown label")
            c = _parse_matrix(c, f"braiding({i},{j})")
            want = (dims[j] * dims[i], dims[i] * dims[j])
            if c.shape != want:
                raise ShapeError(f"braiding({i},{j}): shape {c.shape}, expected {want}")
            braiding[(i, j)] = c

    _require_finite(fusion, conj, braiding)
    b = CategoryBundle(
        labels=labels,
        unit=unit,
        dims=dims,
        dual=dual,
        fusion=fusion,
        conj=conj,
        braiding=braiding,
        closed=doc.closed,
        weights=doc.weights,
    )
    if b.weights is not None:
        b.layout  # certifies the grading
    return b


def _data(m: Array) -> str:
    """The entries of a matrix or vector as text: "data", its entries in
    row-major order as [re, im] pairs through the C JSON encoder, preceded by
    "at" when an entry whose two parts are +0.0 is left out.  -0.0 is
    written, so the round trip is bitwise."""
    pairs = np.ascontiguousarray(cmat(m)).reshape(-1).view(float).reshape(-1, 2)
    stored = pairs.view(np.uint64).any(axis=1)
    if stored.all():
        return f'"data": {json.dumps(pairs.tolist())}'
    at = np.flatnonzero(stored)
    return f'"at": {json.dumps(at.tolist())}, "data": {json.dumps(pairs[at].tolist())}'


def _matrix_text(m: Array) -> str:
    rows, cols = cmat(m).shape
    return f'{{"rows": {rows}, "cols": {cols}, {_data(m)}}}'


def _vector_text(v: Array) -> str:
    return f'{{"len": {np.size(v)}, {_data(v)}}}'


def serialize_bundle(b: CategoryBundle) -> str:
    """Serialize to Category Bundle v1 text; parse(serialize(b)) reproduces b.

    The text is json.dumps of the document, written one matrix at a time so
    that only one matrix stands as Python lists at once.  repr-style floats
    keep 17 significant digits and roundtrip exactly.  Every matrix and
    vector keeps only its stored entries: an entry whose real and imaginary
    parts are both +0.0 is left out, and "at" lists the flat positions of
    the rest.  An object with no entry left out has no "at", so a bundle
    without exact zeros is written densely.
    """
    head = {
        "version": 1,
        "labels": list(b.labels),
        "unit": b.unit,
        "dims": {i: int(b.dims[i]) for i in b.labels},
    }
    if b.weights is not None:
        head["weights"] = {i: [int(x) for x in b.weights[i]] for i in b.labels}
    head.update(dual={i: b.dual[i] for i in b.labels}, closed=bool(b.closed))
    fusion = ", ".join(
        f'{{"i": {json.dumps(i)}, "j": {json.dumps(j)}, "k": {json.dumps(k)}, '
        f'"isometries": [{", ".join(_matrix_text(m) for m in mats)}]}}'
        for i in b.labels
        for j in b.labels
        for k in b.labels
        for mats in [b.isometries(i, j, k)]
        if mats
    )
    conj = ", ".join(
        f'{json.dumps(i)}: {{"r": {_vector_text(b.conj[i][0])}, '
        f'"rbar": {_vector_text(b.conj[i][1])}}}'
        for i in b.labels
    )
    parts = [json.dumps(head)[:-1], f', "fusion": [{fusion}], "conj": {{{conj}}}']
    if b.braiding is not None:
        braiding = ", ".join(
            f'{{"i": {json.dumps(i)}, "j": {json.dumps(j)}, '
            f'"c": {_matrix_text(b.braiding[(i, j)])}}}'
            for i in b.labels
            for j in b.labels
            if (i, j) in b.braiding
        )
        parts.append(f', "braiding": [{braiding}]')
    return "".join(parts) + "}"


# ---------------------------------------------------------------------------
# validation


def validate_bundle(
    b: CategoryBundle,
    tol: Tolerance = DEFAULT_TOL,
    fail_fast: bool = False,
) -> Report:
    """Run the mathematical consistency checks on a bundle.

    Checks, in order: involution/unit structure, isometry orthonormality,
    completeness (skipped where a window loses summands) and, on a pair that
    loses summands, orthogonality across labels, unit/dual fusion
    constraints and fusion symmetries, conjugate equations with normalization
    and the channel-0 membership of r, recoupling consistency, and the
    braiding identities when braiding data is present.  Orthonormality and
    orthogonality across labels read the layout's channel Gram, which Delta's
    homomorphism row reads too.  Failures are reported, never raised.  Each
    row family is built from the fusion layout's index arrays, evaluated as
    stacked products (one np.matmul per block shape) and appended in bulk.
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

    # orthonormality: the rows (i,j)->k by name, max |v_a* v_c - delta_ac I|
    # over a <= c, from the channel Gram
    lay, lab = b.layout, b.labels
    n_lab = len(lab)
    one = tol.bound(1.0)
    order, row = _by_name(b)
    first = order[np.flatnonzero(np.diff(row, prepend=-1))]
    at = np.empty(len(order), dtype=int)
    at[order] = row
    pi, pj = np.divmod(lay.chan_pair[first], n_lab)
    res = lay.gram_worst(at, len(first), 0)
    if add_rows("orthonormality", [f"({lab[i]},{lab[j]})->{lab[k]}" for i, j, k in zip(
            pi.tolist(), pj.tolist(), lay.chan_label[first].tolist())], res, res <= one):
        return rep

    # completeness, sum_v v v* = I on a pair that keeps all its summands:
    # there V_ij, its channels side by side, is square, so V V* = I exactly
    # when V* V = I, and the row reads the pair's worst channel Gram entry,
    # within labels and across them.  A pair that loses summands fails
    # (closed) or is skipped
    whole = lay.complete_pair
    gram = [lay.gram_worst(lay.chan_pair, len(lay.pairs), row) for row in (0, 1)]
    res = np.where(whole, np.maximum(*gram), 1.0)
    locs = [f"({i},{j})" if w or b.closed else f"({i},{j}) window"
            for (i, j), w in zip(lay.pairs, whole.tolist())]
    if add_rows("completeness", locs, res, whole & (res <= one),
                None if b.closed else ~whole):
        return rep
    # a pair that loses summands: max |v* v'| over channels of two labels,
    # which completeness implies on a whole pair
    part = np.flatnonzero(~whole)
    res = gram[1][part]
    if add_rows("cross-label-orthogonality", [f"({lab[p // n_lab]},{lab[p % n_lab]})"
                                              for p in part.tolist()], res, res <= one):
        return rep

    # unit and dual fusion constraints: N[i, j, k] = N_ij^k
    N = lay.count.reshape(n_lab, n_lab, n_lab)
    u, dual = lay.label_index[b.unit], lay.dual
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


def _by_name(b: CategoryBundle):
    """The channels in the order of sorted(b.fusion.items()) and sorted(chans):
    by the names of i, j and k, then alpha.  Returns (order, row): order[x] is
    the x-th channel, and row[x] numbers its (i,j)->k in that order."""
    lay = b.layout
    rank = lay.name_rank
    i, j = np.divmod(lay.chan_pair, len(b.labels))
    order = np.lexsort((lay.chan_alpha, rank[lay.chan_label], rank[j], rank[i]))
    pair, label = lay.chan_pair[order], lay.chan_label[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (pair[1:] != pair[:-1]) | (label[1:] != label[:-1])
    return order, np.cumsum(new) - 1


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

    # the layout's braidings, stacked per shape: c(i, m) is braidings(i N + m)
    lay, lab = b.layout, b.labels
    n_lab = len(lab)
    _, cshape, cslot, cstacks = lay.braidings

    def braidings(pairs):
        return cstacks[cshape[pairs[0]]][cslot[pairs]]

    res = np.zeros(len(lay.pairs))
    for s, c in enumerate(cstacks):
        res[cshape == s] = max_abs(bdagger(c) @ c - eye(c.shape[-1]))
    rank = lay.name_rank
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
