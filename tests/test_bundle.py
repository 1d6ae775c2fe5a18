import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqgrec import bundle, linalg, sectors
from aqgrec.aqg import reconstruct, verify_axioms
from aqgrec.bundle import (
    BundleSyntaxError,
    ShapeError,
    parse_bundle,
    serialize_bundle,
    validate_bundle,
)
from aqgrec.errors import GradingError
from aqgrec.examples import gen_suq2
from aqgrec.linalg import CHUNK_BYTES
from test_aqg import fusion_support


def test_serialize_parse_roundtrip(shipped_bundles):
    for name, b in shipped_bundles.items():
        text = serialize_bundle(b)
        b2 = parse_bundle(text)
        assert b2.labels == b.labels, name
        assert b2.unit == b.unit
        assert b2.dims == b.dims
        assert b2.dual == b.dual
        assert b2.closed == b.closed
        # serialization is canonical: a reparse serializes byte-identically
        assert serialize_bundle(b2) == text, name


def test_validation_passes_on_generated_bundles(shipped_bundles):
    for name, b in shipped_bundles.items():
        rep = validate_bundle(b)
        assert rep.passed, f"{name}: {rep.failures()}"
        assert rep.max_residual < 1e-8


def test_validation_catches_perturbed_isometry(shipped_bundles):
    b = shipped_bundles["s3"]
    doc = json.loads(serialize_bundle(b))
    # nudge one real entry of one fusion isometry
    for ent in doc["fusion"]:
        data = ent["isometries"][0]["data"]
        hit = next((e for e in data if abs(e[0]) > 0.1), None)
        if hit is not None:
            hit[0] += 1e-3
            break
    bad = parse_bundle(json.dumps(doc))
    assert not validate_bundle(bad).passed


def test_validation_catches_perturbed_conj(shipped_bundles):
    b = shipped_bundles["suq2-q0.5-L4"]
    doc = json.loads(serialize_bundle(b))
    doc["conj"]["1"]["r"]["data"][1][0] += 1e-3
    bad = parse_bundle(json.dumps(doc))
    assert not validate_bundle(bad).passed


def test_fail_fast_stops_at_first_failure(shipped_bundles):
    doc = json.loads(serialize_bundle(shipped_bundles["z2"]))
    doc["fusion"][0]["isometries"][0]["data"][0][0] += 0.5
    bad = parse_bundle(json.dumps(doc))
    rep = validate_bundle(bad, fail_fast=True)
    assert not rep.passed
    assert len(rep.failures()) == 1


def test_parse_rejects_bad_json():
    with pytest.raises(BundleSyntaxError):
        parse_bundle("{not json")


def test_parse_rejects_wrong_version(shipped_bundles):
    doc = json.loads(serialize_bundle(shipped_bundles["z2"]))
    doc["version"] = 2
    with pytest.raises(BundleSyntaxError):
        parse_bundle(json.dumps(doc))


def test_parse_rejects_missing_key(shipped_bundles):
    doc = json.loads(serialize_bundle(shipped_bundles["z2"]))
    del doc["conj"]
    with pytest.raises(BundleSyntaxError):
        parse_bundle(json.dumps(doc))


def test_parse_rejects_bad_isometry_shape(shipped_bundles):
    doc = json.loads(serialize_bundle(shipped_bundles["z2"]))
    doc["fusion"][0]["isometries"][0]["data"].append([0.0, 0.0])
    with pytest.raises(ShapeError):
        parse_bundle(json.dumps(doc))


def test_parse_rejects_non_involutive_dual(shipped_bundles):
    doc = json.loads(serialize_bundle(shipped_bundles["z5"]))
    doc["dual"] = {k: "bogus" for k in doc["dual"]}
    with pytest.raises(BundleSyntaxError):
        parse_bundle(json.dumps(doc))


def test_support_and_completeness(shipped_bundles):
    b = shipped_bundles["s3"]
    # the 2-dim object of S3 fuses as 2 (x) 2 = 1 + 1' + 2
    two = [i for i in b.labels if b.d(i) == 2][0]
    sup = fusion_support(b, two, two)
    assert sum(n * b.d(k) for k, n in sup) == 4
    assert b.complete(two, two)

    w = shipped_bundles["suq2-q0.5-L4"]
    assert not w.closed
    top = w.labels[-1]
    assert not w.complete(top, top)
    assert w.complete(w.labels[0], top)


def test_fusion_accessors(shipped_bundles):
    b = shipped_bundles["q8"]
    u = b.unit
    for i in b.labels:
        assert len(b.isometries(u, i, i)) == 1
        v = b.isometries(u, i, i)[0]
        assert v.shape == (b.d(i), b.d(i))
        assert np.allclose(v.conj().T @ v, np.eye(b.d(i)))


def _with_nan_entry(b, kind):
    """Copy of b whose first loaded fusion isometry (the last pair's, kind
    "window"; or braiding block) has a NaN in its (0,0) entry, and the
    (row, location) pairs that entry must fail."""
    if kind in ("fusion", "window"):
        (i, j), chans = sorted(b.fusion.items())[0 if kind == "fusion" else -1]
        k = sorted(chans)[0]
        fusion = {p: {kk: [m.copy() for m in vv] for kk, vv in ch.items()}
                  for p, ch in b.fusion.items()}
        fusion[(i, j)][k][0][0, 0] = np.nan
        rows = [("orthonormality", f"({i},{j})->{k}")]
        if kind == "window":  # an incomplete pair with channels of two labels
            rows.append(("cross-label-orthogonality", f"({i},{j})"))
        return (type(b)(labels=b.labels, unit=b.unit, dims=b.dims, dual=b.dual,
                        fusion=fusion, conj=b.conj, braiding=b.braiding,
                        closed=b.closed), rows)
    (i, j) = sorted(b.braiding)[-1]
    braiding = {p: c.copy() for p, c in b.braiding.items()}
    braiding[(i, j)][0, 0] = np.nan
    return (type(b)(labels=b.labels, unit=b.unit, dims=b.dims, dual=b.dual,
                    fusion=b.fusion, conj=b.conj, braiding=braiding,
                    closed=b.closed),
            [("braiding-unitarity", f"({i},{j})")])


@pytest.mark.parametrize("kind", ["fusion", "braiding", "window"])
def test_nan_entry_fails_its_row(shipped_bundles, kind):
    for name in ("suq2-q0.5-L4",) if kind == "window" else ("s3", "pointed-z3-t1"):
        bad, rows = _with_nan_entry(shipped_bundles[name], kind)
        rep = validate_bundle(bad)
        assert not rep.passed, name
        for check, loc in rows:
            row = next(c for c in rep.checks if c.name == check and c.location == loc)
            assert np.isnan(row.residual) and not row.passed, (name, row)


def test_replaced_fusion_gets_its_own_layout(shipped_bundles):
    # validating builds and keeps b's layout; a bundle made from b with other
    # fusion data must be checked against its own isometries only
    b = shipped_bundles["d4"]
    validate_bundle(b)
    (i, j), chans = sorted(b.fusion.items())[-1]
    k = sorted(chans)[0]
    fusion = {p: {kk: [m.copy() for m in vv] for kk, vv in ch.items()}
              for p, ch in b.fusion.items()}
    v = fusion[(i, j)][k][0]
    v[np.unravel_index(np.argmax(np.abs(v)), v.shape)] *= 1 + 1e-4
    replaced = dataclasses.replace(b, fusion=fusion)
    fresh = type(b)(labels=b.labels, unit=b.unit, dims=b.dims, dual=b.dual,
                    fusion=fusion, conj=b.conj, braiding=b.braiding,
                    closed=b.closed)
    assert replaced.layout is not b.layout
    rep = validate_bundle(replaced)
    assert rep.checks == validate_bundle(fresh).checks
    failed = {c.name for c in rep.checks if not c.passed}
    assert {"orthonormality", "completeness"} <= failed, failed


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_parse_rejects_non_finite_entries(shipped_bundles, value):
    # json.loads accepts NaN and Infinity, the parser must not
    text = serialize_bundle(shipped_bundles["z2"])
    for path in (("fusion", 0, "isometries", 0), ("conj", "1", "r")):
        doc = json.loads(text)
        ent = doc
        for key in path:
            ent = ent[key]
        ent["data"][0][0] = value
        with pytest.raises(BundleSyntaxError, match="non-finite"):
            parse_bundle(json.dumps(doc))


def test_twisted_window_fails_recoupling():
    """Every isometry into label 3 of the L=3 window turned by one rotation R
    of H_3.  R mixes two weights, so the grading no longer holds; without
    it, orthonormality, completeness and the conjugate equations still
    hold, but the two bracketings of Delta differ: the F-move certificate
    fails 19 recoupling rows and 1-coassociativity, and nothing else."""
    b = gen_suq2(0.5, 3)
    cos, sin = np.cos(0.3), np.sin(0.3)
    rot = np.eye(4, dtype=complex)
    rot[:2, :2] = [[cos, -sin], [sin, cos]]
    fusion = {p: {k: [v @ rot if k == "3" else v for v in vs] for k, vs in ch.items()}
              for p, ch in b.fusion.items()}
    with pytest.raises(GradingError, match=r"fusion\(0,3->3\)"):
        dataclasses.replace(b, fusion=fusion).layout  # R mixes two weights
    twisted = dataclasses.replace(b, fusion=fusion, weights=None)
    failed = [c for c in validate_bundle(twisted).checks if not c.passed]
    assert {c.name for c in failed} == {"recoupling"} and len(failed) == 19
    rep = verify_axioms(reconstruct(twisted, validate=False))
    assert [c.name for c in rep.failures()] == ["1-coassociativity"]


def test_window_validation_memory():
    # the projection stacks of the former recoupling check peaked at 127 MiB
    b = gen_suq2(0.5, 10)
    tracemalloc.start()
    try:
        assert validate_bundle(b).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_validation_after_the_certificate_holds_the_chunk_budget():
    # with the channel Gram and the F-move certificate built, the rest of
    # validation holds its report and at most CHUNK_BYTES of work beside it
    # (the completeness sums of every whole pair peaked 20 MiB above the
    # report here)
    b = gen_suq2(0.9, 16)
    b.layout.gram, b.layout.fmoves
    tracemalloc.start()
    try:
        rep = validate_bundle(b)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert peak - held <= CHUNK_BYTES, (peak, held)


def test_fmove_chunks_stay_within_the_budget(monkeypatch):
    # a chunk of the certificate holds U, W, G, the rows' places and the
    # index arrays of its items, and a batch of products or of G at most
    # what the chunk leaves, so the peak stays within CHUNK_BYTES of the
    # peak before the first chunk
    _trace_fmove_chunks(monkeypatch, gen_suq2(0.5, 8).layout)


def test_fmove_chunks_stay_within_the_budget_without_weights(monkeypatch):
    # one sector: every block is a whole isometry and the products are dense
    b = gen_suq2(0.5, 8)
    _trace_fmove_chunks(monkeypatch, dataclasses.replace(b, weights=None).layout)


@pytest.mark.parametrize("weights", [True, False])
def test_fmove_product_batches_stay_within_a_small_budget(monkeypatch, weights):
    # with a budget of 640 KiB the walk cuts the path products of a chunk
    # into several batches within what the chunk leaves, some of them inside
    # a shape group; the certificate is bitwise the default one and the peak
    # stays within the budget
    b = gen_suq2(0.5, 8)
    b = b if weights else dataclasses.replace(b, weights=None)
    want = b.layout.fmoves
    budget, split, cut = 640 << 10, [], sectors._bounds

    def bounds(size, held, new):
        out = cut(size, held, new)
        split.append(len(out) - 1 > np.count_nonzero(new))
        return out

    monkeypatch.setattr(linalg, "CHUNK_BYTES", budget)
    monkeypatch.setattr(sectors, "_bounds", bounds)
    got = _trace_fmove_chunks(monkeypatch, dataclasses.replace(b).layout, budget)
    assert any(split)
    for x, y in zip(got[:3], want[:3]):
        assert np.array_equal(x, y)
    assert all(np.array_equal(x, y) for x, y in zip(got[3], want[3]))


def _trace_fmove_chunks(monkeypatch, lay, budget=CHUNK_BYTES):
    # the walk of the quadruples is the one that takes the triples as its key
    before, cut = [], sectors.walk

    def walk(cost, held=0, key=None):
        ranges = cut(cost, held, key)
        if key is not None:
            before.append(tracemalloc.get_traced_memory()[1])
            assert len(ranges) > 1  # the budget binds
        return ranges

    monkeypatch.setattr(sectors, "walk", walk)
    tracemalloc.start()
    try:
        got = lay.fmoves
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before[0] <= budget, (peak, before)
    return got


def test_the_channel_gram_stays_within_a_small_budget(monkeypatch):
    # with a budget of 256 KiB the Gram at q = 0.9, L = 12 runs the items of
    # a pair of shapes in several chunks, each holding its gathered
    # isometries, their products with a masked copy and moduli, and its
    # index arrays, so the peak stays within the budget of the peak before
    # the first chunk; the residuals are bitwise those of the default budget
    b = gen_suq2(0.9, 12)
    want = b.layout.gram
    budget, before, count, cut = 256 << 10, [], [], bundle.walk

    def walk(cost, held=0, key=None):
        ranges = cut(cost, held, key)
        before.append(tracemalloc.get_traced_memory()[1])
        count.append(len(ranges))
        return ranges

    monkeypatch.setattr(linalg, "CHUNK_BYTES", budget)
    monkeypatch.setattr(bundle, "walk", walk)
    lay = dataclasses.replace(b).layout
    tracemalloc.start()
    try:
        got = lay.gram
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(count) > 1  # the budget binds
    assert peak - before[0] <= budget, (peak, before[0])
    assert np.array_equal(got, want)


def test_fmove_with_a_missing_path_reads_one(shipped_bundles):
    """Pointed Z/3 without the channel 1 (x) 1 -> 2: (2,2,1 -> 2) keeps its
    right path 2 (x) 1 -> 0, 2 (x) 0 -> 2 but has no left one, so its
    F-matrix is 1 x 0 and |M M* - I| reads 1."""
    b = shipped_bundles["pointed-z3-t1"]
    fusion = {p: dict(ch) for p, ch in b.fusion.items()}
    del fusion[("1", "1")]["2"]
    rep = validate_bundle(dataclasses.replace(b, fusion=fusion))
    row = next(c for c in rep.checks if c.location == "(2,2,1)->2")
    assert row.name == "recoupling" and row.residual == 1.0 and not row.passed


def _reference_fmoves(b):
    """The F-move work list and certificate, one triple at a time: per
    admissible (i,j,k), the left paths i (x) j -> l, l (x) k -> m and the
    right paths j (x) k -> n, i (x) n -> m by m in label order, each path
    as its (v, w) isometries; per quadruple U, W, G = W* U, M and the
    residual written with np.kron."""
    chans = {p: [(k, v) for k, _ in fusion_support(b, *p) for v in b.isometries(*p, k)]
             for p in ((i, j) for i in b.labels for j in b.labels)}
    out = []
    for i in b.labels:
        for j in b.labels:
            for k in b.labels:
                if not (b.complete(i, j) and b.complete(j, k)):
                    continue
                by_m: dict = {}
                for l, v in chans[(i, j)]:
                    for m, w in chans[(l, k)]:
                        by_m.setdefault(m, ([], []))[0].append(
                            np.kron(v, np.eye(b.d(k))) @ w)
                for n, v in chans[(j, k)]:
                    for m, w in chans[(i, n)]:
                        by_m.setdefault(m, ([], []))[1].append(
                            np.kron(np.eye(b.d(i)), v) @ w)
                for m in sorted(by_m, key=b.labels.index):
                    left, right = by_m[m]
                    dim, dm = b.d(i) * b.d(j) * b.d(k), b.d(m)
                    u = np.hstack(left) if left else np.zeros((dim, 0))
                    w = np.hstack(right) if right else np.zeros((dim, 0))
                    g = w.conj().T @ u
                    f = np.einsum("aibi->ab", g.reshape(len(right), dm, len(left), dm)) / dm
                    res = max(np.max(np.abs(g - np.kron(f, np.eye(dm))), initial=0.0),
                              np.max(np.abs(f.conj().T @ f - np.eye(len(left))), initial=0.0),
                              np.max(np.abs(f @ f.conj().T - np.eye(len(right))), initial=0.0))
                    out.append(((i, j, k, m), f, res))
    return out


def _missing_path_bundle(b):
    fusion = {p: dict(ch) for p, ch in b.fusion.items()}
    del fusion[("1", "1")]["2"]
    return dataclasses.replace(b, fusion=fusion)


@pytest.mark.parametrize("name", ["pointed-z8", "a4", "suq2-l5", "missing-path"])
def test_fmoves_match_a_per_triple_enumeration(shipped_bundles, name):
    from test_report_identity import a4_bundle

    from aqgrec.examples import gen_pointed

    b = {"pointed-z8": lambda: gen_pointed(8, 1),
         "a4": lambda: parse_bundle(a4_bundle()),
         "suq2-l5": lambda: gen_suq2(0.5, 5),
         "missing-path": lambda: _missing_path_bundle(shipped_bundles["pointed-z3-t1"])}[name]()
    want = _reference_fmoves(b)
    triples, quads, res, fmats = b.layout.fmoves
    lab = b.labels
    assert [tuple(lab[n] for n in q) for q in quads.tolist()] == [q for q, _, _ in want]
    assert [tuple(lab[n] for n in t) for t in triples.tolist()] == [
        (i, j, k) for i in lab for j in lab for k in lab
        if b.complete(i, j) and b.complete(j, k)]
    for (q, f, r), got_f, got_r in zip(want, fmats, res):
        assert got_f.shape == f.shape, q
        assert np.max(np.abs(got_f - f), initial=0.0) <= 1e-14, q
        assert abs(got_r - r) <= 1e-14, q
    if name == "missing-path":
        assert max(res) == 1.0


def _stored(entries):
    """The "at" and "data" fields of entries, one entry at a time: an entry
    whose two parts are +0.0 is left out, and "at" is written only when one
    is."""
    pairs = [[float(z.real), float(z.imag)] for z in entries]
    at = [n for n, (re, im) in enumerate(pairs)
          if math.copysign(1.0, re) < 0 or math.copysign(1.0, im) < 0 or re or im]
    if len(at) == len(pairs):
        return {"data": pairs}
    return {"at": at, "data": [pairs[n] for n in at]}


def _per_entry_document(b):
    """Category Bundle v1 as a document, one entry at a time: the form that
    serialize_bundle wrote before it ran through the C JSON encoder."""
    def mat(m):
        m = np.asarray(m, dtype=complex)
        return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), **_stored(m.reshape(-1))}

    def vec(v):
        v = np.asarray(v, dtype=complex).reshape(-1)
        return {"len": int(v.shape[0]), **_stored(v)}

    doc = {
        "version": 1, "labels": list(b.labels), "unit": b.unit,
        "dims": {i: int(b.dims[i]) for i in b.labels},
        **({} if b.weights is None else {"weights": {i: list(b.weights[i]) for i in b.labels}}),
        "dual": {i: b.dual[i] for i in b.labels}, "closed": bool(b.closed),
        "fusion": [{"i": i, "j": j, "k": k, "isometries": [mat(m) for m in mats]}
                   for i in b.labels for j in b.labels for k in b.labels
                   for mats in [b.isometries(i, j, k)] if mats],
        "conj": {i: {"r": vec(b.conj[i][0]), "rbar": vec(b.conj[i][1])} for i in b.labels},
    }
    if b.braiding is not None:
        doc["braiding"] = [{"i": i, "j": j, "c": mat(b.braiding[(i, j)])}
                           for i in b.labels for j in b.labels if (i, j) in b.braiding]
    return doc


def test_serialized_document_is_the_per_entry_one(shipped_bundles):
    # the text, written one matrix at a time, is json.dumps of the whole
    # document, byte for byte
    for name, b in shipped_bundles.items():
        text = serialize_bundle(b)
        assert text == json.dumps(_per_entry_document(b)), name
        b2 = parse_bundle(text)
        for p, chans in b.fusion.items():
            for k, mats in chans.items():
                for m, m2 in zip(mats, b2.fusion[p][k]):
                    assert m.tobytes() == m2.tobytes(), (name, p, k)


_parts = st.one_of(st.sampled_from([0.0, -0.0]),
                   st.floats(allow_nan=False, allow_infinity=False))


@given(st.integers(1, 4), st.integers(1, 4), st.data())
@settings(max_examples=60, deadline=None)
def test_stored_entries_round_trip_bitwise(rows, cols, data):
    """A matrix and a vector with any mask of +0.0 entries, and -0.0 in
    either part, parse back bitwise, with and without the object hook; "at"
    is written exactly when an entry is left out."""
    from aqgrec.bundle import _matrix_text, _parse_matrix, _parse_vector, _vector_text
    from aqgrec.document import _decode_data

    pairs = data.draw(st.lists(st.tuples(_parts, _parts), min_size=rows * cols,
                               max_size=rows * cols))
    m = np.array([complex(re, im) for re, im in pairs]).reshape(rows, cols)
    omitted = any(math.copysign(1.0, re) > 0 and re == 0.0
                  and math.copysign(1.0, im) > 0 and im == 0.0 for re, im in pairs)
    for text, parse, want in ((_matrix_text(m), _parse_matrix, m),
                              (_vector_text(m.reshape(-1)), _parse_vector, m.reshape(-1))):
        assert ('"at"' in text) == omitted, text
        for hook in (_decode_data, None):
            got = parse(json.loads(text, object_hook=hook), "x")
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), text


def _dense_text(text):
    """Bundle text with every matrix and vector written densely."""
    def dense(obj):
        if isinstance(obj, dict):
            if "at" in obj:
                size = obj["len"] if "len" in obj else obj["rows"] * obj["cols"]
                full = [[0.0, 0.0]] * size
                for n, pair in zip(obj.pop("at"), obj["data"]):
                    full[n] = pair
                obj["data"] = full
            for v in obj.values():
                dense(v)
        elif isinstance(obj, list):
            for v in obj:
                dense(v)

    doc = json.loads(text)
    dense(doc)
    return json.dumps(doc)


def _parsed_bytes(b):
    """The bytes of every fusion, conjugate and braiding array of b."""
    arrays = [m for _, chans in sorted(b.fusion.items()) for _, mats in sorted(chans.items())
              for m in mats]
    arrays += [v for _, pair in sorted(b.conj.items()) for v in pair]
    arrays += [c for _, c in sorted((b.braiding or {}).items())]
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


def test_dense_files_parse_and_report_as_their_stored_entries(shipped_bundles, tmp_path):
    """Each shipped bundle, and the (0.5, 8) and (0.9, 12) windows, written
    densely: the same arrays bitwise, and byte-identical validate and check
    reports."""
    from aqgrec.cli import run

    bundles = {**shipped_bundles, "suq2-q0.5-L8": gen_suq2(0.5, 8),
               "suq2-q0.9-L12": gen_suq2(0.9, 12)}
    stored_somewhere = False
    for name, b in bundles.items():
        text = serialize_bundle(b)
        dense = _dense_text(text)
        stored_somewhere |= dense != text
        assert '"at"' not in dense, name
        got = [m.tobytes() for m in _decoded_arrays(dense)]
        assert [m.tobytes() for m in _decoded_arrays(text)] == got, name
        b1, b2 = parse_bundle(text), parse_bundle(dense)
        assert _parsed_bytes(b1) == _parsed_bytes(b2) == _parsed_bytes(b), name
        assert serialize_bundle(b2) == text, name
        reports = []
        for form, body in (("stored", text), ("dense", dense)):
            path = tmp_path / f"{form}.json"
            path.write_text(body)
            for op in ("validate", "check"):
                out = tmp_path / f"{form}.{op}.json"
                assert run([op, str(path), "-o", str(out)]) == 0, (name, form, op)
                reports.append(out.read_bytes())
        assert reports[:2] == reports[2:], name
    assert stored_somewhere


def test_fail_fast_keeps_the_prefix_of_the_full_report(tmp_path):
    """fail_fast on d4-scaled stops right after the first failing row of
    the pinned full report."""
    from pathlib import Path

    from test_report_identity import _jobs

    bad = dict(_jobs(tmp_path))["d4-scaled.validate.json"][1]
    pinned = json.loads((Path(__file__).parent / "data" / "reports"
                         / "d4-scaled.validate.json").read_text())["checks"]
    first = next(n for n, c in enumerate(pinned) if not c["pass"])
    rep = validate_bundle(parse_bundle(Path(bad).read_text()), fail_fast=True)
    assert [(c.name, c.location, c.residual, c.passed) for c in rep.checks] == [
        (c["check"], c["location"], c["residual"], c["pass"]) for c in pinned[:first + 1]]


def test_fail_fast_stops_after_both_rows_of_a_hexagon(shipped_bundles):
    """A braiding turned by a phase stays unitary but breaks naturality:
    fail_fast ends with the left and right row of the first failing item."""
    b = shipped_bundles["pointed-z5-t1"]
    braiding = dict(b.braiding)
    braiding[("2", "3")] = braiding[("2", "3")] * np.exp(0.1j)
    bad = dataclasses.replace(b, braiding=braiding)
    full = validate_bundle(bad).checks
    rep = validate_bundle(bad, fail_fast=True).checks
    assert rep == full[:len(rep)]
    assert [c.name for c in rep[-2:]] == ["braiding-hexagon-left", "braiding-hexagon-right"]
    assert rep[-1].location == rep[-2].location
    assert all(c.passed for c in rep[:-2]) and not (rep[-1].passed and rep[-2].passed)


def _list_decode(data):
    """A "data" field decoded entry by entry from its list, as parse_bundle
    did before it decoded while parsing."""
    return np.array([complex(re, im) for re, im in data], dtype=complex)


def _dense_decode(obj, size):
    """The entries of a matrix or vector object by the list decode, its
    stored entries placed at "at" and 0 elsewhere when it has one."""
    data = _list_decode(obj["data"])
    if "at" not in obj:
        return data
    out = np.zeros(size, dtype=complex)
    out[obj["at"]] = data
    return out


def _decoded_arrays(text):
    """Every matrix and vector of bundle text, in document order, by the
    list decode."""
    doc = json.loads(text)
    out = [_dense_decode(m, m["rows"] * m["cols"]).reshape(m["rows"], m["cols"])
           for ent in doc["fusion"] for m in ent["isometries"]]
    out += [_dense_decode(ent[side], ent[side]["len"]) for ent in doc["conj"].values()
            for side in ("r", "rbar")]
    out += [_dense_decode(ent["c"], ent["c"]["rows"] * ent["c"]["cols"]).reshape(
                ent["c"]["rows"], ent["c"]["cols"])
            for ent in doc.get("braiding") or []]
    return out


def test_parse_decodes_as_the_list_decode(shipped_bundles):
    """Every array parsed through the document stage is bitwise the list
    decode of its entries; the shipped bundles store entries at "at" and
    write -0.0.  The document holds each "data" and "at" as a stdlib array."""
    from array import array

    from aqgrec.document import load_document

    texts = {name: serialize_bundle(b) for name, b in shipped_bundles.items()}
    assert any('"at"' in t for t in texts.values())
    assert any("-0.0" in t for t in texts.values())
    for name, text in texts.items():
        document = load_document(text)
        stored = [m for ent in document.fusion for m in ent["isometries"]]
        stored += [v for ent in document.conj.values() for v in (ent["r"], ent["rbar"])]
        stored += [ent["c"] for ent in document.braiding or []]
        assert all(type(m["data"]) is array and type(m.get("at", array("q"))) is array
                   for m in stored), name
        doc, b2 = json.loads(text), parse_bundle(document)
        got = [m for ent in doc["fusion"]
               for m in b2.isometries(ent["i"], ent["j"], ent["k"])]
        got += [v for i in doc["conj"] for v in b2.conj[i]]
        got += [b2.braiding[(ent["i"], ent["j"])] for ent in doc.get("braiding") or []]
        want = _decoded_arrays(text)
        assert len(got) == len(want), name
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape, name
            assert g.tobytes() == w.tobytes(), name


def _edited(text, at, change):
    """text with change applied to the "data" list at path at, and that list."""
    doc = json.loads(text)
    ent = doc
    for key in at:
        ent = ent[key]
    change(ent["data"])
    return json.dumps(doc), ent["data"]


def _entry_error(data):
    """The message of the list decode's error on data."""
    with pytest.raises((TypeError, ValueError, OverflowError)) as exc:
        _list_decode(data)
    return str(exc.value)


@pytest.mark.parametrize("label", ["1", "data"])
def test_parse_errors_keep_their_messages(shipped_bundles, label):
    # a label named "data" keys dims, dual and conj objects, none a matrix
    text = serialize_bundle(shipped_bundles["pointed-z3-t1"]).replace('"1"', f'"{label}"')
    b = parse_bundle(text)
    assert label in b.labels
    got = [m for ent in json.loads(text)["fusion"]
           for m in b.isometries(ent["i"], ent["j"], ent["k"])]
    assert [m.tobytes() for m in got] == [m.tobytes() for m in _decoded_arrays(text)[:len(got)]]
    n = next(n for n, e in enumerate(json.loads(text)["fusion"]) if e["i"] == e["j"] == label)
    for at, kind, where, shape in (
        (("fusion", n, "isometries", 0), "matrix", f"fusion({label},{label}->2)", "1x1"),
        (("conj", label, "r"), "vector", f"conj({label}).r", "len 1"),
    ):
        cases = [
            (_edited(text, at, lambda d: d.__setitem__(0, ["1.0", 0.0])), BundleSyntaxError,
             "bad {kind} entry at {where}: {error}"),
            (_edited(text, at, lambda d: d.__setitem__(0, [1.0, 0.0, 0.0])), BundleSyntaxError,
             "bad {kind} entry at {where}: {error}"),
            (_edited(text, at, lambda d: d.__setitem__(0, [1, 2, 3])), BundleSyntaxError,
             "bad {kind} entry at {where}: {error}"),
            (_edited(text, at, lambda d: d.__setitem__(0, "ab")), BundleSyntaxError,
             "bad {kind} entry at {where}: {error}"),
            (_edited(text, at, lambda d: d.__setitem__(0, {"a": 1, "b": 2})), BundleSyntaxError,
             "bad {kind} entry at {where}: {error}"),
            (_edited(text, at, lambda d: d.__setitem__(0, True)), BundleSyntaxError,
             "bad {kind} entry at {where}: {error}"),
            (_edited(text, at, lambda d: d.__setitem__(0, [2 ** 1024, 0.0])), BundleSyntaxError,
             "bad {kind} entry at {where}: {error}"),
            (_edited(text, at, lambda d: d.append([0.0, 0.0])), ShapeError,
             "{kind} at {where}: 2 entries for {shape}"),
            (_edited(text, at, lambda d: d.__setitem__(0, [float("nan"), 0.0])),
             BundleSyntaxError, "non-finite entry at {nonfinite}"),
        ]
        for (bad, data), error, message in cases:
            with pytest.raises(error) as exc:
                parse_bundle(bad)
            assert str(exc.value) == message.format(
                kind=kind, where=where, shape=shape, nonfinite=where.split(".")[0],
                error=_entry_error(data) if "{error}" in message else "")


# ---------------------------------------------------------------------------
# weight gradings


@pytest.mark.parametrize("q", [0.5, 0.9])
def test_sector_certificate_matches_one_sector(q):
    """The F-move certificate of the graded L=8 window, one weight of H_m at
    a time, against that of the same bundle without its grading: the same
    quadruples, F within 1e-14 and residuals within 1e-15."""
    b = gen_suq2(q, 8)
    assert b.weights is not None
    triples, quads, res, fmats = b.layout.fmoves
    one = dataclasses.replace(b, weights=None).layout.fmoves
    assert np.array_equal(triples, one[0]) and np.array_equal(quads, one[1])
    assert np.max(np.abs(res - one[2])) <= 1e-15
    for f, g in zip(fmats, one[3]):
        assert f.shape == g.shape and np.max(np.abs(f - g), initial=0.0) <= 1e-14


def test_the_grading_is_certified_when_the_layout_is_built():
    # in process too: an off-sector isometry or r entry, and weights of the
    # wrong length or type, raise when the layout is built
    b = gen_suq2(0.5, 3)
    v = b.fusion[("1", "1")]["0"][0].copy()
    v[0, 0] = 1e-3  # e_1 (x) e_1 has weight 2, e_0 weight 0
    fusion = {**b.fusion, ("1", "1"): {**b.fusion[("1", "1")], "0": [v]}}
    with pytest.raises(GradingError, match=r"fusion\(1,1->0\): entry \(0, 0\)"):
        dataclasses.replace(b, fusion=fusion).layout
    r, rbar = b.conj["2"]
    r = r.copy()
    r[0] = 1e-3  # e_2 (x) e_2 has weight 4
    with pytest.raises(GradingError, match=r"conj\(2\)\.r: entry 0"):
        dataclasses.replace(b, conj={**b.conj, "2": (r, rbar)}).layout
    with pytest.raises(ShapeError, match="weights of '2'"):
        dataclasses.replace(b, weights={**b.weights, "2": [2, 0]}).layout
    with pytest.raises(BundleSyntaxError, match="weights of '1'"):
        dataclasses.replace(b, weights={**b.weights, "1": [1.5, -1]}).layout
    assert dataclasses.replace(b, fusion=fusion, weights=None).layout


def test_a_channel_defect_fails_the_sector_certificate(suq2_bundles):
    """One channel of the graded L=4 window scaled by 1+1e-6 stays on its
    sectors, and the certificate by weight sectors fails recoupling and
    1-coassociativity."""
    from test_aqg import scaled_channel

    b = scaled_channel(suq2_bundles["suq2-q0.5-L4"], "1", "2", "3")
    assert b.weights is not None
    assert "recoupling" in {c.name for c in validate_bundle(b).checks if not c.passed}
    failed = {c.name for c in verify_axioms(reconstruct(b, validate=False)).checks
              if not c.passed}
    assert "1-coassociativity" in failed, failed
