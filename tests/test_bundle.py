import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from aqgrec.aqg import reconstruct, verify_axioms
from aqgrec.bundle import (
    BundleSyntaxError,
    ShapeError,
    parse_bundle,
    serialize_bundle,
    validate_bundle,
)
from aqgrec.examples import gen_suq2


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
    sup = b.support(two, two)
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
    """Copy of b whose first loaded fusion isometry (or braiding block) has a
    NaN in its (0,0) entry, and that entry's report location."""
    if kind == "fusion":
        (i, j), chans = sorted(b.fusion.items())[0]
        k = sorted(chans)[0]
        fusion = {p: {kk: [m.copy() for m in vv] for kk, vv in ch.items()}
                  for p, ch in b.fusion.items()}
        fusion[(i, j)][k][0][0, 0] = np.nan
        return (type(b)(labels=b.labels, unit=b.unit, dims=b.dims, dual=b.dual,
                        fusion=fusion, conj=b.conj, braiding=b.braiding,
                        closed=b.closed),
                "orthonormality", f"({i},{j})->{k}")
    (i, j) = sorted(b.braiding)[-1]
    braiding = {p: c.copy() for p, c in b.braiding.items()}
    braiding[(i, j)][0, 0] = np.nan
    return (type(b)(labels=b.labels, unit=b.unit, dims=b.dims, dual=b.dual,
                    fusion=b.fusion, conj=b.conj, braiding=braiding,
                    closed=b.closed),
            "braiding-unitarity", f"({i},{j})")


@pytest.mark.parametrize("kind", ["fusion", "braiding"])
def test_nan_entry_fails_its_row(shipped_bundles, kind):
    for name in ("s3", "pointed-z3-t1"):
        bad, check, loc = _with_nan_entry(shipped_bundles[name], kind)
        rep = validate_bundle(bad)
        assert not rep.passed, name
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
    of H_3.  Orthonormality, completeness and the conjugate equations still
    hold, but the two bracketings of Delta differ: the F-move certificate
    fails 19 recoupling rows and 1-coassociativity, and nothing else."""
    b = gen_suq2(0.5, 3)
    cos, sin = np.cos(0.3), np.sin(0.3)
    rot = np.eye(4, dtype=complex)
    rot[:2, :2] = [[cos, -sin], [sin, cos]]
    fusion = {p: {k: [v @ rot if k == "3" else v for v in vs] for k, vs in ch.items()}
              for p, ch in b.fusion.items()}
    twisted = dataclasses.replace(b, fusion=fusion)
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
    chans = {p: [(k, v) for k, _ in b.support(*p) for v in b.isometries(*p, k)]
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


def _per_entry_document(b):
    """Category Bundle v1 as a document, one entry at a time: the form that
    serialize_bundle wrote before it ran through the C JSON encoder."""
    def mat(m):
        m = np.asarray(m, dtype=complex)
        return {"rows": int(m.shape[0]), "cols": int(m.shape[1]),
                "data": [[float(z.real), float(z.imag)] for z in m.reshape(-1)]}

    def vec(v):
        v = np.asarray(v, dtype=complex).reshape(-1)
        return {"len": int(v.shape[0]), "data": [[float(z.real), float(z.imag)] for z in v]}

    doc = {
        "version": 1, "labels": list(b.labels), "unit": b.unit,
        "dims": {i: int(b.dims[i]) for i in b.labels},
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
    for name, b in shipped_bundles.items():
        text = serialize_bundle(b)
        assert json.loads(text) == _per_entry_document(b), name
        b2 = parse_bundle(text)
        for p, chans in b.fusion.items():
            for k, mats in chans.items():
                for m, m2 in zip(mats, b2.fusion[p][k]):
                    assert m.tobytes() == m2.tobytes(), (name, p, k)


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


def _decoded_arrays(text):
    """Every matrix and vector of bundle text, in document order, by the
    list decode."""
    doc = json.loads(text)
    out = [_list_decode(m["data"]).reshape(m["rows"], m["cols"])
           for ent in doc["fusion"] for m in ent["isometries"]]
    out += [_list_decode(ent[side]["data"]) for ent in doc["conj"].values()
            for side in ("r", "rbar")]
    out += [_list_decode(ent["c"]["data"]).reshape(ent["c"]["rows"], ent["c"]["cols"])
            for ent in doc.get("braiding") or []]
    return out


def test_parse_decodes_as_the_list_decode(shipped_bundles):
    for name, b in shipped_bundles.items():
        text = serialize_bundle(b)
        doc, b2 = json.loads(text), parse_bundle(text)
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
    with pytest.raises((TypeError, ValueError)) as exc:
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
