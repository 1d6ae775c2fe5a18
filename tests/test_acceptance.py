"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single pass line on
success (pytest reports the fail line otherwise).
"""
import dataclasses
import json
import time

import numpy as np
import pytest

from aqgrec.aqg import (
    InvalidBundle,
    reconstruct,
    verify_axioms,
)
from aqgrec.braid import braiding_to_r, triangularity, verify_quasitriangular
from aqgrec.bundle import parse_bundle, serialize_bundle, validate_bundle
from aqgrec.cli import run
from aqgrec.dual import (
    dual_hopf,
    table_from_aqg,
    dual_table,
    universal_corep,
    verify_universal,
)
from aqgrec.errors import GradingError
from aqgrec.examples import builtin_group, gen_finite_group
from aqgrec.group import cocommutative_check, grouplikes
from aqgrec.linalg import flip, residual, solve_intertwiners
from test_aqg import (AqgElement, antipode, delta, element_residual, f_blocks,
                      fusion_support, matrix_unit, random_element)
from test_braid import r_block
from test_dual import (
    corep_from_rep,
    pontryagin_check,
    regular_rep,
    rep_from_corep,
    tensor_corep,
    universal_identities,
)
from test_group import tables_isomorphic

GROUPS = ["z2", "z5", "s3", "d4", "q8"]


def _ok(n, msg):
    print(f"criterion {n}: PASS — {msg}")


def test_criterion_1_group_recovery():
    for name in GROUPS:
        t0 = time.monotonic()
        p = builtin_group(name)
        q = reconstruct(gen_finite_group(p))
        group, _, _, rep = grouplikes(q)
        elapsed = time.monotonic() - t0
        assert rep.passed, (name, rep.failures())
        assert group.order == p.order, name
        assert tables_isomorphic(
            group.table, group.identity, np.array(p.table), p.identity()
        ) is not None, name
        assert elapsed < 10.0, (name, elapsed)
    _ok(1, "intrinsic group isomorphic to Z/2, Z/5, S3, D4, Q8, each < 10 s")


def test_criterion_2_hopf_axiom_suite(shipped_aqgs):
    t0 = time.monotonic()
    for name, q in shipped_aqgs.items():
        rep = verify_axioms(q)
        assert rep.passed, f"{name}: {rep.failures()}"
        assert rep.max_residual < 1e-8, (name, rep.max_residual)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, elapsed
    _ok(2, f"8 axiom groups < 1e-8 on all 10 bundles in {elapsed:.1f} s")


def test_criterion_3_f_element(shipped_aqgs):
    q = shipped_aqgs["suq2-q0.5-L4"]
    spin_half = "1"
    tf = float(np.trace(q.F[spin_half]).real)
    tfinv = float(np.trace(q.Finv[spin_half]).real)
    assert abs(tf - 2.5) < 1e-8 and abs(tfinv - 2.5) < 1e-8
    rng = np.random.default_rng(42)
    a = random_element(q, rng)
    s2 = antipode(q, antipode(q, a))
    adf = AqgElement({i: q.F[i] @ a.blocks[i] @ q.Finv[i] for i in a.support})
    assert element_residual(q, s2, adf) < 1e-8
    # S(f) = f^{-1}, blockwise on the restricted multiplier
    f_el = AqgElement({i: np.asarray(q.F[i], dtype=complex) for i in q.labels})
    sf = antipode(q, f_el)
    worst = max(residual(sf.blocks[i], q.Finv[i]) for i in q.labels)
    assert worst < 1e-8
    for name in GROUPS:
        g = shipped_aqgs[name]
        for i in g.labels:
            assert residual(g.F[i], np.eye(g.d(i))) < 1e-10, (name, i)
    _ok(3, "Tr F_{1/2} = 2.5, S^2 = Ad f, S(f) = f^-1; group bundles F = I")


def test_criterion_4_quantum_dimensions(shipped_aqgs):
    q = shipped_aqgs["suq2-q0.5-L4"]
    for n, want in enumerate((1.0, 2.5, 5.25, 10.625)):
        assert abs(np.trace(q.F[str(n)]).real - want) < 1e-8
    rng = np.random.default_rng(42)
    pool = []
    for name, qq in shipped_aqgs.items():
        for i in qq.labels:
            for j in qq.labels:
                if qq.bundle.complete(i, j):
                    pool.append((qq, i, j))
    for idx in rng.choice(len(pool), size=20, replace=False):
        qq, i, j = pool[idx]
        # the dimension of pi_i x pi_j is Tr (pi_i x pi_j)(f) = Tr Delta(f)_ij
        prod = np.trace(delta(qq, f_blocks(qq), [(i, j)])[(i, j)]).real
        sep = np.trace(qq.F[i]).real * np.trace(qq.F[j]).real
        assert abs(prod - sep) < 1e-8, (i, j)
    _ok(4, "d(spin n/2) = (1, 2.5, 5.25, 10.625); multiplicative on 20 pairs")


def hom_dim(q, i, j, k):
    """dim Hom(pi_k, pi_i x pi_j), solved on the matrix units E of k and of
    the labels m in i (x) j: T pi_k(E) = Delta(E)_ij T, where pi_k(E) is E
    on label k and 0 elsewhere."""
    src, dst = {}, {}
    for m in dict.fromkeys([k] + [m for m, _ in fusion_support(q.bundle, i, j)]):
        d = q.d(m)
        for p in range(d):
            for s in range(d):
                e = matrix_unit(d, p, s)
                src[(m, p, s)] = e if m == k else np.zeros((q.d(k),) * 2, dtype=complex)
                dst[(m, p, s)] = delta(q, AqgElement({m: e}), [(i, j)])[(i, j)]
    return len(solve_intertwiners(src, dst))


def test_criterion_5_fusion_equivalence(shipped_aqgs, s3_aqg):
    triples = [(name, i, j, k) for name, q in shipped_aqgs.items()
               for i in q.labels for j in q.labels if q.bundle.complete(i, j)
               for k in q.labels]
    rng = np.random.default_rng(42)
    for t in rng.choice(len(triples), size=150, replace=False):
        name, i, j, k = triples[t]
        q = shipped_aqgs[name]
        assert hom_dim(q, i, j, k) == len(q.bundle.isometries(i, j, k)), (name, i, j, k)
    # turning the 2 (x) 2 -> 1 isometry of S3 towards 2 (x) 2 -> 1' leaves N
    # as it was, but neither channel is then an intertwiner
    b = s3_aqg.bundle
    chans = b.fusion[("2", "2")]
    fusion = dict(b.fusion)
    fusion[("2", "2")] = {**chans, "0": [np.cos(0.3) * chans["0"][0] + np.sin(0.3) * chans["1"][0]]}
    bad = reconstruct(dataclasses.replace(b, fusion=fusion), validate=False)
    assert [hom_dim(bad, "2", "2", k) for k in ("0", "1")] == [0, 0]
    _ok(5, "dim Hom(pi_k, pi_i x pi_j) = N_ij^k on 150 seeded loaded triples")


def test_criterion_6_duality(closed_aqgs):
    rng = np.random.default_rng(42)
    for name, q in closed_aqgs.items():
        T = table_from_aqg(q)
        Td = dual_table(T)
        _, rep = pontryagin_check(T, Td)
        assert rep.passed, f"{name}: {rep.failures()}"
        assert rep.max_residual < 1e-8, name
        for _ in range(20):
            c = rng.standard_normal(T.dim) + 1j * rng.standard_normal(T.dim)
            lhs = Td.haar_of(Td.product(Td.star_of(c), c))
            rhs = T.haar_of(T.product(T.star_of(c), c))
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs)), name
    _ok(6, "double dual < 1e-8 and Parseval < 1e-10 on 20 elements per bundle")


def test_criterion_7_universal_corep(closed_aqgs):
    for name, q in closed_aqgs.items():
        T, Td, drep = dual_hopf(q)
        assert drep.passed, name
        U = universal_corep(T)
        rep = verify_universal(U, T, Td)
        assert rep.passed, f"{name}: {rep.failures()}"
        assert rep.max_residual < 1e-8, name
        assert max(universal_identities(U, T, Td).values()) < 1e-8, name
        # the regular corepresentation V = (iota (x) lambda)U: (iota (x)
        # pi_V)U = V, and pi_{V x V} = (pi_V (x) pi_V) Delta-hat
        V = corep_from_rep(U, regular_rep(Td))
        mats = rep_from_corep(T, V)
        assert residual(corep_from_rep(U, mats), V) < 1e-8, name
        n = mats.shape[1]
        want = np.einsum("uab,axy,bzw->uxzyw", Td.comult, mats, mats,
                         optimize=True).reshape(T.dim, n * n, n * n)
        assert residual(rep_from_corep(T, tensor_corep(T, V, V)), want) < 1e-8, name
    _ok(7, "unitarity, five defining identities, V roundtrip, tensor compatibility < 1e-8")


def test_criterion_8_r_matrices(shipped_aqgs):
    for n, tri_want in ((2, True), (3, False), (5, False)):
        q = shipped_aqgs[f"pointed-z{n}-t1"]
        R = braiding_to_r(q)
        rep = verify_quasitriangular(q, R)
        assert rep.passed, f"z{n}: {rep.failures()}"
        assert rep.max_residual < 1e-10, n
        tri, _ = triangularity(q, R)
        assert tri == tri_want, n
        worst = max(
            residual(flip(q.d(i), q.d(j)) @ r_block(R, i, j), c)
            for (i, j), c in q.bundle.braiding.items()
        )
        assert worst < 1e-12, n
    q = shipped_aqgs["s3"]
    R = braiding_to_r(q)
    assert max(
        residual(r_block(R, i, j), np.eye(q.d(i) * q.d(j))) for i, j in q.bundle.braiding
    ) < 1e-12
    group, T, _, grep = grouplikes(q)
    flag, _ = cocommutative_check(q, T, group, grep)
    assert flag
    _ok(8, "pointed YBE suite, triangular iff n=2, exact roundtrip, S3 flip")


def _corrupt(doc, rng):
    """Add +-1e-3 to one random float scalar of a serialized bundle."""
    slots = []
    for ent in doc["fusion"]:
        for m in ent["isometries"]:
            for pair in m["data"]:
                slots.append(pair)
    for c in doc["conj"].values():
        for vec in (c["r"], c["rbar"]):
            for pair in vec["data"]:
                slots.append(pair)
    for ent in doc.get("braiding", []):
        for pair in ent["c"]["data"]:
            slots.append(pair)
    pair = slots[rng.integers(len(slots))]
    comp = int(rng.integers(2))
    pair[comp] += 1e-3 if rng.integers(2) else -1e-3


def test_criterion_9_negative_controls(shipped_bundles):
    rng = np.random.default_rng(1234)
    for name, b in shipped_bundles.items():
        text = serialize_bundle(b)
        for trial in range(100):
            doc = json.loads(text)
            _corrupt(doc, rng)
            try:
                bad = parse_bundle(json.dumps(doc))
            except GradingError:
                continue  # off its weight sector: parsing rejects it
            vrep = validate_bundle(bad, fail_fast=True)
            if vrep.passed:
                # validation missed it; the axiom suite must not
                try:
                    q = reconstruct(bad, validate=False)
                    arep = verify_axioms(q, n_samples=4)
                    assert not arep.passed, (name, trial)
                except (InvalidBundle, ValueError):
                    pass
    _ok(9, "100 seeded 1e-3 corruptions per bundle each fail a check")


def test_criterion_10_determinism(tmp_path):
    for fam, extra in (("s3", []), ("suq2", ["--q", "0.5", "--L", "4"])):
        bpath = tmp_path / f"{fam}.json"
        assert run(["gen", fam, *extra, "-o", str(bpath)]) == 0
        outs = []
        for k in range(2):
            opath = tmp_path / f"{fam}-{k}.json"
            assert run(["check", str(bpath), "-o", str(opath)]) == 0
            outs.append(opath.read_bytes())
        assert outs[0] == outs[1], fam
    _ok(10, "repeated check runs are byte-identical")
