"""The skeletal category of a bundle: objects decomposed into irreducible
labels by the bundle's fusion isometries, morphisms as intertwiners of the
coproduct actions, natural transformations as elements of A."""
import dataclasses

import numpy as np
import pytest

from aqgrec.aqg import reconstruct, verify_axioms
from aqgrec.braid import braiding_to_r, verify_quasitriangular
from aqgrec.bundle import validate_bundle
from aqgrec.examples import gen_suq2
from aqgrec.linalg import dagger, residual, worst
from test_aqg import AqgElement, delta, fusion_support, random_element
from test_rep import action, hom


def completeness_residual(parts, n):
    """max |sum s s* - I| over the isometries (label, s) into C^n."""
    return residual(sum((s @ dagger(s) for _, s in parts), np.zeros((n, n), dtype=complex)),
                    np.eye(n))


def decomposition_residual(parts, n):
    """Max residual of joint orthonormality and completeness of the
    isometries (label, s) into C^n."""
    res = [completeness_residual(parts, n)]
    for a, (i, s) in enumerate(parts):
        for j, t in parts[a:]:
            g = dagger(s) @ t
            res.append(residual(g, np.eye(s.shape[1]) if t is s else np.zeros_like(g)))
    return worst(*res)


def tensor_parts(b, i, j):
    """The decomposition of i (x) j: (k, v) over the fusion channels."""
    return [(k, v) for k, _ in fusion_support(b, i, j) for v in b.isometries(i, j, k)]


def test_irreducible_decomp_is_orthonormal(shipped_bundles):
    # i (x) 1 is the irreducible i: one channel, a unitary isometry
    for b in shipped_bundles.values():
        for i in b.labels:
            parts = tensor_parts(b, i, b.unit)
            assert [k for k, _ in parts] == [i]
            assert decomposition_residual(parts, b.d(i)) < 1e-12


def test_nan_part_makes_check_nan(shipped_bundles):
    b = shipped_bundles["s3"]
    i = j = b.labels[-1]
    k = b.labels[0]
    v = b.isometries(i, j, k)[0].copy()
    v[0, 0] = np.nan
    fusion = dict(b.fusion)
    fusion[(i, j)] = {**b.fusion[(i, j)], k: [v]}
    bad = dataclasses.replace(b, fusion=fusion)
    rep = validate_bundle(bad)
    assert not rep.passed
    assert np.isnan(rep.max_residual)
    # the rows that read the channel Gram
    q = reconstruct(bad, validate=False)
    for row in (next(c for c in verify_axioms(q).checks if c.name == "8-delta-homomorphism"),
                next(c for c in verify_quasitriangular(q, braiding_to_r(q)).checks
                     if c.name == "comult-flip")):
        assert np.isnan(row.residual) and not row.passed, row


def noisy(b, scale, rng):
    """b with Gaussian noise of the given scale on every nonzero isometry
    entry, which keeps a grading."""
    fusion = {p: {k: [v + scale * rng.standard_normal(v.shape) * (v != 0) for v in vs]
                  for k, vs in chans.items()} for p, chans in b.fusion.items()}
    return dataclasses.replace(b, fusion=fusion)


@pytest.mark.parametrize("noise", [0.0, 1e-7, 1e-4])
@pytest.mark.parametrize("window", ["suq2-q1.0-L4", "suq2-q0.5-L4", (0.5, 6), (0.9, 8)])
def test_completeness_row_is_sum_v_v_star_within_a_dimension_factor(shipped_bundles, window,
                                                                     noise):
    # on a whole pair V (its channels side by side) is square, so V V* - I
    # and V* V - I have the same spectral norm, and their largest entries
    # lie within a factor n = d_i d_j of each other: the row, which reads
    # the worst channel Gram entry of the pair, against max |sum v v* - I|,
    # with roundoff of n ulps on either side
    b = shipped_bundles[window] if isinstance(window, str) else gen_suq2(*window)
    b = noisy(b, noise, np.random.default_rng(6)) if noise else b
    rows = {c.location: c.residual for c in validate_bundle(b).checks if c.name == "completeness"}
    eps = np.finfo(float).eps
    for i in b.labels:
        for j in b.labels:
            if b.complete(i, j):
                n = b.d(i) * b.d(j)
                row, want = rows[f"({i},{j})"], completeness_residual(tensor_parts(b, i, j), n)
                assert want <= n * (row + n * eps) and row <= n * (want + n * eps), (i, j, row, want)
                if noise:
                    assert row > noise / 10, (i, j, row)


def test_tensor_decomp_complete_and_matches_fusion(shipped_bundles):
    for name, b in shipped_bundles.items():
        rows = validate_bundle(b).checks
        for i in b.labels:
            for j in b.labels:
                if not b.complete(i, j):
                    continue
                parts = tensor_parts(b, i, j)
                assert decomposition_residual(parts, b.d(i) * b.d(j)) < 1e-10, (name, i, j)
                for k in b.labels:
                    assert [m for m, _ in parts].count(k) == len(b.isometries(i, j, k))
        assert all(c.passed for c in rows
                   if c.name in ("orthonormality", "completeness")), name


def test_tensor_decomp_raises_outside_window(shipped_bundles):
    # the top label of a window fuses into labels outside it: the loaded
    # channels of top (x) top miss part of the space, and Delta(1) restricted
    # to the pair is a proper projection
    b = shipped_bundles["suq2-q0.5-L4"]
    top = b.labels[-1]
    assert not b.complete(top, top)
    q = reconstruct(b)
    one = AqgElement({i: np.eye(q.d(i), dtype=complex) for i in q.labels})
    p = action(q, (top, top), one)
    loaded = sum(len(b.isometries(top, top, k)) * b.d(k) for k in b.labels)
    assert residual(p @ p, p) < 1e-12
    assert round(np.trace(p).real) == loaded < b.d(top) ** 2


def test_triple_tensor_multiplicities_are_associative(shipped_bundles):
    b = shipped_bundles["s3"]
    for i in b.labels:
        for j in b.labels:
            for k in b.labels:
                for m in b.labels:
                    left = sum(len(b.isometries(i, j, l)) * len(b.isometries(l, k, m))
                               for l in b.labels)
                    right = sum(len(b.isometries(j, k, n)) * len(b.isometries(i, n, m))
                                for n in b.labels)
                    assert left == right, (i, j, k, m)


def test_hom_decomps_dimension_equals_fusion_multiplicity(shipped_aqgs):
    for name in ("s3", "q8", "suq2-q0.5-L4"):
        q = shipped_aqgs[name]
        b = q.bundle
        for i in b.labels:
            for j in b.labels:
                if not b.complete(i, j):
                    continue
                for k in b.labels:
                    assert len(hom(q, k, (i, j))) == len(b.isometries(i, j, k)), (name, i, j, k)


def test_hom_decomps_basis_is_orthonormal(shipped_aqgs):
    q = shipped_aqgs["suq2-q1.0-L4"]
    basis = hom(q, ("1", "1"), ("1", "1"))
    # End(1 (x) 1) = End(0) + End(2)
    assert len(basis) == 2
    for a, u in enumerate(basis):
        for c, v in enumerate(basis):
            ip = np.trace(u.conj().T @ v)
            assert abs(ip - (1.0 if a == c else 0.0)) < 1e-10


def test_nat_component_independent_of_decomposition(s3_aqg, rng):
    q = s3_aqg
    b = q.bundle
    a = random_element(q, rng)
    two = [i for i in b.labels if b.d(i) == 2][0]
    x = delta(q, a, [(two, two)])[(two, two)]
    # the component of a on 2 (x) 2 is sum v a_k v* for any decomposition
    # into irreducibles: rotate the channels within End(2 (x) 2)
    parts = tensor_parts(b, two, two)
    u = sum(np.exp(1j * t) * v @ dagger(v) for t, (_, v) in zip((0.3, 1.1, 2.5), parts))
    rotated = [(k, u @ v) for k, v in parts]
    nat = sum(v @ a.blocks[k] @ dagger(v) for k, v in rotated)
    assert residual(nat, x) < 1e-12
    # intertwining with every Hom(X, X) morphism characterizes naturality
    for t in hom(q, (two, two), (two, two)):
        assert np.max(np.abs(t @ x - x @ t)) < 1e-9
