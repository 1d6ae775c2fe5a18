import numpy as np
import pytest

from aqgrec.aqg import NotFinite
from aqgrec.dual import (
    Corep,
    conjugate_corep_check,
    corep_check,
    dual_hopf,
    dual_table,
    element_to_vec,
    fourier,
    inverse_fourier,
    pontryagin_check,
    regular_corep,
    rep_of_dual_check,
    roundtrip_check,
    table_from_aqg,
    tensor_compat_check,
    tensor_corep,
    trivial_corep,
    universal_corep,
    vec_to_element,
    verify_table,
    verify_universal,
)
from aqgrec.linalg import residual


def test_primal_table_satisfies_hopf_axioms(closed_aqgs):
    for name, q in closed_aqgs.items():
        T = table_from_aqg(q)
        rep = verify_table(T)
        assert rep.passed, f"{name}: {rep.failures()}"


def test_dual_hopf_verifies(closed_aqgs):
    for name, q in closed_aqgs.items():
        _, _, rep = dual_hopf(q)
        assert rep.passed, f"{name}: {rep.failures()}"
        assert rep.max_residual < 1e-8


def test_dual_requires_closed_bundle(suq2_half):
    with pytest.raises(NotFinite):
        dual_hopf(suq2_half)
    with pytest.raises(NotFinite):
        fourier(suq2_half, suq2_half.identity_element())
    with pytest.raises(NotFinite):
        pontryagin_check(suq2_half)


def test_commutativity_swaps_with_cocommutativity(closed_aqgs):
    # nonabelian group: the algebra is noncommutative but cocommutative,
    # while its dual (functions on the group) is commutative
    T = table_from_aqg(closed_aqgs["s3"])
    Td = dual_table(T)
    assert not T.commutative()[0] and T.cocommutative()[0]
    assert Td.commutative()[0] and not Td.cocommutative()[0]
    # abelian case: everything on both sides
    T = table_from_aqg(closed_aqgs["z5"])
    Td = dual_table(T)
    assert T.commutative()[0] and T.cocommutative()[0]
    assert Td.commutative()[0] and Td.cocommutative()[0]


def test_double_dual_table_matches_primal_dimension(closed_aqgs):
    q = closed_aqgs["q8"]
    T = table_from_aqg(q)
    Tdd = dual_table(dual_table(T))
    assert Tdd.dim == T.dim


def test_fourier_roundtrip(closed_aqgs, rng):
    for name in ("z2", "s3", "pointed-z5-t1"):
        q = closed_aqgs[name]
        T = table_from_aqg(q)
        total = q.total_dim()
        a = q.random_element(rng)
        omega = fourier(q, a)
        values = np.array(
            [omega(q, vec_to_element(q, np.eye(total)[v])) for v in range(total)]
        )
        back = inverse_fourier(q, values, T)
        assert (back - a).norm() < 1e-10, name


def test_vec_element_roundtrip(closed_aqgs, rng):
    q = closed_aqgs["d4"]
    total = q.total_dim()
    v = rng.standard_normal(total) + 1j * rng.standard_normal(total)
    assert residual(element_to_vec(q, vec_to_element(q, v)), v) == 0.0


def test_universal_corep_properties(closed_aqgs):
    for name in ("z2", "s3", "pointed-z3-t1", "q8"):
        q = closed_aqgs[name]
        T, Td, _ = dual_hopf(q)
        U = universal_corep(T)
        rep = verify_universal(q, U, T, Td)
        assert rep.passed, f"{name}: {rep.failures()}"
        assert rep.max_residual < 1e-8


def test_defining_identity_detects_a_perturbed_entry(closed_aqgs):
    for name in ("z2", "s3", "pointed-z3-t1"):
        q = closed_aqgs[name]
        T, Td, _ = dual_hopf(q)
        U = universal_corep(T)
        U[1, 0] += 1e-6
        rows = {c.name: c for c in verify_universal(q, U, T, Td).checks}
        assert not rows["defining-identity"].passed, name


def test_regular_corep_is_unitary_corep(closed_aqgs):
    for name in ("s3", "q8", "pointed-z3-t1"):
        q = closed_aqgs[name]
        T, Td, _ = dual_hopf(q)
        U = universal_corep(T)
        V = regular_corep(q, U, T, Td)
        assert corep_check(q, V).passed, name
        assert rep_of_dual_check(q, V, T, Td).passed, name
        assert roundtrip_check(q, V, U, T) < 1e-8, name


def test_trivial_and_tensor_coreps(closed_aqgs):
    q = closed_aqgs["s3"]
    T, Td, _ = dual_hopf(q)
    U = universal_corep(T)
    V = regular_corep(q, U, T, Td)
    E = trivial_corep(q)
    assert corep_check(q, E).passed
    VW = tensor_corep(q, V, E)
    assert corep_check(q, VW).passed
    for i in q.labels:
        assert residual(VW.blocks[i], V.blocks[i]) < 1e-12
    assert tensor_compat_check(q, V, V, T, Td) < 1e-8


def test_nan_entry_fails_corep_check(closed_aqgs):
    q = closed_aqgs["s3"]
    V = trivial_corep(q)
    blocks = {i: m.copy() for i, m in V.blocks.items()}
    blocks[q.labels[-1]][0, 0] = np.nan
    rep = corep_check(q, Corep(V.space_dim, blocks))
    assert not rep.passed
    assert np.isnan(rep.max_residual)


def test_conjugate_corep(closed_aqgs):
    for name in ("z5", "s3"):
        q = closed_aqgs[name]
        T, Td, _ = dual_hopf(q)
        U = universal_corep(T)
        V = regular_corep(q, U, T, Td)
        rep = conjugate_corep_check(q, V, T, Td)
        assert rep.passed, f"{name}: {rep.failures()}"


def test_pontryagin_isomorphism(closed_aqgs):
    for name, q in closed_aqgs.items():
        theta, rep = pontryagin_check(q)
        assert rep.passed, f"{name}: {rep.failures()}"
        assert rep.max_residual < 1e-8
        assert theta.shape == (q.total_dim(), q.total_dim())
