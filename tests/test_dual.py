import dataclasses

import numpy as np
import pytest

from aqgrec.aqg import (
    AqgElement,
    NotFinite,
    _unit_matrix,
    antipode,
    counit,
    delta,
    reconstruct,
    unit_index,
)
from aqgrec.bundle import parse_bundle
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
from test_report_identity import a4_bundle


def tables_by_matrix_units(q):
    """The Hopf tables of A built one matrix unit at a time through the
    element API (counit, antipode and Delta of each E^i_ps): the oracle for
    the closed forms of table_from_aqg."""
    N = q.total_dim()
    mult = np.zeros((N, N, N), dtype=complex)
    unit = np.zeros(N, dtype=complex)
    comult = np.zeros((N, N, N), dtype=complex)
    counit_v = np.zeros(N, dtype=complex)
    anti = np.zeros((N, N), dtype=complex)
    star = np.zeros((N, N), dtype=complex)
    haar_v = np.zeros(N, dtype=complex)
    pairs = q.bundle.layout.pairs
    for i in q.labels:
        d = q.d(i)
        idx = unit_index(q, i)
        for p in range(d):
            unit[idx[p, p]] = 1.0
            for s in range(d):
                u = idx[p, s]
                star[u, idx[s, p]] = 1.0
                haar_v[u] = q.haar_weights[i] * q.F[i][s, p]
                mult[u, idx[s], idx[p]] = 1.0
                eu = AqgElement({i: _unit_matrix(d, p, s)})
                counit_v[u] = counit(q, eu)
                anti[u] = element_to_vec(q, antipode(q, eu))
                for (n, m), blk in delta(q, eu, pairs).items():
                    dn, dm = q.d(n), q.d(m)
                    tt = blk.reshape(dn, dm, dn, dm).transpose(0, 2, 1, 3)
                    rows, cols = unit_index(q, n).ravel(), unit_index(q, m).ravel()
                    comult[u][np.ix_(rows, cols)] += tt.reshape(dn * dn, dm * dm)
    return {"mult": mult, "unit": unit, "comult": comult, "counit": counit_v,
            "antipode": anti, "star": star, "haar": haar_v}


def test_closed_form_tables_match_matrix_units(closed_aqgs):
    # bitwise: each entry is one product of isometry entries in both
    for name, q in closed_aqgs.items():
        T = table_from_aqg(q)
        for field, want in tables_by_matrix_units(q).items():
            assert np.array_equal(getattr(T, field), want), (name, field)
    # A4 sums two channels of 3 (x) 3 -> 3 in another order.  Every shipped
    # R_i is real; the same phase on r_i and rbar_i still solves the
    # conjugate equations and makes R_i complex, and the antipode's complex
    # products are then rounded differently from the matrix products
    b = closed_aqgs["s3"].bundle
    z = np.exp(0.7j)
    phased = dataclasses.replace(
        b, conj={i: (r * z, rbar * z) for i, (r, rbar) in b.conj.items()})
    for bundle in (parse_bundle(a4_bundle()), phased):
        q = reconstruct(bundle)
        T = table_from_aqg(q)
        for field, want in tables_by_matrix_units(q).items():
            assert residual(getattr(T, field), want) <= 1e-15, field


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
        table_from_aqg(suq2_half)


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
        T, Td, _ = dual_hopf(q)
        theta, rep = pontryagin_check(T, Td)
        assert rep.passed, f"{name}: {rep.failures()}"
        assert rep.max_residual < 1e-8
        assert theta.shape == (q.total_dim(), q.total_dim())
