import tracemalloc

import numpy as np
import pytest

from aqgrec.aqg import reconstruct, unit_index
from aqgrec.bundle import parse_bundle
from aqgrec.errors import NotFinite
from aqgrec.dual import table_from_aqg
from aqgrec.examples import builtin_group, gen_pointed
from aqgrec.group import (
    characters,
    cocommutative_check,
    element_order,
    group_block,
    grouplikes,
    products,
)
from aqgrec.linalg import residual, solve_intertwiners
from test_aqg import AqgElement, delta, scaled_channel
from test_report_identity import a4_bundle


def tables_isomorphic(t1, id1, t2, id2):
    """Backtracking isomorphism search between two group tables.

    Returns the mapping (index in group 1 -> index in group 2) or None.
    Intended for small orders.
    """
    t1 = np.asarray(t1)
    t2 = np.asarray(t2)
    n = t1.shape[0]
    if t2.shape[0] != n:
        return None
    o1 = [element_order(t1, id1, a) for a in range(n)]
    o2 = [element_order(t2, id2, a) for a in range(n)]
    if sorted(o1) != sorted(o2):
        return None
    phi = [-1] * n
    used = [False] * n
    phi[id1] = id2
    used[id2] = True

    def consistent(a: int) -> bool:
        for x in range(n):
            if phi[x] < 0:
                continue
            for y, z in ((a, x), (x, a)):
                if phi[y] < 0 or phi[z] < 0:
                    continue
                p = int(t1[y, z])
                im = int(t2[phi[y], phi[z]])
                if phi[p] >= 0:
                    if phi[p] != im:
                        return False
                elif used[im]:
                    return False
        return True

    def extend(a: int) -> bool:
        while a < n and phi[a] >= 0:
            a += 1
        if a == n:
            return True
        for b in range(n):
            if used[b] or o2[b] != o1[a]:
                continue
            phi[a] = b
            used[b] = True
            if consistent(a) and extend(a + 1):
                return True
            phi[a] = -1
            used[b] = False
        return False

    return phi if extend(0) else None


GROUP_ORDERS = {"z2": 2, "z5": 5, "s3": 6, "d4": 8, "q8": 8}
ABELIAN = {"z2": True, "z5": True, "s3": False, "d4": False, "q8": False}


def test_group_recovery_matches_generator(shipped_aqgs):
    for name, order in GROUP_ORDERS.items():
        group, _, _, rep = grouplikes(shipped_aqgs[name])
        assert rep.passed, f"{name}: {rep.failures()}"
        assert group.order == order, name
        assert np.array_equal(group.table, group.table.T) == ABELIAN[name], name
        p = builtin_group(name)
        phi = tables_isomorphic(
            group.table, group.identity, np.array(p.table), p.identity()
        )
        assert phi is not None, name


def test_pointed_bundles_recover_cyclic_groups(shipped_aqgs):
    for n in (2, 3, 5):
        group, _, _, rep = grouplikes(shipped_aqgs[f"pointed-z{n}-t1"])
        assert rep.passed and group.order == n
        p = builtin_group(f"z{n}")
        assert tables_isomorphic(
            group.table, group.identity, np.array(p.table), p.identity()
        ) is not None


def test_pointed_z16_group_in_small_memory():
    q = reconstruct(gen_pointed(16, 1))
    tracemalloc.start()
    try:
        group, _, _, rep = grouplikes(q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed, rep.failures()
    assert group.order == 16
    p = builtin_group("z16")
    assert tables_isomorphic(
        group.table, group.identity, np.array(p.table), p.identity()
    ) is not None
    assert peak < 16 * 2 ** 20, peak


def test_characters_of_a_noncommutative_algebra(closed_aqgs):
    # A = (+)_i B(H_i): its commutator ideal is the sum of the blocks of
    # dimension > 1, so its characters are those of its 1-dimensional blocks
    for name in ("s3", "d4", "q8"):
        q = closed_aqgs[name]
        T = table_from_aqg(q)
        chars = characters(T)
        assert len(chars) == sum(q.d(i) == 1 for i in q.labels), name
        for chi in chars:
            assert residual(np.einsum("uvw,w->uv", T.mult, chi), np.outer(chi, chi)) < 1e-10


def test_group_requires_closed_bundle(suq2_half):
    with pytest.raises(NotFinite):
        grouplikes(suq2_half)


def test_d4_and_q8_are_not_isomorphic():
    d4, q8 = builtin_group("d4"), builtin_group("q8")
    assert tables_isomorphic(
        np.array(d4.table), d4.identity(), np.array(q8.table), q8.identity()
    ) is None


def test_element_order_and_inverse(shipped_aqgs):
    group, _, _, _ = grouplikes(shipped_aqgs["q8"])
    orders = sorted(group.element_order(a) for a in range(group.order))
    # quaternion group: one identity, one element of order 2, six of order 4
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]
    for a in range(group.order):
        assert np.count_nonzero(group.table[a] == group.identity) == 1


def test_recovered_blocks_are_irreps(shipped_aqgs):
    q = shipped_aqgs["s3"]
    group, _, _, _ = grouplikes(q)
    blocks = {i: [group_block(q, g, i) for g in group.elements] for i in q.labels}
    for i, mats in blocks.items():
        for a, m in enumerate(mats):
            assert residual(m.conj().T @ m, np.eye(q.d(i))) < 1e-8, i
            for b, m2 in enumerate(mats):
                assert residual(m @ m2, mats[group.table[a, b]]) < 1e-8, i
        assert residual(mats[group.identity], np.eye(q.d(i))) < 1e-8, i
    # character orthogonality certifies irreducibility and inequivalence
    chars = np.array([[np.trace(m) for m in blocks[i]] for i in q.labels])
    gram = chars @ chars.conj().T / group.order
    assert residual(gram, np.eye(len(q.labels))) < 1e-8


def test_rep_to_group_rep_on_tensor_product(shipped_aqgs):
    # u(g) = (pi_2 x pi_2)(g) = Delta(g)_22 is a unitary representation of
    # the intrinsic group
    q = shipped_aqgs["s3"]
    group, _, _, _ = grouplikes(q)
    two = [i for i in q.labels if q.d(i) == 2][0]
    mats = [
        delta(q, AqgElement({i: g.coeffs[unit_index(q, i)] for i in q.labels}),
              [(two, two)])[(two, two)]
        for g in group.elements
    ]
    assert len(mats) == group.order
    for a, m in enumerate(mats):
        assert residual(m.conj().T @ m, np.eye(4)) < 1e-8
        for b, m2 in enumerate(mats):
            assert residual(m @ m2, mats[group.table[a, b]]) < 1e-8
    assert residual(mats[group.identity], np.eye(4)) < 1e-8
    # 2 (x) 2 = 1 + 1' + 2: three inequivalent summands, commutant dim 3
    gens = dict(enumerate(mats))
    assert len(solve_intertwiners(gens, gens)) == 3


def test_cocommutative_detection(shipped_aqgs):
    for name in ("z2", "s3", "q8", "pointed-z3-t1"):
        q = shipped_aqgs[name]
        group, T, _, grep = grouplikes(q)
        flag, rep = cocommutative_check(q, T, group, grep)
        assert flag, (name, rep.failures())
        assert rep.passed


def test_a_bundle_without_grouplikes_fails_its_report(shipped_bundles):
    # a channel of pointed Z/5 t=1 scaled by 1+1e-6 can leave the dual
    # without characters; the group is then empty, its identity and group
    # axioms fail, the rows over its elements are skipped, and the
    # cocommutativity check fails with it; without validation no input
    # guard of reconstruct runs, so every one of the 25 defects builds
    b = shipped_bundles["pointed-z5-t1"]
    reached, empty = 0, 0
    for (i, j), chans in b.fusion.items():
        for k in chans:
            q = reconstruct(scaled_channel(b, i, j, k), validate=False)
            reached += 1
            group, T, _, rep = grouplikes(q)
            flag, crep = cocommutative_check(q, T, group, rep)
            if group.order == 0:
                empty += 1
                assert group.export() == {"order": 0, "identity": -1, "table": [],
                                          "element_orders": []}
                failed = {c.name for c in rep.checks if not c.passed}
                assert failed == {"identity", "group-axioms"}, failed
                # no row passes vacuously
                skipped = {c.name for c in rep.checks if c.skipped}
                assert skipped == {"grouplike-axioms", "closed-under-product"}, skipped
                assert not flag and not crep.passed
    assert reached == 25 and empty > 0, empty


@pytest.mark.parametrize("name", ["pointed-z5-t1", "d4", "q8", "a4"])
def test_stacked_products_equal_the_table_product(shipped_aqgs, name):
    # the product table of grouplikes against T.product, the einsum it
    # replaced, bit for bit: every pair of group elements and of random
    # coefficient vectors (A4 has a 3-dimensional block)
    q = reconstruct(parse_bundle(a4_bundle())) if name == "a4" else shipped_aqgs[name]
    group, T, _, _ = grouplikes(q)
    rng = np.random.default_rng(1)
    for C in (np.array([g.coeffs for g in group.elements]),
              rng.standard_normal((4, T.dim)) + 1j * rng.standard_normal((4, T.dim))):
        got = products(T, C[:, None], C[None])
        for a, x in enumerate(C):
            for b, y in enumerate(C):
                assert np.array_equal(got[a, b], T.product(x, y)), (name, a, b)
