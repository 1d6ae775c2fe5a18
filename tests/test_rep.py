"""Finite-dimensional *-representations of the reconstructed algebra.

The irreducible representation pi_i is the block projection a -> a_i, the
tensor product pi_i x pi_j acts through the coproduct as a -> Delta(a)_ij,
and the quantum dimension of pi is Tr pi(f).  Hom spaces are solved as
intertwiner spaces of these actions on the matrix units of A.
"""
import numpy as np

from aqgrec.linalg import dagger, residual, solve_intertwiners
from test_aqg import (AqgElement, conj_mats, counit, delta, f_blocks, fusion_support,
                      identity, matrix_unit, random_element)


def action(q, obj, a):
    """pi(a) for obj a label i (pi_i) or a pair (i, j) (pi_i x pi_j)."""
    if isinstance(obj, tuple):
        return delta(q, a, [obj])[obj]
    return a.block(obj, q.d(obj))


def support(q, obj):
    """The labels whose blocks of A act nontrivially on obj."""
    if isinstance(obj, tuple):
        return [k for k, _ in fusion_support(q.bundle, *obj)]
    return [obj]


def hom(q, x, y):
    """Hilbert-Schmidt orthonormal basis of Hom(x, y): T pi_x(E) = pi_y(E) T
    on every matrix unit E of the labels acting on x or y."""
    src, dst = {}, {}
    for m in dict.fromkeys(support(q, x) + support(q, y)):
        d = q.d(m)
        for p in range(d):
            for s in range(d):
                e = AqgElement({m: matrix_unit(d, p, s)})
                src[(m, p, s)] = action(q, x, e)
                dst[(m, p, s)] = action(q, y, e)
    return solve_intertwiners(src, dst)


def dimension(q, obj):
    """Tr pi(f), cross-checked against Tr pi(f^-1)."""
    tf = np.trace(action(q, obj, f_blocks(q))).real
    tfinv = np.trace(action(q, obj, f_blocks(q, inverse=True))).real
    assert abs(tf - tfinv) < 1e-9 * max(1.0, tf)
    return tf


def test_irrep_is_a_star_homomorphism(s3_aqg, rng):
    q = s3_aqg
    for i in q.labels:
        a, c = random_element(q, rng), random_element(q, rng)
        assert residual(action(q, i, a.mul(c)), action(q, i, a) @ action(q, i, c)) < 1e-10
        assert residual(action(q, i, a.star()), dagger(action(q, i, a))) < 1e-12
        assert residual(action(q, i, identity(q)), np.eye(q.d(i))) < 1e-12


def test_counit_rep_is_one_dimensional(shipped_aqgs, rng):
    # the counit is the irreducible representation on the unit label
    for q in shipped_aqgs.values():
        u = q.bundle.unit
        assert q.d(u) == 1
        a = random_element(q, rng)
        assert counit(q, a) == action(q, u, a)[0, 0]


def test_quantum_dimension_of_irreps(shipped_aqgs):
    # group categories: dimension = vector space dimension
    for name in ("s3", "d4", "q8"):
        q = shipped_aqgs[name]
        for i in q.labels:
            assert abs(dimension(q, i) - q.d(i)) < 1e-9
    # deformed case: q-integers [n+1]_q at q = 1/2
    q = shipped_aqgs["suq2-q0.5-L4"]
    qq = 0.5
    for n, want in enumerate(
        (qq ** (m + 1) - qq ** -(m + 1)) / (qq - 1 / qq) for m in range(5)
    ):
        assert abs(dimension(q, str(n)) - want) < 1e-9


def test_dimension_is_additive_and_multiplicative(suq2_half):
    q = suq2_half
    b = q.bundle
    # pi_1 x pi_2 = pi_1 + pi_3: additive over the decomposition
    assert abs(
        dimension(q, ("1", "2"))
        - sum(len(b.isometries("1", "2", k)) * dimension(q, k) for k in q.labels)
    ) < 1e-9
    assert abs(dimension(q, ("1", "2")) - dimension(q, "1") * dimension(q, "2")) < 1e-9


def test_tensor_rep_acts_through_the_coproduct(s3_aqg, rng):
    q = s3_aqg
    two = [i for i in q.labels if q.d(i) == 2][0]
    pair = (two, two)
    a, c = random_element(q, rng), random_element(q, rng)
    # still a *-homomorphism on the product space
    assert residual(action(q, pair, a.mul(c)), action(q, pair, a) @ action(q, pair, c)) < 1e-9
    assert residual(action(q, pair, a.star()), dagger(action(q, pair, a))) < 1e-10
    assert residual(action(q, pair, identity(q)), np.eye(4)) < 1e-10


def test_hom_reps_dimensions_match_fusion_rules(shipped_aqgs):
    for name in ("s3", "q8", "suq2-q1.0-L4"):
        q = shipped_aqgs[name]
        b = q.bundle
        for i in q.labels:
            for j in q.labels:
                if not b.complete(i, j):
                    continue
                for k in q.labels:
                    assert len(hom(q, k, (i, j))) == len(b.isometries(i, j, k)), (name, i, j, k)


def test_intertwiners_actually_intertwine(suq2_half, rng):
    q = suq2_half
    a = random_element(q, rng)
    for k in ("0", "2"):
        basis = hom(q, k, ("1", "1"))
        assert len(basis) == 1
        for t in basis:
            assert residual(t @ action(q, k, a), action(q, ("1", "1"), a) @ t) < 1e-9


def test_conjugate_rep_solves_conjugate_equations(shipped_aqgs, rng):
    for name in ("s3", "suq2-q0.5-L4"):
        q = shipped_aqgs[name]
        b = q.bundle
        sup = q.labels if name == "s3" else ["1", "2"]
        for i in sup:
            ib = b.dual[i]
            assert q.d(ib) == q.d(i)
            r, rbar = b.conj[i]
            rm, rbm = conj_mats(q, i)
            # the pair relation and the quantum-dimension normalization
            assert residual(rbm, np.linalg.inv(rm).conj()) < 1e-9
            qd = dimension(q, i)
            assert abs(np.vdot(r, r) - qd) < 1e-8
            assert abs(np.vdot(rbar, rbar) - qd) < 1e-8
            # r spans the trivial summand of pi_ibar x pi_i
            a = random_element(q, rng)
            lhs = action(q, (ib, i), a) @ r.reshape(-1)
            assert residual(lhs, counit(q, a) * r.reshape(-1)) < 1e-9, (name, i)


def test_decompose_rep_returns_validated_parts(s3_aqg, rng):
    q = s3_aqg
    b = q.bundle
    two = [i for i in q.labels if q.d(i) == 2][0]
    parts = [(k, v) for k, _ in fusion_support(b, two, two) for v in b.isometries(two, two, k)]
    assert sorted(i for i, _ in parts) == sorted(
        k for k in q.labels for _ in range(len(b.isometries(two, two, k)))
    )
    a = random_element(q, rng)
    total = np.zeros((4, 4), dtype=complex)
    for i, s in parts:
        assert s.shape == (4, q.d(i))
        assert residual(dagger(s) @ s, np.eye(q.d(i))) < 1e-12
        # each part embeds pi_i into pi_2 x pi_2
        assert residual(s @ action(q, i, a), action(q, (two, two), a) @ s) < 1e-9
        total += s @ dagger(s)
    assert residual(total, np.eye(4)) < 1e-12


def test_direct_sum_block_action(s3_aqg, rng):
    # the direct sum of all irreducibles is the block-diagonal embedding
    # of A, a faithful unital *-representation
    q = s3_aqg
    n = sum(q.d(i) for i in q.labels)

    def total(a):
        m = np.zeros((n, n), dtype=complex)
        off = 0
        for i in q.labels:
            d = q.d(i)
            m[off : off + d, off : off + d] = action(q, i, a)
            off += d
        return m

    a, c = random_element(q, rng), random_element(q, rng)
    assert residual(total(a.mul(c)), total(a) @ total(c)) < 1e-10
    assert residual(total(a.star()), dagger(total(a))) < 1e-12
    assert residual(total(identity(q)), np.eye(n)) < 1e-12
    off = 0
    for i in q.labels:
        d = q.d(i)
        assert residual(total(a)[off : off + d, off : off + d], a.blocks[i]) == 0.0
        off += d
