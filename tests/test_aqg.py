"""Tests of the reconstructed quantum group, and the element oracles.

The package runs every sampled check on batches (aqg's module docstring).
Here one element is a dict of blocks, AqgElement, with the single-element
forms of the draws, the counit, the antipode, the Haar functional, Delta
and the T-maps that the batched rows are checked against.
"""
import dataclasses
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from aqgrec import aqg, linalg
from aqgrec.aqg import (
    ConjInconsistent,
    InvalidBundle,
    _label_stacks,
    f_element,
    haar_sample_support,
    haar_spot_check,
    modular_data,
    reconstruct,
    unit_index,
    verify_axioms,
)
from aqgrec.braid import braiding_to_r, verify_quasitriangular
from aqgrec.bundle import parse_bundle
from aqgrec.dual import table_from_aqg
from aqgrec.errors import InconsistentSolve, NotFinite
from aqgrec.examples import gen_suq2
from aqgrec.linalg import CHUNK_BYTES, DEFAULT_TOL, Normals, cmat, dagger, residual, worst
from test_report_identity import a4_bundle


@dataclass
class AqgElement:
    """Finitely supported block map i -> matrix in B(H_i)."""

    blocks: dict

    @property
    def support(self) -> list:
        return sorted(self.blocks)

    def block(self, i, d):
        return self.blocks.get(i, np.zeros((d, d), dtype=complex))

    def mul(self, other):
        common = set(self.blocks) & set(other.blocks)
        return AqgElement({i: self.blocks[i] @ other.blocks[i] for i in common})

    def star(self):
        return AqgElement({i: dagger(m) for i, m in self.blocks.items()})

    def norm(self):
        return worst(*(np.abs(m) for m in self.blocks.values()))


def random_element(q, rng, support=None):
    """One random element, block by block: the oracle for Aqg.random_batch."""
    blocks = {}
    for i in support or q.labels:
        d = q.d(i)
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        blocks[i] = cmat(m)
    return AqgElement(blocks)


def batch(q, *elements):
    """Elements as one batch of the package's layout."""
    stacks = [_label_stacks(q, a.blocks) for a in elements]
    return {d: np.stack([s[d] for s in stacks], axis=1) for d in stacks[0]}


def counit(q, a):
    u = q.bundle.unit
    return complex(a.blocks[u][0, 0]) if u in a.blocks else 0j


def conj_mats(q, i):
    """(R_i, Rbar_i): r_i as a d_dual(i) x d_i matrix and rbar_i as
    d_i x d_dual(i)."""
    b = q.bundle
    (r, rbar), di, dib = b.conj[i], b.d(i), b.d(b.dual[i])
    return r.reshape(dib, di), rbar.reshape(di, dib)


def antipode(q, a):
    """S(a)_i = Rbar_i a_dual(i)^T conj(R_i), one block at a time."""
    b = q.bundle
    return AqgElement({b.dual[k]: conj_mats(q, b.dual[k])[1] @ a.blocks[k].T
                       @ conj_mats(q, b.dual[k])[0].conj() for k in a.support})


def haar(q, a, side="left"):
    """phi(a) = sum w_i Tr(F_i a_i); the right functional uses F_i^{-1}."""
    mats = q.F if side == "left" else q.Finv
    total = 0j
    for i in a.support:
        total += q.haar_weights[i] * complex(np.trace(mats[i] @ a.blocks[i]))
    return total


def element_residual(q, x, y):
    return worst(*(residual(x.block(i, q.d(i)), y.block(i, q.d(i)))
                   for i in set(x.blocks) | set(y.blocks)))


def f_blocks(q, inverse=False):
    """f (or f^-1) on every label, as an element."""
    return AqgElement({i: cmat(m) for i, m in (q.Finv if inverse else q.F).items()})


def matrix_unit(d, p, s):
    """The d x d matrix unit E_ps."""
    m = np.zeros((d, d), dtype=complex)
    m[p, s] = 1.0
    return m


def fusion_support(b, i, j):
    """The loaded fusion channels of i (x) j, in label order: (k, N_ij^k)
    over the k that i (x) j has isometries to."""
    return [(k, len(b.isometries(i, j, k))) for k in b.labels if b.isometries(i, j, k)]


def delta(q, a, pairs):
    """The blocks of Delta(a) on the given pairs (i,j), as a dict: the sum
    of v a_k v* over the channels v of i (x) j -> k, k in a's support.

    Exact for every loaded pair, because unloaded channels cannot carry
    support of a.
    """
    b = q.bundle
    return {(i, j): sum((v @ a.blocks[k] @ dagger(v) for k in a.support
                         for v in b.isometries(i, j, k)),
                        np.zeros((q.d(i) * q.d(j),) * 2, dtype=complex)) for i, j in pairs}


def t1_map(q, a, c):
    """T1(a (x) c) = Delta(a)(1 (x) c) on the pairs (o, n), n in c's support."""
    pairs = [(o, n) for n in c.support for o in q.labels]
    return {(o, n): m @ np.kron(np.eye(q.d(o)), c.blocks[n])
            for (o, n), m in delta(q, a, pairs).items()}


def t2_map(q, a, c):
    """T2(a (x) c) = (a (x) 1)Delta(c) on the pairs (n, o), n in a's support."""
    pairs = [(n, o) for n in a.support for o in q.labels]
    return {(n, o): np.kron(a.blocks[n], np.eye(q.d(o))) @ m
            for (n, o), m in delta(q, c, pairs).items()}


def identity(q):
    """The unit of M(A) restricted to the loaded window."""
    return AqgElement({i: np.eye(q.d(i), dtype=complex) for i in q.labels})


def elementary_pair(q, a, b):
    """a (x) b as a pair element: block (i, j) is kron(a_i, b_j)."""
    return {(i, j): np.kron(a.blocks[i], b.blocks[j]) for i in a.support for j in b.support}


def pair_norm(x):
    return worst(*(np.abs(m) for m in x.values()))


def t_matrix(q, which):
    """Dense T1 or T2 on A (x) A, column by column from matrix units."""
    total = q.total_dim()
    singles = [(i, p, s) for i in q.labels for p in range(q.d(i)) for s in range(q.d(i))]
    mat = np.zeros((total * total, total * total), dtype=complex)
    for i, p, s in singles:
        e1 = AqgElement({i: matrix_unit(q.d(i), p, s)})
        for j, r, u in singles:
            e2 = AqgElement({j: matrix_unit(q.d(j), r, u)})
            x = t1_map(q, e1, e2) if which == "t1" else t2_map(q, e1, e2)
            col = unit_index(q, i)[p, s] * total + unit_index(q, j)[r, u]
            for (n, m), blk in x.items():
                dn, dm = q.d(n), q.d(m)
                t = blk.reshape(dn, dm, dn, dm)
                for a in range(dn):
                    for c in range(dn):
                        rows = unit_index(q, n)[a, c] * total + unit_index(q, m).ravel()
                        mat[rows, col] += t[a, :, c, :].reshape(-1)
    return mat


def test_haar_gram_is_weighted_f(shipped_aqgs):
    # Haar faithfulness holds by construction, so it is no report row: the
    # Gram form phi(E_p's'* E_ps) per block is w_i (I (x) F_i), and since
    # reconstruct enforces Tr F_i = Tr F_i^-1 and F_i F_i^-1 = I to 100 tol,
    # w_i lambda_min(F_i) >= Tr(F_i^-1) lambda_min(F_i) >= 1 - O(tol)
    aqgs = dict(shipped_aqgs, **{"suq2-q0.5-L8": reconstruct(gen_suq2(0.5, 8))})
    for name, q in aqgs.items():
        for i in q.labels:
            d, w = q.d(i), q.haar_weights[i]
            assert w * np.linalg.eigvalsh(q.F[i])[0] >= 1 - 1e-12, (name, i)
            if name in shipped_aqgs:
                units = [matrix_unit(d, p, s) for p in range(d) for s in range(d)]
                gram = np.array([[w * np.trace(q.F[i] @ ub.conj().T @ ua) for ub in units]
                                 for ua in units])
                assert np.array_equal(gram, w * np.kron(np.eye(d), q.F[i])), (name, i)


def test_axiom_suite_passes_on_all_bundles(shipped_aqgs):
    for name, q in shipped_aqgs.items():
        rep = verify_axioms(q)
        assert rep.passed, f"{name}: {rep.failures()}"
        assert rep.max_residual < 1e-8, name


def test_f_element_blocks_are_positive(shipped_aqgs):
    for name, q in shipped_aqgs.items():
        for i in q.labels:
            ev = np.linalg.eigvalsh(q.F[i]).real
            assert np.min(ev) > 0, (name, i)
            assert residual(q.F[i] @ q.Finv[i], np.eye(q.d(i))) < 1e-9
            # standardness: Tr F_i = Tr F_i^{-1}
            assert abs(np.trace(q.F[i]) - np.trace(q.Finv[i])) < 1e-9


def test_f_element_rejects_mismatched_pair(shipped_bundles):
    b = shipped_bundles["suq2-q0.5-L4"]
    conj = dict(b.conj)
    r, rbar = conj["1"]
    conj["1"] = (r, rbar * 1.01)
    bad = type(b)(
        labels=b.labels, unit=b.unit, dims=b.dims, dual=b.dual,
        fusion=b.fusion, conj=conj, braiding=b.braiding, closed=b.closed,
    )
    with pytest.raises(ConjInconsistent):
        f_element(bad)
    # a 3x2 isometry R with Rbar = R^T: conj(Rbar) R = I_2, but R conj(Rbar)
    # is only a projection, so the check needs both zigzag products
    R, one = np.eye(3, 2, dtype=complex), np.ones(1, dtype=complex)
    nonsquare = type(b)(
        labels=["0", "a", "b"], unit="0", dims={"0": 1, "a": 2, "b": 3},
        dual={"0": "0", "a": "b", "b": "b"}, fusion={},
        conj={"0": (one, one), "a": (R.reshape(-1), R.T.reshape(-1)),
              "b": (np.eye(3).reshape(-1), np.eye(3).reshape(-1))},
    )
    with pytest.raises(ConjInconsistent, match="label a"):
        f_element(nonsquare)


def test_reconstruct_rejects_invalid_bundle(shipped_bundles):
    b = shipped_bundles["z2"]
    fusion = {k: {kk: [m.copy() for m in vv] for kk, vv in v.items()}
              for k, v in b.fusion.items()}
    next(iter(fusion.values()))[next(iter(next(iter(fusion.values()))))][0][0, 0] += 1e-3
    bad = type(b)(
        labels=b.labels, unit=b.unit, dims=b.dims, dual=b.dual,
        fusion=fusion, conj=b.conj, braiding=b.braiding, closed=b.closed,
    )
    with pytest.raises(InvalidBundle):
        reconstruct(bad)


def test_counit_is_a_star_character(s3_aqg, rng):
    q = s3_aqg
    a, c = random_element(q, rng), random_element(q, rng)
    assert abs(counit(q, a.mul(c)) - counit(q, a) * counit(q, c)) < 1e-10
    assert abs(counit(q, a.star()) - np.conj(counit(q, a))) < 1e-12
    assert abs(counit(q, identity(q)) - 1.0) < 1e-12


def test_antipode_antihomomorphism_and_inverse(shipped_aqgs, rng):
    for name in ("s3", "q8", "suq2-q0.5-L4"):
        q = shipped_aqgs[name]
        a, c = random_element(q, rng), random_element(q, rng)
        lhs = antipode(q, a.mul(c))
        rhs = antipode(q, c).mul(antipode(q, a))
        assert element_residual(q, lhs, rhs) < 1e-9, name

        def s_inv(x):  # S^{-1}(x) = S(x*)*
            return antipode(q, x.star()).star()

        assert element_residual(q, s_inv(antipode(q, a)), a) < 1e-9, name
        assert element_residual(q, antipode(q, s_inv(a)), a) < 1e-9, name


def test_antipode_squared_is_conjugation_by_f(shipped_aqgs, rng):
    for name in ("d4", "suq2-q0.5-L4"):
        q = shipped_aqgs[name]
        a = random_element(q, rng)
        s2 = antipode(q, antipode(q, a))
        adf = AqgElement(
            {i: q.F[i] @ a.blocks[i] @ q.Finv[i] for i in a.support}
        )
        assert element_residual(q, s2, adf) < 1e-9, name


def test_haar_is_positive_and_faithful(shipped_aqgs, rng):
    for name in ("z5", "s3", "suq2-q0.5-L4"):
        q = shipped_aqgs[name]
        a = random_element(q, rng)
        val = haar(q, a.star().mul(a))
        assert abs(val.imag) < 1e-9 * max(1.0, abs(val))
        assert val.real > 1e-8 * a.norm() ** 2


def test_haar_weighted_trace_values(s3_aqg):
    q = s3_aqg
    for i in q.labels:
        # group bundles: F = I, so phi(e_i I) = d_i^2
        val = haar(q, AqgElement({i: np.eye(q.d(i), dtype=complex)}))
        assert abs(val - q.d(i) ** 2) < 1e-10


def haar_uniqueness_dim(q):
    """Dimension of the space of left-invariant functionals omega, which
    solve (iota (x) omega)Delta(e_u) = omega(e_u) 1 on the dense tables:
    sum_w Delta[u,v,w] omega_w = omega_u 1_v (closed bundles only)."""
    T = table_from_aqg(q)
    system = T.comult - np.einsum("uw,v->uvw", np.eye(T.dim), T.unit)
    svals = np.linalg.svd(system.reshape(-1, T.dim), compute_uv=False)
    return T.dim - int(np.sum(svals > svals[0] * 1e-9))


def test_haar_uniqueness_on_closed_bundles(closed_aqgs):
    for name, q in closed_aqgs.items():
        assert haar_uniqueness_dim(q) == 1, name


def test_haar_uniqueness_rejects_window(suq2_half):
    with pytest.raises(NotFinite):
        haar_uniqueness_dim(suq2_half)


def test_t_maps_invert_on_elementary_tensors(shipped_aqgs, rng):
    for name in ("s3", "pointed-z3-t1", "suq2-q0.5-L4"):
        q = shipped_aqgs[name]
        # windows: roundtrips are exact only on supports whose products stay
        # representable, the same set the invariance checks use
        sup = haar_sample_support(q)
        a = random_element(q, rng, support=sup)
        c = random_element(q, rng, support=sup)
        x = elementary_pair(q, a, c)
        for got in (t1_inverse(q, t1_map(q, a, c)), t2_inverse(q, t2_map(q, a, c))):
            for (i, j), blk in x.items():
                if i in sup and j in sup:
                    assert residual(got.get((i, j), 0.0), blk) < 1e-8, (name, i, j)


def t1_inverse(q, x):
    """T1^-1 of the pair element x, sum x_(1) (x) S(x_(2)) x_(3), as one
    einsum per block (i,j) of x and channel v of n (x) dual(j) -> i, which
    adds to the block (n,j)."""
    b = q.bundle
    out = {}
    for (i, j), blk in x.items():
        di, dj = q.d(i), q.d(j)
        m = b.dual[j]
        rm, rb = conj_mats(q, j)
        t = blk.reshape(di, dj, di, dj)
        for n in b.labels:
            if not b.isometries(n, m, i):
                continue
            dn = q.d(n)
            acc = np.zeros((dn, dj, dn, dj), dtype=complex)
            for v in b.isometries(n, m, i):
                vt = v.reshape(dn, q.d(m), di)
                acc += np.einsum("abp,cds,ud,be,pesw->aucw",
                                 vt, vt.conj(), rb, rm.conj(), t, optimize=True)
            out[(n, j)] = out.get((n, j), 0) + acc.reshape(dn * dj, dn * dj)
    return out


def t2_inverse(q, x):
    """T2^-1 of the pair element x, sum x_(1) S(x_(2)) (x) x_(3), as one
    einsum per block (i,j) of x and channel v of dual(i) (x) n -> j, which
    adds to the block (i,n)."""
    b = q.bundle
    out = {}
    for (i, j), blk in x.items():
        di, dj = q.d(i), q.d(j)
        m = b.dual[i]
        rm, rb = conj_mats(q, i)
        t = blk.reshape(di, dj, di, dj)
        for n in b.labels:
            if not b.isometries(m, n, j):
                continue
            dn = q.d(n)
            acc = np.zeros((di, dn, di, dn), dtype=complex)
            for v in b.isometries(m, n, j):
                vt = v.reshape(q.d(m), dn, dj)
                acc += np.einsum("pesw,sd,bz,bge,dhw->pgzh",
                                 t, rb, rm.conj(), vt, vt.conj(), optimize=True)
            out[(i, n)] = out.get((i, n), 0) + acc.reshape(di * dn, di * dn)
    return out


def phased(b, rng):
    """b in another orthonormal basis of each H_i: e_m -> u_m e_m with
    random phases u (none on the unit), so that its isometries and conjugate
    pairs are complex.  A morphism v : H_k -> H_i (x) H_j becomes
    (U_i (x) U_j) v U_k*, r_i, rbar_i become (U_dual(i) (x) U_i) r_i and
    (U_i (x) U_dual(i)) rbar_i, and a braiding c : H_i (x) H_j -> H_j (x) H_i
    becomes (U_j (x) U_i) c (U_i (x) U_j)*."""
    u = {i: np.ones(b.d(i)) if i == b.unit else np.exp(2j * np.pi * rng.random(b.d(i)))
         for i in b.labels}
    fusion = {(i, j): {k: [np.kron(u[i], u[j])[:, None] * v * u[k].conj() for v in vs]
                       for k, vs in chans.items()}
              for (i, j), chans in b.fusion.items()}
    conj = {i: (np.kron(u[b.dual[i]], u[i]) * r, np.kron(u[i], u[b.dual[i]]) * rbar)
            for i, (r, rbar) in b.conj.items()}
    braiding = b.braiding and {
        (i, j): np.kron(u[j], u[i])[:, None] * c * np.kron(u[i], u[j]).conj()
        for (i, j), c in b.braiding.items()}
    return dataclasses.replace(b, fusion=fusion, conj=conj, braiding=braiding)


def haar_unitary(d, rng):
    """A Haar-random d x d unitary: QR of a complex Gaussian matrix, with
    the phases of R's diagonal moved into Q."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def gauge(b, rng):
    """b in another orthonormal basis of each H_i and of each multiplicity
    space: phased with Haar-random unitaries U_i (1 on the unit) in place of
    diagonal phases.  The channels of i (x) j -> k are first mixed by a
    Haar-random unitary W, v_a -> sum_b W[b, a] v_b, and then each becomes
    (U_i (x) U_j) v U_k*; r_i, rbar_i and the braiding move as in phased,
    c -> (U_j (x) U_i) c (U_i (x) U_j)*.  A Haar-random U_i mixes the
    weights of H_i, so the gauged bundle declares no grading."""
    u = {i: np.eye(1) if i == b.unit else haar_unitary(b.d(i), rng) for i in b.labels}

    def mixed(vs, w):
        return [sum(w[t, a] * v for t, v in enumerate(vs)) for a in range(len(vs))]

    fusion = {(i, j): {k: [np.kron(u[i], u[j]) @ v @ u[k].conj().T
                           for v in mixed(vs, haar_unitary(len(vs), rng))]
                       for k, vs in chans.items()}
              for (i, j), chans in b.fusion.items()}
    conj = {i: (np.kron(u[b.dual[i]], u[i]) @ r, np.kron(u[i], u[b.dual[i]]) @ rbar)
            for i, (r, rbar) in b.conj.items()}
    braiding = b.braiding and {
        (i, j): np.kron(u[j], u[i]) @ c @ np.kron(u[i], u[j]).conj().T
        for (i, j), c in b.braiding.items()}
    return dataclasses.replace(b, fusion=fusion, conj=conj, braiding=braiding, weights=None)


def t_inverse_blocks(q, sup, a, keep):
    """Row 4's blocks for the element a, by pair in the layout of the pair
    elements: T1^-1(Delta(a)) on (n, s) (keep 2) or T2^-1(Delta(a)) on
    (s, n) (keep 1), n and s in sup, from one run of the kernel over all of
    its items, which takes the transpose of a for T2."""
    lay = q.bundle.layout
    cut = aqg._TInverse(q, sup, keep)
    size = lay.dims[cut.s] * lay.dims[cut.n]
    slot, count = linalg.slots(size)
    out = {d: np.zeros((k, 1, d, d), dtype=complex) for d, k in count.items()}
    x = batch(q, a)
    cut.run(x if keep == 2 else {d: m.swapaxes(2, 3) for d, m in x.items()}, out, 0, 0, None,
            slot[cut.block])
    got = {}
    for t, (s, n) in enumerate(zip(cut.s.tolist(), cut.n.tolist())):
        ds, dn = lay.dims[s], lay.dims[n]
        g = out[ds * dn][slot[t], 0].reshape(dn, dn, ds, ds)
        # (n, n', r, q') of T1's (n, r), (n', q'); (h, g, p, z) of T2's (p, g), (z, h)
        got[(q.labels[n], q.labels[s]) if keep == 2 else (q.labels[s], q.labels[n])] = (
            g.transpose(0, 2, 1, 3) if keep == 2 else g.transpose(2, 1, 3, 0)).reshape(
                ds * dn, ds * dn)
    return got


@pytest.mark.parametrize("qq,L", [(0.9, 6), (0.5, 8)])
@pytest.mark.parametrize("basis", ["weight", "phased"])
def test_row_4_blocks_are_the_t_inverses_of_delta(qq, L, basis):
    # the channel-pair chains of row 4 against one einsum per block of
    # Delta(a) and channel (t1_inverse, t2_inverse) over the pair blocks of
    # Delta(a), on every block of the sample support, where they are a_n (x)
    # I and I (x) a_n; the weight basis is real, so the phased one is what
    # tells conj(R) from R
    rng = np.random.default_rng(5)
    b = gen_suq2(qq, L)
    q = reconstruct(phased(b, rng) if basis == "phased" else b)
    sup = haar_sample_support(q)
    a = random_element(q, rng, sup)
    pairs = delta(q, a, q.bundle.layout.pairs)
    for keep, inverse in ((2, t1_inverse), (1, t2_inverse)):
        got, want = t_inverse_blocks(q, sup, a, keep), inverse(q, pairs)
        assert len(got) == len(sup) ** 2
        for key, blk in got.items():
            n = key[0] if keep == 2 else key[1]
            ident = np.eye(q.d(key[1] if keep == 2 else key[0]))
            one = np.kron(a.blocks[n], ident) if keep == 2 else np.kron(ident, a.blocks[n])
            assert residual(blk, want[key]) <= 1e-14 * np.max(np.abs(want[key])), (qq, L, key)
            assert residual(blk, one) <= 1e-12 * np.max(np.abs(one)), (qq, L, key)


def scaled_channel(b, i, j, k, s=1 + 1e-6):
    """b with the isometries of i (x) j -> k scaled by s."""
    fusion = {p: dict(chans) for p, chans in b.fusion.items()}
    fusion[(i, j)][k] = [v * s for v in fusion[(i, j)][k]]
    return dataclasses.replace(b, fusion=fusion)


@pytest.mark.parametrize("channel,rows", [
    # the unit channel 0 (x) 1 -> 1 carries the counit laws
    (("0", "1", "1"), ("2-counit-laws",)),
    # 1 (x) 1 -> 0 is the channel of a conjugate pair
    (("1", "1", "0"), ("3-antipode-laws", "4-t-inverse-identities", "6-haar-invariance",
                       "8-delta-homomorphism")),
])
def test_window_rows_fail_on_a_seeded_defect(suq2_bundles, channel, rows):
    # a check that cannot fail is a bug: each sampled row of the window
    # suite fails once one channel is off by 1e-6
    b = scaled_channel(suq2_bundles["suq2-q0.5-L4"], *channel)
    failed = {c.name for c in verify_axioms(reconstruct(b, validate=False)).checks
              if not c.passed}
    assert set(rows) <= failed, failed


@pytest.mark.parametrize("name", ["s3", "suq2-q0.5-L4"])
def test_the_haar_spot_check_of_reconstruct_fires(shipped_bundles, name):
    # reconstruct checks (iota (x) phi)(Delta(a)) c = phi(a) c on two samples
    # before it returns: the conjugate pair's channel 1 (x) 1 -> 0 off by
    # 1e-4 fails it, and off by 1e-9 does not.  Without validation
    # reconstruct runs neither input guard, and builds either bundle
    b = shipped_bundles[name]
    off, near = (reconstruct(scaled_channel(b, "1", "1", "0", 1 + s), validate=False)
                 for s in (1e-4, 1e-9))
    with pytest.raises(InconsistentSolve, match="Haar ansatz fails invariance"):
        haar_spot_check(off)
    haar_spot_check(near)


def taken(q, x, i, j, keep, f):
    """The block x on the pair (i, j) with the leg other than keep taken
    through f: the sum over the matrix units E of that leg's label k of
    f(k, E), a scalar or a matrix, times the block of x at E on the kept
    leg, from the side of the leg taken."""
    di, dj = q.d(i), q.d(j)
    t = x.reshape(di, dj, di, dj)
    if keep == 1:
        return sum(np.dot(t[:, p, :, s], f(j, matrix_unit(dj, p, s)))
                   for p in range(dj) for s in range(dj))
    return sum(np.dot(f(i, matrix_unit(di, p, s)), t[p, :, s, :])
               for p in range(di) for s in range(di))


@pytest.mark.parametrize("name", ["s3", "pointed-z5-t1", "suq2-q0.5-L4", "suq2-q0.9-L8"])
def test_contracted_rows_are_the_contracted_cut_blocks(shipped_aqgs, name):
    # rows 2, 3 and 6 take one leg of Delta(a) channel by channel and then
    # multiply by c; the cut formulation they replace, the pair blocks of
    # Delta(a)(c (x) 1), (c (x) 1)Delta(a), Delta(a)(1 (x) c) and
    # (1 (x) c)Delta(a) with one leg taken by the counit, the antipode (in
    # m(S (x) iota) and m(iota (x) S)) or a Haar functional pair by pair,
    # gives the same blocks, from the element forms of those maps
    q = shipped_aqgs.get(name) or reconstruct(gen_suq2(0.9, 8))
    b, lay = q.bundle, q.bundle.layout
    sup, u = haar_sample_support(q), b.unit
    rng = np.random.default_rng(4)
    a, c = random_element(q, rng, sup), random_element(q, rng, sup)

    def eps(k, e):
        return counit(q, AqgElement({k: e}))

    def s(k, e):
        return antipode(q, AqgElement({k: e})).blocks[b.dual[k]]

    def functional(side):
        return lambda k, e: haar(q, AqgElement({k: e}), side)

    unit = aqg._leg(q, _label_stacks(q, {u: np.ones((1, 1))}))
    # (row, keep, bind, others, the map of the leg taken, sides of c)
    cuts = [("2", 2, unit, lambda n: [u], eps, ("right",)),
            ("2", 1, unit, lambda n: [u], eps, ("right",)),
            ("3", 2, aqg._mult(q), lambda n: [b.dual[n]], s, ("right",)),
            ("3", 1, aqg._mult(q), lambda n: [b.dual[n]], s, ("left",))]
    cuts += [("6", keep, aqg._leg(q, aqg._haar_stacks(q, side)[1]), None, functional(side),
              ("right", "left")) for keep, side in ((1, "left"), (2, "right"))]
    for row, keep, bind, others, f, sides in cuts:
        got = aqg._zero_batch(lay, 1)
        aqg._Contraction(q, sup, sup, keep, bind, others).run(batch(q, a), got, 0)
        for n in sup:
            x = got[q.d(n)][lay.block_of[lay.label_index[n]], 0]
            pairs = [(n, o) if keep == 1 else (o, n) for o in (others or (lambda n: q.labels))(n)]
            for side in sides:
                want = 0
                for (i, j), m in delta(q, a, pairs).items():
                    cut = (np.kron(c.blocks[i], np.eye(q.d(j))) if keep == 1
                           else np.kron(np.eye(q.d(i)), c.blocks[j]))
                    want = want + taken(q, m @ cut if side == "right" else cut @ m, i, j, keep, f)
                new = x @ c.blocks[n] if side == "right" else c.blocks[n] @ x
                assert residual(new, want) <= 1e-12 * np.max(np.abs(want)), (row, keep, n, side)


def pair_gram(b, i, j):
    """(max |V* V - I|, width) of the pair (i,j), with V its channels side
    by side in label order: the dense form of the layout's Gram."""
    v = np.hstack([m for k in b.labels for m in b.isometries(i, j, k)])
    return residual(dagger(v) @ v, np.eye(v.shape[1])), v.shape[1]


def sampled_row_8(q, rng, n=4):
    """Row 8 as it was sampled, one pair at a time: per loaded pair, the
    worst |Delta(a)Delta(c) - Delta(ac)| over n samples a, c on every label;
    and the samples' scale, the worst product of the largest block norms of
    a and of c."""
    pairs = [p for p in q.bundle.layout.pairs if q.bundle.fusion.get(p)]
    res, scale = dict.fromkeys(pairs, 0.0), 0.0
    for _ in range(n):
        a, c = random_element(q, rng), random_element(q, rng)
        da, dc, dac = (delta(q, x, pairs) for x in (a, c, a.mul(c)))
        for p in pairs:
            res[p] = worst(res[p], residual(da[p] @ dc[p], dac[p]))
        scale = worst(scale, max(np.linalg.norm(m, 2) for m in a.blocks.values())
                      * max(np.linalg.norm(m, 2) for m in c.blocks.values()))
    return res, scale


ORACLE_CASES = ["z2", "z5", "s3", "d4", "q8", "pointed-z2-t1", "pointed-z3-t1", "pointed-z5-t1",
                "suq2-q1.0-L4", "suq2-q0.5-L4", "suq2-q0.9-L8", "row-8-defect", "cross-label"]


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_the_gram_bounds_the_sampled_row_8(shipped_bundles, name):
    # on a pair (i,j), Delta(a)Delta(c) - Delta(ac) = V D_a E D_c V* with
    # E = V* V - I and ||D_a|| the largest block norm of a, so the sampled
    # residual is at most ||E|| (1 + ||E||) |a| |c|, where ||E|| <= n eps for
    # the Gram residual eps over the pair's channel width n; the sampled
    # products add roundoff of a few n ulps of their scale.  The row reads
    # the layout's Gram, which the dense V* V gives back
    from test_sensitivity import DEFECTS, VALIDATE_DEFECTS, defective

    if name == "row-8-defect":
        b = defective(shipped_bundles["suq2-q0.5-L4"], *DEFECTS["8-delta-homomorphism"][1:])
    elif name == "cross-label":
        b = defective(shipped_bundles["suq2-q0.5-L4"],
                      *VALIDATE_DEFECTS["cross-label-orthogonality"][1:])
    else:
        b = shipped_bundles.get(name) or gen_suq2(0.9, 8)
    lay = b.layout
    gram = np.maximum(*(lay.gram_worst(lay.chan_pair, len(lay.pairs), row) for row in (0, 1)))
    res, scale = sampled_row_8(reconstruct(b, validate=False), Normals(8))
    for p, r in res.items():
        eps, width = pair_gram(b, *p)
        assert abs(eps - gram[lay.pair_index[p]]) <= width * np.finfo(float).eps, (name, p)
        e = width * eps
        assert r <= scale * (e * (1 + e) + 2 * width * np.finfo(float).eps), (name, p, r, eps)
    if name in ("row-8-defect", "cross-label"):
        assert max(res.values()) > 1e-6 and worst(gram) >= 1e-6, (name, res)


@pytest.mark.parametrize("name", ["s3", "pointed-z5-t1"])
def test_axiom_rows_survive_complex_phases(shipped_bundles, name):
    # every closed generator writes real data; in a phased basis the
    # isometries and conjugate pairs are complex, so a dropped conjugation
    # in the T-inverse chains of row 4 shows on a closed bundle too
    b = shipped_bundles[name]
    plain = verify_axioms(reconstruct(b))
    phased_rep = verify_axioms(reconstruct(phased(b, np.random.default_rng(3))))
    assert ([(c.name, c.passed) for c in phased_rep.checks]
            == [(c.name, c.passed) for c in plain.checks])
    assert phased_rep.max_residual < 1e-12, phased_rep.failures()


def per_pair_row_4(q, n_samples=16, seed=42, tol=DEFAULT_TOL):
    """Row 4 of verify_axioms one pair block at a time: a (x) c as
    elementary_pair against T1^-1 T1 and T2^-1 T2 on every block with both
    labels in the sample support, missing blocks being zero.  The rng skips
    the draws of the rows before it, on the package's stream.  Returns
    (residual, flag, scale)."""
    rng = Normals(seed)
    sample = haar_sample_support(q)
    n_small = max(2, n_samples // 4)
    for _ in range(n_small):
        random_element(q, rng)
    for _ in range(4 * n_samples):
        random_element(q, rng, support=sample)
    res, scale = [0.0], [1.0]
    for _ in range(n_small):
        a = random_element(q, rng, support=sample)
        c = random_element(q, rng, support=sample)
        target = elementary_pair(q, a, c)
        for back in (t1_inverse(q, t1_map(q, a, c)), t2_inverse(q, t2_map(q, a, c))):
            for (i, j), blk in target.items():
                res.append(residual(back.get((i, j), np.zeros_like(blk)), blk))
        scale.append(pair_norm(target))
    res, scale = worst(*res), worst(*scale)
    return res, bool(res <= tol.bound(scale)), scale


@pytest.mark.parametrize("name", ["s3", "a4", "pointed-z5-t1", "suq2-q0.5-L4", "phased-s3",
                                  "suq2-q0.9-L8"])
def test_row_4_is_the_per_pair_comparison(shipped_bundles, name):
    # the row takes T1^-1 and T2^-1 of Delta channel pair by channel pair and
    # multiplies by c (by a) after; the per-pair loop cuts Delta(a) by c and
    # inverts its pair blocks.  Both compare the blocks a_i (x) c_j of the
    # support against the same scale, so the residuals agree at roundoff of
    # that scale and the flags agree
    if name == "a4":
        b = parse_bundle(a4_bundle())
    elif name == "phased-s3":
        b = phased(shipped_bundles["s3"], np.random.default_rng(3))
    else:
        b = shipped_bundles.get(name) or gen_suq2(0.9, 8)
    q = reconstruct(b)
    row = next(c for c in verify_axioms(q).checks if c.name.startswith("4-"))
    res, ok, scale = per_pair_row_4(q)
    assert abs(row.residual - res) <= 1e-12 * scale and row.passed == ok, (row.residual, res)


def test_row_4_compares_the_blocks_of_labels_no_chunk_takes(suq2_bundles):
    # without the unit's channels no pair of the window's sample support
    # (the unit alone then) carries Delta(a), so no item adds to a block;
    # the row still compares every block a_i (x) c_j of the support with
    # zero, and fails as the per-pair loop does
    b = suq2_bundles["suq2-q0.5-L4"]
    fusion = {p: chans for p, chans in b.fusion.items() if p[0] != b.unit}
    q = reconstruct(dataclasses.replace(b, fusion=fusion), validate=False)
    row = next(c for c in verify_axioms(q).checks if c.name.startswith("4-"))
    assert (row.residual, row.passed) == per_pair_row_4(q)[:2]
    assert not row.passed


def test_a_batch_draws_the_numbers_of_random_element(shipped_aqgs):
    # one rng call per batch yields the blocks that random_element draws
    # one at a time, sample after sample
    for name in ("s3", "suq2-q0.5-L4"):
        q = shipped_aqgs[name]
        sup = haar_sample_support(q)
        a, c = q.random_batch(Normals(9), 3, 2, sup)
        rng = Normals(9)
        want = [[random_element(q, rng, sup) for _ in range(2)] for _ in range(3)]
        for got, col in ((a, 0), (c, 1)):
            # a batch holds the block sizes of the support
            for d, m in batch(q, *(w[col] for w in want)).items():
                assert np.array_equal(got[d], m) if d in got else not m.any(), (name, d)


@pytest.mark.parametrize("name", ["s3", "pointed-z5-t1", "suq2-q0.5-L4", "suq2-q0.5-L8"])
def test_rows_do_not_depend_on_the_batch_size(shipped_aqgs, monkeypatch, name):
    # one item and one sample a chunk (at 256 KiB for the window at L = 8,
    # whose rows then run several chunks of channels and of row 4's channel
    # pairs), or every item and sample in one chunk: each product runs on
    # the same blocks, and every sum by label or pair block adds its items
    # in the same order, so every row reads the same bits
    q = shipped_aqgs.get(name) or reconstruct(gen_suq2(0.5, 8))
    reports, walks, chunked, inverse, inside = [], [], aqg.chunks, aqg._TInverse.run, [False]

    def chunks(*args):
        out = list(chunked(*args))
        walks.append((inside[0], len(out)))
        return out

    def run(*args):
        inside[0] = True
        try:
            return inverse(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(aqg, "chunks", chunks)
    monkeypatch.setattr(aqg._TInverse, "run", run)
    for budget in (1 << 18 if name == "suq2-q0.5-L8" else 1, 1 << 40):
        monkeypatch.setattr(linalg, "CHUNK_BYTES", budget)
        rep = verify_axioms(q)
        if q.bundle.braiding is not None:
            rep.extend(verify_quasitriangular(q, braiding_to_r(q)))
        reports.append([(c.name, c.residual, c.passed) for c in rep.checks])
        walks.append(None)  # the end of a budget's walks
    assert reports[0] == reports[1]
    small, large = walks.index(None), len(walks) - 1
    # at the small budget row 4's channel pairs ran in more chunks than at
    # the large one, where one chunk of each run took them all, and the
    # channels of rows 2, 3 and 6 ran in more than one chunk
    assert [n for row_4, n in walks[small + 1:large] if row_4] == [1, 1]
    assert sum(n for row_4, n in walks[:small] if row_4) > 2
    assert max(n for row_4, n in walks[:small] if not row_4) > 1


def test_sample_batches_bound_the_memory_of_verify_axioms():
    # the samples of a row run in groups within CHUNK_BYTES, so the peak
    # does not grow with the number of samples
    q = reconstruct(gen_suq2(0.9, 10))
    peaks = []
    for n in (16, 64):
        tracemalloc.start()
        try:
            verify_axioms(q, n_samples=n)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks


@pytest.mark.parametrize("L, n_samples", [(10, 16), (10, 192), (12, 64)],
                         ids=["16", "192", "L12-64"])
def test_verify_axioms_holds_the_chunk_budget(L, n_samples):
    # after a warm-up call has cached the certificate and the conjugate-pair
    # and Haar stacks, a row holds one group of its samples with their sums
    # and one chunk of pairs at a time, within CHUNK_BYTES (10.3 MiB at
    # L = 10 when a batch held every pair of a sample; 4.7 MiB at 192
    # samples when a row held all of its samples; 4.2 MiB at L = 12 with 64
    # samples when a group took half of the budget whatever its row held)
    q = reconstruct(gen_suq2(0.9, L))
    verify_axioms(q)
    tracemalloc.start()
    try:
        verify_axioms(q, n_samples=n_samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= CHUNK_BYTES, peak


@pytest.mark.parametrize("n_samples", [0, -1])
def test_a_check_without_samples_is_refused(shipped_aqgs, n_samples):
    # a sampled row with no samples is a check that cannot fail
    q = shipped_aqgs["pointed-z3-t1"]
    with pytest.raises(ValueError, match="must be at least 1"):
        verify_axioms(q, n_samples=n_samples)


def test_t_matrices_are_invertible_on_closed_bundles(closed_aqgs):
    for name, q in closed_aqgs.items():
        for which in ("t1", "t2"):
            m = t_matrix(q, which)
            s = np.linalg.svd(m, compute_uv=False)
            assert s[-1] > 1e-8, (name, which)


def test_modular_data(shipped_aqgs):
    for name in ("q8", "suq2-q0.5-L4"):
        q = shipped_aqgs[name]
        delta_mod, rho, mu = modular_data(q)
        assert abs(mu - 1.0) < 1e-8, name
        for i in q.labels:
            assert residual(delta_mod[i], q.Finv[i] @ q.Finv[i]) < 1e-8
            fi, fiinv = rho[i]
            assert residual(fi, q.F[i]) == 0.0 and residual(fiinv, q.Finv[i]) == 0.0


def test_element_algebra_is_associative_star_algebra(suq2_half, rng):
    q = suq2_half
    a, c, e = (random_element(q, rng) for _ in range(3))
    assert element_residual(q, a.mul(c).mul(e), a.mul(c.mul(e))) < 1e-10
    assert element_residual(q, a.mul(c).star(), c.star().mul(a.star())) < 1e-12
    one = identity(q)
    assert element_residual(q, one.mul(a), a) < 1e-12
    assert element_residual(q, a.mul(one), a) < 1e-12
