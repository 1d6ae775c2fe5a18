import math
import tracemalloc

import numpy as np
import pytest

from aqgrec.aqg import f_element
from aqgrec.bundle import CategoryBundle
from aqgrec.examples import (
    BadPresentation,
    _qint,
    builtin_group,
    gen_finite_group,
    gen_pointed,
    gen_suq2,
)
from aqgrec.linalg import (
    Array,
    dagger,
    eye,
    kron,
    residual,
    worst,
)


# ---------------------------------------------------------------------------
# the Temperley-Lieb construction of SU_q(2) windows: the oracle for gen_suq2


def _fund_cup(q: float) -> Array:
    # single-strand cup; the induced J*J on C^2 has spectrum {q, 1/q}
    v = np.zeros(4, dtype=complex)
    v[1] = 1j * np.sqrt(q)
    v[2] = -1j / np.sqrt(q)
    return v


def _nested_cup(c: int, q: float) -> Array:
    """The c-fold nested cup vector in (C^2)^(2c)."""
    v1 = _fund_cup(q)
    v = v1
    for _ in range(c - 1):
        v = (kron(eye(2), kron(v.reshape(-1, 1), eye(2))) @ v1.reshape(4, 1)).reshape(-1)
    return v


def _jones_wenzl(nmax: int, q: float) -> list[Array]:
    """Jones-Wenzl projectors p_1..p_nmax on tensor powers of C^2."""
    cup = _fund_cup(q)
    u = np.outer(cup, cup.conj())  # U^2 = [2]_q U, Hermitian
    projs = [eye(2)]
    for n in range(1, nmax):
        qn, qn1 = _qint(n, q), _qint(n + 1, q)
        assert abs(qn1) >= 1e-12, f"[{n + 1}]_q vanishes at q={q}"
        pn = projs[-1]
        big = kron(pn, eye(2))
        un = kron(eye(2 ** (n - 1)), u)
        projs.append(big - (qn / qn1) * (big @ un @ big))
    return projs


def gen_suq2_tl(q: float, L: int) -> CategoryBundle:
    """Truncation window of the SU_q(2) fusion category, labels spin 0..L/2.

    Label n is the range of the Jones-Wenzl projector p_n inside (C^2)^(x n),
    carried to C^(n+1) by an explicit isometry; fusion isometries are
    compressed nested-cup insertions; the conjugate pair per label comes from
    the n-fold nested cup, rebalanced so the conjugate equations hold to
    machine precision.  Its arrays are of size 2^L.
    """
    if not (0 < q <= 1):
        raise ValueError("q must lie in (0, 1]")
    if L < 1:
        raise ValueError("L must be >= 1")
    projs = _jones_wenzl(L, q)

    # isometry iota_n : C^(n+1) -> (C^2)^(x n) onto the projector range
    iotas: list[Array] = [np.ones((1, 1), dtype=complex)]  # n = 0: empty word
    for n in range(1, L + 1):
        pn = projs[n - 1]
        evals, evecs = np.linalg.eigh((pn + dagger(pn)) / 2.0)
        keep = evals > 0.5
        assert int(np.sum(keep)) == n + 1, (
            f"projector p_{n} has rank {int(np.sum(keep))}, expected {n + 1}"
        )
        iotas.append(evecs[:, keep])

    labels = [str(n) for n in range(L + 1)]
    dims = {str(n): n + 1 for n in range(L + 1)}

    fusion: dict = {}
    for i in range(L + 1):
        for j in range(L + 1):
            chans = {}
            for k in range(abs(i - j), min(i + j, L) + 1, 2):
                c = (i + j - k) // 2
                if c == 0:
                    m = eye(2**k)
                else:
                    m = kron(
                        eye(2 ** (i - c)),
                        kron(_nested_cup(c, q).reshape(-1, 1), eye(2 ** (j - c))),
                    )
                raw = dagger(kron(iotas[i], iotas[j])) @ m @ iotas[k]
                gram = dagger(raw) @ raw
                assert np.max(np.abs(gram)) >= 1e-12, f"fusion channel ({i},{j})->{k} collapses"
                evals, evecs = np.linalg.eigh((gram + dagger(gram)) / 2.0)
                v = raw @ ((evecs * (1.0 / np.sqrt(evals))) @ dagger(evecs))
                chans[str(k)] = [v]
            if chans:
                fusion[(str(i), str(j))] = chans

    conj = {"0": (np.array([1.0 + 0j]), np.array([1.0 + 0j]))}
    for n in range(1, L + 1):
        d = n + 1
        raw = (dagger(kron(iotas[n], iotas[n])) @ _nested_cup(n, q).reshape(-1, 1)).reshape(-1)
        rbm = raw.reshape(d, d)  # candidate rbar as a matrix
        rm = np.linalg.inv(rbm.conj())  # exact partner matrix
        # rebalance so that r*r = rbar*rbar
        ratio = np.linalg.norm(rm) / np.linalg.norm(rbm)
        t = np.sqrt(ratio)
        rbm, rm = t * rbm, rm / t
        conj[str(n)] = (rm.reshape(-1), rbm.reshape(-1))

    return CategoryBundle(
        labels=labels,
        unit="0",
        dims=dims,
        dual={str(n): str(n) for n in range(L + 1)},
        fusion=fusion,
        conj=conj,
        braiding=None,
        closed=False,
    )


def six_j(b: CategoryBundle) -> tuple[dict, float]:
    """The recoupling scalars of a multiplicity-free bundle, and how far the
    recoupling maps are from scalars.

    For every admissible (i,j,k -> m), U_n = (v_ij^n (x) I_k) v_nk^m and
    W_l = (I_i (x) v_jk^l) v_il^m are the two bracketings of H_m inside
    H_i (x) H_j (x) H_k; W_l* U_n intertwines H_m with itself, so it is M_ln I.
    Returns {(i, j, k, m, l, n): M_ln} and the largest entry of W_l* U_n - M_ln I.
    """
    def iso(i, j, k):
        chans = b.fusion.get((i, j), {})
        return chans[k][0] if k in chans else None

    out, devs = {}, []
    for i in b.labels:
        for j in b.labels:
            for k in b.labels:
                for m in b.labels:
                    di, dj, dk, dm = b.d(i), b.d(j), b.d(k), b.d(m)
                    us = {}
                    for n in b.labels:
                        a, c = iso(i, j, n), iso(n, k, m)
                        if a is not None and c is not None:
                            u = np.einsum("an,nkm->akm", a, c.reshape(b.d(n), dk, dm))
                            us[n] = u.reshape(di * dj * dk, dm)
                    for l in b.labels:
                        a, c = iso(j, k, l), iso(i, l, m)
                        if a is None or c is None:
                            continue
                        w = np.einsum("bl,ilm->ibm", a, c.reshape(di, b.d(l), dm))
                        w = w.reshape(di * dj * dk, dm)
                        for n, u in us.items():
                            mat = dagger(w) @ u
                            s = np.trace(mat) / dm
                            out[(i, j, k, m, l, n)] = s
                            devs.append(np.max(np.abs(mat - s * np.eye(dm))))
    return out, worst(devs)


def _trace_f(b, i):
    """Tr F_i computed straight from the conjugate pair of label i."""
    r, _ = b.conj[i]
    rm = r.reshape(b.d(b.dual[i]), b.d(i))
    return float(np.trace(np.linalg.inv(rm.T @ rm.conj())).real)


GROUP_ORDERS = {"z2": 2, "z5": 5, "s3": 6, "d4": 8, "q8": 8}


def test_builtin_presentations_verify():
    for name, order in GROUP_ORDERS.items():
        p = builtin_group(name)
        p.verify()
        assert p.order == order
        assert sum(np.asarray(rep[0]).shape[0] ** 2 for rep in p.irreps) == order


def test_builtin_group_rejects_unknown():
    with pytest.raises(BadPresentation):
        builtin_group("monster")


def test_group_bundle_dims_follow_irreps(group_bundles):
    for name, order in GROUP_ORDERS.items():
        b = group_bundles[name]
        assert sum(b.d(i) ** 2 for i in b.labels) == order
        assert b.closed
        # group categories are integral: every J*J is the identity
        for i in b.labels:
            assert abs(_trace_f(b, i) - b.d(i)) < 1e-9, (name, i)


def test_group_bundle_fusion_matches_characters():
    p = builtin_group("s3")
    b = gen_finite_group(p)
    chars = np.array(
        [[np.trace(np.asarray(rep[g])) for g in range(p.order)] for rep in p.irreps]
    )
    for a, i in enumerate(b.labels):
        for c, j in enumerate(b.labels):
            prod = chars[a] * chars[c]
            for e, k in enumerate(b.labels):
                mult = int(round((prod @ chars[e].conj()).real / p.order))
                assert len(b.isometries(i, j, k)) == mult


def test_gen_finite_group_accepts_name():
    b = gen_finite_group("z3")
    assert len(b.labels) == 3
    assert all(b.d(i) == 1 for i in b.labels)


def test_pointed_bundle_structure():
    for n in (2, 3, 5):
        b = gen_pointed(n, 1)
        assert len(b.labels) == n and b.unit == "0"
        assert all(b.d(i) == 1 for i in b.labels)
        w = np.exp(2j * np.pi / n)
        for j in range(n):
            for k in range(n):
                assert len(b.isometries(str(j), str(k), str((j + k) % n))) == 1
                c = b.braiding[(str(j), str(k))][0, 0]
                assert abs(c - w ** (j * k)) < 1e-12
        assert b.dual["1"] == str(n - 1)


def test_pointed_trivial_twist_has_trivial_braiding():
    b = gen_pointed(4, 0)
    for blk in b.braiding.values():
        assert residual(blk, np.eye(1)) == 0.0


def test_suq2_window_shape():
    for q in (1.0, 0.5):
        b = gen_suq2(q, 4)
        assert b.labels == ["0", "1", "2", "3", "4"]
        assert [b.d(i) for i in b.labels] == [1, 2, 3, 4, 5]
        assert not b.closed
        assert all(b.dual[i] == i for i in b.labels)
        # Clebsch-Gordan ladder: n (x) m contains |n-m| .. n+m step 2
        for n in range(5):
            for m in range(5):
                for k in range(5):
                    want = 1 if (abs(n - m) <= k <= n + m and (n + m - k) % 2 == 0) else 0
                    assert len(b.isometries(str(n), str(m), str(k))) == want


def test_suq2_quantum_dimensions_are_q_integers():
    q = 0.5
    b = gen_suq2(q, 4)
    for n in range(5):
        qint = (q ** (n + 1) - q ** (-(n + 1))) / (q - 1 / q)
        assert abs(_trace_f(b, str(n)) - qint) < 1e-9
    # spot values at q = 1/2
    assert abs(_trace_f(b, "1") - 2.5) < 1e-12
    assert abs(_trace_f(b, "2") - 5.25) < 1e-12
    assert abs(_trace_f(b, "3") - 10.625) < 1e-12


def test_suq2_fundamental_metric_spectrum():
    q = 0.5
    b = gen_suq2(q, 2)
    r, _ = b.conj["1"]
    jj = r.reshape(2, 2).T @ r.reshape(2, 2).conj()
    ev = sorted(np.linalg.eigvalsh(jj).real)
    assert abs(ev[0] - q) < 1e-10 and abs(ev[1] - 1 / q) < 1e-10


def test_suq2_classical_limit_is_integral():
    b = gen_suq2(1.0, 3)
    for i in b.labels:
        assert abs(_trace_f(b, i) - b.d(i)) < 1e-9


def test_generator_input_validation():
    for q in (1.5, 0.0, float("nan")):
        with pytest.raises(BadPresentation):
            gen_suq2(q, 3)
    with pytest.raises(BadPresentation):
        gen_suq2(0.5, 0)
    with pytest.raises(BadPresentation):
        gen_pointed(0)


@pytest.mark.parametrize("q,L", [(0.5, 4), (1.0, 5), (0.5, 1)])
def test_suq2_matches_the_temperley_lieb_oracle(q, L):
    """Gauge invariants agree: fusion rules, dims, the spectra of F_n and |6j|.

    At q = 1/2 the oracle's own F_5 is off its closed form by 1.2e-13
    relative (3.7e-12 absolute; the weight basis: 8.9e-16), so the q = 1/2
    comparison stops at L = 4."""
    new, old = gen_suq2(q, L), gen_suq2_tl(q, L)
    assert new.labels == old.labels and new.dims == old.dims and new.dual == old.dual
    assert {p: list(c) for p, c in new.fusion.items()} == {p: list(c) for p, c in old.fusion.items()}
    f_new, f_old = f_element(new)[0], f_element(old)[0]
    for i in new.labels:
        assert np.allclose(np.linalg.eigvalsh(f_new[i]), np.linalg.eigvalsh(f_old[i]),
                           rtol=0, atol=1e-13), i
    sj_new, worst_new = six_j(new)
    sj_old, worst_old = six_j(old)
    assert set(sj_new) == set(sj_old)
    assert max(abs(abs(sj_new[k]) - abs(sj_old[k])) for k in sj_new) <= 1e-14
    assert worst_new <= 1e-14 and worst_old <= 1e-14


def test_suq2_six_j_quadruple_count():
    # every admissible (i,j,k -> m) of the L=4 window
    sj, _ = six_j(gen_suq2(0.5, 4))
    assert len({key[:4] for key in sj}) == 269


def _qfact(n: int, q: float) -> float:
    return math.prod(_qint(x, q) for x in range(1, n + 1))


def _triangle(a: int, b: int, c: int, q: float) -> float:
    """Delta(a, b, c) of the q-Racah formula, in doubled spins."""
    return math.sqrt(_qfact((a + b - c) // 2, q) * _qfact((a - b + c) // 2, q)
                     * _qfact((b + c - a) // 2, q) / _qfact((a + b + c) // 2 + 1, q))


def q_racah(j1, j2, j3, j4, j5, j6, q: float) -> float:
    """The q-6j symbol {j1 j2 j3; j4 j5 j6}_q in doubled spins, by the
    q-Racah formula (Kirillov-Reshetikhin 1989), with [x]_q as in _qint."""
    tri = [j1 + j2 + j3, j1 + j5 + j6, j4 + j2 + j6, j4 + j5 + j3]
    quad = [j1 + j2 + j4 + j5, j2 + j3 + j5 + j6, j3 + j1 + j6 + j4]
    total = sum(
        (-1) ** z * _qfact(z + 1, q)
        / math.prod(_qfact(z - t // 2, q) for t in tri)
        / math.prod(_qfact(u // 2 - z, q) for u in quad)
        for z in range(max(tri) // 2, min(quad) // 2 + 1)
    )
    return total * math.prod(_triangle(*t, q) for t in [(j1, j2, j3), (j1, j5, j6),
                                                         (j4, j2, j6), (j4, j5, j3)])


@pytest.mark.parametrize("q", [0.5, 0.9, 1.0])
def test_fmove_certificate_matches_q_racah(q):
    """The F-matrices of the layout's F-move certificate at L=4: left path
    a (i (x) j -> a) and right path c (j (x) k -> c) of (i,j,k -> m) give
    |M[c, a]| = sqrt([a+1]_q [c+1]_q) |{i j a; k m c}_q|, and M[c, a] is the
    recoupling scalar of six_j."""
    b = gen_suq2(q, 4)
    _, quads, res, fmats = b.layout.fmoves
    sj, _ = six_j(b)
    entries = 0
    for (i, j, k, m), f in zip(quads, fmats):
        i, j, k, m = map(int, (i, j, k, m))
        left = [a for a in range(5)
                if b.isometries(str(i), str(j), str(a)) and b.isometries(str(a), str(k), str(m))]
        right = [c for c in range(5)
                 if b.isometries(str(j), str(k), str(c)) and b.isometries(str(i), str(c), str(m))]
        assert f.shape == (len(right), len(left))
        for r, c in enumerate(right):
            for t, a in enumerate(left):
                want = math.sqrt(_qint(a + 1, q) * _qint(c + 1, q)) * abs(q_racah(i, j, a, k, m, c, q))
                assert abs(abs(f[r, t]) - want) <= 1e-14, (i, j, k, m, c, a)
                assert abs(f[r, t] - sj[tuple(map(str, (i, j, k, m, c, a)))]) <= 1e-14
                entries += 1
    assert entries == 174 and max(res) <= 1e-14


@pytest.mark.parametrize("q,L", [(0.5, 6), (0.9, 6), (1.0, 6), (0.5, 16)],
                         ids=["0.5", "0.9", "1.0", "0.5-L16"])
def test_suq2_f_is_k_squared(q, L):
    """In the weight basis F_n = K_n^2 = diag(q^n, q^(n-2), ..., q^-n), so
    Tr F_n = [n+1]_q.  At q = 0.5, L = 16 J*J has condition number 2^32;
    F_n = Rbar Rbar* reaches it without an inverse."""
    F, _ = f_element(gen_suq2(q, L))
    for n in range(L + 1):
        f = F[str(n)]
        want = q ** np.arange(n, -n - 1, -2, dtype=float)
        assert np.array_equal(f, np.diag(np.diag(f))), n
        assert np.allclose(np.diag(f).real, want, rtol=1e-13, atol=0), n
        assert abs(np.trace(f).real - _qint(n + 1, q)) <= 1e-13 * _qint(n + 1, q)


def test_suq2_isometries_are_real():
    for chans in gen_suq2(0.5, 5).fusion.values():
        for (v,) in chans.values():
            assert not np.any(v.imag)


def test_suq2_intertwining_certificate_at_l8():
    """Every recoupling map W_l* U_n of the L=8 window is a multiple of the
    identity to 1e-14; lowering with a normalisation alone (no QR) reads
    8.0e-13."""
    _, dev = six_j(gen_suq2(0.5, 8))
    assert dev <= 1e-14


def test_suq2_generator_memory():
    # the Temperley-Lieb construction peaks at 421 MiB here
    tracemalloc.start()
    try:
        gen_suq2(0.5, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
