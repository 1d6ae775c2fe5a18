"""Deterministic generators of golden CategoryBundle data.

Three families are provided: categories of unitary representations of small
finite groups (with the symmetric flip braiding), pointed braided Z/n
categories with a bicharacter braiding, and truncation windows of the
SU_q(2) fusion category, built in the weight basis of U_q(su_2) from
q-Clebsch-Gordan coefficients (A. N. Kirillov and N. Yu. Reshetikhin,
"Representations of the algebra U_q(sl(2)), q-orthogonal polynomials and
invariants of links", 1989), at a cost polynomial in the truncation level.
Bad arguments raise BadPresentation.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .bundle import CategoryBundle
from .errors import BadPresentation
from .linalg import (
    DEFAULT_TOL,
    Array,
    Tolerance,
    cmat,
    dagger,
    eye,
    flip,
    kron,
    orthonormalize,
    residual,
    solve_intertwiners,
)


@dataclass
class GroupPresentation:
    """A finite group with its complete list of unitary irreps.

    table[g][h] is the index of gh; irreps[i][g] is the matrix of element g
    in the i-th irrep.  The first irrep must be trivial.
    """

    order: int
    table: list[list[int]]
    irreps: list[list[Array]]

    def identity(self) -> int:
        for e in range(self.order):
            if all(self.table[e][g] == g for g in range(self.order)):
                return e
        raise BadPresentation("no identity element")

    def inverse(self, g: int) -> int:
        e = self.identity()
        for h in range(self.order):
            if self.table[g][h] == e:
                return h
        raise BadPresentation(f"element {g} has no inverse")

    def verify(self, tol: Tolerance = DEFAULT_TOL) -> None:
        n = self.order
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise BadPresentation("table is not order x order")
        e = self.identity()
        for g in range(n):
            self.inverse(g)
        for g, h, k in itertools.product(range(n), repeat=3):
            if self.table[self.table[g][h]][k] != self.table[g][self.table[h][k]]:
                raise BadPresentation(f"associativity fails at ({g},{h},{k})")
        dims = [cmat(rep[0]).shape[0] for rep in self.irreps]
        if sum(d * d for d in dims) != n:
            raise BadPresentation("irrep dimensions do not satisfy sum d^2 = |G|")
        if dims[0] != 1 or any(residual(m, [[1.0]]) > tol.bound(1.0) for m in self.irreps[0]):
            raise BadPresentation("first irrep must be trivial")
        for idx, rep in enumerate(self.irreps):
            if len(rep) != n:
                raise BadPresentation(f"irrep {idx} not defined on every element")
            d = dims[idx]
            for g in range(n):
                m = cmat(rep[g])
                if residual(dagger(m) @ m, eye(d)) > tol.bound(1.0):
                    raise BadPresentation(f"irrep {idx} not unitary at element {g}")
                for h in range(n):
                    if residual(m @ rep[h], rep[self.table[g][h]]) > tol.bound(m):
                        raise BadPresentation(f"irrep {idx} not homomorphic at ({g},{h})")
            if residual(rep[e], eye(d)) > tol.bound(1.0):
                raise BadPresentation(f"irrep {idx} does not send identity to I")
        # character orthonormality certifies irreducibility and inequivalence
        chars = np.array(
            [[np.trace(cmat(rep[g])) for g in range(n)] for rep in self.irreps]
        )
        gram = chars @ dagger(chars) / n
        if residual(gram, eye(len(self.irreps))) > tol.bound(1.0):
            raise BadPresentation("characters are not orthonormal")


# ---------------------------------------------------------------------------
# built-in groups


def _zn_presentation(n: int) -> GroupPresentation:
    if n < 1:
        raise BadPresentation("cyclic order must be >= 1")
    omega = np.exp(2j * np.pi / n)
    table = [[(g + h) % n for h in range(n)] for g in range(n)]
    irreps = [[cmat([[omega ** (j * g)]]) for g in range(n)] for j in range(n)]
    return GroupPresentation(n, table, irreps)


def _s3_presentation() -> GroupPresentation:
    perms = [
        (0, 1, 2), (1, 2, 0), (2, 0, 1),  # rotations first, identity at 0
        (0, 2, 1), (2, 1, 0), (1, 0, 2),
    ]
    index = {p: i for i, p in enumerate(perms)}

    def compose(p, s):  # (p o s)(x) = p[s[x]]
        return tuple(p[s[x]] for x in range(3))

    table = [[index[compose(p, s)] for s in perms] for p in perms]
    sign = [1, 1, 1, -1, -1, -1]
    # standard rep: permutation action restricted to the sum-zero plane
    basis = np.array(
        [[1 / np.sqrt(2), 1 / np.sqrt(6)],
         [-1 / np.sqrt(2), 1 / np.sqrt(6)],
         [0.0, -2 / np.sqrt(6)]],
        dtype=complex,
    )
    std = []
    for p in perms:
        pm = np.zeros((3, 3), dtype=complex)
        for x in range(3):
            pm[p[x], x] = 1.0
        std.append(dagger(basis) @ pm @ basis)
    irreps = [
        [cmat([[1.0]]) for _ in perms],
        [cmat([[float(s)]]) for s in sign],
        std,
    ]
    return GroupPresentation(6, table, irreps)


def _table_from_matrices(mats: list[Array], tol=1e-9) -> list[list[int]]:
    n = len(mats)
    table = []
    for g in range(n):
        row = []
        for h in range(n):
            prod = mats[g] @ mats[h]
            hits = [k for k in range(n) if residual(prod, mats[k]) < tol]
            if len(hits) != 1:
                raise BadPresentation("generator matrices do not close into a group")
            row.append(hits[0])
        table.append(row)
    return table


def _d4_presentation() -> GroupPresentation:
    r = cmat([[0, -1], [1, 0]])
    s = cmat([[1, 0], [0, -1]])
    mats = [np.linalg.matrix_power(r, a) @ np.linalg.matrix_power(s, b)
            for b in range(2) for a in range(4)]
    table = _table_from_matrices(mats)
    # element index = a + 4b; one-dimensionals are (r,s) -> (x,y) signs
    ones = []
    for x, y in [(1, 1), (1, -1), (-1, 1), (-1, -1)]:
        ones.append([cmat([[float(x ** a * y ** b)]]) for b in range(2) for a in range(4)])
    return GroupPresentation(8, table, ones + [mats])


def _q8_presentation() -> GroupPresentation:
    i2 = cmat([[1j, 0], [0, -1j]])
    j2 = cmat([[0, -1], [1, 0]])
    names = []  # elements: (sign) * i^a j^b for a in 0..1... enumerate directly
    base = [eye(2), i2, j2, i2 @ j2]
    mats = [s * m for m in base for s in (1.0, -1.0)]
    table = _table_from_matrices(mats)
    # one-dimensionals factor through the quotient by {+1,-1}
    quotient_char = {0: (0, 0), 1: (1, 0), 2: (0, 1), 3: (1, 1)}
    ones = []
    for x, y in [(1, 1), (1, -1), (-1, 1), (-1, -1)]:
        rep = []
        for idx in range(8):
            a, b = quotient_char[idx // 2]
            rep.append(cmat([[float((x ** a) * (y ** b))]]))
        ones.append(rep)
    del names
    return GroupPresentation(8, table, ones + [mats])


_BUILTIN_GROUPS = {
    "s3": _s3_presentation,
    "d4": _d4_presentation,
    "q8": _q8_presentation,
}


def builtin_group(name: str) -> GroupPresentation:
    """Look up a built-in presentation: zn(n), s3, d4, q8."""
    key = name.strip().lower()
    if key.startswith("z") and key[1:].lstrip("/").isdigit():
        return _zn_presentation(int(key[1:].lstrip("/")))
    if key in _BUILTIN_GROUPS:
        return _BUILTIN_GROUPS[key]()
    raise BadPresentation(f"unknown builtin group {name!r}")


# ---------------------------------------------------------------------------
# finite-group bundles


def _isotypic_isometries(
    p: GroupPresentation, rep_big: list[Array], irrep: list[Array], dk: int,
    tol: Tolerance,
) -> list[Array]:
    """Orthonormal isometries C^dk -> big space intertwining irrep with rep_big.

    Group-averaged matrix-unit seeds span the intertwiner space; after
    Hilbert-Schmidt orthonormalization each T satisfies T*T = I/dk, so a
    final sqrt(dk) scaling makes every column family an isometry.
    """
    n = p.order
    dbig = rep_big[0].shape[0]
    inv = [p.inverse(g) for g in range(n)]
    seeds = []
    for a in range(min(dbig, dk * dbig)):
        for b in range(dk):
            seed = np.zeros((dbig, dk), dtype=complex)
            seed[a % dbig, b] = 1.0
            avg = sum(rep_big[g] @ seed @ irrep[inv[g]] for g in range(n)) / n
            if np.max(np.abs(avg)) > tol.absolute:
                seeds.append(avg.reshape(-1))
    basis = orthonormalize(seeds, tol)
    return [np.sqrt(dk) * v.reshape(dbig, dk) for v in basis]


def gen_finite_group(p: GroupPresentation | str) -> CategoryBundle:
    """CategoryBundle of the unitary representation category of a finite group.

    Labels are the irreps (trivial first); fusion isometries come from
    group-averaged intertwiner projections; conjugate vectors come from the
    unitary identifying the entrywise-conjugate irrep with a listed one; the
    symmetric braiding is the flip.
    """
    if isinstance(p, str):
        p = builtin_group(p)
    tol = DEFAULT_TOL
    p.verify(tol)
    n = p.order
    nlab = len(p.irreps)
    labels = [str(i) for i in range(nlab)]
    dims = {str(i): cmat(p.irreps[i][0]).shape[0] for i in range(nlab)}
    chars = np.array(
        [[complex(np.trace(cmat(rep[g]))) for g in range(n)] for rep in p.irreps]
    )

    def mult(char_prod: Array, k: int) -> int:
        return int(round(float((char_prod @ chars[k].conj()).real / n)))

    dual = {}
    for i in range(nlab):
        hits = [k for k in range(nlab) if residual(chars[k], chars[i].conj()) < 1e-8]
        if len(hits) != 1:
            raise BadPresentation(f"conjugate of irrep {i} is not a listed irrep")
        dual[str(i)] = str(hits[0])

    fusion: dict = {}
    for i in range(nlab):
        for j in range(nlab):
            big = [kron(p.irreps[i][g], p.irreps[j][g]) for g in range(n)]
            char_prod = chars[i] * chars[j]
            chans = {}
            for k in range(nlab):
                nijk = mult(char_prod, k)
                if nijk == 0:
                    continue
                isos = _isotypic_isometries(p, big, p.irreps[k], dims[str(k)], tol)
                if len(isos) != nijk:
                    raise BadPresentation(
                        f"intertwiner count mismatch at ({i},{j})->{k}"
                    )
                chans[str(k)] = isos
            if chans:
                fusion[(str(i), str(j))] = chans

    conj = {}
    for i in range(nlab):
        ib = int(dual[str(i)])
        di = dims[str(i)]
        src = {g: cmat(p.irreps[i][g]).conj() for g in range(n)}
        tgt = {g: cmat(p.irreps[ib][g]) for g in range(n)}
        basis = solve_intertwiners(src, tgt, tol)
        if len(basis) != 1:
            raise BadPresentation(f"conjugate identification of irrep {i} not unique")
        w = np.sqrt(di) * basis[0]  # unitary d_ib x d_i
        r = w.reshape(-1)  # row-major vec: r[p*di+m] = w[p,m]
        rbar = w.T.reshape(-1)
        conj[str(i)] = (r, rbar)

    braiding = {
        (str(i), str(j)): flip(dims[str(i)], dims[str(j)])
        for i in range(nlab)
        for j in range(nlab)
    }
    return CategoryBundle(
        labels=labels,
        unit="0",
        dims=dims,
        dual=dual,
        fusion=fusion,
        conj=conj,
        braiding=braiding,
        closed=True,
    )


# ---------------------------------------------------------------------------
# pointed Z/n bundles


def gen_pointed(n: int, t: int = 0) -> CategoryBundle:
    """Pointed category on Z/n with braiding from the bicharacter (j,k) -> w^{t j k}."""
    if n < 1:
        raise BadPresentation("n must be >= 1")
    omega = np.exp(2j * np.pi / n)
    labels = [str(j) for j in range(n)]
    one = cmat([[1.0]])
    fusion = {
        (str(j), str(k)): {str((j + k) % n): [one.copy()]}
        for j in range(n)
        for k in range(n)
    }
    conj = {str(j): (np.array([1.0 + 0j]), np.array([1.0 + 0j])) for j in range(n)}
    braiding = {
        (str(j), str(k)): cmat([[omega ** (t * j * k)]])
        for j in range(n)
        for k in range(n)
    }
    return CategoryBundle(
        labels=labels,
        unit="0",
        dims={str(j): 1 for j in range(n)},
        dual={str(j): str((-j) % n) for j in range(n)},
        fusion=fusion,
        conj=conj,
        braiding=braiding,
        closed=True,
    )


# ---------------------------------------------------------------------------
# SU_q(2) truncation in the weight basis


def _qint(m: int, q: float) -> float:
    if q == 1.0:
        return float(m)
    return (q**m - q**-m) / (q - 1.0 / q)


def _lowering(n: int, q: float) -> tuple[Array, Array]:
    """F and K of U_q(su_2) on label n, in the basis e_n, e_{n-2}, ..., e_{-n}.

    K e_m = q^(m/2) e_m and F e_m = sqrt([(n+m)/2]_q [(n-m)/2+1]_q) e_{m-2};
    E is the transpose of F.  Returns the n weights of F (in basis order,
    each taking e_m to e_{m-2}) and the diagonal of K.
    """
    m = np.arange(n, -n - 1, -2)
    f = np.sqrt([_qint((n + a) // 2, q) * _qint((n - a) // 2 + 1, q) for a in m[:-1]])
    return f, q ** (m / 2.0)


def _weight_isometries(i: int, j: int, ops: list, L: int) -> dict[int, Array]:
    """The isometries C^(k+1) -> C^(i+1) (x) C^(j+1), k <= L, of the channels of i (x) j.

    The weights m of i (x) j are walked from i+j down.  At each weight the
    previous columns are lowered with Delta(F) = F (x) K + K^-1 (x) F, ordered
    by decreasing channel k, and a complete QR of the weight space makes them
    orthonormal again (signs fixed by diag(R)); a leftover column is the
    highest weight vector of the new channel k = m.  Delta(E) kills it, so its
    entries alternate in sign along the weight space; its sign is fixed so
    that the e_i (x) e_(m-i) entry is positive, read off the largest entry
    (the first one can underflow: 1.9e-13 at q = 1/2, L = 12).  The QR
    matters: lowering with a normalisation alone lets roundoff of the high
    channels leak into the low ones, which grows with L.
    """
    (fi, ki), (fj, kj) = ops[i], ops[j]
    # Delta(F) lowers one factor by one step: F (x) K on the left, K^-1 (x) F on the right
    left, right = fi[:, None, None] * kj[None, :, None], fj[None, :, None] / ki[:, None, None]
    weight = np.add.outer(np.arange(i, -i - 1, -2), np.arange(j, -j - 1, -2)).reshape(-1)
    cols: dict[int, list[Array]] = {}
    vecs, ks = np.zeros((weight.size, 0)), []
    for m in range(i + j, -i - j - 1, -2):
        rows = np.flatnonzero(weight == m)
        alive = [n for n, k in enumerate(ks) if k >= -m]
        ks = [ks[n] for n in alive]
        v = vecs[:, alive].reshape(i + 1, j + 1, -1)
        low = np.zeros_like(v)
        low[1:] += left * v[:-1]
        low[:, 1:] += right * v[:, :-1]
        Q, R = np.linalg.qr(low.reshape(weight.size, -1)[rows], mode="complete")
        Q[:, :len(ks)] *= np.sign(np.diag(R))
        if rows.size > len(ks):
            t = np.argmax(np.abs(Q[:, -1]))
            Q[:, -1] *= (-1) ** t * np.sign(Q[t, -1])
            ks.append(m)
        vecs = np.zeros((weight.size, len(ks)))
        vecs[rows] = Q
        for k, col in zip(ks, vecs.T):
            cols.setdefault(k, []).append(col)
    return {k: np.array(cols[k]).T.astype(complex) for k in sorted(cols) if k <= L}


def gen_suq2(q: float, L: int) -> CategoryBundle:
    """Truncation window of the SU_q(2) fusion category, labels spin 0..L/2.

    Label n is the irrep C^(n+1) of U_q(su_2) in its weight basis e_n, e_{n-2},
    ..., e_{-n}.  The fusion isometries are q-Clebsch-Gordan coefficients,
    found by lowering highest weight vectors with Delta(F) (see
    `_weight_isometries`); for real q every one is a real orthogonal map.  The
    conjugate pair of label n comes from the invariant vector of the channel
    (n, n) -> 0, rebalanced so the conjugate equations hold to machine
    precision; F_n is then K_n^2 = diag(q^n, q^(n-2), ..., q^-n).
    The bundle declares the weights n, n-2, ..., -n of each basis: every
    q-Clebsch-Gordan map conserves them.  Every array is of size polynomial
    in L.
    """
    if not (0 < q <= 1):
        raise BadPresentation("q must lie in (0, 1]")
    if L < 1:
        raise BadPresentation("L must be >= 1")
    ops = [_lowering(n, q) for n in range(L + 1)]
    labels = [str(n) for n in range(L + 1)]
    dims = {str(n): n + 1 for n in range(L + 1)}

    fusion = {
        (str(i), str(j)): {str(k): [v] for k, v in _weight_isometries(i, j, ops, L).items()}
        for i in range(L + 1)
        for j in range(L + 1)
    }

    conj = {"0": (np.array([1.0 + 0j]), np.array([1.0 + 0j]))}
    for n in range(1, L + 1):
        d = n + 1
        rbm = fusion[(str(n), str(n))]["0"][0].reshape(d, d)  # candidate rbar as a matrix
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
        weights={str(n): list(range(n, -n - 1, -2)) for n in range(L + 1)},
    )
