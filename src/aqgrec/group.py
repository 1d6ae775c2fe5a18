"""Intrinsic group recovery.

The intrinsic group is the set of grouplike unitary multipliers g with
Delta(g) = g (x) g.  At finite scale these are in bijection with the
*-characters of the dual Hopf *-algebra, which are found by plain linear
algebra: quotient the dual by its commutator ideal and diagonalize.  For a
bundle generated from a finite group this recovers the group, its table,
and its irreducible representations.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .aqg import Aqg, unit_index
from .document import require_group
from .dual import TableHopf, dual_table, table_from_aqg
from .linalg import DEFAULT_TOL, Array, Normals, Tolerance, dagger, eye, residual, worst
from .report import Report


class DegenerateSpectrum(RuntimeError):
    pass


@dataclass
class Grouplike:
    """A grouplike unitary of A, carried as its coefficient vector on the
    matrix-unit basis together with the dual character it evaluates to."""

    coeffs: Array
    character: Array  # chi[u] = omega_u(g)


@dataclass
class IntrinsicGroup:
    order: int
    elements: list[Grouplike]
    table: Array  # table[a,b] = index of the product
    identity: int  # -1 when no grouplike was found

    def element_order(self, a: int) -> int:
        return element_order(self.table, self.identity, a)

    def export(self) -> dict:
        return {
            "order": self.order,
            "identity": self.identity,
            "table": self.table.tolist(),
            "element_orders": [self.element_order(a) for a in range(self.order)],
        }


def element_order(table: Array, ident: int, a: int) -> int:
    """Order of element a in the group with this table and identity."""
    x, n = a, 1
    while x != ident:
        x = int(table[x, a])
        n += 1
    return n


def _ideal_complement(T: TableHopf, tol: Tolerance) -> Array:
    """Orthonormal basis (columns) of a complement of the commutator ideal.

    The ideal is A C A, C spanned by the commutators e_u e_v - e_v e_u (rows
    of coefficients).  It is built in three row-space reductions: C, then
    A C, then (A C) A, each an SVD of at most N^2 rows that keeps the rows
    above the cutoff.  The complement is the nullspace of the last one.
    """
    N = T.dim

    def reduce(rows):
        _, svals, vh = np.linalg.svd(rows, full_matrices=False)
        top = float(svals[0]) if len(svals) and svals[0] > 1.0 else 1.0
        return vh, int(np.sum(svals > tol.absolute * top * N))

    vh, rank = reduce((T.mult - np.swapaxes(T.mult, 0, 1)).reshape(N * N, N))
    if rank == 0:  # commutative: the ideal is zero
        return eye(N)
    # A C has at least N rows, so from here on vh is N x N
    vh, rank = reduce(np.einsum("aws,kw->kas", T.mult, vh[:rank]).reshape(-1, N))
    vh, rank = reduce(np.einsum("kw,wbt->kbt", vh[:rank], T.mult).reshape(-1, N))
    return vh[rank:].conj().T  # N x (N - rank)


def characters(T: TableHopf, tol: Tolerance = DEFAULT_TOL,
               seed: int = 42) -> list[Array]:
    """All unital algebra characters of T, as value vectors on the basis.

    Works through the abelianization: quotient by the commutator ideal,
    then simultaneous diagonalization of left multiplication by a generic
    element, reading each character off the diagonalized generators.
    """
    N = T.dim
    C = _ideal_complement(T, tol)
    k = C.shape[1]
    if k == 0:
        return []
    # left multiplication by e_u on the quotient
    Lq = np.einsum("xw,uwt,ty->uxy", dagger(C), T.mult, C, optimize=True)
    rng = Normals(seed)
    for _ in range(16):
        z = rng.standard_normal(N)
        evals, W = np.linalg.eig(np.einsum("u,uxy->xy", z, Lq))
        gap = float(np.min(np.abs(evals[:, None] - evals[None, :])
                           + np.eye(k) * 1e9))
        if gap > 1e-6 and np.linalg.cond(W) < 1e8:
            break
    else:
        raise DegenerateSpectrum("could not split the abelianization spectrum")
    Winv = np.linalg.inv(W)
    diag = np.einsum("xy,uyz,zx->ux", Winv, Lq, W, optimize=True)
    chars = []
    for m in range(k):
        chi = diag[:, m]
        if abs(np.dot(T.unit, chi) - 1.0) < 1e-6:
            chars.append(chi)
    return chars


def products(T: TableHopf, x: Array, y: Array) -> Array:
    """T.product(x[..], y[..]) over broadcast stacks of coefficient vectors:
    one tensordot of x with the table, then one stacked matmul."""
    return np.matmul(y[..., None, :], np.tensordot(x, T.mult, axes=([-1], [0])))[..., 0, :]


def verify_grouplike(T: TableHopf, g: Grouplike, units: Array, path,
                     tol: Tolerance = DEFAULT_TOL) -> Report:
    """The grouplike invariants, on the algebra's own tables.  units holds
    the products g* g and g g*, and path the einsum path of Delta(g)."""
    rep = Report("grouplike")
    c = g.coeffs
    lhs = np.einsum("u,uab->ab", c, T.comult, optimize=path)
    res = residual(lhs, np.outer(c, c))
    rep.add("comult", "Delta(g) = g (x) g", res, res <= tol.bound(lhs) * 1000)
    res = abs(T.counit_of(c) - 1.0)
    rep.add("counit", "eps(g) = 1", res, res <= tol.bound(1.0) * 1000)
    res = residual(T.antipode_of(c), T.star_of(c))
    rep.add("antipode", "S(g) = g*", res, res <= tol.bound(1.0) * 1000)
    res = worst(residual(units[0], T.unit), residual(units[1], T.unit))
    rep.add("unitary", "g* g = g g* = 1", res, res <= tol.bound(1.0) * 1000)
    return rep


def grouplikes(q: Aqg, tol: Tolerance = DEFAULT_TOL, seed: int = 42):
    """Recover the intrinsic group from the dual's characters.

    Each *-character chi of the dual determines a grouplike g through
    omega(g) = chi(omega); returns (IntrinsicGroup, T, Td, Report).
    """
    require_group(q.bundle.closed)
    T = table_from_aqg(q)
    Td = dual_table(T)
    P = T.pairing()
    chars = characters(Td, tol, seed)
    elements = [Grouplike(np.linalg.solve(P.T, chi), chi) for chi in chars]
    n = len(elements)
    C = np.array([g.coeffs for g in elements]).reshape(n, T.dim)
    S = np.array([T.star_of(c) for c in C]).reshape(n, T.dim)
    units = np.stack([products(T, S, C), products(T, C, S)], axis=1)
    path = np.einsum_path("u,uab->ab", T.unit, T.comult, optimize=True)[0]
    rep = Report("intrinsic-group")
    each = Report("grouplike-all")
    for g, u in zip(elements, units):
        each.extend(verify_grouplike(T, g, u, path, tol))
    # with no element these two rows hold vacuously, so they are skipped
    if n:
        rep.add("grouplike-axioms", f"{n} elements", each.max_residual, each.passed)
    else:
        rep.skip("grouplike-axioms", "0 elements")

    # each product matched to its nearest element, one row a of the table
    # at a time, so that the distances take n^2 N numbers
    prods = products(T, C[:, None], C[None])
    table = np.zeros((n, n), dtype=int)
    match = np.zeros((n, n))
    for a in range(n):
        dists = np.max(np.abs(prods[a][:, None] - C[None]), axis=-1)
        table[a] = np.argmin(dists, axis=1)
        match[a] = dists.min(axis=1)
    match_res = worst(match)
    if n:
        rep.add("closed-under-product", "multiplier products", match_res,
                match_res <= tol.bound(1.0) * 1e4)
    else:
        rep.skip("closed-under-product", "multiplier products")

    # the element nearest the unit; an empty group has none, at distance inf
    dists = np.max(np.abs(C - T.unit), axis=1)
    ident = int(np.argmin(dists)) if n else -1
    ident_res = float(dists[ident]) if n else math.inf
    rep.add("identity", "the unit is grouplike", ident_res,
            ident_res <= tol.bound(1.0) * 1e4)

    latin = (np.sort(table, axis=0) == np.arange(n)[:, None]).all() and (
        np.sort(table, axis=1) == np.arange(n)).all()
    assoc = (table[table] == table[np.arange(n)[:, None, None], table[None]]).all()
    rep.add("group-axioms", "cancellation and associativity", 0.0,
            bool(n > 0 and latin and assoc))
    group = IntrinsicGroup(n, elements, table, ident)
    return group, T, Td, rep


def group_block(q: Aqg, g: Grouplike, label: str) -> Array:
    """The block of the grouplike multiplier on H_label."""
    return g.coeffs[unit_index(q, label)]


def cocommutative_check(q: Aqg, T: TableHopf, group: IntrinsicGroup,
                        grep: Report, tol: Tolerance = DEFAULT_TOL):
    """Detect the group case: cocommutative coproduct and grouplike blocks
    spanning every B(H_i).  T, group and grep are the tables, intrinsic group
    and report that grouplikes returned.  Returns (bool, Report)."""
    rep = Report("cocommutative")
    ok, res = T.cocommutative(tol)
    rep.add("comult-symmetric", "all basis elements", res, ok)
    if ok:
        rep.add("intrinsic-group-valid", f"order {group.order}",
                grep.max_residual, grep.passed)
        spanned = group.order > 0
        for i in q.labels if spanned else []:
            d = q.d(i)
            span = np.stack([
                group_block(q, g, i).reshape(-1) for g in group.elements
            ])
            svals = np.linalg.svd(span, compute_uv=False)
            rank = int(np.sum(svals > tol.absolute * max(1.0, float(svals[0]))))
            if rank != d * d:
                spanned = False
        rep.add("blocks-spanned", "grouplikes span each B(H_i)", 0.0, spanned)
    return rep.passed, rep
