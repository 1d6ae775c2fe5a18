"""Intrinsic group recovery.

The intrinsic group is the set of grouplike unitary multipliers g with
Delta(g) = g (x) g.  At finite scale these are in bijection with the
*-characters of the dual Hopf *-algebra, which are found by plain linear
algebra: quotient the dual by its commutator ideal and diagonalize.  For a
bundle generated from a finite group this recovers the group, its table,
and its irreducible representations.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aqg import Aqg, NotFinite, unit_index
from .bundle import CategoryBundle
from .dual import TableHopf, dual_table, table_from_aqg
from .linalg import DEFAULT_TOL, Array, Tolerance, dagger, eye, residual, worst
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
    identity: int

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
    rng = np.random.default_rng(seed)
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


def verify_grouplike(T: TableHopf, g: Grouplike,
                     tol: Tolerance = DEFAULT_TOL) -> Report:
    """The grouplike invariants, on the algebra's own tables."""
    rep = Report("grouplike")
    c = g.coeffs
    lhs = np.einsum("u,uab->ab", c, T.comult, optimize=True)
    res = residual(lhs, np.outer(c, c))
    rep.add("comult", "Delta(g) = g (x) g", res, res <= tol.bound(lhs) * 1000)
    res = abs(T.counit_of(c) - 1.0)
    rep.add("counit", "eps(g) = 1", res, res <= tol.bound(1.0) * 1000)
    res = residual(T.antipode_of(c), T.star_of(c))
    rep.add("antipode", "S(g) = g*", res, res <= tol.bound(1.0) * 1000)
    res = worst(residual(T.product(T.star_of(c), c), T.unit),
                residual(T.product(c, T.star_of(c)), T.unit))
    rep.add("unitary", "g* g = g g* = 1", res, res <= tol.bound(1.0) * 1000)
    return rep


def require_closed(b: CategoryBundle) -> None:
    """Refuse a window: the intrinsic group needs all of A."""
    if not b.closed:
        raise NotFinite("intrinsic group requires a closed bundle")


def grouplikes(q: Aqg, tol: Tolerance = DEFAULT_TOL, seed: int = 42):
    """Recover the intrinsic group from the dual's characters.

    Each *-character chi of the dual determines a grouplike g through
    omega(g) = chi(omega); returns (IntrinsicGroup, T, Td, Report).
    """
    require_closed(q.bundle)
    T = table_from_aqg(q)
    Td = dual_table(T)
    P = T.pairing()
    chars = characters(Td, tol, seed)
    elements = [Grouplike(np.linalg.solve(P.T, chi), chi) for chi in chars]
    rep = Report("intrinsic-group")
    each = Report("grouplike-all")
    for g in elements:
        each.extend(verify_grouplike(T, g, tol))
    rep.add("grouplike-axioms", f"{len(elements)} elements",
            each.max_residual, each.passed)

    n = len(elements)
    table = -np.ones((n, n), dtype=int)
    match = []
    for a in range(n):
        for b in range(n):
            prod = T.product(elements[a].coeffs, elements[b].coeffs)
            dists = [float(np.max(np.abs(prod - e.coeffs))) for e in elements]
            c = int(np.argmin(dists))
            table[a, b] = c
            match.append(dists[c])
    match_res = worst(*match)
    rep.add("closed-under-product", "multiplier products", match_res,
            match_res <= tol.bound(1.0) * 1e4)

    ident = int(np.argmin([
        float(np.max(np.abs(e.coeffs - T.unit))) for e in elements
    ]))
    ident_res = float(np.max(np.abs(elements[ident].coeffs - T.unit)))
    rep.add("identity", "the unit is grouplike", ident_res,
            ident_res <= tol.bound(1.0) * 1e4)

    ok = n > 0 and all(
        sorted(table[a]) == list(range(n))
        and sorted(table[:, a]) == list(range(n))
        for a in range(n)
    )
    assoc = all(
        table[table[a, b], c] == table[a, table[b, c]]
        for a in range(n) for b in range(n) for c in range(n)
    )
    rep.add("group-axioms", "cancellation and associativity", 0.0,
            bool(ok and assoc))
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
        spanned = True
        for i in q.labels:
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
