"""Skeletal-category operations over a bundle.

Objects are always carried with a chosen decomposition into irreducible
labels, witnessed by isometries into the carrier space.  All morphism-level
work downstream (representations, tensor products, Hom spaces) goes through
these decompositions.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bundle import CategoryBundle
from .linalg import DEFAULT_TOL, Array, Tolerance, cmat, dagger, eye, kron, residual, worst


class WindowEscape(ValueError):
    """A fusion product needs a label outside the loaded window."""

    def __init__(self, i, j, k=None):
        self.triple = (i, j, k)
        msg = f"fusion of ({i},{j}) leaves the loaded window"
        if k is not None:
            msg = f"fusion channel ({i},{j})->{k} is not loaded"
        super().__init__(msg)


class MissingBlock(KeyError):
    def __init__(self, i):
        super().__init__(f"element has no block for label {i!r}")
        self.label = i


@dataclass
class ObjectDecomp:
    """A Hilbert space of dimension total_dim decomposed into irreducibles.

    parts is a list of (label, isometry) pairs; each isometry s has shape
    total_dim x d_label, the family is jointly orthonormal and complete.
    """

    total_dim: int
    parts: list[tuple[str, Array]]

    def labels(self) -> list[str]:
        return [i for i, _ in self.parts]

    def multiplicity(self, i: str) -> int:
        return sum(1 for j, _ in self.parts if j == i)

    def check(self, tol: Tolerance = DEFAULT_TOL) -> float:
        """Max residual of joint orthonormality and completeness."""
        res = []
        n = self.total_dim
        acc = np.zeros((n, n), dtype=complex)
        for a, (i, s) in enumerate(self.parts):
            acc += s @ dagger(s)
            for bidx in range(a, len(self.parts)):
                j, t = self.parts[bidx]
                g = dagger(s) @ t
                if a == bidx:
                    res.append(residual(g, eye(s.shape[1])))
                elif i == j or s.shape[1] == t.shape[1]:
                    res.append(residual(g, np.zeros_like(g)))
        res.append(residual(acc, eye(n)))
        return worst(*res)


def irreducible_decomp(b: CategoryBundle, i: str) -> ObjectDecomp:
    """The label i viewed as a decomposed object on its own block space."""
    return ObjectDecomp(b.d(i), [(i, eye(b.d(i)))])


def tensor_decomp(b: CategoryBundle, X: ObjectDecomp, Y: ObjectDecomp) -> ObjectDecomp:
    """Decompose X (x) Y using the bundle's fusion isometries.

    Parts are (s (x) t) v over all part pairs and fusion channels; raises
    WindowEscape if any needed channel leaves the window.
    """
    n = X.total_dim * Y.total_dim
    parts: list[tuple[str, Array]] = []
    for i, s in X.parts:
        for j, t in Y.parts:
            if not b.complete(i, j):
                raise WindowEscape(i, j)
            st = kron(s, t)
            for k, _ in b.support(i, j):
                for v in b.isometries(i, j, k):
                    parts.append((k, st @ v))
    return ObjectDecomp(n, parts)


def nat_component(b: CategoryBundle, blocks: dict[str, Array], X: ObjectDecomp) -> Array:
    """Evaluate a natural transformation (block map i -> a_i) on X.

    Returns sum s a_i s* over the parts; independent of the choice of
    decomposition.
    """
    out = np.zeros((X.total_dim, X.total_dim), dtype=complex)
    for i, s in X.parts:
        if i not in blocks:
            raise MissingBlock(i)
        out += s @ cmat(blocks[i]) @ dagger(s)
    return out


def hom_decomps(
    X: ObjectDecomp, Y: ObjectDecomp, tol: Tolerance = DEFAULT_TOL
) -> list[Array]:
    """Hilbert-Schmidt orthonormal basis of Hom(X, Y).

    By semisimplicity the morphisms t s* between equal-label parts span the
    Hom space, and they are already orthogonal; only normalization is needed.
    """
    basis = []
    for i, s in X.parts:
        for j, t in Y.parts:
            if i == j:
                d = s.shape[1]
                basis.append((t @ dagger(s)) / np.sqrt(d))
    return basis
