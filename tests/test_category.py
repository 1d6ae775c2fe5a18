import numpy as np
import pytest

from aqgrec.category import (
    MissingBlock,
    ObjectDecomp,
    WindowEscape,
    hom_decomps,
    irreducible_decomp,
    nat_component,
    tensor_decomp,
)


def test_irreducible_decomp_is_orthonormal(shipped_bundles):
    for b in shipped_bundles.values():
        for i in b.labels:
            x = irreducible_decomp(b, i)
            assert x.total_dim == b.d(i)
            assert x.check() < 1e-12


def test_nan_part_makes_check_nan(shipped_bundles):
    b = shipped_bundles["s3"]
    i, j = b.labels[-1], b.labels[-1]
    x = tensor_decomp(b, irreducible_decomp(b, i), irreducible_decomp(b, j))
    label, s = x.parts[-1]
    s = s.copy()
    s[0, 0] = np.nan
    assert np.isnan(ObjectDecomp(x.total_dim, x.parts[:-1] + [(label, s)]).check())


def test_tensor_decomp_complete_and_matches_fusion(shipped_bundles):
    for name, b in shipped_bundles.items():
        for i in b.labels:
            for j in b.labels:
                if not b.complete(i, j):
                    continue
                x = tensor_decomp(b, irreducible_decomp(b, i), irreducible_decomp(b, j))
                assert x.check() < 1e-10, (name, i, j)
                for k in b.labels:
                    assert x.multiplicity(k) == b.N(i, j, k)


def test_tensor_decomp_raises_outside_window(shipped_bundles):
    b = shipped_bundles["suq2-q0.5-L4"]
    top = irreducible_decomp(b, b.labels[-1])
    with pytest.raises(WindowEscape):
        tensor_decomp(b, top, top)


def test_triple_tensor_multiplicities_are_associative(shipped_bundles):
    b = shipped_bundles["s3"]
    decs = {i: irreducible_decomp(b, i) for i in b.labels}
    for i in b.labels:
        for j in b.labels:
            for k in b.labels:
                left = tensor_decomp(b, tensor_decomp(b, decs[i], decs[j]), decs[k])
                right = tensor_decomp(b, decs[i], tensor_decomp(b, decs[j], decs[k]))
                for m in b.labels:
                    assert left.multiplicity(m) == right.multiplicity(m)


def test_hom_decomps_dimension_equals_fusion_multiplicity(shipped_bundles):
    for name in ("s3", "q8", "suq2-q0.5-L4"):
        b = shipped_bundles[name]
        for i in b.labels:
            for j in b.labels:
                if not b.complete(i, j):
                    continue
                prod = tensor_decomp(
                    b, irreducible_decomp(b, i), irreducible_decomp(b, j)
                )
                for k in b.labels:
                    basis = hom_decomps(irreducible_decomp(b, k), prod)
                    assert len(basis) == b.N(i, j, k), (name, i, j, k)


def test_hom_decomps_basis_is_orthonormal(shipped_bundles):
    b = shipped_bundles["suq2-q1.0-L4"]
    x = tensor_decomp(b, irreducible_decomp(b, "1"), irreducible_decomp(b, "1"))
    basis = hom_decomps(x, x)
    for a, u in enumerate(basis):
        for c, v in enumerate(basis):
            ip = np.trace(u.conj().T @ v)
            assert abs(ip - (1.0 if a == c else 0.0)) < 1e-10


def test_nat_component_independent_of_decomposition(shipped_bundles, rng):
    b = shipped_bundles["s3"]
    blocks = {
        i: rng.standard_normal((b.d(i),) * 2) + 1j * rng.standard_normal((b.d(i),) * 2)
        for i in b.labels
    }
    two = [i for i in b.labels if b.d(i) == 2][0]
    x = tensor_decomp(b, irreducible_decomp(b, two), irreducible_decomp(b, two))
    a = nat_component(b, blocks, x)
    # intertwining with every Hom(X, X) morphism characterizes naturality
    for t in hom_decomps(x, x):
        assert np.max(np.abs(t @ a - a @ t)) < 1e-9


def test_nat_component_missing_block_raises(shipped_bundles):
    b = shipped_bundles["z2"]
    with pytest.raises(MissingBlock):
        nat_component(b, {}, irreducible_decomp(b, b.unit))
