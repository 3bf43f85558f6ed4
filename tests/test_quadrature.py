"""Fixed quadrature rules: tensor products, Gauss-Hermite moments, Gauss-Legendre exactness."""

from itertools import product

import numpy as np
import pytest

from steinclt.quadrature import (
    gauss_hermite_standard,
    gauss_legendre_01,
    rule_certificate,
    tensor_rule,
)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_tensor_rule_matches_nested_loops(dim):
    x = np.array([-1.3, 0.2, 0.7, 2.9])
    w = np.array([0.11, 0.37, 0.23, 0.29])
    nodes, weights = tensor_rule(x, w, dim)
    assert nodes.shape == (x.size**dim, dim)
    assert weights.shape == (x.size**dim,)
    for row, idx in enumerate(product(range(x.size), repeat=dim)):
        np.testing.assert_array_equal(nodes[row], x[list(idx)])
        want = 1.0
        for i in idx:
            want = want * w[i]
        assert weights[row] == want


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("order", [5, 14, 20])
def test_gauss_hermite_weights_and_moments(dim, order):
    xi, w = gauss_hermite_standard(order, dim)
    assert xi.shape == (order**dim, dim)
    assert np.all(w > 0.0)
    assert w.sum() == pytest.approx(1.0, abs=1e-13)
    np.testing.assert_allclose(np.einsum("q,qa,qb->ab", w, xi, xi), np.eye(dim), atol=1e-13)
    np.testing.assert_allclose(w @ xi**4, np.full(dim, 3.0), atol=1e-13)


def test_gauss_hermite_rejects_dimensions_outside_one_to_three():
    with pytest.raises(ValueError):
        gauss_hermite_standard(5, 0)
    with pytest.raises(ValueError):
        gauss_hermite_standard(5, 4)


@pytest.mark.parametrize("order", [1, 2, 5, 8, 16, 32])
def test_gauss_legendre_01_integrates_monomials_exactly(order):
    u, w = gauss_legendre_01(order)
    assert np.all((u > 0.0) & (u < 1.0))
    assert np.all(w > 0.0)
    for k in range(1, 2 * order + 1):
        assert w @ u ** (k - 1) == pytest.approx(1.0 / k, rel=1e-13)


@pytest.mark.parametrize("gh_order,dim,u_order", [(48, 1, 32), (20, 2, 16), (5, 3, 8)])
def test_rule_certificate(gh_order, dim, u_order):
    cert = rule_certificate(gh_order, dim, u_order)
    assert set(cert) == {
        "gh_order", "u_order", "gh_min_weight", "gh_weight_sum_defect", "gl_moment_defect"
    }
    assert (cert["gh_order"], cert["u_order"]) == (gh_order, u_order)
    w1 = np.polynomial.hermite.hermgauss(gh_order)[1] / np.sqrt(np.pi)
    assert cert["gh_min_weight"] == pytest.approx(w1.min() ** dim, rel=1e-12)
    assert 0.0 < cert["gh_min_weight"]
    _, zw = gauss_hermite_standard(gh_order, dim)
    assert cert["gh_weight_sum_defect"] == abs(zw.sum() - 1.0) < 1e-13
    u, uw = gauss_legendre_01(u_order)
    want = max(abs(uw @ np.ones_like(u) - 1.0), abs(uw @ u - 0.5))
    assert cert["gl_moment_defect"] == want < 1e-14
