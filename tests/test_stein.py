"""Test functions, Stein solutions, derivative bounds, mollifiers."""

import math
from itertools import product

import numpy as np
import pytest
import scipy.special

from steinclt import stein
from steinclt.harness import _BOUND_GH, _BOUND_U, _DECOMP_GH, _RESIDUAL_GH, _RESIDUAL_U
from steinclt.quadrature import gauss_hermite_standard, gauss_legendre_01
from steinclt.stein import (
    _CHUNK_VALUES,
    _FIELDS,
    GaussFactor,
    LipschitzFunction,
    MollifierSmoother,
    PowerFactor,
    SinFactor,
    SteinSolution,
    TanhFactor,
    TensorGrid,
    affine_function,
    builtin_test_functions,
    derivative_bound_check,
    index_tuples,
    lipschitz_family_1d,
    mollify,
    product_function,
    quadratic_function,
    smooth_metric_family,
    stein_residual,
    univariate_bound_check,
    univariate_solution,
)

SIGMA2 = np.array([[1.2, 0.3], [0.3, 0.9]])


def _mixed_separable():
    return product_function(
        (TanhFactor(0.6, 0.2), GaussFactor(1.1, -0.4), SinFactor(0.8, 0.3)), 0.9, "mixed"
    )


def test_index_tuples():
    assert index_tuples(2, 2) == [(0, 0), (0, 1), (1, 1)]
    assert index_tuples(3, 1) == [(0,), (1,), (2,)]
    assert index_tuples(2, 0) == [()]


def test_affine_solution_closed_form():
    v = (0.7, -0.3)
    h = affine_function(v, 0.5)
    sol = SteinSolution(h, SIGMA2)
    rng = np.random.default_rng(1)
    w = rng.normal(size=(40, 2))
    assert sol.phi_h == pytest.approx(0.5, abs=1e-13)
    np.testing.assert_allclose(sol.value(w), -(w @ np.asarray(v)), atol=1e-12)
    np.testing.assert_allclose(sol.gradient(w), np.broadcast_to(np.negative(v), (40, 2)), atol=1e-12)
    np.testing.assert_allclose(sol.hessian(w), 0.0, atol=1e-12)
    np.testing.assert_allclose(stein_residual(sol, w), 0.0, atol=1e-12)


def test_quadratic_solution_closed_form():
    q = np.array([[1.5, 0.25], [0.25, 1.0]])
    v = np.array([0.5, -0.2])
    h = quadratic_function(q, v, -0.25)
    sol = SteinSolution(h, SIGMA2)
    rng = np.random.default_rng(2)
    w = rng.normal(size=(40, 2))
    assert sol.phi_h == pytest.approx(0.5 * np.trace(q @ SIGMA2) - 0.25, abs=1e-12)
    want_value = -(0.25 * (np.einsum("ba,ab->b", w @ q, w.T) - np.trace(q @ SIGMA2)) + w @ v)
    np.testing.assert_allclose(sol.value(w), want_value, atol=1e-11)
    np.testing.assert_allclose(sol.gradient(w), -0.5 * (w @ q) - v, atol=1e-11)
    np.testing.assert_allclose(sol.hessian(w), np.broadcast_to(-0.5 * q, (40, 2, 2)), atol=1e-12)
    np.testing.assert_allclose(stein_residual(sol, w), 0.0, atol=1e-10)


def test_separable_fields_fusion_matches_single_calls():
    h = _mixed_separable()
    rng = np.random.default_rng(3)
    w = rng.normal(size=(25, 3))
    fused = h.evaluate(w, ("value", "gradient", "hessian"))
    np.testing.assert_array_equal(fused["value"], h.value(w))
    np.testing.assert_array_equal(fused["gradient"], h.gradient(w))
    np.testing.assert_array_equal(fused["hessian"], h.hessian(w))
    only_grad = h.evaluate(w, ("gradient",))
    assert set(only_grad) == {"gradient"}


def test_base_fields_dispatch():
    h = affine_function((0.4, 0.1))
    w = np.zeros((4, 2))
    fused = h.evaluate(w, ("value", "hessian"))
    np.testing.assert_array_equal(fused["value"], h.value(w))
    np.testing.assert_array_equal(fused["hessian"], h.hessian(w))


def test_separable_derivatives_match_finite_differences():
    h = _mixed_separable()
    rng = np.random.default_rng(4)
    w = rng.normal(size=(12, 3)) * 0.8
    eps = 1e-5
    grad = h.gradient(w)
    hess = h.hessian(w)
    for a in range(3):
        shift = np.zeros(3)
        shift[a] = eps
        fd_g = (h.value(w + shift) - h.value(w - shift)) / (2 * eps)
        np.testing.assert_allclose(grad[:, a], fd_g, atol=5e-9)
        fd_h = (h.gradient(w + shift) - h.gradient(w - shift)) / (2 * eps)
        np.testing.assert_allclose(hess[:, :, a], fd_h, atol=5e-8)


def test_separable_partials_are_factor_table_products():
    h = _mixed_separable()
    rng = np.random.default_rng(6)
    w = rng.normal(size=(4, 5, 3)) * 1.5
    (term,) = h.terms
    tabs = [f.tables(w[..., a], 2) for a, f in enumerate(term.factors)]
    tensors = (h.value(w), h.gradient(w), h.hessian(w))
    for order, tensor in enumerate(tensors):
        assert tensor.shape == w.shape[:-1] + (3,) * order
        for idx in product(range(3), repeat=order):
            want = term.scale * np.prod([tabs[a][idx.count(a)] for a in range(3)], axis=0)
            np.testing.assert_allclose(tensor[(...,) + idx], want, rtol=1e-14, atol=0)


def test_partial_sups_dominate_grid_maxima():
    h = _mixed_separable()
    rng = np.random.default_rng(5)
    w = rng.normal(size=(4000, 3)) * 2.0
    grad = np.abs(h.gradient(w)).max(axis=0)
    hess = np.abs(h.hessian(w)).max(axis=0)
    # order three from central differences of the closed-form Hessian
    eps = 1e-5
    third = np.zeros((3, 3, 3))
    for c in range(3):
        shift = np.zeros(3)
        shift[c] = eps
        fd = (h.hessian(w + shift) - h.hessian(w - shift)) / (2 * eps)
        third[:, :, c] = np.abs(fd).max(axis=0)
    for a in range(3):
        assert grad[a] <= h.partial_sup((a,)) + 1e-12
        for b in range(3):
            assert hess[a, b] <= h.partial_sup(tuple(sorted((a, b)))) + 1e-12
            for c in range(3):
                assert third[a, b, c] <= h.partial_sup(tuple(sorted((a, b, c)))) + 1e-8
    with pytest.raises(ValueError):
        h.partial_sup((0, 0, 0, 0))


def test_quadratic_partial_sups():
    q = ((1.5, 0.25), (0.25, 1.0))
    h = quadratic_function(q, (0.5, -0.2))
    assert h.partial_sup((0,)) is None
    assert h.partial_sup((0, 1)) == pytest.approx(0.25)
    assert h.partial_sup((0, 0, 1)) == 0.0
    assert h.derivative_sup(1) is None
    assert h.derivative_sup(2) == pytest.approx(1.5)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_closed_form_partial_sups_pinned(dim):
    affine, quadratic = builtin_test_functions(dim)[:2]
    v = [1.0 / (a + 1.0) for a in range(dim)]
    q = np.diag([1.0 + 0.5 * a for a in range(dim)])
    for a in range(dim - 1):
        q[a, a + 1] = q[a + 1, a] = 0.25
    for order in (1, 2, 3):
        for idx in index_tuples(dim, order):
            assert affine.partial_sup(idx) == (v[idx[0]] if order == 1 else 0.0), idx
            want = None if order == 1 else float(q[idx]) if order == 2 else 0.0
            assert quadratic.partial_sup(idx) == want, idx


def test_quadratic_rejects_non_symmetric_or_mismatched_q():
    with pytest.raises(ValueError, match="symmetric"):
        quadratic_function([[1.0, 0.4], [0.1, 1.0]], (0.5, -0.2))
    with pytest.raises(ValueError):
        quadratic_function(np.eye(3), (0.5, -0.2))
    with pytest.raises(ValueError):
        quadratic_function([[1.0, 0.5]], (0.5, -0.2))


def test_factor_tables_stop_at_depth():
    u = np.linspace(-2.0, 2.0, 17)
    for f in (TanhFactor(0.6, 0.2), GaussFactor(1.1, -0.4), SinFactor(0.8, 0.3), PowerFactor(2)):
        full = f.tables(u, 2)
        assert len(full) == 3
        for depth in (0, 1):
            part = f.tables(u, depth)
            assert len(part) == depth + 1
            for got, want in zip(part, full):
                np.testing.assert_array_equal(got, want)


def test_power_factor_derivatives_and_sups():
    u = np.array([-1.5, 0.0, 0.5, 2.0])
    ones, zeros = np.ones(4), np.zeros(4)
    want = {0: (ones, zeros, zeros), 1: (u, ones, zeros), 2: (u * u, 2.0 * u, 2.0 * ones)}
    for p, tables in want.items():
        for got, expect in zip(PowerFactor(p).tables(u, 2), tables):
            np.testing.assert_array_equal(got, expect)
    assert PowerFactor(0).sups == (1.0, 0.0, 0.0, 0.0)
    assert PowerFactor(1).sups == (None, 1.0, 0.0, 0.0)
    assert PowerFactor(2).sups == (None, None, 2.0, 0.0)
    with pytest.raises(ValueError):
        PowerFactor(3)


def test_stein_residual_small_for_smooth_battery():
    w = TensorGrid([np.linspace(-3, 3, 9)] * 2)
    for h in builtin_test_functions(2):
        sol = SteinSolution(h, SIGMA2, gh_order=20, u_order=32)
        worst = float(stein_residual(sol, w).max())
        assert worst < 1e-4, f"{h.name}: residual {worst:.2e}"


def test_evaluate_single_point_shapes():
    h = builtin_test_functions(2)[2]
    sol = SteinSolution(h, SIGMA2)
    w = np.array([0.3, -1.1])
    ev = sol.evaluate(w)
    a, g, hh = ev["value"], ev["gradient"], ev["hessian"]
    assert np.shape(a) == ()
    assert g.shape == (2,)
    assert hh.shape == (2, 2)
    np.testing.assert_array_equal(g, sol.gradient(w))


def test_stein_solution_validation():
    h = affine_function((1.0, 0.0))
    with pytest.raises(ValueError):
        SteinSolution(h, np.eye(3))
    with pytest.raises(ValueError):
        SteinSolution(h, np.array([[1.0, 0.0], [0.0, -0.5]]))
    with pytest.raises(ValueError):
        SteinSolution(h, np.array([[1.0, 0.4], [0.1, 1.0]]))


def test_derivative_bound_check_quadratic_margins():
    q = ((1.5, 0.25), (0.25, 1.0))
    h = quadratic_function(q, (0.5, -0.2))
    sol = SteinSolution(h, SIGMA2)
    grid = TensorGrid([np.linspace(-2, 2, 7)] * 2)
    report = derivative_bound_check(sol, grid, orders=(1, 2))
    # unbounded first partials are recorded as vacuously satisfied
    assert report.margins[(1, (0,))] == math.inf
    # D^2 A = -Q/2 exactly, so the order-2 margins sit at zero
    assert abs(report.margins[(2, (0, 1))]) < 1e-10
    assert report.passed(1e-6)
    assert report.grid_size == grid.shape[0]
    with pytest.raises(ValueError):
        derivative_bound_check(sol, np.zeros((5, 3)))


def test_derivative_bound_check_third_order():
    h = builtin_test_functions(1)[2]
    sol = SteinSolution(h, np.array([[1.0]]), gh_order=48, u_order=32)
    grid = np.linspace(-3, 3, 21)[:, None]
    report = derivative_bound_check(sol, grid, orders=(1, 2, 3))
    orders = sorted({k[0] for k in report.margins})
    assert orders == [1, 2, 3]
    assert report.passed(1e-6)


def _random_sigma(rng, dim):
    a = rng.normal(size=(dim, dim))
    return a @ a.T + 0.5 * np.eye(dim)


def _uneven_grid(dim):
    """Axes of different lengths and ranges, so a swapped axis changes the result."""
    return TensorGrid(
        [np.linspace(-2.0 + 0.3 * a, 2.5 - 0.2 * a, n) for a, n in enumerate((4, 3, 5)[:dim])]
    )


def test_tensor_grid_points_and_shape():
    grid = TensorGrid([np.array([0.0, 1.0]), np.array([5.0, 6.0, 7.0])])
    want = np.array([[0, 5], [0, 6], [0, 7], [1, 5], [1, 6], [1, 7]], dtype=float)
    np.testing.assert_array_equal(grid.points(), want)
    assert grid.shape == np.shape(grid) == (6, 2)
    shift = np.array([0.0, 1e-3])
    np.testing.assert_array_equal((grid + shift).points(), want + shift)
    np.testing.assert_array_equal((grid - shift).points(), want - shift)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_grid_path_matches_point_path(dim):
    rng = np.random.default_rng(40 + dim)
    grid = _uneven_grid(dim)
    builtins = builtin_test_functions(dim)
    assert len(builtins) == 6
    extra = [_mixed_separable()] if dim == 3 else []
    cases = [(grid, h) for h in builtins + smooth_metric_family(dim) + extra]
    if dim == 3:
        # its points() span several chunks of the point input (gh 6, u 7)
        seams = TensorGrid([np.linspace(-3.0, 3.0, 16), np.linspace(-2.5, 2.0, 12), np.linspace(-2.0, 2.5, 10)])
        assert seams.shape[0] > 2 * (_CHUNK_VALUES // 6**3)
        cases += [(seams, h) for h in builtins + extra]
    # one-coordinate axes (G=1): a lone d=1 point, which takes no outer
    # product, and d=3 grids with G=1 first and last, then in the middle
    thin = {
        1: [[[0.3]]],
        3: [[[-0.4], [0.1, 1.2, -1.5], [0.7]], [[0.2, -1.1], [0.9], [-0.5, 0.4, 1.3]]],
    }
    cases += [(TensorGrid(axes), h) for axes in thin.get(dim, []) for h in builtins]
    for grid, h in cases:
        sol = SteinSolution(h, _random_sigma(rng, dim), gh_order=6, u_order=7)
        fast = sol.evaluate(grid)
        slow = sol.evaluate(grid.points())
        assert set(fast) == set(slow) == {"value", "gradient", "hessian"}
        for name, want in slow.items():
            assert fast[name].shape == want.shape
            np.testing.assert_array_equal(fast[name], want, err_msg=f"{h.name} {name}")
        only = sol.evaluate(grid, ("hessian",))
        assert set(only) == {"hessian"}
        np.testing.assert_array_equal(only["hessian"], fast["hessian"])
        np.testing.assert_array_equal(stein_residual(sol, grid), stein_residual(sol, grid.points()))


def _fields_under(monkeypatch, values, sol, w):
    monkeypatch.setattr(stein, "_CHUNK_VALUES", values)
    return sol.evaluate(w)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_u_node_blocks_and_point_chunks_leave_every_bit(dim, monkeypatch):
    # one u-node per block and one point per chunk, against one block and one
    # chunk for the whole input, on a grid and at its points()
    rng = np.random.default_rng(70 + dim)
    grid = _uneven_grid(dim)
    family = builtin_test_functions(dim) + smooth_metric_family(dim) + [_mixed_separable()] * (dim == 3)
    for h in family:
        sol = SteinSolution(h, _random_sigma(rng, dim), gh_order=6, u_order=7)
        whole = _fields_under(monkeypatch, 10**9, sol, grid)
        for values in (1, 10**9):
            for w in (grid, grid.points()):
                got = _fields_under(monkeypatch, values, sol, w)
                for name, want in whole.items():
                    np.testing.assert_array_equal(got[name], want, err_msg=f"{h.name} {name} {values}")
    # a point input that spans the default chunk seams, against one chunk
    chunk = _CHUNK_VALUES // 6**dim
    points = 1.5 * rng.normal(size=(2 * chunk + 1, dim))
    for h in builtin_test_functions(dim)[1:3]:
        sol = SteinSolution(h, _random_sigma(rng, dim), gh_order=6, u_order=7)
        seams = sol.evaluate(points)
        whole = _fields_under(monkeypatch, 10**9, sol, points)
        for name, want in whole.items():
            np.testing.assert_array_equal(seams[name], want, err_msg=f"{h.name} {name}")


@pytest.mark.parametrize("values", [1, stein._CHUNK_VALUES])
def test_empty_inputs_give_empty_fields(values, monkeypatch):
    monkeypatch.setattr(stein, "_CHUNK_VALUES", values)
    for dim in (1, 2, 3):
        sol = SteinSolution(builtin_test_functions(dim)[2], np.eye(dim), gh_order=4, u_order=3)
        full = [np.array([0.1, -0.2])] * (dim - 1)
        inputs = [np.zeros((0, dim)), TensorGrid([[]] + full), TensorGrid(full + [[]])]
        for w in inputs:
            got = sol.evaluate(w)
            assert {name: f.shape for name, f in got.items()} == {
                name: (0,) + (dim,) * k for k, name in enumerate(_FIELDS)
            }


@pytest.mark.parametrize("dim", [2, 3])
def test_bound_rule_grid_fields_are_exact(dim):
    # the d=3 bound rule, where the first axis's product and GH sum are one einsum
    gh, u = _BOUND_GH[3], _BOUND_U[3]
    grid = _uneven_grid(dim)
    sigma = _random_sigma(np.random.default_rng(60 + dim), dim)
    for h in builtin_test_functions(dim):
        sol = SteinSolution(h, sigma, gh_order=gh, u_order=u)
        fast = sol.evaluate(grid)
        slow = sol.evaluate(grid.points())
        for name, want in slow.items():
            np.testing.assert_array_equal(fast[name], want, err_msg=f"{h.name} {name}")
        hessian = fast["hessian"]
        if h.name == "quadratic":
            np.testing.assert_array_equal(hessian, np.broadcast_to(hessian[0], hessian.shape))
        if h.name == "affine":
            np.testing.assert_array_equal(hessian, 0.0)


def _tensor_rule_fields(sol, w):
    """Reference: A, grad A, D^2 A at points w from the full tensor rule,
    E_z d^t h(u w + c z) = sum_i W_i d^t h(u w + c z_i) over all gh^d nodes,
    with d^t h from the test function itself."""
    d = sol.dimension
    xi, zw = gauss_hermite_standard(sol.gh_order, d)
    z = xi @ np.linalg.cholesky(sol.sigma).T
    un, uw = gauss_legendre_01(sol.u_order)
    c = np.sqrt(1.0 - un**2)
    args = un[:, None, None, None] * w[None, :, None, :] + c[:, None, None, None] * z[None, None]
    ev = sol.h.evaluate(args, _FIELDS)
    phi = zw @ sol.h.value(z)
    out = {}
    for k, name in enumerate(_FIELDS):
        psi = np.einsum("i,jbi...->jb...", zw, ev[name]) - (phi if k == 0 else 0.0)
        out[name] = -np.einsum("j,jb...->b...", uw * un ** (k - 1), psi)
    return out


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_nested_contraction_matches_the_tensor_rule_sum(dim):
    rng = np.random.default_rng(50 + dim)
    w = 1.5 * rng.normal(size=(4, dim))
    rules = [(_RESIDUAL_GH[dim], _RESIDUAL_U), (_BOUND_GH[dim], _BOUND_U[dim]), (_DECOMP_GH[dim], 8)]
    family = builtin_test_functions(dim) + smooth_metric_family(dim) + [_mixed_separable()] * (dim == 3)
    for gh, u in rules:
        for h in family:
            sol = SteinSolution(h, _random_sigma(rng, dim), gh_order=gh, u_order=u)
            got = sol.evaluate(w)
            for name, want in _tensor_rule_fields(sol, w).items():
                tol = 1e-13 * np.abs(want).max()
                np.testing.assert_allclose(got[name], want, rtol=0, atol=tol, err_msg=f"{h.name} gh {gh} {name}")


def test_closed_form_solutions_on_tensor_grid():
    grid = _uneven_grid(2)
    w = grid.points()
    v = np.array([0.7, -0.3])
    q = np.array([[1.5, 0.25], [0.25, 1.0]])
    affine = SteinSolution(affine_function(v, 0.5), SIGMA2).evaluate(grid)
    np.testing.assert_allclose(affine["value"], -(w @ v), atol=1e-12)
    np.testing.assert_allclose(affine["gradient"], np.broadcast_to(-v, w.shape), atol=1e-12)
    np.testing.assert_array_equal(affine["hessian"], 0.0)
    sol = SteinSolution(quadratic_function(q, v, -0.25), SIGMA2)
    quad = sol.evaluate(grid)
    want_value = -(0.25 * (np.einsum("ba,ab->b", w @ q, w.T) - np.trace(q @ SIGMA2)) + w @ v)
    np.testing.assert_allclose(quad["value"], want_value, atol=1e-11)
    np.testing.assert_allclose(quad["gradient"], -0.5 * (w @ q) - v, atol=1e-11)
    np.testing.assert_allclose(quad["hessian"], np.broadcast_to(-0.5 * q, (len(w), 2, 2)), atol=1e-12)
    np.testing.assert_allclose(stein_residual(sol, grid), 0.0, atol=1e-10)


def test_derivative_bound_check_third_order_on_tensor_grid():
    h = builtin_test_functions(2)[2]
    sol = SteinSolution(h, SIGMA2, gh_order=20, u_order=16)
    grid = TensorGrid([np.linspace(-3, 3, 9), np.linspace(-2.5, 2.5, 7)])
    report = derivative_bound_check(sol, grid, orders=(1, 2, 3))
    assert sorted({k[0] for k in report.margins}) == [1, 2, 3]
    assert report.grid_size == 63
    assert report.passed(1e-6)
    points = derivative_bound_check(sol, grid.points(), orders=(1, 2, 3))
    assert report.margins.keys() == points.margins.keys()
    for key, margin in report.margins.items():
        assert margin == pytest.approx(points.margins[key], rel=0, abs=1e-10), key
    with pytest.raises(ValueError):
        derivative_bound_check(sol, _uneven_grid(3))


def test_univariate_identity_solution():
    grid = np.linspace(-6.0, 6.0, 101)
    a, a1, phi = univariate_solution(lambda w: w, grid)
    assert phi == pytest.approx(0.0, abs=1e-14)
    np.testing.assert_allclose(a, -1.0, atol=1e-10)
    np.testing.assert_allclose(a1, 0.0, atol=1e-9)


def test_univariate_bound_check_family():
    grid = np.linspace(-8.0, 8.0, 321)
    fam = lipschitz_family_1d()
    assert [f.name for f in fam] == [
        "linear",
        "tanh",
        "tanh_half",
        "tanh_double",
        "sine",
        "sine_double",
        "erf_unit",
        "logcosh",
        "logcosh_double",
        "soft_id",
    ]
    for f in fam:
        report = univariate_bound_check(f, grid)
        assert report.passed(1e-6), f"{f.name}: worst margin {report.worst_margin:.3e}"
        assert report.name == f.name


def test_erf_unit_is_scaled_scipy_erf():
    w = np.linspace(-6.0, 6.0, 1201)
    erf_unit = next(f for f in lipschitz_family_1d() if f.name == "erf_unit")
    np.testing.assert_array_equal(erf_unit(w), math.sqrt(math.pi) / 2.0 * scipy.special.erf(w))


def test_univariate_bound_check_rejects_steep_functions():
    steep = LipschitzFunction("steep", lambda w: 2.0 * w, 2.0)
    with pytest.raises(ValueError):
        univariate_bound_check(steep, np.linspace(-1, 1, 11))


def test_builtin_battery_contents():
    fns = builtin_test_functions(3)
    assert [h.name for h in fns] == [
        "affine",
        "quadratic",
        "tanh_prod",
        "tanh_asym",
        "gauss_bump",
        "gauss_wide",
    ]
    assert all(h.dimension == 3 for h in fns)
    with pytest.raises(ValueError):
        builtin_test_functions(0)


def test_smooth_metric_family_normalization():
    for dim in (1, 2):
        fam = smooth_metric_family(dim)
        assert len(fam) == 8
        for h in fam:
            assert h.derivative_sup(3) == pytest.approx(1.0, abs=1e-12)


def test_mollifier_mass_and_support():
    for dim in (1, 2):
        sm = MollifierSmoother(dim, 0.25)
        assert abs(sm.kernel_mass_check() - 1.0) < 1e-8
        assert sm.normalization_lower_bound_ok()
        inside = np.zeros(dim)
        outside = np.full(dim, 1.5)
        assert sm.eta(inside) > 0.0
        assert sm.eta(outside) == 0.0
        edge = np.zeros(dim)
        edge[0] = 1.0
        assert sm.eta(edge) == 0.0


def test_mollifier_validation():
    with pytest.raises(ValueError):
        MollifierSmoother(1, 0.0)
    with pytest.raises(ValueError):
        MollifierSmoother(0, 0.1)
    with pytest.raises(ValueError):
        MollifierSmoother(1, 0.1).eta(np.zeros((3, 2)))


def test_mollifier_reproduces_constants_and_linear():
    sm = MollifierSmoother(1, 0.3)
    const = sm.smooth(lambda p: np.full(p.shape[:-1], 2.5))
    pts = np.array([[0.4, -1.2], [0.0, 0.0], [2.0, 1.0]])
    np.testing.assert_allclose(const(pts), 2.5, atol=1e-14)
    lin = sm.smooth(lambda p: 3.0 * p[..., 0] - 2.0 * p[..., 1] + 0.5)
    want = 3.0 * pts[:, 0] - 2.0 * pts[:, 1] + 0.5
    np.testing.assert_allclose(lin(pts), want, atol=1e-12)


def test_mollify_error_shrinks_with_epsilon():
    def g(p):
        return np.abs(p[..., 0]) + 0.5 * np.abs(p[..., 1])

    probes = np.array([[0.3, -0.2], [1.0, 0.7], [-0.6, 0.1]])
    _, err_wide = mollify(g, 0.5, dim=1, probes=probes)
    _, err_narrow = mollify(g, 0.125, dim=1, probes=probes)
    assert err_narrow < err_wide
    assert err_wide <= 0.5 * 1.5 + 1e-12
    smoothed, err = mollify(g, 0.25, dim=1)
    assert err is None
    assert np.isfinite(smoothed(np.array([0.1, 0.2])))
