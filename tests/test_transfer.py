"""Ulam discretization, invariant densities, cone checks."""

import numpy as np
import pytest
import scipy.sparse as sp

from steinclt.dynamics import LsvFamily
from steinclt.transfer import (
    ConeReport,
    ConvergenceError,
    DensityVector,
    UlamOperator,
    build_ulam,
    cone_check,
    invariant_density,
)


def test_ulam_doubling_grid4_exact():
    op = build_ulam(LsvFamily(), 0.0, 4)
    want = np.array(
        [
            [0.5, 0.5, 0.0, 0.0],
            [0.0, 0.0, 0.5, 0.5],
            [0.5, 0.5, 0.0, 0.0],
            [0.0, 0.0, 0.5, 0.5],
        ]
    )
    np.testing.assert_allclose(op.matrix.toarray(), want, atol=1e-14)


def test_ulam_rows_stochastic_lsv():
    for alpha in (0.1, 0.25, 1.0):
        op = build_ulam(LsvFamily(), alpha, 257)
        rowsum = np.asarray(op.matrix.sum(axis=1)).ravel()
        np.testing.assert_allclose(rowsum, 1.0, atol=1e-12)


def test_ulam_operator_rejects_bad_rows():
    with pytest.raises(ValueError):
        UlamOperator(2, sp.csr_matrix(np.array([[0.5, 0.4], [0.0, 1.0]])))


def test_push_masses_conserves_mass():
    op = build_ulam(LsvFamily(), 0.25, 64)
    rng = np.random.default_rng(0)
    masses = rng.random(64)
    masses /= masses.sum()
    out = op.push_masses(masses)
    assert out.sum() == pytest.approx(1.0, abs=1e-12)
    assert out.min() >= -1e-15


def test_doubling_invariant_density_is_uniform():
    dens = invariant_density(build_ulam(LsvFamily(), 0.0, 512))
    np.testing.assert_allclose(dens.values, 1.0, atol=1e-10)
    assert dens.mass == pytest.approx(1.0, abs=1e-12)


def test_invariant_density_convergence_error():
    op = build_ulam(LsvFamily(), 0.25, 128)
    with pytest.raises(ConvergenceError):
        invariant_density(op, max_iter=1)
    for max_iter in (0, -1):
        with pytest.raises(ValueError, match="max_iter"):
            invariant_density(op, max_iter=max_iter)


def test_cone_check_lsv_quarter():
    dens = invariant_density(build_ulam(LsvFamily(), 0.25, 512))
    report = cone_check(dens, 0.25)
    assert isinstance(report, ConeReport)
    assert report.tol == pytest.approx(1.0 / 512)
    assert report.decreasing_margin > 0.0
    assert report.power_increasing_margin > 0.0
    assert report.pointwise_bound_margin > 1.0
    assert report.passed


def test_cone_check_rejects_increasing_density():
    grid = 8
    x = (np.arange(grid) + 0.5) / grid
    vals = np.exp(3.0 * x)
    dens = DensityVector(grid, vals / vals.mean())
    report = cone_check(dens, 0.25)
    assert not report.decreasing_ok
    assert not report.passed


def test_density_vector_round_trips():
    dens = DensityVector.from_masses(np.array([0.2, 0.3, 0.5]))
    np.testing.assert_allclose(dens.masses, [0.2, 0.3, 0.5], atol=1e-15)
    assert dens.mass == pytest.approx(1.0)
    with pytest.raises(ValueError):
        DensityVector(3, np.array([1.0, -0.5, 2.5]))

