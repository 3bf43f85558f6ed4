"""Ulam discretization of transfer operators and density diagnostics.

The Ulam matrix on a uniform grid of G cells is P[i][j] = m(cell_i n
T^{-1} cell_j) / m(cell_i), assembled exactly from the monotone branches
that the map's family gives (`LsvFamily.branches`: analytic or root-solved
branch inverses).  Densities are carried as per-cell values of a step
function; the mass vector is values / G.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "UlamOperator",
    "DensityVector",
    "ConeReport",
    "ConvergenceError",
    "build_ulam",
    "invariant_density",
    "cone_check",
]


class ConvergenceError(RuntimeError):
    """An iterative solve ran out of iterations before reaching tolerance."""


@dataclass(frozen=True)
class UlamOperator:
    """Row-stochastic sparse transition matrix on a uniform grid."""

    grid: int
    matrix: sp.csr_matrix

    def __post_init__(self):
        rowsum = np.asarray(self.matrix.sum(axis=1)).ravel()
        defect = float(np.abs(rowsum - 1.0).max())
        if defect > 1e-12:
            raise ValueError(f"rows must sum to 1 (defect {defect:.2e})")
        if self.matrix.nnz and self.matrix.data.min() < -1e-15:
            raise ValueError("negative transition mass")

    def push_masses(self, masses: np.ndarray) -> np.ndarray:
        """Adjoint action: one step of the cell-mass vector."""
        return np.asarray(masses @ self.matrix).ravel()


@dataclass(frozen=True)
class DensityVector:
    """Step-function density: values[i] on cell [i/G, (i+1)/G)."""

    grid: int
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.shape != (self.grid,):
            raise ValueError("values must have shape (grid,)")
        if vals.size and float(vals.min()) < -1e-12:
            raise ValueError("density values must be nonnegative")

    @property
    def masses(self) -> np.ndarray:
        return self.values / self.grid

    @property
    def mass(self) -> float:
        return float(self.values.sum() / self.grid)

    @property
    def midpoints(self) -> np.ndarray:
        return (np.arange(self.grid) + 0.5) / self.grid

    @classmethod
    def uniform(cls, grid: int) -> "DensityVector":
        return cls(grid, np.ones(grid))

    @classmethod
    def from_masses(cls, masses: np.ndarray) -> "DensityVector":
        masses = np.asarray(masses, dtype=float)
        return cls(masses.size, masses * masses.size)


def build_ulam(family, param: float, grid: int) -> UlamOperator:
    """Assemble the Ulam matrix of the map with parameter `param` from its
    monotone pieces, `family.branches(param)`.

    Each piece maps its domain onto [0, 1), so the preimages of the cell
    edges partition it; sweeping the merged partition against the uniform
    grid gives the exact cell-to-cell mass split (each elementary interval
    lies in a single source cell and maps into a single target cell).
    """
    import scipy.sparse as sp  # only Ulam assembly needs it

    if grid < 2:
        raise ValueError("grid must have at least 2 cells")
    edges = np.arange(grid + 1) / grid
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    for lo, hi, invert in family.branches(param):
        xs = np.asarray(invert(edges), dtype=float)
        xs[0], xs[-1] = lo, hi
        xs = np.maximum.accumulate(np.clip(xs, lo, hi))
        interior = edges[(edges > lo) & (edges < hi)]
        cuts = np.union1d(xs, interior)
        widths = np.diff(cuts)
        keep = widths > 0
        mids = 0.5 * (cuts[:-1] + cuts[1:])[keep]
        widths = widths[keep]
        rows.append(np.minimum((mids * grid).astype(int), grid - 1))
        cols.append(np.clip(np.searchsorted(xs, mids, side="right") - 1, 0, grid - 1))
        vals.append(widths * grid)          # mass / cell width
    mat = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(grid, grid),
    ).tocsr()
    mat.sum_duplicates()
    return UlamOperator(grid, mat)


def invariant_density(
    op: UlamOperator,
    tol: float = 1e-12,
    max_iter: int = 500_000,
) -> DensityVector:
    """Fixed point of the adjoint action by power iteration.

    Iterates the cell-mass vector until the successive L1 difference drops
    below `tol`; raises ConvergenceError with the residual otherwise, and
    ValueError when max_iter < 1.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    pt = op.matrix.T.tocsr()
    v = np.full(op.grid, 1.0 / op.grid)
    for _ in range(max_iter):
        v2 = pt @ v
        diff = float(np.abs(v2 - v).sum())
        v = v2
        if diff < tol:
            v = np.maximum(v, 0.0)
            v /= v.sum()
            return DensityVector.from_masses(v)
    raise ConvergenceError(f"power iteration stalled at L1 difference {diff:.2e}")


@dataclass(frozen=True)
class ConeReport:
    """Margins for membership in the decreasing cone with exponent alpha.

    Margins are worst-case over adjacent midpoints; a nonnegative margin
    means the property holds, and small negatives within `tol` (one cell of
    discretization slack by default) still pass.
    """

    alpha: float
    tol: float
    decreasing_margin: float
    power_increasing_margin: float
    pointwise_bound_margin: float

    @property
    def decreasing_ok(self) -> bool:
        return self.decreasing_margin >= -self.tol

    @property
    def power_increasing_ok(self) -> bool:
        return self.power_increasing_margin >= -self.tol

    @property
    def pointwise_bound_ok(self) -> bool:
        return self.pointwise_bound_margin >= -self.tol

    @property
    def passed(self) -> bool:
        return self.decreasing_ok and self.power_increasing_ok and self.pointwise_bound_ok


def cone_check(h: DensityVector, alpha: float, tol: float | None = None) -> ConeReport:
    """Check the three cone properties of a density on cell midpoints.

    (i) decreasing, (ii) x^(alpha+1) h(x) increasing, (iii) h(x) <=
    2^alpha (2+alpha) x^(-alpha) * mass.  Comparisons are between adjacent
    cells only.
    """
    x = h.midpoints
    f = h.values
    g = x ** (alpha + 1.0) * f
    envelope = 2.0**alpha * (2.0 + alpha) * x ** (-alpha) * h.mass
    dec = float((f[:-1] - f[1:]).min()) if h.grid > 1 else 0.0
    pow_inc = float((g[1:] - g[:-1]).min()) if h.grid > 1 else 0.0
    bound = float((envelope - f).min())
    if tol is None:
        tol = 1.0 / h.grid
    return ConeReport(alpha, tol, dec, pow_inc, bound)
