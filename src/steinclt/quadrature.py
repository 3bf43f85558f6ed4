"""Fixed quadrature rules shared by the Stein-equation and metric code.

All rules are deterministic and cached by (order, dimension).  Keeping the
node sets fixed (rather than adaptive) matters downstream: the solution
evaluators built on top of them stay exact derivatives of one another.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def gauss_legendre_01(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights transplanted to (0, 1).

    Nodes are interior points, so integrands with a removable singularity at
    an endpoint can be integrated without special-casing the endpoint value.
    """
    if order < 1:
        raise ValueError("quadrature order must be >= 1")
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w


@lru_cache(maxsize=None)
def gauss_hermite_standard(order: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensorized rule for E[f(xi)] with xi ~ N(0, I_dim).

    Returns nodes of shape (order**dim, dim) and positive weights summing
    to 1 (up to roundoff).  Tensorization is meant for dim <= 3.
    """
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    if dim > 3:
        raise ValueError("tensorized Gauss-Hermite is limited to dim <= 3")
    x, w = np.polynomial.hermite.hermgauss(order)
    # physicists' weight exp(-t^2) -> standard normal
    return tensor_rule(x * np.sqrt(2.0), w / np.sqrt(np.pi), dim)


def tensor_rule(x: np.ndarray, w: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Product rule on R^dim from the 1-D nodes x and weights w.

    Returns nodes of shape (len(x)**dim, dim), the last axis varying
    fastest, and weights w[i_0] * ... * w[i_{dim-1}] multiplied in axis
    order.
    """
    grids = np.meshgrid(*([x] * dim), indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=-1)
    weights = np.ones(nodes.shape[0])
    for g in np.meshgrid(*([w] * dim), indexing="ij"):
        weights = weights * g.ravel()
    return nodes, weights


def rule_certificate(gh_order: int, dim: int, u_order: int) -> dict:
    """Checks on the Stein solver's two rules: the smallest Gauss-Hermite
    weight (must be > 0), |sum of GH weights - 1|, and the Gauss-Legendre
    moment defect max_k |sum_j w_j u_j^(k-1) - 1/k| for k = 1, 2."""
    _, zw = gauss_hermite_standard(gh_order, dim)
    u, uw = gauss_legendre_01(u_order)
    return {
        "gh_order": gh_order,
        "u_order": u_order,
        "gh_min_weight": float(zw.min()),
        "gh_weight_sum_defect": abs(float(zw.sum()) - 1.0),
        "gl_moment_defect": max(abs(float(uw @ u ** (k - 1)) - 1.0 / k) for k in (1, 2)),
    }


def composite_gauss_legendre(a: float, b: float, panels: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule on [a, b] with `panels` equal panels."""
    if b <= a:
        raise ValueError("empty interval")
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights
