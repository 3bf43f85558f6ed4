"""Gaussian-comparison test functions and the Stein equation machinery.

The multivariate equation  tr(Sigma D^2 A)(w) - w . grad A(w) = h(w) - E h(Z),
Z ~ N(0, Sigma), is solved by the Gaussian smoothing representation; with the
substitution u = e^{-s},

    A(w)      = - int_0^1 { E_z h(u w + sqrt(1-u^2) z) - E h(Z) } / u du,
    grad A(w) = - int_0^1 E_z[ grad h(u w + sqrt(1-u^2) z) ] du,
    D^2 A(w)  = - int_0^1 u E_z[ D^2 h(u w + sqrt(1-u^2) z) ] du.

Expectations use a fixed tensorized Gauss-Hermite rule and the u-integrals a
fixed Gauss-Legendre rule on (0,1); because the node sets are shared, the
three evaluators are exact derivatives of one another, which the
decomposition code relies on.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations_with_replacement, permutations
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf

from .linalg import batch_spectral_norm, check_symmetric
from .quadrature import composite_gauss_legendre, gauss_hermite_standard, gauss_legendre_01

__all__ = [
    "TestFunction",
    "AffineTestFunction",
    "QuadraticTestFunction",
    "SeparableTestFunction",
    "TanhFactor",
    "GaussFactor",
    "SinFactor",
    "builtin_test_functions",
    "smooth_metric_family",
    "LipschitzFunction",
    "lipschitz_family_1d",
    "SteinSolution",
    "solve_stein_at",
    "stein_residual",
    "BoundCheckReport",
    "derivative_bound_check",
    "univariate_solution",
    "UnivariateBoundReport",
    "univariate_bound_check",
    "g_h_evaluate",
    "g_h_norm_probe",
    "MollifierSmoother",
    "mollify",
]

TANH_D2_SUP = 4.0 / (3.0 * math.sqrt(3.0))
TANH_D3_SUP = 2.0
GAUSS_D1_SUP = math.exp(-0.5)
GAUSS_D2_SUP = 1.0
_ARG3 = math.sqrt(3.0 - math.sqrt(6.0))
GAUSS_D3_SUP = (3.0 * _ARG3 - _ARG3**3) * math.exp(-0.5 * _ARG3**2)


def index_tuples(dim: int, order: int) -> list[tuple[int, ...]]:
    """Sorted coordinate tuples indexing the distinct partials of a given order."""
    return list(combinations_with_replacement(range(dim), order))


class TestFunction:
    """Smooth h : R^d -> R with closed-form derivatives up to order three.

    `partial_sup(t)` returns sup_w |d^t h(w)| for a coordinate tuple t (e.g.
    (0, 1) for d^2/dw_0 dw_1), or None when the partial is unbounded.
    """

    dimension: int
    name: str = ""

    def value(self, w: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def gradient(self, w: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def hessian(self, w: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def third(self, w: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def partial_sup(self, idx: tuple[int, ...]) -> float | None:
        raise NotImplementedError

    def derivative_sup(self, order: int) -> float | None:
        """max over coordinate tuples of sup |d^t h|; None if any is unbounded."""
        sups = [self.partial_sup(t) for t in index_tuples(self.dimension, order)]
        if any(s is None for s in sups):
            return None
        return max(sups) if sups else 0.0

    def fields(self, w: np.ndarray, need: Sequence[str]) -> dict[str, np.ndarray]:
        """Requested subset of value/gradient/hessian in one call."""
        out: dict[str, np.ndarray] = {}
        if "value" in need:
            out["value"] = self.value(w)
        if "gradient" in need:
            out["gradient"] = self.gradient(w)
        if "hessian" in need:
            out["hessian"] = self.hessian(w)
        return out

    def __call__(self, w):
        return self.value(np.asarray(w, dtype=float))


@dataclass(frozen=True)
class AffineTestFunction(TestFunction):
    coeffs: tuple[float, ...]
    const: float = 0.0
    name: str = "affine"

    @property
    def dimension(self) -> int:
        return len(self.coeffs)

    def value(self, w):
        return np.asarray(w) @ np.asarray(self.coeffs) + self.const

    def gradient(self, w):
        w = np.asarray(w)
        return np.broadcast_to(np.asarray(self.coeffs), w.shape).copy()

    def hessian(self, w):
        w = np.asarray(w)
        d = self.dimension
        return np.zeros(w.shape[:-1] + (d, d))

    def third(self, w):
        w = np.asarray(w)
        d = self.dimension
        return np.zeros(w.shape[:-1] + (d, d, d))

    def partial_sup(self, idx):
        if len(idx) == 1:
            return abs(self.coeffs[idx[0]])
        return 0.0

    @property
    def lipschitz(self) -> float:
        return float(np.linalg.norm(self.coeffs))


@dataclass(frozen=True)
class QuadraticTestFunction(TestFunction):
    """h(w) = w^T Q w / 2 + v . w + c with symmetric Q."""

    quad: tuple[tuple[float, ...], ...]
    lin: tuple[float, ...]
    const: float = 0.0
    name: str = "quadratic"

    def __post_init__(self):
        q = np.asarray(self.quad, dtype=float)
        check_symmetric(q)
        if q.shape[0] != len(self.lin):
            raise ValueError("shape mismatch between quad and lin parts")

    @property
    def dimension(self) -> int:
        return len(self.lin)

    def _q(self):
        return np.asarray(self.quad, dtype=float)

    def value(self, w):
        w = np.asarray(w)
        q = self._q()
        return 0.5 * np.einsum("...a,ab,...b->...", w, q, w) + w @ np.asarray(self.lin) + self.const

    def gradient(self, w):
        w = np.asarray(w)
        return w @ self._q() + np.asarray(self.lin)

    def hessian(self, w):
        w = np.asarray(w)
        return np.broadcast_to(self._q(), w.shape[:-1] + (self.dimension, self.dimension)).copy()

    def third(self, w):
        w = np.asarray(w)
        d = self.dimension
        return np.zeros(w.shape[:-1] + (d, d, d))

    def partial_sup(self, idx):
        if len(idx) == 1:
            return None                      # gradient grows linearly
        if len(idx) == 2:
            return abs(self._q()[idx[0], idx[1]])
        return 0.0


class Factor1D:
    """One coordinate factor of a separable test function."""

    sups: tuple[float, float, float, float]

    def tables(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(g, g', g'', g''') evaluated elementwise."""
        raise NotImplementedError


@dataclass(frozen=True)
class TanhFactor(Factor1D):
    a: float
    b: float = 0.0

    def tables(self, u):
        g = np.tanh(self.a * u + self.b)
        s = 1.0 - g * g
        a = self.a
        return g, a * s, -2.0 * a * a * g * s, -2.0 * a**3 * s * (1.0 - 3.0 * g * g)

    @property
    def sups(self):
        a = abs(self.a)
        return (1.0, a, TANH_D2_SUP * a * a, TANH_D3_SUP * a**3)


@dataclass(frozen=True)
class GaussFactor(Factor1D):
    scale: float
    center: float = 0.0

    def tables(self, u):
        s = self.scale
        v = (u - self.center) / s
        g = np.exp(-0.5 * v * v)
        return g, -v / s * g, (v * v - 1.0) / (s * s) * g, (3.0 * v - v**3) / s**3 * g

    @property
    def sups(self):
        s = abs(self.scale)
        return (1.0, GAUSS_D1_SUP / s, GAUSS_D2_SUP / (s * s), GAUSS_D3_SUP / s**3)


@dataclass(frozen=True)
class SinFactor(Factor1D):
    a: float
    b: float = 0.0

    def tables(self, u):
        t = self.a * u + self.b
        g, c = np.sin(t), np.cos(t)
        a = self.a
        return g, a * c, -a * a * g, -(a**3) * c

    @property
    def sups(self):
        a = abs(self.a)
        return (1.0, a, a * a, a**3)


@dataclass(frozen=True)
class SeparableTestFunction(TestFunction):
    """h(w) = scale * prod_a g_a(w_a); all partial sups are exact products."""

    factors: tuple[Factor1D, ...]
    scale: float = 1.0
    name: str = "separable"

    @property
    def dimension(self) -> int:
        return len(self.factors)

    def _tables(self, w, depth: int):
        w = np.asarray(w, dtype=float)
        per = [f.tables(w[..., i]) for i, f in enumerate(self.factors)]
        return [np.stack([p[j] for p in per], axis=-1) for j in range(depth + 1)]

    def _assemble(self, tabs, counts):
        out = np.full(tabs[0].shape[:-1], self.scale)
        for i, c in enumerate(counts):
            out = out * tabs[c][..., i]
        return out

    def value(self, w):
        tabs = self._tables(w, 0)
        return self._assemble(tabs, [0] * self.dimension)

    def _gradient_from(self, tabs):
        d = self.dimension
        cols = []
        for a in range(d):
            counts = [0] * d
            counts[a] = 1
            cols.append(self._assemble(tabs, counts))
        return np.stack(cols, axis=-1)

    def _hessian_from(self, tabs):
        d = self.dimension
        out = np.empty(tabs[0].shape[:-1] + (d, d))
        for a in range(d):
            for b in range(a, d):
                counts = [0] * d
                counts[a] += 1
                counts[b] += 1
                block = self._assemble(tabs, counts)
                out[..., a, b] = block
                if a != b:
                    out[..., b, a] = block
        return out

    def gradient(self, w):
        return self._gradient_from(self._tables(w, 1))

    def hessian(self, w):
        return self._hessian_from(self._tables(w, 2))

    def fields(self, w, need):
        depth = 2 if "hessian" in need else (1 if "gradient" in need else 0)
        tabs = self._tables(w, depth)
        out = {}
        if "value" in need:
            out["value"] = self._assemble(tabs, [0] * self.dimension)
        if "gradient" in need:
            out["gradient"] = self._gradient_from(tabs)
        if "hessian" in need:
            out["hessian"] = self._hessian_from(tabs)
        return out

    def third(self, w):
        d = self.dimension
        tabs = self._tables(w, 3)
        out = np.empty(tabs[0].shape[:-1] + (d, d, d))
        for key in combinations_with_replacement(range(d), 3):
            counts = [0] * d
            for a in key:
                counts[a] += 1
            block = self._assemble(tabs, counts)
            for perm in set(permutations(key)):
                out[(...,) + perm] = block
        return out

    def partial_sup(self, idx):
        counts = [0] * self.dimension
        for a in idx:
            counts[a] += 1
        if max(counts, default=0) > 3:
            raise ValueError("partials beyond order three are not tabulated")
        out = abs(self.scale)
        for i, c in enumerate(counts):
            out *= self.factors[i].sups[c]
        return out

    @property
    def lipschitz(self) -> float:
        grads = [self.partial_sup((a,)) for a in range(self.dimension)]
        return float(np.linalg.norm(grads))


def builtin_test_functions(dim: int) -> list[TestFunction]:
    """The fixed test-function battery used by residual and bound sweeps."""
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    v = tuple(1.0 / (i + 1.0) for i in range(dim))
    q = np.diag([1.0 + 0.5 * i for i in range(dim)])
    for i in range(dim - 1):
        q[i, i + 1] = q[i + 1, i] = 0.25
    out: list[TestFunction] = [
        AffineTestFunction(v, 0.5, name="affine"),
        QuadraticTestFunction(tuple(map(tuple, q)), v, -0.25, name="quadratic"),
        SeparableTestFunction(
            tuple(TanhFactor(0.6, 0.3 * (i - 0.5)) for i in range(dim)), 1.0, "tanh_prod"
        ),
        SeparableTestFunction(
            tuple(TanhFactor(0.4 + 0.15 * i, -0.2) for i in range(dim)), 0.7, "tanh_asym"
        ),
        SeparableTestFunction(
            tuple(GaussFactor(1.2, 0.4) for _ in range(dim)), 1.0, "gauss_bump"
        ),
        SeparableTestFunction(
            tuple(GaussFactor(2.0, -0.3 * i) for i in range(dim)), 0.8, "gauss_wide"
        ),
    ]
    return out


def smooth_metric_family(dim: int) -> list[TestFunction]:
    """Bounded test functions rescaled so that max_t sup |d^t h| = 1 at order 3."""
    raw: list[TestFunction] = [
        SeparableTestFunction(tuple(TanhFactor(1.0, 0.0) for _ in range(dim)), 1.0, "m_tanh0"),
        SeparableTestFunction(tuple(TanhFactor(0.7, 0.8) for _ in range(dim)), 1.0, "m_tanh1"),
        SeparableTestFunction(tuple(TanhFactor(1.3, -0.5) for _ in range(dim)), 1.0, "m_tanh2"),
        SeparableTestFunction(tuple(GaussFactor(1.0, 0.0) for _ in range(dim)), 1.0, "m_bump0"),
        SeparableTestFunction(tuple(GaussFactor(1.5, 1.0) for _ in range(dim)), 1.0, "m_bump1"),
        SeparableTestFunction(tuple(GaussFactor(0.8, -1.2) for _ in range(dim)), 1.0, "m_bump2"),
        SeparableTestFunction(tuple(SinFactor(1.0, 0.4) for _ in range(dim)), 1.0, "m_sin0"),
        SeparableTestFunction(tuple(SinFactor(0.6, -0.9) for _ in range(dim)), 1.0, "m_sin1"),
    ]
    out = []
    for h in raw:
        d3 = h.derivative_sup(3)
        scale = 1.0 / d3 if d3 and d3 > 1e-12 else 1.0
        out.append(SeparableTestFunction(h.factors, h.scale * scale, h.name))
    return out


@dataclass(frozen=True)
class LipschitzFunction:
    """Plain scalar function with a declared Lipschitz constant (d = 1)."""

    name: str
    func: Callable[[np.ndarray], np.ndarray]
    lipschitz: float

    def __call__(self, w):
        return self.func(np.asarray(w, dtype=float))


def lipschitz_family_1d() -> list[LipschitzFunction]:
    """Ten smooth functions with Lipschitz constant exactly 1."""
    sq = math.sqrt(math.pi) / 2.0
    return [
        LipschitzFunction("linear", lambda w: w, 1.0),
        LipschitzFunction("tanh", np.tanh, 1.0),
        LipschitzFunction("tanh_half", lambda w: 2.0 * np.tanh(0.5 * w), 1.0),
        LipschitzFunction("tanh_double", lambda w: 0.5 * np.tanh(2.0 * w), 1.0),
        LipschitzFunction("sine", np.sin, 1.0),
        LipschitzFunction("sine_double", lambda w: 0.5 * np.sin(2.0 * w), 1.0),
        LipschitzFunction("erf_unit", lambda w: sq * erf(w), 1.0),
        LipschitzFunction("logcosh", lambda w: np.logaddexp(w, -w) - math.log(2.0), 1.0),
        LipschitzFunction("logcosh_double", lambda w: 0.5 * (np.logaddexp(2 * w, -2 * w) - math.log(2.0)), 1.0),
        LipschitzFunction("soft_id", lambda w: w / np.sqrt(1.0 + w * w), 1.0),
    ]


class SteinSolution:
    """Quadrature-backed solution of the multivariate comparison equation.

    Fixed Gauss-Hermite nodes (order `gh_order` per axis) handle the Gaussian
    expectation and fixed Gauss-Legendre nodes (`u_order`, interior to (0,1))
    the outer integral; `evaluate` returns A, grad A and D^2 A from a single
    pass over the shared point set.
    """

    def __init__(self, h: TestFunction, sigma, gh_order: int = 20, u_order: int = 32):
        self.h = h
        self.sigma = check_symmetric(np.asarray(sigma, dtype=float))
        d = h.dimension
        if self.sigma.shape != (d, d):
            raise ValueError("sigma shape does not match the test function dimension")
        vals = np.linalg.eigvalsh(self.sigma)
        if float(vals.min()) <= 0.0:
            raise ValueError("sigma must be positive definite")
        self.dimension = d
        self.gh_order = gh_order
        self.u_order = u_order
        self._chol = np.linalg.cholesky(self.sigma)
        xi, zw = gauss_hermite_standard(gh_order, d)
        self._znodes = xi @ self._chol.T
        self._zweights = zw
        self._unodes, self._uweights = gauss_legendre_01(u_order)
        self.phi_h = float(self._zweights @ np.asarray(h.value(self._znodes)))

    def _point_block(self, w_chunk: np.ndarray) -> np.ndarray:
        u = self._unodes[None, :, None, None]
        c = np.sqrt(1.0 - self._unodes**2)[None, :, None, None]
        return u * w_chunk[:, None, None, :] + c * self._znodes[None, None, :, :]

    def evaluate(
        self, w, need: tuple[str, ...] = ("value", "gradient", "hessian")
    ) -> dict[str, np.ndarray]:
        """Evaluate the requested fields at points w of shape (..., d)."""
        w = np.asarray(w, dtype=float)
        single = w.ndim == 1
        pts = w[None, :] if single else w.reshape(-1, w.shape[-1])
        b = pts.shape[0]
        d = self.dimension
        out: dict[str, np.ndarray] = {}
        if "value" in need:
            out["value"] = np.empty(b)
        if "gradient" in need:
            out["gradient"] = np.empty((b, d))
        if "hessian" in need:
            out["hessian"] = np.empty((b, d, d))
        j = self._unodes.size
        i = self._znodes.shape[0]
        # ~8M values per chunk: the point block has d per node, the Hessian d*d
        width = d * d if "hessian" in need else d
        chunk = max(1, int(8_000_000 / max(1, j * i * width)))
        uw = self._uweights
        un = self._unodes
        zw = self._zweights
        for lo in range(0, b, chunk):
            hi = min(b, lo + chunk)
            p = self._point_block(pts[lo:hi])
            fl = self.h.fields(p, need) if hasattr(self.h, "fields") else None
            if "value" in need:
                hv = np.asarray(fl["value"] if fl else self.h.value(p))
                psi = np.einsum("i,bji->bj", zw, hv)
                out["value"][lo:hi] = -((psi - self.phi_h) / un) @ uw
            if "gradient" in need:
                hg = np.asarray(fl["gradient"] if fl else self.h.gradient(p))
                out["gradient"][lo:hi] = -np.einsum("j,i,bjid->bd", uw, zw, hg)
            if "hessian" in need:
                hh = np.asarray(fl["hessian"] if fl else self.h.hessian(p))
                out["hessian"][lo:hi] = -np.einsum("j,i,bjide->bde", uw * un, zw, hh)
        if single:
            out = {k: v[0] for k, v in out.items()}
        else:
            shape = w.shape[:-1]
            out = {k: v.reshape(shape + v.shape[1:]) for k, v in out.items()}
        return out

    def value(self, w):
        return self.evaluate(w, ("value",))["value"]

    def gradient(self, w):
        return self.evaluate(w, ("gradient",))["gradient"]

    def hessian(self, w):
        return self.evaluate(w, ("hessian",))["hessian"]


def solve_stein_at(sol: SteinSolution, w) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A(w), grad A(w), D^2 A(w)) in one pass."""
    ev = sol.evaluate(w)
    return ev["value"], ev["gradient"], ev["hessian"]


def stein_residual(sol: SteinSolution, w) -> np.ndarray:
    """|tr(Sigma D^2 A) - w . grad A - h(w) + E h(Z)| at the given points."""
    w = np.asarray(w, dtype=float)
    ev = sol.evaluate(w, ("gradient", "hessian"))
    lhs = np.einsum("ab,...ba->...", sol.sigma, ev["hessian"]) - np.einsum(
        "...a,...a->...", w, ev["gradient"]
    )
    rhs = np.asarray(sol.h.value(w)) - sol.phi_h
    return np.abs(lhs - rhs)


@dataclass(frozen=True)
class BoundCheckReport:
    """Per-partial margins (1/k) sup|d^t h| - max_grid |d^t A|.

    Unbounded partials of h make the inequality vacuous; they are recorded
    with margin +inf.  `worst_margin` is the minimum over all entries.
    """

    margins: dict
    grid_size: int

    @property
    def worst_margin(self) -> float:
        finite = [m for m in self.margins.values() if math.isfinite(m)]
        return min(finite) if finite else math.inf

    def passed(self, tol: float = 1e-6) -> bool:
        return self.worst_margin >= -tol


def derivative_bound_check(
    sol: SteinSolution,
    grid: np.ndarray,
    orders: Sequence[int] = (1, 2),
    fd_step: float = 1e-3,
) -> BoundCheckReport:
    """Compare grid maxima of |d^t A| against (1/k) sup |d^t h| for k in orders.

    Orders 1 and 2 read off grad A and D^2 A; order 3, when requested, uses
    central differences of the Hessian along each axis.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 2 or grid.shape[1] != sol.dimension:
        raise ValueError("grid must have shape (points, d)")
    need = []
    if 1 in orders:
        need.append("gradient")
    if 2 in orders or 3 in orders:
        need.append("hessian")
    ev = sol.evaluate(grid, tuple(need))
    margins: dict = {}
    h = sol.h
    if 1 in orders:
        g = np.abs(ev["gradient"]).max(axis=0)
        for (a,) in index_tuples(sol.dimension, 1):
            sup = h.partial_sup((a,))
            margins[(1, (a,))] = math.inf if sup is None else sup - float(g[a])
    if 2 in orders:
        hmax = np.abs(ev["hessian"]).max(axis=0)
        for a, b in index_tuples(sol.dimension, 2):
            sup = h.partial_sup((a, b))
            margins[(2, (a, b))] = math.inf if sup is None else 0.5 * sup - float(hmax[a, b])
    if 3 in orders:
        d = sol.dimension
        third_max = np.zeros((d, d, d))
        for c in range(d):
            shift = np.zeros(d)
            shift[c] = fd_step
            hp = sol.evaluate(grid + shift, ("hessian",))["hessian"]
            hm = sol.evaluate(grid - shift, ("hessian",))["hessian"]
            der = np.abs((hp - hm) / (2.0 * fd_step)).max(axis=0)
            third_max[:, :, c] = der
        for a, b, c in index_tuples(sol.dimension, 3):
            sup = h.partial_sup((a, b, c))
            vals = [third_max[p] for p in set(permutations((a, b, c)))]
            got = max(vals)
            margins[(3, (a, b, c))] = math.inf if sup is None else sup / 3.0 - float(got)
    return BoundCheckReport(margins, grid.shape[0])


_UNIV_GH = 128
_UNIV_S_NODES = composite_gauss_legendre(0.0, 12.0, 24, 12)


def univariate_solution(h: Callable[[np.ndarray], np.ndarray], w: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Bounded solution of A'(w) - w A(w) = h(w) - E h(Z), Z ~ N(0,1).

    Returns (A, A', E h(Z)).  A is computed from the tail-integral form with
    the decaying-exponential substitution on each side of 0, and A' from the
    equation itself, which is exact given A.
    """
    w = np.asarray(w, dtype=float)
    zn, zw = gauss_hermite_standard(_UNIV_GH, 1)
    phi_h = float(zw @ np.asarray(h(zn[:, 0])))
    s, sw = _UNIV_S_NODES
    pos = w >= 0
    a = np.empty_like(w)
    if pos.any():
        wp = w[pos][:, None]
        integ = (np.asarray(h(wp + s[None, :])) - phi_h) * np.exp(-0.5 * s[None, :] ** 2 - wp * s[None, :])
        a[pos] = -integ @ sw
    if (~pos).any():
        wn = w[~pos][:, None]
        integ = (np.asarray(h(wn - s[None, :])) - phi_h) * np.exp(-0.5 * s[None, :] ** 2 + wn * s[None, :])
        a[~pos] = integ @ sw
    a_prime = w * a + np.asarray(h(w)) - phi_h
    return a, a_prime, phi_h


@dataclass(frozen=True)
class UnivariateBoundReport:
    name: str
    margin_a: float          # 2 - max |A|
    margin_a1: float         # sqrt(2/pi) - max |A'|
    margin_a2: float         # 2 - max |A''|

    @property
    def worst_margin(self) -> float:
        return min(self.margin_a, self.margin_a1, self.margin_a2)

    def passed(self, tol: float = 1e-6) -> bool:
        return self.worst_margin >= -tol


def univariate_bound_check(
    h: LipschitzFunction, grid: np.ndarray, fd_step: float = 1e-4
) -> UnivariateBoundReport:
    """Check ||A|| <= 2, ||A'|| <= sqrt(2/pi), ||A''|| <= 2 on the grid.

    Requires Lip(h) <= 1.  A'' is obtained by central differences of A'.
    """
    if h.lipschitz > 1.0 + 1e-12:
        raise ValueError("test function must be 1-Lipschitz")
    grid = np.asarray(grid, dtype=float)
    a, a1, _ = univariate_solution(h, grid)
    _, a1p, _ = univariate_solution(h, grid + fd_step)
    _, a1m, _ = univariate_solution(h, grid - fd_step)
    a2 = (a1p - a1m) / (2.0 * fd_step)
    return UnivariateBoundReport(
        h.name,
        2.0 - float(np.abs(a).max()),
        math.sqrt(2.0 / math.pi) - float(np.abs(a1).max()),
        2.0 - float(np.abs(a2).max()),
    )


def _binv(b: np.ndarray) -> np.ndarray:
    b = np.asarray(b, dtype=float)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ValueError("b must be a square matrix")
    if np.linalg.cond(b) > 1e12:
        raise ValueError("b is numerically singular")
    return np.linalg.inv(b)


def g_h_evaluate(h: TestFunction, b: np.ndarray, s: float, t: float, z: np.ndarray, x, y) -> np.ndarray:
    """Normalized second-difference kernel of h.

    G(x, y) = b^{-1} [ D^2 h(s b^{-1}(x + t y) + z) - D^2 h(s b^{-1} x + z) ] b^{-1},
    broadcast over leading axes of x and y.
    """
    binv = _binv(b)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    a1 = s * (x + t * y) @ binv.T + z
    a0 = s * x @ binv.T + z
    diff = np.asarray(h.hessian(a1)) - np.asarray(h.hessian(a0))
    return np.einsum("ab,...bc,cd->...ad", binv, diff, binv)


def g_h_norm_probe(
    h: TestFunction, b: np.ndarray, s: float, t: float, z: np.ndarray, xs, ys
) -> tuple[float, float]:
    """Probe max spectral norms of G and of its first partials over (xs, ys).

    Partials use the closed-form third derivatives of h contracted against
    the relevant direction; this is a spot check over the supplied probe
    arguments, not a certified supremum.
    """
    binv = _binv(b)
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    z = np.asarray(z, dtype=float)
    d = h.dimension
    a1 = s * (xs + t * ys) @ binv.T + z
    a0 = s * xs @ binv.T + z
    g = np.einsum(
        "ab,...bc,cd->...ad", binv, np.asarray(h.hessian(a1)) - np.asarray(h.hessian(a0)), binv
    )
    sup_g = float(batch_spectral_norm(g).max())
    t3_1 = np.asarray(h.third(a1))
    t3_0 = np.asarray(h.third(a0))
    sup_grad = 0.0
    for c in range(d):
        v = s * binv[:, c]
        dx = np.einsum("...abc,c->...ab", t3_1, v) - np.einsum("...abc,c->...ab", t3_0, v)
        dy = np.einsum("...abc,c->...ab", t3_1, t * v)
        for der in (dx, dy):
            sandwich = np.einsum("ab,...bc,cd->...ad", binv, der, binv)
            sup_grad = max(sup_grad, float(batch_spectral_norm(sandwich).max()))
    return sup_g, sup_grad


def _ball_volume(d: int) -> float:
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def mollifier_normalization(dim: int) -> float:
    """c with c * integral of exp(-1/(1-|x|^2)^2) over the unit ball = 1."""
    surface = 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)
    r, rw = composite_gauss_legendre(0.0, 1.0, 24, 14)
    radial = float(((np.exp(-1.0 / (1.0 - r**2) ** 2)) * r ** (dim - 1)) @ rw)
    return 1.0 / (surface * radial)


class MollifierSmoother:
    """Compactly supported smoothing kernel on R^d x R^d.

    Each block carries eta(x) = c exp(-1/(1 - |x|^2)^2) on the unit ball; the
    product kernel j = eta (x) eta is scaled to j_eps.  Discrete node weights
    are renormalized to sum exactly to 1, so constants are reproduced
    exactly.
    """

    def __init__(self, dim: int, epsilon: float, order: int = 32):
        if not (0 < epsilon):
            raise ValueError("epsilon must be positive")
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = dim
        self.epsilon = float(epsilon)
        self.order = order
        self.c = mollifier_normalization(dim)
        self._pair_cache: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def _nodes(self) -> np.ndarray:
        if self._pair_cache is None:
            self._pair_cache = self._kernel_nodes(self.dim, self.order)
        return self._pair_cache[0]

    @property
    def _weights(self) -> np.ndarray:
        if self._pair_cache is None:
            self._pair_cache = self._kernel_nodes(self.dim, self.order)
        return self._pair_cache[1]

    def eta(self, x) -> np.ndarray:
        """Single-block kernel value; x has shape (..., dim)."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.dim,):
            raise ValueError("eta expects points of shape (..., dim)")
        r2 = np.sum(x * x, axis=-1)
        safe = np.maximum(1.0 - r2, 1e-150)
        return np.where(r2 < 1.0, self.c * np.exp(-1.0 / safe**2), 0.0)

    def _kernel_nodes(self, dim: int, order: int) -> tuple[np.ndarray, np.ndarray]:
        x, w = np.polynomial.legendre.leggauss(order)
        grids = np.meshgrid(*([x] * dim), indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=-1)
        ww = np.ones(pts.shape[0])
        for g in np.meshgrid(*([w] * dim), indexing="ij"):
            ww = ww * g.ravel()
        r2 = np.sum(pts * pts, axis=-1)
        dens = np.where(r2 < 1.0, np.exp(-1.0 / np.maximum(1.0 - r2, 1e-150) ** 2), 0.0)
        block_w = ww * self.c * dens
        keep = block_w > 0
        pts, block_w = pts[keep], block_w[keep]
        # product over the two blocks
        n = pts.shape[0]
        if n * n > 4_000_000:
            raise ValueError(
                "paired kernel would need too many nodes; lower the order or dim"
            )
        left = np.repeat(pts, n, axis=0)
        right = np.tile(pts, (n, 1))
        nodes = np.concatenate([left, right], axis=1)
        weights = np.repeat(block_w, n) * np.tile(block_w, n)
        weights = weights / weights.sum()
        return nodes, weights

    def kernel_mass_check(self, order: int | None = None) -> float:
        """Independent tensor-grid estimate of the single-block mass."""
        order = order or (self.order + 17)
        x, w = np.polynomial.legendre.leggauss(order)
        grids = np.meshgrid(*([x] * self.dim), indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=-1)
        ww = np.ones(pts.shape[0])
        for g in np.meshgrid(*([w] * self.dim), indexing="ij"):
            ww = ww * g.ravel()
        r2 = np.sum(pts * pts, axis=-1)
        dens = np.where(r2 < 1.0, np.exp(-1.0 / np.maximum(1.0 - r2, 1e-150) ** 2), 0.0)
        return float((self.c * dens) @ ww)

    def normalization_lower_bound_ok(self) -> bool:
        """Crude lower bound 1/c >= e^{-2} (1/2)^d vol(B_d)."""
        return 1.0 / self.c >= math.exp(-2.0) * 0.5**self.dim * _ball_volume(self.dim)

    def smooth(self, g: Callable[[np.ndarray], np.ndarray]) -> Callable[[np.ndarray], np.ndarray]:
        """Return x -> integral of g(x - eps y) j(y) dy; g must broadcast over rows."""
        nodes = self._nodes
        weights = self._weights

        def smoothed(x):
            x = np.asarray(x, dtype=float)
            single = x.ndim == 1
            pts = x[None, :] if single else x
            shifted = pts[:, None, :] - self.epsilon * nodes[None, :, :]
            vals = np.asarray(g(shifted))
            out = np.einsum("q,bq...->b...", weights, vals)
            return out[0] if single else out

        return smoothed


def mollify(
    g: Callable[[np.ndarray], np.ndarray],
    epsilon: float,
    dim: int = 1,
    order: int = 32,
    probes: np.ndarray | None = None,
) -> tuple[Callable[[np.ndarray], np.ndarray], float | None]:
    """Smooth g on R^d x R^d and optionally report max |g^eps - g| on probes."""
    smoother = MollifierSmoother(dim, epsilon, order)
    smoothed = smoother.smooth(g)
    err = None
    if probes is not None:
        probes = np.asarray(probes, dtype=float)
        err = float(np.max(np.abs(np.asarray(smoothed(probes)) - np.asarray(g(probes)))))
    return smoothed, err
