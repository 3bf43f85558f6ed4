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

Every test function is a `SeparableTestFunction`: a sum of terms, each a
scale times one 1-D factor per axis.  The closed-form cases are such sums
too, built from the power factors u^0, u^1, u^2.

`SteinSolution.evaluate` takes either an array of points or a `TensorGrid`
(every combination of one coordinate per axis), and both take one path.  The
GH nodes are z = xi L^T, xi the tensor grid (last axis fastest) and L the
lower Cholesky factor, so z_{i,a} depends on (i_0 ... i_a) only, and the
weights factor as w[i_0] ... w[i_{d-1}].  Per-axis factor tables T_a[j, g, i]
at u_j x_a + sqrt(1-u_j^2) z_{i,a} thus span gh^(a+1) GH columns i (last, so
sums run contiguous), at the input's coordinates g on axis a: the grid's
axis, or the points' a-th column.  The last axis's tables, gh^d columns
wide, are never held whole: they are built a block of u-nodes at a time,
and each derivative table of a block is summed over its own GH index as soon
as its factor yields it (the factors compute in place), once per (factor,
derivative order).  The other axes' tables are built after that, so at
points one constant (`_CHUNK_VALUES`) bounds the memory of a call.  Each
term is then contracted one GH axis at a time from there; the first axis's
product and its GH sum are one einsum, so that axis's product array is
never built.  The partials of all requested fields are taken in groups that
read the same derivative orders on axes 1..d-1, so in a group the terms'
contractions down to axis 1 are shared: each distinct set of those tables
is contracted once, and only the axis-0 einsum and the scale run per
partial and term.  Only the multiply between axes depends on the input, an
outer product on a grid and elementwise at points, so a grid equals its
`points()` bit for bit (tests/test_stein.py).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations_with_replacement, islice, permutations
from typing import Callable, Sequence

import numpy as np

from .linalg import check_symmetric
from .quadrature import (
    composite_gauss_legendre,
    gauss_hermite_standard,
    gauss_legendre_01,
    tensor_rule,
)

__all__ = [
    "SeparableTestFunction",
    "Term",
    "TanhFactor",
    "GaussFactor",
    "SinFactor",
    "PowerFactor",
    "product_function",
    "affine_function",
    "quadratic_function",
    "builtin_test_functions",
    "smooth_metric_family",
    "LipschitzFunction",
    "lipschitz_family_1d",
    "TensorGrid",
    "SteinSolution",
    "stein_residual",
    "BoundCheckReport",
    "derivative_bound_check",
    "univariate_solution",
    "UnivariateBoundReport",
    "univariate_bound_check",
    "MollifierSmoother",
    "mollify",
]

TANH_D2_SUP = 4.0 / (3.0 * math.sqrt(3.0))
TANH_D3_SUP = 2.0
GAUSS_D1_SUP = math.exp(-0.5)
GAUSS_D2_SUP = 1.0
_ARG3 = math.sqrt(3.0 - math.sqrt(6.0))
GAUSS_D3_SUP = (3.0 * _ARG3 - _ARG3**3) * math.exp(-0.5 * _ARG3**2)


# The fields a Stein solution is evaluated for, indexed by derivative order.
_FIELDS = ("value", "gradient", "hessian")


def index_tuples(dim: int, order: int) -> list[tuple[int, ...]]:
    """Sorted coordinate tuples indexing the distinct partials of a given order."""
    return list(combinations_with_replacement(range(dim), order))


def _fill_partial(out: np.ndarray, idx: tuple[int, ...], block: np.ndarray) -> None:
    """Write one partial into every permuted slot of a symmetric derivative field."""
    for perm in set(permutations(idx)):
        out[(...,) + perm] = block


class Factor1D:
    """One coordinate factor g of a product term; `sups` holds the sups of |g|
    and of its first three derivatives, None where one is unbounded.
    `_derivatives` computes in place: its argument is an array (not 0-d),
    and each table it yields is an array of its own that it never writes
    again."""

    sups: tuple[float | None, float | None, float | None, float | None]

    def tables(self, u: np.ndarray, depth: int) -> tuple[np.ndarray, ...]:
        """(g, g', ..., g^(depth)) evaluated elementwise, for depth <= 2."""
        return tuple(islice(self._derivatives(u), depth + 1))

    def _derivatives(self, u):
        """Yield g, g', g'' in turn, each computed only when asked for."""
        raise NotImplementedError


@dataclass(frozen=True)
class TanhFactor(Factor1D):
    a: float
    b: float = 0.0

    def _derivatives(self, u):
        a = self.a
        g = a * u
        g += self.b
        np.tanh(g, out=g)
        yield g
        s = g * g
        np.subtract(1.0, s, out=s)
        yield a * s
        g2 = -2.0 * a * a * g
        g2 *= s
        yield g2

    @property
    def sups(self):
        a = abs(self.a)
        return (1.0, a, TANH_D2_SUP * a * a, TANH_D3_SUP * a**3)


@dataclass(frozen=True)
class GaussFactor(Factor1D):
    scale: float
    center: float = 0.0

    def _derivatives(self, u):
        s = self.scale
        v = u - self.center
        v /= s
        g = -0.5 * v
        g *= v
        np.exp(g, out=g)
        yield g
        g1 = np.negative(v)
        g1 /= s
        g1 *= g
        yield g1
        v *= v                          # v is not yielded: g'' takes its buffer
        v -= 1.0
        v /= s * s
        v *= g
        yield v

    @property
    def sups(self):
        s = abs(self.scale)
        return (1.0, GAUSS_D1_SUP / s, GAUSS_D2_SUP / (s * s), GAUSS_D3_SUP / s**3)


@dataclass(frozen=True)
class SinFactor(Factor1D):
    a: float
    b: float = 0.0

    def _derivatives(self, u):
        a = self.a
        t = a * u
        t += self.b
        g = np.sin(t)
        yield g
        np.cos(t, out=t)                # t is not yielded: g' takes its buffer
        t *= a
        yield t
        yield -a * a * g

    @property
    def sups(self):
        a = abs(self.a)
        return (1.0, a, a * a, a**3)


@dataclass(frozen=True)
class PowerFactor(Factor1D):
    """g(u) = u^p for p in {0, 1, 2}; the derivatives below order p are unbounded."""

    p: int

    def __post_init__(self):
        if self.p not in (0, 1, 2):
            raise ValueError("power factors take p in {0, 1, 2}")

    def _derivatives(self, u):
        u = np.asarray(u, dtype=float)
        for k in range(3):
            n = self.p - k              # d^k u^p = p!/(p-k)! u^(p-k), zero for k > p
            if n < 0:
                yield np.zeros(u.shape)
            else:
                yield math.perm(self.p, k) * (u * u if n == 2 else u if n == 1 else np.ones(u.shape))

    @property
    def sups(self):
        top = float(math.factorial(self.p))
        return tuple(None if k < self.p else top if k == self.p else 0.0 for k in range(4))


@dataclass(frozen=True)
class Term:
    """scale * prod_a g_a(w_a), one factor per axis."""

    scale: float
    factors: tuple[Factor1D, ...]

    def vanishes(self, counts) -> bool:
        """Whether the partial with counts[a] derivatives on axis a is identically 0."""
        return self.scale == 0.0 or any(f.sups[c] == 0.0 for f, c in zip(self.factors, counts))


def _counts(dim: int, idx: tuple[int, ...]) -> list[int]:
    return [idx.count(a) for a in range(dim)]


def _product(scale: float, tables) -> np.ndarray:
    out = scale * tables[0]
    for t in tables[1:]:
        out *= t
    return out


@dataclass(frozen=True)
class SeparableTestFunction:
    """Smooth h : R^d -> R, a sum of product terms scale * prod_a g_a(w_a).

    The partial d^t h is the sum over terms of scale * prod_a g_a^{(c_a)}(w_a),
    where c_a counts the occurrences of axis a in t; a term is skipped where
    that partial vanishes (zero scale, or a factor whose derivative has sup
    0).  `_tensor` is the
    one place that builds such sums: it fills the symmetric tensor of every
    partial of one order from per-axis factor tables, one table per distinct
    (axis, factor), and value, gradient, hessian and evaluate all read off it.

    `partial_sup(t)` returns a bound on sup_w |d^t h(w)| for a coordinate
    tuple t (e.g. (0, 1) for d^2/dw_0 dw_1) of order up to three: the sum of
    the terms' exact sups (exact for one term), or None when a non-vanishing
    term has an unbounded factor.
    """

    terms: tuple[Term, ...]
    name: str = "separable"

    def __post_init__(self):
        if not self.terms or len({len(t.factors) for t in self.terms}) != 1:
            raise ValueError("a test function needs terms with one factor per axis each")

    @property
    def dimension(self) -> int:
        return len(self.terms[0].factors)

    def _tables(self, cols, depth: int) -> dict:
        """Tables up to g^(depth) keyed by (axis, factor); cols[a] holds the
        arguments of axis a, for the first len(cols) axes."""
        tabs = {}
        for term in self.terms:
            for a, (f, x) in enumerate(zip(term.factors, cols)):
                if (a, f) not in tabs:
                    tabs[a, f] = f.tables(x, depth)
        return tabs

    def _orders_read(self, axis: int, orders) -> dict:
        """The derivative orders of each factor on `axis` that some term
        reads in the partials of the given orders, vanishing terms skipped
        as `_sum_terms` skips them."""
        read = {}
        for k in orders:
            for idx in index_tuples(self.dimension, k):
                counts = _counts(self.dimension, idx)
                for term in self.terms:
                    if not term.vanishes(counts):
                        read.setdefault(term.factors[axis], set()).add(counts[axis])
        return read

    def _sum_terms(self, tabs, idx: tuple[int, ...], block, zero):
        """Sum over the terms whose partial d^idx does not vanish of
        block(scale, [per-axis derivative tables]); `zero` if every one
        vanishes.  The first block is taken as is and later ones are added
        into it, so one term costs no extra operation; `block` returns a fresh
        array."""
        counts = _counts(self.dimension, idx)
        total = None
        for term in self.terms:
            if term.vanishes(counts):
                continue
            part = block(term.scale, [tabs[a, f][c] for a, (f, c) in enumerate(zip(term.factors, counts))])
            if total is None:
                total = part
            else:
                total += part
        return zero if total is None else total

    def _tensor(self, tabs, shape, order: int) -> np.ndarray:
        d = self.dimension
        out = np.empty(shape + (d,) * order)
        for idx in index_tuples(d, order):
            _fill_partial(out, idx, self._sum_terms(tabs, idx, _product, 0.0))
        return out

    def value(self, w):
        return self.evaluate(w, ("value",))["value"]

    def gradient(self, w):
        return self.evaluate(w, ("gradient",))["gradient"]

    def hessian(self, w):
        return self.evaluate(w, ("hessian",))["hessian"]

    def evaluate(self, w: np.ndarray, need: Sequence[str]) -> dict[str, np.ndarray]:
        """Requested subset of value/gradient/hessian in one call."""
        w = np.asarray(w, dtype=float)
        pts = w.reshape(-1, self.dimension)  # the factors compute in place: no 0-d columns
        orders = {name: k for k, name in enumerate(_FIELDS) if name in need}
        tabs = self._tables(pts.T, max(orders.values(), default=0))
        return {
            name: self._tensor(tabs, pts.shape[:1], k).reshape(w.shape[:-1] + (self.dimension,) * k)
            for name, k in orders.items()
        }

    def partial_sup(self, idx: tuple[int, ...]) -> float | None:
        counts = _counts(self.dimension, idx)
        if max(counts, default=0) > 3:
            raise ValueError("partials beyond order three are not tabulated")
        total = 0.0
        for term in self.terms:
            if term.vanishes(counts):
                continue
            sups = [f.sups[c] for f, c in zip(term.factors, counts)]
            if None in sups:
                return None
            out = abs(term.scale)
            for s in sups:
                out *= s
            total += out
        return total

    def derivative_sup(self, order: int) -> float | None:
        """max over coordinate tuples of sup |d^t h|; None if any is unbounded."""
        sups = [self.partial_sup(t) for t in index_tuples(self.dimension, order)]
        if any(s is None for s in sups):
            return None
        return max(sups) if sups else 0.0


def product_function(factors, scale: float = 1.0, name: str = "separable") -> SeparableTestFunction:
    """h(w) = scale * prod_a g_a(w_a), a single term."""
    return SeparableTestFunction((Term(scale, tuple(factors)),), name)


def _monomial(dim: int, coeff: float, axes: tuple[int, ...]) -> Term:
    """coeff * prod of w_a over the (possibly repeated) axes."""
    return Term(coeff, tuple(PowerFactor(axes.count(a)) for a in range(dim)))


def affine_function(v, const: float = 0.0, name: str = "affine") -> SeparableTestFunction:
    """h(w) = v . w + c."""
    dim = len(v)
    terms = [_monomial(dim, float(v[a]), (a,)) for a in range(dim)] + [_monomial(dim, const, ())]
    return SeparableTestFunction(tuple(terms), name)


def quadratic_function(q, v, const: float = 0.0, name: str = "quadratic") -> SeparableTestFunction:
    """h(w) = w^T Q w / 2 + v . w + c with symmetric Q."""
    q = check_symmetric(np.asarray(q, dtype=float))
    lin = affine_function(v, const)
    dim = lin.dimension
    if q.shape[0] != dim:
        raise ValueError("shape mismatch between quad and lin parts")
    quad = [
        _monomial(dim, (0.5 if a == b else 1.0) * float(q[a, b]), (a, b))
        for a, b in index_tuples(dim, 2)
    ]
    return SeparableTestFunction(tuple(quad) + lin.terms, name)


def builtin_test_functions(dim: int) -> list[SeparableTestFunction]:
    """The fixed test-function battery used by residual and bound sweeps."""
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    v = tuple(1.0 / (i + 1.0) for i in range(dim))
    q = np.diag([1.0 + 0.5 * i for i in range(dim)])
    for i in range(dim - 1):
        q[i, i + 1] = q[i + 1, i] = 0.25
    return [
        affine_function(v, 0.5, name="affine"),
        quadratic_function(q, v, -0.25, name="quadratic"),
        product_function([TanhFactor(0.6, 0.3 * (i - 0.5)) for i in range(dim)], 1.0, "tanh_prod"),
        product_function([TanhFactor(0.4 + 0.15 * i, -0.2) for i in range(dim)], 0.7, "tanh_asym"),
        product_function([GaussFactor(1.2, 0.4)] * dim, 1.0, "gauss_bump"),
        product_function([GaussFactor(2.0, -0.3 * i) for i in range(dim)], 0.8, "gauss_wide"),
    ]


def smooth_metric_family(dim: int) -> list[SeparableTestFunction]:
    """Bounded test functions rescaled so that max_t sup |d^t h| = 1 at order 3."""
    raw = [
        ("m_tanh0", TanhFactor(1.0, 0.0)),
        ("m_tanh1", TanhFactor(0.7, 0.8)),
        ("m_tanh2", TanhFactor(1.3, -0.5)),
        ("m_bump0", GaussFactor(1.0, 0.0)),
        ("m_bump1", GaussFactor(1.5, 1.0)),
        ("m_bump2", GaussFactor(0.8, -1.2)),
        ("m_sin0", SinFactor(1.0, 0.4)),
        ("m_sin1", SinFactor(0.6, -0.9)),
    ]
    out = []
    for name, factor in raw:
        factors = [factor] * dim
        d3 = product_function(factors).derivative_sup(3)
        out.append(product_function(factors, 1.0 / d3 if d3 and d3 > 1e-12 else 1.0, name))
    return out


@dataclass(frozen=True)
class LipschitzFunction:
    """Plain scalar function with a declared Lipschitz constant (d = 1)."""

    name: str
    func: Callable[[np.ndarray], np.ndarray]
    lipschitz: float

    def __call__(self, w):
        return self.func(np.asarray(w, dtype=float))


def _erf_unit(w):
    """sqrt(pi)/2 erf(w), slope 1 at 0.  scipy.special is imported here, at
    the first call: nothing else in the package needs it."""
    from scipy.special import erf

    return math.sqrt(math.pi) / 2.0 * erf(w)


def lipschitz_family_1d() -> list[LipschitzFunction]:
    """Ten smooth functions with Lipschitz constant exactly 1."""
    return [
        LipschitzFunction("linear", lambda w: w, 1.0),
        LipschitzFunction("tanh", np.tanh, 1.0),
        LipschitzFunction("tanh_half", lambda w: 2.0 * np.tanh(0.5 * w), 1.0),
        LipschitzFunction("tanh_double", lambda w: 0.5 * np.tanh(2.0 * w), 1.0),
        LipschitzFunction("sine", np.sin, 1.0),
        LipschitzFunction("sine_double", lambda w: 0.5 * np.sin(2.0 * w), 1.0),
        LipschitzFunction("erf_unit", _erf_unit, 1.0),
        LipschitzFunction("logcosh", lambda w: np.logaddexp(w, -w) - math.log(2.0), 1.0),
        LipschitzFunction("logcosh_double", lambda w: 0.5 * (np.logaddexp(2 * w, -2 * w) - math.log(2.0)), 1.0),
        LipschitzFunction("soft_id", lambda w: w / np.sqrt(1.0 + w * w), 1.0),
    ]


class TensorGrid:
    """Every combination of one coordinate per axis, as a point set in R^d.

    `points()` lists them in meshgrid "ij" order (the last axis varies
    fastest) and `shape` is that array's shape, so code that only asks for
    the point count sees a plain (points, d) array.  Adding or subtracting a
    shift vector moves each axis by its entry and stays a grid.
    """

    def __init__(self, axes):
        self.axes = tuple(np.asarray(x, dtype=float).ravel() for x in axes)

    @property
    def shape(self) -> tuple[int, int]:
        return (math.prod(x.size for x in self.axes), len(self.axes))

    def points(self) -> np.ndarray:
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def __add__(self, shift) -> "TensorGrid":
        return TensorGrid([x + s for x, s in zip(self.axes, shift)])

    def __sub__(self, shift) -> "TensorGrid":
        return self + np.negative(shift)


# Values of the last axis's factor table (u-nodes x points x gh^d GH columns)
# that `SteinSolution._fill` builds at once, a block of u-nodes at a time, one
# derivative table after another.  A point input is cut into chunks of
# _CHUNK_VALUES // gh^d points, so one u-node's block fits; a grid is not
# cut, only its u-nodes are.  What a call keeps is summed over the last GH
# index, so at points no array it builds holds much more than
# max(1, u-nodes / gh) * _CHUNK_VALUES values, and a call's traced peak is a
# few such arrays: 8.6 chunks of _CHUNK_VALUES values at decompose-d2's
# points (d = 2, gh 8, u 8; tests/test_sunklodas.py).  These arrays, and the
# grid path's largest (about 2.1 MB, the stein-check residual
# tables), are freed and built again per term; they stay under the 4 MiB mmap
# threshold that `cli.main` sets, so glibc reuses their memory instead of
# faulting it in again.
_CHUNK_VALUES = 32_768


class SteinSolution:
    """Quadrature-backed solution of the multivariate comparison equation.

    Fixed Gauss-Hermite nodes (order `gh_order` per axis) handle the Gaussian
    expectation and fixed Gauss-Legendre nodes (`u_order`, interior to (0,1))
    the outer integral; `evaluate` returns A, grad A and D^2 A from one set of
    per-axis factor tables, contracted over a grid or over a point set as the
    input type picks (module docstring).
    """

    def __init__(self, h: SeparableTestFunction, sigma, gh_order: int = 20, u_order: int = 32):
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
        self._gh_weights = gauss_hermite_standard(gh_order, 1)[1]
        self._unodes, self._uweights = gauss_legendre_01(u_order)
        self.phi_h = float(zw @ np.asarray(h.value(self._znodes)))

    def evaluate(
        self, w, need: tuple[str, ...] = ("value", "gradient", "hessian")
    ) -> dict[str, np.ndarray]:
        """Evaluate the requested fields at points w of shape (..., d) or on a
        TensorGrid (fields then have shape (points,) + (d,) * order)."""
        if isinstance(w, TensorGrid):
            out = self._empty(w.shape[0], need)
            self._fill(w.axes, True, out)
            return out
        w = np.asarray(w, dtype=float)
        pts = w.reshape(-1, w.shape[-1])
        out = self._empty(pts.shape[0], need)
        chunk = max(1, _CHUNK_VALUES // self._znodes.shape[0])
        for lo in range(0, pts.shape[0], chunk):
            rows = slice(lo, lo + chunk)
            self._fill(pts[rows].T, False, {k: v[rows] for k, v in out.items()})
        # [()] turns the value at a single point into a scalar
        return {k: v.reshape(w.shape[:-1] + v.shape[1:])[()] for k, v in out.items()}

    def _empty(self, count: int, need) -> dict[str, np.ndarray]:
        return {
            name: np.empty((count,) + (self.dimension,) * k)
            for k, name in enumerate(_FIELDS)
            if name in need
        }

    def _fill(self, cols, outer: bool, out: dict[str, np.ndarray]) -> None:
        """Write each field of `out` at the points whose axis-a coordinates
        are cols[a] (a grid's axes if `outer`): tables T_a[j, g, i] of each
        factor derivative at u_j cols[a][g] + c_j z_{i,a}, i over the nodes
        with i_{a+1} = ... = 0, one per distinct (axis, factor), contracted
        term by term (`_contract`) into psi[j, point], summed over the terms,
        then weighted over the u-nodes j row by row, not by a BLAS `@`, which
        rounds some columns differently: a psi equal at every point (a
        quadratic's Hessian) must give equal values, or the ledger terms that
        vanish for such a function do not read 0.0.  Nor by `.sum(axis=0)`,
        which sums a one-point psi pairwise: each point gets the same bits in
        whatever batch or chunk it sits.

        The last axis's tables, the largest, are never built whole: they are
        built a block of u-nodes at a time (`_CHUNK_VALUES` values), and each
        derivative table of a block is summed over its trailing GH index
        i_{d-1} against the 1-D weights as soon as the factor yields it, the
        einsum `_contract` would run per term, into S[j, g gh^(d-1) + i'] for
        each (factor, derivative order) that some term reads; `_contract`
        starts from S.  The other axes' tables, held whole, are built after
        the last axis's blocks, never beside them.

        The partials of every field in `out` are contracted in groups keyed
        by their derivative orders on axes 1..d-1 (c_1 ... c_{d-1}).  Within
        a group a term reads the same tables on those axes for every partial,
        so `_contract` keeps its contraction down to axis 1 in the group's
        `held` dict, and the next partial that reads those tables starts from
        it; the dict, and with it the group's intermediates, is dropped when
        the group ends.  Each partial still sees the same arrays and
        operations as when it was contracted alone, so every bit is kept."""
        if not out:
            return
        d = self.dimension
        un, uw = self._unodes, self._uweights
        w = self._gh_weights
        u = un[:, None, None]
        c = np.sqrt(1.0 - un**2)[:, None, None]
        orders = [_FIELDS.index(name) for name in out]
        x, z = cols[-1], self._znodes[:, -1]
        width = x.size * z.size // w.size          # S's columns
        step = max(1, _CHUNK_VALUES // max(1, x.size * z.size))
        last = {}
        for f, ks in self.h._orders_read(d - 1, orders).items():
            sums = {k: np.empty((un.size, width)) for k in ks}
            for lo in range(0, un.size, step):
                rows = slice(lo, lo + step)
                tables = f._derivatives(u[rows] * x[:, None] + c[rows] * z)
                for k in range(max(ks) + 1):
                    t = next(tables)
                    if k in ks:
                        np.einsum("jmi,i->jm", t.reshape(len(t), width, w.size), w, out=sums[k][rows])
                    del t  # the next table is built without this one
                del tables  # and the arrays the generator holds
            last[d - 1, f] = sums
        args = [u * x[:, None] + c * self._znodes[:: self.gh_order ** (d - 1 - a), a] for a, x in enumerate(cols[:-1])]
        tabs = self.h._tables(args, max(orders, default=0))
        del args  # free them before the contractions allocate
        tabs.update(last)
        u_weights = (uw / un, uw, uw * un)          # value, gradient, Hessian
        zero = np.zeros((un.size, len(next(iter(out.values())))))
        groups = {}                             # partials by their orders on axes 1..d-1
        for name in out:
            for idx in index_tuples(d, _FIELDS.index(name)):
                groups.setdefault(tuple(_counts(d, idx)[1:]), []).append((name, idx))
        for group in groups.values():
            held = {}                           # the group's contractions down to axis 1
            contract = functools.partial(self._contract, outer=outer, held=held)
            for name, idx in group:
                k = _FIELDS.index(name)
                psi = self.h._sum_terms(tabs, idx, contract, zero)
                if k == 0:
                    psi = psi - self.phi_h
                if psi is not zero:             # a fresh array, weighted in place
                    psi *= u_weights[k][:, None]
                _fill_partial(out[name], idx, -functools.reduce(np.add, psi))

    def _contract(self, scale: float, tables, outer: bool, held: dict) -> np.ndarray:
        """psi[j, point] = scale sum_i W_i prod_a T_a[j, g_a, i] of one term,
        nested from the last axis in, whose table comes already summed over
        its GH index (`_fill`): times the next table, sum the trailing GH
        index against the 1-D weights (per row, by einsum, for the reason
        `_fill` gives), repeat down to axis 1.  That result, acc, depends on
        the tables of axes 1..d-1 only, and on a grid it is stored as a
        contiguous (j, i, m) transpose (same bits); `held` keeps it by those
        tables' identities, so a later call on the same tables (another
        partial of the group, or another term with the same factors there)
        takes it from there.  Axis 0 takes its product and its GH sum in one
        three-operand einsum, T_0 times acc times the weights summed over i,
        which skips a (u, points, gh) product array whose short GH axis is
        innermost, and then the scale: these run per call.  On a grid the
        product is outer across coordinates, at a point set elementwise;
        nothing else differs."""
        w = self._gh_weights
        j = tables[0].shape[0]
        if len(tables) == 1:
            return scale * tables[0]
        key = tuple(map(id, tables[1:]))        # `_fill` holds every table until it returns
        acc = held.get(key)
        if acc is None:
            acc = tables[-1]
            for t in tables[-2:0:-1]:
                acc = acc.reshape(j, -1, t.shape[-1])
                acc = (t[:, :, None, :] * acc[:, None]).reshape(j, -1, t.shape[-1]) if outer else t * acc
                acc = np.einsum("jmi,i->jm", acc.reshape(j, -1, w.size), w)
            acc = acc.reshape(j, -1, w.size)
            if outer:
                acc = np.ascontiguousarray(acc.transpose(0, 2, 1))
            held[key] = acc
        if outer:
            psi = np.einsum("jgi,jim,i->jgm", tables[0], acc, w).reshape(j, -1)
        else:
            psi = np.einsum("jmi,jmi,i->jm", tables[0], acc, w)
        psi *= scale
        return psi

    def value(self, w):
        return self.evaluate(w, ("value",))["value"]

    def gradient(self, w):
        return self.evaluate(w, ("gradient",))["gradient"]

    def hessian(self, w):
        return self.evaluate(w, ("hessian",))["hessian"]


def stein_residual(sol: SteinSolution, w) -> np.ndarray:
    """|tr(Sigma D^2 A) - w . grad A - h(w) + E h(Z)| at the given points
    (an array or a TensorGrid)."""
    ev = sol.evaluate(w, ("gradient", "hessian"))
    w = w.points() if isinstance(w, TensorGrid) else np.asarray(w, dtype=float)
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


_BOUND_FD_STEP = 1e-3


def derivative_bound_check(
    sol: SteinSolution, grid, orders: Sequence[int] = (1, 2)
) -> BoundCheckReport:
    """Compare grid maxima of |d^t A| against (1/k) sup |d^t h| for k in orders.

    `grid` is a (points, d) array or a TensorGrid.  Orders 1 and 2 read off
    grad A and D^2 A; order 3, when requested, uses central differences of
    the Hessian along each axis (on a TensorGrid, one axis shifts).  A
    partial whose sup |d^t h| is unbounded gets margin +inf, and a field no
    bounded partial reads is not evaluated.
    """
    if not isinstance(grid, TensorGrid):
        grid = np.asarray(grid, dtype=float)
    if len(grid.shape) != 2 or grid.shape[1] != sol.dimension:
        raise ValueError("grid must have shape (points, d)")
    d = sol.dimension
    sups = {k: {t: sol.h.partial_sup(t) for t in index_tuples(d, k)} for k in (1, 2, 3) if k in orders}
    read = [k for k, s in sups.items() if any(v is not None for v in s.values())]
    fields = {1: "gradient", 2: "hessian"}
    need = tuple(fields[k] for k in read if k in fields)
    ev = sol.evaluate(grid, need) if need else {}
    top = {k: np.abs(ev[fields[k]]).max(axis=0) for k in read if k in fields}
    if 3 in read:
        top[3] = np.zeros((d, d, d))
        for c in range(d):
            shift = np.zeros(d)
            shift[c] = _BOUND_FD_STEP
            hp = sol.evaluate(grid + shift, ("hessian",))["hessian"]
            hm = sol.evaluate(grid - shift, ("hessian",))["hessian"]
            top[3][:, :, c] = np.abs((hp - hm) / (2.0 * _BOUND_FD_STEP)).max(axis=0)
    margins: dict = {}
    for k, partials in sups.items():
        for t, sup in partials.items():
            if sup is None:
                margins[k, t] = math.inf
            else:
                margins[k, t] = sup / k - float(max(top[k][p] for p in set(permutations(t))))
    return BoundCheckReport(margins, grid.shape[0])


_UNIV_GH = 128
_UNIV_S_NODES = composite_gauss_legendre(0.0, 12.0, 24, 12)
_UNIV_FD_STEP = 1e-4


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


def univariate_bound_check(h: LipschitzFunction, grid: np.ndarray) -> UnivariateBoundReport:
    """Check ||A|| <= 2, ||A'|| <= sqrt(2/pi), ||A''|| <= 2 on the grid.

    Requires Lip(h) <= 1.  A'' is obtained by central differences of A'.
    """
    if h.lipschitz > 1.0 + 1e-12:
        raise ValueError("test function must be 1-Lipschitz")
    grid = np.asarray(grid, dtype=float)
    a, a1, _ = univariate_solution(h, grid)
    _, a1p, _ = univariate_solution(h, grid + _UNIV_FD_STEP)
    _, a1m, _ = univariate_solution(h, grid - _UNIV_FD_STEP)
    a2 = (a1p - a1m) / (2.0 * _UNIV_FD_STEP)
    return UnivariateBoundReport(
        h.name,
        2.0 - float(np.abs(a).max()),
        math.sqrt(2.0 / math.pi) - float(np.abs(a1).max()),
        2.0 - float(np.abs(a2).max()),
    )


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

    def eta(self, x) -> np.ndarray:
        """Single-block kernel value; x has shape (..., dim)."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.dim,):
            raise ValueError("eta expects points of shape (..., dim)")
        r2 = np.sum(x * x, axis=-1)
        safe = np.maximum(1.0 - r2, 1e-150)
        return np.where(r2 < 1.0, self.c * np.exp(-1.0 / safe**2), 0.0)

    @functools.cached_property
    def _kernel(self) -> tuple[np.ndarray, np.ndarray]:
        """(nodes, weights) of the paired kernel, built on first use."""
        pts, ww = tensor_rule(*np.polynomial.legendre.leggauss(self.order), self.dim)
        block_w = ww * self.eta(pts)
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
        pts, ww = tensor_rule(*np.polynomial.legendre.leggauss(order), self.dim)
        return float(self.eta(pts) @ ww)

    def normalization_lower_bound_ok(self) -> bool:
        """Crude lower bound 1/c >= e^{-2} (1/2)^d vol(B_d)."""
        return 1.0 / self.c >= math.exp(-2.0) * 0.5**self.dim * _ball_volume(self.dim)

    def smooth(self, g: Callable[[np.ndarray], np.ndarray]) -> Callable[[np.ndarray], np.ndarray]:
        """Return x -> integral of g(x - eps y) j(y) dy; g must broadcast over rows."""
        nodes, weights = self._kernel

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
