"""Interval maps and time-dependent composition regimes.

All maps act on [0, 1].  A composition regime supplies, for a horizon n and a
step index k in 0..n, the parameter of the map applied at step k; orbits
consume step indices 1..n (index 0 is a placeholder so that time-0 observables
need no map).  `orbit` is the one loop that applies the maps: trajectories,
ensembles, Birkhoff sums, lag covariances and quasistatic partial sums are
all reductions over the points it yields.  Three regimes are supported:

* an explicit per-step parameter list,
* a slowly varying parameter curve sampled on the triangular array
  alpha_{n,k} = clamp(gamma(k/n), 0, beta_star),
* a seeded random parameter stream (i.i.d. or a finite-state Markov chain).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Branch",
    "IntervalMap",
    "LsvMap",
    "PiecewiseLinearMap",
    "LsvFamily",
    "ShiftedSlopeFamily",
    "IidUniformDriver",
    "MarkovChainDriver",
    "SequentialSequence",
    "QuasistaticSequence",
    "RandomSequence",
    "Observable",
    "OBSERVABLES",
    "orbit",
    "trajectory",
    "qds_birkhoff_integral",
]


def _as_unit_interval(x):
    arr = np.asarray(x, dtype=float)
    if arr.size and (float(arr.min()) < 0.0 or float(arr.max()) > 1.0):
        raise ValueError("point outside [0, 1]")
    return arr


def _like_input(x, out):
    return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out


def _lsv(x: np.ndarray, alpha) -> np.ndarray:
    """x (1 + (2x)^alpha) on [0, 1/2), 2x - 1 on [1/2, 1]."""
    return np.where(x < 0.5, x * (1.0 + (2.0 * x) ** alpha), 2.0 * x - 1.0)


def _mod1(y: np.ndarray) -> np.ndarray:
    """y mod 1, with a rounded-up 1.0 snapped to 0.0."""
    out = np.mod(y, 1.0)
    return np.where(out == 1.0, 0.0, out)


@dataclass(frozen=True)
class Branch:
    """One monotone increasing piece of an interval map.

    The piece maps [lo, hi) onto [image_lo, image_hi) (the rightmost piece is
    taken closed).  `slope` is set for affine pieces and None otherwise.
    """

    lo: float
    hi: float
    image_lo: float
    image_hi: float
    invert: Callable[[np.ndarray], np.ndarray]
    slope: float | None = None


class IntervalMap:
    """A piecewise monotone self-map of [0, 1]."""

    def apply(self, x):
        raise NotImplementedError

    def branches(self) -> list[Branch]:
        raise NotImplementedError

    def __call__(self, x):
        return self.apply(x)


def _lsv_left_inverse(y: np.ndarray, alpha: float) -> np.ndarray:
    """Solve x (1 + (2x)^alpha) = y on [0, 1/2] by bisection plus Newton."""
    y = np.asarray(y, dtype=float)
    if alpha == 0.0:
        return y / 2.0
    lo = np.zeros_like(y)
    hi = np.full_like(y, 0.5)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        val = mid * (1.0 + (2.0 * mid) ** alpha)
        take_hi = val < y
        lo = np.where(take_hi, mid, lo)
        hi = np.where(take_hi, hi, mid)
    x = 0.5 * (lo + hi)
    for _ in range(4):
        f = x * (1.0 + (2.0 * x) ** alpha) - y
        fp = 1.0 + (1.0 + alpha) * (2.0 * x) ** alpha
        x = np.clip(x - f / fp, 0.0, 0.5)
    resid = np.abs(x * (1.0 + (2.0 * x) ** alpha) - y)
    if resid.size and float(resid.max()) > 1e-13:
        raise RuntimeError("left-branch inverse did not converge to 1e-13")
    return x


@dataclass(frozen=True)
class LsvMap(IntervalMap):
    """Intermittent map with a neutral fixed point at 0.

    Left branch x (1 + (2x)^alpha) on [0, 1/2), right branch 2x - 1 on
    [1/2, 1].  alpha = 0 degenerates to the doubling map.  The midpoint
    belongs to the right branch.
    """

    alpha: float

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0) or not math.isfinite(self.alpha):
            raise ValueError("alpha must lie in [0, 1]")

    def apply(self, x):
        return _like_input(x, _lsv(_as_unit_interval(x), self.alpha))

    def branches(self) -> list[Branch]:
        a = self.alpha
        return [
            Branch(0.0, 0.5, 0.0, 1.0, lambda y, a=a: _lsv_left_inverse(y, a)),
            Branch(0.5, 1.0, 0.0, 1.0, lambda y: (np.asarray(y, dtype=float) + 1.0) / 2.0, slope=2.0),
        ]


@dataclass(frozen=True)
class PiecewiseLinearMap(IntervalMap):
    """mod-1 linear map with one slope per declared branch.

    slopes[i] acts on [breakpoints[i-1], breakpoints[i]) via x -> slope * x
    mod 1, with the breakpoint list augmented by 0 and 1.  Every slope must
    exceed 1 (expansion); a value of exactly 1.0 after the mod is snapped
    to 0.0.
    """

    slopes: tuple[float, ...]
    breakpoints: tuple[float, ...] = ()

    def __post_init__(self):
        slopes = tuple(float(s) for s in self.slopes)
        breaks = tuple(float(b) for b in self.breakpoints)
        object.__setattr__(self, "slopes", slopes)
        object.__setattr__(self, "breakpoints", breaks)
        if not slopes:
            raise ValueError("need at least one slope")
        if any(s <= 1.0 for s in slopes):
            raise ValueError("all slopes must exceed 1")
        if len(breaks) != len(slopes) - 1:
            raise ValueError("need exactly len(slopes) - 1 breakpoints")
        edges = (0.0,) + breaks + (1.0,)
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError("breakpoints must be strictly increasing inside (0, 1)")

    def _edges(self) -> tuple[float, ...]:
        return (0.0,) + self.breakpoints + (1.0,)

    def apply(self, x):
        arr = _as_unit_interval(x)
        edges = np.asarray(self._edges())
        idx = np.clip(np.searchsorted(edges, arr, side="right") - 1, 0, len(self.slopes) - 1)
        slopes = np.asarray(self.slopes)[idx]
        return _like_input(x, _mod1(slopes * arr))

    def branches(self) -> list[Branch]:
        pieces: list[Branch] = []
        edges = self._edges()
        for slope, a, b in zip(self.slopes, edges, edges[1:]):
            k0 = math.floor(slope * a)
            k1 = math.ceil(slope * b) - 1
            for k in range(k0, k1 + 1):
                lo = max(a, k / slope)
                hi = min(b, (k + 1) / slope)
                if hi <= lo:
                    continue
                pieces.append(
                    Branch(
                        lo,
                        hi,
                        slope * lo - k,
                        slope * hi - k,
                        lambda y, s=slope, k=k: (np.asarray(y, dtype=float) + k) / s,
                        slope=slope,
                    )
                )
        return pieces


class MapFamily:
    """Parameter -> map constructor used by the composition regimes."""

    param_low: float = 0.0
    param_high: float = 1.0

    def make(self, param: float) -> IntervalMap:
        raise NotImplementedError

    def apply_param(self, param: float, x):
        return self.make(param).apply(x)


@dataclass(frozen=True)
class LsvFamily(MapFamily):
    """Intermittency-exponent family; the parameter is alpha."""

    def make(self, param: float) -> LsvMap:
        return LsvMap(float(param))

    def apply_param(self, param: float, x):
        return _like_input(x, _lsv(_as_unit_interval(x), param))


@dataclass(frozen=True)
class ShiftedSlopeFamily(MapFamily):
    """Uniformly expanding family x -> (base + omega) x mod 1."""

    base: float = 2.0

    def make(self, param: float) -> PiecewiseLinearMap:
        return PiecewiseLinearMap(slopes=(self.base + float(param),))

    def apply_param(self, param: float, x):
        return _like_input(x, _mod1((self.base + param) * _as_unit_interval(x)))


@dataclass(frozen=True)
class IidUniformDriver:
    """I.i.d. uniform parameter stream on [low, high], reproducible by seed.

    The k-th draw does not depend on the horizon requested, so streams of
    different lengths agree on their common prefix.
    """

    low: float
    high: float
    seed: int

    def __post_init__(self):
        if not (self.low <= self.high):
            raise ValueError("need low <= high")

    def stream(self, n: int) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        return rng.uniform(self.low, self.high, n + 1)

    @property
    def param_range(self) -> tuple[float, float]:
        return (self.low, self.high)


@dataclass(frozen=True)
class MarkovChainDriver:
    """Finite-state Markov chain over a grid of parameter values.

    The chain starts from its stationary vector (power iteration) so the
    stream is stationary; `mixing_gap` reports 1 minus the second-largest
    eigenvalue modulus of the kernel.
    """

    values: tuple[float, ...]
    kernel: tuple[tuple[float, ...], ...]
    seed: int

    def __post_init__(self):
        p = np.asarray(self.kernel, dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1] or p.shape[0] != len(self.values):
            raise ValueError("kernel must be square and match the value grid")
        if np.any(p < 0) or np.abs(p.sum(axis=1) - 1.0).max() > 1e-12:
            raise ValueError("kernel rows must be probability vectors")

    def _kernel_array(self) -> np.ndarray:
        return np.asarray(self.kernel, dtype=float)

    def stationary(self) -> np.ndarray:
        p = self._kernel_array()
        v = np.full(len(self.values), 1.0 / len(self.values))
        for _ in range(10000):
            v2 = v @ p
            if np.abs(v2 - v).sum() < 1e-14:
                return v2
            v = v2
        return v

    @property
    def mixing_gap(self) -> float:
        eig = np.sort(np.abs(np.linalg.eigvals(self._kernel_array())))[::-1]
        return float(1.0 - (eig[1] if len(eig) > 1 else 0.0))

    def stream(self, n: int) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        p = self._kernel_array()
        cum = np.cumsum(p, axis=1)
        pi = np.cumsum(self.stationary())
        u = rng.random(n + 1)
        states = np.empty(n + 1, dtype=int)
        states[0] = np.searchsorted(pi, u[0])
        for k in range(1, n + 1):
            states[k] = np.searchsorted(cum[states[k - 1]], u[k])
        return np.asarray(self.values)[states]

    @property
    def param_range(self) -> tuple[float, float]:
        return (min(self.values), max(self.values))


def _validate_params(params: np.ndarray, cap: float):
    if params.size and (float(params.min()) < 0.0 or float(params.max()) > cap + 1e-15):
        raise ValueError(f"parameters must lie in [0, {cap}]")


@dataclass(frozen=True)
class SequentialSequence:
    """Explicit per-step parameters; params[k] is used at step k (k >= 1)."""

    family: MapFamily
    params: tuple[float, ...]
    beta_star: float = 1.0

    def __post_init__(self):
        params = tuple(float(p) for p in self.params)
        object.__setattr__(self, "params", params)
        _validate_params(np.asarray(params), self.beta_star)

    def parameter_at(self, n: int, k: int) -> float:
        if not (0 <= k <= n):
            raise IndexError("need 0 <= k <= n")
        if k >= len(self.params):
            raise IndexError("parameter list shorter than requested step")
        return self.params[k]

    def parameters(self, n: int) -> np.ndarray:
        if n >= len(self.params):
            raise IndexError("parameter list shorter than requested horizon")
        return np.asarray(self.params[: n + 1])


@dataclass(frozen=True)
class QuasistaticSequence:
    """Curve-driven triangular array alpha_{n,k} = clamp(gamma(k/n), 0, beta_star)."""

    family: MapFamily
    curve: Callable[[float], float]
    beta_star: float
    rate_eta: float = 1.0
    horizon: int | None = None

    def parameter_at(self, n: int, k: int) -> float:
        if not (0 <= k <= n):
            raise IndexError("need 0 <= k <= n")
        return float(np.clip(self.curve(k / n), 0.0, self.beta_star))

    def parameters(self, n: int) -> np.ndarray:
        t = np.arange(n + 1) / n if n > 0 else np.zeros(1)
        vals = np.asarray([self.curve(float(s)) for s in t], dtype=float)
        return np.clip(vals, 0.0, self.beta_star)


@dataclass(frozen=True)
class RandomSequence:
    """Driver-fed parameter stream, fixed once per seed (quenched)."""

    family: MapFamily
    driver: IidUniformDriver | MarkovChainDriver
    beta_star: float = 1.0
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        lo, hi = self.driver.param_range
        if lo < 0.0 or hi > self.beta_star + 1e-15:
            raise ValueError("driver range exceeds [0, beta_star]")

    def parameters(self, n: int) -> np.ndarray:
        have = self._cache.get("params")
        if have is None or len(have) < n + 1:
            have = self.driver.stream(max(n, 2 * len(have) if have is not None else n))
            self._cache["params"] = have
        return have[: n + 1]

    def parameter_at(self, n: int, k: int) -> float:
        if not (0 <= k <= n):
            raise IndexError("need 0 <= k <= n")
        return float(self.parameters(n)[k])


def orbit(seq, x0, steps: int, horizon: int | None = None):
    """Yield y_0 = x0, y_1, ..., y_steps with y_k = T_{alpha(k)}(y_{k-1}).

    Parameters are read once off the triangular array at the given horizon
    (defaults to `steps`).  x0 may be a scalar or an array of starting
    points; every y_k has its shape.  The arguments are checked when the
    first point is drawn.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    n = steps if horizon is None else horizon
    if n < steps:
        raise ValueError("horizon must be >= steps")
    x = _as_unit_interval(x0)
    params = np.asarray(seq.parameters(n), dtype=float)
    yield x
    for k in range(1, steps + 1):
        x = np.asarray(seq.family.apply_param(params[k], x))
        yield x


def trajectory(seq, x0, steps: int, horizon: int | None = None) -> np.ndarray:
    """The points of `orbit` stacked on a leading time axis of length steps + 1."""
    return np.stack(list(orbit(seq, x0, steps, horizon)))


@dataclass(frozen=True)
class Observable:
    """R^d-valued observable on [0, 1] with declared Lipschitz and sup bounds."""

    dimension: int
    func: Callable[[np.ndarray], np.ndarray]
    lipschitz: float
    bound: float
    name: str = ""

    def __call__(self, x) -> np.ndarray:
        arr = np.asarray(x, dtype=float)
        out = np.asarray(self.func(arr), dtype=float)
        want = arr.shape + (self.dimension,)
        if out.shape != want:
            raise ValueError(f"observable returned shape {out.shape}, expected {want}")
        return out

    def spot_check(self, grid: int = 257) -> None:
        """Raise if the declared bounds fail on a uniform grid."""
        x = np.linspace(0.0, 1.0, grid)
        v = self(x)
        if float(np.abs(v).max()) > self.bound + 1e-12:
            raise ValueError("declared sup bound violated on grid")
        diffs = np.linalg.norm(np.diff(v, axis=0), axis=-1)
        steps = np.diff(x)
        if float((diffs / steps).max()) > self.lipschitz * (1.0 + 1e-6) + 1e-12:
            raise ValueError("declared Lipschitz constant violated on grid")


def _obs_identity() -> Observable:
    return Observable(1, lambda x: x[..., None], 1.0, 1.0, "identity")


def _obs_square() -> Observable:
    return Observable(1, lambda x: (x**2)[..., None], 2.0, 1.0, "square")


def _obs_cube() -> Observable:
    return Observable(1, lambda x: (x**3)[..., None], 3.0, 1.0, "cube")


def _obs_quartic() -> Observable:
    return Observable(1, lambda x: (x**4)[..., None], 4.0, 1.0, "quartic")


def _obs_poly_pair() -> Observable:
    return Observable(
        2,
        lambda x: np.stack([x, x**2], axis=-1),
        math.sqrt(5.0),
        math.sqrt(2.0),
        "poly_pair",
    )


def _obs_fourier_pair() -> Observable:
    two_pi = 2.0 * math.pi
    return Observable(
        2,
        lambda x: np.stack([np.cos(two_pi * x), np.sin(two_pi * x)], axis=-1),
        two_pi,
        math.sqrt(2.0),
        "fourier_pair",
    )


OBSERVABLES: dict[str, Callable[[], Observable]] = {
    "identity": _obs_identity,
    "square": _obs_square,
    "cube": _obs_cube,
    "quartic": _obs_quartic,
    "poly_pair": _obs_poly_pair,
    "fourier_pair": _obs_fourier_pair,
}


def qds_birkhoff_integral(seq, f: Observable, x, t: float, n: int | None = None) -> np.ndarray:
    """Time-rescaled partial Birkhoff integral S_n(x, t).

    S_n(x, t) = sum_{k < floor(nt)} f(y_k) + (nt - floor(nt)) f(y_floor(nt)),
    where y is the orbit under the triangular array at horizon n.  Piecewise
    linear in t between the grid points k/n.
    """
    if n is None:
        n = getattr(seq, "horizon", None)
    if n is None:
        raise ValueError("horizon n is required (pass n= or set it on the sequence)")
    if not (0.0 <= t <= 1.0):
        raise ValueError("t must lie in [0, 1]")
    nt = n * t
    m = int(math.floor(nt + 1e-12))
    m = min(m, n)
    frac = nt - m
    if frac < 1e-12:
        frac = 0.0
    points = trajectory(seq, x, m, horizon=n)         # (m+1, ...) points
    vals = f(points)                                  # (m+1, ..., d)
    total = vals[:m].sum(axis=0) if m > 0 else np.zeros_like(vals[0])
    return total + frac * vals[m]
