"""Interval maps and time-dependent composition regimes.

All maps act on [0, 1].  A composition regime supplies, for each n, the
parameter row n, alpha_{n,0..n}: step k of an orbit applies the map with
parameter alpha_{n,k} (index 0 is a placeholder so that time-0 observables
need no map).  `orbit` is the one loop that applies the maps, and an orbit of
n steps reads row n.  It owns one state array: it checks the starting points
against [0, 1] and copies them once, into memory that starts on a 64-byte
boundary (`aligned_empty`: numpy's AVX-512 binary loops store into an
unaligned output at about half speed), then each step overwrites that array
in place (`family.apply_param(param, x, x)`) and yields it again, so a point
is valid only until the next step.  Trajectories copy each state; ensembles, lag
covariances and Birkhoff sums (read at checkpoints, which gives the
quasistatic partial sums too) reduce each point as it is yielded.  Three
regimes are supported; the rows of the first and the last nest (row n is a
prefix of every later row), a curve's only when it is constant:

* an explicit per-step parameter list,
* a slowly varying parameter curve sampled on the triangular array
  alpha_{n,k} = clamp(gamma(k/n), 0, beta_star),
* a seeded random parameter stream (i.i.d. or a finite-state Markov chain).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.random import default_rng

__all__ = [
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
]


def _as_unit_interval(x):
    arr = np.asarray(x, dtype=float)
    # written so that a NaN (min and max propagate it) fails too
    if arr.size and not (float(arr.min()) >= 0.0 and float(arr.max()) <= 1.0):
        raise ValueError("point outside [0, 1]")
    return arr


_ALIGN = 64  # bytes: one AVX-512 vector, one cache line


def aligned_empty(shape: tuple) -> np.ndarray:
    """An uninitialized float64 array of `shape` whose data starts on a
    64-byte boundary: a view into a byte buffer 64 bytes longer.

    numpy's AVX-512 binary loops store into an output off that boundary at
    about half speed; the inputs' alignment does not matter.
    """
    nbytes = math.prod(shape) * 8
    buf = np.empty(nbytes + _ALIGN, dtype=np.uint8)
    start = -buf.ctypes.data % _ALIGN
    return buf[start:start + nbytes].view(np.float64).reshape(shape)


def _lsv(x: np.ndarray, alpha, out: np.ndarray) -> np.ndarray:
    """x (1 + (2x)^alpha) on [0, 1/2), 2x - 1 on [1/2, 1], written into out.

    out may be x itself: the mask and the left branch t are computed first.
    Each branch takes the operations of np.where(x < 0.5, x * (1 + (2x)**alpha),
    2x - 1) in order.  Zeroing t off the mask and taking the maximum picks
    the branch with no data-dependent jump (a masked copy mispredicts), and
    for x, alpha in [0, 1] it is exact: for x < 1/2, t >= 0 > 2x - 1; for
    x > 1/2, t * False = +0.0 < 2x - 1; at x = 1/2 both are +0.0.
    """
    left = x < 0.5
    t = 2.0 * x
    t **= alpha
    t += 1.0
    t *= x
    t *= left
    np.multiply(x, 2.0, out=out)
    out -= 1.0
    np.maximum(out, t, out=out)
    return out


def _mod1_scaled(x: np.ndarray, slope, out: np.ndarray) -> np.ndarray:
    """slope * x mod 1, written into out (which may be x).

    For y >= 0, y - floor(y) is exact and so equals np.mod(y, 1.0); neither
    rounds up to 1.0.
    """
    np.multiply(x, slope, out=out)
    out -= np.floor(out)
    return out


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


class MapFamily:
    """A parametrised family of maps of [0, 1]; the only type that
    represents a map.  One checked step of the map with parameter p at x is
    `trajectory(SequentialSequence(family, (p, p)), x, 1)[1]`."""

    def apply_param(self, param: float, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The map with parameter `param` at x, written into out and returned.

        x is not checked against [0, 1] and out may be x itself: this is
        `orbit`'s in-place step, which passes `out` positionally.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class LsvFamily(MapFamily):
    """Intermittent maps with a neutral fixed point at 0; the parameter is
    alpha.  Left branch x (1 + (2x)^alpha) on [0, 1/2), right branch 2x - 1
    on [1/2, 1]; alpha = 0 is the doubling map."""

    def apply_param(self, param: float, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        return _lsv(x, param, out)

    def branches(self, alpha: float) -> list[tuple]:
        """The two monotone pieces (lo, hi, invert) of the map: each maps
        [lo, hi) increasingly onto [0, 1), and invert is its inverse."""
        alpha = float(alpha)
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        return [
            (0.0, 0.5, lambda y: _lsv_left_inverse(y, alpha)),
            (0.5, 1.0, lambda y: (y + 1.0) / 2.0),
        ]


@dataclass(frozen=True)
class ShiftedSlopeFamily(MapFamily):
    """Uniformly expanding family x -> (base + omega) x mod 1."""

    base: float = 2.0

    def apply_param(self, param: float, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        return _mod1_scaled(x, self.base + param, out)


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
        rng = default_rng(self.seed)
        return rng.uniform(self.low, self.high, n + 1)

    @property
    def param_range(self) -> tuple[float, float]:
        return (self.low, self.high)


@dataclass(frozen=True)
class MarkovChainDriver:
    """Finite-state Markov chain over a grid of parameter values.

    The chain starts from its stationary vector (`stationary`) so the stream
    is stationary.
    """

    values: tuple[float, ...]
    kernel: tuple[tuple[float, ...], ...]
    seed: int

    def __post_init__(self):
        p = np.asarray(self.kernel, dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1] or p.shape[0] != len(self.values):
            raise ValueError("kernel must be square and match the value grid")
        # written so that a NaN entry fails both checks, as in _as_unit_interval
        if not (np.all(p >= 0) and np.abs(p.sum(axis=1) - 1.0).max() <= 1e-12):
            raise ValueError("kernel rows must be probability vectors")

    def _kernel_array(self) -> np.ndarray:
        return np.asarray(self.kernel, dtype=float)

    def stationary(self) -> np.ndarray:
        """The v with vP = v and sum(v) = 1, solved directly as one stacked
        least-squares system, so a periodic chain gets its stationary vector
        too (power iteration would cycle there)."""
        p = self._kernel_array()
        m = len(self.values)
        rhs = np.zeros(m + 1)
        rhs[m] = 1.0
        return np.linalg.lstsq(np.vstack([p.T - np.eye(m), np.ones(m)]), rhs, rcond=None)[0]

    def stream(self, n: int) -> np.ndarray:
        """Values of states 0..n: state k inverts the cumulative kernel row of
        state k-1 at u[k], each row inverted at every u by one searchsorted."""
        u = default_rng(self.seed).random(n + 1)
        after = [np.searchsorted(row, u).tolist() for row in np.cumsum(self._kernel_array(), axis=1)]
        state = int(np.searchsorted(np.cumsum(self.stationary()), u[0]))
        states = [state]
        for k in range(1, n + 1):
            state = after[state][k]
            states.append(state)
        return np.asarray(self.values)[states]

    @property
    def param_range(self) -> tuple[float, float]:
        return (min(self.values), max(self.values))


def _validate_params(params: np.ndarray, cap: float):
    if params.size and not (float(params.min()) >= 0.0 and float(params.max()) <= cap + 1e-15):
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

    def __post_init__(self):
        lo, hi = self.driver.param_range
        if lo < 0.0 or hi > self.beta_star + 1e-15:
            raise ValueError("driver range exceeds [0, beta_star]")

    def parameters(self, n: int) -> np.ndarray:
        return self.driver.stream(n)


def orbit(seq, x0, steps: int):
    """Yield y_0 = x0, y_1, ..., y_steps with y_k = T_{alpha(k)}(y_{k-1}).

    Parameters are read once, as row `seq.parameters(steps)`.  x0 may be
    a scalar or an array of starting points; it is checked against [0, 1]
    (a NaN fails) and copied once, and x0 itself is never modified.  Every
    yield is the same array, the orbit's state, with x0's shape: the next
    step overwrites it in place, so a caller that keeps a point must copy
    it.  The state is float64 and starts on a 64-byte boundary, so each
    step's stores into it (`out -= floor(out)`, the LSV `np.maximum`) take
    numpy's aligned path.  The arguments are checked when the first point
    is drawn.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    start = _as_unit_interval(x0)
    x = aligned_empty(start.shape)
    x[...] = start
    params = np.asarray(seq.parameters(steps), dtype=float)
    yield x
    for k in range(1, steps + 1):
        seq.family.apply_param(params[k], x, x)
        yield x


def trajectory(seq, x0, steps: int) -> np.ndarray:
    """The points of `orbit`, copied and stacked on a leading time axis of
    length steps + 1."""
    return np.stack([x.copy() for x in orbit(seq, x0, steps)])


@dataclass(frozen=True)
class Observable:
    """R^d-valued observable on [0, 1] with a declared sup bound."""

    dimension: int
    func: Callable[[np.ndarray], np.ndarray]
    bound: float
    name: str = ""

    def __call__(self, x) -> np.ndarray:
        arr = np.asarray(x, dtype=float)
        out = np.asarray(self.func(arr), dtype=float)
        want = arr.shape + (self.dimension,)
        if out.shape != want:
            raise ValueError(f"observable returned shape {out.shape}, expected {want}")
        return out


def _obs_identity() -> Observable:
    return Observable(1, lambda x: x[..., None], 1.0, "identity")


def _obs_square() -> Observable:
    return Observable(1, lambda x: (x**2)[..., None], 1.0, "square")


def _obs_cube() -> Observable:
    return Observable(1, lambda x: (x**3)[..., None], 1.0, "cube")


def _quartic(x):
    # (x^2)^2: several times faster than x**4 (pow), which it matches to
    # 2 ulp; the unary square runs at about the same speed at any alignment,
    # where x * x into a fresh heap array mostly takes the slow store path
    y = np.square(x)[..., None]  # an array even for a 0-d x
    np.square(y, out=y)
    return y


def _obs_quartic() -> Observable:
    return Observable(1, _quartic, 1.0, "quartic")


def _obs_poly_pair() -> Observable:
    return Observable(
        2,
        lambda x: np.stack([x, x**2], axis=-1),
        math.sqrt(2.0),
        "poly_pair",
    )


def _obs_fourier_pair() -> Observable:
    two_pi = 2.0 * math.pi
    return Observable(
        2,
        lambda x: np.stack([np.cos(two_pi * x), np.sin(two_pi * x)], axis=-1),
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
