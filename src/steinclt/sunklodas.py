"""Seven-term decomposition of the normal-comparison bilinear form.

For W = sum_n Y^n with centered rows Y^n = b^{-1} fbar^n, the quantity
mu[ tr(Sigma D^2 A(W)) - W . grad A(W) ] with Sigma = mu(W W^T) splits, for
any C^2 function A, into seven terms built from punctured sums

    W^{n,m} = W - sum_{|i-n|<=m} Y^i,   Y^{n,m} = sum_{|i-n|=m} Y^i,

and Hessian increments delta^{n,m}(u) = D^2A(W^{n,m} + u Y^{n,m}) -
D^2A(W^{n,m}), delta^{n,k} = delta^{n,k}(1).  Because W^{n,m} + Y^{n,m} =
W^{n,m-1}, every segment integral and every k-sum of increments telescopes:

    int_0^1 D^2A(W^{n,m} + u Y^{n,m}) Y^{n,m} du = grad A(W^{n,m-1}) - grad A(W^{n,m}),
    sum_{k=a}^{b} delta^{n,k} = D^2A(W^{n,a-1}) - D^2A(W^{n,b}).

`decompose` evaluates grad A and D^2 A once at every distinct punctured sum
(many (n, m) share a clipped window, and every empty window gives W) and
reads all seven terms off those values, so the split is exact to roundoff
for any A whose Hessian is the derivative of its gradient (the discretised
`SteinSolution` included).  It reports all terms, the direct left-hand
side, and the residual of the identity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import DegenerateCovariance

__all__ = [
    "EnsembleMatrix",
    "punctured_sums",
    "delta_matrix",
    "DecompositionLedger",
    "check_ledger_size",
    "decompose",
]

MEMORY_BUDGET = 200_000_000  # float64 values one ensemble or one ledger stack may hold


@dataclass
class EnsembleMatrix:
    """Centered observable rows for S samples, N time slots, d components.

    `values[s, i]` holds fbar^i for sample s (already centered); `b` is the
    normalization matrix so Y^i = b^{-1} fbar^i.  `weights`, when given,
    turn ensemble means into exact expectations over a finite sample space
    (the `exact` flag); otherwise means are uniform Monte Carlo averages.
    """

    values: np.ndarray
    b: np.ndarray
    bound: float
    weights: np.ndarray | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 3:
            raise ValueError("values must have shape (samples, times, components)")
        self.values = v
        self.b = np.asarray(self.b, dtype=float)
        d = v.shape[2]
        if self.b.shape != (d, d):
            raise ValueError("b must be d x d")
        if np.linalg.cond(self.b) > 1e12:
            raise ValueError("normalization matrix is numerically singular")
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float)
            if w.shape != (v.shape[0],) or np.any(w < 0):
                raise ValueError("weights must be nonnegative, one per sample")
            total = w.sum()
            if not math.isfinite(total) or total <= 0:
                raise ValueError("weights must have positive total mass")
            self.weights = w / total
        norms = np.linalg.norm(v, axis=2)
        if norms.size and float(norms.max()) > 2.0 * self.bound + 1e-9:
            raise ValueError("centered values exceed twice the declared bound")
        mean = self._mean_over_samples(v)
        scale = max(1.0, 2.0 * self.bound)
        if float(np.abs(mean).max(initial=0.0)) > 3.0 * scale / math.sqrt(v.shape[0]) + 1e-10:
            raise ValueError("rows are not centered")
        self._b_inv = np.linalg.inv(self.b)

    @classmethod
    def from_raw(
        cls,
        raw: np.ndarray,
        b: np.ndarray,
        bound: float,
        weights: np.ndarray | None = None,
    ) -> "EnsembleMatrix":
        """Center raw observable values by their (weighted) ensemble means."""
        raw = np.asarray(raw, dtype=float)
        if weights is None:
            means = raw.mean(axis=0)
        else:
            w = np.asarray(weights, dtype=float)
            means = np.einsum("s,sid->id", w / w.sum(), raw)
        return cls(raw - means[None], b, bound, weights)

    # -- shapes ------------------------------------------------------------
    @property
    def samples(self) -> int:
        return self.values.shape[0]

    @property
    def times(self) -> int:
        return self.values.shape[1]

    @property
    def dimension(self) -> int:
        return self.values.shape[2]

    @property
    def exact(self) -> bool:
        return self.weights is not None

    @property
    def b_inv(self) -> np.ndarray:
        return self._b_inv

    def _mean_over_samples(self, arr: np.ndarray) -> np.ndarray:
        if self.weights is None:
            return arr.mean(axis=0)
        return np.einsum("s,s...->...", self.weights, arr)

    def with_normalization(self, b: np.ndarray) -> "EnsembleMatrix":
        return EnsembleMatrix(self.values, b, self.bound, self.weights)

    # -- sums --------------------------------------------------------------
    def y_values(self) -> np.ndarray:
        """Y rows, shape (S, N, d)."""
        return self.values @ self._b_inv.T

    def w_sums(self) -> np.ndarray:
        return self.y_values().sum(axis=1)

    def w_covariance(self) -> np.ndarray:
        w = self.w_sums()
        return self._mean_over_samples(np.einsum("sa,sb->sab", w, w))


def _punctured(y: np.ndarray, n, m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(W, W^{n,m}, Y^{n,m}) for rows y of shape (..., N, d) and broadcastable
    index arrays 0 <= n < N, -1 <= m < N; the last two gain the broadcast
    shape of (n, m) before the component axis.

    Both are gathers from the rows behind one zero row.  The window
    |i-n| <= m is a difference of their cumulative sums, empty for m = -1.
    The ring adds rows n-m and n+m; a side outside 0..N-1 reads the zero
    row, as does the right side for m = 0 and both sides for m = -1.
    """
    big_n = y.shape[-2]
    pad = np.concatenate([np.zeros_like(y[..., :1, :]), y], axis=-2)
    cum = np.cumsum(pad, axis=-2)
    w = y.sum(axis=-2)
    hi = np.minimum(n + m + 1, big_n)
    lo = np.minimum(np.maximum(n - m, 0), hi)
    window = cum[..., hi, :] - cum[..., lo, :]
    wnm = np.expand_dims(w, tuple(range(-1 - np.ndim(hi), -1))) - window
    left = np.where((m >= 0) & (n - m >= 0), n - m + 1, 0)
    right = np.where((m > 0) & (n + m < big_n), n + m + 1, 0)
    return w, wnm, pad[..., left, :] + pad[..., right, :]


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bitwise-distinct rows of an (n, d) float array and, per row, the
    index of its distinct row.  Each row is one flat byte key, sorted in one
    pass (a field-by-field `np.unique(..., axis=0)` sort is about 3x slower),
    so rows compare as bit patterns: -0.0 and 0.0 stay apart."""
    d = rows.shape[-1]
    keys = np.ascontiguousarray(rows).view(np.dtype((np.void, 8 * d))).ravel()
    distinct, inv = np.unique(keys, return_inverse=True)
    return distinct.view(float).reshape(-1, d), inv


def punctured_sums(y_rows: np.ndarray, n: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(W, W^{n,m}, Y^{n,m}) for one sample row or a stack of rows.

    m = -1 returns (W, W, 0); m = N-1 always gives W^{n,m} = 0.
    """
    y = np.asarray(y_rows, dtype=float)
    big_n = y.shape[-2]
    if not (0 <= n < big_n):
        raise IndexError("time index n outside 0..N-1")
    if not (-1 <= m <= big_n - 1):
        raise IndexError("puncture radius m outside -1..N-1")
    return _punctured(y, n, m)


def delta_matrix(solution, y_row: np.ndarray, n: int, k: int, u: float = 1.0) -> np.ndarray:
    """delta^{n,k}(u) = D^2A(W^{n,k} + u Y^{n,k}) - D^2A(W^{n,k}) for one row."""
    if not (0.0 <= u <= 1.0):
        raise ValueError("u must lie in [0, 1]")
    _, wnk, ynk = punctured_sums(y_row, n, k)
    pts = np.stack([wnk + u * ynk, wnk])
    h = np.asarray(solution.hessian(pts))
    return h[0] - h[1]


@dataclass(frozen=True)
class DecompositionLedger:
    """Values and standard errors of E1..E7, the direct LHS, and the residual;
    `distinct_points` counts the punctured sums the solution was evaluated at."""

    terms: dict
    lhs: tuple[float, float]
    samples: int
    exact: bool
    distinct_points: int

    @property
    def term_sum(self) -> float:
        return float(sum(v for v, _ in self.terms.values()))

    @property
    def residual(self) -> float:
        return self.lhs[0] - self.term_sum

    @property
    def combined_stderr(self) -> float:
        return math.sqrt(self.lhs[1] ** 2 + sum(se**2 for _, se in self.terms.values()))

    def rows(self) -> list[tuple]:
        """(term, value, stderr) rows: E1..E7, lhs, then the residual with an
        empty stderr."""
        rows = [(name, *pair) for name, pair in self.terms.items()]
        return rows + [("lhs", *self.lhs), ("residual", self.residual, "")]


def _mean_and_stderr(contrib: np.ndarray, weights: np.ndarray | None) -> tuple[float, float]:
    """Monte Carlo mean and standard error, or the exact weighted mean."""
    if weights is not None:
        return float(weights @ contrib), 0.0
    n = contrib.size
    se = float(contrib.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return float(contrib.mean()), se


def check_ledger_size(samples: int, n_terms: int, dim: int, memory_budget: int = MEMORY_BUDGET):
    """ValueError when `decompose`'s S * N * (N + 1) * d^2 Hessian values
    exceed memory_budget."""
    if samples * n_terms * (n_terms + 1) * dim * dim > memory_budget:
        raise ValueError("N^2 * S * d^2 exceeds the memory budget; reduce S or N")


def decompose(
    ens: EnsembleMatrix,
    solution,
    sigma: np.ndarray | None = None,
    memory_budget: int = MEMORY_BUDGET,
) -> DecompositionLedger:
    """Estimate E1..E7 and the direct LHS for the given C^2 function.

    `solution` needs an `evaluate(points, need)` method that returns the
    "gradient" and "hessian" fields at a (..., d) stack; when it also carries
    a `sigma` attribute, that matrix must agree with the empirical
    mu(W W^T) (the identity only holds for the self-consistent Sigma).  One
    call evaluates both fields at the bitwise-distinct rows among the
    S*N*(N+1) punctured sums, gathered back to every slot, and the terms
    follow by telescoping (module docstring), exact to roundoff when the
    Hessian is the derivative of the gradient.
    Means are exact when the ensemble carries weights.
    """
    s_count, big_n, d = ens.samples, ens.times, ens.dimension
    y = ens.y_values()
    weights = ens.weights
    sigma_emp = ens.w_covariance()
    eigs = np.linalg.eigvalsh(0.5 * (sigma_emp + sigma_emp.T))
    if float(eigs.min()) <= 1e-12:
        raise DegenerateCovariance(
            "empirical covariance of W is singular; increase N or the sample count"
        )
    if sigma is None:
        sigma = getattr(solution, "sigma", None)
    if sigma is not None:
        sigma = np.asarray(sigma, dtype=float)
        defect = float(np.abs(sigma - sigma_emp).max())
        if defect > 1e-8 * max(1.0, float(np.abs(sigma_emp).max())):
            raise ValueError(
                "solution Sigma disagrees with the empirical mu(W W^T); "
                "rebuild the solution from this ensemble"
            )

    check_ledger_size(s_count, big_n, d, memory_budget)

    # W^{n,m} for m = -1..N-1 at storage index m+1, and the rings Y^{n,m}
    # for m = 0..N-1, copied contiguous: einsum sums a strided view in
    # another order, which moves the last bits of E3, E4 and E6
    w, wnk, ynk = _punctured(y, np.arange(big_n)[:, None], np.arange(-1, big_n))
    rings = np.ascontiguousarray(ynk[:, :, 1:])
    # Slots with the same clipped window, or any empty one, hold the same
    # bits, so each distinct row is evaluated once and gathered back.
    distinct, inv = _distinct_rows(wnk.reshape(-1, d))
    fields = solution.evaluate(distinct, ("gradient", "hessian"))
    grad = np.asarray(fields["gradient"])[inv].reshape(wnk.shape)
    hess = np.asarray(fields["hessian"])[inv].reshape(wnk.shape + (d,))
    hess_mean = ens._mean_over_samples(hess)
    hess_c = hess - hess_mean

    # E1/E2: -y_n . int_0^1 delta^{n,m}(u) du Y^{n,m}, with the segment
    # integral of the Hessian equal to a gradient difference
    seg = grad[:, :, :-1] - grad[:, :, 1:] - np.einsum(
        "snmab,snmb->snma", hess[:, :, 1:], rings
    )
    per_ring = -np.einsum("sna,snma->snm", y, seg)
    e2 = per_ring[:, :, 0].sum(axis=1)
    e1 = per_ring[:, :, 1:].sum(axis=(1, 2))

    # sum_{k=a}^{b} delta^{n,k} = hess[:, n, a] - hess[:, n, b+1]
    m = np.arange(1, big_n)
    ring_m = rings[:, :, 1:]

    def ring_form(mats: np.ndarray) -> np.ndarray:
        return np.einsum("sna,snmab,snmb->s", y, mats, ring_m)

    e3 = -ring_form(hess_c[:, :, m + 1] - hess_c[:, :, np.minimum(2 * m, big_n - 1) + 1])
    e4 = -ring_form(hess_c[:, :, np.minimum(2 * m + 1, big_n)] - hess_c[:, :, big_n, None])
    e5 = -np.einsum("sna,snab,snb->s", y, hess_c[:, :, 1] - hess_c[:, :, big_n], y)
    e6 = np.einsum("sna,nmab,snmb->s", y, hess_mean[:, :1] - hess_mean[:, m + 1], ring_m)
    e7 = np.einsum("sna,nab,snb->s", y, hess_mean[:, 0] - hess_mean[:, 1], y)

    # D^2A(W) and grad A(W) sit at storage index 0 for every n
    lhs_contrib = np.einsum("ab,sba->s", sigma_emp, hess[:, 0, 0]) - np.einsum(
        "sa,sa->s", w, grad[:, 0, 0]
    )

    terms = {
        name: _mean_and_stderr(arr, weights)
        for name, arr in zip(
            ["E1", "E2", "E3", "E4", "E5", "E6", "E7"], [e1, e2, e3, e4, e5, e6, e7]
        )
    }
    lhs = _mean_and_stderr(lhs_contrib, weights)
    return DecompositionLedger(terms, lhs, s_count, ens.exact, len(distinct))
