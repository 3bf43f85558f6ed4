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
of a block of samples (many (n, m) share a clipped window, and every empty
window gives W) and reads all seven terms off those values, so the split is
exact to roundoff for any A whose Hessian is the derivative of its gradient
(the discretised `SteinSolution` included).  It holds one block's slots at a
time, so its memory does not grow with S beyond the ensemble and 8 numbers
per sample.  It reports all terms, the direct left-hand side, and the
residual of the identity.
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
    "check_block_size",
    "decompose",
]

MEMORY_BUDGET = 200_000_000  # float64 values one ensemble or one pass's sums may hold


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
        norms = np.einsum("sid,sid->si", v, v)  # no S x N x d temporary
        np.sqrt(norms, out=norms)
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

    def w_covariance(self, y: np.ndarray | None = None) -> np.ndarray:
        """mu(W W^T); `y`, when given, is this ensemble's `y_values()`,
        which then is not computed again."""
        w = (self.y_values() if y is None else y).sum(axis=1)
        return self._mean_over_samples(np.einsum("sa,sb->sab", w, w))


def _padded(y: np.ndarray) -> np.ndarray:
    """The rows of y behind one zero row: row i at index i + 1."""
    return np.concatenate([np.zeros_like(y[..., :1, :]), y], axis=-2)


def _window_sums(y: np.ndarray, n, m) -> tuple[np.ndarray, np.ndarray]:
    """(W, W^{n,m}) for rows y of shape (..., N, d) and broadcastable index
    arrays 0 <= n < N, -1 <= m < N; W^{n,m} gains the broadcast shape of
    (n, m) before the component axis.  The window |i-n| <= m is a difference
    of the padded rows' cumulative sums, empty for m = -1."""
    big_n = y.shape[-2]
    cum = np.cumsum(_padded(y), axis=-2)
    w = y.sum(axis=-2)
    hi = np.minimum(n + m + 1, big_n)
    lo = np.minimum(np.maximum(n - m, 0), hi)
    window = cum[..., hi, :] - cum[..., lo, :]
    return w, np.expand_dims(w, tuple(range(-1 - np.ndim(hi), -1))) - window


def _rings(y: np.ndarray, n, m) -> np.ndarray:
    """Y^{n,m} for the arguments of `_window_sums`: a gather of rows n-m and
    n+m from the padded rows.  A side outside 0..N-1 reads the zero row, as
    does the right side for m = 0 and both sides for m = -1."""
    big_n = y.shape[-2]
    pad = _padded(y)
    left = np.where((m >= 0) & (n - m >= 0), n - m + 1, 0)
    right = np.where((m > 0) & (n + m < big_n), n + m + 1, 0)
    return np.take(pad, left, axis=-2) + np.take(pad, right, axis=-2)  # C order


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
    return (*_window_sums(y, n, m), _rings(y, n, m))


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


# Punctured-sum slots one `decompose` block holds: a block takes as many
# samples as fit, N (N + 1) slots each, and N is bounded so that one does.
# Its arrays peak at about 180 B per slot at d = 2, 46 MB for a full block,
# whatever S is.
_BLOCK_SLOTS = 1 << 18


def check_block_size(n_terms: int) -> None:
    """ValueError when one sample's N (N + 1) punctured sums would not fit
    in a `decompose` block of `_BLOCK_SLOTS` slots."""
    if n_terms * (n_terms + 1) > _BLOCK_SLOTS:
        raise ValueError(
            f"N (N + 1) = {n_terms * (n_terms + 1)} punctured sums per sample exceed a "
            f"ledger block of {_BLOCK_SLOTS}; reduce N"
        )


def decompose(ens: EnsembleMatrix, solution, sigma: np.ndarray | None = None) -> DecompositionLedger:
    """Estimate E1..E7 and the direct LHS for the given C^2 function.

    `solution` needs an `evaluate(points, need)` method that returns the
    "gradient" and "hessian" fields at a (..., d) stack; when it also carries
    a `sigma` attribute, that matrix must agree with the empirical
    mu(W W^T) (the identity only holds for the self-consistent Sigma).  The
    terms follow by telescoping (module docstring), exact to roundoff when
    the Hessian is the derivative of the gradient.  Means are exact when the
    ensemble carries weights.

    The samples are taken in blocks of at most `_BLOCK_SLOTS` punctured
    sums (ValueError when one sample's N (N + 1) do not fit,
    `check_block_size`).  Per block, one call evaluates both fields at the
    block's bitwise-distinct slots (`distinct_points` sums their counts),
    gathered back to every slot, and each sample's share of every term is
    written to one 8 x S array.  The one quantity across samples, the
    per-slot mean Hessian, is summed in sample order, so it has the bits of
    np.mean, or of the weighted einsum when the ensemble is weighted.  The
    centred Hessians of E3-E5 split into a per-sample part, formed in the
    block, and a part linear in that mean, formed with E6 and E7 in a second
    pass over the blocks once the mean is known (the rings are gathered
    from y again).  So E1, E2, E6, E7 and the lhs do not depend on the
    blocks, and E3-E5 agree with the centred form to roundoff.
    """
    s_count, big_n, d = ens.samples, ens.times, ens.dimension
    y = ens.y_values()
    weights = ens.weights
    sigma_emp = ens.w_covariance(y)
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

    check_block_size(big_n)
    # W^{n,m} for m = -1..N-1 at storage index m+1; the rings Y^{n,m} for
    # m = 0..N-1, gathered in C order (einsum sums another layout in another
    # order, which moves the last bits of E3, E4 and E6)
    n, radii, m = np.arange(big_n)[:, None], np.arange(-1, big_n), np.arange(1, big_n)
    step = max(1, _BLOCK_SLOTS // (big_n * (big_n + 1)))
    blocks = [slice(lo, lo + step) for lo in range(0, s_count, step)]
    # sum_{k=a}^{b} delta^{n,k} = hess[:, n, a] - hess[:, n, b+1]: the ends
    # of E3's and E4's k-sums, per ring m
    end3, end4 = np.minimum(2 * m, big_n - 1) + 1, np.minimum(2 * m + 1, big_n)
    contrib = np.empty((8, s_count))          # E1..E7, then the lhs
    e1, e2, e3, e4, e5, e6, e7, lhs = contrib
    hess_sum, distinct_points = None, 0
    for rows in blocks:
        yb = y[rows]
        w, wnk = _window_sums(yb, n, radii)
        # Slots with the same clipped window, or any empty one, hold the same
        # bits, so each distinct row is evaluated once and gathered back; the
        # slots are dropped first
        distinct, inv = _distinct_rows(wnk.reshape(-1, d))
        slots = wnk.shape[:-1]
        del wnk
        distinct_points += len(distinct)
        fields = solution.evaluate(distinct, ("gradient", "hessian"))
        del distinct
        grad = np.asarray(fields["gradient"])[inv].reshape(slots + (d,))
        # Row 0 carries the (weighted) Hessian sum of the samples before
        # this block, which the block's rows, weighted, are then added to in
        # sample order: the bits of np.mean and of the weighted einsum (mode
        # "clip" writes to `out` unbuffered; every index is in range)
        hess = np.empty((len(yb) + 1,) + slots[1:] + (d, d))
        np.take(np.asarray(fields["hessian"]), inv, axis=0, out=hess[1:].reshape(-1, d, d), mode="clip")
        del fields, inv
        parts = hess
        if weights is not None:
            parts = np.empty_like(hess)
            np.multiply(weights[rows].reshape((-1,) + (1,) * (hess.ndim - 1)), hess[1:], out=parts[1:])
        if hess_sum is None:
            hess_sum = np.add.reduce(parts[1:], axis=0)
        else:
            parts[0] = hess_sum
            hess_sum = np.add.reduce(parts, axis=0)
        del parts
        hess = hess[1:]
        rings = _rings(yb, n, radii[1:])

        # E1/E2: -y_n . int_0^1 delta^{n,m}(u) du Y^{n,m}, with the segment
        # integral of the Hessian equal to a gradient difference
        seg = grad[:, :, :-1] - grad[:, :, 1:]
        seg -= np.einsum("snmab,snmb->snma", hess[:, :, 1:], rings)
        per_ring = -np.einsum("sna,snma->snm", yb, seg)
        del seg
        e2[rows] = per_ring[:, :, 0].sum(axis=1)
        e1[rows] = per_ring[:, :, 1:].sum(axis=(1, 2))
        # D^2A(W) and grad A(W) sit at storage index 0 for every n
        lhs[rows] = np.einsum("ab,sba->s", sigma_emp, hess[:, 0, 0]) - np.einsum(
            "sa,sa->s", w, grad[:, 0, 0]
        )
        del grad
        # E3-E5, the per-sample Hessian parts; each difference is formed in
        # its gathered operand (hess[:, :, m + 1] is the view hess[:, :, 2:])
        ring_m = rings[:, :, 1:]
        diff = hess[:, :, end3]
        np.subtract(hess[:, :, 2:], diff, out=diff)
        e3[rows] = -np.einsum("sna,snmab,snmb->s", yb, diff, ring_m)
        diff = hess[:, :, end4]
        diff -= hess[:, :, big_n, None]
        e4[rows] = -np.einsum("sna,snmab,snmb->s", yb, diff, ring_m)
        del diff
        e5[rows] = -np.einsum("sna,snab,snb->s", yb, hess[:, :, 1] - hess[:, :, big_n], yb)

    mean = hess_sum if weights is not None else hess_sum / s_count
    diff3, diff4 = mean[:, m + 1] - mean[:, end3], mean[:, end4] - mean[:, big_n, None]
    diff5, diff6, diff7 = mean[:, 1] - mean[:, big_n], mean[:, :1] - mean[:, m + 1], mean[:, 0] - mean[:, 1]
    for rows in blocks:
        yb = y[rows]
        ring_m = _rings(yb, n, radii[1:])[:, :, 1:]
        e3[rows] += np.einsum("sna,nmab,snmb->s", yb, diff3, ring_m)
        e4[rows] += np.einsum("sna,nmab,snmb->s", yb, diff4, ring_m)
        e5[rows] += np.einsum("sna,nab,snb->s", yb, diff5, yb)
        e6[rows] = np.einsum("sna,nmab,snmb->s", yb, diff6, ring_m)
        e7[rows] = np.einsum("sna,nab,snb->s", yb, diff7, yb)

    names = ["E1", "E2", "E3", "E4", "E5", "E6", "E7"]
    terms = {name: _mean_and_stderr(row, weights) for name, row in zip(names, contrib)}
    return DecompositionLedger(terms, _mean_and_stderr(lhs, weights), s_count, ens.exact,
                               distinct_points)
