"""Gaussian-mixture targets and their posterior algebra under a schedule.

A target is a finite mixture sum_j w_j N(mu_j, sigma^2 I).  At time t the
transported marginal is the mixture of N(b_t mu_j, c_t^2 I) with
c_t^2 = a_t^2 + sigma^2 b_t^2, and conditioning the clean sample on the
noisy state stays inside the family: the posterior is again a mixture with
responsibilities pi_j, shrunk component means m_j and a shared isotropic
variance.  Everything downstream (velocity fields, Jacobians, envelopes)
is assembled from these posterior statistics, so they are computed here
once, in log space, and shared.

Operations accept a single point of shape (d,) or a batch (n, d) and
return matching shapes.  Time arguments are scalars in [0, 1].
"""

from __future__ import annotations

import dataclasses
import functools
import math
import sys

import numpy as np

from .errors import (
    DegenerateTimeError,
    InvalidParamError,
    NonFiniteError,
    SizeMismatchError,
    TooLargeError,
)
from .schedules import Schedule

__all__ = [
    "Target",
    "Posterior",
    "gaussian_target",
    "mixture_target",
    "point_cloud_target",
    "min_enclosing_ball",
    "posterior",
    "posterior_stats",
    "posterior_moments",
    "marginal_log_density",
    "denoiser",
    "score",
    "cond_cov",
]

_BALL_POINT_CAP = 10_000


@dataclasses.dataclass(frozen=True)
class Target:
    """Isotropic Gaussian mixture: weights (k,), means (k, d), shared sigma."""

    weights: np.ndarray
    means: np.ndarray
    sigma: float

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        m = np.asarray(self.means, dtype=float)
        if m.ndim != 2 or m.shape[0] < 1:
            raise InvalidParamError("means must be a (k, d) array with k >= 1")
        if w.ndim != 1:
            raise InvalidParamError("weights must be a 1d array")
        if w.shape[0] != m.shape[0]:
            raise SizeMismatchError(
                f"{w.shape[0]} weights for {m.shape[0]} component means")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(m))):
            raise NonFiniteError("weights and means must be finite")
        if np.any(w < 0.0):
            raise InvalidParamError("weights must be nonnegative")
        total = float(w.sum())
        if abs(total - 1.0) > 1e-8:
            raise InvalidParamError(f"weights must sum to 1, got {total}")
        if not (isinstance(self.sigma, (int, float)) and math.isfinite(self.sigma)
                and self.sigma > 0.0):
            raise InvalidParamError(f"sigma must be > 0, got {self.sigma!r}")
        w = w / total
        w.setflags(write=False)
        m.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "sigma", float(self.sigma))

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @property
    def n_components(self) -> int:
        return self.means.shape[0]

    @property
    def is_gaussian(self) -> bool:
        return self.n_components == 1

    @property
    def kappa(self) -> float | None:
        """Log-concavity curvature 1/sigma^2, known only for one component."""
        return 1.0 / self.sigma ** 2 if self.is_gaussian else None

    @property
    def beta(self) -> float | None:
        """Log-smoothness curvature 1/sigma^2, known only for one component."""
        return 1.0 / self.sigma ** 2 if self.is_gaussian else None

    @property
    def second_moment(self) -> float:
        """E ||X||^2 = sum_j w_j ||mu_j||^2 + d sigma^2."""
        return float(self.weights @ np.sum(self.means ** 2, axis=1)
                     + self.dim * self.sigma ** 2)

    @functools.cached_property
    def log_weights(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            lw = np.log(self.weights)
        lw.setflags(write=False)
        return lw

    @functools.cached_property
    def radius(self) -> float:
        """Radius of the minimal ball enclosing the component means."""
        return min_enclosing_ball(self.means)[1]

    @functools.cached_property
    def diam_over_sqrt2(self) -> float:
        """Pairwise diameter of the means divided by sqrt(2)."""
        return _pairwise_diameter(self.means) / math.sqrt(2.0)


def gaussian_target(mean, var: float) -> Target:
    """Single Gaussian N(mean, var*I) as a one-component mixture."""
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    if not (isinstance(var, (int, float)) and math.isfinite(var) and var > 0.0):
        raise InvalidParamError(f"var must be > 0, got {var!r}")
    return Target(weights=np.array([1.0]), means=mean[None, :], sigma=math.sqrt(var))


def mixture_target(weights, means, sigma: float) -> Target:
    """Isotropic Gaussian mixture with shared component deviation sigma."""
    return Target(weights=np.asarray(weights, dtype=float),
                  means=np.asarray(means, dtype=float), sigma=float(sigma))


def point_cloud_target(points, sigma: float, weights=None) -> Target:
    """Mixture centered on a point cloud, uniform weights by default."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise InvalidParamError("points must be a (k, d) array")
    if weights is None:
        weights = np.full(pts.shape[0], 1.0 / pts.shape[0])
    return Target(weights=np.asarray(weights, dtype=float), means=pts, sigma=float(sigma))


# ---------------------------------------------------------------------------
# geometry of the mean set


def _pairwise_diameter(pts: np.ndarray) -> float:
    n = pts.shape[0]
    if n == 1:
        return 0.0
    best = 0.0
    block = 512
    sq = np.sum(pts ** 2, axis=1)
    for i in range(0, n, block):
        chunk = pts[i:i + block]
        d2 = sq[i:i + block, None] + sq[None, :] - 2.0 * chunk @ pts.T
        best = max(best, float(d2.max()))
    return math.sqrt(max(best, 0.0))


def _ball_of_support(pts: list[np.ndarray], d: int):
    """Exact minimal ball of at most d+1 points (subset enumeration)."""
    if not pts:
        return np.zeros(d), -1.0
    best = None
    m = len(pts)
    for mask in range(1, 1 << m):
        sub = [pts[i] for i in range(m) if mask >> i & 1]
        p0 = sub[0]
        if len(sub) == 1:
            c, r = p0.copy(), 0.0
        else:
            V = np.stack([q - p0 for q in sub[1:]])
            g = np.sum(V ** 2, axis=1)
            lam, *_ = np.linalg.lstsq(2.0 * V @ V.T, g, rcond=None)
            c = p0 + lam @ V
            r = float(np.linalg.norm(p0 - c))
            radii = [np.linalg.norm(q - c) for q in sub]
            if max(radii) > r * (1 + 1e-10) + 1e-12:
                continue
        if all(np.linalg.norm(q - c) <= r * (1 + 1e-10) + 1e-12 for q in pts):
            if best is None or r < best[1]:
                best = (c, r)
    if best is None:
        # numerically degenerate support; fall back to the centroid bound
        c = np.mean(pts, axis=0)
        best = (c, float(max(np.linalg.norm(q - c) for q in pts)))
    return best


def min_enclosing_ball(points: np.ndarray, seed: int = 0):
    """Center and radius of the smallest ball containing the points.

    Exact (Welzl's randomized recursion) for dimensions 1 to 3; for higher
    dimensions returns the centroid-based upper bound.  Caps the point
    count at 10_000.
    """
    pts = np.unique(np.asarray(points, dtype=float), axis=0)
    n, d = pts.shape
    if np.asarray(points).shape[0] > _BALL_POINT_CAP:
        raise TooLargeError(f"enclosing ball supports at most {_BALL_POINT_CAP} points")
    if n == 1:
        return pts[0].copy(), 0.0
    if d == 1:
        lo, hi = float(pts.min()), float(pts.max())
        return np.array([(lo + hi) / 2.0]), (hi - lo) / 2.0
    if d > 3:
        c = pts.mean(axis=0)
        return c, float(np.max(np.linalg.norm(pts - c, axis=1)))

    order = list(np.random.default_rng(seed).permutation(n))
    shuffled = [pts[i] for i in order]

    def welzl(m: int, boundary: list[np.ndarray]):
        if m == 0 or len(boundary) == d + 1:
            return _ball_of_support(boundary, d)
        c, r = welzl(m - 1, boundary)
        p = shuffled[m - 1]
        if np.linalg.norm(p - c) <= r * (1 + 1e-10) + 1e-12:
            return c, r
        return welzl(m - 1, boundary + [p])

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 4 * n + 200))
    try:
        c, r = welzl(n, [])
    finally:
        sys.setrecursionlimit(limit)
    # guard against an unlucky tolerance miss
    r = max(r, float(np.max(np.linalg.norm(pts - c, axis=1))))
    return c, r


# ---------------------------------------------------------------------------
# posterior algebra


@dataclasses.dataclass(frozen=True)
class Posterior:
    """Conditional law of the clean sample given the state at time t.

    A mixture: responsibilities resp over components, shrunk means
    comp_means, shared isotropic variance comp_var.  Shapes follow the
    query point: (k,)/(k, d) for a single x, (n, k)/(n, k, d) for a batch.
    """

    t: float
    resp: np.ndarray
    comp_means: np.ndarray
    comp_var: float


def _as_batch(target: Target, x):
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != target.dim:
        raise SizeMismatchError(
            f"x must have trailing dimension {target.dim}, got shape {np.shape(x)}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError("x contains non-finite entries")
    return arr, single


def _coeffs(target: Target, sched: Schedule, t: float):
    p = sched.eval(t)
    c2 = p.a ** 2 + target.sigma ** 2 * p.b ** 2
    if not c2 > 0.0:
        raise DegenerateTimeError(f"marginal covariance degenerates at t={t}")
    return p, c2


def _logsumexp_rows(lg: np.ndarray) -> np.ndarray:
    """Row-wise log-sum-exp; scipy's general version costs too much here."""
    m = lg.max(axis=1)
    return m + np.log(np.exp(lg - m[:, None]).sum(axis=1))


def _log_resp(target: Target, b: float, c2: float, xb: np.ndarray):
    """Unnormalized log responsibilities (n, k) and their normalizer (n,)."""
    diff = xb[:, None, :] - b * target.means[None, :, :]
    sq = (diff * diff).sum(axis=2)
    lg = target.log_weights[None, :] - sq / (2.0 * c2)
    return lg, _logsumexp_rows(lg)


def _stats(target: Target, b: float, c2: float, xb: np.ndarray, want_spread: bool):
    """Shared hot path: (resp, mu_bar, spread or None) at schedule values b, c^2.

    Callers pass b_t and c_t^2 = a_t^2 + sigma^2 b_t^2 already checked, so
    an integrator can read them from a table built once per call.  The
    one-component shortcut and the skippable spread matter: RK4 calls this
    four times per step on small batches, where fixed numpy overhead
    dominates.
    """
    if target.n_components == 1:
        n = xb.shape[0]
        resp = np.ones((n, 1))
        mu_bar = np.broadcast_to(target.means[0], xb.shape).copy()
        spread = np.zeros((n, target.dim, target.dim)) if want_spread else None
        return resp, mu_bar, spread
    lg, norm = _log_resp(target, b, c2, xb)
    resp = np.exp(lg - norm[:, None])
    mu_bar = resp @ target.means
    if not want_spread:
        return resp, mu_bar, None
    # centered form: each summand is PSD, so roundoff cannot push the
    # spread's eigenvalues materially below zero even for far-out means
    centered = target.means[None, :, :] - mu_bar[:, None, :]
    spread = (centered * resp[:, :, None]).transpose(0, 2, 1) @ centered
    return resp, mu_bar, spread


def posterior(target: Target, sched: Schedule, t: float, x) -> Posterior:
    """Mixture representation of Law(X1 | X_t = x)."""
    xb, single = _as_batch(target, x)
    p, c2 = _coeffs(target, sched, t)
    lg, norm = _log_resp(target, p.b, c2, xb)
    resp = np.exp(lg - norm[:, None])
    shrink = p.a ** 2 / c2
    pull = target.sigma ** 2 * p.b / c2
    comp_means = shrink * target.means[None, :, :] + pull * xb[:, None, :]
    comp_var = target.sigma ** 2 * p.a ** 2 / c2
    if single:
        return Posterior(t=float(t), resp=resp[0], comp_means=comp_means[0],
                         comp_var=comp_var)
    return Posterior(t=float(t), resp=resp, comp_means=comp_means, comp_var=comp_var)


def marginal_log_density(target: Target, sched: Schedule, t: float, x):
    """Log density of the transported marginal at time t."""
    xb, single = _as_batch(target, x)
    p, c2 = _coeffs(target, sched, t)
    _, norm = _log_resp(target, p.b, c2, xb)
    out = norm - 0.5 * target.dim * math.log(2.0 * math.pi * c2)
    return float(out[0]) if single else out


def denoiser(target: Target, sched: Schedule, t: float, x):
    """Posterior mean E[X1 | X_t = x]."""
    xb, single = _as_batch(target, x)
    p, c2 = _coeffs(target, sched, t)
    _, mu_bar, _ = _stats(target, p.b, c2, xb, False)
    out = (p.a ** 2 / c2) * mu_bar + (target.sigma ** 2 * p.b / c2) * xb
    return out[0] if single else out


def score(target: Target, sched: Schedule, t: float, x):
    """Gradient of the marginal log density, -(x - b_t mu_bar)/c_t^2."""
    xb, single = _as_batch(target, x)
    p, c2 = _coeffs(target, sched, t)
    _, mu_bar, _ = _stats(target, p.b, c2, xb, False)
    out = -(xb - p.b * mu_bar) / c2
    return out[0] if single else out


def posterior_stats(target: Target, sched: Schedule, t: float, x):
    """Responsibilities, their mean over component means, and its spread.

    Returns (resp, mu_bar, mu_spread) where mu_spread is the
    responsibility-weighted covariance of the component means, the single
    matrix the velocity Jacobian needs.  Batch shapes (n,k), (n,d), (n,d,d).
    """
    xb, single = _as_batch(target, x)
    p, c2 = _coeffs(target, sched, t)
    resp, mu_bar, mu_spread = _stats(target, p.b, c2, xb, True)
    if single:
        return resp[0], mu_bar[0], mu_spread[0]
    return resp, mu_bar, mu_spread


def cond_cov(target: Target, sched: Schedule, t: float, x):
    """Posterior covariance Cov(X1 | X_t = x), a (d, d) matrix per point."""
    xb, single = _as_batch(target, x)
    p, c2 = _coeffs(target, sched, t)
    _, _, spread = _stats(target, p.b, c2, xb, True)
    shrink = p.a ** 2 / c2
    s2 = target.sigma ** 2 * shrink
    out = shrink ** 2 * spread + s2 * np.eye(target.dim)[None, :, :]
    return out[0] if single else out


def posterior_moments(target: Target, sched: Schedule, t: float, x):
    """First three posterior moments of X1 given X_t = x.

    Returns (M1, M2, M2c, M3): the mean vector, the scalar second moment
    E||X1||^2, the covariance matrix, and the vector E[||X1||^2 X1], each
    in closed form per mixture component.  Batch shapes (n,d), (n,),
    (n,d,d), (n,d).
    """
    xb, single = _as_batch(target, x)
    post = posterior(target, sched, t, xb)
    resp, m, s2 = post.resp, post.comp_means, post.comp_var
    d = target.dim
    msq = np.einsum("nkd,nkd->nk", m, m)
    M1 = np.einsum("nk,nkd->nd", resp, m)
    M2 = np.einsum("nk,nk->n", resp, msq + d * s2)
    centered = m - M1[:, None, :]
    M2c = np.einsum("nk,nki,nkj->nij", resp, centered, centered) \
        + s2 * np.eye(d)[None, :, :]
    M3 = np.einsum("nk,nkd->nd", resp, m * (msq + (d + 2) * s2)[:, :, None])
    if single:
        return M1[0], float(M2[0]), M2c[0], M3[0]
    return M1, M2, M2c, M3
