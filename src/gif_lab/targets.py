"""Gaussian-mixture targets and their posterior algebra under a schedule.

A target is a finite mixture sum_j w_j N(mu_j, sigma^2 I).  At time t the
transported marginal is the mixture of N(b_t mu_j, c_t^2 I) with
c_t^2 = a_t^2 + sigma^2 b_t^2, and conditioning the clean sample on the
noisy state stays inside the family: the posterior is again a mixture with
responsibilities pi_j, shrunk component means m_j and a shared isotropic
variance.  Everything downstream (velocity fields, Jacobians, envelopes)
is assembled from these posterior statistics, so they are computed here
once, by one kernel, and shared.

The responsibilities are a softmax over components of

    log w_j - |x - b mu_j|^2 / (2 c^2)
        = -|x|^2 / (2 c^2) + (b / c^2) x . mu_j + log w_j - (b^2 / (2 c^2)) |mu_j|^2.

The -|x|^2 / (2 c^2) term is the same for every component, so it cancels
in the softmax: the logits are one (k, d) @ (d, n) GEMM plus a per-component
constant, with the means measured from the mixture mean and their squared
norms cached once per target.  The factors that depend on the time
(_logit_terms) are built once per time: the flow engine builds them for
every stage of a run in its coefficient table, the public functions from
their one (b, c^2).  Only the marginal log density needs the dropped term;
it keeps the full-distance normaliser, because adding |x|^2 / (2 c^2) back
would cancel badly far from the means.

Inside the module every array is particles-last: a cloud is (d, n), the
responsibilities are component-major (k, n), the posterior mean mu_bar is
(d, n) and the centred means are (d, k, n), so each elementwise operation
runs over whole rows of n particles and no layer swaps axes.  The max and
the sum of the softmax run over the component axis.  Shifted logits at or
below -700 are set to exactly 0 instead of exponentiated (_softmax0): each
such term is below e^-700 < 1e-304 of the largest, so no normalising sum
changes, and exp never reaches the subnormal range where it runs 10-100x
slower.

The public functions accept a single point of shape (d,) or a batch (n, d)
and return matching C-ordered shapes, point-major ((n, k), (n, d)); each
transposes once at its boundary.  Time arguments are scalars in [0, 1].
The kernel below the public functions also takes a leading group axis: a
(G, d, n) batch with G sets of logit terms, one per group, gives the same
numbers as G separate (d, n) calls.

The kernel functions (_resp, _stats, _spread, _spread_apply) take a
workspace, _Workspace, that holds their scratch and their results for
clouds of one shape; they write into it instead of allocating.  Each
public function makes one workspace per call, so what it returns is its
own; the flow engine makes one per bound rate and reuses it for every
stage of a run.
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
    TooLargeError,
    _array_param,
    _int_param,
    _real_param,
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
    """Isotropic Gaussian mixture: weights (k,), means (k, d), shared sigma;
    keeps read-only copies of the means and the normalised weights."""

    weights: np.ndarray
    means: np.ndarray
    sigma: float

    def __post_init__(self):
        m = _array_param("means", self.means, "a (k, d) array").copy()
        w = _array_param("weights", self.weights, f"one weight per mean, a ({len(m)},) array")
        if np.any(w < 0.0):
            raise InvalidParamError("weights must be nonnegative")
        total = float(w.sum())
        if abs(total - 1.0) > 1e-8:
            raise InvalidParamError(f"weights must sum to 1, got {total}")
        w = w / total
        w.setflags(write=False)
        m.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "sigma", _real_param("sigma", self.sigma, "(0, inf)"))

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
    def _centred_means(self):
        """Centre m0 = sum_j w_j mu_j as a (d, 1) column, centred means
        mu_j - m0 as (k, d) and their squared norms (k,), read by _logit_terms."""
        m0 = self.weights @ self.means
        mc = self.means - m0
        terms = (m0[:, None], mc, np.sum(mc * mc, axis=1))
        for arr in terms:
            arr.setflags(write=False)
        return terms

    @functools.cached_property
    def _means_col(self) -> np.ndarray:
        """The means as a contiguous (d, k, 1) array, one column per
        coordinate and component, read by _centred and _log_resp."""
        mt = np.ascontiguousarray(self.means.T)[:, :, None]
        mt.setflags(write=False)
        return mt

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
    mean = _array_param("mean", mean, "a () scalar or a (d,) vector")
    var = _real_param("var", var, "(0, inf)")
    return Target(weights=np.array([1.0]), means=mean.reshape(1, -1), sigma=math.sqrt(var))


def mixture_target(weights, means, sigma: float) -> Target:
    """Isotropic Gaussian mixture with shared component deviation sigma."""
    return Target(weights=weights, means=means, sigma=sigma)


def point_cloud_target(points, sigma: float, weights=None) -> Target:
    """Mixture centered on a point cloud, uniform weights by default."""
    pts = _array_param("points", points, "a (k, d) array")
    if weights is None:
        weights = np.full(pts.shape[0], 1.0 / pts.shape[0])
    return Target(weights=weights, means=pts, sigma=sigma)


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
    seed = _int_param("seed", seed, "[0, inf)")
    pts = _array_param("points", points, "a (k, d) array")
    if pts.shape[0] > _BALL_POINT_CAP:
        raise TooLargeError(f"enclosing ball supports at most {_BALL_POINT_CAP} points")
    pts = np.unique(pts, axis=0)
    n, d = pts.shape
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
    arr = _array_param("x", x, f"a ({target.dim},) point or an (n, {target.dim}) cloud")
    return np.atleast_2d(arr), arr.ndim == 1


def _coeffs(target: Target, sched: Schedule, t: float):
    p = sched.eval(t)
    c2 = p.a ** 2 + target.sigma ** 2 * p.b ** 2
    if not c2 > 0.0:
        raise DegenerateTimeError(f"marginal covariance degenerates at t={t}")
    return p, c2


# Shifted logits at or below this are dropped from the softmax, not
# exponentiated: e^-700 ~ 9.9e-305 is still a normal double.
_EXP_FLOOR = -700.0


class _Workspace:
    """Scratch of the posterior kernel for particles-last clouds of one
    shape (..., d, n), reused by every kernel call on this workspace.

    The buffers of O((d + k) n) entries are allocated, C-contiguous, with
    the workspace: xc holds x - b m0 in point-major memory ((..., n, d) seen
    as (..., d, n)), lg the logits and then the responsibilities (..., k, n),
    col one value per particle (..., 1, n), the softmax's max and then its
    sum, and rc the products r_j (c_j . w) (..., k, n), also seen with a
    coordinate axis as rc_d (..., 1, k, n).  post holds mu_bar (its block
    mu) and spread(mu) w (its block sw) as the two blocks of one
    (..., 2, d, n) array, laid out like a path with its tangents, so a
    caller can scale both in one product.  The (..., d, k, n) buffers of
    the centred means and the (n, d, d) spread are allocated when a kernel
    function first needs them, so a caller that never forms them never
    pays for their O(d k n) memory.  The kernel's results are these
    buffers, so they hold only until the next call; the public functions
    make one workspace per call, the flow engine one per bound rate.
    """

    def __init__(self, target: Target, shape: tuple):
        lead, (d, n), k = shape[:-2], shape[-2:], target.n_components
        self.shape, self.k = shape, k
        self.xc = np.empty(lead + (n, d)).swapaxes(-1, -2)
        self.lg, self.col = np.empty(lead + (k, n)), np.empty(lead + (1, n))
        self.rc = np.empty(lead + (k, n))
        self.rc_d = self.rc[..., None, :, :]
        self.post = np.empty(lead + (2, d, n))
        self.mu, self.sw = self.post[..., 0, :, :], self.post[..., 1, :, :]

    @functools.cached_property
    def centred(self) -> np.ndarray:
        """c_j = mu_j - mu_bar, (..., d, k, n)."""
        return np.empty(self.shape[:-1] + (self.k, self.shape[-1]))

    @functools.cached_property
    def terms(self) -> np.ndarray:
        """Products with the centred means, (..., d, k, n)."""
        return np.empty(self.shape[:-1] + (self.k, self.shape[-1]))

    @functools.cached_property
    def spread(self) -> np.ndarray:
        """The (n, d, d) spread, laid out in memory as (d, d, n), the order
        einsum gives its own output for _spread's operands."""
        d, n = self.shape
        return np.empty((d, d, n)).transpose(2, 0, 1)


def _softmax0(lg: np.ndarray, top: np.ndarray) -> np.ndarray:
    """In place: lg (..., k, n) minus its column max, exponentiated where it
    is above _EXP_FLOOR and exactly 0 elsewhere; returns lg, and leaves the
    column max in top, (..., 1, n).

    A dropped term is below e^-700 of the column's largest term, which is
    1, so no column sum changes.  Clamping before exp keeps every input of
    exp at or above -700, and the mask then zeroes the clamped entries;
    when no entry is that low, one reduce shows it and both are skipped.
    """
    # the kernel's reductions call the ufuncs' reduce directly: the ndarray
    # methods add a Python wrapper per call, a visible share at small n
    lg -= np.maximum.reduce(lg, axis=-2, keepdims=True, out=top)
    if np.minimum.reduce(lg, axis=None) > _EXP_FLOOR:
        return np.exp(lg, out=lg)
    live = lg > _EXP_FLOOR
    np.maximum(lg, _EXP_FLOOR, out=lg)
    np.exp(lg, out=lg)
    lg *= live
    return lg


def _log_resp(target: Target, b: float, c2: float, xb: np.ndarray) -> np.ndarray:
    """Log-sum-exp over components of log w_j - |x - b mu_j|^2 / (2 c^2), (n,),
    at the points of a point-major (n, d) batch xb.

    The full-distance normaliser of the marginal log density: adding
    |x|^2 / (2 c^2) back to _resp's GEMM logits would cancel badly far from
    the means.  The logits are component-major (k, n) and go through
    _softmax0's masked exp, which leaves their column max behind.
    """
    diff = xb.T[:, None, :] - b * target._means_col
    lg = target.log_weights[:, None] - (diff * diff).sum(axis=0) / (2.0 * c2)
    top = np.empty((1, len(xb)))
    return top[0] + np.log(_softmax0(lg, top).sum(axis=0))


def _logit_terms(target: Target, b, c2) -> tuple:
    """The kernel's factors at schedule values b, c^2: (s mc, b m0, const).

    With s = b / c^2, mc the centred means (k, d) and m0 the centre, a
    (d, 1) column, const = log w_j - (s b / 2) |mc_j|^2 as a (k, 1) column.
    b and c2 are scalars, or arrays of one shape (..., 1, 1) whose leading
    axes the terms keep: s mc is then (..., k, d), b m0 (..., d, 1), const
    (..., k, 1).
    """
    m0, mc, mc_sq = target._centred_means
    s = b / c2
    return s * mc, b * m0, target.log_weights[:, None] - (0.5 * s * b) * mc_sq[:, None]


def _resp(target: Target, terms: tuple, x: np.ndarray, ws: _Workspace) -> np.ndarray:
    """Responsibilities (k, n), component-major, of a (d, n) cloud x from
    _logit_terms' terms, in ws.lg.

    The logits are one (k, d) @ (d, n) GEMM, (s mc) @ (x - b m0) with
    s = b / c^2 and mc the centred means, plus the per-component constant
    log w_j - (s b / 2) |mc_j|^2.  With means measured from the target's
    centre m0 and x from b m0, they differ from the full-distance logits
    log w_j - |x - b mu_j|^2 / (2 c^2) by -|x|^2 / (2 c^2), the same for
    every component, so the softmax is unchanged.  Centring keeps the
    rounding of the GEMM at the scale of the mixture's spread, not of its
    offset from the origin.  The softmax runs over the component axis
    through _softmax0: a shifted logit at or below -700 gives exactly 0,
    and the terms so dropped are below e^-700 < 1e-304 of the largest, so
    no column sum changes.  Every nonzero exponential is a normal double;
    divided by a column sum of at most k it stays normal for k < 4000.

    With a group axis, x is (G, d, n), the terms carry a leading G and
    the result is (G, k, n): one batched GEMM, which numpy runs as one
    BLAS call per group, so each group's numbers are those of a 2-D call.
    """
    smc, bm0, const = terms
    # x - b m0 goes into point-major memory (ws.xc), so the GEMM rounds as
    # the point-major product (s mc) @ (x - b m0)^T of the public functions
    # does: with a C-ordered (d, n) operand OpenBLAS takes another kernel
    # for some shapes (k >= 12 at n = 300, d = 16)
    xc = np.subtract(x, bm0, out=ws.xc)
    lg = np.matmul(smc, xc, out=ws.lg)
    lg += const
    _softmax0(lg, ws.col)
    lg /= np.add.reduce(lg, axis=-2, keepdims=True, out=ws.col)
    return lg


def _stats(target: Target, terms: tuple, x: np.ndarray, ws: _Workspace):
    """Shared hot path: (resp, mu_bar) of a (d, n) cloud x from the logit
    terms of one time, in ws.lg and ws.mu.

    Callers build the terms from b_t and c_t^2 = a_t^2 + sigma^2 b_t^2
    already checked, so an integrator can read them from a table built once
    per call.  resp is _resp's component-major (k, n) array and mu_bar is
    (d, n), each with the group axis of x in front when it has one.  For
    one component the logits are all zero, so resp is exactly 1 and mu_bar
    the component mean.  mu_bar's GEMM reads the means through the
    transposed view means.T, so a one-point cloud takes the same BLAS
    matrix-vector kernel as the point-major product resp^T @ means.
    """
    resp = _resp(target, terms, x, ws)
    return resp, np.matmul(target.means.T, resp, out=ws.mu)


def _rows(arr: np.ndarray) -> np.ndarray:
    """A particles-last (..., d, n) array as C-ordered point-major (..., n, d)."""
    return np.ascontiguousarray(arr.swapaxes(-1, -2))


def _centred(target: Target, mu_bar: np.ndarray, out=None) -> np.ndarray:
    """c_j = mu_j - mu_bar as (..., d, k, n) from mu_bar (..., d, n): one
    component-major (k, n) slab per coordinate, so the sums below run over
    whole slabs."""
    return np.subtract(target._means_col, mu_bar[..., :, None, :], out=out)


def _spread(target: Target, resp: np.ndarray, mu_bar: np.ndarray,
            ws: _Workspace) -> np.ndarray:
    """Responsibility-weighted covariance of the component means, (n, d, d),
    in ws.spread.

    resp is component-major (k, n), mu_bar (d, n).  Centred form: each
    summand is PSD, so roundoff cannot push the spread's eigenvalues
    materially below zero even for far-out means.  The output stays
    point-major: the engine's Jacobian rate multiplies it into an (n, d, d)
    copy of J.
    """
    centred = _centred(target, mu_bar, ws.centred)
    weighted = np.multiply(centred, resp, out=ws.terms)
    return np.einsum("ikn,jkn->nij", weighted, centred, out=ws.spread)


def _spread_apply(target: Target, resp: np.ndarray, mu_bar: np.ndarray,
                  w: np.ndarray, ws: _Workspace) -> np.ndarray:
    """spread(mu) w = sum_j r_j c_j (c_j . w) with c_j = mu_j - mu_bar, (d, n),
    in ws.sw.

    The product of _spread with one vector per point, without forming the
    (n, d, d) spread; centred like it, resp component-major (k, n), mu_bar
    and w (d, n).  The sums run over negative axes, so a leading group axis
    passes through.
    """
    centred = _centred(target, mu_bar, ws.centred)
    terms = np.multiply(centred, w[..., :, None, :], out=ws.terms)
    rc = np.add.reduce(terms, axis=-3, out=ws.rc)
    rc *= resp
    np.multiply(centred, ws.rc_d, out=terms)
    return np.add.reduce(terms, axis=-2, out=ws.sw)


def _third_moment(target: Target, resp: np.ndarray, mu_bar: np.ndarray) -> np.ndarray:
    """Third central moment of the component means, sum_j r_j c_j |c_j|^2
    with c_j = mu_j - mu_bar, (d, n); centred like _spread, resp (k, n)."""
    centred = _centred(target, mu_bar)
    rq = resp * (centred * centred).sum(axis=0)
    return (centred * rq).sum(axis=1)


def posterior(target: Target, sched: Schedule, t: float, x) -> Posterior:
    """Mixture representation of Law(X1 | X_t = x)."""
    xb, single = _as_batch(target, x)
    p, c2 = _coeffs(target, sched, t)
    ws = _Workspace(target, xb.T.shape)
    resp = _resp(target, _logit_terms(target, p.b, c2), xb.T, ws).T
    shrink = p.a ** 2 / c2
    pull = target.sigma ** 2 * p.b / c2
    comp_means = shrink * target.means[None, :, :] + pull * xb[:, None, :]
    comp_var = target.sigma ** 2 * p.a ** 2 / c2
    if single:
        resp, comp_means = resp[0], comp_means[0]
    return Posterior(t=p.t, resp=resp, comp_means=comp_means, comp_var=comp_var)


def marginal_log_density(target: Target, sched: Schedule, t: float, x):
    """Log density of the transported marginal at time t."""
    xb, single = _as_batch(target, x)
    p, c2 = _coeffs(target, sched, t)
    norm = _log_resp(target, p.b, c2, xb)
    out = norm - 0.5 * target.dim * math.log(2.0 * math.pi * c2)
    return float(out[0]) if single else out


def denoiser(target: Target, sched: Schedule, t: float, x):
    """Posterior mean E[X1 | X_t = x]."""
    xb, single = _as_batch(target, x)
    p, c2 = _coeffs(target, sched, t)
    ws = _Workspace(target, xb.T.shape)
    _, mu_bar = _stats(target, _logit_terms(target, p.b, c2), xb.T, ws)
    out = (p.a ** 2 / c2) * _rows(mu_bar) + (target.sigma ** 2 * p.b / c2) * xb
    return out[0] if single else out


def score(target: Target, sched: Schedule, t: float, x):
    """Gradient of the marginal log density, -(x - b_t mu_bar)/c_t^2."""
    xb, single = _as_batch(target, x)
    p, c2 = _coeffs(target, sched, t)
    ws = _Workspace(target, xb.T.shape)
    _, mu_bar = _stats(target, _logit_terms(target, p.b, c2), xb.T, ws)
    out = -(xb - p.b * _rows(mu_bar)) / c2
    return out[0] if single else out


def posterior_stats(target: Target, sched: Schedule, t: float, x):
    """Responsibilities, their mean over component means, and its spread.

    Returns (resp, mu_bar, mu_spread) where mu_spread is the
    responsibility-weighted covariance of the component means, the single
    matrix the velocity Jacobian needs.  Batch shapes (n,k), (n,d), (n,d,d).
    """
    xb, single = _as_batch(target, x)
    p, c2 = _coeffs(target, sched, t)
    ws = _Workspace(target, xb.T.shape)
    resp, mu_bar = _stats(target, _logit_terms(target, p.b, c2), xb.T, ws)
    mu_spread = _spread(target, resp, mu_bar, ws)
    if single:
        return resp[:, 0], mu_bar[:, 0], mu_spread[0]
    return resp.T, _rows(mu_bar), mu_spread


def cond_cov(target: Target, sched: Schedule, t: float, x):
    """Posterior covariance Cov(X1 | X_t = x), a (d, d) matrix per point."""
    xb, single = _as_batch(target, x)
    p, c2 = _coeffs(target, sched, t)
    ws = _Workspace(target, xb.T.shape)
    spread = _spread(target, *_stats(target, _logit_terms(target, p.b, c2), xb.T, ws), ws)
    shrink = p.a ** 2 / c2
    s2 = target.sigma ** 2 * shrink
    out = shrink ** 2 * spread + s2 * np.eye(target.dim)[None, :, :]
    return out[0] if single else out


def posterior_moments(target: Target, sched: Schedule, t: float, x):
    """First three posterior moments of X1 given X_t = x.

    Returns (M1, M2, M2c, M3): the mean vector, the scalar second moment
    E||X1||^2, the covariance matrix, and the vector E[||X1||^2 X1].
    Batch shapes (n,d), (n,), (n,d,d), (n,d).  One kernel call gives M1
    and M2c as the denoiser and cond_cov expressions, M2 = |M1|^2 + tr M2c,
    and M3 from them plus the third central moment of the component means.
    """
    xb, single = _as_batch(target, x)
    p, c2 = _coeffs(target, sched, t)
    ws = _Workspace(target, xb.T.shape)
    resp, mu_bar = _stats(target, _logit_terms(target, p.b, c2), xb.T, ws)
    spread = _spread(target, resp, mu_bar, ws)
    shrink = p.a ** 2 / c2
    s2 = target.sigma ** 2 * shrink
    M1 = shrink * _rows(mu_bar) + (target.sigma ** 2 * p.b / c2) * xb
    C = shrink ** 2 * spread
    M2c = C + s2 * np.eye(target.dim)[None, :, :]
    M2 = np.sum(M1 * M1, axis=1) + np.trace(M2c, axis1=1, axis2=2)
    M3 = ((M2 + 2.0 * s2)[:, None] * M1 + 2.0 * np.einsum("nij,nj->ni", C, M1)
          + shrink ** 3 * _third_moment(target, resp, mu_bar).T)
    if single:
        return M1[0], float(M2[0]), M2c[0], M3[0]
    return M1, M2, M2c, M3
