"""Independent numerical oracles used by the test suite.

Everything here is deliberately implemented by a different route than the
library code: finite differences instead of closed-form derivatives,
quadrature instead of log-sum-exp identities, brute force instead of the
Hungarian method, the affine Gaussian transport law instead of RK4, a plain
RK4 loop on the public velocity at physical stage times instead of the
engine's coefficient table, one numpy Philox generator per particle with a
scalar polar loop instead of the vectorised Philox4x64-10 draw,
full-distance log-densities in 30-digit decimal arithmetic instead of the
GEMM posterior kernel, per-component posterior moments summed over
the responsibilities instead of central-moment identities, and the full
flow-map Jacobian per quadrature block instead of its product with one
tangent direction, one engine pass per noise amplitude instead of all
amplitudes as row blocks of a single pass, adaptive quadrature of the
velocity-noise growth factor instead of its upper sum on the stage clock,
one pass per steps-grid entry of the flow-difference check instead of the
whole grid as groups of a single pass, and an out-of-place RK4 loop on the
engine's bound rates instead of the engine's in-place _rk4.
"""

from __future__ import annotations

import decimal
import itertools
import math

import numpy as np
from scipy.integrate import quad, trapezoid

from gif_lab.bounds import RegularityProfile, theta_profile
from gif_lab.experiments import _cloud_w2, _subseed
from gif_lab.flow import (FlowContext, _augmented_state, _bind_augmented_rates, _bind_rates,
                          _bind_tangent_rates, _stage_times, _table, integrate)
from gif_lab.metrics import NOISE_DOMAIN, keyed_generator, sample_source
from gif_lab.targets import posterior

# stream domains of the per-particle sampling contract
TARGET_DOMAIN, SOURCE_DOMAIN, PROJ_DOMAIN = 1, 2, 3


def central_diff(f, t: float, h: float = 1e-5) -> float:
    """First derivative of a scalar function by central differences."""
    return (f(t + h) - f(t - h)) / (2.0 * h)


def second_diff(f, t: float, h: float = 1e-4) -> float:
    """Second derivative of a scalar function by central differences."""
    return (f(t + h) - 2.0 * f(t) + f(t - h)) / (h * h)


def grad_fd(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Gradient of scalar f at x, componentwise central differences."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def jacobian_fd(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Jacobian of vector-valued f at x, columns by central differences."""
    x = np.asarray(x, dtype=float)
    d = x.size
    cols = []
    for i in range(d):
        e = np.zeros(d)
        e[i] = h
        cols.append((np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2.0 * h))
    return np.stack(cols, axis=-1)


def mixture_logpdf_quad(x: float, weights, means, noise_std: float, comp_std: float,
                        n_nodes: int = 20001, half_width: float = 12.0) -> float:
    """Log density of a*Z + b*Y at a 1d point by direct quadrature over y.

    Here the target Y is a 1d Gaussian mixture (means, comp_std, weights),
    the convolving kernel has standard deviation noise_std = a and the data
    coordinate has already been scaled so that b*Y has means b*mu and std
    b*comp_std.  Trapezoid rule on a wide uniform grid.
    """
    lo = min(means) - half_width * max(comp_std, 1e-12) - half_width * noise_std
    hi = max(means) + half_width * max(comp_std, 1e-12) + half_width * noise_std
    ys = np.linspace(lo, hi, n_nodes)
    dens = np.zeros_like(ys)
    for w, m in zip(weights, means):
        if comp_std > 0:
            py = w * np.exp(-0.5 * ((ys - m) / comp_std) ** 2) / (comp_std * math.sqrt(2 * math.pi))
        else:
            raise ValueError("comp_std must be positive")
        dens += py
    kern = np.exp(-0.5 * ((x - ys) / noise_std) ** 2) / (noise_std * math.sqrt(2 * math.pi))
    val = trapezoid(dens * kern, ys)
    return math.log(val)


def gaussian_flow_state(mean, var, sched, s: float, t: float, x0):
    """Exact probability-flow transport for a single Gaussian target.

    For target N(mean, var*I) the flow map from time s to t is the affine map
    x -> b_t*mean + (c_t/c_s)(x - b_s*mean) with c_u^2 = a_u^2 + var*b_u^2.
    """
    mean = np.asarray(mean, dtype=float)
    ps, pt = sched.eval(s), sched.eval(t)
    cs = math.sqrt(ps.a ** 2 + var * ps.b ** 2)
    ct = math.sqrt(pt.a ** 2 + var * pt.b ** 2)
    return pt.b * mean + (ct / cs) * (np.asarray(x0, dtype=float) - ps.b * mean)


def gaussian_flow_logdet(mean, var, sched, s: float, t: float, d: int) -> float:
    """Log |det| of the exact Gaussian flow map Jacobian (c_t/c_s)^d."""
    ps, pt = sched.eval(s), sched.eval(t)
    cs = math.sqrt(ps.a ** 2 + var * ps.b ** 2)
    ct = math.sqrt(pt.a ** 2 + var * pt.b ** 2)
    return d * math.log(ct / cs)


def mixture_posterior_decimal(weights, means, sigma: float, a: float, b: float, xs,
                              prec: int = 30):
    """Posterior of a mixture at schedule values a, b, in decimal arithmetic.

    Per point x, from the full distances |x - b mu_j|^2 and c^2 = a^2 +
    sigma^2 b^2, returns the responsibilities (n, k), their mean of the
    component means (n, d), the trace of their covariance of the component
    means (n,) and the marginal log density (n,), all rounded to float once
    at the end.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = prec
        dec = decimal.Decimal
        b = dec(b)
        c2 = dec(a) ** 2 + dec(sigma) ** 2 * b ** 2
        log_norm_const = dec(len(means[0])) / 2 * (2 * dec(math.pi) * c2).ln()
        mus = [[dec(v) for v in mu] for mu in means]
        log_w = [dec(w).ln() if w > 0 else None for w in weights]
        resp, mean, spread_tr, log_dens = [], [], [], []
        for x in xs:
            xd = [dec(v) for v in x]
            lg = [None if lw is None else
                  lw - sum((xi - b * mi) ** 2 for xi, mi in zip(xd, mu)) / (2 * c2)
                  for lw, mu in zip(log_w, mus)]
            top = max(v for v in lg if v is not None)
            e = [dec(0) if v is None else (v - top).exp() for v in lg]
            total = sum(e)
            r = [v / total for v in e]
            mu_bar = [sum(rj * mu[i] for rj, mu in zip(r, mus)) for i in range(len(xd))]
            resp.append([float(v) for v in r])
            mean.append([float(v) for v in mu_bar])
            spread_tr.append(float(sum(
                rj * sum((mi - ci) ** 2 for mi, ci in zip(mu, mu_bar))
                for rj, mu in zip(r, mus))))
            log_dens.append(float(top + total.ln() - log_norm_const))
    return np.array(resp), np.array(mean), np.array(spread_tr), np.array(log_dens)


def posterior_moments_einsum(target, sched, t: float, xb: np.ndarray):
    """Posterior moments (M1, M2, M2c, M3) of a batch, per mixture component.

    Builds every shrunk component mean m_j = (a^2 mu_j + sigma^2 b x) / c^2
    as an (n, k, d) array and sums the per-component Gaussian moments
    E|X|^2 = |m_j|^2 + d s2 and E[|X|^2 X] = m_j (|m_j|^2 + (d + 2) s2)
    over the responsibilities, instead of the library's central-moment
    identities on the posterior kernel's mu_bar and spread.
    """
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
    return M1, M2, M2c, M3


def noisy_rk4(field, x0, t_end: float, steps: int, eps: float, seed: int,
              domain: int) -> np.ndarray:
    """Final state of RK4 on field(t, x) plus a held Bernoulli field error.

    field is evaluated at the physical stage times t, t + h/2, t + h/2,
    t + h of each step; every evaluation adds the same eps times the signs
    of keyed_generator(seed, domain, 0), one per particle and coordinate.
    """
    times = np.linspace(0.0, t_end, steps + 1)
    gen = keyed_generator(seed, domain, 0)
    push = eps * np.where(gen.random(size=np.shape(x0)) < 0.5, -1.0, 1.0)

    def rate(t, x):
        return field(t, x) + push

    x = np.array(x0, dtype=float)
    for t0, t1 in zip(times[:-1], times[1:]):
        h = t1 - t0
        mid = t0 + 0.5 * h
        k1 = rate(t0, x)
        k2 = rate(mid, x + 0.5 * h * k1)
        k3 = rate(mid, x + 0.5 * h * k2)
        k4 = rate(t1, x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def table_rk4(rate, state: np.ndarray, clock: np.ndarray, steps) -> np.ndarray:
    """State after the RK4 steps in the range steps, out of place.

    rate(k, state) is the time derivative at stage k of _stage_times'
    clock; each step is s + h/6 (k1 + 2 k2 + 2 k3 + k4), the IEEE
    operations the engine's in-place _step rounds as.
    """
    for i in steps:
        k = 2 * i
        h = clock[k + 2] - clock[k]
        k1 = rate(k, state)
        k2 = rate(k + 1, state + 0.5 * h * k1)
        k3 = rate(k + 1, state + 0.5 * h * k2)
        k4 = rate(k + 2, state + h * k3)
        state = state + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return state


def w2_bruteforce(xs: np.ndarray, ys: np.ndarray) -> float:
    """Exact W2 between equal-size empirical clouds by trying all matchings."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    n = xs.shape[0]
    if n != ys.shape[0]:
        raise ValueError("clouds must have equal size")
    best = math.inf
    for perm in itertools.permutations(range(n)):
        cost = float(np.sum((xs - ys[list(perm)]) ** 2))
        best = min(best, cost)
    return math.sqrt(best / n)


def simpson(f, lo: float, hi: float, n_panels: int = 2048) -> float:
    """Composite Simpson quadrature with n_panels panels."""
    xs = np.linspace(lo, hi, 2 * n_panels + 1)
    ys = np.array([f(x) for x in xs])
    h = (hi - lo) / (2 * n_panels)
    w = np.ones_like(ys)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(h / 3.0 * np.sum(w * ys))


def polar_normals(gen, d: int) -> np.ndarray:
    """d standard normals from gen.random() via the scalar Marsaglia polar loop."""
    out = np.empty(d)
    i = 0
    while i < d:
        u = 2.0 * gen.random() - 1.0
        v = 2.0 * gen.random() - 1.0
        s = u * u + v * v
        if s >= 1.0 or s == 0.0:
            continue
        f = math.sqrt(-2.0 * math.log(s) / s)
        out[i] = u * f
        i += 1
        if i < d:
            out[i] = v * f
            i += 1
    return out


def stream_draw(seed: int, domain: int, n: int, d: int, lead: int):
    """Per particle i < n: ``lead`` uniforms, then d polar normals, of stream i."""
    uniforms, normals = np.empty((n, lead)), np.empty((n, d))
    for i in range(n):
        gen = keyed_generator(seed, domain, i)
        uniforms[i] = [gen.random() for _ in range(lead)]
        normals[i] = polar_normals(gen, d)
    return uniforms, normals


def gaussian_cloud(dim: int, n: int, seed: int, scale: float = 1.0) -> np.ndarray:
    """Points of ``sample_gaussian``, one generator per particle."""
    return np.array([scale * polar_normals(keyed_generator(seed, SOURCE_DOMAIN, i), dim)
                     for i in range(n)])


def target_cloud(target, n: int, seed: int) -> np.ndarray:
    """Points of ``sample_target``, one generator per particle."""
    cumw = np.cumsum(target.weights)
    pts = np.empty((n, target.dim))
    for i in range(n):
        gen = keyed_generator(seed, TARGET_DOMAIN, i)
        comp = min(int(np.searchsorted(cumw, gen.random(), side="right")),
                   target.n_components - 1)
        pts[i] = target.means[comp] + target.sigma * polar_normals(gen, target.dim)
    return pts


def sliced_w2(pa: np.ndarray, pb: np.ndarray, n_projections: int, seed: int) -> float:
    """Sliced W2 of equal-size clouds, one generator per projection."""
    total = 0.0
    for j in range(n_projections):
        u = polar_normals(keyed_generator(seed, PROJ_DOMAIN, j), pa.shape[1])
        u /= max(float(np.linalg.norm(u)), 1e-300)
        gap = np.sort(pa @ u) - np.sort(pb @ u)
        total += float(np.mean(gap * gap))
    return math.sqrt(total / n_projections)


def ag_residual_per_entry(ctx, x0: np.ndarray, delta: np.ndarray, steps: int) -> tuple:
    """Flow-difference residual of one steps-grid entry in a pass of its own.

    The same Simpson nodes, path Y and unit tangent blocks as
    experiments._ag_residual, for one step count, without a group axis:
    between two nodes the path and the blocks that have joined advance.
    Returns the residual, the number of rate evaluations and the number of
    rows they advanced.
    """
    panels = max(4, steps // 8)
    spacing, rem = divmod(steps, 2 * panels)
    if rem != 0 or spacing < 1:
        raise ValueError(
            f"steps={steps} is not a multiple of the quadrature node spacing")
    t_end = ctx.t_max
    n, d = x0.shape
    n_nodes = 2 * panels + 1
    clock = _stage_times(0.0, t_end, steps)
    tab, target = _table(ctx, clock), ctx.target
    dnorm = math.hypot(*delta)
    work = [0, 0]

    def rate(k, state):
        work[0] += 1
        work[1] += state.shape[-1]
        out = table_rate(k, state)
        out[0, :, :n] += delta[:, None]
        return out

    # particles-last (2, d, rows): block 0 holds the path, block 1 the
    # tangents; rows [0, n) are Y's, rows [(j + 1) n, (j + 2) n) block j's
    state = np.empty((2, d, n_nodes * n))
    state[1] = (-delta / dnorm if dnorm > 0.0 else np.zeros(d))[:, None]
    state[0, :, :n] = x0.T
    for j in range(n_nodes - 1):
        m = (j + 2) * n
        state[0, :, m - n:m] = state[0, :, :n]
        table_rate = _bind_tangent_rates(target, tab, (2, d, m))
        state[..., :m] = table_rk4(rate, state[..., :m], clock,
                                   range(j * spacing, (j + 1) * spacing))
    xs, ws = np.ascontiguousarray(state.swapaxes(-1, -2))
    lhs = xs[n:2 * n] - xs[:n]
    integrand = (dnorm * ws[n:]).reshape(n_nodes - 1, n * d)
    weights = np.ones(n_nodes)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    weights *= t_end / (n_nodes - 1) / 3.0
    rhs = (weights[:-1] @ integrand).reshape(n, d) - weights[-1] * delta
    gap = np.linalg.norm(lhs - rhs, axis=1)
    if not (np.all(np.isfinite(rhs)) and np.all(np.isfinite(gap))):
        raise FloatingPointError(f"flow-difference residual is not finite at steps={steps}")
    return float(np.max(gap)), work[0], work[1]


def ag_residual_jacobian(ctx, x0: np.ndarray, delta: np.ndarray, steps: int) -> float:
    """Flow-difference residual with the full flow-map Jacobian per block.

    Same Simpson nodes and perturbed path Y as experiments._ag_residual,
    but block j carries the (d, d) Jacobian J_{s_j->1}, advanced by
    dJ = grad v . J from the identity, and the integrand is J (-delta)
    instead of |delta| times the transported unit tangent.
    """
    panels = max(4, steps // 8)
    spacing, rem = divmod(steps, 2 * panels)
    if rem != 0 or spacing < 1:
        raise ValueError(
            f"steps={steps} is not a multiple of the quadrature node spacing")
    t_end = ctx.t_max
    n, d = x0.shape
    n_nodes = 2 * panels + 1
    clock = _stage_times(0.0, t_end, steps)
    tab, target = _table(ctx, clock), ctx.target

    def rate(k, state):
        out = table_rate(k, state)
        out[:d, :n] += delta[:, None]
        return out

    # the (d + d^2, rows) pack of the path and the Jacobians' rows: rows
    # [0, n) are Y's, rows [(j + 1) n, (j + 2) n) block j's
    state = _augmented_state(np.tile(x0, (n_nodes, 1)))
    for j in range(n_nodes - 1):
        m = (j + 2) * n
        state[:d, m - n:m] = state[:d, :n]
        table_rate = _bind_augmented_rates(target, tab, (len(state), m))
        state[:, :m] = table_rk4(rate, state[:, :m], clock,
                                 range(j * spacing, (j + 1) * spacing))
    xs = np.ascontiguousarray(state[:d].T)
    js = np.ascontiguousarray(state[d:].T).reshape(-1, d, d)
    lhs = xs[n:2 * n] - xs[:n]

    # the last node's Jacobian is the identity, so its integrand is -delta
    integrand = (js[n:] @ -delta).reshape(n_nodes - 1, n * d)
    weights = np.ones(n_nodes)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    weights *= t_end / (n_nodes - 1) / 3.0
    rhs = (weights[:-1] @ integrand).reshape(n, d) - weights[-1] * delta
    return float(np.max(np.linalg.norm(lhs - rhs, axis=1)))


def velocity_perturbation_per_eps(cfg) -> np.ndarray:
    """Rows of experiments.run_velocity_perturbation, one pass per amplitude.

    The clean cloud comes from integrate, and each eps gets its own
    table_rk4 pass that adds eps times the sign field, drawn afresh for the
    pass from the keyed noise stream of index 0, at every evaluation.
    bound_rhs is delta_v G^2 with G the integral over [0, T] of
    exp(integral of theta over [s, T]), taken by scipy's adaptive quad
    rather than as an upper sum on the stage clock, so the sweep's
    bound_rhs is at least this one.
    """
    target, steps = cfg.target, cfg.steps
    ctx = FlowContext(sched=cfg.sched, target=target, early_stop=cfg.early_stop)
    src = sample_source(target, cfg.sched, cfg.n, _subseed(cfg.seed, 0)).points
    clean = integrate(ctx, src, 0.0, ctx.t_max, steps, record="final").final_state
    prof = cfg.profile if cfg.profile is not None else RegularityProfile.from_target(target)
    envelope = theta_profile(prof, cfg.sched, cfg.bound_case)
    t_end = ctx.t_max
    growth = quad(lambda s: math.exp(envelope.integral(s, t_end)), 0.0, t_end,
                  epsabs=0.0, epsrel=1e-12, limit=200)[0]
    clock = _stage_times(0.0, t_end, steps)
    cloud_rate = _bind_rates(target, _table(ctx, clock), src.T.shape)  # particles-last (d, n)
    rows = []
    for eps in cfg.eps_grid:
        gen = keyed_generator(_subseed(cfg.seed, 1000), NOISE_DOMAIN, 0)
        push = eps * np.where(gen.random(size=src.shape) < 0.5, -1.0, 1.0).T

        def rate(k, x):
            return cloud_rate(k, x) + push

        pert = np.ascontiguousarray(table_rk4(rate, src.T, clock, range(steps)).T)
        delta_v = target.dim * eps * eps
        rows.append((eps, delta_v, _cloud_w2(pert, clean) ** 2, delta_v * growth ** 2))
    return np.array(rows)
