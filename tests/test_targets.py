"""Gaussian-mixture targets: posterior algebra against quadrature and FD oracles."""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest
from scipy import stats
from scipy.special import logsumexp

from gif_lab.experiments import paper_gmm8
from gif_lab.errors import (
    InvalidParamError,
    NonFiniteError,
    OutOfRangeError,
    SizeMismatchError,
    TooLargeError,
)
from gif_lab.flow import FlowContext, integrate
from gif_lab.schedules import FollmerSchedule, LinearSchedule, TrigSchedule
from gif_lab.targets import (
    Target,
    _logit_terms,
    _resp,
    _spread_apply,
    _Workspace,
    cond_cov,
    denoiser,
    gaussian_target,
    marginal_log_density,
    min_enclosing_ball,
    mixture_target,
    point_cloud_target,
    posterior,
    posterior_moments,
    posterior_stats,
    score,
)

from oracles import (grad_fd, jacobian_fd, mixture_logpdf_quad, mixture_posterior_decimal,
                     posterior_moments_einsum)


@pytest.fixture
def gmm2():
    return mixture_target(weights=[0.3, 0.7], means=[[-2.0, 0.0], [2.0, 1.0]], sigma=0.5)


@pytest.fixture
def gauss():
    return gaussian_target(mean=[0.3, -0.2], var=0.64)


class TestConstruction:
    def test_gaussian_is_single_component(self, gauss):
        assert gauss.n_components == 1
        assert gauss.dim == 2
        assert gauss.sigma == pytest.approx(0.8)
        assert gauss.kappa == pytest.approx(1.0 / 0.64)
        assert gauss.beta == pytest.approx(1.0 / 0.64)

    def test_mixture_has_no_global_curvature_constants(self, gmm2):
        assert gmm2.kappa is None
        assert gmm2.beta is None

    def test_weights_renormalized(self):
        t = mixture_target(weights=[0.5 + 4e-9, 0.5], means=[[0.0], [1.0]], sigma=1.0)
        assert float(t.weights.sum()) == 1.0

    def test_weights_must_be_close_to_simplex(self):
        with pytest.raises(InvalidParamError):
            mixture_target(weights=[0.2, 0.2], means=[[0.0], [1.0]], sigma=1.0)

    def test_negative_weight(self):
        with pytest.raises(InvalidParamError):
            mixture_target(weights=[-0.1, 1.1], means=[[0.0], [1.0]], sigma=1.0)

    def test_sigma_positive(self):
        with pytest.raises(InvalidParamError):
            mixture_target(weights=[1.0], means=[[0.0]], sigma=0.0)

    def test_weight_count_matches_means(self):
        with pytest.raises(SizeMismatchError):
            mixture_target(weights=[0.5, 0.5], means=[[0.0]], sigma=1.0)

    def test_point_cloud_uniform_weights(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        t = point_cloud_target(pts, sigma=0.1)
        assert t.weights == pytest.approx([1 / 3] * 3)

    def test_second_moment(self, gmm2):
        expect = 0.3 * 4.0 + 0.7 * 5.0 + 2 * 0.25
        assert gmm2.second_moment == pytest.approx(expect)


class TestEnclosingBallAndDiameter:
    def test_two_points(self):
        c, r = min_enclosing_ball(np.array([[0.0, 0.0], [2.0, 0.0]]))
        assert c == pytest.approx([1.0, 0.0])
        assert r == pytest.approx(1.0)

    def test_obtuse_triangle_uses_diametral_ball(self):
        # farthest pair (0,0)-(4,0) covers the nearby third point
        pts = np.array([[0.0, 0.0], [4.0, 0.0], [2.0, 0.1]])
        c, r = min_enclosing_ball(pts)
        assert r == pytest.approx(2.0, abs=1e-9)
        assert c == pytest.approx([2.0, 0.0], abs=1e-9)

    def test_equilateral_triangle_circumradius(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
        _, r = min_enclosing_ball(pts)
        assert r == pytest.approx(1.0 / math.sqrt(3), abs=1e-9)

    def test_collinear_points(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [3.0, 3.0], [2.0, 2.0]])
        c, r = min_enclosing_ball(pts)
        assert r == pytest.approx(1.5 * math.sqrt(2), abs=1e-9)
        assert c == pytest.approx([1.5, 1.5], abs=1e-9)

    def test_random_cloud_against_bruteforce(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(40, 2))
        c, r = min_enclosing_ball(pts)
        dists = np.linalg.norm(pts - c, axis=1)
        assert np.max(dists) <= r + 1e-9
        assert r <= _brute_ball_radius(pts) + 1e-9

    def test_3d_tetrahedron(self):
        pts = np.array([[1.0, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]])
        c, r = min_enclosing_ball(pts)
        assert c == pytest.approx([0, 0, 0], abs=1e-9)
        assert r == pytest.approx(math.sqrt(3), abs=1e-9)

    def test_high_dim_upper_bound(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(30, 6))
        c, r = min_enclosing_ball(pts)
        assert np.max(np.linalg.norm(pts - c, axis=1)) <= r + 1e-9

    def test_size_cap(self):
        pts = np.zeros((10_001, 2))
        with pytest.raises(TooLargeError):
            min_enclosing_ball(pts)

    def test_cap_sized_cloud_leaves_the_recursion_limit_alone(self, monkeypatch):
        # the search nests at most d + 1 calls deep, so even a cloud at the
        # 10 000-point cap needs no deeper interpreter stack
        def refuse(limit):
            raise AssertionError("changed the process-wide recursion limit")

        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        pts = np.random.default_rng(3).normal(size=(10_000, 2))
        c, r = min_enclosing_ball(pts)
        assert np.max(np.linalg.norm(pts - c, axis=1)) <= r

    def test_size_cap_comes_before_deduplication(self, monkeypatch):
        def unique(*args, **kwargs):
            raise AssertionError("deduplicated a cloud over the cap")

        monkeypatch.setattr(np, "unique", unique)
        with pytest.raises(TooLargeError):
            min_enclosing_ball(np.zeros((20_000, 2)))

    @pytest.mark.parametrize("shape", [(5,), (0, 2), (3, 0)], ids=["1d", "empty", "zero-dim"])
    def test_shape_is_checked(self, shape):
        with pytest.raises(SizeMismatchError):
            min_enclosing_ball(np.zeros(shape))

    def test_non_finite_point(self):
        with pytest.raises(NonFiniteError):
            min_enclosing_ball(np.array([[0.0, 0.0], [np.nan, 1.0], [2.0, 0.0]]))

    def test_target_radius_and_diameter(self, gmm2):
        assert gmm2.radius == pytest.approx(math.sqrt(17) / 2, abs=1e-9)
        assert gmm2.diam_over_sqrt2 == pytest.approx(math.sqrt(17.0 / 2.0), abs=1e-12)


def _brute_ball_radius(pts: np.ndarray) -> float:
    """Min enclosing ball radius in 2d by trying all pairs and triples."""
    best = math.inf
    n = len(pts)
    for i in range(n):
        for j in range(i + 1, n):
            c = 0.5 * (pts[i] + pts[j])
            r = np.linalg.norm(pts[i] - c)
            if np.max(np.linalg.norm(pts - c, axis=1)) <= r + 1e-12:
                best = min(best, r)
            for k in range(j + 1, n):
                A = 2.0 * (pts[[j, k]] - pts[i])
                rhs = np.sum(pts[[j, k]] ** 2, axis=1) - np.sum(pts[i] ** 2)
                try:
                    c = np.linalg.solve(A, rhs)
                except np.linalg.LinAlgError:
                    continue
                r = np.linalg.norm(pts[i] - c)
                if np.max(np.linalg.norm(pts - c, axis=1)) <= r + 1e-12:
                    best = min(best, r)
    return best


class TestPosterior:
    def test_at_time_zero_prior_is_returned(self, gmm2):
        sched = LinearSchedule()
        post = posterior(gmm2, sched, 0.0, np.array([0.5, 0.5]))
        assert post.resp == pytest.approx(gmm2.weights)
        assert post.comp_means == pytest.approx(gmm2.means)
        assert post.comp_var == pytest.approx(gmm2.sigma ** 2)

    def test_at_time_one_components_collapse_to_x(self, gmm2):
        sched = LinearSchedule()
        x = np.array([1.7, -0.3])
        post = posterior(gmm2, sched, 1.0, x)
        for j in range(2):
            assert post.comp_means[j] == pytest.approx(x)
        assert post.comp_var == pytest.approx(0.0, abs=1e-30)

    def test_responsibilities_against_direct_formula(self, gmm2):
        sched = FollmerSchedule()
        t, x = 0.55, np.array([1.0, 0.4])
        p = sched.eval(t)
        c2 = p.a ** 2 + gmm2.sigma ** 2 * p.b ** 2
        dens = [
            w * stats.multivariate_normal.pdf(x, mean=p.b * mu, cov=c2 * np.eye(2))
            for w, mu in zip(gmm2.weights, gmm2.means)
        ]
        expect = np.array(dens) / np.sum(dens)
        post = posterior(gmm2, sched, t, x)
        assert post.resp == pytest.approx(expect, abs=1e-13)

    def test_batch_matches_single(self, gmm2):
        sched = TrigSchedule()
        xs = np.array([[0.0, 0.0], [2.0, 1.0], [-3.0, 0.5]])
        batch = posterior(gmm2, sched, 0.4, xs)
        for i, x in enumerate(xs):
            one = posterior(gmm2, sched, 0.4, x)
            assert batch.resp[i] == pytest.approx(one.resp)
            assert batch.comp_means[i] == pytest.approx(one.comp_means)

    def test_extreme_time_no_overflow(self, gmm2):
        # far data at nearly-degenerate noise: log-sum-exp must not overflow
        sched = LinearSchedule()
        post = posterior(gmm2, sched, 0.999999, np.array([200.0, -50.0]))
        assert np.all(np.isfinite(post.resp))
        assert post.resp.sum() == pytest.approx(1.0)

    def test_time_out_of_range(self, gmm2):
        with pytest.raises(OutOfRangeError):
            posterior(gmm2, LinearSchedule(), 1.2, np.zeros(2))

    def test_non_finite_x(self, gmm2):
        with pytest.raises(NonFiniteError):
            posterior(gmm2, LinearSchedule(), 0.5, np.array([np.nan, 0.0]))

    def test_dim_mismatch(self, gmm2):
        with pytest.raises(SizeMismatchError):
            posterior(gmm2, LinearSchedule(), 0.5, np.zeros(3))


class TestMarginalLogDensity:
    def test_gaussian_closed_form(self, gauss):
        sched = LinearSchedule()
        t, x = 0.6, np.array([0.2, 0.9])
        p = sched.eval(t)
        c2 = p.a ** 2 + gauss.sigma ** 2 * p.b ** 2
        expect = stats.multivariate_normal.logpdf(x, mean=p.b * gauss.means[0],
                                                  cov=c2 * np.eye(2))
        got = marginal_log_density(gauss, sched, t, x)
        assert got == pytest.approx(expect, abs=1e-12)

    def test_mixture_against_quadrature_1d(self):
        target = mixture_target(weights=[0.4, 0.6], means=[[-1.0], [1.5]], sigma=0.3)
        sched = TrigSchedule()
        t = 0.7
        p = sched.eval(t)
        for x in [-1.2, 0.0, 1.4, 2.5]:
            expect = mixture_logpdf_quad(
                x,
                weights=target.weights,
                means=[p.b * m[0] for m in target.means],
                noise_std=p.a,
                comp_std=p.b * target.sigma,
            )
            got = marginal_log_density(target, sched, t, np.array([x]))
            assert got == pytest.approx(expect, abs=1e-8)

    def test_source_density_at_time_zero(self, gmm2):
        # linear schedule: the source is a standard normal regardless of target
        sched = LinearSchedule()
        x = np.array([0.7, -1.1])
        expect = stats.multivariate_normal.logpdf(x, mean=np.zeros(2), cov=np.eye(2))
        assert marginal_log_density(gmm2, sched, 0.0, x) == pytest.approx(expect, abs=1e-12)

    def test_batch_shape(self, gmm2):
        xs = np.zeros((5, 2))
        out = marginal_log_density(gmm2, LinearSchedule(), 0.3, xs)
        assert out.shape == (5,)


class TestScoreDenoiserCondCov:
    def test_score_is_gradient_of_log_density(self, gmm2):
        sched = FollmerSchedule()
        for t in [0.2, 0.5, 0.9]:
            for x in [np.array([0.4, -0.3]), np.array([1.9, 1.1])]:
                expect = grad_fd(lambda y: marginal_log_density(gmm2, sched, t, y), x)
                got = score(gmm2, sched, t, x)
                assert got == pytest.approx(expect, abs=1e-6)

    def test_tweedie_identity(self, gmm2):
        # E[X1 | X_t] = (x + a^2 * score) / b for b > 0
        sched = LinearSchedule()
        t, x = 0.45, np.array([0.8, 0.1])
        p = sched.eval(t)
        lhs = denoiser(gmm2, sched, t, x)
        rhs = (x + p.a ** 2 * score(gmm2, sched, t, x)) / p.b
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_denoiser_at_endpoints(self, gmm2):
        sched = LinearSchedule()
        x = np.array([5.0, 5.0])
        d0 = denoiser(gmm2, sched, 0.0, x)
        mean = gmm2.weights @ gmm2.means
        assert d0 == pytest.approx(mean, abs=1e-12)
        d1 = denoiser(gmm2, sched, 1.0, x)
        assert d1 == pytest.approx(x, abs=1e-12)

    def test_gaussian_posterior_mean_closed_form(self, gauss):
        sched = TrigSchedule()
        t, x = 0.35, np.array([-0.6, 0.4])
        p = sched.eval(t)
        c2 = p.a ** 2 + gauss.sigma ** 2 * p.b ** 2
        expect = (p.a ** 2 * gauss.means[0] + gauss.sigma ** 2 * p.b * x) / c2
        assert denoiser(gauss, sched, t, x) == pytest.approx(expect, abs=1e-13)

    def test_cond_cov_matches_denoiser_jacobian(self, gmm2):
        # d/dx E[X1|X_t=x] = (b/a^2) Cov(X1|X_t=x)
        sched = LinearSchedule()
        t, x = 0.5, np.array([0.3, -0.2])
        p = sched.eval(t)
        J = jacobian_fd(lambda y: denoiser(gmm2, sched, t, y), x, h=1e-6)
        C = cond_cov(gmm2, sched, t, x)
        assert C == pytest.approx(J * p.a ** 2 / p.b, abs=1e-6)
        assert C == pytest.approx(C.T, abs=1e-14)

    def test_gaussian_cond_cov_is_isotropic(self, gauss):
        sched = LinearSchedule()
        t = 0.7
        p = sched.eval(t)
        c2 = p.a ** 2 + gauss.sigma ** 2 * p.b ** 2
        s2 = gauss.sigma ** 2 * p.a ** 2 / c2
        C = cond_cov(gauss, sched, t, np.array([1.0, 2.0]))
        assert C == pytest.approx(s2 * np.eye(2), abs=1e-14)


class TestPosteriorStatsAndMoments:
    def test_stats_consistency(self, gmm2):
        sched = LinearSchedule()
        t, x = 0.6, np.array([[0.1, 0.2], [1.0, -1.0]])
        resp, mu_bar, mu_spread = posterior_stats(gmm2, sched, t, x)
        assert mu_bar == pytest.approx(resp @ gmm2.means)
        for i in range(2):
            cm = gmm2.means - mu_bar[i]
            expect = (resp[i, :, None, None] * cm[:, :, None] * cm[:, None, :]).sum(0)
            assert mu_spread[i] == pytest.approx(expect, abs=1e-13)

    def test_moments_against_sampling(self, gmm2):
        # posterior is an explicit 2-component GMM: sample it and compare moments
        sched = LinearSchedule()
        t, x = 0.5, np.array([0.5, 0.3])
        post = posterior(gmm2, sched, t, x)
        rng = np.random.default_rng(11)
        n = 400_000
        comps = rng.choice(2, size=n, p=post.resp)
        ys = post.comp_means[comps] + math.sqrt(post.comp_var) * rng.normal(size=(n, 2))
        M1, M2, M2c, M3 = posterior_moments(gmm2, sched, t, x)
        assert M1 == pytest.approx(ys.mean(axis=0), abs=5e-3)
        assert M2 == pytest.approx(np.mean(np.sum(ys ** 2, axis=1)), rel=5e-3)
        assert M2c == pytest.approx(np.cov(ys.T, bias=True), abs=5e-3)
        m3_mc = (ys * np.sum(ys ** 2, axis=1, keepdims=True)).mean(axis=0)
        assert M3 == pytest.approx(m3_mc, rel=2e-2, abs=2e-2)

    def test_moment_identities_single_component(self, gauss):
        sched = TrigSchedule()
        t, x = 0.3, np.array([0.2, 0.2])
        post = posterior(gauss, sched, t, x)
        M1, M2, M2c, M3 = posterior_moments(gauss, sched, t, x)
        m = post.comp_means[0]
        s2 = post.comp_var
        assert M1 == pytest.approx(m)
        assert M2 == pytest.approx(float(m @ m) + 2 * s2)
        assert M2c == pytest.approx(s2 * np.eye(2), abs=1e-14)
        assert M3 == pytest.approx(m * (float(m @ m) + 4 * s2))


def _kernel_cases():
    """(name, target, query points): paper-gmm8 around the origin and shifted
    far from it, a k = 1024 point cloud in 3d and a single Gaussian."""
    rng = np.random.default_rng(606)
    g8 = paper_gmm8()
    ring = 50.0 * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 24))
    pts8 = np.concatenate([
        12.0 * rng.normal(size=(120, 2)),                   # bulk
        np.column_stack([ring.real, ring.imag]),            # far out, |x| = 50
        g8.means + 0.01 * rng.normal(size=(8, 2)),          # on a mode
        0.5 * (g8.means + np.roll(g8.means, 1, axis=0)),    # between two modes
    ])
    shift = np.array([300.0, -200.0])
    cloud = 3.0 * rng.normal(size=(1024, 3))
    pts_cloud = np.concatenate([3.0 * rng.normal(size=(4, 3)), cloud[:2] + 1e-3,
                                0.5 * (cloud[2:4] + cloud[4:6])])
    return [
        ("paper-gmm8", g8, pts8),
        ("paper-gmm8-shifted", mixture_target(g8.weights, g8.means + shift, g8.sigma),
         pts8 + shift),
        ("cloud-1024", point_cloud_target(cloud, 0.05), pts_cloud),
        ("gaussian", gaussian_target([3.0, -4.0], 0.01), 20.0 * rng.normal(size=(20, 2))),
    ]


@pytest.mark.parametrize("case", _kernel_cases(), ids=lambda c: c[0])
@pytest.mark.parametrize("sched", [LinearSchedule(), FollmerSchedule(), TrigSchedule()],
                         ids=lambda s: s.describe())
@pytest.mark.parametrize("t", [0.0, 0.3, 0.7, 0.99, 1.0])
def test_moments_match_component_oracle(case, sched, t):
    """posterior_moments against per-component sums, and its M1 and M2c are
    the denoiser and cond_cov values bit for bit."""
    _, target, x = case
    got = posterior_moments(target, sched, t, x)
    for value, ref in zip(got, posterior_moments_einsum(target, sched, t, x)):
        assert np.all(np.abs(value - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))
    assert np.array_equal(got[0], denoiser(target, sched, t, x))
    assert np.array_equal(got[2], cond_cov(target, sched, t, x))


@pytest.mark.parametrize("case", _kernel_cases(), ids=lambda c: c[0])
@pytest.mark.parametrize("t", [0.0, 0.3, 0.99, 1.0])
def test_spread_apply_is_spread_times_vector(case, t):
    """_spread_apply against the (n, d, d) spread of posterior_stats times w."""
    _, target, x = case
    resp, mu_bar, spread = posterior_stats(target, TrigSchedule(), t, x)
    w = np.random.default_rng(607).normal(size=x.shape)
    # the kernel reads (k, n), (d, n)
    got = _spread_apply(target, resp.T, mu_bar.T, w.T, _Workspace(target, w.T.shape)).T
    ref = np.einsum("nij,nj->ni", spread, w)
    # 1-norms: squaring the tiny spreads of one-hot rows would underflow
    scale = np.abs(spread).sum(axis=(1, 2)) * np.abs(w).sum(axis=1)
    assert np.all(np.abs(got - ref) <= 1e-12 * scale[:, None])


class TestKernelAgainstDecimalOracle:
    """Posterior quantities against full-distance log-densities in 30-digit
    decimal arithmetic.

    Where the posterior sits on one component the check is 1e-12 relative
    (to the mixture's radius R about its mean m0 for mu_bar, to 1 for the
    responsibilities).  Near a boundary between components mu_bar is
    ill-conditioned in the logits: any double-precision evaluation rounds
    them by about eps * L, with L = (b / c^2) (|x - b m0| + b R) R their
    scale, and that rounding moves a responsibility by at most
    2 eps L r (1 - r) and mu_bar by at most 2 eps L sqrt(tr spread), so the
    bound adds those terms.
    """

    @pytest.mark.parametrize("case", _kernel_cases(), ids=lambda c: c[0])
    @pytest.mark.parametrize("t", [0.0, 0.5, 0.999, 1.0])
    def test_posterior_quantities(self, case, t):
        _, target, x = case
        sched = LinearSchedule()
        p = sched.eval(t)
        resp_o, mu_o, spread_tr, logdens_o = mixture_posterior_decimal(
            target.weights, target.means, target.sigma, p.a, p.b, x)
        eps = np.finfo(float).eps
        c2 = p.a ** 2 + target.sigma ** 2 * p.b ** 2
        m0 = target.weights @ target.means
        radius = max(float(np.max(np.linalg.norm(target.means - m0, axis=1))), 1.0)
        scale = p.b / c2 * (np.linalg.norm(x - p.b * m0, axis=1) + p.b * radius) * radius
        tol_resp = 1e-12 + 2.0 * eps * scale[:, None] * resp_o * (1.0 - resp_o)
        tol_mu = 1e-12 * radius + 2.0 * eps * scale * np.sqrt(spread_tr)

        resp, mu_bar, _ = posterior_stats(target, sched, t, x)
        assert np.all(np.abs(resp - resp_o) <= tol_resp)
        assert np.all(np.linalg.norm(mu_bar - mu_o, axis=1) <= tol_mu)
        assert np.array_equal(posterior(target, sched, t, x).resp, resp)

        shrink, pull = p.a ** 2 / c2, target.sigma ** 2 * p.b / c2
        den_o = shrink * mu_o + pull * x
        err = np.linalg.norm(denoiser(target, sched, t, x) - den_o, axis=1)
        assert np.all(err <= shrink * tol_mu + 1e-12 * np.linalg.norm(den_o, axis=1))

        logdens = marginal_log_density(target, sched, t, x)
        assert np.all(np.abs(logdens - logdens_o) <= 1e-12 * np.maximum(1.0, np.abs(logdens_o)))


def _far_tail_case(band):
    """A 2d mixture and points whose shifted logits fall inside `band`.

    Three heavy components near the origin stay live (shifted logits 0,
    -0.7 and -2.5 at x = 0); five light ones sit where, at t = 0.5 of the
    linear schedule, their shifted logits are the five values of `band`.
    The points are x = 0 plus 0.002-sized jitter, which moves the far
    logits by at most 0.2 in the two narrow bands and 0.7 below -2000; the
    test checks that each stays within 1 of its band.
    """
    sched = LinearSchedule()
    sigma, t = 0.1, 0.5
    p = sched.eval(t)
    c2 = p.a ** 2 + sigma ** 2 * p.b ** 2
    weights = np.array([0.3, 0.3, 0.3, 0.02, 0.02, 0.02, 0.02, 0.02])
    shifted = np.concatenate([[0.0, -0.7, -2.5], band])
    radius = np.sqrt(2.0 * c2 * (np.log(weights / weights[0]) - shifted)) / p.b
    angles = np.array([0.0, 0.5, 2.0, 0.3, 1.6, 2.9, 4.2, 5.5])
    means = radius[:, None] * np.column_stack([np.cos(angles), np.sin(angles)])
    x = 0.002 * np.random.default_rng(608).uniform(-1.0, 1.0, size=(16, 2))
    return mixture_target(weights, means, sigma), sched, t, x


def _logsumexp_oracle(target, sched, t, x):
    """Row-major (n, k) full-distance logits minus their logsumexp."""
    p = sched.eval(t)
    c2 = p.a ** 2 + target.sigma ** 2 * p.b ** 2
    with np.errstate(divide="ignore"):
        lg = np.log(target.weights) - (
            (x[:, None, :] - p.b * target.means[None, :, :]) ** 2).sum(axis=2) / (2.0 * c2)
    return lg - logsumexp(lg, axis=1, keepdims=True)


def _no_subnormal(a):
    a = np.abs(np.asarray(a))
    return bool(np.all((a == 0.0) | (a >= np.finfo(float).tiny)))


class TestKernelFarTail:
    """The kernel's masked exp against a logsumexp oracle where numpy's exp
    is slow: shifted logits in -708..-700, in the subnormal band
    -745..-708, and below -2000."""

    BANDS = {"exp-slow": [-701.5, -703.0, -704.5, -706.0, -707.0],
             "subnormal": [-710.0, -720.0, -730.0, -740.0, -744.0],
             "below-2000": [-2100.0, -2500.0, -3000.0, -5000.0, -1.0e4]}

    @pytest.mark.parametrize("band", BANDS.values(), ids=BANDS.keys())
    def test_matches_oracle_with_exact_zeros(self, band):
        target, sched, t, x = _far_tail_case(band)
        p = sched.eval(t)
        c2 = p.a ** 2 + target.sigma ** 2 * p.b ** 2
        log_resp_o = _logsumexp_oracle(target, sched, t, x)
        shifted_o = log_resp_o - log_resp_o.max(axis=1, keepdims=True)
        lo, hi = min(band), max(band)
        assert np.all((shifted_o[:, 3:] > lo - 1.0) & (shifted_o[:, 3:] < hi + 1.0))
        resp_o = np.exp(log_resp_o)
        mu_o = resp_o @ target.means
        centred_o = target.means[None, :, :] - mu_o[:, None, :]
        spread_o = np.einsum("nk,nki,nkj->nij", resp_o, centred_o, centred_o)

        kernel = _resp(target, _logit_terms(target, p.b, c2), x.T,  # reads (d, n)
                       _Workspace(target, x.T.shape))
        resp, mu_bar, spread = posterior_stats(target, sched, t, x)
        assert kernel.shape == (target.n_components, x.shape[0])
        assert np.array_equal(resp, kernel.T)
        assert np.all(np.abs(resp - resp_o) <= 1e-15)
        assert np.all(resp[:, 3:] == 0.0)
        assert np.all(resp[:, :3] > 0.0)
        assert np.all(np.abs(mu_bar - mu_o) <= 1e-15 * np.abs(target.means).max())
        assert np.all(np.abs(spread - spread_o) <= 1e-15 * np.abs(spread_o).max())
        for arr in (kernel, mu_bar, spread):
            assert _no_subnormal(arr)

        one = posterior_stats(target, sched, t, x[0])
        assert np.array_equal(one[0], resp[0]) and np.array_equal(one[1], mu_bar[0])

    def test_zero_weight_component_drops_out(self):
        g8 = paper_gmm8()
        weights = np.array([0.0] + [1.0 / 7.0] * 7)
        with_zero = mixture_target(weights, g8.means, g8.sigma)
        without = mixture_target(weights[1:], g8.means[1:], g8.sigma)
        sched = TrigSchedule()
        x = 14.0 * np.random.default_rng(609).normal(size=(64, 2))
        for t in (0.0, 0.5, 0.9, 0.999):
            resp, mu_bar, _ = posterior_stats(with_zero, sched, t, x)
            resp7, mu_bar7, _ = posterior_stats(without, sched, t, x)
            assert np.all(resp[:, 0] == 0.0)
            # the renormalised weights and m0 differ in the last bit, and the
            # logits round at their own scale, up to 1e5 at t = 0.999
            assert np.all(np.abs(resp[:, 1:] - resp7) <= 1e-13)
            assert np.all(np.abs(mu_bar - mu_bar7) <= 1e-13 * np.abs(g8.means).max())
        z = np.random.default_rng(610).normal(size=(256, 2))
        ends = [integrate(FlowContext(sched=sched, target=tg), z, 0.0, 1.0, 64,
                          record="final").final_state for tg in (with_zero, without)]
        assert np.all(np.abs(ends[0] - ends[1]) <= 1e-15 * np.abs(ends[1]).max())

    @pytest.mark.parametrize("k", [1, 8])
    def test_marginal_log_density_30_sigma_out(self, k):
        """Points 30 marginal standard deviations c_t beyond every mean, where
        each full-distance logit is at or below -450."""
        target = (gaussian_target([1.0, -2.0], 0.04) if k == 1 else paper_gmm8())
        sched = LinearSchedule()
        for t in (0.3, 0.9, 0.999):
            p = sched.eval(t)
            c = math.sqrt(p.a ** 2 + target.sigma ** 2 * p.b ** 2)
            m0 = target.weights @ target.means
            reach = p.b * np.max(np.linalg.norm(target.means - m0, axis=1))
            angles = np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False) + 0.1
            x = p.b * m0 + (reach + 30.0 * c) * np.column_stack([np.cos(angles),
                                                                 np.sin(angles)])
            dist = np.linalg.norm(x[:, None, :] - p.b * target.means[None], axis=2)
            assert np.all(dist >= 30.0 * c * (1.0 - 1e-12))
            with np.errstate(divide="ignore"):
                full = np.log(target.weights) - (dist ** 2) / (2.0 * c * c)
            ref = logsumexp(full, axis=1) - math.log(2.0 * math.pi * c * c)
            got = marginal_log_density(target, sched, t, x)
            assert got.shape == (12,)
            assert np.all(np.abs(got - ref) <= 1e-15 * np.abs(ref))
            single = marginal_log_density(target, sched, t, x[5])
            assert isinstance(single, float) and single == got[5]
