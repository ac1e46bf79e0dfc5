"""Eigenvalue envelopes and flow-map Lipschitz bounds vs quadrature oracles."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from gif_lab.bounds import (
    RegularityProfile,
    critical_time,
    endpoint_lipschitz,
    functional_constant,
    lipschitz_flow_map,
    theta_profile,
)
from gif_lab.errors import (
    InvalidParamError,
    MissingFieldError,
    NoRootError,
    OutOfRangeError,
)
from gif_lab.experiments import (ExperimentConfig, moderate_gmm4, paper_gmm8,
                                  run_jacobian_envelope)
from gif_lab.flow import FlowContext, _table
from gif_lab.schedules import (
    FollmerSchedule,
    LinearSchedule,
    ShiftedLinearSchedule,
    TrigSchedule,
    VESchedule,
    VPSchedule,
)
from gif_lab.targets import gaussian_target, mixture_target

from oracles import central_diff, simpson

T1_LINEAR_KM1_D1 = 0.5857864376269049  # root of snr = 2 under the linear schedule


class TestGaussianCase:
    def test_follmer_unit_kappa_is_flat(self):
        prof = RegularityProfile(kappa=1.0)
        theta = theta_profile(prof, FollmerSchedule(), case="gaussian")
        ts = np.linspace(0.0, 1.0, 33)
        assert np.max(np.abs(theta.theta(ts))) <= 1e-14
        assert lipschitz_flow_map(theta, 0.0, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_closed_form_integral_matches_simpson(self):
        prof = RegularityProfile(kappa=2.0)
        sched = TrigSchedule()
        theta = theta_profile(prof, sched, case="gaussian")
        for (s, t) in [(0.1, 0.9), (0.0, 1.0), (0.3, 0.4)]:
            quad = simpson(lambda u: theta.theta(u), s, t)
            assert theta.integral(s, t) == pytest.approx(quad, abs=1e-9)

    def test_lipschitz_equals_gaussian_contraction(self):
        # for kappa = 1/sigma^2 the bound is tight: exp(int theta) = c_t/c_s
        var = 0.25
        prof = RegularityProfile(kappa=1.0 / var)
        sched = TrigSchedule()
        theta = theta_profile(prof, sched, case="gaussian")
        for (s, t) in [(0.2, 0.9), (0.0, 1.0), (0.5, 0.6)]:
            ps, pt = sched.eval(s), sched.eval(t)
            cs = math.sqrt(ps.a ** 2 + var * ps.b ** 2)
            ct = math.sqrt(pt.a ** 2 + var * pt.b ** 2)
            got = lipschitz_flow_map(theta, s, t)
            assert got == pytest.approx(ct / cs, rel=1e-12)

    def test_zero_kappa_from_pure_noise_start_diverges(self):
        prof = RegularityProfile(kappa=0.0)
        theta = theta_profile(prof, LinearSchedule(), case="gaussian")
        assert lipschitz_flow_map(theta, 0.0, 1.0) == math.inf
        assert lipschitz_flow_map(theta, 0.5, 1.0) < math.inf

    def test_negative_kappa_clamps_above_t0(self):
        prof = RegularityProfile(kappa=-1.0)
        sched = LinearSchedule()
        theta = theta_profile(prof, sched, case="gaussian")
        assert theta.t0 == pytest.approx(0.5, abs=1e-11)
        assert theta.pieces[0].lo == pytest.approx(0.5 + 1e-6, abs=1e-12)
        with pytest.raises(OutOfRangeError):
            theta.theta(0.3)
        val = theta.theta(0.8)
        assert math.isfinite(val)

    def test_negative_kappa_with_positive_b0_needs_no_clamp(self):
        prof = RegularityProfile(kappa=-0.25)
        sched = VPSchedule(alpha0=0.8, p=1.0)  # snr starts at 0.5625 > 0.25
        theta = theta_profile(prof, sched, case="gaussian")
        assert theta.t0 is None
        assert math.isfinite(theta.theta(0.0))

    def test_missing_kappa(self):
        with pytest.raises(MissingFieldError):
            theta_profile(RegularityProfile(), LinearSchedule(), case="gaussian")


class TestBoundedDCase:
    def test_critical_time_hand_values(self):
        sched = LinearSchedule()
        t1 = critical_time(RegularityProfile(kappa=0.0, D=1.0), sched)
        assert t1 == pytest.approx(0.5, abs=2e-12)
        t1 = critical_time(RegularityProfile(kappa=-1.0, D=1.0), sched)
        assert t1 == pytest.approx(T1_LINEAR_KM1_D1, abs=2e-12)

    def test_critical_time_no_root_when_kappa_dsq_large(self):
        with pytest.raises(NoRootError):
            critical_time(RegularityProfile(kappa=1.0, D=1.0), LinearSchedule())

    def test_critical_time_no_root_below_snr_range(self):
        prof = RegularityProfile(kappa=0.0, D=2.0)
        with pytest.raises(NoRootError):
            critical_time(prof, VPSchedule(alpha0=0.8, p=1.0))

    def test_profile_pieces_and_continuity(self):
        prof = RegularityProfile(kappa=-1.0, D=1.0)
        sched = LinearSchedule()
        theta = theta_profile(prof, sched, case="bounded-d")
        assert theta.t1 == pytest.approx(T1_LINEAR_KM1_D1, abs=2e-12)
        assert [p.piece_id for p in theta.pieces] == ["bounded-d", "gaussian"]
        t1 = theta.t1
        left = theta.pieces[0].theta_raw(np.asarray(t1))
        right = theta.pieces[1].theta_raw(np.asarray(t1))
        assert abs(float(left) - float(right)) <= 1e-9

    def test_profile_is_min_of_both_forms(self):
        prof = RegularityProfile(kappa=-1.0, D=1.0)
        sched = LinearSchedule()
        theta = theta_profile(prof, sched, case="bounded-d")
        for t in np.linspace(0.55, 0.99, 23):
            p = sched.eval(t)
            d_form = ((p.db * p.b * p.a ** 2 - p.da * p.a * p.b ** 2) / p.a ** 4
                      + p.da / p.a)
            k_form = (-1.0 * p.da * p.a + p.db * p.b) / (-1.0 * p.a ** 2 + p.b ** 2)
            assert theta.theta(t) == pytest.approx(min(d_form, k_form), rel=1e-10)

    def test_d_piece_integral_matches_simpson(self):
        prof = RegularityProfile(kappa=-1.0, D=1.0)
        theta = theta_profile(prof, LinearSchedule(), case="bounded-d")
        quad = simpson(lambda u: theta.theta(u), 0.05, 0.45)
        assert theta.integral(0.05, 0.45) == pytest.approx(quad, abs=1e-9)

    def test_cross_piece_integral_matches_simpson(self):
        prof = RegularityProfile(kappa=-1.0, D=1.0)
        theta = theta_profile(prof, LinearSchedule(), case="bounded-d")
        lo, hi = 0.3, 0.8
        quad = simpson(lambda u: theta.theta(u), lo, theta.t1, n_panels=4096) \
            + simpson(lambda u: theta.theta(u), theta.t1, hi, n_panels=4096)
        assert theta.integral(lo, hi) == pytest.approx(quad, abs=1e-8)

    def test_without_kappa_single_diverging_piece(self):
        prof = RegularityProfile(D=1.0)
        theta = theta_profile(prof, LinearSchedule(), case="bounded-d")
        assert [p.piece_id for p in theta.pieces] == ["bounded-d"]
        assert lipschitz_flow_map(theta, 0.0, 1.0) == math.inf

    def test_kappa_dsq_above_one_uses_gaussian_everywhere(self):
        prof = RegularityProfile(kappa=2.0, D=1.0)
        theta = theta_profile(prof, LinearSchedule(), case="bounded-d")
        assert [p.piece_id for p in theta.pieces] == ["gaussian"]

    def test_missing_d(self):
        with pytest.raises(MissingFieldError):
            theta_profile(RegularityProfile(kappa=1.0), LinearSchedule(),
                          case="bounded-d")


class TestMixtureCase:
    def test_point_value_hand(self):
        prof = RegularityProfile(sigma=1.0, R=0.0)
        theta = theta_profile(prof, LinearSchedule(), case="mixture")
        assert theta.theta(0.5) == pytest.approx(0.0, abs=1e-15)

    def test_r_zero_equals_gaussian_profile(self):
        prof_m = RegularityProfile(sigma=0.5, R=0.0)
        prof_g = RegularityProfile(kappa=4.0)
        sched = TrigSchedule()
        tm = theta_profile(prof_m, sched, case="mixture")
        tg = theta_profile(prof_g, sched, case="gaussian")
        for t in np.linspace(0.0, 1.0, 17):
            assert tm.theta(t) == pytest.approx(tg.theta(t), abs=1e-12)

    def test_integral_matches_simpson(self):
        prof = RegularityProfile(sigma=0.5, R=2.0)
        sched = FollmerSchedule()
        theta = theta_profile(prof, sched, case="mixture")
        for (s, t) in [(0.0, 1.0), (0.2, 0.7)]:
            quad = simpson(lambda u: theta.theta(u), s, t, n_panels=4096)
            assert theta.integral(s, t) == pytest.approx(quad, abs=1e-8)

    def test_endpoint_formula_consistent_with_integral(self):
        prof = RegularityProfile(sigma=0.5, R=2.0)
        for sched in [LinearSchedule(), VPSchedule(alpha0=0.8, p=1.0)]:
            theta = theta_profile(prof, sched, case="mixture")
            via_integral = lipschitz_flow_map(theta, 0.0, 1.0)
            closed = endpoint_lipschitz(prof, sched, direction="forward",
                                        case="mixture")
            assert closed == pytest.approx(via_integral, rel=1e-10)

    def test_missing_sigma(self):
        with pytest.raises(MissingFieldError):
            theta_profile(RegularityProfile(R=1.0), LinearSchedule(), case="mixture")

    @pytest.mark.parametrize("target", [moderate_gmm4(), paper_gmm8()],
                             ids=["moderate-gmm4", "paper-gmm8"])
    @pytest.mark.parametrize("sched", [LinearSchedule(), TrigSchedule(),
                                       VPSchedule(alpha0=0.8, p=2.0), FollmerSchedule()],
                             ids=lambda s: type(s).__name__)
    def test_theta_is_the_velocity_jacobian_at_the_spread_ceiling(self, target, sched):
        # grad v = alpha I + gamma spread(mu) and spread(mu) <= R^2 I, so the
        # envelope is the table's alpha + gamma R^2, term for term
        theta = theta_profile(RegularityProfile.from_target(target), sched, case="mixture")
        ts = np.linspace(0.05, 0.95, 19)
        tab = _table(FlowContext(sched=sched, target=target), ts)
        want = tab.alpha + tab.gamma * target.radius ** 2
        assert np.all(np.abs(theta.theta(ts) - want) <= 1e-15 * np.abs(want))


class TestLogLipCase:
    def test_value_at_zero_linear(self):
        # 5 L^2 - 1 at t = 0 for the linear schedule with L = 1
        prof = RegularityProfile(kappa=0.0, L=1.0)
        theta = theta_profile(prof, LinearSchedule(), case="log-lip")
        assert theta.theta(0.0) == pytest.approx(4.0, abs=1e-12)
        assert theta.t2 == pytest.approx(0.5)

    def test_pieces_and_continuity_scale(self):
        prof = RegularityProfile(kappa=-0.5, L=0.7)
        sched = LinearSchedule()
        theta = theta_profile(prof, sched, case="log-lip")
        assert [p.piece_id for p in theta.pieces] == ["log-lip", "gaussian"]
        assert theta.t0 == pytest.approx(critical_time_t0(sched, 0.5), abs=1e-11)
        assert theta.t2 == pytest.approx((theta.t0 + 1.0) / 2.0)

    def test_integral_matches_quadrature(self):
        prof = RegularityProfile(kappa=0.0, L=1.0)
        theta = theta_profile(prof, LinearSchedule(), case="log-lip")
        # interior interval: plain Simpson converges (integrand is smooth there)
        quad = simpson(lambda u: theta.theta(u), 0.05, 0.45, n_panels=4096)
        assert theta.integral(0.05, 0.45) == pytest.approx(quad, abs=1e-8)
        # from t = 0 the integrand has unbounded slope; references from
        # 30-digit tanh-sinh quadrature (mpmath), met by the closed form
        exact = {"rel": 1e-14, "abs": 0.0}
        assert theta.integral(0.0, 0.5) == pytest.approx(6.779029844105297, **exact)
        half = theta_profile(RegularityProfile(kappa=0.0, L=0.5), LinearSchedule(),
                             case="log-lip")
        assert half.integral(0.0, 0.125) == pytest.approx(0.26578346828752188071, **exact)
        assert half.integral(0.25, 0.375) == pytest.approx(0.69742595164713660034, **exact)

    @pytest.mark.parametrize("means", [
        [(1.5, 0.0), (-1.5, 0.0)],
        [(2.0, 0.0), (0.0, 2.0), (-2.0, 0.0), (0.0, -2.0)],
        [(3.0, 1.0), (1.0, 1.0)],
    ], ids=["two-point", "four-point", "off-centre"])
    @pytest.mark.parametrize("sched", [LinearSchedule(), TrigSchedule(), FollmerSchedule()],
                             ids=lambda s: type(s).__name__)
    def test_bounds_sigma_one_mixtures(self, means, sched):
        # a sigma = 1 mixture is in the log-lip class: grad log(p / phi) is a
        # posterior average of the means, so L = max |mu_j|; its
        # semi-log-concavity is kappa = 1 - R^2, clipped to the case's kappa <= 0
        target = mixture_target(np.full(len(means), 1.0 / len(means)), means, 1.0)
        prof = RegularityProfile(kappa=min(1.0 - target.radius ** 2, 0.0),
                                 L=float(np.max(np.linalg.norm(means, axis=1))))
        cfg = ExperimentConfig(target=target, sched=sched, n=400, profile=prof,
                               bound_case="log-lip",
                               t_grid=tuple(np.linspace(0.0, 0.99, 34)))
        res = run_jacobian_envelope(cfg)
        lam_max, upper = res.column("lam_max"), res.column("upper")
        assert np.all(lam_max <= upper + 1e-9 * np.abs(upper))

    def test_positive_kappa_rejected(self):
        prof = RegularityProfile(kappa=0.5, L=1.0)
        with pytest.raises(InvalidParamError):
            theta_profile(prof, LinearSchedule(), case="log-lip")

    def test_missing_l(self):
        with pytest.raises(MissingFieldError):
            theta_profile(RegularityProfile(kappa=0.0), LinearSchedule(),
                          case="log-lip")


def critical_time_t0(sched, neg_kappa: float) -> float:
    """Bisection oracle for snr(t) = neg_kappa, done directly in the test."""
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if sched.snr(mid) < neg_kappa if mid > 0 else True:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestEndpointLipschitz:
    def test_forward_gaussian(self):
        prof = RegularityProfile(kappa=4.0)
        got = endpoint_lipschitz(prof, LinearSchedule(), direction="forward")
        assert got == pytest.approx(0.5, abs=1e-14)

    def test_reverse_gaussian(self):
        prof = RegularityProfile(kappa=1.0, beta=4.0)
        got = endpoint_lipschitz(prof, LinearSchedule(), direction="reverse")
        assert got == pytest.approx(2.0, abs=1e-14)

    def test_forward_mixture_point_target(self):
        prof = RegularityProfile(sigma=1.0, R=0.0)
        got = endpoint_lipschitz(prof, LinearSchedule(), direction="forward")
        assert got == pytest.approx(1.0, abs=1e-14)

    def test_reverse_mixture(self):
        prof = RegularityProfile(sigma=0.5, R=3.0)
        got = endpoint_lipschitz(prof, LinearSchedule(), direction="reverse")
        assert got == pytest.approx(2.0, abs=1e-14)

    def test_case_auto_detect_prefers_mixture_fields(self):
        prof = RegularityProfile(sigma=0.5, R=1.0, kappa=4.0)
        auto = endpoint_lipschitz(prof, LinearSchedule(), direction="forward")
        explicit = endpoint_lipschitz(prof, LinearSchedule(), direction="forward",
                                      case="mixture")
        assert auto == explicit

    def test_forward_gaussian_needs_positive_kappa(self):
        prof = RegularityProfile(kappa=-1.0)
        with pytest.raises(InvalidParamError):
            endpoint_lipschitz(prof, LinearSchedule(), direction="forward",
                               case="gaussian")

    @pytest.mark.parametrize("sched", [LinearSchedule(), TrigSchedule(), FollmerSchedule()],
                             ids=lambda s: type(s).__name__)
    def test_forward_mixture_overflow_is_inf(self, sched):
        # paper-gmm8's exponent R^2 / (2 sigma^2) = 8.0e4 is far beyond exp's range
        prof = RegularityProfile.from_target(paper_gmm8())
        assert endpoint_lipschitz(prof, sched, "forward", case="mixture") == math.inf
        theta = theta_profile(prof, sched, case="mixture")
        assert lipschitz_flow_map(theta, 0.0, 1.0) == math.inf

    def test_reverse_gaussian_needs_beta(self):
        prof = RegularityProfile(kappa=1.0)
        with pytest.raises(MissingFieldError):
            endpoint_lipschitz(prof, LinearSchedule(), direction="reverse",
                               case="gaussian")


SIX_FAMILIES = [LinearSchedule(), ShiftedLinearSchedule(zeta=0.2), FollmerSchedule(),
                TrigSchedule(), VESchedule(sigma_max=2.0), VPSchedule(alpha0=0.8, p=2.0)]

# Two profiles per case; kappa = 0 puts the gaussian form's 0/0 at b_t = 0
# (t = 0 on linear, Follmer and trig), a D-only profile the bounded-d
# form's at a_t = 0 (t = 1 on linear, shifted-linear, Follmer and VE).
ENDPOINT_PROFILES = [
    ("gaussian", RegularityProfile(kappa=0.0)),
    ("gaussian", RegularityProfile(kappa=-0.5)),
    ("bounded-d", RegularityProfile(D=1.0)),
    ("bounded-d", RegularityProfile(kappa=-0.3, D=2.0)),
    ("mixture", RegularityProfile(sigma=0.5, R=2.0)),
    ("mixture", RegularityProfile(sigma=1.0, R=0.0)),
    ("log-lip", RegularityProfile(kappa=0.0, L=0.5)),
    ("log-lip", RegularityProfile(kappa=-0.4, L=2.0)),
]

EACH_FAMILY = pytest.mark.parametrize("sched", SIX_FAMILIES, ids=lambda s: s.describe())
EACH_PROFILE = pytest.mark.parametrize(
    "case, prof", ENDPOINT_PROFILES,
    ids=[f"{c}-{i % 2}" for i, (c, _) in enumerate(ENDPOINT_PROFILES)])


class TestEndpoints:
    @EACH_FAMILY
    @EACH_PROFILE
    def test_theta_is_never_nan(self, sched, case, prof):
        theta = theta_profile(prof, sched, case)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = [theta.theta(theta.lo), theta.theta(1.0)]
        assert not any(math.isnan(v) for v in values), values
        # +inf where the envelope diverges, and then so does its integral
        if math.inf in values:
            assert theta.integral(theta.lo, 1.0) == math.inf

    @EACH_FAMILY
    @EACH_PROFILE
    def test_rounding_outside_the_interval_reads_the_end(self, sched, case, prof):
        # times within 1e-12 outside [lo, 1] are accepted and read at the end,
        # never by the formulas beyond it
        theta = theta_profile(prof, sched, case)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert theta.theta(theta.lo - 5e-13) == theta.theta(theta.lo)
            assert theta.theta(1.0 + 5e-13) == theta.theta(1.0)

    @EACH_FAMILY
    @EACH_PROFILE
    def test_every_antiderivative_differentiates_to_its_theta(self, sched, case, prof):
        theta = theta_profile(prof, sched, case)
        for piece in theta.pieces:
            for t in np.linspace(0.05, 0.95, 19):
                if piece.lo + 0.02 <= t <= piece.hi - 0.02:
                    want = float(piece.theta_raw(np.float64(t)))
                    got = central_diff(piece._antideriv, t)
                    assert got == pytest.approx(want, rel=1e-6, abs=1e-6), \
                        (piece.piece_id, t)

    def test_divergent_points_are_inf(self):
        linear = LinearSchedule()
        assert theta_profile(RegularityProfile(kappa=0.0), linear, "gaussian").theta(0.0) \
            == math.inf
        assert theta_profile(RegularityProfile(D=1.0), linear, "bounded-d").theta(1.0) \
            == math.inf

    @pytest.mark.parametrize("sched", SIX_FAMILIES + [
        ShiftedLinearSchedule(zeta=0.0), VPSchedule(alpha0=0.9, p=1.0)],
        ids=lambda s: s.describe())
    def test_unbounded_d_matches_finite_d_where_growth_vanishes(self, sched):
        # the D^2 growth term's coefficient a b (a db - b da) vanishes at
        # b_t = 0 and a_t = 0; there theta does not depend on D, so D = +inf
        # gives the D = 1 value (0 * inf is not NaN), and +inf elsewhere
        ts = np.linspace(0.0, 1.0, 101)
        unbounded = theta_profile(RegularityProfile(D=math.inf), sched, "bounded-d")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = unbounded.theta(ts)
            ref = theta_profile(RegularityProfile(D=1.0), sched, "bounded-d").theta(ts)
        assert not np.isnan(got).any()
        coef = sched.db_b(ts) * sched.a(ts) ** 2 - sched.da_a(ts) * sched.b(ts) ** 2
        flat = coef == 0.0
        assert np.array_equal(got[flat], ref[flat])
        assert np.all(got[~flat] == math.inf)
        assert unbounded.integral(0.0, 1.0) == math.inf


class TestFunctionalConstant:
    def test_hand_values(self):
        sched = LinearSchedule()
        assert functional_constant(1.0, sched, 0.5) == pytest.approx(0.5)
        assert functional_constant(3.0, sched, 1.0) == pytest.approx(3.0)
        assert functional_constant(3.0, sched, 0.0) == pytest.approx(1.0)

    def test_validates_inputs(self):
        with pytest.raises(InvalidParamError):
            functional_constant(-1.0, LinearSchedule(), 0.5)
        with pytest.raises(OutOfRangeError):
            functional_constant(1.0, LinearSchedule(), 1.5)


class TestRegularityProfile:
    def test_from_gaussian_target(self):
        prof = RegularityProfile.from_target(gaussian_target(mean=[1.0, 0.0], var=0.25))
        assert prof.kappa == pytest.approx(4.0)
        assert prof.beta == pytest.approx(4.0)
        assert prof.sigma == pytest.approx(0.5)
        assert prof.R == pytest.approx(0.0)
        assert prof.D == pytest.approx(0.0)

    def test_from_mixture_target(self):
        target = mixture_target(weights=[0.5, 0.5], means=[[-2.0, 0.0], [2.0, 0.0]],
                                sigma=0.5)
        prof = RegularityProfile.from_target(target)
        assert prof.kappa is None
        assert prof.R == pytest.approx(2.0, abs=1e-9)
        assert prof.D == pytest.approx(4.0 / math.sqrt(2.0), abs=1e-12)

    def test_beta_must_dominate_kappa(self):
        with pytest.raises(InvalidParamError):
            RegularityProfile(kappa=2.0, beta=1.0)

    def test_nonnegative_fields(self):
        with pytest.raises(InvalidParamError):
            RegularityProfile(R=-1.0)
        with pytest.raises(InvalidParamError):
            RegularityProfile(L=-0.5)
        with pytest.raises(InvalidParamError):
            RegularityProfile(sigma=0.0)


class TestProfileSurface:
    def test_theta_accepts_arrays(self):
        prof = RegularityProfile(sigma=0.5, R=2.0)
        theta = theta_profile(prof, LinearSchedule(), case="mixture")
        ts = np.linspace(0.0, 1.0, 9)
        vals = theta.theta(ts)
        assert vals.shape == (9,)
        assert np.all(np.isfinite(vals))

    def test_piece_at(self):
        prof = RegularityProfile(kappa=-1.0, D=1.0)
        theta = theta_profile(prof, LinearSchedule(), case="bounded-d")
        assert theta.piece_at(0.1).piece_id == "bounded-d"
        assert theta.piece_at(0.9).piece_id == "gaussian"

    def test_unknown_case(self):
        with pytest.raises(InvalidParamError):
            theta_profile(RegularityProfile(kappa=1.0), LinearSchedule(), case="zap")

    @pytest.mark.parametrize("call, match", [
        (lambda: critical_time(RegularityProfile(kappa=-1.0, D=math.inf), LinearSchedule()),
         r"^critical time needs finite D > 0, got inf$"),
        (lambda: theta_profile(RegularityProfile(D=0.0), LinearSchedule(), "bounded-d"),
         r"^bounded-d needs D > 0, got 0\.0$"),
        (lambda: theta_profile(RegularityProfile(L=0.5, kappa=-0.5), LinearSchedule(),
                               "log-lip", t2=1.0),
         r"^t2 must lie in \(0\.41421\d*, 1\), got 1\.0$"),
        (lambda: endpoint_lipschitz(RegularityProfile(kappa=1.0), LinearSchedule(),
                                    direction="sideways"),
         r"^direction must be forward or reverse, got 'sideways'$"),
        (lambda: endpoint_lipschitz(RegularityProfile(kappa=1.0), LinearSchedule(),
                                    case="bounded-d"),
         r"^endpoint case must be gaussian or mixture, got 'bounded-d'$"),
    ], ids=["critical-time-unbounded-d", "bounded-d-zero-d", "log-lip-t2-at-one",
            "endpoint-direction", "endpoint-case"])
    def test_rejected_input_names_the_reason(self, call, match):
        with pytest.raises(InvalidParamError, match=match):
            call()

    def test_integral_orientation(self):
        prof = RegularityProfile(kappa=2.0)
        theta = theta_profile(prof, LinearSchedule(), case="gaussian")
        with pytest.raises(OutOfRangeError):
            theta.integral(0.8, 0.2)
        assert theta.integral(0.4, 0.4) == 0.0
