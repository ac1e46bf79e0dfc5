"""Schedule families: closed forms against finite differences and hand values."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gif_lab.errors import InvalidParamError, OutOfRangeError
from gif_lab.schedules import (
    FollmerSchedule,
    LinearSchedule,
    Schedule,
    SchedulePoint,
    ShiftedLinearSchedule,
    TrigSchedule,
    VESchedule,
    VPSchedule,
    make_schedule,
)

from oracles import central_diff, second_diff

ALL_SCHEDULES = [
    LinearSchedule(),
    ShiftedLinearSchedule(zeta=0.3),
    FollmerSchedule(),
    TrigSchedule(),
    VESchedule(sigma_max=2.0),
    VPSchedule(alpha0=0.8, p=1.0),
    VPSchedule(alpha0=0.5, p=3.0),
]

IDS = [s.describe() for s in ALL_SCHEDULES]


class TestHandValues:
    def test_linear_midpoint(self):
        p = LinearSchedule().eval(0.5)
        assert p.a == pytest.approx(0.5)
        assert p.b == pytest.approx(0.5)
        assert p.da == -1.0
        assert p.db == 1.0
        assert p.d2a == 0.0 and p.d2b == 0.0

    def test_follmer_at_0p6(self):
        # a = sqrt(1 - 0.36) = 0.8, da = -0.6/0.8 = -0.75
        p = FollmerSchedule().eval(0.6)
        assert p.a == pytest.approx(0.8, abs=1e-15)
        assert p.da == pytest.approx(-0.75, abs=1e-14)
        assert p.b == 0.6 and p.db == 1.0

    def test_follmer_endpoint_derivative_diverges_but_product_stays(self):
        sched = FollmerSchedule()
        p = sched.eval(1.0)
        assert p.da == -math.inf
        assert sched.da_a(1.0) == pytest.approx(-1.0, abs=1e-15)
        assert sched.da_a(0.25) == pytest.approx(-0.25, abs=1e-15)

    def test_trig_at_zero(self):
        p = TrigSchedule().eval(0.0)
        assert p.a == 1.0 and p.b == 0.0
        assert p.da == 0.0
        assert p.db == pytest.approx(math.pi / 2.0)

    def test_ve_snr(self):
        sched = VESchedule(sigma_max=2.0)
        assert sched.snr(0.5) == pytest.approx(1.0, abs=1e-15)

    def test_shifted_linear_start(self):
        sched = ShiftedLinearSchedule(zeta=0.3)
        assert sched.b0 == pytest.approx(0.3 / 1.3)
        assert sched.a0 == pytest.approx(1.0 / 1.3)

    def test_shifted_linear_zero_matches_linear(self):
        z = ShiftedLinearSchedule(zeta=0.0)
        lin = LinearSchedule()
        ts = np.concatenate([np.random.default_rng(0).random(1000), np.linspace(0, 1, 65)])
        for f in ("_a", "_b", "_da", "_db", "_d2a", "_d2b", "_da_a", "_db_b"):
            np.testing.assert_array_equal(getattr(z, f)(ts), getattr(lin, f)(ts))
        np.testing.assert_array_equal(lin._a(ts), 1.0 - ts)
        np.testing.assert_array_equal(lin._b(ts), ts)
        np.testing.assert_array_equal(lin._da_a(ts), ts - 1.0)
        for t in np.linspace(0, 1, 11):
            assert z.eval(t) == lin.eval(t)

    def test_linear_is_shifted_linear_with_zeta_fixed_at_zero(self):
        lin = LinearSchedule()
        assert isinstance(lin, ShiftedLinearSchedule) and lin.zeta == 0.0
        assert repr(lin) == "LinearSchedule()"
        assert lin.family == "linear" and lin.describe() == "linear"
        with pytest.raises(TypeError):
            LinearSchedule(zeta=0.0)

    def test_vp_start_values(self):
        sched = VPSchedule(alpha0=0.8, p=1.0)
        p = sched.eval(0.0)
        assert p.a == pytest.approx(0.8)
        assert p.b == pytest.approx(0.6)
        assert p.da == pytest.approx(0.0, abs=1e-15)
        assert p.db == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("sched", ALL_SCHEDULES, ids=IDS)
def test_endpoint_conditions(sched):
    p1 = sched.eval(1.0)
    assert abs(p1.a) <= 1e-15
    assert abs(p1.b - 1.0) <= 1e-15
    p0 = sched.eval(0.0)
    assert p0.a > 0.0
    assert p0.b >= 0.0


@pytest.mark.parametrize("sched", ALL_SCHEDULES, ids=IDS)
def test_first_derivatives_match_finite_differences(sched):
    for t in np.linspace(0.05, 0.85, 9):
        p = sched.eval(t)
        da_fd = central_diff(lambda u: sched.eval(u).a, t)
        db_fd = central_diff(lambda u: sched.eval(u).b, t)
        assert p.da == pytest.approx(da_fd, abs=5e-7, rel=5e-7)
        assert p.db == pytest.approx(db_fd, abs=5e-7, rel=5e-7)


@pytest.mark.parametrize("sched", ALL_SCHEDULES, ids=IDS)
def test_second_derivatives_match_finite_differences(sched):
    for t in np.linspace(0.1, 0.8, 8):
        p = sched.eval(t)
        d2a_fd = second_diff(lambda u: sched.eval(u).a, t)
        d2b_fd = second_diff(lambda u: sched.eval(u).b, t)
        assert p.d2a == pytest.approx(d2a_fd, abs=2e-5, rel=2e-5)
        assert p.d2b == pytest.approx(d2b_fd, abs=2e-5, rel=2e-5)


@pytest.mark.parametrize("sched", ALL_SCHEDULES, ids=IDS)
def test_derivative_products_consistent(sched):
    # da_a and db_b must equal the plain products wherever those are finite
    for t in np.linspace(0.0, 0.999, 12):
        p = sched.eval(t)
        assert sched.da_a(t) == pytest.approx(p.da * p.a, abs=1e-12)
        assert sched.db_b(t) == pytest.approx(p.db * p.b, abs=1e-12)


@pytest.mark.parametrize("sched", ALL_SCHEDULES, ids=IDS)
def test_monotonicity_signs(sched):
    for t in np.linspace(0.0, 0.99, 25):
        p = sched.eval(t)
        assert p.da <= 1e-12
        assert p.db >= -1e-12


@pytest.mark.parametrize("sched", ALL_SCHEDULES, ids=IDS)
def test_snr_strictly_increasing(sched):
    ts = np.linspace(0.01, 0.995, 40)
    vals = [sched.snr(t) for t in ts]
    assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))


@pytest.mark.parametrize("sched", ALL_SCHEDULES, ids=IDS)
def test_array_eval_matches_scalar(sched):
    ts = np.linspace(0.0, 1.0, 7)
    a_arr = sched.a(ts)
    b_arr = sched.b(ts)
    for i, t in enumerate(ts):
        assert a_arr[i] == pytest.approx(sched.eval(t).a, abs=1e-15)
        assert b_arr[i] == pytest.approx(sched.eval(t).b, abs=1e-15)


@given(t=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_follmer_pythagorean_identity(t):
    p = FollmerSchedule().eval(t)
    assert p.a * p.a + p.b * p.b == pytest.approx(1.0, abs=1e-12)


@given(t=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_trig_pythagorean_identity(t):
    p = TrigSchedule().eval(t)
    assert p.a * p.a + p.b * p.b == pytest.approx(1.0, abs=1e-12)


class TestEvalDomain:
    def test_rejects_time_below_zero(self):
        with pytest.raises(OutOfRangeError):
            LinearSchedule().eval(-0.01)

    def test_rejects_time_above_one(self):
        with pytest.raises(OutOfRangeError):
            FollmerSchedule().eval(1.01)

    @pytest.mark.parametrize("t", [np.array([0.1, 0.2]), [0.5]], ids=["array", "list"])
    def test_eval_takes_a_scalar_time(self, t):
        with pytest.raises(OutOfRangeError,
                           match=r"^eval takes a scalar time; use a\(\)/b\(\) for arrays$"):
            LinearSchedule().eval(t)

    def test_rejects_bad_array_entry(self):
        with pytest.raises(OutOfRangeError):
            TrigSchedule().a(np.array([0.5, 1.5]))

    def test_snr_requires_positive_time(self):
        with pytest.raises(OutOfRangeError):
            LinearSchedule().snr(0.0)

    def test_snr_at_one_is_infinite(self):
        assert LinearSchedule().snr(1.0) == math.inf


class TestFactory:
    def test_known_families(self):
        assert isinstance(make_schedule("linear"), LinearSchedule)
        assert isinstance(make_schedule("follmer"), FollmerSchedule)
        assert isinstance(make_schedule("trig"), TrigSchedule)
        assert isinstance(make_schedule("trigonometric"), TrigSchedule)
        assert isinstance(make_schedule("ve", sigma_max=1.5), VESchedule)
        assert isinstance(make_schedule("vp", alpha0=0.9, p=2.0), VPSchedule)
        assert isinstance(make_schedule("shifted-linear", zeta=0.1), ShiftedLinearSchedule)

    def test_unknown_family(self):
        with pytest.raises(InvalidParamError, match="family"):
            make_schedule("cosine")

    def test_unknown_param(self):
        with pytest.raises(InvalidParamError):
            make_schedule("linear", zeta=0.1)

    @pytest.mark.parametrize("kwargs", [
        {"family": "ve", "sigma_max": 0.0},
        {"family": "ve", "sigma_max": -1.0},
        {"family": "vp", "alpha0": 1.0, "p": 1.0},
        {"family": "vp", "alpha0": 0.0, "p": 1.0},
        {"family": "vp", "alpha0": 0.5, "p": 0.5},
        {"family": "shifted-linear", "zeta": -0.2},
    ])
    def test_bad_params(self, kwargs):
        with pytest.raises(InvalidParamError):
            make_schedule(**kwargs)


class _IncreasingA(Schedule):
    """Deliberately broken schedule: a grows with t."""

    family = "broken"

    def _a(self, t):
        return np.asarray(t, dtype=float)

    def _b(self, t):
        return np.asarray(t, dtype=float)

    def _da(self, t):
        return np.ones_like(np.asarray(t, dtype=float))

    def _db(self, t):
        return np.ones_like(np.asarray(t, dtype=float))

    def _d2a(self, t):
        return np.zeros_like(np.asarray(t, dtype=float))

    def _d2b(self, t):
        return np.zeros_like(np.asarray(t, dtype=float))


class _EarlyZeroA(Schedule):
    """Broken schedule: a_t = max(1 - 2t, 0) vanishes from t = 1/2 on."""

    family = "early-zero"

    def _a(self, t):
        return np.maximum(1.0 - 2.0 * np.asarray(t, dtype=float), 0.0)

    def _b(self, t):
        return np.asarray(t, dtype=float) + 0.0

    def _da(self, t):
        return np.where(np.asarray(t, dtype=float) < 0.5, -2.0, 0.0)

    def _db(self, t):
        return np.ones_like(np.asarray(t, dtype=float))

    def _d2a(self, t):
        return np.zeros_like(np.asarray(t, dtype=float))

    def _d2b(self, t):
        return np.zeros_like(np.asarray(t, dtype=float))


class TestValidate:
    @pytest.mark.parametrize("sched", ALL_SCHEDULES, ids=IDS)
    def test_families_pass(self, sched):
        report = sched.validate(grid_n=256)
        assert report.ok, report.violations

    def test_follmer_256(self):
        report = FollmerSchedule().validate(grid_n=256)
        assert report.ok
        assert report.violations == []

    def test_broken_schedule_flagged(self):
        report = _IncreasingA().validate(grid_n=64)
        assert not report.ok
        conditions = {c for c, _ in report.violations}
        assert any("da" in c or "a(1)" in c for c in conditions)

    def test_snr_plateau_at_infinity_flagged(self):
        # the SNR is +inf wherever a_t = 0; adjacent infinities do not grow
        report = _EarlyZeroA().validate(grid_n=64)
        flat = [t for c, t in report.violations if c == "snr strictly increasing"]
        grid = np.linspace(0.0, 1.0, 64)
        assert flat == [float(t) for t in grid if 0.5 < t < 1.0]

    def test_grid_size_validated(self):
        with pytest.raises(InvalidParamError):
            LinearSchedule().validate(grid_n=1)


def test_schedule_point_is_frozen():
    p = LinearSchedule().eval(0.25)
    assert isinstance(p, SchedulePoint)
    with pytest.raises(Exception):
        p.a = 2.0
