"""Scalar parameters: one rule everywhere, checked by errors._real_param and
errors._int_param.

A real parameter is a numbers.Real other than a bool, finite unless its
interval says otherwise (only RegularityProfile.D admits +inf), and is
stored as a Python float; an integer parameter is a numbers.Integral other
than a bool, stored as a Python int.  Every scalar parameter of the package
is one row of the tables below.

A time argument is a real number other than a bool, or an array of integers
or floats where the call takes arrays; a bool, a string or an array of
either is an InvalidParamError naming the argument, checked before the
range, whose violations (NaN included) stay OutOfRangeError.
"""

from __future__ import annotations

import io
import math

import numpy as np
import pytest

from gif_lab.bounds import (RegularityProfile, functional_constant, lipschitz_flow_map,
                            theta_profile)
from gif_lab.errors import InvalidParamError, OutOfRangeError
from gif_lab.experiments import ExperimentConfig
from gif_lab.flow import (FlowContext, integrate, integrate_augmented, velocity, velocity_dt,
                          velocity_jacobian)
from gif_lab.metrics import (keyed_generator, sample_gaussian, sample_interpolant,
                             sample_target, w2)
from gif_lab.schedules import (LinearSchedule, ShiftedLinearSchedule, VESchedule,
                               VPSchedule)
from gif_lab.targets import (Target, denoiser, gaussian_target, min_enclosing_ball,
                              mixture_target, point_cloud_target, posterior)

_GAUSS = gaussian_target(mean=[0.0], var=1.0)
_CTX = FlowContext(sched=LinearSchedule(), target=_GAUSS)
_CLOUD = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]])
# scaling by a power of two is exact, so a draw over this gives back the scale
_Z0 = sample_gaussian(1, 1, 0).points[0, 0]
# three particles, so particle indices lie in [0, 2]
_TRAJ = integrate(_CTX, np.zeros((3, 1)), 0.0, 1.0, 2)
_LOG_LIP = RegularityProfile(kappa=0.0, L=1.0)
_THETA = theta_profile(_LOG_LIP, LinearSchedule(), "log-lip", t2=0.5)
_X = np.zeros((2, 1))


def _stores_nothing(result) -> None:
    return None


# name, a call taking the value and returning what it stored (None when it
# stores nothing), and a valid value that float32 holds exactly
REAL_PARAMS = [
    ("sigma", lambda v: Target(weights=[1.0], means=[[0.0]], sigma=v).sigma, 0.5),
    ("var", lambda v: gaussian_target(mean=[0.0], var=v).sigma ** 2, 0.25),
    ("sigma", lambda v: mixture_target([0.5, 0.5], [[0.0], [1.0]], sigma=v).sigma, 0.5),
    ("sigma", lambda v: point_cloud_target(_CLOUD, sigma=v).sigma, 0.5),
    ("zeta", lambda v: ShiftedLinearSchedule(zeta=v).zeta, 0.25),
    ("sigma_max", lambda v: VESchedule(sigma_max=v).sigma_max, 2.0),
    ("alpha0", lambda v: VPSchedule(alpha0=v).alpha0, 0.5),
    ("p", lambda v: VPSchedule(p=v).p, 2.0),
    ("early_stop", lambda v: FlowContext(LinearSchedule(), _GAUSS, early_stop=v).early_stop,
     0.25),
    ("kappa", lambda v: RegularityProfile(kappa=v).kappa, -0.5),
    ("beta", lambda v: RegularityProfile(beta=v).beta, 0.5),
    ("D", lambda v: RegularityProfile(D=v).D, 0.5),
    ("R", lambda v: RegularityProfile(R=v).R, 0.5),
    ("sigma", lambda v: RegularityProfile(sigma=v).sigma, 0.5),
    ("L", lambda v: RegularityProfile(L=v).L, 0.5),
    # at t = 1 the transported constant a^2 + b^2 c_nu is c_nu itself
    ("c_nu", lambda v: functional_constant(v, LinearSchedule(), 1.0), 0.5),
    ("scale", lambda v: float(sample_gaussian(1, 1, 0, scale=v).points[0, 0] / _Z0), 0.5),
    ("t2", lambda v: theta_profile(_LOG_LIP, LinearSchedule(), "log-lip", t2=v).t2, 0.5),
]
REAL_IDS = ["Target.sigma", "var", "mixture.sigma", "point_cloud.sigma", "zeta",
            "sigma_max", "alpha0", "p", "early_stop", "kappa", "beta", "D", "R",
            "profile.sigma", "L", "c_nu", "scale", "t2"]

INT_PARAMS = [
    ("grid_n", lambda v: LinearSchedule().validate(grid_n=v).grid_n, 16),
    ("steps", lambda v: len(integrate(_CTX, np.zeros(1), 0.0, 1.0, v).times) - 1, 4),
    ("n", lambda v: sample_gaussian(1, v, 0).n, 4),
    ("dim", lambda v: sample_gaussian(v, 4, 0).dim, 2),
    ("n", lambda v: sample_target(_GAUSS, v, 0).n, 4),
    ("seed", lambda v: _stores_nothing(keyed_generator(v, 1, 0)), 7),
    ("seed", lambda v: sample_gaussian(1, 4, v).seed, 7),
    ("seed", lambda v: sample_target(_GAUSS, 4, v).seed, 7),
    ("domain", lambda v: _stores_nothing(keyed_generator(0, v, 0)), 1),
    ("index", lambda v: _stores_nothing(keyed_generator(0, 1, v)), 3),
    ("n_projections", lambda v: _stores_nothing(
        w2(_CLOUD, _CLOUD + 1.0, method="sliced", n_projections=v)), 8),
    ("n", lambda v: ExperimentConfig(_GAUSS, LinearSchedule(), n=v).n, 128),
    ("steps", lambda v: ExperimentConfig(_GAUSS, LinearSchedule(), steps=v).steps, 16),
    ("seed", lambda v: ExperimentConfig(_GAUSS, LinearSchedule(), seed=v).seed, 3),
    ("particle", lambda v: _stores_nothing(_TRAJ.write_csv(io.StringIO(), particle=v)), 2),
    ("seed", lambda v: _stores_nothing(min_enclosing_ball(_CLOUD, seed=v)), 7),
]
INT_IDS = ["grid_n", "integrate.steps", "sample_gaussian.n", "dim", "sample_target.n",
           "seed", "sample_gaussian.seed", "sample_target.seed", "domain", "index",
           "n_projections", "config.n", "config.steps", "config.seed", "particle",
           "min_enclosing_ball.seed"]

BAD = [True, False, "1.0", math.nan, math.inf]
BAD_IDS = ["True", "False", "str", "nan", "inf"]


@pytest.mark.parametrize("bad", BAD, ids=BAD_IDS)
@pytest.mark.parametrize("name, call, valid", REAL_PARAMS + INT_PARAMS,
                         ids=REAL_IDS + INT_IDS)
def test_bad_value_names_the_parameter(name, call, valid, bad):
    if name == "D" and bad == math.inf:
        assert call(bad) == math.inf  # an unbounded support has D = +inf
        return
    with pytest.raises(InvalidParamError, match=f"^{name} must be"):
        call(bad)


@pytest.mark.parametrize("name, call, valid", REAL_PARAMS, ids=REAL_IDS)
def test_numpy_real_is_stored_as_float(name, call, valid):
    for value in (np.float32(valid), np.float64(valid)):
        out = call(value)
        assert type(out) is float and out == valid


@pytest.mark.parametrize("name, call, valid", INT_PARAMS, ids=INT_IDS)
def test_numpy_integer_is_stored_as_int(name, call, valid):
    for value in (np.int64(valid), np.uint32(valid)):
        out = call(value)
        assert out is None or (type(out) is int and out == valid)


@pytest.mark.parametrize("call", [
    lambda: gaussian_target(mean=[0.0], var=np.int64(2)),
    lambda: VESchedule(sigma_max=np.int64(2)),
], ids=["var", "sigma_max"])
def test_numpy_integers_pass_where_reals_belong(call):
    call()


@pytest.mark.parametrize("seed", [np.uint64(3), np.int64(3)], ids=["uint64", "int64"])
def test_cloud_stores_the_checked_seed(seed):
    for cloud in (sample_gaussian(2, 2, seed), sample_target(_GAUSS, 2, seed),
                  sample_interpolant(_GAUSS, LinearSchedule(), 0.5, 2, seed)):
        assert type(cloud.seed) is int and cloud.seed == 3


def test_scale_zero_is_rejected():
    with pytest.raises(InvalidParamError, match=r"^scale must be a real number in \(0, inf\)"):
        sample_gaussian(2, 2, 0, scale=0.0)


def test_frozen_dataclass_keeps_the_checked_value():
    assert repr(ShiftedLinearSchedule(zeta=1)) == "ShiftedLinearSchedule(zeta=1.0)"


@pytest.mark.parametrize("particle", [-1, 3], ids=["-1", "n"])
def test_particle_outside_the_trajectory_is_rejected(particle):
    with pytest.raises(InvalidParamError,
                       match=rf"^particle must be an integer in \[0, 2\], got {particle}$"):
        _TRAJ.write_csv(io.StringIO(), particle=particle)


def test_min_enclosing_ball_rejects_a_negative_seed():
    with pytest.raises(InvalidParamError, match=r"^seed must be an integer in \[0, inf\)"):
        min_enclosing_ball(_CLOUD, seed=-1)


def test_out_of_interval_message_gives_the_interval():
    with pytest.raises(InvalidParamError,
                       match=r"^alpha0 must be a real number in \(0, 1\), got 1\.0$"):
        VPSchedule(alpha0=1.0)
    with pytest.raises(InvalidParamError,
                       match=r"^steps must be an integer in \[1, inf\), got 0$"):
        ExperimentConfig(_GAUSS, LinearSchedule(), steps=0)


# name and a call taking the time; every call accepts 0.5
TIME_ARGS = [
    ("t", lambda v: LinearSchedule().eval(v)),
    ("t", lambda v: LinearSchedule().a(v)),
    ("t", lambda v: LinearSchedule().b(v)),
    ("t", lambda v: LinearSchedule().snr(v)),
    ("t", lambda v: velocity(_CTX, v, _X)),
    ("t", lambda v: velocity_jacobian(_CTX, v, _X)),
    ("t", lambda v: velocity_dt(_CTX, v, _X)),
    ("t_from", lambda v: integrate(_CTX, _X, v, 1.0, 4)),
    ("t_to", lambda v: integrate(_CTX, _X, 0.0, v, 4)),
    ("t_from", lambda v: integrate_augmented(_CTX, _X, v, 1.0, 2)),
    ("t", lambda v: posterior(_GAUSS, LinearSchedule(), v, _X)),
    ("t", lambda v: denoiser(_GAUSS, LinearSchedule(), v, _X)),
    ("t", lambda v: _THETA.theta(v)),
    ("t", lambda v: _THETA.piece_at(v)),
    ("s", lambda v: _THETA.integral(v, 0.5)),
    ("t", lambda v: _THETA.integral(0.0, v)),
    ("s", lambda v: lipschitz_flow_map(_THETA, v, 0.5)),
    ("t", lambda v: sample_interpolant(_GAUSS, LinearSchedule(), v, 2, 0)),
    ("t", lambda v: functional_constant(0.5, LinearSchedule(), v)),
]
TIME_IDS = ["eval", "a", "b", "snr", "velocity", "velocity_jacobian", "velocity_dt",
            "integrate.t_from", "integrate.t_to", "integrate_augmented.t_from", "posterior",
            "denoiser", "theta", "piece_at", "integral.s", "integral.t",
            "lipschitz_flow_map.s", "sample_interpolant", "functional_constant"]

BAD_TIMES = [True, np.True_, "0.5", np.array([True, False]), np.array(["0.5"])]
BAD_TIME_IDS = ["True", "np.True_", "str", "bool-array", "str-array"]


@pytest.mark.parametrize("bad", BAD_TIMES, ids=BAD_TIME_IDS)
@pytest.mark.parametrize("name, call", TIME_ARGS, ids=TIME_IDS)
def test_time_of_the_wrong_kind_names_the_argument(name, call, bad):
    with pytest.raises(InvalidParamError, match=f"^{name} must be a real time"):
        call(bad)


@pytest.mark.parametrize("bad", [1.5, -0.5, math.nan], ids=["above", "below", "nan"])
@pytest.mark.parametrize("name, call", TIME_ARGS, ids=TIME_IDS)
def test_time_out_of_range_stays_out_of_range(name, call, bad):
    with pytest.raises(OutOfRangeError):
        call(bad)


@pytest.mark.parametrize("name, call", TIME_ARGS, ids=TIME_IDS)
def test_numpy_real_time_passes(name, call):
    for value in (np.float32(0.5), np.float64(0.5)):
        call(value)


def test_time_range_message_is_unchanged():
    with pytest.raises(OutOfRangeError, match=r"^time must lie in \[0, 1\], got 1\.5$"):
        LinearSchedule().a(1.5)
    with pytest.raises(OutOfRangeError, match=r"^time must lie in \[0, 1\], got nan$"):
        velocity(_CTX, math.nan, _X)


def test_integer_time_arrays_pass():
    assert LinearSchedule().a(np.array([0, 1])).tolist() == [1.0, 0.0]
