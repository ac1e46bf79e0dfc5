"""Scalar and array parameters: one rule for each kind everywhere, checked
by errors._real_param and errors._int_param, and by errors._array_param.

A real parameter is a numbers.Real other than a bool, finite unless its
interval says otherwise (only RegularityProfile.D admits +inf), and is
stored as a Python float; an integer parameter is a numbers.Integral other
than a bool, stored as a Python int.  Every scalar parameter of the package
is one row of the tables below.

A time argument is a real number other than a bool, or an array of integers
or floats where the call takes arrays; a bool, a string or an array of
either is an InvalidParamError naming the argument, checked before the
range, whose violations (NaN included) stay OutOfRangeError.

An array parameter is a rectangular array of integers or floats: a ragged
list (or numpy < 1.24's object array of one), strings or bools are an
InvalidParamError, a shape the call does not take (an empty axis included)
a SizeMismatchError and NaN a NonFiniteError, each naming the parameter.
"""

from __future__ import annotations

import dataclasses
import io
import math

import numpy as np
import pytest

from gif_lab.bounds import (RegularityProfile, functional_constant, lipschitz_flow_map,
                            theta_profile)
from gif_lab.errors import (GifLabError, InvalidParamError, NonFiniteError, OutOfRangeError,
                             SizeMismatchError)
from gif_lab.experiments import ExperimentConfig
from gif_lab.flow import (FlowContext, integrate, integrate_augmented, velocity, velocity_dt,
                          velocity_jacobian)
from gif_lab.metrics import (ParticleCloud, keyed_generator, linear_fit, sample_gaussian,
                             sample_interpolant, sample_target, w2)
from gif_lab.schedules import (LinearSchedule, ShiftedLinearSchedule, VESchedule,
                               VPSchedule)
from gif_lab.targets import (Target, cond_cov, denoiser, gaussian_target,
                              marginal_log_density, mixture_target, point_cloud_target,
                              posterior, posterior_moments, posterior_stats, score)

_GAUSS = gaussian_target(mean=[0.0], var=1.0)
_CTX = FlowContext(sched=LinearSchedule(), target=_GAUSS)
_CLOUD = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]])
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
    ("t2", lambda v: theta_profile(_LOG_LIP, LinearSchedule(), "log-lip", t2=v).t2, 0.5),
]
REAL_IDS = ["Target.sigma", "var", "mixture.sigma", "point_cloud.sigma", "zeta",
            "sigma_max", "alpha0", "p", "early_stop", "kappa", "beta", "D", "R",
            "profile.sigma", "L", "c_nu", "t2"]

INT_PARAMS = [
    ("grid_n", lambda v: LinearSchedule().validate(grid_n=v).grid_n, 16),
    ("steps", lambda v: len(integrate(_CTX, np.zeros(1), 0.0, 1.0, v).times) - 1, 4),
    ("n", lambda v: sample_gaussian(1, v, 0).n, 4),
    ("dim", lambda v: sample_gaussian(v, 4, 0).dim, 2),
    ("n", lambda v: sample_target(_GAUSS, v, 0).n, 4),
    ("seed", lambda v: _stores_nothing(keyed_generator(v, 1, 0)), 7),
    ("seed", lambda v: _stores_nothing(sample_gaussian(1, 4, v)), 7),
    ("seed", lambda v: _stores_nothing(sample_target(_GAUSS, 4, v)), 7),
    ("domain", lambda v: _stores_nothing(keyed_generator(0, v, 0)), 1),
    ("index", lambda v: _stores_nothing(keyed_generator(0, 1, v)), 3),
    ("n_projections", lambda v: _stores_nothing(
        w2(_CLOUD, _CLOUD + 1.0, method="sliced", n_projections=v)), 8),
    ("n", lambda v: ExperimentConfig(_GAUSS, LinearSchedule(), n=v).n, 128),
    ("steps", lambda v: ExperimentConfig(_GAUSS, LinearSchedule(), steps=v).steps, 16),
    ("seed", lambda v: ExperimentConfig(_GAUSS, LinearSchedule(), seed=v).seed, 3),
    ("particle", lambda v: _stores_nothing(_TRAJ.write_csv(io.StringIO(), particle=v)), 2),
]
INT_IDS = ["grid_n", "integrate.steps", "sample_gaussian.n", "dim", "sample_target.n",
           "seed", "sample_gaussian.seed", "sample_target.seed", "domain", "index",
           "n_projections", "config.n", "config.steps", "config.seed", "particle"]

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
def test_int_beyond_the_float_range_names_the_parameter(name, call, valid):
    # float(10**400) overflows; the value is rejected, never stored as inf
    with pytest.raises(InvalidParamError, match=f"^{name} must be a real number in .*, got 1000"):
        call(10 ** 400)


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
def test_numpy_integer_seed_draws_the_int_seeds_cloud(seed):
    for draw in (lambda s: sample_gaussian(2, 2, s), lambda s: sample_target(_GAUSS, 2, s),
                 lambda s: sample_interpolant(_GAUSS, LinearSchedule(), 0.5, 2, s)):
        assert np.array_equal(draw(seed).points, draw(3).points)


# settings that selected nothing and were removed: passing one is a TypeError,
# never a silently ignored keyword
@pytest.mark.parametrize("call", [
    lambda: sample_gaussian(2, 2, 0, scale=1.5),
    lambda: sample_gaussian(2, 2, 0, label="demo"),
    lambda: sample_target(_GAUSS, 2, 0, label="demo"),
    lambda: sample_interpolant(_GAUSS, LinearSchedule(), 0.5, 2, 0, label="demo"),
    lambda: ParticleCloud.read_csv(io.StringIO("x0\n1.0\n"), label="demo"),
    lambda: ParticleCloud(_CLOUD, seed=0),
    lambda: point_cloud_target(_CLOUD, 0.5, weights=[1.0, 1.0, 1.0]),
], ids=["sample_gaussian.scale", "sample_gaussian.label", "sample_target.label",
        "sample_interpolant.label", "read_csv.label", "ParticleCloud.seed",
        "point_cloud_target.weights"])
def test_removed_setting_is_rejected(call):
    with pytest.raises(TypeError):
        call()


def test_cloud_is_its_points():
    cloud = sample_gaussian(2, 3, 0)
    assert [f.name for f in dataclasses.fields(cloud)] == ["points"]
    assert not hasattr(cloud, "seed") and not hasattr(cloud, "label")


def test_frozen_dataclass_keeps_the_checked_value():
    assert repr(ShiftedLinearSchedule(zeta=1)) == "ShiftedLinearSchedule(zeta=1.0)"


@pytest.mark.parametrize("particle", [-1, 3], ids=["-1", "n"])
def test_particle_outside_the_trajectory_is_rejected(particle):
    with pytest.raises(InvalidParamError,
                       match=rf"^particle must be an integer in \[0, 2\], got {particle}$"):
        _TRAJ.write_csv(io.StringIO(), particle=particle)


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

BAD_TIMES = [True, np.True_, "0.5", np.array([True, False]), np.array(["0.5"]),
             [[0.5], [0.5, 0.5]]]
BAD_TIME_IDS = ["True", "np.True_", "str", "bool-array", "str-array", "ragged"]


@pytest.mark.parametrize("bad", BAD_TIMES, ids=BAD_TIME_IDS)
@pytest.mark.parametrize("name, call", TIME_ARGS, ids=TIME_IDS)
def test_time_of_the_wrong_kind_names_the_argument(name, call, bad):
    with pytest.raises(InvalidParamError, match=f"^{name} must be a real time"):
        call(bad)


@pytest.mark.parametrize("bad", [1.5, -0.5, math.nan, 10 ** 400],
                         ids=["above", "below", "nan", "int-beyond-float"])
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


_GMM2 = mixture_target([0.5, 0.5], [[0.0, 0.0], [1.0, 1.0]], 0.5)
_CTX2 = FlowContext(sched=LinearSchedule(), target=_GMM2)
_LIN = LinearSchedule()
_X2 = np.zeros((3, 2))

# name, whether the call takes a matrix (2) or a vector (1), and a call
# taking the array; every matrix call takes a (1, 2) array, every vector
# call a (1,) array
ARRAY_PARAMS = [
    ("means", 2, lambda v: Target(weights=[1.0], means=v, sigma=0.5)),
    ("weights", 1, lambda v: Target(weights=v, means=[[0.0, 0.0]], sigma=0.5)),
    ("mean", 1, lambda v: gaussian_target(mean=v, var=1.0)),
    ("means", 2, lambda v: mixture_target([1.0], v, 0.5)),
    ("points", 2, lambda v: point_cloud_target(v, 0.5)),
    ("x", 2, lambda v: posterior(_GMM2, _LIN, 0.5, v)),
    ("x", 2, lambda v: posterior_stats(_GMM2, _LIN, 0.5, v)),
    ("x", 2, lambda v: posterior_moments(_GMM2, _LIN, 0.5, v)),
    ("x", 2, lambda v: marginal_log_density(_GMM2, _LIN, 0.5, v)),
    ("x", 2, lambda v: denoiser(_GMM2, _LIN, 0.5, v)),
    ("x", 2, lambda v: score(_GMM2, _LIN, 0.5, v)),
    ("x", 2, lambda v: cond_cov(_GMM2, _LIN, 0.5, v)),
    ("x", 2, lambda v: velocity(_CTX2, 0.5, v)),
    ("x", 2, lambda v: velocity_jacobian(_CTX2, 0.5, v)),
    ("x", 2, lambda v: velocity_dt(_CTX2, 0.5, v)),
    ("x", 2, lambda v: integrate(_CTX2, v, 0.0, 1.0, 2)),
    ("x", 2, lambda v: integrate_augmented(_CTX2, v, 0.0, 1.0, 2)),
    ("init_logdens", 1, lambda v: integrate_augmented(
        _CTX2, _X2, 0.0, 1.0, 2, with_logdensity=True, init_logdens=v)),
    ("points", 2, lambda v: ParticleCloud(points=v)),
    ("a", 2, lambda v: w2(v, _CLOUD)),
    ("b", 2, lambda v: w2(_CLOUD, v, method="sliced")),
    ("xs", 1, lambda v: linear_fit(v, [0.0, 1.0, 2.0])),
    ("ys", 1, lambda v: linear_fit([0.0, 1.0, 2.0], v)),
]
ARRAY_IDS = ["Target.means", "Target.weights", "gaussian.mean", "mixture.means",
             "point_cloud.points", "posterior", "posterior_stats",
             "posterior_moments", "marginal_log_density", "denoiser", "score", "cond_cov",
             "velocity", "velocity_jacobian", "velocity_dt", "integrate",
             "integrate_augmented", "init_logdens", "ParticleCloud", "w2.a", "w2.b",
             "linear_fit.xs", "linear_fit.ys"]

# each bad array as (matrix form, vector form), and the error it raises
BAD_ARRAYS = [
    (([[0.0, 0.0], [1.0]], [[0.0], [1.0, 1.0]]), InvalidParamError),
    ((np.array([[0.0, 0.0], [1.0]], dtype=object),
      np.array([[0.0], [1.0, 1.0]], dtype=object)), InvalidParamError),
    (([["0.5", "0.5"]], ["1.0"]), InvalidParamError),
    (([[True, False]], [True]), InvalidParamError),
    ((np.zeros((3, 0)), np.zeros(0)), SizeMismatchError),
    (([[math.nan, 0.0]], [math.nan]), NonFiniteError),
]
BAD_ARRAY_IDS = ["ragged", "ragged-object", "str", "bool", "zero-width", "nan"]


@pytest.mark.parametrize("forms, error", BAD_ARRAYS, ids=BAD_ARRAY_IDS)
@pytest.mark.parametrize("name, ndim, call", ARRAY_PARAMS, ids=ARRAY_IDS)
def test_bad_array_names_the_parameter(name, ndim, call, forms, error):
    assert issubclass(error, GifLabError)
    with pytest.raises(error, match=rf"\b{name}\b"):
        call(forms[2 - ndim])


@pytest.mark.parametrize("make", [
    lambda m: Target(weights=[0.5, 0.5], means=m, sigma=0.5),
    lambda m: mixture_target([0.5, 0.5], m, 0.5),
    lambda m: point_cloud_target(m, 0.5),
], ids=["Target", "mixture", "point_cloud"])
def test_target_copies_the_callers_means(make):
    m = np.array([[0.0, 0.0], [1.0, 1.0]])
    target = make(m)
    assert m.flags.writeable
    m[0, 0] = 5.0
    assert target.means[0, 0] == 0.0
    assert not target.means.flags.writeable


def test_integer_arrays_pass():
    assert mixture_target([1, 0], [[0, 1], [2, 3]], 0.5).means.tolist() == [[0.0, 1.0],
                                                                           [2.0, 3.0]]
    assert ParticleCloud(points=np.array([[1, 2]], dtype=np.int32)).points.dtype == float
