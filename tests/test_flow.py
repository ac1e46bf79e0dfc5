"""Velocity field and ODE transport against closed-form and FD oracles."""

from __future__ import annotations

import io
import math
import warnings

import numpy as np
import pytest

from gif_lab.errors import (
    DegenerateTimeError,
    InvalidParamError,
    NonFiniteStateError,
    OutOfRangeError,
    SizeMismatchError,
)
from gif_lab.experiments import moderate_gmm4, paper_gmm8
from gif_lab.flow import (
    FlowContext,
    Trajectory,
    _augmented_state,
    _bind_augmented_rates,
    _bind_rates,
    _bind_tangent_rates,
    _rk4,
    _stage_times,
    _table,
    integrate,
    integrate_augmented,
    velocity,
    velocity_dt,
    velocity_jacobian,
)
from gif_lab.metrics import sample_source
from gif_lab.schedules import (
    FollmerSchedule,
    LinearSchedule,
    ShiftedLinearSchedule,
    TrigSchedule,
    VESchedule,
    VPSchedule,
)
from gif_lab.targets import (
    _rows,
    _Workspace,
    denoiser,
    gaussian_target,
    marginal_log_density,
    mixture_target,
    score,
)

from oracles import (
    central_diff,
    gaussian_flow_logdet,
    gaussian_flow_state,
    jacobian_fd,
)


def _gmm8():
    angles = [2.0 * (j - 1) * math.pi / 8.0 for j in range(1, 9)]
    means = [[12.0 * math.sin(a), 12.0 * math.cos(a)] for a in angles]
    return mixture_target(weights=[1.0 / 8] * 8, means=means, sigma=0.03)


@pytest.fixture
def gmm2_ctx():
    target = mixture_target(weights=[0.3, 0.7], means=[[-2.0, 0.0], [2.0, 1.0]],
                            sigma=0.5)
    return FlowContext(sched=LinearSchedule(), target=target)


@pytest.fixture
def gauss_ctx():
    return FlowContext(sched=LinearSchedule(),
                       target=gaussian_target(mean=[0.3, -0.2], var=0.64))


class TestVelocity:
    def test_gaussian_closed_form(self):
        target = gaussian_target(mean=[0.3, -0.2], var=0.64)
        for sched in [LinearSchedule(), TrigSchedule(), VESchedule(sigma_max=2.0),
                      VPSchedule(alpha0=0.8, p=1.0), FollmerSchedule()]:
            ctx = FlowContext(sched=sched, target=target)
            for t in [0.0, 0.3, 0.8, 1.0]:
                p = sched.eval(t)
                c2 = p.a ** 2 + 0.64 * p.b ** 2
                dc_over_c = (sched.da_a(t) + 0.64 * sched.db_b(t)) / c2
                x = np.array([0.9, 1.4])
                m = np.asarray(target.means[0])
                expect = p.db * m + dc_over_c * (x - p.b * m)
                got = velocity(ctx, t, x)
                assert got == pytest.approx(expect, abs=1e-10), (sched.describe(), t)

    def test_follmer_fixes_standard_normal(self):
        ctx = FlowContext(sched=FollmerSchedule(),
                          target=gaussian_target(mean=[0.0, 0.0], var=1.0))
        rng = np.random.default_rng(3)
        xs = rng.normal(size=(32, 2)) * 1.5
        for t in [0.0, 0.25, 0.5, 0.9, 0.999, 1.0]:
            v = velocity(ctx, t, xs)
            assert np.max(np.abs(v)) <= 1e-10

    def test_score_and_denoiser_forms_agree(self):
        ctx = FlowContext(sched=LinearSchedule(), target=_gmm8())
        t = 0.5
        p = ctx.sched.eval(t)
        rng = np.random.default_rng(5)
        comp = rng.integers(0, 8, size=16)
        xs = p.b * np.asarray(ctx.target.means)[comp] \
            + math.sqrt(p.a ** 2 + p.b ** 2 * 0.03 ** 2) * rng.normal(size=(16, 2))
        got = velocity(ctx, t, xs)
        ra = p.da / p.a
        alt = ra * xs + (p.db - ra * p.b) * denoiser(ctx.target, ctx.sched, t, xs)
        assert np.max(np.abs(got - alt)) <= 1e-12 * (1.0 + np.max(np.abs(got)))

    def test_batch_matches_single(self, gmm2_ctx):
        xs = np.array([[0.1, 0.2], [2.0, -1.0], [0.0, 0.0]])
        batch = velocity(gmm2_ctx, 0.4, xs)
        for i, x in enumerate(xs):
            assert batch[i] == pytest.approx(velocity(gmm2_ctx, 0.4, x))

    def test_time_domain(self, gmm2_ctx):
        with pytest.raises(OutOfRangeError):
            velocity(gmm2_ctx, -0.1, np.zeros(2))
        with pytest.raises(OutOfRangeError):
            velocity(gmm2_ctx, 1.1, np.zeros(2))

    def test_early_stop_blocks_terminal_time(self):
        target = mixture_target(weights=[1.0], means=[[0.0, 0.0]], sigma=0.5)
        ctx = FlowContext(sched=LinearSchedule(), target=target, early_stop=0.1)
        velocity(ctx, 0.9, np.zeros(2))
        with pytest.raises(DegenerateTimeError):
            velocity(ctx, 0.95, np.zeros(2))

    def test_bad_early_stop(self):
        target = gaussian_target(mean=[0.0], var=1.0)
        with pytest.raises(InvalidParamError):
            FlowContext(sched=LinearSchedule(), target=target, early_stop=0.7)


SIX_FAMILIES = [LinearSchedule(), ShiftedLinearSchedule(zeta=0.2), FollmerSchedule(),
                TrigSchedule(), VESchedule(sigma_max=2.0), VPSchedule(alpha0=0.8, p=2.0)]


def _gmm4():
    means = [[2.0, 0.0], [0.0, 2.0], [-2.0, 0.0], [0.0, -2.0]]
    return mixture_target(weights=[0.25] * 4, means=means, sigma=0.5)


def _gmm_d3k5():
    """Three dimensions, five components: a cloud whose axes were swapped
    inside the engine cannot pass for the right one."""
    means = [[1.0, 0.0, 0.0], [0.0, 1.5, 0.0], [0.0, 0.0, -1.0], [-1.0, -1.0, 1.0],
             [0.5, 0.5, 0.5]]
    return mixture_target(weights=[0.3, 0.2, 0.2, 0.15, 0.15], means=means, sigma=0.3)


def _close(got, want, rel):
    return float(np.max(np.abs(got - want))) <= rel * max(1.0, float(np.max(np.abs(want))))


class TestEngineTable:
    """The integrators' per-stage coefficients against the public field."""

    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    @pytest.mark.parametrize("target", [gaussian_target(mean=[0.3, -0.2], var=0.64),
                                        _gmm4(), _gmm_d3k5()], ids=["gaussian", "gmm4", "d3k5"])
    @pytest.mark.parametrize("sched", SIX_FAMILIES, ids=lambda s: s.describe())
    def test_stage_rates_match_public_velocity(self, sched, target, direction):
        ctx = FlowContext(sched=sched, target=target)
        d = target.dim
        x = np.random.default_rng(4).normal(size=(6, d)) * 2.0
        clock = _stage_times(0.0, 1.0, 8)
        sign = -1.0 if direction == "reverse" else 1.0
        t_phys = 1.0 - clock if direction == "reverse" else clock
        assert {0.0, 1.0} <= set(t_phys.tolist())
        tab = _table(ctx, t_phys, sign)
        pack = _augmented_state(x, np.zeros(6))
        # the engine's states are particles-last: a cloud is (d, n), the
        # augmented pack (d + d^2 + 1, n) with J's rows after x
        augmented_rate = _bind_augmented_rates(target, tab, pack.shape)
        cloud_rate = _bind_rates(target, tab, x.T.shape)
        for k, t in enumerate(t_phys):
            want_v = sign * velocity(ctx, t, x)
            want_g = sign * velocity_jacobian(ctx, t, x)
            rates = augmented_rate(k, pack)
            v, dj, dl = rates[:d], _rows(rates[d:-1]).reshape(6, d, d), rates[-1]
            assert _close(cloud_rate(k, x.T).T, want_v, 1e-12), t
            assert _close(v.T, want_v, 1e-12), t
            assert _close(dj, want_g, 1e-12), t
            assert _close(dl, -np.trace(want_g, axis1=1, axis2=2), 1e-12), t

    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    @pytest.mark.parametrize("target", [
        gaussian_target(mean=[0.3, -0.2], var=0.64),
        mixture_target(weights=[0.3, 0.7], means=[[-2.0, 0.0], [2.0, 1.0]], sigma=0.5),
        _gmm8(), _gmm_d3k5()], ids=["k1", "k2", "k8", "d3k5"])
    @pytest.mark.parametrize("sched", SIX_FAMILIES, ids=lambda s: s.describe())
    def test_tangent_rate_is_jacobian_times_tangent(self, sched, target, direction):
        # the (x, w) kind never forms grad v; it must still give grad v . w,
        # and the same velocity as the (x,) kind bit for bit
        ctx = FlowContext(sched=sched, target=target)
        rng = np.random.default_rng(8)
        x = np.concatenate([2.0 * rng.normal(size=(4, target.dim)), target.means[:2] + 0.1])
        w = rng.normal(size=x.shape)
        clock = _stage_times(0.0, 1.0, 8)
        sign = -1.0 if direction == "reverse" else 1.0
        t_phys = 1.0 - clock if direction == "reverse" else clock
        assert {0.0, 1.0} <= set(t_phys.tolist())
        tab = _table(ctx, t_phys, sign)
        state = np.stack([x.T, w.T])
        tangent_rate = _bind_tangent_rates(target, tab, state.shape)
        cloud_rate = _bind_rates(target, tab, x.T.shape)
        for k, t in enumerate(t_phys):
            v, dw = tangent_rate(k, state)
            want = sign * np.einsum("nij,nj->ni", velocity_jacobian(ctx, t, x), w)
            assert np.array_equal(v, cloud_rate(k, x.T)), t
            assert np.all(np.abs(dw.T - want) <= 1e-12 * np.max(np.abs(want))), t

    @pytest.mark.parametrize("kind", ["x", "xw"])
    @pytest.mark.parametrize("target", [
        gaussian_target(mean=[0.3, -0.2], var=0.64),
        mixture_target(weights=[0.3, 0.7], means=[[-2.0, 0.0], [2.0, 1.0]], sigma=0.5),
        _gmm8(), _gmm_d3k5()], ids=["k1", "k2", "k8", "d3k5"])
    @pytest.mark.parametrize("sched", SIX_FAMILIES, ids=lambda s: s.describe())
    def test_grouped_rates_match_2d_calls(self, sched, target, kind):
        # a (K, G) table gives (G, 1, 1) coefficients at entry k; the rates
        # of a (G, d, M) state are those of G 2-D calls, bit for bit, also
        # for points whose shifted logits fall below the masked-exp floor
        ctx = FlowContext(sched=sched, target=target)
        clocks = np.stack([_stage_times(0.0, end, 16) for end in (0.4, 0.9, 1.0)], axis=1)
        tab = _table(ctx, clocks)
        rng = np.random.default_rng(12)
        x = 6.0 * rng.normal(size=(3, 7, target.dim))
        x[:, :2] = target.means[:2] + 0.05
        x = np.ascontiguousarray(x.swapaxes(1, 2))  # particles-last (G, d, M)
        if kind == "xw":  # (G, 2, d, M): path, then tangent
            state, bind = np.stack([x, rng.normal(size=x.shape)], axis=1), _bind_tangent_rates
        else:
            state, bind = x, _bind_rates
        grouped = bind(target, tab, state.shape)
        ungrouped = [bind(target, _table(ctx, clocks[:, g]), state[g].shape) for g in range(3)]
        # a state of the first group alone keeps its group axis, of length one
        first = bind(target, tab, state[:1].shape)
        for k in range(clocks.shape[0]):
            assert tab.alpha[k].shape == (3, 1, 1)
            got = grouped(k, state)
            for g in range(3):
                assert np.array_equal(got[g], ungrouped[g](k, state[g])), (k, g)
            alone = first(k, state[:1])
            assert alone.shape == state[:1].shape and np.array_equal(alone[0], got[0]), k

    @pytest.mark.parametrize("target", [gaussian_target(mean=[0.3, -0.2], var=0.64),
                                        _gmm4()], ids=["gaussian", "gmm4"])
    @pytest.mark.parametrize("sched", SIX_FAMILIES, ids=lambda s: s.describe())
    def test_one_formula_matches_score_and_denoiser_forms(self, sched, target):
        # the two dressings the one formula replaced: the posterior-mean form
        # divides by a_t (t < 1), the score form by b_t (b_t > 0)
        ctx = FlowContext(sched=sched, target=target)
        x = np.random.default_rng(5).normal(size=(6, 2)) * 2.0
        for t in np.linspace(0.0, 1.0, 17):
            p = sched.eval(t)
            got = velocity(ctx, t, x)
            if p.a > 0.0:
                ra = p.da / p.a
                alt = ra * x + (p.db - ra * p.b) * denoiser(target, sched, t, x)
                assert _close(got, alt, 1e-12), (t, "denoiser")
            if p.b > 0.0:
                rb = p.db / p.b
                alt = rb * x + (rb * p.a ** 2 - sched.da_a(t)) * score(target, sched, t, x)
                assert _close(got, alt, 1e-12), (t, "score")


def _arrays(out):
    """The arrays a public engine call returned, for bit comparisons."""
    if isinstance(out, Trajectory):
        return [a for a in (out.times, out.states, out.jac, out.logdens) if a is not None]
    return [out]


class TestEngineLeavesInputs:
    """The in-place stage arithmetic never writes into a caller's array, and
    a read-only input gives the same bits as a writable one."""

    @pytest.mark.parametrize("single", [False, True], ids=["cloud", "point"])
    def test_public_calls(self, single):
        ctx = FlowContext(sched=TrigSchedule(), target=_gmm_d3k5())
        x0 = np.random.default_rng(33).normal(size=(9, 3))
        if single:
            x0 = x0[0].copy()
        ld0 = np.linspace(-1.0, 1.0, 1 if single else 9)
        calls = [
            lambda x, ld: integrate(ctx, x, 0.0, 1.0, 16),
            lambda x, ld: integrate(ctx, x, 0.0, 1.0, 16, direction="reverse",
                                    record="final"),
            lambda x, ld: integrate_augmented(ctx, x, 0.0, 1.0, 16, with_logdensity=True,
                                              init_logdens=ld),
            lambda x, ld: velocity(ctx, 0.4, x),
            lambda x, ld: velocity_jacobian(ctx, 0.4, x),
            lambda x, ld: velocity_dt(ctx, 0.4, x),
        ]
        keep, keep_ld = x0.copy(), ld0.copy()
        want = [_arrays(call(x0, ld0)) for call in calls]
        assert np.array_equal(x0, keep) and np.array_equal(ld0, keep_ld)
        x0.setflags(write=False)
        ld0.setflags(write=False)
        for call, arrays in zip(calls, want):
            got = _arrays(call(x0, ld0))
            assert all(np.array_equal(a, b) for a, b in zip(got, arrays))
            assert all(a.ndim < 2 or a.flags["C_CONTIGUOUS"] for a in got)


def _poison(shape, stage, where):
    """A synthetic rate: zero, except a NaN at index where in the rate of
    the given stage, so only that block of the state turns non-finite."""

    def rate(k, state):
        assert state.shape == shape
        out = np.zeros(shape)
        if k == stage:
            out[where] = np.nan
        return out

    return rate


class TestEngineChecksEveryBlock:
    """_rk4 checks its one state array whole: a non-finite entry in any
    block is caught at the step that made it."""

    def test_tangent_block_of_one_group(self):
        # (G, 2, d, m): only group 1's tangent block goes non-finite, at the
        # midpoint stage of step 3; the error names that group and gives the
        # end of step 3 on that group's own clock
        ends, names = (1.0, 0.8, 0.5), ["steps=8 entry", "steps=16 entry", "steps=32 entry"]
        clock = np.stack([_stage_times(0.0, end, 8) for end in ends], axis=1)
        shape = (3, 2, 2, 5)
        rate = _poison(shape, 2 * 3 + 1, (1, 1, 0, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with pytest.raises(NonFiniteStateError) as err:
                _rk4(rate, np.ones(shape), clock[:, :, None, None, None], range(8), names=names)
        assert err.value.step == 3
        msg = str(err.value)
        assert "step 3 of the steps=16 entry" in msg
        assert f"(integrator time {float(clock[8, 1])!r})" in msg
        assert float(clock[8, 1]) == pytest.approx(0.4)

    @pytest.mark.parametrize("stage", [5, 6], ids=["mid", "end"])
    def test_log_density_row_of_a_pack(self, stage):
        # (d + d^2 + 1, n) at d = 2: only the log-density row, the last,
        # goes non-finite, in step 2, from its midpoint or its end stage
        clock = _stage_times(0.0, 1.0, 4)
        shape = (2 + 4 + 1, 3)
        with pytest.raises(NonFiniteStateError) as err:
            _rk4(_poison(shape, stage, (6, 1)), np.ones(shape), clock, range(4))
        assert err.value.step == 2
        assert f"step 2 (integrator time {float(clock[6])!r})" in str(err.value)

    def test_finite_state_whose_sum_overflows_passes(self):
        # the finite sum is only a shortcut: entries near the float maximum
        # sum to inf but are finite, and the step goes through
        state = np.full((7, 3), 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            path = _rk4(_poison(state.shape, -1, 0), state, _stage_times(0.0, 1.0, 2), range(2))
        assert np.array_equal(path[-1], state)



def _kept_arrays(rate):
    """Every array a bound rate keeps from call to call: the arrays in its
    closure (table columns, scratch) and the buffers of its kernel
    workspace, with the number of workspaces found."""
    arrays, workspaces = [], 0
    for cell in rate.__closure__ or ():
        obj = cell.cell_contents
        if isinstance(obj, _Workspace):
            workspaces += 1
            arrays += [v for v in vars(obj).values() if isinstance(v, np.ndarray)]
        elif isinstance(obj, np.ndarray):
            arrays.append(obj)
    return arrays, workspaces


class TestBoundRateBuffers:
    """A bound rate reuses only its scratch: every call returns a new array
    that shares memory with nothing else, and no call's scratch leaks into
    the next call's numbers."""

    @pytest.mark.parametrize("target", [gaussian_target(mean=[0.3, -0.2, 0.1], var=0.64),
                                        _gmm_d3k5()], ids=["k1", "d3k5"])
    @pytest.mark.parametrize("kind", ["cloud", "tangent", "augmented"])
    def test_outputs_own_their_memory(self, kind, target):
        ctx = FlowContext(sched=TrigSchedule(), target=target)
        rng = np.random.default_rng(21)
        d = target.dim
        if kind == "cloud":  # (d, n)
            bind, tab = _bind_rates, _table(ctx, _stage_times(0.0, 1.0, 8))
            states = [rng.normal(size=(d, 5)) for _ in range(2)]
        elif kind == "tangent":  # grouped (G, 2, d, m) on three stage clocks
            clocks = np.stack([_stage_times(0.0, end, 8) for end in (0.5, 0.8, 1.0)], axis=1)
            bind, tab = _bind_tangent_rates, _table(ctx, clocks)
            states = [rng.normal(size=(3, 2, d, 4)) for _ in range(2)]
        else:  # (d + d^2 + 1, n): x, the rows of J, the log-density
            bind, tab = _bind_augmented_rates, _table(ctx, _stage_times(0.0, 1.0, 8))
            states = [_augmented_state(rng.normal(size=(6, d)), rng.normal(size=6))
                      for _ in range(2)]
            states[1][d:-1] += rng.normal(size=(d * d, 6))
        state, other = states
        rate = bind(target, tab, state.shape)
        kept = state.copy(), other.copy()
        outs = [rate(3, state), rate(10, other), rate(3, state)]
        kept_arrays, workspaces = _kept_arrays(rate)
        # only the one-component tangent rate skips the kernel and its scratch
        assert workspaces == (kind != "tangent" or target.n_components > 1)
        for i, out in enumerate(outs):
            assert out.shape == state.shape
            assert not np.shares_memory(out, state) and not np.shares_memory(out, other)
            assert not any(np.shares_memory(out, arr) for arr in kept_arrays), i
            assert not any(np.shares_memory(out, outs[j]) for j in range(i))
        # the inputs are untouched, and the third call repeats the first bit for bit
        assert np.array_equal(state, kept[0]) and np.array_equal(other, kept[1])
        assert outs[2].tobytes() == outs[0].tobytes()
        assert outs[1].tobytes() != outs[0].tobytes()

class TestVelocityJacobian:
    def test_matches_fd(self, gmm2_ctx):
        for t in [0.0, 0.35, 0.7, 1.0]:
            for x in [np.array([0.2, 0.1]), np.array([1.5, 0.8])]:
                J = velocity_jacobian(gmm2_ctx, t, x)
                J_fd = jacobian_fd(lambda y: velocity(gmm2_ctx, t, y), x, h=1e-6)
                assert J == pytest.approx(J_fd, abs=2e-6)
                assert J == pytest.approx(J.T, abs=1e-12)

    def test_gaussian_exact_scalar_matrix(self, gauss_ctx):
        beta = 1.0 / 0.64
        sched = gauss_ctx.sched
        for t in [0.0, 0.2, 0.5, 0.9, 1.0]:
            p = sched.eval(t)
            g = (beta * sched.da_a(t) + sched.db_b(t)) / (beta * p.a ** 2 + p.b ** 2)
            J = velocity_jacobian(gauss_ctx, t, np.array([0.4, -1.0]))
            assert J == pytest.approx(g * np.eye(2), abs=1e-12 * max(1.0, abs(g)))

    def test_batch_shape(self, gmm2_ctx):
        xs = np.zeros((5, 2))
        J = velocity_jacobian(gmm2_ctx, 0.5, xs)
        assert J.shape == (5, 2, 2)


class TestVelocityDt:
    def test_matches_fd_in_time(self, gmm2_ctx):
        for t in [0.3, 0.5, 0.75]:
            for x in [np.array([0.4, 0.2]), np.array([-1.0, 0.6])]:
                got = velocity_dt(gmm2_ctx, t, x)
                fd = np.array([
                    central_diff(lambda u: velocity(gmm2_ctx, u, x)[i], t, h=1e-5)
                    for i in range(2)
                ])
                assert got == pytest.approx(fd, abs=2e-5, rel=2e-5)

    @pytest.mark.parametrize("sched", [
        LinearSchedule(), TrigSchedule(), FollmerSchedule(), VPSchedule(alpha0=0.8, p=2.0),
        VPSchedule(alpha0=0.9, p=1.0), VESchedule(sigma_max=2.0),
        ShiftedLinearSchedule(zeta=0.2)], ids=lambda s: s.describe())
    def test_matches_richardson_fd_near_one(self, sched):
        # a step h = 1e-4 (1 - t) keeps the stencil inside (0, 1); the
        # Richardson combination cancels the h^2 error of central differences
        rng = np.random.default_rng(71)
        for target in (_gmm8(), moderate_gmm4(), gaussian_target(mean=[0.4, -0.2], var=0.49)):
            ctx = FlowContext(sched=sched, target=target)
            for t in (0.99, 0.999, 0.9999):
                x, h = 2.0 * rng.normal(size=(4, 2)), 1e-4 * (1.0 - t)

                def cd(h):
                    return (velocity(ctx, t + h, x) - velocity(ctx, t - h, x)) / (2.0 * h)

                ref = (4.0 * cd(0.5 * h) - cd(h)) / 3.0
                err = np.max(np.abs(velocity_dt(ctx, t, x) - ref), axis=1)
                tol = 1e-6 * np.maximum(1.0, np.max(np.abs(ref), axis=1))
                assert np.all(err <= tol), (target.n_components, t, err / tol)

    def test_rejects_endpoints(self, gmm2_ctx):
        for t in [0.0, 1.0]:
            with pytest.raises((OutOfRangeError, DegenerateTimeError)):
                velocity_dt(gmm2_ctx, t, np.zeros(2))


class TestIntegrate:
    def test_gaussian_transport_matches_affine_law(self):
        target = gaussian_target(mean=[0.3, -0.2], var=0.64)
        x0 = np.array([1.2, -0.7])
        for sched in [LinearSchedule(), FollmerSchedule(), TrigSchedule(),
                      VESchedule(sigma_max=2.0), VPSchedule(alpha0=0.8, p=1.0)]:
            ctx = FlowContext(sched=sched, target=target)
            traj = integrate(ctx, x0, 0.0, 1.0, steps=256)
            expect = gaussian_flow_state([0.3, -0.2], 0.64, sched, 0.0, 1.0, x0)
            err = np.linalg.norm(traj.final_state - expect)
            assert err <= 1e-6 * (1.0 + np.linalg.norm(expect)), sched.describe()

    def test_partial_interval(self):
        target = gaussian_target(mean=[1.0, 1.0], var=0.25)
        ctx = FlowContext(sched=TrigSchedule(), target=target)
        x0 = np.array([0.5, -0.5])
        traj = integrate(ctx, x0, 0.2, 0.7, steps=200)
        expect = gaussian_flow_state([1.0, 1.0], 0.25, ctx.sched, 0.2, 0.7, x0)
        assert traj.final_state == pytest.approx(expect, abs=1e-7)

    def test_forward_then_reverse_round_trip(self, gmm2_ctx):
        rng = np.random.default_rng(9)
        x0 = rng.normal(size=(8, 2))
        fwd = integrate(gmm2_ctx, x0, 0.0, 1.0, steps=256)
        back = integrate(gmm2_ctx, fwd.final_state, 0.0, 1.0, steps=256,
                         direction="reverse")
        assert np.max(np.linalg.norm(back.final_state - x0, axis=1)) <= 1e-4

    def test_record_final_matches_all(self, gmm2_ctx):
        x0 = np.array([0.3, 0.3])
        full = integrate(gmm2_ctx, x0, 0.0, 1.0, steps=64)
        last = integrate(gmm2_ctx, x0, 0.0, 1.0, steps=64, record="final")
        assert last.states.shape[0] == 2
        assert last.final_state == pytest.approx(full.final_state, abs=0.0)

    def test_blowup_reports_step_index(self, gmm2_ctx):
        # a start point at the edge of the float range overflows in step 0
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteStateError) as err:
                integrate(gmm2_ctx, np.array([1e308, 0.0]), 0.0, 1.0, steps=8)
        assert err.value.step >= 0

    def test_argument_validation(self, gmm2_ctx):
        with pytest.raises(OutOfRangeError):
            integrate(gmm2_ctx, np.zeros(2), 0.8, 0.2, steps=16)
        with pytest.raises(InvalidParamError):
            integrate(gmm2_ctx, np.zeros(2), 0.0, 1.0, steps=0)
        with pytest.raises(InvalidParamError):
            integrate(gmm2_ctx, np.zeros(2), 0.0, 1.0, steps=16, direction="sideways")
        with pytest.raises(SizeMismatchError):
            integrate(gmm2_ctx, np.zeros(3), 0.0, 1.0, steps=16)

    @pytest.mark.parametrize("call, error, match", [
        (lambda ctx: integrate(ctx, np.zeros(1), 0.1, 0.5, 4, record="some"),
         InvalidParamError, r"^record must be all or final, got 'some'$"),
        (lambda ctx: integrate(ctx, np.zeros(1), 0.05, 0.5, 4, direction="reverse"),
         OutOfRangeError, r"^reverse span must lie in \[0\.1, 1\], got \[0\.05, 0\.5\]$"),
        (lambda ctx: integrate(ctx, np.zeros(1), 0.1, 0.5, 4).final_jacobian,
         InvalidParamError, r"^trajectory was integrated without a Jacobian$"),
        (lambda ctx: integrate_augmented(ctx, np.zeros(1), 0.1, 0.5, 4).final_logdens,
         InvalidParamError, r"^trajectory was integrated without log-density$"),
    ], ids=["record", "reverse-below-early-stop", "final-jacobian", "final-logdens"])
    def test_rejected_call_names_the_reason(self, call, error, match):
        ctx = FlowContext(sched=LinearSchedule(), target=gaussian_target(mean=[0.0], var=1.0),
                          early_stop=0.1)
        with pytest.raises(error, match=match):
            call(ctx)

    def test_early_stop_caps_forward_interval(self):
        target = gaussian_target(mean=[0.0], var=1.0)
        ctx = FlowContext(sched=LinearSchedule(), target=target, early_stop=0.05)
        integrate(ctx, np.zeros(1), 0.0, 0.95, steps=8)
        with pytest.raises(OutOfRangeError):
            integrate(ctx, np.zeros(1), 0.0, 1.0, steps=8)


class TestIntegrateAugmented:
    def test_gaussian_jacobian_and_logdet(self):
        target = gaussian_target(mean=[0.5, 0.5], var=0.49)
        ctx = FlowContext(sched=LinearSchedule(), target=target)
        x0 = np.array([0.1, 0.9])
        traj = integrate_augmented(ctx, x0, 0.0, 1.0, steps=256,
                                   with_logdensity=True, init_logdens=0.0)
        scale = math.exp(gaussian_flow_logdet([0.5, 0.5], 0.49, ctx.sched,
                                              0.0, 1.0, 2) / 2)
        assert traj.final_jacobian == pytest.approx(scale * np.eye(2), abs=1e-7)
        expect_logdens = -gaussian_flow_logdet([0.5, 0.5], 0.49, ctx.sched, 0.0, 1.0, 2)
        assert traj.final_logdens == pytest.approx(expect_logdens, abs=1e-7)

    @pytest.mark.parametrize("x0", [[0.4, -0.1], [0.4, -0.1, 0.3]], ids=["gmm2", "d3k5"])
    def test_jacobian_matches_flow_map_fd(self, gmm2_ctx, x0):
        ctx = gmm2_ctx if len(x0) == 2 else FlowContext(sched=LinearSchedule(),
                                                         target=_gmm_d3k5())
        x0 = np.array(x0)
        traj = integrate_augmented(ctx, x0, 0.0, 0.8, steps=128)

        def flow_map(y):
            return integrate(ctx, y, 0.0, 0.8, steps=128, record="final").final_state

        J_fd = jacobian_fd(flow_map, x0, h=1e-6)
        assert traj.final_jacobian == pytest.approx(J_fd, abs=5e-6)

    def test_density_transport_identity(self, gmm2_ctx):
        # log p_1(X_1) = log p_0(x_0) - log det J_{0->1}
        rng = np.random.default_rng(12)
        x0 = rng.normal(size=(16, 2))
        ld0 = marginal_log_density(gmm2_ctx.target, gmm2_ctx.sched, 0.0, x0)
        traj = integrate_augmented(gmm2_ctx, x0, 0.0, 1.0, steps=1024,
                                   with_logdensity=True, init_logdens=ld0)
        ld1 = marginal_log_density(gmm2_ctx.target, gmm2_ctx.sched, 1.0,
                                   traj.final_state)
        sign, logdet = np.linalg.slogdet(traj.final_jacobian)
        assert np.all(sign > 0)
        assert traj.final_logdens == pytest.approx(ld0 - logdet, abs=1e-6)
        assert np.quantile(np.abs(traj.final_logdens - ld1), 0.9) <= 1e-3

    def test_density_identity_on_paper_gmm8(self):
        # the carried log-density meets log p_1 at every particle up to the
        # RK4 error, which falls like steps^-4; no sampling floor enters
        target, sched = paper_gmm8(), LinearSchedule()
        ctx = FlowContext(sched=sched, target=target)
        x0 = sample_source(target, sched, 256, 7).points
        ld0 = marginal_log_density(target, sched, 0.0, x0)
        errs = []
        for steps in (256, 1024):
            traj = integrate_augmented(ctx, x0, 0.0, 1.0, steps, record="final",
                                       with_logdensity=True, init_logdens=ld0)
            ld1 = marginal_log_density(target, sched, 1.0, traj.final_state)
            errs.append(np.max(np.abs(traj.final_logdens - ld1)))
        assert errs[1] <= 1e-7
        assert math.log(errs[0] / errs[1], 4) == pytest.approx(4.0, abs=0.5)

    def test_reverse_jacobian_inverts_forward(self, gmm2_ctx):
        x0 = np.array([0.2, 0.6])
        fwd = integrate_augmented(gmm2_ctx, x0, 0.0, 1.0, steps=512)
        back = integrate_augmented(gmm2_ctx, fwd.final_state, 0.0, 1.0, steps=512,
                                   direction="reverse")
        prod = back.final_jacobian @ fwd.final_jacobian
        assert prod == pytest.approx(np.eye(2), abs=1e-4)

    def test_blowup_reports_step_index(self, gmm2_ctx):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteStateError) as err:
                integrate_augmented(gmm2_ctx, np.array([1e308, 0.0]), 0.0, 1.0, steps=8,
                                    with_logdensity=True)
        assert err.value.step == 0
        assert "step 0" in str(err.value)

    def test_init_logdens_length_checked(self, gmm2_ctx):
        with pytest.raises(SizeMismatchError, match="2 entries.*3 points"):
            integrate_augmented(gmm2_ctx, np.zeros((3, 2)), 0.0, 1.0, 4,
                                with_logdensity=True, init_logdens=np.zeros(2))
        # a scalar still broadcasts over the batch
        traj = integrate_augmented(gmm2_ctx, np.zeros((3, 2)), 0.0, 1.0, 4,
                                   with_logdensity=True, init_logdens=1.5)
        assert traj.logdens[0] == pytest.approx([1.5] * 3, abs=0.0)


class TestTrajectoryCsv:
    def test_layout_and_determinism(self, gmm2_ctx):
        traj = integrate_augmented(gmm2_ctx, np.array([0.1, 0.2]), 0.0, 1.0, steps=4,
                                   with_logdensity=True, init_logdens=0.0)
        buf1, buf2 = io.StringIO(), io.StringIO()
        traj.write_csv(buf1)
        traj.write_csv(buf2)
        assert buf1.getvalue() == buf2.getvalue()
        lines = buf1.getvalue().strip().split("\n")
        assert lines[0] == "t,x_1,x_2,logdens,jac_11,jac_12,jac_21,jac_22"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == pytest.approx(0.1)

    def test_timestamp_header_optional(self, gmm2_ctx):
        traj = integrate(gmm2_ctx, np.zeros(2), 0.0, 1.0, steps=2)
        buf = io.StringIO()
        traj.write_csv(buf, timestamp="2026-01-01T00:00:00")
        assert buf.getvalue().startswith("# generated: 2026-01-01T00:00:00\n")

    def test_reverse_times_are_physical(self, gmm2_ctx):
        traj = integrate(gmm2_ctx, np.zeros(2), 0.0, 1.0, steps=2,
                         direction="reverse")
        buf = io.StringIO()
        traj.write_csv(buf)
        rows = buf.getvalue().strip().split("\n")[1:]
        ts = [float(r.split(",")[0]) for r in rows]
        assert ts == [1.0, 0.5, 0.0]
