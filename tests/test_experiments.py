"""Experiment runners: fixtures, determinism, bound checks, refinement orders.

Small configs only; the full-size benchmark configurations run in the
acceptance suite.
"""

from __future__ import annotations

import math
import os
import threading
import time

import numpy as np
import pytest

from gif_lab import experiments
from gif_lab.bounds import (RegularityProfile, endpoint_lipschitz, lipschitz_flow_map,
                            theta_profile)
from gif_lab.errors import (InvalidParamError, MissingFieldError, NonFiniteError,
                            NonFiniteStateError, OutOfRangeError, SizeMismatchError)
from gif_lab.experiments import (
    ExperimentConfig,
    ExperimentResult,
    _cloud_w2,
    _noise_growth,
    _subseed,
    moderate_gmm4,
    paper_gmm8,
    run_ag_check,
    run_autoencode,
    run_cycle,
    run_jacobian_envelope,
    run_source_perturbation,
    run_velocity_perturbation,
)
from gif_lab.flow import FlowContext, _stage_times, integrate, velocity
from gif_lab.metrics import (_W2_EXACT_CAP, NOISE_DOMAIN, sample_gaussian, sample_source,
                             sample_target, w2)
from gif_lab.schedules import (FollmerSchedule, LinearSchedule, ShiftedLinearSchedule,
                               TrigSchedule, VPSchedule)
from gif_lab.targets import gaussian_target, mixture_target

from oracles import (ag_residual_jacobian, ag_residual_per_entry, gaussian_cloud, noisy_rk4,
                     velocity_perturbation_per_eps)


def _gmm_d3k5():
    """Three dimensions, five components: a cloud whose axes were swapped
    inside the engine cannot pass for the right one."""
    means = [[1.0, 0.0, 0.0], [0.0, 1.5, 0.0], [0.0, 0.0, -1.0], [-1.0, -1.0, 1.0],
             [0.5, 0.5, 0.5]]
    return mixture_target(weights=[0.3, 0.2, 0.2, 0.15, 0.15], means=means, sigma=0.3)


@pytest.fixture
def small_gauss():
    return gaussian_target(mean=[0.0, 0.0], var=0.25)


@pytest.fixture
def gmm4():
    return moderate_gmm4()


class TestFixtureTargets:
    def test_paper_gmm8_geometry(self):
        t = paper_gmm8()
        assert t.n_components == 8
        assert t.weights == pytest.approx([0.125] * 8)
        assert t.sigma == 0.03
        assert np.linalg.norm(t.means, axis=1) == pytest.approx([12.0] * 8)
        # first mode sits at angle zero: 12 (sin 0, cos 0)
        assert t.means[0] == pytest.approx([0.0, 12.0])
        assert t.radius == pytest.approx(12.0, abs=1e-9)

    def test_moderate_gmm4_geometry(self):
        t = moderate_gmm4()
        assert t.n_components == 4
        assert t.sigma == 0.5
        assert sorted(np.linalg.norm(t.means, axis=1)) == pytest.approx([2.0] * 4)
        assert t.radius == pytest.approx(2.0, abs=1e-9)


class TestConfigValidation:
    def test_empty_grid_rejected(self, small_gauss):
        with pytest.raises(InvalidParamError):
            ExperimentConfig(target=small_gauss, sched=LinearSchedule(),
                             zeta_grid=())

    def test_unsorted_grid_rejected(self, small_gauss):
        with pytest.raises(InvalidParamError):
            ExperimentConfig(target=small_gauss, sched=LinearSchedule(),
                             zeta_grid=(0.2, 0.1))

    def test_small_n_rejected_for_w2_runs(self, small_gauss):
        cfg = ExperimentConfig(target=small_gauss, sched=LinearSchedule(),
                               n=50, steps=32, zeta_grid=(0.0, 0.1))
        with pytest.raises(InvalidParamError):
            run_source_perturbation(cfg)

    def test_zeta_grid_domain(self, small_gauss):
        cfg = ExperimentConfig(target=small_gauss, sched=LinearSchedule(),
                               n=128, steps=32, zeta_grid=(0.0, 0.4))
        with pytest.raises(InvalidParamError):
            run_source_perturbation(cfg)

    def test_missing_grid(self, small_gauss):
        cfg = ExperimentConfig(target=small_gauss, sched=LinearSchedule(), n=128)
        with pytest.raises(MissingFieldError):
            run_source_perturbation(cfg)

    @pytest.mark.parametrize("key, values", [
        ("zeta_grid", ("0.1", 0.2)), ("zeta_grid", (0.0, True)), ("eps_grid", (0.5, math.nan)),
        ("t_grid", (0.0, math.inf)), ("steps_grid", (True, 4)), ("steps_grid", (2, "4")),
        ("steps_grid", (8.0, 16)), ("steps_grid", (0, 8)), ("delta", ("0.1", 0.0)),
        ("delta", (True, 0.0)), ("delta", (math.nan, 0.0)),
    ])
    def test_entry_outside_the_scalar_rule_names_the_key(self, small_gauss, key, values):
        with pytest.raises(InvalidParamError, match=f"^{key} must be"):
            ExperimentConfig(target=small_gauss, sched=LinearSchedule(), **{key: values})

    @pytest.mark.parametrize("call, error, match", [
        (lambda cfg: ExperimentConfig(**cfg, delta=(0.1,)),
         SizeMismatchError, r"^delta has length 1, target dimension is 2$"),
        (lambda cfg: ExperimentConfig(**cfg, target2=gaussian_target(mean=[0.0], var=1.0)),
         SizeMismatchError, r"^target2 dimension differs from target$"),
        (lambda cfg: run_velocity_perturbation(ExperimentConfig(**cfg, eps_grid=(-0.5, 0.5))),
         InvalidParamError, r"^eps grid must be nonnegative, got \(-0\.5, 0\.5\)$"),
        (lambda cfg: run_ag_check(ExperimentConfig(**cfg, steps=12, delta=(0.1, 0.0))),
         InvalidParamError, r"^steps=12 is not a multiple of the quadrature node spacing$"),
        (lambda cfg: ExperimentResult("x", ("a", "b"), np.zeros((1, 2)), None).column("nope"),
         InvalidParamError, r"^no column 'nope' in \('a', 'b'\)$"),
    ], ids=["delta-length", "target2-dim", "negative-eps", "ag-check-steps", "column"])
    def test_inconsistent_input_names_the_reason(self, small_gauss, call, error, match):
        cfg = dict(target=small_gauss, sched=LinearSchedule(), n=128)
        with pytest.raises(error, match=match):
            call(cfg)

    def test_numpy_entries_are_stored_as_python_numbers(self, small_gauss):
        cfg = ExperimentConfig(target=small_gauss, sched=LinearSchedule(),
                               zeta_grid=np.array([0.0, 0.25]), steps_grid=np.array([8, 16]),
                               delta=np.array([0.5, -0.25], dtype=np.float32))
        assert cfg.zeta_grid == (0.0, 0.25) and cfg.steps_grid == (8, 16)
        assert cfg.delta == (0.5, -0.25)
        for v in cfg.zeta_grid + cfg.delta:
            assert type(v) is float
        assert all(type(v) is int for v in cfg.steps_grid)


def _cpus(monkeypatch, k: int) -> None:
    """Let the runners see k usable CPUs, as an affinity mask of k would."""
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: k)


class TestThreads:
    """Runners integrate serially; only the two sweeps' exact-W2 solves
    overlap, one thread per usable CPU.  Rows never depend on the count."""

    def test_usable_cpus_is_the_affinity_mask(self):
        assert experiments._usable_cpus() == len(os.sched_getaffinity(0))

    def test_usable_cpus_without_affinity_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert experiments._usable_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert experiments._usable_cpus() == 1

    def test_config_takes_no_worker_count(self, small_gauss):
        with pytest.raises(TypeError, match="threads"):
            ExperimentConfig(target=small_gauss, sched=LinearSchedule(), threads=2)

    def test_default_rows_match_serial_on_exact_w2(self, monkeypatch):
        base = dict(target=paper_gmm8(), sched=LinearSchedule(), n=128, steps=16, seed=4,
                    zeta_grid=(0.0, 0.1, 0.2, 0.3))
        _cpus(monkeypatch, 1)
        serial = run_source_perturbation(ExperimentConfig(**base))
        _cpus(monkeypatch, 3)
        pooled = run_source_perturbation(ExperimentConfig(**base))
        assert pooled.meta["w2_method"] == "exact"
        assert serial.meta["threads"] == 1 and pooled.meta["threads"] == 3
        assert np.array_equal(pooled.rows, serial.rows)
        assert pooled.fit == serial.fit

    @pytest.mark.parametrize("k", [1, 2])
    def test_meta_reports_the_workers_used(self, gmm4, monkeypatch, k):
        _cpus(monkeypatch, k)
        base = dict(target=gmm4, sched=LinearSchedule(), n=128, steps=8, seed=1)
        for res, grid_size in [
            (run_source_perturbation(ExperimentConfig(**base, zeta_grid=(0.0, 0.1, 0.2))), 3),
            (run_source_perturbation(ExperimentConfig(**base, zeta_grid=(0.1,))), 1),
            (run_velocity_perturbation(ExperimentConfig(**base, eps_grid=(0.5, 1.5))), 2),
            (run_velocity_perturbation(ExperimentConfig(**base, eps_grid=(0.5,))), 1),
        ]:
            assert res.meta["grid_size"] == grid_size
            assert res.meta["threads"] == min(k, grid_size), res.name

    def test_other_runners_use_no_pool(self, gmm4, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a runner other than the sweeps built a thread pool")

        _cpus(monkeypatch, 3)
        monkeypatch.setattr(experiments, "ThreadPoolExecutor", no_pool)
        base = dict(target=gmm4, sched=LinearSchedule(), n=32, steps=8, seed=1)
        runs = [
            run_autoencode(ExperimentConfig(**base, steps_grid=(4, 8))),
            run_cycle(ExperimentConfig(**base, steps_grid=(4, 8),
                                       target2=gaussian_target([0.0, 0.0], 1.0))),
            run_jacobian_envelope(ExperimentConfig(**base, t_grid=(0.2, 0.5, 0.8))),
            run_ag_check(ExperimentConfig(**{**base, "n": 4}, delta=(0.1, 0.0),
                                          steps_grid=(8, 16))),
        ]
        for res in runs:
            assert res.meta["grid_size"] > 1 and "threads" not in res.meta, res.name


class TestSourcePerturbation:
    @pytest.fixture
    def result(self):
        # a far-out mean keeps the zeta effect well above the sampling
        # floor; the grid starts above zero where the bound is informative
        target = gaussian_target(mean=(3.0, -2.0), var=0.25)
        cfg = ExperimentConfig(target=target, sched=LinearSchedule(),
                               n=256, steps=96, seed=11,
                               zeta_grid=(0.05, 0.1, 0.2, 0.3))
        return run_source_perturbation(cfg), cfg

    def test_row_count_matches_grid(self, result):
        res, cfg = result
        assert res.rows.shape[0] == len(cfg.zeta_grid)
        assert res.columns[:3] == ("zeta", "b0", "w2")

    def test_b0_column(self, result):
        res, _ = result
        zeta = res.rows[:, 0]
        assert res.rows[:, 1] == pytest.approx(zeta / (1.0 + zeta))

    def test_fit_has_positive_slope(self, result):
        res, _ = result
        assert res.fit is not None
        assert res.fit.slope > 0.0
        assert res.rows[-1, 2] > res.rows[0, 2]

    def test_gaussian_bound_holds(self, result):
        res, _ = result
        assert "bound_rhs" in res.columns
        rhs = res.rows[:, res.columns.index("bound_rhs")]
        w = res.rows[:, res.columns.index("w2")]
        assert np.all(w <= rhs)

    @staticmethod
    def _rows(target, seeds, zetas, **kw):
        """(w2, bound_rhs) of one run per seed, stacked."""
        runs = [run_source_perturbation(ExperimentConfig(
            target=target, sched=LinearSchedule(), seed=seed, zeta_grid=zetas, **kw))
            for seed in seeds]
        assert all(res.meta["bound_checked"] for res in runs)
        return (np.concatenate([res.column("w2") for res in runs]),
                np.concatenate([res.column("bound_rhs") for res in runs]))

    def test_bound_holds_over_seeds(self):
        # zeta = 0 and 0.005 sit on the sampling floor, where a bound with an
        # independent floor draw of its own fails
        w, rhs = self._rows(gaussian_target(mean=(0.8, -0.6), var=0.49), range(1000, 1010),
                            (0.0, 0.005, 0.01, 0.1), n=256, steps=32)
        assert np.all(w <= rhs), np.max(w / rhs)

    def test_bound_is_exact_at_zero_zeta(self, small_gauss):
        # b0 = 0 makes the stacked halves identical
        w, rhs = self._rows(small_gauss, (3, 4), (0.0, 0.2), n=128, steps=16)
        assert w[0] == rhs[0] and w[2] == rhs[2]
        assert w[1] < rhs[1] and w[3] < rhs[3]

    def test_bound_holds_with_early_stop(self):
        """L is the Lipschitz constant of the map from 0 to 1 - early_stop,
        which the run integrates; the 0 -> 1 constant understates it."""
        target = gaussian_target(mean=(0.8, -0.6), var=0.01)
        zetas = (0.0, 0.1, 0.3)
        w, rhs = self._rows(target, range(3), zetas, n=256, steps=32, early_stop=0.3)
        assert np.all(w <= rhs), np.max(w / rhs)
        # the same bound on the 0 -> 1 constant fails: rhs less what it drops
        prof = RegularityProfile.from_target(target)
        dropped = []
        for seed in range(3):
            x = sample_target(target, 256, _subseed(seed, 3)).points
            x_rms = math.sqrt(np.mean(np.sum(x * x, axis=1)))
            for sched in map(ShiftedLinearSchedule, zetas):
                lip = lipschitz_flow_map(theta_profile(prof, sched, "mixture"), 0.0, 0.7)
                c1 = endpoint_lipschitz(prof, sched, "forward", case="mixture")
                dropped.append((lip - c1) * sched.b0 * x_rms)
        assert np.any(w > rhs - np.array(dropped))

    def test_tiny_variance_gives_finite_bound(self):
        # var = 1e-6: a steep envelope, yet L and so the bound stay finite
        target = gaussian_target(mean=[0.0, 0.0], var=1e-6)
        w, rhs = self._rows(target, (0,), (0.0, 0.2), n=128, steps=64)
        assert np.all(np.isfinite(rhs)) and np.all(w <= rhs)

    def test_bit_reproducible(self, small_gauss):
        cfg = ExperimentConfig(target=small_gauss, sched=LinearSchedule(),
                               n=128, steps=48, seed=7, zeta_grid=(0.0, 0.15))
        r1 = run_source_perturbation(cfg)
        r2 = run_source_perturbation(cfg)
        assert np.array_equal(r1.rows, r2.rows)

    def test_thread_count_invariant(self, small_gauss, monkeypatch):
        cfg = ExperimentConfig(target=small_gauss, sched=LinearSchedule(), n=128,
                               steps=48, seed=7, zeta_grid=(0.0, 0.1, 0.2))
        _cpus(monkeypatch, 1)
        r1 = run_source_perturbation(cfg)
        _cpus(monkeypatch, 3)
        r2 = run_source_perturbation(cfg)
        assert np.array_equal(r1.rows, r2.rows)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("n, method", [(128, "exact"), (_W2_EXACT_CAP + 1, "sliced")])
    def test_meta_splits_integrate_and_w2_time(self, monkeypatch, n, method, k):
        """meta names the W2 estimator and the wall times of the integrate
        and W2 stages, which never sum past runtime_s, on a pool or not;
        the rows are plain integrate-then-W2 values."""
        target = paper_gmm8() if method == "exact" else gaussian_target([1.0, 0.0], 0.25)
        _cpus(monkeypatch, k)
        cfg = ExperimentConfig(target=target, sched=LinearSchedule(), n=n, steps=8,
                               seed=5, zeta_grid=(0.0, 0.2))
        res = run_source_perturbation(cfg)
        meta = res.meta
        assert meta["w2_method"] == method
        assert 0.0 < meta["integrate_s"] and 0.0 < meta["w2_s"]
        assert meta["integrate_s"] + meta["w2_s"] <= meta["runtime_s"]
        z = sample_gaussian(2, n, _subseed(5, 1)).points
        ref = sample_target(target, n, _subseed(5, 2)).points
        for zeta, row in zip(cfg.zeta_grid, res.rows):
            sched = ShiftedLinearSchedule(zeta=zeta)
            ctx = FlowContext(sched=sched, target=target)
            end = integrate(ctx, sched.a0 * z, 0.0, 1.0, 8, record="final").final_state
            assert row[2] == _cloud_w2(end, ref)
        assert res.columns[:3] == ("zeta", "b0", "w2")

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("case", ["gmm8-exact", "gaussian-exact", "gaussian-sliced"])
    def test_rows_do_not_depend_on_the_schedule(self, monkeypatch, case, k):
        """Whatever the worker count and solve order, every row, and on a
        Gaussian target bound_rhs, equals a serial reference: grid-order
        integrate, then _cloud_w2 per point; on a Gaussian target the
        integrate carries a0 z + b0 x below a0 z, and bound_rhs is
        L b0 rms(x) plus that half's _cloud_w2."""
        target = paper_gmm8() if case == "gmm8-exact" else gaussian_target([1.0, 0.0], 0.25)
        n = _W2_EXACT_CAP + 1 if case == "gaussian-sliced" else 128
        _cpus(monkeypatch, k)
        cfg = ExperimentConfig(target=target, sched=LinearSchedule(), n=n, steps=8,
                               seed=6, zeta_grid=(0.0, 0.1, 0.3))
        res = run_source_perturbation(cfg)
        assert res.meta["threads"] == k
        assert res.meta["w2_method"] == ("sliced" if n > _W2_EXACT_CAP else "exact")
        z = sample_gaussian(2, n, _subseed(6, 1)).points
        ref = sample_target(target, n, _subseed(6, 2)).points
        x = sample_target(target, n, _subseed(6, 3)).points
        prof = RegularityProfile.from_target(target)
        expected = []
        for zeta in cfg.zeta_grid:
            sched = ShiftedLinearSchedule(zeta=zeta)
            ctx = FlowContext(sched=sched, target=target)
            x0 = sched.a0 * z
            if target.is_gaussian:
                x0 = np.concatenate((x0, x0 + sched.b0 * x))
            end = integrate(ctx, x0, 0.0, 1.0, 8, record="final").final_state
            row = [zeta, sched.b0, _cloud_w2(end[:n], ref)]
            if target.is_gaussian:
                lip = lipschitz_flow_map(theta_profile(prof, sched, "mixture"), 0.0, 1.0)
                row.append(lip * sched.b0 * math.sqrt(float(np.mean(np.sum(x * x, axis=1))))
                           + _cloud_w2(end[n:], ref))
            expected.append(row)
        assert np.array_equal(res.rows, np.array(expected))

    def test_meta_lists_each_points_solve_time(self, monkeypatch):
        _cpus(monkeypatch, 2)
        cfg = ExperimentConfig(target=paper_gmm8(), sched=LinearSchedule(), n=128, steps=8,
                               seed=5, zeta_grid=(0.0, 0.1, 0.2))
        meta = run_source_perturbation(cfg).meta
        assert len(meta["w2_solve_s"]) == 3
        assert all(0.0 < t < meta["runtime_s"] for t in meta["w2_solve_s"])

    def test_grid_integrates_largest_b0_first(self, monkeypatch, small_gauss):
        """Each solve is queued as soon as its flow ends, from the last zeta
        to the first, so the longest assignments start first."""
        order, real = [], experiments.integrate

        def recorded(ctx, *args, **kwargs):
            order.append(ctx.sched.zeta)
            return real(ctx, *args, **kwargs)

        monkeypatch.setattr(experiments, "integrate", recorded)
        grid = (0.0, 0.1, 0.2, 0.3)
        run_source_perturbation(ExperimentConfig(target=small_gauss, sched=LinearSchedule(),
                                                 n=128, steps=4, zeta_grid=grid))
        assert order == list(grid[::-1])

    def test_engine_error_drops_queued_solves(self, monkeypatch):
        """An engine error mid-grid propagates unchanged; the queued solves
        are dropped, the running ones finish, and no pool thread outlives the
        call."""
        _cpus(monkeypatch, 2)
        err = NonFiniteStateError("state is not finite", step=3)
        calls, started = [], []
        real_integrate, real_w2 = experiments.integrate, experiments._cloud_w2

        def failing(*args, **kwargs):
            calls.append(None)
            if len(calls) == 4:
                raise err
            return real_integrate(*args, **kwargs)

        def slow(a, b):
            # long enough that both workers are still busy when the engine fails
            started.append(None)
            time.sleep(0.3)
            return real_w2(a, b)

        monkeypatch.setattr(experiments, "integrate", failing)
        monkeypatch.setattr(experiments, "_cloud_w2", slow)
        before = threading.active_count()
        cfg = ExperimentConfig(target=paper_gmm8(), sched=LinearSchedule(), n=128, steps=4,
                               zeta_grid=(0.0, 0.05, 0.1, 0.2, 0.3))
        with pytest.raises(NonFiniteStateError) as info:
            run_source_perturbation(cfg)
        assert info.value is err
        # three solves were queued before the fourth flow failed
        assert len(started) == 2
        assert threading.active_count() == before


class TestVelocityPerturbation:
    @pytest.fixture
    def result(self, gmm4):
        cfg = ExperimentConfig(target=gmm4, sched=LinearSchedule(),
                               n=128, steps=64, seed=3,
                               eps_grid=(0.5, 1.5, 3.0))
        return run_velocity_perturbation(cfg), cfg

    def test_rows_and_columns(self, result):
        res, cfg = result
        assert res.rows.shape[0] == len(cfg.eps_grid)
        assert res.columns == ("eps", "delta_v", "w2_sq", "bound_rhs")
        eps = res.rows[:, 0]
        assert res.rows[:, 1] == pytest.approx(2.0 * eps ** 2)  # d = 2

    def test_w2_grows_with_eps(self, result):
        res, _ = result
        w2sq = res.rows[:, 2]
        assert np.all(np.diff(w2sq) > 0.0)
        assert res.fit.slope > 0.0

    def test_gronwall_bound_holds(self, result):
        res, _ = result
        assert np.all(res.column("w2_sq") <= res.column("bound_rhs"))
        assert np.all(np.isfinite(res.column("bound_rhs")))

    def test_meta_reports_the_envelope(self, result):
        res, cfg = result
        theta = theta_profile(RegularityProfile.from_target(cfg.target), cfg.sched, "mixture")
        assert res.meta["bound_case"] == "mixture"
        assert res.meta["theta_integral"] == pytest.approx(theta.integral(0.0, 1.0), rel=1e-12)

    def test_zero_jacobian_bound_is_delta_v(self):
        # Follmer carries N(0, I) onto itself with v = 0: theta is 0, so the
        # growth factor G is the run's length 1
        cfg = ExperimentConfig(target=gaussian_target(mean=[0.0, 0.0], var=1.0),
                               sched=FollmerSchedule(), n=128, steps=32,
                               eps_grid=(0.5, 1.5))
        res = run_velocity_perturbation(cfg)
        assert res.meta["theta_integral"] == pytest.approx(0.0, abs=1e-12)
        assert res.column("bound_rhs") == pytest.approx(res.column("delta_v"), rel=1e-12)

    def test_overflowing_gronwall_factor_gives_infinite_bound(self):
        # the integral of paper-gmm8's theta is 8.0e4, far beyond exp's range
        cfg = ExperimentConfig(target=paper_gmm8(), sched=FollmerSchedule(), n=256,
                               steps=64, eps_grid=(0.5, 1.5))
        res = run_velocity_perturbation(cfg)
        assert res.meta["theta_integral"] > 7e4
        assert np.all(res.column("bound_rhs") == math.inf)

    def test_zero_eps_bound_is_zero_where_the_factor_is_infinite(self):
        cfg = ExperimentConfig(target=paper_gmm8(), sched=LinearSchedule(), n=128,
                               steps=16, eps_grid=(0.0, 0.5))
        res = run_velocity_perturbation(cfg)
        assert res.column("bound_rhs")[0] == 0.0
        assert res.column("bound_rhs")[1] == math.inf
        assert res.column("w2_sq")[0] == 0.0

    def test_envelope_must_cover_the_run(self, gmm4):
        # kappa < 0 keeps the gaussian envelope off [0, t0]
        cfg = ExperimentConfig(target=gmm4, sched=LinearSchedule(), n=128, steps=16,
                               eps_grid=(0.5,), profile=RegularityProfile(kappa=-0.5),
                               bound_case="gaussian")
        assert theta_profile(cfg.profile, cfg.sched, "gaussian").lo > 0.0
        with pytest.raises(OutOfRangeError):
            run_velocity_perturbation(cfg)

    @pytest.mark.parametrize("steps", [16, 100])
    def test_stage_clock_sum_is_an_upper_sum(self, gmm4, steps):
        # theta keeps one sign on each segment, so the stage-clock sum bounds
        # the sum on a 16x finer clock from above, and the bound is delta_v G^2
        theta = theta_profile(RegularityProfile.from_target(gmm4), LinearSchedule(), "mixture")
        coarse, total = _noise_growth(theta, _stage_times(0.0, 1.0, steps))
        fine, fine_total = _noise_growth(theta, _stage_times(0.0, 1.0, 16 * steps))
        assert fine <= coarse <= 1.1 * fine
        assert total == pytest.approx(fine_total, rel=1e-12)
        cfg = ExperimentConfig(target=gmm4, sched=LinearSchedule(), n=128, steps=steps,
                               eps_grid=(0.5,))
        res = run_velocity_perturbation(cfg)
        assert res.column("bound_rhs")[0] == 0.5 * (coarse * coarse)

    @pytest.mark.parametrize("steps", [16, 128])
    @pytest.mark.parametrize("sched", [LinearSchedule(), TrigSchedule(),
                                       VPSchedule(alpha0=0.8, p=2.0), FollmerSchedule()],
                             ids=lambda s: s.family)
    @pytest.mark.parametrize("target", [moderate_gmm4(), gaussian_target([1.0, -0.5], 0.25)],
                             ids=["moderate-gmm4", "gaussian"])
    def test_bound_holds_for_every_particle(self, target, sched, steps):
        # every coupled particle, not only the W2 average, stays within
        # bound_rhs, and on the Gaussian comes within 3 % of it; the noisy
        # paths are replayed on the public velocity
        cfg = ExperimentConfig(target=target, sched=sched, n=256, steps=steps, seed=13,
                               eps_grid=(0.0, 0.5, 2.0))
        res = run_velocity_perturbation(cfg)
        ctx = FlowContext(sched=sched, target=target)
        x0 = sample_source(target, sched, cfg.n, _subseed(cfg.seed, 0)).points
        clean = integrate(ctx, x0, 0.0, 1.0, steps, record="final").final_state
        for eps, rhs in zip(cfg.eps_grid, res.column("bound_rhs")):
            pert = noisy_rk4(lambda t, x: velocity(ctx, t, x), x0, 1.0, steps, eps,
                             _subseed(cfg.seed, 1000), NOISE_DOMAIN)
            gap_sq = np.max(np.sum((pert - clean) ** 2, axis=1))
            assert gap_sq <= rhs
            if target.is_gaussian and eps > 0.0:
                # grad v is theta times the identity here, so every gap solves
                # u' = theta u + sqrt(d) eps with equality: only the stage-clock
                # upper sum in G keeps it below bound_rhs
                assert gap_sq >= 0.97 * rhs

    def test_response_does_not_depend_on_the_step_count(self):
        # the sign field is held for the whole flow, so the sweep measures a
        # fixed field error: refining the clock moves w2_sq only by its
        # integration error, where redrawn signs would average out
        rows = [run_velocity_perturbation(ExperimentConfig(
            target=moderate_gmm4(), sched=LinearSchedule(), n=256, steps=steps, seed=3,
            eps_grid=(0.05, 0.5))).column("w2_sq") for steps in (16, 128)]
        assert rows[0] == pytest.approx(rows[1], rel=1e-3)

    def test_bit_reproducible(self, gmm4, monkeypatch):
        _cpus(monkeypatch, 2)
        cfg = ExperimentConfig(target=gmm4, sched=LinearSchedule(),
                               n=100, steps=32, seed=5, eps_grid=(1.0, 2.0))
        r1 = run_velocity_perturbation(cfg)
        r2 = run_velocity_perturbation(cfg)
        assert np.array_equal(r1.rows, r2.rows)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("sched", [LinearSchedule(), TrigSchedule(),
                                       VPSchedule(alpha0=0.8, p=2.0), FollmerSchedule()],
                             ids=lambda s: s.family)
    def test_matches_public_velocity_oracle(self, gmm4, monkeypatch, sched, k):
        # the sweep's noisy run, replayed by a plain RK4 loop on the public
        # velocity plus the same held sign field
        _cpus(monkeypatch, k)
        cfg = ExperimentConfig(target=gmm4, sched=sched, n=128, steps=16, seed=7,
                               eps_grid=(0.5, 2.0))
        res = run_velocity_perturbation(cfg)
        ctx = FlowContext(sched=sched, target=gmm4)
        x0 = sample_source(gmm4, sched, cfg.n, _subseed(cfg.seed, 0)).points
        clean = integrate(ctx, x0, 0.0, 1.0, cfg.steps, record="final").final_state
        for eps, w2_sq in zip(res.column("eps"), res.column("w2_sq")):
            pert = noisy_rk4(lambda t, x: velocity(ctx, t, x), x0, 1.0, cfg.steps, eps,
                             _subseed(cfg.seed, 1000), NOISE_DOMAIN)
            assert w2_sq == w2(pert, clean) ** 2

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("early_stop", [0.0, 0.05])
    @pytest.mark.parametrize("sched", [LinearSchedule(), TrigSchedule(),
                                       VPSchedule(alpha0=0.8, p=2.0), FollmerSchedule()],
                             ids=lambda s: s.family)
    def test_matches_per_eps_oracle(self, gmm4, monkeypatch, sched, early_stop, k):
        # eps, delta_v and w2_sq equal one engine pass per eps; bound_rhs is
        # an upper sum, at most a few percent above the adaptive quadrature
        _cpus(monkeypatch, k)
        cfg = ExperimentConfig(target=gmm4, sched=sched, n=100, steps=100, seed=9,
                               eps_grid=(0.0, 0.5, 2.0), early_stop=early_stop)
        rows, want = run_velocity_perturbation(cfg).rows, velocity_perturbation_per_eps(cfg)
        assert np.array_equal(rows[:, :3], want[:, :3])
        assert np.all(want[:, 3] <= rows[:, 3]) and np.all(rows[:, 3] <= 1.05 * want[:, 3])


class TestCloudW2:
    def test_exact_up_to_the_cap(self):
        a, b = gaussian_cloud(2, 300, 1), gaussian_cloud(2, 300, 2, scale=1.5)
        assert _cloud_w2(a, b) == w2(a, b)

    def test_sliced_beyond_the_cap(self):
        n = _W2_EXACT_CAP + 1
        a, b = gaussian_cloud(2, n, 3), gaussian_cloud(2, n, 4, scale=1.5)
        assert _cloud_w2(a, b) == w2(a, b, method="sliced", n_projections=64, seed=0)

    def test_exact_at_any_size_in_one_dimension(self):
        n = _W2_EXACT_CAP + 1
        a, b = gaussian_cloud(1, n, 3), gaussian_cloud(1, n, 4, scale=1.5)
        assert _cloud_w2(a, b) == w2(a, b)
        res = run_source_perturbation(ExperimentConfig(
            target=gaussian_target([0.5], 0.25), sched=LinearSchedule(), n=n, steps=4,
            zeta_grid=(0.0, 0.2)))
        assert res.meta["w2_method"] == "exact"


class TestAutoencode:
    def test_follmer_gaussian_is_identity(self):
        target = gaussian_target(mean=[0.0, 0.0], var=1.0)
        cfg = ExperimentConfig(target=target, sched=FollmerSchedule(),
                               n=64, steps=128, seed=1)
        res = run_autoencode(cfg)
        assert res.rows.shape == (1, 4)
        assert res.rows[0, 3] <= 1e-10  # max error

    def test_step_doubling_order(self, gmm4):
        cfg = ExperimentConfig(target=gmm4, sched=LinearSchedule(),
                               n=64, steps=256, seed=2,
                               steps_grid=(128, 256))
        res = run_autoencode(cfg)
        assert res.rows.shape[0] == 2
        med = res.rows[:, 1]
        ratio = med[0] / med[1]
        assert 6.0 < ratio < 45.0
        assert res.fit is not None and res.fit.slope < -3.0

    def test_errors_stored_for_last_grid_entry(self, gmm4):
        cfg = ExperimentConfig(target=gmm4, sched=LinearSchedule(),
                               n=32, steps=128, seed=2)
        res = run_autoencode(cfg)
        errs = res.meta["errors"]
        assert errs.shape == (32,)
        assert np.median(errs) == pytest.approx(res.rows[0, 1])

    def test_thread_count_invariant(self, gmm4, monkeypatch):
        cfg = ExperimentConfig(target=gmm4, sched=LinearSchedule(), n=32, steps=16, seed=2,
                               steps_grid=(8, 16, 32))
        _cpus(monkeypatch, 1)
        r1 = run_autoencode(cfg)
        _cpus(monkeypatch, 2)
        r2 = run_autoencode(cfg)
        assert np.array_equal(r1.rows, r2.rows)
        assert np.array_equal(r1.meta["errors"], r2.meta["errors"])


class TestCycle:
    def test_follmer_two_standard_gaussians(self):
        g = gaussian_target(mean=[0.0, 0.0], var=1.0)
        cfg = ExperimentConfig(target=g, sched=FollmerSchedule(),
                               target2=gaussian_target(mean=[0.0, 0.0], var=1.0),
                               n=32, steps=128, seed=4)
        res = run_cycle(cfg)
        assert res.rows[0, 3] <= 1e-10

    def test_same_target_at_most_double_autoencode(self, gmm4):
        base = dict(target=gmm4, sched=LinearSchedule(), n=48, steps=256, seed=6)
        auto = run_autoencode(ExperimentConfig(**base))
        cyc = run_cycle(ExperimentConfig(**base, target2=gmm4))
        assert cyc.rows[0, 1] <= 2.0 * auto.rows[0, 1] + 1e-12

    def test_two_distinct_targets_roundtrip(self):
        t1 = mixture_target(weights=[0.5, 0.5], means=[[-2.0, 0.0], [2.0, 0.0]],
                            sigma=0.5)
        t2 = mixture_target(weights=[0.5, 0.5], means=[[0.0, -2.0], [0.0, 2.0]],
                            sigma=0.5)
        cfg = ExperimentConfig(target=t1, sched=LinearSchedule(), target2=t2,
                               n=32, steps=512, seed=8)
        res = run_cycle(cfg)
        assert res.rows[0, 1] <= 5e-3  # median deviation

    def test_requires_second_target(self, gmm4):
        cfg = ExperimentConfig(target=gmm4, sched=LinearSchedule(), n=16, steps=32)
        with pytest.raises(MissingFieldError):
            run_cycle(cfg)

    def test_thread_count_invariant(self, gmm4, monkeypatch):
        cfg = ExperimentConfig(target=gmm4, sched=LinearSchedule(), n=32, steps=16, seed=3,
                               steps_grid=(8, 16),
                               target2=gaussian_target(mean=[0.0, 0.0], var=1.0))
        _cpus(monkeypatch, 1)
        r1 = run_cycle(cfg)
        _cpus(monkeypatch, 2)
        r2 = run_cycle(cfg)
        assert np.array_equal(r1.rows, r2.rows)
        assert np.array_equal(r1.meta["errors"], r2.meta["errors"])


class TestJacobianEnvelope:
    def test_gaussian_tightness(self, small_gauss):
        cfg = ExperimentConfig(target=small_gauss, sched=LinearSchedule(),
                               n=50, seed=1, t_grid=tuple(np.linspace(0.0, 1.0, 9)))
        res = run_jacobian_envelope(cfg)
        assert res.meta["max_violation"] <= 1e-12
        # single gaussian: upper envelope equals lower envelope equals lam_max
        np.testing.assert_allclose(res.rows[:, 2], res.rows[:, 4], atol=1e-12)
        np.testing.assert_allclose(res.rows[:, 1], res.rows[:, 3], atol=1e-12)

    def test_zero_radius_mixture_collapses(self):
        target = mixture_target(weights=[0.5, 0.5],
                                means=[[1.0, -1.0], [1.0, -1.0]], sigma=0.7)
        cfg = ExperimentConfig(target=target, sched=LinearSchedule(),
                               n=40, seed=2, t_grid=(0.0, 0.3, 0.6, 1.0))
        res = run_jacobian_envelope(cfg)
        np.testing.assert_allclose(res.rows[:, 3], res.rows[:, 4], atol=1e-13)
        assert res.meta["max_violation"] <= 1e-12

    def test_gmm_envelope_sound(self, gmm4):
        cfg = ExperimentConfig(target=gmm4, sched=LinearSchedule(),
                               n=80, seed=3, t_grid=tuple(np.linspace(0.0, 1.0, 12)))
        res = run_jacobian_envelope(cfg)
        assert res.rows.shape[0] == 12
        assert res.meta["max_violation"] <= 1e-8

    def test_default_grid_ends_at_the_early_stop_horizon(self, gmm4):
        # with no t_grid the 20 times span [0, t_max], not [0, 1]
        cfg = ExperimentConfig(target=gmm4, sched=LinearSchedule(), n=20, seed=3,
                               early_stop=0.1)
        res = run_jacobian_envelope(cfg)
        assert np.array_equal(res.column("t"), np.linspace(0.0, 0.9, 20))
        assert res.meta["max_violation"] <= 1e-8

    def test_lower_column_is_public_alpha(self, gmm4):
        sched = TrigSchedule()
        cfg = ExperimentConfig(target=gmm4, sched=sched, n=20, seed=3,
                               t_grid=(0.0, 0.25, 0.5, 0.999, 1.0))
        res = run_jacobian_envelope(cfg)
        s2 = gmm4.sigma ** 2
        for t, lower in zip(res.column("t"), res.column("lower")):
            a, b = sched.a(t), sched.b(t)
            assert lower == (sched.da_a(t) + s2 * sched.db_b(t)) / (a * a + s2 * b * b)

    def test_piecewise_kappa_d_profile(self):
        # 2-point mixture: exact semi-log-concavity constant and a pointwise
        # posterior-variance bound give a valid piecewise envelope
        mu = np.array([0.6, 0.0])
        target = mixture_target(weights=[0.5, 0.5], means=[mu, -mu], sigma=1.0)
        kappa = 1.0 - float(mu @ mu)  # 1/sigma^2 - |mu|^2/sigma^4
        d_eff = float(np.sqrt(target.radius ** 2 + 1.0))
        prof = RegularityProfile(kappa=kappa, beta=1.0, D=d_eff)
        cfg = ExperimentConfig(target=target, sched=LinearSchedule(),
                               n=60, seed=4, profile=prof, bound_case="bounded-d",
                               t_grid=tuple(np.linspace(0.0, 1.0, 10)))
        res = run_jacobian_envelope(cfg)
        upper = res.rows[:, 4]
        lam_max = res.rows[:, 2]
        assert np.all(lam_max <= upper + 1e-8)

    def test_d_only_profile_upper_is_inf_at_one(self, gmm4):
        # the bounded-d envelope diverges where a_t = 0: +inf, not NaN
        cfg = ExperimentConfig(target=gmm4, sched=LinearSchedule(), n=20, seed=3,
                               profile=RegularityProfile(D=3.0), bound_case="bounded-d")
        upper = run_jacobian_envelope(cfg).column("upper")
        assert upper[-1] == math.inf
        assert np.all(np.isfinite(upper[:-1]))


class TestAgCheck:
    def test_zero_delta_zero_residual(self, small_gauss):
        cfg = ExperimentConfig(target=small_gauss, sched=LinearSchedule(),
                               n=3, steps=64, seed=1, delta=(0.0, 0.0))
        res = run_ag_check(cfg)
        assert res.rows[0, 1] <= 1e-12

    def test_residual_small_relative_to_delta(self, small_gauss):
        cfg = ExperimentConfig(target=small_gauss, sched=LinearSchedule(),
                               n=3, steps=256, seed=1, delta=(0.1, 0.0))
        res = run_ag_check(cfg)
        assert res.rows[0, 2] <= 1e-3  # residual / |delta|

    def test_fourth_order_decay(self):
        target = mixture_target(weights=[0.5, 0.5], means=[[-1.0, 0.0], [1.0, 0.5]],
                                sigma=0.6)
        cfg = ExperimentConfig(target=target, sched=LinearSchedule(),
                               n=3, steps=128, seed=2, delta=(0.05, -0.02),
                               steps_grid=(64, 128, 256))
        res = run_ag_check(cfg)
        assert res.rows.shape[0] == 3
        assert res.fit is not None
        assert res.fit.slope < -3.2

    def test_blowup_reports_absolute_step_index(self):
        # a huge delta drives the perturbed path far enough out that the
        # posterior logits b x . mu / c^2 overflow, at the same physical time
        # for every step count; the index counts steps from t = 0, not from
        # the current quadrature node
        target = mixture_target(weights=[0.5, 0.5], means=[[-50.0, 0.0], [50.0, 25.0]],
                                sigma=0.6)
        where = []
        for steps in (64, 128):
            cfg = ExperimentConfig(target=target, sched=LinearSchedule(), n=3,
                                   steps=steps, seed=1, delta=(1e307, 0.0))
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(NonFiniteStateError) as err:
                    run_ag_check(cfg)
            assert f"step {err.value.step} " in str(err.value)
            where.append(err.value.step / steps)
        assert where[0] >= 8 / 64
        assert abs(where[0] - where[1]) <= 2 / 64

    def test_grid_blowup_names_the_entry(self):
        # the grid is one engine pass; the coarse entry reaches the overflow
        # time in fewer steps, so it fails first, at the step of its own run
        target = mixture_target(weights=[0.5, 0.5], means=[[-50.0, 0.0], [50.0, 25.0]],
                                sigma=0.6)
        base = dict(target=target, sched=LinearSchedule(), n=3, seed=1, delta=(1e307, 0.0))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteStateError) as alone:
                run_ag_check(ExperimentConfig(**base, steps=64))
            with pytest.raises(NonFiniteStateError) as err:
                run_ag_check(ExperimentConfig(**base, steps_grid=(64, 128)))
        assert err.value.step == alone.value.step
        assert f"step {alone.value.step} of the steps=64 entry" in str(alone.value)
        assert f"step {err.value.step} of the steps=64 entry" in str(err.value)
        assert "integrator time" in str(err.value)

    def test_only_the_finest_entry_overflows(self):
        # an affine flow: the residual is |delta| times a fixed discretisation
        # error, which for the 9 Simpson nodes of 8 and 16 steps is 6.9e-6
        # and 1.4e-5; at this |delta| only the 16-step gap squares overflow
        target = gaussian_target(mean=(3.0, 1.0), var=0.25)
        base = dict(target=target, sched=TrigSchedule(), n=4, seed=5)
        small = run_ag_check(ExperimentConfig(**base, delta=(1.0, 0.0), steps_grid=(8, 16)))
        assert 1.9 < small.rows[1, 1] / small.rows[0, 1] < 2.1
        # numpy's warnings stay errors: the runner's own check names the entry
        with pytest.raises(NonFiniteError, match="at steps=16:"):
            run_ag_check(ExperimentConfig(**base, delta=(1.4e159, 0.0), steps_grid=(8, 16)))
        alone = run_ag_check(ExperimentConfig(**base, delta=(1.4e159, 0.0), steps=8))
        assert np.isfinite(alone.rows[0, 1])

    def test_overflowing_residual_raises(self):
        # the states stay finite, but the Simpson sum and the gap norm of a
        # delta this large overflow; that must not come back as a residual
        target = mixture_target(weights=(0.5, 0.5), means=((-1.0, 0.0), (1.0, 0.5)),
                                sigma=0.6)
        cfg = ExperimentConfig(target=target, sched=LinearSchedule(), n=4,
                               steps=128, seed=901, delta=(1e305, 0.0))
        with pytest.raises(NonFiniteError, match="steps=128"):
            run_ag_check(cfg)

    def test_relative_residual_of_large_delta(self, small_gauss):
        # |delta|^2 overflows a double here; its norm must not
        cfg = ExperimentConfig(target=small_gauss, sched=LinearSchedule(),
                               n=3, steps=64, seed=1, delta=(3e154, 4e154))
        res = run_ag_check(cfg)
        assert res.meta["delta_norm"] == pytest.approx(5e154, rel=1e-15)
        assert res.rows[0, 2] == res.rows[0, 1] / res.meta["delta_norm"]

    def test_requires_delta(self, small_gauss):
        cfg = ExperimentConfig(target=small_gauss, sched=LinearSchedule(),
                               n=2, steps=64)
        with pytest.raises(MissingFieldError):
            run_ag_check(cfg)

    @pytest.mark.parametrize("sched", [LinearSchedule(), TrigSchedule(), FollmerSchedule(),
                                       VPSchedule()], ids=lambda s: s.describe())
    @pytest.mark.parametrize("target", [
        gaussian_target(mean=(0.2, -0.1), var=1.0),
        mixture_target(weights=(0.5, 0.5), means=((-1.0, 0.0), (1.0, 0.5)), sigma=0.6),
        moderate_gmm4(), paper_gmm8()], ids=["gaussian", "gmm2", "gmm4", "gmm8"])
    def test_tangent_route_matches_jacobian_oracle(self, target, sched):
        # blocks carry J.u for the unit u = -delta / |delta|; the oracle
        # carries the full Jacobian and applies it to -delta at the end
        delta = np.array([0.05, -0.02])
        cfg = ExperimentConfig(target=target, sched=sched, n=5, seed=3,
                               delta=tuple(delta), steps_grid=(16, 64, 256))
        res = run_ag_check(cfg)
        ctx = FlowContext(sched=sched, target=target)
        x0 = sample_source(target, sched, 5, _subseed(3, 0)).points
        for steps, rel in zip(cfg.steps_grid, res.column("rel_residual")):
            ref = ag_residual_jacobian(ctx, x0, delta, steps) / np.linalg.norm(delta)
            assert abs(rel - ref) <= 1e-9 * abs(ref) + 1e-14, (steps, rel, ref)

    @pytest.mark.parametrize("early_stop", [0.0, 0.05])
    @pytest.mark.parametrize("grid", [(8, 16, 64), (128, 256)], ids=["8-16-64", "128-256"])
    @pytest.mark.parametrize("sched", [LinearSchedule(), TrigSchedule()],
                             ids=lambda s: s.describe())
    @pytest.mark.parametrize("target", [
        gaussian_target(mean=(0.2, -0.1), var=1.0),
        mixture_target(weights=(0.5, 0.5), means=((-1.0, 0.0), (1.0, 0.5)), sigma=0.6),
        paper_gmm8(), _gmm_d3k5()], ids=["gaussian", "gmm2", "gmm8", "d3k5"])
    def test_grid_pass_matches_per_entry_oracle(self, target, sched, grid, early_stop):
        # the grid's entries are groups of one engine pass; every row must be
        # the bits of the entry's own 2-D pass, also where the node spacings
        # differ (1, 2 and 4 steps for 8, 16 and 64) and groups carry rows
        # past their own blocks
        delta = np.array([0.05, -0.02, 0.03])[:target.dim]
        cfg = ExperimentConfig(target=target, sched=sched, n=4, seed=7, delta=tuple(delta),
                               steps_grid=grid, early_stop=early_stop)
        res = run_ag_check(cfg)
        ctx = FlowContext(sched=sched, target=target, early_stop=early_stop)
        x0 = sample_source(target, sched, 4, _subseed(7, 0)).points
        dnorm = math.hypot(*delta)
        per_entry = [ag_residual_per_entry(ctx, x0, delta, steps) for steps in grid]
        want = np.array([(float(steps), r, r / dnorm)
                         for steps, (r, _, _) in zip(grid, per_entry)])
        assert np.array_equal(res.rows, want)
        assert res.meta["rate_calls"] == 4 * max(grid)
        if grid == (128, 256):  # one node spacing: no group carries spare rows
            assert res.meta["row_stages"] == sum(m for _, _, m in per_entry)

    def test_criterion_09_work_counts(self):
        # criterion 09's two runs do a fixed amount of work: a gain on them
        # can only come from the cost per row
        lin = LinearSchedule()
        gauss = run_ag_check(ExperimentConfig(
            target=gaussian_target(mean=(0.2, -0.1), var=1.0), sched=lin, n=4, steps=1024,
            seed=900, delta=(0.1, 0.0)))
        assert (gauss.meta["rate_calls"], gauss.meta["row_stages"]) == (4096, 2_121_728)
        gmm2 = mixture_target(weights=(0.5, 0.5), means=((-1.0, 0.0), (1.0, 0.5)), sigma=0.6)
        mix = run_ag_check(ExperimentConfig(
            target=gmm2, sched=lin, n=4, seed=901, delta=(0.05, -0.02),
            steps_grid=(128, 256, 512, 1024)))
        assert (mix.meta["rate_calls"], mix.meta["row_stages"]) == (4096, 2_831_360)

    def test_meta_counts_rate_work(self, small_gauss):
        # the grid is one engine pass: 4 rate calls per step of its longest
        # entry; 64 and 128 steps make 8 and 16 panels of 2 * 4 steps, and
        # between nodes j and j + 1 the path and j + 1 blocks, (j + 2) * n
        # rows, advance in each entry with steps left
        cfg = ExperimentConfig(target=small_gauss, sched=LinearSchedule(), n=3,
                               seed=1, delta=(0.1, 0.0), steps_grid=(64, 128))
        meta = run_ag_check(cfg).meta
        assert meta["rate_calls"] == 4 * max(cfg.steps_grid)
        assert meta["row_stages"] == sum(4 * 4 * 3 * sum(range(2, 2 * panels + 2))
                                         for panels in (8, 16))

    def test_thread_count_invariant(self, monkeypatch):
        cfg = ExperimentConfig(target=moderate_gmm4(), sched=LinearSchedule(), n=4, seed=5,
                               delta=(0.05, -0.02), steps_grid=(32, 64, 128))
        _cpus(monkeypatch, 1)
        r1 = run_ag_check(cfg)
        _cpus(monkeypatch, 2)
        r2 = run_ag_check(cfg)
        assert np.array_equal(r1.rows, r2.rows)
        for key in ("rate_calls", "row_stages"):
            assert r1.meta[key] == r2.meta[key]


class TestRunnersLeaveInputs:
    """The engine's in-place stage arithmetic never writes into the source
    cloud a runner drew, whether that cloud is writable or read-only (as a
    ParticleCloud's points are)."""

    @pytest.mark.parametrize("runner, grid", [
        (run_ag_check, {"n": 4, "delta": (0.05, -0.02, 0.03), "steps_grid": (16, 32)}),
        (run_velocity_perturbation, {"n": 100, "steps": 16, "eps_grid": (0.0, 0.5, 1.5)}),
    ], ids=["ag-check", "velocity"])
    def test_source_cloud_untouched(self, monkeypatch, runner, grid):
        cfg = ExperimentConfig(target=_gmm_d3k5(), sched=LinearSchedule(), seed=4, **grid)
        want = runner(cfg).rows  # the drawn cloud is read-only
        drawn = []

        def writable(*args):
            points = np.array(sample_source(*args).points)
            drawn.append((points, points.copy()))
            return type("Cloud", (), {"points": points})

        monkeypatch.setattr(experiments, "sample_source", writable)
        assert np.array_equal(runner(cfg).rows, want)
        assert len(drawn) == 1 and drawn[0][0].flags.writeable
        assert np.array_equal(*drawn[0])


class TestResultArtifacts:
    def test_csv_and_fit_files(self, tmp_path, small_gauss):
        cfg = ExperimentConfig(target=small_gauss, sched=LinearSchedule(),
                               n=128, steps=32, seed=1, zeta_grid=(0.0, 0.2))
        res = run_source_perturbation(cfg)
        paths = res.write_csv(tmp_path)
        names = sorted(p.name for p in paths)
        assert names == ["stability-source.csv", "stability-source.fit.csv"]
        body = (tmp_path / "stability-source.csv").read_text()
        assert body.splitlines()[0].startswith("zeta,b0,w2")
        fit_body = (tmp_path / "stability-source.fit.csv").read_text()
        assert fit_body.splitlines()[0] == "slope,intercept,r_squared,n"
        assert len(fit_body.splitlines()) == 2

    def test_csv_timestamp_suppressible(self, tmp_path, small_gauss):
        cfg = ExperimentConfig(target=small_gauss, sched=LinearSchedule(),
                               n=128, steps=32, seed=1, zeta_grid=(0.0, 0.2))
        res = run_source_perturbation(cfg)
        p1 = tmp_path / "a"
        p2 = tmp_path / "b"
        p1.mkdir()
        p2.mkdir()
        res.write_csv(p1)
        res.write_csv(p2)
        assert (p1 / "stability-source.csv").read_bytes() == \
            (p2 / "stability-source.csv").read_bytes()
        p3 = tmp_path / "c"
        p3.mkdir()
        res.write_csv(p3, timestamp="2026-01-01T00:00:00")
        assert (p3 / "stability-source.csv").read_text().startswith("# generated: ")

    def test_svg_written(self, tmp_path, small_gauss):
        cfg = ExperimentConfig(target=small_gauss, sched=LinearSchedule(),
                               n=128, steps=32, seed=1, zeta_grid=(0.0, 0.1, 0.2))
        res = run_source_perturbation(cfg)
        path = res.write_svg(tmp_path, x_col="b0", y_col="w2")
        text = path.read_text()
        assert text.startswith("<svg")
        assert text.rstrip().endswith("</svg>")
        assert "polyline" in text and "circle" in text
        assert "http" not in text.replace("http://www.w3.org/2000/svg", "")

    def test_result_shape_validated(self):
        with pytest.raises(InvalidParamError):
            ExperimentResult(name="x", columns=("a", "b"),
                             rows=np.zeros((3, 3)), fit=None, meta={})
