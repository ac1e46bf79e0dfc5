"""Experiment runners: fixtures, determinism, bound checks, refinement orders.

Small configs only; the full-size benchmark configurations run in the
acceptance suite.
"""

from __future__ import annotations

import numpy as np
import pytest

from gif_lab.bounds import RegularityProfile
from gif_lab.errors import (InvalidParamError, MissingFieldError, NonFiniteError,
                            NonFiniteStateError)
from gif_lab.experiments import (
    ExperimentConfig,
    ExperimentResult,
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
from gif_lab.flow import FlowContext, integrate, velocity
from gif_lab.metrics import NOISE_DOMAIN, sample_source, w2
from gif_lab.schedules import FollmerSchedule, LinearSchedule, TrigSchedule, VPSchedule
from gif_lab.targets import gaussian_target, mixture_target

from oracles import noisy_rk4


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

    def test_bit_reproducible(self, small_gauss):
        cfg = ExperimentConfig(target=small_gauss, sched=LinearSchedule(),
                               n=128, steps=48, seed=7, zeta_grid=(0.0, 0.15))
        r1 = run_source_perturbation(cfg)
        r2 = run_source_perturbation(cfg)
        assert np.array_equal(r1.rows, r2.rows)

    def test_thread_count_invariant(self, small_gauss):
        base = dict(target=small_gauss, sched=LinearSchedule(), n=128,
                    steps=48, seed=7, zeta_grid=(0.0, 0.1, 0.2))
        r1 = run_source_perturbation(ExperimentConfig(**base, threads=1))
        r2 = run_source_perturbation(ExperimentConfig(**base, threads=3))
        assert np.array_equal(r1.rows, r2.rows)


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
        assert res.columns == ("eps", "delta_v", "w2_sq", "c3", "bound_rhs")
        eps = res.rows[:, 0]
        assert res.rows[:, 1] == pytest.approx(2.0 * eps ** 2)  # d = 2

    def test_w2_grows_with_eps(self, result):
        res, _ = result
        w2sq = res.rows[:, 2]
        assert np.all(np.diff(w2sq) > 0.0)
        assert res.fit.slope > 0.0

    def test_gronwall_bound_holds(self, result):
        res, _ = result
        assert np.all(res.rows[:, 2] <= res.rows[:, 4])

    def test_bit_reproducible(self, gmm4):
        cfg = ExperimentConfig(target=gmm4, sched=LinearSchedule(),
                               n=100, steps=32, seed=5, eps_grid=(1.0, 2.0),
                               threads=2)
        r1 = run_velocity_perturbation(cfg)
        r2 = run_velocity_perturbation(cfg)
        assert np.array_equal(r1.rows, r2.rows)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("sched", [LinearSchedule(), TrigSchedule(),
                                       VPSchedule(alpha0=0.8, p=2.0), FollmerSchedule()],
                             ids=lambda s: s.family)
    def test_matches_public_velocity_oracle(self, gmm4, sched, threads):
        # the sweep's noisy run, replayed by a plain RK4 loop on the public
        # velocity with the same per-evaluation keyed noise
        cfg = ExperimentConfig(target=gmm4, sched=sched, n=128, steps=16, seed=7,
                               eps_grid=(0.5, 2.0), threads=threads)
        res = run_velocity_perturbation(cfg)
        ctx = FlowContext(sched=sched, target=gmm4)
        x0 = sample_source(gmm4, sched, cfg.n, _subseed(cfg.seed, 0)).points
        clean = integrate(ctx, x0, 0.0, 1.0, cfg.steps, record="final").final_state
        for eps, w2_sq in zip(res.column("eps"), res.column("w2_sq")):
            pert = noisy_rk4(lambda t, x: velocity(ctx, t, x), x0, 1.0, cfg.steps, eps,
                             _subseed(cfg.seed, 1000), NOISE_DOMAIN)
            assert w2_sq == w2(pert, clean) ** 2


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

    def test_overflowing_residual_raises(self):
        # the states stay finite, but the Simpson sum and the gap norm of a
        # delta this large overflow; that must not come back as a residual
        target = mixture_target(weights=(0.5, 0.5), means=((-1.0, 0.0), (1.0, 0.5)),
                                sigma=0.6)
        cfg = ExperimentConfig(target=target, sched=LinearSchedule(), n=4,
                               steps=128, seed=901, delta=(1e305, 0.0))
        with np.errstate(over="ignore", invalid="ignore"):
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
