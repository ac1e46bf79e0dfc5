"""Release acceptance suite: one test per ship criterion, run in order.

Each test body sits inside a `_criterion` block that times it and prints a
single `[acceptance] criterion NN PASS/FAIL` line (visible under `pytest -s`;
under plain `pytest -v` the per-test result lines carry the same information).
The block also enforces a wall-clock budget; blowing one usually means an
algorithmic regression rather than a slow machine, so the budgets are part of
the acceptance bar.
"""

import math
import time

import numpy as np

from gif_lab.bounds import RegularityProfile, endpoint_lipschitz, theta_profile
from gif_lab.experiments import (ExperimentConfig, moderate_gmm4, paper_gmm8,
                                 run_ag_check, run_autoencode, run_cycle,
                                 run_jacobian_envelope, run_source_perturbation,
                                 run_velocity_perturbation)
from gif_lab.flow import (FlowContext, integrate, integrate_augmented,
                          velocity, velocity_dt, velocity_jacobian)
from gif_lab.metrics import (sample_gaussian, sample_interpolant,
                             sample_source, w2)
from gif_lab.schedules import make_schedule
from gif_lab.targets import gaussian_target, mixture_target

from oracles import central_diff, gaussian_flow_state, jacobian_fd, w2_bruteforce


class _criterion:
    """Times a criterion body and prints one PASS/FAIL summary line for it."""

    def __init__(self, num, budget_s, label):
        self.num = num
        self.budget_s = budget_s
        self.label = label

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self._t0
        ok = exc_type is None and elapsed < self.budget_s
        print(f"[acceptance] criterion {self.num:02d} "
              f"{'PASS' if ok else 'FAIL'} "
              f"({elapsed:.1f}s / {self.budget_s:.0f}s budget) {self.label}",
              flush=True)
        if exc_type is None and elapsed >= self.budget_s:
            raise AssertionError(f"criterion {self.num} exceeded its "
                                 f"{self.budget_s:.0f}s budget ({elapsed:.1f}s)")
        return False


def test_criterion_01_follmer_identity_map():
    # standard normal target: the velocity vanishes identically, so the flow
    # map must return every start point unchanged up to integrator roundoff
    with _criterion(1, 1.0, "follmer flow on a standard normal is the identity"):
        target = gaussian_target(mean=(0.0, 0.0), var=1.0)
        ctx = FlowContext(sched=make_schedule("follmer"), target=target)
        x0 = sample_gaussian(2, 1000, seed=41).points
        out = integrate(ctx, x0, 0.0, 1.0, 64, record="final").final_state
        drift = np.linalg.norm(out - x0, axis=1)
        assert float(drift.max()) <= 1e-10


def test_criterion_02_gaussian_closed_form_all_families():
    with _criterion(2, 5.0, "RK4 flow matches the affine gaussian map, 5 families"):
        mean = np.array([0.7, -0.3])
        var = 0.49
        target = gaussian_target(mean=mean, var=var)
        fams = (make_schedule("linear"), make_schedule("follmer"),
                make_schedule("trig"), make_schedule("ve", sigma_max=2.0),
                make_schedule("vp", alpha0=0.02, p=2.0))
        x0 = 1.5 * sample_gaussian(2, 100, seed=11).points
        worst = 0.0
        for sched in fams:
            ctx = FlowContext(sched=sched, target=target)
            got = integrate(ctx, x0, 0.0, 1.0, 1024, record="final").final_state
            want = gaussian_flow_state(mean, var, sched, 0.0, 1.0, x0)
            rel = (np.linalg.norm(got - want, axis=1)
                   / np.maximum(1.0, np.linalg.norm(want, axis=1)))
            worst = max(worst, float(rel.max()))
        assert worst <= 1e-8


def test_criterion_03_pushforward_matches_interpolation_marginals():
    with _criterion(3, 60.0, "generated clouds track fresh interpolant clouds in W2"):
        target = moderate_gmm4()
        sched = make_schedule("linear")
        ctx = FlowContext(sched=sched, target=target)
        n = 2048
        src = sample_source(target, sched, n, 300).points
        traj = integrate(ctx, src, 0.0, 1.0, 512, record="all")
        for k, t in enumerate((0.25, 0.5, 0.75, 1.0)):
            idx = int(round(t * 512))
            assert math.isclose(float(traj.times[idx]), t, abs_tol=1e-12)
            fresh = sample_interpolant(target, sched, t, n, 310 + 10 * k).points
            ref_a = sample_interpolant(target, sched, t, n, 311 + 10 * k).points
            ref_b = sample_interpolant(target, sched, t, n, 312 + 10 * k).points
            measured = w2(traj.states[idx], fresh)
            floor = w2(ref_a, ref_b)
            assert measured <= 1.5 * floor, (t, measured, floor)


def test_criterion_04_jacobian_eigenvalue_envelopes():
    with _criterion(4, 30.0, "eigenvalue envelopes hold on 20x200 grids"):
        grid20 = tuple(np.linspace(0.0, 1.0, 20))
        lin = make_schedule("linear")

        res8 = run_jacobian_envelope(ExperimentConfig(
            target=paper_gmm8(), sched=lin, n=200, seed=401, t_grid=grid20))
        assert res8.meta["max_violation"] <= 1e-8

        # symmetric 2-point mixture: exact semi-log-concavity constant plus a
        # pointwise posterior-variance bound give the piecewise envelope
        mu = np.array([0.6, 0.0])
        two = mixture_target(weights=(0.5, 0.5), means=(mu, -mu), sigma=1.0)
        prof = RegularityProfile(kappa=1.0 - float(mu @ mu), beta=1.0,
                                 D=math.sqrt(two.radius ** 2 + 1.0))
        reskd = run_jacobian_envelope(ExperimentConfig(
            target=two, sched=lin, n=200, seed=402, profile=prof,
            bound_case="bounded-d", t_grid=grid20))
        assert reskd.meta["max_violation"] <= 1e-8
        assert np.all(reskd.column("lam_max") <= reskd.column("upper") + 1e-8)

        # single gaussian: every eigenvalue sits exactly on the envelope
        resg = run_jacobian_envelope(ExperimentConfig(
            target=gaussian_target(mean=(0.0, 0.0), var=0.25), sched=lin,
            n=200, seed=403, t_grid=grid20))
        assert resg.meta["max_violation"] <= 1e-12
        np.testing.assert_allclose(resg.column("lam_max"), resg.column("upper"),
                                   atol=1e-12)
        np.testing.assert_allclose(resg.column("lam_min"), resg.column("lower"),
                                   atol=1e-12)


def test_criterion_05_lipschitz_growth_and_endpoint_constants():
    with _criterion(5, 30.0, "flow-map jacobian growth stays under exp(int theta)"):
        target = moderate_gmm4()
        sched = make_schedule("linear")
        ctx = FlowContext(sched=sched, target=target)
        x0 = sample_source(target, sched, 100, 500).points
        traj = integrate_augmented(ctx, x0, 0.0, 1.0, 512, record="all")
        env = theta_profile(RegularityProfile.from_target(target), sched, "mixture")
        cum = 0.0
        prev = 0.0
        for idx in range(0, 513, 32):
            t = float(traj.times[idx])
            if idx:
                cum += env.integral(prev, t)
            prev = t
            # flow-map jacobians are not symmetric: use the top singular value
            op = float(np.linalg.svd(traj.jac[idx], compute_uv=False)[..., 0].max())
            assert op <= math.exp(cum) + 1e-6, (t, op, math.exp(cum))

        gauss = gaussian_target(mean=(0.0, 0.0), var=0.25)
        gp = RegularityProfile.from_target(gauss)
        assert endpoint_lipschitz(gp, sched, "forward", case="gaussian") \
            == 1.0 / math.sqrt(gp.kappa)
        mp = RegularityProfile.from_target(target)
        want = target.sigma * math.exp(mp.R ** 2 / (2.0 * target.sigma ** 2))
        got = endpoint_lipschitz(mp, sched, "forward", case="mixture")
        assert math.isclose(got, want, rel_tol=1e-15, abs_tol=0.0)


def test_criterion_06_autoencode_and_cycle_round_trips():
    with _criterion(6, 60.0, "round trips close to identity, 4th-order decay"):
        lin = make_schedule("linear")
        target = moderate_gmm4()
        # the order check needs coarse steps: at 2048 the round trip is
        # already at the float roundoff floor.  The mirrored legs cancel
        # most of the leading truncation term, so the measured reduction
        # per doubling lands near 32x rather than the guaranteed 16x.
        auto = run_autoencode(ExperimentConfig(
            target=target, sched=lin, n=256, seed=600,
            steps_grid=(64, 128, 2048)))
        med = auto.column("median_err")
        assert med[-1] <= 1e-3
        assert 8.0 <= med[0] / med[1] <= 48.0

        # second target: same radius-2 ring rotated 45 degrees
        r = math.sqrt(2.0)
        rot = mixture_target(weights=(0.25,) * 4,
                             means=((r, r), (-r, r), (-r, -r), (r, -r)),
                             sigma=0.5)
        cyc = run_cycle(ExperimentConfig(
            target=target, sched=lin, n=256, seed=601,
            steps_grid=(64, 128, 2048), target2=rot))
        cmed = cyc.column("median_err")
        assert cmed[-1] <= 5e-3
        assert 8.0 <= cmed[0] / cmed[1] <= 48.0


def test_criterion_07_source_perturbation_sweep():
    with _criterion(7, 300.0, "shifted-linear sweep: linear W2 trend, gaussian bound"):
        # the gaussian bound check starts at zeta > 0: at zeta = 0 both
        # sides reduce to independent realizations of the same sampling
        # floor and the comparison carries no information
        gres = run_source_perturbation(ExperimentConfig(
            target=gaussian_target(mean=(0.8, -0.6), var=0.49),
            sched=make_schedule("linear"), n=1024, steps=256, seed=701,
            zeta_grid=tuple(np.linspace(0.02, 0.3, 16))))
        assert gres.meta["bound_checked"]
        assert np.all(gres.column("w2") <= gres.column("bound_rhs"))

        zetas = tuple(np.linspace(0.0, 0.3, 16))
        res = run_source_perturbation(ExperimentConfig(
            target=paper_gmm8(), sched=make_schedule("linear"), n=2048,
            steps=512, seed=700, zeta_grid=zetas))
        # known blocker: the eight-mode benchmark is rotationally symmetric,
        # so the mode occupancy of the generated cloud is independent of the
        # truncation and the cloud-level W2 sits on its sampling floor
        # (about 1.6 here) with no first-order trend to fit
        assert res.fit.slope > 0.0, (
            f"no rising W2 trend over the truncation sweep: slope "
            f"{res.fit.slope:.3e}, R^2 {res.fit.r_squared:.3f}, "
            f"w2 range [{res.column('w2').min():.4f}, {res.column('w2').max():.4f}]")
        assert res.fit.r_squared >= 0.9, res.fit


def test_criterion_08_velocity_noise_sweep():
    with _criterion(8, 300.0, "bernoulli velocity noise: quadratic W2 growth, bound"):
        eps = tuple(np.linspace(0.5, 5.5, 16))
        res = run_velocity_perturbation(ExperimentConfig(
            target=paper_gmm8(), sched=make_schedule("linear"), n=2048,
            steps=512, seed=800, eps_grid=eps))
        assert np.all(res.column("w2_sq") <= res.column("bound_rhs"))
        # known blocker: on the eight-mode benchmark the response to the held
        # sign field is dominated by discrete mode reassignments, whose count
        # rises steeply and then saturates (272 of 2048 particles change
        # nearest mode at eps 0.5, 1 603 at 5.5), not the quadratic channel
        assert res.fit.r_squared >= 0.95, (
            f"noise response is not linear in the squared amplitude: R^2 "
            f"{res.fit.r_squared:.3f}, w2_sq range "
            f"[{res.column('w2_sq').min():.3f}, {res.column('w2_sq').max():.3f}]")


def test_criterion_09_flow_difference_identity():
    with _criterion(9, 10.0, "perturbation-difference identity, 4th-order decay"):
        lin = make_schedule("linear")
        gres = run_ag_check(ExperimentConfig(
            target=gaussian_target(mean=(0.2, -0.1), var=1.0), sched=lin,
            n=4, steps=1024, seed=900, delta=(0.1, 0.0)))
        assert gres.column("rel_residual")[-1] <= 1e-3

        gmm2 = mixture_target(weights=(0.5, 0.5),
                              means=((-1.0, 0.0), (1.0, 0.5)), sigma=0.6)
        res = run_ag_check(ExperimentConfig(
            target=gmm2, sched=lin, n=4, seed=901, delta=(0.05, -0.02),
            steps_grid=(128, 256, 512, 1024)))
        assert res.column("rel_residual")[-1] <= 1e-3
        assert res.fit.slope <= -3.5, res.fit  # log2-log2 slope, expect -4


def test_criterion_10_oracle_equivalences():
    with _criterion(10, 30.0, "assignment W2 vs brute force; derivatives vs FD"):
        rng = np.random.default_rng(1000)
        for n in range(2, 8):
            for _ in range(3):
                a = rng.normal(size=(n, 2))
                b = rng.normal(size=(n, 2)) + 0.5
                assert math.isclose(w2(a, b), w2_bruteforce(a, b),
                                    rel_tol=0.0, abs_tol=1e-12)

        fams = (gaussian_target(mean=(0.4, -0.2), var=0.49),
                mixture_target(weights=(0.3, 0.7),
                               means=((-1.5, 0.5), (1.0, -0.5)), sigma=0.6),
                moderate_gmm4(),
                paper_gmm8())
        for target in fams:
            ctx = FlowContext(sched=make_schedule("linear"), target=target)
            for _ in range(100):
                t = float(rng.uniform(0.05, 0.95))
                x = sample_interpolant(target, ctx.sched, t, 1,
                                       int(rng.integers(2 ** 32))).points[0]
                jac = velocity_jacobian(ctx, t, x)
                jac_fd = jacobian_fd(lambda y: velocity(ctx, t, y), x)
                tol = 1e-5 * max(1.0, float(np.abs(jac).max()))
                assert float(np.abs(jac - jac_fd).max()) <= tol

                dv = velocity_dt(ctx, t, x)
                dv_fd = central_diff(lambda s: velocity(ctx, s, x), t)
                tol = 1e-5 * max(1.0, float(np.abs(dv).max()))
                assert float(np.abs(dv - dv_fd).max()) <= tol
