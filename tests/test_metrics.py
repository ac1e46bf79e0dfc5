"""Sampling determinism, Wasserstein distances vs brute force, regression."""

from __future__ import annotations

import importlib.machinery
import io
import math
import os
import pathlib
import subprocess
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from gif_lab.errors import (
    DegenerateInputError,
    InvalidParamError,
    SizeMismatchError,
    TooLargeError,
)
from gif_lab import artifacts, metrics
from gif_lab.metrics import (
    ParticleCloud,
    keyed_generator,
    linear_fit,
    sample_gaussian,
    sample_interpolant,
    sample_source,
    sample_target,
    w2,
)
from gif_lab.schedules import LinearSchedule, ShiftedLinearSchedule
from gif_lab.targets import gaussian_target, mixture_target

import oracles
from oracles import w2_bruteforce


@pytest.fixture
def gmm2():
    return mixture_target(weights=[0.25, 0.75], means=[[-3.0, 0.0], [3.0, 0.0]],
                          sigma=0.5)


class TestSamplingDeterminism:
    def test_same_seed_same_cloud(self, gmm2):
        a = sample_target(gmm2, n=64, seed=123)
        b = sample_target(gmm2, n=64, seed=123)
        assert np.array_equal(a.points, b.points)

    def test_different_seed_differs(self, gmm2):
        a = sample_target(gmm2, n=64, seed=1)
        b = sample_target(gmm2, n=64, seed=2)
        assert not np.array_equal(a.points, b.points)

    def test_prefix_stability(self, gmm2):
        # particle i depends only on (seed, i), never on n
        big = sample_target(gmm2, n=100, seed=9)
        small = sample_target(gmm2, n=40, seed=9)
        assert np.array_equal(big.points[:40], small.points)

    def test_source_is_explicit_coupling(self, gmm2):
        sched = ShiftedLinearSchedule(zeta=0.2)
        n, seed = 32, 5
        src = sample_source(gmm2, sched, n=n, seed=seed)
        z = sample_gaussian(gmm2.dim, n=n, seed=seed)
        x1 = sample_target(gmm2, n=n, seed=seed)
        expect = sched.a0 * z.points + sched.b0 * x1.points
        assert np.allclose(src.points, expect, atol=0.0)

    def test_validation(self, gmm2):
        with pytest.raises(InvalidParamError):
            sample_target(gmm2, n=0, seed=1)
        with pytest.raises(InvalidParamError):
            sample_target(gmm2, n=8, seed=-3)

    def test_seed_beyond_64_bits_rejected(self, gmm2):
        # 2**64 used to wrap to seed 0 and return that seed's cloud
        with pytest.raises(InvalidParamError):
            sample_target(gmm2, n=4, seed=2 ** 64)
        with pytest.raises(InvalidParamError):
            sample_gaussian(2, n=4, seed=2 ** 64)
        with pytest.raises(InvalidParamError):
            w2(np.zeros((4, 2)), np.ones((4, 2)), method="sliced", seed=2 ** 64)
        with pytest.raises(InvalidParamError):
            keyed_generator(2 ** 64, 1, 0)
        top = sample_target(gmm2, n=4, seed=2 ** 64 - 1)
        assert not np.array_equal(top.points, sample_target(gmm2, n=4, seed=0).points)

    def test_domain_beyond_16_bits_rejected(self):
        # domain 1 << 16 used to alias domain 0 of the same seed
        for domain in (1 << 16, -1):
            with pytest.raises(InvalidParamError):
                keyed_generator(0, domain, 0)
        top = keyed_generator(0, np.int64((1 << 16) - 1), np.int64((1 << 48) - 1))
        assert top.random() != keyed_generator(0, 0, (1 << 48) - 1).random()

    @pytest.mark.parametrize("dim", [2.5, 0, -1, "2"])
    def test_dim_must_be_positive_integer(self, dim):
        with pytest.raises(InvalidParamError):
            sample_gaussian(dim, n=4, seed=0)

    @pytest.mark.parametrize("draw", [lambda n: sample_gaussian(2, n, 0),
                                      lambda n: sample_target(gaussian_target([0.0], 1.0), n, 0)],
                             ids=["sample_gaussian", "sample_target"])
    def test_n_beyond_the_stream_index_rejected(self, draw):
        # particle i draws from stream index i, which has 48 bits; the check
        # comes before any buffer of n rows is allocated
        with pytest.raises(InvalidParamError, match=rf"^stream index out of range: {2 ** 48}$"):
            draw(2 ** 48 + 1)


SEEDS = [0, 1, 12345, 2 ** 63 - 1, 2 ** 64 - 1]
DOMAINS = [oracles.TARGET_DOMAIN, oracles.SOURCE_DOMAIN, oracles.PROJ_DOMAIN]
DIMS = [1, 2, 3, 5]
CHUNK = metrics._CHUNK


def _mixture(k: int, d: int):
    rng = np.random.default_rng(10 * k + d)
    w = rng.random(k) + 0.1
    return mixture_target(weights=w / w.sum(), means=rng.normal(scale=3.0, size=(k, d)),
                          sigma=0.7)


class _Counting:
    """A generator's ``random()``, counting the calls."""

    def __init__(self, gen):
        self.gen, self.calls = gen, 0

    def random(self):
        self.calls += 1
        return self.gen.random()


class TestDrawMatchesPerParticleOracle:
    """The vectorised Philox4x64-10 draw against one numpy generator per particle,
    compared bit for bit."""

    @pytest.mark.parametrize("d", DIMS)
    @pytest.mark.parametrize("domain", DOMAINS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_small_clouds(self, seed, domain, d):
        lead = 1 if domain == oracles.TARGET_DOMAIN else 0
        u_ref, z_ref = oracles.stream_draw(seed, domain, 333, d, lead)
        for n in (1, 4, 333):
            u, z = metrics._philox_draw(seed, domain, n, d, lead)
            assert np.array_equal(u, u_ref[:n])
            assert np.array_equal(z, z_ref[:n])

    @pytest.mark.parametrize("seed, domain, d", [
        (seed, domain, DIMS[(i + j) % len(DIMS)])
        for i, seed in enumerate(SEEDS) for j, domain in enumerate(DOMAINS)])
    def test_chunk_boundaries(self, seed, domain, d):
        lead = 1 if domain == oracles.TARGET_DOMAIN else 0
        u_ref, z_ref = oracles.stream_draw(seed, domain, CHUNK + 1, d, lead)
        for n in (CHUNK - 1, CHUNK, CHUNK + 1):
            u, z = metrics._philox_draw(seed, domain, n, d, lead)
            assert np.array_equal(u, u_ref[:n])
            assert np.array_equal(z, z_ref[:n])

    @pytest.mark.parametrize("seed, domain, d, lead, index", [
        (12345, oracles.TARGET_DOMAIN, 2, 1, 2370),
        (12345, oracles.SOURCE_DOMAIN, 1, 0, 165),
        # the last, partial chunk of a four-chunk draw
        (2 ** 63 - 1, oracles.TARGET_DOMAIN, 2, 1, 3 * CHUNK + 4),
    ])
    def test_long_rejection_run(self, seed, domain, d, lead, index):
        gen = _Counting(keyed_generator(seed, domain, index))
        expect_u = [gen.random() for _ in range(lead)]
        expect_z = oracles.polar_normals(gen, d)
        assert gen.calls > 8  # the particle needs more than two 4-word blocks
        u, z = metrics._philox_draw(seed, domain, index + 1, d, lead)
        assert np.array_equal(u[index], expect_u)
        assert np.array_equal(z[index], expect_z)

    @pytest.mark.parametrize("lead", [0, 1])
    @pytest.mark.parametrize("d", DIMS)
    def test_multi_chunk_draw(self, d, lead):
        # every row against its own stream: the rows each chunk stashed for
        # the one rejection loop, the rows at each chunk boundary and all
        # others; each of the four chunks must have stashed rows
        seed, n = 12345, 3 * CHUNK + 17
        domain = oracles.TARGET_DOMAIN if lead else oracles.SOURCE_DOMAIN
        u_ref, z_ref, calls = np.empty((n, lead)), np.empty((n, d)), np.empty(n, dtype=int)
        for i in range(n):
            gen = _Counting(keyed_generator(seed, domain, i))
            u_ref[i] = [gen.random() for _ in range(lead)]
            z_ref[i] = oracles.polar_normals(gen, d)
            calls[i] = gen.calls
        first_words = 4 * -(-(lead + d + d % 2) // 4)
        stashed = np.flatnonzero(calls > first_words)
        assert np.array_equal(np.unique(stashed // CHUNK), np.arange(4))
        u, z = metrics._philox_draw(seed, domain, n, d, lead)
        assert u.flags.c_contiguous and z.flags.c_contiguous
        assert np.array_equal(u, u_ref)
        assert np.array_equal(z, z_ref)

    @pytest.mark.parametrize("d", DIMS)
    @pytest.mark.parametrize("k", [1, 3, 8])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_sample_target(self, seed, k, d):
        target = _mixture(k, d)
        ref = oracles.target_cloud(target, 333, seed)
        for n in (1, 4, 333):
            assert np.array_equal(sample_target(target, n, seed).points, ref[:n])

    @pytest.mark.parametrize("d", DIMS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_sample_gaussian(self, seed, d):
        ref = oracles.gaussian_cloud(d, 333, seed)
        for n in (1, 4, 333):
            assert np.array_equal(sample_gaussian(d, n, seed).points, ref[:n])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_public_clouds_across_chunks(self, seed):
        target = _mixture(8, 2)
        n = CHUNK + 1
        assert np.array_equal(sample_target(target, n, seed).points,
                              oracles.target_cloud(target, n, seed))
        assert np.array_equal(sample_gaussian(3, n, seed).points,
                              oracles.gaussian_cloud(3, n, seed))

    @pytest.mark.parametrize("d", DIMS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_sliced_w2_projections(self, seed, d):
        rng = np.random.default_rng(d)
        a = rng.normal(size=(50, d))
        b = 1.3 * rng.normal(size=(50, d)) + 0.2
        for n_proj in (1, 64):
            assert (w2(a, b, method="sliced", n_projections=n_proj, seed=seed)
                    == oracles.sliced_w2(a, b, n_proj, seed))


class TestSamplingLaw:
    def test_gaussian_samples_pass_ks(self):
        pts = sample_gaussian(1, n=4000, seed=77).points[:, 0]
        stat = stats.kstest(pts, "norm")
        assert stat.pvalue > 1e-3

    def test_target_moments(self, gmm2):
        pts = sample_target(gmm2, n=20_000, seed=4).points
        mean = gmm2.weights @ gmm2.means
        assert pts.mean(axis=0) == pytest.approx(mean, abs=0.1)
        comp_freq = np.mean(pts[:, 0] > 0.0)
        assert comp_freq == pytest.approx(0.75, abs=0.02)

    def test_linear_source_is_standard_normal(self, gmm2):
        pts = sample_source(gmm2, LinearSchedule(), n=4000, seed=8).points
        assert pts.mean(axis=0) == pytest.approx([0.0, 0.0], abs=0.08)
        assert np.cov(pts.T) == pytest.approx(np.eye(2), abs=0.08)

    def test_interpolant_second_moment(self):
        target = gaussian_target(mean=[1.0, -1.0], var=0.25)
        sched = LinearSchedule()
        t = 0.6
        pts = sample_interpolant(target, sched, t, n=30_000, seed=3).points
        p = sched.eval(t)
        expect_mean = p.b * np.array([1.0, -1.0])
        expect_var = p.a ** 2 + 0.25 * p.b ** 2
        assert pts.mean(axis=0) == pytest.approx(expect_mean, abs=0.05)
        assert np.var(pts, axis=0) == pytest.approx([expect_var] * 2, rel=0.08)


class TestExactW2:
    def test_singletons(self):
        a = np.array([[0.0, 0.0]])
        b = np.array([[3.0, 4.0]])
        assert w2(a, b) == pytest.approx(5.0)

    def test_translation(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(7, 3))
        shift = np.array([1.0, -2.0, 0.5])
        assert w2(a, a + shift) == pytest.approx(np.linalg.norm(shift), abs=1e-12)

    def test_identical_clouds(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(50, 2))
        assert w2(a, a.copy()) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_bruteforce(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(6, 2))
        b = rng.normal(size=(6, 2)) + rng.normal(scale=2.0, size=2)
        assert w2(a, b) == pytest.approx(w2_bruteforce(a, b), abs=1e-12)

    def test_accepts_particle_clouds(self, gmm2):
        a = sample_target(gmm2, n=16, seed=0)
        b = sample_target(gmm2, n=16, seed=1)
        assert w2(a, b) == pytest.approx(w2(a.points, b.points))

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            w2(np.zeros((4, 2)), np.zeros((5, 2)))

    def test_dim_mismatch(self):
        with pytest.raises(SizeMismatchError):
            w2(np.zeros((4, 2)), np.zeros((4, 3)))

    def test_size_cap(self):
        big = np.zeros((4097, 2))
        with pytest.raises(TooLargeError):
            w2(big, big)

    @pytest.mark.parametrize("n", [1, 7, 300, 1024])
    def test_one_dimension_sorts(self, n):
        # the monotone pairing of the sorted clouds is the optimal assignment
        rng = np.random.default_rng(n)
        a, b = rng.normal(size=(n, 1)), rng.normal(loc=0.5, scale=2.0, size=(n, 1))
        assert w2(a, b) == pytest.approx(_public_w2(a, b), rel=1e-15, abs=0.0)

    def test_one_dimension_has_no_size_cap(self):
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=(4097, 1)), rng.normal(size=(4097, 1)) + 3.0
        expect = math.sqrt(np.mean((np.sort(a[:, 0]) - np.sort(b[:, 0])) ** 2))
        assert w2(a, b) == pytest.approx(expect, rel=1e-15)

    @pytest.mark.parametrize("method", ["exact", "sliced"])
    def test_zero_width_clouds_rejected(self, method):
        with pytest.raises(SizeMismatchError, match="expected an \\(n, d\\) cloud"):
            w2(np.zeros((3, 0)), np.zeros((3, 0)), method=method)


def _public_w2(a, b) -> float:
    """W2 through scipy's public cdist and linear_sum_assignment."""
    cost = cdist(a, b, "sqeuclidean")
    rows, cols = linear_sum_assignment(cost)
    return float(math.sqrt(cost[rows, cols].mean()))


def _fresh(code: str) -> list:
    """stdout words of ``code`` run in a fresh interpreter on this checkout."""
    src = pathlib.Path(metrics.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.split()


class TestExactW2Kernel:
    """The compiled assignment kernel, loaded without scipy.optimize, on a
    cost matrix built in numpy."""

    @pytest.mark.parametrize("d", [1, 2, 3, 9])
    @pytest.mark.parametrize("n", [1, 65, 200])
    @pytest.mark.parametrize("scale, offset", [(1.0, 0.0), (1e3, 5.0), (1e-3, -7.0)])
    def test_equals_cdist_and_public_solver(self, d, n, scale, offset):
        # 65 and 200 are not multiples of the row block
        rng = np.random.default_rng(d * 1000 + n)
        a = rng.normal(size=(n, d)) * scale + offset
        b = rng.normal(size=(n, d)) * 1.3 * scale
        assert np.array_equal(metrics._sq_cost(a, b), cdist(a, b, "sqeuclidean"))
        assert w2(a, b) == _public_w2(a, b)

    def test_fresh_interpreter_never_imports_scipy_optimize(self):
        code = ("import sys, numpy as np, gif_lab; from gif_lab import metrics; "
                "x = np.arange(12.0).reshape(6, 2); metrics.w2(x, x[::-1] + 1.0); "
                "print('scipy.optimize' in sys.modules, 'scipy.spatial' in sys.modules); "
                "import scipy.optimize; "
                "print(scipy.optimize.linear_sum_assignment is metrics._linear_sum_assignment)")
        assert _fresh(code) == ["False", "False", "True"]

    def test_already_imported_module_is_reused(self):
        code = ("import scipy.optimize, gif_lab; from gif_lab import metrics; "
                "print(metrics._linear_sum_assignment is scipy.optimize.linear_sum_assignment)")
        assert _fresh(code) == ["True"]

    def test_without_a_matching_file_the_public_import_runs(self, monkeypatch):
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=(40, 3)), rng.normal(size=(40, 3)) + 0.5
        want = w2(a, b)
        monkeypatch.delitem(sys.modules, metrics._LSAP_MODULE)
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".no-such-suffix"])
        assert metrics._load_lsap() is None
        import scipy.optimize
        calls = []

        def spy(cost):
            calls.append(cost.shape)
            return linear_sum_assignment(cost)

        monkeypatch.setattr(metrics, "_linear_sum_assignment", None)
        monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", spy)
        assert w2(a, b) == want
        assert calls == [(40, 40)]

    def test_fallback_in_a_fresh_interpreter(self):
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=(30, 2)), rng.normal(size=(30, 2))
        code = ("import importlib.machinery, sys; "
                "importlib.machinery.EXTENSION_SUFFIXES = ['.no-such-suffix']; "
                "import numpy as np; from gif_lab import metrics; "
                "print(metrics._linear_sum_assignment is None, 'scipy.optimize' in sys.modules); "
                f"a = np.array({a.tolist()!r}); b = np.array({b.tolist()!r}); "
                "print(repr(metrics.w2(a, b)), 'scipy.optimize' in sys.modules)")
        assert _fresh(code) == ["True", "False", repr(_public_w2(a, b)), "True"]

    def test_module_without_the_function_falls_back(self, monkeypatch):
        monkeypatch.setitem(sys.modules, metrics._LSAP_MODULE,
                            types.ModuleType(metrics._LSAP_MODULE))
        assert metrics._load_lsap() is None

    def test_missing_scipy_fails_only_at_exact_w2(self):
        # a None entry in sys.modules makes scipy unimportable
        code = ("import sys; sys.modules['scipy'] = None; import numpy as np, gif_lab; "
                "from gif_lab import metrics; x = np.arange(8.0).reshape(4, 2); "
                "print(metrics._linear_sum_assignment is None, "
                "metrics.w2(x, x, method='sliced') == 0.0)\n"
                "try:\n    metrics.w2(x, x)\n"
                "except ImportError as exc:\n    print(type(exc).__name__)")
        assert _fresh(code) == ["True", "True", "ModuleNotFoundError"]


class TestSlicedW2:
    def test_1d_equals_exact(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(40, 1))
        b = rng.normal(size=(40, 1)) + 0.7
        s = w2(a, b, method="sliced", n_projections=8)
        assert s == pytest.approx(w2(a, b), abs=1e-12)

    def test_never_exceeds_exact(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            a = rng.normal(size=(64, 2))
            b = rng.normal(size=(64, 2)) * 1.4 + 0.3
            s = w2(a, b, method="sliced", n_projections=32, seed=seed)
            assert s <= w2(a, b) + 1e-12

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(30, 2))
        b = rng.normal(size=(30, 2))
        s1 = w2(a, b, method="sliced", n_projections=16, seed=11)
        s2 = w2(a, b, method="sliced", n_projections=16, seed=11)
        assert s1 == s2
        s3 = w2(a, b, method="sliced", n_projections=16, seed=12)
        assert s1 != s3

    def test_unequal_sizes_quantile_value(self):
        # hand value: uniform({0,1}) vs uniform({0,0.5,1}) has W2^2 = 1/12
        a = np.array([[0.0], [1.0]])
        b = np.array([[0.0], [0.5], [1.0]])
        s = w2(a, b, method="sliced", n_projections=4)
        assert s == pytest.approx(math.sqrt(1.0 / 12.0), abs=1e-12)

    def test_validates_projection_count(self):
        with pytest.raises(InvalidParamError):
            w2(np.zeros((4, 2)), np.zeros((4, 2)), method="sliced", n_projections=0)

    def test_unknown_method(self):
        with pytest.raises(InvalidParamError):
            w2(np.zeros((4, 2)), np.zeros((4, 2)), method="swd")


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_exact_w2_triangle_inequality(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (rng.normal(size=(5, 2)) for _ in range(3))
    assert w2(a, c) <= w2(a, b) + w2(b, c) + 1e-9


class TestLinearFit:
    def test_recovers_exact_line(self):
        xs = np.linspace(0.0, 1.0, 9)
        ys = 2.5 * xs - 0.7
        fit = linear_fit(xs, ys)
        assert fit.slope == pytest.approx(2.5, abs=1e-12)
        assert fit.intercept == pytest.approx(-0.7, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.n == 9

    def test_constant_ys(self):
        fit = linear_fit([0.0, 1.0, 2.0], [0.1, 0.1, 0.1])
        assert fit.slope == 0.0
        assert fit.r_squared == 0.0
        assert fit.intercept == pytest.approx(0.1)

    def test_noisy_r2_below_one(self):
        rng = np.random.default_rng(1)
        xs = np.linspace(0, 1, 50)
        ys = xs + rng.normal(scale=0.1, size=50)
        fit = linear_fit(xs, ys)
        assert 0.5 < fit.r_squared < 1.0

    def test_identical_xs_rejected(self):
        with pytest.raises(DegenerateInputError):
            linear_fit([1.0, 1.0, 1.0], [0.0, 1.0, 2.0])

    def test_needs_two_points(self):
        with pytest.raises(DegenerateInputError):
            linear_fit([1.0], [2.0])


class TestParticleCloudCsv:
    def test_round_trip(self, gmm2):
        cloud = sample_target(gmm2, n=10, seed=3)
        buf = io.StringIO()
        cloud.write_csv(buf)
        text = buf.getvalue()
        assert text.splitlines()[0] == "x1,x2"
        back = ParticleCloud.read_csv(io.StringIO(text))
        assert np.array_equal(back.points, cloud.points)

    def test_rewrite_is_byte_identical(self, gmm2):
        cloud = sample_target(gmm2, n=10, seed=3)
        b1, b2 = io.StringIO(), io.StringIO()
        cloud.write_csv(b1)
        cloud.write_csv(b2)
        assert b1.getvalue() == b2.getvalue()

    def test_timestamp_line_skipped_on_read(self, gmm2):
        cloud = sample_target(gmm2, n=4, seed=0)
        buf = io.StringIO()
        cloud.write_csv(buf, timestamp="2026-02-02T10:00:00")
        assert buf.getvalue().startswith("# generated: ")
        back = ParticleCloud.read_csv(io.StringIO(buf.getvalue()))
        assert np.array_equal(back.points, cloud.points)

    def test_reads_are_utf8_under_encoding_warnings(self, tmp_path, gmm2):
        # every writer writes UTF-8; a read that took the locale's encoding
        # would raise EncodingWarning here, and misread the config's comment
        cfg, csv = tmp_path / "run.cfg", tmp_path / "cloud.csv"
        cfg.write_text("# \u03b6 grid\ntarget = gaussian\n", encoding="utf-8")
        cloud = sample_target(gmm2, n=5, seed=2)
        cloud.write_csv(csv)
        code = ("import sys; from gif_lab.config import load_config; "
                "from gif_lab.metrics import ParticleCloud; "
                "print(load_config(sys.argv[1])['target'], "
                "ParticleCloud.read_csv(sys.argv[2]).points.tobytes().hex())")
        src = pathlib.Path(metrics.__file__).resolve().parents[1]
        out = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-c", code, str(cfg), str(csv)],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["gaussian", cloud.points.tobytes().hex()]

    def test_round_trip_is_bit_exact_across_chunks(self, tmp_path):
        # more text than one read chunk, with extreme and subnormal values
        rng = np.random.default_rng(17)
        pts = rng.normal(size=(6000, 3)) * 10.0 ** rng.integers(-300, 300, size=(6000, 1))
        pts[0] = (5e-324, -0.0, 1.7976931348623157e308)
        path = tmp_path / "cloud.csv"
        ParticleCloud(pts).write_csv(path, timestamp="2026-02-02T10:00:00")
        assert path.stat().st_size > 2 * artifacts._READ_BYTES
        back = ParticleCloud.read_csv(path)
        assert back.points.tobytes() == pts.tobytes()

    def test_blank_and_comment_lines_skipped(self):
        text = "# a\n\nx1,x2\n1.5,2.0\n\n# b\n-3.0,4.25\n"
        back = ParticleCloud.read_csv(io.StringIO(text))
        assert np.array_equal(back.points, [[1.5, 2.0], [-3.0, 4.25]])

    def test_ragged_row_names_line(self):
        text = "x1,x2\n1.0,2.0\n3.0,4.0,5.0\n"
        with pytest.raises(SizeMismatchError, match="line 3: 3 fields, expected 2"):
            ParticleCloud.read_csv(io.StringIO(text))

    def test_width_change_at_chunk_boundary_names_line(self):
        # the first read chunk ends with the last 2-field row, so the
        # 3-field rows form chunks of their own
        n_rows = -(-(artifacts._READ_BYTES - 10) // 8)
        text = "# c\nx1,x2\n" + "1.0,2.0\n" * n_rows + "1.0,2.0,3.0\n" * 9000
        with pytest.raises(SizeMismatchError,
                           match=f"line {n_rows + 3}: 3 fields, expected 2"):
            ParticleCloud.read_csv(io.StringIO(text))

    def test_non_numeric_field_names_line(self):
        text = "# generated: now\nx1,x2\n1.0,2.0\n3.0,abc\n"
        with pytest.raises(InvalidParamError, match="line 4: non-numeric"):
            ParticleCloud.read_csv(io.StringIO(text))
        with pytest.raises(InvalidParamError, match="line 3"):
            ParticleCloud.read_csv(io.StringIO("x1,x2\n1.0,2.0\n1.0,\n"))

    def test_header_only_is_degenerate(self):
        with pytest.raises(DegenerateInputError):
            ParticleCloud.read_csv(io.StringIO("# c\nx1,x2\n\n"))
