"""The benchmark's workloads: inputs, the timed calls, and output checks.

Every workload calls gif_lab only through public module attributes looked
up at call time (``experiments.run_ag_check``, ``cli.dispatch``, ...), so
the traced run sees the same calls once ``tracer.install`` has wrapped
them.  All workloads run in one process with ``threads=1``, the default of
every in-repo caller.

One *operation* is one zeta point, one steps-grid entry, or one draw/W2
call.  A failed check or an exception fails the operations it covers and
never aborts the run.
"""

from __future__ import annotations

import hashlib
import json
import math
import traceback
from pathlib import Path

import numpy as np

from gif_lab import cli, experiments, flow, metrics, schedules, targets

# Captured before any tracing wrapper is installed, so checks never count as
# work of the traced run.
_keyed_generator = metrics.keyed_generator

# Stream domains of the per-particle Philox contract in gif_lab.metrics.
_TARGET_DOMAIN = 1
_SOURCE_DOMAIN = 2
_PROJ_DOMAIN = 3

_HERE = Path(__file__).resolve().parent
CHECK_INDICES = 16


class Outcome:
    """Result or exception of one public call."""

    __slots__ = ("value", "error")

    def __init__(self, value=None, error=None):
        self.value = value
        self.error = error

    @property
    def ok(self) -> bool:
        return self.error is None


def attempt(fn, *args, **kwargs) -> Outcome:
    try:
        return Outcome(value=fn(*args, **kwargs))
    except Exception as exc:  # a failing call is a failed operation, not a crash
        traceback.print_exc()
        return Outcome(error=exc)


def warmup(workdir: Path) -> None:
    """One small call into each gif_lab module, so lazy set-up is done."""
    sched = schedules.make_schedule("linear")
    sched.eval(0.5)
    target = experiments.moderate_gmm4()
    x = metrics.sample_target(target, 4, 0).points
    targets.denoiser(target, sched, 0.5, x)
    ctx = flow.FlowContext(sched=sched, target=target)
    flow.integrate(ctx, x, 0.0, 1.0, 2, record="final")
    metrics.w2(x, x + 1.0)
    experiments.run_ag_check(experiments.ExperimentConfig(
        target=target, sched=sched, n=1, steps=32, delta=(0.01, 0.0)))
    workdir.mkdir(parents=True, exist_ok=True)
    cfg = workdir / "warmup.cfg"
    cfg.write_text("target = moderate-gmm4\n")
    rc = cli.dispatch(["sample", "--config", str(cfg), "--n", "4", "--seed", "0",
                       "--no-timestamp", "--out", str(workdir / "warmup")])
    if rc != 0:
        raise RuntimeError(f"warm-up CLI call exited with {rc}")


# --------------------------------------------------------------------------
# independent per-particle recomputation, the oracle for seeded clouds


def _polar(gen, d: int) -> np.ndarray:
    out = np.empty(d)
    i = 0
    while i < d:
        u = 2.0 * gen.random() - 1.0
        v = 2.0 * gen.random() - 1.0
        s = u * u + v * v
        if s >= 1.0 or s == 0.0:
            continue
        f = math.sqrt(-2.0 * math.log(s) / s)
        out[i] = u * f
        i += 1
        if i < d:
            out[i] = v * f
            i += 1
    return out


def gaussian_particle(seed: int, i: int, d: int) -> np.ndarray:
    return 1.0 * _polar(_keyed_generator(seed, _SOURCE_DOMAIN, i), d)


def target_particle(target, seed: int, i: int) -> np.ndarray:
    gen = _keyed_generator(seed, _TARGET_DOMAIN, i)
    cumw = np.cumsum(target.weights)
    comp = min(int(np.searchsorted(cumw, gen.random(), side="right")),
               target.n_components - 1)
    return target.means[comp] + target.sigma * _polar(gen, target.dim)


def sliced_w2_oracle(pa: np.ndarray, pb: np.ndarray, n_proj: int, seed: int) -> float:
    total = 0.0
    for j in range(n_proj):
        u = _polar(_keyed_generator(seed, _PROJ_DOMAIN, j), pa.shape[1])
        u /= max(float(np.linalg.norm(u)), 1e-300)
        d = np.sort(pa @ u) - np.sort(pb @ u)
        total += float(np.mean(d * d))
    return math.sqrt(total / n_proj)


class _HashingWriter:
    """Text sink that keeps only the SHA-256 of the UTF-8 bytes written."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def write(self, text: str) -> int:
        self._hash.update(text.encode())
        return len(text)

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def check_indices(seed: int, n: int) -> list:
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, n, size=CHECK_INDICES - 2)
    return sorted({0, n - 1, *map(int, picks)})


def cloud_matches(points, expect_fn, indices) -> bool:
    pts = np.asarray(points)
    return all(np.array_equal(pts[i], expect_fn(i)) for i in indices)


# --------------------------------------------------------------------------


class Workload:
    """Inputs for one seed, the timed call sequence and its checks.

    ``keys`` lists the inputs a run cycles through; ``run(key)`` is the timed
    repetition and ``check(key, out)`` returns how many of its
    ``ops_per_rep`` operations failed.
    """

    name = ""
    ops_per_rep = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.keys: list = []
        self._first: dict = {}

    def prepare_checks(self) -> None:
        """Untimed, untraced work that the checks compare against."""

    def params(self) -> dict:
        return {}

    def probe_inputs(self):
        """(target, schedule, cloud) at the workload's own n and k."""
        raise NotImplementedError

    def same_as_first(self, key, values) -> bool:
        """Bit-identical to the first repetition of this input."""
        arr = np.array(values, dtype=float)
        first = self._first.setdefault(key, arr)
        return np.array_equal(first, arr)


class SourceSweep(Workload):
    """Source-replacement sweep on the paper's eight-mode target."""

    name = "source-sweep"
    N = 1024
    STEPS = 128
    ZETAS = (0.0, 0.1, 0.2, 0.3)
    ANCHOR_SEED = 0
    W2_REL_TOL = 1e-6
    ops_per_rep = len(ZETAS)

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        # exact-assignment time depends on the cloud, so every run averages
        # the anchor input (stored W2 values) and two inputs from its seed
        self.keys = [self.ANCHOR_SEED, 2 * seed + 1, 2 * seed + 2]
        self.target = experiments.paper_gmm8()
        sched = schedules.make_schedule("linear")
        self.configs = {k: experiments.ExperimentConfig(
            target=self.target, sched=sched, n=self.N, steps=self.STEPS, seed=k,
            zeta_grid=self.ZETAS) for k in self.keys}
        stored = json.loads((_HERE / "expected.json").read_text())[self.name]
        self.stored_w2 = stored["w2"]

    def params(self) -> dict:
        return {"target": "paper_gmm8", "schedule": "linear", "n": self.N,
                "steps": self.STEPS, "zeta_grid": list(self.ZETAS),
                "input_seeds": self.keys}

    def probe_inputs(self):
        x = metrics.sample_gaussian(self.target.dim, self.N, self.keys[1]).points
        return self.target, schedules.make_schedule("linear"), x

    def run(self, key):
        return attempt(experiments.run_source_perturbation, self.configs[key])

    def check(self, key, out) -> int:
        if not out.ok:
            return self.ops_per_rep
        res = out.value
        try:
            zeta, b0, w2 = res.column("zeta"), res.column("b0"), res.column("w2")
        except Exception:
            traceback.print_exc()
            return self.ops_per_rep
        if len(w2) != self.ops_per_rep:
            return self.ops_per_rep
        identical = self.same_as_first(key, w2)
        failed = 0
        for i, z in enumerate(self.ZETAS):
            ok = (zeta[i] == z and math.isclose(b0[i], z / (1.0 + z), rel_tol=1e-12,
                                                  abs_tol=1e-15)
                  and math.isfinite(w2[i]) and w2[i] > 0.0 and identical)
            if key == self.ANCHOR_SEED:
                ok = ok and math.isclose(w2[i], self.stored_w2[i], rel_tol=self.W2_REL_TOL)
            failed += not ok
        return failed


class AgCheck(Workload):
    """Criterion 09's flow-difference identity at small batch (n = 4)."""

    name = "ag-check"
    STEPS_GAUSS = 1024
    STEPS_GRID = (128, 256, 512, 1024)
    ops_per_rep = 1 + len(STEPS_GRID)

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.keys = [seed]
        lin = schedules.make_schedule("linear")
        self.gmm2 = targets.mixture_target(weights=(0.5, 0.5),
                                           means=((-1.0, 0.0), (1.0, 0.5)), sigma=0.6)
        self.gauss_cfg = experiments.ExperimentConfig(
            target=targets.gaussian_target(mean=(0.2, -0.1), var=1.0), sched=lin,
            n=4, steps=self.STEPS_GAUSS, seed=900 + 2 * seed, delta=(0.1, 0.0))
        self.mix_cfg = experiments.ExperimentConfig(
            target=self.gmm2, sched=lin, n=4, seed=901 + 2 * seed,
            delta=(0.05, -0.02), steps_grid=self.STEPS_GRID)

    def params(self) -> dict:
        return {"targets": ["gaussian", "gmm2"], "schedule": "linear", "n": 4,
                "steps": self.STEPS_GAUSS, "steps_grid": list(self.STEPS_GRID),
                "config_seeds": [self.gauss_cfg.seed, self.mix_cfg.seed]}

    def probe_inputs(self):
        x = metrics.sample_gaussian(2, 4, self.mix_cfg.seed).points
        return self.gmm2, schedules.make_schedule("linear"), x

    def run(self, key):
        return (attempt(experiments.run_ag_check, self.gauss_cfg),
                attempt(experiments.run_ag_check, self.mix_cfg))

    def check(self, key, out) -> int:
        gauss, mix = out
        failed = 0
        try:
            rel = gauss.value.column("rel_residual") if gauss.ok else None
            ok = (rel is not None and len(rel) == 1 and bool(np.all(np.isfinite(rel)))
                  and rel[-1] <= 1e-3 and self.same_as_first("gauss", rel))
        except Exception:
            traceback.print_exc()
            ok = False
        failed += not ok

        n_grid = len(self.STEPS_GRID)
        try:
            if not mix.ok:
                return failed + n_grid
            res = mix.value
            rel = res.column("rel_residual")
            if len(rel) != n_grid or res.fit is None or not res.fit.slope <= -3.5:
                return failed + n_grid
            identical = self.same_as_first("mix", rel)
            for i in range(n_grid):
                ok = math.isfinite(rel[i]) and rel[i] > 0.0 and identical
                if i == n_grid - 1:
                    ok = ok and rel[i] <= 1e-3
                failed += not ok
        except Exception:
            traceback.print_exc()
            return failed + n_grid
        return failed


class SampleCli(Workload):
    """The `sample` subcommand at large n, read back, plus a sliced-W2 floor."""

    name = "sample-cli"
    N = 32768
    N_PROJ = 64
    ops_per_rep = 4

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.keys = [seed]
        self.target = experiments.paper_gmm8()
        self.out_dir = workdir / "sample-cli"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.csv_path = self.out_dir / "sample.csv"
        cfg = self.out_dir / "paper-gmm8.cfg"
        cfg.write_text("target = paper-gmm8\n")
        self.argv = ["sample", "--config", str(cfg), "--n", str(self.N),
                     "--seed", str(seed), "--no-timestamp", "--out", str(self.out_dir)]
        self.indices = check_indices(seed, self.N)
        self.expected_sha256 = ""

    def params(self) -> dict:
        return {"target": "paper_gmm8", "n": self.N, "n_projections": self.N_PROJ,
                "argv": self.argv[:1] + ["--config", "<cfg>"] + self.argv[3:-1] + ["<out>"]}

    def prepare_checks(self) -> None:
        # hashed row by row, so the expected CSV adds nothing to peak_rss_mb
        sink = _HashingWriter()
        metrics.sample_target(self.target, self.N, self.seed).write_csv(sink)
        self.expected_sha256 = sink.hexdigest()

    def probe_inputs(self):
        x = metrics.sample_gaussian(self.target.dim, self.N, self.seed).points
        return self.target, schedules.make_schedule("linear"), x

    def run(self, key):
        seed = self.seed
        if self.csv_path.exists():
            self.csv_path.unlink()
        rc = attempt(cli.dispatch, self.argv)
        cloud = attempt(metrics.ParticleCloud.read_csv, self.csv_path)
        gauss = attempt(metrics.sample_gaussian, self.target.dim, self.N, seed)
        other = attempt(metrics.sample_target, self.target, self.N, seed + 1)
        if cloud.ok and other.ok:
            floor = attempt(metrics.w2, cloud.value.points, other.value.points,
                            method="sliced", n_projections=self.N_PROJ, seed=seed)
        else:
            floor = Outcome(error=RuntimeError("no clouds for the sliced W2 call"))
        return rc, cloud, gauss, other, floor

    def check(self, key, out) -> int:
        rc, cloud, gauss, other, floor = out
        seed, target, idx = self.seed, self.target, self.indices
        failed = 0
        try:
            ok = (rc.ok and rc.value == 0 and cloud.ok
                  and hashlib.sha256(self.csv_path.read_bytes()).hexdigest()
                  == self.expected_sha256
                  and cloud.value.n == self.N
                  and cloud_matches(cloud.value.points,
                                    lambda i: target_particle(target, seed, i), idx))
        except Exception:
            traceback.print_exc()
            ok = False
        failed += not ok
        ok = (gauss.ok and gauss.value.points.shape == (self.N, target.dim)
              and cloud_matches(gauss.value.points,
                                lambda i: gaussian_particle(seed, i, target.dim), idx))
        failed += not ok
        ok = (other.ok and other.value.n == self.N
              and cloud_matches(other.value.points,
                                lambda i: target_particle(target, seed + 1, i), idx))
        failed += not ok
        ok = floor.ok and math.isfinite(floor.value) and floor.value > 0.0
        if ok:
            oracle = sliced_w2_oracle(cloud.value.points, other.value.points,
                                      self.N_PROJ, seed)
            ok = (math.isclose(floor.value, oracle, rel_tol=1e-12)
                  and self.same_as_first("floor", [floor.value]))
        failed += not ok
        return failed


WORKLOADS = {w.name: w for w in (SourceSweep, AgCheck, SampleCli)}
