"""gif-lab benchmark: one workload, one seed, timed or traced.

Usage (from the repository root):

    python3 benchmarks/run.py --workload source-sweep --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers installed.
``--trace 1`` alternates untraced and traced repetitions of the same input
and reports the per-layer metrics; the ratio of the two is the tracing
overhead.  Metric names and units come from ``BENCHMARK.json``.  The last
line of standard output is the JSON result; a summary, the environment
block and per-repetition figures go to ``.benchrun/`` and to the lines
above it.  ``python3 benchmarks/report.py`` runs every workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".benchrun"
SETUP_PROBES = 3
PROBE_CALLS = 21

# span-name prefixes whose outermost spans give the inclusive layer times
PREFIXES = ("experiments.run_", "flow.integrate", "flow.velocity", "schedules.",
            "metrics.sample_", "metrics.w2_exact", "metrics.w2_sliced",
            "metrics.csv_write", "metrics.csv_read", "cli.dispatch", "config.")


def fail(msg: str) -> None:
    print(f"benchmark error: {msg}", file=sys.stderr)
    sys.exit(2)


def setup_probe(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(WORKDIR)],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0 or not proc.stdout.strip():
        fail(f"set-up probe exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if Path(out["gif_lab"]).resolve().parent.parent != SRC.resolve():
        fail(f"set-up probe imported gif_lab from {out['gif_lab']}, not {SRC}")
    return out


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
            shared = (index / "shared_cpu_list").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = {"size": size, "shared_cpu_list": shared}
    return sizes


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _kib(text: str) -> int:
    text = text.strip().upper()
    scale = {"K": 1, "M": 1024}.get(text[-1:], None)
    return int(text[:-1]) * scale if scale else int(text) // 1024


def env_block(seed: int, wl) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = _cache_sizes()
    params = wl.params()
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "click": metadata.version("click"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                             "MKL_NUM_THREADS")},
        "seed": seed,
        "threads": 1,
        "workload": wl.name,
        "params": params,
    }
    # n*k*d doubles per RK4 stage of source-sweep, the largest working set
    # of any workload; it fits in L2, so no workload measures memory bandwidth
    import workloads

    gmm8 = workloads.experiments.paper_gmm8()
    env["source_sweep_stage_bytes"] = (
        workloads.SourceSweep.N * gmm8.n_components * gmm8.dim * 8)
    if "L2" in caches:
        env["source_sweep_stage_fits_l2"] = (
            env["source_sweep_stage_bytes"] <= _kib(caches["L2"]["size"]) * 1024)
    return env


def quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0]] * 3 if values else []
    q = statistics.quantiles(values, n=4)
    return [q[0], statistics.median(values), q[2]]


def measure(wl, seconds: float, tracer=None, install=None) -> dict:
    """Repeat the workload, cycling its inputs, until ``seconds`` are used.

    Each unit is one untraced repetition, followed in the traced run by one
    traced repetition of the same input.  Every input runs at least once and
    the first input at least twice, so repeat determinism is always checked.
    Output checks run outside the timed region and outside tracing.  Each
    untraced repetition records wall and process time, so a slower host
    phase can be told apart from more work done by the program.
    """
    plain, traced = [], []
    attempted = failed = 0
    min_units = len(wl.keys) + (tracer is None)
    start = time.perf_counter()
    longest = 0.0
    unit = 0
    while True:
        key = wl.keys[unit % len(wl.keys)]
        unit_start = time.perf_counter()
        c0, t0 = time.process_time(), time.perf_counter()
        out = wl.run(key)
        plain.append((key, time.perf_counter() - t0, time.process_time() - c0))
        failed += wl.check(key, out)
        attempted += wl.ops_per_rep
        if tracer is not None:
            tracer.rep = unit
            install(tracer)
            root = tracer.wrap("bench.rep", wl.run)
            try:
                t0 = time.perf_counter()
                out = root(key)
                traced.append((key, time.perf_counter() - t0, unit))
            finally:
                tracer.restore()
            failed += wl.check(key, out)
            attempted += wl.ops_per_rep
        unit += 1
        now = time.perf_counter()
        longest = max(longest, now - unit_start)
        if unit >= min_units and now - start + longest > seconds:
            break
    return {"plain": plain, "traced": traced, "attempted": attempted,
            "failed": failed, "elapsed_s": time.perf_counter() - start}


def run_seconds(wl, plain: list, column: int = 1) -> float:
    """Mean over the run's inputs of each input's median repetition time.

    ``column`` 1 is wall time, 2 process time.
    """
    per_key = [statistics.median(rep[column] for rep in plain if rep[0] == key)
               for key in wl.keys]
    return statistics.fmean(per_key)


def probe_us(fn, args) -> float:
    for _ in range(2):
        fn(*args)
    times = []
    for _ in range(PROBE_CALLS):
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6


def layer_metrics(tracer, traced: list) -> list:
    from tracer import rep_table

    per_rep = []
    for _, wall, rep in traced:
        tab = rep_table(tracer.spans, rep, PREFIXES)
        c, inc, work = tab["counts"], tab["incl"], tab["work"]
        steps, particle_steps = work.get("flow.integrate", [0, 0])
        particles = (work.get("metrics.sample_gaussian", [0])[0]
                     + work.get("metrics.sample_target", [0])[0])
        sample_s = inc["metrics.sample_"]
        self_sum = sum(tab["self"].values())
        per_rep.append({
            "experiments.runner_s": inc["experiments.run_"],
            "experiments.self_s": tab["self"].get("experiments", 0.0),
            "flow.integrate_s": inc["flow.integrate"],
            "flow.integrate_calls": c.get("flow.integrate", 0),
            "flow.rk4_steps": steps,
            "flow.particle_steps": particle_steps,
            "flow.step_us": inc["flow.integrate"] / steps * 1e6 if steps else 0.0,
            "flow.velocity_s": inc["flow.velocity"],
            "flow.velocity_calls": c.get("flow.velocity", 0),
            "schedules.eval_s": inc["schedules."],
            "schedules.eval_calls": sum(v for k, v in c.items()
                                        if k.startswith("schedules.")),
            "metrics.sample_s": sample_s,
            "metrics.sample_particles": particles,
            "metrics.keyed_generator_calls": c.get("metrics.keyed_generator", 0),
            "metrics.sample_us_particle": sample_s / particles * 1e6 if particles else 0.0,
            "metrics.w2_exact_s": inc["metrics.w2_exact"],
            "metrics.w2_exact_calls": c.get("metrics.w2_exact", 0),
            "metrics.w2_sliced_s": inc["metrics.w2_sliced"],
            "metrics.w2_sliced_calls": c.get("metrics.w2_sliced", 0),
            "metrics.csv_write_s": inc["metrics.csv_write"],
            "metrics.csv_read_s": inc["metrics.csv_read"],
            "cli.dispatch_s": inc["cli.dispatch"],
            "cli.self_s": tab["self"].get("cli", 0.0),
            "config.load_s": inc["config."],
            "trace.spans": sum(c.values()),
            "_self": tab["self"],
            "_counts": c,
            "_wall": wall,
            "_self_sum_gap": abs(self_sum - wall),
        })
    return per_rep


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be nonnegative")

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "gif_lab" / "__init__.py").is_file():
        fail(f"no gif_lab package under {SRC}")
    if not spec_path.is_file():
        fail("BENCHMARK.json not found at the repository root")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    WORKDIR.mkdir(exist_ok=True)

    probes = [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]

    sys.path.insert(0, str(SRC))
    import gif_lab
    import workloads
    from tracer import Tracer, install

    if Path(gif_lab.__file__).resolve().parent.parent != SRC.resolve():
        fail(f"imported gif_lab from {gif_lab.__file__}, not {SRC}")
    modules = {name: getattr(gif_lab, name)
               for name in ("cli", "experiments", "metrics", "schedules")}

    wl = workloads.WORKLOADS[args.workload](args.seed, WORKDIR)
    workloads.warmup(WORKDIR)
    rss_marks = {"after_warmup": peak_rss_mb()}
    wl.prepare_checks()
    rss_marks["after_prepare_checks"] = peak_rss_mb()

    tracer = Tracer() if args.trace else None
    res = measure(wl, args.seconds, tracer, lambda t: install(t, modules))
    rss_marks["after_measure"] = peak_rss_mb()
    plain_times = [dt for _, dt, _ in res["plain"]]
    cpu_times = [cpu for _, _, cpu in res["plain"]]
    record = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "env": env_block(args.seed, wl),
              "setup_probes": probes,
              "rep_s": [[k, dt, cpu] for k, dt, cpu in res["plain"]],
              "run_s_quartiles": quartiles(plain_times),
              "rep_cpu_s_quartiles": quartiles(cpu_times),
              "run_cpu_s": run_seconds(wl, res["plain"], column=2),
              "peak_rss_mb_marks": rss_marks,
              "attempted": res["attempted"], "failed": res["failed"],
              "measured_s": res["elapsed_s"]}

    if args.trace:
        from gif_lab import flow, targets

        per_rep = layer_metrics(tracer, res["traced"])
        overhead = statistics.median(
            wall / res["plain"][rep][1] for _, wall, rep in res["traced"]) - 1.0
        target, sched, x = wl.probe_inputs()
        ctx = flow.FlowContext(sched=sched, target=target)
        values = {k: statistics.median(r[k] for r in per_rep)
                  for k in per_rep[0] if not k.startswith("_")}
        values["setup.import_s"] = statistics.median(p["import_s"] for p in probes)
        values["targets.kernel_us"] = probe_us(targets.denoiser, (target, sched, 0.5, x))
        values["flow.velocity_us"] = probe_us(flow.velocity, (ctx, 0.5, x))
        values["trace.overhead_frac"] = overhead
        counts = [r["_counts"] for r in per_rep]
        record["span_counts"] = counts[0]
        record["span_counts_identical"] = all(c == counts[0] for c in counts)
        record["layer_self_s"] = [r["_self"] for r in per_rep]
        record["traced_rep_s"] = [r["_wall"] for r in per_rep]
        record["self_sum_gap_s"] = max(r["_self_sum_gap"] for r in per_rep)
        tracer.write(WORKDIR / f"spans-{wl.name}-seed{args.seed}.csv.gz")
        wanted = spec["per_layer"]
    else:
        values = {
            "run_s": run_seconds(wl, res["plain"]),
            "setup_s": statistics.median(p["setup_s"] for p in probes),
            "peak_rss_mb": rss_marks["after_measure"],
            "ok_frac": (res["attempted"] - res["failed"]) / res["attempted"],
        }
        wanted = spec["end_to_end"]

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail(f"metrics not computed: {missing}")
    metrics_out = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in wanted}
    record["metrics"] = metrics_out
    out_path = WORKDIR / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, default=str))

    print(f"# {wl.name} seed={args.seed} trace={args.trace} "
          f"reps={len(res['plain'])} traced_reps={len(res['traced'])} "
          f"measured={res['elapsed_s']:.1f}s")
    q = record["run_s_quartiles"]
    print(f"# repetition wall time q1/median/q3: {q[0]:.4f} / {q[1]:.4f} / {q[2]:.4f} s")
    q = record["rep_cpu_s_quartiles"]
    print(f"# repetition process time q1/median/q3: {q[0]:.4f} / {q[1]:.4f} / {q[2]:.4f} s")
    print("# peak RSS after warm-up / checks' set-up / timed repetitions: "
          + " / ".join(f"{v:.1f}" for v in rss_marks.values()) + " MB")
    for name, m in metrics_out.items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    if args.trace:
        print(f"# span counts per traced repetition "
              f"(identical across repetitions: {record['span_counts_identical']}): "
              + json.dumps(record["span_counts"], sort_keys=True))
        print(f"# layer self times sum to the traced repetition within "
              f"{record['self_sum_gap_s']:.2e} s")
    print("# env " + json.dumps(record["env"], sort_keys=True))
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics_out}))


if __name__ == "__main__":
    main()
