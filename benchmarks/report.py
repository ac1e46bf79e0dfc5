"""Run every workload over several seeds and summarise the spread.

Usage (from the repository root):

    python3 benchmarks/report.py                      # one seed, all workloads
    python3 benchmarks/report.py --runs 10 --out benchmarks/baseline.json

For every workload in ``BENCHMARK.json`` this makes ``--runs`` untraced
runs of ``run_seconds`` each, with seeds ``--first-seed``,
``--first-seed + 1``, ..., and one traced run, then prints every
end-to-end metric as median, quartiles and spread (quartile distance over
median) next to its bound, and every per-layer metric of the traced run,
each with its unit.  Beside ``run_s`` it prints ``run_cpu_s``, the same
figure in process time, so that a slower host can be told apart from more
work done by the program.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Run ``run.py`` once; returns its result line plus its full record."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["process_wall_s"] = wall
    record = ROOT / ".benchrun" / f"result-{workload}-seed{seed}-trace{trace}.json"
    result["record"] = json.loads(record.read_text())
    return result


def spread(values: list) -> dict:
    q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                   else [values[0]] * 3)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=1)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", default=str(ROOT / ".benchrun" / "report.json"))
    args = ap.parse_args()

    seconds = spec["run_seconds"]
    report = {"run_seconds": seconds, "runs": args.runs,
              "seeds": list(range(args.first_seed, args.first_seed + args.runs)),
              "workloads": {}}
    for name in names:
        runs = [one_run(name, seed, seconds, 0) for seed in report["seeds"]]
        entry = {"correct": all(r["correct"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "process_wall_s": spread([r["process_wall_s"] for r in runs]),
                 "run_cpu_s": spread([r["record"]["run_cpu_s"] for r in runs]),
                 "end_to_end": {}}
        print(f"== {name}: {args.runs} runs, correct={entry['correct']}, "
              f"failed {entry['failed']}/{entry['attempted']} operations, "
              f"median process wall {entry['process_wall_s']['median']:.1f} s")
        for m in spec["end_to_end"]:
            s = spread([r["metrics"][m["name"]]["value"] for r in runs])
            s.update(unit=m["unit"], bound=m["bound"])
            entry["end_to_end"][m["name"]] = s
            print(f"  {m['name']:14s} median {s['median']:.6g} {m['unit']} "
                  f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}] spread {s['spread']:.3f} "
                  f"(bound {m['bound']}, bound/3 {m['bound'] / 3:.3f})")
        s = entry["run_cpu_s"]
        print(f"  {'run_cpu_s':14s} median {s['median']:.6g} s "
              f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}] spread {s['spread']:.3f} (no bound)")
        traced = one_run(name, report["seeds"][0], seconds, 1)
        entry["traced_seed"] = report["seeds"][0]
        entry["per_layer"] = traced["metrics"]
        entry["traced_correct"] = traced["correct"]
        print(f"  traced run (seed {report['seeds'][0]}, correct={traced['correct']}):")
        for key, m in traced["metrics"].items():
            print(f"    {key:32s} {m['value']:.6g} {m['unit']}")
        report["workloads"][name] = entry
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print(f"written {args.out}")


if __name__ == "__main__":
    main()
