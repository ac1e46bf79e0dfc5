"""Set-up time of one workload in a fresh interpreter; prints one JSON line.

Usage: python3 benchmarks/setup_probe.py <workload> <seed> <workdir>

The clock starts before ``import gif_lab`` and stops once the workload's
inputs are built and one small warm-up call into each gif_lab module has
returned.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> None:
    start = time.perf_counter()
    import gif_lab  # noqa: F401

    imported = time.perf_counter()
    import workloads

    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workloads.WORKLOADS[name](seed, workdir)
    workloads.warmup(workdir / "setup-probe")
    done = time.perf_counter()
    print(json.dumps({"setup_s": done - start, "import_s": imported - start,
                      "gif_lab": gif_lab.__file__}))


if __name__ == "__main__":
    main()
