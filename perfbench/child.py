"""One benchmark process: set a workload up, then time it or trace it.

run.py starts this with the BLAS pinned and ``src`` on the path, and reads
the JSON object on the last line of its standard output.  Modes:

  run     untraced timed run: end-to-end metrics, setup_s, peak_rss_mb
  setup   imports and input generation only, for setup_s
  trace   traced run plus the size sweep: per-layer metrics
  threads the n = 400 conditional-objective stage under the inherited
          thread count
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import condadapt
import sweep
import workloads


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def environment() -> dict:
    """Read-only record of the machine and libraries the numbers come from."""
    cpu_model = ""
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if kind != "Instruction":
            caches[f"L{level}" + ("d" if kind == "Data" else "")] = _read(index / "size")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS",
                                                   "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "condadapt": str(Path(condadapt.__file__).parent),
    }


def _report(out: workloads.Outcome) -> dict:
    return {"metrics": out.metrics, "attempted": out.attempted, "failed": out.failed,
            "problems": out.problems, "environment": environment()}


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--mode", choices=["run", "setup", "trace", "threads"], required=True)
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--spans", default=None, help="trace mode: where to write the spans")
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() in the parent just before this process started")
    args = p.parse_args()

    if args.mode == "threads":
        result = {"metrics": {"gradients.cond_objective.ms.nproc_threads":
                              sweep.cond_objective_ms(args.seed)}}
    elif args.mode == "trace":
        out = workloads.trace(args.workload, args.seed, args.spans)
        out.metrics.update(sweep.sweep(args.seed))
        result = _report(out)
    else:
        inputs = workloads.setup(args.workload, args.seed)
        setup_s = time.monotonic() - args.spawned_at
        if args.mode == "setup":
            result = {"setup_s": setup_s}
        else:
            out = workloads.measure(args.workload, inputs, args.seconds)
            out.metrics["setup_s"] = setup_s
            result = _report(out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
