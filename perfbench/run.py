"""condadapt benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each run starts one measuring child
(child.py) with the BLAS pinned to one thread.  Without tracing, a few
set-up-only children run before and after it for the median set-up time;
with tracing, one more child follows with as many BLAS threads as this
process may use.  Children run one at a time.  The last line of standard
output is the result: every end-to-end metric (``--trace 0``) or every
per-layer metric (``--trace 1``) named in BENCHMARK.json, with its unit.
The exit code is 0 only when every operation ran and passed its checks.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # leave nothing behind in the checkout

import argparse
import json
import os
import statistics
import subprocess
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170.0
SETUP_PROBES = 4  # set-up-only children on each side of the measuring child


class BenchError(Exception):
    pass


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    path = [str(ROOT / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env.update({
        "OPENBLAS_NUM_THREADS": str(threads),
        "OMP_NUM_THREADS": str(threads),
        "MKL_NUM_THREADS": str(threads),
        "PYTHONPATH": os.pathsep.join(path),
        "PYTHONDONTWRITEBYTECODE": "1",
    })
    return env


def run_child(mode: str, args, deadline: float, threads: int = 1, extra=()) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), *extra]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for the {mode} child")
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(time.monotonic())],
                              cwd=ROOT, env=child_env(threads), stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} child exceeded the time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} child exited {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = p.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "condadapt" / "__init__.py").is_file() or not spec_path.is_file():
        print("run.py: no condadapt sources (src/condadapt) or BENCHMARK.json under "
              f"{ROOT}; run from the root of a condadapt checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    try:
        if args.trace:
            spans = ROOT / ".bench_build" / "perfbench" / f"spans-{args.workload}-{args.seed}.json"
            spans.parent.mkdir(parents=True, exist_ok=True)
            result = run_child("trace", args, deadline, extra=["--spans", str(spans)])
            threads = run_child("threads", args, deadline,
                                threads=len(os.sched_getaffinity(0)))
            result["metrics"].update(threads["metrics"])
        else:
            # Import time follows the host's speed, which shifts every few
            # seconds, so the set-up probes bracket the measuring child.
            def probe() -> float:
                return run_child("setup", args, deadline)["setup_s"]

            setup = [probe() for _ in range(SETUP_PROBES)]
            result = run_child("run", args, deadline)
            setup.append(result["metrics"]["setup_s"])
            setup += [probe() for _ in range(SETUP_PROBES)]
            result["metrics"]["setup_s"] = statistics.median(setup)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    for problem in result["problems"]:
        print(f"run.py: check failed: {problem}", file=sys.stderr)
    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        print(f"run.py: no value for {', '.join(missing)}", file=sys.stderr)
    correct = result["failed"] == 0 and result["attempted"] >= 1 and not missing
    print(json.dumps({"environment": result["environment"]}))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in result["metrics"]},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
