"""inghamlab benchmark: seeded closed-loop workloads, end to end and per layer.

    python3 perfbench/run.py --workload curve-gram --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Each workload runs in a fresh worker
process (so memory moved into caches shows in its peak RSS), after set-up
has been measured in separate fresh processes.  --trace 1 runs the
traced replay instead and reports the per-layer metrics.  --workload all
runs every workload in turn.

Standard output: one JSON record per workload with the machine facts,
the op-list hash, sample counts and any failures, then as the last line
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("curve-gram", "measure-window", "batch")
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919      # never used while tuning; for later gain claims
BLAS_THREADS = 1
SETUP_SAMPLES = 5         # fresh processes timed per run, the median reported
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_s", "s"),
              ("op_p90_s", "s"), ("peak_rss_mb", "MB"))


class BenchError(Exception):
    pass


def machine_facts() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             capture_output=True, text=True).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "blas_threads": BLAS_THREADS,
            "machine": platform.machine(), "git_sha": sha}


def worker(args: list, deadline: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *args],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} exceeded the deadline")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {args} failed ({proc.returncode}):\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 deadline: float) -> dict:
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    record = {"bench": "inghamlab", "workload": name, "seed": seed,
              "seconds": seconds, "trace": trace, "held_out_seed": HELD_OUT_SEED,
              "loop": "closed, 1 client", "machine": machine_facts()}
    if trace:
        out = worker(base, deadline)
        metrics = out["layers"]
    else:
        setups = [worker(base + ["--role", "setup"], deadline)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        out = worker(base, deadline)
        setups.append(out["setup_s"])
        out["setup_s"] = statistics.median(setups)
        record["setup_samples"] = setups
        record["latency_samples"] = out["samples"]
        record["upper_percentile"] = out["upper_percentile"]
        record["samples_above_upper"] = out["samples_above_upper"]
        record["check_s"] = out["check_s"]
        record["raw"] = out["raw"]
        record["reference_kernel_s"] = out["reference_kernel_s"]
        record["reference_samples"] = out["reference_samples"]
        metrics = {key: {"value": out[key], "unit": unit} for key, unit in END_TO_END}
    failed = len(out["failures"])
    record.update({"ops_hash": out["ops_hash"], "attempted": out["attempted"],
                   "failed": failed, "fail_frac": failed / out["attempted"],
                   "failures": out["failures"][:5], "metrics": metrics})
    return record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "inghamlab", "__init__.py")):
        print("error: no src/inghamlab in this checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    records = []
    try:
        for name in names:
            record = run_workload(name, args.seed, args.seconds, args.trace, deadline)
            print(json.dumps(record, sort_keys=True), flush=True)
            records.append(record)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
