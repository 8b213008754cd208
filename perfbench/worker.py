"""One workload in one fresh process.

    python3 perfbench/worker.py --workload W --seed S --seconds T --trace 0|1 --role run|setup

Role `setup` only measures set-up: import inghamlab, build the curves and
measures, make one warm-up call.  Role `run` then runs the closed loop:
one client sends the next op only after the previous one returned.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import itertools
import json
import os
import resource
import statistics
import sys
import time
import warnings
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MODULES = ("oscint", "curves", "classify", "sums", "riesz", "rigidity",
           "schrodinger", "tables", "cli", "errors", "quad")
HASHED_OPS = 1024   # length of the op-list prefix whose hash is recorded
REFERENCE_S = 0.024        # reference-kernel time that defines "reference seconds"
REFERENCE_EVERY_S = 0.5    # how often the timed loop runs the reference kernel


def import_inghamlab():
    """Import every inghamlab module from the checkout's src/."""
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    ih = importlib.import_module("inghamlab")
    for name in MODULES:
        importlib.import_module(f"inghamlab.{name}")
    return ih


def ops_hash(wl, seed: int) -> str:
    prefix = list(itertools.islice(wl.ops(seed), HASHED_OPS))
    text = json.dumps(prefix, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _latency_quantiles(lat: list) -> dict:
    """Median and p90 of op latency.  With fewer than 100 samples the
    upper percentile drops to the highest one with >= 10 samples above it."""
    n = len(lat)
    upper = 90 if n >= 100 else max(50, (100 * (n - 10)) // n) if n > 10 else 50
    q = statistics.quantiles(lat, n=100, method="inclusive") if n > 1 else [lat[0]] * 99
    return {"op_p50_s": q[49], "op_p90_s": q[upper - 1], "upper_percentile": upper,
            "samples": n, "samples_above_upper": sum(x > q[upper - 1] for x in lat)}


def reference_kernel() -> float:
    """Seconds taken by a fixed kernel that shares no code with inghamlab:
    small numpy calls in a Python loop, vectorised complex exp, a complex
    matrix product and pure-Python arithmetic, the kinds of work the
    workloads do.  The host's speed drifts by up to 1.7x between runs on a
    shared machine; timing this kernel beside the ops lets the metrics be
    read in reference seconds, which cancels most of that drift."""
    import numpy as np
    t0 = time.perf_counter()
    x = np.linspace(0.0, 1.0, 256)
    for k in range(300):
        np.abs(np.exp(1j * k * x) * x).sum()
    y = np.linspace(0.0, 1.0, 1 << 16)
    for k in range(3):
        np.exp(2j * np.pi * (k + 1) * y).sum()
    A = np.exp(1j * np.outer(y[:2048], y[:32] * 40.0))
    for _ in range(6):
        (A.conj().T @ A).trace()
    sum(i * i % 7 for i in range(50000))
    return time.perf_counter() - t0


def closed_loop(wl, state, ops, seconds=None, check=True, tracer=None, first=0):
    """Run ops back to back until they run out or `seconds` of op time
    have passed.  A timed loop (`seconds` given) also runs the reference
    kernel every REFERENCE_EVERY_S.  Check and kernel time are kept out of
    the timed wall.  Failures name the op by its index in the op list."""
    span = tracer.span if tracer else (lambda name: nullcontext())
    paused = tracer.paused if tracer else nullcontext
    lat, failures, reference, check_s = [], [], [], 0.0
    start = time.perf_counter()
    next_reference = 0.0
    for index, spec in enumerate(ops, first):
        if seconds is not None and time.perf_counter() - start - check_s >= seconds:
            break
        if seconds is not None and time.perf_counter() - start >= next_reference:
            c0 = time.perf_counter()
            reference.append(reference_kernel())
            check_s += time.perf_counter() - c0
            next_reference = time.perf_counter() - start + REFERENCE_EVERY_S
        t0 = time.perf_counter()
        try:
            with span("bench"):
                out, problem = wl.run(state, spec), None
        except Exception as exc:   # an op that raises is a failed op, not a crash
            out, problem = None, f"raised {type(exc).__name__}: {exc}"
        lat.append(time.perf_counter() - t0)
        if check and problem is None:
            c0 = time.perf_counter()
            with span("bench.check"), paused():
                problem = wl.check(state, spec, out)
            check_s += time.perf_counter() - c0
        if problem is not None:
            failures.append({"workload": wl.name, "op": index, "problem": problem,
                             "params": spec})
        del out
    wall = time.perf_counter() - start - check_s
    return {"lat": lat, "failures": failures, "wall": wall, "check_s": check_s,
            "reference": reference}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("run", "setup"), default="run")
    args = p.parse_args(argv)

    t0 = time.perf_counter()
    ih = import_inghamlab()
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload]
    state = wl.setup(ih, args.seed, ROOT)
    setup_s = time.perf_counter() - t0
    if args.role == "setup":
        wl.teardown(state)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    warnings.simplefilter("ignore", ih.errors.DecayTooWeak)
    try:
        if args.trace:
            from tracer import PER_LAYER
            values, loop = traced(wl, state, args.seed, trace_count(wl, args.seconds))
            result = {"layers": {name: {"value": values[name], "unit": unit}
                                 for name, unit in PER_LAYER},
                      "attempted": len(loop["lat"]), "failures": loop["failures"]}
        else:
            loop = closed_loop(wl, state, wl.ops(args.seed), seconds=args.seconds)
            ok_ops = len(loop["lat"]) - len(loop["failures"])
            raw = {"ops_per_s": ok_ops / loop["wall"], **_latency_quantiles(loop["lat"])}
            kernel_s = statistics.median(loop["reference"])
            scale = REFERENCE_S / kernel_s      # reference seconds per measured second
            result = {"setup_s": setup_s, **raw, "ops_per_s": raw["ops_per_s"] / scale,
                      "op_p50_s": raw["op_p50_s"] * scale,
                      "op_p90_s": raw["op_p90_s"] * scale,
                      "raw": {k: raw[k] for k in ("ops_per_s", "op_p50_s", "op_p90_s")},
                      "reference_kernel_s": kernel_s,
                      "reference_samples": len(loop["reference"]),
                      "check_s": loop["check_s"], "wall_s": loop["wall"],
                      "attempted": len(loop["lat"]), "failures": loop["failures"]}
    finally:
        wl.teardown(state)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["ops_hash"] = ops_hash(wl, args.seed)
    print(json.dumps(result))
    return 0


def trace_count(wl, seconds: float) -> int:
    """Ops in a traced run: whole blocks, about seconds / 2 of work at the
    workload's nominal rate, so the untraced and traced replays together
    take about `seconds`.  It depends on nothing but --seconds."""
    return max(1, round(seconds * wl.trace_rate / (2 * wl.block_len))) * wl.block_len


def traced(wl, state, seed: int, count: int) -> tuple:
    """Run the first `count` ops block by block, each block once untraced
    and once traced (alternating which goes first, so drift in machine
    speed cancels); return the per-layer metrics and the traced outcome."""
    from tracer import Tracer, install, per_layer
    ops = list(itertools.islice(wl.ops(seed), count))
    tr = Tracer()
    plain_s = traced_s = traced_wall = 0.0
    lat, failures = [], []
    for b, lo in enumerate(range(0, count, wl.block_len)):
        block = ops[lo:lo + wl.block_len]
        for on in ((False, True) if b % 2 == 0 else (True, False)):
            if not on:
                plain_s += sum(closed_loop(wl, state, block, check=False)["lat"])
                continue
            install(tr, state["ih"])
            tr.active = True
            try:
                t0 = time.perf_counter()
                loop = closed_loop(wl, state, block, tracer=tr, first=lo)
                traced_wall += time.perf_counter() - t0
            finally:
                tr.active = False
                tr.unwrap_all()
            traced_s += sum(loop["lat"])
            lat += loop["lat"]
            failures += loop["failures"]
    return per_layer(tr, traced_wall, plain_s, traced_s), {"lat": lat, "failures": failures}


if __name__ == "__main__":
    sys.exit(main())
