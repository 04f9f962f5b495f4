"""One workload process: set up, run the closed loop, check every op, report.

Run by `run.py`, which pins the BLAS threads and points PYTHONPATH at the
checkout's `src`. Prints one JSON object as its last stdout line.

    python3 perfbench/worker.py --workload sweep --seed 1 --seconds 30 \
        --trace 0 --workdir .perfbench_work/x

`--setup-only` stops after input generation (a `setup_s` sample).
`--probe-oracle` times `numeric_feasibility_oracle` back to back instead.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import resource
import statistics
import sys
import time

import numpy as np
import scipy

import mschain
from mschain import discriminate
from tracing import Tracer
from workloads import WORKLOADS, check_op, digest, make_inputs, run_op

# Tail percentile per workload: the highest of 50/75/90/95/99 that leaves at
# least 10 ops beyond it, with margin, at the op count a 30 s run reaches on
# a 2-core machine (about 400, 40 and 130 ops).
TAIL_PCT = {"sweep": 90, "born_mc": 50, "decohere_env": 75}
TAIL_MIN_BEYOND = 10
PROBE_CALLS = 20
# Calibration kernels: 100 rounds of small numpy calls (about 5 ms), and a
# 40 MB buffer written and read once (about 16 ms), on a 2-core Xeon VM.
CAL_CALLS = 100
CAL_FLOATS = 5_000_000


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None when not found."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mschain": mschain.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def percentile(sorted_values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


_CAL_SYM = np.add.outer(np.arange(8.0), np.arange(8.0)) + np.eye(8)
_CAL_PAIR = np.array([[0.6, 0.8], [0.8, -0.6]])


def _calibrate_small_calls() -> None:
    for _ in range(CAL_CALLS):
        np.linalg.eigh(_CAL_SYM)
        np.kron(_CAL_PAIR, _CAL_PAIR) @ _CAL_SYM[:4, :4]


def _calibrate_memory() -> None:
    # Allocated and freed on every call, and above glibc's largest mmap
    # threshold (32 MiB), so it is unmapped on free: the heap keeps none of
    # it, and it never adds to the peak RSS of the ops.
    buffer = np.ones(CAL_FLOATS)
    np.dot(buffer, buffer)


# The calibration kernel of each workload exercises what bounds its ops: the
# per-call cost of small numpy and LAPACK calls for `sweep`, memory bandwidth
# for the bulk numpy work of `born_mc` and `decohere_env`. Over ten 30 s
# windows of `sweep`, a pure-Python loop as the kernel left its cost spreading
# 3-5%, a memory kernel 4-7%, the small-call kernel 1-4%.
CALIBRATE = {"sweep": _calibrate_small_calls, "born_mc": _calibrate_memory,
             "decohere_env": _calibrate_memory}


def run_loop(workload: str, inputs, seconds: float, tracer: Tracer | None = None) -> dict:
    """Closed loop over the inputs for `seconds` of wall time.

    Each op is timed in wall time and in process CPU time, and right after
    it the workload's fixed calibration kernel is timed in CPU time; an op's
    cost is its CPU time over that of the kernel. A shared host changes how
    fast this process runs from second to second (other tenants share its
    cores, caches and memory bandwidth); a fixed kernel run next to the op
    slows by about the same factor, so the cost follows the program and not
    the host.

    Every op must reproduce the report bytes of its input's first op. With a
    tracer, odd input cycles run traced and even ones untraced (through the
    inactive wrappers), so drift in machine speed hits both sides of the
    tracing overhead alike; checks always run untraced.
    """
    n = len(inputs)
    calibrate = CALIBRATE[workload]
    min_ops = 2 * n if tracer is not None else n
    wall, cpu, cal, traced, first_digests, problems = [], [], [], [], [], []
    failed = mismatches = 0
    start = time.perf_counter()
    while len(wall) < min_ops or time.perf_counter() - start < seconds:
        k = len(wall)
        inp = inputs[k % n]
        on = tracer is not None and (k // n) % 2 == 1
        if tracer is not None:
            tracer.active = on
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            codes, outcomes = run_op(inp)
            error = None
        except Exception as exc:  # a raising op is a failed op, not a dead benchmark
            error = f"{type(exc).__name__}: {exc}"
        c1, t1 = time.process_time(), time.perf_counter()
        if tracer is not None:
            tracer.active = False
        calibrate()
        c2 = time.process_time()
        wall.append(t1 - t0)
        cpu.append(c1 - c0)
        cal.append(c2 - c1)
        traced.append(on)
        try:
            found, blob = ([error], b"") if error else check_op(inp, codes, outcomes)
        except Exception as exc:
            found, blob = [f"check raised {type(exc).__name__}: {exc}"], b""
        op_digest = digest([blob])
        if k < n:
            first_digests.append(op_digest)
        elif op_digest != first_digests[k % n]:
            mismatches += 1
            found.append("report bytes differ from the first op on this input")
        if found:
            failed += 1
            problems.append(f"op {k}: {'; '.join(found)}")
    return {"wall": wall, "cost": [c / q for c, q in zip(cpu, cal)], "cal": cal,
            "traced": traced, "failed": failed, "mismatches": mismatches,
            "problems": problems[:5],
            "cycle_digest": digest(d.encode() for d in first_digests)}


def end_to_end(workload: str, inputs, loop: dict) -> tuple[dict, list[str]]:
    """End-to-end metrics of one loop, and lines describing it, wall clock included.

    The gated metrics are op costs in calibration units (see `run_loop`).
    Wall-clock throughput and latency are printed beside them; on a shared
    host they spread several times as much between runs.
    """
    cost, wall = sorted(loop["cost"]), sorted(loop["wall"])
    pct = TAIL_PCT[workload]
    tail, beyond = percentile(cost, pct)
    while beyond < TAIL_MIN_BEYOND and pct > 50:
        pct = max(p for p in (50, 75, 90, 95, 99) if p < pct)
        tail, beyond = percentile(cost, pct)
    wall_tail = percentile(wall, pct)[0]
    n = len(inputs)
    cycles = [loop["wall"][k:k + n] for k in range(0, len(wall) - n + 1, n)]
    metrics = {
        "op_cost_mean": (statistics.fmean(cost), "cal"),
        "op_cost_p50": (percentile(cost, 50)[0], "cal"),
        "op_cost_tail": (tail, "cal"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
    }
    notes = [
        f"op_cost_tail is p{pct} of {len(cost)} ops ({beyond} beyond)",
        f"calibration kernel {CALIBRATE[workload].__name__}: "
        f"{statistics.median(loop['cal']) * 1e3:.3f} ms CPU median",
        f"wall clock (not gated): ops_per_s "
        f"{statistics.median(n / sum(c) for c in cycles):.6g} op/s (median over input cycles), "
        f"op_ms_p50 {percentile(wall, 50)[0] * 1e3:.6g} ms, "
        f"op_ms_tail {wall_tail * 1e3:.6g} ms (p{pct})",
    ]
    return metrics, notes


def probe_oracle() -> dict:
    problem = discriminate.superposition_discrimination_problem(0.5**0.5, 0.5**0.5)
    grid = (0.0, 1.0, 2.0)
    discriminate.numeric_feasibility_oracle(problem, grid)
    times = []
    for _ in range(PROBE_CALLS):
        t0 = time.perf_counter()
        discriminate.numeric_feasibility_oracle(problem, grid)
        times.append(time.perf_counter() - t0)
    return {"oracle_ms": statistics.median(times) * 1e3, "blas_threads": _blas_threads()}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--probe-oracle", action="store_true")
    args = parser.parse_args()

    if args.probe_oracle:
        print(json.dumps(probe_oracle()))
        return 0

    workdir = os.path.join(args.workdir, str(os.getpid()))
    os.makedirs(workdir)
    inputs, screened = make_inputs(args.workload, args.seed, workdir)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    out = {"ready": ready, "screened_seeds": screened, "inputs": len(inputs),
           "env": environment()}
    if not args.trace:
        loop = run_loop(args.workload, inputs, args.seconds)
        out["metrics"], out["notes"] = end_to_end(args.workload, inputs, loop)
    else:
        tracer = Tracer()
        tracer.install()
        loop = run_loop(args.workload, inputs, args.seconds, tracer)
        plain = [t for t, on in zip(loop["wall"], loop["traced"]) if not on]
        spanned = [t for t, on in zip(loop["wall"], loop["traced"]) if on]
        costs = {on: statistics.fmean(c for c, t in zip(loop["cost"], loop["traced"]) if t == on)
                 for on in (False, True)}
        layers = tracer.layer_metrics(len(spanned))
        layers["trace.ops"] = (float(len(spanned)), "count")
        layers["trace.op_ms_untraced"] = (statistics.fmean(plain) * 1e3, "ms")
        layers["trace.op_ms_traced"] = (statistics.fmean(spanned) * 1e3, "ms")
        # from op costs, so a change in host speed between cycles cancels
        layers["trace.overhead"] = (costs[True] / costs[False] - 1.0, "1")
        out["metrics"] = layers
    out.update(attempted=len(loop["wall"]), failed=loop["failed"],
               mismatches=loop["mismatches"], problems=loop["problems"],
               digest=loop["cycle_digest"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
