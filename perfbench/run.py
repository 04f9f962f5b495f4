"""Benchmark entry point for mschain; run from the root of a checkout.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Workloads: `sweep`, `born_mc`, `decohere_env` (see `workloads.py`). Each run
starts fresh Python processes from the checkout's `src` and prints
human-readable lines, then one JSON object as its last stdout line:
`{"correct", "attempted", "failed", "metrics"}`.

`--trace 0` reports the end-to-end metrics: `setup_s` (median over
`SETUP_SAMPLES` fresh processes, from spawn to the first timed op), and from
the measuring process `op_cost_mean`, `op_cost_p50`, `op_cost_tail` and
`peak_rss_mb`. An op's cost is its CPU time over the CPU time of a fixed
calibration kernel run right after it (unit `cal`, see `worker.run_loop`),
which cancels the drift in host speed that makes raw op times spread two to
three times as much between runs; wall-clock `ops_per_s`, `op_ms_p50` and
`op_ms_tail` are printed beside them. `fail_ratio` is `failed / attempted`;
it is printed, not put in `metrics`, because it reads 0 when the program is
correct.

`--trace 1` reports the per-layer metrics: span calls, self time and extras
per public layer function over the traced input cycles (every other cycle),
the tracing overhead against the untraced cycles, import times from `-X importtime`, and
a probe of `numeric_feasibility_oracle` under default and pinned BLAS
threads.

Workload processes run with BLAS pinned to one thread: on a 2-core machine
the default OpenBLAS threading makes the small SVDs of the oracle and the
eigensolvers far slower and noisier (about 48 ms per oracle call back to
back against under 1 ms pinned), which would measure thread hand-off rather
than the program.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sweep", "born_mc", "decohere_env")
SETUP_SAMPLES = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_TIMEOUT_S = 60
RUN_SLACK_S = 90


def child_env(root: str, pin_blas: bool = True) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.path.join(root, "src")
    if pin_blas:
        env.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    return env


def run_child(argv: list[str], env: dict, timeout: float) -> tuple[dict, float]:
    """Run a child to completion; return its last-line JSON and its spawn time."""
    spawned = time.monotonic()
    proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[:3])} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), spawned


def import_times(root: str) -> dict[str, float]:
    """Cumulative import seconds of `mschain` and `scipy.stats` in a fresh process."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import mschain"],
                          env=child_env(root), capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S, check=True)
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) / 1e6
    return {"import.mschain_s": cumulative["mschain"],
            "import.scipy_stats_s": cumulative["scipy.stats"]}


def machine(root: str, seed: int) -> dict:
    def command(*argv):
        try:
            return subprocess.run(argv, capture_output=True, text=True, cwd=root,
                                  timeout=10).stdout.strip() or "unknown"
        except OSError:
            return "unknown"

    return {
        "git_sha": command("git", "rev-parse", "HEAD") if os.path.isdir(
            os.path.join(root, ".git")) else "unknown (not a git checkout)",
        "l2_bytes": command("getconf", "LEVEL2_CACHE_SIZE"),
        "l3_bytes": command("getconf", "LEVEL3_CACHE_SIZE"),
        "workload_seed": seed,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "mschain", "__init__.py")):
        print("perfbench: no src/mschain here; run from the root of an mschain checkout",
              file=sys.stderr)
        return 2

    workdir = os.path.join(root, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    worker = [os.path.join(HERE, "worker.py"), "--workload", args.workload,
              "--seed", str(args.seed), "--workdir", workdir]
    env = child_env(root)
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                out, spawned = run_child(worker + ["--setup-only"], env, SETUP_TIMEOUT_S)
                setups.append(out["ready"] - spawned)
        result, spawned = run_child(
            worker + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
            env, args.seconds + RUN_SLACK_S)
        setups.append(result["ready"] - spawned)
        metrics = dict(result["metrics"])
        if args.trace:
            metrics.update({k: (v, "s") for k, v in import_times(root).items()})
            for label, pinned in (("default_blas", False), ("one_blas_thread", True)):
                probe, _ = run_child([os.path.join(HERE, "worker.py"), "--probe-oracle"],
                                     child_env(root, pinned), SETUP_TIMEOUT_S)
                metrics[f"probe.oracle_ms.{label}"] = (probe["oracle_ms"], "ms")
                print(f"probe {label}: numeric_feasibility_oracle {probe['oracle_ms']:.3f} ms "
                      f"median of back-to-back calls, BLAS threads {probe['blas_threads']}")
        else:
            metrics["setup_s"] = (statistics.median(setups), "s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    attempted, failed = result["attempted"], result["failed"]
    print("env " + json.dumps({**result["env"], **machine(root, args.seed)}, sort_keys=True))
    print("blas threads pinned to 1 in workload processes: default threading on few cores "
          "turns each small SVD/eigh into thread hand-off (see probe.oracle_ms.* in --trace 1)")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['inputs']} inputs, {result['screened_seeds']} Monte Carlo seeds screened out")
    print(f"digest {result['digest']} (report bytes of the first input cycle); "
          f"{result['mismatches']} later ops differ from it"
          + (" (traced cycles included)" if args.trace else ""))
    if not args.trace:
        print(f"setup_s samples {' '.join(f'{s:.3f}' for s in setups)}")
        for note in result["notes"]:
            print(note)
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name} {value:.6g} {unit}")
    print(f"fail_ratio {failed / attempted:.6g} 1 ({failed}/{attempted})")
    for problem in result["problems"]:
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
