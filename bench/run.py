"""Benchmark of the randic package: one command, three workloads.

    python3 bench/run.py --workload scan-small|star-sweep|verify-cli|all \\
        [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the package is loaded from ``src/`` next to this
directory, never from an installed copy.  Each workload runs in a fresh
single-process interpreter with BLAS pinned to one thread.  With ``--trace
0`` the result carries the end-to-end metrics; with ``--trace 1`` it carries
the per-layer metrics of a traced pass and the tracing overhead.  The last
stdout line is the result as one JSON object.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import SpeedClock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("scan-small", "star-sweep", "verify-cli")
DEFAULT_SEED = 1
HELDOUT_SEED = 1404  # kept back for re-checking claims made on other seeds
SETUP_SAMPLES = 11
RUN_TIMEOUT_S = 170.0

# what every randic CLI call pays before its first answer
SETUP_ARGV = ["-m", "randic", "spectrum", "gen:petersen"]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def measure_setup(deadline: float) -> tuple[float, list[str]]:
    """Median time of fresh interpreters that import randic and return one
    eigensolve through the CLI, at reference speed (see speed.py).

    The probes run pinned to this process's CPU, so the speed samples taken
    here while a probe runs measure the CPU the probe runs on; a probe is
    descheduled while a sample runs, and the virtual clock leaves that out.
    """
    samples, errors = [], []
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        with SpeedClock() as clock:
            for _ in range(SETUP_SAMPLES):
                t0 = clock.now()
                proc = subprocess.run([sys.executable, *SETUP_ARGV], env=child_env(), cwd=ROOT,
                                      capture_output=True, text=True,
                                      timeout=max(1.0, deadline - time.monotonic()))
                samples.append(clock.now() - t0)
                if proc.returncode != 0 or "eigenvalues 1 " not in proc.stdout:
                    errors.append(f"setup probe exit {proc.returncode}: "
                                  f"{proc.stderr.strip()[-300:]}")
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.median(samples), errors


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + RUN_TIMEOUT_S
    setup_s = setup_errors = None
    if not trace:
        setup_s, setup_errors = measure_setup(deadline)
    cmd = [sys.executable, str(BENCH / "workloads.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(OUT)]
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"workload {name} exited {proc.returncode}")
    for line in lines[:-1]:
        print(f"[{name}] {line}")
    result = json.loads(lines[-1])
    if not trace:
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
        for err in setup_errors:
            print(f"[{name}] error {err}")
        result["correct"] = result["correct"] and not setup_errors
        result["attempted"] += SETUP_SAMPLES
        result["failed"] += len(setup_errors)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="randic benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; {HELDOUT_SEED} is held out)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measure whole passes for about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "randic" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}/randic; run from a randic checkout",
              file=sys.stderr)
        return 2
    print(f"seed {args.seed} (default {DEFAULT_SEED}, held out {HELDOUT_SEED})")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, args.trace)
        for key, metric in sorted(results[name]["metrics"].items()):
            print(f"[{name}] {key} {metric['value']:.6g} {metric['unit']}")
    if len(results) == 1:
        print(json.dumps(results[names[0]], sort_keys=True))
    else:
        print(json.dumps(results, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
