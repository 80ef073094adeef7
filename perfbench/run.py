"""projgeo benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each workload is a closed loop with one
client in one process, BLAS pinned to one thread; see perfbench/README.md
for the workloads, metrics and oracles. The last line of standard output
is one JSON object {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Exits non-zero, printing no result, when the checkout has no library
source, an oracle finds a wrong output, or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

# pinned before NumPy loads OpenBLAS here, and inherited by every worker
for _var in spec.THREAD_VARS:
    os.environ[_var] = "1"
# one CPU for this process and every process it starts (see calibrate.py)
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

import calibrate  # noqa: E402

SETUP_SAMPLES = 5        # set-up-only workers per run; setup_s is their median
WORKER_TIMEOUT_S = 150   # whole run must end within 180 s


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_worker(args, setup_only: bool, deadline: float):
    """Start one worker. A set-up-only worker returns its set-up time,
    probe-scaled and measured from start to READY; the measuring worker
    returns its result line."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    probes = [calibrate.timed_probe()]
    t0 = time.perf_counter()
    # own process group, so a kill also reaches a worker's CLI children
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(),
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)

    def kill():
        if proc.poll() is None:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:  # exited since the poll
                pass

    killer = threading.Timer(max(1.0, deadline - time.monotonic()), kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        t1 = time.perf_counter()
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        killer.cancel()
        kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or code != 0:
        raise RuntimeError(f"worker exited with code {code}")
    if setup_only:
        # probed after the worker exited, so the probe has the CPU to itself
        probes.append(calibrate.timed_probe())
        return calibrate.scaled([(t0, t1)], probes)[0]
    return json.loads(rest.strip().splitlines()[-1])


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in spec.THREAD_VARS},
    }


def check_benchmark_json() -> str | None:
    """The metric lists in BENCHMARK.json must match this harness."""
    try:
        doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return f"cannot read BENCHMARK.json: {exc}"
    e2e = [(m["name"], m["unit"]) for m in doc["end_to_end"]]
    layer = [(m["name"], m["unit"]) for m in doc["per_layer"]]
    names = [w["name"] for w in doc["workloads"]]
    if (sorted(e2e) != sorted(spec.END_TO_END)
            or sorted(layer) != sorted(spec.per_layer())
            or sorted(names) != sorted(spec.WORKLOADS)):
        return "BENCHMARK.json does not list this harness's workloads and metrics"
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    if not (ROOT / "src" / "projgeo" / "__init__.py").is_file():
        return fail(f"no library source under {ROOT / 'src' / 'projgeo'}")
    problem = check_benchmark_json()
    if problem:
        return fail(problem)

    try:
        setups = [run_worker(args, True, deadline)
                  for _ in range(0 if args.trace else SETUP_SAMPLES)]
        result = run_worker(args, False, deadline)
    except (RuntimeError, ValueError, IndexError) as exc:
        return fail(str(exc))

    correct = result["wrong"] == 0 and result["untyped"] == 0
    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
        units = dict(spec.END_TO_END)
    else:
        units = dict(spec.per_layer())
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "samples": result["samples"], "errors": result["errors"],
        "raw_p50_ms": result["raw_p50_ms"],
        "raw_ops_per_s": result["raw_ops_per_s"],
        "fail_ratio": result["failed"] / result["attempted"],
        "tail_percentile": spec.TAIL_PERCENTILE[args.workload],
        "setup_samples_s": setups, "environment": environment(),
    }
    print("info: " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    if not correct:
        return fail(f"{result['wrong']} wrong outputs, "
                    f"{result['untyped']} untyped exceptions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
