"""One benchmark process: set up a workload, signal READY, then run its
closed loop for the planned number of ops (``spec.planned_ops``, about
the requested seconds at the baseline's speed) and print one JSON result
line.

Started by run.py, which pins BLAS to one thread and puts the checkout's
``src`` first on PYTHONPATH. With --setup-only the process exits after
READY; run.py times several such set-ups.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

from spec import (KERNEL_ROUTINES, REPORTED_FUNCTIONS, TAIL_PERCENTILE,
                  THREAD_VARS, planned_ops)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_args(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


def percentile(values, q: float) -> float:
    import numpy as np
    return float(np.percentile(values, q))


def end_to_end(name: str, latencies: list, n_ok: int) -> dict:
    """Throughput and latency metrics from reference-speed latencies."""
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "ops_per_s": n_ok / sum(latencies),
        "op_p50_ms": 1e3 * percentile(latencies, 50),
        "op_tail_ms": 1e3 * percentile(latencies, TAIL_PERCENTILE[name]),
        "peak_rss_mb": rss_kb / 1024.0,
    }


def per_layer(totals: dict, ops: int, traced_ops_per_s: float, wl) -> dict:
    """Per-op layer metrics over every op of the traced run. The run's
    ops are fixed by workload, seed and seconds, so two traced runs with
    the same arguments give identical counts."""
    calls, errors, self_s = totals["calls"], totals["errors"], totals["self_s"]
    kernels = [f"numkit.lapack.{r}" for r in KERNEL_ROUTINES]
    out = {
        "bench.traced_ops_per_s": traced_ops_per_s,
        "numkit.lapack.calls": sum(calls.get(k, 0) for k in kernels) / ops,
        "numkit.lapack.self_s": sum(self_s.get(k, 0.0) for k in kernels) / ops,
        "numkit.lapack.work_n3": totals["work_n3"] / ops,
        "numkit.lapack.bytes_computed": totals["bytes_computed"] / ops,
    }
    for k in kernels:
        out[f"{k}.calls"] = calls.get(k, 0) / ops
        out[f"{k}.self_s"] = self_s.get(k, 0.0) / ops
    for f in REPORTED_FUNCTIONS:
        out[f"{f}.calls"] = calls.get(f, 0) / ops
        out[f"{f}.self_s"] = self_s.get(f, 0.0) / ops
        out[f"{f}.errors"] = errors.get(f, 0) / ops
    out["cli.startup_s"] = getattr(wl, "startup_s", 0.0) / ops
    out["cli.output_bytes"] = getattr(wl, "output_bytes", 0) / ops
    return out


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    for var in THREAD_VARS:
        if os.environ.get(var) != "1":
            print(f"worker: {var} must be 1", file=sys.stderr)
            return 2
    import projgeo
    src = (ROOT / "src").resolve()
    if src not in Path(projgeo.__file__).resolve().parents:
        print(f"worker: projgeo imported from {projgeo.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import calibrate  # noqa: F401  (binds numpy.linalg before any patching)
    from tracer import Tracer
    from workloads import WORKLOAD_TYPES, classify

    tracer = Tracer() if args.trace else None
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        wl = WORKLOAD_TYPES[args.workload](args.seed, tmp, tracer)
        warm = wl.make_input(0)
        verdict = classify(wl, warm, wl.op(warm), None)
        if verdict.wrong:
            print(f"worker: warm-up op is wrong: {verdict.wrong}", file=sys.stderr)
            return 1
        print("READY", flush=True)
        if args.setup_only:
            return 0
        if tracer is not None:
            tracer.install()
        try:
            result = run_loop(args, wl, tracer)
        finally:
            if tracer is not None:
                tracer.restore()
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:  # another run's directory is still in it
            pass


def run_loop(args, wl, tracer) -> dict:
    from calibrate import scaled, timed_probe
    from workloads import classify

    intervals, probes, wrong = [], [], []
    errors = {}
    n_ok = untyped = 0
    ops = planned_ops(args.workload, args.seconds)
    probes.append(timed_probe())
    for i in range(ops):
        inp = wl.make_input(i)
        out = exc = None
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            out = wl.op(inp)
        except Exception as e:  # recorded and classified below
            exc = e
        intervals.append((t0, time.perf_counter()))
        if tracer is not None:
            tracer.active = False
        probes.append(timed_probe())
        verdict = classify(wl, inp, out, exc)
        n_ok += verdict.ok
        if verdict.wrong:
            wrong.append(f"op {i}: {verdict.wrong}")
        if verdict.error:
            errors[verdict.error] = errors.get(verdict.error, 0) + 1
            if not verdict.typed:
                untyped += 1
                traceback.print_exception(exc, file=sys.stderr)
    raw = [end - start for start, end in intervals]
    latencies = scaled(intervals, probes)
    for line in wrong[:10]:
        print(f"worker: wrong output: {line}", file=sys.stderr)
    result = {
        "attempted": ops,
        "failed": ops - n_ok,
        "wrong": len(wrong),
        "untyped": untyped,
        "errors": errors,
        "samples": len(latencies),
        "raw_p50_ms": 1e3 * percentile(raw, 50),
        "raw_ops_per_s": n_ok / sum(raw),
    }
    if tracer is None:
        result["metrics"] = end_to_end(args.workload, latencies, n_ok)
    else:
        traced_ops_per_s = n_ok / sum(latencies)
        result["metrics"] = per_layer(tracer.state(), ops, traced_ops_per_s, wl)
    return result


if __name__ == "__main__":
    sys.exit(main())
