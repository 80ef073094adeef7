"""Names, units and per-workload settings shared by the benchmark's
entry point and its worker. ``BENCHMARK.json`` at the repository root
must list exactly these metrics; ``run.py`` refuses to run otherwise."""

from __future__ import annotations

WORKLOADS = ("pairs-large", "pairs-small", "transport", "cli")

# Set to 1 for the benchmark process and everything it starts.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Tail percentile of op latency, per workload. For the three-size
# workloads 75 sits inside the largest size's third, where it was
# steadier than 70 (spread 0.03-0.07 against 0.06-0.12); 90 rather than
# 97 keeps pairs-small steady. It is fixed rather than recomputed from
# the sample count, so a faster program is measured at the same one.
TAIL_PERCENTILE = {"pairs-large": 75, "pairs-small": 90, "transport": 75,
                   "cli": 60}

# Length of each workload's input pattern (sizes, wedge and near-threshold
# slots, CLI command mix). A run is made of whole cycles, so every run
# sees the same mix of op costs.
CYCLE = {"pairs-large": 3, "pairs-small": 24, "transport": 3, "cli": 6}

# Ops per second of run time (input generation, op, oracle and speed
# probe) of the baseline on the reference machine, near the middle of
# the 30-48, 384-672, 42-51 and 30-42 ops seen in 20 s runs.
PLANNED_RATE = {"pairs-large": 2.1, "pairs-small": 24.0, "transport": 2.1,
                "cli": 1.5}


def planned_ops(workload: str, seconds: float) -> int:
    """Number of ops in a run of about ``seconds`` at the baseline's speed.

    A run makes exactly this many ops, whatever the machine's speed at
    the time, so ``attempted`` and ``failed`` are fixed by the workload,
    the seed and ``seconds``, and two runs with the same arguments fail
    on the same inputs. It is a whole number of cycles and leaves at
    least ten samples above the tail percentile."""
    cycle = CYCLE[workload]
    tail_min = -(-1000 // (100 - TAIL_PERCENTILE[workload]))  # ceil
    return cycle * max(round(seconds * PLANNED_RATE[workload] / cycle),
                       -(-tail_min // cycle))


END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

# Functions whose calls, self time and errors are reported per op.
REPORTED_FUNCTIONS = (
    "numkit.operator_norm", "numkit.polar_unitary",
    "numkit.log_unitary_principal", "numkit.exp_skew", "numkit.rho_norm",
    "projlat.make_projection", "projlat.meet", "projlat.halmos_decompose",
    "projlat.range_basis", "projlat.principal_angles",
    "geo.partial_isometry", "geo.minimal_exponent", "geo.verify_geodesic",
    "geo.geodesic_point", "geo.geodesic_distance", "geo.rho_length",
    "geo.curve_length",
    "factor.trace",
    "sampling.pair_diagnostics",
    "jones.expectation_projection", "jones.expectation_path",
    "jones.transport_ode_solve", "jones.propagator_checks",
    "jones.expectation_axioms",
    "cli.main",
)

KERNEL_ROUTINES = ("eigh", "eigvalsh", "svd", "qr", "schur", "expm")


def per_layer() -> list[tuple[str, str]]:
    out = [("bench.traced_ops_per_s", "1/s"),
           ("numkit.lapack.calls", "count/op"),
           ("numkit.lapack.self_s", "s/op"),
           ("numkit.lapack.work_n3", "n3/op"),
           ("numkit.lapack.bytes_computed", "B/op")]
    for r in KERNEL_ROUTINES:
        out += [(f"numkit.lapack.{r}.calls", "count/op"),
                (f"numkit.lapack.{r}.self_s", "s/op")]
    for f in REPORTED_FUNCTIONS:
        out += [(f"{f}.calls", "count/op"), (f"{f}.self_s", "s/op"),
                (f"{f}.errors", "count/op")]
    out += [("cli.startup_s", "s/op"), ("cli.output_bytes", "B/op")]
    return out
