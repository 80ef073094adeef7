"""Command-line front end.

Subcommands: decompose, geodesic, jones, transport, random. Matrices
travel as JSON documents {"n": int, "re": [[...]], "im": [[...]]};
reports are deterministic for fixed inputs, flags, and seed. Exit codes:
0 success, 2 validation or usage error, 3 mathematical obstruction (no
geodesic / endpoints too far).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import factor, geo, jones, numkit, projlat, sampling
from .errors import InvariantViolation, NoGeodesic, ProjGeoError, TooFar
from .numkit import ToleranceProfile

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_OBSTRUCTION = 3

# Size caps, checked before any allocation (measured costs in README.md)
MAX_RANDOM_DIM = 64
MAX_RANDOM_TRIALS = 1_000
MAX_TRANSPORT_DIM = 32
MAX_JONES_DIM = 512
# the convergence probe runs 2 --order-probe steps, so its cap is half the
# --steps cap
MAX_TRANSPORT_STEPS = 10_000
MAX_TRANSPORT_TRIALS = 20


# ---------------------------------------------------------------------------
# matrix documents


def matrix_to_document(m) -> dict:
    m = np.asarray(m, dtype=np.complex128)
    return {
        "n": int(m.shape[0]),
        "re": [[float(v) for v in row] for row in m.real],
        "im": [[float(v) for v in row] for row in m.imag],
    }


_JSON_TYPES = {int: "an integer", list: "an array", str: "a string"}


def _field(doc, name: str, kind: type):
    """doc[name] of a JSON object doc, checked to be a kind (ValueError)."""
    if not isinstance(doc, dict):
        raise ValueError(f"expected a JSON object, got {type(doc).__name__}")
    value = doc.get(name)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"field {name!r} must be {_JSON_TYPES[kind]}")
    return value


def document_to_matrix(doc: dict) -> np.ndarray:
    n = _field(doc, "n", int)
    try:
        re, im = (np.asarray(_field(doc, k, list), dtype=np.float64) for k in ("re", "im"))
    except TypeError:
        raise ValueError("fields 're' and 'im' must hold numbers") from None
    if re.shape != (n, n) or im.shape != (n, n):
        raise ValueError(f"array shapes {re.shape}/{im.shape} do not match n = {n}")
    return re + 1j * im


def read_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return document_to_matrix(json.load(fh))


def write_matrix(path, m) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_document(m), fh, sort_keys=True)
        fh.write("\n")


def _digest_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _digest_params(params: dict) -> str:
    blob = json.dumps(params, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# shared plumbing


def _tolerance(args) -> ToleranceProfile:
    return ToleranceProfile(atol_structure=args.tol_structure,
                            atol_spectral=args.tol_spectral,
                            atol_rank=args.tol_rank)


def _load_projection(path, tol) -> projlat.Projection:
    return projlat.make_projection(read_matrix(path), tol)


@contextlib.contextmanager
def _naming(flag: str, text: str):
    """Prefix a ValueError raised in the block with the flag and its value."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{flag} {text!r}: {exc}") from None


def _float_list(flag: str, text: str) -> list[float]:
    with _naming(flag, text):
        return [float(tok) for tok in text.split(",") if tok.strip()]


def parse_subalgebra(text: str, n: int):
    """Parse a subalgebra flag: diagonal | rotated:THETA | tensor:KxM |
    @spec.json."""
    if text == "diagonal":
        return jones.diagonal_spec(n)
    if text.startswith("rotated:"):
        return jones.rotated_diagonal_spec(n, float(text.split(":", 1)[1]))
    if text.startswith("tensor:"):
        dims = text.split(":", 1)[1].lower().split("x")
        try:
            k, m = map(int, dims)
        except ValueError:
            raise ValueError(f"K and M must be two integers, got {dims}") from None
        return jones.TensorFactor(k=k, m=m)
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        kind = _field(doc, "kind", str)
        if kind == "block_partition":
            groups = _field(doc, "groups", list)
            if not all(isinstance(g, list) and all(type(i) is int for i in g) for g in groups):
                raise ValueError("field 'groups' must be an array of arrays of integers")
            return jones.BlockPartition(groups=tuple(tuple(g) for g in groups))
        if kind == "tensor_factor":
            return jones.TensorFactor(k=_field(doc, "k", int), m=_field(doc, "m", int))
        if kind == "matrix_span":
            return jones.MatrixSpan(mats=tuple(
                document_to_matrix(d) for d in _field(doc, "matrices", list)))
        raise ValueError(f"unknown subalgebra kind {kind!r}")
    raise ValueError("expected diagonal, rotated:THETA, tensor:KxM or @spec.json")


def _report(args, command: str, inputs: dict, results: dict) -> dict:
    return {
        "command": command,
        "argv": args.argv_echo,
        "inputs": inputs,
        "tolerance": dataclasses.asdict(_tolerance(args)),
        "seed": args.seed,
        "results": results,
    }


# ---------------------------------------------------------------------------
# subcommands


def cmd_decompose(args) -> dict:
    tol = _tolerance(args)
    p = _load_projection(args.p_file, tol)
    q = _load_projection(args.q_file, tol)
    diag = sampling.position_report(projlat.position(p, q))
    results = {
        "ranks": dict(zip(("e11", "e00", "e10", "e01", "e0"), diag["ranks"])),
        "angles": diag["angles"],
        "exists": diag["exists"],
        "unique": diag.get("unique"),
        "distance": diag.get("distance"),
        "residuals": {k: v for k, v in diag.items() if k.endswith("residual")},
    }
    inputs = {"p": _digest_file(args.p_file), "q": _digest_file(args.q_file)}
    return _report(args, "decompose", inputs, results)


def cmd_geodesic(args) -> dict:
    ts = _float_list("--t", args.t)
    files = [f"point_{t:.6f}.json" for t in ts] if args.out else []
    for i, name in enumerate(files):
        if (j := files.index(name)) < i:
            raise ValueError(f"--t values {ts[j]!r} and {ts[i]!r} both write {name} in --out")
    tol = _tolerance(args)
    p = _load_projection(args.p_file, tol)
    q = _load_projection(args.q_file, tol)
    pos = projlat.position(p, q)
    g = geo.position_exponent(pos)
    rhos = _float_list("--rho", args.rho)
    tr = factor.NormalizedTrace(factor.FiniteAlgebra.full(p.n))
    points = {t: geo.geodesic_point(g, t) for t in ts}
    results = {
        "distance": pos.distance(),
        "rho_lengths": {repr(r): geo.rho_length(g, r, tr) for r in rhos},
        "t_samples": [float(t) for t in ts],
        "residuals": dataclasses.asdict(geo.verify_geodesic(g)),
    }
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        write_matrix(outdir / "exponent.json", g.z)
        for t, name in zip(ts, files):
            write_matrix(outdir / name, points[t].m)
        results["out_dir"] = str(outdir)
    inputs = {"p": _digest_file(args.p_file), "q": _digest_file(args.q_file)}
    return _report(args, "geodesic", inputs, results)


def cmd_jones(args) -> dict:
    if args.m < 2 or args.k < 1:
        raise ValueError("need --m >= 2 and --k >= 1")
    if args.m * args.k > MAX_JONES_DIM:
        raise ValueError(f"--m times --k must be at most {MAX_JONES_DIM}")
    jp = jones.jones_pair(args.m, args.k, _tolerance(args))
    d, d_rho = jones.index_distance(jp)
    closed = math.acos(math.sqrt(jp.tau))
    rho_entries = []
    for rho in _float_list("--rho", args.rho):
        try:
            value, message = d_rho(rho), None
        except InvariantViolation as exc:
            value, message = exc.computed, str(exc)
        entry = {"rho": rho, "value": value,
                 "closed_form": jones.rho_distance_closed_form(jp.tau, rho),
                 "assert_ok": message is None}
        if message is not None:
            entry["assert_message"] = message
        rho_entries.append(entry)
    results = {
        "tau": jp.tau,
        "distance": d,
        "distance_closed_form": closed,
        "distance_assert_ok": True,
        "rho": rho_entries,
    }
    inputs = {"params": _digest_params({"m": args.m, "k": args.k})}
    return _report(args, "jones", inputs, results)


def cmd_transport(args) -> dict:
    if not 1 <= args.n <= MAX_TRANSPORT_DIM:
        raise ValueError(f"--n must lie in [1, {MAX_TRANSPORT_DIM}]")
    for flag, value, low, high in (
            ("--steps", args.steps, 100, MAX_TRANSPORT_STEPS),
            ("--order-probe", args.order_probe, 100, MAX_TRANSPORT_STEPS // 2),
            ("--trials", args.trials, 1, MAX_TRANSPORT_TRIALS)):
        if not low <= value <= high:
            raise ValueError(f"{flag} must lie in [{low}, {high}]")
    tol = _tolerance(args)
    specs = []
    for flag, text in (("--spec0", args.spec0), ("--spec1", args.spec1)):
        with _naming(flag, text):
            spec = parse_subalgebra(text, args.n)
            jones.check_size(spec, args.n)
        specs.append(spec)
    path = jones.expectation_path(*specs, args.n, tol)
    rng = np.random.default_rng(args.seed)
    ode_residual = 0.0
    for _ in range(args.trials):
        x0 = rng.normal(size=(args.n, args.n)) + 1j * rng.normal(size=(args.n, args.n))
        end = jones.transport_ode_endpoint(path, x0, args.steps)
        ode_residual = numkit.worst((ode_residual, numkit.operator_norm(
            end - path.transport(1.0, x0))))
    probe = rng.normal(size=(args.n, args.n)) + 1j * rng.normal(size=(args.n, args.n))
    coarse, fine = (numkit.operator_norm(jones.transport_ode_endpoint(path, probe, steps)
                                         - path.transport(1.0, probe))
                    for steps in (args.order_probe, 2 * args.order_probe))
    # errors at rounding level do not fall as the steps double and give no order
    order = math.log2(coarse / fine) if 0.0 < fine < coarse / 2 else None
    axioms = {f"{t:.2f}": dataclasses.asdict(
        jones.expectation_axioms(path.projection_at(t), args.n))
        for t in (0.0, 0.25, 0.5, 0.75, 1.0)}
    xs = [rng.normal(size=(args.n, args.n)) + 1j * rng.normal(size=(args.n, args.n))
          for _ in range(3)]
    results = {
        "gap": path.gap,
        "steps": args.steps,
        "ode_vs_propagator": ode_residual,
        "convergence_order": order,
        "order_probe_steps": [args.order_probe, 2 * args.order_probe],
        "expectation_axioms": axioms,
        "propagator": dataclasses.asdict(
            jones.propagator_checks(path, (0.25, 0.75), xs)),
    }
    inputs = {"params": _digest_params(
        {"spec0": args.spec0, "spec1": args.spec1, "n": args.n})}
    return _report(args, "transport", inputs, results)


def cmd_random(args) -> dict:
    if not 2 <= args.n <= MAX_RANDOM_DIM:
        raise ValueError(f"--n must lie in [2, {MAX_RANDOM_DIM}]")
    if not 1 <= args.trials <= MAX_RANDOM_TRIALS:
        raise ValueError(f"--trials must lie in [1, {MAX_RANDOM_TRIALS}]")
    tol = _tolerance(args)
    with _naming("--ranks", args.ranks):
        ranks = [int(v) for v in args.ranks.split(",")] if args.ranks else None
    if ranks is not None and not all(0 <= r <= args.n for r in ranks):
        raise ValueError(f"--ranks must lie in [0, {args.n}]")
    if ranks is not None and (len(ranks) > 2 or args.force_wedge):
        raise ValueError("--ranks takes one or two ranks RP[,RQ], and not with --force-wedge")
    trials = []
    residual_keys = (
        "halmos_sum_residual", "halmos_commutator_residual",
        "halmos_pairwise_residual", "spectral_symmetry_residual",
        "exponent_skewness", "exponent_codiagonality",
        "exponent_norm_excess", "exponent_endpoint", "wedge_intertwine",
    )
    aggregate = {k: 0.0 for k in residual_keys}
    n_exists = n_unique = n_nonunique_detected = 0
    for i in range(args.trials):
        rng = np.random.default_rng(args.seed + i)
        if ranks is not None:
            p = sampling.random_projection(args.n, ranks[0], rng, tol)
            q = sampling.random_projection(args.n, ranks[-1], rng, tol)
        else:
            p, q, _ = sampling.random_pair(args.n, rng, args.force_wedge, tol)
        diag = sampling.pair_diagnostics(p, q)
        for k in residual_keys:
            if k in diag:
                aggregate[k] = numkit.worst((aggregate[k], diag[k]))
        n_exists += diag["exists"]
        n_unique += diag.get("unique", False)
        if diag.get("seeded_exponent_gap", 0.0) > 1e-6:
            n_nonunique_detected += 1
        trials.append({"trial": i, "ranks": diag["ranks"],
                       "exists": diag["exists"], "unique": diag.get("unique")})
    results = {
        "trials": args.trials,
        "n_exists": n_exists,
        "n_unique": n_unique,
        "n_nonunique_detected": n_nonunique_detected,
        "max_residuals": aggregate,
        "per_trial": trials,
    }
    inputs = {"params": _digest_params(
        {"n": args.n, "ranks": args.ranks, "trials": args.trials,
         "force_wedge": args.force_wedge, "seed": args.seed})}
    return _report(args, "random", inputs, results)


# ---------------------------------------------------------------------------
# entry point


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be non-negative, got {seed}")
    return seed


def _add_common_flags(p: argparse.ArgumentParser, toplevel: bool) -> None:
    # subparsers get SUPPRESS defaults so they never clobber values the
    # top-level parser already consumed (flags work in both positions)
    def dflt(value):
        return value if toplevel else argparse.SUPPRESS

    p.add_argument("--json", action="store_true", default=dflt(False),
                   help="emit the report as JSON")
    p.add_argument("--tol-structure", type=float, default=dflt(1e-8))
    p.add_argument("--tol-spectral", type=float, default=dflt(1e-6))
    p.add_argument("--tol-rank", type=float, default=dflt(1e-10))
    # a string default goes through the type too, so a bad PROJGEO_SEED
    # exits 2 like a bad --seed
    p.add_argument("--seed", type=_seed,
                   default=dflt(os.environ.get("PROJGEO_SEED", "0")))


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    _add_common_flags(common, toplevel=False)
    parser = argparse.ArgumentParser(
        prog="projgeo", allow_abbrev=False,
        description="Geodesics between orthogonal projections in matrix algebras.")
    _add_common_flags(parser, toplevel=True)
    sub = parser.add_subparsers(dest="command", required=True)

    d = sub.add_parser("decompose", parents=[common],
                       help="five-part position decomposition")
    d.add_argument("p_file")
    d.add_argument("q_file")
    d.set_defaults(handler=cmd_decompose)

    g = sub.add_parser("geodesic", parents=[common],
                       help="minimal exponent and samples")
    g.add_argument("p_file")
    g.add_argument("q_file")
    g.add_argument("--t", default="0,0.5,1", help="comma-separated sample times")
    g.add_argument("--rho", default="", help="comma-separated rho-norm orders")
    g.add_argument("--out", default=None, help="directory for matrix documents")
    g.set_defaults(handler=cmd_geodesic)

    j = sub.add_parser("jones", parents=[common], help="index pair distances")
    j.add_argument("--m", type=int, required=True)
    j.add_argument("--k", type=int, default=1)
    j.add_argument("--rho", default="", help="comma-separated rho-norm orders")
    j.set_defaults(handler=cmd_jones)

    t = sub.add_parser("transport", parents=[common],
                       help="expectation path and parallel transport")
    t.add_argument("--n", type=int, default=2)
    t.add_argument("--spec0", required=True,
                   help="diagonal | rotated:THETA | tensor:KxM | @spec.json")
    t.add_argument("--spec1", required=True)
    t.add_argument("--steps", type=int, default=1000)
    t.add_argument("--trials", type=int, default=5)
    t.add_argument("--order-probe", type=int, default=100,
                   help="base step count of the convergence-order probe")
    t.set_defaults(handler=cmd_transport)

    r = sub.add_parser("random", parents=[common],
                       help="batch invariant checks on random pairs")
    r.add_argument("--n", type=int, required=True)
    r.add_argument("--ranks", default=None, help="fixed rank(s) RP[,RQ]")
    r.add_argument("--trials", type=int, default=10)
    r.add_argument("--force-wedge", action="store_true")
    r.set_defaults(handler=cmd_random)
    return parser


# the keys of a report that may hold a certified upper bound: the bimodule
# field of jones.ExpectationAxioms, and the endpoint and codiagonality of an
# exponent built from a position (in the geodesic, random and transport
# reports), each with the threshold above which the measured value is shown
_BOUND_KEYS = dict.fromkeys(("endpoint", "codiagonality", "exponent_endpoint",
                             "exponent_codiagonality", "codiagonal"),
                            f"{geo.ENDPOINT_ATOL:g}") | {"bimodule": "tol-structure"}
_BOUND_LABEL = "  (certified upper bound; the measured value where that bound exceeds {})"


def _print_human(report: dict, stream) -> None:
    print(f"command: {report['command']}", file=stream)
    print(f"seed: {report['seed']}", file=stream)

    def walk(obj, indent):
        for key in sorted(obj):
            val = obj[key]
            if isinstance(val, dict):
                print(" " * indent + f"{key}:", file=stream)
                walk(val, indent + 2)
            else:
                label = _BOUND_LABEL.format(_BOUND_KEYS[key]) if key in _BOUND_KEYS else ""
                print(" " * indent + f"{key}: {val}{label}", file=stream)

    walk(report["results"], 0)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    args.argv_echo = argv
    try:
        report = args.handler(args)
    except (NoGeodesic, TooFar) as exc:
        print(f"obstruction: {exc}", file=sys.stderr)
        return EXIT_OBSTRUCTION
    except (ProjGeoError, ValueError, KeyError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        _print_human(report, sys.stdout)
    return EXIT_OK
