"""The benchmark's workloads: a seeded input generator, the operation
that is timed, and an independent oracle for each.

Inputs are built here from a known canonical form (part ranks and
principal angles) with NumPy alone, so the oracles compare the library's
outputs with quantities fixed by construction, never with the library's
own intermediate results. Input ``i`` of a workload depends only on the
seed and ``i``, so a run that completes more ops sees a longer prefix of
the same input stream.

An oracle returns None when the outputs are right and a short reason
when they are wrong. ``Outcome`` classifies an op that raised.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import projgeo as pg
from projgeo import factor, geo, jones, sampling
from projgeo.errors import ProjGeoError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HALF_PI = math.pi / 2
RHOS = (2.0, 4.0)
# Angle-space width of the library's meet classification: a plane whose
# angle to 0 or pi/2 is below sqrt(2 * atol_spectral) is absorbed into a
# meet or wedge part. Within AMBIGUOUS of a threshold either verdict is
# accepted; beyond it the ground-truth ranks must come back exactly.
CLASSIFY_WIDTH = math.sqrt(2 * pg.DEFAULT_TOL.atol_spectral)
AMBIGUOUS = 2 * CLASSIFY_WIDTH
ANGLE_ATOL = 1e-7
RESIDUAL_ATOL = 1e-8  # the library's documented residual contract


def rng_for(seed: int, workload: str, i: int) -> np.random.Generator:
    tag = sum(ord(c) for c in workload)
    return np.random.default_rng([seed, tag, i])


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d)).conj()


def opnorm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a, 2))


# ---------------------------------------------------------------------------
# canonical pairs with known position


@dataclass(frozen=True)
class Canonical:
    """A pair in its canonical basis: n11 dims in both ranges, n00 in
    neither, n10 in p only, n01 in q only, then one plane per angle with
    p = e_i and q = cos(theta) e_i + sin(theta) e_{i+1}."""

    n11: int
    n00: int
    n10: int
    n01: int
    angles: tuple[float, ...]

    @property
    def n(self) -> int:
        return self.n11 + self.n00 + self.n10 + self.n01 + 2 * len(self.angles)

    @property
    def ranks(self) -> list[int]:
        return [self.n11, self.n00, self.n10, self.n01, 2 * len(self.angles)]

    @property
    def joinable(self) -> bool:
        return self.n10 == self.n01

    def distance(self) -> float:
        d = HALF_PI if self.n10 > 0 else 0.0
        return max([d, *self.angles])

    def rho_length(self, rho: float) -> float:
        """||z||_rho of the minimal exponent under tr/n: each plane
        contributes eigenvalues +-i theta, the wedge +-i pi/2."""
        total = sum(2 * t ** rho for t in self.angles)
        total += 2 * self.n10 * HALF_PI ** rho
        return (total / self.n) ** (1.0 / rho)

    def matrices(self) -> tuple[np.ndarray, np.ndarray]:
        n = self.n
        p = np.zeros(n)
        q = np.zeros((n, n))
        p[:self.n11] = 1.0
        q[:self.n11, :self.n11] = np.eye(self.n11)
        i = self.n11 + self.n00
        p[i:i + self.n10] = 1.0
        i += self.n10
        q[i:i + self.n01, i:i + self.n01] = np.eye(self.n01)
        i += self.n01
        for t in self.angles:
            c, s = math.cos(t), math.sin(t)
            p[i] = 1.0
            q[i:i + 2, i:i + 2] = [[c * c, c * s], [c * s, s * s]]
            i += 2
        return np.diag(p).astype(complex), q.astype(complex)

    def exponent(self) -> np.ndarray:
        """Real skew generator carrying p to q: a rotation by theta on
        each plane and by pi/2 from each p-only to a q-only vector."""
        n = self.n
        z = np.zeros((n, n))
        a = self.n11 + self.n00
        for k in range(self.n10):
            z[a + self.n10 + k, a + k] = HALF_PI
            z[a + k, a + self.n10 + k] = -HALF_PI
        i = a + self.n10 + self.n01
        for t in self.angles:
            z[i + 1, i] = t
            z[i, i + 1] = -t
            i += 2
        return z.astype(complex)

    def absorbed(self, k: int) -> "Canonical":
        """The position the library sees when plane k falls inside the
        classification width: a meet pair near 0, a wedge pair near pi/2."""
        t = self.angles[k]
        rest = self.angles[:k] + self.angles[k + 1:]
        if t < math.pi / 4:
            return Canonical(self.n11 + 1, self.n00 + 1, self.n10, self.n01, rest)
        return Canonical(self.n11, self.n00, self.n10 + 1, self.n01 + 1, rest)


def conjugate(u: np.ndarray, m: np.ndarray) -> np.ndarray:
    return u @ m @ u.conj().T


def competitor_curve(c: Canonical, u: np.ndarray, rng: np.random.Generator,
                     samples: int = 1000) -> np.ndarray:
    """A smooth curve of projections from p to q that is not the
    geodesic: the canonical geodesic under a time reparametrization,
    conjugated by a unitary group whose parameter vanishes at both ends.
    Returns a (samples, n, n) stack in the Haar-rotated basis."""
    n = c.n
    ts = np.linspace(0.0, 1.0, samples)
    hs = ts + 0.12 * rng.uniform(-1.0, 1.0) * np.sin(np.pi * ts)
    k = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    k = (k - k.conj().T) / 2
    k /= np.linalg.norm(k, 2)
    ss = (0.25 * rng.uniform(0.2, 1.0) * np.sin(np.pi * ts)
          + 0.25 * rng.uniform(-0.5, 0.5) * np.sin(2 * np.pi * ts))

    def group(gen, params):
        lam, v = np.linalg.eigh(1j * gen)
        phases = np.exp(-1j * np.outer(params, lam))
        return np.einsum("ij,tj,kj->tik", v, phases, v.conj())

    pc, _ = c.matrices()
    w = group(k, ss) @ group(c.exponent(), hs)
    curve = w @ pc @ w.conj().transpose(0, 2, 1)
    return u @ curve @ u.conj().T


def chordal_lengths(curve: np.ndarray) -> dict:
    """Chordal lengths of a stack of projections in the operator norm
    and the rho-norms under tr/n, from the eigenvalues of the steps."""
    n = curve.shape[1]
    s = np.abs(np.linalg.eigvalsh(curve[1:] - curve[:-1]))
    out = {None: float(s.max(axis=1).sum())}
    for rho in RHOS:
        out[rho] = float((((s ** rho).sum(axis=1) / n) ** (1.0 / rho)).sum())
    return out


# ---------------------------------------------------------------------------
# outcomes of an op


@dataclass
class Outcome:
    ok: bool
    wrong: str | None = None   # oracle mismatch: the output is incorrect
    error: str | None = None   # exception type name when the op raised
    typed: bool = True         # False for exceptions outside ProjGeoError


def classify(workload, inp, out, exc) -> Outcome:
    """No in-process input is built to raise, so every exception is a
    failure; the CLI's typed obstruction (exit 3) is checked by its
    oracle instead."""
    if exc is None:
        reason = workload.check(inp, out)
        return Outcome(ok=reason is None, wrong=reason)
    return Outcome(ok=False, error=type(exc).__name__,
                   typed=isinstance(exc, ProjGeoError))


# ---------------------------------------------------------------------------
# workloads


class PairsLarge:
    """Haar-conjugated pairs at n in {64, 128, 192}; one op is the
    library work of `projgeo geodesic`."""

    name = "pairs-large"
    sizes = (64, 128, 192)

    def __init__(self, seed: int, tmp: Path, tracer=None):
        self.seed = seed

    def make_input(self, i: int) -> dict:
        rng = rng_for(self.seed, self.name, i)
        n = self.sizes[i % len(self.sizes)]
        w, g = n // 16, n // 3
        rest = n - 2 * w - 2 * g
        n11 = int(rng.integers(0, rest + 1))
        angles = rng.uniform(0.05, HALF_PI - 0.05, size=g)
        c = Canonical(n11, rest - n11, w, w, tuple(float(a) for a in angles))
        u = haar_unitary(n, rng)
        pm, qm = c.matrices()
        return {"c": c, "pm": conjugate(u, pm), "qm": conjugate(u, qm)}

    def op(self, inp) -> dict:
        p = pg.make_projection(inp["pm"])
        q = pg.make_projection(inp["qm"])
        g = geo.minimal_exponent(p, q)
        res = geo.verify_geodesic(g)
        mid = geo.geodesic_point(g, 0.5)
        d = geo.geodesic_distance(p, q)
        tr = factor.NormalizedTrace(factor.FiniteAlgebra.full(p.n))
        lengths = {rho: geo.rho_length(g, rho, tr) for rho in RHOS}
        return {"p": p, "q": q, "residual": res.max(), "mid": mid,
                "distance": d, "lengths": lengths}

    def check(self, inp, out) -> str | None:
        c = inp["c"]
        if out["residual"] > geo.ENDPOINT_ATOL:
            return f"exponent residual {out['residual']:.3e}"
        if out["p"].rank != c.n11 + c.n10 + len(c.angles):
            return "rank of p"
        if abs(out["distance"] - c.distance()) > RESIDUAL_ATOL:
            return f"distance {out['distance']!r} != {c.distance()!r}"
        for rho, value in out["lengths"].items():
            if abs(value - c.rho_length(rho)) > RESIDUAL_ATOL:
                return f"rho={rho} length {value!r} != {c.rho_length(rho)!r}"
        # the midpoint is at half of every principal angle from both ends:
        # ||mid - end||_F^2 = sum 2 sin^2(theta/2) + 2 w sin^2(pi/4)
        mid = out["mid"]
        if mid.rank != out["p"].rank:
            return "midpoint rank"
        half = math.sqrt(sum(2 * math.sin(t / 2) ** 2 for t in c.angles)
                         + 2 * c.n10 * math.sin(HALF_PI / 2) ** 2)
        for end in (inp["pm"], inp["qm"]):
            if abs(np.linalg.norm(mid.m - end) - half) > RESIDUAL_ATOL:
                return "midpoint is not halfway"
        return None


class PairsSmall:
    """Small random-position pairs at n in {4, 8, 12}, half with forced
    wedge, one in eight with an angle near 0 or pi/2; one op is
    pair_diagnostics plus a minimality probe on a competitor curve."""

    name = "pairs-small"
    sizes = (4, 8, 12)

    def __init__(self, seed: int, tmp: Path, tracer=None):
        self.seed = seed

    def make_input(self, i: int) -> dict:
        rng = rng_for(self.seed, self.name, i)
        n = self.sizes[i % 3]
        force_wedge = i % 6 < 3
        near = i % 8 == 7
        # same position distribution as sampling.random_pair
        gmax = (n - 2) // 2 if force_wedge else n // 2
        g = int(rng.integers(1 if near else 0, gmax + 1))
        rest = n - 2 * g
        if force_wedge:
            n10 = n01 = int(rng.integers(1, rest // 2 + 1))
            rest -= 2 * n10
        else:
            n10 = int(rng.integers(0, rest + 1))
            rest -= n10
            n01 = int(rng.integers(0, rest + 1))
            rest -= n01
        n11 = int(rng.integers(0, rest + 1))
        angles = [float(a) for a in rng.uniform(0.05, HALF_PI - 0.05, size=g)]
        near_index = None
        if near:
            delta = math.exp(rng.uniform(math.log(1e-12), math.log(0.05)))
            angles[0] = delta if rng.integers(2) == 0 else HALF_PI - delta
            near_index = 0
        c = Canonical(n11, rest - n11, n10, n01, tuple(angles))
        u = haar_unitary(n, rng)
        pm, qm = c.matrices()
        curve = competitor_curve(c, u, rng) if c.joinable else None
        return {"c": c, "near": near_index, "pm": conjugate(u, pm),
                "qm": conjugate(u, qm), "curve": curve}

    def op(self, inp) -> dict:
        p = pg.make_projection(inp["pm"])
        q = pg.make_projection(inp["qm"])
        report = sampling.pair_diagnostics(p, q)
        lengths = None
        if inp["curve"] is not None:
            lengths = {None: geo.curve_length(inp["curve"])}
            for rho in RHOS:
                lengths[rho] = geo.curve_length(inp["curve"], rho=rho)
        return {"report": report, "lengths": lengths}

    def check(self, inp, out) -> str | None:
        c, rep = inp["c"], out["report"]
        candidates = [c]
        k = inp["near"]
        borderline = (k is not None
                      and min(c.angles[k], HALF_PI - c.angles[k]) < AMBIGUOUS)
        if borderline:
            candidates.append(c.absorbed(k))
        seen = [e for e in candidates if e.ranks == rep["ranks"]]
        if not seen:
            return f"ranks {rep['ranks']} != {c.ranks}"
        e = seen[0]
        got = np.asarray(rep["angles"])
        want = np.sort(e.angles)
        if got.shape != want.shape or np.any(np.abs(got - want) > ANGLE_ATOL):
            return "principal angles"
        if rep["exists"] != e.joinable:
            return "existence verdict"
        # a plane absorbed into a meet leaves commutator residuals of the
        # order of its angle; the library reports them, so they are only
        # bounded away from the classification window
        for key, value in rep.items():
            if key.endswith("residual") and value > RESIDUAL_ATOL and not borderline:
                return f"{key} = {value:.3e}"
        if not e.joinable:
            return None
        if rep["unique"] != (e.n10 == 0):
            return "uniqueness verdict"
        if abs(rep["distance"] - e.distance()) > ANGLE_ATOL:
            return f"distance {rep['distance']!r} != {e.distance()!r}"
        if rep["exponent_endpoint"] > geo.ENDPOINT_ATOL:
            return "exponent endpoint"
        lengths = out["lengths"]
        ref = chordal_lengths(inp["curve"])
        for key, value in lengths.items():
            if abs(value - ref[key]) > 1e-9 * max(1.0, ref[key]):
                return f"curve length (rho={key}) {value!r} != {ref[key]!r}"
        # the competitor must be no shorter than the minimal geodesic
        if lengths[None] < rep["distance"] - 1e-6:
            return "competitor shorter than the distance"
        for rho in RHOS:
            if lengths[rho] < c.rho_length(rho) - 1e-6:
                return f"competitor shorter than the rho={rho} length"
        return None


class Transport:
    """Expectation path between the diagonal and a rotated diagonal of
    M_n, n in {6, 8, 10}; one op builds the path, integrates the
    transport ODE and runs the propagator and axiom checks."""

    name = "transport"
    sizes = (6, 8, 10)
    steps = 200

    def __init__(self, seed: int, tmp: Path, tracer=None):
        self.seed = seed

    def make_input(self, i: int) -> dict:
        rng = rng_for(self.seed, self.name, i)
        n = self.sizes[i % 3]
        xs = [rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
              for _ in range(2)]
        return {"n": n, "theta": float(rng.uniform(0.2, 0.6)),
                "x0": xs[0], "x1": xs[1]}

    def op(self, inp) -> dict:
        n = inp["n"]
        path = jones.expectation_path(
            jones.diagonal_spec(n), jones.rotated_diagonal_spec(n, inp["theta"]), n)
        _, states = jones.transport_ode_solve(path, inp["x0"], self.steps)
        exact = path.transport(1.0, inp["x0"])
        prop = jones.propagator_checks(path, (0.5,), [inp["x1"]])
        axioms = jones.expectation_axioms(path.projection_at(0.5), n)
        return {"path": path, "ode": states[-1], "exact": exact,
                "propagator": prop.max(), "axioms": axioms.max()}

    def check(self, inp, out) -> str | None:
        n, x0 = inp["n"], inp["x0"]
        ode_err = opnorm(out["ode"] - out["exact"])
        if ode_err > 1e-6:
            return f"ODE vs propagator {ode_err:.3e}"
        if out["propagator"] > RESIDUAL_ATOL:
            return f"propagator residual {out['propagator']:.3e}"
        if out["axioms"] > RESIDUAL_ATOL:
            return f"axiom residual {out['axioms']:.3e}"
        # the propagator is unitary on the Hilbert-Schmidt space
        if abs(np.linalg.norm(out["exact"]) - np.linalg.norm(x0)) > 1e-9 * np.linalg.norm(x0):
            return "propagator is not norm preserving"
        # endpoint expectations: the diagonal part, before and after rotation
        c, s = math.cos(inp["theta"]), math.sin(inp["theta"])
        r = np.eye(n, dtype=complex)
        r[:2, :2] = [[c, -s], [s, c]]
        path = out["path"]
        want0 = np.diag(np.diag(x0))
        want1 = r @ np.diag(np.diag(r.conj().T @ x0 @ r)) @ r.conj().T
        if opnorm(path.end0.expect(x0) - want0) > RESIDUAL_ATOL:
            return "E0 is not the diagonal expectation"
        if opnorm(path.end1.expect(x0) - want1) > RESIDUAL_ATOL:
            return "E1 is not the rotated diagonal expectation"
        if opnorm(path.projection_at(1.0).m - path.end1.big.m) > RESIDUAL_ATOL:
            return "path does not end at E1"
        return None


class Cli:
    """One `python -m projgeo` process at a time, cycling a fixed mix of
    subcommands on pair documents written at set-up."""

    name = "cli"
    pool = 4
    mix = ("decompose", "geodesic", "geodesic-unjoinable", "jones",
           "transport", "random")

    def __init__(self, seed: int, tmp: Path, tracer=None):
        self.seed = seed
        self.tmp = tmp
        self.tracer = tracer
        self.startup_s = 0.0
        self.output_bytes = 0
        rng = rng_for(seed, "cli-documents", 0)
        self.pairs = []
        for k in range(self.pool):
            angles = tuple(float(a) for a in rng.uniform(0.05, HALF_PI - 0.05, size=5))
            c = Canonical(2, 2, 1, 1, angles)
            self.pairs.append((c, self._write_pair(f"pair{k}", c, rng)))
        bad = Canonical(3, 2, 2, 1, tuple(float(a) for a in rng.uniform(0.05, 1.5, size=4)))
        self.unjoinable = self._write_pair("unjoinable", bad, rng)

    def _write_pair(self, stem: str, c: Canonical, rng) -> tuple[str, str]:
        u = haar_unitary(c.n, rng)
        paths = []
        for tag, m in zip("pq", c.matrices()):
            m = conjugate(u, m)
            path = self.tmp / f"{stem}_{tag}.json"
            doc = {"n": c.n, "re": m.real.tolist(), "im": m.imag.tolist()}
            path.write_text(json.dumps(doc))
            paths.append(str(path.relative_to(ROOT)))
        return tuple(paths)

    def make_input(self, i: int) -> dict:
        rng = rng_for(self.seed, self.name, i)
        kind = self.mix[i % len(self.mix)]
        c, (pf, qf) = self.pairs[(i // len(self.mix)) % self.pool]
        out_dir = self.tmp / "out"
        for f in out_dir.glob("*.json"):
            f.unlink()
        seed = int(rng.integers(0, 2 ** 31))
        argv = {
            "decompose": ["decompose", pf, qf],
            "geodesic": ["geodesic", pf, qf, "--rho", "2,4",
                         "--out", str(out_dir.relative_to(ROOT))],
            "geodesic-unjoinable": ["geodesic", *self.unjoinable],
            "jones": ["jones", "--m", "4", "--k", "2", "--rho", "2,4"],
            "transport": ["transport", "--n", "4", "--spec0", "diagonal",
                          "--spec1", f"rotated:{rng.uniform(0.2, 0.6):.6f}",
                          "--steps", "200", "--trials", "1"],
            "random": ["random", "--n", "8", "--trials", "5", "--force-wedge"],
        }[kind]
        return {"kind": kind, "c": c, "out_dir": out_dir,
                "argv": ["--json", "--seed", str(seed), *argv]}

    def op(self, inp) -> dict:
        counters = self.tmp / "counters.json"
        counters.unlink(missing_ok=True)
        traced = self.tracer is not None and self.tracer.active
        if not traced:
            cmd = [sys.executable, "-m", "projgeo", *inp["argv"]]
        else:
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(counters),
                   *inp["argv"]]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=120)
        wall = time.perf_counter() - t0
        files = sorted(inp["out_dir"].glob("*.json")) if inp["kind"] == "geodesic" else []
        if traced:
            saved = json.loads(counters.read_text())
            self.tracer.merge(saved["tracer"])
            self.startup_s += wall - saved["main_s"]
            self.output_bytes += len(proc.stdout) + sum(f.stat().st_size for f in files)
        return {"code": proc.returncode, "stdout": proc.stdout,
                "stderr": proc.stderr, "files": [f.name for f in files]}

    def check(self, inp, out) -> str | None:
        kind = inp["kind"]
        if kind == "geodesic-unjoinable":
            if out["code"] != 3 or out["stdout"]:
                return f"unjoinable pair: exit {out['code']}, expected 3"
            return None
        if out["code"] != 0:
            return f"{kind}: exit {out['code']}: {out['stderr'][-300:]!r}"
        res = json.loads(out["stdout"])["results"]
        return getattr(self, "_check_" + kind)(inp, res, out)

    def _check_decompose(self, inp, res, out):
        c = inp["c"]
        ranks = [res["ranks"][k] for k in ("e11", "e00", "e10", "e01", "e0")]
        if ranks != c.ranks:
            return f"ranks {res['ranks']}"
        if np.any(np.abs(np.asarray(res["angles"]) - np.sort(c.angles)) > ANGLE_ATOL):
            return "angles"
        if not res["exists"] or res["unique"]:
            return "existence / uniqueness"
        if abs(res["distance"] - c.distance()) > ANGLE_ATOL:
            return "distance"
        if max(res["residuals"].values()) > RESIDUAL_ATOL:
            return "decomposition residuals"
        return None

    def _check_geodesic(self, inp, res, out):
        c = inp["c"]
        if abs(res["distance"] - c.distance()) > RESIDUAL_ATOL:
            return "distance"
        for rho in RHOS:
            if abs(res["rho_lengths"][repr(rho)] - c.rho_length(rho)) > RESIDUAL_ATOL:
                return f"rho={rho} length"
        if max(res["residuals"].values()) > RESIDUAL_ATOL:
            return "exponent residuals"
        want = ["exponent.json", "point_0.000000.json", "point_0.500000.json",
                "point_1.000000.json"]
        if out["files"] != want:
            return f"written documents {out['files']}"
        return None

    def _check_jones(self, inp, res, out):
        # m = 4, k = 2: k planes at theta = arccos(1/2) in M_8
        theta = math.acos(0.5)
        c = Canonical(0, 4, 0, 0, (theta, theta))
        if abs(res["tau"] - 0.25) > 1e-15 or abs(res["distance"] - theta) > 1e-9:
            return "tau / distance"
        values = {e["rho"]: e["value"] for e in res["rho"]}
        for rho in RHOS:
            if abs(values[rho] - c.rho_length(rho)) > 1e-9:
                return f"rho={rho} length {values[rho]!r}"
        return None

    def _check_transport(self, inp, res, out):
        if res["ode_vs_propagator"] > 1e-6 or not res["gap"] < 1.0:
            return "ODE vs propagator"
        worst = max(max(ax.values()) for ax in res["expectation_axioms"].values())
        if worst > RESIDUAL_ATOL or max(res["propagator"].values()) > RESIDUAL_ATOL:
            return "axiom / propagator residuals"
        return None

    def _check_random(self, inp, res, out):
        if (res["trials"], res["n_exists"], res["n_unique"]) != (5, 5, 0):
            return "random batch verdicts"
        if max(res["max_residuals"].values()) > RESIDUAL_ATOL:
            return "random batch residuals"
        return None


WORKLOAD_TYPES = {w.name: w for w in (PairsLarge, PairsSmall, Transport, Cli)}
