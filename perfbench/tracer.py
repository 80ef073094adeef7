"""Per-layer call counters and self times for the traced benchmark run.

The tracer patches the public functions of the projgeo layers, and the
NumPy / SciPy LAPACK entry points they call, with wrappers that record
one span per call. Spans nest: a layer's self time is its span minus the
part covered by the spans of the calls it made. Only totals are kept
(calls, self seconds, errors per name), plus the operation count and
computed bytes of the kernel calls. Wrappers record nothing unless
``active`` is set, so input generation and oracle checks stay uncounted.

Modules that imported a function by name (``from .numkit import
operator_norm``) hold their own binding; ``install`` replaces every
binding of a wrapped function in every loaded projgeo module, and
``restore`` puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# Layer functions wrapped, per projgeo module. Every public function is
# wrapped, including those no metric reports, so that their time is not
# counted as their caller's self time. Helpers that are a line or two of
# arithmetic (adjoint, as_complex, vec) are left out: their cost belongs
# to the caller and wrapping them would dominate the overhead.
LAYER_FUNCTIONS = {
    "numkit": ("operator_norm", "hermitian_eig", "polar_unitary", "exp_skew",
               "log_unitary_principal", "rho_norm", "haar_unitary"),
    "projlat": ("make_projection", "from_span", "complement", "meet",
                "halmos_decompose", "range_basis", "davis_symmetry",
                "principal_angles"),
    "geo": ("geodesic_exists", "unique_geodesic", "partial_isometry",
            "minimal_exponent", "geodesic_point", "geodesic_distance",
            "rho_length", "curve_length", "verify_geodesic"),
    "factor": ("trace", "member_check", "hopf_rinow_certify",
               "blockwise_minimal_exponent", "multi_geodesics"),
    "jones": ("expectation_projection", "expectation_axioms", "jones_pair",
              "index_distance", "expectation_path", "transport_ode_solve",
              "propagator_checks"),
    "sampling": ("random_projection", "structured_pair", "random_pair",
                 "spectral_symmetry_residual", "pair_diagnostics"),
    "cli": ("main",),
}

# Dense LAPACK-backed entry points the library calls through module
# attributes, as (module name, attribute, routine label).
KERNELS = (
    ("numpy.linalg", "eigh", "eigh"),
    ("numpy.linalg", "eigvalsh", "eigvalsh"),
    ("numpy.linalg", "svd", "svd"),
    ("numpy.linalg", "qr", "qr"),
    ("scipy.linalg", "schur", "schur"),
    ("scipy.linalg", "expm", "expm"),
    ("scipy.linalg", "qr", "qr"),
)


def _arrays(obj):
    if hasattr(obj, "shape") and hasattr(obj, "nbytes"):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _arrays(item)


def _work_n3(a) -> float:
    """Operation count of a dense factorization of a (..., m, k) stack:
    batch * m * k * min(m, k), which is n^3 for one square matrix."""
    if getattr(a, "ndim", 0) < 2:
        return 0.0
    m, k = a.shape[-2], a.shape[-1]
    batch = 1
    for d in a.shape[:-2]:
        batch *= d
    return float(batch * m * k * min(m, k))


class Tracer:
    """Span totals for one process; create, ``install``, toggle
    ``active`` around the work to count, then ``restore``."""

    def __init__(self):
        self.active = False
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.errors = defaultdict(int)
        self.work_n3 = 0.0
        self.bytes_computed = 0.0
        self._stack: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, kernel: bool):
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack
            stack.append(0.0)
            failed = True
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                failed = False
            finally:
                span = time.perf_counter() - t0
                self.self_s[name] += span - stack.pop()
                self.calls[name] += 1
                if failed:
                    self.errors[name] += 1
                if stack:
                    stack[-1] += span
            if kernel:
                arrays = list(_arrays(args[:1])) + list(_arrays(out))
                self.work_n3 += _work_n3(args[0]) if args else 0.0
                self.bytes_computed += float(sum(a.nbytes for a in arrays))
            return out

        return functools.wraps(fn)(wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every layer function and kernel entry point."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        replacements = {}
        for short, names in LAYER_FUNCTIONS.items():
            module = importlib.import_module(f"projgeo.{short}")
            for fname in names:
                fn = getattr(module, fname)
                replacements[id(fn)] = (fn, self._wrap(f"{short}.{fname}", fn, False))
        for modname, attr, routine in KERNELS:
            module = sys.modules[modname]
            fn = getattr(module, attr)
            self._set(module, attr,
                      self._wrap(f"numkit.lapack.{routine}", fn, True))
        for modname, module in sorted(sys.modules.items()):
            if modname != "projgeo" and not modname.startswith("projgeo."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, attr, hit[1])

    def restore(self) -> None:
        """Put back every original binding, last patch first."""
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    def state(self) -> dict:
        """Plain-value copy of every total, for saving or merging."""
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "errors": dict(self.errors), "work_n3": self.work_n3,
                "bytes_computed": self.bytes_computed}

    def merge(self, state: dict) -> None:
        """Add the totals another process saved with ``state``."""
        for key in ("calls", "self_s", "errors"):
            mine = getattr(self, key)
            for name, value in state[key].items():
                mine[name] += value
        self.work_n3 += state["work_n3"]
        self.bytes_computed += state["bytes_computed"]
