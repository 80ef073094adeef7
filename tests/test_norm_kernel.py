"""Every residual is measured by numkit's one norm kernel, and every
certified bound is decided by its one settle rule. The library's source is
parsed with ast: a singular-values-only SVD appears in numkit alone; no
module reaches into another module for a private norm helper; outside
numkit every pass/fail check against a tolerance goes through
numkit.exceeds, which a nan fails, and every reported maximum through
numkit.worst, which keeps a nan (a documented list allows the counts,
masks and integer arithmetic); no norm call is compared directly (a check
takes bounded_norm); and only numkit (numkit.settles) and projlat (the eigh
record of make_projection) get a logger. So a second copy of the kernel or
of its rules cannot grow back unnoticed."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "projgeo"

# A private helper named for a norm: _frobenius, _max_norm, _hermitian_norm,
# _frobenius_norms, _orthonormality_residual, _span_residuals, ...
NORM_HELPER = re.compile(r"^_\w*(frobenius|norms?|residuals?)$")


def modules():
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(SRC.glob("*.py"))}


def callee(call: ast.Call) -> str | None:
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def singular_values_only(call: ast.Call) -> bool:
    name = callee(call)
    return name == "svdvals" or name == "svd" and any(
        kw.arg == "compute_uv" and isinstance(kw.value, ast.Constant)
        and kw.value.value is False for kw in call.keywords)


def test_singular_values_are_taken_in_numkit_only():
    found = [f"{name}.py:{node.lineno}" for name, tree in modules().items()
             for node in ast.walk(tree)
             if isinstance(node, ast.Call) and singular_values_only(node)]
    assert found, "the pattern no longer finds numkit's own SVDs"
    assert [f for f in found if not f.startswith("numkit.py:")] == []


def test_no_module_uses_another_modules_private_norm_helper():
    assert all(NORM_HELPER.match(name) for name in (
        "_frobenius", "_frobenius_norms", "_max_norm", "_orthonormality_residual"))
    assert not NORM_HELPER.match("_from_orthonormal")
    mods = modules()
    found = []
    for name, tree in mods.items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in mods and node.value.id != name
                    and NORM_HELPER.match(node.attr)):
                found.append(f"{name}.py:{node.lineno} {node.value.id}.{node.attr}")
            if isinstance(node, ast.ImportFrom) and node.module in mods:
                found += [f"{name}.py:{node.lineno} {node.module}.{alias.name}"
                          for alias in node.names if NORM_HELPER.match(alias.name)]
    assert found == []


ORDERINGS = (ast.Gt, ast.GtE, ast.Lt, ast.LtE)


def orderings(tree: ast.AST):
    return [node for node in ast.walk(tree) if isinstance(node, ast.Compare)
            and any(isinstance(op, ORDERINGS) for op in node.ops)]


def norm_comparisons(tree: ast.AST, name: str) -> list[int]:
    """Lines of the ordering comparisons with a direct call of ``name`` as an
    operand."""
    return [node.lineno for node in orderings(tree)
            if any(isinstance(operand, ast.Call) and callee(operand) == name
                   for operand in [node.left, *node.comparators])]


def exceeds_calls(tree: ast.AST, name: str) -> list[int]:
    """Lines of the numkit.exceeds calls whose value is a direct call of ``name``."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and callee(node) == "exceeds" and node.args
            and isinstance(node.args[0], ast.Call) and callee(node.args[0]) == name]


def test_pass_fail_norm_checks_go_through_bounded_norm():
    # a check takes bounded_norm, which runs an SVD only when the Frobenius
    # norm cannot settle it, and numkit.exceeds decides it, a nan failing;
    # operator_norm is kept for the values that are reported. No module,
    # numkit included, compares a norm call with an ordering
    sample = ast.parse("if numkit.operator_norm(a) > tol: pass\n"
                       "ok = tol >= bounded_norm(b, tol)\n"
                       "worst = max(worst, operator_norm(c))\n"
                       "if numkit.exceeds(numkit.bounded_norm(d, tol), tol): pass\n")
    assert norm_comparisons(sample, "operator_norm") == [1]
    assert norm_comparisons(sample, "bounded_norm") == [2]
    assert exceeds_calls(sample, "bounded_norm") == [4]
    mods = modules()
    found = [f"{name}.py:{line}" for name, tree in mods.items()
             for norm in ("operator_norm", "bounded_norm")
             for line in norm_comparisons(tree, norm)]
    assert found == []
    assert {name for name, tree in mods.items()
            if exceeds_calls(tree, "bounded_norm")} >= {"factor", "jones", "numkit"}


# Tolerances and bounds by name: outside numkit an ordering comparison with
# one of them is a pass/fail check, which numkit.exceeds decides
BOUND_NAME = re.compile(r"^(atol_\w+|\w*_ATOL|bound|tol|_SKIP|\w*cutoff)$")

# The comparisons with such a name that are not pass/fail checks, and the
# builtin max/min calls over integers, shapes and tolerances, where no
# residual and so no nan enters, keyed by module and source
ALLOWED = {
    ("jones", "s > tol.rank_cutoff(n * n, s[0])"): "rank count; a nan counts as zero",
    ("projlat", "s > tol.rank_cutoff(max(n, k), s[0])"): "rank count; a nan counts as zero",
    ("projlat", "self.theta <= _SKIP"): "mask of the planes the exponent holds",
    ("projlat", "self.theta > _SKIP"): "mask of the planes it turns",
    ("projlat", "max(n, k)"): "shape",
    ("projlat", "max(atol, 1e-06)"): "tolerance",
    ("projlat", "min(8 * numkit.complex_dot_error(n), tol.atol_spectral, "
                "tol.atol_structure / 2)"): "tolerances",
    ("projlat", "min(tol.atol_structure / 2, tol.atol_spectral, 0.25)"): "tolerances",
    ("jones", "max(1, _PRODUCT_BLOCK // max(len(right) * n * n, 1))"): "block size",
    ("jones", "max(len(right) * n * n, 1)"): "entries per left factor",
    ("jones", "max(in_cols.max(initial=0), in_rows.max(initial=0))"): "nonzero counts",
    ("jones", "min(done, steps + 1 - done)"): "rows of a doubling step",
}


def identifiers(node: ast.AST) -> set[str]:
    """The names and attributes in node, except within a nested comparison,
    which is judged on its own."""
    found = {node.id} if isinstance(node, ast.Name) else (
        {node.attr} if isinstance(node, ast.Attribute) else set())
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, ast.Compare):
            found |= identifiers(child)
    return found


def nan_blind(tree: ast.AST, module: str) -> list[str]:
    """The ordering comparisons with a tolerance or bound name, and the
    builtin max/min calls, that ALLOWED does not list: a comparison that a
    nan passes, and a reduction that drops a nan after its first argument."""
    found = [node for node in orderings(tree)
             if any(BOUND_NAME.match(name) for name in identifiers(node))]
    found += [node for node in ast.walk(tree) if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Name) and node.func.id in ("max", "min")]
    return [f"{module}.py:{node.lineno} {ast.unparse(node)}" for node in found
            if (module, ast.unparse(node)) not in ALLOWED]


def test_checks_and_maxima_outside_numkit_keep_a_nan():
    # numkit.exceeds fails a nan and numkit.worst keeps one; the comparison
    # and the builtin max below each lose it, and are found
    sample = ast.parse("if eps > tol.atol_structure: pass\n"
                       "ok = res <= ENDPOINT_ATOL\n"
                       "worst = max(worst, operator_norm(c))\n"
                       "if numkit.exceeds(numkit.worst((a, b)), bound): pass\n"
                       "k = n > 2\n")
    assert [f.split()[0] for f in nan_blind(sample, "m")] == ["m.py:1", "m.py:2", "m.py:3"]
    mods = modules()
    assert all(ast.unparse(node) == source for (name, source) in ALLOWED
               for node in [ast.parse(source, mode="eval").body])
    listed = {(name, ast.unparse(node)) for name, tree in mods.items()
              for node in ast.walk(tree) if isinstance(node, (ast.Compare, ast.Call))}
    assert set(ALLOWED) <= listed, "an ALLOWED entry names no source"
    assert [f for name, tree in mods.items() if name != "numkit"
            for f in nan_blind(tree, name)] == []


def test_certified_bounds_are_settled_and_logged_by_numkit_only():
    # numkit.settles compares each certified bound with its tolerance and
    # writes the fallback record; projlat keeps one record, of the eigh
    # fallback of make_projection, which reports a missing certificate
    mods = modules()
    calls = {name: [callee(node) for node in ast.walk(tree) if isinstance(node, ast.Call)]
             for name, tree in mods.items()}
    assert {name for name, names in calls.items() if "getLogger" in names} == {
        "numkit", "projlat"}
    assert calls["projlat"].count("debug") == 1
    assert {name for name, names in calls.items() if "settles" in names} >= {
        "geo", "jones", "projlat"}
