"""Every residual is measured by numkit's one norm kernel, and every
certified bound is decided by its one settle rule. The library's source is
parsed with ast: a singular-values-only SVD appears in numkit alone; no
module reaches into another module for a private norm helper; outside
numkit no operator_norm call is compared with a tolerance (a pass/fail
check takes bounded_norm); and only numkit (numkit.settles) and projlat
(the eigh record of make_projection) get a logger. So a second copy of the
kernel or of its settle rules cannot grow back unnoticed."""

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


def norm_comparisons(tree: ast.AST, name: str) -> list[int]:
    """Lines of the ordering comparisons with a direct call of ``name`` as an
    operand."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Compare) and any(isinstance(op, ORDERINGS) for op in node.ops)
            and any(isinstance(operand, ast.Call) and callee(operand) == name
                    for operand in [node.left, *node.comparators])]


def test_pass_fail_norm_checks_go_through_bounded_norm():
    # outside numkit a tolerance check takes bounded_norm, which runs an SVD
    # only when the Frobenius norm cannot settle it; operator_norm is kept
    # for the values that are reported
    sample = ast.parse("if numkit.operator_norm(a) > tol: pass\n"
                       "ok = tol >= operator_norm(b)\n"
                       "worst = max(worst, operator_norm(c))\n")
    assert norm_comparisons(sample, "operator_norm") == [1, 2]
    mods = modules()
    found = [f"{name}.py:{line}" for name, tree in mods.items() if name != "numkit"
             for line in norm_comparisons(tree, "operator_norm")]
    assert found == []
    assert {name for name, tree in mods.items()
            if norm_comparisons(tree, "bounded_norm")} >= {"factor", "jones", "numkit"}


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
