"""The principal planes are classified in one module. The library's source
is parsed with ast: only numkit, where the width is defined, and projlat,
where the planes are classified, read the attribute ``atol_spectral`` (cli
passes it to ToleranceProfile as a keyword, which is not a read), and no
module but projlat reads the private state of a Position. So a second
classification cannot grow back in geo, jones, sampling or factor
unnoticed."""

import ast

from test_norm_kernel import modules

READERS = {"numkit", "projlat"}


def position_privates(tree: ast.Module) -> set[str]:
    """The private names of projlat's Position class and of projlat itself."""
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "Position")
    names = {target.id for node in tree.body + cls.body if isinstance(node, ast.Assign)
             for target in node.targets if isinstance(target, ast.Name)}
    names |= {node.name for node in cls.body if isinstance(node, ast.FunctionDef)}
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def reads(tree: ast.Module, names: set[str]) -> list[int]:
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in names]


def test_only_numkit_and_projlat_read_the_width():
    mods = modules()
    assert reads(mods["projlat"], {"atol_spectral"}), "the pattern finds no read in projlat"
    found = [f"{name}.py:{line}" for name, tree in mods.items() if name not in READERS
             for line in reads(tree, {"atol_spectral"})]
    assert found == []


def test_no_module_reads_position_private_state():
    mods = modules()
    private = position_privates(mods["projlat"])
    assert {"_SKIP", "_wedge_bases", "_span"} <= private
    found = [f"{name}.py:{line}" for name, tree in mods.items() if name != "projlat"
             for line in reads(tree, private)]
    assert found == []
