"""The package's public names, and every import of its modules.

Each module that exports names declares them once, in a literal __all__, one
name per line, of names it binds itself by a def, a class or an assignment.
__init__.py imports those modules, star-imports each, and composes its
__all__ from their lists, so it imports nothing by name and a public name is
added or dropped in one place, next to its definition.

Every name a package module imports is used in that module.  The scan reads
each module's AST: an imported name counts as used when it appears as a name
anywhere in the module.  And the modules are layered: each imports from the
package only modules before it in LAYERS, so no import runs upward.

Importing the package is most of a CLI command's time, so it loads no module
it does not use: its records stand on exactnum.Record rather than
dataclasses, which would pull in inspect, and its one type alias is written
with |, not typing.
"""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import planecone

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "planecone"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
INIT = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
# the modules whose names the package exports: those __init__.py imports from
EXPORTING = sorted({n.module for n in ast.walk(INIT) if isinstance(n, ast.ImportFrom) and n.module})
# every module but __init__.py, lowest first: the number readers, the slopes, their
# characters and continued fractions, then the minimal slope, wall geometry, the
# resolution with its wall, and the checks and the CLI on top
LAYERS = [
    "exactnum",
    "exceptional",
    "chern",
    "contfrac",
    "stability",
    "bridgeland",
    "resolution",
    "verify",
    "cli",
]


def parse(module: str) -> ast.Module:
    return ast.parse((PACKAGE / (module + ".py")).read_text(encoding="utf-8"))


def declared(tree: ast.Module):
    """The value a module assigns to __all__ at its top level, or None."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return node.value
    return None


def bound_names(tree: ast.Module) -> set[str]:
    """Names a module binds at its top level by a def, a class or an assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    return names


def used_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    tree = parse(module)
    unused = imported_names(tree) - used_names(tree)
    assert not unused, "%s.py imports %s and never uses them" % (module, sorted(unused))


@pytest.mark.parametrize("module", EXPORTING)
def test_each_module_lists_once_the_names_it_defines(module):
    tree = parse(module)
    node = declared(tree)
    assert isinstance(node, ast.List), "%s.py assigns no literal list to __all__" % module
    names = ast.literal_eval(node)
    assert names and all(isinstance(name, str) for name in names)
    assert len(names) == len(set(names)), names
    assert len({elt.lineno for elt in node.elts}) == len(names), "one name per line"
    # an imported name is exported by the module that defines it, not here
    assert not set(names) - bound_names(tree), sorted(set(names) - bound_names(tree))


def test_the_package_all_is_the_modules_lists_end_to_end():
    modules = [importlib.import_module("planecone." + m) for m in EXPORTING]
    assert planecone.__all__ == [name for m in modules for name in m.__all__]
    assert len(planecone.__all__) == len(set(planecone.__all__))
    for m in modules:
        for name in m.__all__:
            assert getattr(planecone, name) is getattr(m, name), (m.__name__, name)


def test_init_imports_its_modules_and_their_lists_only():
    listed, *stars = [n for n in ast.walk(INIT) if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert isinstance(listed, ast.ImportFrom) and (listed.level, listed.module) == (1, None)
    assert [alias.name for alias in listed.names] == EXPORTING
    assert [(n.level, n.module, [a.name for a in n.names]) for n in stars] == [
        (1, m, ["*"]) for m in EXPORTING
    ]
    # the package's list holds no name of its own, only the modules' lists
    assert all(isinstance(elt, ast.Starred) for elt in declared(INIT).elts)


def test_each_module_imports_only_modules_below_it():
    assert sorted(LAYERS) == MODULES
    upward = [
        "%s imports .%s" % (module, node.module)
        for i, module in enumerate(LAYERS)
        for node in ast.walk(parse(module))
        if isinstance(node, ast.ImportFrom) and node.level and node.module not in LAYERS[:i]
    ]
    assert not upward, upward


def test_importing_the_package_loads_no_dataclasses_inspect_or_typing():
    # -S: no site, whose .pth files may import typing before the package does
    code = "import sys; sys.path.insert(0, %r); import planecone; print(*sys.modules)"
    argv = [sys.executable, "-S", "-c", code % str(PACKAGE.parent)]
    loaded = set(subprocess.run(argv, capture_output=True, text=True, check=True).stdout.split())
    assert "planecone.verify" in loaded
    unused = loaded & {"dataclasses", "inspect", "typing"}
    assert not unused, sorted(unused)
