"""Every name a package module imports is used in that module.

The scan reads each module's AST: an imported name counts as used when it
appears as a name anywhere in the module.  No module re-exports a name it
imports: each name is exported by the module that defines it.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "planecone"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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
    tree = ast.parse((PACKAGE / (module + ".py")).read_text(encoding="utf-8"))
    unused = imported_names(tree) - used_names(tree)
    assert not unused, "%s.py imports %s and never uses them" % (module, sorted(unused))


def test_all_is_exactly_what_the_package_imports():
    # a name deleted from a module must leave __all__ too, or the package
    # exports a stale name; a name imported for export must be listed
    import planecone

    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert len(planecone.__all__) == len(set(planecone.__all__))
    assert set(planecone.__all__) == imported_names(tree)
