"""The package guards its invariants with raises, not with assert.

An assert vanishes under python -O, so a check that guards an answer would
silently stop running there.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "planecone"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


@pytest.mark.parametrize("module", MODULES)
def test_module_has_no_assert(module):
    tree = ast.parse((PACKAGE / (module + ".py")).read_text(encoding="utf-8"))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, "%s.py asserts on lines %s" % (module, lines)
