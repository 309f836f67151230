"""The only surds the package builds are x_alpha and the ends of I_alpha.

exceptional.ExceptionalSlope builds x_alpha and the two interval ends, and
exactnum defines QuadSurd and normalizes it.  Every other quantity is
rational: the Kronecker window is the sign of an integer Euler form, and wall
radii are held as rational squares.  The scan reads each module's AST and
flags every call QuadSurd(...) outside those two modules.  A surd is only
printed: verify decides the interval ends in integers, so a second scan flags
every name surd_cmp in the package, and QuadSurd has no order or arithmetic.
"""

import ast
from pathlib import Path

from planecone.exactnum import QuadSurd

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "planecone"

BUILDERS = {"exactnum", "exceptional"}
# the surd order, ring and floor that left the package
DELETED_OPERATORS = (
    "__neg__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__lt__", "__le__", "__gt__", "__ge__", "__floor__",
)


def surd_calls(source: str) -> list[int]:
    """Lines of each call QuadSurd(...) or <module>.QuadSurd(...)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "QuadSurd":
            found.append(node.lineno)
    return sorted(found)


def test_the_scan_sees_each_spelling_of_a_surd_call():
    source = (
        "from .exactnum import QuadSurd\n"
        "X = QuadSurd(1, 2, 5)\n"
        "def f(n):\n"
        "    return exactnum.QuadSurd(n, 1, 2) < X\n"
        "def g(x: QuadSurd) -> QuadSurd:\n"
        "    return isinstance(x, QuadSurd)\n"
    )
    assert surd_calls(source) == [2, 4]


def test_no_module_but_exactnum_and_exceptional_builds_a_surd():
    paths = sorted(PACKAGE.glob("*.py"))
    assert {"exactnum", "exceptional", "resolution"} <= {p.stem for p in paths}
    offenders = []
    for path in paths:
        if path.stem not in BUILDERS:
            offenders += ["%s.py:%d" % (path.stem, line)
                          for line in surd_calls(path.read_text(encoding="utf-8"))]
    assert not offenders, "build no QuadSurd here: %s" % offenders


def surd_cmp_names(source: str) -> list[int]:
    """Lines of each name surd_cmp: an import, a call, an attribute or a bare reference."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.alias):
            names = (node.name, node.asname)
        elif isinstance(node, ast.Name):
            names = (node.id,)
        elif isinstance(node, ast.Attribute):
            names = (node.attr,)
        else:
            continue
        if "surd_cmp" in names:
            found.append(node.lineno)
    return sorted(found)


def test_the_scan_sees_each_spelling_of_surd_cmp():
    source = (
        "from .exactnum import surd_cmp\n"
        "from . import exactnum\n"
        "def f(x, y):\n"
        "    return exactnum.surd_cmp(x, y) < 0\n"
        "compare = surd_cmp\n"
        "surd_compare = 1\n"
    )
    assert surd_cmp_names(source) == [1, 4, 5]


def test_no_module_but_exactnum_and_verify_compares_surds():
    # no module names surd_cmp, and QuadSurd has no order or arithmetic
    paths = sorted(PACKAGE.glob("*.py"))
    assert {"exactnum", "verify", "__init__", "exceptional"} <= {p.stem for p in paths}
    offenders = []
    for path in paths:
        offenders += ["%s.py:%d" % (path.stem, line)
                      for line in surd_cmp_names(path.read_text(encoding="utf-8"))]
    assert not offenders, "compare no surd here: %s" % offenders
    assert not [name for name in DELETED_OPERATORS if name in QuadSurd.__dict__]
