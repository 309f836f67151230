"""The only surd the package builds is the interval half-width x_alpha.

exceptional.ExceptionalSlope.interval_radius builds x_alpha, and exactnum
defines QuadSurd and normalizes its results.  Every other quantity is
rational: the Kronecker window is the sign of an integer Euler form, and wall
radii are held as rational squares.  The scan reads each module's AST and
flags every call QuadSurd(...) outside those two modules.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "planecone"

BUILDERS = {"exactnum", "exceptional"}


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
