"""Every rational argument in the package is read by exactnum._as_rational.

Fraction(x) accepts floats, strings and Decimals, so calling it on an argument
would let an inexact input through where _as_rational raises TypeError.  The
scan reads each module's AST and flags every one-argument call Fraction(x)
where x is a parameter of an enclosing function, or self.<field> inside a
__post_init__.  Fraction(p, q) on integers and Fraction(x) on a local value
are not reads of an argument and pass.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "planecone"

# the one reader itself
ALLOWED = {("exactnum", "_as_rational")}


def _parameters(fn) -> set[str]:
    args = fn.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    names.update(a.arg for a in (args.vararg, args.kwarg) if a is not None)
    return names


def _reads_an_argument(call: ast.Call, scopes) -> bool:
    if not (isinstance(call.func, ast.Name) and call.func.id == "Fraction"):
        return False
    if len(call.args) != 1 or call.keywords or isinstance(call.args[0], ast.Starred):
        return False
    x = call.args[0]
    if isinstance(x, ast.Name):
        return any(x.id in params for _, params in scopes)
    return (
        scopes[-1][0] == "__post_init__"
        and isinstance(x, ast.Attribute)
        and isinstance(x.value, ast.Name)
        and x.value.id == "self"
    )


def fraction_reads(source: str) -> list[tuple[str, int]]:
    """(enclosing function, line) of each Fraction(x) call on an argument x."""
    found = []

    def visit(node, scopes):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            scopes = scopes + [(getattr(node, "name", "<lambda>"), _parameters(node))]
        elif isinstance(node, ast.Call) and scopes and _reads_an_argument(node, scopes):
            found.append((scopes[-1][0], node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scopes)

    visit(ast.parse(source), [])
    return found


def test_the_scan_sees_each_way_of_reading_an_argument():
    source = (
        "def f(x, *rest, k=1):\n"
        "    a = Fraction(x)\n"
        "    b = Fraction(k)\n"
        "    c = Fraction(1, 2)\n"
        "    y = 3\n"
        "    d = Fraction(y)\n"
        "    def g():\n"
        "        return Fraction(rest)\n"
        "class C:\n"
        "    def __post_init__(self):\n"
        "        self.r = Fraction(self.r)\n"
        "    def other(self):\n"
        "        return Fraction(self.r)\n"
    )
    assert fraction_reads(source) == [("f", 2), ("f", 3), ("g", 8), ("__post_init__", 11)]


def test_no_function_reads_an_argument_through_fraction():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for function, line in fraction_reads(path.read_text(encoding="utf-8")):
            if (path.stem, function) not in ALLOWED:
                offenders.append("%s.py:%d in %s" % (path.stem, line, function))
    assert not offenders, "read these through exactnum._as_rational: %s" % offenders

