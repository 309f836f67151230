"""The scripts in tools/, run in-process: each prints one row per item and their total."""

import runpy
import sys
from fractions import Fraction
from pathlib import Path

import counting

ROOT = Path(__file__).resolve().parents[1]


def rows(monkeypatch, capsys, tool):
    """The fields of each line main() of tools/<tool>.py prints."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool adds src/ and tests/
    assert runpy.run_path(str(ROOT / "tools" / tool))["main"]() == 0
    return [line.split() for line in capsys.readouterr().out.splitlines()]


def test_suite_work_prints_one_row_per_suite_and_their_total(monkeypatch, capsys):
    new = vars(Fraction)["__new__"]
    header, *suites, total = rows(monkeypatch, capsys, "suite_work.py")
    assert header == ["suite", "depth", "fractions", "addresses", "characters", "walls"]
    assert [(r[0], int(r[1])) for r in suites] == list(counting.suite_depths().items())
    assert total == ["total"] + [str(sum(int(r[i]) for r in suites)) for i in range(2, 6)]
    assert vars(Fraction)["__new__"] is new


def test_code_lines_prints_one_row_per_module_and_their_total(monkeypatch, capsys):
    *modules, total = rows(monkeypatch, capsys, "code_lines.py")
    package = ROOT / "src" / "planecone"
    assert [r[0] for r in modules] == sorted(p.name for p in package.glob("*.py"))
    assert total == ["total", str(sum(int(r[1]) for r in modules))]
