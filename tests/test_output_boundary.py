"""One output boundary, checked on the syntax trees: no package module but
``cli`` prints or touches ``sys.stdout``, and inside ``cli`` a report is
built and written (``_report``, ``_emit``) only by ``main``."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "touchlab"


def _writes_stdout(node) -> bool:
    if isinstance(node, ast.Name):
        return node.id in ("print", "stdout")
    if isinstance(node, ast.Attribute):
        return node.attr == "stdout"
    if isinstance(node, ast.alias):
        return node.name == "stdout"
    return False


def test_only_cli_writes_stdout():
    found = [f"{path.stem}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py")) if path.stem != "cli"
             for node in ast.walk(ast.parse(path.read_text()))
             if _writes_stdout(node)]
    assert found == []


def test_only_main_writes_a_report():
    """Each of ``_report`` and ``_emit`` is called once, from ``main``."""
    calls = []
    for stmt in ast.parse((PACKAGE / "cli.py").read_text()).body:
        owner = stmt.name if isinstance(stmt, ast.FunctionDef) else "<module>"
        calls += [(owner, node.func.id) for node in ast.walk(stmt)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in ("_emit", "_report")]
    assert sorted(calls) == [("main", "_emit"), ("main", "_report")]
