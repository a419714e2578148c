"""Library input checks raise ``TouchlabError`` subclasses, so the one error
boundary in ``cli.main`` maps every rejected input to an exit code instead
of a traceback."""

import ast
from pathlib import Path

import pytest

import touchlab

BUILTIN_ERRORS = {"ValueError", "KeyError", "TypeError"}

GUARDED_MODULES = ("core", "optics", "synth", "dsp", "link", "experiments",
                   "nn", "recordlog", "cli", "reflex", "pool")


def _builtin_raises(path: Path) -> list:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if isinstance(exc, ast.Name) and exc.id in BUILTIN_ERRORS:
            found.append(f"{path.name}:{node.lineno}: raise {exc.id}")
    return found


@pytest.mark.parametrize("module", GUARDED_MODULES)
def test_no_builtin_error_raised(module):
    path = Path(touchlab.__file__).with_name(f"{module}.py")
    assert _builtin_raises(path) == []
