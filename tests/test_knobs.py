"""Constants, not knobs: every defaulted parameter or dataclass field of
``touchlab`` is set by some call in ``src/``, ``demos/``, ``perfbench/``
or the acceptance tests, or is on ``EXEMPT`` with its reason.  Reach:
every module-level public function, class or constant of ``touchlab`` is
referenced there, or is on ``UNREACHED`` with its reason.

A static walk of the syntax trees.  A call sets a parameter when it
passes it by keyword or passes at least that many positional arguments to
a callable of the same name (the last name of the called expression; a
method is matched by its name alone, ``cls`` by its class).
``dataclasses.replace`` sets the fields it names on any dataclass, and
``pool.ordered_map(fn, jobs)`` passes each job to ``fn`` as positional
arguments.  A call through a ``**`` mapping sets nothing the walk can see.
A name is referenced when some caller loads it or reads an attribute of
that name, again matched by the last name alone.  A definition or an
import is not a reference, so neither is the re-export in
``touchlab/__init__.py``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "touchlab"
CALLERS = (ROOT / "src", ROOT / "demos", ROOT / "perfbench",
           ROOT / "tests" / "test_acceptance.py")

EXEMPT = {
    "experiments.gas_experiment.max_epochs": "unit tests shorten fits",
    "experiments.fusion_experiment.max_epochs": "unit tests shorten fits",
    "optics.sample_bsdf.normal": "test seam of the recorded BSDF model",
    "synth.Imprint.depth": "test seam of the recorded imprint model",
    "synth.ObjectSpec.temperature_c":
        "cli.load_scenario sets it through a ** mapping the walk cannot see",
}

UNREACHED = {
    "optics.sample_bsdf": "test seam of the recorded BSDF model",
    "synth.Imprint": "test seam of the recorded imprint model",
}


def _name(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Call):
        return _name(node.func)
    return None


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(_name(d) == "dataclass" for d in cls.decorator_list)


def _init_false(value) -> bool:
    return isinstance(value, ast.Call) and _name(value.func) == "field" and any(
        k.arg == "init" and isinstance(k.value, ast.Constant)
        and k.value.value is False for k in value.keywords)


def _function_knobs(fn, callee: str, qualname: str, skip: int):
    """(qualified name, callee, positional index or None, parameter, is a
    dataclass field) of each defaulted parameter; ``skip`` leading
    parameters the caller does not pass (``self``)."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for i, a in enumerate(positional[first:], start=first):
        yield f"{qualname}.{a.arg}", callee, i - skip, a.arg, False
    for a, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield f"{qualname}.{a.arg}", callee, None, a.arg, False


def _class_knobs(cls: ast.ClassDef, module: str):
    if _is_dataclass(cls):
        fields = [s for s in cls.body if isinstance(s, ast.AnnAssign)
                  and isinstance(s.target, ast.Name)
                  and not _init_false(s.value)]
        for i, s in enumerate(fields):
            if s.value is not None:
                yield (f"{module}.{cls.name}.{s.target.id}", cls.name, i,
                       s.target.id, True)
    for fn in cls.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        static = any(_name(d) == "staticmethod" for d in fn.decorator_list)
        if fn.name == "__init__":
            yield from _function_knobs(fn, cls.name, f"{module}.{cls.name}", 1)
        else:
            yield from _function_knobs(fn, fn.name,
                                       f"{module}.{cls.name}.{fn.name}",
                                       0 if static else 1)


def knobs() -> list:
    """Every defaulted parameter of a module-level function or a method,
    and every defaulted dataclass field, of the package."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                found += _class_knobs(node, module)
            elif isinstance(node, ast.FunctionDef):
                found += _function_knobs(node, node.name,
                                         f"{module}.{node.name}", 0)
    return found


class _Calls(ast.NodeVisitor):
    """(callee, keyword) pairs, and the most positional arguments passed
    to each callee name."""

    def __init__(self):
        self.keywords, self.positional, self.cls = set(), {}, None

    def visit_ClassDef(self, node):
        outer, self.cls = self.cls, node.name
        self.generic_visit(node)
        self.cls = outer

    def visit_Call(self, node):
        callee = _name(node.func)
        if callee == "cls":
            callee = self.cls
        if callee == "ordered_map" and node.args:
            self._passes(_name(node.args[0]), float("inf"))
        self.keywords.update((callee, k.arg) for k in node.keywords if k.arg)
        self._passes(callee, float("inf") if any(
            isinstance(a, ast.Starred) for a in node.args) else len(node.args))
        self.generic_visit(node)

    def _passes(self, callee, n):
        self.positional[callee] = max(self.positional.get(callee, 0), n)


def _caller_trees():
    for c in CALLERS:
        for path in [c] if c.is_file() else sorted(c.rglob("*.py")):
            yield ast.parse(path.read_text())


def call_sites() -> _Calls:
    calls = _Calls()
    for tree in _caller_trees():
        calls.visit(tree)
    return calls


def unset_knobs() -> list:
    calls = call_sites()
    return sorted(
        name for name, callee, index, param, is_field in knobs()
        if (callee, param) not in calls.keywords
        and not (is_field and ("replace", param) in calls.keywords)
        and not (index is not None and calls.positional.get(callee, 0) > index))


def test_every_knob_is_set_or_exempt():
    unset = unset_knobs()
    assert [n for n in unset if n not in EXEMPT] == []


def test_exemptions_are_still_unset():
    assert sorted(set(EXEMPT) - set(unset_knobs())) == []


def public_names() -> list:
    """``module.name`` of every module-level public function, class and
    constant of the package."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            found += [f"{path.stem}.{n}" for n in names if not n.startswith("_")]
    return found


def unreached_names() -> list:
    referenced = set()
    for tree in _caller_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return sorted(q for q in public_names()
                  if q.rsplit(".", 1)[1] not in referenced)


def test_every_public_name_is_reached_or_exempt():
    assert [n for n in unreached_names() if n not in UNREACHED] == []


def test_unreached_exemptions_are_still_unreached():
    assert sorted(set(UNREACHED) - set(unreached_names())) == []
