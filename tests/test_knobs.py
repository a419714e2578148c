"""Constants, not knobs: every defaulted parameter or dataclass field of
``touchlab`` is set by some call in ``src/``, ``demos/``, ``perfbench/``
or the acceptance tests, and no parameter or field is given one literal or
ALL-CAPS constant by every such call where that constant is its default or
it has none; a parameter that breaks either rule is on ``EXEMPT`` with its
reason.  A call that leaves a parameter out gives it its default.  Reach:
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
    "dsp.mel_band_edges.fmin_hz": "acceptance criterion 06 passes 0.0",
    "synth.gen_visuotactile.contacts":
        "the unit tests check recorded frames against this model with contacts",
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


def _function_params(fn, callee: str, qualname: str, skip: int):
    """(qualified name, callee, positional index or None, parameter, is a
    dataclass field, default or None) of each named parameter; ``skip``
    leading parameters the caller does not pass (``self``)."""
    args = fn.args
    positional = args.posonlyargs + args.args
    defaults = [None] * (len(positional) - len(args.defaults)) + args.defaults
    for i, (a, default) in enumerate(zip(positional, defaults)):
        if i >= skip:
            yield f"{qualname}.{a.arg}", callee, i - skip, a.arg, False, default
    for a, default in zip(args.kwonlyargs, args.kw_defaults):
        yield f"{qualname}.{a.arg}", callee, None, a.arg, False, default


def _class_params(cls: ast.ClassDef, module: str):
    if _is_dataclass(cls):
        fields = [s for s in cls.body if isinstance(s, ast.AnnAssign)
                  and isinstance(s.target, ast.Name)
                  and not _init_false(s.value)]
        for i, s in enumerate(fields):
            yield (f"{module}.{cls.name}.{s.target.id}", cls.name, i,
                   s.target.id, True, s.value)
    for fn in cls.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        static = any(_name(d) == "staticmethod" for d in fn.decorator_list)
        if fn.name == "__init__":
            yield from _function_params(fn, cls.name, f"{module}.{cls.name}", 1)
        else:
            yield from _function_params(fn, fn.name,
                                        f"{module}.{cls.name}.{fn.name}",
                                        0 if static else 1)


def parameters() -> list:
    """Every named parameter of a module-level function or a method, and
    every dataclass field, of the package."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                found += _class_params(node, module)
            elif isinstance(node, ast.FunctionDef):
                found += _function_params(node, node.name,
                                          f"{module}.{node.name}", 0)
    return found


def _constant(node) -> str | None:
    """A literal's or an ALL-CAPS name's syntax tree as text; None for any
    other expression."""
    if isinstance(node, (ast.Name, ast.Attribute)):
        return ast.dump(node) if _name(node).isupper() else None
    try:
        ast.literal_eval(node)
    except ValueError:
        return None
    return ast.dump(node)


class _Calls(ast.NodeVisitor):
    """Every call of each callee name: its positional arguments before any
    ``*`` (each a ``_constant`` or None), whether a ``*`` follows, its
    keyword arguments, and whether it passes a ``**`` mapping."""

    def __init__(self):
        self.calls, self.cls = {}, None

    def visit_ClassDef(self, node):
        outer, self.cls = self.cls, node.name
        self.generic_visit(node)
        self.cls = outer

    def visit_Call(self, node):
        callee = _name(node.func)
        if callee == "cls":
            callee = self.cls
        if callee == "ordered_map" and node.args:
            self._add(_name(node.args[0]), [], True, {}, False)
        starred = [isinstance(a, ast.Starred) for a in node.args]
        positional = node.args[:starred.index(True)] if any(starred) else node.args
        self._add(callee, [_constant(a) for a in positional], any(starred),
                  {k.arg: _constant(k.value) for k in node.keywords if k.arg},
                  any(k.arg is None for k in node.keywords))
        self.generic_visit(node)

    def _add(self, callee, *call):
        self.calls.setdefault(callee, []).append(call)


def _caller_trees():
    for c in CALLERS:
        for path in [c] if c.is_file() else sorted(c.rglob("*.py")):
            yield ast.parse(path.read_text())


def call_sites() -> dict:
    visitor = _Calls()
    for tree in _caller_trees():
        visitor.visit(tree)
    return visitor.calls


def _values(calls: dict, callee, index, param, is_field, default):
    """Whether some call sets the parameter, and the value each call gives
    it: a ``_constant``, or None when it is not one or the walk cannot see
    it.  A call that leaves the parameter out gives it its default."""
    passed, values = False, []
    for args, starred, keywords, double_star in calls.get(callee, []):
        if param in keywords:
            passed, value = True, keywords[param]
        elif index is not None and (index < len(args) or starred):
            passed, value = True, args[index] if index < len(args) else None
        elif double_star or default is None:
            value = None
        else:
            value = _constant(default)
        values.append(value)
    if is_field:
        replaced = [kw[param] for _, _, kw, _ in calls.get("replace", []) if param in kw]
        passed, values = passed or bool(replaced), values + replaced
    return passed, values


def _settings() -> list:
    """(qualified name, default, is set by some call, value per call) of
    every parameter."""
    calls = call_sites()
    return [(name, default, *_values(calls, callee, index, param, is_field, default))
            for name, callee, index, param, is_field, default in parameters()]


def unset_knobs() -> list:
    return sorted(name for name, default, passed, _ in _settings()
                  if default is not None and not passed)


def fixed_parameters() -> list:
    """Parameters to which every call passes one literal or ALL-CAPS
    constant, where that constant is the default or there is none."""
    return sorted(name for name, default, passed, values in _settings()
                  if passed and values[0] is not None
                  and values.count(values[0]) == len(values)
                  and (default is None or values[0] == _constant(default)))


def test_every_knob_is_set_or_exempt():
    unset = unset_knobs()
    assert [n for n in unset if n not in EXEMPT] == []


def test_no_parameter_is_fixed_by_every_call():
    assert [n for n in fixed_parameters() if n not in EXEMPT] == []


def test_exemptions_are_still_unset():
    """Each exemption is still unset or still fixed by every call."""
    assert sorted(set(EXEMPT) - set(unset_knobs()) - set(fixed_parameters())) == []


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
