"""Shrink-only guards: every config field and parameter is set by a caller.

A field or a defaulted parameter that only tests set is a constant in
disguise.  Both guards scan the ASTs of ``src/``, ``examples/``,
``benchmarks/`` and ``tools/``.

**Config fields.**  A field of :class:`ExperimentConfig`,
:class:`DataPlaneConfig` or :class:`ServeConfig` is *set by name*:

* a keyword argument with the field's name (``ExperimentConfig(seed=3)``,
  ``config.with_(num_lscs=1)``, ``replace(config, kappa=3)``), or
* a string dict key with the field's name (preset overrides, sweep
  grids, ``formatter_kwargs``).

Uses inside the class's own body do not count: a class that forwards a
field to itself keeps nothing alive.  Reading a field is not setting it.

**Parameters.**  Every parameter with a default of a function or
constructor defined under ``src/`` must be set somewhere.  Callees are
resolved by name, as ``tests/test_uncalled_surface.py`` does: a call
``f(...)`` or ``x.f(...)`` reaches every ``def f`` and, for a class name,
every ``__init__`` of that class.  A parameter is set by

* a keyword of its name at a call site, or a positional argument in its
  slot (``self`` and ``cls`` take no slot);
* ``super().__init__(...)``, which calls the base classes, and
  ``cls(...)``, which calls the enclosing class;
* ``*args`` at a call site, which sets every parameter;
* ``**mapping`` at a call site: the string keys of the dict it is, when
  it is a dict display or a name its scope assigns only dict displays
  (``kwargs = {} if t is None else {"stall_timeout": t}``), and every
  parameter otherwise; or
* ``functools.partial(f, ...)`` and ``Process(target=f, args=(...),
  kwargs={...})``, which call ``f`` with those arguments.

A string dict key elsewhere sets no parameter: scenario records carry a
``"scenario"`` key, CLI tables a ``"run"`` key, and neither calls
anything.  A call does not count inside the definition it calls, and an
argument that is a bare parameter of an enclosing definition counts only
while that parameter is set itself (a fixpoint): forwarding a default
keeps nothing alive.  A function used as a value (a table entry, an
argument) is exempt, since the guard cannot see who calls it; a method
is a value only as an attribute (``self.handler``), since a bare name is
a local of the same spelling.  A class used as a value is not exempt: it
is a type, a patch target or a zero-argument factory.  Annotations, base
class lists and ``isinstance`` checks are not values.

Each unset set must equal its allow-list exactly.  A new field or
parameter nobody sets fails, and so does an allow-listed one that gained
a setter: the lists only shrink, unless an entry is added with a reason.

Run it as a script to print the unset fields and parameters::

    python tests/test_settable_fields.py
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.core.dataplane import DataPlaneConfig
from repro.experiments.config import ExperimentConfig
from repro.service.daemon import ServeConfig

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "examples", "benchmarks", "tools")
CLASSES = (ExperimentConfig, DataPlaneConfig, ServeConfig)

#: ``Class.field`` names nobody sets that stay, each with the reason.
ALLOW_LIST: Dict[str, str] = {}


def _set_names(node: ast.AST) -> Iterator[str]:
    """Names one AST node sets: a keyword's name, a dict's string keys."""
    if isinstance(node, ast.keyword) and node.arg is not None:
        yield node.arg
    elif isinstance(node, ast.Dict):
        for key in node.keys:
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                yield key.value


def setters() -> Set[Tuple[str, Tuple[str, ...]]]:
    """One ``(name, enclosing class names)`` per place a name is set."""
    found: Set[Tuple[str, Tuple[str, ...]]] = set()
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))

            def visit(node: ast.AST, classes: Tuple[str, ...]) -> None:
                for name in _set_names(node):
                    found.add((name, classes))
                if isinstance(node, ast.ClassDef):
                    classes = classes + (node.name,)
                for child in ast.iter_child_nodes(node):
                    visit(child, classes)

            visit(tree, ())
    return found


def unset_fields() -> Set[str]:
    """``Class.field`` of every field no scanned code sets by name."""
    found = setters()
    unset = set()
    for cls in CLASSES:
        for field in dataclasses.fields(cls):
            if not any(
                name == field.name and cls.__name__ not in classes
                for name, classes in found
            ):
                unset.add(f"{cls.__name__}.{field.name}")
    return unset


#: ``callee(parameter)`` names nobody sets that stay, each with the reason.
PARAMETER_ALLOW_LIST: Dict[str, str] = {
    "main(argv)": (
        "the experiments CLI reads sys.argv when run; the CLI suites pass an "
        "argv list in-process"
    ),
    "ServiceDaemon.serve_forever(ready)": (
        "the in-process daemon tests wait on this event before connecting"
    ),
    "run_sharded_scenario(mp_start_method)": (
        "the suite's only spawn start-method path (the default is fork on Linux)"
    ),
    "ReservoirSample(cap)": (
        "the sample cap; the reservoir suite shrinks it to exercise Algorithm R"
    ),
    "make_local_view(cutoff_threshold)": (
        "the paper's df_th (Section II-B), whose cut-off the unit suite pins"
    ),
    "subscription_frame_number(offset_fraction)": (
        "the paper's R term (Equation 2), whose formula the unit suite pins"
    ),
    "RoutingEntry.add_child(action)": (
        "ROADMAP item 1(d): Table I's surface, bound by the frozen e2e benchmark"
    ),
    "Viewer.synchronized_frames(skew_tolerance)": (
        'ROADMAP item 7 / "Frames during the run": the renderer\'s view-sync pick'
    ),
}

_FUNCTION = (ast.FunctionDef, ast.AsyncFunctionDef)
_EVERY = "*"


class _Definition:
    """A ``src/`` function or constructor and its defaulted parameters."""

    def __init__(self, node: ast.AST, owner: Optional[ast.ClassDef]) -> None:
        args = node.args
        positional = [arg.arg for arg in args.posonlyargs + args.args]
        decorators = {getattr(d, "id", None) for d in node.decorator_list}
        if owner is not None and "staticmethod" not in decorators:
            positional = positional[1:]
        #: Parameter names in the order positional arguments fill them.
        self.slots = positional
        self.parameters = set(positional) | {arg.arg for arg in args.kwonlyargs}
        self.defaulted = positional[len(positional) - len(args.defaults) :] + [
            arg.arg for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default
        ]
        # ``exempt_by``: the node types under which a use as a value exempts it.
        if node.name == "__init__" and owner is not None:
            self.callee = self.label = owner.name
            self.exempt_by: Tuple[type, ...] = ()
        elif owner is not None:
            self.callee, self.label = node.name, f"{owner.name}.{node.name}"
            self.exempt_by = (ast.Attribute,)
        else:
            self.callee = self.label = node.name
            self.exempt_by = (ast.Name, ast.Attribute)


def _name_of(node: Optional[ast.AST]) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _keyword(call: ast.Call, name: str) -> Optional[ast.expr]:
    return next((k.value for k in call.keywords if k.arg == name), None)


def _callees(func: ast.expr, classes: List[ast.ClassDef]) -> List[str]:
    """The names a call's ``func`` resolves to."""
    if (
        isinstance(func, ast.Attribute)
        and func.attr == "__init__"
        and isinstance(func.value, ast.Call)
        and _name_of(func.value.func) == "super"
        and classes
    ):
        return [name for name in map(_name_of, classes[-1].bases) if name]
    if isinstance(func, ast.Name) and func.id == "cls" and classes:
        return [classes[-1].name]
    name = _name_of(func)
    return [name] if name else []


def _dict_keys(mapping: ast.expr, scope: ast.AST) -> Optional[List[str]]:
    """The string keys a ``**mapping`` passes, or ``None`` if unknown.

    Known for a dict display, a conditional expression between two known
    mappings, and a name its scope assigns nothing else.
    """
    if isinstance(mapping, ast.Dict):
        return [
            key.value
            for key in mapping.keys
            if isinstance(key, ast.Constant) and isinstance(key.value, str)
        ]
    if isinstance(mapping, ast.IfExp):
        body, orelse = _dict_keys(mapping.body, scope), _dict_keys(mapping.orelse, scope)
        return None if body is None or orelse is None else body + orelse
    if isinstance(mapping, ast.Name):
        assigned = [
            _dict_keys(node.value, scope)
            for node in ast.walk(scope)
            if isinstance(node, ast.Assign)
            and any(_name_of(target) == mapping.id for target in node.targets)
        ]
        if assigned and None not in assigned:
            return [key for keys in assigned for key in keys]
    return None


#: One argument at a call site: ``(callee, what it sets, forwarded
#: from)``.  What it sets is a parameter name, a slot index, or
#: :data:`_EVERY`; forwarded from is ``(definition index, parameter)``
#: when the argument is a bare parameter of an enclosing definition.
_Setting = Tuple[str, object, Optional[Tuple[int, str]]]


def _parameter_scan() -> Tuple[List[_Definition], List[_Setting], Set[Tuple[type, str]]]:
    """``(definitions, settings, names used as values)`` of the scanned trees.

    A name used as a value is ``(ast.Name, id)`` or ``(ast.Attribute,
    attr)``, read anywhere but a call's callee, an annotation, a base
    class list or an ``isinstance`` check.
    """
    trees = [
        (top, ast.parse(path.read_text(), filename=str(path)))
        for top in SCANNED
        for path in sorted((ROOT / top).rglob("*.py"))
    ]
    definitions: List[_Definition] = []
    index_of: Dict[int, int] = {}

    def collect(node: ast.AST, owner: Optional[ast.ClassDef]) -> None:
        if isinstance(node, _FUNCTION) and (
            node.name == "__init__" or not node.name.startswith("__")
        ):
            index_of[id(node)] = len(definitions)
            definitions.append(_Definition(node, owner))
        for child in ast.iter_child_nodes(node):
            collect(child, node if isinstance(node, ast.ClassDef) else None)

    for top, tree in trees:
        if top == "src":
            collect(tree, None)

    settings: List[_Setting] = []
    values: Set[Tuple[type, str]] = set()
    not_values: Set[int] = set()

    def forwarded(value: ast.expr, functions: List[ast.AST]) -> Optional[Tuple[int, str]]:
        if isinstance(value, ast.Name):
            for function in reversed(functions):
                index = index_of.get(id(function))
                if index is not None and value.id in definitions[index].parameters:
                    return (index, value.id)
        return None

    def call(callee, args, keywords, functions, enclosing, scope):
        if callee is None or callee in enclosing:
            return
        sets: List[Tuple[object, Optional[ast.expr]]] = []
        for slot, arg in enumerate(args):
            sets.append((_EVERY, None) if isinstance(arg, ast.Starred) else (slot, arg))
        for keyword in keywords:
            if keyword.arg is not None:
                sets.append((keyword.arg, keyword.value))
                continue
            keys = _dict_keys(keyword.value, scope)
            sets += [(_EVERY, None)] if keys is None else [(key, None) for key in keys]
        for what, value in sets:
            source = forwarded(value, functions) if value is not None else None
            settings.append((callee, what, source))

    def visit(node: ast.AST, functions, classes, enclosing, scope) -> None:
        if isinstance(node, ast.Call):
            not_values.add(id(node.func))
            if _name_of(node.func) in ("isinstance", "issubclass"):
                not_values.update(id(part) for part in ast.walk(node))
            context = (functions, enclosing, scope)
            for callee in _callees(node.func, classes):
                call(callee, node.args, node.keywords, *context)
            target = _keyword(node, "target")
            if _name_of(node.func) == "partial" and node.args:
                not_values.add(id(node.args[0]))
                call(_name_of(node.args[0]), node.args[1:], node.keywords, *context)
            elif target is not None:
                not_values.add(id(target))
                passed, mapping = _keyword(node, "args"), _keyword(node, "kwargs")
                positional = (
                    list(passed.elts)
                    if isinstance(passed, (ast.Tuple, ast.List))
                    else [ast.Starred(value=passed)] if passed is not None else []
                )
                keywords = [ast.keyword(arg=None, value=mapping)] if mapping else []
                call(_name_of(target), positional, keywords, *context)
        elif isinstance(node, (ast.Name, ast.Attribute)):
            if isinstance(node.ctx, ast.Load) and id(node) not in not_values:
                values.add((type(node), _name_of(node)))
        annotations = [getattr(node, "annotation", None), getattr(node, "returns", None)]
        if isinstance(node, ast.ClassDef):
            annotations += node.bases
        not_values.update(id(part) for a in filter(None, annotations) for part in ast.walk(a))
        if isinstance(node, _FUNCTION):
            index = index_of.get(id(node))
            callee = definitions[index].callee if index is not None else node.name
            functions, enclosing, scope = functions + [node], enclosing + (callee,), node
        elif isinstance(node, ast.ClassDef):
            classes = classes + [node]
        for child in ast.iter_child_nodes(node):
            visit(child, functions, classes, enclosing, scope)

    for _, tree in trees:
        visit(tree, [], [], (), tree)
    return definitions, settings, values


def unset_parameters() -> Set[str]:
    """``callee(parameter)`` of every defaulted parameter nobody sets."""
    definitions, settings, values = _parameter_scan()
    by_callee: Dict[str, List[int]] = {}
    for index, definition in enumerate(definitions):
        by_callee.setdefault(definition.callee, []).append(index)
    defaulted = {
        (index, name)
        for index, definition in enumerate(definitions)
        if not any((kind, definition.callee) in values for kind in definition.exempt_by)
        for name in definition.defaulted
    }
    unset: Set[Tuple[int, str]] = set()
    while True:
        is_set: Set[Tuple[int, str]] = set()
        for callee, what, source in settings:
            if source in unset:
                continue
            for index in by_callee.get(callee, ()):
                definition = definitions[index]
                if what == _EVERY:
                    is_set.update((index, name) for name in definition.defaulted)
                elif isinstance(what, int):
                    if what < len(definition.slots):
                        is_set.add((index, definition.slots[what]))
                else:
                    is_set.add((index, what))
        now = defaulted - is_set
        if now == unset:
            return {f"{definitions[index].label}({name})" for index, name in unset}
        unset = now


def test_every_config_field_is_set_by_a_caller():
    unset = unset_fields()
    new = sorted(unset - set(ALLOW_LIST))
    set_now = sorted(set(ALLOW_LIST) - unset)
    assert not new, f"only tests set these: make each a constant, or allow-list: {new}"
    assert not set_now, f"allow-listed but set now: drop the entry: {set_now}"


def test_every_allow_list_entry_has_a_reason():
    assert all(reason.strip() for reason in ALLOW_LIST.values())


def test_every_defaulted_parameter_is_set_by_a_caller():
    unset = unset_parameters()
    new = sorted(unset - set(PARAMETER_ALLOW_LIST))
    set_now = sorted(set(PARAMETER_ALLOW_LIST) - unset)
    assert not new, f"only tests set these: make each a constant, or allow-list: {new}"
    assert not set_now, f"allow-listed but set now: drop the entry: {set_now}"


def test_every_parameter_allow_list_entry_has_a_reason():
    assert all(reason.strip() for reason in PARAMETER_ALLOW_LIST.values())


if __name__ == "__main__":
    for name in sorted(unset_fields()) + sorted(unset_parameters()):
        print(name)
