"""A shrink-only guard: every config field is set by some caller.

A field that only tests set is a constant in disguise.  This scans the
ASTs of ``src/``, ``examples/``, ``benchmarks/`` and ``tools/`` for the
places a field of :class:`ExperimentConfig`, :class:`DataPlaneConfig` or
:class:`ServeConfig` is *set by name*:

* a keyword argument with the field's name (``ExperimentConfig(seed=3)``,
  ``config.with_(num_lscs=1)``, ``replace(config, kappa=3)``), or
* a string dict key with the field's name (preset overrides, sweep
  grids, ``formatter_kwargs``).

Uses inside the class's own body do not count: a class that forwards a
field to itself keeps nothing alive.  Reading a field is not setting it.

The set of unset fields must equal :data:`ALLOW_LIST` exactly.  A new
field nobody sets fails, and so does an allow-listed field that gained
a setter: the list only shrinks, unless an entry is added with a reason.

Run it as a script to print the unset fields::

    python tests/test_settable_fields.py
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path
from typing import Dict, Iterator, Set, Tuple

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


def test_every_config_field_is_set_by_a_caller():
    unset = unset_fields()
    new = sorted(unset - set(ALLOW_LIST))
    set_now = sorted(set(ALLOW_LIST) - unset)
    assert not new, f"only tests set these: make each a constant, or allow-list: {new}"
    assert not set_now, f"allow-listed but set now: drop the entry: {set_now}"


def test_every_allow_list_entry_has_a_reason():
    assert all(reason.strip() for reason in ALLOW_LIST.values())


if __name__ == "__main__":
    for name in sorted(unset_fields()):
        print(name)
