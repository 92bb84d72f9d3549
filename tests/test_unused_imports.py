"""No module under ``src/repro/`` imports a name it never uses.

No linter ships with the project, so this is a stdlib-``ast`` scan.  A
module-level import (including one under ``if TYPE_CHECKING:`` or a
``try``) counts as used when its bound name appears anywhere in the
module as a name, or inside a quoted annotation (``"TeleCastSystem"``,
for an import under ``TYPE_CHECKING``).  A package's re-exports are
exempt when ``__all__`` lists them.  ``from __future__`` imports bind
nothing and are skipped.
"""

from __future__ import annotations

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def _module_imports(body, found):
    """``{bound name: line}`` of the imports in ``body``, nested blocks too."""
    for node in body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                found[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, (ast.If, ast.Try)):
            _module_imports(node.body, found)
            _module_imports(node.orelse, found)
            for handler in getattr(node, "handlers", ()):
                _module_imports(handler.body, found)
            _module_imports(getattr(node, "finalbody", ()), found)
    return found


def _annotations(tree):
    """Every annotation of the module: arguments, returns, annotated names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names_in(tree):
    """Every name the module reads, quoted annotations included."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                names.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return names


def _exported(tree):
    """The string literals of a literal ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return {
                element.value
                for element in getattr(node.value, "elts", ())
                if isinstance(element, ast.Constant)
            }
    return set()


def unused_imports(path: pathlib.Path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _names_in(tree) | _exported(tree)
    return sorted(
        (line, name) for name, line in _module_imports(tree.body, {}).items() if name not in used
    )


def test_the_scan_sees_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from typing import TYPE_CHECKING, List, Optional\n"
        "if TYPE_CHECKING:\n"
        "    from os import PathLike\n"
        "    from sys import path\n"
        "    from typing import Sized\n"
        "def f(x: 'PathLike', y: List['Sized']) -> List[int]:\n"
        "    'path'\n"
        "    return [1]\n"
    )
    assert unused_imports(module) == [(1, "Optional"), (4, "path")]


def test_no_module_imports_a_name_it_never_uses():
    found = [
        f"{path.relative_to(SRC.parent)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for line, name in unused_imports(path)
    ]
    assert not found, "unused imports:\n" + "\n".join(found)
