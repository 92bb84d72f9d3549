"""A shrink-only guard: every definition in ``src/`` has a caller.

A fixpoint scan over the ASTs of ``src/``, ``examples/``, ``benchmarks/``
and ``tools/``.  A definition (function, method or class) is *uncalled*
when its name appears nowhere in those trees except

* inside a definition of the same name (its own body),
* inside a definition that is itself uncalled (hence the fixpoint), or
* in a docstring, which covers the ``>>>`` lines of a doctest, or
* in a package ``__init__.py``'s re-exports: its ``from ... import``
  aliases, its ``__all__`` strings and the strings of the table it hands
  to ``lazy_exports``.  A re-export publishes a name; it does not call it.
* as an assignment target (a bare name or an attribute), or
* as a bare name that is a parameter or an assignment target of an
  enclosing function: that name is the local, not the definition.  A
  nested ``def`` or ``class`` of that name still counts as a use.

Any other string constant counts as a use of every identifier in it,
and the argument of a ``startswith`` call as a use of every name it
prefixes: that keeps ``getattr`` dispatch (``EVENT_DISPATCH``) and the
e2e benchmark's ``record_*`` probe loop alive.
Dunder methods are called by the interpreter and are never reported.

The scan is by name, not by binding, so a common name (``get``,
``run``) is kept alive by any use of that name.  It errs on the side of
keeping code; what it reports is dead for certain.

The set of uncalled names must equal :data:`ALLOW_LIST` exactly.  A new
dead definition fails, and so does an allow-listed name that gained a
caller: the list only shrinks, unless an entry is added with a reason.

Run it as a script to print the uncalled definitions with their sizes::

    python tests/test_uncalled_surface.py
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "examples", "benchmarks", "tools")

_FRAMES_DURING_THE_RUN = (
    'ROADMAP "Frames during the run": the replay on the control schedule\'s '
    "clock serves a child from its parent's buffer and cache with it"
)
_ITEM_1D = "ROADMAP item 1(d): Table I built on read, until layers.py is unfrozen"
_OBSERVER = "observer the property suites read after every op"

#: Uncalled names that stay, each with the reason it stays.
ALLOW_LIST: Dict[str, str] = {
    # Surface a named ROADMAP item will call.
    "in_buffer": _FRAMES_DURING_THE_RUN,
    "in_cache": _FRAMES_DURING_THE_RUN,
    "shareable": _FRAMES_DURING_THE_RUN,
    "oldest_frame": _FRAMES_DURING_THE_RUN,
    "frame_at_or_after": _FRAMES_DURING_THE_RUN,
    "buffered_streams": _FRAMES_DURING_THE_RUN,
    "synchronized_frames": _FRAMES_DURING_THE_RUN + " (the renderer's view-sync pick)",
    "playout_skew_for": (
        'ROADMAP "Frames during the run": per-second playout skew records'
    ),
    "routing_table_of": _ITEM_1D,
    "forwarding_targets": _ITEM_1D,
    # Observers the property suites read at every op.
    "cdn_children": _OBSERVER,
    "delay_violations": _OBSERVER,
    "kept_stream_ids": _OBSERVER + " (the plan's kept streams)",
    "pushed_down": _OBSERVER + " (the plan's push-downs)",
    "per_stream": _OBSERVER + " (the plan's rows; reference_subscription.py)",
    "held": _OBSERVER + " (a buffer's contents; the replay goldens)",
    "allocated_inbound_mbps": _OBSERVER + " (a session's inbound bandwidth)",
    # Read by a doctest.
    "cancelled": "the sim/engine.py module doctest reads it",
    # The explicit latency world's builder.
    "add_node": "builds an explicit latency world (README); the unit suites use it",
    "set_delay": "builds an explicit latency world (README); the unit suites use it",
}

_FUNCTION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
_DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _docstrings(tree: ast.AST) -> Set[int]:
    """``id()`` of every docstring constant in ``tree``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, *_DEFINITION)) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                found.add(id(first.value))
    return found


def _reexports(tree: ast.Module) -> Set[int]:
    """``id()`` of every re-export node of a package ``__init__``.

    Those are the ``from ... import`` aliases, the strings of ``__all__``
    and the strings of the table passed to ``lazy_exports``.
    """
    tables = {"__all__"}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "lazy_exports"
        ):
            tables.update(arg.id for arg in node.args if isinstance(arg, ast.Name))
    found = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            found.update(id(alias) for alias in node.names)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id in tables
            for target in node.targets
        ):
            found.update(
                id(part)
                for part in ast.walk(node.value)
                if isinstance(part, ast.Constant)
            )
    return found


def _locals(function: ast.AST) -> FrozenSet[str]:
    """A function's parameters and the bare names it assigns.

    Names bound inside a nested ``def``, ``class`` or ``lambda`` belong to
    that scope, and a name this function binds with a nested ``def`` or
    ``class`` is not a local here, even where it is also assigned.
    """
    args = function.args
    found = {
        arg.arg
        for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
        if arg is not None
    }
    nested = set()
    body = function.body if isinstance(function.body, list) else [function.body]
    pending = list(body)
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            found.add(node.id)
        if isinstance(node, ast.Lambda):
            pending.extend(node.args.defaults)
            continue
        if isinstance(node, _DEFINITION):
            nested.add(node.name)
            # Its decorators and defaults run in this scope; its body does not.
            pending.extend(node.decorator_list)
            if not isinstance(node, ast.ClassDef):
                pending.extend(node.args.defaults)
                pending.extend(d for d in node.args.kw_defaults if d is not None)
            continue
        pending.extend(ast.iter_child_nodes(node))
    return frozenset(found - nested)


def _uses(
    node: ast.AST, docstrings: Set[int], local: FrozenSet[str]
) -> Iterator[str]:
    """Names one AST node mentions (a string constant: every word).

    A ``startswith`` prefix is yielded with a trailing ``*``.  An
    assignment target and a bare name in ``local`` (the enclosing
    functions' locals) mention nothing.
    """
    if isinstance(getattr(node, "ctx", None), ast.Store):
        return
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "startswith"
        and node.args
        and isinstance(node.args[0], ast.Constant)
        and isinstance(node.args[0].value, str)
    ):
        yield node.args[0].value + "*"
    elif isinstance(node, ast.Name):
        if node.id not in local:
            yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.alias):
        yield node.name.rpartition(".")[2]
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        if id(node) not in docstrings:
            yield from _WORD.findall(node.value)


def scan() -> Tuple[Dict[str, List[Tuple[str, int, int]]], List[Tuple[str, Tuple[str, ...]]]]:
    """``(definitions, uses)`` of every scanned file.

    ``definitions`` maps a name defined under ``src/`` to its
    ``(path, first line, last line)`` sites; ``uses`` holds one
    ``(name, names of the enclosing definitions)`` per mention.
    """
    definitions: Dict[str, List[Tuple[str, int, int]]] = {}
    uses: List[Tuple[str, Tuple[str, ...]]] = []
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            docstrings = _docstrings(tree)
            reexports = _reexports(tree) if path.name == "__init__.py" else set()
            relative = str(path.relative_to(ROOT))

            def visit(
                node: ast.AST, enclosing: Tuple[str, ...], local: FrozenSet[str]
            ) -> None:
                if id(node) not in reexports:
                    for name in _uses(node, docstrings, local):
                        uses.append((name, enclosing))
                if isinstance(node, _DEFINITION):
                    if top == "src" and not (
                        node.name.startswith("__") and node.name.endswith("__")
                    ):
                        definitions.setdefault(node.name, []).append(
                            (relative, node.lineno, node.end_lineno)
                        )
                    enclosing = enclosing + (node.name,)
                if isinstance(node, _FUNCTION):
                    local = local | _locals(node)
                for child in ast.iter_child_nodes(node):
                    visit(child, enclosing, local)

            visit(tree, (), frozenset())
    return definitions, uses


def uncalled_names() -> Dict[str, List[Tuple[str, int, int]]]:
    """The uncalled definitions, by name (see the module docstring)."""
    definitions, uses = scan()
    dead: Set[str] = set()
    while True:
        live = set()
        for name, enclosing in uses:
            if not dead.isdisjoint(enclosing):
                continue
            if name.endswith("*"):
                live.update(
                    defined for defined in definitions if defined.startswith(name[:-1])
                )
            elif name in definitions and name not in enclosing:
                live.add(name)
        now_dead = set(definitions) - live
        if now_dead == dead:
            return {name: definitions[name] for name in sorted(dead)}
        dead = now_dead


def test_every_uncalled_definition_is_on_the_allow_list():
    uncalled = uncalled_names()
    new = sorted(set(uncalled) - set(ALLOW_LIST))
    called = sorted(set(ALLOW_LIST) - set(uncalled))
    assert not new, f"uncalled: delete, move beside its test, or allow-list: {new}"
    assert not called, f"allow-listed but called now: drop the entry: {called}"


def test_every_allow_list_entry_has_a_reason():
    assert all(reason.strip() for reason in ALLOW_LIST.values())


def test_a_local_is_not_a_use_but_a_nested_definition_is():
    outer = ast.parse(
        "def outer(held, *rest):\n"
        "    total = held + per_stream\n"
        "    def tracked():\n"
        "        inner = total\n"
        "        return inner\n"
        "    tracked = tracked if rest else None\n"
        "    return tracked, lambda arg: arg\n"
    ).body[0]
    local = _locals(outer)
    assert local == {"held", "rest", "total"}
    mentioned = [
        name
        for node in ast.walk(outer)
        if node is not outer
        for name in _uses(node, set(), local)
    ]
    assert "held" not in mentioned and "total" not in mentioned
    assert "per_stream" in mentioned and "tracked" in mentioned


if __name__ == "__main__":
    total = 0
    for name, sites in uncalled_names().items():
        for path, first, last in sites:
            total += last - first + 1
            print(f"{path}:{first}  {name}  ({last - first + 1} lines)")
    print(f"total {total} lines")
