"""A shrink-only guard: every definition in ``src/`` has a caller.

A fixpoint scan over the ASTs of ``src/``, ``examples/``, ``benchmarks/``
and ``tools/``.  A definition (function, method or class) is *uncalled*
when its name appears nowhere in those trees except

* inside a definition of the same name (its own body),
* inside a definition that is itself uncalled (hence the fixpoint), or
* in a docstring, which covers the ``>>>`` lines of a doctest.

Any other string constant counts as a use of every identifier in it,
and the argument of a ``startswith`` call as a use of every name it
prefixes: that keeps ``getattr`` dispatch (``EVENT_DISPATCH``), lazy
re-export tables and the e2e benchmark's ``record_*`` probe loop alive.
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
from typing import Dict, Iterator, List, Set, Tuple

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
    "evict_expired": _FRAMES_DURING_THE_RUN,
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
    "paper_vs_measured": "ROADMAP item 11: the paper-vs-measured claims table",
    "routing_table_of": _ITEM_1D,
    "forwarding_targets": _ITEM_1D,
    # Observers the property suites read at every op.
    "cdn_children": _OBSERVER,
    "delay_violations": _OBSERVER,
    "kept_stream_ids": _OBSERVER + " (the plan's kept streams)",
    "pushed_down": _OBSERVER + " (the plan's push-downs)",
    # Read by a doctest.
    "cancelled": "the sim/engine.py module doctest reads it",
    # The explicit latency world's builder.
    "add_node": "builds an explicit latency world (README); the unit suites use it",
    "set_delay": "builds an explicit latency world (README); the unit suites use it",
}

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


def _uses(node: ast.AST, docstrings: Set[int]) -> Iterator[str]:
    """Names one AST node mentions (a string constant: every word).

    A ``startswith`` prefix is yielded with a trailing ``*``.
    """
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
            relative = str(path.relative_to(ROOT))

            def visit(node: ast.AST, enclosing: Tuple[str, ...]) -> None:
                for name in _uses(node, docstrings):
                    uses.append((name, enclosing))
                if isinstance(node, _DEFINITION):
                    if top == "src" and not (
                        node.name.startswith("__") and node.name.endswith("__")
                    ):
                        definitions.setdefault(node.name, []).append(
                            (relative, node.lineno, node.end_lineno)
                        )
                    enclosing = enclosing + (node.name,)
                for child in ast.iter_child_nodes(node):
                    visit(child, enclosing)

            visit(tree, ())
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


if __name__ == "__main__":
    total = 0
    for name, sites in uncalled_names().items():
        for path, first, last in sites:
            total += last - first + 1
            print(f"{path}:{first}  {name}  ({last - first + 1} lines)")
    print(f"total {total} lines")
