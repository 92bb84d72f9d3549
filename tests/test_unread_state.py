"""A shrink-only guard: every field and stored attribute in ``src/`` is read.

State that is written and never read decides nothing, yet it costs a
store on every path that writes it, a slot in every pickle the daemon
writes, and a reader's time.  This scan walks the ASTs of ``src/``,
``examples/``, ``benchmarks/`` and ``tools/``.  The *state* of ``src/``
is

* every field of a dataclass or a ``NamedTuple`` (an annotated name in
  the class body, ``ClassVar`` excluded), and
* every ``self.<name>`` a method of a ``src/`` class stores.

A name is *read* where the scanned trees load it as an attribute
(``session.view``), with the rules of ``tests/test_uncalled_surface.py``
for strings: any string constant but a docstring reads every identifier
in it (``getattr`` dispatch, summary keys), a docstring reads nothing.
What only writes to the state is not a read:

* an assignment, an augmented assignment (``self.sent += 1``) or a
  keyword argument (``Session(join_delay=...)``),
* a subscript store or delete on the attribute
  (``self.acks[viewer] = now``, ``del self.acks[viewer]``), and
* a container mutator called as a statement, its result dropped
  (``self.acks.pop(viewer, None)``, ``self.log.append(row)``).

Every field of a class that ``src/`` passes to ``dataclasses.fields()``
by name (``fields(SessionMetrics)``, or ``fields(self)`` in its own
body) is read: the loop reads them all.

The scan is by name, not by binding, so a name one class reads keeps
every class's field of that name alive; what it reports is unread for
certain.  The reported set must equal :data:`ALLOW_LIST` exactly: new
unread state fails, and so does an allow-listed entry that gained a
reader.  The list only shrinks, unless an entry is added with a reason.

Run it as a script to print the unread state with its sites::

    python tests/test_unread_state.py
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "examples", "benchmarks", "tools")

_BANDWIDTH = "an allocation result the bandwidth unit suite reads"
_ITEM_1D = "ROADMAP item 1(d): Table I's surface, read by the routing-state suite"

#: ``Class.name`` state nobody reads that stays, each with the reason.
ALLOW_LIST: Dict[str, str] = {
    "OutboundAllocation.per_stream_mbps": (
        _BANDWIDTH + " and tests/reference_oracles.py checks each stream against"
    ),
    "OutboundAllocation.leftover_mbps": _BANDWIDTH,
    "InboundAllocation.allocated_inbound_mbps": _BANDWIDTH,
    "ViewerQoE.frames_expected": (
        "a QoE row the replay goldens digest whole (dataclasses.asdict)"
    ),
    "ViewerQoE.frames_concealed": (
        "a QoE row the replay goldens digest whole (dataclasses.asdict)"
    ),
    "InsertResult.reason": "the topology suite reads why a reparent was refused",
    "RemovalResult.was_cdn_fed": (
        "the topology suite and tests/reference_topology.py compare removals by it"
    ),
    "ShardedScenarioResult.shard_clocks": (
        "the sharded parity suite reads each worker's final clock"
    ),
    "ChildForwardingState.child_id": _ITEM_1D,
}

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_FUNCTION = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFINITION = (*_FUNCTION, ast.ClassDef)
#: Methods that only put into or take out of a container: called as a
#: statement, they write the state they are called on.
_MUTATORS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "setdefault",
        "update",
    }
)


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


def _name(node: ast.AST) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Call):
        return _name(node.func)
    return ""


def _is_record(node: ast.ClassDef) -> bool:
    """A dataclass or a ``NamedTuple``."""
    return any(_name(d) == "dataclass" for d in node.decorator_list) or any(
        _name(base) == "NamedTuple" for base in node.bases
    )


def _fields(node: ast.ClassDef) -> Iterator[ast.AnnAssign]:
    for statement in node.body:
        if (
            isinstance(statement, ast.AnnAssign)
            and isinstance(statement.target, ast.Name)
            and "ClassVar" not in ast.unparse(statement.annotation)
        ):
            yield statement


def _writes_only(tree: ast.AST) -> Set[int]:
    """``id()`` of every attribute load that only writes to its state."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
            found.add(id(node.value))
        elif (
            isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Attribute)
            and node.value.func.attr in _MUTATORS
        ):
            found.add(id(node.value.func.value))
    return found


def scan() -> Tuple[Dict[str, List[Tuple[str, str, int]]], Set[str], Set[str]]:
    """``(state, reads, iterated)`` of the scanned trees.

    ``state`` maps a name to its ``(class, path, line)`` definition sites
    under ``src/``; ``reads`` holds every name read anywhere; ``iterated``
    the classes ``src/`` passes to ``dataclasses.fields()``.
    """
    state: Dict[str, List[Tuple[str, str, int]]] = {}
    reads: Set[str] = set()
    iterated: Set[str] = set()
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            docstrings = _docstrings(tree)
            writes_only = _writes_only(tree)
            relative = str(path.relative_to(ROOT))

            def visit(node: ast.AST, owner: str) -> None:
                if isinstance(node, ast.ClassDef):
                    owner = node.name
                    if top == "src" and _is_record(node):
                        for field in _fields(node):
                            state.setdefault(field.target.id, []).append(
                                (owner, relative, field.lineno)
                            )
                elif isinstance(node, ast.Attribute):
                    if isinstance(node.ctx, ast.Store):
                        if top == "src" and owner and _name(node.value) == "self":
                            state.setdefault(node.attr, []).append(
                                (owner, relative, node.lineno)
                            )
                    elif isinstance(node.ctx, ast.Load) and id(node) not in writes_only:
                        reads.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    if id(node) not in docstrings:
                        reads.update(_WORD.findall(node.value))
                elif (
                    top == "src"
                    and isinstance(node, ast.Call)
                    and _name(node.func) == "fields"
                    and node.args
                ):
                    argument = _name(node.args[0])
                    iterated.add(owner if argument == "self" else argument)
                for child in ast.iter_child_nodes(node):
                    visit(child, owner)

            visit(tree, "")
    return state, reads, iterated


def unread_state() -> Dict[str, List[Tuple[str, int]]]:
    """``Class.name`` of the state nobody reads, with its sites."""
    state, reads, iterated = scan()
    unread: Dict[str, List[Tuple[str, int]]] = {}
    for name, sites in state.items():
        if name in reads:
            continue
        for owner, path, line in sites:
            if owner not in iterated:
                unread.setdefault(f"{owner}.{name}", []).append((path, line))
    return unread


def test_every_unread_field_is_on_the_allow_list():
    unread = unread_state()
    new = sorted(set(unread) - set(ALLOW_LIST))
    read_now = sorted(set(ALLOW_LIST) - set(unread))
    assert not new, f"written, never read: delete, or allow-list: {new}"
    assert not read_now, f"allow-listed but read now: drop the entry: {read_now}"


def test_every_allow_list_entry_has_a_reason():
    assert all(reason.strip() for reason in ALLOW_LIST.values())


def test_a_write_through_the_attribute_is_not_a_read():
    tree = ast.parse(
        "self.acks[viewer] = now\n"
        "del self.acks[viewer]\n"
        "self.acks.pop(viewer, None)\n"
        "self.log.append(row)\n"
        "staged = self.queue.pop()\n"
        "self.sim.run()\n"
    )
    writes_only = _writes_only(tree)
    loaded = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and id(node) not in writes_only
    }
    assert "acks" not in loaded and "log" not in loaded
    assert {"queue", "sim"} <= loaded


if __name__ == "__main__":
    for label, sites in sorted(unread_state().items()):
        for path, line in sites:
            print(f"{path}:{line}  {label}")
