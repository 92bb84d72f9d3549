#!/usr/bin/env python3
"""Verify that relative links in the repository's Markdown files resolve.

Scans every ``*.md`` file (skipping hidden directories) for inline
Markdown links and checks that relative targets exist on disk. External
links (``http(s)://``, ``mailto:``) and pure in-page anchors are ignored.
``docs/ARCHITECTURE.md`` is also held to its module paths: every
back-ticked ``*.py`` path in it must exist under ``src/repro/`` or from
the repository root, so a row for a deleted module fails, and every
module under ``src/repro/`` other than a package ``__init__`` must be
named by one, so a new module cannot go unmapped.  Every
``:meth:`` / ``:func:`` / ``:class:`` / ``:attr:`` target in ``src/``
must name something ``src/`` defines, or a standard-library name that
imports, so a cross-reference to a renamed, moved or deleted name fails.
Exits non-zero listing every broken link, so CI can gate on it.
"""

from __future__ import annotations

import ast
import builtins
import importlib
import re
import sys
from pathlib import Path

LINK_PATTERN = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
SKIPPED_SCHEMES = ("http://", "https://", "mailto:")
MODULE_PATH_PATTERN = re.compile(r"`([^`\s]+\.py)`")
ARCHITECTURE = Path("docs") / "ARCHITECTURE.md"
PACKAGE = Path("src") / "repro"
ROLE_PATTERN = re.compile(r":(?:meth|func|class|attr):`([^`\s]+)`")


def iter_markdown_files(root: Path):
    for path in sorted(root.rglob("*.md")):
        if any(part.startswith(".") for part in path.relative_to(root).parts[:-1]):
            continue
        yield path


def broken_links(root: Path):
    broken = []
    for md_file in iter_markdown_files(root):
        text = md_file.read_text(encoding="utf-8")
        for match in LINK_PATTERN.finditer(text):
            target = match.group(1)
            if target.startswith(SKIPPED_SCHEMES) or target.startswith("#"):
                continue
            path_part = target.split("#", 1)[0]
            if not path_part:
                continue
            resolved = (md_file.parent / path_part).resolve()
            if not resolved.exists():
                broken.append((md_file.relative_to(root), target))
    return broken


def missing_module_paths(root: Path):
    """``(ARCHITECTURE.md, path)`` of every back-ticked module path that
    exists neither under ``src/repro/`` nor from the repository root."""
    text = (root / ARCHITECTURE).read_text(encoding="utf-8")
    return [
        (ARCHITECTURE, path)
        for path in dict.fromkeys(MODULE_PATH_PATTERN.findall(text))
        if not (root / "src" / "repro" / path).exists() and not (root / path).exists()
    ]


def unnamed_modules(root: Path):
    """``(ARCHITECTURE.md, path)`` of every module under ``src/repro/``,
    package ``__init__`` files aside, that no back-ticked path names."""
    named = set(MODULE_PATH_PATTERN.findall((root / ARCHITECTURE).read_text(encoding="utf-8")))
    modules = sorted(
        path.relative_to(root / PACKAGE).as_posix()
        for path in (root / PACKAGE).rglob("*.py")
        if path.name != "__init__.py"
    )
    return [
        (ARCHITECTURE, module)
        for module in modules
        if module not in named and f"{PACKAGE.as_posix()}/{module}" not in named
    ]


def _bound_names(node) -> set:
    """The names one top-level or class-body statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return {
            name.id
            for target in targets
            for name in ast.walk(target)
            if isinstance(name, ast.Name)
        }
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return {(alias.asname or alias.name).split(".")[0] for alias in node.names}
    if isinstance(node, (ast.If, ast.Try)):
        blocks = [node.body, node.orelse]
        blocks += [handler.body for handler in getattr(node, "handlers", ())]
        return {name for block in blocks for child in block for name in _bound_names(child)}
    return set()


class _SourceIndex:
    """What ``src/`` defines: module -> top-level names, class -> members."""

    def __init__(self, root: Path):
        self.modules = {}
        self.classes = {}
        self.anywhere = set()
        for path in sorted((root / PACKAGE).rglob("*.py")):
            parts = path.relative_to(root / "src").with_suffix("").parts
            module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
            tree = ast.parse(path.read_text(encoding="utf-8"))
            names = set().union(*map(_bound_names, tree.body))
            for node in tree.body:
                # Lazy re-exports (``repro.util.lazy``) are module attributes too.
                if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict) and any(
                    isinstance(t, ast.Name) and t.id == "_EXPORTS" for t in node.targets
                ):
                    names |= {key.value for key in node.value.keys if isinstance(key, ast.Constant)}
            self.modules[module] = names
            self.anywhere |= names
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self.anywhere.add(node.name)
                if not isinstance(node, ast.ClassDef):
                    continue
                members = set().union(*map(_bound_names, node.body))
                members |= {
                    sub.attr
                    for sub in ast.walk(node)
                    if isinstance(sub, ast.Attribute)
                    and isinstance(sub.ctx, ast.Store)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "self"
                }
                bases = [
                    base.id if isinstance(base, ast.Name) else getattr(base, "attr", "")
                    for base in node.bases
                ]
                self.classes.setdefault(node.name, []).append((members, bases))
                self.anywhere |= members

    def has_member(self, class_name: str, member: str, seen=frozenset()) -> bool:
        for members, bases in self.classes.get(class_name, ()):
            if member in members or any(
                self.has_member(base, member, seen | {class_name})
                for base in bases
                if base not in seen
            ):
                return True
        return False

    def _member_chain(self, parts) -> bool:
        return all(self.has_member(owner, member) for owner, member in zip(parts, parts[1:]))

    def resolves(self, target: str) -> bool:
        parts = target.lstrip("~.").removesuffix("()").split(".")
        if parts[0] == "repro":
            cut = next(
                (cut for cut in range(len(parts), 0, -1) if ".".join(parts[:cut]) in self.modules),
                None,
            )
            if cut is None:
                return False
            rest = parts[cut:]
            return not rest or (
                rest[0] in self.modules[".".join(parts[:cut])] and self._member_chain(rest)
            )
        if len(parts) == 1 and parts[0] in self.anywhere:
            return True
        if parts[0] in self.classes and self._member_chain(parts):
            return True
        return _imports_from_stdlib(parts)


def _imports_from_stdlib(parts) -> bool:
    """Whether a dotted name is a standard-library module or attribute."""
    if parts[0] in sys.stdlib_module_names:
        cut = next(
            (cut for cut in range(len(parts), 0, -1) if _importable(".".join(parts[:cut]))),
            0,
        )
        found = importlib.import_module(".".join(parts[:cut])) if cut else None
    elif hasattr(builtins, parts[0]):
        cut, found = 0, builtins
    else:
        return False
    for part in parts[cut:]:
        found = getattr(found, part, None)
    return found is not None


def _importable(module: str) -> bool:
    try:
        importlib.import_module(module)
    except ImportError:
        return False
    return True


def unresolved_roles(root: Path):
    """``(file, role)`` of every ``:meth:`` / ``:func:`` / ``:class:`` /
    ``:attr:`` target in ``src/`` that names nothing ``src/`` defines
    and nothing the standard library imports."""
    index = _SourceIndex(root)
    return [
        (path.relative_to(root), match.group(0))
        for path in sorted((root / "src").rglob("*.py"))
        for match in ROLE_PATTERN.finditer(path.read_text(encoding="utf-8"))
        if not index.resolves(match.group(1))
    ]


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    broken = (
        broken_links(root)
        + missing_module_paths(root)
        + unnamed_modules(root)
        + unresolved_roles(root)
    )
    for md_file, target in broken:
        print(f"BROKEN  {md_file}: {target}")
    if broken:
        print(f"{len(broken)} broken link(s)")
        return 1
    print("all Markdown links resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main())
