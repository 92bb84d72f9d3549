#!/usr/bin/env python3
"""Verify that relative links in the repository's Markdown files resolve.

Scans every ``*.md`` file (skipping hidden directories) for inline
Markdown links and checks that relative targets exist on disk. External
links (``http(s)://``, ``mailto:``) and pure in-page anchors are ignored.
``docs/ARCHITECTURE.md`` is also held to its module paths: every
back-ticked ``*.py`` path in it must exist under ``src/repro/`` or from
the repository root, so a row for a deleted module fails.
Exits non-zero listing every broken link, so CI can gate on it.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

LINK_PATTERN = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
SKIPPED_SCHEMES = ("http://", "https://", "mailto:")
MODULE_PATH_PATTERN = re.compile(r"`([^`\s]+\.py)`")
ARCHITECTURE = Path("docs") / "ARCHITECTURE.md"


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


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    broken = broken_links(root) + missing_module_paths(root)
    for md_file, target in broken:
        print(f"BROKEN  {md_file}: {target}")
    if broken:
        print(f"{len(broken)} broken link(s)")
        return 1
    print("all Markdown links resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main())
