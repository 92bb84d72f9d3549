"""``tools/check_doc_links.py``: ARCHITECTURE.md names only modules that exist."""

from __future__ import annotations

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "check_doc_links", REPO / "tools" / "check_doc_links.py"
)
check_doc_links = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_doc_links)


def _tree(root: Path, files, architecture: str) -> Path:
    for name in files:
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text("")
    (root / "docs").mkdir(exist_ok=True)
    (root / "docs" / "ARCHITECTURE.md").write_text(architecture)
    return root


def test_a_module_path_that_exists_nowhere_fails(tmp_path):
    root = _tree(
        tmp_path,
        ["src/repro/core/telecast.py", "tests/reference_oracles.py"],
        "| `core/telecast.py` | the facade |\n"
        "| `util/units.py` | unit helpers |\n"
        "oracles in `tests/reference_oracles.py`; run `python tools/x.py`\n",
    )
    assert check_doc_links.missing_module_paths(root) == [
        (Path("docs") / "ARCHITECTURE.md", "util/units.py")
    ]


def test_every_module_path_in_the_architecture_exists():
    assert check_doc_links.missing_module_paths(REPO) == []
