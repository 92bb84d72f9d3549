"""``tools/check_doc_links.py``: ARCHITECTURE.md names every module and only
modules that exist, and every Sphinx role in ``src/`` names a real target."""

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


def test_a_module_the_architecture_does_not_name_fails(tmp_path):
    root = _tree(
        tmp_path,
        ["src/repro/__init__.py", "src/repro/core/__init__.py", "src/repro/core/telecast.py",
         "src/repro/core/layering.py", "src/repro/version.py"],
        "| `core/telecast.py` | the facade |\n| `src/repro/version.py` | the version |\n",
    )
    assert check_doc_links.unnamed_modules(root) == [
        (Path("docs") / "ARCHITECTURE.md", "core/layering.py")
    ]


def test_architecture_names_every_module():
    assert check_doc_links.unnamed_modules(REPO) == []


def test_a_role_naming_nothing_src_defines_fails(tmp_path):
    root = _tree(tmp_path, ["src/repro/__init__.py"], "")
    (root / "src" / "repro" / "engine.py").write_text(
        '''"""The engine: :class:`Engine`, :meth:`Engine.run`, :attr:`Engine.clock`,
:meth:`~repro.engine.Engine.stop` and :meth:`Engine.gone`.

Also :func:`math.isclose`, :class:`ValueError`, :func:`reference_helper`
and :func:`repro.worker.place`.
"""


class Base:
    def stop(self):
        pass


class Engine(Base):
    def __init__(self):
        self.clock = 0.0

    def run(self):
        pass
'''
    )
    assert check_doc_links.unresolved_roles(root) == [
        (Path("src/repro/engine.py"), ":meth:`Engine.gone`"),
        (Path("src/repro/engine.py"), ":func:`reference_helper`"),
        (Path("src/repro/engine.py"), ":func:`repro.worker.place`"),
    ]


def test_every_role_in_src_resolves():
    assert check_doc_links.unresolved_roles(REPO) == []
