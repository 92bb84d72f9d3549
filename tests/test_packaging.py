"""The packaging metadata in ``pyproject.toml``.

``pip install -e '.[test]'`` followed by ``pytest`` must collect, and the
distribution's version must be the package's own ``__version__``.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TESTS = ROOT / "tests"


@pytest.fixture(scope="module")
def pyproject():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as handle:
        return tomllib.load(handle)


def _top_level_imports():
    """Root module names a test module imports at collection time."""
    local = {path.stem for path in TESTS.glob("*.py")} | {"repro", "tests"}
    for path in TESTS.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                root = name.partition(".")[0]
                if root not in sys.stdlib_module_names and root not in local:
                    yield root


def test_test_extra_installs_every_third_party_import_of_the_suite(pyproject):
    extra = pyproject["project"]["optional-dependencies"]["test"]
    installed = {requirement.replace("-", "_") for requirement in extra}
    imported = set(_top_level_imports())
    assert "hypothesis" in imported
    assert imported <= installed


def test_the_version_has_one_source(pyproject):
    project = pyproject["project"]
    assert "version" not in project
    assert project["dynamic"] == ["version"]
    attr = pyproject["tool"]["setuptools"]["dynamic"]["version"]["attr"]
    assert attr == "repro.version.__version__"
