"""Every script under ``examples/`` runs to completion.

The examples are the primary demo surface (README, the verify recipe)
and read the public API the way a user would; running each one as
``__main__`` in tier-1 keeps an API change from stranding them.
"""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).parent.parent / "examples").glob("*.py"))
assert EXAMPLES, "examples/ is empty or moved: an empty parametrize would pass"


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs_to_completion(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
