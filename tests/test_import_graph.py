"""The import graph is part of the performance surface.

A process pays for every module it loads at every start -- ``import
numpy`` alone was a third of the ``serve`` daemon's cold start and 13 MiB
of every process's resident set.  These tests pin what each entry point
must *not* have loaded (the lists live in ``tools/import_report.py``, so
the CI check and these tests cannot drift), in subprocesses because
``sys.modules`` of the test process holds everything already.  They gate
on module names, never on wall time.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.net.planetlab import (
    PlanetLabTraceConfig,
    generate_planetlab_matrix,
    node_keys,
    region_indices,
)
from repro.sim.rng import SeededRandom

REPO = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "import_report", REPO / "tools" / "import_report.py"
)
import_report = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(import_report)

#: ``python -m repro.experiments serve`` with the socket loop replaced by
#: a scripted session: 400 joins over three views, graceful and abrupt
#: departures, view changes, an LSC failover, a frame replay, ``stats``.
SERVE_SESSION = """
import json, sys
from repro.experiments import __main__ as cli
from repro.service import daemon

def scripted_session(self, ready=None):
    script = [f"join viewer-{i:05d} {i % 3}" for i in range(400)] + ["advance 10"]
    script += [f"leave viewer-{i:05d}" for i in range(0, 400, 5)]
    script += [f"fail viewer-{i:05d}" for i in range(2, 400, 9)]
    script += [f"view_change viewer-{i:05d} {(i + 1) % 3}" for i in range(1, 400, 10)]
    script += ["advance 30", "lsc_fail LSC-0", "advance 30", "replay 5", "check", "stats"]
    for line in script:
        reply = self.handle_line(line)
        assert reply.startswith("ok"), (line, reply)

daemon.ServiceDaemon.serve_forever = scripted_session
assert cli.main(["serve", "--viewers", "400", "--dilation", "0", "--seed", "7"]) == 0
print(json.dumps(sorted(sys.modules)))
"""

#: One instant-driver run at the benchmark's ``broadcast_join`` size.
BATCH_RUN = """
import json, sys
from repro.experiments.config import PAPER_CONFIG
from repro.experiments.runner import run_telecast_scenario

config = PAPER_CONFIG.with_scaled_population(4000, num_lscs=3, num_views=1)
result = run_telecast_scenario(config, snapshot_every=None)
assert result.final_snapshot.num_viewers > 3000
print(json.dumps(sorted(sys.modules)))
"""


def run_python(script: str) -> str:
    """Standard output of ``script`` in a fresh interpreter over this checkout."""
    child = subprocess.run(
        [sys.executable, "-c", script],
        env=import_report.child_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert child.returncode == 0, child.stderr[-2000:]
    return child.stdout


def modules_after(script: str) -> list:
    return json.loads(run_python(script).splitlines()[-1])


def test_a_serve_session_loads_no_batch_subsystem_and_no_numpy():
    modules = modules_after(SERVE_SESSION)
    assert "repro.service.daemon" in modules and "repro.core.session" in modules
    assert import_report.offenders(modules, import_report.FORBIDDEN["serve"]) == []


@pytest.mark.parametrize(
    "target, package", [("--help", "repro.experiments"), ("soak client", "repro.service")]
)
def test_help_loads_nothing_below_the_cli(target, package):
    # The soak client shares ``repro.service`` with the daemon it loads
    # against: an eager package ``__init__`` hands it the control plane.
    modules = import_report.probe(import_report.TARGETS[target])["modules"]
    assert package in modules
    assert import_report.offenders(modules, import_report.FORBIDDEN[target]) == []


@pytest.mark.slow
def test_a_4000_viewer_instant_run_never_imports_numpy():
    modules = modules_after(BATCH_RUN)
    assert "repro.core.session" in modules
    assert import_report.offenders(modules, import_report.FORBIDDEN["run"]) == []


def test_offenders_match_a_name_and_everything_below_it_only():
    loaded = ["numpy.linalg", "numpyx", "repro.core", "repro.corex.y", "concurrent"]
    assert import_report.offenders(
        loaded, ["numpy", "repro.core", "concurrent.futures", "repro.sim"]
    ) == ["numpy", "repro.core"]


@pytest.mark.parametrize(
    "package",
    ["repro.experiments", "repro.scenarios", "repro.service", "repro.parallel"],
)
def test_every_lazily_exported_name_resolves(package):
    module = importlib.import_module(package)
    assert module.__all__ == sorted(module._EXPORTS)
    for name in module.__all__:
        value = getattr(module, name)
        assert value is getattr(importlib.import_module(module._EXPORTS[name]), name)
        assert vars(module)[name] is value  # resolved once, then a plain attribute
    assert set(module.__all__) <= set(dir(module))
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    assert set(module.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        module.no_such_name


def test_scalar_region_indices_equal_the_vectorized_mix_they_replaced():
    np = pytest.importorskip("numpy")
    rng = random.Random(23)
    keys = [rng.getrandbits(64) for _ in range(100_000)]
    keys[:3] = [0, 1, (1 << 64) - 1]

    def vectorized(num_regions: int) -> list:
        # region_indices as it was before numpy left the import path.
        value = np.fromiter(keys, dtype=np.uint64, count=len(keys))
        value = value + np.uint64(0x9E3779B97F4A7C15)
        value = (value ^ (value >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        value = (value ^ (value >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        value = value ^ (value >> np.uint64(31))
        return (value % np.uint64(num_regions)).tolist()

    with np.errstate(over="ignore"):
        for num_regions in (1, 5, 7):
            assert region_indices(keys, num_regions) == vectorized(num_regions)


def test_region_indices_rejects_an_empty_region_set():
    with pytest.raises(ValueError):
        region_indices([1, 2, 3], 0)


def test_a_handed_over_region_table_builds_the_same_region_map():
    viewers = [f"viewer-{index:05d}" for index in range(500)]
    control = ["GSC", "LSC-0", "LSC-1", "CDN"]
    config = PlanetLabTraceConfig()
    keys = node_keys(11, "viewer-%05d", len(viewers))
    regions = region_indices(keys, len(config.region_names))
    derived = generate_planetlab_matrix(viewers + control, rng=SeededRandom(11))
    handed = generate_planetlab_matrix(
        viewers + control,
        rng=SeededRandom(11),
        known_keys=dict(zip(viewers, keys)),
        known_regions=dict(zip(viewers, regions)),
    )
    for node_id in viewers + control:
        assert handed.regions.region_of(node_id) == derived.regions.region_of(node_id)
    assert list(handed.regions._assignment) == list(derived.regions._assignment)
    assert list(handed.nodes.items()) == list(derived.nodes.items())
