"""Golden digests of ``build_scenario``, captured on the two-path build.

``tests/golden/scenario_build_digests.json`` was written at the parent of
the one-build change, when the full build had its own body
(``_build_workload`` + ``_inject_outage``) beside the shard projection.
The single body must reproduce both byte for byte: for seven configs, the
event list, every viewer's ``(viewer_id, outbound, region_name)``,
``lsc_regions``, ``control_node_ids`` and 64 sampled pair delays, for the
full build and for every worker's slice at 2 and 3 workers.

Regenerate (only for an intentional behaviour change) with
``PYTHONPATH=src python tests/test_scenario_build_golden.py``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
from pathlib import Path

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import Scenario, ShardSelection, build_scenario
from repro.net import planetlab
from repro.net.regions import Region
from repro.traces.workload import ChurnConfig, OscillationConfig, OutageConfig

GOLDEN_PATH = Path(__file__).parent / "golden" / "scenario_build_digests.json"

BASE = ExperimentConfig(
    num_viewers=150, num_views=4, num_lscs=3, cdn_capacity_mbps=math.inf
)
CHURN = ChurnConfig(
    failure_rate_per_second=0.05, graceful_fraction=0.3, rejoin_probability=0.5
)
OUTAGE = OutageConfig(time=5.0, lsc_index=1, viewer_fraction=0.4)

CONFIGS = {
    "flash_crowd": BASE,
    "poisson_dynamics": BASE.with_(
        arrival_rate_per_second=10.0,
        view_change_probability=0.4,
        departure_probability=0.3,
    ),
    "churn": BASE.with_(churn=CHURN),
    "oscillation": BASE.with_(oscillation=OscillationConfig(start_time=5.0)),
    "outage": BASE.with_(arrival_rate_per_second=20.0, outage=OUTAGE),
    "churn_outage": BASE.with_(churn=CHURN, outage=OUTAGE),
    "geo_regions": BASE.with_(num_lscs=7),
}

WORKER_COUNTS = (2, 3)


def _sha(rows) -> str:
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode("ascii")).hexdigest()


def build_digest(scenario: Scenario) -> dict:
    """Digest every config-derived field of one built scenario."""
    nodes = list(scenario.delay_model.matrix.nodes)
    picker = random.Random(0)
    delays = [
        (a, b, scenario.delay_model.propagation(a, b))
        for a, b in (picker.sample(nodes, 2) for _ in range(64))
    ]
    return {
        "events_sha256": _sha([dataclasses.astuple(e) for e in scenario.events]),
        "viewers_sha256": _sha(
            [
                (v.viewer_id, v.outbound_capacity_mbps, v.region_name)
                for v in scenario.viewers
            ]
        ),
        "lsc_regions_sha256": _sha(scenario.lsc_regions),
        "control_node_ids_sha256": _sha(scenario.control_node_ids),
        "delays_sha256": _sha(delays),
        "num_events": len(scenario.events),
        "num_viewers": len(scenario.viewers),
    }


def config_digests(config: ExperimentConfig) -> dict:
    """Digests of the full build and of every worker's slice."""
    digests = {"full": build_digest(build_scenario(config))}
    for workers in WORKER_COUNTS:
        for index in range(workers):
            shard = ShardSelection(num_workers=workers, worker_index=index)
            digests[f"k{workers}/worker{index}"] = build_digest(
                build_scenario(config, shard=shard)
            )
    return digests


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_build_matches_two_path_golden(name):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert config_digests(CONFIGS[name]) == golden[name]


def test_golden_covers_every_config():
    assert sorted(json.loads(GOLDEN_PATH.read_text())) == sorted(CONFIGS)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_full_build_is_the_one_worker_projection(name):
    """``shard=None`` means the one worker that owns every region."""
    config = CONFIGS[name]
    full = build_scenario(config)
    one = build_scenario(config, shard=ShardSelection(num_workers=1, worker_index=0))
    assert build_digest(full) == build_digest(one)
    assert full.events == one.events
    assert [dataclasses.asdict(v) for v in full.viewers] == [
        dataclasses.asdict(v) for v in one.viewers
    ]
    assert list(full.delay_model.matrix.nodes) == list(one.delay_model.matrix.nodes)
    assert full.lsc_regions == one.lsc_regions
    assert full.control_node_ids == one.control_node_ids
    assert [v.view_id for v in full.views] == [v.view_id for v in one.views]
    assert full.cdn.outbound_capacity_mbps == one.cdn.outbound_capacity_mbps


@pytest.mark.parametrize("name", ["flash_crowd", "outage"])
def test_build_derives_viewer_keys_once_in_the_batch(name, monkeypatch):
    """The scalar ``_node_key`` runs for control nodes only.

    Viewer keys come from the one batch derivation the build shares
    between region assignment and the latency matrix; a per-viewer
    sha256 pass inside the matrix builder (a second derivation of every
    key the ownership table already holds) shows up here.
    """
    hashed = []
    original = planetlab._node_key

    def counting(seed, node_id):
        hashed.append(node_id)
        return original(seed, node_id)

    monkeypatch.setattr(planetlab, "_node_key", counting)
    scenario = build_scenario(CONFIGS[name])
    assert hashed
    assert set(hashed) <= set(scenario.control_node_ids)


def test_successful_build_never_formats_a_region(monkeypatch):
    """``RegionMap.assign`` builds its error message only on failure."""
    calls = []
    monkeypatch.setattr(Region, "__repr__", lambda self: calls.append(self) or "Region")
    build_scenario(CONFIGS["flash_crowd"])
    assert calls == []


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps(
            {name: config_digests(config) for name, config in sorted(CONFIGS.items())},
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")
