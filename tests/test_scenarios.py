"""Property tests locking down the adversarial scenario library.

The core harness: every preset in :data:`repro.scenarios.SCENARIOS` runs
across a 40-seed sweep at small scale and every invariant it declares
must hold -- hostile workloads (flash crowds, correlated outages, bursty
loss, heartbeat flapping, slot oscillation) may degrade QoE, but never
corrupt routing state, break layer bounds, or leak detector entries.

A deliberate mutation test proves the gate has teeth: a preset with an
unsatisfiable invariant makes ``python -m repro.experiments scenario``
exit non-zero.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import re
from pathlib import Path

import pytest

from repro.experiments.__main__ import main
from repro.experiments.config import PAPER_CONFIG
from repro.experiments.runner import run_telecast_scenario
from repro.experiments.sweep import (
    compare_records,
    execute_point,
    format_compare_report,
    load_records,
    scenarios_sweep,
)
from repro.experiments.sweep.grid import SweepPoint, config_hash
from repro.scenarios import (
    INVARIANTS,
    SCENARIOS,
    ScenarioSpec,
    run_record,
    run_scenario,
)
from repro.scenarios import invariants
from repro.scenarios.presets import BURST_LOSS

#: Seeds of the invariant property sweep.
SEEDS = list(range(40))

#: Population of the fast sweep (every preset, every seed).
SWEEP_VIEWERS = 200


def _fast_variant(spec: ScenarioSpec) -> ScenarioSpec:
    """The preset itself, with only its replay length trimmed for CI."""
    if spec.overrides.get("data_plane") != "simulated":
        return spec
    overrides = dict(spec.overrides)
    overrides["replay_frames_per_stream"] = 40
    return dataclasses.replace(spec, overrides=overrides)


def _assert_invariants_hold(run):
    assert run.passed, "invariant violations in scenario %r (seed %d):\n%s" % (
        run.spec.name,
        run.config.seed,
        "\n".join(
            f"  {name}: {messages[:5]}" for name, messages in run.violations.items()
        ),
    )


class TestScenarioInvariantSweep:
    """Every preset x 40 seeds at small scale: all declared invariants hold."""

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_invariants_hold(self, name, seed):
        run = run_scenario(
            _fast_variant(SCENARIOS[name]), viewers=SWEEP_VIEWERS, seed=seed
        )
        _assert_invariants_hold(run)


@pytest.mark.slow
class TestScenarioInvariantsAtScale:
    """1k-viewer variants of the heaviest presets (full default scale)."""

    @pytest.mark.parametrize("name", ["flash-crowd", "outage"])
    def test_invariants_hold_at_1k(self, name):
        run = run_scenario(SCENARIOS[name], viewers=1000, seed=5)
        _assert_invariants_hold(run)


class TestScenarioSpecs:
    def test_registry_has_at_least_five_presets(self):
        assert len(SCENARIOS) >= 5
        for name, spec in SCENARIOS.items():
            assert spec.name == name
            assert len(spec.invariants) >= 3
            assert set(spec.invariants) <= set(INVARIANTS)

    def test_both_catalogs_list_exactly_the_invariants(self):
        architecture = Path(__file__).parent.parent / "docs" / "ARCHITECTURE.md"
        table = architecture.read_text().split("The full catalog:\n\n", 1)[1]
        table = table.split("\n\n", 1)[0]
        documented = re.findall(r"^\| `(\w+)` \|", table, flags=re.M)
        assert sorted(documented) == sorted(INVARIANTS)
        in_docstring = re.findall(r"^``(\w+)``$", invariants.__doc__, flags=re.M)
        assert sorted(in_docstring) == sorted(INVARIANTS)

    def test_specs_reject_too_few_invariants(self):
        with pytest.raises(ValueError, match="at least 3"):
            ScenarioSpec(
                name="x", title="x", description="x",
                invariants=("layer_bounds", "single_home"),
            )

    def test_specs_reject_unknown_invariants(self):
        with pytest.raises(ValueError, match="unknown invariants"):
            ScenarioSpec(
                name="x", title="x", description="x",
                invariants=("layer_bounds", "single_home", "no_such_check"),
            )

    def test_specs_reject_params_for_undeclared_invariants(self):
        with pytest.raises(ValueError, match="undeclared"):
            ScenarioSpec(
                name="x", title="x", description="x",
                invariants=("layer_bounds", "single_home", "routing_matches_trees"),
                invariant_params={"acceptance_floor": {"min_acceptance": 0.9}},
            )

    def test_seed_rederives_every_rng_stream(self):
        config = SCENARIOS["outage"].config(smoke=True, seed=123)
        assert config.seed == 123
        assert config.latency_seed == 124
        assert config.churn_seed == 125
        assert config.baseline_seed == 126
        assert config.outage.seed == 127

    def test_same_seed_same_verdict_and_summary(self):
        first = run_scenario("flapping", smoke=True, seed=11)
        second = run_scenario("flapping", smoke=True, seed=11)
        assert first.violations == second.violations
        assert json.dumps(first.summary, sort_keys=True) == json.dumps(
            second.summary, sort_keys=True
        )


class TestScenarioSweepFamily:
    def test_scenarios_sweep_mirrors_the_presets(self):
        spec = scenarios_sweep()
        points = spec.expand()
        assert len(points) == len(SCENARIOS)
        expected = {
            config_hash(preset.config(smoke=True)) for preset in SCENARIOS.values()
        }
        assert {point.config_hash for point in points} == expected

    def test_scenarios_sweep_points_name_the_hostile_knobs(self):
        spec = scenarios_sweep()
        overridden = set()
        for point in spec.expand():
            overridden.update(dict(point.overrides))
        assert {"outage", "oscillation", "data_mean_burst_length", "heartbeat_period"} <= overridden


class TestScenarioCLI:
    def test_list_exits_zero(self, capsys):
        assert main(["scenario", "--list"]) == 0
        output = capsys.readouterr().out
        for name in SCENARIOS:
            assert name in output

    def test_unknown_scenario_is_an_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["scenario", "no-such-preset"])

    def test_passing_run_exits_zero_and_stores_a_record(self, tmp_path, capsys):
        code = main(
            ["scenario", "slot-oscillation", "--smoke", "--seed", "3",
             "--results", str(tmp_path)]
        )
        output = capsys.readouterr().out
        assert code == 0, output
        assert "verdict: PASS" in output
        records = load_records(tmp_path / "scenarios.jsonl")
        assert len(records) == 1
        record = records[0]
        assert record.point_id == "scenario/slot-oscillation"
        assert record.extra["passed"] is True
        assert record.extra["invariant_violations"] == {}
        assert record.metrics["acceptance_ratio"] > 0.0
        assert record.config_hash == config_hash(
            SCENARIOS["slot-oscillation"].config(smoke=True, seed=3)
        )

    def test_broken_invariant_fails_the_cli(self, monkeypatch, tmp_path, capsys):
        # Mutation check: deliberately break one invariant (an acceptance
        # floor above 1.0 can never be met) and the CLI must exit
        # non-zero with the violation in both the output and the record.
        sabotaged = dataclasses.replace(
            SCENARIOS["slot-oscillation"],
            invariants=SCENARIOS["slot-oscillation"].invariants + ("acceptance_floor",),
            invariant_params={
                **SCENARIOS["slot-oscillation"].invariant_params,
                "acceptance_floor": {"min_acceptance": 1.5},
            },
        )
        monkeypatch.setitem(SCENARIOS, "slot-oscillation", sabotaged)
        code = main(
            ["scenario", "slot-oscillation", "--smoke", "--seed", "3",
             "--results", str(tmp_path)]
        )
        output = capsys.readouterr().out
        assert code == 1
        assert "[FAIL] acceptance_floor" in output
        assert "verdict: FAIL" in output
        record = load_records(tmp_path / "scenarios.jsonl")[0]
        assert record.extra["passed"] is False
        assert "acceptance_floor" in record.extra["invariant_violations"]

    def test_unknown_invariant_name_is_a_violation(self, monkeypatch):
        # A preset declaring a check that does not exist must fail loudly,
        # never silently pass.
        broken = dataclasses.replace(
            SCENARIOS["slot-oscillation"],
            invariants=("layer_bounds", "single_home", "routing_matches_trees"),
            invariant_params={},
        )
        object.__setattr__(broken, "invariants", broken.invariants + ("ghost_check",))
        run = run_scenario(broken, viewers=60, seed=1)
        assert not run.passed
        assert "ghost_check" in run.violations

    def test_a_subscription_that_disagrees_with_its_tree_node_is_named(self):
        # Mutation check: a subscription is the viewer's tree node, so
        # parent and CDN flag cannot disagree; membership still can.  Drop
        # one session's subscription (its node stays in the tree) and swap
        # another's for a copy the tree does not hold:
        # ``routing_matches_trees`` must name both.
        system = run_scenario(SCENARIOS["slot-oscillation"], viewers=60, seed=1).system
        assert invariants.routing_tree_mismatches(system) == []
        sessions = max((lsc.sessions for lsc in system.gsc.lscs), key=len)
        (unsubscribed_id, unsubscribed), (copied_id, copied) = list(sessions.items())[:2]
        dropped_stream = next(iter(unsubscribed.subscriptions))
        del unsubscribed.subscriptions[dropped_stream]
        copied_stream = next(iter(copied.subscriptions))
        copied.subscriptions[copied_stream] = copy.copy(copied.subscriptions[copied_stream])
        violations = invariants.routing_tree_mismatches(system)
        assert sorted(violations) == sorted([
            f"{unsubscribed_id}/{dropped_stream}: in tree but not subscribed",
            f"{copied_id}/{copied_stream}: subscribed but not in tree",
        ])


class TestScenarioRecords:
    def test_run_record_round_trips_through_json(self):
        run = run_scenario("flapping", viewers=80, seed=2)
        record = run_record(run, wall_clock_s=1.25)
        parsed = json.loads(record.to_json())
        assert parsed["sweep"] == "scenarios"
        assert parsed["point_id"] == "scenario/flapping"
        assert parsed["extra"]["invariants_declared"] == list(run.spec.invariants)
        assert parsed["wall_clock_s"] == 1.25
        assert parsed["metrics"]["acceptance_ratio"] == run.summary["acceptance_ratio"]

    def test_run_record_and_sweep_point_report_the_same_metrics(self):
        # One record of a run: a scenario persisted through ``run_record``
        # and the same config executed as a sweep point carry the same
        # keys and values (the scenario record used to lack the five
        # final-snapshot scalars, so ``compare`` printed no CDN rows).
        run = run_scenario("flapping", viewers=80, seed=2)
        record = run_record(run)
        point = execute_point(
            SweepPoint(
                sweep_name="scenarios",
                index=0,
                system="telecast",
                overrides=(),
                config=run.config,
                config_hash=config_hash(run.config),
            )
        )
        assert point.ok, point.error
        assert record.metrics == point.metrics
        assert {"cdn_fraction", "cdn_outbound_mbps", "connected_viewers",
                "num_requests", "active_subscriptions"} <= set(record.metrics)
        report = format_compare_report(compare_records([record], [record]))
        assert "cdn_fraction" in report and "cdn_outbound_mbps" in report

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_the_final_snapshot_is_the_one_the_run_appended(self, name):
        # The result reuses the snapshot finalize() appended instead of
        # taking a second one; it must equal a fresh one field by field.
        config = SCENARIOS[name].config(smoke=True, seed=7)
        result = run_telecast_scenario(config, snapshot_every=None)
        assert result.final_snapshot is result.metrics.snapshots[-1]
        assert dataclasses.asdict(result.final_snapshot) == dataclasses.asdict(
            result.system.snapshot()
        )


def test_acceptance_does_not_fall_when_the_cdn_grows():
    # A 900 Mbps CDN split into four edges of 225 Mbps would strand
    # 1 Mbps on each (not a whole number of 2 Mbps streams), admit
    # against 4 Mbps that no reservation can take, and accept more
    # streams at 900 than at 904 Mbps.  One aggregate bound has no gap.
    config = SCENARIOS["burst-loss"].config(smoke=True, seed=1)
    assert config.cdn_capacity_mbps == 900.0

    def acceptance(capacity: float) -> float:
        result = run_telecast_scenario(
            config.with_(cdn_capacity_mbps=capacity), snapshot_every=None
        )
        return result.metrics.acceptance_ratio

    assert acceptance(900.0) <= acceptance(904.0)


class TestScenarioWorkloadsAreHostile:
    """The presets really exercise their hostile condition (not benign runs)."""

    def test_outage_fails_an_lsc_and_its_viewers_together(self):
        run = run_scenario("outage", smoke=True, seed=4)
        assert run.metrics.lsc_failovers >= 1
        assert run.metrics.abrupt_departures >= 1
        # Two of three controllers survive.
        assert len(run.system.gsc.lscs) == run.config.num_lscs - 1

    def test_flapping_produces_spurious_sweeps_without_dangling_state(self):
        run = run_scenario("flapping", smoke=True, seed=4)
        # Healthy viewers were swept (heartbeat period 15s > timeout 10s)...
        assert run.metrics.abrupt_departures > 0
        # ...yet the final overlay holds every structural invariant.
        _assert_invariants_hold(run)

    def test_burst_loss_actually_loses_frames_in_bursts(self):
        run = run_scenario(_fast_variant(BURST_LOSS), viewers=100, seed=4)
        assert run.metrics.data_frames_lost > 0
        assert run.summary["qoe_playable_continuity_mean"] < 1.0

    def test_flash_crowd_skews_views_by_zipf(self):
        run = run_scenario("flash-crowd", smoke=True, seed=4)
        sizes = sorted(
            (sum(len(group.sessions) for group in lsc.groups.values()))
            for lsc in run.system.gsc.lscs
        )
        assert sum(sizes) > 0
        assert run.config.view_popularity_alpha == 1.2
