"""Tests for the sweep subsystem: grids, executor, store, compare, CLI."""

import json

import pytest

from repro.experiments.__main__ import (
    _ignored_sweep_flags,
    build_sweep_parser,
    main,
)
from repro.experiments.config import PAPER_CONFIG
from repro.experiments.sweep import (
    ResultsStore,
    SweepRecord,
    SweepSpec,
    compare_records,
    config_hash,
    derive_seed_offset,
    execute_point,
    format_compare_report,
    latest_generation,
    load_records,
    named_sweeps,
    run_sweep,
    smoke_sweep,
)
from repro.experiments.sweep.grid import SweepPoint
from repro.traces.workload import BandwidthDistribution


@pytest.fixture
def tiny_base():
    """A 30-viewer base config so sweep tests stay fast."""
    return PAPER_CONFIG.with_(num_viewers=30, cdn_capacity_mbps=180.0, num_views=4)


@pytest.fixture
def tiny_spec(tiny_base):
    """A 4-point sweep: 2 populations x 2 systems."""
    return SweepSpec(
        name="tiny",
        base=tiny_base,
        points=[
            {"num_viewers": 20, "cdn_capacity_mbps": 120.0},
            {"num_viewers": 30, "cdn_capacity_mbps": 180.0},
        ],
        systems=("telecast", "random"),
    )


class TestSweepSpec:
    def test_cartesian_grid_expansion(self, tiny_base):
        spec = SweepSpec(
            name="grid",
            base=tiny_base,
            grid={
                "num_lscs": [1, 2],
                "outbound": [
                    BandwidthDistribution.fixed(4.0),
                    BandwidthDistribution.fixed(8.0),
                    BandwidthDistribution.uniform(0.0, 12.0),
                ],
            },
        )
        points = spec.expand()
        assert len(points) == 6 == spec.num_points()
        assert [point.index for point in points] == list(range(6))
        combos = {(p.config.num_lscs, p.config.outbound.label()) for p in points}
        assert len(combos) == 6

    def test_explicit_points_follow_grid(self, tiny_base):
        spec = SweepSpec(
            name="mixed",
            base=tiny_base,
            grid={"num_lscs": [1, 2]},
            points=[{"num_viewers": 10}],
        )
        points = spec.expand()
        assert len(points) == 3
        assert points[-1].config.num_viewers == 10

    def test_systems_multiply_points(self, tiny_spec):
        points = tiny_spec.expand()
        assert len(points) == 4
        assert [point.system for point in points] == [
            "telecast",
            "random",
            "telecast",
            "random",
        ]

    def test_empty_spec_is_single_base_point(self, tiny_base):
        spec = SweepSpec(name="solo", base=tiny_base, derive_seeds=False)
        points = spec.expand()
        assert len(points) == 1
        assert points[0].config == tiny_base

    def test_unknown_grid_axis_rejected(self, tiny_base):
        with pytest.raises(ValueError):
            SweepSpec(name="bad", base=tiny_base, grid={"warp_speed": [1]})

    def test_unknown_system_rejected(self, tiny_base):
        with pytest.raises(ValueError):
            SweepSpec(name="bad", base=tiny_base, systems=("bogus",))

    def test_point_ids_are_stable_and_unique(self, tiny_spec):
        first = [point.point_id for point in tiny_spec.expand()]
        second = [point.point_id for point in tiny_spec.expand()]
        assert first == second
        assert len(set(first)) == len(first)


class TestSeedDerivation:
    def test_distinct_points_get_distinct_seeds(self, tiny_base):
        spec = SweepSpec(
            name="seeds", base=tiny_base, grid={"num_viewers": [10, 20, 30]}
        )
        seeds = {point.config.seed for point in spec.expand()}
        assert len(seeds) == 3

    def test_same_overrides_same_seed_regardless_of_position(self, tiny_base):
        one = SweepSpec(name="a", base=tiny_base, grid={"num_viewers": [10, 20]})
        other = SweepSpec(name="b", base=tiny_base, grid={"num_viewers": [20, 5]})
        seed_of = lambda spec: {
            point.config.num_viewers: point.config.seed for point in spec.expand()
        }
        assert seed_of(one)[20] == seed_of(other)[20]

    def test_explicit_seed_override_wins(self, tiny_base):
        spec = SweepSpec(
            name="explicit",
            base=tiny_base,
            points=[{"num_viewers": 10, "seed": 1234}],
        )
        point = spec.expand()[0]
        assert point.config.seed == 1234
        # The other seed fields are still derived from the overrides.
        assert point.config.latency_seed != tiny_base.latency_seed

    def test_derive_seeds_false_keeps_base_seeds(self, tiny_base):
        spec = SweepSpec(
            name="fixed",
            base=tiny_base,
            grid={"num_lscs": [1, 3]},
            derive_seeds=False,
        )
        for point in spec.expand():
            assert point.config.seed == tiny_base.seed
            assert point.config.latency_seed == tiny_base.latency_seed

    def test_offset_excludes_seed_fields(self):
        assert derive_seed_offset({"num_viewers": 10}) == derive_seed_offset(
            {"num_viewers": 10, "seed": 42}
        )


class TestConfigHash:
    def test_equal_configs_hash_equal(self, tiny_base):
        assert config_hash(tiny_base) == config_hash(tiny_base.with_())

    def test_any_field_changes_the_hash(self, tiny_base):
        assert config_hash(tiny_base) != config_hash(tiny_base.with_(num_lscs=2))
        assert config_hash(tiny_base) != config_hash(
            tiny_base.with_outbound(BandwidthDistribution.fixed(4.0))
        )


class TestExecutor:
    def test_serial_run_collects_metrics(self, tiny_spec):
        result = run_sweep(tiny_spec, jobs=1)
        assert len(result.results) == 4
        assert not result.failed()
        for point in result.results:
            assert 0.0 < point.metrics["acceptance_ratio"] <= 1.0
            assert point.wall_clock_s > 0.0

    def test_parallel_matches_serial(self, tiny_spec):
        serial = run_sweep(tiny_spec, jobs=1)
        parallel = run_sweep(tiny_spec, jobs=2)
        assert serial.metrics_by_point() == parallel.metrics_by_point()

    def test_runtime_failure_is_captured_per_point(self, tiny_base):
        # Hand-build a point with a system the executor cannot run; the
        # error must be captured as data, not raised.
        point = SweepPoint(
            sweep_name="broken",
            index=0,
            system="telecast",
            overrides=(),
            config=tiny_base,
            config_hash=config_hash(tiny_base),
        )
        broken = SweepPoint(
            sweep_name="broken",
            index=1,
            system="bogus",
            overrides=(),
            config=tiny_base,
            config_hash=config_hash(tiny_base),
        )
        good = execute_point(point)
        bad = execute_point(broken)
        assert good.ok
        assert not bad.ok
        assert "bogus" in bad.error

    def test_failure_in_run_sweep_does_not_poison_other_points(
        self, tiny_spec, monkeypatch
    ):
        import repro.experiments.sweep.executor as executor_module

        real = executor_module.run_random_scenario

        def explode(config, **kwargs):
            raise RuntimeError("kaboom")

        monkeypatch.setattr(executor_module, "run_random_scenario", explode)
        result = run_sweep(tiny_spec, jobs=1)
        monkeypatch.setattr(executor_module, "run_random_scenario", real)
        assert len(result.failed()) == 2
        assert len(result.ok()) == 2
        assert all("kaboom" in point.error for point in result.failed())


class TestStore:
    def test_roundtrip_through_jsonl(self, tmp_path, tiny_spec):
        store = ResultsStore(tmp_path / "results")
        result = run_sweep(tiny_spec, jobs=1, store=store)
        path = store.path_for("tiny")
        assert path.exists()
        records = load_records(path)
        assert len(records) == 4
        for record, point in zip(records, result.results):
            assert record.point_id == point.point_id
            assert record.config_hash == point.config_hash
            assert record.metrics == pytest.approx(point.metrics)
            assert record.ok

    def test_records_are_append_only_and_latest_wins(self, tmp_path, tiny_spec):
        store = ResultsStore(tmp_path)
        run_sweep(tiny_spec, jobs=1, store=store)
        run_sweep(tiny_spec, jobs=1, store=store)
        records = store.load("tiny")
        assert len(records) == 8
        assert len(latest_generation(records)) == 4

    def test_record_lines_are_valid_json(self, tmp_path, tiny_spec):
        store = ResultsStore(tmp_path)
        run_sweep(tiny_spec, jobs=1, store=store)
        for line in store.path_for("tiny").read_text().splitlines():
            payload = json.loads(line)
            assert payload["schema"] == 1
            assert payload["config_hash"]


class TestCompare:
    def _records(self, tiny_spec, **metric_overrides):
        result = run_sweep(tiny_spec, jobs=1)
        records = []
        for point in result.results:
            record = point.to_record("test", 0.0)
            if metric_overrides and point.index == 0:
                metrics = dict(record.metrics)
                metrics.update(metric_overrides)
                record = SweepRecord(
                    sweep=record.sweep,
                    point_id=record.point_id,
                    system=record.system,
                    params=record.params,
                    config_hash=record.config_hash,
                    git=record.git,
                    created_at=record.created_at,
                    wall_clock_s=record.wall_clock_s,
                    metrics=metrics,
                    error=record.error,
                )
            records.append(record)
        return records

    def test_identical_runs_compare_ok(self, tiny_spec):
        baseline = self._records(tiny_spec)
        current = self._records(tiny_spec)
        report = compare_records(baseline, current)
        assert report.ok
        assert len(report.comparisons) == 4
        assert "OK" in format_compare_report(report)

    def test_acceptance_drop_is_a_regression(self, tiny_spec):
        baseline = self._records(tiny_spec, acceptance_ratio=0.99)
        current = self._records(tiny_spec, acceptance_ratio=0.80)
        report = compare_records(baseline, current)
        assert not report.ok
        assert len(report.regressions) == 1
        assert "REGRESSION" in format_compare_report(report)

    def test_drop_within_tolerance_passes(self, tiny_spec):
        baseline = self._records(tiny_spec, acceptance_ratio=0.99)
        current = self._records(tiny_spec, acceptance_ratio=0.985)
        assert compare_records(baseline, current, tolerance=0.02).ok

    def test_missing_point_fails_compare(self, tiny_spec):
        baseline = self._records(tiny_spec)
        report = compare_records(baseline, self._records(tiny_spec)[:-1])
        assert not report.ok
        assert len(report.missing_points) == 1

    def test_improvement_is_not_a_regression(self, tiny_spec):
        baseline = self._records(tiny_spec, acceptance_ratio=0.50)
        current = self._records(tiny_spec, acceptance_ratio=0.99)
        assert compare_records(baseline, current).ok

    def test_config_drift_warns_but_does_not_regress(self, tiny_spec):
        # A config change (e.g. a new ExperimentConfig field) changes the
        # hash but not the point id: the comparison must still match the
        # points and surface the drift as a warning.
        baseline = self._records(tiny_spec)
        current = []
        for record in self._records(tiny_spec):
            current.append(
                SweepRecord(
                    sweep=record.sweep,
                    point_id=record.point_id,
                    system=record.system,
                    params=record.params,
                    config_hash="deadbeefdeadbeef",
                    git=record.git,
                    created_at=record.created_at,
                    wall_clock_s=record.wall_clock_s,
                    metrics=record.metrics,
                    error=record.error,
                )
            )
        report = compare_records(baseline, current)
        assert report.ok
        assert not report.missing_points
        assert len(report.warnings) == 4
        assert "regenerate the baseline" in report.warnings[0]


class TestPresets:
    def test_named_sweeps_cover_the_cli_names(self):
        sweeps = named_sweeps()
        assert set(sweeps) == {
            "smoke",
            "scale",
            "scale10k",
            "scale100k",
            "scale1m",
            "bandwidth",
            "shards",
            "controlplane",
            "qoe",
            "scenarios",
        }

    def test_scale10k_sweeps_an_order_of_magnitude(self):
        spec = named_sweeps()["scale10k"]
        points = spec.expand()
        populations = [point.config.num_viewers for point in points]
        assert populations == [2000, 5000, 10000]
        assert all(point.system == "telecast" for point in points)
        for point in points:
            # The CDN cap keeps the paper's supply/demand balance.
            assert point.config.cdn_capacity_mbps == pytest.approx(
                6000.0 * point.config.num_viewers / 1000.0
            )

    def test_scale1m_rides_the_shard_filtered_build(self):
        spec = named_sweeps()["scale1m"]
        points = spec.expand()
        populations = [point.config.num_viewers for point in points]
        assert populations == [200000, 500000, 1000000]
        assert all(point.system == "telecast" for point in points)
        for point in points:
            assert point.config.num_lscs == 16
            assert point.config.shard_workers == 4
            assert point.config.cdn_capacity_mbps == pytest.approx(
                6000.0 * point.config.num_viewers / 1000.0
            )

    def test_smoke_is_a_six_point_grid(self):
        spec = smoke_sweep()
        assert spec.num_points() == 6
        assert len(spec.expand()) == 6

    def test_scale_pairs_cdn_cap_with_population(self):
        spec = named_sweeps(viewers=300, step=100)["scale"]
        for point in spec.expand():
            config = point.config
            assert config.cdn_capacity_mbps == pytest.approx(
                6000.0 * config.num_viewers / 1000.0
            )


class TestSweepCli:
    def test_sweep_list(self, capsys):
        assert main(["sweep", "--list"]) == 0
        out = capsys.readouterr().out
        assert "smoke" in out and "scale" in out

    def test_unknown_sweep_errors(self):
        with pytest.raises(SystemExit):
            main(["sweep", "warp"])

    def test_smoke_sweep_runs_and_persists(self, tmp_path, capsys):
        results_dir = tmp_path / "results"
        assert (
            main(["sweep", "smoke", "--jobs", "2", "--results", str(results_dir)]) == 0
        )
        out = capsys.readouterr().out
        assert "6/6 points ok" in out
        records = load_records(results_dir / "smoke.jsonl")
        assert len(records) == 6
        assert all(record.ok for record in records)

    def test_compare_cli_ok_and_regression_paths(self, tmp_path, capsys):
        results_dir = tmp_path / "results"
        main(["sweep", "smoke", "--results", str(results_dir)])
        capsys.readouterr()
        current = results_dir / "smoke.jsonl"
        assert (
            main(["compare", str(current), "--baseline", str(current)]) == 0
        )
        capsys.readouterr()
        # Tamper the baseline so the current run looks like a regression.
        tampered = tmp_path / "baseline.jsonl"
        lines = []
        for line in current.read_text().splitlines():
            payload = json.loads(line)
            payload["metrics"]["acceptance_ratio"] = 0.999
            lines.append(json.dumps(payload))
        tampered.write_text("\n".join(lines) + "\n")
        assert main(["compare", str(current), "--baseline", str(tampered)]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_ignored_scale_flags_are_called_out(self, tmp_path, capsys):
        assert (
            main(
                [
                    "sweep",
                    "smoke",
                    "--viewers",
                    "600",
                    "--lscs",
                    "5",
                    "--no-store",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "ignores --viewers" in out
        assert "ignores --lscs" in out
        # And indeed the fixed grid ran, not a 600-viewer one.
        assert "6/6 points ok" in out

    @pytest.mark.parametrize("name", sorted(named_sweeps()))
    def test_every_sweep_notes_exactly_the_scale_flags_it_drops(self, name):
        # Ask the note helper, not a sweep run: a flag is either honoured
        # (it changes the built spec) or called out with a reason.
        # ``scale1m`` used to do neither.
        parser = build_sweep_parser()
        flags = {"--viewers": "240", "--step": "60", "--lscs": "2"}
        noted = {}
        for flag, value in flags.items():
            args = parser.parse_args([name, flag, value])
            noted.update(_ignored_sweep_flags(args, parser))
            assert not _ignored_sweep_flags(parser.parse_args([name]), parser)
        default = named_sweeps()[name].expand()
        for flag, keyword in (
            ("--viewers", "viewers"), ("--step", "step"), ("--lscs", "num_lscs")
        ):
            moved = named_sweeps(**{keyword: int(flags[flag])})[name].expand()
            assert (moved != default) == (flag not in noted), (name, flag)
            assert flag not in noted or noted[flag]

    def test_scale1m_names_its_fixed_grid(self):
        parser = build_sweep_parser()
        args = parser.parse_args(["scale1m", "--viewers", "5000", "--lscs", "4"])
        assert _ignored_sweep_flags(args, parser) == [
            ("--viewers", "fixed 200k/500k/1M population points"),
            ("--lscs", "pinned to 16 region-sharded LSCs"),
        ]

    def test_compare_rejects_empty_files(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(SystemExit):
            main(["compare", str(empty), "--baseline", str(empty)])

    def test_figure_mode_still_works(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "sweep" in out and "13a" in out
