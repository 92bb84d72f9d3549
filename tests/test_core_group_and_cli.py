"""Tests for view groups, multi-LSC operation and the experiments CLI."""

import pytest

from repro.core.controllers import GlobalSessionController
from repro.core.group import ViewGroup
from repro.core.telecast import TeleCastSystem, build_views
from repro.experiments.__main__ import build_parser, main, render_figure
from repro.experiments.config import PAPER_CONFIG
from repro.model.cdn import CDN, CDN_NODE_ID
from repro.model.viewer import Viewer
from tests.conftest import make_viewers


class TestViewGroup:
    @pytest.fixture
    def group(self, default_view, flat_delay_model):
        return ViewGroup(view=default_view, delay_model=flat_delay_model, d_max=65.0)

    def test_trees_created_for_every_stream(self, group, default_view):
        assert set(group.trees) == set(default_view.stream_ids)
        assert group.view_id == default_view.view_id
        assert len(group) == 0

    def test_supply_includes_cdn_and_p2p(self, group, default_view):
        cdn = CDN(100.0, delta=60.0)
        stream_id = default_view.stream_ids[0]
        cdn.ingest_stream(stream_id, 2.0)
        assert group.supply_map(cdn)[stream_id] == pytest.approx(100.0)
        tree = group.tree(stream_id)
        tree.insert("seed", 2, 4.0)
        assert group.supply_map(cdn)[stream_id] == pytest.approx(104.0)

    def test_parent_effective_delay_fallbacks(self, group, default_view):
        stream_id = default_view.stream_ids[0]
        # CDN parent -> Delta; unknown parent -> Delta; tree member -> its delay.
        assert group.parent_effective_delay(stream_id, CDN_NODE_ID) == 60.0
        assert group.parent_effective_delay(stream_id, "stranger") == 60.0
        tree = group.tree(stream_id)
        tree.insert("seed", 2, 4.0)
        assert group.parent_effective_delay(stream_id, "seed") == 60.0

    def test_children_and_forwarded_streams(self, group, default_view):
        stream_id = default_view.stream_ids[0]
        tree = group.tree(stream_id)
        tree.insert("seed", 2, 4.0)
        tree.insert("leaf", 0, 0.0)
        assert group.children_of("seed", stream_id) == ["leaf"]
        assert group.children_of("ghost", stream_id) == []
        forwarded = [sid for sid in group.trees if group.children_of("seed", sid)]
        assert forwarded == [stream_id]
        assert not any(group.children_of("leaf", sid) for sid in group.trees)


class TestMultiLSC:
    def test_viewers_are_routed_to_their_regional_lsc(self, producers, flat_delay_model, layer_config, default_view):
        cdn = CDN(10_000.0, delta=60.0)
        gsc = GlobalSessionController(cdn, flat_delay_model, layer_config)
        gsc.register_producer_streams([s for site in producers for s in site.streams])
        gsc.add_lsc("LSC-0", region_name="us-east")
        gsc.add_lsc("LSC-1", region_name="europe")
        east = Viewer(viewer_id="v-east", region_name="us-east", outbound_capacity_mbps=6.0)
        west = Viewer(viewer_id="v-eu", region_name="europe", outbound_capacity_mbps=6.0)
        gsc.lsc_for_viewer(east).join(east, default_view)
        gsc.lsc_for_viewer(west).join(west, default_view)
        assert gsc.lsc("LSC-0").session_of("v-east") is not None
        assert gsc.lsc("LSC-1").session_of("v-eu") is not None
        assert gsc.lsc_of_connected_viewer("v-east").lsc_id == "LSC-0"
        assert gsc.total_connected_viewers() == 2

    def test_telecast_system_with_multiple_lscs(self, producers, flat_delay_model, layer_config):
        system = TeleCastSystem(
            producers,
            CDN(10_000.0, delta=60.0),
            flat_delay_model,
            layer_config,
            lsc_regions=[["region-0"], ["region-1"]],
        )
        views = build_views(producers, num_views=2, streams_per_site=3)
        for index, viewer in enumerate(make_viewers(6, outbound=6.0)):
            viewer.region_name = f"region-{index % 2}"
            result = system.join_viewer(viewer, views[index % 2])
            assert result.accepted
        assert system.connected_viewer_count == 6
        per_lsc = [len(lsc.sessions) for lsc in system.gsc.lscs]
        assert sorted(per_lsc) == [3, 3]


class TestExperimentsCli:
    def test_list_option(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "13a" in out and "15b" in out

    def test_no_arguments_lists_figures(self, capsys):
        assert main([]) == 0
        assert "14c" in capsys.readouterr().out

    def test_unknown_figure_errors(self):
        with pytest.raises(SystemExit):
            main(["99z"])

    def test_invalid_viewer_count_errors(self):
        with pytest.raises(SystemExit):
            main(["14a", "--viewers", "0"])

    def test_renders_distribution_figure_at_small_scale(self, capsys):
        assert main(["14b", "--viewers", "40", "--step", "20"]) == 0
        out = capsys.readouterr().out
        assert "Figure 14b" in out
        assert "accepted_streams" in out

    def test_renders_scaling_figure_at_small_scale(self, capsys):
        assert main(["15b", "--viewers", "40", "--step", "20"]) == 0
        out = capsys.readouterr().out
        assert "TeleCast" in out and "Random" in out

    def test_render_figure_rejects_unknown_id(self):
        with pytest.raises(KeyError):
            render_figure("99x", PAPER_CONFIG.with_(num_viewers=10, cdn_capacity_mbps=60.0), 10)

    def test_parser_defaults(self, monkeypatch, capsys):
        parser = build_parser()
        args = parser.parse_args(["13a"])
        assert args.viewers is None  # main() reads it as the paper's population
        assert args.step == 100
        rendered = []
        monkeypatch.setattr(
            "repro.experiments.__main__.render_figure",
            lambda figure_id, config, step: rendered.append((config, step)) or "",
        )
        assert main(["13a"]) == 0
        assert rendered == [(PAPER_CONFIG, 100)]

    def test_no_arguments_mentions_run_subcommand(self, capsys):
        assert main([]) == 0
        assert "run:" in capsys.readouterr().out


class TestRunSubcommand:
    def test_run_telecast_small_scale(self, capsys):
        assert main(["run", "--viewers", "40", "--lscs", "2"]) == 0
        out = capsys.readouterr().out
        assert "telecast:" in out
        assert "acceptance=" in out
        assert "phase breakdown" not in out

    def test_run_profile_prints_phase_breakdown(self, capsys):
        assert main(["run", "--viewers", "40", "--profile", "--replay-frames", "3"]) == 0
        out = capsys.readouterr().out
        assert "phase breakdown (wall clock):" in out
        for phase in ("build", "join", "replay", "metrics", "total"):
            assert phase in out
        # --replay-frames alone is the reference-mode simulated replay.
        assert "(0 lost, 0 late), continuity=1.0000" in out

    def test_run_random_system(self, capsys):
        assert main(["run", "--viewers", "40", "--system", "random"]) == 0
        assert "random:" in capsys.readouterr().out

    def test_run_simulated_data_plane_prints_qoe(self, capsys):
        assert (
            main(
                [
                    "run", "--viewers", "40", "--data-plane",
                    "--loss-rate", "0.05", "--replay-frames", "40",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "data plane:" in out
        assert "continuity=" in out

    def test_run_data_plane_unconstrained_bandwidth(self, capsys):
        assert (
            main(
                [
                    "run", "--viewers", "40", "--data-plane",
                    "--bandwidth-headroom", "inf", "--replay-frames", "20",
                ]
            )
            == 0
        )
        assert "0 late" in capsys.readouterr().out

    def test_run_rejects_data_plane_with_random(self):
        with pytest.raises(SystemExit):
            main(["run", "--system", "random", "--data-plane"])

    def test_run_rejects_invalid_loss_rate(self):
        with pytest.raises(SystemExit):
            main(["run", "--data-plane", "--loss-rate", "1.5"])

    def test_run_rejects_non_positive_headroom(self):
        with pytest.raises(SystemExit):
            main(["run", "--data-plane", "--bandwidth-headroom", "0"])

    def test_run_rejects_replay_with_random(self):
        with pytest.raises(SystemExit):
            main(["run", "--system", "random", "--replay-frames", "3"])

    def test_run_rejects_invalid_population(self):
        with pytest.raises(SystemExit):
            main(["run", "--viewers", "0"])
