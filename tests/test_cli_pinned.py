"""The CLI's printed text, pinned before ``run`` was rerouted through the runner.

``tests/golden/cli_outputs.json`` was captured at the parent of the
one-run change, when ``python -m repro.experiments run`` still spelled
``build -> build_telecast_system -> run_workload`` itself.  Routed
through ``run_telecast_scenario`` it must print the same bytes: stdout of
five flag sets (every set runs at ``--viewers 80`` to stay a tier-1
test), wall-clock fields masked by :data:`WALL_CLOCK`, and the ``--help``
text of every subcommand (no flag added or removed).  The ``figures``
entries (``--list`` and one scaling / one distribution table) were
captured at the parent of the one-figure-registry change, when
``render_figure`` was an if-chain.  ``run.profile_replay`` and
``help.run`` were re-captured when ``--replay-frames`` alone moved from
the engine-free replay to the simulated plane's reference mode: the
replay now prints the data-plane line, with the 1131 deliveries the
engine-free replay counted.  ``run.data_plane``, the one lossy replay,
was re-captured each time the source of a link's losses changed (a
generator keyed by the edge, then a keyed hash of the plane seed, the
edge and the frame number).

Regenerate (only for an intentional output change) with
``PYTHONPATH=src python tests/test_cli_pinned.py``.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import re
import warnings
from pathlib import Path

import pytest

from repro.core.dataplane import OverlayDataPlane
from repro.experiments import __main__ as cli
from repro.experiments.config import PAPER_CONFIG
from repro.experiments.runner import run_telecast_scenario
from repro.sim.rng import SeededRandom
from repro.traces.teeve import TeeveSessionTrace

GOLDEN_PATH = Path(__file__).parent / "golden" / "cli_outputs.json"

SCALE = ["--viewers", "80"]

RUN_FLAG_SETS = {
    "default": [],
    "profile_replay": ["--profile", "--replay-frames", "3"],
    "data_plane": ["--data-plane", "--loss-rate", "0.02"],
    "simulated_control": ["--control-plane", "simulated"],
    "sharded": ["--lscs", "4", "--shards", "2"],
}

#: Figure-mode invocations: ``--list`` and one table of each renderer.
FIGURE_ARGS = {
    "list": ["--list"],
    "13c_viewers120_step40": ["13c", "--viewers", "120", "--step", "40"],
    "14a_viewers120": ["14a", "--viewers", "120"],
}

HELP_PARSERS = {
    "run": cli.build_run_parser,
    "sweep": cli.build_sweep_parser,
    "scenario": cli.build_scenario_parser,
    "compare": cli.build_compare_parser,
    "serve": cli.build_serve_parser,
}

#: Every wall-clock field the ``run`` subcommand prints: the elapsed
#: total, the ``--profile`` table's padded ms and share columns, and the
#: per-worker telemetry of a sharded run.  Simulated-time fields
#: (``clock=``, ``startup p95=``, ``playout skew``) stay unmasked.
WALL_CLOCK = re.compile(
    r"\d+\.\d+(?=s wall clock|s busy=|s barrier_wait=|s finalize=|s maxrss=)"
    r"| +\d+\.\d+(?= ms\b)"
    r"|(?<= ms ) +\d+\.\d(?=%)"
    r"|\d+(?=MiB)"
    r"|(?<=busy\) = )\d+\.\d+"
)


def run_stdout(flags) -> str:
    """Masked stdout of one ``run`` invocation."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the sharded run's CDN-cap notice
        assert cli.main(["run", *SCALE, *flags]) == 0
    return WALL_CLOCK.sub("#", out.getvalue())


def figure_stdout(arguments) -> str:
    """Stdout of one figure-mode invocation (simulated numbers only)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(arguments) == 0
    return out.getvalue()


def help_text(name: str) -> str:
    previous = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        return HELP_PARSERS[name]().format_help()
    finally:
        if previous is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = previous


@pytest.mark.parametrize("name", sorted(RUN_FLAG_SETS))
def test_run_prints_the_pinned_text(name):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert run_stdout(RUN_FLAG_SETS[name]) == golden["run"][name]


@pytest.mark.parametrize("name", sorted(FIGURE_ARGS))
def test_figure_mode_prints_the_pinned_text(name):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert figure_stdout(FIGURE_ARGS[name]) == golden["figures"][name]


@pytest.fixture
def rendered(monkeypatch):
    """Figure ids handed to ``render_figure`` (stubbed: no scenario runs)."""
    calls = []
    monkeypatch.setattr(
        cli, "render_figure", lambda figure_id, config, step: calls.append(figure_id)
    )
    return calls


@pytest.mark.parametrize("spelling", ["13a", "fig13a", "Fig.13a", "FIG13A"])
def test_fig_prefix_is_optional(spelling, rendered):
    assert cli.main([spelling, "--viewers", "20"]) == 0
    assert rendered == ["13a"]


@pytest.mark.parametrize("spelling", ["gif13a", "iii13a"])
def test_fig_prefix_is_a_prefix_not_a_character_set(spelling, rendered, capsys):
    with pytest.raises(SystemExit):
        cli.main([spelling, "--viewers", "20"])
    assert f"unknown figure {spelling!r}" in capsys.readouterr().err
    assert rendered == []


@pytest.mark.parametrize("name", sorted(HELP_PARSERS))
def test_help_is_byte_identical(name):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert help_text(name) == golden["help"][name]


def test_cli_module_imports_no_system_internals():
    # The CLI is argparse, calls into runner / sweep / scenarios / service
    # / parallel, and prints: nothing from the layers below the runner.
    tree = ast.parse(Path(cli.__file__).read_text())
    imported = [
        node.module if isinstance(node, ast.ImportFrom) else alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    below = ("repro.core", "repro.sim", "repro.traces")
    assert [name for name in imported if name and name.startswith(below)] == []


@pytest.mark.parametrize(
    "arguments, message",
    [
        # Rejected by ExperimentConfig / DataPlaneConfig / the sweep and
        # compare entry points, reported through the one bridge.
        (["run", "--viewers", "0"], "num_viewers must be > 0"),
        (["run", "--lscs", "0"], "num_lscs must be > 0"),
        (["run", "--shards", "0"], "shard_workers must be > 0"),
        (["run", "--shards", "2", "--data-plane"], "shard_workers > 1 requires"),
        (["run", "--data-plane", "--loss-rate", "1.5"], "loss_rate must be in [0, 1)"),
        (["run", "--bandwidth-headroom", "0"], "bandwidth_headroom must be > 0"),
        (["sweep", "scale", "--lscs", "0"], "num_lscs must be > 0"),
        (["scenario", "outage", "--viewers", "0"], "num_viewers must be > 0"),
        (["14a", "--viewers", "-3"], "num_viewers must be > 0"),
        (["run", "--replay-frames", "-1"], "max_frames_per_stream must be >= 0"),
        # --replay-frames alone is the reference-mode simulated replay.
        (["run", "--shards", "2", "--replay-frames", "3"], "shard_workers > 1 requires"),
        # Refused by run_random_scenario, by field name.
        (
            ["run", "--system", "random", "--shards", "2"],
            "the Random baseline cannot run shard_workers=2",
        ),
        (
            ["run", "--system", "random", "--replay-frames", "3"],
            "the Random baseline cannot run data_plane='simulated'",
        ),
        (
            ["run", "--system", "random", "--data-plane"],
            "the Random baseline cannot run data_plane='simulated'",
        ),
        (
            ["run", "--system", "random", "--control-plane", "simulated"],
            "the Random baseline cannot run control_plane='simulated'",
        ),
        # NaN fails every comparison, so only ``not value > 0`` refuses it.
        (["run", "--heartbeat-period", "nan"], "heartbeat_period must be > 0"),
        # Rejected by ServeConfig and the snapshot cadence's check, through
        # the same bridge.
        (["run", "--snapshot-every", "-7"], "snapshot_every must be >= 0"),
        (["serve", "--viewers", "0"], "num_viewers must be > 0"),
        (["serve", "--heartbeat-period", "0"], "heartbeat_period must be > 0"),
        (["serve", "--dilation", "-2", "--max-wall-seconds", "0"], "time_dilation must be >= 0"),
        (["serve", "--dilation", "nan", "--max-wall-seconds", "0"], "time_dilation must be >= 0"),
        (["serve", "--max-wall-seconds", "-1"], "max_wall_seconds must be >= 0"),
        # CLI floors: a population step below 10, a sweep with no worker.
        (["13c", "--viewers", "20", "--step", "5"], "--step must be >= 10"),
        (["sweep", "smoke", "--step", "5", "--no-store"], "--step must be >= 10"),
        (["sweep", "smoke", "--jobs", "0", "--no-store"], "--jobs must be >= 1"),
        (["serve", "--control-delay-scale", "inf"], "control_delay_scale must be finite"),
        # Accepted, the daemon paced its clock to inf and hung on its first tick.
        (["serve", "--dilation", "inf", "--max-wall-seconds", "0"], "time_dilation must be finite"),
        # Accepted, each flag was read by a plane the run did not use.
        (["run", "--viewers", "20", "--loss-rate", "0.02"], "--loss-rate requires --data-plane"),
        (
            ["run", "--viewers", "20", "--bandwidth-headroom", "2"],
            "--bandwidth-headroom requires --data-plane",
        ),
        (
            ["run", "--viewers", "20", "--heartbeat-period", "5"],
            "--heartbeat-period requires --control-plane simulated",
        ),
        # The reference replay sets neither field from its flag.
        (
            ["run", "--viewers", "20", "--replay-frames", "3", "--loss-rate", "0.02"],
            "--loss-rate requires --data-plane",
        ),
        (
            ["run", "--viewers", "20", "--replay-frames", "3", "--bandwidth-headroom", "2"],
            "--bandwidth-headroom requires --data-plane",
        ),
    ],
)
def test_invalid_values_are_usage_errors_in_the_library_s_words(
    arguments, message, capsys
):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(arguments)
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err


def test_reference_replay_delivers_what_the_offline_plane_does():
    # ``run --replay-frames N`` without --data-plane replays through the
    # simulated plane in reference mode; it must deliver every frame the
    # engine-free replay delivers over the identically built overlay.
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["run", *SCALE, "--replay-frames", "3"]) == 0
    counts = re.search(
        r"data plane: (\d+)/(\d+) frames delivered \((\d+) lost, (\d+) late\)",
        out.getvalue(),
    )
    assert counts is not None, out.getvalue()
    delivered, sent, lost, late = map(int, counts.groups())

    config = PAPER_CONFIG.with_scaled_population(80, num_lscs=3)
    system = run_telecast_scenario(config, snapshot_every=None).system
    trace = TeeveSessionTrace(system.producers, rng=SeededRandom(config.seed))
    offline = OverlayDataPlane(system, trace).replay(max_frames_per_stream=3)
    assert len(offline.deliveries) > 0
    assert (delivered, sent, lost, late) == (len(offline.deliveries),) * 2 + (0, 0)


def test_a_replay_that_sends_nothing_still_prints_the_data_plane_line():
    # The frame counters enter the summary only once a frame was sent;
    # the line follows the configured plane, and the QoE fields, which
    # have no samples, stay off it.
    assert run_stdout(["--replay-frames", "0"]).splitlines()[1:] == [
        "data plane: 0/0 frames delivered (0 lost, 0 late)"
    ]


def test_mask_leaves_simulated_time_alone():
    line = "clock=60.0s, 1.46s wall clock, startup p95=61.25s, skew p99=122ms"
    assert WALL_CLOCK.sub("#", line) == (
        "clock=60.0s, #s wall clock, startup p95=61.25s, skew p99=122ms"
    )


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps(
            {
                "run": {name: run_stdout(flags) for name, flags in RUN_FLAG_SETS.items()},
                "figures": {
                    name: figure_stdout(arguments)
                    for name, arguments in FIGURE_ARGS.items()
                },
                "help": {name: help_text(name) for name in HELP_PARSERS},
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")
