"""Churn soak against a live ``serve`` daemon (not a paper figure).

Spawns ``python -m repro.experiments serve`` with ``--dilation 0`` (the
client advances simulated time, so the run is a deterministic function
of its sizes) and pushes sliding-window join/leave churn through the TCP
op path: every round pipelines one batch of joins, the departures that
keep the connected window bounded and an ``advance``, and every
:data:`SAMPLE_EVERY` rounds reads the daemon's RSS.  Halfway through it
snapshots the daemon, kills the process, spawns it again with
``--restore`` and compares the placement digest across the restart; it
ends with a data-plane ``replay`` and the full invariant ``check``.  The
churn is timed by ``records.STOPWATCH`` and ``BENCH_soak.json`` is
written in the one record shape (``benchmarks/records.py``) with four
gates:

* ``joins``: joins through the live op path over the target (at least 1);
* ``memory``: :data:`MAX_RSS_GROWTH` minus the RSS plateau ratio, the
  median of the last quarter of samples over that of the second (the
  first quarter is warm-up) -- a margin, at least 0;
* ``invariants``: 1 when the final ``check`` answers ``ok``;
* ``restore``: 1 when the placement digest survived the restart.

Usage::

    PYTHONPATH=src python benchmarks/bench_soak.py          # full: 100k joins
    PYTHONPATH=src python benchmarks/bench_soak.py --quick  # CI: 12k joins
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from statistics import median
from typing import Dict, List, Optional

import records

from repro.service.soak import SoakClient, SoakError, spawn_daemon

#: (joins, viewer pool, connected window, joins per batch) of the full
#: run (the checked-in record) and of ``--quick`` (CI).
FULL = (100_000, 2000, 400, 400)
QUICK = (12_000, 1000, 250, 250)

#: Simulated seconds each round advances; views the joins cycle through;
#: frames per stream of the final replay.
ADVANCE_S, VIEWS, FRAMES = 2.0, 3, 20

#: Rounds between two RSS samples.
SAMPLE_EVERY = 5

#: Largest allowed growth of the RSS plateau.
MAX_RSS_GROWTH = 1.5


def _viewer(index: int, pool: int) -> str:
    return f"viewer-{index % pool:05d}"


def _plateau_ratio(samples: List[int]) -> float:
    """Median of the last quarter of ``samples`` over that of the second."""
    quarter = len(samples) // 4
    return median(samples[-quarter:]) / median(samples[quarter : 2 * quarter])


def soak(joins: int, pool: int, window: int, batch: int, snapshot: str) -> Dict[str, object]:
    """One churn run against a freshly spawned daemon; what it measured."""
    serve = ["--viewers", str(pool), "--lscs", "3", "--dilation", "0", "--seed", "7"]
    serve += ["--port", "0"]
    daemon = spawn_daemon(serve)
    client = SoakClient(daemon.host, daemon.port)
    samples: List[int] = []
    digests: List[str] = []
    joined = left = rounds = 0
    try:
        while joined < joins:
            ops = [f"join {_viewer(i, pool)} {i % VIEWS}" for i in range(joined, joined + batch)]
            joined += batch
            # Once the window is full, every join pairs with the
            # departure of the oldest member.
            ops += [f"leave {_viewer(i, pool)}" for i in range(left, max(left, joined - window))]
            left = max(left, joined - window)
            responses = client.ops(ops + [f"advance {ADVANCE_S:g}"])
            bad = [response for response in responses if not response.startswith("ok")]
            if bad:
                raise SoakError(f"{len(bad)} ops rejected, first: {bad[0]}")
            rounds += 1
            if rounds % SAMPLE_EVERY == 0:
                samples.append(client.stats()["rss_bytes"])
            if not digests and joined >= joins // 2:
                digests.append(client.stats()["placement_digest"])
                client.must(f"snapshot {snapshot}")
                client.close()
                daemon.kill()
                daemon = spawn_daemon(serve + ["--restore", snapshot])
                client = SoakClient(daemon.host, daemon.port)
                digests.append(client.stats()["placement_digest"])
        # Let in-flight traffic settle, then give the QoE invariants samples.
        client.must("advance 30")
        client.must(f"replay {FRAMES}")
        check = client.op("check")
        stats = client.stats()
    finally:
        daemon.quit(client)
        client.close()
    samples.append(stats["rss_bytes"])
    return {
        "joins": joined,
        "leaves": left,
        "rounds": rounds,
        "sim_seconds": stats["sim_time"],
        "rss_samples_bytes": samples,
        "rss_plateau_ratio": _plateau_ratio(samples),
        "digests_across_restore": digests,
        "check": check,
        "final_stats": stats,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"CI mode: {QUICK[0]} joins, recorded under benchmarks/out/",
    )
    args = parser.parse_args(argv)
    joins, pool, window, batch = QUICK if args.quick else FULL
    with tempfile.TemporaryDirectory() as scratch, records.STOPWATCH.bracket() as timed:
        snapshot = os.path.join(scratch, "soak-mid.snap")
        point = timed("churn", lambda: soak(joins, pool, window, batch, snapshot))
    point = {"pool": pool, "window": window, "batch": batch, **point}
    point["timings"] = {"churn": timed.timings["churn"].to_json()}
    before, after = point["digests_across_restore"]
    print(
        f"soak: {point['joins']} joins in {point['rounds']} rounds, "
        f"{point['sim_seconds']:.0f} sim s, "
        f"{timed.timings['churn'].wall_s:.1f} s wall, "
        f"rss plateau {point['rss_plateau_ratio']:.3f}, check: {point['check']}"
    )
    gates = [
        records.gate("joins", 1.0, point["joins"] / joins),
        records.gate("memory", 0.0, MAX_RSS_GROWTH - point["rss_plateau_ratio"]),
        records.gate("invariants", 1.0, float(point["check"].startswith("ok"))),
        records.gate("restore", 1.0, float(before == after)),
    ]
    return records.write("soak", quick=args.quick, points=[point], gates=gates)


if __name__ == "__main__":
    sys.exit(main())
