"""Long-lived service mode: daemon, wire protocol, live metrics, snapshots.

Everything else in the repository is batch: build a scenario, replay a
schedule, print a summary, exit.  This package is the serving shell the
ROADMAP's production-traffic story needs -- a daemon
(:mod:`repro.service.daemon`) that drives the event-driven session
against wall-clock pacing, a line-oriented op protocol
(:mod:`repro.service.protocol`) so joins/leaves/view changes arrive
while the overlay is live, a Prometheus-text metrics exporter
(:mod:`repro.service.metrics_export`), durable snapshot/restore of the
full session graph (:mod:`repro.service.snapshot`) and a line-protocol
client with a daemon spawner (:mod:`repro.service.soak`).

Re-exported lazily: a client of the wire protocol does not load the
daemon (and the whole control plane behind it).
"""

from repro.util.lazy import lazy_exports

_EXPORTS = {
    "ServeConfig": "repro.service.daemon",
    "ServiceDaemon": "repro.service.daemon",
    "ServiceState": "repro.service.daemon",
    "Metric": "repro.service.metrics_export",
    "render_metrics": "repro.service.metrics_export",
    "service_metrics": "repro.service.metrics_export",
    "Op": "repro.service.protocol",
    "ProtocolError": "repro.service.protocol",
    "format_op": "repro.service.protocol",
    "parse_op": "repro.service.protocol",
    "SNAPSHOT_VERSION": "repro.service.snapshot",
    "SnapshotError": "repro.service.snapshot",
    "load_snapshot": "repro.service.snapshot",
    "save_snapshot": "repro.service.snapshot",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
