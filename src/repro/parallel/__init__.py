"""Shard-parallel session engine: process-per-LSC workers.

The paper's control plane is already partitioned -- one GSC, per-region
LSCs, each LSC owning its region's view groups and stream trees -- and
this package turns that partition into process parallelism: every group
of LSCs runs its controller, trees and event loop in its own worker
process (:mod:`repro.parallel.worker`), while cross-shard control
traffic (LSC failover migrations, barrier clocks) crosses a
multiprocessing queue as typed, pickled
:class:`~repro.sim.transport.ControlMessage` records under a coordinator
(:mod:`repro.parallel.runner`).

Same-seed runs stay reproducible: shard-local operations replay with
exact instant-driver semantics inside each worker, and the only
cross-shard operation (``lsc_fail``) applies at a deterministic
min-timestamp barrier -- every shard aligns its simulator clock to the
barrier time before the failover migrates sessions, and the merged run
clock is the max over shard clocks.  See ARCHITECTURE.md
("Shard-parallel engine") for the topology and the determinism
boundaries.

Re-exported lazily: every scenario build asks :mod:`repro.parallel.worker`
for the LSC placement, and a single-process run should not load the
coordinator and ``multiprocessing`` with it.
"""

from repro.util.lazy import lazy_exports

_EXPORTS = {
    "ShardedScenarioResult": "repro.parallel.runner",
    "run_sharded_scenario": "repro.parallel.runner",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
