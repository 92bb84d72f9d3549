"""The paper's primary contribution: the 4D TeleCast dissemination framework.

Sub-modules follow the paper's structure:

* :mod:`repro.core.bandwidth` -- priority-based inbound / round-robin
  outbound bandwidth allocation (Section IV-B1),
* :mod:`repro.core.topology` -- per-stream overlay trees and the degree
  push-down algorithm (Section IV-B2, Algorithm 1),
* :mod:`repro.core.routing_table` -- the session routing table (Table I),
* :mod:`repro.core.layering` -- the delay layer hierarchy (Section V-B1),
* :mod:`repro.core.subscription` -- stream subscription / view
  synchronization (Section V-B3),
* :mod:`repro.core.group` / :mod:`repro.core.state` -- view groups and
  per-viewer session state,
* :mod:`repro.core.controllers` -- the GSC and LSC control plane
  (Section III),
* :mod:`repro.core.adaptation` -- view change, victim recovery and delay
  layer adaptation (Section VI),
* :mod:`repro.core.recovery` -- churn and failure recovery: heartbeat
  failure detection, incremental subtree repair and LSC failover (beyond
  the paper: the dynamic-scenario subsystem),
* :mod:`repro.core.telecast` -- the :class:`TeleCastSystem` facade,
* :mod:`repro.core.dataplane` -- frame-level streaming through a built
  overlay (used by examples and synchronization tests).
"""

from repro.core.adaptation import AdaptationManager, DepartureResult, ViewChangeResult
from repro.core.bandwidth import (
    InboundAllocation,
    OutboundAllocation,
    allocate_inbound,
    allocate_outbound,
)
from repro.core.controllers import (
    GSC_NODE_ID,
    GlobalSessionController,
    JoinResult,
    LocalSessionController,
)
from repro.core.group import ViewGroup
from repro.core.layering import DelayLayerConfig, subscription_frame_number
from repro.core.recovery import (
    DEFAULT_HEARTBEAT_TIMEOUT,
    FailoverResult,
    FailureDetector,
    RecoveryManager,
    RepairResult,
    failover_lsc,
)
from repro.core.routing_table import (
    ForwardingAction,
    MatchField,
    RoutingEntry,
    SessionRoutingTable,
)
from repro.core.state import ViewerSession
from repro.core.subscription import SubscriptionPlan, plan_view_synchronization
from repro.core.telecast import TeleCastSystem, build_views
from repro.core.topology import InsertResult, StreamTree, TreeNode

__all__ = [
    "AdaptationManager",
    "DepartureResult",
    "ViewChangeResult",
    "InboundAllocation",
    "OutboundAllocation",
    "allocate_inbound",
    "allocate_outbound",
    "GSC_NODE_ID",
    "GlobalSessionController",
    "JoinResult",
    "LocalSessionController",
    "ViewGroup",
    "DelayLayerConfig",
    "subscription_frame_number",
    "DEFAULT_HEARTBEAT_TIMEOUT",
    "FailoverResult",
    "FailureDetector",
    "RecoveryManager",
    "RepairResult",
    "failover_lsc",
    "ForwardingAction",
    "MatchField",
    "RoutingEntry",
    "SessionRoutingTable",
    "ViewerSession",
    "SubscriptionPlan",
    "plan_view_synchronization",
    "TeleCastSystem",
    "build_views",
    "InsertResult",
    "StreamTree",
    "TreeNode",
]
