"""Simulated cluster scheduling: shards onto pod-like worker nodes.

The layer above :mod:`repro.sched`/:mod:`repro.serve`: a pending-job
queue, calibrated bin-packing placement of analysis shards onto
:class:`WorkerNode` fleets, node-loss failover that re-packs a killed
node's shards onto survivors with a bit-identical shard-ordered sum,
and ``cluster.*`` observability.  Front door:
``repro.Session.cluster(...)`` / :class:`ClusterSession`; drill CLI:
``pybeagle-cluster``.
"""

from repro.cluster.node import WorkerNode, prior_rate_for
from repro.cluster.scheduler import (
    ClusterJob,
    ClusterScheduler,
    NodeLossEvent,
    PlacementDecision,
    Shard,
    makespan_lower_bound,
    pack_shards,
    serial_shard_sum,
)
from repro.cluster.session import ClusterSession

__all__ = [
    "ClusterJob",
    "ClusterScheduler",
    "ClusterSession",
    "NodeLossEvent",
    "PlacementDecision",
    "Shard",
    "WorkerNode",
    "makespan_lower_bound",
    "pack_shards",
    "prior_rate_for",
    "serial_shard_sum",
]
