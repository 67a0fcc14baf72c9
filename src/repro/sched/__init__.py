"""Concurrent heterogeneous execution across multiple library instances.

The paper's conclusion plans exactly this layer: "computation can be
dynamically load balanced across multiple devices".  The scheduler
evaluates the components of a multi-instance likelihood
(:class:`repro.partition.MultiDeviceLikelihood` or
:class:`repro.partition.PartitionedLikelihood`) concurrently — one
persistent worker per instance, overlapped across backends — and, for
pattern-split workloads, closes the loop from *measured* per-device
throughput back into the split proportions.  The failure path — retry,
quarantine, probe, readmit, rate calibration — lives once in
:mod:`repro.sched.failover`, shared with the cluster and the server.
"""

from repro.sched.executor import (
    ConcurrentExecutor,
    FailoverEvent,
    RebalanceEvent,
    RebalancingExecutor,
)
from repro.sched.failover import ComponentTiming, QuarantineRecord
from repro.sched.workers import LabelledWorkerPool

__all__ = [
    "ComponentTiming",
    "ConcurrentExecutor",
    "FailoverEvent",
    "LabelledWorkerPool",
    "QuarantineRecord",
    "RebalanceEvent",
    "RebalancingExecutor",
]
