"""Resilience layer: fault injection, retry/failover, checkpoint/restore.

The paper's heterogeneous multi-device design assumes every device
survives the whole analysis; this package is what happens when one
doesn't.  Three cooperating pieces:

* :mod:`repro.resil.faults` — deterministic, serializable fault plans
  installable on simulated backends (hardware level) or any
  implementation (wrapper level);
* :mod:`repro.resil.retry` — retry/failover policies with bounded
  attempts and deterministic backoff, implemented once by the shared
  failover core :mod:`repro.sched.failover`;
* :mod:`repro.resil.checkpoint` — atomic, manifest-hashed MCMC
  snapshots with bit-exact resume.

Every public entry point routes failures through the ``beagle_*`` error
surface (see :mod:`repro.resil._surface`), a contract enforced by the
``resil-unrouted-entrypoint`` lint rule.
"""

from repro.resil._surface import resil_entrypoint
from repro.resil.checkpoint import (
    CHECKPOINT_FORMAT,
    load_checkpoint,
    restore_mcmc,
    save_checkpoint,
    snapshot_mcmc,
)
from repro.resil.faults import (
    FAULT_KINDS,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    FaultyComponent,
    install_fault_injector,
    install_fault_plan,
)
from repro.resil.retry import DEFAULT_RETRY_POLICY, RetryPolicy

__all__ = [
    "CHECKPOINT_FORMAT",
    "DEFAULT_RETRY_POLICY",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultyComponent",
    "RetryPolicy",
    "install_fault_injector",
    "install_fault_plan",
    "load_checkpoint",
    "resil_entrypoint",
    "restore_mcmc",
    "save_checkpoint",
    "snapshot_mcmc",
]
