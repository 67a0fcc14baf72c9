"""Simulated pod-like worker nodes for the cluster scheduler.

A :class:`WorkerNode` is one machine's worth of simulated devices behind
the same worker discipline the in-process executor uses: one persistent
single-thread worker per device (:class:`~repro.sched.workers.
LabelledWorkerPool`), so a node with ``capacity`` devices evaluates up
to ``capacity`` shards concurrently while each BEAGLE instance still
sees exactly one in-flight call.

The node carries the cluster's calibration state for its machine:

* a **prior** throughput from the perf model
  (:func:`repro.partition.autoselect.predict_throughput`) where the
  device spec names a modelled backend, a neutral weight otherwise;
* an **EWMA** of measured shard rates (patterns per simulated second,
  :class:`~repro.sched.failover.ComponentTiming`), folded in by the
  scheduler after every completed shard — the model seeds the weights,
  measurements own them (:class:`~repro.sched.failover.RateTable`).

Fault injection plugs in at the node level: the scheduler hands each
node the memoized :class:`~repro.resil.faults.FaultInjector` for its
name, and the node consults it once per shard evaluation (wrapper-level
counting, as for :class:`~repro.resil.faults.FaultyComponent`).
Latency spikes advance the evaluating instance's device clock, so a
slow node shows up in the measured rate; device-loss raises from inside
the shard and surfaces to the scheduler as a node failure.  Transient
kernel faults are retried in place under the node's
:class:`~repro.resil.RetryPolicy`, with the deterministic backoff
charged to the device clock (the shared failover core,
:mod:`repro.sched.failover`).
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from functools import partial
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.analysis import locksan
from repro.config import backend_flags
from repro.core.highlevel import TreeLikelihood
from repro.sched.failover import (
    ComponentTiming,
    RateTable,
    call_with_retries,
    device_clock,
    timed_call,
)
from repro.sched.workers import LabelledWorkerPool

__all__ = ["WorkerNode", "prior_rate_for"]

#: EWMA weight of the newest measured shard rate.
_EWMA_ALPHA = 0.5

#: Backend name -> perf-model backend key (``kind:device``) used to seed
#: a node's throughput prior.  Unlisted backends (and raw kwarg specs,
#: whose devices the model cannot see) fall back to a neutral weight;
#: the EWMA feedback then owns the estimate after the first round.
_PERF_MODEL_KEYS: Dict[str, str] = {
    "cuda": "cuda:NVIDIA Quadro P5000",
    "opencl-gpu": "opencl-gpu:AMD Radeon R9 Nano",
    "opencl-x86": "opencl-x86:Intel Xeon E5-2680v4 x2",
    "cpu-vector": "opencl-x86:Intel Xeon E5-2680v4 x2",
    "cpp-threads": "cpp-threads:Intel Xeon E5-2680v4 x2",
}

#: Shard workloads used to scale the perf-model prior.  Only *relative*
#: weights matter for placement, so a fixed reference workload is fine.
_PRIOR_TIPS = 16
_PRIOR_PATTERNS = 10_000

DeviceRequest = Union[str, Mapping[str, Any]]


def prior_rate_for(spec: DeviceRequest) -> float:
    """Relative throughput prior for one device spec.

    Backend *names* are scored with the calibrated perf model on a
    reference workload; kwarg specs (custom managers, slowed catalog
    devices) get a neutral ``1.0`` — the measured EWMA takes over after
    the node's first completed shard either way.
    """
    if not isinstance(spec, str):
        return 1.0
    key = _PERF_MODEL_KEYS.get(spec)
    if key is None:
        return 1.0
    from repro.partition.autoselect import predict_throughput

    try:
        gflops = predict_throughput(key, _PRIOR_TIPS, _PRIOR_PATTERNS)
    except Exception:
        return 1.0
    return max(float(gflops), 1e-6)


class WorkerNode:
    """One simulated machine: named devices, workers, and calibration.

    Parameters
    ----------
    name:
        The node's cluster-wide label (also the fault-injection label).
    devices:
        Device label -> backend name (from
        :data:`~repro.config.BACKEND_FLAGS`) or raw instance keyword
        mapping, exactly as ``MultiDeviceSession`` device requests.
    retry_policy:
        Transient shard failures retry in place under this policy; the
        backoff is charged to the shard instance's device clock.
    """

    def __init__(
        self,
        name: str,
        devices: Mapping[str, DeviceRequest],
        *,
        retry_policy: Any = None,
        tracer: Any = None,
        metrics: Any = None,
    ) -> None:
        if not devices:
            raise ValueError(f"node {name!r} needs at least one device")
        self.name = name
        self.device_specs: Dict[str, DeviceRequest] = {
            label: (spec if isinstance(spec, str) else dict(spec))
            for label, spec in devices.items()
        }
        self.device_kwargs: Dict[str, Dict[str, Any]] = {
            label: (
                backend_flags(spec) if isinstance(spec, str) else dict(spec)
            )
            for label, spec in self.device_specs.items()
        }
        self._retry_policy = retry_policy
        self._tracer = tracer
        self._metrics = metrics
        self._pool = LabelledWorkerPool(thread_name_prefix=f"node-{name}")
        #: Calibration/dispatch state below is driven by the scheduler
        #: under its state lock (readers copy under the same lock); the
        #: sanitizer verifies that contract when enabled.
        self._coord_state = locksan.scoped_name(f"cluster.node[{name}].state")
        #: Device workers of one node consult the shared injector
        #: concurrently, so its counter needs a real lock.
        self._injector_lock = locksan.instrument(
            threading.Lock(),
            locksan.scoped_name(f"cluster.node[{name}].injector"),
        )
        self._injector_state = locksan.scoped_name(
            f"cluster.node[{name}].injector-state"
        )
        self._injector: Any = None
        self._dispatched = 0
        self._completed = 0
        self._prior = sum(
            prior_rate_for(spec) for spec in self.device_specs.values()
        ) / len(self.device_specs)
        self._rates = RateTable(_EWMA_ALPHA, prior=self._prior)

    # -- calibration -------------------------------------------------------

    @property
    def capacity(self) -> int:
        """Concurrent shard slots (one per device)."""
        return len(self.device_specs)

    @property
    def prior_rate(self) -> float:
        """Perf-model throughput prior per device (relative units)."""
        return self._prior

    @property
    def rate(self) -> float:
        """Calibrated per-device rate: EWMA if measured, prior otherwise."""
        locksan.access(self._coord_state, write=False)
        return self._rates.rate(self.name)

    @property
    def effective_rate(self) -> float:
        """Node-level rate the bin-packer weighs: per-device rate times
        capacity (``capacity`` shards progress concurrently)."""
        return self.rate * self.capacity

    @property
    def calibrated(self) -> bool:
        """Whether any measured shard has refined the prior."""
        locksan.access(self._coord_state, write=False)
        return self.name in self._rates

    @property
    def completed(self) -> int:
        """Shards completed on this node."""
        locksan.access(self._coord_state, write=False)
        return self._completed

    def observe(self, timing: ComponentTiming) -> None:
        """Fold one measured shard time into the EWMA rate.

        Called by the scheduler's dispatch thread after it collects the
        shard result, so rate state stays single-owner.
        """
        locksan.access(self._coord_state)
        self._completed += 1
        self._rates.observe(self.name, timing.rate)

    # -- fault injection ---------------------------------------------------

    def set_injector(self, injector: Any) -> None:
        """Attach the node's (memoized) fault injector."""
        self._injector = injector

    def _consult_injector(self, clock: Any) -> None:
        injector = self._injector
        if injector is None:
            return
        with self._injector_lock:
            locksan.access(self._injector_state)
            injector.on_event(clock)

    def probe(self) -> bool:
        """One recovery probe against the fault schedule.

        Consumes one interception event (probes count, exactly as the
        executor's quarantine probes do), returning whether the node
        answered cleanly.
        """
        try:
            self._consult_injector(None)
        except Exception:
            return False
        return True

    # -- shard evaluation --------------------------------------------------

    def next_device(self) -> str:
        """Round-robin device label for the next dispatched shard."""
        locksan.access(self._coord_state)
        labels = list(self.device_specs)
        label = labels[self._dispatched % len(labels)]
        self._dispatched += 1
        return label

    def submit_shard(
        self, shard: Any, parent_span: Optional[int] = None
    ) -> "Future[Tuple[float, ComponentTiming]]":
        """Queue one shard on the node's next device worker."""
        device = self.next_device()
        return self._pool.submit(
            device, self._evaluate_shard, shard, device, parent_span
        )

    def _note_retry(self, device: str, attempt: int, exc: BaseException,
                    delay: float) -> None:
        tracer = self._tracer
        if tracer is not None and tracer.enabled:
            tracer.event(
                "cluster.retry",
                kind="cluster",
                node=self.name,
                device=device,
                attempt=attempt,
                error=f"{type(exc).__name__}: {exc}",
                delay_s=delay,
            )
        if self._metrics is not None:
            self._metrics.counter("cluster.retries").inc()

    def _evaluate_shard(
        self, shard: Any, device: str, parent_span: Optional[int]
    ) -> Tuple[float, ComponentTiming]:
        """Evaluate one whole shard on one device (worker thread).

        The shard is never split further: its value is a function of
        (shard data, tree, model) alone, so it is bit-identical wherever
        it runs — the invariant the scheduler's re-pack relies on.
        """
        kwargs = dict(self.device_kwargs[device])
        kwargs.update(shard.likelihood_kwargs)
        component = TreeLikelihood(
            shard.tree, shard.data, shard.model, shard.site_model, **kwargs
        )
        try:
            if self._tracer is not None:
                component.instrument(self._tracer, self._metrics)
            impl = component.instance.impl
            clock = device_clock(impl)
            label = f"{self.name}:{device}"

            def attempt() -> float:
                self._consult_injector(clock)
                return float(component.log_likelihood())

            value, timing = timed_call(
                impl, label, shard.patterns,
                partial(
                    call_with_retries, self._retry_policy, attempt,
                    impl=impl, salt=label, charge="cluster.retry-backoff",
                    on_retry=partial(self._note_retry, device),
                ),
            )
            tracer = self._tracer
            if tracer is not None and tracer.enabled:
                with tracer.span(
                    "cluster.shard",
                    kind="cluster",
                    parent_id=parent_span,
                    node=self.name,
                    device=device,
                    shard=shard.key,
                    patterns=shard.patterns,
                ) as span:
                    span.attrs["value"] = value
                    span.attrs["measured_s"] = timing.measured_s
            return value, timing
        finally:
            component.finalize()

    # -- lifecycle ---------------------------------------------------------

    def device_labels(self) -> List[str]:
        return list(self.device_specs)

    def retire(self, wait: bool = True) -> None:
        """Release every device worker (node loss).

        The pool itself stays open, so a later readmission recreates
        workers on demand.
        """
        for label in self.device_specs:
            self._pool.retire(label, wait=wait)

    def shutdown(self, wait: bool = True) -> None:
        """Permanently stop the node's workers (idempotent)."""
        self._pool.shutdown(wait=wait)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"WorkerNode({self.name!r}, devices={list(self.device_specs)}, "
            f"rate={self.rate:.1f})"
        )
