"""The concurrent heterogeneous executor and its rebalancing feedback loop.

Two cooperating pieces:

* :class:`ConcurrentExecutor` evaluates every component of a
  multi-instance likelihood in parallel.  Each component gets one
  persistent single-thread worker, so there is exactly one in-flight
  evaluation per BEAGLE instance (instances are not internally
  thread-safe for concurrent API calls) while different instances —
  and therefore different simulated devices — overlap freely.  The
  per-component log-likelihoods are summed in component order, so the
  result is bit-identical to the serial ``sum()`` the partition layer
  performs.

* :class:`RebalancingExecutor` adds the paper conclusion's dynamic load
  balancing for pattern-split workloads: the perf model provides the
  *prior* split (:func:`repro.partition.autoselect.balance_proportions`),
  every evaluation then measures actual per-device time (simulated device
  seconds where the backend models them, wall time otherwise), folds it
  into an EWMA throughput estimate, and — when the predicted imbalance
  exceeds a threshold — recomputes the proportions, re-splits the
  pattern set, and rebuilds the affected instances via
  :meth:`repro.partition.multi.MultiDeviceLikelihood.resplit`.

With a :class:`~repro.resil.RetryPolicy` attached, the executor also
survives device failure (the resilience layer, :mod:`repro.resil`).
Each mechanism below is a thin use of the shared failover core,
:mod:`repro.sched.failover` (DESIGN choice 19):

* **transient** errors (``DeviceError.transient``) are retried on the
  same device, bounded by ``max_attempts``, with deterministic
  exponential backoff charged to the device clock where one exists;
* **persistent** failures quarantine every device that failed in the
  round — its worker thread is released, the pattern set is re-split
  across the survivors through the same machinery rebalancing uses,
  and the evaluation is re-run, so the recovered log-likelihood remains
  the component-ordered sum over the surviving split (bit-identical to
  the serial sum over that split);
* quarantined devices are probed every ``probe_interval`` evaluations
  and re-admitted through the resplit path when the probe passes.

Worker exceptions are routed through the ``beagle_*`` error surface:
after any component failure, ``beagle_get_last_error_message`` names
the failing component and device rather than a bare future exception.

Everything is observable: evaluations emit ``executor.*`` spans and
metrics, the correction loop emits ``rebalance.*`` spans and counters,
and the resilience path emits ``resil.*`` spans and counters (see the
README's metric-name catalog).
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis import locksan
from repro.obs import NULL_TRACER
from repro.partition.autoselect import proportions_from_rates
from repro.sched.failover import (
    ComponentTiming,
    QuarantineRecord,
    QuarantineTable,
    RateTable,
    call_with_retries,
    run_failover_rounds,
    timed_call,
)
from repro.sched.workers import LabelledWorkerPool

__all__ = [
    "ConcurrentExecutor",
    "FailoverEvent",
    "RebalanceEvent",
    "RebalancingExecutor",
]


@dataclass
class RebalanceEvent:
    """One executed rebalance: what moved and why."""

    evaluation: int
    imbalance: float
    old_proportions: List[float]
    new_proportions: List[float]
    rebuilt: List[str] = field(default_factory=list)


@dataclass
class FailoverEvent:
    """One executed failover: which device was lost and what it cost."""

    evaluation: int
    label: str
    error: str
    survivors: List[str]
    rebuilt: List[str]
    #: Measured work discarded from the failed round (the survivors'
    #: completed shard evaluations whose results could not be used).
    wasted_s: float


#: One round's per-component outcome: (label, component, value, timing,
#: exception) with exactly one of value/exception present.
_Outcome = Tuple[
    str, Any, Optional[float], Optional["ComponentTiming"],
    Optional[BaseException],
]


def _component_labels(likelihood: Any) -> List[str]:
    """Display labels for a multi-instance likelihood's components."""
    if hasattr(likelihood, "labels"):
        return list(likelihood.labels)
    if hasattr(likelihood, "partitions"):
        return [part.name for part in likelihood.partitions]
    return [str(i) for i in range(len(likelihood.components))]


class ConcurrentExecutor:
    """Evaluate a multi-instance likelihood's components in parallel.

    Parameters
    ----------
    likelihood:
        Anything exposing ``components`` (a list of
        :class:`~repro.core.highlevel.TreeLikelihood`) — in practice a
        :class:`~repro.partition.MultiDeviceLikelihood` or
        :class:`~repro.partition.PartitionedLikelihood`.
    tracer, metrics:
        Observability sinks for the ``executor.*`` spans and metrics.
        Default to the first component's attached tracer/metrics, so an
        instrumented likelihood (``likelihood.instrument(...)``) needs no
        extra wiring.
    retry_policy:
        Optional :class:`~repro.resil.RetryPolicy`.  Without one, any
        component failure propagates immediately (the pre-resilience
        behaviour).  With one, transient errors retry in place and —
        when the likelihood supports ``drop_device`` — persistent
        device failures quarantine the device and fail the patterns
        over to the survivors (:mod:`repro.sched.failover`).

    The executor owns only its worker threads; closing it leaves the
    likelihood usable (and serially evaluable).  Use as a context
    manager or call :meth:`shutdown`.
    """

    def __init__(self, likelihood: Any, tracer: Any = None,
                 metrics: Any = None,
                 retry_policy: Any = None) -> None:
        if not getattr(likelihood, "components", None):
            raise ValueError("likelihood has no components to execute")
        self.likelihood = likelihood
        first = likelihood.components[0]
        self._tracer = tracer if tracer is not None else first.tracer
        self._metrics = metrics if metrics is not None else first.metrics
        if self._tracer is None:
            self._tracer = NULL_TRACER
        self._retry_policy = retry_policy
        # One single-thread worker per device label: exactly one
        # in-flight evaluation per instance, overlap across instances.
        # Created on demand so quarantine/readmit can retire and revive
        # workers without index bookkeeping.
        self._pool = LabelledWorkerPool()
        #: Coordinator state below is single-thread-owned by contract
        #: (one thread drives the executor; workers never touch it).
        #: The sanitizer enforces that contract when enabled.
        self._coord_state = locksan.scoped_name("executor.state")
        self._last_timings: List[ComponentTiming] = []
        self._evaluations = 0
        self._closed = False
        self._failover_events: List[FailoverEvent] = []
        self._quarantine = QuarantineTable()

    # -- evaluation --------------------------------------------------------

    @property
    def labels(self) -> List[str]:
        return _component_labels(self.likelihood)

    @property
    def evaluations(self) -> int:
        """How many concurrent evaluations have run."""
        return self._evaluations

    @property
    def retry_policy(self) -> Any:
        return self._retry_policy

    def timings(self) -> List[ComponentTiming]:
        """Per-component timings of the most recent evaluation."""
        locksan.access(self._coord_state, write=False)
        return list(self._last_timings)

    def critical_path_s(self) -> float:
        """The slowest component's measured time in the last evaluation.

        With perfect overlap this is the evaluation's cost; the gap to
        ``sum(t.measured_s)`` is what concurrency bought.
        """
        if not self._last_timings:
            return 0.0
        return max(t.measured_s for t in self._last_timings)

    def failover_events(self) -> List[FailoverEvent]:
        """Every executed failover, oldest first."""
        locksan.access(self._coord_state, write=False)
        return list(self._failover_events)

    def quarantined(self) -> Dict[str, QuarantineRecord]:
        """Currently quarantined devices, by label."""
        locksan.access(self._coord_state, write=False)
        return self._quarantine.records()

    def _worker_for(self, label: str) -> ThreadPoolExecutor:
        return self._pool.worker_for(label)

    def _run_component(
        self, component: Any, label: str, parent_id: Optional[str],
        method: str, args: Tuple[Any, ...],
    ) -> Tuple[float, ComponentTiming]:
        call = getattr(component, method)
        impl = component.instance.impl
        tracer = self._tracer

        def attempt() -> float:
            if not tracer.enabled:
                return call(*args)
            with tracer.span(
                "executor.component",
                kind="component",
                parent_id=parent_id,
                label=label,
                backend=component.instance.details.implementation_name,
                patterns=component.pattern_count,
            ) as span:
                value = call(*args)
                span.attrs["value"] = value
                return value

        return call_with_retries(
            self._retry_policy,
            partial(timed_call, impl, label, component.pattern_count, attempt),
            impl=impl,
            salt=label,
            charge="resil.retry-backoff",
            on_retry=partial(self._note_retry, label),
        )

    def _note_retry(self, label: str, attempt: int, exc: BaseException,
                    delay: float) -> None:
        tracer = self._tracer
        if tracer.enabled:
            tracer.event(
                "resil.retry",
                kind="resil",
                label=label,
                attempt=attempt,
                error=f"{type(exc).__name__}: {exc}",
                delay_s=delay,
            )
        metrics = self._metrics
        if metrics is not None:
            metrics.counter("resil.retries").inc()
            metrics.histogram("resil.retry.delay_s").observe(delay)

    def _record_component_failure(self, label: str, component: Any,
                                  exc: BaseException) -> None:
        """Satellite contract: worker failures reach the ``beagle_*``
        error surface with the failing component/device named."""
        from repro.core.api import _record_failure

        try:
            backend = component.instance.details.implementation_name
        except Exception:
            backend = "unknown"
        _record_failure(f"executor.component[{label}]@{backend}", exc)

    def _submit_round(self, method: str, args: Tuple[Any, ...],
                      parent_id: Optional[str]) -> List[_Outcome]:
        """Run one concurrent round; every future is always collected.

        Returns ``(label, component, value, timing, exc)`` per
        component — exceptions are captured, not raised, so no worker
        is abandoned mid-flight and the caller sees the full outcome of
        the round (needed both for failover and for wasted-work
        accounting).
        """
        submitted = [
            (
                label,
                component,
                self._worker_for(label).submit(
                    self._run_component, component, label, parent_id,
                    method, args,
                ),
            )
            for component, label in zip(
                self.likelihood.components, self.labels
            )
        ]
        outcomes: List[_Outcome] = []
        for label, component, future in submitted:
            try:
                value, timing = future.result()
                outcomes.append((label, component, value, timing, None))
            except Exception as exc:
                outcomes.append((label, component, None, None, exc))
        return outcomes

    def _failover(self, label: str, exc: BaseException,
                  wasted_s: float) -> None:
        """Quarantine *label* and re-split its patterns over survivors."""
        error = f"{type(exc).__name__}: {exc}"
        tracer = self._tracer
        if tracer.enabled:
            with tracer.span(
                "resil.failover",
                kind="resil",
                label=label,
                error=error,
                wasted_s=wasted_s,
            ) as span:
                rebuilt = self.likelihood.drop_device(label)
                span.attrs["survivors"] = ",".join(self.labels)
                span.attrs["rebuilt"] = ",".join(rebuilt)
        else:
            rebuilt = self.likelihood.drop_device(label)
        # The lost device's worker is released immediately — failover
        # must never leak threads.
        self._pool.retire(label, wait=True)
        self._quarantine.add(label, exc, self._evaluations)
        self._failover_events.append(
            FailoverEvent(
                evaluation=self._evaluations,
                label=label,
                error=error,
                survivors=self.labels,
                rebuilt=rebuilt,
                wasted_s=wasted_s,
            )
        )
        metrics = self._metrics
        if metrics is not None:
            metrics.counter("resil.failover.events").inc()
            metrics.counter("resil.quarantines").inc()
            metrics.histogram("resil.failover.wasted_s").observe(wasted_s)
            metrics.gauge("resil.quarantined").set(len(self._quarantine))

    def _maybe_probe(self) -> None:
        """Probe quarantined devices for recovery; re-admit on success."""
        policy = self._retry_policy
        if policy is None or not hasattr(self.likelihood, "readmit_device"):
            return
        metrics = self._metrics
        tracer = self._tracer
        for label in self._quarantine.due(
            self._evaluations, policy.probe_interval
        ):
            if metrics is not None:
                metrics.counter("resil.probes").inc()
            try:
                self.likelihood.readmit_device(label)
                index = self.labels.index(label)
                component = self.likelihood.components[index]
                # One direct test evaluation; its value is discarded.
                component.log_likelihood()
            except Exception as exc:
                if label in self.labels:
                    self.likelihood.drop_device(label)
                if tracer.enabled:
                    tracer.event(
                        "resil.probe", kind="resil", label=label,
                        healthy=False,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                continue
            if tracer.enabled:
                tracer.event(
                    "resil.probe", kind="resil", label=label, healthy=True
                )
            self._quarantine.release(label)
            if metrics is not None:
                metrics.counter("resil.readmissions").inc()
                metrics.gauge("resil.quarantined").set(len(self._quarantine))

    def _evaluate_resilient(self, method: str, args: Tuple[Any, ...],
                            parent_id: Optional[str]) -> float:
        locksan.access(self._coord_state)
        self._maybe_probe()
        policy = self._retry_policy
        if not hasattr(self.likelihood, "drop_device"):
            policy = None  # nothing to fail over to: errors propagate
        t0 = time.perf_counter()
        outcomes: List[_Outcome] = []

        def run_round(attempt: int) -> List[Tuple[str, BaseException]]:
            outcomes[:] = self._submit_round(method, args, parent_id)
            failures: List[Tuple[str, BaseException]] = []
            for label, component, _, _, exc in outcomes:
                if exc is not None:
                    self._record_component_failure(label, component, exc)
                    failures.append((label, exc))
            return failures

        def quarantine(label: str, exc: BaseException) -> None:
            # The survivors' completed shard evaluations from this
            # round are discarded — that is the recovery's overhead.
            wasted = sum(
                timing.measured_s
                for _, _, _, timing, _ in outcomes
                if timing is not None
            )
            self._failover(label, exc, wasted)

        run_failover_rounds(
            policy, len(self.likelihood.components), run_round, quarantine
        )
        self._last_timings = [
            timing for _, _, _, timing, _ in outcomes if timing is not None
        ]
        self._evaluations += 1
        wall = time.perf_counter() - t0
        metrics = self._metrics
        if metrics is not None:
            metrics.counter("executor.evaluations").inc()
            metrics.gauge("executor.components").set(len(outcomes))
            metrics.gauge("executor.wall_s").set(wall)
            metrics.gauge("executor.critical_path_s").set(
                self.critical_path_s()
            )
            component_s = metrics.histogram("executor.component_s")
            for timing in self._last_timings:
                component_s.observe(timing.measured_s)
                metrics.gauge(
                    f"executor.component_s.{timing.label}"
                ).set(timing.measured_s)
        # Sum in component order: bit-identical to the serial sum.
        return float(sum(value for _, _, value, _, _ in outcomes))

    def _evaluate(self, method: str, *args: Any) -> float:
        if self._closed:
            raise RuntimeError("executor has been shut down")
        tracer = self._tracer
        if tracer.enabled:
            with tracer.span(
                "executor.evaluate",
                kind="executor",
                method=method,
                n_components=len(self.likelihood.components),
            ) as span:
                # Captured inside the span: component spans emitted on
                # worker threads parent under this evaluation.
                value = self._evaluate_resilient(
                    method, args, tracer.current_span_id
                )
                span.attrs["critical_path_s"] = self.critical_path_s()
                return value
        return self._evaluate_resilient(method, args, None)

    def log_likelihood(self) -> float:
        """Concurrent evaluation; equals the serial per-component sum."""
        return self._evaluate("log_likelihood")

    def update_branch_lengths(self, node_indices: Sequence[int]) -> float:
        """Concurrent incremental re-evaluation after branch edits."""
        return self._evaluate("update_branch_lengths", node_indices)

    def flush(self) -> None:
        """Flush every component's deferred work, concurrently."""
        if self._closed:
            raise RuntimeError("executor has been shut down")
        futures = [
            self._worker_for(label).submit(component.flush)
            for component, label in zip(
                self.likelihood.components, self.labels
            )
        ]
        for f in futures:
            f.result()

    # -- lifecycle ---------------------------------------------------------

    def shutdown(self, wait: bool = True) -> None:
        """Stop the worker threads (the likelihood stays usable).

        Idempotent and exception-safe: repeated calls are no-ops, the
        closed flag is set before any teardown so a failure mid-release
        cannot re-trigger it, and every worker is released even if one
        refuses to shut down cleanly.
        """
        if self._closed:
            return
        self._closed = True
        self._pool.shutdown(wait=wait)

    def __enter__(self) -> "ConcurrentExecutor":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()


class RebalancingExecutor(ConcurrentExecutor):
    """Concurrent execution plus measured-throughput pattern rebalancing.

    Parameters
    ----------
    likelihood:
        A :class:`~repro.partition.MultiDeviceLikelihood` (anything with
        ``resplit``/``proportions`` over one shared pattern set).
    threshold:
        Rebalance when the predicted evaluation time under the current
        split exceeds the balanced optimum by this fraction.  The default
        0.15 matches the acceptance band: converged runs sit within 15%
        of the perf-model optimum.
    alpha:
        EWMA weight of the newest throughput observation per device.
    seed_backends:
        Optional perf-model backend names (one per device request, see
        :func:`repro.partition.autoselect.balance_proportions`) used to
        seed the split *before* the first evaluation — the model as
        prior, measurements as feedback.
    min_evaluations:
        Observations required per device before the first rebalance.
    retry_policy:
        As for :class:`ConcurrentExecutor`; failover re-splits through
        the same resplit machinery the feedback loop uses.
    """

    def __init__(
        self,
        likelihood: Any,
        tracer: Any = None,
        metrics: Any = None,
        threshold: float = 0.15,
        alpha: float = 0.6,
        seed_backends: Optional[Sequence[str]] = None,
        min_evaluations: int = 1,
        retry_policy: Any = None,
    ) -> None:
        if not hasattr(likelihood, "resplit"):
            raise TypeError(
                "rebalancing needs a pattern-split likelihood with "
                "resplit(); got "
                f"{type(likelihood).__name__}"
            )
        rates = RateTable(alpha)
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        super().__init__(
            likelihood, tracer, metrics, retry_policy=retry_policy
        )
        self.threshold = float(threshold)
        self.alpha = rates.alpha
        self.min_evaluations = int(min_evaluations)
        self._rates = rates
        self._events: List[RebalanceEvent] = []
        if seed_backends is not None:
            from repro.partition.autoselect import balance_proportions

            tips = likelihood.tree.n_tips
            prior = balance_proportions(
                tips, likelihood.data.n_patterns, list(seed_backends)
            )
            likelihood.resplit(prior)

    # -- feedback loop -----------------------------------------------------

    @property
    def rates(self) -> Dict[str, float]:
        """Current EWMA throughput estimate per device (patterns/s)."""
        locksan.access(self._coord_state, write=False)
        return self._rates.as_dict()

    def rebalance_events(self) -> List[RebalanceEvent]:
        """Every executed rebalance, oldest first."""
        locksan.access(self._coord_state, write=False)
        return list(self._events)

    def predicted_imbalance(self) -> float:
        """Predicted excess time of the current split over the optimum.

        ``max_i(share_i * N / rate_i) / (N / sum(rate_i)) - 1`` — zero
        when every device is predicted to finish simultaneously.
        """
        if any(label not in self._rates for label in self.labels):
            return 0.0
        shares = self.likelihood.proportions
        n = self.likelihood.data.n_patterns
        rates = [self._rates.rate(label) for label in self.labels]
        worst = max(
            share * n / rate for share, rate in zip(shares, rates)
        )
        optimum = n / sum(rates)
        return worst / optimum - 1.0

    def _update_rates(self) -> None:
        for timing in self._last_timings:
            self._rates.observe(timing.label, timing.rate)

    def _maybe_rebalance(self) -> None:
        metrics = self._metrics
        imbalance = self.predicted_imbalance()
        if metrics is not None:
            metrics.gauge("rebalance.imbalance").set(imbalance)
        if self._evaluations < self.min_evaluations:
            return
        if imbalance <= self.threshold:
            return
        if len(self.labels) < 2:
            return
        n = self.likelihood.data.n_patterns
        k = len(self.labels)
        # Floor each share at one pattern's worth so no device starves
        # (and stay below the uniform share, as the floor must).
        min_share = min(1.0 / n, 0.5 / k)
        new = proportions_from_rates(
            [self._rates.rate(label) for label in self.labels],
            min_share=min_share,
        )
        old = list(self.likelihood.proportions)
        tracer = self._tracer
        if tracer.enabled:
            with tracer.span(
                "rebalance",
                kind="rebalance",
                imbalance=imbalance,
                old=",".join(f"{p:.4f}" for p in old),
                new=",".join(f"{p:.4f}" for p in new),
            ) as span:
                rebuilt = self.likelihood.resplit(new)
                span.attrs["rebuilt"] = ",".join(rebuilt)
        else:
            rebuilt = self.likelihood.resplit(new)
        self._events.append(
            RebalanceEvent(
                evaluation=self._evaluations,
                imbalance=imbalance,
                old_proportions=old,
                new_proportions=list(self.likelihood.proportions),
                rebuilt=rebuilt,
            )
        )
        if metrics is not None:
            metrics.counter("rebalance.events").inc()
            metrics.counter("rebalance.rebuilt_instances").inc(len(rebuilt))
            for label, share in zip(
                self.labels, self.likelihood.proportions
            ):
                metrics.gauge(f"rebalance.share.{label}").set(share)

    def _evaluate(self, method: str, *args: Any) -> float:
        value = super()._evaluate(method, *args)
        self._update_rates()
        self._maybe_rebalance()
        return value
