"""The multi-tenant likelihood server and its client API.

:class:`LikelihoodServer` is the serving front-end the ROADMAP's
"heavy traffic" item asks for: many tenants submit likelihood and
branch-update requests concurrently; the server admits them against
bounded queues (reject-with-backpressure, surfaced through both
:class:`~repro.util.errors.AdmissionError` and the ``beagle_*``
last-error surface), schedules them fairly with weighted deficit
round-robin (:mod:`repro.serve.scheduler`), binds them to warm
instances from the shape-keyed pool (:mod:`repro.serve.pool`), and
executes each batch concurrently on per-instance single-thread workers
(:class:`~repro.sched.LabelledWorkerPool` — the same worker discipline
the heterogeneous executor uses).

Requests within a batch that share a pool key run on instances whose
deferred execution plans batch their matrix and partials levels
(``SessionConfig(deferred=True)``); cross-tenant sharing happens
through instance rebinding, so tenants alternate on one warm instance
instead of each paying a build.

Device loss folds into the resilience machinery: a
:class:`~repro.util.errors.DeviceError` from a pooled instance retires
it, transient errors retry under the config's
:class:`~repro.resil.RetryPolicy` with its deterministic backoff (the
shared retry of :mod:`repro.sched.failover`), and — when the policy
allows failover — persistent losses rebuild a replacement instance (a
bounded failover, mirroring the executor's quarantine path) so every
*accepted* request still completes — bit-identically, because requests
are always evaluated as a full post-order traversal.

Clients can block (``ticket.result()``) or ``await`` the same ticket
from asyncio code; the server core is thread-based so no event loop is
required (and no new dependencies are).
"""

from __future__ import annotations

import asyncio
import math
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.analysis import locksan
from repro.config import SessionConfig
from repro.obs import MetricsRegistry, Tracer
from repro.sched.failover import call_with_retries, failover_enabled
from repro.sched.workers import LabelledWorkerPool
from repro.serve.pool import InstancePool, PoolKey, PooledInstance
from repro.serve.scheduler import DeficitRoundRobin
from repro.util.errors import AdmissionError, DeviceError

__all__ = ["LikelihoodServer", "ServeRequest", "TenantClient", "Ticket"]


@dataclass
class ServeRequest:
    """One unit of tenant work: an analysis and an optional branch edit."""

    tenant: str
    data: Any
    tree: Any
    model: Any
    site_model: Any = None
    #: node index -> new branch length, applied before evaluation.
    branch_edits: Optional[Mapping[int, float]] = None
    cost: float = 1.0

    @property
    def kind(self) -> str:
        return "update" if self.branch_edits else "likelihood"


class Ticket:
    """A submitted request's handle: block on it or ``await`` it."""

    def __init__(self, tenant: str, kind: str) -> None:
        self.tenant = tenant
        self.kind = kind
        self.submitted_at = time.perf_counter()
        self._future: "Future[float]" = Future()

    def done(self) -> bool:
        return self._future.done()

    def result(self, timeout: Optional[float] = None) -> float:
        """The request's log-likelihood (blocks until complete)."""
        return self._future.result(timeout)

    def exception(
        self, timeout: Optional[float] = None
    ) -> Optional[BaseException]:
        return self._future.exception(timeout)

    def __await__(self) -> Any:
        """Awaitable from asyncio without the server owning a loop."""
        return asyncio.wrap_future(self._future).__await__()


class TenantClient:
    """A tenant's bound handle on the server — the whole client API.

    Obtained from :meth:`LikelihoodServer.register`; every submission
    goes through :meth:`submit`, which returns a :class:`Ticket` that
    both synchronous (``.result()``) and asyncio (``await``) callers
    consume directly.
    """

    def __init__(self, server: "LikelihoodServer", name: str) -> None:
        self.server = server
        self.name = name

    def submit(self, data: Any, tree: Any, model: Any,
               site_model: Any = None,
               branch_edits: Optional[Mapping[int, float]] = None,
               cost: float = 1.0) -> Ticket:
        """Queue one request; raises :class:`AdmissionError` when full."""
        return self.server.submit(
            self.name, data, tree, model, site_model,
            branch_edits=branch_edits, cost=cost,
        )

    async def likelihood(self, data: Any, tree: Any, model: Any,
                         site_model: Any = None,
                         branch_edits: Optional[Mapping[int, float]] = None
                         ) -> float:
        """Submit and await in one call (asyncio convenience)."""
        return await self.submit(data, tree, model, site_model,
                                 branch_edits=branch_edits)


class LikelihoodServer:
    """Admit, batch, and fairly schedule concurrent tenant analyses.

    Parameters
    ----------
    config:
        A single-device :class:`~repro.config.SessionConfig`; its
        backend/precision determine the pool key space, its
        ``retry_policy``/``fault_plan`` drive the resilience path.
        Defaults to ``SessionConfig(deferred=True)`` — deferred mode is
        what lets an instance batch a request's operations into shared
        execution-plan levels.
    max_queue:
        Global bound on queued (not yet dispatched) requests; the
        ``max_queue + 1``-th concurrent submission is rejected with
        :class:`AdmissionError`, deterministically.
    batch_limit:
        Most requests dispatched per scheduling round.
    pool_per_key:
        Warm instances kept per pool key (degree of same-shape
        parallelism).
    quantum:
        DRR credit per round per unit weight.
    """

    def __init__(self, config: Optional[SessionConfig] = None, *,
                 max_queue: int = 64, batch_limit: int = 8,
                 pool_per_key: int = 2, quantum: float = 1.0,
                 tracer: Optional[Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 start: bool = True) -> None:
        if config is None:
            config = SessionConfig(deferred=True)
        if config.is_multi_device:
            raise ValueError(
                "LikelihoodServer pools single-device instances; "
                "multi-device splits belong to Session.multi_device"
            )
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if batch_limit < 1:
            raise ValueError(f"batch_limit must be >= 1, got {batch_limit}")
        self.config = config
        self.max_queue = int(max_queue)
        self.batch_limit = int(batch_limit)
        self.tracer = tracer if tracer is not None else Tracer(
            enabled=config.trace
        )
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._pool = InstancePool(
            config, per_key=pool_per_key,
            tracer=self.tracer, metrics=self.metrics,
        )
        self._workers = LabelledWorkerPool(thread_name_prefix="serve")
        self._drr = DeficitRoundRobin(quantum=quantum)
        #: Condition guarding every piece of queue/lifecycle state below
        #: (named so the lock-discipline lint recognises it).
        self._state = locksan.scoped_name("server.state")
        self._lock = locksan.instrument(
            threading.Condition(), locksan.scoped_name("server.lock")
        )
        self._started = False
        self._stopping = False
        self._draining = True
        self._inflight = 0
        self._latencies: Dict[str, List[float]] = {}
        self._rejects: Dict[str, int] = {}
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="serve-dispatch", daemon=True
        )
        if start:
            self.start()

    # -- tenancy -----------------------------------------------------------

    def register(self, tenant: str, weight: float = 1.0,
                 quota: int = 8) -> TenantClient:
        """Add a tenant; its ``weight`` sets its fair share under load,
        its ``quota`` bounds how many of its requests may queue."""
        with self._lock:
            locksan.access(self._state)
            self._drr.register(tenant, weight=weight, quota=quota)
            self._latencies[tenant] = []
            self._rejects[tenant] = 0
        return TenantClient(self, tenant)

    def client(self, tenant: str) -> TenantClient:
        """A client handle for an already-registered tenant."""
        with self._lock:
            locksan.access(self._state, write=False)
            self._drr.tenant(tenant)  # raises KeyError if unknown
        return TenantClient(self, tenant)

    # -- admission ---------------------------------------------------------

    def submit(self, tenant: str, data: Any, tree: Any, model: Any,
               site_model: Any = None,
               branch_edits: Optional[Mapping[int, float]] = None,
               cost: float = 1.0) -> Ticket:
        """Admit one request or reject it with backpressure.

        Admission is a pure function of queue occupancy at submit time:
        the global queue bound first, then the tenant's quota.  Rejects
        raise :class:`AdmissionError` *and* land in
        ``beagle_get_last_error_message`` (named
        ``serve.submit[<tenant>]``), so C-style clients polling the
        error surface see them too.
        """
        request = ServeRequest(tenant, data, tree, model, site_model,
                               branch_edits=branch_edits, cost=cost)
        ticket = Ticket(tenant, request.kind)
        with self._lock:
            locksan.access(self._state)
            # A not-yet-started server still admits (requests queue until
            # start()) — that is what makes overflow tests deterministic:
            # occupancy is a pure function of submissions, not of how
            # fast the dispatcher drained.
            if self._stopping:
                raise RuntimeError("server is not accepting requests")
            queue = self._drr.tenant(tenant)
            if self._drr.queued() >= self.max_queue:
                exc = AdmissionError(
                    f"server queue full ({self.max_queue} requests "
                    f"queued); tenant {tenant!r} must back off"
                )
            elif len(queue.queue) >= queue.quota:
                exc = AdmissionError(
                    f"tenant {tenant!r} quota exceeded "
                    f"({queue.quota} requests queued)"
                )
            else:
                self._drr.enqueue(tenant, (request, ticket), cost)
                self.metrics.gauge("serve.queue.depth").set(
                    self._drr.queued()
                )
                self.metrics.counter("serve.requests.accepted").inc()
                self._lock.notify_all()
                return ticket
            self._rejects[tenant] += 1
        self._reject(tenant, exc)
        raise exc

    def _reject(self, tenant: str, exc: AdmissionError) -> None:
        from repro.core.api import _record_failure

        _record_failure(f"serve.submit[{tenant}]", exc)
        self.metrics.counter("serve.admission.rejects").inc()
        self.metrics.counter(f"serve.admission.rejects.{tenant}").inc()
        if self.tracer.enabled:
            self.tracer.event(
                "serve.reject", kind="serve", tenant=tenant, error=str(exc)
            )

    # -- scheduling --------------------------------------------------------

    def _dispatch_loop(self) -> None:
        running = True
        while running:
            running = self._dispatch_once()

    def _dispatch_once(self) -> bool:
        with self._lock:
            locksan.access(self._state)
            while True:
                queued = self._drr.queued()
                if self._stopping:
                    if not self._draining:
                        self._fail_queued_locked()
                        return False
                    if queued == 0 and self._inflight == 0:
                        return False
                    if queued == 0:
                        self._lock.wait(0.05)
                        continue
                    break
                if queued > 0:
                    break
                self._lock.wait(0.1)
            batch = self._drr.select(self.batch_limit)
            self.metrics.gauge("serve.queue.depth").set(self._drr.queued())
        if not batch:
            with self._lock:
                self._lock.wait(0.01)
            return True
        dispatched = self._run_batch(batch)
        if dispatched == 0:
            # Every selected request hit a saturated pool and went back
            # to the front of its queue; wait for a release before
            # trying again rather than spinning.
            with self._lock:
                self._lock.wait(0.02)
        return True

    def _fail_queued_locked(self) -> None:
        """Abort without drain: fail every still-queued ticket."""
        for name in self._drr.tenants():
            queue = self._drr.tenant(name).queue
            while queue:
                (_request, ticket), _cost = queue.popleft()
                ticket._future.set_exception(
                    AdmissionError("server shut down before dispatch")
                )

    def _run_batch(self, batch: List[Tuple[str, Any]]) -> int:
        """Bind a scheduling round to instances and launch it.

        Requests are grouped by pool key: each group shares the key's
        warm instances (cross-tenant rebinding) and is reported as one
        ``serve.batch`` span with its occupancy.  Returns how many
        requests were actually dispatched (the rest re-queued at the
        front on pool saturation).
        """
        groups: Dict[PoolKey, List[Tuple[str, ServeRequest, Ticket]]] = {}
        for tenant, (request, ticket) in batch:
            key = PoolKey.for_request(
                self.config, request.data, request.tree,
                request.model, request.site_model,
            )
            groups.setdefault(key, []).append((tenant, request, ticket))
        dispatched = 0
        for key, items in groups.items():
            self.metrics.histogram("serve.batch.occupancy").observe(
                len(items)
            )
            tenants = sorted({tenant for tenant, _, _ in items})
            span_ctx = None
            if self.tracer.enabled:
                span_ctx = self.tracer.span(
                    "serve.batch", kind="serve",
                    backend=key.backend, patterns=key.n_patterns,
                    occupancy=len(items), tenants=",".join(tenants),
                )
                span_ctx.__enter__()
            try:
                for tenant, request, ticket in items:
                    acquired = self._pool.acquire(
                        tenant, request.data, request.tree,
                        request.model, request.site_model,
                    )
                    if acquired is None:
                        with self._lock:
                            locksan.access(self._state)
                            self._drr.requeue_front(
                                tenant, (request, ticket), request.cost
                            )
                        continue
                    pooled, outcome = acquired
                    with self._lock:
                        locksan.access(self._state)
                        self._inflight += 1
                    self._workers.submit(
                        pooled.label, self._execute,
                        pooled, request, ticket, outcome,
                    )
                    dispatched += 1
            finally:
                if span_ctx is not None:
                    span_ctx.__exit__(None, None, None)
        self.metrics.counter("serve.batches").inc()
        return dispatched

    # -- execution ---------------------------------------------------------

    def _execute(self, pooled: PooledInstance, request: ServeRequest,
                 ticket: Ticket, outcome: str) -> None:
        try:
            value = self._evaluate_resilient(pooled, request)
        except BaseException as exc:
            from repro.core.api import _record_failure

            _record_failure(
                f"serve.request[{request.tenant}]@{pooled.label}", exc
            )
            self.metrics.counter("serve.requests.failed").inc()
            ticket._future.set_exception(exc)
        else:
            latency = time.perf_counter() - ticket.submitted_at
            self.metrics.counter("serve.requests.completed").inc()
            self.metrics.histogram("serve.latency_s").observe(latency)
            self.metrics.histogram(
                f"serve.latency_s.{request.tenant}"
            ).observe(latency)
            with self._lock:
                locksan.access(self._state)
                self._latencies[request.tenant].append(latency)
            ticket._future.set_result(value)
        finally:
            with self._lock:
                locksan.access(self._state)
                self._inflight -= 1
                self._lock.notify_all()

    def _evaluate_resilient(self, pooled: PooledInstance,
                            request: ServeRequest) -> float:
        """Run one request, folding device failures into retry/failover.

        Transient device errors retry on the same instance under the
        config's retry policy (deterministic backoff, charged to the
        simulated device clock where one exists).  Persistent device
        loss retires the pooled instance and, when the policy allows
        failover, moves to a freshly built replacement.  Retries and
        failovers share the policy's attempt budget, so a device that
        keeps dying eventually surfaces the error.
        """
        policy = self.config.retry_policy
        attempts = 1 if policy is None else policy.max_attempts
        attempt = 1
        current = pooled

        def note_retry(n: int, exc: BaseException, delay: float) -> None:
            nonlocal attempt
            attempt = n + 1
            self.metrics.counter("resil.retries").inc()

        for _ in range(attempts):
            try:
                value = call_with_retries(
                    policy,
                    partial(self._run_on_instance, current, request),
                    impl=current.likelihood.instance.impl,
                    salt=current.label,
                    charge="serve.retry-backoff",
                    on_retry=note_retry,
                    first_attempt=attempt,
                )
            except DeviceError as exc:
                self._pool.retire(current)
                if attempt >= attempts or not failover_enabled(policy):
                    raise
                # Persistent loss: quarantine-equivalent for a pooled
                # instance is retirement + rebuild.
                self.metrics.counter("serve.failover.events").inc()
                if self.tracer.enabled:
                    self.tracer.event(
                        "serve.failover", kind="serve",
                        label=current.label, tenant=request.tenant,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                current = self._reacquire(request, exc)
                attempt += 1
                continue
            except Exception:
                # Non-device failure: the instance is healthy, the
                # request was bad — re-pool and propagate.
                self._pool.release(current)
                raise
            self._pool.release(current)
            return value
        raise AssertionError("unreachable: bounded failover loop")

    def _reacquire(self, request: ServeRequest,
                   cause: BaseException) -> PooledInstance:
        """A replacement instance after retirement (bounded wait)."""
        for _ in range(200):
            acquired = self._pool.acquire(
                request.tenant, request.data, request.tree,
                request.model, request.site_model,
            )
            if acquired is not None:
                return acquired[0]
            with self._lock:
                self._lock.wait(0.01)
        raise cause

    def _run_on_instance(self, pooled: PooledInstance,
                         request: ServeRequest) -> float:
        """Apply any branch edits, then evaluate the full traversal.

        Always a full post-order evaluation: the result is a pure
        function of (tree, data, model, site model, backend), never of
        which pooled instance served the request or what it computed
        before — that is what makes the chaos run bit-identical to the
        serial baseline.
        """
        likelihood = pooled.likelihood
        if request.branch_edits:
            for index, length in request.branch_edits.items():
                request.tree.node_by_index(index).branch_length = length
            likelihood.invalidate()
        if self.tracer.enabled:
            with self.tracer.span(
                "serve.request", kind="serve", tenant=request.tenant,
                request_kind=request.kind, label=pooled.label,
            ) as span:
                value = likelihood.log_likelihood()
                span.attrs["value"] = value
                return value
        return likelihood.log_likelihood()

    # -- introspection -----------------------------------------------------

    def queue_depth(self) -> int:
        with self._lock:
            locksan.access(self._state, write=False)
            return self._drr.queued()

    def pool_sizes(self) -> Dict[PoolKey, int]:
        return self._pool.sizes()

    def tenant_stats(self) -> Dict[str, Dict[str, float]]:
        """Exact per-tenant latency/throughput summary.

        Percentiles are exact order statistics over every completed
        request (the metrics histograms carry the bucketed estimate);
        the benchmark's BENCH_serving record reads this.
        """
        out: Dict[str, Dict[str, float]] = {}
        with self._lock:
            locksan.access(self._state, write=False)
            for name in self._drr.tenants():
                queue = self._drr.tenant(name)
                latencies = sorted(self._latencies[name])
                out[name] = {
                    "weight": queue.weight,
                    "submitted": float(queue.enqueued),
                    "served": float(queue.served),
                    "completed": float(len(latencies)),
                    "rejected": float(self._rejects[name]),
                    "p50_s": _exact_percentile(latencies, 0.50),
                    "p99_s": _exact_percentile(latencies, 0.99),
                    "mean_s": (
                        sum(latencies) / len(latencies) if latencies else 0.0
                    ),
                }
        return out

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        with self._lock:
            locksan.access(self._state)
            if self._started:
                return
            self._started = True
        self._dispatcher.start()

    def shutdown(self, drain: bool = True,
                 timeout: Optional[float] = None) -> None:
        """Stop the server.

        With ``drain`` (default), every already-accepted request still
        completes before the workers stop; without it, queued tickets
        fail with :class:`AdmissionError` and only in-flight requests
        finish.  Idempotent.
        """
        with self._lock:
            locksan.access(self._state)
            started = self._started
            self._stopping = True
            self._draining = drain
            if not started:
                # Never-started server: nothing will drain the queue, so
                # queued tickets must fail rather than hang forever.
                self._fail_queued_locked()
            self._lock.notify_all()
        if started and self._dispatcher.is_alive():
            self._dispatcher.join(timeout)
        self._workers.shutdown(wait=True)
        self._pool.shutdown()

    def __enter__(self) -> "LikelihoodServer":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()


def _exact_percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted list."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values),
               max(1, math.ceil(q * len(sorted_values))))
    return sorted_values[rank - 1]
