"""Cluster scheduler: queue, calibrated bin-packing, node-loss failover.

:class:`ClusterScheduler` is the rung above :mod:`repro.sched`: instead
of balancing one likelihood's components across the devices of one
process, it places whole analysis *shards* onto pod-like
:class:`~repro.cluster.node.WorkerNode`\\ s — the ReFrame-style
scheduler/launcher split, with the launcher side reusing this library's
existing worker discipline.

Placement
---------
A submitted job's pattern set is split into shards with **fixed
boundaries** (``split_pattern_set`` with equal proportions, decided once
at submission).  Each dispatch round drains the pending queue and
bin-packs the shards with an LPT greedy: shards sorted by pattern count
descending, each assigned to the node with the smallest predicted
finish time ``load + patterns / effective_rate``, where
``effective_rate`` is the node's calibrated throughput (perf-model
prior, refined by an EWMA of measured shard times — the same
prior-then-feedback story the in-process rebalancer tells).

Failover
--------
Node loss (driven through :mod:`repro.resil` fault injection, or any
persistent :class:`~repro.util.errors.DeviceError` escaping a node)
quarantines the node: its workers are released and the shards it held
re-pack onto the survivors in the same round.  Because shard boundaries
and the summation order are fixed at submission — placement only moves
*whole* shards — the recovered job total is bit-identical to the
single-node serial baseline (:func:`serial_shard_sum`); see DESIGN
choice 17.  Quarantined nodes are probed every ``probe_interval``
rounds and readmitted in their original placement order.  The round
loop, the quarantine table and the calibration are the shared failover
core, :mod:`repro.sched.failover` (DESIGN choice 19).

Locking
-------
Two ``locksan``-instrumented locks: the queue condition (submitters vs.
the dispatch thread) and the state lock (dispatch-thread mutations vs.
reporting readers).  The state lock also covers node calibration state
(rates, dispatch counters), which only the scheduler drives; it is
*not* held while shard futures are in flight, so evaluation overlaps
reporting freely.

Everything is observable (``cluster.*`` spans and metrics: queue depth,
placement decisions, migrations, node utilization — see the README
catalog).
"""

from __future__ import annotations

import itertools
import threading
from concurrent.futures import Future
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.analysis import locksan
from repro.cluster.node import WorkerNode
from repro.core.highlevel import TreeLikelihood
from repro.partition.multi import split_pattern_set
from repro.sched.failover import (
    ComponentTiming,
    QuarantineRecord,
    QuarantineTable,
    run_failover_rounds,
)

__all__ = [
    "ClusterJob",
    "ClusterScheduler",
    "NodeLossEvent",
    "PlacementDecision",
    "Shard",
    "makespan_lower_bound",
    "pack_shards",
    "serial_shard_sum",
]


@dataclass
class Shard:
    """One fixed slice of a job's pattern set.

    Boundaries are decided at job submission and never change; failover
    and placement only decide *where* a shard evaluates.  ``patterns``
    is the packing weight.
    """

    job: "ClusterJob"
    index: int
    data: Any

    @property
    def patterns(self) -> int:
        return int(self.data.n_patterns)

    @property
    def key(self) -> str:
        """Cluster-wide shard id, stable across re-packs."""
        return f"{self.job.job_id}:{self.index}"

    @property
    def tree(self) -> Any:
        return self.job.tree

    @property
    def model(self) -> Any:
        return self.job.model

    @property
    def site_model(self) -> Any:
        return self.job.site_model

    @property
    def likelihood_kwargs(self) -> Mapping[str, Any]:
        return self.job.likelihood_kwargs


@dataclass
class PlacementDecision:
    """One shard-to-node assignment from one packing pass."""

    round: int
    shard: str
    node: str
    predicted_s: float


@dataclass
class NodeLossEvent:
    """One quarantined node and the shards that migrated off it."""

    round: int
    node: str
    error: str
    migrated: List[str]
    survivors: List[str]


class ClusterJob:
    """One submitted analysis: fixed shards plus a blockable result.

    The final value is the sum of per-shard log-likelihoods **in shard
    index order**, independent of where (or in which order) the shards
    completed — the component-ordered sum that keeps the cluster result
    bit-identical to :func:`serial_shard_sum` over the same shards.
    """

    def __init__(
        self,
        job_id: str,
        tree: Any,
        data: Any,
        model: Any,
        site_model: Any = None,
        n_shards: int = 2,
        likelihood_kwargs: Optional[Mapping[str, Any]] = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        n_shards = min(n_shards, int(data.n_patterns))
        self.job_id = job_id
        self.tree = tree
        self.data = data
        self.model = model
        self.site_model = site_model
        self.likelihood_kwargs: Dict[str, Any] = dict(
            likelihood_kwargs or {}
        )
        chunks = split_pattern_set(data, [1.0 / n_shards] * n_shards)
        self.shards = [
            Shard(job=self, index=i, data=chunk)
            for i, chunk in enumerate(chunks)
        ]
        self._values: List[Optional[float]] = [None] * n_shards
        self._future: "Future[float]" = Future()
        self._remaining = n_shards

    # The scheduler's dispatch thread is the only writer of job state;
    # readers go through the (thread-safe) future.

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def record(self, index: int, value: float) -> None:
        """Record one shard's value; resolves the job when all are in."""
        if self._future.done():
            return
        if self._values[index] is None:
            self._remaining -= 1
        self._values[index] = value
        if self._remaining == 0:
            # Shard-index order, regardless of completion order.
            self._future.set_result(
                float(sum(v for v in self._values if v is not None))
            )

    def fail(self, exc: BaseException) -> None:
        if not self._future.done():
            self._future.set_exception(exc)

    @property
    def done(self) -> bool:
        return self._future.done()

    def shard_values(self) -> List[Optional[float]]:
        """Per-shard values recorded so far (index order)."""
        return list(self._values)

    def result(self, timeout: Optional[float] = None) -> float:
        """Block for the job's component-ordered log-likelihood sum."""
        return self._future.result(timeout)


def pack_shards(
    shards: Sequence[Shard],
    rates: Mapping[str, float],
) -> Tuple[Dict[str, List[Shard]], float]:
    """LPT greedy bin-packing of shards onto nodes by calibrated rate.

    ``rates`` maps node name to effective throughput (patterns per
    second, capacity included); iteration order breaks ties, so passing
    nodes in their submission order keeps placement deterministic.
    Returns ``(assignment, predicted_makespan_s)``.
    """
    if not rates:
        raise ValueError("cannot pack shards onto zero nodes")
    loads: Dict[str, float] = {name: 0.0 for name in rates}
    assignment: Dict[str, List[Shard]] = {name: [] for name in rates}
    ordered = sorted(shards, key=lambda s: (-s.patterns, s.key))
    for shard in ordered:
        best = min(
            loads, key=lambda name: loads[name] + shard.patterns / rates[name]
        )
        loads[best] += shard.patterns / rates[best]
        assignment[best].append(shard)
    return assignment, (max(loads.values()) if shards else 0.0)


def makespan_lower_bound(
    shards: Sequence[Shard], rates: Mapping[str, float]
) -> float:
    """A makespan no schedule can beat, for placement-quality metrics.

    The larger of (a) all work spread perfectly over all nodes and
    (b) the largest single shard on the fastest node (shards are
    indivisible).
    """
    if not shards or not rates:
        return 0.0
    total = sum(s.patterns for s in shards)
    fastest = max(rates.values())
    return max(total / sum(rates.values()),
               max(s.patterns for s in shards) / fastest)


def serial_shard_sum(
    tree: Any,
    data: Any,
    model: Any,
    site_model: Any = None,
    n_shards: int = 2,
    **likelihood_kwargs: Any,
) -> float:
    """The single-node serial baseline over the same fixed shards.

    Evaluates each shard with its own instance, one after another, and
    sums in shard-index order — exactly the decomposition and order the
    cluster uses, so a cluster run (with or without failover) must match
    this value bit for bit.
    """
    n_shards = max(1, min(int(n_shards), int(data.n_patterns)))
    chunks = split_pattern_set(data, [1.0 / n_shards] * n_shards)
    values: List[float] = []
    for chunk in chunks:
        component = TreeLikelihood(
            tree, chunk, model, site_model, **likelihood_kwargs
        )
        try:
            values.append(float(component.log_likelihood()))
        finally:
            component.finalize()
    return float(sum(values))


#: One dispatched shard's outcome, collected on the dispatch thread.
_Outcome = Tuple[
    str, Shard, Optional[float], Optional[ComponentTiming],
    Optional[BaseException],
]


class ClusterScheduler:
    """Pending-job queue plus bin-packing placement over worker nodes.

    Parameters
    ----------
    nodes:
        The cluster's :class:`~repro.cluster.node.WorkerNode`\\ s;
        submission order is the deterministic tie-break order for
        placement and readmission.
    retry_policy:
        A :class:`~repro.resil.RetryPolicy`.  Transient shard errors
        retry on the same node (inside the node); persistent
        ``DeviceError``\\ s quarantine the node and re-pack its shards
        onto survivors, bounded by ``failover_budget``.
        ``probe_interval`` is counted in dispatch rounds.
    fault_plan:
        A :class:`~repro.resil.FaultPlan` whose labels are **node
        names**; each node consults its memoized injector once per
        shard evaluation.
    """

    def __init__(
        self,
        nodes: Iterable[WorkerNode],
        *,
        retry_policy: Any = None,
        fault_plan: Any = None,
        tracer: Any = None,
        metrics: Any = None,
    ) -> None:
        self._nodes: Dict[str, WorkerNode] = {}
        for node in nodes:
            if node.name in self._nodes:
                raise ValueError(f"duplicate node name {node.name!r}")
            self._nodes[node.name] = node
        if not self._nodes:
            raise ValueError("cluster needs at least one node")
        self._order = list(self._nodes)
        self._retry_policy = retry_policy
        self._fault_plan = fault_plan
        self._tracer = tracer
        self._metrics = metrics
        if fault_plan is not None:
            for node in self._nodes.values():
                node.set_injector(fault_plan.injector_for(node.name))
        #: Condition guarding the pending queue and lifecycle flags —
        #: shared between submitters and the dispatch thread.
        self._queue_state = locksan.scoped_name("cluster.queue")
        self._cv = locksan.instrument(
            threading.Condition(), locksan.scoped_name("cluster.cv")
        )
        self._pending: List[Shard] = []
        self._closed = False
        self._started = False
        #: Lock guarding placement/calibration state: the dispatch
        #: thread mutates it between (never during) shard waits, and
        #: reporting readers copy under it.  Node calibration state is
        #: covered by the same lock — the scheduler alone drives nodes.
        self._state = locksan.scoped_name("cluster.state")
        self._state_lock = locksan.instrument(
            threading.Lock(), locksan.scoped_name("cluster.state-lock")
        )
        self._active = list(self._order)
        self._quarantine = QuarantineTable(self._order)
        self._placements: List[PlacementDecision] = []
        self._node_loss_events: List[NodeLossEvent] = []
        self._migrations = 0
        self._rounds = 0
        self._utilization: Dict[str, float] = {}
        self._job_ids = itertools.count(1)
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="cluster-dispatch", daemon=True
        )

    # -- submission --------------------------------------------------------

    def submit(
        self,
        tree: Any,
        data: Any,
        model: Any,
        site_model: Any = None,
        n_shards: Optional[int] = None,
        **likelihood_kwargs: Any,
    ) -> ClusterJob:
        """Queue one analysis; returns a blockable :class:`ClusterJob`.

        ``n_shards`` defaults to twice the cluster's device count so
        the packer has slack to balance heterogeneous nodes.  Shard
        boundaries are fixed here, at submission.
        """
        if n_shards is None:
            n_shards = 2 * sum(
                node.capacity for node in self._nodes.values()
            )
        with self._cv:
            locksan.access(self._queue_state)
            if self._closed:
                raise RuntimeError("cluster scheduler has been shut down")
            job_id = f"job-{next(self._job_ids)}"
        job = ClusterJob(
            job_id=job_id,
            tree=tree,
            data=data,
            model=model,
            site_model=site_model,
            n_shards=n_shards,
            likelihood_kwargs=likelihood_kwargs,
        )
        with self._cv:
            locksan.access(self._queue_state)
            if self._closed:
                raise RuntimeError("cluster scheduler has been shut down")
            if not self._started:
                self._started = True
                self._dispatcher.start()
            self._pending.extend(job.shards)
            depth = len(self._pending)
            self._cv.notify_all()
        if self._metrics is not None:
            self._metrics.counter("cluster.jobs.submitted").inc()
            self._metrics.gauge("cluster.queue.depth").set(depth)
        if self._tracer is not None and self._tracer.enabled:
            self._tracer.event(
                "cluster.submit",
                kind="cluster",
                job=job.job_id,
                shards=job.n_shards,
                patterns=int(data.n_patterns),
            )
        return job

    # -- dispatch loop -----------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            with self._cv:
                locksan.access(self._queue_state)
                while not self._pending and not self._closed:
                    self._cv.wait(timeout=0.5)
                if self._closed and not self._pending:
                    return
                batch = list(self._pending)
                self._pending.clear()
            if self._metrics is not None:
                self._metrics.gauge("cluster.queue.depth").set(0)
            try:
                self._run_round(batch)
            except Exception as exc:
                # An unrecovered round fails the batch's unfinished jobs
                # (finished ones ignore it); the loop itself never dies.
                for job in {shard.job for shard in batch}:
                    job.fail(exc)

    def _active_rates_locked(self) -> Dict[str, float]:
        locksan.access(self._state, write=False)
        return {
            name: max(self._nodes[name].effective_rate, 1e-9)
            for name in self._active
        }

    def _run_round(self, shards: List[Shard]) -> None:
        """Place and evaluate one drained batch, with failover re-packs.

        Persistent node failures quarantine each failed node and re-pack
        its shards onto the survivors in the next pass; an error the
        failover loop cannot absorb propagates, and the dispatch loop
        fails every job of the batch still waiting on a shard.
        """
        with self._state_lock:
            locksan.access(self._state)
            self._rounds += 1
            round_index = self._rounds
        self._maybe_probe(round_index)
        with self._state_lock:
            locksan.access(self._state, write=False)
            active_count = len(self._active)
        remaining = list(shards)
        failed_shards: Dict[str, List[Shard]] = {}
        tracer = self._tracer

        def place(attempt: int) -> List[Tuple[str, BaseException]]:
            nonlocal remaining
            remaining = [s for s in remaining if not s.job.done]
            if not remaining:
                return []
            with self._state_lock:
                active = list(self._active)
            if not active:
                raise RuntimeError("no active nodes left in the cluster")
            if tracer is not None and tracer.enabled:
                with tracer.span(
                    "cluster.round",
                    kind="cluster",
                    round=round_index,
                    attempt=attempt,
                    shards=len(remaining),
                    nodes=",".join(active),
                ) as span:
                    failed = self._run_placement(
                        remaining, round_index, tracer.current_span_id
                    )
                    span.attrs["failed_nodes"] = ",".join(
                        name for name, _, _ in failed
                    )
            else:
                failed = self._run_placement(remaining, round_index, None)
            failed_shards.clear()
            failed_shards.update(
                (name, node_shards) for name, node_shards, _ in failed
            )
            remaining = [
                s for _, node_shards, _ in failed for s in node_shards
            ]
            return [(name, exc) for name, _, exc in failed]

        run_failover_rounds(
            self._retry_policy, active_count, place,
            lambda name, exc: self._quarantine_node(
                name, failed_shards[name], exc, round_index
            ),
        )

    def _run_placement(
        self,
        shards: List[Shard],
        round_index: int,
        parent_span: Optional[int],
    ) -> List[Tuple[str, List[Shard], BaseException]]:
        """One pack-and-evaluate pass; returns per-node failures."""
        metrics = self._metrics
        with self._state_lock:
            rates = self._active_rates_locked()
            assignment, predicted = pack_shards(shards, rates)
            locksan.access(self._state)
            for name, node_shards in assignment.items():
                rate = rates[name]
                for shard in node_shards:
                    self._placements.append(
                        PlacementDecision(
                            round=round_index,
                            shard=shard.key,
                            node=name,
                            predicted_s=shard.patterns / rate,
                        )
                    )
            submitted: List[Tuple[str, Shard, "Future[Any]"]] = []
            for name, node_shards in assignment.items():
                node = self._nodes[name]
                for shard in node_shards:
                    submitted.append(
                        (name, shard, node.submit_shard(shard, parent_span))
                    )
        if metrics is not None:
            metrics.counter("cluster.rounds").inc()
            metrics.gauge("cluster.predicted_makespan_s").set(predicted)
            metrics.counter("cluster.placement.decisions").inc(
                len(submitted)
            )
        # Futures are collected with no lock held: evaluation overlaps
        # submission of later jobs and reporting reads.
        outcomes: List[_Outcome] = []
        for name, shard, future in submitted:
            try:
                value, timing = future.result()
                outcomes.append((name, shard, value, timing, None))
            except Exception as exc:
                outcomes.append((name, shard, None, None, exc))
        busy: Dict[str, float] = {name: 0.0 for name in assignment}
        failures: Dict[str, List[Shard]] = {}
        errors: Dict[str, BaseException] = {}
        with self._state_lock:
            locksan.access(self._state)
            for name, shard, value, timing, exc in outcomes:
                if exc is not None:
                    self._record_shard_failure(name, shard, exc)
                    failures.setdefault(name, []).append(shard)
                    errors.setdefault(name, exc)
                    continue
                assert value is not None and timing is not None
                shard.job.record(shard.index, value)
                self._nodes[name].observe(timing)
                busy[name] += timing.measured_s
                if metrics is not None:
                    metrics.counter("cluster.shards.completed").inc()
                    metrics.histogram("cluster.shard_s").observe(
                        timing.measured_s
                    )
            self._note_utilization_locked(busy)
        return [
            (name, failures[name], errors[name]) for name in failures
        ]

    def _note_utilization_locked(self, busy: Mapping[str, float]) -> None:
        """Per-node utilization of the last pass: each node's busy time
        (per device slot) against the slowest node's."""
        spans = {
            name: seconds / self._nodes[name].capacity
            for name, seconds in busy.items()
            if seconds > 0
        }
        if not spans:
            return
        makespan = max(spans.values())
        if makespan <= 0:
            return
        metrics = self._metrics
        for name, span_s in spans.items():
            utilization = span_s / makespan
            self._utilization[name] = utilization
            if metrics is not None:
                metrics.gauge(f"cluster.utilization.{name}").set(utilization)
        if metrics is not None:
            metrics.gauge("cluster.makespan_s").set(makespan)

    # -- failure handling --------------------------------------------------

    def _record_shard_failure(self, name: str, shard: Shard,
                              exc: BaseException) -> None:
        """Shard failures land on the ``beagle_*`` error surface with
        the shard and node named."""
        from repro.core.api import _record_failure

        _record_failure(f"cluster.shard[{shard.key}]@{name}", exc)

    def _quarantine_node(self, name: str, shards: List[Shard],
                         exc: BaseException, round_index: int) -> None:
        with self._state_lock:
            locksan.access(self._state)
            if name not in self._active:
                return
            self._active.remove(name)
            event = NodeLossEvent(
                round=round_index,
                node=name,
                error=self._quarantine.add(name, exc, round_index),
                migrated=[shard.key for shard in shards],
                survivors=list(self._active),
            )
            self._node_loss_events.append(event)
            self._migrations += len(shards)
            active_now = len(self._active)
            quarantined_now = len(self._quarantine)
        # Worker release happens outside the state lock: retire joins
        # in-flight worker threads and must not block readers.
        self._nodes[name].retire(wait=True)
        tracer = self._tracer
        if tracer is not None and tracer.enabled:
            tracer.event(
                "cluster.node-loss",
                kind="cluster",
                node=name,
                error=event.error,
                migrated=len(shards),
                survivors=",".join(event.survivors),
            )
        metrics = self._metrics
        if metrics is not None:
            metrics.counter("cluster.node_loss.events").inc()
            metrics.counter("cluster.migrations").inc(len(shards))
            metrics.gauge("cluster.nodes.active").set(active_now)
            metrics.gauge("cluster.nodes.quarantined").set(quarantined_now)

    def _maybe_probe(self, round_index: int) -> None:
        """Probe quarantined nodes for recovery; readmit on success.

        The probe itself runs off the state lock (it touches node
        internals, which have their own locks); only the due-list scan
        and the readmission mutate scheduler state.
        """
        policy = self._retry_policy
        if policy is None:
            return
        metrics = self._metrics
        tracer = self._tracer
        with self._state_lock:
            locksan.access(self._state)
            due = self._quarantine.due(round_index, policy.probe_interval)
        for name in due:
            if metrics is not None:
                metrics.counter("cluster.probes").inc()
            healthy = self._nodes[name].probe()
            if tracer is not None and tracer.enabled:
                tracer.event(
                    "cluster.probe", kind="cluster", node=name,
                    healthy=healthy,
                )
            if not healthy:
                continue
            with self._state_lock:
                locksan.access(self._state)
                if name not in self._quarantine:
                    continue
                # Readmit in original submission order so placement
                # tie-breaks stay deterministic across a loss/heal
                # cycle.
                self._active = self._quarantine.readmit(name, self._active)
                active_now = len(self._active)
                quarantined_now = len(self._quarantine)
            if metrics is not None:
                metrics.counter("cluster.readmissions").inc()
                metrics.gauge("cluster.nodes.active").set(active_now)
                metrics.gauge("cluster.nodes.quarantined").set(
                    quarantined_now
                )

    # -- reporting ---------------------------------------------------------

    @property
    def nodes(self) -> Dict[str, WorkerNode]:
        return dict(self._nodes)

    def active_nodes(self) -> List[str]:
        """Nodes currently eligible for placement."""
        with self._state_lock:
            locksan.access(self._state, write=False)
            return list(self._active)

    def quarantined(self) -> Dict[str, QuarantineRecord]:
        with self._state_lock:
            locksan.access(self._state, write=False)
            return self._quarantine.records()

    def rates(self) -> Dict[str, float]:
        """Calibrated effective rate per active node."""
        with self._state_lock:
            return self._active_rates_locked()

    def placements(self) -> List[PlacementDecision]:
        with self._state_lock:
            locksan.access(self._state, write=False)
            return list(self._placements)

    def node_loss_events(self) -> List[NodeLossEvent]:
        with self._state_lock:
            locksan.access(self._state, write=False)
            return list(self._node_loss_events)

    @property
    def migrations(self) -> int:
        """Shards re-packed off lost nodes so far."""
        with self._state_lock:
            locksan.access(self._state, write=False)
            return self._migrations

    @property
    def rounds(self) -> int:
        """Dispatch rounds executed so far."""
        with self._state_lock:
            locksan.access(self._state, write=False)
            return self._rounds

    def utilization(self) -> Dict[str, float]:
        """Per-node utilization of the most recent placement pass."""
        with self._state_lock:
            locksan.access(self._state, write=False)
            return dict(self._utilization)

    def queue_depth(self) -> int:
        with self._cv:
            locksan.access(self._queue_state, write=False)
            return len(self._pending)

    # -- lifecycle ---------------------------------------------------------

    def shutdown(self, wait: bool = True, timeout: float = 10.0) -> None:
        """Drain and stop the dispatcher and every node (idempotent)."""
        with self._cv:
            locksan.access(self._queue_state)
            already = self._closed
            self._closed = True
            started = self._started
            self._cv.notify_all()
        if already:
            return
        if started and self._dispatcher.is_alive():
            self._dispatcher.join(timeout if wait else 0.0)
        for node in self._nodes.values():
            node.shutdown(wait=wait)

    def __enter__(self) -> "ClusterScheduler":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()
