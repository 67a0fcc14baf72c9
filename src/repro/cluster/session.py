"""High-level cluster session: one dataset, many simulated nodes.

:class:`ClusterSession` is the ``Session.cluster(...)`` facade over the
cluster layer: it builds the :class:`~repro.cluster.node.WorkerNode`
fleet from a declarative ``nodes`` mapping, wires one shared tracer and
metrics registry through the scheduler and every node, and exposes the
same evaluate/report/close shape the other session kinds have::

    with repro.Session.cluster(
        data, tree, model,
        nodes={"a": "cuda", "b": {"dev0": "cuda", "dev1": "opencl-gpu"}},
    ) as cs:
        logl = cs.log_likelihood()
        print(cs.node_report(), cs.utilization())

Node specs mirror multi-device requests, one level up: a node maps to a
backend name (one device) or a device-label mapping whose values are
backend names or raw instance keyword dicts.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.cluster.node import DeviceRequest, WorkerNode
from repro.cluster.scheduler import (
    ClusterJob,
    ClusterScheduler,
    serial_shard_sum,
)
from repro.obs import MetricsRegistry, Tracer
from repro.seq.alignment import Alignment
from repro.seq.patterns import compress_patterns

__all__ = ["ClusterSession"]

#: A node spec: one backend name, or device label -> device request.
NodeRequest = Union[str, Mapping[str, DeviceRequest]]


def _build_nodes(
    nodes: Mapping[str, NodeRequest],
    retry_policy: Any,
    tracer: Any,
    metrics: Any,
) -> List[WorkerNode]:
    built: List[WorkerNode] = []
    for name, spec in nodes.items():
        devices: Mapping[str, DeviceRequest]
        if isinstance(spec, str):
            devices = {f"{name}-dev0": spec}
        else:
            devices = spec
        built.append(
            WorkerNode(
                name,
                devices,
                retry_policy=retry_policy,
                tracer=tracer,
                metrics=metrics,
            )
        )
    return built


class ClusterSession:
    """A dataset analysed by shards across a simulated node fleet.

    Parameters
    ----------
    data:
        An :class:`~repro.seq.alignment.Alignment` (compressed here) or
        pattern set.
    tree, model, site_model:
        As for :class:`~repro.session.Session`.
    nodes:
        Node name -> node spec (see module docstring).  Node names are
        also the fault-injection labels.
    n_shards:
        Fixed shard count per submitted job; default twice the fleet's
        device count.
    retry_policy, fault_plan:
        Resilience policy and deterministic fault script
        (:mod:`repro.resil`); ``fault_plan`` labels are node names.
    trace:
        Enable span tracing from the start.
    likelihood_kwargs:
        Extra :class:`~repro.core.highlevel.TreeLikelihood` keywords
        applied to every shard instance (``use_scaling``,
        ``precision``, ...).
    """

    def __init__(
        self,
        data: Any,
        tree: Any,
        model: Any,
        site_model: Any = None,
        *,
        nodes: Mapping[str, NodeRequest],
        n_shards: Optional[int] = None,
        retry_policy: Any = None,
        fault_plan: Any = None,
        trace: bool = False,
        **likelihood_kwargs: Any,
    ) -> None:
        if not nodes:
            raise ValueError("cluster needs at least one node")
        if isinstance(data, Alignment):
            data = compress_patterns(data)
        self.data = data
        self.tree = tree
        self.model = model
        self.site_model = site_model
        self.n_shards = n_shards
        self.likelihood_kwargs = dict(likelihood_kwargs)
        self._tracer = Tracer(enabled=trace)
        self._metrics = MetricsRegistry()
        self._nodes = _build_nodes(
            nodes, retry_policy, self._tracer, self._metrics
        )
        self.scheduler = ClusterScheduler(
            self._nodes,
            retry_policy=retry_policy,
            fault_plan=fault_plan,
            tracer=self._tracer,
            metrics=self._metrics,
        )
        self._closed = False

    # -- core operations ---------------------------------------------------

    def submit(self, n_shards: Optional[int] = None) -> ClusterJob:
        """Queue one evaluation of the session's dataset."""
        return self.scheduler.submit(
            self.tree,
            self.data,
            self.model,
            self.site_model,
            n_shards=n_shards if n_shards is not None else self.n_shards,
            **self.likelihood_kwargs,
        )

    def log_likelihood(self) -> float:
        """Submit one job and block for its shard-ordered sum."""
        return self.submit().result()

    def serial_baseline(self, n_shards: Optional[int] = None) -> float:
        """The single-node serial sum over the same fixed shards.

        Bit-identical to :meth:`log_likelihood` by construction (DESIGN
        choice 17), with or without node loss along the way.
        """
        if n_shards is None:
            n_shards = self.n_shards
        if n_shards is None:
            n_shards = 2 * sum(node.capacity for node in self._nodes)
        return serial_shard_sum(
            self.tree,
            self.data,
            self.model,
            self.site_model,
            n_shards=n_shards,
            **self.likelihood_kwargs,
        )

    # -- reporting ---------------------------------------------------------

    @property
    def tracer(self) -> Tracer:
        return self._tracer

    @property
    def metrics(self) -> MetricsRegistry:
        return self._metrics

    def node_report(self) -> List[Tuple[str, int, float, int]]:
        """``(name, capacity, calibrated rate, shards completed)`` rows."""
        return [
            (node.name, node.capacity, node.rate, node.completed)
            for node in self._nodes
        ]

    def active_nodes(self) -> List[str]:
        return self.scheduler.active_nodes()

    def quarantined(self) -> Dict[str, Any]:
        return self.scheduler.quarantined()

    def rates(self) -> Dict[str, float]:
        return self.scheduler.rates()

    def placements(self) -> List[Any]:
        return self.scheduler.placements()

    def node_loss_events(self) -> List[Any]:
        return self.scheduler.node_loss_events()

    @property
    def migrations(self) -> int:
        return self.scheduler.migrations

    def utilization(self) -> Dict[str, float]:
        return self.scheduler.utilization()

    def span_tree(self) -> str:
        """The recorded spans rendered as an indented tree."""
        return self._tracer.format_tree()

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        if not self._closed:
            self.scheduler.shutdown()
            self._closed = True

    def __enter__(self) -> "ClusterSession":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        names = ", ".join(node.name for node in self._nodes)
        return f"ClusterSession(nodes=[{names}])"
