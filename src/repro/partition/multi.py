"""Multi-instance likelihoods: partitioned and multi-device evaluation.

Two in-paper usage patterns built from multiple BEAGLE instances:

* :class:`PartitionedLikelihood` — one instance per data subset, each
  potentially with a different model and hardware assignment
  (section IV-F);
* :class:`MultiDeviceLikelihood` — one dataset split across devices by
  site patterns: "this requires the client program to partition the
  problem across site patterns and create a separate library instance for
  each hardware device" (conclusion).

Because alignment sites are independent given the tree and model, a sum
of per-subset log-likelihoods is exact, which the tests verify against a
single-instance evaluation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.highlevel import TreeLikelihood
from repro.partition.spec import Partition, validate_partitions
from repro.seq.alignment import Alignment
from repro.seq.patterns import PatternSet
from repro.seq.simulate import SyntheticPatterns
from repro.tree.tree import Tree


class PartitionedLikelihood:
    """Joint likelihood of disjoint partitions sharing one tree.

    Each partition owns a full :class:`TreeLikelihood` (its own BEAGLE
    instance), so partitions may run on different resources and under
    different models — the paper's subset-per-instance pattern.
    """

    def __init__(
        self,
        tree: Tree,
        alignment: Alignment,
        partitions: Sequence[Partition],
        require_cover: bool = True,
        deferred: bool = False,
        **shared_instance_kwargs,
    ) -> None:
        validate_partitions(partitions, alignment.n_sites, require_cover)
        self.tree = tree
        self.partitions = list(partitions)
        self.components: List[TreeLikelihood] = []
        for part in self.partitions:
            data = part.extract(alignment)
            kwargs = dict(shared_instance_kwargs)
            kwargs.update(part.instance_kwargs)
            kwargs.setdefault("deferred", deferred)
            self.components.append(
                TreeLikelihood(
                    tree, data, part.model, part.site_model, **kwargs
                )
            )

    def instrument(self, tracer=None, metrics=None):
        """Attach one shared tracer + metrics registry to every partition."""
        for component in self.components:
            tracer, metrics = component.instrument(tracer, metrics)
        return tracer, metrics

    def set_execution_mode(self, deferred: bool) -> None:
        """Switch every partition's instance between eager and deferred."""
        for component in self.components:
            component.instance.set_execution_mode(deferred)

    def flush(self) -> None:
        """Execute any recorded deferred work on every partition."""
        for component in self.components:
            component.instance.flush()

    def log_likelihood(self) -> float:
        return float(sum(c.log_likelihood() for c in self.components))

    def partition_log_likelihoods(self) -> Dict[str, float]:
        return {
            part.name: component.log_likelihood()
            for part, component in zip(self.partitions, self.components)
        }

    def update_branch_lengths(self, node_indices: Sequence[int]) -> float:
        return float(
            sum(c.update_branch_lengths(node_indices) for c in self.components)
        )

    def backends(self) -> Dict[str, str]:
        """Which implementation each partition landed on."""
        return {
            part.name: component.instance.details.implementation_name
            for part, component in zip(self.partitions, self.components)
        }

    def finalize(self) -> None:
        for component in self.components:
            component.finalize()

    def __enter__(self) -> "PartitionedLikelihood":
        return self

    def __exit__(self, *exc) -> None:
        self.finalize()


def split_bounds(n_patterns: int, proportions: Sequence[float]) -> List[int]:
    """Chunk boundaries for a contiguous split of ``n_patterns`` patterns.

    Rounds the cumulative proportions to pattern indices and then clamps
    so that every chunk keeps at least one pattern: heavily skewed but
    valid proportions (e.g. the 0.97/0.03 a fast-GPU/slow-CPU pair gets
    from :func:`repro.partition.autoselect.balance_proportions`) would
    otherwise round a small chunk down to nothing.
    """
    proportions = np.asarray(proportions, dtype=float)
    if np.any(proportions <= 0) or not np.isclose(proportions.sum(), 1.0):
        raise ValueError("proportions must be positive and sum to 1")
    k = len(proportions)
    if k > n_patterns:
        raise ValueError(
            f"cannot split {n_patterns} patterns into {k} chunks"
        )
    bounds = np.concatenate(
        [[0], np.round(np.cumsum(proportions) * n_patterns)]
    ).astype(int)
    bounds[-1] = n_patterns
    # Clamp inner boundaries: chunk i must keep >= 1 pattern while
    # leaving >= 1 pattern for each of the k - i chunks after it.
    for i in range(1, k):
        bounds[i] = min(max(int(bounds[i]), i), n_patterns - (k - i))
    return [int(b) for b in bounds]


def split_pattern_set(
    data: PatternSet, proportions: Sequence[float]
) -> List[PatternSet]:
    """Split a pattern set into contiguous chunks by weight proportion.

    Every chunk is guaranteed at least one pattern (see
    :func:`split_bounds`), so any positive normalised proportion vector
    with at most ``n_patterns`` entries is valid.  Accepts either a
    compressed :class:`~repro.seq.patterns.PatternSet` or the
    :class:`~repro.seq.simulate.SyntheticPatterns` benchmark data.
    """
    bounds = split_bounds(data.n_patterns, proportions)
    chunks = []
    for i in range(len(bounds) - 1):
        lo, hi = bounds[i], bounds[i + 1]
        if isinstance(data, SyntheticPatterns):
            chunks.append(
                SyntheticPatterns(
                    tip_states=data.tip_states[:, lo:hi],
                    weights=data.weights[lo:hi],
                    state_count=data.state_count,
                )
            )
            continue
        aln = data.alignment
        chunks.append(
            PatternSet(
                alignment=Alignment(
                    aln.names, [row[lo:hi] for row in aln.rows],
                    aln.state_space,
                ),
                weights=data.weights[lo:hi],
                site_to_pattern=np.arange(hi - lo),
            )
        )
    return chunks


class MultiDeviceLikelihood:
    """One dataset, many devices: pattern-split across instances.

    ``device_requests`` maps a label to instance keyword arguments (e.g.
    ``{"requirement_flags": Flag.FRAMEWORK_CUDA}``); ``proportions``
    optionally sets the pattern share per device (see
    :func:`repro.partition.autoselect.balance_proportions` for the
    perf-model-driven split the paper's conclusion plans).
    """

    def __init__(
        self,
        tree: Tree,
        data: PatternSet,
        model,
        site_model=None,
        device_requests: Optional[Dict[str, Dict]] = None,
        proportions: Optional[Sequence[float]] = None,
        deferred: bool = False,
    ) -> None:
        if not device_requests:
            raise ValueError("need at least one device request")
        labels = list(device_requests)
        if proportions is None:
            proportions = [1.0 / len(labels)] * len(labels)
        if len(proportions) != len(labels):
            raise ValueError("one proportion per device request")
        self.tree = tree
        self.data = data
        self.model = model
        self.site_model = site_model
        self.device_requests = {k: dict(v) for k, v in device_requests.items()}
        self.deferred = deferred
        self.labels = labels
        self._tracer = None
        self._metrics = None
        self._fault_plan = None
        self._fault_level = "auto"
        self.components: List[TreeLikelihood] = []
        self.chunks: List[PatternSet] = []
        self._spans: List[Tuple[int, int]] = []
        self.proportions: List[float] = []
        self._reconfigure(labels, proportions)

    def _build_component(self, label: str, chunk: PatternSet):
        kwargs = dict(self.device_requests[label])
        kwargs.setdefault("deferred", self.deferred)
        component = TreeLikelihood(
            self.tree, chunk, self.model, self.site_model, **kwargs
        )
        if self._tracer is not None:
            component.instrument(self._tracer, self._metrics)
        if self._fault_plan is not None:
            from repro.resil.faults import _install_on_component

            component = _install_on_component(
                component,
                self._fault_plan.injector_for(label),
                self._fault_level,
            )
        return component

    def _reconfigure(
        self, labels: Sequence[str], proportions: Sequence[float]
    ) -> List[str]:
        """Atomically move to a new (active device set, pattern split).

        Components whose label survives with unchanged chunk boundaries
        are kept — their device buffers stay warm —
        and only the instances whose pattern range moved are (re)built.
        The transition is build-then-commit: every new instance is
        constructed before any old state is touched, so a failed build
        (e.g. a faulty replacement device) leaves the likelihood exactly
        as it was.  Returns the labels that were rebuilt.
        """
        labels = list(labels)
        unknown = [lab for lab in labels if lab not in self.device_requests]
        if unknown:
            raise ValueError(f"unknown device labels: {unknown}")
        bounds = split_bounds(self.data.n_patterns, proportions)
        if len(bounds) - 1 != len(labels):
            raise ValueError("one proportion per active device")
        chunks = split_pattern_set(self.data, proportions)
        old = {
            label: (component, chunk, span)
            for label, component, chunk, span in zip(
                self.labels, self.components, self.chunks, self._spans
            )
        }
        spans = [
            (bounds[i], bounds[i + 1]) for i in range(len(labels))
        ]
        new_components: List = []
        new_chunks: List[PatternSet] = []
        rebuilt: List[str] = []
        built_fresh: List = []
        try:
            for i, label in enumerate(labels):
                prev = old.get(label)
                if prev is not None and prev[2] == spans[i]:
                    new_components.append(prev[0])
                    new_chunks.append(prev[1])
                    continue
                component = self._build_component(label, chunks[i])
                built_fresh.append(component)
                new_components.append(component)
                new_chunks.append(chunks[i])
                rebuilt.append(label)
        except BaseException:
            for component in built_fresh:
                try:
                    component.finalize()
                except Exception:
                    pass
            raise
        # Commit: retire every instance that is dropped or replaced.
        keep = {id(component) for component in new_components}
        for component, _, _ in old.values():
            if id(component) not in keep:
                try:
                    component.finalize()
                except Exception:
                    # A lost device may refuse a clean teardown; the
                    # replacement instances are already committed.
                    pass
        self.labels = labels
        self.components = new_components
        self.chunks = new_chunks
        self._spans = spans
        n = self.data.n_patterns
        self.proportions = [(hi - lo) / n for lo, hi in spans]
        return rebuilt

    def resplit(self, proportions: Sequence[float]) -> List[str]:
        """Re-split the patterns and rebuild the affected instances.

        This is the mechanism behind measured-throughput rebalancing
        (:class:`repro.sched.RebalancingExecutor`): the executor computes
        new proportions from observed per-device rates and calls here.
        Returns the labels whose instances were rebuilt.
        """
        return self._reconfigure(self.labels, proportions)

    # -- resilience --------------------------------------------------------

    def install_fault_plan(self, plan, level: str = "auto") -> None:
        """Install a :class:`repro.resil.FaultPlan` on every component.

        The plan is remembered, so instances rebuilt by
        :meth:`resplit`/:meth:`drop_device`/:meth:`readmit_device` come
        back with their injector attached — and injector state is
        memoized per label on the plan, so a rebuild never resets the
        fault schedule.
        """
        from repro.resil.faults import _install_on_component

        self._fault_plan = plan
        self._fault_level = level
        for i, label in enumerate(self.labels):
            self.components[i] = _install_on_component(
                self.components[i], plan.injector_for(label), level
            )

    def drop_device(
        self, label: str, proportions: Optional[Sequence[float]] = None
    ) -> List[str]:
        """Quarantine a device: re-split its patterns across survivors.

        The default split renormalises the survivors' current shares,
        so a balanced pair degrades to the single survivor holding every
        pattern.  Returns the labels whose instances were rebuilt.
        """
        if label not in self.labels:
            raise ValueError(f"{label!r} is not an active device")
        if len(self.labels) == 1:
            raise ValueError("cannot drop the last remaining device")
        survivors = [lab for lab in self.labels if lab != label]
        if proportions is None:
            shares = dict(zip(self.labels, self.proportions))
            total = sum(shares[lab] for lab in survivors)
            proportions = [shares[lab] / total for lab in survivors]
        return self._reconfigure(survivors, proportions)

    def readmit_device(
        self, label: str, proportions: Optional[Sequence[float]] = None
    ) -> List[str]:
        """Re-admit a quarantined device into the active split.

        The active set returns to the original ``device_requests``
        order, so a drop/readmit cycle restores the original component
        ordering (and therefore the summation order).  The shares are
        not restored: unless *proportions* is given, every active
        device gets a uniform share, so the pattern boundaries — and
        with them the summed value's last bits — can differ from the
        configuration before the drop.
        """
        if label in self.labels:
            raise ValueError(f"{label!r} is already active")
        if label not in self.device_requests:
            raise ValueError(f"unknown device label {label!r}")
        active = set(self.labels) | {label}
        labels = [lab for lab in self.device_requests if lab in active]
        if proportions is None:
            proportions = [1.0 / len(labels)] * len(labels)
        return self._reconfigure(labels, proportions)

    def instrument(self, tracer=None, metrics=None):
        """Attach one shared tracer + metrics registry to every component.

        The pair is remembered so instances rebuilt by :meth:`resplit`
        are instrumented identically.
        """
        for component in self.components:
            tracer, metrics = component.instrument(tracer, metrics)
        self._tracer, self._metrics = tracer, metrics
        return tracer, metrics

    def set_execution_mode(self, deferred: bool) -> None:
        """Switch every device instance between eager and deferred."""
        self.deferred = deferred
        for component in self.components:
            component.instance.set_execution_mode(deferred)

    def flush(self) -> None:
        """Execute any recorded deferred work on every device instance."""
        for component in self.components:
            component.instance.flush()

    def backends(self) -> Dict[str, str]:
        """Which implementation each device request landed on."""
        return {
            label: component.instance.details.implementation_name
            for label, component in zip(self.labels, self.components)
        }

    def log_likelihood(self) -> float:
        return float(sum(c.log_likelihood() for c in self.components))

    def update_branch_lengths(self, node_indices: Sequence[int]) -> float:
        """Incremental re-evaluation after editing some branch lengths."""
        return float(
            sum(c.update_branch_lengths(node_indices) for c in self.components)
        )

    def device_report(self) -> List[Tuple[str, str, int]]:
        """(label, implementation, pattern count) per component."""
        return [
            (
                label,
                component.instance.details.implementation_name,
                chunk.n_patterns,
            )
            for label, component, chunk in zip(
                self.labels, self.components, self.chunks
            )
        ]

    def simulated_times(self) -> Dict[str, float]:
        """Per-device simulated seconds (accelerated components only)."""
        out = {}
        for label, component in zip(self.labels, self.components):
            impl = component.instance.impl
            if hasattr(impl, "simulated_time"):
                out[label] = impl.simulated_time
        return out

    def finalize(self) -> None:
        for component in self.components:
            component.finalize()

    def __enter__(self) -> "MultiDeviceLikelihood":
        return self

    def __exit__(self, *exc) -> None:
        self.finalize()
