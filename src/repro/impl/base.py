"""Implementation base: buffer storage and operation semantics.

Concrete implementations (CPU serial, CPU vectorised, the three threaded
designs, and the simulated-framework accelerator models) subclass
:class:`BaseImplementation` and override the compute hooks.  The base
class owns all *semantics* — buffer indexing, validation, scaling
bookkeeping — so that backends differ only in execution strategy, exactly
mirroring how BEAGLE's ``implementation base-code`` layer sits under the
hardware-specific leaves (paper Figs. 1 and 3).
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core import compute
from repro.core.flags import OP_NONE, Flag
from repro.core.plan import (
    BranchGradientRequest,
    EdgeLikelihoodRequest,
    ExecutionPlan,
    MatrixUpdate,
    RootLikelihoodRequest,
)
from repro.core.types import InstanceConfig, Operation
from repro.accel.perfmodel import effective_gflops
from repro.obs import NULL_TRACER, MetricsRegistry, Tracer
from repro.util.errors import (
    BeagleError,
    InvalidIndexError,
    UnsupportedOperationError,
)

#: What one plan node evaluates to: a log-likelihood scalar for
#: root/edge requests, an ``(n_edges, 3)`` array for gradient sweeps.
PlanResult = Union[float, np.ndarray]


class BaseImplementation(abc.ABC):
    """Shared state and semantics for every BEAGLE implementation.

    Parameters
    ----------
    config:
        Instance dimensions (buffer counts, state count, etc.).
    precision:
        ``"single"`` or ``"double"``; chooses the partials/matrix dtype.
    """

    #: Human-readable implementation name (shown in ``InstanceDetails``).
    name: str = "base"
    #: Capability flags this implementation provides.
    flags: Flag = Flag(0)

    #: Dynamic-scaling trigger: patterns whose maximum partial falls below
    #: this are rescaled; the rest keep factor one.  Set per precision to
    #: sit far above the underflow boundary.
    DYNAMIC_SCALING_THRESHOLDS = {"single": 1e-10, "double": 1e-200}

    def __init__(
        self,
        config: InstanceConfig,
        precision: str = "double",
        scaling_mode: str = "always",
    ) -> None:
        if precision not in ("single", "double"):
            raise ValueError(f"precision must be single|double, got {precision!r}")
        if scaling_mode not in ("always", "dynamic"):
            raise ValueError(
                f"scaling_mode must be always|dynamic, got {scaling_mode!r}"
            )
        self.config = config
        self.precision = precision
        self.scaling_mode = scaling_mode
        self.dtype = np.float32 if precision == "single" else np.float64

        c = config
        # Compact (tip-state) and full partials buffers share one index
        # space of size total_buffer_count, as in the C library.
        self._partials = self._allocate_partials()
        #: Compact tip buffers: index -> int32 state codes (gap = s).
        self._tip_states: Dict[int, np.ndarray] = {}
        #: Matrix buffers with an all-ones gap column appended, which the
        #: gap state code ``s`` selects.  ``_matrices`` is a view of the
        #: first ``s`` columns, so writing a matrix also updates its
        #: gap-extended form: it is built once per matrix update, never
        #: once per operation.
        self._matrices_ext = np.zeros(
            (c.matrix_buffer_count, c.category_count, c.state_count,
             c.state_count + 1),
            dtype=self.dtype,
        )
        self._matrices_ext[..., -1] = 1.0
        self._matrices = self._matrices_ext[..., :-1]
        self._eigen: List[Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]] = [
            None
        ] * c.eigen_buffer_count
        self._category_rates = np.ones(c.category_count)
        self._category_weights: Dict[int, np.ndarray] = {
            0: np.full(c.category_count, 1.0 / c.category_count)
        }
        self._state_frequencies: Dict[int, np.ndarray] = {
            0: np.full(c.state_count, 1.0 / c.state_count)
        }
        self._pattern_weights = np.ones(c.pattern_count)
        self._scale_factors = np.zeros((max(c.scale_buffer_count, 0), c.pattern_count))
        self._site_log_likelihoods: Optional[np.ndarray] = None

        #: Transition matrices computed so far (eager calls and flushed
        #: plans alike); derivative matrices are not counted.
        self.matrices_computed = 0

        # Observability: hot paths check `self._tracer.enabled` exactly
        # once per call, so the default null tracer costs one branch.
        self._tracer: Tracer = NULL_TRACER
        self._metrics: Optional[MetricsRegistry] = None

        # Which partials/matrix buffers have actually been written (data
        # entry or computation).  Static plan verification reads these to
        # distinguish "filled by an earlier plan" from "never filled".
        # Updated at write time, never at deferred record time.
        self._written_partials: set = set()
        self._written_matrices: set = set()

    def _allocate_partials(self) -> Optional[np.ndarray]:
        """The host partials pool, zeroed.

        Slots shadowed by compact buffers stay zero until/unless a
        client replaces the compact representation with partials.
        Storage is patterns-innermost, (category, state, pattern); the
        beagle_* boundary transposes to and from (category, pattern,
        state).  Device backends keep partials in device pools and
        allocate none here.
        """
        c = self.config
        return np.zeros(
            (c.total_buffer_count, c.category_count, c.state_count, c.pattern_count),
            dtype=self.dtype,
        )

    # -- write tracking ------------------------------------------------------

    @property
    def initialized_partials(self) -> frozenset:
        """Indices of partials buffers that hold data (tips included)."""
        return frozenset(self._written_partials)

    @property
    def initialized_matrices(self) -> frozenset:
        """Indices of matrix buffers that hold data."""
        return frozenset(self._written_matrices)

    # -- observability -------------------------------------------------------

    @property
    def tracer(self) -> Tracer:
        """The attached tracer (the shared null tracer until instrumented)."""
        return self._tracer

    @property
    def metrics(self) -> Optional[MetricsRegistry]:
        """The attached metrics registry, or ``None`` until instrumented."""
        return self._metrics

    def instrument(
        self,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> Tuple[Tracer, MetricsRegistry]:
        """Attach (or create) a tracer and metrics registry.

        Spans and metrics are recorded only while ``tracer.enabled`` is
        true; toggle it freely to bracket regions of interest.  Returns
        the attached pair so callers can share them across instances.
        """
        self._tracer = tracer if tracer is not None else Tracer()
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        return self._tracer, self._metrics

    # -- index validation ---------------------------------------------------

    def _check_buffer(self, index: int) -> None:
        if not 0 <= index < self.config.total_buffer_count:
            raise InvalidIndexError(
                f"partials buffer {index} out of range "
                f"[0, {self.config.total_buffer_count})"
            )

    def _check_matrix(self, index: int) -> None:
        if not 0 <= index < self.config.matrix_buffer_count:
            raise InvalidIndexError(
                f"matrix buffer {index} out of range "
                f"[0, {self.config.matrix_buffer_count})"
            )

    def _check_scale(self, index: int) -> None:
        if not 0 <= index < self.config.scale_buffer_count:
            raise InvalidIndexError(
                f"scale buffer {index} out of range "
                f"[0, {self.config.scale_buffer_count})"
            )

    def _check_eigen(self, index: int) -> None:
        if not 0 <= index < self.config.eigen_buffer_count:
            raise InvalidIndexError(
                f"eigen buffer {index} out of range "
                f"[0, {self.config.eigen_buffer_count})"
            )

    # -- data entry ----------------------------------------------------------

    def set_tip_states(self, tip_index: int, states: np.ndarray) -> None:
        """Store compact integer state codes for a tip buffer."""
        if not 0 <= tip_index < self.config.tip_count:
            raise InvalidIndexError(f"tip index {tip_index} out of range")
        states = np.ascontiguousarray(states, dtype=np.int32)
        if states.shape != (self.config.pattern_count,):
            raise ValueError(
                f"tip states shape {states.shape} != "
                f"({self.config.pattern_count},)"
            )
        if states.min() < 0 or states.max() > self.config.state_count:
            raise ValueError(
                f"state codes must lie in [0, {self.config.state_count}] "
                f"(gap = {self.config.state_count})"
            )
        self._tip_states[tip_index] = states
        self._written_partials.add(tip_index)

    def set_tip_partials(self, tip_index: int, partials: np.ndarray) -> None:
        """Store per-state partials for a tip (supports partial ambiguity).

        Accepts ``(patterns, states)`` and broadcasts across categories,
        or ``(categories, patterns, states)``.
        """
        if not 0 <= tip_index < self.config.tip_count:
            raise InvalidIndexError(f"tip index {tip_index} out of range")
        partials = np.asarray(partials, dtype=self.dtype)
        c = self.config
        if partials.shape == (c.pattern_count, c.state_count):
            partials = np.broadcast_to(
                partials, (c.category_count,) + partials.shape
            )
        if partials.shape != (c.category_count, c.pattern_count, c.state_count):
            raise ValueError(f"tip partials shape {partials.shape} invalid")
        self._store_partials(tip_index, partials)

    def set_partials(self, index: int, partials: np.ndarray) -> None:
        """Directly set any partials buffer from ``(c, p, s)`` values."""
        self._check_buffer(index)
        partials = np.asarray(partials, dtype=self.dtype)
        c = self.config
        if partials.shape != (c.category_count, c.pattern_count, c.state_count):
            raise ValueError(f"partials shape {partials.shape} invalid")
        self._store_partials(index, partials)

    def _store_partials(self, index: int, partials: np.ndarray) -> None:
        """Write validated ``(c, p, s)`` partials into buffer ``index``,
        replacing any compact tip states it held."""
        self._tip_states.pop(index, None)
        self._partials[index] = partials.swapaxes(1, 2)
        self._written_partials.add(index)

    def get_partials(self, index: int) -> np.ndarray:
        """A ``(c, p, s)`` copy of one partials buffer."""
        self._check_buffer(index)
        if index in self._tip_states:
            raise UnsupportedOperationError(
                f"buffer {index} is a compact tip-state buffer"
            )
        return self._partials[index].swapaxes(1, 2).copy()

    def set_eigen_decomposition(
        self,
        eigen_index: int,
        eigenvectors: np.ndarray,
        inverse_eigenvectors: np.ndarray,
        eigenvalues: np.ndarray,
    ) -> None:
        self._check_eigen(eigen_index)
        s = self.config.state_count
        eigenvectors = np.asarray(eigenvectors)
        inverse_eigenvectors = np.asarray(inverse_eigenvectors)
        eigenvalues = np.asarray(eigenvalues)
        if eigenvectors.shape != (s, s) or inverse_eigenvectors.shape != (s, s):
            raise ValueError("eigenvector matrices must be (s, s)")
        if eigenvalues.shape != (s,):
            raise ValueError("eigenvalues must be length s")
        if np.iscomplexobj(eigenvalues) and not (self.flags & Flag.EIGEN_COMPLEX):
            raise UnsupportedOperationError(
                f"{self.name} does not support complex eigensystems"
            )
        self._eigen[eigen_index] = (
            eigenvectors,
            inverse_eigenvectors,
            eigenvalues,
        )

    def set_category_rates(self, rates: Sequence[float]) -> None:
        rates = np.asarray(rates, dtype=float)
        if rates.shape != (self.config.category_count,):
            raise ValueError(
                f"need {self.config.category_count} category rates, "
                f"got shape {rates.shape}"
            )
        if np.any(rates < 0):
            raise ValueError("category rates must be non-negative")
        self._category_rates = rates

    def set_category_weights(self, index: int, weights: Sequence[float]) -> None:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (self.config.category_count,):
            raise ValueError(
                f"need {self.config.category_count} category weights"
            )
        if np.any(weights < 0) or not np.isclose(weights.sum(), 1.0):
            raise ValueError("category weights must be a distribution")
        self._category_weights[index] = weights

    def set_state_frequencies(self, index: int, frequencies: Sequence[float]) -> None:
        frequencies = np.asarray(frequencies, dtype=float)
        if frequencies.shape != (self.config.state_count,):
            raise ValueError(f"need {self.config.state_count} frequencies")
        if np.any(frequencies < 0) or not np.isclose(frequencies.sum(), 1.0):
            raise ValueError("frequencies must be a distribution")
        self._state_frequencies[index] = frequencies

    def set_pattern_weights(self, weights: Sequence[float]) -> None:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (self.config.pattern_count,):
            raise ValueError(f"need {self.config.pattern_count} pattern weights")
        if np.any(weights < 0):
            raise ValueError("pattern weights must be non-negative")
        self._pattern_weights = weights

    def set_transition_matrix(self, index: int, matrix: np.ndarray) -> None:
        """Directly install a transition matrix (bypassing the eigen path)."""
        self._check_matrix(index)
        matrix = np.asarray(matrix, dtype=self.dtype)
        c = self.config
        if matrix.shape == (c.state_count, c.state_count):
            matrix = np.broadcast_to(
                matrix, (c.category_count,) + matrix.shape
            )
        if matrix.shape != (c.category_count, c.state_count, c.state_count):
            raise ValueError(f"matrix shape {matrix.shape} invalid")
        self._matrices[index] = matrix
        self._written_matrices.add(index)

    def get_transition_matrix(self, index: int) -> np.ndarray:
        self._check_matrix(index)
        return np.array(self._matrices[index])

    # -- compute operations ---------------------------------------------------

    def update_transition_matrices(
        self,
        eigen_index: int,
        matrix_indices: Sequence[int],
        branch_lengths: Sequence[float],
        first_derivative_indices: Optional[Sequence[int]] = None,
        second_derivative_indices: Optional[Sequence[int]] = None,
    ) -> None:
        """Compute ``P(r_c * t)`` for each listed matrix buffer.

        When derivative index lists are given (mirroring the C API's
        ``firstDerivativeIndices``/``secondDerivativeIndices``), the
        corresponding buffers receive ``dP/dt`` and ``d^2P/dt^2`` — i.e.
        ``r Q P`` and ``r^2 Q^2 P`` per rate category — which
        :meth:`calculate_edge_derivatives` consumes for Newton-style
        branch-length optimisation.
        """
        matrix_indices = list(matrix_indices)
        branch_lengths = np.asarray(branch_lengths, dtype=float)
        eigen = self._validate_matrix_update(
            eigen_index,
            matrix_indices,
            branch_lengths,
            first_derivative_indices,
            second_derivative_indices,
        )
        self._written_matrices.update(matrix_indices)
        for deriv in (first_derivative_indices, second_derivative_indices):
            if deriv is not None:
                self._written_matrices.update(deriv)
        tracer = self._tracer
        if not tracer.enabled:
            self._update_matrices_body(
                eigen, matrix_indices, branch_lengths,
                first_derivative_indices, second_derivative_indices,
            )
            return
        with tracer.span(
            "update_transition_matrices",
            kind="call",
            backend=self.name,
            eigen_index=eigen_index,
            n_matrices=len(matrix_indices),
        ):
            self._update_matrices_body(
                eigen, matrix_indices, branch_lengths,
                first_derivative_indices, second_derivative_indices,
            )
        self._metrics.counter("matrix.updates").inc(len(matrix_indices))

    def _update_matrices_body(
        self,
        eigen: Tuple[np.ndarray, np.ndarray, np.ndarray],
        matrix_indices: List[int],
        branch_lengths: np.ndarray,
        first_derivative_indices: Optional[Sequence[int]],
        second_derivative_indices: Optional[Sequence[int]],
    ) -> None:
        self._compute_matrices(eigen, matrix_indices, branch_lengths)
        self.matrices_computed += len(matrix_indices)
        if first_derivative_indices or second_derivative_indices:
            self._compute_derivative_matrices(
                eigen,
                matrix_indices,
                branch_lengths,
                first_derivative_indices,
                second_derivative_indices,
            )

    def _validate_matrix_update(
        self,
        eigen_index: int,
        matrix_indices: Sequence[int],
        branch_lengths: np.ndarray,
        first_derivative_indices: Optional[Sequence[int]],
        second_derivative_indices: Optional[Sequence[int]],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Validate a matrix-update request; returns the eigen system.

        Shared between the eager path and deferred recording so errors
        surface at call time in both modes.
        """
        self._check_eigen(eigen_index)
        eigen = self._eigen[eigen_index]
        if eigen is None:
            raise BeagleError(f"eigen buffer {eigen_index} was never set")
        branch_lengths = np.asarray(branch_lengths, dtype=float)
        if len(matrix_indices) != branch_lengths.size:
            raise ValueError("matrix index and branch length counts differ")
        if np.any(branch_lengths < 0):
            raise ValueError("branch lengths must be non-negative")
        for idx in matrix_indices:
            self._check_matrix(idx)
        for deriv in (first_derivative_indices, second_derivative_indices):
            if deriv is not None:
                if len(deriv) != len(matrix_indices):
                    raise ValueError(
                        "derivative index count must match matrix count"
                    )
                for idx in deriv:
                    self._check_matrix(idx)
        return eigen

    def _compute_derivative_matrices(
        self,
        eigen,
        matrix_indices,
        branch_lengths,
        first_derivative_indices,
        second_derivative_indices,
    ) -> None:
        v, v_inv, lam = eigen
        rates = self._category_rates
        lengths = np.asarray(branch_lengths, dtype=float)
        for order, targets in (
            (1, first_derivative_indices),
            (2, second_derivative_indices),
        ):
            if targets is None:
                continue
            # The same shared contraction the batched gradient path
            # uses, so serial and fused derivatives stay bit-identical.
            d = compute.derivative_matrices_from_eigen(
                v, v_inv, lam, lengths, rates, order, self.dtype
            )
            for pos in range(len(matrix_indices)):
                self._matrices[targets[pos]] = d[pos]

    def update_partials(self, operations: Sequence[Operation]) -> None:
        """Evaluate a dependency-ordered list of partials operations."""
        ops = list(operations)
        for op in ops:
            self._validate_operation(op)
        self._written_partials.update(op.destination for op in ops)
        tracer = self._tracer
        if not tracer.enabled:
            self._execute_operations(ops)
            return
        c = self.config
        with tracer.span(
            "update_partials",
            kind="call",
            backend=self.name,
            n_operations=len(ops),
            pattern_count=c.pattern_count,
        ) as span:
            self._execute_operations(ops)
        metrics = self._metrics
        metrics.counter("partials.calls").inc()
        metrics.counter("partials.operations").inc(len(ops))
        if span.duration > 0 and ops:
            metrics.gauge("partials.patterns_per_s").set(
                len(ops) * c.pattern_count / span.duration
            )
            metrics.gauge("partials.effective_gflops").set(
                effective_gflops(
                    len(ops), c.pattern_count, c.state_count,
                    c.category_count, span.duration,
                )
            )

    def execute_plan(self, plan: ExecutionPlan) -> Dict[int, PlanResult]:
        """Replay a recorded :class:`ExecutionPlan` level by level.

        Nodes within one level are mutually independent, so each level's
        partials operations go through :meth:`_execute_level` as a
        single batch — the hook threaded and accelerated backends
        override to exploit tree-level concurrency.  Returns a mapping
        of plan-node index to log-likelihood for every recorded root or
        edge likelihood request, and to an ``(n_edges, 3)`` array for
        every branch-gradient request.
        """
        tracer = self._tracer
        if not tracer.enabled:
            results: Dict[int, PlanResult] = {}
            for level in plan.levels():
                self._run_plan_level(level, results)
            return results
        stats = plan.stats()
        c = self.config
        with tracer.span(
            "execute_plan",
            kind="plan",
            backend=self.name,
            n_nodes=stats["n_nodes"],
            n_operations=stats["n_operations"],
            n_matrix_updates=stats["n_matrix_updates"],
            n_levels=stats["n_levels"],
        ) as span:
            results = {}
            for level_id, level in enumerate(plan.levels()):
                level_ops = sum(
                    1 for n in level if isinstance(n.payload, Operation)
                )
                with tracer.span(
                    "plan_level",
                    kind="level",
                    level_id=level_id,
                    width=len(level),
                    n_operations=level_ops,
                ):
                    self._run_plan_level(level, results)
        metrics = self._metrics
        metrics.counter("plan.executions").inc()
        metrics.counter("plan.nodes").inc(stats["n_nodes"])
        metrics.counter("partials.operations").inc(stats["n_operations"])
        level_width = metrics.histogram("plan.level_width")
        for width in stats["level_widths"]:
            level_width.observe(width)
        if span.duration > 0 and stats["n_operations"]:
            metrics.gauge("plan.effective_gflops").set(
                effective_gflops(
                    stats["n_operations"], c.pattern_count, c.state_count,
                    c.category_count, span.duration,
                )
            )
        return results

    def _run_plan_level(self, level, results: Dict[int, PlanResult]) -> None:
        """Execute one already-grouped plan level into ``results``."""
        level_ops: List[Operation] = []
        for node in level:
            payload = node.payload
            if isinstance(payload, MatrixUpdate):
                self.update_transition_matrices(
                    payload.eigen_index,
                    list(payload.matrix_indices),
                    list(payload.branch_lengths),
                    payload.first_derivative_indices,
                    payload.second_derivative_indices,
                )
            elif isinstance(payload, Operation):
                self._validate_operation(payload)
                level_ops.append(payload)
        if level_ops:
            self._written_partials.update(
                op.destination for op in level_ops
            )
            self._execute_level(level_ops)
        for node in level:
            payload = node.payload
            if isinstance(payload, RootLikelihoodRequest):
                results[node.index] = self.calculate_root_log_likelihoods(
                    payload.buffer_index,
                    payload.category_weights_index,
                    payload.state_frequencies_index,
                    payload.cumulative_scale_index,
                )
            elif isinstance(payload, EdgeLikelihoodRequest):
                results[node.index] = self.calculate_edge_log_likelihoods(
                    payload.parent_index,
                    payload.child_index,
                    payload.matrix_index,
                    payload.category_weights_index,
                    payload.state_frequencies_index,
                    payload.cumulative_scale_index,
                )
            elif isinstance(payload, BranchGradientRequest):
                results[node.index] = self.calculate_branch_gradients(
                    payload.eigen_index,
                    payload.parent_indices,
                    payload.child_indices,
                    payload.branch_lengths,
                    payload.category_weights_index,
                    payload.state_frequencies_index,
                    payload.cumulative_scale_index,
                )

    def _execute_level(self, operations: List[Operation]) -> None:
        """Run one level of mutually independent, validated operations.

        The default replays the per-call path, which on the host CPU
        backends is one wave of pattern slices; the accelerated backends
        override this to run the level's operations side by side.
        """
        self._execute_operations(list(operations))

    def _validate_operation(self, op: Operation) -> None:
        self._check_buffer(op.destination)
        self._check_buffer(op.child1)
        self._check_buffer(op.child2)
        self._check_matrix(op.child1_matrix)
        self._check_matrix(op.child2_matrix)
        if op.destination in self._tip_states:
            raise UnsupportedOperationError(
                f"cannot write partials into compact tip buffer {op.destination}"
            )
        if op.write_scale != OP_NONE:
            self._check_scale(op.write_scale)
        if op.read_scale != OP_NONE:
            self._check_scale(op.read_scale)

    def accumulate_scale_factors(
        self, scale_indices: Sequence[int], cumulative_index: int
    ) -> None:
        """Sum log scale factors of ``scale_indices`` into the cumulative buffer."""
        self._check_scale(cumulative_index)
        total = np.zeros(self.config.pattern_count)
        for idx in scale_indices:
            self._check_scale(idx)
            if idx == cumulative_index:
                raise ValueError(
                    "cumulative buffer cannot be one of the accumulated buffers"
                )
            total += self._scale_factors[idx]
        self._scale_factors[cumulative_index] += total

    def reset_scale_factors(self, index: int) -> None:
        self._check_scale(index)
        self._scale_factors[index] = 0.0

    def get_scale_factors(self, index: int) -> np.ndarray:
        """Log-domain scale factors for one buffer (``SCALERS_LOG``)."""
        self._check_scale(index)
        return np.array(self._scale_factors[index])

    def calculate_root_log_likelihoods(
        self,
        buffer_index: int,
        category_weights_index: int = 0,
        state_frequencies_index: int = 0,
        cumulative_scale_index: int = OP_NONE,
    ) -> float:
        self._check_buffer(buffer_index)
        if buffer_index in self._tip_states:
            raise UnsupportedOperationError("root buffer cannot be compact")
        scale = None
        if cumulative_scale_index != OP_NONE:
            self._check_scale(cumulative_scale_index)
            scale = self._scale_factors[cumulative_scale_index]
        logl, per_pattern = self._compute_root(
            self._partials[buffer_index],
            self._category_weights[category_weights_index],
            self._state_frequencies[state_frequencies_index],
            scale,
        )
        self._site_log_likelihoods = per_pattern
        return logl

    def calculate_edge_log_likelihoods(
        self,
        parent_index: int,
        child_index: int,
        matrix_index: int,
        category_weights_index: int = 0,
        state_frequencies_index: int = 0,
        cumulative_scale_index: int = OP_NONE,
    ) -> float:
        self._check_buffer(parent_index)
        self._check_buffer(child_index)
        self._check_matrix(matrix_index)
        scale = None
        if cumulative_scale_index != OP_NONE:
            self._check_scale(cumulative_scale_index)
            scale = self._scale_factors[cumulative_scale_index]
        parent = self._dense_partials(parent_index)
        child = self._dense_partials(child_index)
        logl, per_pattern = compute.edge_log_likelihood(
            parent,
            child,
            self._matrices[matrix_index],
            self._category_weights[category_weights_index],
            self._state_frequencies[state_frequencies_index],
            self._pattern_weights,
            scale,
        )
        self._site_log_likelihoods = per_pattern
        return logl

    def calculate_edge_derivatives(
        self,
        parent_index: int,
        child_index: int,
        matrix_index: int,
        first_derivative_index: int,
        second_derivative_index: int,
        category_weights_index: int = 0,
        state_frequencies_index: int = 0,
        cumulative_scale_index: int = OP_NONE,
    ) -> Tuple[float, float, float]:
        """Log-likelihood and branch-length derivatives across one edge.

        Requires the derivative matrix buffers to have been filled by
        :meth:`update_transition_matrices` with derivative indices.
        Returns ``(logL, dlogL/dt, d^2 logL/dt^2)``; the scale term is a
        branch-length-independent additive constant, so derivatives need
        no scale correction.
        """
        self._check_buffer(parent_index)
        self._check_buffer(child_index)
        for idx in (matrix_index, first_derivative_index,
                    second_derivative_index):
            self._check_matrix(idx)
        parent = self._dense_partials(parent_index)
        child = self._dense_partials(child_index)
        logl, d1, d2 = compute.edge_derivatives(
            parent,
            child,
            self._matrices[matrix_index],
            self._matrices[first_derivative_index],
            self._matrices[second_derivative_index],
            self._category_weights[category_weights_index],
            self._state_frequencies[state_frequencies_index],
            self._pattern_weights,
        )
        if cumulative_scale_index != OP_NONE:
            self._check_scale(cumulative_scale_index)
            logl += float(
                np.dot(
                    self._pattern_weights,
                    self._scale_factors[cumulative_scale_index],
                )
            )
        return logl, d1, d2

    def calculate_branch_gradients(
        self,
        eigen_index: int,
        parent_indices: Sequence[int],
        child_indices: Sequence[int],
        branch_lengths: Sequence[float],
        category_weights_index: int = 0,
        state_frequencies_index: int = 0,
        cumulative_scale_index: int = OP_NONE,
    ) -> np.ndarray:
        """Edge log-likelihood, d1, and d2 for a whole batch of branches.

        Row ``e`` of the returned ``(n_edges, 3)`` array is ``(logL,
        dlogL/dt, d^2 logL/dt^2)`` across the edge from
        ``parent_indices[e]`` to ``child_indices[e]`` at trial length
        ``branch_lengths[e]``.  The transition matrices and both
        derivative matrices are derived directly from the eigen system
        for the given lengths — no matrix buffer is read or written, so
        the batch can never observe (or leave behind) a stale
        trial-length matrix, unlike the per-branch path through
        :meth:`update_transition_matrices` /
        :meth:`calculate_edge_derivatives`.

        The scale term is a branch-length-independent additive constant:
        it lands on the log-likelihood column only, never on the
        derivative columns.
        """
        parent_indices = list(parent_indices)
        child_indices = list(child_indices)
        lengths = np.asarray(branch_lengths, dtype=float)
        self._check_eigen(eigen_index)
        eigen = self._eigen[eigen_index]
        if eigen is None:
            raise BeagleError(f"eigen buffer {eigen_index} was never set")
        if not (len(parent_indices) == len(child_indices) == lengths.size):
            raise ValueError(
                "parent, child, and branch-length counts differ"
            )
        if lengths.size and np.any(lengths < 0):
            raise ValueError("branch lengths must be non-negative")
        for idx in (*parent_indices, *child_indices):
            self._check_buffer(idx)
        scale = None
        if cumulative_scale_index != OP_NONE:
            self._check_scale(cumulative_scale_index)
            scale = self._cumulative_scale_log(cumulative_scale_index)
        if lengths.size == 0:
            return np.zeros((0, 3))
        weights = self._category_weights[category_weights_index]
        frequencies = self._state_frequencies[state_frequencies_index]
        tracer = self._tracer
        if not tracer.enabled:
            return self._compute_branch_gradients(
                eigen, parent_indices, child_indices, lengths,
                weights, frequencies, scale,
            )
        with tracer.span(
            "calculate_branch_gradients",
            kind="call",
            backend=self.name,
            n_edges=int(lengths.size),
        ):
            out = self._compute_branch_gradients(
                eigen, parent_indices, child_indices, lengths,
                weights, frequencies, scale,
            )
        metrics = self._metrics
        metrics.counter("gradient.calls").inc()
        metrics.counter("gradient.edges").inc(int(lengths.size))
        return out

    def _compute_branch_gradients(
        self,
        eigen: Tuple[np.ndarray, np.ndarray, np.ndarray],
        parent_indices: List[int],
        child_indices: List[int],
        lengths: np.ndarray,
        category_weights: np.ndarray,
        state_frequencies: np.ndarray,
        cumulative_scale_log: Optional[np.ndarray],
    ) -> np.ndarray:
        """Gradient batch hook; accelerated backends fuse this launch."""
        v, v_inv, lam = eigen
        rates = self._category_rates
        p_mats = compute.matrices_from_eigen(
            v, v_inv, lam, lengths, rates, self.dtype
        )
        d1_mats = compute.derivative_matrices_from_eigen(
            v, v_inv, lam, lengths, rates, 1, self.dtype
        )
        d2_mats = compute.derivative_matrices_from_eigen(
            v, v_inv, lam, lengths, rates, 2, self.dtype
        )
        scale_term = 0.0
        if cumulative_scale_log is not None:
            scale_term = float(
                np.dot(self._pattern_weights, cumulative_scale_log)
            )
        out = np.empty((lengths.size, 3))
        for e in range(lengths.size):
            logl, d1, d2 = compute.edge_derivatives(
                self._dense_partials(parent_indices[e]),
                self._dense_partials(child_indices[e]),
                p_mats[e],
                d1_mats[e],
                d2_mats[e],
                category_weights,
                state_frequencies,
                self._pattern_weights,
            )
            out[e] = (logl + scale_term, d1, d2)
        return out

    def get_site_log_likelihoods(self) -> np.ndarray:
        if self._site_log_likelihoods is None:
            raise BeagleError("no likelihood has been calculated yet")
        return np.array(self._site_log_likelihoods)

    # -- helpers ---------------------------------------------------------------

    def _cumulative_scale_log(self, index: int) -> np.ndarray:
        """The live log scale factors for one (validated) scale buffer.

        Accelerated backends override to read the device copy — the host
        mirror in ``_scale_factors`` is not kept coherent with
        device-side dynamic rescaling.
        """
        return self._scale_factors[index]

    def _dense_partials(self, index: int) -> np.ndarray:
        """View any buffer as dense ``(c, s, p)`` partials.

        A compact tip expands to one row per pattern of the gap-extended
        identity: one-hot for a known state, all ones for a gap, viewed
        (without a copy) as the transpose of those ``(p, s)`` rows.
        """
        if index not in self._tip_states:
            return self._partials[index]
        c = self.config
        lift = compute.extend_matrices_for_gaps(
            np.eye(c.state_count, dtype=self.dtype)
        )
        rows = lift.T[self._tip_states[index]]
        return np.broadcast_to(
            rows.T, (c.category_count, c.state_count, c.pattern_count)
        )

    @property
    def _scaling_threshold(self) -> float:
        if self.scaling_mode == "dynamic":
            return self.DYNAMIC_SCALING_THRESHOLDS[self.precision]
        return np.inf

    def _apply_scaling(self, op: Operation, sl: slice = slice(None)) -> None:
        """Apply one operation's scaling to pattern slice ``sl`` of its
        destination, in place.

        Factors are per pattern, so scaling slices separately is
        bit-identical to scaling the whole axis at once.
        """
        dest = self._partials[op.destination][:, :, sl]
        if op.read_scale != OP_NONE:
            dest *= np.exp(self._scale_factors[op.read_scale, sl])
        if op.write_scale != OP_NONE:
            _, log_factors = compute.rescale_partials(
                dest, threshold=self._scaling_threshold
            )
            self._scale_factors[op.write_scale, sl] = log_factors

    # -- compute hooks (overridden per backend) --------------------------------

    def _compute_matrices(
        self,
        eigen: Tuple[np.ndarray, np.ndarray, np.ndarray],
        matrix_indices: List[int],
        branch_lengths: np.ndarray,
    ) -> None:
        v, v_inv, lam = eigen
        mats = compute.matrices_from_eigen(
            v, v_inv, lam, branch_lengths, self._category_rates, self.dtype
        )
        for pos, idx in enumerate(matrix_indices):
            self._matrices[idx] = mats[pos]

    def _execute_operations(self, operations: List[Operation]) -> None:
        """Run validated operations in order.  Override for concurrency."""
        tracer = self._tracer
        if not tracer.enabled:
            for op in operations:
                self._compute_operation(op)
            return
        for op in operations:
            with tracer.span(
                "partials_operation",
                kind="op",
                destination=op.destination,
                child1=op.child1,
                child2=op.child2,
            ):
                self._compute_operation(op)

    @abc.abstractmethod
    def _compute_operation(self, op: Operation) -> None:
        """Compute one partials update into ``self._partials[op.destination]``.

        Host backends write the destination in place, without per-op
        temporaries.
        """

    def _compute_root(
        self,
        root_partials: np.ndarray,
        category_weights: np.ndarray,
        state_frequencies: np.ndarray,
        cumulative_scale_log: Optional[np.ndarray],
    ) -> Tuple[float, np.ndarray]:
        """Root integration hook (thread-pool backend parallelises this)."""
        return compute.root_log_likelihood(
            root_partials,
            category_weights,
            state_frequencies,
            self._pattern_weights,
            cumulative_scale_log,
        )

    # -- lifecycle ---------------------------------------------------------------

    def finalize(self) -> None:
        """Release resources.  Subclasses with threads/devices override."""

    def __enter__(self) -> "BaseImplementation":
        return self

    def __exit__(self, *exc) -> None:
        self.finalize()
