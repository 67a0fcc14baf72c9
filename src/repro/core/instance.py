"""The BEAGLE instance: the library's primary client-facing object.

A :class:`BeagleInstance` owns one implementation on one resource and
exposes the full BEAGLE operation surface with Python conventions
(exceptions instead of return codes, NumPy arrays instead of raw
pointers).  The C-style functional facade lives in :mod:`repro.core.api`.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.flags import OP_NONE, Flag
from repro.core.manager import ResourceManager, default_manager
from repro.core.plan import ExecutionPlan
from repro.core.types import InstanceConfig, InstanceDetails, Operation
from repro.impl.base import BaseImplementation, PlanResult
from repro.model.ratematrix import EigenSystem, SubstitutionModel
from repro.util.errors import PlanVerificationError, UninitializedInstanceError


class BeagleInstance:
    """One likelihood-computation instance bound to a resource.

    Create directly (dimensions as keyword arguments) or via
    :func:`create_instance`, which mirrors ``beagleCreateInstance``.
    Instances are context managers; exiting finalizes the implementation.

    With ``deferred=True`` the instance records matrix updates and
    partials operations into an :class:`~repro.core.plan.ExecutionPlan`
    instead of executing them; the plan runs at :meth:`flush`, which
    likelihood calls (and any access to buffer state) trigger
    automatically.  Results are bit-identical to eager mode — deferral
    only changes *when* and *how concurrently* the work runs.
    """

    def __init__(
        self,
        config: InstanceConfig,
        precision: str = "double",
        preference_flags: Flag = Flag(0),
        requirement_flags: Flag = Flag(0),
        resource_ids: Optional[Sequence[int]] = None,
        manager: Optional[ResourceManager] = None,
        deferred: bool = False,
        strict_plans: bool = False,
        **factory_kwargs,
    ) -> None:
        manager = manager or default_manager()
        self.config = config
        impl, details = manager.create_implementation(
            config,
            precision,
            preference_flags,
            requirement_flags,
            resource_ids,
            **factory_kwargs,
        )
        self._impl: Optional[BaseImplementation] = impl
        self.details: InstanceDetails = details
        self._plan: Optional[ExecutionPlan] = (
            ExecutionPlan() if deferred else None
        )
        self._strict_plans = bool(strict_plans)

    @property
    def impl(self) -> BaseImplementation:
        if self._impl is None:
            raise UninitializedInstanceError("instance was finalized")
        return self._impl

    # -- observability -----------------------------------------------------

    @property
    def tracer(self):
        """The implementation's tracer (null until :meth:`instrument`)."""
        return self.impl.tracer

    @property
    def metrics(self):
        """The implementation's metrics registry (``None`` until instrumented)."""
        return self.impl.metrics

    def instrument(self, tracer=None, metrics=None):
        """Attach a tracer + metrics registry; see
        :meth:`repro.impl.base.BaseImplementation.instrument`."""
        return self.impl.instrument(tracer, metrics)

    # -- execution mode ----------------------------------------------------

    @property
    def deferred(self) -> bool:
        """Whether operations are being recorded rather than executed."""
        return self._plan is not None

    def set_execution_mode(self, deferred: bool) -> None:
        """Switch between eager and deferred dispatch.

        Leaving deferred mode flushes any recorded work first, so buffer
        state is identical either way.
        """
        if deferred and self._plan is None:
            self._plan = ExecutionPlan()
        elif not deferred and self._plan is not None:
            self.flush()
            self._plan = None

    @property
    def strict_plans(self) -> bool:
        """Whether :meth:`flush` statically verifies plans before running."""
        return self._strict_plans

    def set_plan_verification(self, strict: bool) -> None:
        """Toggle fail-fast static plan verification (off by default).

        When strict, :meth:`flush` runs the
        :class:`~repro.analysis.planverify.PlanVerifier` over the
        recorded plan and raises
        :class:`~repro.util.errors.PlanVerificationError` — before
        executing anything — if it finds error-severity diagnostics.
        """
        self._strict_plans = bool(strict)

    def verify_plan(self):
        """Statically verify the currently recorded (unflushed) plan.

        Returns the list of
        :class:`~repro.analysis.diagnostics.Diagnostic` findings
        against this instance's allocation and initialized-buffer
        state; empty when nothing is recorded or the plan is clean.
        The plan stays recorded either way.
        """
        if self._plan is None or self._plan.is_empty:
            return []
        from repro.analysis.planverify import verify_plan as _verify

        return _verify(self._plan, config=self.config, impl=self.impl)

    def flush(self) -> Dict[int, PlanResult]:
        """Execute the recorded plan; returns node-index -> result.

        Root/edge likelihood requests map to a log-likelihood float;
        branch-gradient requests map to an ``(n_edges, 3)`` array.

        A no-op (empty mapping) in eager mode or with nothing recorded.
        In strict mode (:meth:`set_plan_verification`) a plan with
        error-severity diagnostics raises
        :class:`~repro.util.errors.PlanVerificationError` and stays
        recorded, so it can be inspected via :meth:`verify_plan`.
        """
        if self._plan is None or self._plan.is_empty:
            return {}
        if self._strict_plans:
            from repro.analysis.diagnostics import (
                Severity,
                format_diagnostics,
            )

            errors = [
                d for d in self.verify_plan()
                if d.severity is Severity.ERROR
            ]
            if errors:
                raise PlanVerificationError(format_diagnostics(
                    errors, header="plan verification failed:"
                ))
        plan, self._plan = self._plan, ExecutionPlan()
        return self.impl.execute_plan(plan)

    def _sync(self) -> None:
        """Flush pending deferred work before any non-deferrable access."""
        if self._plan is not None and not self._plan.is_empty:
            self.flush()

    # -- data entry (thin delegation, see BaseImplementation for semantics) --
    # Every data-entry or state-inspection call syncs first: recorded
    # operations must observe the data as it was when they were recorded.

    def set_tip_states(self, tip_index: int, states: np.ndarray) -> None:
        self._sync()
        self.impl.set_tip_states(tip_index, states)

    def set_tip_partials(self, tip_index: int, partials: np.ndarray) -> None:
        self._sync()
        self.impl.set_tip_partials(tip_index, partials)

    def set_partials(self, index: int, partials: np.ndarray) -> None:
        self._sync()
        self.impl.set_partials(index, partials)

    def get_partials(self, index: int) -> np.ndarray:
        self._sync()
        return self.impl.get_partials(index)

    def set_eigen_decomposition(
        self,
        eigen_index: int,
        eigenvectors: np.ndarray,
        inverse_eigenvectors: np.ndarray,
        eigenvalues: np.ndarray,
    ) -> None:
        self._sync()
        self.impl.set_eigen_decomposition(
            eigen_index, eigenvectors, inverse_eigenvectors, eigenvalues
        )

    def set_substitution_model(
        self, eigen_index: int, model: SubstitutionModel,
        frequencies_index: int = 0,
    ) -> None:
        """Convenience: install a model's eigensystem and frequencies."""
        eigen: EigenSystem = model.eigen
        self.set_eigen_decomposition(
            eigen_index,
            eigen.eigenvectors,
            eigen.inverse_eigenvectors,
            eigen.eigenvalues,
        )
        self.set_state_frequencies(frequencies_index, model.frequencies)

    def set_category_rates(self, rates: Sequence[float]) -> None:
        self._sync()
        self.impl.set_category_rates(rates)

    def set_category_weights(self, index: int, weights: Sequence[float]) -> None:
        self._sync()
        self.impl.set_category_weights(index, weights)

    def set_state_frequencies(
        self, index: int, frequencies: Sequence[float]
    ) -> None:
        self._sync()
        self.impl.set_state_frequencies(index, frequencies)

    def set_pattern_weights(self, weights: Sequence[float]) -> None:
        self._sync()
        self.impl.set_pattern_weights(weights)

    def set_transition_matrix(self, index: int, matrix: np.ndarray) -> None:
        self._sync()
        self.impl.set_transition_matrix(index, matrix)

    def get_transition_matrix(self, index: int) -> np.ndarray:
        self._sync()
        return self.impl.get_transition_matrix(index)

    # -- compute ----------------------------------------------------------

    def update_transition_matrices(
        self,
        eigen_index: int,
        matrix_indices: Sequence[int],
        branch_lengths: Sequence[float],
        first_derivative_indices: Optional[Sequence[int]] = None,
        second_derivative_indices: Optional[Sequence[int]] = None,
    ) -> None:
        if self._plan is not None:
            # Validate now so errors surface at the call site, exactly
            # as they would in eager mode; execution waits for flush.
            self.impl._validate_matrix_update(
                eigen_index,
                list(matrix_indices),
                np.asarray(branch_lengths, dtype=float),
                first_derivative_indices,
                second_derivative_indices,
            )
            self._plan.record_matrix_update(
                eigen_index, matrix_indices, branch_lengths,
                first_derivative_indices, second_derivative_indices,
            )
            return
        self.impl.update_transition_matrices(
            eigen_index, matrix_indices, branch_lengths,
            first_derivative_indices, second_derivative_indices,
        )

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
    ):
        """``(logL, d logL/dt, d^2 logL/dt^2)`` across one branch."""
        self._sync()
        return self.impl.calculate_edge_derivatives(
            parent_index, child_index, matrix_index,
            first_derivative_index, second_derivative_index,
            category_weights_index, state_frequencies_index,
            cumulative_scale_index,
        )

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
        """Batched ``(logL, dlogL/dt, d^2 logL/dt^2)`` for many branches.

        Row ``e`` of the returned ``(n_edges, 3)`` array describes the
        edge between ``parent_indices[e]`` and ``child_indices[e]`` at
        ``branch_lengths[e]``.  In deferred mode the sweep is recorded
        into the plan (after the partials it reads) and the plan is
        flushed, so the gradient observes all recorded work — one fused
        launch on accelerated backends.
        """
        if self._plan is not None:
            node = self._plan.record_branch_gradients(
                eigen_index, parent_indices, child_indices,
                branch_lengths, category_weights_index,
                state_frequencies_index, cumulative_scale_index,
            )
            result = self.flush()[node.index]
            return np.asarray(result)
        return self.impl.calculate_branch_gradients(
            eigen_index, parent_indices, child_indices, branch_lengths,
            category_weights_index, state_frequencies_index,
            cumulative_scale_index,
        )

    def update_partials(self, operations: Sequence[Operation]) -> None:
        if self._plan is not None:
            for op in operations:
                self.impl._validate_operation(op)
            self._plan.record_operations(operations)
            return
        self.impl.update_partials(operations)

    def accumulate_scale_factors(
        self, scale_indices: Sequence[int], cumulative_index: int
    ) -> None:
        self._sync()
        self.impl.accumulate_scale_factors(scale_indices, cumulative_index)

    def reset_scale_factors(self, index: int) -> None:
        self._sync()
        self.impl.reset_scale_factors(index)

    def calculate_root_log_likelihoods(
        self,
        buffer_index: int,
        category_weights_index: int = 0,
        state_frequencies_index: int = 0,
        cumulative_scale_index: int = OP_NONE,
    ) -> float:
        tracer = self.impl.tracer
        if not tracer.enabled:
            return self._root_log_likelihoods_body(
                buffer_index, category_weights_index,
                state_frequencies_index, cumulative_scale_index,
            )
        c = self.config
        with tracer.span(
            "root_log_likelihood",
            kind="call",
            backend=self.impl.name,
            buffer_index=buffer_index,
            pattern_count=c.pattern_count,
            deferred=self.deferred,
        ) as span:
            value = self._root_log_likelihoods_body(
                buffer_index, category_weights_index,
                state_frequencies_index, cumulative_scale_index,
            )
        self._record_likelihood_call(span)
        return value

    def _root_log_likelihoods_body(
        self,
        buffer_index: int,
        category_weights_index: int,
        state_frequencies_index: int,
        cumulative_scale_index: int,
    ) -> float:
        if self._plan is not None:
            node = self._plan.record_root_likelihood(
                buffer_index,
                category_weights_index,
                state_frequencies_index,
                cumulative_scale_index,
            )
            return self.flush()[node.index]
        return self.impl.calculate_root_log_likelihoods(
            buffer_index,
            category_weights_index,
            state_frequencies_index,
            cumulative_scale_index,
        )

    def _record_likelihood_call(self, span) -> None:
        metrics = self.impl.metrics
        metrics.counter("likelihood.calls").inc()
        if span.duration > 0:
            metrics.gauge("likelihood.patterns_per_s").set(
                self.config.pattern_count / span.duration
            )

    def calculate_edge_log_likelihoods(
        self,
        parent_index: int,
        child_index: int,
        matrix_index: int,
        category_weights_index: int = 0,
        state_frequencies_index: int = 0,
        cumulative_scale_index: int = OP_NONE,
    ) -> float:
        tracer = self.impl.tracer
        if not tracer.enabled:
            return self._edge_log_likelihoods_body(
                parent_index, child_index, matrix_index,
                category_weights_index, state_frequencies_index,
                cumulative_scale_index,
            )
        with tracer.span(
            "edge_log_likelihood",
            kind="call",
            backend=self.impl.name,
            parent_index=parent_index,
            child_index=child_index,
            pattern_count=self.config.pattern_count,
            deferred=self.deferred,
        ) as span:
            value = self._edge_log_likelihoods_body(
                parent_index, child_index, matrix_index,
                category_weights_index, state_frequencies_index,
                cumulative_scale_index,
            )
        self._record_likelihood_call(span)
        return value

    def _edge_log_likelihoods_body(
        self,
        parent_index: int,
        child_index: int,
        matrix_index: int,
        category_weights_index: int,
        state_frequencies_index: int,
        cumulative_scale_index: int,
    ) -> float:
        if self._plan is not None:
            node = self._plan.record_edge_likelihood(
                parent_index,
                child_index,
                matrix_index,
                category_weights_index,
                state_frequencies_index,
                cumulative_scale_index,
            )
            return self.flush()[node.index]
        return self.impl.calculate_edge_log_likelihoods(
            parent_index,
            child_index,
            matrix_index,
            category_weights_index,
            state_frequencies_index,
            cumulative_scale_index,
        )

    def get_site_log_likelihoods(self) -> np.ndarray:
        self._sync()
        return self.impl.get_site_log_likelihoods()

    def matrix_cache_stats(self) -> Dict[str, float]:
        """Hit/miss counters for the transition-matrix memo cache."""
        return self.impl.matrix_cache_stats()

    # -- lifecycle -------------------------------------------------------------

    def finalize(self) -> None:
        """Release the implementation (``beagleFinalizeInstance``)."""
        if self._impl is not None:
            self._sync()
            self._impl.finalize()
            self._impl = None

    def __enter__(self) -> "BeagleInstance":
        return self

    def __exit__(self, *exc) -> None:
        self.finalize()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        d = self.details
        return (
            f"<BeagleInstance {d.implementation_name} on "
            f"{d.resource_name}>"
        )


def create_instance(
    tip_count: int,
    partials_buffer_count: int,
    compact_buffer_count: int,
    state_count: int,
    pattern_count: int,
    eigen_buffer_count: int,
    matrix_buffer_count: int,
    category_count: int = 1,
    scale_buffer_count: int = 0,
    resource_ids: Optional[Sequence[int]] = None,
    preference_flags: Flag = Flag(0),
    requirement_flags: Flag = Flag(0),
    precision: str = "double",
    manager: Optional[ResourceManager] = None,
    deferred: bool = False,
    **factory_kwargs,
) -> BeagleInstance:
    """Create an instance with ``beagleCreateInstance``'s argument list."""
    config = InstanceConfig(
        tip_count=tip_count,
        partials_buffer_count=partials_buffer_count,
        compact_buffer_count=compact_buffer_count,
        state_count=state_count,
        pattern_count=pattern_count,
        eigen_buffer_count=eigen_buffer_count,
        matrix_buffer_count=matrix_buffer_count,
        category_count=category_count,
        scale_buffer_count=scale_buffer_count,
    )
    return BeagleInstance(
        config,
        precision=precision,
        preference_flags=preference_flags,
        requirement_flags=requirement_flags,
        resource_ids=resource_ids,
        manager=manager,
        deferred=deferred,
        **factory_kwargs,
    )
