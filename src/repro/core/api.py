"""C-style functional API (``beagle_*``).

A faithful transliteration of the BEAGLE C API for clients porting from
the original library: instances are integer handles, calls return
``ReturnCode`` integers instead of raising, and the argument lists mirror
``beagle.h``.  Each function delegates to a :class:`BeagleInstance` held
in a process-wide handle table.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.flags import OP_NONE, Flag, ReturnCode
from repro.core.instance import BeagleInstance, create_instance
from repro.core.manager import default_manager
from repro.core.types import InstanceDetails, Operation, ResourceDescription
from repro.util.errors import BeagleError

_instances: Dict[int, BeagleInstance] = {}
_next_handle = 0
#: Guards the handle counter and table: ``beagle_create_instance`` /
#: ``beagle_finalize_instance`` may race from concurrent client threads.
_handle_lock = threading.Lock()


class _ErrorState(threading.local):
    """Per-thread last-error message.

    Message of the most recent failed ``beagle_*`` call on *this*
    thread, cleared by the next successful call.  The C API only
    returns integer codes; this mirrors the debugging workflow of
    inspecting BEAGLE's stderr diagnostics.  Thread-local so a failure
    on one client thread is never reported to (or clobbered by) calls
    racing on another.
    """

    message: Optional[str] = None


_error_state = _ErrorState()


def beagle_get_last_error_message() -> Optional[str]:
    """Message of this thread's most recent failed call, or ``None``.

    Error codes alone discard the exception detail (which buffer index,
    what shape mismatch); this recovers it without changing the C-style
    return-code contract.  Any successful ``beagle_*`` call clears it,
    so a stale message from a recovered failure is never re-reported.
    """
    return _error_state.message


def _record_failure(name: str, exc: BaseException) -> int:
    """Record a failed ``beagle_*`` call and map it to an error code.

    Every error funnels through here so the message format — which call
    failed, the exception class, the detail — is uniform across the API.
    """
    _error_state.message = f"{name}: {type(exc).__name__}: {exc}"
    if isinstance(exc, BeagleError):
        return int(exc.code)
    if isinstance(exc, (ValueError, IndexError, KeyError)):
        return int(ReturnCode.ERROR_OUT_OF_RANGE)
    return int(ReturnCode.ERROR_UNIDENTIFIED_EXCEPTION)


def _wrap(name: str, fn: Callable[[], object]) -> int:
    """Run ``fn`` and translate exceptions to BEAGLE error codes.

    ``name`` is the ``beagle_*`` call being serviced; it is recorded in
    :func:`beagle_get_last_error_message` on failure.
    """
    try:
        fn()
    except Exception as exc:
        return _record_failure(name, exc)
    _error_state.message = None
    return int(ReturnCode.SUCCESS)


def _get(instance: int) -> BeagleInstance:
    try:
        return _instances[instance]
    except KeyError:
        raise BeagleError(f"no instance with handle {instance}") from None


def beagle_get_resource_list() -> List[ResourceDescription]:
    """``beagleGetResourceList``.

    Routed through :func:`_wrap` like every other call so a successful
    listing clears any stale error message.
    """
    resources: List[ResourceDescription] = []

    def go() -> None:
        resources.extend(default_manager().resources())

    _wrap("beagle_get_resource_list", go)
    return resources


def beagle_create_instance(
    tip_count: int,
    partials_buffer_count: int,
    compact_buffer_count: int,
    state_count: int,
    pattern_count: int,
    eigen_buffer_count: int,
    matrix_buffer_count: int,
    category_count: int = 1,
    scale_buffer_count: int = 0,
    resource_list: Optional[Sequence[int]] = None,
    preference_flags: Flag = Flag(0),
    requirement_flags: Flag = Flag(0),
) -> Tuple[int, Optional[InstanceDetails]]:
    """``beagleCreateInstance``: returns ``(handle, details)``.

    A negative handle is an error code, as in the C API.  The resource
    selection is spelled ``resource_list``, as in ``beagle.h``.
    """
    global _next_handle
    precision = (
        "single"
        if (requirement_flags & Flag.PRECISION_SINGLE)
        and not (requirement_flags & Flag.PRECISION_DOUBLE)
        else "double"
    )
    try:
        inst = create_instance(
            tip_count,
            partials_buffer_count,
            compact_buffer_count,
            state_count,
            pattern_count,
            eigen_buffer_count,
            matrix_buffer_count,
            category_count,
            scale_buffer_count,
            resource_ids=resource_list,
            preference_flags=preference_flags,
            requirement_flags=requirement_flags & ~(
                Flag.PRECISION_SINGLE | Flag.PRECISION_DOUBLE
            ),
            precision=precision,
        )
    except (BeagleError, ValueError, IndexError) as exc:
        return _record_failure("beagle_create_instance", exc), None
    _error_state.message = None
    with _handle_lock:
        handle = _next_handle
        _next_handle += 1
        _instances[handle] = inst
    return handle, inst.details


def beagle_finalize_instance(instance: int) -> int:
    """``beagleFinalizeInstance``."""

    def go() -> None:
        with _handle_lock:
            inst = _get(instance)
            del _instances[instance]
        inst.finalize()

    return _wrap("beagle_finalize_instance", go)


def beagle_set_tip_states(instance: int, tip_index: int, states: Any) -> int:
    return _wrap("beagle_set_tip_states", lambda: _get(instance).set_tip_states(
        tip_index, np.asarray(states, dtype=np.int32)))


def beagle_set_tip_partials(instance: int, tip_index: int, partials: Any) -> int:
    return _wrap("beagle_set_tip_partials", lambda: _get(instance).set_tip_partials(
        tip_index, np.asarray(partials)))


def beagle_set_partials(instance: int, buffer_index: int, partials: Any) -> int:
    return _wrap("beagle_set_partials", lambda: _get(instance).set_partials(
        buffer_index, np.asarray(partials)))


def beagle_get_partials(instance: int, buffer_index: int, out: np.ndarray) -> int:
    def go() -> None:
        out[...] = _get(instance).get_partials(buffer_index)

    return _wrap("beagle_get_partials", go)


def beagle_set_eigen_decomposition(
    instance: int,
    eigen_index: int,
    eigenvectors: Any,
    inverse_eigenvectors: Any,
    eigenvalues: Any,
) -> int:
    return _wrap("beagle_set_eigen_decomposition", lambda: _get(instance).set_eigen_decomposition(
        eigen_index,
        np.asarray(eigenvectors),
        np.asarray(inverse_eigenvectors),
        np.asarray(eigenvalues),
    ))


def beagle_set_category_rates(instance: int, rates: Any) -> int:
    return _wrap("beagle_set_category_rates", lambda: _get(instance).set_category_rates(rates))


def beagle_set_category_weights(instance: int, index: int, weights: Any) -> int:
    return _wrap("beagle_set_category_weights", lambda: _get(instance).set_category_weights(index, weights))


def beagle_set_state_frequencies(instance: int, index: int, frequencies: Any) -> int:
    return _wrap("beagle_set_state_frequencies", lambda: _get(instance).set_state_frequencies(
        index, frequencies))


def beagle_set_pattern_weights(instance: int, weights: Any) -> int:
    return _wrap("beagle_set_pattern_weights", lambda: _get(instance).set_pattern_weights(weights))


def beagle_set_transition_matrix(instance: int, index: int, matrix: Any) -> int:
    return _wrap("beagle_set_transition_matrix", lambda: _get(instance).set_transition_matrix(
        index, np.asarray(matrix)))


def beagle_update_transition_matrices(
    instance: int,
    eigen_index: int,
    probability_indices: Sequence[int],
    edge_lengths: Sequence[float],
    first_derivative_indices: Optional[Sequence[int]] = None,
    second_derivative_indices: Optional[Sequence[int]] = None,
) -> int:
    return _wrap("beagle_update_transition_matrices", lambda: _get(instance).update_transition_matrices(
        eigen_index, probability_indices, edge_lengths,
        first_derivative_indices, second_derivative_indices))


def beagle_get_transition_matrix(instance: int, index: int, out: np.ndarray) -> int:
    def go() -> None:
        out[...] = _get(instance).get_transition_matrix(index)

    return _wrap("beagle_get_transition_matrix", go)


def beagle_get_scale_factors(instance: int, index: int, out: np.ndarray) -> int:
    """Log-domain scale factors of one buffer (``SCALERS_LOG``)."""

    def go() -> None:
        out[...] = _get(instance).impl.get_scale_factors(index)

    return _wrap("beagle_get_scale_factors", go)


def beagle_calculate_edge_derivatives(
    instance: int,
    parent_buffer_indices: Sequence[int],
    child_buffer_indices: Sequence[int],
    probability_indices: Sequence[int],
    first_derivative_indices: Sequence[int],
    second_derivative_indices: Sequence[int],
    category_weights_indices: Sequence[int],
    state_frequencies_indices: Sequence[int],
    cumulative_scale_indices: Sequence[int],
    out_sum_log_likelihood: np.ndarray,
    out_sum_first_derivative: np.ndarray,
    out_sum_second_derivative: np.ndarray,
) -> int:
    """``beagleCalculateEdgeLogLikelihoods`` with derivatives (one edge)."""

    def go() -> None:
        if len(parent_buffer_indices) != 1:
            raise ValueError("exactly one edge evaluation per call")
        logl, d1, d2 = _get(instance).calculate_edge_derivatives(
            parent_buffer_indices[0],
            child_buffer_indices[0],
            probability_indices[0],
            first_derivative_indices[0],
            second_derivative_indices[0],
            category_weights_indices[0],
            state_frequencies_indices[0],
            cumulative_scale_indices[0],
        )
        out_sum_log_likelihood[0] = logl
        out_sum_first_derivative[0] = d1
        out_sum_second_derivative[0] = d2

    return _wrap("beagle_calculate_edge_derivatives", go)


def beagle_calculate_branch_gradients(
    instance: int,
    eigen_index: int,
    parent_buffer_indices: Sequence[int],
    child_buffer_indices: Sequence[int],
    branch_lengths: Sequence[float],
    category_weights_index: int,
    state_frequencies_index: int,
    cumulative_scale_index: int,
    out_log_likelihoods: np.ndarray,
    out_first_derivatives: np.ndarray,
    out_second_derivatives: np.ndarray,
) -> int:
    """Batched analytic branch gradients: one call, every edge.

    Edge ``e`` runs between ``parent_buffer_indices[e]`` and
    ``child_buffer_indices[e]`` at ``branch_lengths[e]``; its
    ``(logL, dlogL/dt, d^2 logL/dt^2)`` lands in element ``e`` of the
    three ``out_*`` arrays (each of length ``n_edges``).  Transition and
    derivative matrices are derived from eigen buffer ``eigen_index`` on
    the fly — no matrix buffer is read or written.
    """

    def go() -> None:
        grads = _get(instance).calculate_branch_gradients(
            eigen_index,
            parent_buffer_indices,
            child_buffer_indices,
            branch_lengths,
            category_weights_index,
            state_frequencies_index,
            cumulative_scale_index,
        )
        out_log_likelihoods[...] = grads[:, 0]
        out_first_derivatives[...] = grads[:, 1]
        out_second_derivatives[...] = grads[:, 2]

    return _wrap("beagle_calculate_branch_gradients", go)


def beagle_update_partials(
    instance: int, operations: Sequence[Sequence[int]]
) -> int:
    """``beagleUpdatePartials``: operations as 7-tuples of buffer indices.

    Tuple layout matches ``BeagleOperation``: (destination, writeScale,
    readScale, child1, child1Matrix, child2, child2Matrix).
    """

    def go() -> None:
        ops = []
        for row in operations:
            if isinstance(row, Operation):
                ops.append(row)
                continue
            if len(row) != 7:
                raise ValueError(f"operation tuple needs 7 entries, got {len(row)}")
            dest, ws, rs, c1, m1, c2, m2 = row
            ops.append(
                Operation(
                    destination=dest,
                    child1=c1,
                    child1_matrix=m1,
                    child2=c2,
                    child2_matrix=m2,
                    write_scale=ws,
                    read_scale=rs,
                )
            )
        _get(instance).update_partials(ops)

    return _wrap("beagle_update_partials", go)


def beagle_accumulate_scale_factors(
    instance: int, scale_indices: Sequence[int], cumulative_scale_index: int
) -> int:
    return _wrap("beagle_accumulate_scale_factors", lambda: _get(instance).accumulate_scale_factors(
        scale_indices, cumulative_scale_index))


def beagle_reset_scale_factors(instance: int, cumulative_scale_index: int) -> int:
    return _wrap("beagle_reset_scale_factors", lambda: _get(instance).reset_scale_factors(
        cumulative_scale_index))


def beagle_calculate_root_log_likelihoods(
    instance: int,
    buffer_indices: Sequence[int],
    category_weights_indices: Sequence[int],
    state_frequencies_indices: Sequence[int],
    cumulative_scale_indices: Sequence[int],
    out_sum_log_likelihood: np.ndarray,
) -> int:
    """``beagleCalculateRootLogLikelihoods`` (single root supported)."""

    def go() -> None:
        if not (
            len(buffer_indices) == len(category_weights_indices)
            == len(state_frequencies_indices) == len(cumulative_scale_indices)
            == 1
        ):
            raise ValueError("exactly one root evaluation per call")
        out_sum_log_likelihood[0] = _get(instance).calculate_root_log_likelihoods(
            buffer_indices[0],
            category_weights_indices[0],
            state_frequencies_indices[0],
            cumulative_scale_indices[0],
        )

    return _wrap("beagle_calculate_root_log_likelihoods", go)


def beagle_calculate_edge_log_likelihoods(
    instance: int,
    parent_buffer_indices: Sequence[int],
    child_buffer_indices: Sequence[int],
    probability_indices: Sequence[int],
    category_weights_indices: Sequence[int],
    state_frequencies_indices: Sequence[int],
    cumulative_scale_indices: Sequence[int],
    out_sum_log_likelihood: np.ndarray,
) -> int:
    def go() -> None:
        if len(parent_buffer_indices) != 1:
            raise ValueError("exactly one edge evaluation per call")
        out_sum_log_likelihood[0] = _get(instance).calculate_edge_log_likelihoods(
            parent_buffer_indices[0],
            child_buffer_indices[0],
            probability_indices[0],
            category_weights_indices[0],
            state_frequencies_indices[0],
            cumulative_scale_indices[0],
        )

    return _wrap("beagle_calculate_edge_log_likelihoods", go)


def beagle_get_site_log_likelihoods(instance: int, out: np.ndarray) -> int:
    def go() -> None:
        out[...] = _get(instance).get_site_log_likelihoods()

    return _wrap("beagle_get_site_log_likelihoods", go)


#: Option name -> applier for :func:`beagle_configure`.  Every mutable
#: per-instance toggle lives here so the valid-option list, the error
#: message, and the application order stay in one place.
_CONFIGURE_APPLIERS: Dict[str, Callable[[BeagleInstance, Any], None]] = {
    "deferred": lambda inst, value: inst.set_execution_mode(bool(value)),
    "strict_plans": lambda inst, value: inst.set_plan_verification(bool(value)),
}


def _apply_configure(instance: int, opts: Dict[str, Any]) -> None:
    """Validate then apply configuration options to an instance.

    Unknown keys are rejected before *any* option is applied, so a
    failed call never leaves the instance half-configured.
    """
    if not opts:
        raise ValueError(
            "no options given; valid options: "
            + ", ".join(sorted(_CONFIGURE_APPLIERS))
        )
    unknown = sorted(set(opts) - set(_CONFIGURE_APPLIERS))
    if unknown:
        raise ValueError(
            "unknown option(s) "
            + ", ".join(unknown)
            + "; valid options: "
            + ", ".join(sorted(_CONFIGURE_APPLIERS))
        )
    inst = _get(instance)
    for key in sorted(opts):
        _CONFIGURE_APPLIERS[key](inst, opts[key])


def beagle_configure(instance: int, **opts: Any) -> int:
    """Apply one or more per-instance configuration options atomically.

    The single entry point for the mutable toggles that previously had
    one ``beagle_set_*`` function each:

    - ``deferred`` (bool): deferred plan recording — matrix updates and
      partials operations accumulate into an execution plan that runs at
      the next likelihood call or :func:`beagle_flush`; results are
      bit-identical to eager mode.
    - ``strict_plans`` (bool): fail-fast static verification of deferred
      plans — every flush first runs the
      :class:`~repro.analysis.planverify.PlanVerifier` and refuses to
      execute a plan with error-severity diagnostics.  Off by default:
      verification walks the whole DAG, which is measurable on large
      trees.

    Unknown option names fail with ``BEAGLE_ERROR_OUT_OF_RANGE`` before
    any option is applied.
    """
    return _wrap("beagle_configure", lambda: _apply_configure(instance, dict(opts)))


def beagle_flush(instance: int) -> int:
    """Execute any recorded deferred work (no-op in eager mode).

    With strict plan verification enabled (``beagle_configure(instance,
    strict_plans=True)``), a plan with error-severity findings fails here
    with ``BEAGLE_ERROR_GENERAL`` before any node executes; the
    diagnostics land in :func:`beagle_get_last_error_message`.
    """
    return _wrap("beagle_flush", lambda: _get(instance).flush())

