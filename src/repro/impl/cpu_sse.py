"""Vectorised CPU implementation — the SSE/AVX analogue.

BEAGLE's SSE implementation parallelises "computation across character
state values" with vector intrinsics (paper section IV-D).  The NumPy
analogue evaluates whole operations as batched GEMMs
(:func:`repro.core.compute.update_partials_pp`) over patterns-innermost
partials, so the BLAS vector units run along the pattern axis.  This is
also the inner kernel the threaded implementations apply to their
pattern slices, matching how the paper "combine[s] the added parallelism
with the existing, low-level, SSE vectorization" (section VI).

All of them share one execution path.  The pattern axis is cut into
slices, and one wave runs every slice through every operation, each
operation followed by the rescale of that slice only.  Rescaling divides
by a per-pattern maximum, so slices never wait on each other and the
result is bit-identical however the axis is cut.  Backends differ only in
who runs the slices.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from repro.core import compute
from repro.core.flags import Flag
from repro.core.types import Operation
from repro.impl.base import BaseImplementation

#: Below this pattern count, threaded implementations run serially
#: (paper section VI-B: "a minimum sequence length of 512 patterns for
#: threading to be used").
MIN_PATTERNS_FOR_THREADING = 512


def pattern_slices(pattern_count: int, n_chunks: int) -> List[slice]:
    """Split ``[0, pattern_count)`` into ``n_chunks`` near-equal slices."""
    if n_chunks < 1:
        raise ValueError(f"need at least one chunk, got {n_chunks}")
    n_chunks = min(n_chunks, pattern_count)
    bounds = np.linspace(0, pattern_count, n_chunks + 1).astype(int)
    return [
        slice(int(bounds[i]), int(bounds[i + 1]))
        for i in range(n_chunks)
        if bounds[i + 1] > bounds[i]
    ]


def compute_operation_slice(
    impl: "VectorCPUImplementation",
    op: Operation,
    sl: slice,
    scratch: Optional[np.ndarray] = None,
) -> None:
    """Evaluate one operation on a pattern slice, into its destination.

    Shared by the vectorised and threaded backends.  ``sl`` runs along
    the last (pattern) axis, and the result is written straight into
    that slice of the destination buffer.  The second child's term goes
    to the same slice of the instance's scratch buffer, so thread workers
    on disjoint slices need no synchronisation.  Callers that run whole
    operations concurrently (the futures design) pass a private
    ``scratch`` instead.
    """
    dest = impl._partials[op.destination][:, :, sl]
    if scratch is None:
        scratch = impl._scratch[:, :, sl]
    s1 = impl._tip_states.get(op.child1)
    s2 = impl._tip_states.get(op.child2)
    ext = impl._matrices_ext
    if s1 is not None and s2 is not None:
        compute.update_partials_ss(
            s1[sl], ext[op.child1_matrix], s2[sl], ext[op.child2_matrix],
            dest, scratch,
        )
    elif s1 is not None:
        compute.update_partials_sp(
            s1[sl], ext[op.child1_matrix],
            impl._partials[op.child2][:, :, sl],
            impl._matrices[op.child2_matrix],
            dest, scratch,
        )
    elif s2 is not None:
        compute.update_partials_sp(
            s2[sl], ext[op.child2_matrix],
            impl._partials[op.child1][:, :, sl],
            impl._matrices[op.child1_matrix],
            dest, scratch,
        )
    else:
        compute.update_partials_pp(
            impl._partials[op.child1][:, :, sl],
            impl._matrices[op.child1_matrix],
            impl._partials[op.child2][:, :, sl],
            impl._matrices[op.child2_matrix],
            dest, scratch,
        )


class VectorCPUImplementation(BaseImplementation):
    """Shared base of the vectorised and threaded CPU backends.

    Owns the instance's one operation-sized scratch buffer and the host
    execution path: :meth:`_execute_operations` runs one wave of pattern
    slices, and subclasses change only :meth:`_run_wave`, which decides
    who runs them.  Accelerated backends compute in device pools and
    carry no host scratch.
    """

    #: Hardware threads a wave may use; the threaded designs set their own.
    thread_count = 1

    def __init__(self, config, precision="double",
                 scaling_mode: str = "always"):
        super().__init__(config, precision, scaling_mode)
        c = config
        self._scratch = np.empty(
            (c.category_count, c.state_count, c.pattern_count),
            dtype=self.dtype,
        )

    def _slices(self) -> List[slice]:
        """One slice per thread, or the whole axis when threading is off."""
        n = self.config.pattern_count
        if n < MIN_PATTERNS_FOR_THREADING or self.thread_count == 1:
            return [slice(None)]
        return pattern_slices(n, self.thread_count)

    def _execute_operations(self, operations: List[Operation]) -> None:
        slices = self._slices()
        if len(slices) == 1:
            # Inline, keeping one ``op`` span per operation when tracing.
            super()._execute_operations(operations)
            return

        def run_slice(sl: slice) -> None:
            # Operation k+1 at a pattern reads only operation k's output
            # and scale factors at that pattern, so a slice streams
            # through the whole list with no barrier.
            for op in operations:
                compute_operation_slice(self, op, sl)
                self._apply_scaling(op, sl)

        tracer = self._tracer
        if not tracer.enabled:
            self._run_wave(run_slice, slices)
            return
        with tracer.span(
            "pattern_wave", kind="wave", backend=self.name,
            n_operations=len(operations), n_slices=len(slices),
        ):
            self._run_wave(run_slice, slices)

    def _run_wave(self, task: Callable[[slice], None],
                  slices: List[slice]) -> None:
        """Run ``task`` on every slice and return when all have finished."""
        for sl in slices:
            task(sl)

    def _compute_operation(self, op: Operation) -> None:
        compute_operation_slice(self, op, slice(None))
        self._apply_scaling(op)


class CPUSSEImplementation(VectorCPUImplementation):
    """Whole-array vectorised evaluation (single thread)."""

    name = "CPU-SSE"
    flags = (
        Flag.PRECISION_SINGLE
        | Flag.PRECISION_DOUBLE
        | Flag.COMPUTATION_SYNCH
        | Flag.EIGEN_REAL
        | Flag.SCALING_MANUAL
        | Flag.SCALERS_LOG
        | Flag.VECTOR_SSE
        | Flag.THREADING_NONE
        | Flag.PROCESSOR_CPU
        | Flag.FRAMEWORK_CPU
    )
