"""Vectorised CPU implementation — the SSE/AVX analogue.

BEAGLE's SSE implementation parallelises "computation across character
state values" with vector intrinsics (paper section IV-D).  The NumPy
analogue evaluates whole operations as batched GEMMs
(:func:`repro.core.compute.update_partials_pp`) over patterns-innermost
partials, so the BLAS vector units run along the pattern axis.  This is
also the inner kernel the threaded implementations apply to their
pattern slices, matching how the paper "combine[s] the added parallelism
with the existing, low-level, SSE vectorization" (section VI).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core import compute
from repro.core.flags import Flag
from repro.core.types import Operation
from repro.impl.base import BaseImplementation


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

    Owns the instance's one operation-sized scratch buffer and evaluates
    an operation over the whole pattern axis, in place.  Accelerated
    backends compute in device pools and carry no host scratch.
    """

    def __init__(self, config, precision="double",
                 scaling_mode: str = "always"):
        super().__init__(config, precision, scaling_mode)
        c = config
        self._scratch = np.empty(
            (c.category_count, c.state_count, c.pattern_count),
            dtype=self.dtype,
        )

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
