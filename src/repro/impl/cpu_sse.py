"""Vectorised and thread-pool CPU implementations.

BEAGLE's SSE implementation parallelises "computation across character
state values" with vector intrinsics (paper section IV-D).  The NumPy
analogue evaluates whole operations as batched GEMMs
(:func:`repro.core.compute.update_partials_pp`) over patterns-innermost
partials, so the BLAS vector units run along the pattern axis.

The threaded backend is the paper's thread-pool design (section VI-C),
"this final iteration of our CPU threading solution".  A persistent pool
of threads splits the site patterns into equal chunks, one per hardware
thread, for the partials and the root likelihood alike, and runs the
vectorised kernel on each chunk: it "combine[s] the added parallelism
with the existing, low-level, SSE vectorization" (section VI).  The two
designs the paper tried first, futures and thread-create, live on only
in the calibrated Table III model (:mod:`repro.accel.perfmodel`).

Both backends share one execution path.  The pattern axis is cut into
slices, and one wave runs every slice through every operation, each
operation followed by the rescale of that slice only.  Rescaling
multiplies each pattern by a power of two taken from its own maximum, so
slices never wait on each other and the result is bit-identical however
the axis is cut.  cpu-sse runs its one
slice inline; the thread-pool backend hands one slice to each thread.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.core import compute
from repro.core.flags import Flag
from repro.core.types import Operation
from repro.impl.base import BaseImplementation

#: Below this pattern count, the thread-pool backend runs serially
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
    impl: "VectorCPUImplementation", op: Operation, sl: slice
) -> None:
    """Evaluate one operation on a pattern slice, into its destination.

    ``sl`` runs along the last (pattern) axis, and the result is written
    straight into that slice of the destination buffer.  The second
    child's term goes to the same slice of the instance's scratch
    buffer, so pool threads on disjoint slices need no synchronisation.
    """
    dest = impl._partials[op.destination][:, :, sl]
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


_HOST_FLAGS = (
    Flag.PRECISION_SINGLE
    | Flag.PRECISION_DOUBLE
    | Flag.COMPUTATION_SYNCH
    | Flag.EIGEN_REAL
    | Flag.SCALING_MANUAL
    | Flag.SCALERS_LOG
    | Flag.VECTOR_SSE
    | Flag.PROCESSOR_CPU
    | Flag.FRAMEWORK_CPU
)


class VectorCPUImplementation(BaseImplementation):
    """Shared base of the vectorised and thread-pool CPU backends.

    Owns the instance's one operation-sized scratch buffer and the host
    execution path: :meth:`_execute_operations` runs one wave of pattern
    slices.  With one slice the wave runs inline; with more, a thread
    pool, created on the first threaded call and shut down by
    :meth:`finalize`, runs one task per slice, and the root reduction is
    split the same way.  Accelerated backends compute in device pools and
    carry no host scratch.
    """

    #: Hardware threads a wave may use; the thread-pool backend sets its own.
    thread_count = 1
    _pool: Optional[ThreadPoolExecutor] = None

    def __init__(self, config, precision="double",
                 scaling_mode: str = "always"):
        super().__init__(config, precision, scaling_mode)
        c = config
        self._scratch = np.empty(
            (c.category_count, c.state_count, c.pattern_count),
            dtype=self.dtype,
        )

    def finalize(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

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
        """Run ``task`` on every slice in the pool; return when all end."""
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.thread_count,
                thread_name_prefix="beagle-pool",
            )
        futures = [self._pool.submit(task, sl) for sl in slices]
        # Gated on the metrics registry, not the tracer: metrics-only
        # instrumentation (tracing off) must still see the pool counters.
        metrics = self._metrics
        if metrics is not None:
            metrics.gauge("threadpool.queue_depth").set(len(futures))
            metrics.counter("threadpool.tasks").inc(len(futures))
        # Join every task before raising, so no worker still writes into
        # the buffers when the caller sees the error.
        wait(futures)
        for f in futures:
            f.result()

    def _compute_operation(self, op: Operation) -> None:
        compute_operation_slice(self, op, slice(None))
        self._apply_scaling(op)

    def _compute_root(
        self,
        root_partials: np.ndarray,
        category_weights: np.ndarray,
        state_frequencies: np.ndarray,
        cumulative_scale_log: Optional[np.ndarray],
    ) -> Tuple[float, np.ndarray]:
        slices = self._slices()
        if len(slices) == 1:
            return compute.root_log_likelihood(
                root_partials, category_weights, state_frequencies,
                self._pattern_weights, cumulative_scale_log,
            )
        log_site = np.empty(self.config.pattern_count)

        def worker(sl):
            scale = (
                None if cumulative_scale_log is None else cumulative_scale_log[sl]
            )
            _, per_pattern = compute.root_log_likelihood(
                root_partials[:, :, sl],
                category_weights,
                state_frequencies,
                self._pattern_weights[sl],
                scale,
            )
            log_site[sl] = per_pattern

        self._run_wave(worker, slices)
        return float(np.dot(self._pattern_weights, log_site)), log_site


class CPUSSEImplementation(VectorCPUImplementation):
    """Whole-array vectorised evaluation (single thread)."""

    name = "CPU-SSE"
    flags = _HOST_FLAGS | Flag.THREADING_NONE


class CPUThreadPoolImplementation(VectorCPUImplementation):
    """Persistent-pool, pattern-parallel partials and root reduction.

    The paper's Table III shows this design fastest at every tree size,
    and it is the implementation the manager selects for
    ``THREADING_CPP`` requests.  ``thread_count`` defaults to the host's CPU count.
    """

    name = "CPU-threaded-pool"
    flags = _HOST_FLAGS | Flag.THREADING_CPP

    def __init__(self, config, precision="double",
                 thread_count: Optional[int] = None,
                 scaling_mode: str = "always"):
        super().__init__(config, precision, scaling_mode)
        self.thread_count = thread_count or os.cpu_count() or 1
