"""The *futures* threading design (paper section VI-A).

"Our initial approach involved modifying the default CPU implementation
... such that for each partial-likelihoods operation to be computed, a C++
standard library asynchronous future was created.  Thus, this approach
only concurrently computed partial-likelihood operations that were
independent in the tree topology being assessed, and did not take
advantage of the independent nature of each sequence pattern."

Accordingly this backend submits one task *per operation*, with barriers
between dependency levels, and never splits the pattern axis.  Its
available parallelism is bounded by the tree shape (at most ``n_tips/2``
at the lowest level, collapsing to 1 at the root), which is why Table III
shows it losing to the pattern-parallel designs.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor, wait
from typing import List, Optional

import numpy as np

from repro.core.flags import Flag
from repro.core.types import Operation
from repro.impl.cpu_sse import (
    VectorCPUImplementation,
    compute_operation_slice,
)
from repro.impl.threading.common import default_thread_count, dependency_levels


class CPUFuturesImplementation(VectorCPUImplementation):
    """One asynchronous task per topology-independent operation."""

    name = "CPU-threaded-futures"
    flags = (
        Flag.PRECISION_SINGLE
        | Flag.PRECISION_DOUBLE
        | Flag.COMPUTATION_ASYNCH
        | Flag.EIGEN_REAL
        | Flag.SCALING_MANUAL
        | Flag.SCALERS_LOG
        | Flag.VECTOR_SSE
        | Flag.THREADING_CPP
        | Flag.PROCESSOR_CPU
        | Flag.FRAMEWORK_CPU
    )

    def __init__(self, config, precision="double",
                 thread_count: Optional[int] = None,
                 scaling_mode: str = "always"):
        super().__init__(config, precision, scaling_mode)
        self.thread_count = thread_count or default_thread_count()

    def _compute_concurrent(self, op: Operation) -> None:
        """One future's operation: whole operations run side by side here,
        so each takes a private scratch rather than the instance's."""
        compute_operation_slice(
            self, op, slice(None), np.empty_like(self._scratch)
        )
        self._apply_scaling(op)

    def _submit_level(self, pool: ThreadPoolExecutor,
                      operations: List[Operation]) -> None:
        """Fan one independent operation set across futures and join it."""
        futures = [
            pool.submit(self._compute_concurrent, op) for op in operations
        ]
        # Gated on the metrics registry, not the tracer: metrics-only
        # instrumentation (tracing off) must still see the counter.
        if self._metrics is not None:
            self._metrics.counter("futures.created").inc(len(futures))
        done, _ = wait(futures)
        for f in done:
            f.result()  # re-raise worker exceptions

    def _execute_operations(self, operations: List[Operation]) -> None:
        for level in dependency_levels(operations):
            self._execute_level(level)

    def _execute_level(self, operations: List[Operation]) -> None:
        """One asynchronous task per operation of an independent level."""
        if len(operations) == 1 or self.thread_count == 1:
            for op in operations:
                self._compute_operation(op)
            return
        # Executor per level: the futures design creates its asynchronous
        # work on demand rather than keeping a pool alive.
        tracer = self._tracer
        with ThreadPoolExecutor(max_workers=self.thread_count) as pool:
            if not tracer.enabled:
                self._submit_level(pool, operations)
                return
            with tracer.span(
                "futures_wave", kind="wave", backend=self.name,
                n_operations=len(operations),
            ):
                self._submit_level(pool, operations)
