"""The *thread-create* threading design (paper section VI-B).

"Our next approach involved the on-demand creation and joining of a set of
threads with each partial-likelihoods call ... used for concurrent
computation of the partial-likelihood functions across independent site
patterns ... broken up into equal sizes, according to the number of CPU
hardware threads available."

Each ``update_partials`` call spawns fresh threads, one per pattern chunk.
Because a partials operation is element-wise in the pattern axis, a worker
can stream its chunk through the *entire* operation list with no barriers
(operation *k+1* at pattern *p* reads only operation *k*'s output at the
same *p*).  Scaling breaks that independence, so scaled operation lists
fall back to per-operation barriers.

The thread creation/join cost is paid on every call — the overhead that
the thread-pool design (next iteration) amortises away.
"""

from __future__ import annotations

import threading
from typing import List, Optional

from repro.core.flags import Flag
from repro.core.types import Operation
from repro.impl.cpu_sse import (
    VectorCPUImplementation,
    compute_operation_slice,
)
from repro.impl.threading.common import (
    MIN_PATTERNS_FOR_THREADING,
    apply_level_scaling,
    default_thread_count,
    operations_use_scaling,
    pattern_slices,
)


class CPUThreadCreateImplementation(VectorCPUImplementation):
    """Per-call thread spawn, pattern-parallel."""

    name = "CPU-threaded-create"
    flags = (
        Flag.PRECISION_SINGLE
        | Flag.PRECISION_DOUBLE
        | Flag.COMPUTATION_SYNCH
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

    def _run_in_fresh_threads(self, worker, n_workers: int, slices) -> None:
        errors: List[BaseException] = []

        def guarded(sl):
            try:
                worker(sl)
            except BaseException as exc:  # noqa: BLE001 - reraised below
                errors.append(exc)

        threads = [
            threading.Thread(target=guarded, args=(sl,), daemon=True)
            for sl in slices
        ]
        def run_wave():
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            if errors:
                raise errors[0]

        tracer = self._tracer
        if not tracer.enabled:
            run_wave()
            return
        self._metrics.counter("threads.created").inc(len(threads))
        with tracer.span(
            "thread_wave", kind="wave", backend=self.name,
            n_threads=len(threads),
        ):
            run_wave()

    def _execute_operations(self, operations: List[Operation]) -> None:
        if (
            self.config.pattern_count < MIN_PATTERNS_FOR_THREADING
            or self.thread_count == 1
        ):
            for op in operations:
                self._compute_operation(op)
            return
        slices = pattern_slices(self.config.pattern_count, self.thread_count)

        if operations_use_scaling(operations):
            # Scaling normalises across the whole pattern axis after each
            # operation: barrier per op, parallel within it.
            for op in operations:
                def worker(sl, op=op):
                    compute_operation_slice(self, op, sl)
                self._run_in_fresh_threads(worker, len(slices), slices)
                self._apply_scaling(op)
            return

        def worker(sl):
            for op in operations:
                compute_operation_slice(self, op, sl)

        self._run_in_fresh_threads(worker, len(slices), slices)

    def _execute_level(self, operations: List[Operation]) -> None:
        """Run one plan level with a single spawn/join of fresh threads.

        Level operations are mutually independent, so each worker can
        stream its pattern slice through the whole level with no
        barriers — even when scaling is in play, since no operation
        reads another level-mate's destination or scale buffer; the
        scaling post-pass runs after the join.
        """
        if (
            self.config.pattern_count < MIN_PATTERNS_FOR_THREADING
            or self.thread_count == 1
        ):
            self._execute_operations(list(operations))
            return
        slices = pattern_slices(self.config.pattern_count, self.thread_count)

        def worker(sl):
            for op in operations:
                compute_operation_slice(self, op, sl)

        self._run_in_fresh_threads(worker, len(slices), slices)
        apply_level_scaling(self, operations)
