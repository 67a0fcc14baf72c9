"""The *thread-pool* threading design (paper section VI-C) — the winner.

"This final iteration of our CPU threading solution involved modifying the
thread-create approach to use a pool of C++ standard library threads.  For
this approach we also used the threads for concurrent computation of the
root likelihood across independent site patterns, in addition to the
partial-likelihoods function."

Differences from thread-create:

* a persistent :class:`~concurrent.futures.ThreadPoolExecutor` amortises
  thread start-up over the whole instance lifetime (created lazily on
  first threaded call, shut down in :meth:`finalize`);
* the root log-likelihood reduction is also pattern-parallel.

Table III shows this design fastest at every tree size, and it is the
implementation the manager selects for ``THREADING_CPP`` requests.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Tuple

import numpy as np

from repro.core import compute
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


class CPUThreadPoolImplementation(VectorCPUImplementation):
    """Persistent-pool, pattern-parallel partials and root reduction."""

    name = "CPU-threaded-pool"
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
        self._pool: Optional[ThreadPoolExecutor] = None

    @property
    def pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.thread_count,
                thread_name_prefix="beagle-pool",
            )
        return self._pool

    def finalize(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    @property
    def _threading_active(self) -> bool:
        return (
            self.config.pattern_count >= MIN_PATTERNS_FOR_THREADING
            and self.thread_count > 1
        )

    def _map_slices(self, fn, slices) -> List:
        futures = [self.pool.submit(fn, sl) for sl in slices]
        self._record_queue_depth(len(futures))
        return [f.result() for f in futures]

    def _record_queue_depth(self, depth: int) -> None:
        # Gated on the metrics registry, not the tracer: metrics-only
        # instrumentation (tracing off) must still see the pool counters.
        metrics = self._metrics
        if metrics is not None:
            metrics.gauge("threadpool.queue_depth").set(depth)
            metrics.counter("threadpool.tasks").inc(depth)

    def _execute_operations(self, operations: List[Operation]) -> None:
        if not self._threading_active:
            for op in operations:
                self._compute_operation(op)
            return
        slices = pattern_slices(self.config.pattern_count, self.thread_count)

        if operations_use_scaling(operations):
            for op in operations:
                def worker(sl, op=op):
                    compute_operation_slice(self, op, sl)
                self._map_slices(worker, slices)
                self._apply_scaling(op)
            return

        def worker(sl):
            for op in operations:
                compute_operation_slice(self, op, sl)

        tracer = self._tracer
        if not tracer.enabled:
            self._map_slices(worker, slices)
            return
        with tracer.span(
            "level_wave", kind="wave", backend=self.name,
            n_operations=len(operations), n_slices=len(slices),
        ):
            self._map_slices(worker, slices)

    def _execute_level(self, operations: List[Operation]) -> None:
        """Fan a whole plan level across the pool in one wave.

        The level's operations are mutually independent, so each
        pattern-slice task streams its slice through every operation of
        the level with no barrier, and the wave has a single join.  Tasks
        are per slice, not per (operation, slice) pair: a slice task owns
        its slice of the instance scratch buffer.
        """
        if not self._threading_active or len(operations) == 1:
            self._execute_operations(list(operations))
            return
        slices = pattern_slices(self.config.pattern_count, self.thread_count)

        def worker(sl):
            for op in operations:
                compute_operation_slice(self, op, sl)

        def submit_wave():
            futures = [self.pool.submit(worker, sl) for sl in slices]
            for f in futures:
                f.result()
            return len(futures)

        tracer = self._tracer
        if not tracer.enabled:
            depth = submit_wave()
        else:
            with tracer.span(
                "level_wave",
                kind="wave",
                backend=self.name,
                n_operations=len(operations),
                n_slices=len(slices),
            ):
                depth = submit_wave()
        self._record_queue_depth(depth)
        apply_level_scaling(self, operations)

    def _compute_root(
        self,
        root_partials: np.ndarray,
        category_weights: np.ndarray,
        state_frequencies: np.ndarray,
        cumulative_scale_log: Optional[np.ndarray],
    ) -> Tuple[float, np.ndarray]:
        if not self._threading_active:
            return super()._compute_root(
                root_partials, category_weights, state_frequencies,
                cumulative_scale_log,
            )
        slices = pattern_slices(self.config.pattern_count, self.thread_count)
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

        self._map_slices(worker, slices)
        return float(np.dot(self._pattern_weights, log_site)), log_site
