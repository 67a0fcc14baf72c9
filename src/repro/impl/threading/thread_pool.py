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

from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.core import compute
from repro.core.flags import Flag
from repro.impl.cpu_sse import VectorCPUImplementation
from repro.impl.threading.common import default_thread_count


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

    def _run_wave(self, task: Callable[[slice], None],
                  slices: List[slice]) -> None:
        futures = [self.pool.submit(task, sl) for sl in slices]
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

    def _compute_root(
        self,
        root_partials: np.ndarray,
        category_weights: np.ndarray,
        state_frequencies: np.ndarray,
        cumulative_scale_log: Optional[np.ndarray],
    ) -> Tuple[float, np.ndarray]:
        slices = self._slices()
        if len(slices) == 1:
            return super()._compute_root(
                root_partials, category_weights, state_frequencies,
                cumulative_scale_log,
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
