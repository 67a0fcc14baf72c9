"""The *thread-create* threading design (paper section VI-B).

"Our next approach involved the on-demand creation and joining of a set of
threads with each partial-likelihoods call ... used for concurrent
computation of the partial-likelihood functions across independent site
patterns ... broken up into equal sizes, according to the number of CPU
hardware threads available."

Each ``update_partials`` call (and each plan level) spawns fresh threads,
one per pattern chunk, and each thread streams its chunk through the
whole operation list, rescaling as it goes
(:meth:`~repro.impl.cpu_sse.VectorCPUImplementation._execute_operations`).

The thread creation/join cost is paid on every call — the overhead that
the thread-pool design (next iteration) amortises away.
"""

from __future__ import annotations

import threading
from typing import Callable, List, Optional

from repro.core.flags import Flag
from repro.impl.cpu_sse import VectorCPUImplementation
from repro.impl.threading.common import default_thread_count


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

    def _run_wave(self, task: Callable[[slice], None],
                  slices: List[slice]) -> None:
        errors: List[BaseException] = []

        def guarded(sl):
            try:
                task(sl)
            except BaseException as exc:  # noqa: BLE001 - reraised below
                errors.append(exc)

        threads = [
            threading.Thread(target=guarded, args=(sl,), daemon=True)
            for sl in slices
        ]
        if self._metrics is not None:
            self._metrics.counter("threads.created").inc(len(threads))
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]
