"""Shared plumbing for the three CPU threading designs of paper section VI.

All three designs parallelise over *site patterns* (and, for futures, over
topology-independent operations).  Patterns are split into equal
contiguous chunks, one per hardware thread, following the paper's
load-balancing description; problems smaller than
:data:`MIN_PATTERNS_FOR_THREADING` run single-threaded so that threading
never loses to the serial implementation (the 512-pattern minimum of
section VI-B).
"""

from __future__ import annotations

import os
from typing import List, Sequence

import numpy as np

from repro.core.flags import OP_NONE
from repro.core.types import Operation

#: Below this pattern count, threaded implementations run serially
#: (paper section VI-B: "a minimum sequence length of 512 patterns for
#: threading to be used").
MIN_PATTERNS_FOR_THREADING = 512


def default_thread_count() -> int:
    return os.cpu_count() or 1


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


def operations_use_scaling(operations: Sequence[Operation]) -> bool:
    """True if any operation reads or writes scale factors.

    Scaling introduces a cross-pattern normalisation point after each
    operation, so the fused no-barrier pattern-slice schedule is invalid
    and per-operation barriers must be used instead.
    """
    return any(
        op.write_scale != OP_NONE or op.read_scale != OP_NONE
        for op in operations
    )


def apply_level_scaling(impl, operations: Sequence[Operation]) -> None:
    """Apply each operation's scaling after a level's raw partials exist.

    Operations in one :class:`~repro.core.plan.ExecutionPlan` level are
    mutually independent — no operation reads another's destination or
    scale buffer — so the raw pattern-sliced results can be computed with
    no barriers and the scaling post-pass applied per destination
    afterwards, exactly reproducing the eager per-operation ordering.
    """
    for op in operations:
        impl._apply_scaling(op)


def dependency_levels(operations: Sequence[Operation]) -> List[List[Operation]]:
    """Group an ordered operation list into independence levels.

    Level *k* operations depend only on tips and on levels ``< k``; all
    operations within a level may execute concurrently.  This recovers the
    tree-level concurrency the futures design exploits without needing the
    tree itself (BEAGLE never sees the tree).
    """
    level_of_buffer: dict = {}
    levels: List[List[Operation]] = []
    for op in operations:
        level = max(
            level_of_buffer.get(op.child1, 0),
            level_of_buffer.get(op.child2, 0),
        )
        if level == len(levels):
            levels.append([])
        levels[level].append(op)
        level_of_buffer[op.destination] = level + 1
    return levels
