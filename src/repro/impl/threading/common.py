"""Shared plumbing for the three CPU threading designs of paper section VI.

All three designs parallelise over *site patterns* (and, for futures, over
topology-independent operations).  Patterns are split into equal
contiguous chunks, one per hardware thread, following the paper's
load-balancing description; problems smaller than
:data:`MIN_PATTERNS_FOR_THREADING` run single-threaded so that threading
never loses to the serial implementation (the 512-pattern minimum of
section VI-B).  The slicing itself lives with the execution path all the
pattern-parallel backends share, :mod:`repro.impl.cpu_sse`.
"""

from __future__ import annotations

import os
from typing import List, Sequence

from repro.core.types import Operation
from repro.impl.cpu_sse import (  # noqa: F401 - re-exported
    MIN_PATTERNS_FOR_THREADING,
    pattern_slices,
)


def default_thread_count() -> int:
    return os.cpu_count() or 1


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
