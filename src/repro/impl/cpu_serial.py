"""Serial CPU implementation — the paper's comparison baseline.

Corresponds to BEAGLE's original single-threaded CPU implementation: one
Python-level loop over site patterns with a small per-pattern kernel.  The
per-pattern arithmetic uses NumPy matvecs, which plays the role of the
"some degree of vectorization provided by GCC" the paper attributes to its
serial baseline (section VI, Table III) — the defining property here is
the *serial scheduling* over patterns, not the absence of vector lanes.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.flags import Flag
from repro.core.types import Operation
from repro.impl.base import BaseImplementation


class CPUSerialImplementation(BaseImplementation):
    """Pattern-at-a-time serial evaluation."""

    name = "CPU-serial"
    flags = (
        Flag.PRECISION_SINGLE
        | Flag.PRECISION_DOUBLE
        | Flag.COMPUTATION_SYNCH
        | Flag.EIGEN_REAL
        | Flag.SCALING_MANUAL
        | Flag.SCALERS_LOG
        | Flag.VECTOR_NONE
        | Flag.THREADING_NONE
        | Flag.PROCESSOR_CPU
        | Flag.FRAMEWORK_CPU
    )

    def _compute_operation(self, op: Operation) -> None:
        c = self.config
        m1 = self._matrices[op.child1_matrix]
        m2 = self._matrices[op.child2_matrix]
        m1_ext = self._matrices_ext[op.child1_matrix]
        m2_ext = self._matrices_ext[op.child2_matrix]
        child1_states = self._tip_states.get(op.child1)
        child2_states = self._tip_states.get(op.child2)
        l1 = None if child1_states is not None else self._partials[op.child1]
        l2 = None if child2_states is not None else self._partials[op.child2]
        dest = self._partials[op.destination]

        for p in range(c.pattern_count):
            for cat in range(c.category_count):
                if child1_states is not None:
                    a = m1_ext[cat][:, child1_states[p]]
                else:
                    a = m1[cat] @ l1[cat, :, p]
                if child2_states is not None:
                    b = m2_ext[cat][:, child2_states[p]]
                else:
                    b = m2[cat] @ l2[cat, :, p]
                dest[cat, :, p] = a * b

        self._apply_scaling(op)

    def _compute_root(
        self,
        root_partials: np.ndarray,
        category_weights: np.ndarray,
        state_frequencies: np.ndarray,
        cumulative_scale_log: Optional[np.ndarray],
    ) -> Tuple[float, np.ndarray]:
        c = self.config
        log_site = np.empty(c.pattern_count)
        for p in range(c.pattern_count):
            site = 0.0
            for cat in range(c.category_count):
                site += category_weights[cat] * float(
                    state_frequencies @ root_partials[cat, :, p]
                )
            with np.errstate(divide="ignore"):
                log_site[p] = np.log(site)
        if cumulative_scale_log is not None:
            log_site = log_site + cumulative_scale_log
        return float(np.dot(self._pattern_weights, log_site)), log_site
