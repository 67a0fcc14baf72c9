"""OpenCL lowering pass: portable kernel IR -> OpenCL-flavoured program.

All numerics come from the shared :class:`~repro.accel.lower.Lowering`
emitters; this pass only contributes the OpenCL work-group size hint
(``reqd_work_group_size``) and speaks through the OpenCL macro set
(``__kernel`` qualifiers, ``__global REAL*`` device memory, sub-buffer
access).  It covers both the ``gpu`` variant (discrete GPUs) and the
``x86`` variant the OpenCL interface selects on CPU devices
(section VII-B.2 of the paper).

For the batched derivative kernels (``kernelEdgeDerivatives`` and the
fused ``kernelEdgeGradientsBatch``) the edge axis of the IR's iteration
space maps onto ``get_group_id(0)``: one work-group per branch, so an
N-branch gradient sweep is a single enqueue with an N-wide NDRange.
"""

from __future__ import annotations

from typing import List

from repro.accel.lower import Lowering


class OpenCLLowering(Lowering):
    """Lower the IR for the OpenCL framework (GPU and x86 variants)."""

    lowering_name = "opencl"
    supported_variants = ("gpu", "x86")

    def header_extra(self) -> List[str]:
        wg = self.config.workgroup_size
        return [
            f"# reqd_work_group_size = ({wg}, 1, 1)",
        ]
