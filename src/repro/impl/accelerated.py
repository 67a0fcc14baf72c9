"""The shared accelerator implementation model (paper Fig. 3).

One implementation drives every accelerator backend through the uniform
:class:`~repro.accel.framework.HardwareInterface` — "a framework
independent accelerator model with support for both CUDA and OpenCL"
(section V-B).  Data lives in device buffers (partials and matrices in
pooled allocations, addressed per slot via pointer arithmetic or
sub-buffers depending on the framework); every compute step is a kernel
launch on the generated, per-configuration kernel program; the simulated
clock accumulates modelled device time.

Backend naming matches the paper's Fig. 3 leaves:

* ``CUDA``        — :class:`repro.accel.cuda.CudaInterface` on a GPU
* ``OpenCL-GPU``  — :class:`repro.accel.opencl.OpenCLInterface` on a GPU
* ``OpenCL-x86``  — the same OpenCL interface on a CPU device, which
  selects the loop-over-states kernel variant (section VII-B.2)
* ``CPU-vector``  — the OpenCL interface on a CPU device with the new
  host-vector ``cpu`` kernel variant (``kernel_variant="cpu"``): x86-style
  pattern work-groups dispatching one batched product, numerically
  bit-identical to the GPU backends
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.accel.device import DeviceSpec, ProcessorType
from repro.accel.framework import HardwareInterface, LaunchGeometry
from repro.accel.ir import KernelConfig
from repro.accel.perfmodel import (
    KernelCost,
    gradient_kernel_cost,
    partials_kernel_cost,
)
from repro.core import compute
from repro.core.flags import OP_NONE, Flag
from repro.core.types import InstanceConfig, Operation
from repro.impl.base import BaseImplementation
from repro.util.errors import BeagleError, UnsupportedOperationError


def _interface_for(framework: str, device: DeviceSpec) -> HardwareInterface:
    framework = framework.lower()
    if framework == "cuda":
        from repro.accel.cuda import CudaInterface

        if device.vendor != "NVIDIA":
            raise UnsupportedOperationError(
                f"CUDA requires an NVIDIA device, got {device.name}"
            )
        return CudaInterface(device)
    if framework == "opencl":
        from repro.accel.opencl import OpenCLInterface

        return OpenCLInterface(device)
    raise ValueError(f"unknown framework {framework!r}")


class AcceleratedImplementation(BaseImplementation):
    """BEAGLE's accelerator model on a simulated framework/device pair."""

    def __init__(
        self,
        config: InstanceConfig,
        precision: str = "double",
        interface: Optional[HardwareInterface] = None,
        framework: str = "cuda",
        device: Optional[DeviceSpec] = None,
        use_fma: bool = True,
        workgroup_patterns: int = 256,
        scaling_mode: str = "always",
        kernel_variant: Optional[str] = None,
        autotune: bool = True,
    ) -> None:
        super().__init__(config, precision, scaling_mode)
        if interface is None:
            if device is None:
                raise ValueError("need either an interface or a device")
            interface = _interface_for(framework, device)
        self.interface = interface
        self.device = interface.device

        kernel_config = KernelConfig(
            state_count=config.state_count,
            precision=precision,
            variant=kernel_variant if kernel_variant is not None else "gpu",
            use_fma=use_fma,
            workgroup_patterns=workgroup_patterns,
            category_count=config.category_count,
        )
        interface.build_program(kernel_config, autotune=autotune)

        c = config
        shape = (c.category_count, c.pattern_count, c.state_count)
        self._d_partials = interface.allocate_pool(
            c.total_buffer_count, shape, self.dtype
        )
        self._d_matrices = interface.allocate_pool(
            c.matrix_buffer_count,
            (c.category_count, c.state_count, c.state_count),
            self.dtype,
        )
        # Gap-extended matrices for compact (tip-state) children.
        self._d_matrices_ext = interface.allocate_pool(
            c.matrix_buffer_count,
            (c.category_count, c.state_count, c.state_count + 1),
            self.dtype,
        )
        self._d_tip_states: Dict[int, object] = {}
        self._d_scales = (
            interface.allocate_pool(
                c.scale_buffer_count, (c.pattern_count,), np.float64
            )
            if c.scale_buffer_count
            else None
        )
        self._d_site_loglik = interface.allocate((c.pattern_count,), np.float64)

        self.name = self._backend_name()
        self.flags = self._backend_flags()

    def instrument(self, tracer=None, metrics=None):
        """Attach observability and mirror it onto the hardware interface,
        so every simulated kernel launch emits a ``launch`` span leaf."""
        tracer, metrics = super().instrument(tracer, metrics)
        self.interface.tracer = tracer
        self.interface.metrics = metrics
        return tracer, metrics

    def _backend_name(self) -> str:
        if self.interface.framework_name == "CUDA":
            return "CUDA"
        if self.interface.kernel_config.variant == "cpu":
            return "CPU-vector"
        if self.device.processor == ProcessorType.CPU:
            return "OpenCL-x86"
        return "OpenCL-GPU"

    def _backend_flags(self) -> Flag:
        flags = (
            Flag.PRECISION_SINGLE
            | Flag.PRECISION_DOUBLE
            | Flag.COMPUTATION_SYNCH
            | Flag.EIGEN_REAL
            | Flag.SCALING_MANUAL
            | Flag.SCALERS_LOG
        )
        if self.interface.framework_name == "CUDA":
            flags |= Flag.FRAMEWORK_CUDA
        else:
            flags |= Flag.FRAMEWORK_OPENCL
        flags |= {
            ProcessorType.GPU: Flag.PROCESSOR_GPU,
            ProcessorType.CPU: Flag.PROCESSOR_CPU,
            ProcessorType.PHI: Flag.PROCESSOR_PHI,
        }[self.device.processor]
        return flags

    # -- simulated-time accounting ------------------------------------------

    @property
    def simulated_time(self) -> float:
        """Modelled device seconds consumed so far."""
        return self.interface.clock.elapsed

    @property
    def kernel_launch_count(self) -> int:
        """Simulated kernel launches so far (excludes memory transfers)."""
        return self.interface.clock.kernel_launches

    def reset_simulated_time(self) -> None:
        self.interface.clock.reset()

    # -- geometry ----------------------------------------------------------

    def _partials_geometry(self) -> Tuple[LaunchGeometry, int]:
        cfg = self.interface.kernel_config
        geom = cfg.launch_geometry(self.config.pattern_count)
        return geom, cfg.patterns_per_workgroup

    def _partials_cost(self, block: int) -> KernelCost:
        c = self.config
        return partials_kernel_cost(
            c.pattern_count,
            c.state_count,
            c.category_count,
            np.dtype(self.dtype).itemsize,
            workgroup_patterns=block,
        )

    # -- data movement overrides ----------------------------------------------

    def set_tip_states(self, tip_index: int, states: np.ndarray) -> None:
        super().set_tip_states(tip_index, states)
        if tip_index not in self._d_tip_states:
            self._d_tip_states[tip_index] = self.interface.allocate(
                (self.config.pattern_count,), np.int32
            )
        self.interface.upload(
            self._d_tip_states[tip_index], self._tip_states[tip_index]
        )

    # The device pool keeps the kernel IR's (c, p, s) layout, which is
    # the beagle_* boundary's: validated partials upload as given.

    def _allocate_partials(self) -> None:
        return None

    def _store_partials(self, index: int, partials: np.ndarray) -> None:
        self._tip_states.pop(index, None)
        self._d_tip_states.pop(index, None)
        self.interface.upload(
            self.interface.slot(self._d_partials, index), partials
        )
        self._written_partials.add(index)

    def get_partials(self, index: int) -> np.ndarray:
        self._check_buffer(index)
        if index in self._tip_states:
            raise UnsupportedOperationError(
                f"buffer {index} is a compact tip-state buffer"
            )
        return self.interface.download(
            self.interface.slot(self._d_partials, index)
        )

    def set_transition_matrix(self, index: int, matrix: np.ndarray) -> None:
        super().set_transition_matrix(index, matrix)
        self.interface.upload(
            self.interface.slot(self._d_matrices, index),
            self._matrices[index],
        )
        self.interface.upload(
            self.interface.slot(self._d_matrices_ext, index),
            self._matrices_ext[index],
        )

    def get_transition_matrix(self, index: int) -> np.ndarray:
        self._check_matrix(index)
        return self.interface.download(
            self.interface.slot(self._d_matrices, index)
        )

    # -- compute overrides ------------------------------------------------------

    def _compute_matrices(self, eigen, matrix_indices, branch_lengths) -> None:
        v, v_inv, lam = eigen
        c = self.config
        s = c.state_count
        n = len(matrix_indices)
        lengths_rates = np.multiply.outer(
            np.asarray(branch_lengths, dtype=float), self._category_rates
        )
        out = np.empty((n, c.category_count, s, s), dtype=self.dtype)
        cost = KernelCost(
            flops=float(n * c.category_count * (2 * s**3 + s**2)),
            bytes_moved=float(out.nbytes),
            working_set_bytes=float(out.nbytes),
        )
        self.interface.launch(
            "kernelMatrixMulADB",
            [out, np.asarray(v, float), np.asarray(v_inv, float),
             np.asarray(lam, float), lengths_rates],
            LaunchGeometry((max(n, 1),), (1,)),
            cost,
        )
        for pos, idx in enumerate(matrix_indices):
            # Host mirror kept coherent for dense-fallback paths.
            self._matrices[idx] = out[pos]
            self.interface.upload(
                self.interface.slot(self._d_matrices, idx), out[pos]
            )
            self.interface.upload(
                self.interface.slot(self._d_matrices_ext, idx),
                self._matrices_ext[idx],
            )

    def _compute_derivative_matrices(
        self,
        eigen,
        matrix_indices,
        branch_lengths,
        first_derivative_indices,
        second_derivative_indices,
    ) -> None:
        super()._compute_derivative_matrices(
            eigen, matrix_indices, branch_lengths,
            first_derivative_indices, second_derivative_indices,
        )
        # Keep device copies coherent with the host-computed derivatives.
        for targets in (first_derivative_indices, second_derivative_indices):
            if targets is None:
                continue
            for idx in targets:
                self.interface.upload(
                    self.interface.slot(self._d_matrices, idx),
                    self._matrices[idx],
                )

    def _operation_kernel_args(self, op: Operation) -> Tuple[str, list]:
        """Kernel name and handle arguments for one partials operation."""
        dest = self.interface.slot(self._d_partials, op.destination)
        s1 = op.child1 in self._d_tip_states
        s2 = op.child2 in self._d_tip_states
        if s1 and s2:
            return "kernelStatesStatesNoScale", [
                dest,
                self._d_tip_states[op.child1],
                self.interface.slot(self._d_matrices_ext, op.child1_matrix),
                self._d_tip_states[op.child2],
                self.interface.slot(self._d_matrices_ext, op.child2_matrix),
            ]
        if s1 or s2:
            states_child, states_matrix, part_child, part_matrix = (
                (op.child1, op.child1_matrix, op.child2, op.child2_matrix)
                if s1
                else (op.child2, op.child2_matrix, op.child1, op.child1_matrix)
            )
            return "kernelStatesPartialsNoScale", [
                dest,
                self._d_tip_states[states_child],
                self.interface.slot(self._d_matrices_ext, states_matrix),
                self.interface.slot(self._d_partials, part_child),
                self.interface.slot(self._d_matrices, part_matrix),
            ]
        return "kernelPartialsPartialsNoScale", [
            dest,
            self.interface.slot(self._d_partials, op.child1),
            self.interface.slot(self._d_matrices, op.child1_matrix),
            self.interface.slot(self._d_partials, op.child2),
            self.interface.slot(self._d_matrices, op.child2_matrix),
        ]

    def _compute_operation(self, op: Operation) -> None:
        geom, block = self._partials_geometry()
        cost = self._partials_cost(block)
        kernel_name, args = self._operation_kernel_args(op)
        self.interface.launch(kernel_name, args, geom, cost)
        self._apply_device_scaling(op, geom)

    def _apply_device_scaling(self, op: Operation, geom) -> None:
        dest = self.interface.slot(self._d_partials, op.destination)
        if op.read_scale != OP_NONE:
            # Rare path: re-apply previously stored factors on device.
            view = self.interface.view(dest)
            factors = self.interface.view(
                self.interface.slot(self._d_scales, op.read_scale)
            )
            view *= np.exp(factors)[np.newaxis, :, np.newaxis]
        if op.write_scale != OP_NONE:
            c = self.config
            scale_cost = KernelCost(
                flops=float(c.pattern_count * c.category_count * c.state_count),
                bytes_moved=float(2 * c.pattern_count * c.category_count
                                  * c.state_count
                                  * np.dtype(self.dtype).itemsize),
            )
            self.interface.launch(
                "kernelPartialsDynamicScaling",
                [dest,
                 self.interface.slot(self._d_scales, op.write_scale),
                 float(self._scaling_threshold)],
                geom,
                scale_cost,
            )

    def _execute_level(self, operations: List[Operation]) -> None:
        """One batched kernel launch per dependency level.

        All of a level's partials operations are independent, so the
        fused ``kernelPartialsLevelNoScale`` dispatches them inside a
        single launch: the per-launch overhead is paid once and the
        work-group dispatch accounting covers the combined grid.  Scaling
        tails (rare) still launch per operation afterwards, which is
        valid for the same independence reason.
        """
        if self._tracer.enabled:
            self._metrics.histogram("accel.fused_level_size").observe(
                len(operations)
            )
        if len(operations) == 1:
            self._compute_operation(operations[0])
            return
        geom, block = self._partials_geometry()
        per_cost = self._partials_cost(block)
        n = len(operations)
        # Nested batch arguments are not resolved by the frameworks'
        # launch paths, so device handles become views here (the same
        # convention as accumulate_scale_factors' factor list).
        batch = []
        for op in operations:
            kernel_name, args = self._operation_kernel_args(op)
            batch.append(
                (
                    kernel_name,
                    [
                        self.interface.view(a)
                        if not isinstance(a, np.ndarray)
                        else a
                        for a in args
                    ],
                )
            )
        if self.interface.kernel_config.variant == "gpu":
            g_pat, g_state = geom.global_size
            l_pat, l_state = geom.local_size
            level_geom = LaunchGeometry(
                (g_pat, g_state * n), (l_pat, l_state)
            )
        else:
            (g_pat,), (l_pat,) = geom.global_size, geom.local_size
            level_geom = LaunchGeometry((g_pat * n,), (l_pat,))
        level_cost = KernelCost(
            flops=per_cost.flops * n,
            bytes_moved=per_cost.bytes_moved * n,
            n_workgroups=per_cost.n_workgroups * n,
            working_set_bytes=per_cost.working_set_bytes * n,
        )
        self.interface.launch_batch(
            "kernelPartialsLevelNoScale", batch, level_geom, level_cost
        )
        for op in operations:
            self._apply_device_scaling(op, geom)

    def accumulate_scale_factors(self, scale_indices, cumulative_index) -> None:
        self._check_scale(cumulative_index)
        if self._d_scales is None:
            raise BeagleError("instance created without scale buffers")
        handles = []
        for idx in scale_indices:
            self._check_scale(idx)
            if idx == cumulative_index:
                raise ValueError(
                    "cumulative buffer cannot be one of the accumulated buffers"
                )
            handles.append(self.interface.slot(self._d_scales, idx))
        cumulative = self.interface.slot(self._d_scales, cumulative_index)
        c = self.config
        cost = KernelCost(
            flops=float(len(handles) * c.pattern_count),
            bytes_moved=float((len(handles) + 1) * c.pattern_count * 8),
        )
        self.interface.launch(
            "kernelAccumulateFactorsScale",
            [cumulative, [self.interface.view(h) for h in handles]],
            LaunchGeometry((c.pattern_count,), (1,)),
            cost,
        )

    def reset_scale_factors(self, index: int) -> None:
        self._check_scale(index)
        self.interface.upload(
            self.interface.slot(self._d_scales, index),
            np.zeros(self.config.pattern_count),
        )

    def get_scale_factors(self, index: int) -> np.ndarray:
        self._check_scale(index)
        return self.interface.download(
            self.interface.slot(self._d_scales, index)
        )

    def calculate_root_log_likelihoods(
        self,
        buffer_index: int,
        category_weights_index: int = 0,
        state_frequencies_index: int = 0,
        cumulative_scale_index: int = OP_NONE,
    ) -> float:
        self._check_buffer(buffer_index)
        if buffer_index in self._tip_states:
            raise UnsupportedOperationError("root buffer cannot be compact")
        c = self.config
        scale = None
        if cumulative_scale_index != OP_NONE:
            self._check_scale(cumulative_scale_index)
            scale = self.interface.view(
                self.interface.slot(self._d_scales, cumulative_scale_index)
            )
        cost = KernelCost(
            flops=float(c.pattern_count * c.category_count
                        * (2 * c.state_count + 2)),
            bytes_moved=float(c.pattern_count * c.category_count
                              * c.state_count
                              * np.dtype(self.dtype).itemsize),
        )
        self.interface.launch(
            "kernelIntegrateLikelihoods",
            [self._d_site_loglik,
             self.interface.slot(self._d_partials, buffer_index),
             self._category_weights[category_weights_index],
             self._state_frequencies[state_frequencies_index],
             self._pattern_weights,
             scale],
            LaunchGeometry((c.pattern_count,), (1,)),
            cost,
        )
        log_site = self.interface.download(self._d_site_loglik)
        self._site_log_likelihoods = log_site
        return float(np.dot(self._pattern_weights, log_site))

    def calculate_edge_log_likelihoods(
        self,
        parent_index: int,
        child_index: int,
        matrix_index: int,
        category_weights_index: int = 0,
        state_frequencies_index: int = 0,
        cumulative_scale_index: int = OP_NONE,
    ) -> float:
        self._check_buffer(parent_index)
        self._check_buffer(child_index)
        self._check_matrix(matrix_index)
        c = self.config
        if parent_index in self._tip_states or child_index in self._tip_states:
            # Fall back to dense expansion for compact buffers.
            return super().calculate_edge_log_likelihoods(
                parent_index, child_index, matrix_index,
                category_weights_index, state_frequencies_index,
                cumulative_scale_index,
            )
        scale = None
        if cumulative_scale_index != OP_NONE:
            self._check_scale(cumulative_scale_index)
            scale = self.interface.view(
                self.interface.slot(self._d_scales, cumulative_scale_index)
            )
        geom, block = self._partials_geometry()
        cost = self._partials_cost(block)
        self.interface.launch(
            "kernelIntegrateLikelihoodsEdge",
            [self._d_site_loglik,
             self.interface.slot(self._d_partials, parent_index),
             self.interface.slot(self._d_partials, child_index),
             self.interface.slot(self._d_matrices, matrix_index),
             self._category_weights[category_weights_index],
             self._state_frequencies[state_frequencies_index],
             self._pattern_weights,
             scale],
            geom,
            cost,
        )
        log_site = self.interface.download(self._d_site_loglik)
        self._site_log_likelihoods = log_site
        return float(np.dot(self._pattern_weights, log_site))

    def _compute_branch_gradients(
        self,
        eigen,
        parent_indices,
        child_indices,
        lengths,
        category_weights,
        state_frequencies,
        cumulative_scale_log,
    ) -> np.ndarray:
        """The whole gradient sweep as ONE fused device launch.

        Every edge is an independent ``kernelEdgeDerivatives``
        evaluation, so the batch dispatches through
        ``kernelEdgeGradientsBatch`` exactly like a fused partials level:
        launch overhead is paid once for all N branches.  The per-edge
        transition/derivative matrices come straight from the eigen
        system as host staging arrays (the ``_compute_matrices`` ``out``
        convention) — the sweep never reads or writes the device matrix
        pool, so no stale trial-length matrix can leak in or out.
        """
        v, v_inv, lam = eigen
        rates = self._category_rates
        p_mats = compute.matrices_from_eigen(
            v, v_inv, lam, lengths, rates, self.dtype
        )
        d1_mats = compute.derivative_matrices_from_eigen(
            v, v_inv, lam, lengths, rates, 1, self.dtype
        )
        d2_mats = compute.derivative_matrices_from_eigen(
            v, v_inv, lam, lengths, rates, 2, self.dtype
        )
        n = int(lengths.size)
        c = self.config
        site_ll = np.empty((n, c.pattern_count))
        site_d1 = np.empty((n, c.pattern_count))
        site_d2 = np.empty((n, c.pattern_count))
        batch = []
        for e in range(n):
            batch.append((
                "kernelEdgeDerivatives",
                [site_ll[e], site_d1[e], site_d2[e],
                 self._dense_partials(parent_indices[e]).swapaxes(1, 2),
                 self._dense_partials(child_indices[e]).swapaxes(1, 2),
                 p_mats[e], d1_mats[e], d2_mats[e],
                 category_weights, state_frequencies,
                 self._pattern_weights, cumulative_scale_log],
            ))
        geom, block = self._partials_geometry()
        per_cost = gradient_kernel_cost(
            c.pattern_count,
            c.state_count,
            c.category_count,
            np.dtype(self.dtype).itemsize,
            workgroup_patterns=block,
        )
        if self.interface.kernel_config.variant == "gpu":
            g_pat, g_state = geom.global_size
            l_pat, l_state = geom.local_size
            sweep_geom = LaunchGeometry(
                (g_pat, g_state * n), (l_pat, l_state)
            )
        else:
            (g_pat,), (l_pat,) = geom.global_size, geom.local_size
            sweep_geom = LaunchGeometry((g_pat * n,), (l_pat,))
        sweep_cost = KernelCost(
            flops=per_cost.flops * n,
            bytes_moved=per_cost.bytes_moved * n,
            n_workgroups=per_cost.n_workgroups * n,
            working_set_bytes=per_cost.working_set_bytes * n,
        )
        self.interface.launch_batch(
            "kernelEdgeGradientsBatch", batch, sweep_geom, sweep_cost
        )
        pw = self._pattern_weights
        out = np.empty((n, 3))
        for e in range(n):
            out[e, 0] = float(np.dot(pw, site_ll[e]))
            out[e, 1] = float(np.dot(pw, site_d1[e]))
            out[e, 2] = float(np.dot(pw, site_d2[e]))
        return out

    def _cumulative_scale_log(self, index: int) -> np.ndarray:
        if self._d_scales is None:
            raise BeagleError("instance created without scale buffers")
        return self.interface.view(
            self.interface.slot(self._d_scales, index)
        )

    def _dense_partials(self, index: int) -> np.ndarray:
        """Host-layout ``(c, s, p)`` view; device buffers are transposed."""
        if index in self._tip_states:
            return super()._dense_partials(index)
        return self.interface.view(
            self.interface.slot(self._d_partials, index)
        ).swapaxes(1, 2)

    def finalize(self) -> None:
        self.interface.finalize()
