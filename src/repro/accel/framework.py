"""The single internal hardware interface shared by CUDA and OpenCL.

Paper section V-B: "This parallel implementation model communicates with
the CUDA and OpenCL APIs through a single internal interface, which, in
turn, has an implementation available for each framework."  The interface
"deals with loading the different kernels and compiling the correct one
for the given analysis parameters ..., as well as all the hardware
accelerator related functions such as executing kernels, copying data,
querying device characteristics" (section VII-A).

:class:`HardwareInterface` is that interface.  The two implementations —
:class:`repro.accel.cuda.CudaInterface` and
:class:`repro.accel.opencl.OpenCLInterface` — wrap the corresponding
simulated driver APIs and differ exactly where the paper says they must:
sub-pointer addressing is pointer arithmetic under CUDA and
``clCreateSubBuffer`` under OpenCL.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.accel.device import DeviceSpec
from repro.accel.ir import KernelConfig, LaunchGeometry, build_program_ir
from repro.accel.lower import (
    MacroSet,
    fit_config_for_device,
    lowering_for,
    variant_for,
)
from repro.accel.perfmodel import KernelCost, SimulatedClock
from repro.obs import NULL_TRACER

#: Host-device interconnect model (PCIe gen3 x16 effective).
PCIE_BANDWIDTH_GBS = 12.0
PCIE_LATENCY_S = 8e-6


class BufferHandle:
    """Opaque device-buffer reference; concrete types per framework."""

    nbytes: int


class HardwareInterface(abc.ABC):
    """Uniform accelerator access for the shared implementation model."""

    framework_name: str = "abstract"
    #: Keyword table the kernel program is lowered with.
    macros: MacroSet

    def __init__(self, device: DeviceSpec) -> None:
        self.device = device
        self.clock = SimulatedClock()
        self._kernel_config: Optional[KernelConfig] = None
        # Observability: set by AcceleratedImplementation.instrument so
        # every kernel launch emits a "launch" span and counters.  The
        # null tracer keeps the uninstrumented cost to one branch.
        self.tracer = NULL_TRACER
        self.metrics = None
        # Fault injection: set by repro.resil.install_fault_plan so
        # scripted device failures surface from the same choke point as
        # real driver errors.  None keeps the clean-path cost to one
        # attribute check per launch.
        self.fault_injector = None

    # -- program management ------------------------------------------------

    def build_program(
        self, config: KernelConfig, *, autotune: bool = True
    ) -> None:
        """Fit, (auto)tune, lower, and compile the program for ``config``.

        One shared pipeline for every framework:

        1. :func:`repro.accel.lower.fit_config_for_device` clamps the
           requested config to the device (the clamp-and-backstop logic
           formerly duplicated per backend), with the variant the
           device runs (:func:`repro.accel.lower.variant_for`);
        2. with ``autotune`` (the default), the persistent tuning cache
           is consulted and a cached winner for this (device, states,
           precision, variant) replaces the fitted default
           (:func:`repro.accel.autotune.apply_tuned_config` — it falls
           back to the fitted config on any cache problem);
        3. the static validator cross-checks the final config
           (:meth:`_validate_config`);
        4. the portable IR is built and lowered with the framework's
           :attr:`macros`, and the artefact is compiled/loaded by
           :meth:`_load_program`.

        The autotuner itself calls this with ``autotune=False`` when
        measuring candidates, so tuning never recurses into the cache.
        """
        fitted = fit_config_for_device(
            config, self.device,
            variant=variant_for(self.device, config.variant),
        )
        if autotune:
            from repro.accel.autotune import apply_tuned_config

            fitted = apply_tuned_config(fitted, self.device)
        self._validate_config(fitted)
        program = build_program_ir(fitted)
        source = lowering_for(fitted, self.macros).lower(program)
        self._load_program(source, fitted)
        self._kernel_config = fitted

    @abc.abstractmethod
    def _load_program(self, source: str, config: KernelConfig) -> None:
        """Compile/load a lowered kernel program (framework-specific)."""

    @property
    def kernel_config(self) -> KernelConfig:
        if self._kernel_config is None:
            raise RuntimeError("no kernel program has been built")
        return self._kernel_config

    def _validate_config(self, config: KernelConfig) -> None:
        """Cross-check a fitted config against the device before compiling.

        The fitting policy (:func:`repro.accel.lower.fit_config_for_device`)
        should always produce a feasible config;
        this is the static-analysis backstop that turns any residual
        infeasibility — work-group over the device cap, local-memory
        overflow, FMA on unsupported hardware — into an error *before*
        kernel generation instead of a silent mis-simulation.
        """
        from repro.analysis.kernelcheck import validate_kernel_config
        from repro.util.errors import UnsupportedOperationError

        errors = [
            d for d in validate_kernel_config(config, self.device)
            if d.severity.name == "ERROR"
        ]
        if errors:
            raise UnsupportedOperationError(
                "kernel config infeasible for device "
                f"{self.device.name}: "
                + "; ".join(d.message for d in errors)
            )

    # -- memory ------------------------------------------------------------

    @abc.abstractmethod
    def allocate(self, shape: Tuple[int, ...], dtype: np.dtype) -> BufferHandle:
        """Allocate one device buffer."""

    @abc.abstractmethod
    def allocate_pool(
        self, n_slots: int, slot_shape: Tuple[int, ...], dtype: np.dtype
    ) -> BufferHandle:
        """Allocate a pooled region of ``n_slots`` equal-shaped buffers."""

    @abc.abstractmethod
    def slot(self, pool: BufferHandle, index: int) -> BufferHandle:
        """Address one slot of a pooled allocation.

        This is the framework-divergent operation: pointer arithmetic
        under CUDA, ``clCreateSubBuffer`` under OpenCL (section VII-A).
        """

    @abc.abstractmethod
    def upload(self, handle: BufferHandle, host: np.ndarray) -> None:
        """Copy host data to the device (costs simulated transfer time)."""

    @abc.abstractmethod
    def download(self, handle: BufferHandle) -> np.ndarray:
        """Copy device data back to the host."""

    @abc.abstractmethod
    def view(self, handle: BufferHandle) -> np.ndarray:
        """Zero-cost internal view for kernel argument resolution."""

    # -- execution -----------------------------------------------------------

    def launch(
        self,
        kernel_name: str,
        args: Sequence[Any],
        geometry: LaunchGeometry,
        cost: KernelCost,
    ) -> None:
        """Execute a kernel and advance the simulated clock.

        This is the single instrumented choke point for accelerator
        work: when a tracer is attached, every launch emits a ``launch``
        span (the leaves of the plan -> level -> launch tree) with the
        kernel name, geometry, modelled flops, and simulated device time,
        and bumps the launch counters.  Framework-specific dispatch lives
        in :meth:`_launch_impl`.

        With a fault injector installed, the injector is consulted
        before dispatch: it may raise the scripted device error or
        advance the clock for a latency spike (see
        :mod:`repro.resil.faults`).
        """
        if self.fault_injector is not None:
            self.fault_injector.on_launch(self.clock)
        tracer = self.tracer
        if not tracer.enabled:
            self._launch_impl(kernel_name, args, geometry, cost)
            return
        t0 = self.clock.elapsed
        with tracer.span(
            kernel_name,
            kind="launch",
            framework=self.framework_name,
            flops=cost.flops,
            n_workgroups=geometry.n_workgroups,
        ) as span:
            self._launch_impl(kernel_name, args, geometry, cost)
            span.attrs["simulated_s"] = self.clock.elapsed - t0
        if self.metrics is not None:
            self.metrics.counter("kernel.launches").inc()
            self.metrics.counter("kernel.simulated_seconds").inc(
                self.clock.elapsed - t0
            )

    @abc.abstractmethod
    def _launch_impl(
        self,
        kernel_name: str,
        args: Sequence[Any],
        geometry: LaunchGeometry,
        cost: KernelCost,
    ) -> None:
        """Framework-specific kernel dispatch (advances the clock)."""

    def launch_batch(
        self,
        kernel_name: str,
        batch: Sequence[Tuple[str, Sequence[Any]]],
        geometry: LaunchGeometry,
        cost: KernelCost,
    ) -> None:
        """Execute a fused batch kernel: one launch, many operations.

        ``batch`` entries are ``(kernel name, resolved args)`` pairs the
        fused kernel dispatches internally.  Nested argument handles are
        *not* resolved by the framework — callers pass device views —
        so both frameworks share this default: a single :meth:`launch`
        whose only argument is the batch, paying one launch overhead for
        the combined cost.
        """
        self.launch(kernel_name, [list(batch)], geometry, cost)

    def synchronize(self) -> None:
        """Block until queued work completes (no-op: launches are eager)."""

    @abc.abstractmethod
    def finalize(self) -> None:
        """Release contexts/allocations."""

    # -- shared helpers -------------------------------------------------------

    def _transfer_time(self, nbytes: int) -> float:
        return PCIE_LATENCY_S + nbytes / (PCIE_BANDWIDTH_GBS * 1e9)

    def memory_in_use(self) -> int:
        raise NotImplementedError
