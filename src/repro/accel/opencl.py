"""Simulated OpenCL platform layer.

A functional stand-in for the subset of OpenCL 1.2 that BEAGLE uses:

* an **Installable Client Driver (ICD) loader** exposing every registered
  vendor driver, "which allows the selection of different drivers for the
  same hardware resource" (paper section VII-B.3);
* contexts, command queues, and buffer objects;
* ``clCreateSubBuffer`` — the OpenCL way to address sub-regions, in
  contrast to CUDA pointer arithmetic (section VII-A);
* ``clCreateSubDevices`` — device fission, which the paper uses for the
  multicore scaling benchmark (Fig. 5);
* runtime program compilation from generated source with ``-D`` build
  options (``FP_FAST_FMAF`` / ``FP_FAST_FMA``, Table IV).

Functions follow OpenCL naming so host code reads like an OpenCL program;
errors raise :class:`CLError` with CL-style status names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.accel.device import DeviceSpec, ProcessorType
from repro.accel.framework import (
    BufferHandle,
    HardwareInterface,
    LaunchGeometry,
)
from repro.accel.ir import KernelConfig
from repro.accel.lower import OPENCL_MACROS, compile_kernel_program
from repro.accel.perfmodel import (
    KernelCost,
    SimulatedClock,
    accelerator_kernel_time,
)
from repro.util.errors import OutOfMemoryError

#: Extra host-side cost of one clEnqueueNDRangeKernel relative to a CUDA
#: launch — the "greater execution overhead" the paper observes for
#: OpenCL at small pattern counts (section VIII-A.1).
OPENCL_ENQUEUE_OVERHEAD_S = 6e-6


class CLError(RuntimeError):
    """An OpenCL call failed; ``status`` mirrors cl_int error names."""

    def __init__(self, status: str, message: str = "") -> None:
        super().__init__(f"{status}: {message}" if message else status)
        self.status = status


@dataclass(frozen=True)
class CLPlatform:
    """One vendor driver (ICD entry)."""

    name: str
    vendor: str
    version: str
    devices: Tuple[DeviceSpec, ...]


_platforms: List[CLPlatform] = []


def register_icd(platform: CLPlatform) -> None:
    """Install a vendor driver into the ICD loader."""
    _platforms.append(platform)


def reset_icd() -> None:
    """Clear all registered drivers (used by tests)."""
    _platforms.clear()


def install_default_platforms() -> None:
    """Register the paper's Table I driver population."""
    from repro.accel.device import (
        FIREPRO_S9170,
        QUADRO_P5000,
        RADEON_R9_NANO,
        XEON_E5_2680V4_X2,
    )

    reset_icd()
    register_icd(
        CLPlatform(
            name="AMD Accelerated Parallel Processing",
            vendor="Advanced Micro Devices, Inc.",
            version="OpenCL 1.2 AMD-APP (1912.5)",
            devices=(RADEON_R9_NANO, FIREPRO_S9170),
        )
    )
    register_icd(
        CLPlatform(
            name="NVIDIA CUDA",
            vendor="NVIDIA Corporation",
            version="OpenCL 1.2 CUDA 375.26",
            devices=(QUADRO_P5000,),
        )
    )
    register_icd(
        CLPlatform(
            name="Intel(R) OpenCL",
            vendor="Intel(R) Corporation",
            version="OpenCL 1.2 (1.2.0)",
            devices=(XEON_E5_2680V4_X2,),
        )
    )


def clGetPlatformIDs() -> List[CLPlatform]:
    if not _platforms:
        install_default_platforms()
    return list(_platforms)


def clGetDeviceIDs(
    platform: CLPlatform, device_type: Optional[ProcessorType] = None
) -> List[DeviceSpec]:
    devices = [
        d
        for d in platform.devices
        if device_type is None or d.processor == device_type
    ]
    if not devices:
        raise CLError("CL_DEVICE_NOT_FOUND", platform.name)
    return devices


def clCreateSubDevices(device: DeviceSpec, n_units: int) -> DeviceSpec:
    """Device fission: a sub-device with ``n_units`` compute units."""
    try:
        return device.with_compute_units(n_units)
    except ValueError as exc:
        raise CLError("CL_INVALID_DEVICE_PARTITION_COUNT", str(exc)) from exc


class CLContext:
    """An OpenCL context: owns buffers and tracks device memory."""

    def __init__(self, device: DeviceSpec) -> None:
        self.device = device
        self.bytes_in_use = 0
        self._released = False

    def _check_alive(self) -> None:
        if self._released:
            raise CLError("CL_INVALID_CONTEXT", "context was released")

    def release(self) -> None:
        self._released = True
        self.bytes_in_use = 0


class CLMem(BufferHandle):
    """A buffer object; sub-buffers reference their parent's storage."""

    def __init__(
        self,
        context: CLContext,
        shape: Tuple[int, ...],
        dtype: np.dtype,
        parent: Optional["CLMem"] = None,
        origin_elems: int = 0,
    ) -> None:
        self.context = context
        self.shape = tuple(shape)
        self.dtype = np.dtype(dtype)
        self.parent = parent
        self.origin_elems = origin_elems
        if parent is None:
            self._storage = np.zeros(math.prod(shape), dtype=self.dtype)
        else:
            self._storage = None  # resolved through parent

    @property
    def nbytes(self) -> int:  # type: ignore[override]
        return math.prod(self.shape) * self.dtype.itemsize

    def array(self) -> np.ndarray:
        if self.parent is not None:
            flat = self.parent.array().reshape(-1)
            count = math.prod(self.shape)
            return flat[self.origin_elems : self.origin_elems + count].reshape(
                self.shape
            )
        return self._storage.reshape(self.shape)


def clCreateBuffer(
    context: CLContext, shape: Tuple[int, ...], dtype: np.dtype
) -> CLMem:
    context._check_alive()
    dtype = np.dtype(dtype)
    nbytes = math.prod(shape) * dtype.itemsize
    if nbytes <= 0:
        raise CLError("CL_INVALID_BUFFER_SIZE", f"{nbytes} bytes")
    capacity = int(context.device.memory_gb * 2**30)
    if context.bytes_in_use + nbytes > capacity:
        raise OutOfMemoryError(
            f"{context.device.name}: {nbytes} bytes requested, "
            f"{capacity - context.bytes_in_use} free"
        )
    context.bytes_in_use += nbytes
    return CLMem(context, shape, dtype)


def clCreateSubBuffer(
    mem: CLMem, origin_elems: int, shape: Tuple[int, ...]
) -> CLMem:
    """A sub-buffer view (CL_BUFFER_CREATE_TYPE_REGION equivalent)."""
    if mem.parent is not None:
        # Real OpenCL 1.2 also rejects sub-buffers of sub-buffers.
        raise CLError("CL_INVALID_MEM_OBJECT", "cannot sub-buffer a sub-buffer")
    count = math.prod(shape)
    total = math.prod(mem.shape)
    if origin_elems < 0 or origin_elems + count > total:
        raise CLError(
            "CL_INVALID_VALUE",
            f"region [{origin_elems}, {origin_elems + count}) outside "
            f"buffer of {total} elements",
        )
    return CLMem(mem.context, shape, mem.dtype, parent=mem,
                 origin_elems=origin_elems)


class CLProgram:
    """Program object: source until built, kernel table after."""

    def __init__(self, context: CLContext, source: str) -> None:
        self.context = context
        self.source = source
        self.build_options: str = ""
        self._kernels: Optional[Dict[str, Callable]] = None

    def build(self, options: str = "") -> None:
        self.build_options = options
        try:
            self._kernels = compile_kernel_program(self.source)
        except SyntaxError as exc:
            raise CLError("CL_BUILD_PROGRAM_FAILURE", str(exc)) from exc

    @property
    def kernels(self) -> Dict[str, Callable]:
        if self._kernels is None:
            raise CLError("CL_INVALID_PROGRAM_EXECUTABLE", "program not built")
        return self._kernels


def clCreateProgramWithSource(context: CLContext, source: str) -> CLProgram:
    context._check_alive()
    return CLProgram(context, source)


@dataclass(frozen=True)
class CLKernel:
    name: str
    fn: Callable


def clCreateKernel(program: CLProgram, name: str) -> CLKernel:
    try:
        return CLKernel(name, program.kernels[name])
    except KeyError:
        raise CLError("CL_INVALID_KERNEL_NAME", name) from None


class CLCommandQueue:
    """In-order command queue; enqueues execute eagerly and advance the clock."""

    def __init__(self, context: CLContext) -> None:
        context._check_alive()
        self.context = context
        self.clock = SimulatedClock()

    def enqueueWriteBuffer(self, mem: CLMem, host: np.ndarray) -> None:
        host = np.ascontiguousarray(host, dtype=mem.dtype)
        if host.shape != mem.shape:
            raise CLError(
                "CL_INVALID_VALUE", f"shape {host.shape} != {mem.shape}"
            )
        mem.array()[...] = host
        self.clock.advance(
            _transfer_time(self.context.device, mem.nbytes),
            label="enqueueWriteBuffer",
        )

    def enqueueReadBuffer(self, mem: CLMem) -> np.ndarray:
        out = np.array(mem.array())
        self.clock.advance(
            _transfer_time(self.context.device, mem.nbytes),
            label="enqueueReadBuffer",
        )
        return out

    def enqueueNDRangeKernel(
        self,
        kernel: CLKernel,
        geometry: LaunchGeometry,
        args: Sequence[Any],
        cost: KernelCost,
        precision: str,
        use_fma: bool = False,
        compute_penalty: float = 1.0,
    ) -> None:
        geometry.n_workgroups  # validates divisibility
        resolved = [a.array() if isinstance(a, CLMem) else a for a in args]
        kernel.fn(*resolved, geometry)
        self.clock.advance(
            accelerator_kernel_time(
                self.context.device,
                cost,
                precision,
                use_fma=use_fma,
                compute_penalty=compute_penalty,
                launch_overhead_s=(
                    self.context.device.launch_overhead_s
                    + OPENCL_ENQUEUE_OVERHEAD_S
                ),
            ),
            label=kernel.name,
        )

    def finish(self) -> None:
        """In-order eager queue: nothing pending by construction."""


def _transfer_time(device: DeviceSpec, nbytes: int) -> float:
    from repro.accel.framework import PCIE_BANDWIDTH_GBS, PCIE_LATENCY_S

    if device.processor == ProcessorType.CPU:
        # Host-resident device: zero-copy, only a mapping latency.
        return 2e-6
    return PCIE_LATENCY_S + nbytes / (PCIE_BANDWIDTH_GBS * 1e9)


# ---------------------------------------------------------------------------
# HardwareInterface adapter
# ---------------------------------------------------------------------------

class OpenCLInterface(HardwareInterface):
    """The OpenCL implementation of the shared hardware interface.

    Slot addressing within pooled allocations uses ``clCreateSubBuffer``
    — the OpenCL side of the paper's sub-pointer distinction.  The kernel
    variant is chosen per processor type: ``gpu`` kernels for GPU devices,
    loop-over-states ``x86`` kernels for CPUs (section VII-B).
    """

    framework_name = "OpenCL"
    macros = OPENCL_MACROS

    def __init__(self, device: DeviceSpec) -> None:
        super().__init__(device)
        self.ctx = CLContext(device)
        self.queue = CLCommandQueue(self.ctx)
        self.clock = self.queue.clock
        self._program: Optional[CLProgram] = None
        self._kernels: Dict[str, CLKernel] = {}

    def _load_program(self, source: str, config: KernelConfig) -> None:
        self._program = clCreateProgramWithSource(self.ctx, source)
        options = []
        if config.use_fma:
            options.append(
                "-D FP_FAST_FMAF" if config.precision == "single"
                else "-D FP_FAST_FMA"
            )
        self._program.build(" ".join(options))
        self._kernels = {}

    def _kernel(self, name: str) -> CLKernel:
        if self._program is None:
            raise CLError("CL_INVALID_PROGRAM_EXECUTABLE", "no program built")
        if name not in self._kernels:
            self._kernels[name] = clCreateKernel(self._program, name)
        return self._kernels[name]

    def allocate(self, shape, dtype) -> CLMem:
        return clCreateBuffer(self.ctx, tuple(shape), dtype)

    def allocate_pool(self, n_slots, slot_shape, dtype) -> CLMem:
        return clCreateBuffer(self.ctx, (n_slots,) + tuple(slot_shape), dtype)

    def slot(self, pool: CLMem, index: int) -> CLMem:
        slot_shape = pool.shape[1:]
        stride = math.prod(slot_shape)
        return clCreateSubBuffer(pool, index * stride, slot_shape)

    def upload(self, handle: CLMem, host: np.ndarray) -> None:
        self.queue.enqueueWriteBuffer(handle, host)

    def download(self, handle: CLMem) -> np.ndarray:
        return self.queue.enqueueReadBuffer(handle)

    def view(self, handle: CLMem) -> np.ndarray:
        return handle.array()

    def _launch_impl(self, kernel_name, args, geometry, cost) -> None:
        config = self.kernel_config
        self.queue.enqueueNDRangeKernel(
            self._kernel(kernel_name),
            geometry,
            args,
            cost,
            config.precision,
            use_fma=config.use_fma,
        )

    def memory_in_use(self) -> int:
        return self.ctx.bytes_in_use

    def finalize(self) -> None:
        self.ctx.release()
