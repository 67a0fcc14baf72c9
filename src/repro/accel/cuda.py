"""Simulated CUDA Driver API.

A functional, in-process stand-in for the subset of the CUDA *Driver* API
that BEAGLE uses (the paper notes BEAGLE chose the Driver API over the
Runtime API for flexibility and OpenCL code sharing, section IV-E):

* contexts own device allocations and are destroyed with them;
* ``cuMemAlloc`` returns integer device pointers in a per-context virtual
  address space, and **pointer arithmetic on those integers is the
  supported way to address sub-buffers** (paper section VII-A);
* ``cuModuleLoadData`` JIT-compiles generated kernel source;
* ``cuLaunchKernel`` validates shared-memory limits and launch geometry,
  executes the kernel on NumPy views of device memory, and advances the
  context's simulated clock from the roofline model.

Functions follow Driver-API naming so the code reads like a CUDA host
program; errors raise :class:`CudaError` with CUDA-style status names.
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
from repro.accel.lower import CUDA_MACROS, compile_kernel_program
from repro.accel.perfmodel import (
    KernelCost,
    SimulatedClock,
    accelerator_kernel_time,
)
from repro.util.errors import OutOfMemoryError


class CudaError(RuntimeError):
    """A CUDA driver call failed; ``status`` mirrors CUresult names."""

    def __init__(self, status: str, message: str = "") -> None:
        super().__init__(f"{status}: {message}" if message else status)
        self.status = status


#: Alignment of returned device pointers (matches real cuMemAlloc).
_ALLOC_ALIGN = 256

_initialized = False
_devices: List[DeviceSpec] = []


def cuInit(devices: Optional[Sequence[DeviceSpec]] = None) -> None:
    """Initialise the driver with the simulated device population.

    In the real API the device population comes from the machine; here it
    is injected (defaulting to the catalog's NVIDIA GPUs).
    """
    global _initialized, _devices
    from repro.accel.device import DEVICE_CATALOG

    if devices is None:
        devices = [
            d
            for d in DEVICE_CATALOG.values()
            if d.vendor == "NVIDIA" and d.processor == ProcessorType.GPU
        ]
    _devices = list(devices)
    _initialized = True


def cuDeviceGetCount() -> int:
    _require_init()
    return len(_devices)


def cuDeviceGet(ordinal: int) -> DeviceSpec:
    _require_init()
    if not 0 <= ordinal < len(_devices):
        raise CudaError("CUDA_ERROR_INVALID_DEVICE", f"ordinal {ordinal}")
    return _devices[ordinal]


def _require_init() -> None:
    if not _initialized:
        raise CudaError("CUDA_ERROR_NOT_INITIALIZED", "call cuInit first")


@dataclass
class _Allocation:
    base: int
    storage: np.ndarray  # uint8 backing store


class CudaContext:
    """A CUDA context: allocation arena + module registry + clock."""

    def __init__(self, device: DeviceSpec) -> None:
        self.device = device
        self.clock = SimulatedClock()
        self._allocations: Dict[int, _Allocation] = {}
        self._next_va = _ALLOC_ALIGN
        self._bytes_in_use = 0
        self._destroyed = False
        # (dptr, shape, dtype) -> typed view.  A view pins its
        # allocation's storage, so every free drops them all.
        self._views: Dict[
            Tuple[int, Tuple[int, ...], np.dtype], np.ndarray
        ] = {}

    # -- memory -----------------------------------------------------------

    def cuMemAlloc(self, nbytes: int) -> int:
        self._check_alive()
        if nbytes <= 0:
            raise CudaError("CUDA_ERROR_INVALID_VALUE", f"nbytes={nbytes}")
        capacity = int(self.device.memory_gb * 2**30)
        if self._bytes_in_use + nbytes > capacity:
            raise OutOfMemoryError(
                f"{self.device.name}: {nbytes} bytes requested, "
                f"{capacity - self._bytes_in_use} free"
            )
        base = self._next_va
        storage = np.zeros(nbytes, dtype=np.uint8)
        self._allocations[base] = _Allocation(base, storage)
        self._next_va += (nbytes + _ALLOC_ALIGN - 1) // _ALLOC_ALIGN * _ALLOC_ALIGN
        self._bytes_in_use += nbytes
        return base

    def cuMemFree(self, dptr: int) -> None:
        self._check_alive()
        alloc = self._allocations.pop(dptr, None)
        if alloc is None:
            raise CudaError("CUDA_ERROR_INVALID_VALUE", f"bad base ptr {dptr}")
        self._views.clear()
        self._bytes_in_use -= alloc.storage.nbytes

    def _resolve(self, dptr: int, nbytes: int) -> Tuple[np.ndarray, int]:
        """Find the allocation containing [dptr, dptr + nbytes)."""
        for base, alloc in self._allocations.items():
            offset = dptr - base
            if 0 <= offset and offset + nbytes <= alloc.storage.nbytes:
                return alloc.storage, offset
        raise CudaError(
            "CUDA_ERROR_ILLEGAL_ADDRESS",
            f"ptr {dptr} (+{nbytes}B) maps to no allocation",
        )

    def cuMemcpyHtoD(self, dptr: int, host: np.ndarray) -> None:
        self._check_alive()
        host = np.ascontiguousarray(host)
        storage, offset = self._resolve(dptr, host.nbytes)
        storage[offset : offset + host.nbytes] = host.view(np.uint8).ravel()

    def cuMemcpyDtoH(self, host: np.ndarray, dptr: int) -> None:
        self._check_alive()
        if not host.flags["C_CONTIGUOUS"]:
            raise CudaError("CUDA_ERROR_INVALID_VALUE", "host buffer not contiguous")
        storage, offset = self._resolve(dptr, host.nbytes)
        host.view(np.uint8).ravel()[:] = storage[offset : offset + host.nbytes]

    def device_view(
        self, dptr: int, shape: Tuple[int, ...], dtype: np.dtype
    ) -> np.ndarray:
        """Typed view of device memory (used for kernel arg resolution).

        Every launch resolves each buffer argument here, so views are
        kept until the next free.
        """
        key = (dptr, shape, dtype)
        view = self._views.get(key)
        if view is None:
            count = math.prod(shape)
            storage, offset = self._resolve(
                dptr, count * np.dtype(dtype).itemsize
            )
            view = np.frombuffer(
                storage.data, dtype=dtype, count=count, offset=offset,
            ).reshape(shape)
            self._views[key] = view
        return view

    # -- modules and launch --------------------------------------------------

    def cuModuleLoadData(self, source: str) -> "CudaModule":
        self._check_alive()
        try:
            kernels = compile_kernel_program(source)
        except SyntaxError as exc:
            raise CudaError("CUDA_ERROR_INVALID_PTX", str(exc)) from exc
        return CudaModule(kernels)

    def cuLaunchKernel(
        self,
        func: "CudaFunction",
        geometry: LaunchGeometry,
        args: Sequence[Any],
        shared_mem_bytes: int,
        cost: KernelCost,
        precision: str,
        use_fma: bool = False,
    ) -> None:
        self._check_alive()
        if shared_mem_bytes > self.device.local_mem_kb * 1024:
            raise CudaError(
                "CUDA_ERROR_INVALID_VALUE",
                f"shared memory {shared_mem_bytes}B exceeds "
                f"{self.device.local_mem_kb}KB limit",
            )
        geometry.n_workgroups  # validates divisibility
        func.fn(*args, geometry)
        self.clock.advance(
            accelerator_kernel_time(
                self.device, cost, precision, use_fma=use_fma
            ),
            label=func.name,
        )

    def cuCtxDestroy(self) -> None:
        self._allocations.clear()
        self._views.clear()
        self._bytes_in_use = 0
        self._destroyed = True

    def _check_alive(self) -> None:
        if self._destroyed:
            raise CudaError("CUDA_ERROR_CONTEXT_IS_DESTROYED")


class CudaModule:
    """A loaded (JIT-compiled) kernel module."""

    def __init__(self, kernels: Dict[str, Callable]) -> None:
        self._kernels = kernels

    def cuModuleGetFunction(self, name: str) -> "CudaFunction":
        try:
            return CudaFunction(name, self._kernels[name])
        except KeyError:
            raise CudaError(
                "CUDA_ERROR_NOT_FOUND", f"no kernel named {name!r}"
            ) from None


@dataclass(frozen=True)
class CudaFunction:
    name: str
    fn: Callable


def cuCtxCreate(device: DeviceSpec) -> CudaContext:
    _require_init()
    return CudaContext(device)


# ---------------------------------------------------------------------------
# HardwareInterface adapter
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CudaBuffer(BufferHandle):
    """A device pointer plus its typed extent."""

    dptr: int
    shape: Tuple[int, ...]
    dtype: np.dtype

    @property
    def nbytes(self) -> int:  # type: ignore[override]
        return math.prod(self.shape) * np.dtype(self.dtype).itemsize


class CudaInterface(HardwareInterface):
    """The CUDA implementation of the shared hardware interface.

    Slot addressing within pooled allocations uses raw device-pointer
    arithmetic — the CUDA side of the paper's sub-pointer distinction.
    """

    framework_name = "CUDA"
    macros = CUDA_MACROS

    def __init__(self, device: DeviceSpec) -> None:
        if not _initialized:
            cuInit()
        super().__init__(device)
        self.ctx = cuCtxCreate(device)
        self.clock = self.ctx.clock
        self._module: Optional[CudaModule] = None
        self._functions: Dict[str, CudaFunction] = {}

    def _load_program(self, source: str, config: KernelConfig) -> None:
        self._module = self.ctx.cuModuleLoadData(source)
        self._functions = {}

    def _function(self, name: str) -> CudaFunction:
        if self._module is None:
            raise CudaError("CUDA_ERROR_NOT_FOUND", "no module loaded")
        if name not in self._functions:
            self._functions[name] = self._module.cuModuleGetFunction(name)
        return self._functions[name]

    def allocate(self, shape, dtype) -> CudaBuffer:
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        return CudaBuffer(self.ctx.cuMemAlloc(nbytes), tuple(shape), dtype)

    def allocate_pool(self, n_slots, slot_shape, dtype) -> CudaBuffer:
        dtype = np.dtype(dtype)
        shape = (n_slots,) + tuple(slot_shape)
        nbytes = math.prod(shape) * dtype.itemsize
        return CudaBuffer(self.ctx.cuMemAlloc(nbytes), shape, dtype)

    def slot(self, pool: CudaBuffer, index: int) -> CudaBuffer:
        if not 0 <= index < pool.shape[0]:
            raise CudaError(
                "CUDA_ERROR_ILLEGAL_ADDRESS",
                f"slot {index} outside pool of {pool.shape[0]}",
            )
        slot_shape = pool.shape[1:]
        stride = math.prod(slot_shape) * pool.dtype.itemsize
        # Pointer arithmetic: base + index * slot stride.
        return CudaBuffer(pool.dptr + index * stride, slot_shape, pool.dtype)

    def upload(self, handle: CudaBuffer, host: np.ndarray) -> None:
        host = np.ascontiguousarray(host, dtype=handle.dtype)
        if host.shape != handle.shape:
            raise ValueError(f"shape {host.shape} != buffer {handle.shape}")
        self.ctx.cuMemcpyHtoD(handle.dptr, host)
        self.clock.advance(self._transfer_time(handle.nbytes), label="memcpyHtoD")

    def download(self, handle: CudaBuffer) -> np.ndarray:
        out = np.empty(handle.shape, dtype=handle.dtype)
        self.ctx.cuMemcpyDtoH(out, handle.dptr)
        self.clock.advance(self._transfer_time(handle.nbytes), label="memcpyDtoH")
        return out

    def view(self, handle: CudaBuffer) -> np.ndarray:
        return self.ctx.device_view(handle.dptr, handle.shape, handle.dtype)

    def _launch_impl(self, kernel_name, args, geometry, cost) -> None:
        config = self.kernel_config
        resolved = [
            self.view(a) if isinstance(a, CudaBuffer) else a for a in args
        ]
        shared = (
            config.local_memory_bytes() if config.variant == "gpu" else 0
        )
        self.ctx.cuLaunchKernel(
            self._function(kernel_name),
            geometry,
            resolved,
            shared,
            cost,
            config.precision,
            use_fma=config.use_fma,
        )

    def memory_in_use(self) -> int:
        return self.ctx._bytes_in_use

    def finalize(self) -> None:
        self.ctx.cuCtxDestroy()
