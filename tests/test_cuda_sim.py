"""Simulated CUDA driver API: contexts, memory, pointer arithmetic, launch."""

import numpy as np
import pytest

from repro.accel.cuda import (
    CudaContext,
    CudaError,
    CudaInterface,
    cuCtxCreate,
    cuDeviceGet,
    cuDeviceGetCount,
    cuInit,
)
from repro.accel.device import QUADRO_P5000, RADEON_R9_NANO, DeviceSpec, ProcessorType
from repro.accel.framework import LaunchGeometry
from repro.accel.ir import KernelConfig, build_program_ir
from repro.accel.lower import CUDA_MACROS, lowering_for
from repro.accel.perfmodel import KernelCost
from repro.util.errors import OutOfMemoryError


def _lowered(config, macros):
    """Kernel-program source for one config, lowered as build_program does."""
    return lowering_for(config, macros).lower(build_program_ir(config))


@pytest.fixture(autouse=True)
def _init():
    cuInit()


@pytest.fixture
def ctx():
    return cuCtxCreate(QUADRO_P5000)


class TestDriverBasics:
    def test_device_enumeration(self):
        assert cuDeviceGetCount() >= 1
        assert cuDeviceGet(0).vendor == "NVIDIA"

    def test_bad_ordinal(self):
        with pytest.raises(CudaError) as exc:
            cuDeviceGet(99)
        assert exc.value.status == "CUDA_ERROR_INVALID_DEVICE"

    def test_memcpy_round_trip(self, ctx):
        data = np.arange(100, dtype=np.float64)
        ptr = ctx.cuMemAlloc(data.nbytes)
        ctx.cuMemcpyHtoD(ptr, data)
        out = np.empty_like(data)
        ctx.cuMemcpyDtoH(out, ptr)
        assert np.array_equal(out, data)

    def test_pointer_arithmetic_addresses_interior(self, ctx):
        """The paper's CUDA sub-pointer strategy (section VII-A)."""
        data = np.arange(10, dtype=np.float64)
        ptr = ctx.cuMemAlloc(data.nbytes)
        ctx.cuMemcpyHtoD(ptr, data)
        tail = np.empty(4, dtype=np.float64)
        ctx.cuMemcpyDtoH(tail, ptr + 6 * 8)  # byte offset into allocation
        assert np.array_equal(tail, data[6:])

    def test_illegal_address(self, ctx):
        ptr = ctx.cuMemAlloc(64)
        with pytest.raises(CudaError) as exc:
            ctx.cuMemcpyDtoH(np.empty(100, dtype=np.float64), ptr)
        assert exc.value.status == "CUDA_ERROR_ILLEGAL_ADDRESS"

    def test_out_of_memory(self):
        tiny = DeviceSpec(
            name="tiny", vendor="NVIDIA", processor=ProcessorType.GPU,
            compute_units=16, memory_gb=1e-6, bandwidth_gbs=1.0,
            sp_gflops=1.0, dp_ratio=0.5,
        )
        ctx = CudaContext(tiny)
        with pytest.raises(OutOfMemoryError):
            ctx.cuMemAlloc(10_000_000)

    def test_free_releases_accounting(self, ctx):
        ptr = ctx.cuMemAlloc(1024)
        assert ctx._bytes_in_use == 1024
        ctx.cuMemFree(ptr)
        assert ctx._bytes_in_use == 0

    def test_device_view_aliases_device_memory_until_freed(self, ctx):
        ptr = ctx.cuMemAlloc(4 * 8)
        view = ctx.device_view(ptr, (2, 2), np.float64)
        assert ctx.device_view(ptr, (2, 2), np.float64) is view
        ctx.cuMemcpyHtoD(ptr, np.arange(4.0))
        assert np.array_equal(view, [[0.0, 1.0], [2.0, 3.0]])
        ctx.cuMemFree(ptr)
        with pytest.raises(CudaError) as exc:
            ctx.device_view(ptr, (2, 2), np.float64)
        assert exc.value.status == "CUDA_ERROR_ILLEGAL_ADDRESS"

    def test_free_bad_pointer(self, ctx):
        with pytest.raises(CudaError):
            ctx.cuMemFree(12345)

    def test_destroyed_context_unusable(self, ctx):
        ctx.cuCtxDestroy()
        with pytest.raises(CudaError) as exc:
            ctx.cuMemAlloc(64)
        assert exc.value.status == "CUDA_ERROR_CONTEXT_IS_DESTROYED"

    def test_module_load_and_missing_function(self, ctx):
        src = _lowered(KernelConfig(4), CUDA_MACROS)
        module = ctx.cuModuleLoadData(src)
        module.cuModuleGetFunction("kernelMatrixMulADB")
        with pytest.raises(CudaError) as exc:
            module.cuModuleGetFunction("kernelDoesNotExist")
        assert exc.value.status == "CUDA_ERROR_NOT_FOUND"

    def test_bad_ptx_rejected(self, ctx):
        with pytest.raises(CudaError) as exc:
            ctx.cuModuleLoadData("def broken(:\n")
        assert exc.value.status == "CUDA_ERROR_INVALID_PTX"

    def test_launch_validates_shared_memory(self, ctx):
        src = _lowered(KernelConfig(4), CUDA_MACROS)
        fn = ctx.cuModuleLoadData(src).cuModuleGetFunction(
            "kernelAccumulateFactorsScale")
        with pytest.raises(CudaError) as exc:
            ctx.cuLaunchKernel(
                fn, LaunchGeometry((16,), (16,)), [np.zeros(4), []],
                shared_mem_bytes=10**9, cost=KernelCost(1.0, 1.0),
                precision="single",
            )
        assert "shared memory" in str(exc.value)

    def test_launch_advances_clock(self, ctx):
        src = _lowered(KernelConfig(4), CUDA_MACROS)
        fn = ctx.cuModuleLoadData(src).cuModuleGetFunction(
            "kernelAccumulateFactorsScale")
        before = ctx.clock.elapsed
        ctx.cuLaunchKernel(
            fn, LaunchGeometry((16,), (16,)), [np.zeros(4), []],
            shared_mem_bytes=0, cost=KernelCost(1e6, 1e6),
            precision="single",
        )
        assert ctx.clock.elapsed > before

    def test_geometry_divisibility_enforced(self, ctx):
        src = _lowered(KernelConfig(4), CUDA_MACROS)
        fn = ctx.cuModuleLoadData(src).cuModuleGetFunction(
            "kernelAccumulateFactorsScale")
        with pytest.raises(ValueError, match="multiple"):
            ctx.cuLaunchKernel(
                fn, LaunchGeometry((17,), (16,)), [np.zeros(4), []],
                shared_mem_bytes=0, cost=KernelCost(1.0, 1.0),
                precision="single",
            )


class TestCudaInterface:
    def test_requires_nvidia(self):
        from repro.impl.accelerated import _interface_for
        from repro.util.errors import UnsupportedOperationError

        with pytest.raises(UnsupportedOperationError, match="NVIDIA"):
            _interface_for("cuda", RADEON_R9_NANO)

    def test_pool_slots_are_pointer_offsets(self):
        iface = CudaInterface(QUADRO_P5000)
        pool = iface.allocate_pool(4, (3, 2), np.float64)
        s0, s2 = iface.slot(pool, 0), iface.slot(pool, 2)
        assert s2.dptr - s0.dptr == 2 * 3 * 2 * 8
        data = np.full((3, 2), 7.0)
        iface.upload(s2, data)
        whole = iface.download(pool)
        assert np.array_equal(whole[2], data)
        assert np.all(whole[0] == 0)
        iface.finalize()

    def test_slot_out_of_range(self):
        iface = CudaInterface(QUADRO_P5000)
        pool = iface.allocate_pool(2, (4,), np.float32)
        with pytest.raises(CudaError):
            iface.slot(pool, 5)
        iface.finalize()

    def test_upload_shape_mismatch(self):
        iface = CudaInterface(QUADRO_P5000)
        buf = iface.allocate((4, 4), np.float64)
        with pytest.raises(ValueError, match="shape"):
            iface.upload(buf, np.zeros((2, 2)))
        iface.finalize()

    def test_transfers_cost_time(self):
        iface = CudaInterface(QUADRO_P5000)
        buf = iface.allocate((1000,), np.float64)
        before = iface.clock.elapsed
        iface.upload(buf, np.zeros(1000))
        assert iface.clock.elapsed > before
        iface.finalize()

    def test_memory_accounting(self):
        iface = CudaInterface(QUADRO_P5000)
        iface.allocate((1024,), np.float64)
        assert iface.memory_in_use() == 1024 * 8
        iface.finalize()
