"""Simulated OpenCL: ICD loader, sub-buffers, fission, program pipeline."""

import numpy as np
import pytest

from repro.accel.device import (
    QUADRO_P5000,
    RADEON_R9_NANO,
    XEON_E5_2680V4_X2,
    ProcessorType,
)
from repro.accel.framework import LaunchGeometry
from repro.accel.ir import KernelConfig, build_program_ir
from repro.accel.opencl import (
    CLCommandQueue,
    CLContext,
    CLError,
    CLPlatform,
    OpenCLInterface,
    clCreateBuffer,
    clCreateKernel,
    clCreateProgramWithSource,
    clCreateSubBuffer,
    clCreateSubDevices,
    clGetDeviceIDs,
    clGetPlatformIDs,
    install_default_platforms,
    register_icd,
    reset_icd,
)
from repro.accel.lower import OPENCL_MACROS, lowering_for
from repro.accel.perfmodel import KernelCost
from repro.util.errors import OutOfMemoryError


@pytest.fixture(autouse=True)
def _platforms():
    install_default_platforms()
    yield
    install_default_platforms()


class TestICDLoader:
    def test_default_vendor_platforms(self):
        """The Table I driver population: AMD, NVIDIA, Intel."""
        vendors = {p.vendor for p in clGetPlatformIDs()}
        assert any("Micro Devices" in v for v in vendors)
        assert any("NVIDIA" in v for v in vendors)
        assert any("Intel" in v for v in vendors)

    def test_device_filtering_by_type(self):
        amd = next(
            p for p in clGetPlatformIDs() if "Micro Devices" in p.vendor
        )
        gpus = clGetDeviceIDs(amd, ProcessorType.GPU)
        assert all(d.processor == ProcessorType.GPU for d in gpus)

    def test_no_matching_devices(self):
        amd = next(
            p for p in clGetPlatformIDs() if "Micro Devices" in p.vendor
        )
        with pytest.raises(CLError) as exc:
            clGetDeviceIDs(amd, ProcessorType.CPU)
        assert exc.value.status == "CL_DEVICE_NOT_FOUND"

    def test_custom_driver_registration(self):
        """Multiple drivers for the same hardware (section VII-B.3)."""
        register_icd(CLPlatform(
            name="Portable Computing Language",
            vendor="pocl",
            version="OpenCL 1.2 pocl",
            devices=(XEON_E5_2680V4_X2,),
        ))
        platforms = clGetPlatformIDs()
        serving_xeon = [
            p for p in platforms
            if any(d.name == XEON_E5_2680V4_X2.name for d in p.devices)
        ]
        assert len(serving_xeon) == 2  # Intel driver + pocl

    def test_fission(self):
        sub = clCreateSubDevices(XEON_E5_2680V4_X2, 14)
        assert sub.compute_units == 14
        assert "14cu" in sub.name

    def test_fission_invalid(self):
        with pytest.raises(CLError) as exc:
            clCreateSubDevices(XEON_E5_2680V4_X2, 100)
        assert exc.value.status == "CL_INVALID_DEVICE_PARTITION_COUNT"


class TestBuffers:
    def test_write_read_round_trip(self):
        ctx = CLContext(RADEON_R9_NANO)
        queue = CLCommandQueue(ctx)
        mem = clCreateBuffer(ctx, (4, 5), np.float64)
        data = np.arange(20, dtype=np.float64).reshape(4, 5)
        queue.enqueueWriteBuffer(mem, data)
        assert np.array_equal(queue.enqueueReadBuffer(mem), data)

    def test_sub_buffer_views_parent(self):
        """clCreateSubBuffer is the OpenCL sub-pointer path (VII-A)."""
        ctx = CLContext(RADEON_R9_NANO)
        queue = CLCommandQueue(ctx)
        pool = clCreateBuffer(ctx, (3, 4), np.float64)
        sub = clCreateSubBuffer(pool, 4, (4,))
        queue.enqueueWriteBuffer(sub, np.full(4, 9.0))
        whole = queue.enqueueReadBuffer(pool)
        assert np.all(whole[1] == 9.0)
        assert np.all(whole[0] == 0.0) and np.all(whole[2] == 0.0)

    def test_sub_buffer_of_sub_buffer_rejected(self):
        ctx = CLContext(RADEON_R9_NANO)
        pool = clCreateBuffer(ctx, (8,), np.float64)
        sub = clCreateSubBuffer(pool, 0, (4,))
        with pytest.raises(CLError) as exc:
            clCreateSubBuffer(sub, 0, (2,))
        assert exc.value.status == "CL_INVALID_MEM_OBJECT"

    def test_sub_buffer_bounds(self):
        ctx = CLContext(RADEON_R9_NANO)
        pool = clCreateBuffer(ctx, (8,), np.float64)
        with pytest.raises(CLError) as exc:
            clCreateSubBuffer(pool, 6, (4,))
        assert exc.value.status == "CL_INVALID_VALUE"

    def test_out_of_memory(self):
        ctx = CLContext(RADEON_R9_NANO)  # 4 GB device
        with pytest.raises(OutOfMemoryError):
            clCreateBuffer(ctx, (10**10,), np.float64)

    def test_released_context_rejects_buffers(self):
        ctx = CLContext(RADEON_R9_NANO)
        ctx.release()
        with pytest.raises(CLError) as exc:
            clCreateBuffer(ctx, (8,), np.float64)
        assert exc.value.status == "CL_INVALID_CONTEXT"


class TestProgramPipeline:
    def _program(self, ctx, **cfg):
        config = KernelConfig(state_count=4, **cfg)
        src = lowering_for(config, OPENCL_MACROS).lower(
            build_program_ir(config)
        )
        return clCreateProgramWithSource(ctx, src)

    def test_kernel_before_build_rejected(self):
        ctx = CLContext(RADEON_R9_NANO)
        program = self._program(ctx)
        with pytest.raises(CLError) as exc:
            clCreateKernel(program, "kernelMatrixMulADB")
        assert exc.value.status == "CL_INVALID_PROGRAM_EXECUTABLE"

    def test_build_then_create_kernel(self):
        ctx = CLContext(RADEON_R9_NANO)
        program = self._program(ctx)
        program.build("-D FP_FAST_FMAF")
        assert program.build_options == "-D FP_FAST_FMAF"
        kernel = clCreateKernel(program, "kernelPartialsPartialsNoScale")
        assert kernel.name == "kernelPartialsPartialsNoScale"

    def test_unknown_kernel_name(self):
        ctx = CLContext(RADEON_R9_NANO)
        program = self._program(ctx)
        program.build()
        with pytest.raises(CLError) as exc:
            clCreateKernel(program, "kernelNope")
        assert exc.value.status == "CL_INVALID_KERNEL_NAME"

    def test_build_failure(self):
        ctx = CLContext(RADEON_R9_NANO)
        program = clCreateProgramWithSource(ctx, "def broken(:\n")
        with pytest.raises(CLError) as exc:
            program.build()
        assert exc.value.status == "CL_BUILD_PROGRAM_FAILURE"

    def test_enqueue_advances_clock(self):
        ctx = CLContext(RADEON_R9_NANO)
        queue = CLCommandQueue(ctx)
        program = self._program(ctx)
        program.build()
        kernel = clCreateKernel(program, "kernelAccumulateFactorsScale")
        cumulative = clCreateBuffer(ctx, (8,), np.float64)
        before = queue.clock.elapsed
        queue.enqueueNDRangeKernel(
            kernel, LaunchGeometry((8,), (8,)),
            [cumulative, []], KernelCost(1e6, 1e6), "single",
        )
        assert queue.clock.elapsed > before

    def test_opencl_enqueue_costs_more_than_cuda_launch(self):
        """Fig. 4: OpenCL's greater execution overhead at small sizes."""
        from repro.accel.cuda import CudaInterface
        from repro.accel.opencl import OpenCLInterface

        cost = KernelCost(flops=1e4, bytes_moved=1e4)
        cfg = KernelConfig(state_count=4, precision="single")

        cuda = CudaInterface(QUADRO_P5000)
        cuda.build_program(cfg)
        ocl = OpenCLInterface(QUADRO_P5000)
        ocl.build_program(cfg)
        geom = LaunchGeometry((8,), (8,))
        cuda.launch("kernelAccumulateFactorsScale",
                    [np.zeros(8), []], geom, cost)
        ocl.launch("kernelAccumulateFactorsScale",
                   [np.zeros(8), []], geom, cost)
        assert ocl.clock.elapsed > cuda.clock.elapsed
        cuda.finalize()
        ocl.finalize()


class TestOpenCLInterface:
    def test_variant_selected_by_processor(self):
        gpu = OpenCLInterface(RADEON_R9_NANO)
        gpu.build_program(KernelConfig(4))
        assert gpu.kernel_config.variant == "gpu"
        cpu = OpenCLInterface(XEON_E5_2680V4_X2)
        cpu.build_program(KernelConfig(4))
        assert cpu.kernel_config.variant == "x86"
        gpu.finalize()
        cpu.finalize()

    def test_fma_build_options(self):
        iface = OpenCLInterface(RADEON_R9_NANO)
        iface.build_program(KernelConfig(4, precision="single", use_fma=True))
        assert "FP_FAST_FMAF" in iface._program.build_options
        iface.build_program(KernelConfig(4, precision="double", use_fma=True))
        assert iface._program.build_options == "-D FP_FAST_FMA"
        iface.finalize()

    def test_codon_block_reduced_on_amd(self):
        """The section VII-B.1 accommodation happens automatically."""
        amd = OpenCLInterface(RADEON_R9_NANO)
        amd.build_program(KernelConfig(61, precision="single"))
        nvidia = OpenCLInterface(QUADRO_P5000)
        nvidia.build_program(KernelConfig(61, precision="single"))
        assert (
            amd.kernel_config.pattern_block_size
            < nvidia.kernel_config.pattern_block_size
        )
        amd.finalize()
        nvidia.finalize()

    def test_pool_slots_via_sub_buffers(self):
        iface = OpenCLInterface(RADEON_R9_NANO)
        pool = iface.allocate_pool(3, (2, 2), np.float32)
        slot = iface.slot(pool, 1)
        assert slot.parent is pool
        iface.upload(slot, np.ones((2, 2), dtype=np.float32))
        whole = iface.download(pool)
        assert np.all(whole[1] == 1.0) and np.all(whole[0] == 0.0)
        iface.finalize()
