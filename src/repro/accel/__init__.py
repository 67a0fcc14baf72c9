"""Simulated accelerator substrate: devices, frameworks, kernels, timing.

This package stands in for the CUDA driver, the OpenCL runtime, and the
physical GPUs of the paper's test systems (Tables I-II), none of which
exist in the reproduction environment.  Functional semantics are executed
for real (buffers, sub-pointers, JIT-compiled generated kernels); elapsed
time comes from a calibrated roofline model (see DESIGN.md section 2 and
EXPERIMENTS.md for the calibration).
"""

from repro.accel.device import (
    CORE_I7_930,
    DEVICE_CATALOG,
    FIREPRO_S9170,
    QUADRO_P5000,
    RADEON_R9_NANO,
    XEON_E5_2680V4_X2,
    XEON_PHI_7210,
    DeviceSpec,
    ProcessorType,
    get_device,
)
from repro.accel.autotune import (
    AutoTuner,
    TuneResult,
    TuningCache,
    apply_tuned_config,
    default_cache_path,
    device_fingerprint,
    tuning_key,
)
from repro.accel.framework import (
    BufferHandle,
    HardwareInterface,
    LaunchGeometry,
)
from repro.accel.ir import (
    REQUIRED_KERNELS,
    KernelConfig,
    KernelIR,
    ProgramIR,
    build_program_ir,
)
from repro.accel.lower import (
    CUDA_MACROS,
    OPENCL_MACROS,
    Lowering,
    LoweringError,
    MacroSet,
    compile_kernel_program,
    fit_config_for_device,
    fit_pattern_block_size,
    lowering_for,
)
from repro.accel.perfmodel import (
    FIG4_SERIAL_BASELINE_GFLOPS,
    XEON_E5_2680V4_SYSTEM,
    XEON_PHI_7210_SYSTEM,
    CPUSystemModel,
    CPUWorkload,
    KernelCost,
    SimulatedClock,
    accelerator_kernel_time,
    partials_kernel_cost,
)

__all__ = [
    "DeviceSpec",
    "ProcessorType",
    "get_device",
    "DEVICE_CATALOG",
    "QUADRO_P5000",
    "RADEON_R9_NANO",
    "FIREPRO_S9170",
    "XEON_E5_2680V4_X2",
    "XEON_PHI_7210",
    "CORE_I7_930",
    "BufferHandle",
    "HardwareInterface",
    "LaunchGeometry",
    "KernelConfig",
    "MacroSet",
    "CUDA_MACROS",
    "OPENCL_MACROS",
    "compile_kernel_program",
    "fit_pattern_block_size",
    "KernelIR",
    "ProgramIR",
    "REQUIRED_KERNELS",
    "build_program_ir",
    "Lowering",
    "LoweringError",
    "fit_config_for_device",
    "lowering_for",
    "AutoTuner",
    "TuneResult",
    "TuningCache",
    "apply_tuned_config",
    "default_cache_path",
    "device_fingerprint",
    "tuning_key",
    "KernelCost",
    "SimulatedClock",
    "accelerator_kernel_time",
    "partials_kernel_cost",
    "CPUSystemModel",
    "CPUWorkload",
    "XEON_E5_2680V4_SYSTEM",
    "XEON_PHI_7210_SYSTEM",
    "FIG4_SERIAL_BASELINE_GFLOPS",
]
