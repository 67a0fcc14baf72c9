"""Kernel IR structure, per-backend lowering, and cross-backend parity.

The IR/lowering split (``repro.accel.ir`` + ``repro.accel.lower*``)
replaces the old direct macro-substitution templating.  These tests pin
its contracts:

* the program IR is structurally valid and content-addressed;
* every lowering emits a compilable kernel program carrying its
  framework's keywords and launch decoration;
* all four backend paths — CUDA-gpu, OpenCL-gpu, OpenCL-x86, and the
  new cpu-vector lowering — produce *bit-identical* double-precision
  log-likelihoods on a shared fixture;
* :func:`repro.accel.lower.fit_config_for_device` is the one shared
  clamp policy (the former cuda/opencl duplicate).
"""

import numpy as np
import pytest

from repro.accel.device import (
    CORE_I7_930,
    QUADRO_P5000,
    RADEON_R9_NANO,
    XEON_E5_2680V4_X2,
)
from repro.accel.ir import (
    Barrier,
    InnerProduct,
    IRError,
    IterAxis,
    KernelConfig,
    KernelIR,
    LocalTile,
    Param,
    REQUIRED_KERNELS,
    build_program_ir,
)
from repro.accel.lower import (
    CUDA_MACROS,
    OPENCL_MACROS,
    LoweringError,
    compile_kernel_program,
    fit_config_for_device,
    lowering_for,
)
from repro.accel.lower_cpu import CPUVectorLowering
from repro.accel.lower_cuda import CudaLowering
from repro.accel.lower_opencl import OpenCLLowering
from repro.config import backend_flags
from repro.core.instance import BeagleInstance
from repro.core.types import InstanceConfig
from repro.model import GY94, HKY85, SiteModel
from repro.seq import synthetic_pattern_set
from repro.session import Session
from repro.tree import yule_tree


def _lowered(config, macros):
    """Kernel-program source for one config, lowered as build_program does."""
    return lowering_for(config, macros).lower(build_program_ir(config))


class TestProgramIR:
    def test_program_has_all_required_kernels(self):
        program = build_program_ir(KernelConfig(4))
        assert set(REQUIRED_KERNELS) <= set(program.kernel_names)
        program.validate()  # does not raise

    def test_signature_is_stable_and_config_sensitive(self):
        a = build_program_ir(KernelConfig(4)).signature()
        b = build_program_ir(KernelConfig(4)).signature()
        assert a == b
        assert a != build_program_ir(KernelConfig(61)).signature()
        assert a != build_program_ir(
            KernelConfig(4, variant="x86")
        ).signature()

    def test_gpu_variant_stages_local_tiles(self):
        program = build_program_ir(KernelConfig(4, variant="gpu"))
        kernel = program.kernel("kernelPartialsPartialsNoScale")
        tiles = [s for s in kernel.body if isinstance(s, LocalTile)]
        s, p = 4, program.config.pattern_block_size
        assert sum(t.reals for t in tiles) == 2 * s * s + 2 * s * p

    def test_x86_variant_has_no_tiles_and_loops_states(self):
        program = build_program_ir(KernelConfig(4, variant="x86"))
        kernel = program.kernel("kernelPartialsPartialsNoScale")
        assert not any(isinstance(s, LocalTile) for s in kernel.body)
        state_axis = [a for a in kernel.space if a.name == "state"]
        assert state_axis and not state_axis[0].parallel

    def test_tile_rejected_outside_gpu_local_builds(self):
        kernel = KernelIR(
            name="k",
            params=(Param("dest"), Param("partials1"),
                    Param("matrices1")),
            space=(IterAxis("pattern"),),
            body=(LocalTile("tile", 32, "matrices"), Barrier(),
                  InnerProduct("dest", "partials1", "matrices1")),
        )
        with pytest.raises(IRError, match="local tile"):
            kernel.validate(KernelConfig(4, variant="x86"))

    def test_barrier_without_tile_rejected(self):
        kernel = KernelIR(
            name="k", params=(Param("dest"),),
            space=(IterAxis("pattern"),), body=(Barrier(),),
        )
        with pytest.raises(IRError, match="barrier"):
            kernel.validate(KernelConfig(4))

    def test_fma_annotation_must_match_config(self):
        kernel = KernelIR(
            name="k",
            params=(Param("dest"), Param("partials1"),
                    Param("matrices1")),
            space=(IterAxis("pattern"),),
            body=(InnerProduct("dest", "partials1", "matrices1",
                               fma=True),),
        )
        with pytest.raises(IRError, match="FMA"):
            kernel.validate(KernelConfig(4, use_fma=False))

    def test_undefined_operand_rejected(self):
        kernel = KernelIR(
            name="k", params=(Param("dest"),),
            space=(IterAxis("pattern"),),
            body=(InnerProduct("dest", "ghost", "also_ghost"),),
        )
        with pytest.raises(IRError, match="undefined operand"):
            kernel.validate(KernelConfig(4))


class TestLoweringSelection:
    def test_framework_picks_its_pass(self):
        assert isinstance(
            lowering_for(KernelConfig(4), CUDA_MACROS), CudaLowering
        )
        assert isinstance(
            lowering_for(KernelConfig(4), OPENCL_MACROS), OpenCLLowering
        )
        assert isinstance(
            lowering_for(KernelConfig(4, variant="cpu"), OPENCL_MACROS),
            CPUVectorLowering,
        )

    def test_variant_restrictions(self):
        with pytest.raises(LoweringError):
            CudaLowering(KernelConfig(4, variant="cpu"), CUDA_MACROS)
        with pytest.raises(LoweringError):
            CPUVectorLowering(KernelConfig(4), OPENCL_MACROS)


class TestLoweredSource:
    def test_cuda_header_carries_framework_keywords(self):
        src = _lowered(KernelConfig(4), CUDA_MACROS)
        assert "__global__" in src
        assert "__shared__" in src
        assert "__syncthreads()" in src
        assert "# lowering           : cuda" in src
        assert "__launch_bounds__" in src

    def test_opencl_header_carries_framework_keywords(self):
        src = _lowered(KernelConfig(4), OPENCL_MACROS)
        assert "__kernel" in src
        assert "barrier(CLK_LOCAL_MEM_FENCE)" in src
        assert "# lowering           : opencl" in src
        assert "reqd_work_group_size" in src

    def test_source_embeds_ir_signature(self):
        config = KernelConfig(4)
        signature = build_program_ir(config).signature()
        for macros in (CUDA_MACROS, OPENCL_MACROS):
            assert signature in _lowered(config, macros)

    def test_every_lowering_compiles_all_kernels(self):
        configs = [
            (KernelConfig(4, variant="gpu"), CUDA_MACROS),
            (KernelConfig(4, variant="gpu"), OPENCL_MACROS),
            (KernelConfig(4, variant="x86"), OPENCL_MACROS),
            (KernelConfig(4, variant="cpu"), OPENCL_MACROS),
        ]
        for config, macros in configs:
            kernels = compile_kernel_program(
                _lowered(config, macros)
            )
            assert set(REQUIRED_KERNELS) <= set(kernels)

    def test_shared_variant_lowers_identically_across_backends(self):
        # Bit-identity contract: between the CUDA and OpenCL lowerings
        # of the same gpu-variant config, only comments and expanded
        # framework keywords may differ — never a numeric statement.
        config = KernelConfig(4, variant="gpu")

        def normalize(macros):
            src = _lowered(config, macros)
            src = "\n".join(
                line for line in src.splitlines()
                if not line.lstrip().startswith("#")
            )
            for keyword in (
                macros.kw_thread_fence, macros.kw_global_kernel,
                macros.kw_device_mem, macros.kw_local_mem,
            ):
                src = src.replace(keyword, "<KW>")
            return src

        assert normalize(CUDA_MACROS) == normalize(OPENCL_MACROS)


class TestFitConfigForDevice:
    def test_nvidia_keeps_local_staging_for_nucleotides(self):
        fitted = fit_config_for_device(KernelConfig(4), QUADRO_P5000)
        assert fitted.use_local_memory
        assert fitted.pattern_block_size >= 1

    def test_amd_codon_block_halved_until_it_fits(self):
        fitted = fit_config_for_device(
            KernelConfig(61, precision="single"), RADEON_R9_NANO
        )
        # 256-work-item cap: block * 61 <= 256 -> block collapses.
        assert fitted.pattern_block_size * 61 <= 256
        assert fitted.local_memory_bytes() <= 32 * 1024 \
            or not fitted.use_local_memory

    def test_fma_gated_on_hardware(self):
        fitted = fit_config_for_device(
            KernelConfig(4, use_fma=True), CORE_I7_930, variant="x86"
        )
        assert not fitted.use_fma

    def test_workgroup_patterns_clamped(self):
        fitted = fit_config_for_device(
            KernelConfig(4, variant="x86", workgroup_patterns=65536),
            XEON_E5_2680V4_X2,
        )
        assert fitted.workgroup_patterns \
            == XEON_E5_2680V4_X2.max_workgroup_size

    def test_non_gpu_variant_never_stages_local_memory(self):
        for variant in ("x86", "cpu"):
            fitted = fit_config_for_device(
                KernelConfig(4), XEON_E5_2680V4_X2, variant=variant
            )
            assert fitted.variant == variant
            assert not fitted.use_local_memory


class TestCrossBackendParity:
    #: The four lowering paths the refactor must keep bit-identical.
    BACKENDS = ("cuda", "opencl-gpu", "opencl-x86", "cpu-vector")

    def test_all_lowerings_bit_identical_double(self):
        tips = 12
        tree = yule_tree(tips, rng=21)
        model = HKY85(kappa=2.0, frequencies=[0.3, 0.2, 0.2, 0.3])
        sites = SiteModel.gamma(0.5, 4)
        data = synthetic_pattern_set(tips, 500, 4, rng=22)
        values = {}
        for backend in self.BACKENDS:
            with Session(
                data, tree, model, sites,
                backend=backend, precision="double",
            ) as s:
                values[backend] = s.log_likelihood()
        reference = values["cuda"]
        assert np.isfinite(reference)
        for backend, value in values.items():
            assert value == reference, (
                f"{backend} diverges: {value!r} != {reference!r}"
            )

    def test_cpu_vector_backend_reports_its_name(self):
        tree = yule_tree(6, rng=3)
        data = synthetic_pattern_set(6, 40, 4, rng=4)
        with Session(
            data, tree, HKY85(kappa=2.0), backend="cpu-vector"
        ) as s:
            impl = s.instance.impl
            assert impl.interface.kernel_config.variant == "cpu"
            assert "CPU-vector" in impl._backend_name()


class TestHostArrayForms:
    """Lowered kernels emit ``repro.core.compute``'s array forms."""

    @pytest.mark.parametrize("precision", ["single", "double"])
    @pytest.mark.parametrize("states", [4, 20, 61])
    @pytest.mark.parametrize("lowering, variant, macros", [
        (CudaLowering, "gpu", CUDA_MACROS),
        (CudaLowering, "x86", CUDA_MACROS),
        (OpenCLLowering, "gpu", OPENCL_MACROS),
        (OpenCLLowering, "x86", OPENCL_MACROS),
        (CPUVectorLowering, "cpu", CUDA_MACROS),
        (CPUVectorLowering, "cpu", OPENCL_MACROS),
    ], ids=["cuda-gpu", "cuda-x86", "opencl-gpu", "opencl-x86",
            "cpu-cuda", "cpu-opencl"])
    def test_no_lowered_program_uses_einsum(
        self, lowering, variant, macros, states, precision
    ):
        config = KernelConfig(states, precision=precision, variant=variant)
        src = lowering(config, macros).lower(build_program_ir(config))
        assert "einsum" not in src

    @pytest.mark.parametrize("model, sites", [
        (HKY85(kappa=2.0, frequencies=[0.3, 0.2, 0.2, 0.3]),
         SiteModel.gamma(0.5, 4)),
        (GY94(kappa=2.0, omega=0.5), SiteModel.gamma(0.5, 2)),
    ], ids=["hky-g4", "gy94"])
    def test_transition_matrices_bit_equal_to_host(self, model, sites):
        lengths = [0.0, 1e-6, 0.05, 0.3, 1.0, 7.5, 1e3]
        config = InstanceConfig(
            tip_count=2, partials_buffer_count=3, compact_buffer_count=0,
            state_count=model.n_states, pattern_count=4,
            eigen_buffer_count=1, matrix_buffer_count=len(lengths),
            category_count=sites.n_categories,
        )
        matrices = {}
        for backend in ("cpu-sse", "cuda"):
            inst = BeagleInstance(config, **backend_flags(backend))
            inst.set_category_rates(sites.rates)
            inst.set_substitution_model(0, model)
            inst.update_transition_matrices(
                0, list(range(len(lengths))), lengths
            )
            matrices[backend] = [
                inst.get_transition_matrix(i) for i in range(len(lengths))
            ]
            inst.finalize()
        for i, length in enumerate(lengths):
            assert np.array_equal(
                matrices["cuda"][i], matrices["cpu-sse"][i]
            ), f"branch length {length}: cuda-sim differs from cpu-sse"
