"""Dataflow verification of kernel IR (`repro.analysis.irverify`).

The nine-kernel catalog must come out clean under every variant and
backend lowering, while seeded-bad kernel bodies — the hazards the
verifier exists to catch — must each produce the expected
error-severity diagnostics: shared-memory tile races, divergent
barriers, role violations, out-of-bounds extents, and fused-dispatch
aliasing.  The lowerings refuse to emit a failing program, and the
autotuner never proposes one.
"""

import dataclasses

import pytest

from repro.accel.device import CORE_I7_930, QUADRO_P5000, XEON_E5_2680V4_X2
from repro.accel.ir import (
    Barrier,
    FusedDispatch,
    Guarded,
    InnerProduct,
    IterAxis,
    KernelConfig,
    KernelIR,
    LocalTile,
    Multiply,
    Param,
    ProgramIR,
    StateGather,
    build_program_ir,
)
from repro.accel.autotune import AutoTuner
from repro.accel.lower import (
    CUDA_MACROS,
    OPENCL_MACROS,
    LoweringError,
    fit_config_for_device,
    lowering_for,
)
from repro.analysis import Severity, verify_kernel_ir, verify_program_ir
from repro.cli import verify_main

CONFIG = KernelConfig(4)

GPU_SPACE = (
    IterAxis("pattern", None, parallel=True),
    IterAxis("state", 4, parallel=True),
    IterAxis("category", 4, parallel=False),
)
CPU_SPACE = (
    IterAxis("pattern", None, parallel=True),
    IterAxis("state", 4, parallel=False),
    IterAxis("category", 4, parallel=False),
)

PARTIALS_PARAMS = (
    Param("partials", role="in",
          extent=("category", "state", "pattern")),
    Param("matrices", role="in",
          extent=("category", "state", "state")),
    Param("dest", role="out",
          extent=("category", "state", "pattern")),
)


def _kernel(body, params=PARTIALS_PARAMS, space=GPU_SPACE, name="k_test"):
    return KernelIR(name=name, params=tuple(params), space=tuple(space),
                    body=tuple(body))


def _codes(diagnostics):
    return sorted(d.code for d in diagnostics)


def _errors(diagnostics):
    return [d for d in diagnostics if d.severity is Severity.ERROR]


class TestCatalogClean:
    @pytest.mark.parametrize("variant", ["gpu", "x86", "cpu"])
    @pytest.mark.parametrize("states", [4, 20, 61])
    def test_every_catalog_kernel_verifies(self, variant, states):
        config = KernelConfig(
            states, precision="double", variant=variant,
            use_local_memory=variant == "gpu",
        )
        program = build_program_ir(config)
        assert verify_program_ir(program) == []

    def test_cli_ir_sweep_is_clean(self, capsys):
        assert verify_main(["--ir", "--strict"]) == 0
        out = capsys.readouterr().out
        assert "kernels clean" in out


class TestLocalRace:
    def test_read_of_staged_operand_before_barrier(self):
        kernel = _kernel([
            LocalTile("tile", 32, "matrices block", stages=("matrices",)),
            InnerProduct("dest", "partials", "matrices"),
        ])
        diags = verify_kernel_ir(kernel, CONFIG)
        assert "local-race" in _codes(_errors(diags))

    def test_barrier_clears_the_hazard(self):
        kernel = _kernel([
            LocalTile("tile", 32, "matrices block", stages=("matrices",)),
            Barrier(),
            InnerProduct("dest", "partials", "matrices"),
        ])
        assert verify_kernel_ir(kernel, CONFIG) == []

    def test_duplicate_tile_staging_without_barrier(self):
        kernel = _kernel([
            LocalTile("tile", 32, "matrices block", stages=("matrices",)),
            LocalTile("tile", 32, "matrices again", stages=("matrices",)),
        ])
        diags = verify_kernel_ir(kernel, CONFIG)
        assert "local-race" in _codes(_errors(diags))

    def test_overlapping_stage_across_tiles(self):
        kernel = _kernel([
            LocalTile("tile_a", 32, "matrices", stages=("matrices",)),
            LocalTile("tile_b", 32, "matrices too", stages=("matrices",)),
        ])
        diags = verify_kernel_ir(kernel, CONFIG)
        assert "local-race" in _codes(_errors(diags))


class TestBarrierDivergence:
    def test_barrier_under_parallel_axis_guard(self):
        kernel = _kernel([
            LocalTile("tile", 32, "matrices", stages=("matrices",)),
            Guarded("state > 0", (Barrier(),)),
        ])
        errors = _errors(verify_kernel_ir(kernel, CONFIG))
        assert "barrier-divergence" in _codes(errors)

    def test_barrier_under_runtime_axis_guard(self):
        kernel = _kernel([
            LocalTile("tile", 32, "matrices", stages=("matrices",)),
            Guarded("pattern < pattern_count", (Barrier(),)),
        ], space=(
            IterAxis("pattern", None, parallel=False),
            IterAxis("state", 4, parallel=True),
        ))
        errors = _errors(verify_kernel_ir(kernel, CONFIG))
        assert "barrier-divergence" in _codes(errors)

    def test_unprovable_guard_is_a_warning(self):
        kernel = _kernel([
            LocalTile("tile", 32, "matrices", stages=("matrices",)),
            Guarded("mystery_flag", (Barrier(),)),
        ], space=(IterAxis("state", 4, parallel=True),))
        diags = verify_kernel_ir(kernel, CONFIG)
        assert _errors(diags) == []
        assert any(
            d.code == "barrier-divergence"
            and d.severity is Severity.WARNING
            for d in diags
        )

    def test_scalar_guard_is_uniform(self):
        kernel = _kernel([
            LocalTile("tile", 32, "matrices", stages=("matrices",)),
            Guarded("do_rescale", (Barrier(),)),
        ], params=PARTIALS_PARAMS + (
            Param("do_rescale", kind="scalar"),
        ))
        assert verify_kernel_ir(kernel, CONFIG) == []


class TestRolesAndExtents:
    def test_read_before_write_of_out_param(self):
        kernel = _kernel([
            Multiply("x", "dest", "partials"),
        ], space=CPU_SPACE)
        diags = verify_kernel_ir(kernel, CONFIG)
        assert "read-before-write" in _codes(_errors(diags))

    def test_write_then_read_is_fine(self):
        kernel = _kernel([
            InnerProduct("dest", "partials", "matrices"),
            Multiply("x", "dest", "partials"),
        ], space=CPU_SPACE)
        assert verify_kernel_ir(kernel, CONFIG) == []

    def test_write_to_input_param(self):
        kernel = _kernel([
            InnerProduct("partials", "partials", "matrices"),
        ], space=CPU_SPACE)
        diags = verify_kernel_ir(kernel, CONFIG)
        assert "write-to-input" in _codes(_errors(diags))

    def test_state_gather_needs_extended_matrices(self):
        # The gather indexes the gap column at STATE_COUNT: declaring the
        # matrices only "state" wide is an out-of-bounds read.
        kernel = _kernel([
            StateGather("dest", "states", "matrices"),
        ], params=(
            Param("states", kind="states", extent=("pattern",)),
            Param("matrices", role="in",
                  extent=("category", "state", "state")),
            Param("dest", role="out",
                  extent=("category", "state", "pattern")),
        ), space=CPU_SPACE)
        diags = verify_kernel_ir(kernel, CONFIG)
        assert "param-oob" in _codes(_errors(diags))

    def test_state_gather_accepts_extended_matrices(self):
        kernel = _kernel([
            StateGather("dest", "states", "matrices_ext"),
        ], params=(
            Param("states", kind="states", extent=("pattern",)),
            Param("matrices_ext", role="in",
                  extent=("category", "state", "state+1")),
            Param("dest", role="out",
                  extent=("category", "state", "pattern")),
        ), space=CPU_SPACE)
        assert verify_kernel_ir(kernel, CONFIG) == []

    def test_rank_mismatch_is_oob(self):
        kernel = _kernel([
            InnerProduct("dest", "partials", "matrices"),
        ], params=(
            Param("partials", role="in", extent=("state", "pattern")),
            Param("matrices", role="in",
                  extent=("category", "state", "state")),
            Param("dest", role="out",
                  extent=("category", "state", "pattern")),
        ), space=CPU_SPACE)
        diags = verify_kernel_ir(kernel, CONFIG)
        assert "param-oob" in _codes(_errors(diags))


class TestFusedAliasing:
    def test_dispatch_mixed_with_direct_statements(self):
        kernel = _kernel([
            FusedDispatch("batch"),
            InnerProduct("dest", "partials", "matrices"),
        ], params=PARTIALS_PARAMS + (Param("batch", kind="batch"),),
           space=CPU_SPACE)
        diags = verify_kernel_ir(kernel, CONFIG)
        assert "fused-aliasing" in _codes(_errors(diags))

    def test_double_dispatch(self):
        kernel = _kernel([
            FusedDispatch("batch"),
            FusedDispatch("batch"),
        ], params=(Param("batch", kind="batch"),), space=CPU_SPACE)
        diags = verify_kernel_ir(kernel, CONFIG)
        assert "fused-aliasing" in _codes(_errors(diags))

    def test_dispatch_operand_must_be_batch_kind(self):
        kernel = _kernel([
            FusedDispatch("matrices"),
        ], params=(Param("matrices", role="in"),), space=CPU_SPACE)
        diags = verify_kernel_ir(kernel, CONFIG)
        assert "fused-aliasing" in _codes(_errors(diags))

    def test_lone_dispatch_is_fine(self):
        kernel = _kernel([
            FusedDispatch("batch"),
        ], params=(Param("batch", kind="batch"),), space=CPU_SPACE)
        assert verify_kernel_ir(kernel, CONFIG) == []


class TestLoweringGate:
    def _bad_program(self):
        # Strip the barriers from a real catalog kernel: structurally
        # valid (so ProgramIR.validate passes), but every staged tile
        # is now read while its copy is in flight.
        program = build_program_ir(KernelConfig(4, variant="gpu"))
        kernels = []
        for kernel in program.kernels:
            if kernel.name == "kernelPartialsPartialsNoScale":
                body = tuple(
                    s for s in kernel.body if not isinstance(s, Barrier)
                )
                kernel = dataclasses.replace(kernel, body=body)
            kernels.append(kernel)
        return ProgramIR(config=program.config, kernels=tuple(kernels))

    @pytest.mark.parametrize("macros", [CUDA_MACROS, OPENCL_MACROS])
    def test_lowering_refuses_racy_program(self, macros):
        program = self._bad_program()
        lowering = lowering_for(program.config, macros)
        with pytest.raises(LoweringError, match="IR verification failed"):
            lowering.lower(program)

    def test_lowering_error_names_the_hazard(self):
        program = self._bad_program()
        lowering = lowering_for(program.config, CUDA_MACROS)
        with pytest.raises(LoweringError, match="local-race"):
            lowering.lower(program)


class TestAutotunePruning:
    @pytest.mark.parametrize("device,variant", [
        (QUADRO_P5000, "gpu"),
        (XEON_E5_2680V4_X2, "x86"),
        (CORE_I7_930, "x86"),
    ])
    def test_candidates_are_ir_clean(self, device, variant):
        tuner = AutoTuner(device)
        baseline = fit_config_for_device(
            KernelConfig(4, precision="double"), device, variant=variant,
        )
        pool = tuner.candidates(baseline)
        assert pool, "candidate pool must not be emptied by the verifier"
        for cand in pool:
            assert verify_program_ir(build_program_ir(cand)) == []
