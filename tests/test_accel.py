"""Accelerator substrate: devices, perf model, kernel generation."""

import numpy as np
import pytest

from repro.accel import (
    CUDA_MACROS,
    DEVICE_CATALOG,
    FIG4_SERIAL_BASELINE_GFLOPS,
    OPENCL_MACROS,
    QUADRO_P5000,
    RADEON_R9_NANO,
    XEON_E5_2680V4_SYSTEM,
    XEON_PHI_7210_SYSTEM,
    CPUWorkload,
    KernelConfig,
    SimulatedClock,
    accelerator_kernel_time,
    build_program_ir,
    compile_kernel_program,
    fit_pattern_block_size,
    get_device,
    lowering_for,
    partials_kernel_cost,
)
from repro.accel.device import ProcessorType


def _lowered(config, macros):
    """Kernel-program source for one config, lowered as build_program does."""
    return lowering_for(config, macros).lower(build_program_ir(config))


class TestDeviceCatalog:
    def test_paper_devices_present(self):
        for name in (
            "NVIDIA Quadro P5000",
            "AMD Radeon R9 Nano",
            "AMD FirePro S9170",
            "Intel Xeon E5-2680v4 x2",
            "Intel Xeon Phi 7210",
            "Intel Core i7-930",
        ):
            assert name in DEVICE_CATALOG

    def test_table2_specifications(self):
        """Published Table II numbers must match verbatim."""
        p5000 = get_device("P5000")
        assert (p5000.compute_units, p5000.memory_gb,
                p5000.bandwidth_gbs, p5000.sp_gflops) == (2560, 16, 288, 8900)
        nano = get_device("R9 Nano")
        assert (nano.compute_units, nano.memory_gb,
                nano.bandwidth_gbs, nano.sp_gflops) == (4096, 4, 512, 8192)
        s9170 = get_device("S9170")
        assert (s9170.compute_units, s9170.memory_gb,
                s9170.bandwidth_gbs, s9170.sp_gflops) == (2816, 32, 320, 5240)

    def test_amd_less_local_memory_than_nvidia(self):
        # The section VII-B.1 premise.
        assert get_device("R9 Nano").local_mem_kb < get_device("P5000").local_mem_kb

    def test_substring_lookup(self):
        assert get_device("phi").name == "Intel Xeon Phi 7210"

    def test_ambiguous_lookup(self):
        with pytest.raises(KeyError, match="ambiguous"):
            get_device("AMD")

    def test_unknown_lookup(self):
        with pytest.raises(KeyError, match="no device"):
            get_device("Voodoo2")

    def test_fission_scales_compute_not_bandwidth(self):
        xeon = get_device("E5-2680v4")
        sub = xeon.with_compute_units(14)
        assert sub.sp_gflops == pytest.approx(xeon.sp_gflops / 4)
        assert sub.bandwidth_gbs == xeon.bandwidth_gbs

    def test_fission_bounds(self):
        with pytest.raises(ValueError):
            get_device("P5000").with_compute_units(0)
        with pytest.raises(ValueError):
            get_device("P5000").with_compute_units(99999)

    def test_dp_peak(self):
        nano = get_device("R9 Nano")
        assert nano.peak_gflops("double") == pytest.approx(8192 / 16)


class TestSimulatedClock:
    def test_accumulates(self):
        clock = SimulatedClock()
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.elapsed == 2.0 and clock.events == 2

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            SimulatedClock().advance(-1.0)

    def test_reset(self):
        clock = SimulatedClock()
        clock.advance(1.0)
        clock.reset()
        assert clock.elapsed == 0.0 and clock.events == 0


class TestRooflineModel:
    def test_time_positive_and_monotone_in_work(self):
        prev = 0.0
        for patterns in (100, 1000, 10_000, 100_000):
            cost = partials_kernel_cost(patterns, 4, 4, 4)
            t = accelerator_kernel_time(RADEON_R9_NANO, cost, "single")
            assert t > prev
            prev = t

    def test_throughput_rises_with_patterns(self):
        """Fig. 4's occupancy ramp: larger launches are more efficient."""
        rates = []
        for patterns in (100, 1000, 10_000, 100_000):
            cost = partials_kernel_cost(patterns, 4, 4, 4)
            t = accelerator_kernel_time(RADEON_R9_NANO, cost, "single")
            rates.append(cost.flops / t)
        assert rates == sorted(rates)

    def test_codon_less_pattern_sensitive_than_nucleotide(self):
        """Paper section VIII-A.2."""

        def efficiency(states):
            small = partials_kernel_cost(100, states, 4, 4)
            large = partials_kernel_cost(50_000, states, 4, 4)
            r_small = small.flops / accelerator_kernel_time(
                RADEON_R9_NANO, small, "single")
            r_large = large.flops / accelerator_kernel_time(
                RADEON_R9_NANO, large, "single")
            return r_small / r_large

        assert efficiency(61) > 5 * efficiency(4)

    def test_fma_helps_double_more_than_single(self):
        """Table IV's central contrast."""

        def gain(precision):
            itemsize = 4 if precision == "single" else 8
            cost = partials_kernel_cost(10_000, 4, 4, itemsize)
            t0 = accelerator_kernel_time(
                RADEON_R9_NANO, cost, precision, use_fma=False)
            t1 = accelerator_kernel_time(
                RADEON_R9_NANO, cost, precision, use_fma=True)
            return t0 / t1 - 1.0

        assert gain("double") > 3 * gain("single") > 0

    def test_compute_penalty_slows(self):
        cost = partials_kernel_cost(10_000, 4, 4, 4)
        fast = accelerator_kernel_time(QUADRO_P5000, cost, "single")
        slow = accelerator_kernel_time(
            QUADRO_P5000, cost, "single", compute_penalty=4.0)
        assert slow > fast

    def test_empty_launch_costs_overhead_only(self):
        from repro.accel.perfmodel import KernelCost

        t = accelerator_kernel_time(
            QUADRO_P5000, KernelCost(flops=0, bytes_moved=0), "single")
        assert t == QUADRO_P5000.launch_overhead_s


class TestCPUSystemModel:
    def test_table3_ordering_holds_everywhere(self):
        for tips in (8, 16, 64, 128):
            w = CPUWorkload(tips, 10_000)
            serial = XEON_E5_2680V4_SYSTEM.throughput("serial", w)
            pool = XEON_E5_2680V4_SYSTEM.throughput("thread-pool", w)
            futures = XEON_E5_2680V4_SYSTEM.throughput("futures", w)
            assert pool > futures > serial

    def test_small_problems_not_slower_than_serial(self):
        """The 512-pattern threading minimum guarantee (section VI-B)."""
        w = CPUWorkload(16, 200)
        serial = XEON_E5_2680V4_SYSTEM.serial_time(w)
        pool = XEON_E5_2680V4_SYSTEM.thread_pool_time(w)
        assert pool == pytest.approx(serial)

    def test_scaling_saturates(self):
        """Fig. 5: adding threads beyond the knee yields nothing."""
        w = CPUWorkload(16, 10_000)
        r28 = XEON_E5_2680V4_SYSTEM.throughput(
            "thread-pool", w, n_threads=28)
        r56 = XEON_E5_2680V4_SYSTEM.throughput(
            "thread-pool", w, n_threads=56)
        r4 = XEON_E5_2680V4_SYSTEM.throughput("thread-pool", w, n_threads=4)
        assert r56 <= r28 * 1.05
        assert r28 > 1.5 * r4

    def test_workgroup_sweep_peaks_at_or_after_256(self):
        """Table V shape: 64 and 128 clearly below the plateau."""
        w = CPUWorkload(16, 10_000)
        values = {
            wg: XEON_E5_2680V4_SYSTEM.throughput(
                "opencl-x86", w, workgroup_patterns=wg)
            for wg in (64, 128, 256, 512, 1024)
        }
        assert values[256] > values[128] > values[64]
        assert values[256] > 0.9 * max(values.values())

    def test_gpu_variant_on_cpu_much_slower(self):
        """Table V row 1: the GPU kernel is ~5-6x slower on the CPU."""
        w = CPUWorkload(16, 10_000)
        x86 = XEON_E5_2680V4_SYSTEM.throughput(
            "opencl-x86", w, workgroup_patterns=64)
        gpu = XEON_E5_2680V4_SYSTEM.throughput(
            "opencl-x86", w, workgroup_patterns=64, kernel_variant="gpu")
        assert 3.5 < x86 / gpu < 8.0

    def test_unknown_design_rejected(self):
        with pytest.raises(ValueError, match="unknown design"):
            XEON_E5_2680V4_SYSTEM.throughput("magic", CPUWorkload(8, 1000))

    def test_invalid_workgroup(self):
        with pytest.raises(ValueError, match="work-group"):
            XEON_E5_2680V4_SYSTEM.opencl_x86_time(
                CPUWorkload(8, 1000), workgroup_patterns=0)

    def test_invalid_variant(self):
        with pytest.raises(ValueError, match="variant"):
            XEON_E5_2680V4_SYSTEM.opencl_x86_time(
                CPUWorkload(8, 1000), kernel_variant="fpga")

    def test_phi_weaker_than_xeon(self):
        """Fig. 4/6: 'relatively modest performance from the Xeon Phi'."""
        w = CPUWorkload(16, 10_000)
        assert XEON_PHI_7210_SYSTEM.throughput(
            "thread-pool", w
        ) < XEON_E5_2680V4_SYSTEM.throughput("thread-pool", w)

    def test_codon_threads_weaker_than_x86(self):
        """Paper section VIII-A.2 / Fig. 6 codon contrast."""
        w = CPUWorkload(15, 6080, state_count=61, category_count=1)
        threads = XEON_E5_2680V4_SYSTEM.throughput("thread-pool", w)
        x86 = XEON_E5_2680V4_SYSTEM.throughput("opencl-x86", w)
        assert 1.5 < x86 / threads < 3.0

    def test_fig4_baseline_constants(self):
        assert FIG4_SERIAL_BASELINE_GFLOPS[4] == pytest.approx(7.67)
        assert FIG4_SERIAL_BASELINE_GFLOPS[61] == pytest.approx(5.23)

    def test_workload_accounting(self):
        w = CPUWorkload(16, 1000, state_count=4, category_count=4)
        assert w.n_operations == 15
        assert w.flops_per_op == 1000 * 4 * 68
        assert w.total_flops == 15 * 1000 * 4 * 68
        assert w.itemsize == 4
        assert CPUWorkload(16, 10, precision="double").itemsize == 8


class TestKernelGeneration:
    def test_macro_substitution_differs_by_framework(self):
        config = KernelConfig(state_count=4, precision="single")
        cuda_src = _lowered(config, CUDA_MACROS)
        opencl_src = _lowered(config, OPENCL_MACROS)
        assert "__global__" in cuda_src and "__global__" not in opencl_src
        assert "__kernel" in opencl_src
        assert "pointer-arithmetic" in cuda_src
        assert "sub-buffer" in opencl_src

    def test_shared_template_same_kernel_names(self):
        config = KernelConfig(state_count=4)
        a = compile_kernel_program(_lowered(config, CUDA_MACROS))
        b = compile_kernel_program(
            _lowered(config, OPENCL_MACROS))
        assert set(a) == set(b)
        assert "kernelPartialsPartialsNoScale" in a

    def test_specialisation_by_state_count(self):
        src4 = _lowered(KernelConfig(4), CUDA_MACROS)
        src61 = _lowered(KernelConfig(61), CUDA_MACROS)
        assert "STATE_COUNT = 4" in src4
        assert "STATE_COUNT = 61" in src61

    def test_specialisation_by_precision(self):
        sp = _lowered(
            KernelConfig(4, precision="single"), CUDA_MACROS)
        dp = _lowered(
            KernelConfig(4, precision="double"), CUDA_MACROS)
        assert "float32" in sp and "float64" in dp

    def test_variants_have_different_inner_products(self):
        def inner_product(variant):
            source = _lowered(
                KernelConfig(4, variant=variant), OPENCL_MACROS)
            start = source.index("def _inner_product_child(")
            return source[start:source.index("\n\n\ndef ", start)]

        gpu, x86 = inner_product("gpu"), inner_product("x86")
        assert "np.matmul" in gpu and "for j in range" not in gpu
        assert "np.matmul" not in x86
        assert "for j in range(STATE_COUNT):" in x86
        assert "loops over the state space" in x86

    def test_compiled_kernels_compute_correctly(self):
        """The generated artefact must compute the same as the reference."""
        from repro.core import compute
        from repro.model import HKY85

        rng = np.random.default_rng(8)
        model = HKY85(2.0)
        l1, l2 = rng.random((2, 5, 4)), rng.random((2, 5, 4))
        mats = np.stack([model.transition_matrix(0.1)] * 2)
        # Kernels take the host's (c, s, p) layout.
        l1, l2 = l1.swapaxes(1, 2), l2.swapaxes(1, 2)
        want = compute.update_partials_pp(l1, mats, l2, mats)
        for macros in (CUDA_MACROS, OPENCL_MACROS):
            for variant in ("gpu", "x86"):
                config = KernelConfig(4, variant=variant)
                kernels = compile_kernel_program(
                    _lowered(config, macros))
                out = np.empty_like(want)
                kernels["kernelPartialsPartialsNoScale"](
                    out, l1, mats, l2, mats, None)
                assert np.allclose(out, want, atol=1e-6)

    def test_local_memory_accounting(self):
        cfg = KernelConfig(61, precision="single", pattern_block_size=16)
        # 2 * 61^2 + 2 * 61 * 16 floats
        assert cfg.local_memory_bytes() == (2 * 61 * 61 + 2 * 61 * 16) * 4

    def test_amd_codon_block_smaller_than_nvidia(self):
        """Section VII-B.1: AMD's 32KB forces a smaller codon block."""
        amd = fit_pattern_block_size(61, "single", 32.0, preferred=16)
        nvidia = fit_pattern_block_size(61, "single", 48.0, preferred=16)
        assert amd < nvidia

    def test_nucleotide_blocks_unconstrained(self):
        assert fit_pattern_block_size(4, "single", 32.0, preferred=16) == 16

    def test_double_precision_tightens_blocks(self):
        sp = fit_pattern_block_size(61, "single", 48.0, preferred=16)
        dp = fit_pattern_block_size(61, "double", 48.0, preferred=16)
        assert dp <= sp

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            KernelConfig(state_count=1)
        with pytest.raises(ValueError):
            KernelConfig(state_count=4, precision="half")
        with pytest.raises(ValueError):
            KernelConfig(state_count=4, variant="tpu")

    def test_bad_program_rejected(self):
        with pytest.raises(ValueError, match="KERNELS"):
            compile_kernel_program("x = 1\n")
