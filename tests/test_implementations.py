"""CPU implementations: semantics, validation, and cross-agreement."""

import sys
import threading

import numpy as np
import pytest

from repro.core.flags import OP_NONE, Flag
from repro.core.types import InstanceConfig, Operation
from repro.impl import (
    CPUSerialImplementation,
    CPUSSEImplementation,
    CPUThreadPoolImplementation,
)
from repro.impl.cpu_sse import MIN_PATTERNS_FOR_THREADING, pattern_slices
from repro.model import GY94, HKY85, SiteModel
from repro.seq import (
    compress_patterns,
    simulate_alignment,
    synthetic_pattern_set,
)
from repro.tree import plan_traversal, yule_tree
from repro.util.errors import (
    BeagleError,
    InvalidIndexError,
    UnsupportedOperationError,
)
from tests.conftest import drive_instance, make_config

CPU_CLASSES = [
    CPUSerialImplementation,
    CPUSSEImplementation,
    CPUThreadPoolImplementation,
]


def small_config(**kw):
    defaults = dict(
        tip_count=4,
        partials_buffer_count=7,
        compact_buffer_count=0,
        state_count=4,
        pattern_count=10,
        eigen_buffer_count=1,
        matrix_buffer_count=7,
        category_count=2,
        scale_buffer_count=4,
    )
    defaults.update(kw)
    return InstanceConfig(**defaults)


class TestValidation:
    @pytest.fixture
    def impl(self):
        return CPUSSEImplementation(small_config())

    def test_bad_precision(self):
        with pytest.raises(ValueError, match="precision"):
            CPUSSEImplementation(small_config(), "quad")

    def test_tip_states_shape(self, impl):
        with pytest.raises(ValueError, match="shape"):
            impl.set_tip_states(0, np.zeros(5, dtype=np.int32))

    def test_tip_states_range(self, impl):
        with pytest.raises(ValueError, match="state codes"):
            impl.set_tip_states(0, np.full(10, 9, dtype=np.int32))

    def test_tip_index_range(self, impl):
        with pytest.raises(InvalidIndexError):
            impl.set_tip_states(4, np.zeros(10, dtype=np.int32))

    def test_partials_buffer_range(self, impl):
        with pytest.raises(InvalidIndexError):
            impl.set_partials(7, np.zeros((2, 10, 4)))

    def test_get_partials_from_compact_rejected(self, impl):
        impl.set_tip_states(0, np.zeros(10, dtype=np.int32))
        with pytest.raises(UnsupportedOperationError, match="compact"):
            impl.get_partials(0)

    def test_eigen_shape(self, impl):
        with pytest.raises(ValueError, match="\\(s, s\\)"):
            impl.set_eigen_decomposition(
                0, np.eye(3), np.eye(3), np.zeros(3)
            )

    def test_category_rates_length(self, impl):
        with pytest.raises(ValueError, match="category rates"):
            impl.set_category_rates([1.0, 2.0, 3.0])

    def test_category_weights_distribution(self, impl):
        with pytest.raises(ValueError, match="distribution"):
            impl.set_category_weights(0, [0.7, 0.7])

    def test_frequencies_distribution(self, impl):
        with pytest.raises(ValueError):
            impl.set_state_frequencies(0, [0.5, 0.5, 0.5, 0.5])

    def test_pattern_weights_negative(self, impl):
        w = np.ones(10)
        w[3] = -1
        with pytest.raises(ValueError, match="non-negative"):
            impl.set_pattern_weights(w)

    def test_matrices_need_eigen_first(self, impl):
        with pytest.raises(BeagleError, match="never set"):
            impl.update_transition_matrices(0, [0], [0.1])

    def test_matrix_branch_count_mismatch(self, impl):
        m = HKY85(2.0)
        e = m.eigen
        impl.set_eigen_decomposition(
            0, e.eigenvectors, e.inverse_eigenvectors, e.eigenvalues
        )
        with pytest.raises(ValueError, match="counts differ"):
            impl.update_transition_matrices(0, [0, 1], [0.1])

    def test_negative_branch_rejected(self, impl):
        m = HKY85(2.0)
        e = m.eigen
        impl.set_eigen_decomposition(
            0, e.eigenvectors, e.inverse_eigenvectors, e.eigenvalues
        )
        with pytest.raises(ValueError, match="non-negative"):
            impl.update_transition_matrices(0, [0], [-0.1])

    def test_operation_writing_compact_tip_rejected(self, impl):
        impl.set_tip_states(0, np.zeros(10, dtype=np.int32))
        op = Operation(destination=0, child1=1, child1_matrix=1,
                       child2=2, child2_matrix=2)
        with pytest.raises(UnsupportedOperationError):
            impl.update_partials([op])

    def test_operation_self_reference_rejected(self):
        with pytest.raises(ValueError, match="reading it"):
            Operation(destination=1, child1=1, child1_matrix=1,
                      child2=2, child2_matrix=2)

    def test_scale_index_validated(self, impl):
        op = Operation(destination=4, child1=0, child1_matrix=0,
                       child2=1, child2_matrix=1, write_scale=99)
        with pytest.raises(InvalidIndexError):
            impl.update_partials([op])

    def test_cumulative_cannot_accumulate_itself(self, impl):
        with pytest.raises(ValueError, match="cumulative"):
            impl.accumulate_scale_factors([0, 1], 1)

    def test_site_logliks_before_any_calculation(self, impl):
        with pytest.raises(BeagleError, match="no likelihood"):
            impl.get_site_log_likelihoods()

    def test_root_on_compact_rejected(self, impl):
        impl.set_tip_states(0, np.zeros(10, dtype=np.int32))
        with pytest.raises(UnsupportedOperationError):
            impl.calculate_root_log_likelihoods(0)

    def test_direct_transition_matrix_roundtrip(self, impl):
        m = HKY85(2.0).transition_matrix(0.2)
        impl.set_transition_matrix(3, m)
        got = impl.get_transition_matrix(3)
        assert got.shape == (2, 4, 4)
        assert np.allclose(got[0], m, atol=1e-6)


@pytest.mark.parametrize("cls", CPU_CLASSES, ids=lambda c: c.name)
class TestCrossAgreement:
    def test_nucleotide_all_partials(
        self, cls, small_tree, nucleotide_patterns, hky_model, gamma_sites
    ):
        cfg = make_config(small_tree, nucleotide_patterns, hky_model, gamma_sites)
        ref_impl = CPUSSEImplementation(cfg)
        ref = drive_instance(
            ref_impl, small_tree, nucleotide_patterns, hky_model, gamma_sites
        )
        impl = cls(cfg)
        got = drive_instance(
            impl, small_tree, nucleotide_patterns, hky_model, gamma_sites
        )
        impl.finalize()
        ref_impl.finalize()
        assert np.isclose(got, ref, rtol=1e-12)

    def test_nucleotide_mixed_tip_kinds(
        self, cls, small_tree, nucleotide_patterns, hky_model, gamma_sites
    ):
        cfg = make_config(small_tree, nucleotide_patterns, hky_model, gamma_sites)
        ref_impl = CPUSerialImplementation(cfg)
        ref = drive_instance(
            ref_impl, small_tree, nucleotide_patterns, hky_model, gamma_sites,
            compact_tips=(0, 2, 4),
        )
        impl = cls(cfg)
        got = drive_instance(
            impl, small_tree, nucleotide_patterns, hky_model, gamma_sites,
            compact_tips=(0, 2, 4),
        )
        impl.finalize()
        ref_impl.finalize()
        assert np.isclose(got, ref, rtol=1e-12)

    def test_codon(self, cls, small_tree, codon_patterns):
        model = GY94(2.0, 0.3)
        sm = SiteModel.uniform()
        cfg = make_config(small_tree, codon_patterns, model, sm)
        ref_impl = CPUSSEImplementation(cfg)
        ref = drive_instance(ref_impl, small_tree, codon_patterns, model, sm)
        impl = cls(cfg)
        got = drive_instance(impl, small_tree, codon_patterns, model, sm)
        impl.finalize()
        ref_impl.finalize()
        assert np.isclose(got, ref, rtol=1e-12)

    def test_single_precision_close_to_double(
        self, cls, small_tree, nucleotide_patterns, hky_model, gamma_sites
    ):
        cfg = make_config(small_tree, nucleotide_patterns, hky_model, gamma_sites)
        dbl = cls(cfg, "double")
        ref = drive_instance(
            dbl, small_tree, nucleotide_patterns, hky_model, gamma_sites
        )
        dbl.finalize()
        sgl = cls(cfg, "single")
        got = drive_instance(
            sgl, small_tree, nucleotide_patterns, hky_model, gamma_sites
        )
        sgl.finalize()
        assert np.isclose(got, ref, rtol=1e-4)


class TestThreadingSpecifics:
    def test_pool_reused_across_calls(self, small_tree, nucleotide_patterns,
                                      hky_model, gamma_sites):
        cfg = make_config(small_tree, nucleotide_patterns, hky_model, gamma_sites)
        impl = CPUThreadPoolImplementation(cfg, thread_count=3)
        drive_instance(
            impl, small_tree, nucleotide_patterns, hky_model, gamma_sites
        )
        pool_a = impl._pool
        drive_instance(
            impl, small_tree, nucleotide_patterns, hky_model, gamma_sites
        )
        assert impl._pool is pool_a
        impl.finalize()
        assert impl._pool is None

    def test_small_problem_falls_back_to_serial(self):
        """Below the 512-pattern minimum the pool is bypassed: no task,
        no wave.  At the minimum one wave runs one task per slice."""
        assert MIN_PATTERNS_FOR_THREADING == 512
        tree = yule_tree(6, rng=59)
        plan = plan_traversal(tree)
        for n_patterns, waves in ((511, 0), (512, 1)):
            ps = synthetic_pattern_set(tree.n_tips, n_patterns, 4, rng=60)
            cfg = make_config(tree, ps, HKY85(2.0), SiteModel.uniform())
            impl = CPUThreadPoolImplementation(cfg, thread_count=2)
            tracer, metrics = impl.instrument()
            for t in range(tree.n_tips):
                impl.set_tip_states(t, ps.tip_states[t])
            impl.update_partials(plan.operations)
            impl.finalize()
            assert metrics.counter("threadpool.tasks").value == waves * len(
                pattern_slices(n_patterns, impl.thread_count)
            ), n_patterns
            assert tracer.count(kind="wave") == waves, n_patterns

    @pytest.fixture(scope="class")
    def scaled_workload(self):
        """Over 512 patterns, deep enough that single-precision dynamic
        scaling rescales some patterns but not all."""
        tree = yule_tree(24, rng=55)
        model = HKY85(2.0)
        sm = SiteModel.gamma(0.5, 4)
        aln = simulate_alignment(tree, model, 900, sm, rng=56)
        return tree, compress_patterns(aln), model, sm

    @staticmethod
    def run_scaled(workload, cls, precision, scaling_mode, deferred, **kw):
        """One scaled traversal + root; returns (total, site logLs, factors).

        Even tips are compact state codes, so the states-states,
        states-partials and partials-partials kernels all run.
        """
        from repro.core.plan import ExecutionPlan

        tree, ps, model, sm = workload
        cfg = make_config(tree, ps, model, sm, scale_buffers=tree.n_internal + 1)
        plan = plan_traversal(tree, use_scaling=True)
        impl = cls(cfg, precision, scaling_mode=scaling_mode, **kw)
        states = ps.alignment.encode_states()
        partials = ps.alignment.encode_partials()
        for t in range(tree.n_tips):
            if t % 2 == 0:
                impl.set_tip_states(t, states[t])
            else:
                impl.set_tip_partials(t, partials[t])
        impl.set_pattern_weights(ps.weights)
        impl.set_category_rates(sm.rates)
        impl.set_category_weights(0, sm.weights)
        impl.set_state_frequencies(0, model.frequencies)
        e = model.eigen
        impl.set_eigen_decomposition(
            0, e.eigenvectors, e.inverse_eigenvectors, e.eigenvalues
        )
        if deferred:
            recorded = ExecutionPlan()
            recorded.record_matrix_update(
                0, list(plan.branch_node_indices), list(plan.branch_lengths)
            )
            recorded.record_operations(plan.operations)
            impl.execute_plan(recorded)
        else:
            impl.update_transition_matrices(
                0, list(plan.branch_node_indices), plan.branch_lengths
            )
            impl.update_partials(plan.operations)
        cum = tree.n_internal
        impl.reset_scale_factors(cum)
        impl.accumulate_scale_factors(list(range(tree.n_internal)), cum)
        total = impl.calculate_root_log_likelihoods(plan.root_index, 0, 0, cum)
        result = (total, impl.get_site_log_likelihoods(),
                  impl.get_scale_factors(cum))
        impl.finalize()
        return result

    def test_threaded_scaling_path(self, scaled_workload):
        """Scaled traversals on the thread-pool backend match cpu-sse
        exactly, eager and deferred, in both scaling modes: rescaling is
        per pattern, so slicing never changes it.  Three workers and a
        short switch interval make slice tasks interleave, so a write
        outside a task's own slice would show as a mismatch."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            self._check_threaded_scaling_path(scaled_workload)
        finally:
            sys.setswitchinterval(interval)

    def _check_threaded_scaling_path(self, scaled_workload):
        for precision in ("double", "single"):
            for scaling_mode in ("always", "dynamic"):
                for deferred in (False, True):
                    ref = self.run_scaled(
                        scaled_workload, CPUSSEImplementation, precision,
                        scaling_mode, deferred,
                    )
                    # Double-precision dynamic scaling never fires on this
                    # tree; the other settings rescale (dynamic: only some
                    # patterns).
                    factors = ref[2]
                    if scaling_mode == "always" or precision == "single":
                        assert np.any(factors != 0.0)
                    if scaling_mode == "dynamic":
                        assert np.any(factors == 0.0)
                    assert np.isfinite(ref[0])
                    case = (precision, scaling_mode, deferred)
                    got = self.run_scaled(
                        scaled_workload, CPUThreadPoolImplementation,
                        precision, scaling_mode, deferred, thread_count=3,
                    )
                    assert got[0] == ref[0], case
                    assert np.array_equal(got[1], ref[1]), case
                    assert np.array_equal(got[2], ref[2]), case

    @pytest.mark.parametrize("cls, counter", [
        (CPUThreadPoolImplementation, "threadpool.tasks"),
    ])
    def test_scaled_traversal_is_one_wave(self, scaled_workload, cls,
                                          counter):
        """One eager scaled update_partials runs one task per pattern
        slice, not one per (operation, slice) pair."""
        tree, ps, model, sm = scaled_workload
        cfg = make_config(tree, ps, model, sm, scale_buffers=tree.n_internal + 1)
        impl = cls(cfg, thread_count=2)
        tracer, metrics = impl.instrument()
        plan = plan_traversal(tree, use_scaling=True)
        impl.update_partials(plan.operations)
        impl.finalize()
        assert len(plan.operations) > 1
        assert metrics.counter(counter).value == len(
            pattern_slices(cfg.pattern_count, 2)
        )
        assert tracer.count(kind="wave") == 1

    def test_worker_exception_propagates(self):
        """A slice task's error surfaces from update_partials, after
        every task has joined; finalize then shuts the pool down."""
        tree = yule_tree(6, rng=57)
        ps = synthetic_pattern_set(tree.n_tips, 600, 4, rng=58)
        cfg = make_config(tree, ps, HKY85(2.0), SiteModel.uniform())
        threads_before = set(threading.enumerate())
        impl = CPUThreadPoolImplementation(cfg, thread_count=2)
        assert len(impl._slices()) == 2
        # A missing matrix store fails inside every slice task.
        impl._matrices = None
        plan = plan_traversal(tree)
        with pytest.raises(TypeError):
            impl.update_partials(plan.operations)
        assert impl._pool is not None
        impl.finalize()
        assert impl._pool is None
        assert not [
            t for t in set(threading.enumerate()) - threads_before
            if t.name.startswith("beagle-pool")
        ]

    def test_pattern_slices_cover_everything(self):
        slices = pattern_slices(1000, 7)
        covered = []
        for sl in slices:
            covered.extend(range(sl.start, sl.stop))
        assert covered == list(range(1000))

    def test_pattern_slices_more_chunks_than_patterns(self):
        slices = pattern_slices(3, 8)
        assert len(slices) == 3
