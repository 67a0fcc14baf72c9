"""Execution plans, deferred instances, and transition-matrix updates."""

import numpy as np
import pytest

from repro.core import (
    EdgeLikelihoodRequest,
    ExecutionPlan,
    MatrixUpdate,
    RootLikelihoodRequest,
)
from repro.config import backend_flags
from repro.core.api import (
    beagle_configure,
    beagle_create_instance,
    beagle_finalize_instance,
    beagle_flush,
    beagle_get_last_error_message,
    beagle_set_tip_states,
)
from repro.core.flags import OP_NONE, ReturnCode
from repro.core.instance import BeagleInstance
from repro.core.types import Operation
from repro.impl import CPUSerialImplementation
from repro.model import HKY85, SiteModel
from repro.tree import plan_traversal
from tests.conftest import make_config


def op(dest, c1, m1, c2, m2, **kw):
    return Operation(destination=dest, child1=c1, child1_matrix=m1,
                     child2=c2, child2_matrix=m2, **kw)


class TestPlanDag:
    def test_independent_ops_share_a_level(self):
        plan = ExecutionPlan()
        plan.record_operations([op(4, 0, 0, 1, 1), op(5, 2, 2, 3, 3)])
        levels = plan.levels()
        assert len(levels) == 1
        assert len(levels[0]) == 2

    def test_read_after_write_serialises(self):
        plan = ExecutionPlan()
        plan.record_operations([
            op(4, 0, 0, 1, 1),
            op(5, 2, 2, 3, 3),
            op(6, 4, 4, 5, 5),  # reads both earlier destinations
        ])
        levels = plan.operation_levels()
        assert [len(l) for l in levels] == [2, 1]
        assert levels[1][0].destination == 6

    def test_matrix_update_blocks_dependent_operation(self):
        plan = ExecutionPlan()
        plan.record_matrix_update(0, [0, 1], [0.1, 0.2])
        plan.record_operations([op(4, 0, 0, 1, 1)])
        levels = plan.levels()
        assert len(levels) == 2
        assert isinstance(levels[0][0].payload, MatrixUpdate)

    def test_write_after_read_dependency(self):
        # The second op overwrites buffer 4 which the first op reads:
        # swapping them would change what the first op observes.
        plan = ExecutionPlan()
        nodes = plan.record_operations([
            op(5, 4, 4, 1, 1),
            op(4, 2, 2, 3, 3),
        ])
        assert nodes[0] in nodes[1].deps
        assert len(plan.levels()) == 2

    def test_write_after_write_dependency(self):
        plan = ExecutionPlan()
        nodes = plan.record_operations([
            op(4, 0, 0, 1, 1),
            op(4, 2, 2, 3, 3),
        ])
        assert nodes[0] in nodes[1].deps

    def test_duplicate_targets_in_one_update_do_not_self_depend(self):
        plan = ExecutionPlan()
        update = plan.record_matrix_update(0, [0, 1, 0], [0.1, 0.2, 0.3])
        assert update not in update.deps
        assert plan.levels() == [[update]]

    def test_scale_buffer_is_a_tracked_resource(self):
        plan = ExecutionPlan()
        nodes = plan.record_operations([
            op(4, 0, 0, 1, 1, write_scale=0),
            op(5, 2, 2, 3, 3, read_scale=0),
        ])
        assert nodes[0] in nodes[1].deps

    def test_likelihood_requests_serialise_in_record_order(self):
        plan = ExecutionPlan()
        a = plan.record_root_likelihood(4)
        b = plan.record_edge_likelihood(4, 5, 5)
        assert a in b.deps
        assert plan.n_likelihood_requests == 2

    def test_counts_and_summary(self):
        plan = ExecutionPlan()
        assert plan.is_empty
        plan.record_matrix_update(0, [0], [0.1])
        plan.record_operations([op(4, 0, 0, 1, 1)])
        plan.record_root_likelihood(4)
        assert not plan.is_empty
        assert plan.n_nodes == 3
        assert plan.n_matrix_updates == 1
        assert plan.n_operations == 1
        assert "3 nodes" in plan.summary()

    def test_matrix_update_validation(self):
        with pytest.raises(ValueError, match="counts differ"):
            MatrixUpdate(0, (0, 1), (0.1,))
        with pytest.raises(ValueError, match="non-negative"):
            MatrixUpdate(0, (0,), (-0.1,))
        with pytest.raises(ValueError, match="derivative"):
            MatrixUpdate(0, (0,), (0.1,), first_derivative_indices=(1, 2))

    def test_derivative_targets_are_written_resources(self):
        plan = ExecutionPlan()
        upd = plan.record_matrix_update(
            0, [0], [0.1], first_derivative_indices=[7]
        )
        dependent = plan.record_operations([op(4, 0, 7, 1, 1)])[0]
        assert upd in dependent.deps

    def test_request_defaults(self):
        root = RootLikelihoodRequest(3)
        edge = EdgeLikelihoodRequest(3, 4, 4)
        assert root.cumulative_scale_index == OP_NONE
        assert edge.category_weights_index == 0


@pytest.fixture
def loaded_pair(small_tree, nucleotide_patterns, hky_model, gamma_sites):
    """(eager, deferred) instances loaded with the same data."""
    cfg = make_config(small_tree, nucleotide_patterns, hky_model, gamma_sites)
    out = []
    for deferred in (False, True):
        inst = BeagleInstance(cfg, deferred=deferred)
        enc = nucleotide_patterns.alignment.encode_partials()
        for t in range(small_tree.n_tips):
            inst.set_tip_partials(t, enc[t])
        inst.set_pattern_weights(nucleotide_patterns.weights)
        inst.set_category_rates(gamma_sites.rates)
        inst.set_category_weights(0, gamma_sites.weights)
        inst.set_substitution_model(0, hky_model)
        out.append(inst)
    yield tuple(out)
    for inst in out:
        inst.finalize()


class TestDeferredInstance:
    def test_deferred_records_until_likelihood(self, loaded_pair, small_tree):
        _, inst = loaded_pair
        assert inst.deferred
        plan = plan_traversal(small_tree)
        inst.update_transition_matrices(
            0, list(plan.branch_node_indices), plan.branch_lengths
        )
        inst.update_partials(plan.operations)
        assert not inst._plan.is_empty
        inst.calculate_root_log_likelihoods(plan.root_index)
        assert inst._plan.is_empty  # auto-flushed

    def test_deferred_matches_eager(self, loaded_pair, small_tree):
        eager, deferred = loaded_pair
        plan = plan_traversal(small_tree)
        for inst in (eager, deferred):
            inst.update_transition_matrices(
                0, list(plan.branch_node_indices), plan.branch_lengths
            )
            inst.update_partials(plan.operations)
        got_e = eager.calculate_root_log_likelihoods(plan.root_index)
        got_d = deferred.calculate_root_log_likelihoods(plan.root_index)
        assert got_e == got_d

    def test_getter_syncs_pending_work(self, loaded_pair, small_tree):
        eager, deferred = loaded_pair
        plan = plan_traversal(small_tree)
        for inst in (eager, deferred):
            inst.update_transition_matrices(
                0, list(plan.branch_node_indices), plan.branch_lengths
            )
            inst.update_partials(plan.operations)
        root = plan.root_index
        # get_partials must observe the flushed result, not stale zeros.
        np.testing.assert_array_equal(
            deferred.get_partials(root), eager.get_partials(root)
        )

    def test_record_time_validation(self, loaded_pair):
        _, inst = loaded_pair
        with pytest.raises(Exception):
            inst.update_transition_matrices(0, [999], [0.1])
        with pytest.raises(Exception):
            inst.update_partials([op(999, 0, 0, 1, 1)])
        # nothing broken was recorded
        assert inst._plan.is_empty

    def test_leaving_deferred_mode_flushes(self, loaded_pair, small_tree):
        eager, inst = loaded_pair
        plan = plan_traversal(small_tree)
        for i in (eager, inst):
            i.update_transition_matrices(
                0, list(plan.branch_node_indices), plan.branch_lengths
            )
            i.update_partials(plan.operations)
        inst.set_execution_mode(False)
        assert not inst.deferred
        np.testing.assert_array_equal(
            inst.impl.get_partials(plan.root_index),
            eager.impl.get_partials(plan.root_index),
        )

    def test_flush_returns_likelihoods_by_node_index(
        self, loaded_pair, small_tree
    ):
        _, inst = loaded_pair
        plan = plan_traversal(small_tree)
        inst.update_transition_matrices(
            0, list(plan.branch_node_indices), plan.branch_lengths
        )
        inst.update_partials(plan.operations)
        assert inst.flush() == {}  # no likelihood requested yet -> values only
        node = inst._plan.record_root_likelihood(plan.root_index)
        results = inst.flush()
        assert set(results) == {node.index}
        assert np.isfinite(results[node.index])


class TestMatrixCache:
    """Transition-matrix updates: every update computes its matrices from
    the current eigen system and category rates, and duplicate targets
    within one call are last-write-wins.  (The class keeps the name it
    had when it tested a memo cache, so its test ids stay stable.)"""

    def make_impl(self, small_tree, patterns, model, sites, **kw):
        cfg = make_config(small_tree, patterns, model, sites)
        return CPUSerialImplementation(cfg, **kw)

    def prime(self, impl, model, sites):
        impl.set_category_rates(sites.rates)
        e = model.eigen
        impl.set_eigen_decomposition(
            0, e.eigenvectors, e.inverse_eigenvectors, e.eigenvalues
        )

    def test_eigen_update_invalidates(
        self, small_tree, nucleotide_patterns, hky_model, gamma_sites
    ):
        impl = self.make_impl(
            small_tree, nucleotide_patterns, hky_model, gamma_sites
        )
        self.prime(impl, hky_model, gamma_sites)
        impl.update_transition_matrices(0, [0], [0.1])
        stale = impl.get_transition_matrix(0)
        other = HKY85(kappa=4.0, frequencies=[0.3, 0.2, 0.2, 0.3])
        e = other.eigen
        impl.set_eigen_decomposition(
            0, e.eigenvectors, e.inverse_eigenvectors, e.eigenvalues
        )
        impl.update_transition_matrices(0, [0], [0.1])
        fresh = self.make_impl(
            small_tree, nucleotide_patterns, other, gamma_sites
        )
        self.prime(fresh, other, gamma_sites)
        fresh.update_transition_matrices(0, [0], [0.1])
        got = impl.get_transition_matrix(0)
        assert np.array_equal(got, fresh.get_transition_matrix(0))
        assert not np.array_equal(got, stale)

    def test_category_rate_update_invalidates(
        self, small_tree, nucleotide_patterns, hky_model, gamma_sites
    ):
        impl = self.make_impl(
            small_tree, nucleotide_patterns, hky_model, gamma_sites
        )
        self.prime(impl, hky_model, gamma_sites)
        impl.update_transition_matrices(0, [0], [0.1])
        stale = impl.get_transition_matrix(0)
        impl.set_category_rates(gamma_sites.rates * 1.5)
        impl.update_transition_matrices(0, [0], [0.1])
        fresh = self.make_impl(
            small_tree, nucleotide_patterns, hky_model, gamma_sites
        )
        self.prime(fresh, hky_model, gamma_sites)
        fresh.set_category_rates(gamma_sites.rates * 1.5)
        fresh.update_transition_matrices(0, [0], [0.1])
        got = impl.get_transition_matrix(0)
        assert np.array_equal(got, fresh.get_transition_matrix(0))
        assert not np.array_equal(got, stale)

    @pytest.mark.parametrize("deferred", [False, True],
                             ids=["eager", "deferred"])
    @pytest.mark.parametrize("backend", ["cpu-serial", "cpu-sse", "cuda"],
                             ids=["cpu-serial", "cpu-sse", "cuda-sim"])
    def test_duplicate_indices_last_write_wins(
        self, backend, deferred, small_tree, nucleotide_patterns,
        hky_model, gamma_sites,
    ):
        cfg = make_config(
            small_tree, nucleotide_patterns, hky_model, gamma_sites
        )
        lengths = [0.1, 0.3, 0.2]
        got, reference = (
            BeagleInstance(cfg, deferred=d, **backend_flags(backend))
            for d in (deferred, False)
        )
        for inst, targets in ((got, [0, 1, 0]), (reference, [2, 1, 0])):
            inst.set_category_rates(gamma_sites.rates)
            inst.set_substitution_model(0, hky_model)
            inst.update_transition_matrices(0, targets, lengths)
        # Buffer 0 holds P(0.2), the later of its two writes, computed in
        # the same call shape as the reference's distinct targets.
        for index in (0, 1):
            np.testing.assert_array_equal(
                got.get_transition_matrix(index),
                reference.get_transition_matrix(index),
            )
        got.finalize()
        reference.finalize()


class TestFunctionalApi:
    def make_handle(self):
        handle, details = beagle_create_instance(
            tip_count=3, partials_buffer_count=5, compact_buffer_count=0,
            state_count=4, pattern_count=6, eigen_buffer_count=1,
            matrix_buffer_count=5,
        )
        assert handle >= 0 and details is not None
        return handle

    def test_execution_mode_and_flush(self):
        handle = self.make_handle()
        assert beagle_configure(handle, deferred=True) == int(
            ReturnCode.SUCCESS
        )
        assert beagle_flush(handle) == int(ReturnCode.SUCCESS)
        assert beagle_configure(handle, deferred=False) == int(
            ReturnCode.SUCCESS
        )
        assert beagle_finalize_instance(handle) == int(ReturnCode.SUCCESS)

    def test_configure_rejects_unknown_options_atomically(self):
        handle = self.make_handle()
        assert beagle_configure(handle, deferred=True, bogus=1) != int(
            ReturnCode.SUCCESS
        )
        message = beagle_get_last_error_message()
        assert message is not None and "bogus" in message
        # The unknown key aborted the call before any option applied.
        assert beagle_flush(handle) == int(ReturnCode.SUCCESS)
        assert beagle_configure(handle) != int(ReturnCode.SUCCESS)
        assert beagle_finalize_instance(handle) == int(ReturnCode.SUCCESS)

    def test_last_error_message_set_and_cleared(self):
        handle = self.make_handle()
        code = beagle_set_tip_states(
            handle, 99, np.zeros(6, dtype=np.int32)
        )
        assert code != int(ReturnCode.SUCCESS)
        message = beagle_get_last_error_message()
        assert message is not None and "99" in message
        assert beagle_set_tip_states(
            handle, 0, np.zeros(6, dtype=np.int32)
        ) == int(ReturnCode.SUCCESS)
        assert beagle_get_last_error_message() is None
        beagle_finalize_instance(handle)

    def test_error_on_unknown_handle(self):
        assert beagle_flush(987654) != int(ReturnCode.SUCCESS)
        assert "987654" in beagle_get_last_error_message()
