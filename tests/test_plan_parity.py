"""Deferred execution must be bit-identical to eager on every backend.

The plan layer promises that deferral only changes *when* and *how
concurrently* recorded work runs — never the arithmetic.  These tests
drive the same workload through an eager and a deferred instance on each
registered implementation and demand exact equality of the root
log-likelihood, every internal partials buffer, the per-site values, and
(where enabled) the scale factors.
"""

import numpy as np
import pytest

from repro.accel.device import (
    FIREPRO_S9170,
    QUADRO_P5000,
    RADEON_R9_NANO,
    XEON_E5_2680V4_X2,
)
from repro.core.instance import BeagleInstance
from repro.core.types import InstanceConfig, InstanceDetails
from repro.impl import (
    AcceleratedImplementation,
    CPUSerialImplementation,
    CPUSSEImplementation,
    CPUThreadPoolImplementation,
)
from repro.model import HKY85, SiteModel
from repro.seq import compress_patterns, simulate_alignment
from repro.tree import plan_traversal, yule_tree

CPU_BACKENDS = [
    (CPUSerialImplementation, {}),
    (CPUSSEImplementation, {}),
    (CPUThreadPoolImplementation, {"thread_count": 3}),
]

DEVICE_MATRIX = [
    ("cuda", QUADRO_P5000),
    ("opencl", QUADRO_P5000),
    ("opencl", RADEON_R9_NANO),
    ("opencl", FIREPRO_S9170),
    ("opencl", XEON_E5_2680V4_X2),
]


@pytest.fixture(scope="module")
def workload():
    """Large enough (>512 patterns) that threaded paths actually engage."""
    tree = yule_tree(10, rng=77)
    model = HKY85(kappa=2.0, frequencies=[0.3, 0.2, 0.2, 0.3])
    sites = SiteModel.gamma(0.5, 4)
    aln = simulate_alignment(tree, model, 900, sites, rng=78)
    return tree, compress_patterns(aln), model, sites


def build_config(tree, patterns, model, sites, use_scaling):
    return InstanceConfig(
        tip_count=tree.n_tips,
        partials_buffer_count=tree.n_nodes,
        compact_buffer_count=0,
        state_count=model.n_states,
        pattern_count=patterns.n_patterns,
        eigen_buffer_count=1,
        matrix_buffer_count=tree.n_nodes,
        category_count=sites.n_categories,
        scale_buffer_count=(tree.n_internal + 1) if use_scaling else 0,
    )


class _DirectManager:
    """Resource manager stub that hands out one specific backend."""

    def __init__(self, factory):
        self.factory = factory

    def create_implementation(
        self, config, precision, preference_flags, requirement_flags,
        resource_ids, **kwargs,
    ):
        impl = self.factory(config, precision)
        details = InstanceDetails(
            resource_id=0,
            resource_name="direct",
            implementation_name=impl.name,
            flags=impl.flags,
        )
        return impl, details


class _Harness:
    """Drives one backend twice (eager, deferred) and compares state."""

    def __init__(self, workload, factory, use_scaling=False):
        self.tree, self.patterns, self.model, self.sites = workload
        self.use_scaling = use_scaling
        self.config = build_config(
            self.tree, self.patterns, self.model, self.sites, use_scaling
        )
        self.factory = factory

    def make(self, deferred):
        inst = BeagleInstance(
            self.config, deferred=deferred,
            manager=_DirectManager(self.factory),
        )
        enc = self.patterns.alignment.encode_partials()
        for t in range(self.tree.n_tips):
            inst.set_tip_partials(t, enc[t])
        inst.set_pattern_weights(self.patterns.weights)
        inst.set_category_rates(self.sites.rates)
        inst.set_category_weights(0, self.sites.weights)
        inst.set_substitution_model(0, self.model)
        return inst

    def evaluate(self, inst):
        plan = plan_traversal(self.tree, use_scaling=self.use_scaling)
        inst.update_transition_matrices(
            0, list(plan.branch_node_indices), plan.branch_lengths
        )
        inst.update_partials(plan.operations)
        cum = self.tree.n_internal if self.use_scaling else -1
        if self.use_scaling:
            inst.reset_scale_factors(cum)
            inst.accumulate_scale_factors(
                list(range(self.tree.n_internal)), cum
            )
            return inst.calculate_root_log_likelihoods(
                plan.root_index, 0, 0, cum
            )
        return inst.calculate_root_log_likelihoods(plan.root_index)

    def assert_parity(self):
        eager, deferred = self.make(False), self.make(True)
        try:
            got_e = self.evaluate(eager)
            got_d = self.evaluate(deferred)
            assert got_e == got_d, "root log-likelihood drifted"
            np.testing.assert_array_equal(
                eager.get_site_log_likelihoods(),
                deferred.get_site_log_likelihoods(),
            )
            for node in range(self.tree.n_tips, self.tree.n_nodes):
                np.testing.assert_array_equal(
                    eager.get_partials(node), deferred.get_partials(node)
                )
            if self.use_scaling:
                for s in range(self.tree.n_internal + 1):
                    np.testing.assert_array_equal(
                        eager.impl.get_scale_factors(s),
                        deferred.impl.get_scale_factors(s),
                    )
        finally:
            eager.finalize()
            deferred.finalize()


@pytest.mark.parametrize(
    "cls,kwargs", CPU_BACKENDS, ids=[c.name for c, _ in CPU_BACKENDS]
)
class TestCpuParity:
    def test_plain(self, cls, kwargs, workload):
        _Harness(
            workload, lambda cfg, prec: cls(cfg, prec, **kwargs)
        ).assert_parity()

    def test_with_scaling(self, cls, kwargs, workload):
        _Harness(
            workload, lambda cfg, prec: cls(cfg, prec, **kwargs),
            use_scaling=True,
        ).assert_parity()


@pytest.mark.parametrize(
    "framework,device", DEVICE_MATRIX,
    ids=[f"{f}-{d.name.split()[-1]}" for f, d in DEVICE_MATRIX],
)
class TestAcceleratedParity:
    def test_plain(self, framework, device, workload):
        _Harness(
            workload,
            lambda cfg, prec: AcceleratedImplementation(
                cfg, prec, framework=framework, device=device
            ),
        ).assert_parity()

    def test_batched_level_launches_fewer_kernels(
        self, framework, device, workload
    ):
        harness = _Harness(
            workload,
            lambda cfg, prec: AcceleratedImplementation(
                cfg, prec, framework=framework, device=device
            ),
        )
        eager, deferred = harness.make(False), harness.make(True)
        try:
            harness.evaluate(eager)
            harness.evaluate(deferred)
            eager_launches = eager.impl.kernel_launch_count
            deferred_launches = deferred.impl.kernel_launch_count
            assert deferred_launches < eager_launches
        finally:
            eager.finalize()
            deferred.finalize()
