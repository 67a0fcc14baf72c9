"""Host partials layout: the (c, p, s) boundary and in-place kernels.

Host implementations and accelerated device pools store partials
patterns-innermost, ``(c, s, p)``, and transpose only at
``set_partials``/``set_tip_partials``/``get_partials``.
The kernels in ``repro.core.compute`` take ``(c, s, p)`` arrays here.
"""

import tracemalloc

import numpy as np
import pytest

from repro.accel.device import (
    FIREPRO_S9170,
    QUADRO_P5000,
    XEON_E5_2680V4_X2,
)
from repro.config import backend_flags
from repro.core import compute
from repro.core.highlevel import TreeLikelihood
from repro.core.types import InstanceConfig, Operation
from repro.impl.accelerated import AcceleratedImplementation
from repro.impl.registry import registered_plugins
from repro.model import HKY85, SiteModel
from repro.seq import compress_patterns, simulate_alignment
from repro.tree import plan_traversal, yule_tree

DEVICES = (QUADRO_P5000, FIREPRO_S9170, XEON_E5_2680V4_X2)

#: Every registered plugin, on each catalog device it serves.
BACKENDS = [
    (plugin, device)
    for plugin in registered_plugins()
    for device in ((None,) if plugin.device_predicate is None else DEVICES)
    if plugin.serves_device(device)
]


@pytest.mark.parametrize(
    "plugin,device", BACKENDS,
    ids=[f"{p.name}-{d.name.split()[-1] if d else 'host'}"
         for p, d in BACKENDS],
)
def test_partials_round_trip_at_the_boundary(plugin, device):
    config = InstanceConfig(
        tip_count=3, partials_buffer_count=6, compact_buffer_count=0,
        state_count=4, pattern_count=7, eigen_buffer_count=1,
        matrix_buffer_count=6, category_count=2, scale_buffer_count=0,
    )
    impl = plugin.factory(config, "double", device)
    rng = np.random.default_rng(3)
    try:
        full = rng.random((2, 7, 4))
        impl.set_partials(4, full)
        assert np.array_equal(impl.get_partials(4), full)
        impl.set_tip_partials(1, full)
        assert np.array_equal(impl.get_partials(1), full)
        rows = rng.random((7, 4))
        impl.set_tip_partials(0, rows)
        assert np.array_equal(
            impl.get_partials(0), np.broadcast_to(rows, (2, 7, 4))
        )
        # The result is a C-ordered copy, not a view of the storage.
        got = impl.get_partials(4)
        assert got.flags.c_contiguous
        got[...] = 0.0
        assert np.array_equal(impl.get_partials(4), full)
    finally:
        impl.finalize()


def _scaled_tree_likelihood():
    tree = yule_tree(24, rng=5)
    model = HKY85(2.0, [0.3, 0.2, 0.2, 0.3])
    site = SiteModel.gamma(0.5, 4)
    patterns = compress_patterns(
        simulate_alignment(tree, model, 1500, site, rng=6)
    )
    return TreeLikelihood(
        tree, patterns, model, site, use_scaling=True,
        **backend_flags("cpu-sse"),
    )


def test_full_update_allocates_less_than_one_partials_buffer():
    """The cpu-sse kernels write into their destinations and the
    instance's scratch: a whole scaled post-order pass allocates less
    than one partials buffer in total."""
    with _scaled_tree_likelihood() as tl:
        tl.log_likelihood()  # warm-up
        operations = plan_traversal(tl.tree, use_scaling=True).operations
        c = tl.instance.config
        buffer_bytes = (c.category_count * c.pattern_count * c.state_count
                        * np.dtype(np.float64).itemsize)
        tracemalloc.start()
        try:
            tl.instance.update_partials(operations)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(operations) == tl.tree.n_nodes - tl.tree.n_tips
        assert peak < buffer_bytes


@pytest.mark.parametrize("framework,device", [
    ("cuda", QUADRO_P5000), ("opencl", FIREPRO_S9170),
    ("opencl", XEON_E5_2680V4_X2),
])
def test_device_backend_holds_no_host_partials_pool(framework, device):
    """Device backends keep partials only in their device pools:
    once built, an accelerated instance holds less than one partials
    buffer on the host beyond what its device allocations account for."""
    config = InstanceConfig(
        tip_count=8, partials_buffer_count=15, compact_buffer_count=0,
        state_count=4, pattern_count=4000, eigen_buffer_count=1,
        matrix_buffer_count=15, category_count=4, scale_buffer_count=0,
    )
    buffer_bytes = (config.category_count * config.pattern_count
                    * config.state_count * np.dtype(np.float64).itemsize)

    def build():
        return AcceleratedImplementation(
            config, framework=framework, device=device, autotune=False
        )

    build().finalize()  # warm-up: lazy imports and caches
    tracemalloc.start()
    try:
        impl = build()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    try:
        assert held - impl.interface.memory_in_use() < buffer_bytes
        # Uploads still round-trip without a host staging copy.
        rows = np.random.default_rng(4).random((4000, 4))
        impl.set_tip_partials(0, rows)
        assert np.array_equal(
            impl.get_partials(0), np.broadcast_to(rows, (4, 4000, 4))
        )
    finally:
        impl.finalize()


def test_operation_aliasing_a_child_is_rejected():
    """An operation whose destination is one of its children never
    reaches a kernel: it fails with a clear error when it is built."""
    with pytest.raises(ValueError, match="writes buffer 3 while reading it"):
        Operation(3, 3, 0, 1, 1)
    with pytest.raises(ValueError, match="writes buffer 3 while reading it"):
        Operation(3, 1, 0, 3, 1)


@pytest.mark.parametrize("aliased", ["first", "second", "both"])
def test_pp_kernel_may_write_over_a_child(aliased):
    """The kernels still compute correctly when ``out`` is a child."""
    rng = np.random.default_rng(11)
    model = HKY85(2.0)
    m1 = np.stack([model.transition_matrix(0.1)] * 2)
    m2 = np.stack([model.transition_matrix(0.3)] * 2)
    l1, l2 = rng.random((2, 4, 9)), rng.random((2, 4, 9))
    if aliased == "both":
        l2 = l1
    want = compute.update_partials_pp(l1, m1, l2, m2)
    out = (l2 if aliased == "second" else l1).copy()
    child1, child2 = {
        "first": (out, l2), "second": (l1, out), "both": (out, out),
    }[aliased]
    assert compute.update_partials_pp(child1, m1, child2, m2, out=out) is out
    assert np.array_equal(out, want)


def test_sp_kernel_may_write_over_its_partials_child():
    rng = np.random.default_rng(12)
    model = HKY85(2.0)
    m1 = compute.extend_matrices_for_gaps(
        np.stack([model.transition_matrix(0.1)] * 2))
    m2 = np.stack([model.transition_matrix(0.3)] * 2)
    states = rng.integers(0, 5, 9).astype(np.int32)
    l2 = rng.random((2, 4, 9))
    want = compute.update_partials_sp(states, m1, l2, m2)
    out = l2.copy()
    compute.update_partials_sp(states, m1, out, m2, out=out)
    assert np.array_equal(out, want)
