"""Exact cross-backend parity on the shared ``(c, s, p)`` partials layout.

Device partials pools use the host's ``(category, state, pattern)``
layout and the lowered ``gpu`` and ``cpu`` kernels run the host's array
forms, so cuda-sim and cpu-vector give cpu-sse's bits: compared with
``np.array_equal``, not a tolerance.  Under rescaling (always and
dynamic, eager and deferred) the thread pool joins that set, and the
scale exponents agree too.  The second half pins the
one-operation-per-node pre-order pass of :mod:`repro.core.upper` to the
two-operation ``tmp``/``W`` list it replaced.
"""

import numpy as np
import pytest

from repro.config import backend_flags
from repro.core.highlevel import TreeLikelihood
from repro.core.instance import BeagleInstance
from repro.core.types import InstanceConfig, Operation
from repro.model import GY94, HKY85, SiteModel
from repro.seq import compress_patterns, simulate_alignment
from repro.tree import balanced_tree, yule_tree

DEVICE_BACKENDS = ("cuda", "cpu-vector")


def _hky_data(n_tips=9, n_sites=300):
    tree = yule_tree(n_tips, rng=510)
    model = HKY85(2.5, [0.3, 0.2, 0.2, 0.3])
    site = SiteModel.gamma(0.5, 4)
    aln = simulate_alignment(tree, model, n_sites, site, rng=511)
    # Gaps and ambiguity codes: the gather's all-ones column for
    # compact tips, partial ambiguity for dense ones.
    for row, col, code in ((0, 0, "-"), (1, 5, "N"), (2, 9, "R"),
                           (3, 9, "Y"), (4, 17, "-"), (4, 18, "?")):
        aln.rows[row][col] = code
    return tree, compress_patterns(aln), model, site


def _codon_data():
    tree = yule_tree(6, rng=512)
    model = GY94(2.0, 0.3)
    aln = simulate_alignment(tree, model, 40, rng=513)
    aln.rows[0][0] = "---"
    aln.rows[1][3] = "---"
    return tree, compress_patterns(aln), model, None


CASES = {"hky-gamma4": _hky_data, "gy94": _codon_data}


def _evaluate(backend, tree, data, model, site, use_tip_states):
    with TreeLikelihood(
        tree.copy(), data, model, site, enable_upper_partials=True,
        use_tip_states=use_tip_states, **backend_flags(backend),
    ) as tl:
        logl = tl.log_likelihood()
        sites = tl.site_log_likelihoods()
        grad = tl.branch_gradient()
    return logl, sites, grad


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("use_tip_states", [True, False])
@pytest.mark.parametrize("backend", DEVICE_BACKENDS)
def test_device_backends_match_cpu_sse_bit_for_bit(
    case, use_tip_states, backend
):
    tree, data, model, site = CASES[case]()
    want = _evaluate("cpu-sse", tree, data, model, site, use_tip_states)
    got = _evaluate(backend, tree, data, model, site, use_tip_states)
    assert got[0] == want[0]
    assert np.array_equal(got[1], want[1])
    assert np.array_equal(got[2], want[2])
    # Column 0 is the root reduction's value on every row.
    assert np.all(got[2][:, 0] == got[0])


def _evaluate_scaled(backend, data, precision, use_scaling, deferred):
    tree, data, model, site = data
    kwargs = backend_flags(backend)
    if backend == "cpp-threads":
        kwargs["thread_count"] = 2
    with TreeLikelihood(
        tree.copy(), data, model, site, precision=precision,
        use_scaling=use_scaling, deferred=deferred, **kwargs,
    ) as tl:
        logl = tl.log_likelihood()
        sites = tl.site_log_likelihoods()
        scale = tl.instance.impl.get_scale_factors(tl._cumulative_scale)
    return logl, sites, scale


@pytest.fixture(scope="module")
def scaled_hky():
    """HKY+G4 with gap and ambiguous tips, deep enough to rescale and
    wide enough (over 512 patterns) that the thread pool cuts slices."""
    data = _hky_data(n_tips=24, n_sites=1200)
    assert data[1].n_patterns > 512
    return data


# cpu-serial is left out: its per-pattern root sum already differed
# from cpu-sse's in the last bits before rescaling changed; it keeps
# the cross-backend tolerance of tests/test_implementations.py.
@pytest.mark.parametrize("deferred", [False, True])
@pytest.mark.parametrize("use_scaling", ["always", "dynamic"])
@pytest.mark.parametrize("precision", ["double", "single"])
@pytest.mark.parametrize("backend", ("cpp-threads",) + DEVICE_BACKENDS)
def test_scaled_backends_match_cpu_sse_bit_for_bit(
    scaled_hky, backend, precision, use_scaling, deferred
):
    args = (scaled_hky, precision, use_scaling, deferred)
    want = _evaluate_scaled("cpu-sse", *args)
    got = _evaluate_scaled(backend, *args)
    assert np.isfinite(want[0])
    assert got[0] == want[0]
    assert np.array_equal(got[1], want[1])
    assert np.array_equal(got[2], want[2])
    # Dynamic mode's double-precision threshold (1e-200) is out of
    # reach at 24 tips; everywhere else some pattern is rescaled.
    if use_scaling == "always" or precision == "single":
        assert np.any(want[2] != 0.0)


@pytest.mark.parametrize("backend", DEVICE_BACKENDS)
def test_scaled_edge_derivatives_read_the_device_scale(backend):
    """The edge-derivative path adds the cumulative scale term from the
    device's scale buffer, not from the unused host mirror."""
    tree = balanced_tree(32, rng=530)
    model = HKY85(2.0, [0.3, 0.2, 0.2, 0.3])
    site = SiteModel.gamma(0.5, 4)
    data = compress_patterns(
        simulate_alignment(tree, model, 200, site, rng=531)
    )
    got, want = (
        _root_edge_derivatives(b, tree, data, model, site)
        for b in (backend, "cpu-sse")
    )
    assert got == want


def _root_edge_derivatives(backend, tree, data, model, site):
    with TreeLikelihood(tree.copy(), data, model, site, use_scaling=True,
                        **backend_flags(backend)) as tl:
        tl.log_likelihood()
        return tl.root_edge_derivatives()


def _two_op_preorder(tree, w_base, tmp_base, ones, identity):
    """The pre-order list of two operations per node that
    ``UpperPartials.update`` used to issue:
    ``tmp(v) = I W(u) * P_w L(w)`` and ``W(v) = P_v tmp(v) * I 1``,
    with ``W(root) = 1``.  Node ``v``'s lower partials and branch matrix
    are buffer ``v``."""
    root = tree.root
    ops = [Operation(w_base + root.index, ones, identity, ones, identity)]
    for node in root.preorder():
        if node.is_root:
            continue
        parent = node.parent
        sibling = next(c for c in parent.children if c is not node)
        ops.append(Operation(
            tmp_base + node.index, w_base + parent.index, identity,
            sibling.index, sibling.index,
        ))
        ops.append(Operation(
            w_base + node.index, tmp_base + node.index,
            node.index, ones, identity,
        ))
    return ops


@pytest.mark.parametrize("backend", ["cpu-serial", "cpu-sse", "cuda"])
def test_one_op_preorder_matches_the_two_op_list(backend):
    tree = yule_tree(7, rng=520)
    model = HKY85(2.0, [0.25, 0.3, 0.2, 0.25])
    site = SiteModel.gamma(0.7, 2)
    data = compress_patterns(
        simulate_alignment(tree, model, 60, site, rng=521)
    )
    tl = TreeLikelihood(tree, data, model, site, enable_upper_partials=True,
                        **backend_flags(backend))
    tl.log_likelihood()
    tl.upper.update()
    n, n_tips = tree.n_nodes, tree.n_tips
    want = {v: tl.instance.get_partials(tl.upper.tmp_index(v))
            for v in range(n) if v != tree.root.index}

    # Replay the old list on a fresh instance fed the same lower
    # partials, tip states and branch matrices through the public API.
    c = tl.instance.config
    w_base, tmp_base, ones, identity = n, 2 * n, 3 * n, n
    replay = BeagleInstance(
        InstanceConfig(
            tip_count=n_tips, partials_buffer_count=3 * n + 1 - n_tips,
            compact_buffer_count=n_tips, state_count=c.state_count,
            pattern_count=c.pattern_count, eigen_buffer_count=1,
            matrix_buffer_count=n + 1, category_count=c.category_count,
        ),
        **backend_flags(backend),
    )
    names = data.alignment.names
    for node in tree.root.preorder():
        v = node.index
        if node.is_tip:
            replay.set_tip_states(v, data.tip_states[names.index(node.name)])
        else:
            replay.set_partials(
                v, tl.instance.get_partials(tl.partials_index(v))
            )
        if not node.is_root:
            replay.set_transition_matrix(
                v, tl.instance.get_transition_matrix(tl.matrix_index(v))
            )
    replay.set_partials(
        ones, np.ones((c.category_count, c.pattern_count, c.state_count))
    )
    replay.set_transition_matrix(identity, np.eye(c.state_count))
    replay.update_partials(
        _two_op_preorder(tree, w_base, tmp_base, ones, identity)
    )
    for v, tmp in want.items():
        assert np.array_equal(replay.get_partials(tmp_base + v), tmp), v
    replay.finalize()
    tl.finalize()
