"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import compute
from repro.model import GTR, HKY85, SiteModel, discrete_gamma_rates
from repro.model.ratematrix import build_reversible_q, eigendecompose_reversible
from repro.seq import Alignment, compress_patterns
from repro.tree import parse_newick, random_topology, write_newick

# -- strategies -------------------------------------------------------------

frequencies4 = st.lists(
    st.floats(min_value=0.05, max_value=1.0), min_size=4, max_size=4
).map(lambda xs: np.array(xs) / np.sum(xs))

gtr_rates = st.lists(
    st.floats(min_value=0.05, max_value=10.0), min_size=6, max_size=6
)

branch_lengths = st.floats(min_value=0.0, max_value=10.0)


@st.composite
def nucleotide_columns(draw):
    n_taxa = draw(st.integers(min_value=2, max_value=6))
    n_sites = draw(st.integers(min_value=1, max_value=30))
    rows = [
        "".join(draw(st.sampled_from("ACGT-")) for _ in range(n_sites))
        for _ in range(n_taxa)
    ]
    return {f"t{i}": row for i, row in enumerate(rows)}


# -- model properties ----------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(rates=gtr_rates, freqs=frequencies4, t=branch_lengths)
def test_gtr_transition_matrices_always_stochastic(rates, freqs, t):
    model = GTR(rates, freqs)
    p = model.transition_matrix(t)
    assert np.all(p >= 0)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-8)


@settings(max_examples=40, deadline=None)
@given(rates=gtr_rates, freqs=frequencies4)
def test_gtr_eigensystem_reconstructs_q(rates, freqs):
    model = GTR(rates, freqs)
    e = model.eigen
    q = e.eigenvectors @ np.diag(e.eigenvalues) @ e.inverse_eigenvectors
    assert np.allclose(q, model.q, atol=1e-8)


@settings(max_examples=40, deadline=None)
@given(rates=gtr_rates, freqs=frequencies4, s=branch_lengths, t=branch_lengths)
def test_chapman_kolmogorov_property(rates, freqs, s, t):
    model = GTR(rates, freqs)
    assert np.allclose(
        model.transition_matrix(s + t),
        model.transition_matrix(s) @ model.transition_matrix(t),
        atol=1e-7,
    )


@settings(max_examples=30, deadline=None)
@given(
    alpha=st.floats(min_value=0.05, max_value=100.0),
    k=st.integers(min_value=1, max_value=12),
)
def test_gamma_rates_unit_mean_and_sorted(alpha, k):
    rates = discrete_gamma_rates(alpha, k)
    assert rates.shape == (k,)
    assert np.isclose(rates.mean(), 1.0, rtol=1e-9)
    assert np.all(np.diff(rates) >= 0)
    assert np.all(rates >= 0)


# -- data properties -------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(data=nucleotide_columns())
def test_pattern_compression_preserves_total_weight(data):
    aln = Alignment.from_strings(data)
    ps = compress_patterns(aln)
    assert ps.weights.sum() == aln.n_sites
    assert ps.n_patterns <= aln.n_sites
    # Reconstruction: expanding pattern columns by site_to_pattern gives
    # back the original columns.
    for site in range(aln.n_sites):
        assert aln.column(site) == ps.alignment.column(
            int(ps.site_to_pattern[site])
        )


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=2, max_value=40), seed=st.integers(0, 2**16))
def test_newick_round_trip_property(n, seed):
    tree = random_topology(n, rng=seed)
    back = parse_newick(write_newick(tree))
    assert sorted(back.tip_names()) == sorted(tree.tip_names())
    assert np.isclose(
        back.total_branch_length(), tree.total_branch_length(), rtol=1e-9
    )
    # Serialisation is a fixed point after one round trip.
    assert write_newick(back) == write_newick(parse_newick(write_newick(back)))


# -- kernel properties ----------------------------------------------------------

@st.composite
def partials_inputs(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    cats = draw(st.integers(1, 3))
    patterns = draw(st.integers(1, 12))
    t1 = draw(st.floats(min_value=0.0, max_value=3.0))
    t2 = draw(st.floats(min_value=0.0, max_value=3.0))
    model = HKY85(2.0, [0.3, 0.2, 0.2, 0.3])
    m1 = np.stack([model.transition_matrix(t1)] * cats)
    m2 = np.stack([model.transition_matrix(t2)] * cats)
    l1 = rng.random((cats, patterns, 4))
    l2 = rng.random((cats, patterns, 4))
    return l1, m1, l2, m2


@settings(max_examples=30, deadline=None)
@given(inputs=partials_inputs())
def test_partials_update_symmetric_in_children(inputs):
    l1, m1, l2, m2 = inputs
    a = compute.update_partials_pp(
        l1.swapaxes(1, 2), m1, l2.swapaxes(1, 2), m2
    )
    b = compute.update_partials_pp(
        l2.swapaxes(1, 2), m2, l1.swapaxes(1, 2), m1
    )
    assert np.allclose(a, b)


@settings(max_examples=30, deadline=None)
@given(inputs=partials_inputs())
def test_partials_update_pattern_local(inputs):
    """Each pattern's output depends only on that pattern's inputs."""
    l1, m1, l2, m2 = inputs
    full = compute.update_partials_pp(
        l1.swapaxes(1, 2), m1, l2.swapaxes(1, 2), m2
    ).swapaxes(1, 2)
    p = l1.shape[1] // 2
    sliced = compute.update_partials_pp(
        l1[:, p : p + 1].swapaxes(1, 2), m1,
        l2[:, p : p + 1].swapaxes(1, 2), m2,
    ).swapaxes(1, 2)
    assert np.allclose(full[:, p : p + 1], sliced)


@settings(max_examples=30, deadline=None)
@given(inputs=partials_inputs(), scale=st.floats(min_value=1e-6, max_value=1e6))
def test_partials_update_linear_in_each_child(inputs, scale):
    l1, m1, l2, m2 = inputs
    base = compute.update_partials_pp(
        l1.swapaxes(1, 2), m1, l2.swapaxes(1, 2), m2
    ).swapaxes(1, 2)
    scaled = compute.update_partials_pp(
        (l1 * scale).swapaxes(1, 2), m1, l2.swapaxes(1, 2), m2
    ).swapaxes(1, 2)
    assert np.allclose(scaled, base * scale, rtol=1e-9)


@settings(max_examples=30, deadline=None)
@given(inputs=partials_inputs())
def test_rescale_round_trips(inputs):
    l1, m1, l2, m2 = inputs
    dest = compute.update_partials_pp(
        l1.swapaxes(1, 2), m1, l2.swapaxes(1, 2), m2
    ).swapaxes(1, 2)
    rescaled, exponents = compute.rescale_partials(
        dest.swapaxes(1, 2).copy()
    )
    rescaled = rescaled.swapaxes(1, 2)
    assert np.all(rescaled <= 1.0 + 1e-12)
    restored = np.ldexp(rescaled, exponents[None, :, None])
    assert np.array_equal(restored, dest)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    weights=st.lists(st.floats(min_value=0.1, max_value=9.0),
                     min_size=3, max_size=3),
)
def test_root_loglik_linear_in_pattern_weights(seed, weights):
    rng = np.random.default_rng(seed)
    partials = rng.random((2, 3, 4)) + 1e-3
    cat_w = np.array([0.4, 0.6])
    freqs = np.full(4, 0.25)
    w = np.asarray(weights)
    total, per_pattern = compute.root_log_likelihood(
        partials.swapaxes(1, 2), cat_w, freqs, w
    )
    assert np.isclose(total, np.dot(w, per_pattern))
    double, _ = compute.root_log_likelihood(
        partials.swapaxes(1, 2), cat_w, freqs, 2 * w
    )
    assert np.isclose(double, 2 * total)


# -- likelihood invariances --------------------------------------------------------

@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**10))
def test_pulley_principle(seed):
    """For reversible models the root location does not change the
    likelihood: evaluating at the root equals the edge likelihood across
    any branch (Felsenstein 1981)."""
    from repro.core.highlevel import TreeLikelihood
    from repro.seq import simulate_patterns
    from repro.tree import yule_tree

    tree = yule_tree(6, rng=seed)
    model = HKY85(2.0, [0.3, 0.2, 0.2, 0.3])
    data = simulate_patterns(tree, model, 60, rng=seed + 1)
    with TreeLikelihood(
        tree, data, model, SiteModel.gamma(0.5, 2), use_tip_states=False
    ) as tl:
        root_ll = tl.log_likelihood()
        root = tree.root
        left, right = root.children
        if left.is_tip or right.is_tip:
            return  # edge evaluation needs two partials buffers
        # Likelihood across the (left, right) edge through the root: the
        # two root-child branches merge into one edge of summed length.
        combined = left.branch_length + right.branch_length
        tl.instance.update_transition_matrices(0, [left.index], [combined])
        edge_ll = tl.instance.calculate_edge_log_likelihoods(
            right.index, left.index, left.index
        )
        assert np.isclose(edge_ll, root_ll, rtol=1e-9)
