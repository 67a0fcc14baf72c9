"""Canonical kernel mathematics (repro.core.compute)."""

import numpy as np
import pytest
from scipy.linalg import expm

from repro.core import compute
from repro.model import GY94, HKY85, JC69, SiteModel


def _random_partials(rng, cats=2, patterns=7, states=4):
    return rng.random((cats, patterns, states))


def _matrices(model, rng, cats=2):
    ts = rng.random(cats) * 0.5 + 0.05
    return np.stack([model.transition_matrix(t) for t in ts])


class TestPartialsKernels:
    def test_pp_matches_naive_loops(self):
        rng = np.random.default_rng(1)
        model = HKY85(2.0, [0.3, 0.2, 0.2, 0.3])
        l1, l2 = _random_partials(rng), _random_partials(rng)
        m1, m2 = _matrices(model, rng), _matrices(model, rng)
        got = compute.update_partials_pp(
            l1.swapaxes(1, 2), m1, l2.swapaxes(1, 2), m2
        ).swapaxes(1, 2)
        want = np.zeros_like(got)
        for c in range(2):
            for p in range(7):
                for i in range(4):
                    a = sum(m1[c, i, j] * l1[c, p, j] for j in range(4))
                    b = sum(m2[c, i, j] * l2[c, p, j] for j in range(4))
                    want[c, p, i] = a * b
        assert np.allclose(got, want)

    def test_sp_definite_states_match_indicator_partials(self):
        rng = np.random.default_rng(2)
        model = HKY85(2.0)
        states = rng.integers(0, 4, size=7).astype(np.int32)
        indicator = np.zeros((2, 7, 4))
        indicator[:, np.arange(7), states] = 1.0
        l2 = _random_partials(rng)
        m1, m2 = _matrices(model, rng), _matrices(model, rng)
        via_states = compute.update_partials_sp(
            states, compute.extend_matrices_for_gaps(m1), l2.swapaxes(1, 2), m2
        ).swapaxes(1, 2)
        via_partials = compute.update_partials_pp(
            indicator.swapaxes(1, 2), m1, l2.swapaxes(1, 2), m2
        ).swapaxes(1, 2)
        assert np.allclose(via_states, via_partials)

    def test_gap_state_contributes_ones(self):
        rng = np.random.default_rng(3)
        model = JC69()
        states = np.full(5, 4, dtype=np.int32)  # all gaps
        l2 = _random_partials(rng, patterns=5)
        m1, m2 = _matrices(model, rng), _matrices(model, rng)
        got = compute.update_partials_sp(
            states, compute.extend_matrices_for_gaps(m1), l2.swapaxes(1, 2), m2
        ).swapaxes(1, 2)
        only_child2 = np.matmul(l2, m2.swapaxes(-1, -2))
        assert np.allclose(got, only_child2)

    def test_ss_matches_sp_with_indicator(self):
        rng = np.random.default_rng(4)
        model = HKY85(3.0)
        s1 = rng.integers(0, 4, size=6).astype(np.int32)
        s2 = rng.integers(0, 5, size=6).astype(np.int32)  # includes gaps
        m1, m2 = _matrices(model, rng), _matrices(model, rng)
        m1e = compute.extend_matrices_for_gaps(m1)
        m2e = compute.extend_matrices_for_gaps(m2)
        got = compute.update_partials_ss(s1, m1e, s2, m2e).swapaxes(1, 2)
        indicator2 = np.ones((2, 6, 4))
        for p, s in enumerate(s2):
            if s < 4:
                indicator2[:, p, :] = 0.0
                indicator2[:, p, s] = 1.0
        via_sp = compute.update_partials_sp(
            s1, m1e, indicator2.swapaxes(1, 2), m2
        ).swapaxes(1, 2)
        assert np.allclose(got, via_sp)

    def test_out_parameter(self):
        rng = np.random.default_rng(5)
        model = JC69()
        l1, l2 = _random_partials(rng), _random_partials(rng)
        m1, m2 = _matrices(model, rng), _matrices(model, rng)
        out = np.empty_like(l1.swapaxes(1, 2))
        result = compute.update_partials_pp(
            l1.swapaxes(1, 2), m1, l2.swapaxes(1, 2), m2, out=out
        )
        assert result is out
        assert np.allclose(out, compute.update_partials_pp(
            l1.swapaxes(1, 2), m1, l2.swapaxes(1, 2), m2
        ))


class TestMatricesFromEigen:
    def test_matches_expm_with_rates(self):
        model = HKY85(2.0, [0.1, 0.4, 0.3, 0.2])
        e = model.eigen
        lengths = np.array([0.1, 0.5])
        rates = np.array([0.2, 1.8])
        mats = compute.matrices_from_eigen(
            e.eigenvectors, e.inverse_eigenvectors, e.eigenvalues,
            lengths, rates,
        )
        assert mats.shape == (2, 2, 4, 4)
        for b, t in enumerate(lengths):
            for c, r in enumerate(rates):
                assert np.allclose(mats[b, c], expm(model.q * t * r), atol=1e-8)

    def test_dtype_respected(self):
        model = JC69()
        e = model.eigen
        mats = compute.matrices_from_eigen(
            e.eigenvectors, e.inverse_eigenvectors, e.eigenvalues,
            np.array([0.1]), np.array([1.0]), dtype=np.float32,
        )
        assert mats.dtype == np.float32

    @pytest.mark.parametrize(
        "model,rates",
        [(HKY85(2.0, [0.1, 0.4, 0.3, 0.2]), SiteModel.gamma(0.5, 4).rates),
         (GY94(kappa=2.0, omega=0.3), SiteModel.gamma(0.5, 4).rates)],
        ids=["hky-gamma4", "gy94-gamma4"],
    )
    def test_batch_invariant(self, model, rates):
        """A branch gets the same bits alone as inside a batch of 50, so
        an incremental update of a few branches reproduces a full
        traversal's matrices exactly."""
        e = model.eigen
        args = (e.eigenvectors, e.inverse_eigenvectors, e.eigenvalues)
        lengths = np.random.default_rng(9).random(50) * 0.5
        batch = compute.matrices_from_eigen(*args, lengths, rates)
        alone = np.concatenate([
            compute.matrices_from_eigen(*args, lengths[b:b + 1], rates)
            for b in range(50)
        ])
        assert np.array_equal(batch, alone)
        for order in (1, 2):
            batch = compute.derivative_matrices_from_eigen(
                *args, lengths, rates, order
            )
            alone = np.concatenate([
                compute.derivative_matrices_from_eigen(
                    *args, lengths[b:b + 1], rates, order
                )
                for b in range(50)
            ])
            assert np.array_equal(batch, alone)

    def test_extend_for_gaps(self):
        m = np.arange(8, dtype=float).reshape(1, 2, 4)[:, :2, :2]
        ext = compute.extend_matrices_for_gaps(m)
        assert ext.shape == (1, 2, 3)
        assert np.all(ext[..., -1] == 1.0)


class TestRescaling:
    def test_factors_restore_magnitude(self):
        rng = np.random.default_rng(6)
        partials = rng.random((3, 5, 4)) * 1e-30
        rescaled, exponents = compute.rescale_partials(
            partials.swapaxes(1, 2).copy()
        )
        rescaled = rescaled.swapaxes(1, 2)
        maxima = rescaled.max(axis=(0, 2))
        assert np.all((maxima >= 0.5) & (maxima < 1.0))
        # Power-of-two factors: the restore is exact.
        restored = np.ldexp(rescaled, exponents[None, :, None])
        assert np.array_equal(restored, partials)

    def test_zero_pattern_keeps_zero(self):
        partials = np.zeros((1, 2, 4))
        partials[0, 1, :] = 0.5
        rescaled, exponents = compute.rescale_partials(
            partials.swapaxes(1, 2).copy()
        )
        rescaled = rescaled.swapaxes(1, 2)
        assert np.all(rescaled[0, 0] == 0.0)
        assert exponents[0] == 0


class TestRootAndEdge:
    def setup_method(self):
        self.rng = np.random.default_rng(7)
        self.model = HKY85(2.0, [0.3, 0.2, 0.2, 0.3])
        self.weights = np.array([0.5, 0.5])
        self.pattern_weights = self.rng.integers(1, 4, size=6).astype(float)

    def test_root_loglik_naive(self):
        partials = self.rng.random((2, 6, 4))
        logl, per_pattern = compute.root_log_likelihood(
            partials.swapaxes(1, 2), self.weights, self.model.frequencies,
            self.pattern_weights,
        )
        want = 0.0
        for p in range(6):
            site = sum(
                self.weights[c] * float(
                    self.model.frequencies @ partials[c, p]
                )
                for c in range(2)
            )
            want += self.pattern_weights[p] * np.log(site)
        assert np.isclose(logl, want)
        assert per_pattern.shape == (6,)

    def test_root_with_cumulative_scale(self):
        partials = self.rng.random((2, 6, 4))
        scale = self.rng.random(6)
        base, _ = compute.root_log_likelihood(
            partials.swapaxes(1, 2), self.weights, self.model.frequencies,
            self.pattern_weights,
        )
        scaled, _ = compute.root_log_likelihood(
            partials.swapaxes(1, 2), self.weights, self.model.frequencies,
            self.pattern_weights, cumulative_scale_log=scale,
        )
        assert np.isclose(scaled, base + np.dot(self.pattern_weights, scale))

    def test_impossible_site_gives_minus_inf(self):
        partials = np.zeros((1, 2, 4))
        partials[0, 1] = 0.25
        logl, per = compute.root_log_likelihood(
            partials.swapaxes(1, 2), np.ones(1), np.full(4, 0.25), np.ones(2)
        )
        assert per[0] == -np.inf and logl == -np.inf

    def test_edge_equals_root_of_merged(self):
        """Edge likelihood must equal evaluating the root across the edge."""
        mats = np.stack([self.model.transition_matrix(0.3)] * 2)
        parent = self.rng.random((2, 6, 4))
        child = self.rng.random((2, 6, 4))
        edge_ll, _ = compute.edge_log_likelihood(
            parent.swapaxes(1, 2), child.swapaxes(1, 2), mats, self.weights, self.model.frequencies,
            self.pattern_weights,
        )
        merged = parent * np.matmul(child, mats.swapaxes(-1, -2))
        root_ll, _ = compute.root_log_likelihood(
            merged.swapaxes(1, 2), self.weights, self.model.frequencies,
            self.pattern_weights,
        )
        assert np.isclose(edge_ll, root_ll)

    def test_edge_derivatives_match_finite_differences(self):
        model = self.model
        t0, h = 0.4, 1e-6
        parent = self.rng.random((1, 6, 4))
        child = self.rng.random((1, 6, 4))

        def ll(t):
            mats = model.transition_matrix(t)[None]
            value, _ = compute.edge_log_likelihood(
                parent.swapaxes(1, 2), child.swapaxes(1, 2), mats, np.ones(1), model.frequencies,
                self.pattern_weights,
            )
            return value

        p = model.transition_matrix(t0)[None]
        d1m = (model.q @ model.transition_matrix(t0))[None]
        d2m = (model.q @ model.q @ model.transition_matrix(t0))[None]
        logl, d1, d2 = compute.edge_derivatives(
            parent.swapaxes(1, 2), child.swapaxes(1, 2), p, d1m, d2m, np.ones(1), model.frequencies,
            self.pattern_weights,
        )
        fd1 = (ll(t0 + h) - ll(t0 - h)) / (2 * h)
        fd2 = (ll(t0 + h) - 2 * ll(t0) + ll(t0 - h)) / (h * h)
        assert np.isclose(logl, ll(t0))
        assert np.isclose(d1, fd1, rtol=1e-4)
        assert np.isclose(d2, fd2, rtol=1e-2)

    def test_partials_flops_formula(self):
        assert compute.partials_flops(4) == 4 * 17
        assert compute.partials_flops(61) == 61 * 245
