"""Discrete-gamma rate heterogeneity and invariant sites."""

import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats

from repro.model import SiteModel, discrete_gamma_rates


class TestDiscreteGamma:
    def test_unit_mean(self):
        for alpha in (0.1, 0.5, 1.0, 5.0, 50.0):
            rates = discrete_gamma_rates(alpha, 4)
            assert np.isclose(rates.mean(), 1.0)

    def test_rates_increasing(self):
        rates = discrete_gamma_rates(0.5, 8)
        assert np.all(np.diff(rates) > 0)

    def test_single_category_is_one(self):
        assert np.array_equal(discrete_gamma_rates(0.5, 1), [1.0])

    def test_large_alpha_approaches_equal_rates(self):
        rates = discrete_gamma_rates(1000.0, 4)
        assert np.all(np.abs(rates - 1.0) < 0.05)

    def test_small_alpha_is_highly_skewed(self):
        rates = discrete_gamma_rates(0.1, 4)
        assert rates[0] < 1e-3 and rates[-1] > 2.0

    def test_category_means_bracket_quantiles(self):
        # Each category mean must lie inside its quantile bin.
        alpha, k = 0.7, 4
        rates = discrete_gamma_rates(alpha, k)
        dist = stats.gamma(a=alpha, scale=1.0 / alpha)
        edges = dist.ppf(np.linspace(0, 1, k + 1))
        for i in range(k):
            assert edges[i] <= rates[i] <= edges[i + 1] or np.isclose(
                rates[i], edges[i]
            )

    def test_invalid_alpha(self):
        with pytest.raises(ValueError, match="positive"):
            discrete_gamma_rates(0.0, 4)

    def test_invalid_category_count(self):
        with pytest.raises(ValueError, match="category"):
            discrete_gamma_rates(0.5, 0)


def _stats_reference(alpha, k):
    """The scipy.stats formulation the rates are defined by."""
    if k == 1:
        return np.ones(1)
    edges = stats.gamma(a=alpha, scale=1.0 / alpha).ppf(
        np.linspace(0.0, 1.0, k + 1)
    )
    cdf_up = stats.gamma(a=alpha + 1.0, scale=1.0 / alpha).cdf(edges)
    rates = (cdf_up[1:] - cdf_up[:-1]) * k
    return rates / rates.mean() * 1.0


class TestScipyStatsFree:
    def test_rates_equal_the_scipy_stats_reference_exactly(self):
        alphas = np.concatenate([
            np.geomspace(1e-3, 1e3, 150),
            np.random.default_rng(0).uniform(0.01, 20.0, 100),
        ])
        for alpha in alphas:
            for k in (1, 2, 3, 4, 5, 8, 16):
                got = discrete_gamma_rates(float(alpha), k)
                want = _stats_reference(float(alpha), k)
                assert got.tobytes() == want.tobytes(), (alpha, k)

    def test_import_loads_neither_scipy_stats_nor_optimize(self):
        code = (
            "import sys, repro, repro.mcmc\n"
            "bad = [m for m in ('scipy.stats', 'scipy.optimize')\n"
            "       if m in sys.modules]\n"
            "print(','.join(bad))\n"
        )
        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        path = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, env=dict(os.environ, PYTHONPATH=path),
        )
        assert out.stdout.strip() == ""


class TestSiteModel:
    def test_uniform(self):
        sm = SiteModel.uniform()
        assert sm.n_categories == 1
        assert sm.rates[0] == 1.0 and sm.weights[0] == 1.0

    def test_gamma_weights_equal(self):
        sm = SiteModel.gamma(0.5, 4)
        assert np.allclose(sm.weights, 0.25)

    def test_gamma_invariant_mean_rate_one(self):
        sm = SiteModel.gamma_invariant(0.5, 0.3, 4)
        assert np.isclose(np.dot(sm.rates, sm.weights), 1.0)

    def test_gamma_invariant_zero_category(self):
        sm = SiteModel.gamma_invariant(0.5, 0.3, 4)
        assert sm.rates[0] == 0.0
        assert np.isclose(sm.weights[0], 0.3)
        assert sm.n_categories == 5

    def test_invariant_proportion_bounds(self):
        with pytest.raises(ValueError, match="p_invariant"):
            SiteModel.gamma_invariant(0.5, 1.0)
        with pytest.raises(ValueError, match="p_invariant"):
            SiteModel.gamma_invariant(0.5, -0.1)

    def test_weights_must_be_distribution(self):
        with pytest.raises(ValueError, match="sum to 1"):
            SiteModel(np.ones(2), np.array([0.3, 0.3]))

    def test_negative_rates_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            SiteModel(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            SiteModel(np.ones(3), np.array([0.5, 0.5]))
