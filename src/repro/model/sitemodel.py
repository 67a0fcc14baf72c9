"""Among-site rate variation: discrete gamma categories and invariant sites.

BEAGLE's API exposes rate heterogeneity through ``setCategoryRates`` and
``setCategoryWeights``; partials carry a leading *category* dimension and
the root-likelihood kernel integrates over it.  This module computes the
standard discretisations that clients pass into those calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np
from scipy.special import gammainc, gammaincinv


def discrete_gamma_rates(alpha: float, n_categories: int) -> np.ndarray:
    """Mean-of-quantile discretisation of a Gamma(alpha, 1/alpha) (Yang 1994).

    The continuous distribution has mean one; each of the ``n_categories``
    equal-probability bins is represented by its conditional mean, so the
    discrete rates also average exactly one.
    """
    if alpha <= 0:
        raise ValueError(f"gamma shape must be positive, got {alpha}")
    if n_categories < 1:
        raise ValueError(f"need at least one category, got {n_categories}")
    if n_categories == 1:
        return np.ones(1)
    # Gamma(alpha, scale) quantiles and CDFs through scipy.special, with
    # the arithmetic of ``scipy.stats.gamma(a, scale=s).ppf``/``.cdf``
    # (quantile * s, CDF of x / s, exact 0 and 1 at the support ends), so
    # the rates match it bit for bit without importing scipy.stats.
    scale = 1.0 / alpha
    q = np.linspace(0.0, 1.0, n_categories + 1)
    edges = np.empty_like(q)
    edges[0], edges[-1] = 0.0, np.inf
    edges[1:-1] = gammaincinv(alpha, q[1:-1]) * scale
    # Conditional mean of a Gamma(a, s) on [lo, hi] equals
    # a*s * (F_{a+1}(hi) - F_{a+1}(lo)) / (F_a(hi) - F_a(lo));
    # with equal-probability bins the denominator is 1/k.
    x = edges / scale
    cdf_up = np.zeros_like(x)
    cdf_up[-1] = 1.0
    inside = (x > 0.0) & (x < np.inf)
    cdf_up[inside] = gammainc(alpha + 1.0, x[inside])
    rates = (cdf_up[1:] - cdf_up[:-1]) * n_categories
    # alpha * scale == 1 for the unit-mean parameterisation.
    return rates / rates.mean() * 1.0


@dataclass(frozen=True)
class SiteModel:
    """Per-category rates and weights for the likelihood integration.

    ``rates`` scale branch lengths per category; ``weights`` are the prior
    probabilities of each category and must sum to one.  An invariant-sites
    proportion adds a zero-rate category.
    """

    rates: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        rates = np.asarray(self.rates, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "weights", weights)
        if rates.shape != weights.shape or rates.ndim != 1:
            raise ValueError("rates and weights must be 1-D and equal length")
        if np.any(rates < 0):
            raise ValueError("category rates must be non-negative")
        if np.any(weights < 0) or not np.isclose(weights.sum(), 1.0):
            raise ValueError("weights must be non-negative and sum to 1")

    @property
    def n_categories(self) -> int:
        return self.rates.size

    @staticmethod
    def uniform() -> "SiteModel":
        """A single rate category (no among-site variation)."""
        return SiteModel(np.ones(1), np.ones(1))

    @staticmethod
    def gamma(alpha: float, n_categories: int = 4) -> "SiteModel":
        """Discrete-gamma site model with ``n_categories`` categories."""
        rates = discrete_gamma_rates(alpha, n_categories)
        weights = np.full(n_categories, 1.0 / n_categories)
        return SiteModel(rates, weights)

    @staticmethod
    def gamma_invariant(
        alpha: float, p_invariant: float, n_categories: int = 4
    ) -> "SiteModel":
        """Gamma + proportion-invariant (the "GTR+G+I" family).

        The gamma rates are rescaled by ``1/(1 - p_inv)`` so the overall
        mean rate stays one.
        """
        if not 0.0 <= p_invariant < 1.0:
            raise ValueError(f"p_invariant must be in [0, 1), got {p_invariant}")
        g = discrete_gamma_rates(alpha, n_categories) / (1.0 - p_invariant)
        rates = np.concatenate([[0.0], g])
        weights = np.concatenate(
            [[p_invariant], np.full(n_categories, (1.0 - p_invariant) / n_categories)]
        )
        return SiteModel(rates, weights)
