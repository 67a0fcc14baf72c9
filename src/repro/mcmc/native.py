"""The "MrBayes native" likelihood backend — the paper's baseline.

Fig. 6 compares BEAGLE-backed MrBayes against MrBayes' own built-in
likelihood evaluator ("MrBayes uses SSE vectorization in single-precision
floating point format").  This module is that independent comparator: a
self-contained, single-threaded, pattern-vectorised evaluator that shares
*no* code with the BEAGLE implementations — transition matrices come from
``scipy.linalg.expm`` rather than the eigensystem path, so agreement
between the two stacks is a genuine cross-check, not a tautology.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

import numpy as np
from scipy.linalg import expm

from repro.model.ratematrix import SubstitutionModel
from repro.model.sitemodel import SiteModel
from repro.seq.patterns import PatternSet
from repro.seq.simulate import SyntheticPatterns
from repro.tree.tree import Tree


class NativeLikelihood:
    """Stand-alone pruning-algorithm evaluator (no BEAGLE code).

    Parameters mirror :class:`repro.core.highlevel.TreeLikelihood`;
    ``precision`` selects the working dtype like MrBayes' single/double
    compile modes.
    """

    def __init__(
        self,
        tree: Tree,
        data: Union[PatternSet, SyntheticPatterns],
        model: SubstitutionModel,
        site_model: Optional[SiteModel] = None,
        precision: str = "single",
    ) -> None:
        if precision not in ("single", "double"):
            raise ValueError(f"precision must be single|double, got {precision!r}")
        self.tree = tree
        self.site_model = site_model or SiteModel.uniform()
        self.dtype = np.float32 if precision == "single" else np.float64
        self.model = model

        if isinstance(data, PatternSet):
            aln = data.alignment
            self.weights = data.weights
            tips = sorted(tree.root.tips(), key=lambda n: n.index)
            self.tip_partials = {}
            for tip in tips:
                name = tip.name or f"taxon{tip.index}"
                row = aln.names.index(name)
                self.tip_partials[tip.index] = aln.state_space.encode_partials(
                    aln.rows[row]
                ).astype(self.dtype)
        else:
            self.weights = data.weights
            s = data.state_count
            self.tip_partials = {}
            for tip_index in range(data.n_taxa):
                codes = data.tip_states[tip_index]
                dense = np.zeros((data.n_patterns, s), dtype=self.dtype)
                rows = np.arange(data.n_patterns)
                known = codes < s
                dense[rows[known], codes[known]] = 1.0
                dense[~known] = 1.0
                self.tip_partials[tip_index] = dense

    def set_model(self, model: SubstitutionModel) -> None:
        self.model = model

    def _transition(self, t: float) -> np.ndarray:
        """Matrix exponential, independent of the eigen path."""
        return expm(self.model.q * t)

    def log_likelihood(self) -> float:
        """Full pruning pass: per-category conditionals, then integrate."""
        sm = self.site_model
        freqs = self.model.frequencies
        n_patterns = self.weights.shape[0]
        # Per-category conditionals may carry different scale factors;
        # combine with a per-pattern log-sum-exp over categories.
        cat_lik = np.empty((sm.n_categories, n_patterns))
        cat_scale = np.empty((sm.n_categories, n_patterns))
        for i, rate in enumerate(sm.rates):
            cond, scale = self._category_conditionals(rate)
            cat_lik[i] = cond @ freqs
            cat_scale[i] = scale
        ref = cat_scale.max(axis=0)
        site_lik = sm.weights @ (cat_lik * np.exp(cat_scale - ref))
        with np.errstate(divide="ignore"):
            log_site = np.log(site_lik) + ref
        return float(np.dot(self.weights, log_site))

    def _category_conditionals(
        self, rate: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Post-order conditional likelihoods at the root for one category."""
        n_patterns = self.weights.shape[0]
        s = self.model.n_states
        conditionals: Dict[int, np.ndarray] = {}
        scale = np.zeros(n_patterns)
        for node in self.tree.root.postorder():
            if node.is_tip:
                conditionals[node.index] = self.tip_partials[node.index]
                continue
            left, right = node.children
            p_left = self._transition(rate * left.branch_length).astype(self.dtype)
            p_right = self._transition(rate * right.branch_length).astype(self.dtype)
            cond = (conditionals[left.index] @ p_left.T) * (
                conditionals[right.index] @ p_right.T
            )
            # Rescale when any pattern risks underflow (MrBayes-style
            # periodic rescaling).
            maxima = cond.max(axis=1)
            if np.any(maxima < 1e-30) or self.dtype == np.float32 and np.any(
                maxima < 1e-15
            ):
                safe = np.where(maxima > 0.0, maxima, 1.0)
                cond = cond / safe[:, None]
                scale += np.log(safe)
            conditionals[node.index] = cond
        return conditionals[self.tree.root.index].astype(np.float64), scale
