"""Sequence simulation down a tree — the data half of genomictest.

Given a tree, a substitution model, and a site model, characters evolve
from a root draw (stationary frequencies) through each branch with
transition probabilities ``P(rate_c * t)``, with each site assigned a rate
category.  This is the generator behind every synthetic benchmark dataset
in this reproduction (the paper's genomictest "generates random synthetic
datasets of arbitrary sizes", section V-A).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.model.ratematrix import SubstitutionModel
from repro.model.sitemodel import SiteModel
from repro.seq.alignment import Alignment
from repro.seq.patterns import PatternSet, compress_patterns
from repro.tree.tree import Tree
from repro.util.rng import SeedLike, spawn_rng


def _sample_rows(p: np.ndarray, states: np.ndarray, rng) -> np.ndarray:
    """Vectorised categorical draw: next_state[i] ~ P[states[i], :]."""
    cdf = np.cumsum(p, axis=1)
    cdf[:, -1] = 1.0  # guard against round-off
    u = rng.random(states.size)
    return (u[:, None] > cdf[states]).sum(axis=1).astype(np.int64)


def simulate_alignment(
    tree: Tree,
    model: SubstitutionModel,
    n_sites: int,
    site_model: Optional[SiteModel] = None,
    rng: SeedLike = None,
) -> Alignment:
    """Simulate ``n_sites`` characters for every tip of ``tree``.

    Returns an :class:`Alignment` whose rows are ordered by tip index, so
    row *i* pairs with partials buffer *i* when the same tree drives a
    BEAGLE instance.
    """
    if n_sites < 1:
        raise ValueError(f"need at least one site, got {n_sites}")
    rng = spawn_rng(rng)
    site_model = site_model or SiteModel.uniform()

    category = rng.choice(
        site_model.n_categories, size=n_sites, p=site_model.weights
    )
    root_states = rng.choice(
        model.n_states, size=n_sites, p=model.frequencies / model.frequencies.sum()
    )

    states_at: Dict[int, np.ndarray] = {tree.root.index: root_states}
    for node in tree.root.preorder():
        if node.is_root:
            continue
        parent_states = states_at[node.parent.index]
        child_states = np.empty(n_sites, dtype=np.int64)
        for c, rate in enumerate(site_model.rates):
            mask = category == c
            if not np.any(mask):
                continue
            if rate == 0.0:
                child_states[mask] = parent_states[mask]
                continue
            p = model.transition_matrix(rate * node.branch_length)
            # Normalise rows defensively: clipping in transition_matrix can
            # leave rows a hair under 1.
            p = p / p.sum(axis=1, keepdims=True)
            child_states[mask] = _sample_rows(p, parent_states[mask], rng)
        states_at[node.index] = child_states
        if not node.is_tip:
            continue
    tips = sorted(tree.root.tips(), key=lambda n: n.index)
    names = [t.name or f"taxon{t.index}" for t in tips]
    symbols = model.state_space.symbols
    rows: List[List[str]] = [
        [symbols[s] for s in states_at[t.index]] for t in tips
    ]
    return Alignment(names, rows, model.state_space)


def simulate_patterns(
    tree: Tree,
    model: SubstitutionModel,
    n_sites: int,
    site_model: Optional[SiteModel] = None,
    rng: SeedLike = None,
) -> PatternSet:
    """Simulate and immediately compress to unique site patterns."""
    aln = simulate_alignment(tree, model, n_sites, site_model, rng)
    return compress_patterns(aln)


def synthetic_pattern_set(
    n_taxa: int,
    n_unique_patterns: int,
    state_count: int,
    rng: SeedLike = None,
) -> "SyntheticPatterns":
    """Directly generate ``n_unique_patterns`` random unique patterns.

    The paper's kernel benchmarks are parameterised by the *unique* pattern
    count, which evolutionary simulation only hits approximately; for
    benchmarking we instead draw i.i.d. uniform states — like genomictest,
    whose datasets are random rather than evolutionarily simulated — and
    deduplicate to exactly the requested count.
    """
    rng = spawn_rng(rng)
    if n_taxa < 2 or n_unique_patterns < 1 or state_count < 2:
        raise ValueError("need n_taxa >= 2, patterns >= 1, states >= 2")
    if state_count ** n_taxa < n_unique_patterns * 2 and n_taxa <= 12:
        # Small state/taxon combinations may not have enough distinct
        # columns; widen by allowing duplicates in that degenerate case.
        pass
    seen = set()
    columns = np.empty((n_unique_patterns, n_taxa), dtype=np.int32)
    filled = 0
    attempts = 0
    max_attempts = 50 * n_unique_patterns + 1000
    while filled < n_unique_patterns:
        batch = rng.integers(
            0, state_count, size=(n_unique_patterns - filled, n_taxa),
            dtype=np.int32,
        )
        for row in batch:
            attempts += 1
            key = row.tobytes()
            if key in seen:
                if attempts > max_attempts:
                    raise ValueError(
                        f"cannot generate {n_unique_patterns} unique patterns "
                        f"for {n_taxa} taxa x {state_count} states"
                    )
                continue
            seen.add(key)
            columns[filled] = row
            filled += 1
    weights = rng.integers(1, 4, size=n_unique_patterns).astype(float)
    return SyntheticPatterns(
        tip_states=np.ascontiguousarray(columns.T),
        weights=weights,
        state_count=state_count,
    )


class SyntheticPatterns:
    """Pre-encoded random tip data for kernel benchmarking.

    Unlike :class:`~repro.seq.patterns.PatternSet` this skips the token
    layer entirely: ``tip_states[t]`` is the int32 state row for taxon
    *t*, ready for ``setTipStates``.
    """

    def __init__(
        self, tip_states: np.ndarray, weights: np.ndarray, state_count: int
    ) -> None:
        self.tip_states = tip_states
        self.weights = weights
        self.state_count = state_count

    @property
    def n_taxa(self) -> int:
        return self.tip_states.shape[0]

    @property
    def n_patterns(self) -> int:
        return self.tip_states.shape[1]

    def chunk(self, lo: int, hi: int) -> "SyntheticPatterns":
        """Patterns ``lo`` to ``hi`` (exclusive), as views of this set's
        ``tip_states`` and ``weights``."""
        return SyntheticPatterns(
            tip_states=self.tip_states[:, lo:hi],
            weights=self.weights[lo:hi],
            state_count=self.state_count,
        )
