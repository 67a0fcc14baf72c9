"""Site-pattern compression.

Identical alignment columns contribute identical per-site likelihoods, so
inference programs collapse them to *unique site patterns* with integer
weights before calling BEAGLE (``setPatternWeights``).  The paper reports
every benchmark in unique-pattern counts — e.g. the Fig. 6 nucleotide
dataset has 742,668 sites but only 306,780 unique patterns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.seq.alignment import Alignment


@dataclass(frozen=True)
class PatternSet:
    """Unique columns of an alignment plus their multiplicities.

    Attributes
    ----------
    alignment:
        A reduced :class:`Alignment` whose columns are the unique patterns
        in first-occurrence order.
    weights:
        Multiplicity of each pattern in the original alignment; the
        weights sum to the original site count.
    site_to_pattern:
        For each original site, the index of its pattern.
    tip_states:
        Read-only int32 ``setTipStates`` codes of the patterns, shape
        ``(n_sequences, n_patterns)``; row *i* is ``alignment.names[i]``.
        Encoded once, at construction (see
        :meth:`Alignment.encode_states`), so every instance loaded from
        this set gathers its tips from here instead of re-tokenising;
        a :meth:`chunk` holds a view of it.
    """

    alignment: Alignment
    weights: np.ndarray
    site_to_pattern: np.ndarray
    tip_states: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        tip_states = self.alignment.encode_states()
        tip_states.flags.writeable = False
        object.__setattr__(self, "tip_states", tip_states)

    @property
    def n_patterns(self) -> int:
        return self.alignment.n_sites

    @property
    def n_sites(self) -> int:
        return int(self.weights.sum())

    def chunk(self, lo: int, hi: int) -> "PatternSet":
        """Patterns ``lo`` to ``hi`` (exclusive) as their own set.

        The chunk's ``tip_states`` and ``weights`` are views of this
        set's, so nothing is encoded again; each chunk pattern is its own
        site.  A multi-device split and the cluster's shards are built
        from these.
        """
        chunk = object.__new__(PatternSet)
        for name, value in (
            ("alignment", self.alignment.site_range(lo, hi)),
            ("weights", self.weights[lo:hi]),
            ("site_to_pattern", np.arange(hi - lo)),
            ("tip_states", self.tip_states[:, lo:hi]),
        ):
            object.__setattr__(chunk, name, value)
        return chunk


def compress_patterns(alignment: Alignment) -> PatternSet:
    """Collapse identical columns into weighted unique patterns."""
    first_seen: Dict[Tuple[str, ...], int] = {}
    weights: List[int] = []
    site_to_pattern = np.empty(alignment.n_sites, dtype=np.int64)
    order: List[int] = []
    for site, column in enumerate(alignment.columns()):
        idx = first_seen.get(column)
        if idx is None:
            idx = len(first_seen)
            first_seen[column] = idx
            weights.append(0)
            order.append(site)
        weights[idx] += 1
        site_to_pattern[site] = idx
    reduced = alignment.sites(order)
    return PatternSet(
        alignment=reduced,
        weights=np.asarray(weights, dtype=float),
        site_to_pattern=site_to_pattern,
    )


def expand_site_values(
    pattern_values: np.ndarray, pattern_set: PatternSet
) -> np.ndarray:
    """Map per-pattern values back onto per-site values.

    Useful for reporting site log-likelihoods over the original alignment
    from results computed on the compressed patterns.
    """
    pattern_values = np.asarray(pattern_values)
    if pattern_values.shape[0] != pattern_set.n_patterns:
        raise ValueError(
            f"expected {pattern_set.n_patterns} pattern values, "
            f"got {pattern_values.shape[0]}"
        )
    return pattern_values[pattern_set.site_to_pattern]
