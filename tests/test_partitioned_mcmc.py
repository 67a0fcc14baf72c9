"""Partitioned MCMC backend and memory-aware backend selection."""

import numpy as np
import pytest

from repro.core.highlevel import TreeLikelihood
from repro.mcmc import (
    BeagleBackend,
    ExponentialPrior,
    MarkovChain,
    PartitionedBackend,
)
from repro.mcmc.proposals import (
    BranchLengthMultiplier,
    NNIMove,
    ParameterMultiplier,
    PhyloState,
    ProposalMix,
)
from repro.model import HKY85, SiteModel
from repro.partition import (
    Partition,
    backend_fits_memory,
    blocks_of_sites,
    estimate_instance_memory,
    rank_backends,
)
from repro.seq import (
    compress_patterns,
    simulate_alignment,
    synthetic_pattern_set,
)
from repro.tree import yule_tree


@pytest.fixture(scope="module")
def pm_setup():
    tree = yule_tree(6, rng=500)
    model = HKY85(2.0)
    sm = SiteModel.gamma(0.5, 2)
    aln = simulate_alignment(tree, model, 300, sm, rng=501)
    parts = [
        Partition(f"p{i}", idx, model, sm)
        for i, idx in enumerate(blocks_of_sites(aln.n_sites, 2))
    ]
    return tree, aln, model, sm, parts


BRANCH_ONLY_MIX = ProposalMix(
    [BranchLengthMultiplier(), NNIMove()], [5.0, 2.0]
)


class TestPartitionedBackend:
    def _chain(self, tree, backend_factory, seed=77):
        state = PhyloState(tree=tree.copy(), parameters={})
        return MarkovChain(
            state, backend_factory(state), ExponentialPrior(10.0), {},
            BRANCH_ONLY_MIX, rng=seed,
        )

    def test_matches_single_instance_trajectory(self, pm_setup):
        tree, aln, model, sm, parts = pm_setup

        def factory(params):
            return model, sm

        a = self._chain(
            tree, lambda s: PartitionedBackend(s, aln, parts)
        )
        b = self._chain(
            tree, lambda s: BeagleBackend(
                s, compress_patterns(aln), factory
            )
        )
        for _ in range(25):
            a.step()
            b.step()
            assert np.isclose(a.log_likelihood, b.log_likelihood, rtol=1e-9)
        a.finalize()
        b.finalize()

    def test_parameter_moves_rejected(self, pm_setup):
        tree, aln, model, sm, parts = pm_setup
        state = PhyloState(tree=tree.copy(), parameters={"kappa": 2.0})
        backend = PartitionedBackend(state, aln, parts)
        mix = ProposalMix([ParameterMultiplier("kappa")], [1.0])
        chain = MarkovChain(
            state, backend, ExponentialPrior(10.0), {}, mix, rng=1
        )
        with pytest.raises(ValueError, match="fixed partition models"):
            chain.step()
        chain.finalize()


class TestMemoryAwareSelection:
    def test_estimate_scales_with_dimensions(self):
        small = estimate_instance_memory(8, 1000)
        bigger_patterns = estimate_instance_memory(8, 10_000)
        more_tips = estimate_instance_memory(64, 1000)
        double = estimate_instance_memory(8, 1000, precision="double")
        assert bigger_patterns > 5 * small
        assert more_tips > 5 * small
        assert double > 1.8 * small
        # Single precision, 4 states, 4 categories: the estimate is
        # exactly the bytes of a real instance's partials and (plain
        # plus gap-extended) matrix buffers, plus per-pattern scratch.
        tips, patterns, states, cats, itemsize = 8, 1000, 4, 4, 4
        for upper in (False, True):
            with TreeLikelihood(
                yule_tree(tips, rng=1),
                synthetic_pattern_set(tips, patterns, states, rng=2),
                HKY85(2.0),
                SiteModel.gamma(0.5, cats),
                enable_upper_partials=upper,
            ) as tl:
                config = tl.instance.config
            partials = (
                config.total_buffer_count * cats * patterns * states
                * itemsize
            )
            matrices = (
                config.matrix_buffer_count * cats * states
                * (2 * states + 1) * itemsize
            )
            assert estimate_instance_memory(
                tips, patterns, states, cats, enable_upper_partials=upper
            ) == partials + matrices + 4 * patterns * 8

    def test_r9_nano_filtered_on_huge_double_problems(self):
        # 127 buffers x 4 cats x 1M patterns x 4 states x 8 B ~ 16 GB:
        # too big for the 4 GB R9 Nano, fine for the 32 GB FirePro.
        big = dict(
            tips=64, patterns=1_000_000, states=4, categories=4,
            precision="double",
        )
        assert not backend_fits_memory(
            "opencl-gpu:AMD Radeon R9 Nano", **big
        )
        assert backend_fits_memory(
            "opencl-gpu:AMD FirePro S9170", **big  # 32 GB
        )
        ranked = rank_backends(64, 1_000_000, precision="double")
        assert all("R9 Nano" not in c.name for c in ranked)
        assert any("S9170" in c.name for c in ranked)

    def test_cpu_backends_unconstrained(self):
        assert backend_fits_memory(
            "cpp-threads:Intel Xeon E5-2680v4 x2",
            tips=64, patterns=1_000_000, precision="double",
        )

    def test_check_memory_can_be_disabled(self):
        ranked = rank_backends(
            64, 1_000_000, precision="double", check_memory=False
        )
        assert any("R9 Nano" in c.name for c in ranked)

    def test_no_backend_fits(self):
        with pytest.raises(ValueError, match="enough device memory"):
            rank_backends(
                64, 1_000_000, precision="double",
                backends=["opencl-gpu:AMD Radeon R9 Nano"],
            )
