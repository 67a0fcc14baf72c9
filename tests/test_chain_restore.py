"""Double-buffered MCMC restore: exact chain values, no kernel work.

A rejected proposal is undone by flipping buffer slots back
(``TreeLikelihood.store``/``revert``), not by recomputing it.  The
differential test below is the gate for that: after every step the
chain's log-likelihood must equal, with ``==``, a from-scratch
evaluation of the chain's state on a fresh instance of the same
configuration.  A slot read through the wrong map (a scale buffer, an
upper-partials sibling read, a stale cumulative buffer) shows up here as
a mismatch within a few steps.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.config import backend_flags
from repro.core.highlevel import TreeLikelihood
from repro.mcmc import (
    MarkovChain,
    PartitionedBackend,
    PhyloState,
    default_mix,
    nucleotide_analysis,
)
from repro.mcmc.chain import BeagleBackend
from repro.mcmc.proposals import (
    BranchLengthMultiplier,
    NNIMove,
    ProposalMix,
    gradient_mix,
)
from repro.obs import MetricsRegistry, Tracer
from repro.partition import Partition, PartitionedLikelihood, blocks_of_sites
from repro.seq import compress_patterns, simulate_alignment
from repro.tree import balanced_tree, yule_tree

STEPS = 210


def _analysis(taxa: int, sites: int, seed: int):
    tree = yule_tree(taxa, rng=seed)
    spec = nucleotide_analysis(tree, None)
    model, site = spec.model_factory(spec.initial_parameters)
    aln = simulate_alignment(tree, model, sites, site, rng=seed + 1)
    return spec, aln


def _fresh_logl(state, data, factory, kwargs) -> float:
    model, site = factory(state.parameters)
    with TreeLikelihood(state.tree.copy(), data, model, site,
                        **kwargs) as tl:
        return tl.log_likelihood()


def _run_and_compare(chain, fresh, steps=STEPS):
    """Step ``chain``; return mismatches and rejected moves per kind."""
    mismatches = []
    rejected = Counter()
    for i in range(steps):
        before = dict(chain.stats.proposed)
        accepted = chain.step()
        name = next(n for n, c in chain.stats.proposed.items()
                    if c != before.get(n, 0))
        if not accepted:
            rejected[name] += 1
        want = fresh(chain.state)
        if chain.log_likelihood != want:
            mismatches.append((i, name, accepted, chain.log_likelihood,
                               want))
    return mismatches, rejected


#: name -> (instance keywords, taxa, sites)
CONFIGS = {
    "cpu-sse": (backend_flags("cpu-sse"), 10, 200),
    "cpu-serial": (backend_flags("cpu-serial"), 8, 60),
    "scaling": (dict(backend_flags("cpu-sse"), use_scaling=True), 10, 200),
    # 24 taxa in single precision: a few internal nodes really rescale
    # (checked below), so the scale-buffer slots matter.
    "dynamic": (dict(backend_flags("cpu-sse"), use_scaling="dynamic",
                     precision="single"), 24, 150),
    "deferred": (dict(backend_flags("cpu-sse"), deferred=True), 10, 200),
    "cuda": (backend_flags("cuda"), 10, 200),
}


class TestChainMatchesFreshEvaluation:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_default_mix(self, name):
        kwargs, taxa, sites = CONFIGS[name]
        spec, aln = _analysis(taxa, sites, seed=3)
        data = compress_patterns(aln)
        state = PhyloState(tree=spec.tree.copy(),
                           parameters=dict(spec.initial_parameters))
        backend = BeagleBackend(state, data, spec.model_factory, **kwargs)
        chain = MarkovChain(
            state, backend, spec.branch_prior, spec.parameter_priors,
            default_mix(sorted(spec.initial_parameters)), rng=5,
        )
        if name == "dynamic":
            impl = backend.tl.instance.impl
            assert any(
                np.any(impl.get_scale_factors(i) != 0.0)
                for i in range(spec.tree.n_internal)
            ), "the dynamic-scaling case must really rescale"
        mismatches, rejected = _run_and_compare(
            chain,
            lambda s: _fresh_logl(s, data, spec.model_factory, kwargs),
        )
        chain.finalize()
        assert mismatches == []
        # Every kind of restore was exercised.
        for kind in ("branch-multiplier", "nni", "multiplier(kappa)",
                     "multiplier(alpha)"):
            assert rejected[kind] > 0, (kind, rejected)

    def test_upper_partials_with_gradient_mix(self):
        kwargs = dict(backend_flags("cpu-sse"), enable_upper_partials=True)
        spec, aln = _analysis(10, 200, seed=7)
        data = compress_patterns(aln)
        state = PhyloState(tree=spec.tree.copy(),
                           parameters=dict(spec.initial_parameters))
        backend = BeagleBackend(state, data, spec.model_factory, **kwargs)
        chain = MarkovChain(
            state, backend, spec.branch_prior, spec.parameter_priors,
            gradient_mix(sorted(spec.initial_parameters),
                         backend.branch_gradients),
            rng=9,
        )
        mismatches, rejected = _run_and_compare(
            chain,
            lambda s: _fresh_logl(s, data, spec.model_factory, kwargs),
        )
        chain.finalize()
        assert mismatches == []
        assert rejected["gradient-branch-sweep"] > 0, rejected
        assert rejected["branch-multiplier"] > 0, rejected

    def test_partitioned_backend(self):
        spec, aln = _analysis(10, 240, seed=11)
        model, site = spec.model_factory(spec.initial_parameters)
        parts = [
            Partition(f"p{i}", idx, model, site)
            for i, idx in enumerate(blocks_of_sites(aln.n_sites, 2))
        ]
        kwargs = backend_flags("cpu-sse")
        state = PhyloState(tree=spec.tree.copy(), parameters={})
        chain = MarkovChain(
            state, PartitionedBackend(state, aln, parts, **kwargs),
            spec.branch_prior, {},
            ProposalMix([BranchLengthMultiplier(), NNIMove()], [5.0, 2.0]),
            rng=13,
        )

        def fresh(s):
            with PartitionedLikelihood(s.tree.copy(), aln, parts,
                                       **kwargs) as pl:
                return pl.log_likelihood()

        mismatches, rejected = _run_and_compare(chain, fresh)
        chain.finalize()
        assert mismatches == []
        assert rejected["branch-multiplier"] > 0, rejected
        assert rejected["nni"] > 0, rejected


class TestStoreRevert:
    """``TreeLikelihood.store``/``revert`` and the readers of the slot map."""

    @staticmethod
    def _setup(**kwargs):
        tree = balanced_tree(8, branch_length=0.1, rng=1)
        spec = nucleotide_analysis(tree, None)
        model, site = spec.model_factory(spec.initial_parameters)
        data = compress_patterns(
            simulate_alignment(tree, model, 120, site, rng=2)
        )
        tl = TreeLikelihood(tree.copy(), data, model, site, **kwargs)
        return tl, data, model, site, kwargs

    @staticmethod
    def _edit(tree, factor=1.7):
        edited = [n.index for n in tree.root.postorder()
                  if not n.is_root][::3]
        for idx in edited:
            node = tree.node_by_index(idx)
            node.branch_length *= factor
        return edited

    def test_no_store_point_keeps_the_identity_layout(self):
        tl, *_ = self._setup()
        tl.log_likelihood()
        tl.update_branch_lengths(self._edit(tl.tree))
        n = tl.tree.n_nodes
        assert [tl.partials_index(v) for v in range(n)] == list(range(n))
        assert [tl.matrix_index(v) for v in range(n)] == list(range(n))
        with pytest.raises(RuntimeError, match="store point"):
            tl.revert()
        tl.finalize()

    @pytest.mark.parametrize("scaling", [False, True])
    def test_revert_returns_to_the_store_point(self, scaling):
        tl, data, model, site, kwargs = self._setup(use_scaling=scaling)
        before = tl.log_likelihood()
        sites_before = np.array(tl.site_log_likelihoods())
        tl.store()
        lengths = tl.tree.branch_lengths()
        edited = self._edit(tl.tree)
        assert tl.update_branch_lengths(edited) != before
        for idx, t in lengths.items():
            tl.tree.node_by_index(idx).branch_length = t
        tl.revert()
        # Nothing recomputed, yet the per-pattern values (read through
        # the reverted cumulative scale buffer) are the stored ones.
        assert np.array_equal(tl.site_log_likelihoods(), sites_before)
        # A second proposal from the reverted state is exact too.
        edited = self._edit(tl.tree, factor=0.6)
        got = tl.update_branch_lengths(edited)
        with TreeLikelihood(tl.tree.copy(), data, model, site,
                            use_scaling=scaling) as fresh:
            assert got == fresh.log_likelihood()
        tl.finalize()

    def test_readers_follow_the_slot_map(self):
        # After store() and an edit, slot 0 of every written node holds
        # the stale pre-edit values: any reader that addresses buffers
        # by node index disagrees with a fresh instance.
        tl, data, model, site, _ = self._setup(enable_upper_partials=True)
        tl.log_likelihood()
        tl.store()
        lengths = tl.tree.branch_lengths()
        self._edit(tl.tree)
        left, right = tl.tree.root.children
        left.branch_length *= 1.3
        tl.log_likelihood()
        fresh = TreeLikelihood(tl.tree.copy(), data, model, site,
                               enable_upper_partials=True)
        fresh.log_likelihood()
        assert tl.root_edge_derivatives() == fresh.root_edge_derivatives()
        assert np.array_equal(tl.branch_gradient(),
                              fresh.branch_gradient())
        for node in tl.tree.root.preorder():
            v = node.index
            assert (tl.upper.node_log_likelihood(v)
                    == fresh.upper.node_log_likelihood(v))
            if node.is_root:
                continue
            assert (tl.upper.edge_log_likelihood(v)
                    == fresh.upper.edge_log_likelihood(v))
            assert (tl.upper.branch_derivatives(v, 0.05)
                    == fresh.upper.branch_derivatives(v, 0.05))
        tl.revert()
        with pytest.raises(RuntimeError, match="stale"):
            tl.upper.edge_log_likelihood(1)
        # The probes above left the stored buffers intact: a path update
        # on the right reads the left root child's stored matrix.
        for idx, t in lengths.items():
            tl.tree.node_by_index(idx).branch_length = t
        tip = next(right.tips())
        tip.branch_length *= 0.8
        got = tl.update_branch_lengths([tip.index])
        with TreeLikelihood(tl.tree.copy(), data, model, site) as again:
            assert got == again.log_likelihood()
        tl.finalize()
        fresh.finalize()


class _CountingBackend:
    """Delegates to a ``BeagleBackend``; records kernel counters per call."""

    def __init__(self, backend, metrics) -> None:
        self.backend = backend
        self.metrics = metrics
        self.restore_work = []  # (proposal kind, partials ops, matrices)
        self.eval_work = []

    def _counts(self):
        return (self.metrics.counter("partials.operations").value,
                self.metrics.counter("matrix.updates").value)

    def _kind(self, pr):
        if pr.parameters_changed:
            return "param"
        return "topo" if pr.topology_changed else "branch"

    def initial(self, state):
        return self.backend.initial(state)

    def propose_eval(self, state, pr):
        ops0, mats0 = self._counts()
        value = self.backend.propose_eval(state, pr)
        ops1, mats1 = self._counts()
        self.eval_work.append((self._kind(pr), ops1 - ops0, mats1 - mats0))
        return value

    def restore(self, state, pr):
        ops0, mats0 = self._counts()
        self.backend.restore(state, pr)
        ops1, mats1 = self._counts()
        self.restore_work.append(
            (self._kind(pr), ops1 - ops0, mats1 - mats0)
        )

    def finalize(self):
        self.backend.finalize()


class TestRestoreDoesNoKernelWork:
    def test_rejected_moves_add_no_operations_or_matrix_updates(self):
        spec, aln = _analysis(10, 200, seed=3)
        data = compress_patterns(aln)
        state = PhyloState(tree=spec.tree.copy(),
                           parameters=dict(spec.initial_parameters))
        inner = BeagleBackend(state, data, spec.model_factory,
                              **backend_flags("cpu-sse"))
        metrics = MetricsRegistry()
        inner.tl.instrument(Tracer(enabled=True), metrics)
        backend = _CountingBackend(inner, metrics)
        chain = MarkovChain(
            state, backend, spec.branch_prior, spec.parameter_priors,
            default_mix(sorted(spec.initial_parameters)), rng=5,
        )
        chain.run(120)
        chain.finalize()

        kinds = {kind for kind, _ops, _mats in backend.restore_work}
        assert kinds == {"branch", "topo", "param"}
        assert all(ops == 0 and mats == 0
                   for _kind, ops, mats in backend.restore_work), (
            backend.restore_work)
        # The counters do see the evaluations themselves.
        assert all(ops > 0 and mats > 0
                   for _kind, ops, mats in backend.eval_work)
