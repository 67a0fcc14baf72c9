"""A single (possibly heated) Markov chain over phylogenetic states."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Protocol, Tuple, Union

import numpy as np

from repro.core.highlevel import TreeLikelihood
from repro.mcmc.native import NativeLikelihood
from repro.mcmc.priors import Prior, branch_lengths_log_prior
from repro.mcmc.proposals import PhyloState, ProposalMix, ProposalResult
from repro.model.ratematrix import SubstitutionModel
from repro.model.sitemodel import SiteModel
from repro.util.rng import SeedLike, spawn_rng

#: Builds (substitution model, site model) from the state's parameters.
ModelFactory = Callable[[Dict[str, float]], Tuple[SubstitutionModel, SiteModel]]


class LikelihoodBackend(Protocol):
    """What a chain needs from its likelihood engine."""

    def initial(self, state: PhyloState) -> float: ...
    def propose_eval(self, state: PhyloState, pr: ProposalResult) -> float: ...
    def restore(self, state: PhyloState, pr: ProposalResult) -> None: ...
    def finalize(self) -> None: ...


class BeagleBackend:
    """Chain likelihoods through a BEAGLE instance.

    Branch-length moves use incremental re-evaluation (only ancestors of
    the edited branch recompute); topology and parameter moves trigger a
    full traversal, with parameter moves also re-installing the model.

    A rejected move is undone by flipping buffer slots back
    (:meth:`TreeLikelihood.revert`), not by recomputing it.  The store
    point is taken lazily, at the first evaluation after an accepted
    proposal — which may be the gradient provider's, inside
    ``propose()`` — so a proposal's every write lands in the spare slots.
    """

    def __init__(
        self,
        state: PhyloState,
        data,
        model_factory: ModelFactory,
        **instance_kwargs,
    ) -> None:
        self.model_factory = model_factory
        model, site_model = model_factory(state.parameters)
        self.tl = TreeLikelihood(
            state.tree, data, model, site_model, **instance_kwargs
        )
        # Whether the next evaluation takes a store point first: at
        # start-up and after an accepted proposal.  propose_eval sets it
        # (the proposal stands unless restore() follows); restore clears
        # it, because the store point is the current state again.
        self._store_due = True

    def _store_if_due(self) -> None:
        if self._store_due:
            self.tl.store()
            self._store_due = False

    def _refresh_model(self, state: PhyloState) -> None:
        model, site_model = self.model_factory(state.parameters)
        if site_model.n_categories != self.tl.site_model.n_categories:
            raise ValueError("category count cannot change during a run")
        self.tl.model = model
        self.tl.site_model = site_model
        self.tl.instance.set_substitution_model(0, model)
        self.tl.instance.set_category_rates(site_model.rates)
        self.tl.instance.set_category_weights(0, site_model.weights)

    def initial(self, state: PhyloState) -> float:
        return self.tl.log_likelihood()

    def branch_gradients(self, node_indices) -> np.ndarray:
        """Batched ``(logL, d1, d2)`` rows for the branches above
        ``node_indices`` at the tree's current lengths.

        The gradient provider for
        :class:`repro.mcmc.proposals.GradientBranchSweep`: one upward
        and one downward traversal plus a single fused gradient launch,
        regardless of how many branches are asked for.  Requires the
        backend to have been built with ``enable_upper_partials=True``
        (and without scaling).
        """
        self._store_if_due()
        return self.tl.branch_gradient(node_indices)

    def propose_eval(self, state: PhyloState, pr: ProposalResult) -> float:
        self._store_if_due()
        # Unless restore() comes next, this proposal is accepted.
        self._store_due = True
        if pr.parameters_changed:
            self._refresh_model(state)
            return self.tl.log_likelihood()
        if pr.topology_changed:
            self.tl.invalidate()
            return self.tl.log_likelihood()
        if pr.dirty_nodes:
            return self.tl.update_branch_lengths(pr.dirty_nodes)
        return self.tl.log_likelihood()

    def restore(self, state: PhyloState, pr: ProposalResult) -> None:
        if pr.parameters_changed:
            self._refresh_model(state)
        self.tl.revert()
        self._store_due = False

    def finalize(self) -> None:
        self.tl.finalize()


class PartitionedBackend:
    """Chain likelihoods through one instance per data partition.

    Wires :class:`repro.partition.multi.PartitionedLikelihood` into the
    sampler so heavily partitioned datasets follow the paper's
    one-instance-per-subset pattern *inside* an MCMC run.  Partition
    models are fixed for the run (branch-length and topology moves only);
    a parameter move raises, so use a proposal mix without parameter
    proposals.  Rejected moves revert every component's buffer slots,
    as in :class:`BeagleBackend`.
    """

    def __init__(self, state: PhyloState, alignment, partitions,
                 **shared_instance_kwargs) -> None:
        from repro.partition.multi import PartitionedLikelihood

        self.pl = PartitionedLikelihood(
            state.tree, alignment, partitions, **shared_instance_kwargs
        )
        self._store_due = True

    def initial(self, state: PhyloState) -> float:
        return self.pl.log_likelihood()

    def propose_eval(self, state: PhyloState, pr: ProposalResult) -> float:
        if pr.parameters_changed:
            raise ValueError(
                "PartitionedBackend runs with fixed partition models; "
                "remove parameter proposals from the mix"
            )
        if self._store_due:
            for component in self.pl.components:
                component.store()
        # Unless restore() comes next, this proposal is accepted.
        self._store_due = True
        if pr.topology_changed:
            for component in self.pl.components:
                component.invalidate()
            return self.pl.log_likelihood()
        if pr.dirty_nodes:
            return self.pl.update_branch_lengths(pr.dirty_nodes)
        return self.pl.log_likelihood()

    def restore(self, state: PhyloState, pr: ProposalResult) -> None:
        for component in self.pl.components:
            component.revert()
        self._store_due = False

    def finalize(self) -> None:
        self.pl.finalize()


class NativeBackend:
    """Chain likelihoods through the stand-alone MrBayes-style evaluator."""

    def __init__(
        self,
        state: PhyloState,
        data,
        model_factory: ModelFactory,
        precision: str = "single",
    ) -> None:
        self.model_factory = model_factory
        model, site_model = model_factory(state.parameters)
        self.engine = NativeLikelihood(
            state.tree, data, model, site_model, precision=precision
        )

    def initial(self, state: PhyloState) -> float:
        return self.engine.log_likelihood()

    def propose_eval(self, state: PhyloState, pr: ProposalResult) -> float:
        if pr.parameters_changed:
            model, site_model = self.model_factory(state.parameters)
            self.engine.set_model(model)
            self.engine.site_model = site_model
        return self.engine.log_likelihood()

    def restore(self, state: PhyloState, pr: ProposalResult) -> None:
        if pr.parameters_changed:
            model, site_model = self.model_factory(state.parameters)
            self.engine.set_model(model)
            self.engine.site_model = site_model

    def finalize(self) -> None:  # nothing persistent to release
        pass


@dataclass
class AcceptanceStats:
    proposed: Dict[str, int] = field(default_factory=dict)
    accepted: Dict[str, int] = field(default_factory=dict)

    def record(self, name: str, accepted: bool) -> None:
        self.proposed[name] = self.proposed.get(name, 0) + 1
        if accepted:
            self.accepted[name] = self.accepted.get(name, 0) + 1

    def rate(self, name: str) -> float:
        proposed = self.proposed.get(name, 0)
        return self.accepted.get(name, 0) / proposed if proposed else 0.0


class MarkovChain:
    """Metropolis-Hastings over (tree, parameters) with a heat exponent.

    ``heat`` multiplies the log posterior (MrBayes' incremental-heating
    scheme); the cold chain has heat 1.
    """

    def __init__(
        self,
        state: PhyloState,
        backend: LikelihoodBackend,
        branch_prior: Prior,
        parameter_priors: Dict[str, Prior],
        mix: ProposalMix,
        heat: float = 1.0,
        rng: SeedLike = None,
    ) -> None:
        if heat <= 0:
            raise ValueError(f"heat must be positive, got {heat}")
        missing = set(parameter_priors) - set(state.parameters)
        if missing:
            raise ValueError(f"priors for unknown parameters: {sorted(missing)}")
        self.state = state
        self.backend = backend
        self.branch_prior = branch_prior
        self.parameter_priors = parameter_priors
        self.mix = mix
        self.heat = heat
        self.rng = spawn_rng(rng)
        self.stats = AcceptanceStats()
        self.generation = 0
        self.log_likelihood = backend.initial(state)
        self.log_prior = self._log_prior()

    def _log_prior(self) -> float:
        lp = branch_lengths_log_prior(self.state.tree, self.branch_prior)
        for name, prior in self.parameter_priors.items():
            lp += prior.log_pdf(self.state.parameters[name])
        return lp

    @property
    def log_posterior(self) -> float:
        return self.log_likelihood + self.log_prior

    def step(self) -> bool:
        """One proposal; returns True if accepted."""
        proposal = self.mix.draw(self.rng)
        pr = proposal.propose(self.state, self.rng)
        new_ll = self.backend.propose_eval(self.state, pr)
        new_lp = self._log_prior()
        log_ratio = (
            self.heat * ((new_ll + new_lp) - (self.log_likelihood + self.log_prior))
            + pr.log_hastings
        )
        accept = math.log(self.rng.random()) < log_ratio
        if accept:
            self.log_likelihood = new_ll
            self.log_prior = new_lp
        else:
            pr.undo()
            self.backend.restore(self.state, pr)
        self.stats.record(proposal.name, accept)
        self.generation += 1
        return accept

    def run(self, generations: int) -> None:
        for _ in range(generations):
            self.step()

    def finalize(self) -> None:
        self.backend.finalize()
