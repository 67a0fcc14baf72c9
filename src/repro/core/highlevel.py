"""High-level convenience: tree + data + model -> log-likelihood.

BEAGLE itself has no tree type; this helper is the canonical *client*
gluing the tree substrate to an instance — the pattern every example and
the MCMC application follow.  It owns the buffer-index conventions and
supports incremental re-evaluation after branch edits, which is what
makes MCMC proposals cheap.

Buffer layout (``n`` nodes, ``k = n - n_tips`` internal nodes, ``u`` the
upper-partials buffers of :mod:`repro.core.upper` — ``n + 1`` when
enabled, else none):

=====================  ==============================================
partials ``0..n-1``    slot 0 of node *i* (tips never change)
partials ``n..n+u-1``  upper partials
partials ``n+u..``     slot 1 of internal node *i* at ``n + u + i - n_tips``
matrices ``0..n-1``    slot 0 of the branch above node *i*
matrices ``n, n+1``    first/second derivative scratch
matrix ``n+2``         identity (upper partials only)
matrices after those   slot 1 of the branch above node *i*, in node order
scale ``0..k-1``       slot 0 of internal node *i* at ``i - n_tips``
scale ``k``            slot 0 of the cumulative buffer
scale ``k+1..2k+1``    slot 1 of the same, in the same order
=====================  ==============================================

A per-node slot map says which slot holds each node's current partials
(and scale factors) and branch matrix.  It stays the identity — buffer
*i* is node *i*, today's layout — unless a client opens a store point
with :meth:`TreeLikelihood.store`: from then on the first write of a
node's partials or matrix goes to the slot the store point does not
reference, and :meth:`TreeLikelihood.revert` returns to the store point
by resetting the map, computing nothing (BEAST's storeState and
restoreState; MrBayes flips its buffer indices the same way).
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.core.flags import OP_NONE, Flag
from repro.core.instance import BeagleInstance
from repro.core.types import InstanceConfig, Operation
from repro.model.ratematrix import SubstitutionModel
from repro.model.sitemodel import SiteModel
from repro.seq.patterns import PatternSet
from repro.seq.simulate import SyntheticPatterns
from repro.tree.traversal import plan_partial_update, plan_traversal
from repro.tree.tree import Tree


def instance_config(
    n_tips: int,
    n_patterns: int,
    state_count: int,
    category_count: int,
    *,
    use_tip_states: bool = True,
    use_scaling: bool = False,
    enable_upper_partials: bool = False,
) -> InstanceConfig:
    """The buffer counts of a :class:`TreeLikelihood` instance.

    Follows the layout in the module docstring for a rooted binary tree
    of ``n_tips`` tips.  Memory estimates
    (:func:`repro.partition.autoselect.estimate_instance_memory`) size
    instances from the same counts.
    """
    n_nodes = 2 * n_tips - 1
    n_internal = n_nodes - n_tips
    # Two matrices hold first/second derivatives for Newton-style branch
    # optimisation (see root_edge_derivatives); upper-partials mode adds
    # n+1 partials buffers and an identity matrix (see
    # repro.core.upper).  Slot 1 of every internal node's partials and
    # of every branch matrix follows.
    extra_partials = (n_nodes + 1) if enable_upper_partials else 0
    extra_matrices = 3 if enable_upper_partials else 2
    return InstanceConfig(
        tip_count=n_tips,
        partials_buffer_count=(
            n_nodes - (n_tips if use_tip_states else 0) + extra_partials
            + n_internal
        ),
        compact_buffer_count=n_tips if use_tip_states else 0,
        state_count=state_count,
        pattern_count=n_patterns,
        eigen_buffer_count=1,
        matrix_buffer_count=2 * n_nodes + extra_matrices,
        category_count=category_count,
        scale_buffer_count=2 * (n_internal + 1) if use_scaling else 0,
    )


class TreeLikelihood:
    """Evaluate (and re-evaluate) one alignment's likelihood on one tree.

    Parameters
    ----------
    tree:
        A rooted binary tree whose tip names match the data's names (for
        a :class:`PatternSet`) or whose tip indices match the data's rows
        (for :class:`SyntheticPatterns`).
    data:
        Compressed site patterns.
    model:
        Substitution model (supplies eigensystem and frequencies).
    site_model:
        Rate-heterogeneity categories; default is a single rate.
    use_tip_states:
        Store tips compactly as integer state codes (faster kernels) or
        as indicator partials (preserves partial ambiguity).
    use_scaling:
        Enable per-node rescaling — required for large trees where
        partials underflow.  ``True``/``"always"`` rescales every
        pattern at every node; ``"dynamic"`` rescales only patterns whose
        maximum partial has drifted below a safety threshold
        (``BEAGLE_FLAG_SCALING_DYNAMIC``), trading a per-pattern check
        for far fewer divisions.
    enable_upper_partials:
        Allocate the extra buffers needed by
        :class:`repro.core.upper.UpperPartials` (edge likelihoods and
        Newton derivatives on every branch).  Costs ~3x the partials
        memory.
    deferred:
        Record matrix updates and partials operations into an execution
        plan instead of running them eagerly; the plan executes at each
        likelihood call.  Results are bit-identical to eager mode, but
        backends may batch or reorder independent work within a level
        (see :mod:`repro.core.plan`).
    instance_kwargs:
        Passed through to instance creation (``preference_flags``,
        ``resource_ids``, ``precision``, ...).
    """

    def __init__(
        self,
        tree: Tree,
        data: Union[PatternSet, SyntheticPatterns],
        model: SubstitutionModel,
        site_model: Optional[SiteModel] = None,
        use_tip_states: bool = True,
        use_scaling=False,
        enable_upper_partials: bool = False,
        deferred: bool = False,
        **instance_kwargs,
    ) -> None:
        site_model = site_model or SiteModel.uniform()
        self.tree = tree
        self.model = model
        self.site_model = site_model
        if use_scaling not in (False, True, "always", "dynamic"):
            raise ValueError(
                f"use_scaling must be False, True, 'always' or 'dynamic'; "
                f"got {use_scaling!r}"
            )
        self.use_scaling = bool(use_scaling)
        if use_scaling == "dynamic":
            instance_kwargs.setdefault("scaling_mode", "dynamic")

        if isinstance(data, PatternSet):
            n_patterns = data.n_patterns
            weights = data.weights
            state_count = data.alignment.n_states
            if state_count != model.n_states:
                raise ValueError(
                    f"data has {state_count} states but model "
                    f"{model.name} has {model.n_states}"
                )
        else:
            n_patterns = data.n_patterns
            weights = data.weights
            state_count = data.state_count
            if state_count != model.n_states:
                raise ValueError(
                    f"data has {state_count} states but model "
                    f"{model.name} has {model.n_states}"
                )

        n_tips = tree.n_tips
        n_nodes = tree.n_nodes
        n_internal = n_nodes - n_tips
        config = instance_config(
            n_tips,
            n_patterns,
            state_count,
            site_model.n_categories,
            use_tip_states=use_tip_states,
            use_scaling=self.use_scaling,
            enable_upper_partials=enable_upper_partials,
        )
        # Buffer index of each node's partials / matrix / scale factors,
        # per slot, and of the cumulative scale buffer per slot.  Slot 1
        # of the partials and of the matrices closes each index space.
        spare_partials = config.total_buffer_count - n_nodes
        spare_matrices = config.matrix_buffer_count - n_nodes
        self._partials_buffers = (
            list(range(n_nodes)),
            list(range(n_tips))
            + [spare_partials + v for v in range(n_tips, n_nodes)],
        )
        self._matrix_buffers = (
            list(range(n_nodes)),
            [spare_matrices + v for v in range(n_nodes)],
        )
        self._scale_buffers = (
            [OP_NONE] * n_tips + list(range(n_internal)),
            [OP_NONE] * n_tips
            + [n_internal + 1 + k for k in range(n_internal)],
        )
        self._cumulative_buffers = (
            (n_internal, 2 * n_internal + 1) if use_scaling
            else (OP_NONE, OP_NONE)
        )
        self._internal_nodes = range(n_tips, n_nodes)
        self._reset_slot_map()
        self._sites_current = True
        self.derivative_matrix_indices = (n_nodes, n_nodes + 1)
        self.enable_upper_partials = enable_upper_partials
        self.use_tip_states = use_tip_states
        self.data = data
        self.instance = BeagleInstance(config, deferred=deferred, **instance_kwargs)
        self._upper = None

        self.load_tip_data(data)
        self.instance.set_category_rates(site_model.rates)
        self.instance.set_category_weights(0, site_model.weights)
        self.instance.set_substitution_model(0, model)
        self._matrices_current = False

    def load_tip_data(
        self, data: Union[PatternSet, SyntheticPatterns]
    ) -> None:
        """Load tip buffers and pattern weights from ``data``.

        Pairs by name for real alignments and by row index for synthetic
        benchmark data.  With compact tips this gathers rows of the
        data's ``tip_states``, which both data kinds encode once; nothing
        is re-tokenised.  Called at construction, and again by
        :meth:`rebind` when a warm instance is reused for new data of the
        same shape.
        """
        n_patterns = self.instance.config.pattern_count
        state_count = self.instance.config.state_count
        tips = sorted(self.tree.root.tips(), key=lambda n: n.index)
        real = isinstance(data, PatternSet)
        for tip in tips:
            row = (
                data.alignment.names.index(tip.name or f"taxon{tip.index}")
                if real else tip.index
            )
            if self.use_tip_states:
                self.instance.set_tip_states(tip.index, data.tip_states[row])
            elif real:
                aln = data.alignment
                self.instance.set_tip_partials(
                    tip.index, aln.state_space.encode_partials(aln.rows[row])
                )
            else:
                dense = np.zeros((n_patterns, state_count))
                codes = data.tip_states[row]
                known = codes < state_count
                dense[np.arange(n_patterns)[known], codes[known]] = 1.0
                dense[~known] = 1.0
                self.instance.set_tip_partials(tip.index, dense)
        self.instance.set_pattern_weights(data.weights)
        self.data = data

    def rebind(
        self,
        data: Union[PatternSet, SyntheticPatterns],
        tree: Optional[Tree] = None,
    ) -> None:
        """Repoint a warm instance at new data (and optionally a new tree).

        The replacement must match the shape the instance's buffers were
        sized for — same pattern count, state count, and tip count — so
        only tip buffers and pattern weights are rewritten; eigensystem,
        category rates, and model parameters are untouched.  This is what
        lets a serving pool reuse one built instance across tenants
        whose analyses share a configuration signature instead of paying
        a fresh allocation per request.

        Compact tips are not re-encoded: :meth:`load_tip_data` hands the
        instance one row of the data's pre-encoded ``tip_states`` per tip
        (a :class:`PatternSet` encodes its tips once, at construction), so
        a rebind costs a name lookup and a range check per tip.
        """
        if tree is not None:
            if tree.n_tips != self.tree.n_tips:
                raise ValueError(
                    f"rebind tree has {tree.n_tips} tips; instance was "
                    f"built for {self.tree.n_tips}"
                )
            self.tree = tree
        n_patterns = data.n_patterns
        state_count = (
            data.alignment.n_states
            if isinstance(data, PatternSet)
            else data.state_count
        )
        if n_patterns != self.instance.config.pattern_count:
            raise ValueError(
                f"rebind data has {n_patterns} patterns; instance was "
                f"built for {self.instance.config.pattern_count}"
            )
        if state_count != self.instance.config.state_count:
            raise ValueError(
                f"rebind data has {state_count} states; instance was "
                f"built for {self.instance.config.state_count}"
            )
        self.load_tip_data(data)
        self._matrices_current = False
        # Nothing of the old analysis is kept.
        self._reset_slot_map()

    # -- observability -------------------------------------------------------

    @property
    def tracer(self):
        """The instance's tracer (the null tracer until instrumented)."""
        return self.instance.tracer

    @property
    def metrics(self):
        """The instance's metrics registry (``None`` until instrumented)."""
        return self.instance.metrics

    def instrument(self, tracer=None, metrics=None):
        """Attach a tracer + metrics registry to the underlying instance."""
        return self.instance.instrument(tracer, metrics)

    def set_execution_mode(self, deferred: bool) -> None:
        """Switch the underlying instance between eager and deferred mode."""
        self.instance.set_execution_mode(deferred)

    def flush(self):
        """Execute any recorded deferred work on the underlying instance."""
        return self.instance.flush()

    def matrix_cache_stats(self):
        """``{"hits": 0, "misses": n}``: ``n`` transition matrices computed.

        Kept for callers that read matrix counts under the keys of the
        retired transition-matrix memo cache; every matrix is computed,
        so ``hits`` stays 0.
        """
        return {"hits": 0, "misses": self.instance.impl.matrices_computed}

    @property
    def pattern_count(self) -> int:
        """Number of site patterns this likelihood evaluates."""
        return self.instance.config.pattern_count

    # -- buffer slots --------------------------------------------------------

    def _reset_slot_map(self) -> None:
        """Identity slot map (0 per node and for the cumulative buffer),
        no store point."""
        n_nodes = len(self._matrix_buffers[0])
        self._partials_slot = [0] * n_nodes
        self._matrix_slot = [0] * n_nodes
        self._cumulative_slot = 0
        self._stored = None

    def partials_index(self, node_index: int) -> int:
        """Buffer holding ``node_index``'s current (lower) partials."""
        return self._partials_buffers[self._partials_slot[node_index]][
            node_index
        ]

    def matrix_index(self, node_index: int) -> int:
        """Buffer holding the current matrix of the branch above a node."""
        return self._matrix_buffers[self._matrix_slot[node_index]][node_index]

    def writable_matrix_index(self, node_index: int) -> int:
        """Buffer to write a node's branch matrix to, and read it from after.

        Without a store point this is the current buffer; with one, the
        slot the store point does not reference.
        """
        if self._stored is not None:
            self._matrix_slot[node_index] = 1 - self._stored[1][node_index]
        return self.matrix_index(node_index)

    @property
    def _cumulative_scale(self) -> int:
        """The current cumulative scale buffer (``OP_NONE`` unscaled)."""
        return self._cumulative_buffers[self._cumulative_slot]

    def store(self) -> None:
        """Open a store point at the current buffers (BEAST's storeState).

        Until the next ``store()``, the first write of a node's partials,
        scale factors or branch matrix goes to the node's other slot, so
        the buffers the store point references stay intact for
        :meth:`revert`.  Costs one copy of the slot map.
        """
        self._stored = (
            list(self._partials_slot),
            list(self._matrix_slot),
            self._cumulative_slot,
            self._matrices_current,
        )

    def revert(self) -> None:
        """Return to the store point (BEAST's restoreState).

        Resets the slot map and computes nothing; the store point stays
        open.  Model parameters are not buffered: a client that changed
        them since :meth:`store` reinstalls the stored ones first.  Upper
        partials go stale.
        """
        if self._stored is None:
            raise RuntimeError("revert() needs a store point; call store()")
        partials, matrices, cumulative, current = self._stored
        self._partials_slot[:] = partials
        self._matrix_slot[:] = matrices
        self._cumulative_slot = cumulative
        self._matrices_current = current
        self._sites_current = False
        if self._upper is not None:
            self._upper.invalidate()

    def _redirect(self, plan):
        """``plan``'s matrix indices and operations through the slot map.

        Every node ``plan`` writes first moves to the slot the store
        point does not reference; children are read from their current
        slots (post-order, so after their own move).
        """
        stored_partials, stored_matrices = self._stored[0], self._stored[1]
        p_slot, m_slot = self._partials_slot, self._matrix_slot
        p_buf, m_buf = self._partials_buffers, self._matrix_buffers
        s_buf = self._scale_buffers
        matrices = []
        for v in plan.branch_node_indices.tolist():
            m_slot[v] = 1 - stored_matrices[v]
            matrices.append(m_buf[m_slot[v]][v])
        operations = []
        for op in plan.operations:
            d, c1, c2 = op.destination, op.child1, op.child2
            p_slot[d] = 1 - stored_partials[d]
            operations.append(Operation(
                destination=p_buf[p_slot[d]][d],
                child1=p_buf[p_slot[c1]][c1],
                child1_matrix=m_buf[m_slot[c1]][c1],
                child2=p_buf[p_slot[c2]][c2],
                child2_matrix=m_buf[m_slot[c2]][c2],
                write_scale=(
                    s_buf[p_slot[d]][d] if op.write_scale != OP_NONE
                    else OP_NONE
                ),
                read_scale=op.read_scale,
            ))
        return matrices, operations

    # -- evaluation ----------------------------------------------------------

    def _evaluate(self, plan) -> float:
        """Run ``plan``'s matrix updates and operations, then the root."""
        matrices, operations = (
            (list(plan.branch_node_indices), plan.operations)
            if self._stored is None else self._redirect(plan)
        )
        if matrices:
            self.instance.update_transition_matrices(
                0, matrices, plan.branch_lengths
            )
        if operations:
            self.instance.update_partials(operations)
        if self.use_scaling:
            # The cumulative buffer must cover every node, so the full
            # accumulation is redone (factors of untouched nodes are
            # unchanged).
            if self._stored is not None:
                self._cumulative_slot = 1 - self._stored[2]
            self.instance.reset_scale_factors(self._cumulative_scale)
            self.instance.accumulate_scale_factors(
                [self._scale_buffers[self._partials_slot[v]][v]
                 for v in self._internal_nodes],
                self._cumulative_scale,
            )
        self._sites_current = True
        return self.instance.calculate_root_log_likelihoods(
            self.partials_index(plan.root_index), 0, 0,
            self._cumulative_scale,
        )

    def log_likelihood(self) -> float:
        """Full post-order re-evaluation of the tree."""
        value = self._evaluate(
            plan_traversal(self.tree, use_scaling=self.use_scaling)
        )
        self._matrices_current = True
        return value

    def update_branch_lengths(self, node_indices: Sequence[int]) -> float:
        """Incremental re-evaluation after editing some branch lengths.

        Only the matrices of the edited branches and the partials of
        their ancestors are recomputed.
        """
        if not self._matrices_current:
            return self.log_likelihood()
        return self._evaluate(plan_partial_update(
            self.tree, node_indices, use_scaling=self.use_scaling
        ))

    def invalidate(self) -> None:
        """Mark cached matrices stale (call after topology edits)."""
        self._matrices_current = False

    def site_log_likelihoods(self) -> np.ndarray:
        """Per-pattern log-likelihoods of the current buffers."""
        if not self._sites_current:
            # After revert() the instance still holds the rejected
            # evaluation's values; re-reduce the root (no partials).
            self.instance.calculate_root_log_likelihoods(
                self.partials_index(self.tree.root.index), 0, 0,
                self._cumulative_scale,
            )
            self._sites_current = True
        return self.instance.get_site_log_likelihoods()

    @property
    def upper(self):
        """The :class:`repro.core.upper.UpperPartials` manager.

        Requires ``enable_upper_partials=True`` at construction; created
        lazily on first access.
        """
        if self._upper is None:
            if not self.enable_upper_partials:
                raise RuntimeError(
                    "create the TreeLikelihood with "
                    "enable_upper_partials=True to use upper partials"
                )
            from repro.core.upper import UpperPartials

            self._upper = UpperPartials(self)
        return self._upper

    def root_edge_derivatives(self, total_length: Optional[float] = None):
        """Likelihood and derivatives along the root edge.

        For a reversible model the two branches below the root act as one
        edge of summed length (the pulley principle); this evaluates
        ``(logL, d logL/dt, d^2 logL/dt^2)`` at ``total_length`` (default:
        the current summed length) using the instance's derivative-matrix
        path.  Both root children must be internal nodes (tips have no
        partials buffer when stored compactly).
        """
        left, right = self.tree.root.children
        if left.is_tip or right.is_tip:
            raise ValueError(
                "root-edge derivatives need internal nodes on both sides "
                "of the root"
            )
        if total_length is None:
            total_length = left.branch_length + right.branch_length
        if total_length < 0:
            raise ValueError("edge length must be non-negative")
        d1_idx, d2_idx = self.derivative_matrix_indices
        scratch = self.writable_matrix_index(left.index)  # P(t_total)
        try:
            self.instance.update_transition_matrices(
                0, [scratch], [total_length],
                first_derivative_indices=[d1_idx],
                second_derivative_indices=[d2_idx],
            )
            return self.instance.calculate_edge_derivatives(
                self.partials_index(right.index),
                self.partials_index(left.index),
                scratch, d1_idx, d2_idx,
                cumulative_scale_index=self._cumulative_scale,
            )
        finally:
            # Restore left's true matrix on every exit — an exception
            # mid-derivative must not leave P(t_total) in left's slot,
            # or every subsequent likelihood silently uses it.
            self.instance.update_transition_matrices(
                0, [scratch], [left.branch_length]
            )

    def branch_gradient(
        self,
        node_indices: Optional[Sequence[int]] = None,
        refresh: bool = True,
    ) -> np.ndarray:
        """Analytic ``(logL, d logL/dt, d^2 logL/dt^2)`` for every branch.

        One upward (post-order) sweep refreshes the lower partials, one
        downward (pre-order) sweep refreshes the upper partials, and a
        single batched gradient launch evaluates every requested branch
        — two traversals total, independent of the number of branches,
        versus ``N + 1`` for per-branch serial derivatives.

        Requires ``enable_upper_partials=True`` and the restrictions of
        :class:`~repro.core.upper.UpperPartials` (reversible model, no
        scaling).  Row ``e`` of the ``(n_edges, 3)`` result describes
        the branch above ``node_indices[e]`` (default: every non-root
        node in preorder).  Pass ``refresh=False`` only when both lower
        and upper partials are already current.
        """
        if refresh:
            self.log_likelihood()
            self.upper.update()
        return self.upper.branch_gradients(node_indices)

    def finalize(self) -> None:
        self.instance.finalize()

    def __enter__(self) -> "TreeLikelihood":
        return self

    def __exit__(self, *exc) -> None:
        self.finalize()
