"""Upper (pre-order) partials: edge likelihoods on every branch.

The post-order ("lower") partials ``L(v)`` summarise the data *below*
each node.  This module adds the complementary pre-order quantities so
that the likelihood — and its branch-length derivatives — can be
evaluated across *any* edge without re-rooting, which is what makes
full-tree Newton branch optimisation possible
(:func:`repro.ml.optimize.optimize_branch_lengths_newton`).

For a **reversible** model (``pi_i P_t[i, j] = pi_j P_t[j, i]``) the upper
quantity factorises through the stationary distribution: writing
``U(v)[j]`` for the likelihood of all data outside ``v``'s subtree given
state *j* at *v* (with the root prior included), one can show
``U(v) = pi * W(v)`` where ``W`` obeys the *ordinary* (untransposed)
propagation

    W(root) = 1
    tmp(v)  = W(u) * (P_w L(w))        # u = parent, w = sibling
    W(v)    = P_v (tmp(v))

— i.e. exactly the existing partials kernels with an identity matrix in
the right slots.  Consequently

* the likelihood across the branch above ``v`` is the standard edge
  integration with ``parent = tmp(v)``, ``child = L(v)``, matrix
  ``P_v`` — and its *t*-derivatives come from the derivative-matrix path;
* evaluating with the identity matrix instead reproduces the root
  likelihood from any node (the extended pulley principle, which the
  tests assert for every branch).

Everything here drives the public :class:`BeagleInstance` operation
surface; no backend needs to know upper partials exist.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.flags import OP_NONE
from repro.core.types import Operation
from repro.tree.tree import Tree


class UpperPartials:
    """Pre-order partials manager bound to one :class:`TreeLikelihood`.

    Buffer layout appended to the tree-likelihood instance's space
    (``n = tree.n_nodes``):

    ========================  =========================
    ``n .. 2n-1``             ``W(v)`` per node index
    ``2n .. 3n-1``            ``tmp(v)`` per node index
    ``3n``                    all-ones buffer
    ========================  =========================

    plus one identity transition matrix at ``matrix index n + 2`` (after
    the two derivative scratch slots).  These buffers have one slot
    each.  Lower partials and branch matrices have two (see
    :mod:`repro.core.highlevel`), so they are read through the
    tree likelihood's slot map — ``tl.partials_index(v)`` and
    ``tl.matrix_index(v)`` — never by node index; a
    :meth:`~repro.core.highlevel.TreeLikelihood.revert` makes these
    buffers stale.
    """

    def __init__(self, tree_likelihood) -> None:
        tl = tree_likelihood
        if not getattr(tl.model, "reversible", False):
            raise ValueError(
                "upper partials require a reversible substitution model"
            )
        if tl.use_scaling:
            raise ValueError(
                "upper partials do not support the scaling workflow; "
                "use double precision instead"
            )
        self.tl = tl
        self.tree: Tree = tl.tree
        n = self.tree.n_nodes
        self._w_base = n
        self._tmp_base = 2 * n
        self._ones_index = 3 * n
        self._identity_matrix = n + 2
        config = tl.instance.config
        required = 3 * n + 1
        if config.total_buffer_count < required:
            raise ValueError(
                f"instance has {config.total_buffer_count} partials buffers "
                f"but upper partials need {required}; create the "
                f"TreeLikelihood with enable_upper_partials=True"
            )
        if config.matrix_buffer_count <= self._identity_matrix:
            raise ValueError("instance lacks the identity matrix slot")

        c = config
        tl.instance.set_partials(
            self._ones_index,
            np.ones((c.category_count, c.pattern_count, c.state_count)),
        )
        tl.instance.set_transition_matrix(
            self._identity_matrix, np.eye(c.state_count)
        )
        self._current = False

    # -- buffer addressing ---------------------------------------------------

    def w_index(self, node_index: int) -> int:
        return self._w_base + node_index

    def tmp_index(self, node_index: int) -> int:
        return self._tmp_base + node_index

    # -- computation ----------------------------------------------------------

    def update(self) -> None:
        """Recompute every ``tmp``/``W`` buffer from current lower partials.

        The lower partials and transition matrices must be current (call
        ``tl.log_likelihood()`` first); cost is two kernel launches per
        non-root node, issued as one dependency-ordered operation list.
        """
        tl = self.tl
        ops: List[Operation] = []
        root = self.tree.root
        # W(root) = ones: alias by copying via identity op into W slot.
        ops.append(
            Operation(
                destination=self.w_index(root.index),
                child1=self._ones_index,
                child1_matrix=self._identity_matrix,
                child2=self._ones_index,
                child2_matrix=self._identity_matrix,
            )
        )
        for node in root.preorder():
            if node.is_root:
                continue
            parent = node.parent
            sibling = (
                parent.children[0]
                if parent.children[1] is node
                else parent.children[1]
            )
            # tmp(v) = W(u) * (P_w L(w))
            ops.append(
                Operation(
                    destination=self.tmp_index(node.index),
                    child1=self.w_index(parent.index),
                    child1_matrix=self._identity_matrix,
                    child2=tl.partials_index(sibling.index),
                    child2_matrix=tl.matrix_index(sibling.index),
                )
            )
            # W(v) = P_v tmp(v)
            ops.append(
                Operation(
                    destination=self.w_index(node.index),
                    child1=self.tmp_index(node.index),
                    child1_matrix=tl.matrix_index(node.index),
                    child2=self._ones_index,
                    child2_matrix=self._identity_matrix,
                )
            )
        self.tl.instance.update_partials(ops)
        self._current = True

    def invalidate(self) -> None:
        self._current = False

    def _require_current(self) -> None:
        if not self._current:
            raise RuntimeError(
                "upper partials are stale; call update() after the last "
                "lower-partials evaluation"
            )

    # -- queries ---------------------------------------------------------------

    def edge_log_likelihood(self, node_index: int) -> float:
        """Likelihood evaluated across the branch above ``node_index``.

        For a reversible model this equals the root log-likelihood for
        every branch (extended pulley principle).
        """
        self._require_current()
        node = self.tree.node_by_index(node_index)
        if node.is_root:
            raise ValueError("the root has no branch")
        return self.tl.instance.calculate_edge_log_likelihoods(
            self.tmp_index(node_index),
            self.tl.partials_index(node_index),
            self.tl.matrix_index(node_index),
        )

    def node_log_likelihood(self, node_index: int) -> float:
        """Root-equivalent likelihood evaluated *at* a node:
        ``sum_j pi_j W(v)[j] L(v)[j]``."""
        self._require_current()
        return self.tl.instance.calculate_edge_log_likelihoods(
            self.w_index(node_index),
            self.tl.partials_index(node_index),
            self._identity_matrix,
        )

    def branch_derivatives(
        self, node_index: int, branch_length: Optional[float] = None
    ) -> Tuple[float, float, float]:
        """``(logL, d logL/dt, d^2 logL/dt^2)`` for the branch above a node.

        Evaluates at ``branch_length`` (default: the current length)
        without permanently changing the node's matrix unless the length
        equals the current one.
        """
        self._require_current()
        node = self.tree.node_by_index(node_index)
        if node.is_root:
            raise ValueError("the root has no branch")
        t = node.branch_length if branch_length is None else branch_length
        if t < 0:
            raise ValueError("branch length must be non-negative")
        d1_idx, d2_idx = self.tl.derivative_matrix_indices
        matrix = self.tl.writable_matrix_index(node_index)
        try:
            self.tl.instance.update_transition_matrices(
                0, [matrix], [t],
                first_derivative_indices=[d1_idx],
                second_derivative_indices=[d2_idx],
            )
            return self.tl.instance.calculate_edge_derivatives(
                self.tmp_index(node_index),
                self.tl.partials_index(node_index),
                matrix,
                d1_idx,
                d2_idx,
            )
        finally:
            # Restore the true matrix for this branch on every exit —
            # success or error.  Leaving the probe-length matrix behind
            # after a failure silently corrupts every later likelihood.
            if t != node.branch_length:
                self.tl.instance.update_transition_matrices(
                    0, [matrix], [node.branch_length]
                )

    def branch_gradients(
        self, node_indices: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """Batched ``(logL, d logL/dt, d^2 logL/dt^2)`` for many branches.

        Row ``e`` describes the branch above ``node_indices[e]``
        (default: every non-root node in preorder), evaluated at its
        *current* length.  The whole sweep is a single
        ``calculate_branch_gradients`` call — one fused launch on
        accelerated backends — and the transition/derivative matrices
        are derived from the eigen system on the fly, so unlike
        :meth:`branch_derivatives` no matrix buffer (neither the node's
        own slot nor the two derivative scratch slots) is ever written:
        there is no state to restore and nothing to go stale on error.
        """
        self._require_current()
        if node_indices is None:
            node_indices = [
                n.index for n in self.tree.root.preorder() if not n.is_root
            ]
        parents: List[int] = []
        children: List[int] = []
        lengths: List[float] = []
        for idx in node_indices:
            node = self.tree.node_by_index(idx)
            if node.is_root:
                raise ValueError("the root has no branch")
            parents.append(self.tmp_index(idx))
            children.append(self.tl.partials_index(idx))
            lengths.append(node.branch_length)
        return self.tl.instance.calculate_branch_gradients(
            0, parents, children, lengths
        )
