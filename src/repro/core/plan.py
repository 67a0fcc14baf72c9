"""Deferred execution plans: a dependency-aware operation DAG.

The eager pipeline hands every ``update_transition_matrices`` /
``update_partials`` call to the implementation one at a time, so no
backend can see past a single call.  BEAGLE 4.1 moves to asynchronous
queued execution for exactly this reason: tree-level concurrency and
kernel batching need the *whole* schedule, not one operation.

:class:`ExecutionPlan` is the recording between the instance layer and
the implementations.  A deferred :class:`~repro.core.instance.BeagleInstance`
records matrix updates, partials operations, and root/edge likelihood
requests here instead of executing them; the plan builds a dependency
DAG keyed on buffer indices (partials, matrix, and scale buffers are the
resources) and topologically groups the nodes into *levels* of mutually
independent work.  ``BaseImplementation.execute_plan`` then replays the
levels — serially by default, fanned across a thread pool by the
threaded backends, or as one batched kernel launch per level by the
accelerator model.

Dependency rules are the classic three hazards, tracked per resource:

* read-after-write — a node reading a buffer depends on its last writer;
* write-after-read — a node writing a buffer depends on every reader
  since the previous write (an eager schedule would have let those
  readers observe the old value);
* write-after-write — a node writing a buffer depends on the previous
  writer (last write wins, as in eager order).

Likelihood requests additionally write the (single) site-log-likelihood
output resource, which serialises them in recorded order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.core.flags import OP_NONE
from repro.core.types import Operation


@dataclass(frozen=True)
class MatrixUpdate:
    """One recorded ``update_transition_matrices`` call."""

    eigen_index: int
    matrix_indices: Tuple[int, ...]
    branch_lengths: Tuple[float, ...]
    first_derivative_indices: Optional[Tuple[int, ...]] = None
    second_derivative_indices: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if len(self.matrix_indices) != len(self.branch_lengths):
            raise ValueError("matrix index and branch length counts differ")
        for deriv in (self.first_derivative_indices,
                      self.second_derivative_indices):
            if deriv is not None and len(deriv) != len(self.matrix_indices):
                raise ValueError(
                    "derivative index count must match matrix count"
                )
        if any(t < 0 for t in self.branch_lengths):
            raise ValueError("branch lengths must be non-negative")


@dataclass(frozen=True)
class RootLikelihoodRequest:
    """One recorded ``calculate_root_log_likelihoods`` call."""

    buffer_index: int
    category_weights_index: int = 0
    state_frequencies_index: int = 0
    cumulative_scale_index: int = OP_NONE


@dataclass(frozen=True)
class EdgeLikelihoodRequest:
    """One recorded ``calculate_edge_log_likelihoods`` call."""

    parent_index: int
    child_index: int
    matrix_index: int
    category_weights_index: int = 0
    state_frequencies_index: int = 0
    cumulative_scale_index: int = OP_NONE


@dataclass(frozen=True)
class BranchGradientRequest:
    """One recorded ``calculate_branch_gradients`` call.

    A whole level-batched gradient sweep: every listed edge yields
    ``(logL, dlogL/dt, d^2 logL/dt^2)`` in one launch.  Transition and
    derivative matrices are derived from the eigen system at execution
    time, so the request reads *no* matrix buffers — only the parent and
    child partials of each edge (plus the optional cumulative scale
    accumulator).
    """

    eigen_index: int
    parent_indices: Tuple[int, ...]
    child_indices: Tuple[int, ...]
    branch_lengths: Tuple[float, ...]
    category_weights_index: int = 0
    state_frequencies_index: int = 0
    cumulative_scale_index: int = OP_NONE

    def __post_init__(self) -> None:
        if not (len(self.parent_indices) == len(self.child_indices)
                == len(self.branch_lengths)):
            raise ValueError(
                "parent, child, and branch-length counts differ"
            )
        if any(t < 0 for t in self.branch_lengths):
            raise ValueError("branch lengths must be non-negative")


PlanPayload = Union[
    MatrixUpdate, Operation, RootLikelihoodRequest, EdgeLikelihoodRequest,
    BranchGradientRequest,
]

#: Resource-key tags (buffer index spaces are independent per kind).
_PARTIALS = "partials"
_MATRIX = "matrix"
_SCALE = "scale"
_SITE_OUTPUT = "site-log-likelihoods"

#: A dependency resource: ``(kind tag, buffer index)``.
Resource = Tuple[str, int]


class PlanNode:
    """One DAG node: a payload plus the nodes it must run after."""

    __slots__ = ("index", "payload", "deps")

    def __init__(self, index: int, payload: PlanPayload) -> None:
        self.index = index
        self.payload = payload
        self.deps: Set["PlanNode"] = set()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<PlanNode {self.index} {type(self.payload).__name__}>"


def _matrix_update_resources(
    update: MatrixUpdate,
) -> Tuple[List[Resource], List[Resource]]:
    reads: List[Resource] = []
    writes: List[Resource] = [(_MATRIX, i) for i in update.matrix_indices]
    for deriv in (update.first_derivative_indices,
                  update.second_derivative_indices):
        if deriv is not None:
            writes.extend((_MATRIX, i) for i in deriv)
    return reads, writes


def _operation_resources(
    op: Operation,
) -> Tuple[List[Resource], List[Resource]]:
    reads: List[Resource] = [
        (_PARTIALS, op.child1),
        (_PARTIALS, op.child2),
        (_MATRIX, op.child1_matrix),
        (_MATRIX, op.child2_matrix),
    ]
    if op.read_scale != OP_NONE:
        reads.append((_SCALE, op.read_scale))
    writes: List[Resource] = [(_PARTIALS, op.destination)]
    if op.write_scale != OP_NONE:
        writes.append((_SCALE, op.write_scale))
    return reads, writes


def _root_resources(
    req: RootLikelihoodRequest,
) -> Tuple[List[Resource], List[Resource]]:
    reads: List[Resource] = [(_PARTIALS, req.buffer_index)]
    if req.cumulative_scale_index != OP_NONE:
        reads.append((_SCALE, req.cumulative_scale_index))
    return reads, [(_SITE_OUTPUT, 0)]


def _edge_resources(
    req: EdgeLikelihoodRequest,
) -> Tuple[List[Resource], List[Resource]]:
    reads: List[Resource] = [
        (_PARTIALS, req.parent_index),
        (_PARTIALS, req.child_index),
        (_MATRIX, req.matrix_index),
    ]
    if req.cumulative_scale_index != OP_NONE:
        reads.append((_SCALE, req.cumulative_scale_index))
    return reads, [(_SITE_OUTPUT, 0)]


def _gradient_resources(
    req: BranchGradientRequest,
) -> Tuple[List[Resource], List[Resource]]:
    reads: List[Resource] = []
    seen: Set[int] = set()
    for idx in (*req.parent_indices, *req.child_indices):
        if idx not in seen:
            seen.add(idx)
            reads.append((_PARTIALS, idx))
    if req.cumulative_scale_index != OP_NONE:
        reads.append((_SCALE, req.cumulative_scale_index))
    return reads, [(_SITE_OUTPUT, 0)]


def node_resources(
    payload: PlanPayload,
) -> Tuple[List[Resource], List[Resource]]:
    """``(reads, writes)`` of a payload, exactly as dependency analysis
    sees them.

    Public so static verifiers (:mod:`repro.analysis.planverify`) share
    the recording-time resource model instead of re-deriving it.
    """
    if isinstance(payload, MatrixUpdate):
        return _matrix_update_resources(payload)
    if isinstance(payload, Operation):
        return _operation_resources(payload)
    if isinstance(payload, RootLikelihoodRequest):
        return _root_resources(payload)
    if isinstance(payload, EdgeLikelihoodRequest):
        return _edge_resources(payload)
    if isinstance(payload, BranchGradientRequest):
        return _gradient_resources(payload)
    raise TypeError(f"not a plan payload: {payload!r}")


class ExecutionPlan:
    """A recorded, dependency-analysed batch of BEAGLE operations.

    Nodes are appended in client order; :meth:`levels` groups them so
    that level *k* depends only on levels ``< k``, recovering tree-level
    concurrency without the implementation ever seeing the tree (BEAGLE
    never does).  Execution semantics are bit-for-bit those of replaying
    the recorded calls eagerly.
    """

    def __init__(self) -> None:
        self._nodes: List[PlanNode] = []
        self._last_writer: Dict[Tuple[str, int], PlanNode] = {}
        self._readers_since_write: Dict[Tuple[str, int], List[PlanNode]] = {}
        self._levels: Optional[List[List[PlanNode]]] = None

    # -- recording -----------------------------------------------------------

    def _add(
        self,
        payload: PlanPayload,
        reads: Sequence[Resource],
        writes: Sequence[Resource],
    ) -> PlanNode:
        node = PlanNode(len(self._nodes), payload)
        for key in reads:
            writer = self._last_writer.get(key)
            if writer is not None:
                node.deps.add(writer)
            self._readers_since_write.setdefault(key, []).append(node)
        for key in writes:
            writer = self._last_writer.get(key)
            if writer is not None and writer is not node:  # WAW
                node.deps.add(writer)
            for reader in self._readers_since_write.get(key, ()):  # WAR
                if reader is not node:
                    node.deps.add(reader)
            self._last_writer[key] = node
            self._readers_since_write[key] = []
        self._nodes.append(node)
        self._levels = None
        return node

    def record_matrix_update(
        self,
        eigen_index: int,
        matrix_indices: Sequence[int],
        branch_lengths: Sequence[float],
        first_derivative_indices: Optional[Sequence[int]] = None,
        second_derivative_indices: Optional[Sequence[int]] = None,
    ) -> PlanNode:
        update = MatrixUpdate(
            eigen_index=eigen_index,
            matrix_indices=tuple(int(i) for i in matrix_indices),
            branch_lengths=tuple(float(t) for t in branch_lengths),
            first_derivative_indices=(
                tuple(int(i) for i in first_derivative_indices)
                if first_derivative_indices is not None
                else None
            ),
            second_derivative_indices=(
                tuple(int(i) for i in second_derivative_indices)
                if second_derivative_indices is not None
                else None
            ),
        )
        return self._add(update, *_matrix_update_resources(update))

    def record_operations(
        self, operations: Iterable[Operation]
    ) -> List[PlanNode]:
        return [
            self._add(op, *_operation_resources(op)) for op in operations
        ]

    def record_root_likelihood(
        self,
        buffer_index: int,
        category_weights_index: int = 0,
        state_frequencies_index: int = 0,
        cumulative_scale_index: int = OP_NONE,
    ) -> PlanNode:
        req = RootLikelihoodRequest(
            buffer_index, category_weights_index,
            state_frequencies_index, cumulative_scale_index,
        )
        return self._add(req, *_root_resources(req))

    def record_edge_likelihood(
        self,
        parent_index: int,
        child_index: int,
        matrix_index: int,
        category_weights_index: int = 0,
        state_frequencies_index: int = 0,
        cumulative_scale_index: int = OP_NONE,
    ) -> PlanNode:
        req = EdgeLikelihoodRequest(
            parent_index, child_index, matrix_index,
            category_weights_index, state_frequencies_index,
            cumulative_scale_index,
        )
        return self._add(req, *_edge_resources(req))

    def record_branch_gradients(
        self,
        eigen_index: int,
        parent_indices: Sequence[int],
        child_indices: Sequence[int],
        branch_lengths: Sequence[float],
        category_weights_index: int = 0,
        state_frequencies_index: int = 0,
        cumulative_scale_index: int = OP_NONE,
    ) -> PlanNode:
        req = BranchGradientRequest(
            eigen_index,
            tuple(int(i) for i in parent_indices),
            tuple(int(i) for i in child_indices),
            tuple(float(t) for t in branch_lengths),
            category_weights_index,
            state_frequencies_index,
            cumulative_scale_index,
        )
        return self._add(req, *_gradient_resources(req))

    # -- analysis ------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self._nodes

    @property
    def nodes(self) -> List[PlanNode]:
        return list(self._nodes)

    @property
    def n_nodes(self) -> int:
        return len(self._nodes)

    @property
    def n_operations(self) -> int:
        """Recorded partials operations (one per internal node visit)."""
        return sum(
            1 for n in self._nodes if isinstance(n.payload, Operation)
        )

    @property
    def n_matrix_updates(self) -> int:
        return sum(
            1 for n in self._nodes if isinstance(n.payload, MatrixUpdate)
        )

    @property
    def n_likelihood_requests(self) -> int:
        return sum(
            1
            for n in self._nodes
            if isinstance(
                n.payload,
                (RootLikelihoodRequest, EdgeLikelihoodRequest,
                 BranchGradientRequest),
            )
        )

    def levels(self) -> List[List[PlanNode]]:
        """Topological independence levels, computed once and cached.

        Nodes are recorded in a dependency-respecting order, so a single
        forward pass assigns ``level = 1 + max(level of deps)``.
        """
        if self._levels is None:
            level_of: Dict[int, int] = {}
            levels: List[List[PlanNode]] = []
            for node in self._nodes:
                lv = 0
                for dep in node.deps:
                    lv = max(lv, level_of[dep.index] + 1)
                level_of[node.index] = lv
                while len(levels) <= lv:
                    levels.append([])
                levels[lv].append(node)
            self._levels = levels
        return [list(level) for level in self._levels]

    def operation_levels(self) -> List[List[Operation]]:
        """Just the partials operations of each level (non-empty only)."""
        out: List[List[Operation]] = []
        for level in self.levels():
            ops = [
                n.payload for n in level if isinstance(n.payload, Operation)
            ]
            if ops:
                out.append(ops)
        return out

    def stats(self) -> Dict[str, object]:
        """Structured description of the plan, as traced by ``execute_plan``.

        ``level_widths`` counts only partials operations per level (the
        quantity the fused accelerator launches and the level-width
        histogram care about); empty levels are omitted from it.
        """
        return {
            "n_nodes": self.n_nodes,
            "n_operations": self.n_operations,
            "n_matrix_updates": self.n_matrix_updates,
            "n_likelihood_requests": self.n_likelihood_requests,
            "n_levels": len(self.levels()),
            "level_widths": [
                len(ops) for ops in self.operation_levels()
            ],
        }

    def summary(self) -> str:
        """One-line description for logging and progress displays."""
        return (
            f"ExecutionPlan({self.n_nodes} nodes: "
            f"{self.n_matrix_updates} matrix updates, "
            f"{self.n_operations} partials ops, "
            f"{self.n_likelihood_requests} likelihood requests; "
            f"{len(self.levels())} levels)"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{self.summary()}>"
