"""Layer-call versions of the high-level likelihood calls, with spans.

Traced runs call these instead of ``TreeLikelihood.log_likelihood`` /
``update_branch_lengths``: each makes the same public layer calls, in
the same order, as the method it mirrors, so results are bit-identical,
and each call sits in its own span.  ``counts`` accumulates exact
operation counts.
"""

from __future__ import annotations

from typing import Dict


def gflop(n_operations: int, config) -> float:
    """Useful partials arithmetic of ``n_operations``, in GFLOP."""
    from repro.accel.perfmodel import effective_gflops

    return effective_gflops(n_operations, config.pattern_count,
                            config.state_count, config.category_count, 1.0)


def new_counts() -> Dict[str, float]:
    return {"partials.ops": 0, "partials.gflop": 0.0, "plan.levels": 0,
            "plan.nodes": 0, "plan.count": 0}


def _finish(tl, plan, spans, counts) -> float:
    """Matrices, partials, scaling and root for an eager instance."""
    inst = tl.instance
    counts["partials.ops"] += len(plan.operations)
    if plan.branch_node_indices.size:
        with spans.span("matrices.update"):
            inst.update_transition_matrices(
                0, list(plan.branch_node_indices), plan.branch_lengths
            )
    if plan.operations:
        with spans.span("partials.update"):
            inst.update_partials(plan.operations)
        counts["partials.gflop"] += gflop(len(plan.operations), inst.config)
    if tl.use_scaling:
        with spans.span("scale.accumulate"):
            inst.reset_scale_factors(tl._cumulative_scale)
            inst.accumulate_scale_factors(
                list(range(tl._cumulative_scale)), tl._cumulative_scale
            )
    with spans.span("root.reduce"):
        return inst.calculate_root_log_likelihoods(
            plan.root_index, 0, 0, tl._cumulative_scale
        )


def log_likelihood(tl, spans, counts) -> float:
    """``TreeLikelihood.log_likelihood`` through its layer calls.

    On a deferred instance the matrix and partials calls validate and
    record into the instance's plan (``plan.record``), and the root call
    executes it (``plan.flush``).
    """
    from repro.tree.traversal import plan_traversal

    with spans.span("traversal.plan"):
        plan = plan_traversal(tl.tree, use_scaling=tl.use_scaling)
    tl._matrices_current = True
    if not tl.instance.deferred:
        return _finish(tl, plan, spans, counts)
    if tl.use_scaling:
        raise ValueError("traced deferred evaluation assumes no rescaling")
    inst = tl.instance
    counts["partials.ops"] += len(plan.operations)
    with spans.span("plan.record"):
        inst.update_transition_matrices(
            0, list(plan.branch_node_indices), plan.branch_lengths
        )
        inst.update_partials(plan.operations)
    with spans.span("plan.flush"):
        return inst.calculate_root_log_likelihoods(
            plan.root_index, 0, 0, tl._cumulative_scale
        )


def plan_stats(tl, spans, counts) -> None:
    """Size and static verification of one traversal's plan.

    Called outside the op: it records the traversal ``log_likelihood``
    just ran into a separate :class:`ExecutionPlan`, counts its levels
    and nodes, and times ``verify_plan`` on it -- work the program skips
    unless strict plan verification is on.
    """
    from repro.analysis.planverify import verify_plan
    from repro.core.plan import ExecutionPlan
    from repro.tree.traversal import plan_traversal

    plan = plan_traversal(tl.tree, use_scaling=tl.use_scaling)
    recorded = ExecutionPlan()
    recorded.record_matrix_update(
        0, list(plan.branch_node_indices), plan.branch_lengths
    )
    recorded.record_operations(plan.operations)
    recorded.record_root_likelihood(plan.root_index, 0, 0,
                                    tl._cumulative_scale)
    stats = recorded.stats()
    counts["plan.levels"] += stats["n_levels"]
    counts["plan.nodes"] += stats["n_nodes"]
    counts["plan.count"] += 1
    with spans.span("plan.verify"):
        if verify_plan(recorded, config=tl.instance.config,
                       impl=tl.instance.impl):
            raise RuntimeError("plan verification reported findings")


def update_branch_lengths(tl, node_indices, spans, counts) -> float:
    """``TreeLikelihood.update_branch_lengths`` through its layer calls."""
    from repro.tree.traversal import plan_partial_update

    if tl.instance.deferred:
        raise ValueError("traced incremental evaluation assumes eager mode")
    if not tl._matrices_current:
        return log_likelihood(tl, spans, counts)
    with spans.span("traversal.plan"):
        plan = plan_partial_update(
            tl.tree, node_indices, use_scaling=tl.use_scaling
        )
    return _finish(tl, plan, spans, counts)


def branch_gradient(tl, spans, counts):
    """``TreeLikelihood.branch_gradient()`` through its layer calls."""
    log_likelihood(tl, spans, counts)
    with spans.span("upper.update"):
        tl.upper.update()
    # UpperPartials.update issues 1 + 2 * (n_nodes - 1) operations.
    counts["partials.ops"] += 2 * tl.tree.n_nodes - 1
    with spans.span("grad.batch"):
        return tl.upper.branch_gradients()


#: Spans whose per-call median is reported as ``<name>_ms``.
TIMED_SPANS = (
    "traversal.plan", "matrices.update", "partials.update", "root.reduce",
    "scale.accumulate", "plan.record", "plan.flush", "plan.verify",
    "upper.update", "grad.batch",
)


def kernel_layers(spans, counts, n_ops, tls, cache0, primary):
    """Per-layer numbers shared by every workload that traces kernels.

    A layer's ``_ms`` is the median per call inside ``primary`` ops (the
    workload's slot-a op kind) where that op makes the call, and over
    every op otherwise.
    """
    from common import median

    out: Dict[str, float] = {}
    for name in TIMED_SPANS:
        durations = spans.durations(name, within=primary) or \
            spans.durations(name)
        out[f"{name}_ms"] = median(durations) * 1e3 if durations else 0.0
    hits = misses = 0
    for key, tl in tls.items():
        stats = tl.matrix_cache_stats()
        hits += stats["hits"] - cache0[key]["hits"]
        misses += stats["misses"] - cache0[key]["misses"]
    out["matrices.count"] = (hits + misses) / n_ops
    out["matrices.cache_hit_frac"] = hits / max(1, hits + misses)
    out["partials.ops"] = counts["partials.ops"] / n_ops
    out["plan.levels"] = counts["plan.levels"] / max(1, counts["plan.count"])
    out["plan.nodes"] = counts["plan.nodes"] / max(1, counts["plan.count"])
    seconds = spans.total("partials.update")
    out["partials.gflops"] = (
        counts["partials.gflop"] / seconds if seconds else 0.0)
    return out
