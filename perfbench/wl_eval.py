"""``eval``: the Fig. 4 kernel path, one closed-loop caller.

Three op kinds run round-robin, each on fresh seeded branch lengths so
the transition-matrix cache misses:

* ``full``  -- ``TreeLikelihood.log_likelihood()``, 4-state HKY+G4,
  cpu-sse, eager, rescaling on;
* ``codon`` -- the same call on a 61-state GY94 alignment, cuda-sim,
  deferred;
* ``grad``  -- ``branch_gradient()`` on cuda-sim with upper partials.

The traced run replaces each high-level call by the layer calls it makes
(``plan_traversal`` -> ``update_transition_matrices`` ->
``update_partials`` -> ``reset``/``accumulate_scale_factors`` ->
``calculate_root_log_likelihoods``, and ``UpperPartials.update`` ->
``branch_gradients`` for the gradient), in the same order, so values are
bit-identical.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

import layers
from common import (
    CROSS_BACKEND_RTOL, SETUP_REPS, OpLog, Replay, alignment_with_patterns,
    close_enough, clock, draw_lengths, end_window, median, repeat_set_up,
    scaled_tree, start_window,
)

KINDS = ("full", "codon", "grad")
#: Op kinds per second this workload is sized for (fixed op count).
OPS_PER_SECOND = 12.0
#: Gradient logL entries allowed to match ``log_likelihood()`` only within
#: ``REPLAY_RTOL`` (an open defect: each edge sums its own upper x lower
#: product, which can round the last bits apart): at most this share,
#: about twice the largest share measured (0.18 over seeds 11-25 and
#: 101-510).
MAX_INEXACT_FRAC = 0.4

#: (taxa, unique patterns) per op kind.
SIZES = {"full": (64, 2600), "codon": (24, 1400), "grad": (32, 1000)}


def _inputs(seed: int):
    from repro.model import HKY85, SiteModel
    from repro.model.codon import GY94
    rng = np.random.default_rng([seed, 1])
    hky, gamma = HKY85(kappa=2.0 + rng.random()), SiteModel.gamma(0.5, 4)
    gy94 = GY94(kappa=2.0, omega=0.2 + 0.3 * rng.random())
    out = {}
    for kind, model, site in (
        ("full", hky, gamma), ("codon", gy94, None), ("grad", hky, gamma),
    ):
        taxa, n_patterns = SIZES[kind]
        tree = scaled_tree(taxa, int(rng.integers(2**31)))
        aln = alignment_with_patterns(tree, model, n_patterns, site, rng)
        out[kind] = (tree, aln, model, site)
    return out


def _build(kind, tree, aln, model, site, spans):
    """Compress, create the instance, load tips: one op kind's set-up."""
    from repro.config import backend_flags
    from repro.core.highlevel import TreeLikelihood
    from repro.seq.patterns import compress_patterns

    with spans.span("seq.compress"):
        patterns = compress_patterns(aln)
    with spans.span("tl.build"):
        if kind == "full":
            return TreeLikelihood(
                tree, patterns, model, site, use_scaling=True,
                **backend_flags("cpu-sse"),
            )
        if kind == "codon":
            return TreeLikelihood(
                tree, patterns, model, site, deferred=True,
                **backend_flags("cuda"),
            )
        return TreeLikelihood(
            tree, patterns, model, site, enable_upper_partials=True,
            **backend_flags("cuda"),
        )


def _checker(kind, tree, aln, model, site):
    """An independent-backend twin used only to verify values."""
    from repro.config import backend_flags
    from repro.core.highlevel import TreeLikelihood
    from repro.seq.patterns import compress_patterns

    patterns = compress_patterns(aln)
    tree = tree.copy()
    if kind == "full":
        return TreeLikelihood(tree, patterns, model, site, use_scaling=True,
                              **backend_flags("cuda"))
    if kind == "codon":
        return TreeLikelihood(tree, patterns, model, site,
                              **backend_flags("cpu-sse"))
    return TreeLikelihood(tree, patterns, model, site,
                          enable_upper_partials=True,
                          **backend_flags("cpu-sse"))


def _op(kind, tl):
    if kind == "grad":
        return tl.branch_gradient()
    return tl.log_likelihood()


def _op_traced(kind, tl, spans, counts):
    if kind == "grad":
        return layers.branch_gradient(tl, spans, counts)
    return layers.log_likelihood(tl, spans, counts)


def _verify(kind, value, reference, replay) -> bool:
    if kind == "grad":
        # Every entry agrees with the independent backend, relative to
        # its column's scale (a derivative can sit near zero), and the
        # logL column agrees with the instance's own log_likelihood().
        # That column is not always bit-equal to it: each edge sums its
        # own upper x lower product, which can round the last bits apart.
        own_logl, ref_grad = reference
        column = [float(a) for a in value[:, 0]]
        scale = np.max(np.abs(ref_grad), axis=0)
        return bool(
            replay.same(column, [own_logl] * len(column))
            and np.all(np.isfinite(value))
            and np.all(np.abs(value - ref_grad) <= CROSS_BACKEND_RTOL * scale)
        )
    return close_enough(value, reference)


def _checker_value(kind, checker, tree):
    """The independent backend's value at ``tree``'s branch lengths."""
    for node, twin in zip(tree.root.postorder(),
                          checker.tree.root.postorder()):
        twin.branch_length = node.branch_length
    if kind == "grad":
        return checker.branch_gradient()
    return checker.log_likelihood()


def _reference(kind, checker, tl):
    """What ``tl``'s op must return at its current branch lengths."""
    expected = _checker_value(kind, checker, tl.tree)
    if kind == "grad":
        return tl.log_likelihood(), expected
    return expected


def run(seed: int, seconds: float, spans, traced: bool, host,
        expect_wrong=False):
    from repro.config import backend_flags
    from repro.core.instance import BeagleInstance

    inputs = _inputs(seed)
    checkers = {k: _checker(k, *inputs[k]) for k in KINDS}
    first = {k: _checker_value(k, checkers[k], inputs[k][0]) for k in KINDS}

    # -- set-up: compress + build + first verified result, repeated -------
    # Set-up builds on copies: the ops draw new lengths into the trees.
    pristine = {k: inputs[k][0].copy() for k in KINDS}

    def set_up():
        built = {k: _build(k, pristine[k].copy(), *inputs[k][1:], spans)
                 for k in KINDS}
        for k in KINDS:
            value = _op(k, built[k])
            expected = first[k]
            if k == "grad":
                expected = built[k].log_likelihood(), expected
            if not _verify(k, value, expected, Replay()):
                raise RuntimeError(f"eval set-up: first {k} value is wrong")
        return built

    def close(built):
        for tl in built.values():
            tl.finalize()

    setup_times: List[tuple] = []
    layer: Dict[str, float] = {}
    tls = repeat_set_up(set_up, close, SETUP_REPS // 2, setup_times,
                        host)
    if traced:
        # Per-layer set-up pieces, timed directly on their public calls.
        for k in KINDS:
            with spans.span("tips.load"):
                tls[k].load_tip_data(tls[k].data)
        for name, kind in (("cpu-sse", "full"), ("cuda", "codon")):
            times = []
            for _ in range(SETUP_REPS):
                t0 = clock()
                BeagleInstance(
                    tls[kind].instance.config, **backend_flags(name)
                ).finalize()
                times.append(clock() - t0)
            layer[f"instance.create_s.{name}"] = median(times)
        layer["seq.compress_s"] = (spans.total("seq.compress")
                                   / (SETUP_REPS // 2))
        layer["tips.load_s"] = spans.total("tips.load")

    # -- timed closed loop -------------------------------------------------
    n_ops = max(len(KINDS), int(round(seconds * OPS_PER_SECOND)))
    rng = np.random.default_rng([seed, 2])
    ops = OpLog(KINDS)
    lengths: List[List[float]] = []
    values = []
    durations = []
    ends = []
    launches0 = {k: _launches(tls[k]) for k in KINDS}
    sim0 = {k: _sim_s(tls[k]) for k in KINDS}
    cache0 = {k: dict(tls[k].matrix_cache_stats()) for k in KINDS}
    counts = layers.new_counts()
    start_window()
    for i in range(n_ops):
        kind = KINDS[i % len(KINDS)]
        tl = tls[kind]
        draw_lengths(tl.tree, rng)
        spans.op_id = i
        t0 = clock()
        if traced:
            with spans.span(f"op.{kind}"):
                value = _op_traced(kind, tl, spans, counts)
        else:
            value = _op(kind, tl)
        ends.append(clock())
        durations.append(ends[-1] - t0)
        host.pace(durations[-1])
        if traced and kind == "codon":
            layers.plan_stats(tl, spans, counts)
        values.append(value)
        lengths.append([n.branch_length for n in tl.tree.root.postorder()])
    rss_mb, faults = end_window()
    close(repeat_set_up(set_up, close, SETUP_REPS - SETUP_REPS // 2,
                        setup_times, host))

    # -- verification, outside the timed window ----------------------------
    replay = Replay(MAX_INEXACT_FRAC)
    for i, (value, ls) in enumerate(zip(values, lengths)):
        kind = KINDS[i % len(KINDS)]
        tl = tls[kind]
        for node, length in zip(tl.tree.root.postorder(), ls):
            node.branch_length = length
        reference = _reference(kind, checkers[kind], tl)
        if expect_wrong and i == 0:
            reference = _perturb(reference)
        ops.record(kind, durations[i],
                   _verify(kind, value, reference, replay), value, ends[i])
    ops.window_s = ops.busy_s()
    mismatches = ops.failed
    if not replay.within_cap():
        mismatches += 1
        ops.failed += 1

    layer["check.inexact_frac"] = replay.inexact_frac
    if traced:
        layer.update(layers.kernel_layers(spans, counts, n_ops, tls, cache0,
                                          "op.full"))
        layer.update(_accel_layers(tls, spans, launches0, sim0))
    for tl in list(tls.values()) + list(checkers.values()):
        tl.finalize()
    return {"ops": ops, "setup": setup_times, "layer": layer,
            "mismatches": mismatches, "peak_rss_mb": rss_mb,
            "page_faults": faults}


def _perturb(reference):
    if isinstance(reference, tuple):
        return reference[0] + 1.0, reference[1]
    return reference + 1.0


def _launches(tl) -> int:
    return int(getattr(tl.instance.impl, "kernel_launch_count", 0))


def _sim_s(tl) -> float:
    return float(getattr(tl.instance.impl, "simulated_time", 0.0))


def _accel_layers(tls, spans, launches0, sim0):
    """Launch counts and simulated time of the accelerated op kinds."""
    launches = sum(_launches(tls[k]) - launches0[k] for k in KINDS)
    accel_ops = len(spans.durations("op.codon")) + len(
        spans.durations("op.grad"))
    accel_wall = spans.total("op.codon") + spans.total("op.grad")
    return {
        "accel.launches": launches / max(1, accel_ops),
        "accel.ms_per_launch": accel_wall * 1e3 / max(1, launches),
        "accel.sim_ms": sum(_sim_s(tls[k]) - sim0[k] for k in KINDS)
        * 1e3 / max(1, accel_ops),
    }


def expected_counts(seconds: float) -> Dict[str, int]:
    per_kind = max(len(KINDS), int(round(seconds * OPS_PER_SECOND)))
    per_kind //= len(KINDS)
    return {"a": per_kind, "b": per_kind, "c": per_kind}
