"""``split``: one dataset split across host and gpu, one closed-loop caller.

``Session.multi_device`` over ``{"host": "cpu-sse", "gpu": "cuda"}``
with rebalancing on and a ``RetryPolicy`` that probes a quarantined
device at every evaluation, so it is readmitted as soon as it heals.
A fixed, seeded sequence of ops runs in cycles of ``CYCLE`` ops:

* ``recover`` -- a full evaluation during which a scripted
  ``device-loss`` hits ``gpu`` (then heals): quarantine, re-split onto
  host, and the verified value; then the next full evaluation, whose
  probe readmits ``gpu`` and re-splits onto both devices;
* ``full``    -- a full evaluation on fresh branch lengths;
* ``incr``    -- one branch edited, then ``update_branch_lengths``.

Every value must be bit-identical to the serial baseline: fresh
per-component instances over the same pattern split, evaluated one
after another and summed in component order.  The split itself follows
measured throughput (wall clock on host, simulated clock on gpu), so it
varies from run to run.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from common import (
    SETUP_REPS, OpLog, alignment_with_patterns, clock, draw_lengths, median,
    end_window, repeat_set_up, scaled_tree, start_window,
)

KINDS = ("full", "incr", "recover")
#: One recover op, then full, incr.
CYCLE = 3
PROBE_INTERVAL = 1
OPS_PER_SECOND = 11.0
TAXA, PATTERNS = 32, 1500
DEVICES = {"host": "cpu-sse", "gpu": "cuda"}


def _kind(i: int) -> str:
    position = i % CYCLE
    if position == 0 and i > 0:
        return "recover"
    return "full" if position % 2 else "incr"


def _inputs(seed: int):
    from repro.model import HKY85, SiteModel

    rng = np.random.default_rng([seed, 31])
    model, site = HKY85(kappa=2.0 + rng.random()), SiteModel.gamma(0.5, 4)
    tree = scaled_tree(TAXA, int(rng.integers(2**31)))
    aln = alignment_with_patterns(tree, model, PATTERNS, site, rng)
    return model, site, tree, aln, rng


def _session(data, tree, model, site, traced):
    from repro.resil import RetryPolicy
    from repro.session import Session

    return Session.multi_device(
        data, tree, model, site, device_requests=dict(DEVICES),
        rebalance=True, trace=traced,
        retry_policy=RetryPolicy(max_attempts=2,
                                 probe_interval=PROBE_INTERVAL),
    )


class _Baseline:
    """Serial per-component instances, cached per (label, chunk bounds)."""

    def __init__(self, data, tree, model, site) -> None:
        self.data, self.tree, self.model, self.site = data, tree, model, site
        self.instances: Dict[tuple, object] = {}

    def value(self, split) -> float:
        from repro.config import backend_flags
        from repro.core.highlevel import TreeLikelihood
        from repro.partition.multi import split_pattern_set

        n = self.data.n_patterns
        keys, lo = [], 0
        for label, count in split:
            keys.append((label, lo, lo + count))
            lo += count
        for key in [k for k in self.instances if k not in keys]:
            self.instances.pop(key).finalize()
        chunks = None
        values = []
        for i, (label, count) in enumerate(split):
            key = keys[i]
            if key not in self.instances:
                if chunks is None:
                    chunks = split_pattern_set(
                        self.data, [c / n for _, c in split])
                self.instances[key] = TreeLikelihood(
                    self.tree, chunks[i], self.model, self.site,
                    **backend_flags(DEVICES[label]))
            values.append(self.instances[key].log_likelihood())
        return float(sum(values))

    def close(self) -> None:
        for tl in self.instances.values():
            tl.finalize()


def run(seed: int, seconds: float, spans, traced: bool, host,
        expect_wrong=False):
    from repro.resil import FaultEvent, FaultPlan
    from repro.seq.patterns import compress_patterns

    model, site, tree, aln, rng = _inputs(seed)
    baseline = _Baseline(compress_patterns(aln), tree, model, site)

    # -- set-up: compress + session + first verified value, repeated ------
    def set_up():
        md = _session(compress_patterns(aln), tree, model, site, traced)
        return md, md.log_likelihood()

    def check(built):
        md, value = built
        if value != baseline.value(_split(md)):
            raise RuntimeError("split set-up: first value is wrong")

    def close(built):
        built[0].close()

    setup_times: List[tuple] = []
    md, _value = repeat_set_up(set_up, close, SETUP_REPS // 2, setup_times,
                               host, check)

    # -- timed closed loop: fixed, seeded op sequence ----------------------
    n_ops = _ops(seconds)
    # The split follows measured wall-clock rates, so two runs may sum
    # different chunks and differ in the last bits: digest 11 digits.
    ops = OpLog(KINDS, digits=11)
    fanout, imbalance = [], []
    #: Per op: kind, time, end, and per evaluation the branch lengths,
    #: the split and the value, checked after the window so that the
    #: serial baseline's instances stay out of the window's memory.
    timed = []
    non_root = [n.index for n in tree.root.postorder() if not n.is_root]
    start_window()
    for i in range(n_ops):
        kind = _kind(i)
        if kind == "recover":
            if "gpu" not in md.likelihood.labels:
                raise RuntimeError("split: gpu was not readmitted in time")
            md.likelihood.install_fault_plan(FaultPlan([
                FaultEvent("device-loss", "gpu", at=1, duration=1)]))
        if kind == "incr":
            node = tree.node_by_index(int(rng.choice(non_root)))
            node.branch_length = float(rng.uniform(0.005, 0.08))
        else:
            draw_lengths(tree, rng)
        spans.op_id = i
        dt, evaluations = 0.0, []
        # A recover op is the evaluation that loses gpu and the next one,
        # whose probe readmits it; each evaluation's value is checked.
        for _ in range(2 if kind == "recover" else 1):
            t0 = clock()
            if traced:
                with spans.span(f"op.{kind}"):
                    value = _op(md, kind, node if kind == "incr" else None)
            else:
                value = _op(md, kind, node if kind == "incr" else None)
            elapsed = clock() - t0
            dt += elapsed
            # Bookkeeping, outside the timed op.
            timings = md.executor.timings()
            if kind == "full" and len(timings) > 1:
                fanout.append(elapsed - md.executor.critical_path_s())
                walls = [t.wall_s for t in timings]
                imbalance.append(
                    max(walls) / (sum(walls) / len(walls)) - 1.0)
            evaluations.append((
                [n.branch_length for n in tree.root.postorder()],
                _split(md), value))
        host.pace(dt)
        timed.append((kind, dt, t0 + elapsed, evaluations))
    rss_mb, faults = end_window()
    close(repeat_set_up(set_up, close, SETUP_REPS - SETUP_REPS // 2,
                        setup_times, host, check))

    # -- verification: every value against the serial baseline -----------
    mismatches = 0
    for i, (kind, dt, end, evaluations) in enumerate(timed):
        ok = True
        for lengths, split, value in evaluations:
            for node, length in zip(tree.root.postorder(), lengths):
                node.branch_length = length
            expected = baseline.value(split)
            if expect_wrong and i == 0:
                expected += 1.0
            ok = ok and value == expected
        mismatches += not ok
        ops.record(kind, dt, ok, [v for _l, _s, v in evaluations], end)
    ops.window_s = ops.busy_s()

    # Split values are checked bit for bit: no inexact replays allowed.
    layer: Dict[str, float] = {"check.inexact_frac": 0.0}
    if traced:
        layer.update(_split_layers(md, fanout, imbalance))
    md.close()
    baseline.close()
    return {"ops": ops, "setup": setup_times, "layer": layer,
            "mismatches": mismatches, "peak_rss_mb": rss_mb,
            "page_faults": faults}


def _op(md, kind: str, node) -> float:
    if kind == "incr":
        return md.update_branch_lengths([node.index])
    return md.log_likelihood()


def _split(md):
    """(label, pattern count) of each component in the last evaluation."""
    return [(t.label, t.patterns) for t in md.executor.timings()]


def _split_layers(md, fanout, imbalance) -> Dict[str, float]:
    shares = dict(zip(md.likelihood.labels, md.proportions))
    resplits = [s.duration for s in md.tracer.records()
                if s.name in ("rebalance", "resil.failover")]
    counter = md.metrics.counter
    return {
        "split.fanout_ms": median(fanout) * 1e3 if fanout else 0.0,
        "split.wall_imbalance": median(imbalance) if imbalance else 0.0,
        "split.share.host": shares.get("host", 0.0),
        "split.share.gpu": shares.get("gpu", 0.0),
        "split.rebalances": float(len(md.rebalance_events())),
        "split.failovers": float(len(md.failover_events())),
        "split.retries": counter("resil.retries").value,
        "split.readmits": counter("resil.readmissions").value,
        "split.resplit_ms": median(resplits) * 1e3 if resplits else 0.0,
    }


def _ops(seconds: float) -> int:
    return max(CYCLE + 1, int(round(seconds * OPS_PER_SECOND)))


def expected_counts(seconds: float) -> Dict[str, int]:
    n = _ops(seconds)
    kinds = [_kind(i) for i in range(n)]
    return {"a": kinds.count("full"), "b": kinds.count("incr"),
            "c": kinds.count("recover")}
