"""The benchmark's metric, workload and layer definitions.

``BENCHMARK.json`` and ``perfbench/metrics.json`` are generated from this
file; regenerate both after editing it::

    python3 perfbench/spec.py

``BENCHMARK.json`` holds only the keys of its fixed schema (names,
units, directions, bounds, workloads and their reasons).  ``metrics.json``
holds only what that schema has no room for: the clock and definition of
each metric, the workload and end-to-end metric each layer metric should
move, the op kind behind each ``a``/``b``/``c`` slot, and each
workload's loop (with the offered rate, measured capacity and latency
limit of the open loop).
"""

from __future__ import annotations

import json
import os
import sys

RUN_SECONDS = 12

#: name, loop (serve's is described by ``wl_serve.loop_description``),
#: why (one line), slots (op kind behind mean_ms/tail_ratio .a/.b/.c).
WORKLOADS = [
    {
        "name": "eval",
        "loop": "closed, 1 caller",
        "why": "Fig. 4 kernel path, closed loop of 1 caller: full (cpu-sse, "
               "4-state), codon (cuda-sim, deferred, 61-state), grad "
               "(cuda-sim, upper partials), round-robin, cache misses",
        "slots": {"a": "full", "b": "codon", "c": "grad"},
    },
    {
        "name": "mcmc",
        "loop": "closed, 1 chain",
        "why": "Fig. 6 application, closed loop of 1 cold MrBayes-style "
               "chain on cpu-sse: incremental branch moves vs NNI and "
               "parameter moves, restores included",
        "slots": {"a": "incr", "b": "topo", "c": "param"},
    },
    {
        "name": "serve",
        "loop": "open",
        "why": "Serving latency, open loop at a fixed rate below capacity: "
               "weighted tenants on one PatternSet send full, edit and "
               "burst requests through admission, DRR and the pool",
        "slots": {"a": "full", "b": "edit", "c": "burst"},
    },
    {
        "name": "split",
        "loop": "closed, 1 caller",
        "why": "Multi-device split, closed loop of 1 caller over host "
               "cpu-sse + gpu cuda-sim with rebalancing; scripted gpu "
               "losses exercise quarantine, re-split and readmission",
        "slots": {"a": "full", "b": "incr", "c": "recover"},
    },
]

#: Clock of the timed end-to-end metrics: wall time of each op and
#: set-up, scaled to the host reference's nominal speed by the reference
#: sampled near it (``hostref``); the values as measured are on the line
#: before the result, under ``measured``.
NORMALISED = "wall, host-normalised"

#: (name, unit, better, bound, clock, definition)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25, NORMALISED,
     "median over set-up repetitions of: compress patterns, encode tips, "
     "create instances/server/session, build kernels, first verified "
     "result; each set-up scaled by the host reference sampled after it"),
    ("rate_per_s", "1/s", "higher", 0.25, NORMALISED,
     "ops completed correctly (and, on serve, within the latency limit) "
     "per second of the timed window; an mcmc op is one generation; on "
     "closed loops per second of the ops' summed host-scaled times "
     "(serve's open loop runs at its offered rate on any host)"),
    ("ok_frac", "frac", "higher", 0.05, "wall",
     "share of attempted ops that completed, passed their check and (serve) "
     "met the latency limit; rejects count as failures"),
    ("peak_rss_mb", "MB", "lower", 0.1, "wall",
     "process peak resident set size during the timed window (the mark "
     "is restarted when the window opens, after set-up)"),
]
for _slot in "abc":
    END_TO_END.append((
        f"mean_ms.{_slot}", "ms", "lower", 0.25, NORMALISED,
        f"latency of the workload's slot-{_slot} op kind (see slots), "
        "mean of the host-scaled op times left after dropping the fastest "
        "and the slowest 10% (each op scaled by the host reference sampled "
        "within a second of it); reported instead of the median, which "
        "jumps between the host's fast and slow regimes"))
    END_TO_END.append((
        f"tail_ratio.{_slot}", "ratio", "lower", 0.25, NORMALISED,
        f"tail of the slot-{_slot} op kind's latency, relative to its "
        f"mean_ms.{_slot}: mean of the slowest 25% of its ops (at least 10 "
        "per run; without the slowest tenth of those, a single stall) over "
        "mean_ms, both of host-scaled op times, so a slow stretch of the "
        "host does not make a tail; reported instead of a tail in ms, "
        "which moves with the host's speed more than the mean does"))

#: (name, unit, better, clock, workload it should move on, end-to-end
#: metric it should move, definition)
PER_LAYER = [
    ("seq.compress_s", "s", "lower", "wall", "eval, mcmc", "setup_s",
     "compress_patterns per set-up repetition"),
    ("tips.load_s", "s", "lower", "wall", "eval, mcmc", "setup_s",
     "TreeLikelihood.load_tip_data (encode_states per tip), per set-up"),
    ("tips.rebind_ms", "ms", "lower", "wall", "serve",
     "mean_ms.a, mean_ms.b", "TreeLikelihood.rebind of a pooled instance"),
    ("instance.create_s.cpu-sse", "s", "lower", "wall", "eval, split",
     "setup_s, mean_ms.c on split", "BeagleInstance creation on cpu-sse"),
    ("instance.create_s.cuda", "s", "lower", "wall", "eval, split",
     "setup_s, mean_ms.c on split",
     "BeagleInstance creation on cuda-sim, kernel build included"),
    ("traversal.plan_ms", "ms", "lower", "wall", "mcmc", "mean_ms.a",
     "plan_traversal / plan_partial_update per call"),
    ("matrices.update_ms", "ms", "lower", "wall", "eval, mcmc",
     "mean_ms.a", "update_transition_matrices per call (eager)"),
    ("matrices.count", "count", "lower", "wall", "eval, mcmc", "mean_ms.a",
     "transition-matrix requests per op"),
    ("matrices.cache_hit_frac", "frac", "higher", "wall", "mcmc",
     "rate_per_s", "matrix-cache hits over requests (about 0 on eval)"),
    ("partials.update_ms", "ms", "lower", "wall", "eval, mcmc", "mean_ms.a",
     "update_partials per call (eager)"),
    ("partials.ops", "count", "lower", "wall", "mcmc", "mean_ms.a",
     "partials operations per op, exact"),
    ("partials.gflops", "GFLOP/s", "higher", "wall", "eval, mcmc",
     "mean_ms.a", "effective partials throughput of eager update_partials"),
    ("root.reduce_ms", "ms", "lower", "wall", "eval, mcmc", "mean_ms.a",
     "calculate_root_log_likelihoods per call"),
    ("scale.accumulate_ms", "ms", "lower", "wall", "eval, mcmc", "mean_ms.a",
     "reset + accumulate_scale_factors per call"),
    ("plan.record_ms", "ms", "lower", "wall", "eval", "mean_ms.b",
     "the deferred instance's matrix and partials calls of one traversal "
     "(validated and recorded into its plan)"),
    ("plan.flush_ms", "ms", "lower", "wall", "eval", "mean_ms.b",
     "the deferred root call, which executes the recorded plan"),
    ("plan.verify_ms", "ms", "lower", "wall", "eval",
     "none (the op does not run it)",
     "static verify_plan of one traversal's plan, timed outside the op: "
     "the program runs it only with strict plan verification on"),
    ("plan.levels", "count", "lower", "wall", "eval", "mean_ms.b",
     "dependency levels per recorded plan"),
    ("plan.nodes", "count", "lower", "wall", "eval", "mean_ms.b",
     "nodes per recorded plan"),
    ("accel.launches", "count", "lower", "wall", "eval",
     "mean_ms.b, mean_ms.c",
     "kernel launches per accelerated op (kernel_launch_count)"),
    ("accel.ms_per_launch", "ms", "lower", "wall", "eval",
     "mean_ms.b, mean_ms.c", "accelerated op wall time per launch"),
    ("accel.sim_ms", "ms", "lower", "sim", "eval", "none (never gated)",
     "simulated device time per accelerated op (simulated_time)"),
    ("upper.update_ms", "ms", "lower", "wall", "eval", "mean_ms.c",
     "UpperPartials.update per call"),
    ("grad.batch_ms", "ms", "lower", "wall", "eval", "mean_ms.c",
     "UpperPartials.branch_gradients (one batched sweep) per call"),
    ("mcmc.chain_self_ms", "ms", "lower", "wall", "mcmc", "rate_per_s",
     "chain step time outside the likelihood backend, per generation"),
    ("mcmc.eval_ms", "ms", "lower", "wall", "mcmc", "mean_ms.a, rate_per_s",
     "backend propose_eval per call"),
    ("mcmc.restore_ms", "ms", "lower", "wall", "mcmc", "rate_per_s",
     "backend restore per rejected proposal"),
    ("mcmc.accept_frac", "frac", "higher", "wall", "mcmc", "rate_per_s",
     "accepted proposals over generations"),
    ("mcmc.full_frac", "frac", "lower", "wall", "mcmc", "rate_per_s",
     "generations needing a full traversal (topology/parameter moves)"),
    ("mcmc.restore_frac", "frac", "lower", "wall", "mcmc", "rate_per_s",
     "restore evaluations over all evaluations (wasted work)"),
    ("serve.submit_ms", "ms", "lower", "wall", "serve", "tail_ratio.a",
     "LikelihoodServer.submit (admission) per request"),
    ("serve.server_ms", "ms", "lower", "wall", "serve", "mean_ms.a",
     "median server-side latency (Ticket submit to completion)"),
    ("serve.late_ms", "ms", "lower", "wall", "serve", "tail_ratio.a",
     "median lateness of the load generator against the schedule"),
    ("serve.queue_depth_max", "count", "lower", "wall", "serve",
     "tail_ratio.a", "largest queue depth seen at submission"),
    ("serve.pool_hit_frac", "frac", "higher", "wall", "serve", "mean_ms.a",
     "pool acquisitions that were warm hits"),
    ("serve.rebind_frac", "frac", "lower", "wall", "serve", "mean_ms.a",
     "pool acquisitions that rebound a warm instance"),
    ("serve.builds", "count", "lower", "wall", "serve", "tail_ratio.a",
     "instances the pool built, last set-up and timed window"),
    ("serve.batch_occupancy", "count", "higher", "wall", "serve",
     "mean_ms.c", "mean requests per dispatched batch"),
    ("serve.rejects", "count", "lower", "wall", "serve", "ok_frac",
     "admission rejects"),
    ("split.fanout_ms", "ms", "lower", "wall", "split", "mean_ms.a",
     "op wall time minus the executor's critical path, median"),
    ("split.wall_imbalance", "frac", "lower", "wall", "split", "mean_ms.a",
     "max/mean - 1 of per-component wall time, median"),
    ("split.share.host", "frac", "lower", "wall", "split", "mean_ms.a",
     "final pattern share of host"),
    ("split.share.gpu", "frac", "higher", "wall", "split", "mean_ms.a",
     "final pattern share of gpu"),
    ("split.rebalances", "count", "lower", "wall", "split", "mean_ms.a",
     "rebalance events"),
    ("split.failovers", "count", "lower", "wall", "split", "mean_ms.c",
     "failover events"),
    ("split.retries", "count", "lower", "wall", "split", "mean_ms.c",
     "transient retries"),
    ("split.readmits", "count", "higher", "wall", "split", "mean_ms.a",
     "quarantined devices readmitted after a probe"),
    ("split.resplit_ms", "ms", "lower", "wall", "split", "mean_ms.c",
     "median wall time of one re-split (rebuild of moved instances)"),
    ("check.inexact_frac", "frac", "lower", "wall", "serve, mcmc, eval",
     "ok_frac",
     "same-backend checked values that matched only within 1e-12 "
     "relative, not bit for bit (an open defect); a run fails when this "
     "exceeds the workload's cap (MAX_INEXACT_FRAC)"),
    ("host.ref_ms", "ms", "lower", "wall", "all", "none (diagnostic)",
     "fixed compute-bound NumPy matmul reference, outside the window"),
    ("host.page_faults_per_op", "count", "lower", "wall", "all",
     "mean_ms.a", "minor page faults in the timed window per op (fresh "
     "memory the allocator had to map for the op's arrays)"),
    ("host.window_ms", "ms", "lower", "wall", "all",
     "none (the scale of the normalised metrics)",
     "the frozen pruning reference (hostref) sampled between the timed "
     "ops: trimmed mean of its time"),
    ("trace.overhead_frac", "frac", "lower", "wall", "all",
     "none (diagnostic)",
     "share of a traced slot-a op's wall time no layer span covers "
     "(span bookkeeping and glue between layer calls)"),
]


def check_sizes() -> None:
    """Raise unless every slot of every workload gets ``MIN_SAMPLES`` ops
    in a run of ``RUN_SECONDS``."""
    from common import MIN_SAMPLES

    import wl_eval
    import wl_mcmc
    import wl_serve
    import wl_split

    for module, name in ((wl_eval, "eval"), (wl_mcmc, "mcmc"),
                         (wl_serve, "serve"), (wl_split, "split")):
        counts = module.expected_counts(RUN_SECONDS)
        short = {slot: n for slot, n in counts.items() if n < MIN_SAMPLES}
        if short:
            raise ValueError(f"{name}: slots {short} get fewer than "
                             f"{MIN_SAMPLES} ops per run")


def benchmark_json():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w["name"], "why": w["why"]}
                      for w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound, _clock, _d in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b}
            for n, u, b, _clock, _w, _e, _d in PER_LAYER
        ],
    }


def metrics_json():
    import wl_serve

    check_sizes()
    loops = {w["name"]: w["loop"] for w in WORKLOADS}
    loops["serve"] = wl_serve.loop_description()
    return {
        "workloads": [
            {"name": w["name"], "loop": loops[w["name"]],
             "slots": w["slots"]}
            for w in WORKLOADS
        ],
        "end_to_end": [
            {"name": n, "clock": clk, "definition": d}
            for n, _u, _b, _bound, clk, d in END_TO_END
        ],
        "per_layer": [
            {"name": n, "clock": clk, "moves_on_workload": w,
             "moves_end_to_end": e, "definition": d}
            for n, _u, _b, clk, w, e, d in PER_LAYER
        ],
    }


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    sys.path[:0] = [here]
    for path, doc in ((os.path.join(root, "BENCHMARK.json"),
                       benchmark_json()),
                      (os.path.join(here, "metrics.json"), metrics_json())):
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
