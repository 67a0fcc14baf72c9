#!/usr/bin/env python3
"""Wall-clock benchmark of the library, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload eval --seed 1 --seconds 15 --trace 0

``--workload`` is one of eval, mcmc, serve, split (see ``spec.py``).
The inputs are generated from ``--seed``; the library receives only the
generated alignments and trees.  Every result is checked; a mismatch
makes the command exit with code 1.  The last line of standard output
is one JSON object: ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` a separate traced run that reports the per-layer metrics.
The end-to-end times and rates are scaled to a nominal host speed by a
frozen reference computation timed between the ops (``hostref.py``):
the host drifts by more than the metrics' bounds.  The line before the
result carries the values as measured (``measured``), the run's
environment (nproc, Python and NumPy versions, ``host.ref_ms``, the
reference's times) and a digest of every op result, which is identical
between a traced and an untraced run of the same seed.

The run is hermetic: one BLAS thread, no transparent huge pages for
NumPy arrays, a fresh autotuning cache under ``.perfbench/`` in the
checkout, and the lock sanitizer off.  Spans of a
traced run are written to ``.perfbench/spans-<workload>-<seed>.jsonl``;
``--table PATH`` (eval, traced) also writes the where-wall-time-goes
table to PATH.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("eval", "mcmc", "serve", "split")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--table", default=None,
                        help="eval --trace 1: write the wall-time table here")
    parser.add_argument("--capacity", action="store_true",
                        help="serve: measure the closed-loop capacity that "
                             "sizes the offered rate, print it, and exit")
    parser.add_argument("--corrupt-expected", action="store_true",
                        help="self-test: perturb one expected value, "
                             "which must fail the run")
    return parser.parse_args(argv)


def _hermetic_env(scratch: str) -> None:
    """Fix what could make two runs of the same code differ."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    # NumPy otherwise asks for transparent huge pages on large arrays;
    # whether the host can supply them varies, and it moved peak RSS by
    # a quarter between runs of the same seed.
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    os.environ["PYBEAGLE_TUNE_CACHE"] = os.path.join(scratch, "tune.json")
    os.environ.pop("PYBEAGLE_SANITIZE", None)
    _pin_allocator()


def _pin_allocator() -> None:
    """Fix glibc malloc's policy for large blocks (Linux).

    By default glibc adjusts its mmap threshold as blocks are freed, so
    whether the library's per-op temporaries (hundreds of KB each) come
    from the heap or from fresh mmaps depends on the process's history.
    In about one process in six the mcmc workload took the mmap path for
    the whole run: 24x the page faults, 15x the system time and half the
    op rate of the other runs of the same code.  Pinning the threshold
    (at glibc's 64-bit maximum, 32 MiB) and not trimming the heap makes
    every run take the heap path.  ``host.page_faults_per_op`` shows the
    faults that remain.
    """
    import ctypes

    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return
    m_trim_threshold, m_mmap_threshold, m_arena_max = -1, -3, -8
    libc.mallopt(m_mmap_threshold, 32 << 20)
    libc.mallopt(m_trim_threshold, 1 << 30)
    # One arena for every thread: memory a thread frees is reused by the
    # others rather than held in an arena of its own, so the peak RSS of
    # the threaded workloads (serve, split) does not depend on which
    # thread happened to allocate what.
    libc.mallopt(m_arena_max, 1)


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: src/repro not found next to perfbench/; run from "
              "a full checkout", file=sys.stderr)
        return 2
    out_dir = os.path.join(ROOT, ".perfbench")
    scratch = os.path.join(
        out_dir, f"tmp-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    _hermetic_env(scratch)
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    try:
        return _run(args, out_dir)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run(args, out_dir: str) -> int:
    import spec
    from common import NoSpans, Spans, environment, host_ref_ms
    from hostref import HostRef

    workload = next(w for w in spec.WORKLOADS if w["name"] == args.workload)
    module = importlib.import_module(f"wl_{args.workload}")
    if args.capacity:
        return _capacity(module, args.seed)
    traced = bool(args.trace)
    spans = Spans() if traced else NoSpans()
    ref_ms = host_ref_ms()
    host = HostRef()
    result = module.run(args.seed, args.seconds, spans, traced, host,
                        args.corrupt_expected)
    ops = result["ops"]
    mismatches = result["mismatches"]
    env = environment()
    info = dict(env, **{
        "host.ref_ms": ref_ms, "host.window_ms": host.ms("window"),
        "host.setup_ms": host.ms("setup"),
        "workload": args.workload, "seed": args.seed,
        "results_sha256": ops.digest.hexdigest(), "mismatches": mismatches,
        "check.inexact_frac": result["layer"]["check.inexact_frac"],
        "page_faults": result["page_faults"],
        "slots": workload["slots"],
    })

    if traced:
        layer = {name: 0.0 for name, *_ in spec.PER_LAYER}
        layer.update(result["layer"])
        layer["host.ref_ms"] = ref_ms
        layer["host.window_ms"] = host.ms("window")
        layer["host.page_faults_per_op"] = (result["page_faults"]
                                            / ops.attempted)
        layer["trace.overhead_frac"] = _overhead(spans, workload)
        units = {name: unit for name, unit, *_ in spec.PER_LAYER}
        metrics = {name: {"value": float(layer[name]), "unit": units[name]}
                   for name, *_ in spec.PER_LAYER}
        os.makedirs(out_dir, exist_ok=True)
        spans.write_jsonl(os.path.join(
            out_dir, f"spans-{args.workload}-{args.seed}.jsonl"))
        if args.workload == "eval":
            import walltime

            table = walltime.table(spans, (
                f"Measured with --seed {args.seed} --seconds "
                f"{args.seconds:g} on {env['nproc']} CPUs, Python "
                f"{env['python']}, NumPy {env['numpy']}."))
            print(table)
            if args.table:
                with open(args.table, "w") as fh:
                    fh.write(table)
    else:
        info["measured"] = _end_to_end(
            spec, workload, result["ops"],
            [d for d, _end in result["setup"]], result)
        metrics = _normalised(spec, workload, result, host)

    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": mismatches == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }))
    return 0 if mismatches == 0 else 1


def _capacity(module, seed: int) -> int:
    """Print the closed-loop capacity of an open-loop workload."""
    from common import percentile, trimmed_mean

    if not hasattr(module, "capacity"):
        print("perfbench: --capacity applies to open-loop workloads (serve)",
              file=sys.stderr)
        return 2
    ops_per_s, latency = module.capacity(seed)
    print(json.dumps({
        "capacity_ops_per_s": ops_per_s,
        "mean_ms": {k: trimmed_mean(v) * 1e3 for k, v in latency.items()},
        "p90_ms": {k: percentile(v, 0.9) * 1e3 for k, v in latency.items()},
    }))
    return 0


def _overhead(spans, workload) -> float:
    """Share of the traced slot-a ops' wall time no layer span covers.

    Zero where the benchmark does not split ops into layer calls
    (serve and split time whole requests and evaluations).
    """
    op = f"op.{workload['slots']['a']}"
    total = spans.total(op)
    covered = sum(v for k, v in spans.self_times(op).items() if k != op)
    return (total - covered) / total if covered else 0.0


def _end_to_end(spec, workload, ops, setup_times, result):
    """Every end-to-end metric of ``ops`` and the set-up durations."""
    from common import median

    good = ops.attempted - ops.failed
    values = {
        "setup_s": median(setup_times),
        "rate_per_s": good / ops.window_s,
        "ok_frac": good / ops.attempted,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    for slot, kind in workload["slots"].items():
        values[f"mean_ms.{slot}"] = ops.mean_ms(kind)
        values[f"tail_ratio.{slot}"] = ops.tail_ms(kind) / ops.mean_ms(kind)
    return {name: float(values[name]) for name, *_ in spec.END_TO_END}


def _normalised(spec, workload, result, host):
    """The end-to-end metrics at the host reference's nominal speed.

    Each set-up and each op is scaled by the reference sampled near its
    end (``HostRef.scale``); a closed loop's rate follows from the scaled
    op times.  An open loop's rate is the offered rate whatever the
    host's speed and stays as measured, and so do fractions and memory.
    """
    ops = result["ops"].scaled(host.scale)
    if workload["loop"].startswith("closed"):
        ops.window_s = ops.busy_s()
    setup = [d * host.scale(end, "setup") for d, end in result["setup"]]
    values = _end_to_end(spec, workload, ops, setup, result)
    units = {name: unit for name, unit, *_ in spec.END_TO_END}
    return {name: {"value": values[name], "unit": units[name]}
            for name, *_ in spec.END_TO_END}


if __name__ == "__main__":
    sys.exit(main())
