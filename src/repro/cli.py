"""Command-line tools: resource survey, experiments, and tracing.

``pybeagle-info`` mirrors BEAGLE's resource-listing utility: it
enumerates the simulated hardware catalog with capability flags, shows
which implementation the manager would pick for sample workloads, and can
dump a generated kernel program.

``pybeagle-experiments`` regenerates every paper table/figure through
:mod:`repro.bench.harness` (the same code the benchmark suite runs).

``pybeagle-trace`` runs a synthetic likelihood workload with the
:mod:`repro.obs` tracer enabled and prints the span tree, the hottest
operations, and the metrics snapshot — the quickest way to see where a
configuration spends its time.

``pybeagle-tune`` runs the kernel autotuner (:mod:`repro.accel.autotune`)
over the simulated device catalog: for every (device, state count,
variant) key it enumerates the feasible configuration space, measures
the top model-ranked candidates with real simulated launches, persists
the winner in the on-disk tuning cache, and reports the measured gain
over the validator-suggested default.

``pybeagle-serve`` runs a multi-tenant load drill against the
likelihood service (:mod:`repro.serve`): several tenants share one
alignment and submit concurrent likelihood/update requests through the
server's admission control, DRR scheduler, and warm instance pool.  It
prints per-tenant latency percentiles and pool/batch statistics, can
script a device-loss fault into the pool, and gates on a p99 latency
budget plus bit-exact parity with serial baselines — the same checks
the ``serve`` CI job enforces.

``pybeagle-cluster`` runs a node-loss drill against the simulated
cluster scheduler (:mod:`repro.cluster`): it builds a fleet of worker
nodes, submits sharded analyses through the calibrated bin-packing
placement, optionally kills or slows a node mid-analysis through the
fault plan, and gates on the failover invariant — the recovered
log-likelihood must be bit-identical to
:func:`repro.cluster.serial_shard_sum` over the same fixed shards.

``pybeagle-chaos`` runs a scripted fault-injection drill
(:mod:`repro.resil`) against a multi-device session: it installs a
:class:`~repro.resil.FaultPlan` (from a JSON file or a built-in
scenario), evaluates under a :class:`~repro.resil.RetryPolicy`, and
reports the recovery — failovers, quarantines, fired faults, the
``resil.*`` metric snapshot, and a bit-exact parity check of the
recovered log-likelihood against a serial reference over the final
split.  It exits non-zero when recovery or parity fails, so it doubles
as a CI chaos gate.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.core.flags import flag_names
from repro.core.manager import default_manager
from repro.core.types import InstanceConfig
from repro.util.tables import format_table

#: Backend names listed in the ``--backend`` help strings.
_BACKEND_NAMES = (
    "cpu-serial, cpu-sse, cpp-threads, opencl-x86, opencl-gpu, cuda"
)


def _add_workload_args(
    parser: argparse.ArgumentParser,
    backend: str,
    taxa: int,
    patterns: int,
    backend_help: Optional[str] = None,
    json_help: Optional[str] = None,
) -> None:
    """``--backend``/``--taxa``/``--patterns``/``--seed`` (and ``--json``
    when ``json_help`` is given) with one command's defaults."""
    parser.add_argument("--backend", default=backend, help=backend_help)
    parser.add_argument("--taxa", type=int, default=taxa)
    parser.add_argument("--patterns", type=int, default=patterns)
    parser.add_argument("--seed", type=int, default=1)
    if json_help is not None:
        parser.add_argument("--json", metavar="PATH", help=json_help)


def _add_retry_args(parser: argparse.ArgumentParser, probe_help: str) -> None:
    """The failover drills' ``--max-attempts``/``--probe-interval``."""
    parser.add_argument("--max-attempts", type=int, default=3,
                        help="RetryPolicy bound on in-place retries")
    parser.add_argument("--probe-interval", type=int, default=0,
                        help=probe_help)


def _unknown_backend(name: str) -> bool:
    """True (after printing why) when ``name`` names no backend."""
    from repro.config import backend_flags

    try:
        backend_flags(name)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return True
    return False


def _synthetic_workload(args: argparse.Namespace, states: int = 4):
    """The seeded (tree, pattern set) pair a drill runs on."""
    from repro.seq.simulate import synthetic_pattern_set
    from repro.tree.generate import yule_tree

    tree = yule_tree(args.taxa, rng=args.seed)
    data = synthetic_pattern_set(
        args.taxa, args.patterns, states, rng=args.seed + 1
    )
    return tree, data


def _unrecovered(exc: Exception) -> int:
    """Report a failure the drill did not recover from; exit status 1."""
    from repro.core.api import beagle_get_last_error_message

    print(f"UNRECOVERED: {type(exc).__name__}: {exc}", file=sys.stderr)
    print(f"error surface: {beagle_get_last_error_message()}",
          file=sys.stderr)
    return 1


def _write_report(path: str, report: dict, lead: str = "\n") -> None:
    """Write a drill report as indented JSON and say where."""
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
    print(f"{lead}wrote report to {path}")


def info_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pybeagle-info",
        description="Survey compute resources and implementation selection",
    )
    parser.add_argument(
        "--kernels", metavar="FRAMEWORK",
        choices=("cuda", "opencl"),
        help="dump the generated kernel program for a framework",
    )
    parser.add_argument(
        "--variant", default="gpu", choices=("gpu", "x86", "cpu"),
        help="kernel variant for --kernels (cpu implies opencl)",
    )
    parser.add_argument("--states", type=int, default=4)
    parser.add_argument(
        "--precision", default="single", choices=("single", "double")
    )
    args = parser.parse_args(argv)

    if args.kernels:
        from repro.accel.ir import KernelConfig, build_program_ir
        from repro.accel.lower import CUDA_MACROS, OPENCL_MACROS, lowering_for

        if args.kernels == "cuda" and args.variant == "cpu":
            print("the cpu (host-vector) variant lowers through OpenCL; "
                  "use --kernels opencl", file=sys.stderr)
            return 2
        macros = CUDA_MACROS if args.kernels == "cuda" else OPENCL_MACROS
        config = KernelConfig(
            state_count=args.states, precision=args.precision,
            variant=args.variant,
        )
        print(lowering_for(config, macros).lower(build_program_ir(config)))
        return 0

    manager = default_manager()
    rows = []
    for res in manager.resources():
        rows.append([res.resource_id, res.name, res.description,
                     flag_names(res.support_flags)])
    print(format_table(
        ["id", "name", "type", "flags"], rows, title="Compute resources"
    ))
    print()

    # What would the manager pick for representative workloads?
    from repro.core.flags import Flag

    sample_rows = []
    for label, states, patterns in (
        ("nucleotide / small", 4, 500),
        ("nucleotide / large", 4, 100_000),
        ("codon", 61, 5_000),
    ):
        config = InstanceConfig(
            tip_count=16, partials_buffer_count=31, compact_buffer_count=0,
            state_count=states, pattern_count=patterns,
            eigen_buffer_count=1, matrix_buffer_count=31,
        )
        impl, details = manager.create_implementation(
            config, preference_flags=Flag.PROCESSOR_GPU
        )
        sample_rows.append(
            [label, details.implementation_name, details.resource_name]
        )
        impl.finalize()
    print(format_table(
        ["workload", "implementation", "resource"], sample_rows,
        title="Default selection (GPU preferred)",
    ))
    print()

    from repro.partition import rank_backends

    ranked = rank_backends(16, 100_000)
    print(format_table(
        ["backend", "predicted GFLOPS"],
        [[c.name, c.predicted_gflops] for c in ranked],
        title="Performance-model ranking (nucleotide, 100k patterns, SP)",
    ))
    return 0


def experiments_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pybeagle-experiments",
        description="Regenerate the paper's tables and figures",
    )
    parser.add_argument(
        "which", nargs="*", default=[],
        help="experiment names (default: all); see --list",
    )
    parser.add_argument("--list", action="store_true")
    parser.add_argument(
        "--plot", action="store_true",
        help="also render figure experiments as ASCII charts",
    )
    args = parser.parse_args(argv)

    from repro.bench.harness import ALL_EXPERIMENTS

    if args.list:
        for name in ALL_EXPERIMENTS:
            print(name)
        return 0
    names = args.which or list(ALL_EXPERIMENTS)
    for name in names:
        if name not in ALL_EXPERIMENTS:
            print(f"unknown experiment {name!r}; use --list", file=sys.stderr)
            return 2
        result = ALL_EXPERIMENTS[name]()
        print(result.table())
        if result.notes:
            print(f"  note: {result.notes}")
        if args.plot and name.startswith("fig"):
            from repro.util.asciiplot import plot_experiment

            linear = name == "fig5"
            if name == "fig6":
                print()
            else:
                print()
                print(plot_experiment(
                    result, log_x=not linear, log_y=not linear,
                ))
        print()
    return 0


def trace_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pybeagle-trace",
        description="Run a traced likelihood workload and profile it",
    )
    _add_workload_args(
        parser, backend="auto", taxa=16, patterns=1000,
        backend_help=f"backend name (auto, {_BACKEND_NAMES})",
    )
    parser.add_argument("--states", type=int, default=4)
    parser.add_argument("--reps", type=int, default=3,
                        help="likelihood evaluations to run")
    parser.add_argument(
        "--deferred", action="store_true",
        help="record operations into an execution plan (fused levels)",
    )
    parser.add_argument("--top", type=int, default=5,
                        help="hottest span names to list")
    parser.add_argument(
        "--jsonl", metavar="PATH",
        help="also export the span stream as JSON lines",
    )
    parser.add_argument(
        "--metrics-jsonl", metavar="PATH",
        help="also export the metrics snapshot as JSON lines",
    )
    args = parser.parse_args(argv)

    from repro.model import HKY85
    from repro.session import Session

    if _unknown_backend(args.backend):
        return 2

    tree, data = _synthetic_workload(args, args.states)
    if args.states != 4:
        print("only --states 4 is supported", file=sys.stderr)
        return 2
    model = HKY85(kappa=2.0)

    backend = None if args.backend == "auto" else args.backend
    with Session(
        data, tree, model, backend=backend,
        deferred=args.deferred, trace=True,
    ) as session:
        for rep in range(args.reps):
            if rep == args.reps - 1:
                # Show (and export) only the final evaluation's spans;
                # metrics keep accumulating across all reps.
                session.tracer.clear()
            logl = session.log_likelihood()

        print(f"backend:        {session.resource.implementation_name}")
        print(f"resource:       {session.resource.resource_name}")
        print(f"log-likelihood: {logl:.6f}")
        print()
        print("— span tree (last evaluation) —")
        print(session.span_tree())
        print("— hottest operations —")
        for row in session.hottest(args.top):
            print(
                f"  {row['name']:<28s} {row['kind']:<7s} "
                f"calls={row['calls']:<5d} total={row['total_s'] * 1e3:9.3f} ms "
                f"mean={row['mean_s'] * 1e3:9.3f} ms"
            )
        print()
        print("— metrics —")
        for name in session.metrics.names():
            print(f"  {session.metrics.get(name)!r}")

        if args.jsonl:
            n = session.tracer.to_jsonl(args.jsonl)
            print(f"\nwrote {n} spans to {args.jsonl}")
        if args.metrics_jsonl:
            session.metrics.to_jsonl(args.metrics_jsonl)
            print(f"wrote metrics snapshot to {args.metrics_jsonl}")
    return 0


def verify_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pybeagle-verify",
        description="Static verification: plan hazards, kernel configs, "
                    "and concurrency lint",
    )
    parser.add_argument(
        "--plan", action="store_true",
        help="verify the execution plan of a sample session",
    )
    parser.add_argument(
        "--kernels", action="store_true",
        help="validate kernel configs across the device catalog",
    )
    parser.add_argument(
        "--lint", metavar="PATH", nargs="*",
        help="run the concurrency/API lint (default: the repro package)",
    )
    parser.add_argument(
        "--ir", action="store_true",
        help="dataflow-verify the kernel IR catalog and lower it "
             "under every backend",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="exit non-zero if any error-severity diagnostic remains",
    )
    _add_workload_args(parser, backend="auto", taxa=8, patterns=200)
    args = parser.parse_args(argv)

    from repro.analysis import (
        Diagnostic,
        Severity,
        format_diagnostics,
        lint_paths,
        suggest_kernel_config,
        validate_kernel_config,
    )

    run_all = not (
        args.plan or args.kernels or args.ir or args.lint is not None
    )
    gating = []  # error diagnostics that should fail a strict run

    if args.plan or run_all:
        from repro.model import HKY85
        from repro.session import Session

        if _unknown_backend(args.backend):
            return 2
        tree, data = _synthetic_workload(args)
        backend = None if args.backend == "auto" else args.backend
        with Session(data, tree, HKY85(kappa=2.0), backend=backend) as s:
            diags = s.verify()
            print(format_diagnostics(
                diags,
                header=f"plan verification "
                       f"({s.resource.implementation_name}, "
                       f"{args.taxa} taxa, {args.patterns} patterns):",
            ))
            gating.extend(d for d in diags if d.severity is Severity.ERROR)
        print()

    if args.kernels or run_all:
        from repro.accel.device import DEVICE_CATALOG, ProcessorType
        from repro.accel.ir import KernelConfig

        print("kernel-config validation (device catalog sweep):")
        for device in DEVICE_CATALOG.values():
            is_gpu = device.processor == ProcessorType.GPU
            for states in (4, 20, 61):
                requested = KernelConfig(
                    state_count=states,
                    precision="single",
                    variant="gpu" if is_gpu else "x86",
                    use_fma=True,
                    use_local_memory=is_gpu,
                )
                diags = validate_kernel_config(requested, device)
                label = f"  {device.name:<24s} states={states:<3d}"
                if not diags:
                    print(f"{label} requested config OK")
                else:
                    print(f"{label} requested config rejected:")
                    for d in sorted(
                        diags, key=lambda d: d.severity, reverse=True
                    ):
                        print(f"    {d.format()}")
                fitted = suggest_kernel_config(requested, device)
                residual = validate_kernel_config(fitted, device)
                residual_errors = [
                    d for d in residual if d.severity is Severity.ERROR
                ]
                if residual_errors:
                    print(f"{label} suggested config STILL INVALID:")
                    for d in residual_errors:
                        print(f"    {d.format()}")
                    gating.extend(residual_errors)
                elif diags:
                    print(
                        f"    fix: variant={fitted.variant} "
                        f"block={fitted.pattern_block_size} "
                        f"wg_patterns={fitted.workgroup_patterns} "
                        f"fma={fitted.use_fma} "
                        f"local={fitted.use_local_memory}"
                    )
        print()

    if args.ir or run_all:
        from repro.accel.ir import IRError, KernelConfig, build_program_ir
        from repro.accel.lower import (
            CUDA_MACROS,
            OPENCL_MACROS,
            LoweringError,
            lowering_for,
        )
        from repro.analysis.irverify import verify_program_ir

        print("kernel-IR dataflow verification (catalog sweep):")
        for variant in ("gpu", "x86", "cpu"):
            for states in (4, 20, 61):
                config = KernelConfig(
                    state_count=states,
                    precision="double",
                    variant=variant,
                    use_local_memory=variant == "gpu",
                )
                label = f"  variant={variant:<4s} states={states:<3d}"
                try:
                    program = build_program_ir(config)
                except IRError as exc:
                    print(f"{label} IR build failed: {exc}")
                    gating.append(Diagnostic(
                        severity=Severity.ERROR, code="ir-build",
                        message=str(exc), source="ir", location=label,
                    ))
                    continue
                diags = verify_program_ir(program)
                gating.extend(
                    d for d in diags if d.severity is Severity.ERROR
                )
                macro_sets = (
                    [OPENCL_MACROS]
                    if variant == "x86"
                    else [CUDA_MACROS, OPENCL_MACROS]
                )
                lowered = []
                for macros in macro_sets:
                    try:
                        lowering = lowering_for(config, macros)
                        lowering.lower(program)
                        lowered.append(lowering.lowering_name)
                    except LoweringError as exc:
                        print(f"{label} lowering failed: {exc}")
                        gating.append(Diagnostic(
                            severity=Severity.ERROR, code="ir-lowering",
                            message=str(exc), source="ir",
                            location=label,
                        ))
                if not diags:
                    print(
                        f"{label} {len(program.kernels)} kernels clean "
                        f"(lowered: {', '.join(lowered)})"
                    )
                else:
                    for d in sorted(
                        diags, key=lambda d: d.severity, reverse=True
                    ):
                        print(f"    {d.format()}")
        print()

    if args.lint is not None or run_all:
        import repro

        paths = args.lint or [repro.__path__[0]]
        diags = lint_paths(paths)
        print(format_diagnostics(
            diags, header=f"concurrency/API lint ({', '.join(paths)}):"
        ))
        gating.extend(d for d in diags if d.severity is Severity.ERROR)
        print()

    if gating:
        print(f"{len(gating)} error-severity diagnostic(s)")
        return 1 if args.strict else 0
    print("all checks clean")
    return 0


def chaos_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pybeagle-chaos",
        description="Run a scripted fault-injection drill against a "
                    "multi-device session and verify the recovery",
    )
    parser.add_argument(
        "--plan", metavar="PATH",
        help="fault-plan JSON file (default: a built-in scenario)",
    )
    parser.add_argument(
        "--scenario", default="device-loss",
        choices=("device-loss", "transient", "latency"),
        help="built-in scenario used when no --plan is given: the last "
             "device is lost mid-run / fails transiently / runs slow",
    )
    parser.add_argument("--devices", type=int, default=2,
                        help="simulated device count (labels dev0..devN-1)")
    _add_workload_args(
        parser, backend="cuda", taxa=16, patterns=2000,
        backend_help=f"backend name for every device ({_BACKEND_NAMES})",
        json_help="write the full drill report as JSON",
    )
    parser.add_argument("--evaluations", type=int, default=4)
    _add_retry_args(
        parser, "probe quarantined devices every N evaluations (0: never)"
    )
    parser.add_argument(
        "--level", default="auto",
        choices=("auto", "hardware", "wrapper"),
        help="where the fault plan is installed (see repro.resil.faults)",
    )
    args = parser.parse_args(argv)

    from dataclasses import asdict

    from repro.model import HKY85
    from repro.partition.multi import MultiDeviceLikelihood
    from repro.resil import FaultEvent, FaultPlan, RetryPolicy
    from repro.session import Session, backend_flags

    if _unknown_backend(args.backend):
        return 2
    if args.devices < 2:
        print("need --devices >= 2 for a failover drill", file=sys.stderr)
        return 2

    if args.plan:
        with open(args.plan) as fh:
            plan = FaultPlan.from_json(fh.read())
        scenario = args.plan
    else:
        victim = f"dev{args.devices - 1}"
        if args.scenario == "device-loss":
            events = [FaultEvent("device-loss", victim, at=1)]
        elif args.scenario == "transient":
            events = [FaultEvent(
                "transient-kernel", victim,
                at=0, times=max(1, args.max_attempts - 1),
            )]
        else:
            events = [FaultEvent(
                "latency-spike", victim, at=0, times=3, seconds=0.05
            )]
        plan = FaultPlan(events, seed=args.seed)
        scenario = args.scenario

    policy = RetryPolicy(
        max_attempts=args.max_attempts,
        probe_interval=args.probe_interval,
        seed=plan.seed,
    )
    tree, data = _synthetic_workload(args)
    model = HKY85(kappa=2.0)
    requests = {f"dev{i}": args.backend for i in range(args.devices)}

    print(f"scenario: {scenario} "
          f"({len(plan.events)} scripted fault event(s))")
    lls: List[float] = []
    with Session.multi_device(
        data, tree, model,
        device_requests=requests,
        rebalance=False, trace=True,
        retry_policy=policy, fault_plan=plan, fault_level=args.level,
    ) as md:
        try:
            for i in range(args.evaluations):
                lls.append(md.log_likelihood())
        except Exception as exc:
            return _unrecovered(exc)
        rows = [[label, impl, str(n)] for label, impl, n
                in md.device_report()]
        print(format_table(
            ["device", "implementation", "patterns"], rows,
            title="Surviving split",
        ))
        failovers = md.failover_events()
        quarantined = sorted(md.quarantined())
        survivors = list(md.likelihood.labels)
        proportions = list(md.proportions)
        resil_metrics = {
            name: md.metrics.get(name).snapshot()
            for name in md.metrics.names()
            if name.startswith("resil.")
        }

    # Parity: the recovered concurrent sum must be bit-identical to a
    # fresh serial evaluation over the same (post-failover) split.
    with MultiDeviceLikelihood(
        tree, data, model,
        device_requests={
            label: backend_flags(args.backend) for label in survivors
        },
        proportions=proportions,
    ) as reference:
        serial_ll = reference.log_likelihood()
    parity_ok = bool(lls) and lls[-1] == serial_ll

    print()
    for i, ll in enumerate(lls):
        print(f"evaluation {i}: log-likelihood {ll!r}")
    print(f"serial reference over final split: {serial_ll!r}")
    print(f"parity: {'OK (bit-identical)' if parity_ok else 'FAIL'}")
    print()
    print(f"failovers: {len(failovers)}")
    for event in failovers:
        print(f"  evaluation {event.evaluation}: lost {event.label!r} "
              f"({event.error}); survivors {event.survivors}, "
              f"wasted {event.wasted_s:.6f}s")
    print(f"quarantined: {quarantined}")
    fired = plan.fired()
    for label in sorted(fired):
        kinds = ", ".join(
            f"{ev.kind}@{n}" for n, ev in fired[label]
        )
        print(f"faults fired on {label!r}: {kinds}")
    if resil_metrics:
        print()
        print("— resil metrics —")
        for name in sorted(resil_metrics):
            print(f"  {resil_metrics[name]!r}")

    if args.json:
        report = {
            "scenario": scenario,
            "plan": plan.to_dict(),
            "workload": {
                "taxa": args.taxa,
                "patterns": args.patterns,
                "devices": args.devices,
                "backend": args.backend,
                "evaluations": args.evaluations,
            },
            "log_likelihoods": lls,
            "serial_reference": serial_ll,
            "parity_ok": parity_ok,
            "failovers": [asdict(event) for event in failovers],
            "quarantined": quarantined,
            "fired": {
                label: [[n, asdict(ev)] for n, ev in events]
                for label, events in fired.items()
            },
            "metrics": resil_metrics,
        }
        _write_report(args.json, report)

    return 0 if parity_ok else 1


def cluster_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pybeagle-cluster",
        description="Run a sharded analysis on a simulated node fleet, "
                    "optionally killing a node mid-run, and verify the "
                    "recovered result is bit-identical to the serial "
                    "baseline",
    )
    parser.add_argument("--nodes", type=int, default=3,
                        help="worker-node count (labels node0..nodeN-1)")
    parser.add_argument("--devices-per-node", type=int, default=1)
    _add_workload_args(
        parser, backend="cuda", taxa=16, patterns=2000,
        backend_help=f"backend name for every device ({_BACKEND_NAMES})",
        json_help="write the full drill report as JSON",
    )
    parser.add_argument("--shards", type=int, default=None,
                        help="shards per job (default: 2x device count)")
    parser.add_argument("--evaluations", type=int, default=3)
    parser.add_argument(
        "--scenario", default="node-loss",
        choices=("node-loss", "slow-node", "none"),
        help="fault script: the last node is lost mid-run / runs slow / "
             "nothing is injected",
    )
    _add_retry_args(
        parser, "probe quarantined nodes every N dispatch rounds (0: never)"
    )
    parser.add_argument("--trace", action="store_true",
                        help="print the cluster span tree")
    args = parser.parse_args(argv)

    from dataclasses import asdict

    from repro.cluster import ClusterSession
    from repro.model import HKY85
    from repro.resil import FaultEvent, FaultPlan, RetryPolicy

    if _unknown_backend(args.backend):
        return 2
    if args.nodes < 1:
        print("need --nodes >= 1", file=sys.stderr)
        return 2
    if args.scenario == "node-loss" and args.nodes < 2:
        print("need --nodes >= 2 for a node-loss drill", file=sys.stderr)
        return 2

    victim = f"node{args.nodes - 1}"
    if args.scenario == "node-loss":
        plan = FaultPlan(
            [FaultEvent("device-loss", victim, at=1)], seed=args.seed
        )
    elif args.scenario == "slow-node":
        plan = FaultPlan(
            [FaultEvent("latency-spike", victim, at=0, times=4,
                        seconds=0.05)],
            seed=args.seed,
        )
    else:
        plan = None
    policy = RetryPolicy(
        max_attempts=args.max_attempts,
        probe_interval=args.probe_interval,
        seed=args.seed,
    )

    tree, data = _synthetic_workload(args)
    model = HKY85(kappa=2.0)
    fleet = {
        f"node{i}": {
            f"node{i}-dev{j}": args.backend
            for j in range(args.devices_per_node)
        }
        for i in range(args.nodes)
    }

    print(f"scenario: {args.scenario} "
          f"({0 if plan is None else len(plan.events)} scripted event(s))")
    lls: List[float] = []
    with ClusterSession(
        data, tree, model,
        nodes=fleet, n_shards=args.shards,
        retry_policy=policy, fault_plan=plan, trace=args.trace,
    ) as cs:
        serial_ll = cs.serial_baseline()
        try:
            for _ in range(args.evaluations):
                lls.append(cs.log_likelihood())
        except Exception as exc:
            return _unrecovered(exc)
        rows = [
            [name, str(capacity), f"{rate:.1f}", str(completed)]
            for name, capacity, rate, completed in cs.node_report()
        ]
        print(format_table(
            ["node", "devices", "rate", "shards done"], rows,
            title=f"Fleet after {args.evaluations} evaluation(s)",
        ))
        losses = cs.node_loss_events()
        quarantined = sorted(cs.quarantined())
        migrations = cs.migrations
        placements = len(cs.placements())
        utilization = cs.utilization()
        cluster_metrics = {
            name: cs.metrics.get(name).snapshot()
            for name in cs.metrics.names()
            if name.startswith("cluster.")
        }
        if args.trace:
            print()
            print("— span tree (all evaluations) —")
            print(cs.span_tree())

    parity_ok = bool(lls) and all(ll == serial_ll for ll in lls)

    print()
    for i, ll in enumerate(lls):
        print(f"evaluation {i}: log-likelihood {ll!r}")
    print(f"serial shard-sum baseline: {serial_ll!r}")
    print(f"parity: {'OK (bit-identical)' if parity_ok else 'FAIL'}")
    print()
    print(f"placement decisions: {placements}, "
          f"migrations: {migrations}")
    for event in losses:
        print(f"  round {event.round}: lost {event.node!r} "
              f"({event.error}); {len(event.migrated)} shard(s) "
              f"re-packed onto {event.survivors}")
    print(f"quarantined: {quarantined}")
    if utilization:
        spread = ", ".join(
            f"{name}={value:.2f}" for name, value in sorted(
                utilization.items()
            )
        )
        print(f"last-round utilization: {spread}")

    if args.json:
        report = {
            "scenario": args.scenario,
            "plan": None if plan is None else plan.to_dict(),
            "workload": {
                "taxa": args.taxa,
                "patterns": args.patterns,
                "nodes": args.nodes,
                "devices_per_node": args.devices_per_node,
                "backend": args.backend,
                "evaluations": args.evaluations,
                "shards": args.shards,
            },
            "log_likelihoods": lls,
            "serial_baseline": serial_ll,
            "parity_ok": parity_ok,
            "node_loss_events": [asdict(event) for event in losses],
            "quarantined": quarantined,
            "migrations": migrations,
            "placement_decisions": placements,
            "utilization": utilization,
            "metrics": cluster_metrics,
        }
        _write_report(args.json, report)

    if not parity_ok:
        return 1
    if args.scenario == "node-loss" and not losses:
        print("node-loss drill fired no node-loss event", file=sys.stderr)
        return 1
    return 0


def serve_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pybeagle-serve",
        description="Run a multi-tenant load drill against the "
                    "likelihood service and report per-tenant latency",
    )
    parser.add_argument("--tenants", type=int, default=3)
    parser.add_argument("--requests", type=int, default=8,
                        help="requests per tenant")
    _add_workload_args(
        parser, backend="cpu-serial", taxa=12, patterns=1000,
        backend_help=f"backend name ({_BACKEND_NAMES})",
        json_help="write the full report as JSON",
    )
    parser.add_argument("--pool", type=int, default=2,
                        help="warm instances per pool key")
    parser.add_argument("--batch-limit", type=int, default=8)
    parser.add_argument(
        "--weights", type=float, nargs="+", default=None,
        help="per-tenant DRR weights (cycled; default: 2 then 1s)",
    )
    parser.add_argument(
        "--chaos", action="store_true",
        help="script a device-loss fault into the first pooled "
             "instance and recover through retry/failover",
    )
    parser.add_argument(
        "--p99-budget", type=float, default=None, metavar="S",
        help="fail (exit 1) if any tenant's p99 exceeds this budget",
    )
    args = parser.parse_args(argv)

    from repro.config import SessionConfig
    from repro.core import TreeLikelihood
    from repro.model import HKY85, SiteModel
    from repro.resil import FaultEvent, FaultPlan, RetryPolicy
    from repro.seq.simulate import synthetic_pattern_set
    from repro.serve import LikelihoodServer
    from repro.tree.generate import yule_tree

    if _unknown_backend(args.backend):
        return 2
    if args.tenants < 2:
        print("need --tenants >= 2 for a multi-tenant drill",
              file=sys.stderr)
        return 2

    model = HKY85(kappa=2.0)
    site_model = SiteModel.gamma(0.5, 4)
    data = synthetic_pattern_set(args.taxa, args.patterns, 4,
                                 rng=args.seed)
    trees = [yule_tree(args.taxa, rng=args.seed + 100 + i)
             for i in range(args.tenants)]
    weights = args.weights or [2.0] + [1.0] * (args.tenants - 1)

    if args.chaos:
        config = SessionConfig(
            backend=args.backend, deferred=True,
            retry_policy=RetryPolicy(max_attempts=3, failover=True,
                                     seed=args.seed),
            fault_plan=FaultPlan(
                [FaultEvent("device-loss", "serve-0", at=2)],
                seed=args.seed,
            ),
            fault_level="wrapper",
        )
    else:
        config = SessionConfig(backend=args.backend, deferred=True)

    with LikelihoodServer(
        config,
        max_queue=4 * args.tenants * args.requests,
        batch_limit=args.batch_limit,
        pool_per_key=args.pool,
    ) as server:
        clients = [
            server.register(
                f"tenant{i}",
                weight=weights[i % len(weights)],
                quota=max(4, args.requests),
            )
            for i in range(args.tenants)
        ]
        tickets = [
            client.submit(data, trees[i], model, site_model)
            for _ in range(args.requests)
            for i, client in enumerate(clients)
        ]
        values = [ticket.result(timeout=300) for ticket in tickets]
        stats = server.tenant_stats()
        pool_keys = len(server.pool_sizes())
        counters = {
            name: server.metrics.counter(f"serve.{name}").value
            for name in ("pool.hit", "pool.rebind", "pool.miss",
                         "pool.retired", "failover.events",
                         "admission.rejects")
        }
        occupancy_mean = server.metrics.histogram(
            "serve.batch.occupancy"
        ).mean

    rows = [
        [name, f"{s['weight']:g}", f"{s['completed']:.0f}",
         f"{s['p50_s'] * 1e3:.1f}", f"{s['p99_s'] * 1e3:.1f}"]
        for name, s in sorted(stats.items())
    ]
    print(format_table(
        ["tenant", "weight", "completed", "p50 ms", "p99 ms"], rows,
        title=f"Serving drill: {len(values)} requests, "
              f"{args.backend}, pool keys: {pool_keys}",
    ))
    print(f"pool: {counters['pool.hit']:.0f} hits / "
          f"{counters['pool.rebind']:.0f} rebinds / "
          f"{counters['pool.miss']:.0f} builds; "
          f"batch occupancy mean {occupancy_mean:.2f}")
    if args.chaos:
        print(f"chaos: {counters['failover.events']:.0f} failover(s), "
              f"{counters['pool.retired']:.0f} retired instance(s)")

    # Parity: every served value must be bit-identical to a serial
    # evaluation of the same (tree, data, model) outside the server.
    kwargs = config.replace(
        deferred=False, fault_plan=None, retry_policy=None,
    ).likelihood_kwargs()
    baselines = []
    for tree in trees:
        with TreeLikelihood(tree, data, model, site_model,
                            **kwargs) as tl:
            baselines.append(tl.log_likelihood())
    parity_ok = all(
        value == baselines[i % args.tenants]
        for i, value in enumerate(values)
    )
    print(f"parity: {'OK (bit-identical)' if parity_ok else 'FAIL'}")

    worst_p99 = max(s["p99_s"] for s in stats.values())
    budget_ok = True
    if args.p99_budget is not None:
        budget_ok = worst_p99 <= args.p99_budget
        print(f"worst p99: {worst_p99 * 1e3:.1f} ms "
              f"(budget {args.p99_budget * 1e3:.0f} ms: "
              f"{'OK' if budget_ok else 'EXCEEDED'})")

    if args.json:
        report = {
            "workload": {
                "tenants": args.tenants,
                "requests_per_tenant": args.requests,
                "taxa": args.taxa,
                "patterns": args.patterns,
                "backend": args.backend,
                "chaos": args.chaos,
                "weights": weights,
            },
            "tenants": stats,
            "pool_keys": pool_keys,
            "counters": counters,
            "batch_occupancy_mean": occupancy_mean,
            "parity_ok": parity_ok,
            "worst_p99_s": worst_p99,
        }
        _write_report(args.json, report, lead="")

    if not parity_ok:
        return 1
    if args.chaos and counters["failover.events"] < 1:
        print("chaos drill fired no failover", file=sys.stderr)
        return 1
    return 0 if budget_ok else 1


def tune_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pybeagle-tune",
        description="Autotune kernel configurations per device and "
                    "persist the winners in the tuning cache",
    )
    parser.add_argument(
        "--device", action="append", metavar="NAME",
        help="device-catalog name substring (repeatable; default: "
             "every device in the simulated catalog)",
    )
    parser.add_argument(
        "--states", type=int, nargs="+", default=[4, 61],
        help="state counts to tune (default: 4 61)",
    )
    parser.add_argument(
        "--precision", default="double", choices=("single", "double")
    )
    parser.add_argument(
        "--cache", metavar="PATH",
        help="tuning-cache file (default: $PYBEAGLE_TUNE_CACHE or "
             "~/.cache/pybeagle/tuning.json)",
    )
    parser.add_argument(
        "--patterns", type=int, nargs="+", default=None,
        help="pattern counts of the tuning workload",
    )
    parser.add_argument("--top-k", type=int, default=4,
                        help="model-ranked candidates to measure")
    parser.add_argument("--reps", type=int, default=3,
                        help="measurement repetitions per candidate")
    parser.add_argument(
        "--json", metavar="PATH",
        help="write every tuning record as a JSON report",
    )
    parser.add_argument(
        "--assert-gain", action="store_true",
        help="exit non-zero if any tuned config underperforms the "
             "validator-suggested default (measured gain < 1)",
    )
    args = parser.parse_args(argv)

    from pathlib import Path

    from repro.accel.autotune import (
        DEFAULT_PATTERN_COUNTS,
        AutoTuner,
        TuningCache,
        get_cache,
    )
    from repro.accel.device import DEVICE_CATALOG, ProcessorType, get_device

    if args.device:
        try:
            devices = [get_device(name) for name in args.device]
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
    else:
        devices = list(DEVICE_CATALOG.values())
    cache = (
        TuningCache(Path(args.cache)) if args.cache else get_cache()
    )
    patterns = tuple(args.patterns) if args.patterns \
        else DEFAULT_PATTERN_COUNTS

    def describe(config):
        knob = (
            f"block={config.pattern_block_size}"
            if config.variant == "gpu"
            else f"wg={config.workgroup_patterns}"
        )
        return f"{knob} fma={'on' if config.use_fma else 'off'}"

    records = []
    rows = []
    for device in devices:
        variants = (
            [None, "cpu"]
            if device.processor == ProcessorType.CPU
            else [None]
        )
        tuner = AutoTuner(
            device, cache=cache, pattern_counts=patterns,
            top_k=args.top_k, reps=args.reps,
        )
        for states in args.states:
            for variant in variants:
                result = tuner.tune(
                    states, precision=args.precision, variant=variant
                )
                records.append(result.to_dict())
                rows.append([
                    device.name, str(states),
                    result.best.variant,
                    describe(result.baseline),
                    describe(result.best),
                    f"{result.gain:.3f}",
                    str(result.n_candidates),
                ])
    print(format_table(
        ["device", "states", "variant", "default", "tuned", "gain",
         "candidates"],
        rows,
        title=f"Autotune sweep ({args.precision} precision)",
    ))
    print(f"\ncache: {cache.path} ({cache.entry_count()} entries)")

    if args.json:
        report = {
            "precision": args.precision,
            "pattern_counts": list(patterns),
            "cache_path": str(cache.path),
            "records": records,
        }
        _write_report(args.json, report, lead="")

    if args.assert_gain:
        losers = [r for r in records if r["gain"] < 1.0]
        if losers:
            for r in losers:
                print(
                    f"REGRESSION: {r['device']} {r['key']} tuned config "
                    f"underperforms default (gain {r['gain']:.3f})",
                    file=sys.stderr,
                )
            return 1
        print("all tuned configs at least match their defaults")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(info_main())
