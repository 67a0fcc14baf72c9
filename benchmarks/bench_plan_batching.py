"""Deferred execution plans: level batching payoffs.

Two measurements behind the plan layer:

* **Kernel-launch amortisation** — replaying a traversal through
  ``execute_plan`` fuses each dependency level of partials operations
  into one simulated kernel launch; the eager path pays one launch per
  operation.  Recorded per device as launch counts plus modelled time.
* **Thread-pool throughput** — the deferred path hands whole levels to
  the pool (one fork/join wave per level) instead of one wave per
  ``update_partials`` call; pytest-benchmark times both.
"""

import pytest

from benchmarks.conftest import build_impl
from repro.accel.device import QUADRO_P5000, XEON_E5_2680V4_X2
from repro.core.plan import ExecutionPlan
from repro.impl import AcceleratedImplementation, CPUThreadPoolImplementation
from repro.util.tables import format_table

DEVICES = [
    ("cuda", QUADRO_P5000),
    ("opencl", XEON_E5_2680V4_X2),
]


def record_plan(plan_traversal_result):
    """Record a traversal's partials operations into an ExecutionPlan."""
    plan = ExecutionPlan()
    plan.record_operations(plan_traversal_result.operations)
    return plan


def test_kernel_launch_batching(record):
    """One fused launch per level instead of one per operation."""
    rows = []
    for framework, device in DEVICES:
        impl, traversal = build_impl(
            lambda cfg, prec: AcceleratedImplementation(
                cfg, prec, framework=framework, device=device
            ),
            tips=16,
            patterns=4000,
        )
        n_ops = len(traversal.operations)

        impl.interface.clock.reset()
        impl.update_partials(traversal.operations)
        eager_launches = impl.kernel_launch_count
        eager_time = impl.simulated_time

        plan = record_plan(traversal)
        impl.interface.clock.reset()
        impl.execute_plan(plan)
        deferred_launches = impl.kernel_launch_count
        deferred_time = impl.simulated_time

        assert deferred_launches < eager_launches
        assert deferred_time < eager_time
        rows.append([
            f"{framework}:{device.name}",
            n_ops,
            eager_launches,
            deferred_launches,
            round(eager_time * 1e3, 3),
            round(deferred_time * 1e3, 3),
            round(eager_time / deferred_time, 3),
        ])
        impl.finalize()
    table = format_table(
        ["device", "ops", "eager launches", "plan launches",
         "eager ms", "plan ms", "speedup"],
        rows,
        title="Plan batching: simulated kernel launches per full partials "
              "pass (16 tips, 4000 patterns)",
    )
    record("plan_batching_launches", table)

    from benchmarks.trajectory import write_record

    speedups = {row[0]: row[6] for row in rows}
    write_record("plan_batching", {
        "tips": 16,
        "patterns": 4000,
        "per_device": speedups,
        "deferred_speedup": min(speedups.values()),
    })


@pytest.mark.parametrize("mode", ["eager", "deferred"])
def test_threadpool_partials_pass(benchmark, mode):
    """Wall-clock of one partials pass, per-call vs per-level dispatch."""
    impl, traversal = build_impl(
        lambda cfg, prec: CPUThreadPoolImplementation(
            cfg, prec, thread_count=3
        ),
        tips=16,
        patterns=4000,
    )
    if mode == "eager":
        run = lambda: impl.update_partials(traversal.operations)
    else:
        plan = record_plan(traversal)
        run = lambda: impl.execute_plan(plan)
    benchmark.pedantic(run, rounds=3, iterations=1)
    impl.finalize()
