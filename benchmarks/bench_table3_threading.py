"""Paper Table III: the three CPU threading designs vs serial.

The recorded table comes from the calibrated dual-Xeon system model (the
reproduction host has 2 vCPUs, so the paper's 56-thread speedups are not
wall-clock reproducible; see EXPERIMENTS.md).  The model keeps all four
designs; the library ships only the last, the thread pool, so the
pytest-benchmark timings exercise the real serial, cpu-sse and
thread-pool implementations on a reduced workload.
"""

import pytest

from benchmarks.conftest import build_impl
from repro.bench import table3_threading
from repro.impl import (
    CPUSerialImplementation,
    CPUSSEImplementation,
    CPUThreadPoolImplementation,
)

DESIGNS = {
    "serial": CPUSerialImplementation,
    "cpu-sse": CPUSSEImplementation,
    "thread-pool": CPUThreadPoolImplementation,
}


def test_regenerate_table3(benchmark, record):
    result = benchmark(table3_threading)
    record("table3_threading", result.table())
    for row in result.rows:
        _, serial, _, futures, _, create, _, pool = row[:8]
        assert pool > futures > serial
        assert pool > create > serial
        # Model-vs-paper agreement within 25% per cell.
    max_rel_error = max(
        abs(row[model_col] - row[paper_col]) / row[paper_col]
        for row in result.rows
        for model_col, paper_col in ((1, 2), (3, 4), (5, 6), (7, 8))
    )

    from benchmarks.trajectory import write_record

    write_record("table3_threading", {"max_rel_error": max_rel_error})

    assert max_rel_error < 0.25


@pytest.mark.parametrize("design", list(DESIGNS))
def test_partials_pass(benchmark, design):
    """Wall-clock of one full partials pass per design (this host)."""
    patterns = 600 if design == "serial" else 2000
    impl, plan = build_impl(DESIGNS[design], patterns=patterns)
    benchmark.pedantic(
        impl.update_partials, args=(plan.operations,), rounds=3, iterations=1,
    )
    impl.finalize()
