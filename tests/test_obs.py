"""The observability subsystem: tracer, metrics, and backend wiring."""

import io
import json

import numpy as np
import pytest

from repro.core.flags import Flag
from repro.core.plan import ExecutionPlan
from repro.impl.base import NULL_TRACER
from repro.model import HKY85, SiteModel
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullTracer,
    Tracer,
)
from repro.seq import synthetic_pattern_set
from repro.session import Session
from repro.tree import balanced_tree, yule_tree


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


class TestTracer:
    def test_span_records_duration_and_attrs(self):
        tracer = Tracer()
        with tracer.span("work", kind="call", patterns=42) as span:
            pass
        assert len(tracer) == 1
        rec = tracer.records()[0]
        assert rec is span
        assert rec.name == "work"
        assert rec.kind == "call"
        assert rec.attrs["patterns"] == 42
        assert rec.duration >= 0.0
        assert rec.span_id == 0
        assert rec.parent_id is None

    def test_nesting_links_parent(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert tracer.current_span_id == inner.span_id
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None

    def test_explicit_parent_override(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            pass
        with tracer.span("adopted", parent_id=root.span_id) as child:
            pass
        assert child.parent_id == root.span_id

    def test_ring_buffer_evicts_oldest(self):
        tracer = Tracer(capacity=4)
        for i in range(10):
            with tracer.span(f"s{i}"):
                pass
        names = [s.name for s in tracer.records()]
        assert names == ["s6", "s7", "s8", "s9"]
        # ids keep counting even after eviction
        assert tracer.records()[-1].span_id == 9

    def test_event_is_zero_duration(self):
        tracer = Tracer()
        tracer.event("tick", level=3)
        rec = tracer.records()[0]
        assert rec.kind == "event"
        assert rec.duration < 1e-3  # opened and closed immediately
        assert rec.attrs["level"] == 3

    def test_subscribe_callbacks_and_unsubscribe(self):
        tracer = Tracer()
        started, ended = [], []
        unsubscribe = tracer.subscribe(
            on_span_start=lambda s: started.append(s.name),
            on_span_end=lambda s: ended.append(s.name),
        )
        with tracer.span("observed"):
            pass
        assert started == ["observed"] and ended == ["observed"]
        unsubscribe()
        with tracer.span("unobserved"):
            pass
        assert started == ["observed"] and ended == ["observed"]

    def test_to_jsonl_round_trips_span_fields(self):
        tracer = Tracer()
        with tracer.span("outer", kind="plan"):
            with tracer.span("inner", kind="launch", flops=12.5):
                pass
        buf = io.StringIO()
        assert tracer.to_jsonl(buf) == 2
        lines = [json.loads(l) for l in buf.getvalue().splitlines()]
        by_name = {d["name"]: d for d in lines}
        assert by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]
        assert by_name["inner"]["attrs"]["flops"] == 12.5
        assert by_name["outer"]["kind"] == "plan"

    def test_span_tree_and_format(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
            with tracer.span("c"):
                pass
        roots = tracer.span_tree()
        assert len(roots) == 1
        root, children = roots[0]
        assert root.name == "a"
        assert [s.name for s, _ in children] == ["b", "c"]
        text = tracer.format_tree()
        assert "a (" in text and "  b (" in text

    def test_hottest_aggregates_by_name(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("hot"):
                pass
        with tracer.span("cold"):
            pass
        rows = tracer.hottest(2)
        assert rows[0]["calls"] + rows[1]["calls"] == 4
        hot = next(r for r in rows if r["name"] == "hot")
        assert hot["calls"] == 3

    def test_count_filters(self):
        tracer = Tracer()
        with tracer.span("kernelA", kind="launch"):
            pass
        with tracer.span("kernelB", kind="launch"):
            pass
        with tracer.span("other", kind="call"):
            pass
        assert tracer.count(kind="launch") == 2
        assert tracer.count(kind="launch", name_prefix="kernelA") == 1

    def test_disabled_tracer_still_usable(self):
        tracer = Tracer(enabled=False)
        # The guard convention is callers check .enabled first, but the
        # tracer itself keeps working either way.
        assert tracer.enabled is False
        with tracer.span("explicit"):
            pass
        assert len(tracer) == 1


class TestNullTracer:
    def test_null_tracer_is_inert(self):
        null = NullTracer()
        assert null.enabled is False
        with null.span("anything", kind="launch", x=1):
            pass
        null.event("tick")
        assert null.records() == []
        assert null.span_tree() == []
        assert null.hottest() == []
        assert null.count() == 0
        assert len(null) == 0
        assert null.to_jsonl(io.StringIO()) == 0

    def test_null_span_is_shared_singleton(self):
        null = NullTracer()
        assert null.span("a") is null.span("b")

    def test_uninstrumented_impl_uses_null_tracer(self):
        tree = balanced_tree(4, rng=1)
        model = HKY85()
        data = synthetic_pattern_set(4, 16, 4, rng=1)
        from repro.core.highlevel import TreeLikelihood

        with TreeLikelihood(tree, data, model) as tl:
            assert tl.tracer is NULL_TRACER
            assert tl.metrics is None
            tl.log_likelihood()
            assert len(NULL_TRACER) == 0


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_counter_monotonic(self):
        c = Counter("x")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_watermarks(self):
        g = Gauge("q")
        for v in (5, 2, 9):
            g.set(v)
        snap = g.snapshot()
        assert (snap["value"], snap["min"], snap["max"]) == (9.0, 2.0, 9.0)

    def test_histogram_buckets_and_moments(self):
        h = Histogram("widths", buckets=(1, 2, 4))
        for v in (1, 2, 3, 100):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 4
        assert snap["bucket_counts"] == [1, 1, 1, 1]  # last = overflow
        assert h.mean == pytest.approx(26.5)
        assert snap["min"] == 1.0 and snap["max"] == 100.0

    def test_registry_get_or_create_and_kind_mismatch(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        with pytest.raises(TypeError):
            reg.gauge("a")
        with pytest.raises(TypeError):
            reg.histogram("a")
        assert reg.get("missing") is None
        assert reg.names() == ["a"]

    def test_snapshot_jsonl_round_trip(self):
        reg = MetricsRegistry()
        reg.counter("launches").inc(7)
        reg.gauge("depth").set(3)
        h = reg.histogram("widths", buckets=(1, 2, 4))
        h.observe(2)
        h.observe(8)

        buf = io.StringIO()
        assert reg.to_jsonl(buf) == 3
        buf.seek(0)
        restored = MetricsRegistry.from_jsonl(buf)
        assert restored.snapshot() == reg.snapshot()

    def test_snapshot_jsonl_round_trip_via_file(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        path = tmp_path / "metrics.jsonl"
        reg.to_jsonl(str(path))
        restored = MetricsRegistry.from_jsonl(str(path))
        assert restored.snapshot() == reg.snapshot()


# ---------------------------------------------------------------------------
# Backend wiring: spans and metrics from real evaluations
# ---------------------------------------------------------------------------


def _session(backend, *, tips=8, patterns=64, deferred=False, **kw):
    tree = balanced_tree(tips, rng=1)
    model = HKY85(kappa=2.0)
    data = synthetic_pattern_set(tips, patterns, 4, rng=3)
    return Session(
        data, tree, model, backend=backend,
        deferred=deferred, trace=True, **kw,
    )


CPU_BACKENDS = ["cpu-serial", "cpu-sse", "cpp-threads"]
ACCEL_BACKENDS = ["cuda", "opencl-gpu", "opencl-x86"]


class TestBackendTracing:
    @pytest.mark.parametrize("backend", CPU_BACKENDS + ACCEL_BACKENDS)
    def test_every_backend_emits_call_spans_and_metrics(self, backend):
        with _session(backend) as s:
            s.log_likelihood()
            assert s.tracer.count(kind="call",
                                  name_prefix="update_partials") == 1
            assert s.tracer.count(
                kind="call", name_prefix="update_transition_matrices") == 1
            assert s.tracer.count(kind="call",
                                  name_prefix="root_log_likelihood") == 1
            assert s.metrics.counter("partials.calls").value == 1
            assert s.metrics.counter("likelihood.calls").value == 1
            # 7 internal nodes on a balanced 8-tip tree
            assert s.metrics.counter("partials.operations").value == 7

    def test_serial_backend_emits_per_operation_spans(self):
        with _session("cpu-serial") as s:
            s.log_likelihood()
            assert s.tracer.count(kind="op") == 7

    def test_threaded_backend_emits_wave_spans(self):
        # 600 patterns clears MIN_PATTERNS_FOR_THREADING (512); force
        # multiple workers so the wave path runs on single-core hosts.
        with _session("cpp-threads", patterns=600, thread_count=4) as s:
            s.log_likelihood()
            assert s.tracer.count(kind="wave") >= 1
            assert s.metrics.counter("threadpool.tasks").value > 0

    @pytest.mark.parametrize("backend", ACCEL_BACKENDS)
    def test_accelerated_backend_emits_launch_spans(self, backend):
        with _session(backend) as s:
            s.log_likelihood()
            launches = [r for r in s.tracer.records() if r.kind == "launch"]
            assert launches, "no kernel launches traced"
            assert s.metrics.counter("kernel.launches").value == len(launches)
            # span counts agree with the simulated clock's own ledger
            clock_count = s.instance.impl.interface.clock.kernel_launches
            assert len(launches) == clock_count

    def test_effective_gflops_gauge_is_positive(self):
        with _session("cpu-serial", patterns=128) as s:
            s.log_likelihood()
            g = s.metrics.get("partials.effective_gflops")
            assert g is not None and g.value > 0


class TestDeferredPlanTracing:
    def test_deferred_16_tip_traversal_fuses_into_4_launches(self):
        """The acceptance check: a balanced 16-tip tree has 15 internal
        operations in levels of width 8/4/2/1, so the deferred CUDA path
        must emit exactly 4 fused partials kernel launches."""
        with _session("cuda", tips=16, deferred=True) as s:
            s.log_likelihood()
            records = s.tracer.records()
            partials_launches = [
                r for r in records
                if r.kind == "launch" and r.name.startswith("kernelPartials")
            ]
            assert len(partials_launches) == 4
            # fused kernel for the width>1 levels, plain for the root
            fused = [r for r in partials_launches
                     if r.name == "kernelPartialsLevelNoScale"]
            assert len(fused) == 3

            plan_spans = [r for r in records if r.kind == "plan"]
            assert len(plan_spans) == 1
            stats = plan_spans[0].attrs
            assert stats["n_operations"] == 15

            hist = s.metrics.get("accel.fused_level_size")
            assert hist.count == 4
            assert hist.sum == 15  # every operation launched exactly once

    def test_plan_stats_reports_level_structure(self):
        plan = ExecutionPlan()
        from repro.tree.traversal import plan_traversal

        tree = balanced_tree(16, rng=1)
        traversal = plan_traversal(tree)
        plan.record_operations(traversal.operations)
        stats = plan.stats()
        assert stats["n_operations"] == 15
        assert stats["level_widths"] == [8, 4, 2, 1]

    def test_launch_leaf_count_matches_plan_launch_count(self):
        """Trace leaves vs the plan's own level accounting: one partials
        launch per operation level, one level span per plan level."""
        from repro.tree.traversal import plan_traversal

        tree = balanced_tree(16, rng=1)
        reference = ExecutionPlan()
        reference.record_operations(plan_traversal(tree).operations)
        with _session("cuda", tips=16, deferred=True) as s:
            s.log_likelihood()
            partials_launches = s.tracer.count(
                kind="launch", name_prefix="kernelPartials")
            assert partials_launches == len(reference.stats()["level_widths"])
            plan_spans = [r for r in s.tracer.records() if r.kind == "plan"]
            level_spans = [r for r in s.tracer.records()
                           if r.kind == "level"]
            assert len(level_spans) == plan_spans[0].attrs["n_levels"]


class TestInstrumentationPlumbing:
    def test_instrument_returns_same_objects(self):
        tree = balanced_tree(4, rng=1)
        model = HKY85()
        data = synthetic_pattern_set(4, 16, 4, rng=1)
        from repro.core.highlevel import TreeLikelihood

        tracer, registry = Tracer(), MetricsRegistry()
        with TreeLikelihood(tree, data, model) as tl:
            got_tracer, got_metrics = tl.instrument(tracer, registry)
            assert got_tracer is tracer and got_metrics is registry
            assert tl.tracer is tracer and tl.metrics is registry

    def test_accelerated_instrument_reaches_hardware_interface(self):
        with _session("cuda") as s:
            impl = s.instance.impl
            assert impl.interface.tracer is s.tracer
            assert impl.interface.metrics is s.metrics

    def test_tracing_toggle_at_runtime(self):
        with _session("cpu-serial") as s:
            s.tracer.enabled = False
            s.log_likelihood()
            assert len(s.tracer) == 0
            s.tracer.enabled = True
            s.log_likelihood()
            assert len(s.tracer) > 0
