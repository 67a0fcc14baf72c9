"""Concurrent heterogeneous executor: parity, rebalancing, regressions.

Covers the :mod:`repro.sched` executor layer plus the multi-device
bugfixes that shipped with it:

* **parity** — a concurrent evaluation must return the bit-identical
  log-likelihood of the serial per-component sum, and agree (to float
  tolerance) with a single-instance evaluation of the whole dataset;
* **rebalancing** — with two simulated devices at a known speed ratio
  the measured-throughput feedback loop must converge to within 15% of
  the perf-model optimum and beat the static equal split;
* **regressions** — skewed-but-valid split proportions, the
  multi-device parity methods, and thread-pool metrics without tracing.
"""

import numpy as np
import pytest

from repro.core.flags import Flag
from repro.core.highlevel import TreeLikelihood
from repro.core.manager import ResourceManager
from repro.accel.device import QUADRO_P5000
from repro.model import HKY85, JC69, SiteModel
from repro.obs import MetricsRegistry, Tracer
from repro.partition import (
    MultiDeviceLikelihood,
    Partition,
    PartitionedLikelihood,
)
from repro.sched import (
    ComponentTiming,
    ConcurrentExecutor,
    RebalancingExecutor,
)
from repro.seq import synthetic_pattern_set
from repro.session import Session, backend_flags
from repro.tree import balanced_tree, yule_tree


@pytest.fixture(scope="module")
def workload():
    tree = yule_tree(8, rng=11)
    model = HKY85(kappa=2.0)
    site = SiteModel.gamma(0.5, 4)
    data = synthetic_pattern_set(8, 300, 4, rng=12)
    return tree, data, model, site


def _multi(workload, backends=("cpu-serial", "cpu-serial"), **kwargs):
    tree, data, model, site = workload
    requests = {
        f"dev{i}": backend_flags(b) for i, b in enumerate(backends)
    }
    return MultiDeviceLikelihood(
        tree, data, model, site, device_requests=requests, **kwargs
    )


def _skewed_requests(factor=6.0):
    """Two simulated CUDA devices with a known speed ratio."""
    fast = QUADRO_P5000
    slow = QUADRO_P5000.slowed(factor, name="sim-slow")
    return {
        "fast": dict(
            requirement_flags=Flag.FRAMEWORK_CUDA,
            manager=ResourceManager([fast]),
        ),
        "slow": dict(
            requirement_flags=Flag.FRAMEWORK_CUDA,
            manager=ResourceManager([slow]),
        ),
    }


# ---------------------------------------------------------------------------
# Concurrent parity
# ---------------------------------------------------------------------------


class TestConcurrentParity:
    @pytest.mark.parametrize(
        "backends",
        [
            ("cpu-serial", "cpu-serial"),
            ("cpu-serial", "cpu-sse"),
            ("cuda", "opencl-gpu"),
            ("cpu-serial", "cuda", "opencl-x86"),
        ],
    )
    def test_concurrent_matches_serial_sum_bitwise(self, workload, backends):
        with _multi(workload, backends) as mdl:
            serial = mdl.log_likelihood()
            with ConcurrentExecutor(mdl) as ex:
                concurrent = ex.log_likelihood()
            assert concurrent == serial  # bit-identical, not approx

    def test_concurrent_matches_single_instance(self, workload):
        tree, data, model, site = workload
        with TreeLikelihood(
            tree, data, model, site, requirement_flags=Flag.VECTOR_NONE
        ) as single:
            reference = single.log_likelihood()
        with _multi(workload) as mdl, ConcurrentExecutor(mdl) as ex:
            assert ex.log_likelihood() == pytest.approx(reference, rel=1e-12)

    def test_update_branch_lengths_parity(self, workload):
        with _multi(workload) as mdl:
            mdl.log_likelihood()
            serial = mdl.update_branch_lengths([1, 2])
            with ConcurrentExecutor(mdl) as ex:
                concurrent = ex.update_branch_lengths([1, 2])
            assert concurrent == serial

    def test_partitioned_likelihood_supported(self):
        from repro.seq import compress_patterns, simulate_alignment

        tree = yule_tree(8, rng=20)
        aln = simulate_alignment(tree, HKY85(2.0), 120, rng=21)
        parts = [
            Partition("left", list(range(60)), JC69()),
            Partition("right", list(range(60, 120)), HKY85(3.0)),
        ]
        with PartitionedLikelihood(tree, aln, parts) as pl:
            serial = pl.log_likelihood()
            with ConcurrentExecutor(pl) as ex:
                assert ex.log_likelihood() == serial
                assert ex.labels == ["left", "right"]

    def test_concurrent_flush_deferred(self, workload):
        with _multi(workload, deferred=True) as mdl:
            with ConcurrentExecutor(mdl) as ex:
                value = ex.log_likelihood()
                ex.flush()
            mdl.set_execution_mode(False)
            assert mdl.log_likelihood() == value

    def test_timings_and_critical_path(self, workload):
        with _multi(workload) as mdl, ConcurrentExecutor(mdl) as ex:
            assert ex.critical_path_s() == 0.0
            ex.log_likelihood()
            timings = ex.timings()
            assert [t.label for t in timings] == ["dev0", "dev1"]
            assert all(t.patterns == 150 for t in timings)
            assert all(t.wall_s > 0 for t in timings)
            assert ex.critical_path_s() == max(t.measured_s for t in timings)

    def test_shutdown_leaves_likelihood_usable(self, workload):
        with _multi(workload) as mdl:
            ex = ConcurrentExecutor(mdl)
            value = ex.log_likelihood()
            ex.shutdown()
            with pytest.raises(RuntimeError, match="shut down"):
                ex.log_likelihood()
            with pytest.raises(RuntimeError, match="shut down"):
                ex.flush()
            assert mdl.log_likelihood() == value  # serial path still fine

    def test_requires_components(self):
        with pytest.raises(ValueError, match="no components"):
            ConcurrentExecutor(object())

    def test_spans_and_metrics(self, workload):
        with _multi(workload) as mdl:
            tracer, metrics = mdl.instrument(
                Tracer(enabled=True), MetricsRegistry()
            )
            with ConcurrentExecutor(mdl) as ex:
                ex.log_likelihood()
                ex.log_likelihood()
            assert tracer.count(kind="executor") == 2
            assert tracer.count(kind="component") == 4
            # Component spans parent under the evaluate span even though
            # they run on worker threads.
            evaluate_ids = {
                r.span_id for r in tracer.records() if r.kind == "executor"
            }
            for record in tracer.records():
                if record.kind == "component":
                    assert record.parent_id in evaluate_ids
            assert metrics.counter("executor.evaluations").value == 2
            assert metrics.gauge("executor.components").value == 2
            assert metrics.gauge("executor.critical_path_s").value > 0
            assert metrics.gauge("executor.wall_s").value > 0
            assert metrics.histogram("executor.component_s").count == 4
            assert metrics.gauge("executor.component_s.dev0").value > 0

    def test_uses_component_tracer_by_default(self, workload):
        with _multi(workload) as mdl:
            tracer, metrics = mdl.instrument(
                Tracer(enabled=True), MetricsRegistry()
            )
            with ConcurrentExecutor(mdl) as ex:
                assert ex._tracer is tracer
                assert ex._metrics is metrics


class TestComponentTiming:
    def test_prefers_simulated_time(self):
        t = ComponentTiming("x", 100, wall_s=2.0, simulated_s=0.5)
        assert t.measured_s == 0.5
        assert t.rate == pytest.approx(200.0)

    def test_falls_back_to_wall(self):
        t = ComponentTiming("x", 100, wall_s=2.0, simulated_s=None)
        assert t.measured_s == 2.0
        assert t.rate == pytest.approx(50.0)


# ---------------------------------------------------------------------------
# Rebalancing
# ---------------------------------------------------------------------------


class TestRebalancing:
    def test_requires_resplit(self):
        from repro.seq import simulate_alignment

        tree = yule_tree(8, rng=30)
        aln = simulate_alignment(tree, HKY85(2.0), 60, rng=31)
        parts = [Partition("all", list(range(60)), JC69())]
        with PartitionedLikelihood(tree, aln, parts) as pl:
            with pytest.raises(TypeError, match="resplit"):
                RebalancingExecutor(pl)

    def test_parameter_validation(self, workload):
        with _multi(workload) as mdl:
            with pytest.raises(ValueError, match="alpha"):
                RebalancingExecutor(mdl, alpha=0.0)
            with pytest.raises(ValueError, match="threshold"):
                RebalancingExecutor(mdl, threshold=-1.0)

    def test_imbalance_zero_before_observations(self, workload):
        with _multi(workload) as mdl, RebalancingExecutor(mdl) as ex:
            assert ex.predicted_imbalance() == 0.0
            assert ex.rates == {}
            assert ex.rebalance_events() == []

    def test_seed_backends_prior(self, workload):
        tree, data, model, site = workload
        requests = {
            "gpu": backend_flags("cuda"),
            "cpu": backend_flags("cpu-serial"),
        }
        with MultiDeviceLikelihood(
            tree, data, model, site, device_requests=requests
        ) as mdl:
            from repro.partition import balance_proportions

            prior = balance_proportions(
                tree.n_tips, data.n_patterns,
                ["cuda:P5000", "opencl-x86:E5-2680"],
            )
            with RebalancingExecutor(
                mdl,
                seed_backends=["cuda:P5000", "opencl-x86:E5-2680"],
            ):
                # The perf-model prior replaced the default equal split
                # before any evaluation ran.
                assert mdl.proportions != [0.5, 0.5]
                n = data.n_patterns
                for share, want in zip(mdl.proportions, prior):
                    assert share == pytest.approx(want, abs=1.0 / n)

    def test_ewma_rate_update(self, workload):
        with _multi(workload) as mdl:
            with RebalancingExecutor(mdl, alpha=0.5) as ex:
                ex.log_likelihood()
                first = ex.rates
                assert set(first) == {"dev0", "dev1"}
                ex.log_likelihood()
                second = ex.rates
                obs = {t.label: t.rate for t in ex.timings()}
                for label in first:
                    assert second[label] == pytest.approx(
                        0.5 * obs[label] + 0.5 * first[label]
                    )

    def test_converges_to_perf_model_optimum(self):
        """Acceptance: two simulated devices at >= 4x speed ratio; the
        rebalanced executor ends within 15% of the perf-model optimum,
        strictly beats the static equal split, stays bit-identical to
        the serial sum, and the rebalances are visible in the trace."""
        n = 50_000
        tree = yule_tree(16, rng=1)
        model = HKY85(kappa=2.0)
        site = SiteModel.gamma(0.5)
        data = synthetic_pattern_set(16, n, 4, rng=7)

        # Static equal split, no feedback.
        with MultiDeviceLikelihood(
            tree, data, model, site, device_requests=_skewed_requests()
        ) as static:
            with ConcurrentExecutor(static) as ex:
                for _ in range(3):
                    ex.log_likelihood()
                equal_split_s = ex.critical_path_s()

        with MultiDeviceLikelihood(
            tree, data, model, site, device_requests=_skewed_requests()
        ) as mdl:
            tracer, metrics = mdl.instrument(
                Tracer(enabled=True), MetricsRegistry()
            )
            with RebalancingExecutor(mdl, threshold=0.05, alpha=0.7) as ex:
                for _ in range(8):
                    concurrent = ex.log_likelihood()
                serial = mdl.log_likelihood()
                assert concurrent == serial  # bit-identical

                events = ex.rebalance_events()
                assert events, "no rebalance happened"
                # The fast device ends with the lion's share.
                assert mdl.proportions[0] > 0.75
                # Convergence: within 15% of the balanced optimum and
                # strictly better than the static equal split.
                rates = ex.rates
                optimum_s = n / sum(rates.values())
                final_s = ex.critical_path_s()
                assert final_s < equal_split_s
                assert final_s / optimum_s < 1.15
                # Observability of the correction loop.
                assert tracer.count(kind="rebalance") == len(events)
                assert metrics.counter("rebalance.events").value == len(
                    events
                )
                assert metrics.counter("rebalance.rebuilt_instances").value \
                    >= len(events)
                assert metrics.gauge("rebalance.share.fast").value == \
                    pytest.approx(mdl.proportions[0])
                for event in events:
                    assert event.imbalance > 0.05
                    assert event.rebuilt

    def test_rebalance_rebuilds_only_moved_instances(self, workload):
        with _multi(workload) as mdl:
            before = list(mdl.components)
            rebuilt = mdl.resplit([0.5, 0.5])  # same bounds: no rebuild
            assert rebuilt == []
            assert mdl.components[0] is before[0]
            rebuilt = mdl.resplit([0.8, 0.2])
            assert rebuilt == ["dev0", "dev1"]
            assert mdl.components[0] is not before[0]


# ---------------------------------------------------------------------------
# Sessions
# ---------------------------------------------------------------------------


class TestMultiDeviceSession:
    def test_session_entry_point(self, workload):
        tree, data, model, site = workload
        s = Session.multi_device(
            data, tree, model, site,
            device_requests={"a": "cuda", "b": "cpu-serial"},
            trace=True,
        )
        with s:
            value = s.log_likelihood()
            assert np.isfinite(value)
            report = s.device_report()
            assert [r[0] for r in report] == ["a", "b"]
            assert sum(r[2] for r in report) == data.n_patterns
            assert "a" in s.backends()
            assert s.tracer.count(kind="executor") == 1
            assert "executor.evaluate" in s.span_tree()

    def test_session_rebalance_toggle(self, workload):
        tree, data, model, site = workload
        with Session.multi_device(
            data, tree, model, site,
            device_requests={"a": "cpu-serial", "b": "cpu-serial"},
            rebalance=False,
        ) as s:
            s.log_likelihood()
            assert s.rebalance_events() == []


# ---------------------------------------------------------------------------
# Regression: the three shipped bugfixes
# ---------------------------------------------------------------------------


class TestRegressions:
    def test_skewed_proportions_keep_every_chunk_nonempty(self, workload):
        """0.97/0.03 on a small pattern count used to raise 'a chunk
        would be empty'; now every chunk keeps >= 1 pattern."""
        tree, data, model, site = workload
        requests = {
            "big": backend_flags("cpu-serial"),
            "small": backend_flags("cpu-serial"),
        }
        with MultiDeviceLikelihood(
            tree, data, model, site,
            device_requests=requests,
            proportions=[0.97, 0.03],
        ) as mdl:
            counts = [chunk.n_patterns for chunk in mdl.chunks]
            assert min(counts) >= 1
            assert sum(counts) == data.n_patterns

    def test_multi_device_parity_methods(self, workload):
        """flush / backends / update_branch_lengths used to exist only
        on PartitionedLikelihood."""
        with _multi(workload, deferred=True) as mdl:
            mdl.log_likelihood()
            mdl.flush()
            backends = mdl.backends()
            assert set(backends) == {"dev0", "dev1"}
            assert all(isinstance(name, str) for name in backends.values())
            delta = mdl.update_branch_lengths([1])
            assert np.isfinite(delta)

    def test_threadpool_metrics_without_tracing(self):
        """queue_depth/tasks used to be gated on tracer.enabled; they
        must appear whenever a metrics registry is attached."""
        tree = balanced_tree(8, rng=1)
        model = HKY85(kappa=2.0)
        data = synthetic_pattern_set(8, 600, 4, rng=3)
        with Session(
            data, tree, model, backend="cpp-threads",
            thread_count=4, trace=False,
        ) as s:
            s.log_likelihood()
            assert not s.tracer.enabled
            assert s.metrics.counter("threadpool.tasks").value > 0
            assert s.metrics.gauge("threadpool.queue_depth").value >= 1
