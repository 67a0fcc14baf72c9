"""Cluster scheduler: packing, calibration, failover, observability.

The load-bearing invariant (DESIGN choice 17): shard boundaries are
fixed at submission and summation is in shard-index order, so the
cluster result is bit-identical to :func:`repro.cluster.serial_shard_sum`
no matter where shards run — including after a node is killed mid-run
and its shards re-pack onto the survivors.
"""

from __future__ import annotations

import pytest

from repro.cluster import (
    ClusterJob,
    ClusterScheduler,
    ClusterSession,
    WorkerNode,
    makespan_lower_bound,
    pack_shards,
    prior_rate_for,
    serial_shard_sum,
)
from repro.model import HKY85
from repro.resil import FaultEvent, FaultPlan, RetryPolicy
from repro.seq import synthetic_pattern_set
from repro.session import Session
from repro.tree import yule_tree
from repro.util.errors import DeviceError, KernelLaunchError


@pytest.fixture(scope="module")
def workload():
    tree = yule_tree(8, rng=31)
    data = synthetic_pattern_set(8, 400, 4, rng=32)
    return tree, data, HKY85(kappa=2.0)


def _job(workload, n_shards=4, job_id="job-1"):
    tree, data, model = workload
    return ClusterJob(job_id, tree, data, model, n_shards=n_shards)


# -- packing ---------------------------------------------------------------


class TestPackShards:
    def test_lpt_prefers_the_fast_node(self, workload):
        shards = _job(workload, n_shards=4).shards
        assignment, makespan = pack_shards(
            shards, {"fast": 3.0, "slow": 1.0}
        )
        assert len(assignment["fast"]) > len(assignment["slow"])
        assert makespan > 0
        placed = sorted(
            s.key for shards in assignment.values() for s in shards
        )
        assert placed == sorted(s.key for s in shards)

    def test_deterministic_for_identical_inputs(self, workload):
        shards = _job(workload, n_shards=6).shards
        rates = {"a": 1.0, "b": 1.0, "c": 2.0}
        first = pack_shards(shards, rates)
        second = pack_shards(shards, rates)
        assert [
            [s.key for s in first[0][name]] for name in rates
        ] == [[s.key for s in second[0][name]] for name in rates]
        assert first[1] == second[1]

    def test_empty_rates_rejected(self, workload):
        with pytest.raises(ValueError, match="zero nodes"):
            pack_shards(_job(workload).shards, {})

    def test_makespan_never_beats_the_lower_bound(self, workload):
        shards = _job(workload, n_shards=5).shards
        rates = {"a": 2.0, "b": 1.0}
        _, makespan = pack_shards(shards, rates)
        assert makespan >= makespan_lower_bound(shards, rates)

    def test_lower_bound_hand_example(self, workload):
        shards = _job(workload, n_shards=2).shards  # 200 patterns each
        bound = makespan_lower_bound(shards, {"a": 1.0, "b": 1.0})
        assert bound == pytest.approx(200.0)
        assert makespan_lower_bound([], {"a": 1.0}) == 0.0


class TestPriorRates:
    def test_modelled_backends_get_perf_model_priors(self):
        # Modelled backends score real (distinct, non-neutral) GFLOPS
        # predictions at the reference workload.
        cuda = prior_rate_for("cuda")
        threads = prior_rate_for("cpp-threads")
        assert cuda > 0 and threads > 0
        assert cuda != 1.0 and threads != 1.0
        assert cuda != threads

    def test_unmodelled_specs_are_neutral(self):
        assert prior_rate_for("cpu-serial") == 1.0
        assert prior_rate_for({"manager": None}) == 1.0


# -- jobs ------------------------------------------------------------------


class TestClusterJob:
    def test_sum_is_in_shard_index_order(self, workload):
        job = _job(workload, n_shards=3)
        values = [1.5, -2.25, 0.125]
        for index in (2, 0, 1):  # completion order != index order
            job.record(index, values[index])
        assert job.done
        assert job.result(timeout=1) == float(sum(values))
        assert job.shard_values() == values

    def test_shards_clamped_to_pattern_count(self, workload):
        tree, data, model = workload
        job = ClusterJob("j", tree, data, model, n_shards=10_000)
        assert job.n_shards == data.n_patterns
        assert sum(s.patterns for s in job.shards) == data.n_patterns

    def test_fail_resolves_waiters(self, workload):
        job = _job(workload)
        job.fail(RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            job.result(timeout=1)


# -- scheduling ------------------------------------------------------------


class TestClusterScheduling:
    def test_clean_run_bit_identical_to_serial(self, workload):
        tree, data, model = workload
        with ClusterSession(
            data, tree, model,
            nodes={"a": "cuda", "b": "opencl-gpu"},
            n_shards=5,
        ) as cs:
            ll = cs.log_likelihood()
            assert ll == cs.serial_baseline()
            assert ll == serial_shard_sum(tree, data, model, n_shards=5)
            report = {name: done for name, _, _, done in cs.node_report()}
        assert sum(report.values()) == 5

    def test_session_facade_and_default_shards(self, workload):
        tree, data, model = workload
        with Session.cluster(
            data, tree, model,
            nodes={"a": {"a-d0": "cuda", "a-d1": "cuda"}, "b": "cuda"},
        ) as cs:
            assert isinstance(cs, ClusterSession)
            job = cs.submit()
            # Default shard count: twice the fleet's device capacity.
            assert job.n_shards == 2 * 3
            assert job.result(timeout=60) == cs.serial_baseline()
            assert cs.scheduler.queue_depth() == 0

    def test_calibration_shifts_load_off_a_slow_node(self, workload):
        tree, data, model = workload
        plan = FaultPlan([
            FaultEvent("latency-spike", "spiky", at=0, times=1000,
                       seconds=0.05),
        ])
        with ClusterSession(
            data, tree, model,
            nodes={"clean": "cuda", "spiky": "cuda"},
            n_shards=6, fault_plan=plan,
        ) as cs:
            for _ in range(3):
                ll = cs.log_likelihood()
            rates = cs.rates()
            assert rates["spiky"] < rates["clean"]
            # Measured feedback moved shards onto the clean node.
            last_round = max(p.round for p in cs.placements())
            placed = [p.node for p in cs.placements()
                      if p.round == last_round]
            assert placed.count("clean") > placed.count("spiky")
            # Slow is only slow — results stay bit-identical.
            assert ll == cs.serial_baseline()

    def test_transient_fault_retries_in_place(self, workload):
        tree, data, model = workload
        plan = FaultPlan([
            FaultEvent("transient-kernel", "a", at=0, times=1),
        ])
        with ClusterSession(
            data, tree, model,
            nodes={"a": "cuda", "b": "cuda"}, n_shards=4,
            retry_policy=RetryPolicy(max_attempts=3),
            fault_plan=plan,
        ) as cs:
            assert cs.log_likelihood() == cs.serial_baseline()
            assert cs.node_loss_events() == []
            assert cs.metrics.counter("cluster.retries").value >= 1

    def test_node_loss_repacks_bit_identically(self, workload):
        """THE acceptance invariant: kill a node mid-analysis and the
        recovered sum equals the single-node serial baseline bit for
        bit."""
        tree, data, model = workload
        plan = FaultPlan([FaultEvent("device-loss", "a", at=1)])
        with ClusterSession(
            data, tree, model,
            nodes={"a": "cuda", "b": "opencl-gpu"}, n_shards=6,
            retry_policy=RetryPolicy(),
            fault_plan=plan,
        ) as cs:
            ll = cs.log_likelihood()
            assert ll == cs.serial_baseline()
            (event,) = cs.node_loss_events()
            assert event.node == "a"
            assert event.survivors == ["b"]
            assert event.migrated
            assert cs.migrations == len(event.migrated)
            assert sorted(cs.quarantined()) == ["a"]
            assert cs.active_nodes() == ["b"]
            # Follow-up jobs run on the survivor, still bit-identical.
            assert cs.log_likelihood() == cs.serial_baseline()

    def test_healed_node_is_probed_back_in(self, workload):
        tree, data, model = workload
        plan = FaultPlan([
            FaultEvent("device-loss", "b", at=0, duration=2),
        ])
        with ClusterSession(
            data, tree, model,
            nodes={"a": "cuda", "b": "cuda"}, n_shards=2,
            retry_policy=RetryPolicy(probe_interval=1),
            fault_plan=plan,
        ) as cs:
            lls = [cs.log_likelihood() for _ in range(4)]
            assert all(ll == cs.serial_baseline() for ll in lls)
            assert cs.quarantined() == {}
            # Readmission restores the original placement order.
            assert cs.active_nodes() == ["a", "b"]
            assert cs.metrics.counter("cluster.readmissions").value == 1

    def test_last_node_loss_is_fatal(self, workload):
        tree, data, model = workload
        plan = FaultPlan([FaultEvent("device-loss", "only", at=0)])
        with ClusterSession(
            data, tree, model,
            nodes={"only": "cuda"}, n_shards=2,
            retry_policy=RetryPolicy(),
            fault_plan=plan,
        ) as cs:
            job = cs.submit()
            with pytest.raises(DeviceError):
                job.result(timeout=60)

    def test_non_device_error_without_policy_is_fatal(self, workload):
        tree, data, model = workload
        plan = FaultPlan([
            FaultEvent("transient-kernel", "a", at=0, times=5),
        ])
        with ClusterSession(
            data, tree, model,
            nodes={"a": "cuda", "b": "cuda"}, n_shards=4,
            fault_plan=plan,
        ) as cs:
            job = cs.submit()
            with pytest.raises(KernelLaunchError):
                job.result(timeout=60)


# -- observability and lifecycle -------------------------------------------


class TestObservabilityAndLifecycle:
    def test_spans_and_metrics_are_emitted(self, workload):
        tree, data, model = workload
        with ClusterSession(
            data, tree, model,
            nodes={"a": "cuda", "b": "cuda"}, n_shards=4, trace=True,
        ) as cs:
            cs.log_likelihood()
            assert cs.tracer.count(kind="cluster") >= 4
            names = cs.metrics.names()
            for name in (
                "cluster.jobs.submitted",
                "cluster.rounds",
                "cluster.shards.completed",
                "cluster.placement.decisions",
            ):
                assert name in names
            assert cs.metrics.counter("cluster.shards.completed").value == 4
            util = cs.utilization()
            assert util and all(0 < u <= 1 for u in util.values())
            assert "cluster.round" in cs.span_tree()

    def test_duplicate_node_names_rejected(self):
        nodes = [
            WorkerNode("a", {"d0": "cuda"}),
            WorkerNode("a", {"d1": "cuda"}),
        ]
        with pytest.raises(ValueError, match="duplicate"):
            ClusterScheduler(nodes)
        for node in nodes:
            node.shutdown()

    def test_submit_after_shutdown_raises(self, workload):
        tree, data, model = workload
        cs = ClusterSession(data, tree, model, nodes={"a": "cuda"})
        assert cs.log_likelihood() == cs.serial_baseline()
        cs.close()
        cs.close()  # idempotent
        with pytest.raises(RuntimeError, match="shut down"):
            cs.submit()

    def test_worker_node_calibration_state(self, workload):
        node = WorkerNode("n", {"d0": "cuda"})
        try:
            assert not node.calibrated
            assert node.rate == node.prior_rate
            assert node.capacity == 1
            assert node.effective_rate == node.prior_rate

            from repro.sched.executor import ComponentTiming

            node.observe(ComponentTiming(
                label="n:d0", patterns=100, wall_s=1.0, simulated_s=1.0,
            ))
            assert node.calibrated
            assert node.rate == pytest.approx(100.0)
            node.observe(ComponentTiming(
                label="n:d0", patterns=100, wall_s=0.5, simulated_s=0.5,
            ))
            assert node.rate == pytest.approx(150.0)  # EWMA, alpha=0.5
            assert node.completed == 2
        finally:
            node.shutdown()
