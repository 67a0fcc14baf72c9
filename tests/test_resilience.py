"""Resilience subsystem: fault injection, retry, failover, quarantine.

The chaos acceptance scenario lives here: two simulated devices, one
suffers persistent device loss mid-run, and ``Session.multi_device``
must complete with a log-likelihood bit-identical to a single-device
serial evaluation while emitting ``resil.failover`` telemetry.  Around
it: :class:`FaultPlan` semantics and JSON round-trip, deterministic
:class:`RetryPolicy` backoff, the ``beagle_*`` error-surface contract
for worker failures, quarantine probing/readmission, and the
thread-leak/shutdown regression guards.
"""

import json
import threading

import pytest

from repro.core.api import beagle_get_last_error_message
from repro.obs import MetricsRegistry, Tracer
from repro.partition.multi import MultiDeviceLikelihood
from repro.resil import (
    DEFAULT_RETRY_POLICY,
    FAULT_KINDS,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    FaultyComponent,
    RetryPolicy,
    install_fault_plan,
)
from repro.sched import ConcurrentExecutor, RebalancingExecutor
from repro.seq import synthetic_pattern_set
from repro.session import Session, backend_flags
from repro.tree import yule_tree
from repro.model import HKY85, SiteModel
from repro.util.errors import (
    DeviceError,
    DeviceLostError,
    KernelLaunchError,
)


@pytest.fixture(scope="module")
def workload():
    tree = yule_tree(8, rng=11)
    model = HKY85(kappa=2.0)
    site = SiteModel.gamma(0.5, 4)
    data = synthetic_pattern_set(8, 300, 4, rng=12)
    return tree, data, model, site


def _multi(workload, backends=("cuda", "cuda"), **kwargs):
    tree, data, model, site = workload
    requests = {
        f"dev{i}": backend_flags(b) for i, b in enumerate(backends)
    }
    return MultiDeviceLikelihood(
        tree, data, model, site, device_requests=requests, **kwargs
    )


def _serial_reference(workload, backend="cuda"):
    """All patterns on one device, evaluated serially."""
    tree, data, model, site = workload
    with MultiDeviceLikelihood(
        tree, data, model, site,
        device_requests={"solo": backend_flags(backend)},
    ) as solo:
        return solo.log_likelihood()


def _hetero_threads():
    return [
        t for t in threading.enumerate() if t.name.startswith("hetero-")
    ]


# ---------------------------------------------------------------------------
# Fault plans
# ---------------------------------------------------------------------------

class TestFaultPlan:
    def test_event_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent("meteor-strike", "dev0")
        with pytest.raises(ValueError, match="at must be"):
            FaultEvent("device-loss", "dev0", at=-1)
        with pytest.raises(ValueError, match="times must be"):
            FaultEvent("transient-kernel", "dev0", times=0)
        with pytest.raises(ValueError, match="duration must be"):
            FaultEvent("device-loss", "dev0", duration=0)
        with pytest.raises(ValueError, match="seconds > 0"):
            FaultEvent("latency-spike", "dev0")
        assert set(FAULT_KINDS) == {
            "transient-kernel", "device-loss", "latency-spike"
        }

    def test_transient_schedule(self):
        injector = FaultInjector("a", [
            FaultEvent("transient-kernel", "a", at=1, times=2)
        ])
        injector.on_event()  # event 0: clean
        with pytest.raises(KernelLaunchError):
            injector.on_event()  # 1
        with pytest.raises(KernelLaunchError):
            injector.on_event()  # 2
        injector.on_event()  # 3: clean again
        assert [n for n, _ in injector.fired] == [1, 2]

    def test_device_loss_heals_after_duration(self):
        injector = FaultInjector("a", [
            FaultEvent("device-loss", "a", at=0, duration=2)
        ])
        for _ in range(2):
            with pytest.raises(DeviceLostError):
                injector.on_event()
        injector.on_event()  # healed

    def test_permanent_loss_never_heals(self):
        injector = FaultInjector("a", [FaultEvent("device-loss", "a")])
        for _ in range(5):
            with pytest.raises(DeviceLostError):
                injector.on_event()

    def test_latency_spike_advances_clock(self):
        advanced = []

        class Clock:
            def advance(self, seconds, label):
                advanced.append((seconds, label))

        injector = FaultInjector("a", [
            FaultEvent("latency-spike", "a", times=2, seconds=0.25)
        ])
        for _ in range(3):
            injector.on_event(Clock())
        assert advanced == [(0.25, "fault.latency-spike")] * 2

    def test_events_only_apply_to_their_label(self):
        plan = FaultPlan([FaultEvent("device-loss", "b")])
        plan.injector_for("a").on_event()  # clean: fault scripted for b
        with pytest.raises(DeviceLostError):
            plan.injector_for("b").on_event()

    def test_json_round_trip(self):
        plan = FaultPlan([
            FaultEvent("transient-kernel", "dev0", at=3, times=2),
            FaultEvent("device-loss", "dev1", at=1, duration=4),
            FaultEvent("latency-spike", "dev1", seconds=0.5),
        ], seed=17)
        clone = FaultPlan.from_json(plan.to_json())
        assert clone.seed == 17
        assert clone.events == plan.events
        assert json.loads(plan.to_json()) == plan.to_dict()

    def test_injector_memoized_across_rebuilds(self):
        """Failover/resplit rebuilds must not reset the fault schedule."""
        plan = FaultPlan([FaultEvent("device-loss", "a", at=1)])
        first = plan.injector_for("a")
        first.on_event()  # event 0: clean
        assert plan.injector_for("a") is first
        with pytest.raises(DeviceLostError):
            plan.injector_for("a").on_event()
        assert plan.fired() == {"a": first.fired}


# ---------------------------------------------------------------------------
# Retry policy
# ---------------------------------------------------------------------------

class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(probe_interval=-1)

    def test_delay_is_deterministic_and_bounded(self):
        policy = RetryPolicy(
            base_delay_s=0.01, backoff=2.0, max_delay_s=0.05,
            jitter=0.1, seed=7,
        )
        first = [policy.delay_s(a, salt="dev0") for a in range(1, 6)]
        again = [policy.delay_s(a, salt="dev0") for a in range(1, 6)]
        assert first == again
        assert first != [policy.delay_s(a, salt="dev1")
                         for a in range(1, 6)]
        # Exponential growth up to the clamp, jitter within +/-10%.
        for attempt, delay in enumerate(first, start=1):
            nominal = min(0.01 * 2.0 ** (attempt - 1), 0.05)
            assert 0.9 * nominal <= delay <= 1.1 * nominal

    def test_transient_classification(self):
        policy = DEFAULT_RETRY_POLICY
        assert policy.is_transient(KernelLaunchError("boom", device="d"))
        assert not policy.is_transient(DeviceLostError("gone", device="d"))
        assert not policy.is_transient(ValueError("not a device error"))
        assert isinstance(KernelLaunchError("x", device="d"), DeviceError)

    def test_failover_budget(self):
        assert RetryPolicy().failover_budget(3) == 2
        assert RetryPolicy(max_failovers=1).failover_budget(3) == 1
        assert RetryPolicy(failover=True).failover_budget(1) == 0


# ---------------------------------------------------------------------------
# Retry and failover in the executor
# ---------------------------------------------------------------------------

class TestRetryFailover:
    def test_transient_errors_retry_in_place(self, workload):
        plan = FaultPlan([
            FaultEvent("transient-kernel", "dev0", at=0, times=2)
        ])
        with _multi(workload, ("cpu-serial", "cpu-serial")) as clean:
            expected = clean.log_likelihood()
        with _multi(workload, ("cpu-serial", "cpu-serial")) as mdl:
            tracer, metrics = mdl.instrument(
                Tracer(enabled=True), MetricsRegistry()
            )
            install_fault_plan(mdl, plan, level="wrapper")
            with ConcurrentExecutor(
                mdl, tracer, metrics,
                retry_policy=RetryPolicy(max_attempts=3, base_delay_s=0.0),
            ) as ex:
                assert ex.log_likelihood() == expected
                assert ex.failover_events() == []
        assert metrics.counter("resil.retries").value == 2.0
        assert tracer.count(name_prefix="resil.retry") == 2

    def test_transient_budget_exhaustion_raises(self, workload):
        plan = FaultPlan([
            FaultEvent("transient-kernel", "dev0", at=0, times=5)
        ])
        with _multi(workload, ("cpu-serial", "cpu-serial")) as mdl:
            install_fault_plan(mdl, plan, level="wrapper")
            with ConcurrentExecutor(
                mdl,
                retry_policy=RetryPolicy(
                    max_attempts=2, base_delay_s=0.0, failover=False
                ),
            ) as ex:
                with pytest.raises(KernelLaunchError):
                    ex.log_likelihood()

    def test_chaos_failover_bit_identical_to_serial(self, workload):
        """Acceptance: persistent device loss mid-run -> the session
        completes and the recovered ll is bit-identical to a serial
        single-device evaluation, with resil.failover telemetry."""
        serial = _serial_reference(workload)
        tree, data, model, site = workload
        plan = FaultPlan([FaultEvent("device-loss", "dev1", at=1)])
        with Session.multi_device(
            data, tree, model, site,
            device_requests={"dev0": "cuda", "dev1": "cuda"},
            rebalance=False, trace=True,
            retry_policy=RetryPolicy(max_attempts=2),
            fault_plan=plan,
        ) as md:
            values = [md.log_likelihood() for _ in range(3)]
            events = md.failover_events()
            assert values == [serial] * 3
            assert [e.label for e in events] == ["dev1"]
            assert events[0].survivors == ["dev0"]
            assert events[0].wasted_s > 0
            assert sorted(md.quarantined()) == ["dev1"]
            assert md.metrics.counter("resil.failover.events").value == 1.0
            assert md.metrics.counter("resil.quarantines").value == 1.0
            assert md.tracer.count(kind="resil") >= 1
            spans = [
                s for s in md.tracer.records()
                if s.name == "resil.failover"
            ]
            assert len(spans) == 1 and spans[0].attrs["label"] == "dev1"

    def test_failover_names_component_on_error_surface(self, workload):
        plan = FaultPlan([FaultEvent("device-loss", "dev1", at=0)])
        with _multi(workload) as mdl:
            install_fault_plan(mdl, plan)
            with ConcurrentExecutor(
                mdl, retry_policy=RetryPolicy(max_attempts=1)
            ) as ex:
                ex.log_likelihood()
        message = beagle_get_last_error_message()
        assert message is not None
        assert "executor.component[dev1]@" in message
        assert "DeviceLostError" in message
        assert "dev1" in message

    def test_without_policy_failures_propagate(self, workload):
        plan = FaultPlan([FaultEvent("device-loss", "dev1", at=0)])
        with _multi(workload) as mdl:
            install_fault_plan(mdl, plan)
            with ConcurrentExecutor(mdl) as ex:
                with pytest.raises(DeviceLostError):
                    ex.log_likelihood()

    def test_losing_every_device_raises(self, workload):
        plan = FaultPlan([
            FaultEvent("device-loss", "dev0", at=0),
            FaultEvent("device-loss", "dev1", at=0),
        ])
        with _multi(workload) as mdl:
            install_fault_plan(mdl, plan)
            with ConcurrentExecutor(
                mdl, retry_policy=RetryPolicy(max_attempts=1)
            ) as ex:
                with pytest.raises(DeviceLostError):
                    ex.log_likelihood()

    def test_probe_readmits_recovered_device(self, workload):
        plan = FaultPlan([
            FaultEvent("device-loss", "dev1", at=1, duration=2)
        ])
        with _multi(workload) as clean:
            healthy = clean.log_likelihood()
        with _multi(workload) as mdl:
            tracer, metrics = mdl.instrument(
                Tracer(enabled=True), MetricsRegistry()
            )
            install_fault_plan(mdl, plan)
            policy = RetryPolicy(max_attempts=1, probe_interval=2)
            with ConcurrentExecutor(
                mdl, tracer, metrics, retry_policy=policy
            ) as ex:
                ex.log_likelihood()  # failover
                assert sorted(ex.quarantined()) == ["dev1"]
                while ex.quarantined():
                    ex.log_likelihood()
                # Readmission restores the original two-device split, so
                # the sum is bit-identical to the pre-fault value.
                assert ex.log_likelihood() == healthy
                assert mdl.labels == ["dev0", "dev1"]
        assert metrics.counter("resil.probes").value >= 1.0
        assert metrics.counter("resil.readmissions").value == 1.0
        assert metrics.gauge("resil.quarantined").value == 0.0

    def test_drop_readmit_restores_pre_loss_bounds(self, workload):
        """Readmission returns to the calibrated shares from before the
        loss, not to a uniform split: the chunk bounds come back exactly
        and so does the value, bit for bit."""
        with _multi(
            workload, ("cuda", "cuda", "cuda"), proportions=[0.6, 0.3, 0.1]
        ) as mdl:
            before = mdl.log_likelihood()
            bounds = mdl.device_report()
            mdl.drop_device("dev2")
            two = mdl.device_report()
            mdl.drop_device("dev1")
            assert [lab for lab, _, _ in mdl.device_report()] == ["dev0"]
            mdl.readmit_device("dev1")
            assert mdl.device_report() == two
            mdl.readmit_device("dev2")
            assert mdl.device_report() == bounds
            assert mdl.log_likelihood() == before

    def test_probe_readmits_at_calibrated_shares(self, workload):
        plan = FaultPlan([
            FaultEvent("device-loss", "dev1", at=1, duration=1)
        ])
        with _multi(workload, proportions=[0.8, 0.2]) as mdl:
            healthy = mdl.log_likelihood()
            bounds = mdl.device_report()
            install_fault_plan(mdl, plan)
            with ConcurrentExecutor(
                mdl, retry_policy=RetryPolicy(max_attempts=1,
                                              probe_interval=1),
            ) as ex:
                ex.log_likelihood()  # failover
                assert sorted(ex.quarantined()) == ["dev1"]
                assert ex.log_likelihood() == healthy  # probe readmits
                assert ex.quarantined() == {}
                assert mdl.device_report() == bounds

    def test_rebalancing_executor_survives_failover(self, workload):
        plan = FaultPlan([FaultEvent("device-loss", "dev2", at=1)])
        with _multi(workload, ("cuda", "cuda", "cuda")) as mdl:
            install_fault_plan(mdl, plan)
            with RebalancingExecutor(
                mdl, retry_policy=RetryPolicy(max_attempts=1)
            ) as ex:
                for _ in range(4):
                    value = ex.log_likelihood()
                assert sorted(ex.quarantined()) == ["dev2"]
                assert mdl.labels == ["dev0", "dev1"]
        with _multi(workload, ("cuda", "cuda")) as reference:
            reference.resplit(mdl.proportions)
            assert value == reference.log_likelihood()


# ---------------------------------------------------------------------------
# Lifecycle regressions: thread leaks, shutdown idempotence
# ---------------------------------------------------------------------------

class TestLifecycle:
    def test_no_thread_leak_after_mid_evaluation_failure(self, workload):
        plan = FaultPlan([FaultEvent("device-loss", "dev1", at=1)])
        with _multi(workload) as mdl:
            install_fault_plan(mdl, plan)
            ex = ConcurrentExecutor(
                mdl, retry_policy=RetryPolicy(max_attempts=1)
            )
            try:
                ex.log_likelihood()  # failover mid-evaluation
                assert len(ex.failover_events()) == 1
            finally:
                ex.shutdown()
        assert _hetero_threads() == []

    def test_shutdown_is_idempotent(self, workload):
        with _multi(workload) as mdl:
            ex = ConcurrentExecutor(mdl)
            ex.log_likelihood()
            ex.shutdown()
            ex.shutdown()  # no-op, no raise
            with pytest.raises(RuntimeError):
                ex.log_likelihood()
        assert _hetero_threads() == []

    def test_shutdown_releases_every_worker_despite_errors(self, workload):
        with _multi(workload) as mdl:
            ex = ConcurrentExecutor(mdl)
            ex.log_likelihood()

            class Stubborn:
                def __init__(self, inner):
                    self.inner = inner

                def shutdown(self, wait=True):
                    self.inner.shutdown(wait=wait)
                    raise RuntimeError("refusing to die quietly")

            pool_workers = ex._pool._workers
            pool_workers["dev0"] = Stubborn(pool_workers["dev0"])
            with pytest.raises(RuntimeError, match="refusing"):
                ex.shutdown()
            assert ex._pool._workers == {}
            ex.shutdown()  # already closed: no second raise
        assert _hetero_threads() == []


# ---------------------------------------------------------------------------
# Installation levels and the partition layer's atomic reconfigure
# ---------------------------------------------------------------------------

class TestInstallation:
    def test_wrapper_level_wraps_components(self, workload):
        plan = FaultPlan([FaultEvent("device-loss", "dev0", at=0)])
        with _multi(workload, ("cpu-serial", "cpu-serial")) as mdl:
            install_fault_plan(mdl, plan, level="wrapper")
            assert isinstance(mdl.components[0], FaultyComponent)
            with pytest.raises(DeviceLostError):
                mdl.components[0].log_likelihood()
            # Wrapper delegates everything else to the real component.
            assert mdl.components[0].pattern_count == \
                mdl.components[0].wrapped.pattern_count

    def test_hardware_level_needs_an_interface(self, workload):
        plan = FaultPlan([FaultEvent("device-loss", "dev0", at=0)])
        with _multi(workload, ("cpu-serial", "cpu-serial")) as mdl:
            with pytest.raises(ValueError, match="hardware-level"):
                install_fault_plan(mdl, plan, level="hardware")

    def test_auto_prefers_hardware_on_accelerated_backends(self, workload):
        plan = FaultPlan([FaultEvent("device-loss", "dev0", at=0)])
        with _multi(workload) as mdl:
            install_fault_plan(mdl, plan)
            assert not isinstance(mdl.components[0], FaultyComponent)
            interface = mdl.components[0].instance.impl.interface
            assert interface.fault_injector is plan.injector_for("dev0")

    def test_unknown_level_rejected(self, workload):
        with _multi(workload) as mdl:
            with pytest.raises(ValueError, match="unknown fault level"):
                install_fault_plan(mdl, FaultPlan(), level="cosmic")

    def test_drop_refuses_last_device(self, workload):
        with _multi(workload) as mdl:
            mdl.drop_device("dev0")
            with pytest.raises(ValueError):
                mdl.drop_device("dev1")

    def test_failed_rebuild_leaves_split_intact(self, workload):
        with _multi(workload) as mdl:
            before = (list(mdl.labels), list(mdl.proportions))
            value = mdl.log_likelihood()
            with pytest.raises(ValueError):
                mdl.resplit([0.7, 0.2, 0.1])  # wrong arity
            assert (list(mdl.labels), list(mdl.proportions)) == before
            assert mdl.log_likelihood() == value
