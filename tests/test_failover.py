"""The shared failover core (:mod:`repro.sched.failover`), tested once.

The executor, the cluster and the server reach these pieces through
their own drills (``test_resilience``, ``test_cluster``,
``test_serve``); here each mechanism is pinned directly: bounded
transient retry with clock-charged backoff, the EWMA rate table, the
quarantine table's probe schedule and ordered readmission, and the
failover-round loop.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.accel.perfmodel import SimulatedClock
from repro.resil import RetryPolicy
from repro.sched import failover
from repro.sched.failover import (
    ComponentTiming,
    QuarantineTable,
    RateTable,
    call_with_retries,
    run_failover_rounds,
    timed_call,
)
from repro.util.errors import DeviceLostError, KernelLaunchError


def _device(clock=None):
    """A stand-in implementation: a simulated clock behind an interface."""
    return SimpleNamespace(interface=SimpleNamespace(clock=clock))


class _Flaky:
    """Fails with *exc* for the first *failures* calls, then returns 1.0."""

    def __init__(self, exc, failures):
        self.exc = exc
        self.failures = failures
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.exc
        return 1.0


@pytest.fixture
def no_sleep(monkeypatch):
    slept = []
    monkeypatch.setattr(failover.time, "sleep", slept.append)
    return slept


# -- bounded transient retry ----------------------------------------------


def test_retries_stop_at_exactly_max_attempts(no_sleep):
    policy = RetryPolicy(max_attempts=4)
    flaky = _Flaky(KernelLaunchError("spurious"), failures=10)
    retries = []
    with pytest.raises(KernelLaunchError):
        call_with_retries(
            policy, flaky, impl=_device(SimulatedClock()), salt="dev0",
            charge="test.backoff",
            on_retry=lambda n, exc, delay: retries.append(n),
        )
    assert flaky.calls == 4
    assert retries == [1, 2, 3]


def test_transient_error_recovers_within_budget(no_sleep):
    flaky = _Flaky(KernelLaunchError("spurious"), failures=2)
    value = call_with_retries(
        RetryPolicy(max_attempts=3), flaky, impl=_device(SimulatedClock()),
        salt="dev0", charge="test.backoff",
    )
    assert value == 1.0 and flaky.calls == 3


def test_backoff_advances_the_device_clock_without_sleeping(no_sleep):
    policy = RetryPolicy(max_attempts=3, seed=7)
    clock = SimulatedClock()
    flaky = _Flaky(KernelLaunchError("spurious"), failures=2)
    delays = []
    call_with_retries(
        policy, flaky, impl=_device(clock), salt="dev1",
        charge="test.backoff",
        on_retry=lambda n, exc, delay: delays.append(delay),
    )
    assert no_sleep == []
    assert delays == [policy.delay_s(1, salt="dev1"),
                      policy.delay_s(2, salt="dev1")]
    assert clock.elapsed == pytest.approx(sum(delays))
    assert clock.by_label["test.backoff"] == pytest.approx(sum(delays))


def test_backoff_sleeps_without_a_device_clock(no_sleep):
    policy = RetryPolicy(max_attempts=2, seed=3)
    flaky = _Flaky(KernelLaunchError("spurious"), failures=1)
    call_with_retries(
        policy, flaky, impl=object(), salt="host", charge="test.backoff",
    )
    assert no_sleep == [policy.delay_s(1, salt="host")]


def test_non_transient_error_propagates_on_first_attempt(no_sleep):
    for exc in (DeviceLostError("gone"), ValueError("bad request")):
        flaky = _Flaky(exc, failures=1)
        with pytest.raises(type(exc)):
            call_with_retries(
                RetryPolicy(max_attempts=5), flaky,
                impl=_device(SimulatedClock()), salt="dev0",
                charge="test.backoff",
            )
        assert flaky.calls == 1


def test_no_policy_means_one_attempt(no_sleep):
    flaky = _Flaky(KernelLaunchError("spurious"), failures=1)
    with pytest.raises(KernelLaunchError):
        call_with_retries(
            None, flaky, impl=_device(), salt="dev0", charge="test.backoff",
        )
    assert flaky.calls == 1


def test_first_attempt_shares_one_budget(no_sleep):
    policy = RetryPolicy(max_attempts=3)
    flaky = _Flaky(KernelLaunchError("spurious"), failures=10)
    retries = []
    with pytest.raises(KernelLaunchError):
        call_with_retries(
            policy, flaky, impl=_device(SimulatedClock()), salt="dev0",
            charge="test.backoff", first_attempt=2,
            on_retry=lambda n, exc, delay: retries.append(n),
        )
    assert flaky.calls == 2
    assert retries == [2]


def test_timed_call_measures_simulated_seconds():
    impl = SimpleNamespace(simulated_time=1.0)

    def work():
        impl.simulated_time += 0.25
        return 3.0

    value, timing = timed_call(impl, "dev0", 100, work)
    assert value == 3.0
    assert timing.label == "dev0" and timing.patterns == 100
    assert timing.simulated_s == pytest.approx(0.25)
    assert timing.measured_s == timing.simulated_s
    assert timing.rate == pytest.approx(400.0)
    _, host = timed_call(object(), "host", 10, lambda: 0.0)
    assert host.simulated_s is None and host.measured_s == host.wall_s


# -- rate table -----------------------------------------------------------


def test_first_observation_replaces_the_prior_then_ewma_blends():
    table = RateTable(alpha=0.25, prior=999.0)
    assert "a" not in table
    assert table.rate("a") == 999.0
    table.observe("a", 100.0)
    assert "a" in table
    assert table.rate("a") == 100.0
    table.observe("a", 200.0)
    assert table.rate("a") == pytest.approx(0.25 * 200.0 + 0.75 * 100.0)
    assert table.as_dict() == {"a": table.rate("a")}


def test_rate_table_without_prior_and_alpha_bounds():
    table = RateTable(alpha=1.0)
    with pytest.raises(KeyError):
        table.rate("missing")
    table.observe("x", 5.0)
    table.observe("x", 7.0)
    assert table.rate("x") == 7.0  # alpha=1: newest observation wins
    for alpha in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError, match="alpha"):
            RateTable(alpha)


def test_component_timing_rate_feeds_the_table():
    table = RateTable(alpha=0.5)
    table.observe("d", ComponentTiming("d", 100, 2.0, None).rate)
    assert table.rate("d") == pytest.approx(50.0)


# -- quarantine table -----------------------------------------------------


def test_probe_due_list_respects_interval_and_counts_probes():
    table = QuarantineTable()
    table.add("a", DeviceLostError("gone"), at=3)
    assert table.due(4, interval=2) == []
    assert table.due(5, interval=2) == ["a"]
    assert table.due(6, interval=2) == []
    assert table.due(7, interval=2) == ["a"]
    record = table.records()["a"]
    assert record.probes == 2 and record.last_probe == 7 and record.at == 3
    assert record.error == "DeviceLostError: gone"
    assert table.due(100, interval=0) == []  # probing disabled
    assert table.records()["a"].probes == 2


def test_readmission_restores_the_original_order():
    table = QuarantineTable(order=["n0", "n1", "n2", "n3"])
    active = ["n0", "n1", "n2", "n3"]
    for name in ("n1", "n2"):
        active.remove(name)
        table.add(name, DeviceLostError("gone"), at=1)
    assert len(table) == 2
    active = table.readmit("n2", active)
    assert active == ["n0", "n2", "n3"]
    active = table.readmit("n1", active)
    assert active == ["n0", "n1", "n2", "n3"]
    assert len(table) == 0 and "n1" not in table


# -- failover-round loop --------------------------------------------------


def _rounds(script):
    """A run_round that replays one failure list per round."""
    rounds = iter(script)
    attempts = []

    def run_round(attempt):
        attempts.append(attempt)
        return next(rounds)

    return run_round, attempts


def test_round_loop_quarantines_every_persistently_failed_device():
    lost1, lost2 = DeviceLostError("gone 1"), DeviceLostError("gone 2")
    run_round, attempts = _rounds([[("d1", lost1), ("d2", lost2)], []])
    quarantined = []
    run_failover_rounds(
        RetryPolicy(), 4, run_round,
        lambda device, exc: quarantined.append((device, exc)),
    )
    assert quarantined == [("d1", lost1), ("d2", lost2)]
    assert attempts == [0, 1]


def test_round_loop_raises_on_a_non_device_error():
    bad = ValueError("bad input")
    lost = DeviceLostError("gone")
    run_round, _ = _rounds([[("d0", bad), ("d1", lost)]])
    quarantined = []
    with pytest.raises(ValueError, match="bad input"):
        run_failover_rounds(
            RetryPolicy(), 3, run_round,
            lambda device, exc: quarantined.append(device),
        )
    assert quarantined == ["d1"]


def test_round_loop_raises_when_the_budget_is_spent():
    run_round, attempts = _rounds([
        [("d2", DeviceLostError("gone"))],
        [("d1", DeviceLostError("gone too"))],
    ])
    quarantined = []
    with pytest.raises(DeviceLostError, match="gone too"):
        run_failover_rounds(
            RetryPolicy(max_failovers=1), 3, run_round,
            lambda device, exc: quarantined.append(device),
        )
    assert quarantined == ["d2"]
    assert attempts == [0, 1]


def test_round_loop_raises_when_no_survivor_is_left():
    run_round, _ = _rounds([
        [("d0", DeviceLostError("gone")), ("d1", DeviceLostError("gone"))],
    ])
    quarantined = []
    with pytest.raises(DeviceLostError):
        run_failover_rounds(
            RetryPolicy(), 2, run_round,
            lambda device, exc: quarantined.append(device),
        )
    assert quarantined == []


@pytest.mark.parametrize("policy", [None, RetryPolicy(failover=False)])
def test_round_loop_without_failover_raises_the_device_error(policy):
    run_round, attempts = _rounds([[("d1", DeviceLostError("gone"))]])
    with pytest.raises(DeviceLostError):
        run_failover_rounds(
            policy, 3, run_round,
            lambda device, exc: pytest.fail("quarantined without failover"),
        )
    assert attempts == [0]
