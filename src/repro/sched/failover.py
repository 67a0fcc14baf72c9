"""The shared failover core: each failover mechanism, implemented once.

The executor, the cluster and the likelihood server react to device
failure under one :class:`~repro.resil.RetryPolicy`; this module is its
one implementation (DESIGN choice 19): a timed component call put on
one clock per evaluation, bounded transient retry with clock-charged
backoff, an EWMA rate table, a quarantine table with probing and ordered
readmission, and the failover-round loop.  Callers keep their own spans,
events and metrics, reported through callbacks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeGuard,
    TypeVar,
)

from repro.util.errors import DeviceError

if TYPE_CHECKING:
    from repro.resil.retry import RetryPolicy

__all__ = [
    "ComponentTiming",
    "QuarantineRecord",
    "QuarantineTable",
    "RateTable",
    "call_with_retries",
    "device_clock",
    "failover_enabled",
    "one_clock",
    "run_failover_rounds",
    "timed_call",
]

T = TypeVar("T")


@dataclass
class ComponentTiming:
    """One component's cost in the most recent evaluation."""

    label: str
    patterns: int
    wall_s: float
    #: Modelled device seconds, where the backend simulates a device
    #: clock (accelerated implementations); ``None`` on host backends,
    #: and on every component of an evaluation put on the wall clock
    #: (:func:`one_clock`).
    simulated_s: Optional[float]

    @property
    def measured_s(self) -> float:
        """This component's cost on the clock its timing carries.

        Simulated device seconds when the timing holds them (that *is*
        the device model), wall-clock otherwise.  The executor passes an
        evaluation's timings through :func:`one_clock` first, so every
        ``measured_s`` of one evaluation, and every rate the rebalancer
        compares, reads the same clock.
        """
        if self.simulated_s is not None and self.simulated_s > 0:
            return self.simulated_s
        return self.wall_s

    @property
    def rate(self) -> float:
        """Patterns per measured second."""
        return self.patterns / max(self.measured_s, 1e-12)


def timed_call(impl: Any, label: str, patterns: int,
               call: Callable[[], T]) -> Tuple[T, ComponentTiming]:
    """Run *call*; time it in wall seconds and in *impl*'s device clock."""
    sim0 = getattr(impl, "simulated_time", None)
    t0 = time.perf_counter()
    value = call()
    wall = time.perf_counter() - t0
    sim = None if sim0 is None else impl.simulated_time - sim0
    return value, ComponentTiming(label, patterns, wall, sim)


def one_clock(timings: Sequence[ComponentTiming]) -> List[ComponentTiming]:
    """*timings* on one clock: simulated seconds only when every
    component reports a device clock, wall seconds otherwise.

    Simulated and wall seconds do not compare: a rate table that mixed
    them would size a split from a model's device against a host's
    Python.  On the wall clock the simulated seconds are dropped.
    """
    if all(t.simulated_s is not None and t.simulated_s > 0 for t in timings):
        return list(timings)
    return [replace(t, simulated_s=None) for t in timings]


def device_clock(impl: Any) -> Any:
    """The simulated device clock behind *impl*, or ``None``."""
    return getattr(getattr(impl, "interface", None), "clock", None)


def call_with_retries(
    policy: Optional["RetryPolicy"],
    call: Callable[[], T],
    *,
    impl: Any,
    salt: str,
    charge: str,
    on_retry: Optional[Callable[[int, BaseException, float], None]] = None,
    first_attempt: int = 1,
) -> T:
    """Run *call*, retrying transient errors up to ``max_attempts``.

    Attempts count from *first_attempt*, so a caller that moves the work
    to another device keeps one budget.  Before each retry,
    ``on_retry(attempt, error, delay_s)`` runs and the backoff is
    charged to *impl*'s device clock as *charge* (the retry costs device
    time, and tests stay wall-clock fast), or slept without a clock.
    """
    last = 1 if policy is None else policy.max_attempts
    for attempt in range(first_attempt, last + 1):
        try:
            return call()
        except Exception as exc:
            if (
                policy is None
                or attempt >= last
                or not policy.is_transient(exc)
            ):
                raise
            delay = policy.delay_s(attempt, salt=salt)
            if on_retry is not None:
                on_retry(attempt, exc, delay)
            clock = device_clock(impl)
            if clock is not None:
                clock.advance(delay, charge)
            elif delay > 0:
                time.sleep(delay)
    raise AssertionError("unreachable: bounded retry loop fell through")


class RateTable:
    """EWMA throughput per label over an optional prior: the first
    observation replaces the prior, later ones blend in with *alpha*."""

    def __init__(self, alpha: float, prior: Optional[float] = None) -> None:
        if not 0 < alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = float(alpha)
        self._prior = prior
        self._rates: Dict[str, float] = {}

    def observe(self, label: str, rate: float) -> None:
        """Fold one measured rate into *label*'s estimate."""
        prev = self._rates.get(label)
        self._rates[label] = (
            rate if prev is None
            else self.alpha * rate + (1 - self.alpha) * prev
        )

    def rate(self, label: str) -> float:
        """The measured estimate, else the prior (``KeyError`` if none)."""
        measured = self._rates.get(label)
        if measured is not None:
            return measured
        if self._prior is None:
            raise KeyError(label)
        return self._prior

    def __contains__(self, label: object) -> bool:
        """Whether *label* has been measured."""
        return label in self._rates

    def as_dict(self) -> Dict[str, float]:
        return dict(self._rates)


@dataclass
class QuarantineRecord:
    """A device or node removed from placement after persistent failure;
    ``at``/``last_probe`` count evaluations (executor) or rounds (cluster).
    """

    label: str
    error: str
    at: int
    last_probe: int
    probes: int = 0


class QuarantineTable:
    """Quarantined labels, their probe schedule, and readmission in the
    original *order* (tie-breaks survive a loss/heal cycle)."""

    def __init__(self, order: Sequence[str] = ()) -> None:
        self._order = list(order)
        self._records: Dict[str, QuarantineRecord] = {}

    def add(self, label: str, exc: BaseException, at: int) -> str:
        """Quarantine *label* after *exc* at round *at*; returns the
        error text the record keeps."""
        error = f"{type(exc).__name__}: {exc}"
        self._records[label] = QuarantineRecord(label, error, at, at)
        return error

    def due(self, now: int, interval: int) -> List[str]:
        """Labels due for a probe at round *now* (each probe counted);
        ``interval <= 0`` disables probing."""
        due = [
            label for label, record in self._records.items()
            if interval > 0 and now - record.last_probe >= interval
        ]
        for label in due:
            self._records[label].last_probe = now
            self._records[label].probes += 1
        return due

    def release(self, label: str) -> None:
        """Drop *label*'s record (its probe passed)."""
        del self._records[label]

    def readmit(self, label: str, active: Sequence[str]) -> List[str]:
        """Release *label*; *active* plus *label*, in the original order."""
        self.release(label)
        return [name for name in self._order
                if name in active or name == label]

    def records(self) -> Dict[str, QuarantineRecord]:
        return dict(self._records)

    def __contains__(self, label: object) -> bool:
        return label in self._records

    def __len__(self) -> int:
        return len(self._records)


def failover_enabled(
    policy: Optional["RetryPolicy"],
) -> TypeGuard["RetryPolicy"]:
    """Whether *policy* fails work over after a persistent device loss."""
    return policy is not None and policy.failover


def run_failover_rounds(
    policy: Optional["RetryPolicy"],
    active: int,
    run_round: Callable[[int], Sequence[Tuple[str, BaseException]]],
    quarantine: Callable[[str, BaseException], None],
) -> None:
    """Run rounds over the *active* devices until one has no failure.

    ``run_round(attempt)`` evaluates the outstanding work and returns
    ``(device, error)`` per failed device.  Every device that failed
    with a :class:`DeviceError` is then quarantined, and the next round
    re-places its work on the survivors.  The first other error is
    raised, and so is a device error once the budget
    (``policy.failover_budget``) is spent or no device would survive.
    """
    budget = policy.failover_budget(active) if failover_enabled(policy) else 0
    for attempt in range(budget + 1):
        failed = run_round(attempt)
        if not failed:
            return
        survivors = active - len(failed)
        fatal: Optional[BaseException] = None
        for device, exc in failed:
            if (
                isinstance(exc, DeviceError)
                and attempt < budget
                and survivors > 0
            ):
                quarantine(device, exc)
                active -= 1
            elif fatal is None:
                fatal = exc
        if fatal is not None:
            raise fatal
    raise AssertionError("unreachable: bounded failover loop")
