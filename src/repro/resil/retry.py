"""Retry policies with deterministic backoff.

A :class:`RetryPolicy` describes how the multi-device executor, the
cluster scheduler and the likelihood server react to device failures.
It is data only: its one implementation is the shared failover core,
:mod:`repro.sched.failover` (DESIGN choice 19).

* **transient** errors (``DeviceError.transient`` is true — e.g. a
  spurious kernel-launch failure) are retried on the *same* device up
  to ``max_attempts`` times, sleeping ``delay_s(attempt)`` between
  attempts;
* **persistent** errors (``DeviceLostError`` or a transient error that
  exhausted its attempts) quarantine the device and, when
  ``failover`` is enabled, re-split the pattern set across the
  surviving devices;
* quarantined devices are probed every ``probe_interval`` evaluations
  and re-admitted through the rebalance path when the probe succeeds.

Backoff is exponential with *deterministic* jitter: the jitter term is
derived from ``crc32(f"{seed}:{salt}:{attempt}")``, so a given policy
replays the exact same delay schedule on every run — failures stay
reproducible test fixtures, never a source of flakiness.

Delays are expressed in seconds but are charged by the failover core as
*simulated* time whenever the failing component runs on a simulated
clock, so retry tests complete in microseconds of wall time.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from repro.util.errors import DeviceError

__all__ = ["RetryPolicy", "DEFAULT_RETRY_POLICY"]


@dataclass(frozen=True)
class RetryPolicy:
    """Immutable description of retry/failover behaviour.

    Parameters
    ----------
    max_attempts:
        Total attempts per operation per device (first try included).
        Must be >= 1; retry loops are bounded by this value.
    base_delay_s:
        Delay before the first retry, in (simulated) seconds.
    backoff:
        Multiplier applied per retry: delay grows as
        ``base_delay_s * backoff ** (attempt - 1)``.
    max_delay_s:
        Upper clamp on any single delay.
    jitter:
        Fraction of the delay replaced by deterministic jitter in
        ``[0, jitter * delay]``.  ``0`` disables jitter.
    seed:
        Seed for the deterministic jitter hash.
    failover:
        Whether persistent device failure triggers quarantine +
        pattern failover (as opposed to propagating the error).
    max_failovers:
        Maximum number of failover rounds a single evaluation may
        perform; ``None`` means "as many as there are devices", which
        is the natural bound (each round removes a device).
    probe_interval:
        Quarantined devices are probed for recovery every this many
        evaluations.  ``0`` disables probing (quarantine is permanent).
    """

    max_attempts: int = 3
    base_delay_s: float = 0.001
    backoff: float = 2.0
    max_delay_s: float = 0.1
    jitter: float = 0.1
    seed: int = 0
    failover: bool = True
    max_failovers: int | None = None
    probe_interval: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be non-negative")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if self.max_failovers is not None and self.max_failovers < 0:
            raise ValueError("max_failovers must be >= 0")
        if self.probe_interval < 0:
            raise ValueError("probe_interval must be >= 0")

    # -- classification ----------------------------------------------------

    def is_transient(self, exc: BaseException) -> bool:
        """Whether *exc* is worth retrying on the same device."""
        return isinstance(exc, DeviceError) and exc.transient

    # -- schedule ----------------------------------------------------------

    def delay_s(self, attempt: int, salt: str = "") -> float:
        """Delay before retry number *attempt* (1-based), in seconds.

        The same ``(seed, salt, attempt)`` triple always produces the
        same delay.  *salt* is typically the device label, so distinct
        devices de-synchronise without losing reproducibility.
        """
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        delay = min(
            self.base_delay_s * self.backoff ** (attempt - 1),
            self.max_delay_s,
        )
        if self.jitter > 0.0 and delay > 0.0:
            digest = zlib.crc32(f"{self.seed}:{salt}:{attempt}".encode())
            unit = digest / 0xFFFFFFFF  # [0, 1]
            delay = delay * (1.0 - self.jitter) + delay * self.jitter * unit
        return delay

    def failover_budget(self, n_devices: int) -> int:
        """Bounded number of failover rounds for an *n_devices* split."""
        natural = max(n_devices - 1, 0)
        if self.max_failovers is None:
            return natural
        return min(self.max_failovers, natural)


#: Policy used when ``retry_policy`` is requested but not specified.
DEFAULT_RETRY_POLICY = RetryPolicy()
