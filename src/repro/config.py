"""Declarative session configuration: one validated object, one truth.

Before this module, the knobs of a likelihood session were scattered:
``Session(...)`` keyword arguments, the :data:`BACKEND_FLAGS` table,
``beagle_set_*`` toggles, and ad-hoc multi-device/resilience parameters
threaded through :class:`~repro.session.MultiDeviceSession`.
:class:`SessionConfig` consolidates them into a single frozen,
validated dataclass that :class:`~repro.session.Session`,
:meth:`~repro.session.Session.multi_device`, and the serving layer
(:mod:`repro.serve`) all construct from::

    cfg = SessionConfig(backend="cuda", deferred=True, trace=True)
    with repro.Session(data, tree, model, config=cfg) as s:
        print(s.log_likelihood())

The keyword spellings (``Session(data, tree, model, backend=...)``)
stay supported — they build a :class:`SessionConfig` internally via
:meth:`SessionConfig.from_kwargs` — so keyword callers see no change
while new code (and the multi-tenant server, which must hash and
compare tenant configurations) gets a canonical, comparable object.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple, Union

from repro.core.flags import Flag

__all__ = [
    "BACKEND_FLAGS",
    "SessionConfig",
    "backend_flags",
]

#: Backend name -> instance flag keywords.  The names match the paper's
#: benchmark configurations and the ``--backend`` options of the CLI and
#: MCMC runner.  ``None`` / ``"auto"`` lets the resource manager pick.
BACKEND_FLAGS = {
    "cpu-serial": dict(requirement_flags=Flag.VECTOR_NONE),
    "cpu-sse": dict(
        requirement_flags=Flag.VECTOR_SSE,
        preference_flags=Flag.THREADING_NONE,
    ),
    "cpp-threads": dict(requirement_flags=Flag.THREADING_CPP),
    "opencl-x86": dict(
        requirement_flags=Flag.FRAMEWORK_OPENCL | Flag.PROCESSOR_CPU
    ),
    "cpu-vector": dict(
        requirement_flags=Flag.FRAMEWORK_OPENCL | Flag.PROCESSOR_CPU,
        kernel_variant="cpu",
    ),
    "opencl-gpu": dict(
        requirement_flags=Flag.FRAMEWORK_OPENCL | Flag.PROCESSOR_GPU
    ),
    "cuda": dict(requirement_flags=Flag.FRAMEWORK_CUDA),
}

#: Backends that resolve to the accelerated implementation (and hence
#: understand ``autotune=`` / ``kernel_variant=`` factory keywords).
ACCELERATED_BACKENDS = frozenset(
    {"opencl-x86", "opencl-gpu", "cpu-vector", "cuda"}
)

#: Backends whose implementation accepts a ``thread_count`` keyword.
THREADED_BACKENDS = frozenset({"cpp-threads"})


def backend_flags(backend: Optional[str]) -> dict:
    """Instance flag keywords for a named backend.

    ``None`` or ``"auto"`` returns no constraints (manager's choice).
    Raises ``ValueError`` for unknown names, listing the valid ones.
    """
    if backend is None or backend == "auto":
        return {}
    try:
        return dict(BACKEND_FLAGS[backend])
    except KeyError:
        choices = ", ".join(sorted(BACKEND_FLAGS) + ["auto"])
        raise ValueError(
            f"unknown backend {backend!r}; choose from {choices}"
        ) from None


#: Session keyword names that map onto first-class config fields (the
#: compatibility shim pulls these out of the legacy kwarg soup).
_FIELD_KWARGS = (
    "precision",
    "use_scaling",
    "use_tip_states",
    "thread_count",
    "autotune",
)


@dataclass(frozen=True)
class SessionConfig:
    """Everything a likelihood session needs, declared up front.

    Parameters
    ----------
    backend:
        A name from :data:`BACKEND_FLAGS`, or ``None``/``"auto"`` for
        the resource manager's choice.
    precision:
        ``"double"`` (bit-identical across every backend) or
        ``"single"``.
    deferred:
        Start in deferred (plan-recording) execution mode.
    trace:
        Enable span tracing from the start.
    autotune:
        Let accelerated backends pick kernel configurations from the
        persistent tuning cache (:mod:`repro.accel.autotune`).  Only
        meaningful on accelerated backends; ignored elsewhere.
    verification:
        Strict plan verification: every flush statically verifies the
        recorded plan and refuses to execute one with error-severity
        diagnostics (maps to ``BeagleInstance(strict_plans=True)``).
    use_scaling, use_tip_states, thread_count:
        As for :class:`~repro.core.highlevel.TreeLikelihood`.
        ``thread_count`` is only valid on threaded backends.
    devices:
        Multi-device split: label -> backend name or instance keyword
        mapping.  When set, the config describes a
        :class:`~repro.session.MultiDeviceSession`.
    proportions, rebalance, rebalance_threshold, seed_backends:
        Multi-device split tuning (require ``devices``).
    retry_policy, fault_plan, fault_level:
        Resilience policy (see :mod:`repro.resil`).  Honoured by
        multi-device sessions and by the serving layer
        (:mod:`repro.serve`), which installs the fault plan on its
        single-device pooled instances for chaos drills.
    extra:
        Escape hatch: additional instance keywords passed through
        verbatim (``scaling_mode``, ``resource_ids``, ...).
    """

    backend: Optional[str] = None
    precision: str = "double"
    deferred: bool = False
    trace: bool = False
    autotune: bool = True
    verification: bool = False
    use_scaling: Union[bool, str] = False
    use_tip_states: bool = True
    thread_count: Optional[int] = None
    devices: Optional[Mapping[str, Union[str, Mapping[str, Any]]]] = None
    proportions: Optional[Tuple[float, ...]] = None
    rebalance: bool = True
    rebalance_threshold: float = 0.15
    seed_backends: Optional[Tuple[str, ...]] = None
    retry_policy: Optional[Any] = None
    fault_plan: Optional[Any] = None
    fault_level: str = "auto"
    extra: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        backend_flags(self.backend)  # raises on unknown names
        if self.precision not in ("single", "double"):
            raise ValueError(
                f"precision must be 'single' or 'double', "
                f"got {self.precision!r}"
            )
        if self.use_scaling not in (False, True, "always", "dynamic"):
            raise ValueError(
                "use_scaling must be False, True, 'always' or 'dynamic'; "
                f"got {self.use_scaling!r}"
            )
        if self.thread_count is not None:
            if self.thread_count < 1:
                raise ValueError(
                    f"thread_count must be >= 1, got {self.thread_count}"
                )
            if (
                self.backend is not None
                and self.backend != "auto"
                and self.backend not in THREADED_BACKENDS
            ):
                raise ValueError(
                    f"thread_count is only valid on threaded backends "
                    f"({', '.join(sorted(THREADED_BACKENDS))}), "
                    f"not {self.backend!r}"
                )
        if self.fault_level not in ("auto", "hardware", "wrapper"):
            raise ValueError(
                f"fault_level must be 'auto', 'hardware' or 'wrapper', "
                f"got {self.fault_level!r}"
            )
        if self.rebalance_threshold <= 0:
            raise ValueError(
                "rebalance_threshold must be positive, "
                f"got {self.rebalance_threshold}"
            )
        if self.devices is not None:
            if not self.devices:
                raise ValueError("devices mapping must not be empty")
            for label, spec in self.devices.items():
                if isinstance(spec, str):
                    backend_flags(spec)
            if self.proportions is not None and len(
                self.proportions
            ) != len(self.devices):
                raise ValueError("one proportion per device")
        else:
            for name in ("proportions", "seed_backends"):
                if getattr(self, name) is not None:
                    raise ValueError(
                        f"{name} requires a multi-device config "
                        "(set devices=...)"
                    )
        # Normalise the collection fields so configs compare by value
        # and cannot drift after validation.
        object.__setattr__(self, "extra", dict(self.extra))
        if self.proportions is not None:
            object.__setattr__(
                self, "proportions", tuple(float(p) for p in self.proportions)
            )
        if self.seed_backends is not None:
            object.__setattr__(
                self, "seed_backends", tuple(self.seed_backends)
            )
        if self.devices is not None:
            object.__setattr__(
                self,
                "devices",
                {
                    label: (spec if isinstance(spec, str) else dict(spec))
                    for label, spec in self.devices.items()
                },
            )

    # -- derived views -----------------------------------------------------

    @property
    def is_multi_device(self) -> bool:
        """Whether this config describes a multi-device split."""
        return self.devices is not None

    @property
    def backend_name(self) -> str:
        """The backend name with ``None`` normalised to ``"auto"``."""
        return self.backend or "auto"

    def likelihood_kwargs(self) -> Dict[str, Any]:
        """Keyword arguments for a single-instance ``TreeLikelihood``.

        Flattens the backend flag table, precision, scaling, threading,
        verification, and the ``extra`` escape hatch into the kwarg dict
        the pre-config ``Session`` used to assemble by hand.  ``extra``
        wins over derived defaults (it is the explicit escape hatch) but
        not over first-class fields.
        """
        if self.is_multi_device:
            raise ValueError(
                "a multi-device config has no single-instance kwargs; "
                "use device_request_kwargs()"
            )
        kwargs: Dict[str, Any] = dict(backend_flags(self.backend))
        kwargs.update(self.extra)
        kwargs["precision"] = self.precision
        kwargs["deferred"] = self.deferred
        kwargs["use_scaling"] = self.use_scaling
        kwargs["use_tip_states"] = self.use_tip_states
        if self.verification:
            kwargs["strict_plans"] = True
        if self.thread_count is not None:
            kwargs["thread_count"] = self.thread_count
        if not self.autotune and self.backend in ACCELERATED_BACKENDS:
            kwargs["autotune"] = False
        return kwargs

    def device_request_kwargs(self) -> Dict[str, Dict[str, Any]]:
        """Per-label instance keyword mappings for a multi-device split."""
        if not self.is_multi_device:
            raise ValueError("not a multi-device config (devices is None)")
        assert self.devices is not None
        out: Dict[str, Dict[str, Any]] = {}
        for label, spec in self.devices.items():
            kwargs = backend_flags(spec) if isinstance(spec, str) else dict(
                spec
            )
            kwargs.setdefault("precision", self.precision)
            out[label] = kwargs
        return out

    def replace(self, **changes: Any) -> "SessionConfig":
        """A copy with *changes* applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    # -- keyword spellings -------------------------------------------------

    @classmethod
    def from_kwargs(
        cls,
        backend: Optional[str] = None,
        deferred: bool = False,
        trace: bool = False,
        **kwargs: Any,
    ) -> "SessionConfig":
        """Build a config from the legacy ``Session(...)`` kwarg soup.

        Known keywords (``precision``, ``use_scaling``,
        ``use_tip_states``, ``thread_count``, ``autotune``,
        ``strict_plans``) become first-class fields; everything else
        lands in ``extra`` and is passed through to instance creation
        unchanged — exactly what the pre-config ``Session`` did.
        """
        fields: Dict[str, Any] = {}
        for name in _FIELD_KWARGS:
            if name in kwargs:
                fields[name] = kwargs.pop(name)
        if "strict_plans" in kwargs:
            fields["verification"] = bool(kwargs.pop("strict_plans"))
        return cls(
            backend=backend,
            deferred=deferred,
            trace=trace,
            extra=kwargs,
            **fields,
        )

    @classmethod
    def from_multi_device_kwargs(
        cls,
        device_requests: Mapping[str, Union[str, Mapping[str, Any]]],
        proportions: Optional[Sequence[float]] = None,
        rebalance: bool = True,
        threshold: float = 0.15,
        seed_backends: Optional[Sequence[str]] = None,
        deferred: bool = False,
        trace: bool = False,
        retry_policy: Optional[Any] = None,
        fault_plan: Optional[Any] = None,
        fault_level: str = "auto",
        **kwargs: Any,
    ) -> "SessionConfig":
        """Build a config from the legacy ``MultiDeviceSession`` kwargs."""
        return cls(
            devices=dict(device_requests),
            proportions=(
                tuple(proportions) if proportions is not None else None
            ),
            rebalance=rebalance,
            rebalance_threshold=threshold,
            seed_backends=(
                tuple(seed_backends) if seed_backends is not None else None
            ),
            deferred=deferred,
            trace=trace,
            retry_policy=retry_policy,
            fault_plan=fault_plan,
            fault_level=fault_level,
            extra=kwargs,
        )
