"""Warm instance pools keyed on analysis shape.

Building a :class:`~repro.core.highlevel.TreeLikelihood` is the
expensive part of serving a request — buffer allocation and eigensystem
setup.  (Tips are not encoded here: a
:class:`~repro.seq.patterns.PatternSet` encodes its tips once, when it
is built, and every instance loads them as read-only rows of that
matrix.)  The pool amortises the build: instances are keyed on the
*shape* of the analysis (:class:`PoolKey` — model signature, state
count, pattern count, tip count, precision, backend), and a request
whose shape matches an idle instance reuses its buffers instead of
paying a fresh build.

Three acquisition outcomes, cheapest first:

* ``hit`` — an idle instance is already bound to this tenant's exact
  analysis (same data and tree objects); nothing is reloaded.
* ``rebind`` — an idle instance of the right shape belonged to another
  tenant (or another analysis of the same tenant); only tip buffers and
  pattern weights are reloaded via
  :meth:`~repro.core.highlevel.TreeLikelihood.rebind`, from rows the
  data encoded once — the model parameters are identical by key
  construction, so eigensystem and category buffers stay warm.
* ``miss`` — nothing idle and the per-key cap not reached: build a new
  instance (outside the pool lock; builds are slow).

``acquire`` returns ``None`` when every instance of the key is busy and
the cap is reached — the scheduler re-queues the request and retries
after the next release, so saturation degrades to queueing rather than
unbounded instance growth.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis import locksan
from repro.config import SessionConfig
from repro.core.highlevel import TreeLikelihood
from repro.model.sitemodel import SiteModel
from repro.resil import install_fault_injector

__all__ = ["InstancePool", "PoolKey", "PooledInstance", "model_signature"]


def model_signature(model: Any, site_model: Optional[SiteModel]) -> str:
    """Content hash of everything the instance bakes in beyond tips.

    Rebinding reloads only tip buffers and pattern weights, so two
    analyses may share an instance only when the substitution model
    (rate matrix + frequencies) and the site model (category rates +
    weights) agree bitwise.  Hashed, not compared field-by-field, so the
    pool key stays small and hashable.
    """
    digest = hashlib.sha256()
    digest.update(model.name.encode())
    digest.update(model.q.tobytes())
    digest.update(model.frequencies.tobytes())
    if site_model is not None:
        digest.update(site_model.rates.tobytes())
        digest.update(site_model.weights.tobytes())
    return digest.hexdigest()[:16]


@dataclass(frozen=True)
class PoolKey:
    """The shape an instance was built for — the unit of warm reuse."""

    model_signature: str
    state_count: int
    n_patterns: int
    n_tips: int
    precision: str
    backend: str

    @classmethod
    def for_request(cls, config: SessionConfig, data: Any, tree: Any,
                    model: Any,
                    site_model: Optional[SiteModel]) -> "PoolKey":
        state_count = (
            data.alignment.n_states
            if hasattr(data, "alignment")
            else data.state_count
        )
        return cls(
            model_signature=model_signature(model, site_model),
            state_count=state_count,
            n_patterns=data.n_patterns,
            n_tips=tree.n_tips,
            precision=config.precision,
            backend=config.backend_name or "auto",
        )


class PooledInstance:
    """One built likelihood plus the binding it currently holds."""

    def __init__(self, key: PoolKey, label: str,
                 likelihood: Any) -> None:
        self.key = key
        self.label = label
        self.likelihood = likelihood
        #: The analysis currently loaded into the tip buffers.  Compared
        #: by object identity: a tenant resubmitting the same data/tree
        #: objects gets a pure warm hit with no reload at all.
        self.tenant: Optional[str] = None
        self.bound_data: Any = None
        self.bound_tree: Any = None

    def bound_to(self, tenant: str, data: Any, tree: Any) -> bool:
        return (
            self.tenant == tenant
            and self.bound_data is data
            and self.bound_tree is tree
        )


class InstancePool:
    """Thread-safe pool of warm instances, capped per key.

    The dispatcher acquires from its thread while request workers
    release from theirs; every idle-list and count mutation happens
    under the pool lock.  Builds and finalizes run outside it.
    """

    def __init__(self, config: SessionConfig, per_key: int = 2,
                 tracer: Any = None, metrics: Any = None) -> None:
        if per_key < 1:
            raise ValueError(f"per_key must be >= 1, got {per_key}")
        if config.is_multi_device:
            raise ValueError(
                "the serving pool builds single-device instances; "
                "give the server a single-device SessionConfig"
            )
        self.config = config
        self.per_key = per_key
        self._tracer = tracer
        self._metrics = metrics
        self._state = locksan.scoped_name("pool.state")
        self._lock = locksan.instrument(
            threading.Lock(), locksan.scoped_name("pool.lock")
        )
        self._idle: Dict[PoolKey, List[PooledInstance]] = {}
        self._total: Dict[PoolKey, int] = {}
        self._seq = 0
        self._closed = False

    # -- introspection -----------------------------------------------------

    def sizes(self) -> Dict[PoolKey, int]:
        """Instances per key (busy + idle)."""
        with self._lock:
            locksan.access(self._state, write=False)
            return dict(self._total)

    def idle_count(self) -> int:
        with self._lock:
            locksan.access(self._state, write=False)
            return sum(len(v) for v in self._idle.values())

    # -- acquisition -------------------------------------------------------

    def acquire(self, tenant: str, data: Any, tree: Any, model: Any,
                site_model: Optional[SiteModel]
                ) -> Optional[Tuple[PooledInstance, str]]:
        """An instance bound to the request, or ``None`` when saturated.

        Returns ``(instance, outcome)`` with outcome one of ``hit``,
        ``rebind``, ``miss``.
        """
        key = PoolKey.for_request(self.config, data, tree, model, site_model)
        build_label: Optional[str] = None
        pooled: Optional[PooledInstance] = None
        outcome = ""
        with self._lock:
            locksan.access(self._state)
            if self._closed:
                raise RuntimeError("instance pool has been shut down")
            idle = self._idle.get(key, [])
            for i, candidate in enumerate(idle):
                if candidate.bound_to(tenant, data, tree):
                    pooled = idle.pop(i)
                    outcome = "hit"
                    break
            if pooled is None and idle:
                pooled = idle.pop()
                outcome = "rebind"
            if pooled is None:
                if self._total.get(key, 0) >= self.per_key:
                    return None
                self._total[key] = self._total.get(key, 0) + 1
                build_label = f"serve-{self._seq}"
                self._seq += 1
        if build_label is not None:
            try:
                pooled = self._build(key, build_label, data, tree, model,
                                     site_model)
            except BaseException:
                with self._lock:
                    locksan.access(self._state)
                    self._total[key] -= 1
                raise
            outcome = "miss"
        assert pooled is not None
        if outcome == "rebind":
            pooled.likelihood.rebind(data, tree)
        pooled.tenant = tenant
        pooled.bound_data = data
        pooled.bound_tree = tree
        if self._metrics is not None:
            self._metrics.counter(f"serve.pool.{outcome}").inc()
        return pooled, outcome

    def _build(self, key: PoolKey, label: str, data: Any, tree: Any,
               model: Any,
               site_model: Optional[SiteModel]) -> PooledInstance:
        tracer = self._tracer
        if tracer is not None and tracer.enabled:
            with tracer.span(
                "serve.pool.build", kind="serve", label=label,
                backend=key.backend, patterns=key.n_patterns,
            ):
                return self._build_inner(key, label, data, tree, model,
                                          site_model)
        return self._build_inner(key, label, data, tree, model, site_model)

    def _build_inner(self, key: PoolKey, label: str, data: Any,
                     tree: Any, model: Any,
                     site_model: Optional[SiteModel]) -> PooledInstance:
        likelihood = TreeLikelihood(
            tree, data, model, site_model,
            **self.config.likelihood_kwargs(),
        )
        if self._metrics is not None:
            likelihood.instrument(self._tracer, self._metrics)
        if self.config.fault_plan is not None:
            likelihood = install_fault_injector(
                likelihood,
                self.config.fault_plan.injector_for(label),
                self.config.fault_level,
            )
        return PooledInstance(key, label, likelihood)

    # -- return paths ------------------------------------------------------

    def release(self, pooled: PooledInstance) -> None:
        """Return a healthy instance to the idle list."""
        finalize = False
        with self._lock:
            locksan.access(self._state)
            if self._closed:
                finalize = True
                self._total[pooled.key] -= 1
            else:
                self._idle.setdefault(pooled.key, []).append(pooled)
        if finalize:
            pooled.likelihood.finalize()

    def retire(self, pooled: PooledInstance) -> None:
        """Drop an instance whose device was lost; never re-pooled."""
        with self._lock:
            locksan.access(self._state)
            self._total[pooled.key] -= 1
        if self._metrics is not None:
            self._metrics.counter("serve.pool.retired").inc()
        try:
            pooled.likelihood.finalize()
        except Exception:
            pass  # the device is gone; teardown errors are expected

    def shutdown(self) -> None:
        """Finalize every idle instance; busy ones finalize on release."""
        with self._lock:
            locksan.access(self._state)
            if self._closed:
                return
            self._closed = True
            idle = [p for group in self._idle.values() for p in group]
            self._idle.clear()
            for pooled in idle:
                self._total[pooled.key] -= 1
        for pooled in idle:
            try:
                pooled.likelihood.finalize()
            except Exception:
                pass
