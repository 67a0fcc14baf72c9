"""Persistent per-device kernel autotuner and on-disk tuning cache.

The paper hand-tunes kernel configurations per device (the work-group
sweeps of Tables IV/V) and ships the winners as constants.  This module
closes that loop programmatically:

* :class:`AutoTuner` enumerates the feasible configuration space for one
  :class:`~repro.accel.device.DeviceSpec` (every candidate passes through
  the shared :func:`~repro.accel.lower.fit_config_for_device` clamp and
  is pruned by the static :class:`~repro.analysis.kernelcheck
  .KernelConfigValidator`), scores candidates with the roofline
  performance model, and *measures* the top predictions with real
  simulated launches through the framework interface — the same launch
  path production code uses;
* :class:`TuningCache` persists each winner in a JSON file keyed on
  (device fingerprint, state count, precision, variant), written
  atomically and guarded by a lock;
* :func:`apply_tuned_config` is the automatic pickup:
  ``HardwareInterface.build_program`` calls it on every build (unless
  ``autotune=False``), replacing the fitted default with a valid cached
  winner and falling back to the fitted default on *any* cache problem.

Cache invalidation is structural, not temporal.  An entry is rejected
(and the key re-tuned on the next ``pybeagle-tune`` run) when:

* the stored file format tag is not :data:`CACHE_FORMAT`;
* the stored device fingerprint does not match the present device (any
  calibration field changed — a different device, a driver/spec update);
* the stored config no longer constructs a valid
  :class:`~repro.accel.ir.KernelConfig`, no longer matches the
  requested (states, precision, variant), or fails the static validator
  against the device;
* the stored kernel-IR signature differs from the signature of the
  program the config lowers to today (the kernel structure changed since
  tuning).

The default cache lives at ``~/.cache/pybeagle/tuning.json``; the
``PYBEAGLE_TUNE_CACHE`` environment variable overrides the path (tests
point it at a temp dir).  Tuning activity is observable via ``tune.*``
spans and metrics, and the ``pybeagle-tune`` CLI
(:func:`repro.cli.tune_main`) drives sweeps over the device catalog.
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.accel.device import DeviceSpec, ProcessorType
from repro.accel.ir import IRError, KernelConfig, build_program_ir
from repro.accel.lower import fit_config_for_device, variant_for
from repro.accel.perfmodel import (
    accelerator_kernel_time,
    partials_kernel_cost,
)
from repro.obs import NULL_TRACER

#: Bump when the cache layout changes; old files are discarded wholesale.
CACHE_FORMAT = "pybeagle-tuning-v1"

#: Environment variable overriding the cache file location.
CACHE_ENV_VAR = "PYBEAGLE_TUNE_CACHE"

#: KernelConfig fields persisted per entry (constructor-complete).
_CONFIG_FIELDS = (
    "state_count", "precision", "variant", "use_fma",
    "pattern_block_size", "workgroup_patterns", "category_count",
    "use_local_memory",
)

#: Pattern counts the tuner scores and measures over: the paper's small /
#: medium / large benchmark regimes, deliberately not work-group
#: multiples so padding costs are visible.
DEFAULT_PATTERN_COUNTS = (209, 1789, 9937)

#: GPU pattern-block candidates (work-group = block x states).
_GPU_BLOCKS = (1, 2, 4, 8, 16, 32, 64)

#: x86/cpu patterns-per-work-group candidates (the Table V sweep).
_WORKGROUP_PATTERNS = (32, 64, 128, 256, 512, 1024, 2048, 4096, 8192)


def default_cache_path() -> Path:
    """Resolve the cache path (env override, else the user cache dir)."""
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "pybeagle" / "tuning.json"


def device_fingerprint(device: DeviceSpec) -> str:
    """Stable hash of every :class:`DeviceSpec` field.

    Any change to the device description or its performance-model
    calibration produces a new fingerprint, invalidating tuned entries
    for the old description.
    """
    import hashlib
    from dataclasses import fields as dc_fields

    payload = {
        f.name: (
            getattr(device, f.name).value
            if isinstance(getattr(device, f.name), ProcessorType)
            else getattr(device, f.name)
        )
        for f in dc_fields(device)
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()
    return digest[:16]


def tuning_key(device: DeviceSpec, config: KernelConfig) -> str:
    """Cache key: (device fingerprint, states, precision, variant)."""
    return (
        f"{device_fingerprint(device)}|s{config.state_count}"
        f"|{config.precision}|{config.variant}"
    )


def config_to_dict(config: KernelConfig) -> Dict[str, object]:
    return {name: getattr(config, name) for name in _CONFIG_FIELDS}


def _ir_signature(config: KernelConfig) -> str:
    return build_program_ir(config).signature()


class TuningCache:
    """On-disk JSON store of tuned kernel configs, keyed per device.

    Thread-safe: all entry access happens under one re-entrant lock, and
    writes go through a temp file + atomic rename so a concurrent reader
    never sees a torn file.  ``stats`` counts hits / misses / rejects /
    stores for the lifetime of this cache object — the automatic-pickup
    test asserts on them.
    """

    def __init__(self, path: Optional[Path] = None) -> None:
        self.path = Path(path) if path is not None else default_cache_path()
        self._lock = threading.RLock()
        self._entries: Optional[Dict[str, Dict[str, object]]] = None
        self._stats = {"hits": 0, "misses": 0, "rejects": 0, "stores": 0}

    @property
    def stats(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._stats)

    def _load(self) -> Dict[str, Dict[str, object]]:
        """Read entries from disk once (re-entrant under ``_lock``)."""
        with self._lock:
            if self._entries is not None:
                return self._entries
            entries: Dict[str, Dict[str, object]] = {}
            try:
                raw = json.loads(self.path.read_text())
                if (
                    isinstance(raw, dict)
                    and raw.get("format") == CACHE_FORMAT
                    and isinstance(raw.get("entries"), dict)
                ):
                    entries = raw["entries"]
                elif raw:
                    # Wrong format tag: discard wholesale, one reject.
                    self._stats["rejects"] += 1
            except FileNotFoundError:
                pass
            except (OSError, json.JSONDecodeError, UnicodeDecodeError):
                # Corrupt file: start empty; the next store rewrites it.
                self._stats["rejects"] += 1
            self._entries = entries
            return entries

    def _write(self) -> None:
        """Atomically persist entries (re-entrant under ``_lock``)."""
        with self._lock:
            payload = {
                "format": CACHE_FORMAT, "entries": self._entries or {},
            }
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.path.with_name(self.path.name + ".tmp")
            tmp.write_text(json.dumps(payload, indent=2, sort_keys=True))
            os.replace(tmp, self.path)

    def lookup(
        self, device: DeviceSpec, config: KernelConfig
    ) -> Optional[KernelConfig]:
        """Return the tuned config for ``config``'s key, if still valid.

        Every stale/corrupt entry is deleted on sight (and persisted as
        deleted) so one bad entry cannot poison later lookups; the next
        tune run re-creates it.
        """
        key = tuning_key(device, config)
        with self._lock:
            entries = self._load()
            entry = entries.get(key)
            if entry is None:
                self._stats["misses"] += 1
                return None
            tuned = self._validate_entry(entry, device, config)
            if tuned is None:
                self._stats["rejects"] += 1
                del entries[key]
                self._write()
                return None
            self._stats["hits"] += 1
            return tuned

    def _validate_entry(
        self,
        entry: Dict[str, object],
        device: DeviceSpec,
        config: KernelConfig,
    ) -> Optional[KernelConfig]:
        """Reconstruct and re-validate one entry; ``None`` if stale."""
        if not isinstance(entry, dict):
            return None
        if entry.get("fingerprint") != device_fingerprint(device):
            return None
        raw = entry.get("config")
        if not isinstance(raw, dict):
            return None
        try:
            tuned = KernelConfig(
                **{name: raw[name] for name in _CONFIG_FIELDS}
            )
        except (KeyError, TypeError, ValueError):
            return None
        if (
            tuned.state_count != config.state_count
            or tuned.precision != config.precision
            or tuned.variant != config.variant
        ):
            return None
        try:
            if entry.get("ir_signature") != _ir_signature(tuned):
                return None
        except ValueError:
            return None
        from repro.analysis.kernelcheck import validate_kernel_config

        if any(
            d.severity.name == "ERROR"
            for d in validate_kernel_config(tuned, device)
        ):
            return None
        return tuned

    def store(
        self,
        device: DeviceSpec,
        config: KernelConfig,
        record: Optional[Dict[str, object]] = None,
    ) -> str:
        """Persist ``config`` as the winner for its key; returns the key."""
        key = tuning_key(device, config)
        entry: Dict[str, object] = {
            "fingerprint": device_fingerprint(device),
            "device": device.name,
            "config": config_to_dict(config),
            "ir_signature": _ir_signature(config),
        }
        if record:
            entry.update(record)
        with self._lock:
            entries = self._load()
            entries[key] = entry
            self._stats["stores"] += 1
            self._write()
        return key

    def entry_count(self) -> int:
        with self._lock:
            return len(self._load())


# -- the process-wide active cache -------------------------------------------

_cache_guard = threading.Lock()
_active_cache: Optional[TuningCache] = None


def get_cache() -> TuningCache:
    """The process-wide tuning cache for the current cache path.

    Re-resolves the path on every call so tests (and users) can redirect
    the cache mid-process via ``PYBEAGLE_TUNE_CACHE``; the cache object
    is swapped when the path changes.
    """
    global _active_cache
    path = default_cache_path()
    with _cache_guard:
        if _active_cache is None or _active_cache.path != path:
            _active_cache = TuningCache(path)
        return _active_cache


def apply_tuned_config(
    fitted: KernelConfig, device: DeviceSpec
) -> KernelConfig:
    """Swap a fitted default for the cached tuned winner, if one is valid.

    This is the automatic pickup point
    (``HardwareInterface.build_program``): any cache problem — missing
    file, corrupt JSON, stale entry — falls back to the fitted default,
    so tuning can only ever be additive.
    """
    try:
        tuned = get_cache().lookup(device, fitted)
    except Exception:
        return fitted
    return tuned if tuned is not None else fitted


# ---------------------------------------------------------------------------
# The autotuner
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CandidateScore:
    """One candidate's predicted and (optionally) measured time."""

    config: KernelConfig
    predicted_s: float
    measured_s: Optional[float] = None


@dataclass(frozen=True)
class TuneResult:
    """Outcome of tuning one (device, states, precision, variant) key."""

    device: str
    key: str
    baseline: KernelConfig
    best: KernelConfig
    baseline_measured_s: float
    best_measured_s: float
    n_candidates: int
    n_measured: int
    candidates: Tuple[CandidateScore, ...] = ()

    @property
    def gain(self) -> float:
        """Measured speedup of the winner over the fitted default (>= 1:
        the baseline is always in the measured set)."""
        if self.best_measured_s <= 0:
            return 1.0
        return self.baseline_measured_s / self.best_measured_s

    def to_dict(self) -> Dict[str, object]:
        return {
            "device": self.device,
            "key": self.key,
            "baseline": config_to_dict(self.baseline),
            "best": config_to_dict(self.best),
            "baseline_measured_s": self.baseline_measured_s,
            "best_measured_s": self.best_measured_s,
            "gain": self.gain,
            "n_candidates": self.n_candidates,
            "n_measured": self.n_measured,
        }


class AutoTuner:
    """Enumerate, predict, measure, and persist kernel configs per device.

    ``framework`` selects the launch path used for measurement:
    ``"cuda"``, ``"opencl"``, or ``"auto"`` (CUDA for NVIDIA GPUs,
    OpenCL otherwise — mirroring how the paper assigns devices to
    frameworks).  Measurements run real kernel launches on zeroed
    buffers through the same ``HardwareInterface.launch`` choke point as
    production code, built with ``autotune=False`` so tuning never reads
    the cache it is about to write.
    """

    def __init__(
        self,
        device: DeviceSpec,
        framework: str = "auto",
        pattern_counts: Sequence[int] = DEFAULT_PATTERN_COUNTS,
        cache: Optional[TuningCache] = None,
        tracer=None,
        metrics=None,
        top_k: int = 4,
        reps: int = 3,
    ) -> None:
        if framework not in ("auto", "cuda", "opencl"):
            raise ValueError(f"unknown framework {framework!r}")
        if framework == "auto":
            framework = (
                "cuda"
                if (
                    device.vendor == "NVIDIA"
                    and device.processor == ProcessorType.GPU
                )
                else "opencl"
            )
        self.device = device
        self.framework = framework
        self.pattern_counts = tuple(pattern_counts)
        self.cache = cache
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        self.top_k = top_k
        self.reps = reps

    # -- plumbing -----------------------------------------------------------

    def _interface(self):
        if self.framework == "cuda":
            from repro.accel.cuda import CudaInterface

            return CudaInterface(self.device)
        from repro.accel.opencl import OpenCLInterface

        return OpenCLInterface(self.device)

    def _count(self, name: str, value: float = 1) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(value)

    # -- candidate enumeration ----------------------------------------------

    def candidates(self, baseline: KernelConfig) -> List[KernelConfig]:
        """The feasible config space around ``baseline``'s tuning key.

        Every raw candidate is normalised through
        :func:`fit_config_for_device` (so measurement rebuilds produce
        the identical config) and pruned by the static validator and the
        IR dataflow verifier; the baseline is always first.
        """
        from repro.analysis.irverify import verify_program_ir
        from repro.analysis.kernelcheck import validate_kernel_config

        fma_options = (
            (False, True) if self.device.supports_fma else (False,)
        )
        gpu = baseline.variant == "gpu"
        knob = "pattern_block_size" if gpu else "workgroup_patterns"
        raw: List[KernelConfig] = []
        for size in _GPU_BLOCKS if gpu else _WORKGROUP_PATTERNS:
            for fma in fma_options:
                cand = dataclasses.replace(
                    baseline, use_fma=fma, use_local_memory=gpu,
                    **{knob: size},
                )
                if cand.workgroup_size <= self.device.max_workgroup_size:
                    raw.append(cand)
        seen = set()
        result = [baseline]
        seen.add(config_key(baseline))
        for cand in raw:
            fitted = fit_config_for_device(
                cand, self.device, variant=baseline.variant
            )
            key = config_key(fitted)
            if key in seen:
                continue
            if any(
                d.severity.name == "ERROR"
                for d in validate_kernel_config(fitted, self.device)
            ):
                continue
            try:
                program = build_program_ir(fitted)
            except IRError:
                self._count("tune.candidates_ir_rejected")
                continue
            if any(
                d.severity.name == "ERROR"
                for d in verify_program_ir(program)
            ):
                self._count("tune.candidates_ir_rejected")
                continue
            seen.add(key)
            result.append(fitted)
        return result

    # -- scoring ------------------------------------------------------------

    def predict(self, config: KernelConfig) -> float:
        """Model-predicted time for the tuning workload (sum over sizes)."""
        block = config.patterns_per_workgroup
        extra = 0.0
        if self.framework == "opencl":
            from repro.accel.opencl import OPENCL_ENQUEUE_OVERHEAD_S

            extra = OPENCL_ENQUEUE_OVERHEAD_S
        total = 0.0
        for patterns in self.pattern_counts:
            cost = partials_kernel_cost(
                patterns,
                config.state_count,
                config.category_count,
                config.itemsize,
                workgroup_patterns=block,
            )
            total += accelerator_kernel_time(
                self.device,
                cost,
                config.precision,
                use_fma=config.use_fma,
                launch_overhead_s=self.device.launch_overhead_s + extra,
            )
        return total

    def measure(self, config: KernelConfig) -> Tuple[KernelConfig, float]:
        """Measured time of one candidate via real simulated launches.

        Mirrors the production launch path exactly: the geometry and
        cost are computed the way
        :class:`~repro.impl.accelerated.AcceleratedImplementation` does
        (``workgroup_patterns=block`` for both variants), and the launch
        goes through ``HardwareInterface.launch``.  Returns the config
        the interface actually built (the fitted fixed point) and the
        per-rep simulated seconds.
        """
        iface = self._interface()
        try:
            iface.build_program(config, autotune=False)
            built = iface.kernel_config
            states = built.state_count
            cats = built.category_count
            dtype = np.dtype(built.real_type)
            launches = []
            for patterns in self.pattern_counts:
                geometry = built.launch_geometry(patterns)
                shape = (cats, states, geometry.global_size[0])
                buffers = [
                    iface.allocate(shape, dtype),
                    iface.allocate(shape, dtype),
                    iface.allocate((cats, states, states), dtype),
                    iface.allocate(shape, dtype),
                    iface.allocate((cats, states, states), dtype),
                ]
                cost = partials_kernel_cost(
                    patterns, states, cats, built.itemsize,
                    workgroup_patterns=built.patterns_per_workgroup,
                )
                launches.append((buffers, geometry, cost))
            iface.clock.reset()
            for _ in range(self.reps):
                for buffers, geometry, cost in launches:
                    iface.launch(
                        "kernelPartialsPartialsNoScale",
                        buffers, geometry, cost,
                    )
            elapsed = iface.clock.elapsed / self.reps
        finally:
            iface.finalize()
        self._count("tune.measurements")
        return built, elapsed

    # -- the tuning loop ----------------------------------------------------

    def tune(
        self,
        state_count: int,
        precision: str = "double",
        variant: Optional[str] = None,
        use_fma: bool = True,
        category_count: int = 4,
        store: bool = True,
    ) -> TuneResult:
        """Tune one (device, states, precision, variant) key end to end.

        Enumerates candidates, ranks them with the perf model, measures
        the ``top_k`` predictions *plus the fitted baseline*, picks the
        measured winner (baseline wins ties, so the gain is always
        >= 1), and persists it to the tuning cache.
        """
        requested = KernelConfig(
            state_count=state_count,
            precision=precision,
            variant=variant if variant is not None else "gpu",
            use_fma=use_fma,
            category_count=category_count,
        )
        baseline = fit_config_for_device(
            requested, self.device,
            variant=variant_for(self.device, requested.variant),
        )
        key = tuning_key(self.device, baseline)
        with self.tracer.span(
            "tune.search",
            kind="tune",
            device=self.device.name,
            key=key,
            framework=self.framework,
        ) as span:
            pool = self.candidates(baseline)
            scored = sorted(
                (CandidateScore(c, self.predict(c)) for c in pool),
                key=lambda s: s.predicted_s,
            )
            self._count("tune.candidates", len(scored))
            to_measure = [baseline] + [
                s.config
                for s in scored[: self.top_k]
                if config_key(s.config) != config_key(baseline)
            ]
            predicted = {
                config_key(s.config): s.predicted_s for s in scored
            }
            measured: List[CandidateScore] = []
            for cand in to_measure:
                with self.tracer.span(
                    "tune.measure",
                    kind="tune",
                    config=str(config_to_dict(cand)),
                ):
                    built, elapsed = self.measure(cand)
                measured.append(CandidateScore(
                    built,
                    predicted.get(config_key(built), float("nan")),
                    elapsed,
                ))
            best = min(measured, key=lambda s: s.measured_s)
            result = TuneResult(
                device=self.device.name,
                key=key,
                baseline=baseline,
                best=best.config,
                baseline_measured_s=measured[0].measured_s,
                best_measured_s=best.measured_s,
                n_candidates=len(scored),
                n_measured=len(measured),
                candidates=tuple(measured),
            )
            if self.tracer.enabled:
                span.attrs["gain"] = result.gain
                span.attrs["n_candidates"] = result.n_candidates
        self._count("tune.runs")
        if self.metrics is not None:
            self.metrics.gauge("tune.gain").set(result.gain)
        if store:
            cache = self.cache if self.cache is not None else get_cache()
            cache.store(self.device, best.config, record={
                "gain": result.gain,
                "baseline_measured_s": result.baseline_measured_s,
                "best_measured_s": result.best_measured_s,
            })
        return result


def config_key(config: KernelConfig) -> Tuple[object, ...]:
    """Hashable identity of a config (all constructor fields)."""
    return tuple(getattr(config, name) for name in _CONFIG_FIELDS)
