"""Performance-model-driven backend selection and load balancing.

The paper's conclusion lays out the plan this module implements: "We plan
to further develop BEAGLE so that computation can be dynamically load
balanced across multiple devices ... The library would also select the
best implementation for each data subset and hardware pair", noting that
"selecting the best performing implementation depends not only on the
hardware available but on problem size and type."

:func:`predict_throughput` scores a (backend, workload) pair with the
calibrated models of :mod:`repro.accel.perfmodel`;
:func:`best_backend` ranks the standard backend set for a workload; and
:func:`balance_proportions` computes the pattern split that equalises
predicted time across devices for
:class:`repro.partition.multi.MultiDeviceLikelihood`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.accel.device import DeviceSpec, ProcessorType, get_device
from repro.accel.opencl import OPENCL_ENQUEUE_OVERHEAD_S
from repro.accel.perfmodel import (
    XEON_E5_2680V4_SYSTEM,
    XEON_PHI_7210_SYSTEM,
    CPUSystemModel,
    CPUWorkload,
    accelerator_kernel_time,
    partials_kernel_cost,
)
from repro.core.highlevel import instance_config


@dataclass(frozen=True)
class BackendChoice:
    """One scored backend option."""

    name: str
    predicted_gflops: float


#: The standard backend set of the paper's evaluation.
STANDARD_BACKENDS: Tuple[str, ...] = (
    "cuda:NVIDIA Quadro P5000",
    "opencl-gpu:AMD Radeon R9 Nano",
    "opencl-gpu:AMD FirePro S9170",
    "opencl-x86:Intel Xeon E5-2680v4 x2",
    "cpp-threads:Intel Xeon E5-2680v4 x2",
    "cpp-threads:Intel Xeon Phi 7210",
)

_CPU_SYSTEMS: Dict[str, CPUSystemModel] = {
    "Intel Xeon E5-2680v4 x2": XEON_E5_2680V4_SYSTEM,
    "Intel Xeon Phi 7210": XEON_PHI_7210_SYSTEM,
}


def predict_throughput(
    backend: str,
    tips: int,
    patterns: int,
    states: int = 4,
    categories: int = 4,
    precision: str = "single",
) -> float:
    """Predicted partials GFLOPS of ``backend`` on one workload.

    Backend syntax: ``kind:device-name`` with kinds ``cuda``,
    ``opencl-gpu``, ``opencl-x86``, and ``cpp-threads``.
    """
    if ":" not in backend:
        raise ValueError(
            f"backend must be 'kind:device', got {backend!r}"
        )
    kind, _, device_name = backend.partition(":")
    if kind in ("cuda", "opencl-gpu"):
        device = get_device(device_name)
        if kind == "cuda" and device.vendor != "NVIDIA":
            raise ValueError(f"CUDA needs an NVIDIA device, not {device.name}")
        itemsize = 4 if precision == "single" else 8
        cost = partials_kernel_cost(patterns, states, categories, itemsize)
        launch = device.launch_overhead_s
        if kind == "opencl-gpu":
            launch += OPENCL_ENQUEUE_OVERHEAD_S
        t = accelerator_kernel_time(
            device, cost, precision,
            use_fma=device.vendor == "AMD",
            launch_overhead_s=launch,
        )
        return cost.flops / t / 1e9
    if kind in ("opencl-x86", "cpp-threads"):
        try:
            system = _CPU_SYSTEMS[get_device(device_name).name]
        except KeyError:
            raise ValueError(
                f"no CPU system model for {device_name!r}"
            ) from None
        workload = CPUWorkload(
            tips, patterns, state_count=states, category_count=categories,
            precision=precision,
        )
        design = "opencl-x86" if kind == "opencl-x86" else "thread-pool"
        return system.throughput(design, workload)
    raise ValueError(f"unknown backend kind {kind!r}")


def estimate_instance_memory(
    tips: int,
    patterns: int,
    states: int = 4,
    categories: int = 4,
    precision: str = "single",
    enable_upper_partials: bool = False,
) -> int:
    """Approximate device bytes one instance needs.

    Counts every partials buffer of the
    :class:`~repro.core.highlevel.TreeLikelihood` layout
    (:func:`~repro.core.highlevel.instance_config`: upper partials and
    store-point slots included), plain and gap-extended matrices, and
    per-pattern scratch.  Used to filter memory-starved devices during
    backend selection — the concern behind the paper conclusion's
    "greater memory efficiency".
    """
    config = instance_config(
        tips, patterns, states, categories,
        enable_upper_partials=enable_upper_partials,
    )
    itemsize = 4 if precision == "single" else 8
    partials = (
        config.total_buffer_count * categories * patterns * states * itemsize
    )
    matrices = (
        config.matrix_buffer_count * categories * states * (2 * states + 1)
        * itemsize
    )
    scratch = 4 * patterns * 8
    return int(partials + matrices + scratch)


def backend_fits_memory(
    backend: str,
    tips: int,
    patterns: int,
    states: int = 4,
    categories: int = 4,
    precision: str = "single",
) -> bool:
    """Whether ``backend``'s device can hold the instance's buffers.

    CPU-hosted backends are treated as unconstrained (host RAM).
    """
    kind, _, device_name = backend.partition(":")
    if kind in ("cpp-threads", "opencl-x86"):
        return True
    device = get_device(device_name)
    needed = estimate_instance_memory(
        tips, patterns, states, categories, precision
    )
    return needed <= device.memory_gb * 2**30


def rank_backends(
    tips: int,
    patterns: int,
    states: int = 4,
    categories: int = 4,
    precision: str = "single",
    backends: Sequence[str] = STANDARD_BACKENDS,
    check_memory: bool = True,
) -> List[BackendChoice]:
    """All backends scored for one workload, best first.

    ``check_memory`` drops devices whose memory cannot hold the instance
    (e.g. the 4 GB R9 Nano on very large double-precision problems).
    """
    scored = [
        BackendChoice(
            name=b,
            predicted_gflops=predict_throughput(
                b, tips, patterns, states, categories, precision
            ),
        )
        for b in backends
        if not check_memory
        or backend_fits_memory(b, tips, patterns, states, categories, precision)
    ]
    if not scored:
        raise ValueError(
            "no backend has enough device memory for this workload"
        )
    scored.sort(key=lambda c: -c.predicted_gflops)
    return scored


def best_backend(
    tips: int,
    patterns: int,
    states: int = 4,
    categories: int = 4,
    precision: str = "single",
    backends: Sequence[str] = STANDARD_BACKENDS,
) -> BackendChoice:
    """The predicted-fastest backend for one workload.

    Reproduces the paper's observation that the winner flips with problem
    size: at 20k nucleotide patterns the dual-Xeon C++-threads backend
    wins, while at 475k the R9 Nano GPU does (Fig. 4).
    """
    return rank_backends(
        tips, patterns, states, categories, precision, backends
    )[0]


def proportions_from_rates(
    rates: Sequence[float], min_share: float = 0.0
) -> List[float]:
    """Pattern-split proportions from per-device throughput estimates.

    The measured-feedback half of the rebalance loop: where
    :func:`balance_proportions` predicts shares from the calibrated perf
    model (the prior), this converts *observed* rates — patterns per
    second, EWMA-smoothed by :class:`repro.sched.RebalancingExecutor` —
    into the share vector that equalises time across devices.
    ``min_share`` floors every share (e.g. one pattern's worth) so a slow
    device is never starved to an empty chunk, then renormalises.
    """
    rates = np.asarray(rates, dtype=float)
    if len(rates) == 0:
        raise ValueError("need at least one rate")
    if np.any(rates <= 0) or not np.all(np.isfinite(rates)):
        raise ValueError("rates must be positive and finite")
    if not 0.0 <= min_share < 1.0 / len(rates):
        raise ValueError(
            f"min_share must be in [0, 1/{len(rates)}), got {min_share}"
        )
    shares = rates / rates.sum()
    low = shares < min_share
    if min_share > 0.0 and np.any(low):
        # Pin starved devices at exactly the floor and redistribute the
        # remaining mass across the rest, proportionally.
        shares[low] = min_share
        rest = shares[~low]
        shares[~low] = rest / rest.sum() * (1.0 - min_share * low.sum())
    return [float(s) for s in shares / shares.sum()]


def balance_proportions(
    tips: int,
    patterns: int,
    backends: Sequence[str],
    states: int = 4,
    categories: int = 4,
    precision: str = "single",
) -> List[float]:
    """Pattern-split proportions equalising predicted device time.

    Throughput is re-evaluated at each device's *assigned share* (not the
    full problem) with a fixed-point iteration, because device efficiency
    depends on launch size (the Fig. 4 occupancy ramp).
    """
    if not backends:
        raise ValueError("need at least one backend")
    shares = np.full(len(backends), 1.0 / len(backends))
    for _ in range(25):
        rates = np.array([
            predict_throughput(
                b, tips, max(1, int(patterns * s)), states, categories,
                precision,
            )
            for b, s in zip(backends, shares)
        ])
        new = rates / rates.sum()
        if np.allclose(new, shares, atol=1e-4):
            shares = new
            break
        shares = 0.5 * shares + 0.5 * new
    return [float(s) for s in shares / shares.sum()]
