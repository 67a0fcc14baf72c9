"""Validate kernel-build configurations against device resource limits.

The paper's portability story (sections VII-B, Tables IV and V) is that
one kernel template is *parameterised* per device — and that those
parameters have hard feasibility constraints:

* the GPU-variant work-group is ``pattern_block_size × state_count``
  work-items (one per state of each staged pattern) and must not exceed
  the device's work-group limit (256 on AMD GCN, 1024 on NVIDIA);
* local-memory staging needs ``(2·s² + 2·s·P) × itemsize`` bytes per
  work-group — the quantity that overflows AMD's 32 KB LDS for codon
  models until patterns-per-work-group is reduced (Table IV's
  accommodation);
* the x86 variant runs without local memory in 256-pattern work-groups
  (Table V), so requesting local staging on a device that exposes no
  local address space is a configuration bug;
* ``FP_FAST_FMA`` requires hardware FMA (Nehalem-era CPUs lack it).

:class:`KernelConfigValidator` checks a
:class:`~repro.accel.ir.KernelConfig` against one
:class:`~repro.accel.device.DeviceSpec`.  It owns no sizing rule of its
own: the work-group size is :attr:`KernelConfig.workgroup_size`, and
every number a diagnostic suggests comes from
:func:`~repro.accel.lower.fit_config_for_device` — the same fitting
``build_program`` applies, exposed as a static check so
misconfigurations surface before any build.
"""

from __future__ import annotations

from typing import List

from repro.accel.device import DeviceSpec, ProcessorType
from repro.accel.ir import KernelConfig
from repro.accel.lower import fit_config_for_device, variant_for
from repro.analysis.diagnostics import Diagnostic, Severity

_SOURCE = "kernel"


class KernelConfigValidator:
    """Static feasibility checks for one device."""

    def __init__(self, device: DeviceSpec) -> None:
        self.device = device

    def validate(self, config: KernelConfig) -> List[Diagnostic]:
        """All findings for ``config`` on this device (empty = feasible)."""
        out: List[Diagnostic] = []
        device = self.device
        name = device.name
        # Suggested numbers: local staging and its block only exist for
        # the gpu variant, so fit as one.
        fitted = fit_config_for_device(config, device, variant="gpu")

        wg = config.workgroup_size
        if wg > device.max_workgroup_size:
            if config.variant == "gpu":
                suggestion = (
                    "reduce pattern_block_size to "
                    f"{fitted.pattern_block_size} "
                    f"({fitted.workgroup_size} work-items)"
                )
            else:
                suggestion = (
                    f"reduce workgroup_patterns to "
                    f"{fitted.workgroup_patterns}"
                )
            out.append(Diagnostic(
                severity=Severity.ERROR,
                code="workgroup-too-large",
                message=(
                    f"work-group of {wg} work-items exceeds the "
                    f"{device.max_workgroup_size}-work-item limit of "
                    f"{name} ({config.variant} variant, "
                    f"{config.state_count} states)"
                ),
                source=_SOURCE,
                location=name,
                suggestion=suggestion,
            ))

        if config.use_local_memory:
            if device.local_mem_kb <= 0:
                out.append(Diagnostic(
                    severity=Severity.ERROR,
                    code="no-local-memory",
                    message=(
                        f"config requests local-memory staging but {name} "
                        "exposes no local address space (paper VII-B.2: "
                        "the x86 variant avoids explicit local memory)"
                    ),
                    source=_SOURCE,
                    location=name,
                    suggestion="set use_local_memory=False",
                ))
            else:
                budget = int(device.local_mem_kb * 1024)
                need = config.local_memory_bytes()
                if need > budget:
                    if fitted.use_local_memory:
                        suggestion = (
                            "reduce patterns-per-work-group to "
                            f"{fitted.pattern_block_size} "
                            f"({fitted.local_memory_bytes()} B fits)"
                        )
                    else:
                        suggestion = (
                            "disable local-memory staging "
                            "(use_local_memory=False); even one pattern "
                            "per work-group overflows"
                        )
                    out.append(Diagnostic(
                        severity=Severity.ERROR,
                        code="local-memory-overflow",
                        message=(
                            f"local-memory staging needs {need} B "
                            f"(2·{config.state_count}² + "
                            f"2·{config.state_count}·"
                            f"{config.pattern_block_size} reals × "
                            f"{config.itemsize} B) but {name} has "
                            f"{budget} B of local memory"
                        ),
                        source=_SOURCE,
                        location=name,
                        suggestion=suggestion,
                    ))

        if config.use_fma and not device.supports_fma:
            out.append(Diagnostic(
                severity=Severity.ERROR,
                code="fma-unsupported",
                message=(
                    f"FP_FAST_FMA requested but {name} has no hardware "
                    "fused multiply-add"
                ),
                source=_SOURCE,
                location=name,
                suggestion="set use_fma=False",
            ))

        runs = variant_for(device, config.variant)
        if config.variant != runs:
            if device.processor == ProcessorType.CPU:
                why = (
                    f"gpu kernel variant on CPU device {name}; Table V "
                    "shows the loop-over-states x86 variant with "
                    "256-pattern work-groups performs best there"
                )
            elif (config.variant == "x86"
                    and device.processor == ProcessorType.GPU):
                why = (
                    f"x86 kernel variant on GPU device {name}; the "
                    "one-work-item-per-state gpu variant exploits the "
                    "wide SIMT front end"
                )
            else:
                why = (
                    f"{config.variant} kernel variant on "
                    f"{device.processor.name} device {name}; "
                    f"build_program runs the {runs} variant there"
                )
            out.append(Diagnostic(
                severity=Severity.WARNING,
                code="variant-mismatch",
                message=why,
                source=_SOURCE,
                location=name,
                suggestion=f'set variant="{runs}"',
            ))

        return out

    def suggest(self, config: KernelConfig) -> KernelConfig:
        """The nearest feasible configuration for this device.

        Exactly what ``build_program`` builds without the tuning cache:
        the variant the device runs (:func:`repro.accel.lower
        .variant_for`), clamped by
        :func:`repro.accel.lower.fit_config_for_device` — FMA only where
        supported, local staging only where it exists and fits,
        patterns-per-work-group reduced until both the local-memory and
        work-group limits hold.
        """
        return fit_config_for_device(
            config, self.device,
            variant=variant_for(self.device, config.variant),
        )


def validate_kernel_config(
    config: KernelConfig, device: DeviceSpec
) -> List[Diagnostic]:
    """Module-level convenience for :meth:`KernelConfigValidator.validate`."""
    return KernelConfigValidator(device).validate(config)


def suggest_kernel_config(
    config: KernelConfig, device: DeviceSpec
) -> KernelConfig:
    """Module-level convenience for :meth:`KernelConfigValidator.suggest`."""
    return KernelConfigValidator(device).suggest(config)
