"""Plugin registry of BEAGLE implementations.

BEAGLE's "plugin system ... allows implementation-specific code (via
shared libraries) to be loaded at runtime when the required dependencies
are present" (paper section IV-C).  Here each plugin is a factory that
binds an implementation class to the resources it can serve; the
implementation manager iterates registered plugins in priority order when
satisfying an instance-creation request.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.accel.device import DeviceSpec, ProcessorType
from repro.core.flags import Flag
from repro.core.types import InstanceConfig
from repro.impl.base import BaseImplementation


@dataclass(frozen=True)
class ImplementationPlugin:
    """One loadable implementation.

    Attributes
    ----------
    name:
        Implementation name (matches the class's ``name``).
    flags:
        Capabilities provided.
    priority:
        Higher priority wins among implementations that satisfy the same
        request (mirrors BEAGLE's ordering: accelerators above threaded
        CPU above SSE above serial).
    device_predicate:
        Which devices this plugin can serve (None = host CPU only).
    factory:
        ``factory(config, precision, device) -> BaseImplementation``.
    """

    name: str
    flags: Flag
    priority: int
    factory: Callable[..., BaseImplementation]
    device_predicate: Optional[Callable[[DeviceSpec], bool]] = None

    def serves_device(self, device: Optional[DeviceSpec]) -> bool:
        if device is None:
            return self.device_predicate is None
        if self.device_predicate is None:
            return False
        return self.device_predicate(device)


_registry: List[ImplementationPlugin] = []


def register_plugin(plugin: ImplementationPlugin) -> None:
    if any(p.name == plugin.name for p in _registry):
        raise ValueError(f"plugin {plugin.name!r} already registered")
    _registry.append(plugin)
    _registry.sort(key=lambda p: -p.priority)


def unregister_plugin(name: str) -> None:
    global _registry
    before = len(_registry)
    _registry = [p for p in _registry if p.name != name]
    if len(_registry) == before:
        raise KeyError(f"no plugin named {name!r}")


def registered_plugins() -> List[ImplementationPlugin]:
    if not _registry:
        _register_builtins()
    return list(_registry)


def _register_builtins() -> None:
    from repro.impl.accelerated import AcceleratedImplementation
    from repro.impl.cpu_serial import CPUSerialImplementation
    from repro.impl.cpu_sse import (
        CPUSSEImplementation,
        CPUThreadPoolImplementation,
    )

    def cpu_factory(cls):
        def make(config: InstanceConfig, precision: str, device=None, **kw):
            return cls(config, precision, **kw)

        return make

    def accel_factory(framework: str):
        def make(config: InstanceConfig, precision: str, device=None, **kw):
            return AcceleratedImplementation(
                config, precision, framework=framework, device=device, **kw
            )

        return make

    register_plugin(
        ImplementationPlugin(
            name="CUDA",
            flags=(Flag.FRAMEWORK_CUDA | Flag.PROCESSOR_GPU
                   | Flag.PRECISION_SINGLE | Flag.PRECISION_DOUBLE
                   | Flag.SCALING_MANUAL | Flag.EIGEN_REAL),
            priority=50,
            factory=accel_factory("cuda"),
            device_predicate=lambda d: d.vendor == "NVIDIA"
            and d.processor == ProcessorType.GPU,
        )
    )
    register_plugin(
        ImplementationPlugin(
            name="OpenCL",
            flags=(Flag.FRAMEWORK_OPENCL
                   | Flag.PROCESSOR_GPU | Flag.PROCESSOR_CPU
                   | Flag.PRECISION_SINGLE | Flag.PRECISION_DOUBLE
                   | Flag.SCALING_MANUAL | Flag.EIGEN_REAL),
            priority=40,
            factory=accel_factory("opencl"),
            device_predicate=lambda d: True,
        )
    )
    register_plugin(
        ImplementationPlugin(
            name="CPU-threaded-pool",
            flags=CPUThreadPoolImplementation.flags,
            priority=30,
            factory=cpu_factory(CPUThreadPoolImplementation),
        )
    )
    register_plugin(
        ImplementationPlugin(
            name="CPU-SSE",
            flags=CPUSSEImplementation.flags,
            priority=20,
            factory=cpu_factory(CPUSSEImplementation),
        )
    )
    register_plugin(
        ImplementationPlugin(
            name="CPU-serial",
            flags=CPUSerialImplementation.flags,
            priority=10,
            factory=cpu_factory(CPUSerialImplementation),
        )
    )
