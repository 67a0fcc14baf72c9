"""Hardware implementations of the BEAGLE compute model."""

from repro.impl.accelerated import AcceleratedImplementation
from repro.impl.base import BaseImplementation
from repro.impl.cpu_serial import CPUSerialImplementation
from repro.impl.cpu_sse import (
    CPUSSEImplementation,
    CPUThreadPoolImplementation,
)
from repro.impl.registry import (
    ImplementationPlugin,
    register_plugin,
    registered_plugins,
    unregister_plugin,
)

__all__ = [
    "BaseImplementation",
    "CPUSerialImplementation",
    "CPUSSEImplementation",
    "CPUThreadPoolImplementation",
    "AcceleratedImplementation",
    "ImplementationPlugin",
    "register_plugin",
    "registered_plugins",
    "unregister_plugin",
]
