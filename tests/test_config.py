"""SessionConfig: validation, kwarg-shim parity, derived kwargs."""

from __future__ import annotations

import pytest

from repro.config import BACKEND_FLAGS, SessionConfig
from repro.resil import FaultEvent, FaultPlan, RetryPolicy
from repro.session import Session

ALL_BACKENDS = sorted(BACKEND_FLAGS) + ["auto"]


# -- declarative config vs legacy kwargs ----------------------------------


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_config_matches_legacy_kwargs_every_backend(
    backend, nucleotide_patterns, small_tree, hky_model, gamma_sites
):
    """config= and the kwarg shim must build bit-identical sessions."""
    name = None if backend == "auto" else backend
    with Session(
        nucleotide_patterns, small_tree, hky_model, gamma_sites,
        backend=name, deferred=True,
    ) as legacy:
        legacy_ll = legacy.log_likelihood()
        legacy_impl = legacy.resource.implementation_name
    cfg = SessionConfig(backend=name, deferred=True)
    with Session(
        nucleotide_patterns, small_tree, hky_model, gamma_sites,
        config=cfg,
    ) as declared:
        assert declared.config == cfg
        assert declared.resource.implementation_name == legacy_impl
        assert declared.log_likelihood() == legacy_ll


def test_from_kwargs_maps_fields_and_extra():
    cfg = SessionConfig.from_kwargs(
        backend="cpu-sse", deferred=True, precision="single",
        use_scaling="dynamic", strict_plans=True, scaling_mode="manual",
    )
    assert cfg.backend == "cpu-sse"
    assert cfg.deferred is True
    assert cfg.precision == "single"
    assert cfg.use_scaling == "dynamic"
    assert cfg.verification is True
    # Unknown keywords land in the extra escape hatch, not on fields.
    assert cfg.extra == {"scaling_mode": "manual"}
    kwargs = cfg.likelihood_kwargs()
    assert kwargs["precision"] == "single"
    assert kwargs["strict_plans"] is True
    assert kwargs["scaling_mode"] == "manual"


def test_config_and_legacy_session_expose_same_config(
    nucleotide_patterns, small_tree, hky_model, gamma_sites
):
    with Session(
        nucleotide_patterns, small_tree, hky_model, gamma_sites,
        backend="cpu-serial", deferred=True,
    ) as s:
        assert s.config == SessionConfig(backend="cpu-serial", deferred=True)


def test_mixing_config_and_kwargs_is_rejected(
    nucleotide_patterns, small_tree, hky_model, gamma_sites
):
    with pytest.raises(ValueError, match="either config="):
        Session(
            nucleotide_patterns, small_tree, hky_model, gamma_sites,
            config=SessionConfig(), backend="cpu-serial",
        )


# -- validation -----------------------------------------------------------


def test_validation_errors():
    with pytest.raises(ValueError, match="unknown backend"):
        SessionConfig(backend="tpu")
    with pytest.raises(ValueError, match="precision"):
        SessionConfig(precision="half")
    with pytest.raises(ValueError, match="use_scaling"):
        SessionConfig(use_scaling="sometimes")
    with pytest.raises(ValueError, match="threaded backends"):
        SessionConfig(backend="cpu-serial", thread_count=4)
    with pytest.raises(ValueError, match="requires a multi-device"):
        SessionConfig(proportions=(0.5, 0.5))
    with pytest.raises(ValueError, match="one proportion per device"):
        SessionConfig(
            devices={"dev0": "cuda", "dev1": "cuda"}, proportions=(1.0,)
        )
    with pytest.raises(ValueError, match="fault_level"):
        SessionConfig(fault_level="everywhere")


def test_fault_plan_allowed_without_devices():
    """The serving layer installs fault plans on single-device pools."""
    cfg = SessionConfig(
        backend="cpu-serial",
        retry_policy=RetryPolicy(max_attempts=2),
        fault_plan=FaultPlan([FaultEvent("device-loss", "serve-0", at=1)]),
        fault_level="wrapper",
    )
    assert not cfg.is_multi_device
    assert cfg.fault_plan is not None


def test_configs_compare_and_replace_by_value():
    a = SessionConfig(backend="cuda", deferred=True)
    b = SessionConfig(backend="cuda", deferred=True)
    assert a == b
    c = a.replace(deferred=False)
    assert c != a and c.backend == "cuda"
    with pytest.raises(ValueError, match="unknown backend"):
        a.replace(backend="abacus")


def test_multi_device_roundtrip():
    cfg = SessionConfig.from_multi_device_kwargs(
        device_requests={"dev0": "cuda", "dev1": "opencl-gpu"},
        proportions=[0.7, 0.3], rebalance=False,
    )
    assert cfg.is_multi_device
    assert cfg.proportions == (0.7, 0.3)
    assert set(cfg.device_request_kwargs()) == {"dev0", "dev1"}
    assert cfg.rebalance is False
    with pytest.raises(ValueError, match="no single-instance kwargs"):
        cfg.likelihood_kwargs()
