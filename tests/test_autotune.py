"""The persistent autotuner: cache validity, automatic pickup, CLI.

The tuning cache's invalidation rules are structural (format tag,
device fingerprint, config validity, kernel-IR signature), so every
rule gets a corruption test here; the pickup tests assert that
``build_program`` transparently applies a tuned winner on the next
build — the acceptance criterion of the autotuner ISSUE.
"""

import json

import pytest

from repro.accel.autotune import (
    CACHE_FORMAT,
    AutoTuner,
    TuningCache,
    apply_tuned_config,
    config_to_dict,
    device_fingerprint,
    get_cache,
    tuning_key,
)
from repro.accel.cuda import CudaInterface
from repro.accel.device import (
    CORE_I7_930,
    QUADRO_P5000,
    XEON_E5_2680V4_X2,
)
from repro.accel.ir import KernelConfig
from repro.accel.lower import fit_config_for_device
from repro.accel.opencl import OpenCLInterface
from repro.obs import MetricsRegistry


def _tuned_pair(device=QUADRO_P5000, states=4):
    """A fitted baseline and a distinct-but-valid tuned sibling."""
    baseline = fit_config_for_device(
        KernelConfig(states, precision="double"), device
    )
    tuned = fit_config_for_device(
        KernelConfig(
            states, precision="double",
            pattern_block_size=max(1, baseline.pattern_block_size // 2),
        ),
        device,
    )
    return baseline, tuned


class TestTuningCache:
    def test_round_trip(self, tmp_path):
        cache = TuningCache(tmp_path / "t.json")
        baseline, tuned = _tuned_pair()
        cache.store(QUADRO_P5000, tuned, record={"gain": 1.25})
        got = cache.lookup(QUADRO_P5000, baseline)
        assert got == tuned
        assert cache.stats["hits"] == 1
        # A fresh cache object re-reads the persisted file.
        fresh = TuningCache(tmp_path / "t.json")
        assert fresh.lookup(QUADRO_P5000, baseline) == tuned

    def test_miss_on_unknown_key(self, tmp_path):
        cache = TuningCache(tmp_path / "t.json")
        baseline, _ = _tuned_pair()
        assert cache.lookup(QUADRO_P5000, baseline) is None
        assert cache.stats["misses"] == 1

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        cache = TuningCache(tmp_path / "t.json")
        baseline, tuned = _tuned_pair()
        cache.store(QUADRO_P5000, tuned)
        # Same key string, different device description: rewrite the
        # entry under a recalibrated copy of the device.
        recalibrated = QUADRO_P5000.with_compute_units(
            QUADRO_P5000.compute_units // 2
        )
        assert device_fingerprint(recalibrated) \
            != device_fingerprint(QUADRO_P5000)
        raw = json.loads((tmp_path / "t.json").read_text())
        key = tuning_key(recalibrated, baseline)
        old_key = tuning_key(QUADRO_P5000, baseline)
        raw["entries"][key] = raw["entries"].pop(old_key)
        (tmp_path / "t.json").write_text(json.dumps(raw))
        fresh = TuningCache(tmp_path / "t.json")
        assert fresh.lookup(recalibrated, fit_config_for_device(
            KernelConfig(4, precision="double"), recalibrated
        )) is None
        assert fresh.stats["rejects"] == 1

    def test_corrupt_file_rejected_and_recoverable(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text("{ this is not json")
        cache = TuningCache(path)
        baseline, tuned = _tuned_pair()
        assert cache.lookup(QUADRO_P5000, baseline) is None
        assert cache.stats["rejects"] == 1
        # The next store rewrites a clean file.
        cache.store(QUADRO_P5000, tuned)
        assert TuningCache(path).lookup(QUADRO_P5000, baseline) == tuned

    def test_wrong_format_tag_discarded_wholesale(self, tmp_path):
        path = tmp_path / "t.json"
        baseline, tuned = _tuned_pair()
        cache = TuningCache(path)
        cache.store(QUADRO_P5000, tuned)
        raw = json.loads(path.read_text())
        raw["format"] = "pybeagle-tuning-v0"
        path.write_text(json.dumps(raw))
        fresh = TuningCache(path)
        assert fresh.lookup(QUADRO_P5000, baseline) is None
        assert fresh.entry_count() == 0

    def test_stale_ir_signature_deleted_on_sight(self, tmp_path):
        path = tmp_path / "t.json"
        baseline, tuned = _tuned_pair()
        cache = TuningCache(path)
        cache.store(QUADRO_P5000, tuned)
        raw = json.loads(path.read_text())
        key = tuning_key(QUADRO_P5000, baseline)
        raw["entries"][key]["ir_signature"] = "0" * 16
        path.write_text(json.dumps(raw))
        fresh = TuningCache(path)
        assert fresh.lookup(QUADRO_P5000, baseline) is None
        assert fresh.stats["rejects"] == 1
        # Deleted on disk too: a third reader sees a clean miss.
        third = TuningCache(path)
        assert third.lookup(QUADRO_P5000, baseline) is None
        assert third.stats["misses"] == 1
        assert third.stats["rejects"] == 0

    def test_infeasible_stored_config_rejected(self, tmp_path):
        path = tmp_path / "t.json"
        baseline, tuned = _tuned_pair()
        cache = TuningCache(path)
        cache.store(QUADRO_P5000, tuned)
        raw = json.loads(path.read_text())
        key = tuning_key(QUADRO_P5000, baseline)
        # A work-group far beyond the device cap fails the validator.
        raw["entries"][key]["config"]["pattern_block_size"] = 4096
        path.write_text(json.dumps(raw))
        assert TuningCache(path).lookup(QUADRO_P5000, baseline) is None

    def test_env_var_redirects_process_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv(
            "PYBEAGLE_TUNE_CACHE", str(tmp_path / "redirected.json")
        )
        assert get_cache().path == tmp_path / "redirected.json"


class TestApplyTunedConfig:
    def test_returns_fitted_when_cache_empty(self):
        baseline, _ = _tuned_pair()
        assert apply_tuned_config(baseline, QUADRO_P5000) == baseline

    def test_returns_tuned_when_cached(self):
        baseline, tuned = _tuned_pair()
        get_cache().store(QUADRO_P5000, tuned)
        assert apply_tuned_config(baseline, QUADRO_P5000) == tuned


class TestAutomaticPickup:
    def test_build_program_applies_cached_winner(self):
        baseline, tuned = _tuned_pair()
        assert tuned != baseline
        get_cache().store(QUADRO_P5000, tuned)
        iface = CudaInterface(QUADRO_P5000)
        try:
            iface.build_program(KernelConfig(4, precision="double"))
            assert iface.kernel_config == tuned
        finally:
            iface.finalize()
        assert get_cache().stats["hits"] == 1

    def test_autotune_false_skips_the_cache(self):
        baseline, tuned = _tuned_pair()
        get_cache().store(QUADRO_P5000, tuned)
        iface = CudaInterface(QUADRO_P5000)
        try:
            iface.build_program(
                KernelConfig(4, precision="double"), autotune=False
            )
            assert iface.kernel_config == baseline
        finally:
            iface.finalize()
        assert get_cache().stats["hits"] == 0

    def test_tune_then_rebuild_round_trip(self):
        # The full loop: tune, persist, and a later production build
        # picks the winner up without being told.
        tuner = AutoTuner(QUADRO_P5000, top_k=2, reps=1)
        result = tuner.tune(4, precision="double")
        iface = CudaInterface(QUADRO_P5000)
        try:
            iface.build_program(KernelConfig(4, precision="double"))
            assert iface.kernel_config == result.best
        finally:
            iface.finalize()


class TestAutoTuner:
    def test_gain_is_never_below_one(self):
        for device in (QUADRO_P5000, XEON_E5_2680V4_X2, CORE_I7_930):
            result = AutoTuner(device, top_k=2, reps=1).tune(
                4, precision="double", store=False
            )
            assert result.gain >= 1.0

    def test_candidates_are_feasible_fixed_points(self):
        tuner = AutoTuner(XEON_E5_2680V4_X2)
        baseline = fit_config_for_device(
            KernelConfig(4, precision="double"),
            XEON_E5_2680V4_X2, variant="x86",
        )
        pool = tuner.candidates(baseline)
        assert pool[0] == baseline
        assert len(pool) > 1
        for cand in pool:
            refit = fit_config_for_device(
                cand, XEON_E5_2680V4_X2, variant=cand.variant
            )
            assert refit == cand, "candidate is not a fitting fixed point"

    def test_fma_pruned_on_hardware_without_it(self):
        tuner = AutoTuner(CORE_I7_930)
        baseline = fit_config_for_device(
            KernelConfig(4, precision="double", use_fma=True),
            CORE_I7_930, variant="x86",
        )
        assert all(
            not cand.use_fma for cand in tuner.candidates(baseline)
        )

    def test_measurement_counts_real_launches(self):
        tuner = AutoTuner(QUADRO_P5000, reps=2)
        config = fit_config_for_device(
            KernelConfig(4, precision="double"), QUADRO_P5000
        )
        built, elapsed = tuner.measure(config)
        assert built == config
        assert elapsed > 0.0

    def test_tune_emits_metrics(self):
        registry = MetricsRegistry()
        tuner = AutoTuner(
            QUADRO_P5000, metrics=registry, top_k=2, reps=1
        )
        tuner.tune(4, precision="double", store=False)
        assert registry.counter("tune.runs").snapshot()["value"] == 1
        assert registry.counter("tune.candidates").snapshot()["value"] > 0
        # Baseline + at least one candidate get measured.
        assert registry.counter(
            "tune.measurements"
        ).snapshot()["value"] >= 2
        assert registry.gauge("tune.gain").snapshot()["value"] >= 1.0

    def test_opencl_cpu_resolves_x86_variant(self):
        tuner = AutoTuner(XEON_E5_2680V4_X2)
        assert tuner.framework == "opencl"
        result = tuner.tune(4, precision="double", store=False)
        assert result.best.variant == "x86"

    def test_cpu_variant_tunes_under_its_own_key(self):
        tuner = AutoTuner(XEON_E5_2680V4_X2, top_k=2, reps=1)
        result = tuner.tune(4, precision="double", variant="cpu")
        assert result.best.variant == "cpu"
        assert result.key.endswith("|cpu")
        iface = OpenCLInterface(XEON_E5_2680V4_X2)
        try:
            iface.build_program(
                KernelConfig(4, precision="double", variant="cpu")
            )
            assert iface.kernel_config == result.best
        finally:
            iface.finalize()


class TestTuneCLI:
    def test_tune_main_smoke(self, tmp_path, capsys):
        from repro.cli import tune_main

        report = tmp_path / "report.json"
        code = tune_main([
            "--device", "Quadro", "--states", "4",
            "--cache", str(tmp_path / "cli-cache.json"),
            "--json", str(report), "--assert-gain",
            "--top-k", "2", "--reps", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Autotune sweep" in out
        payload = json.loads(report.read_text())
        assert payload["records"]
        assert all(r["gain"] >= 1.0 for r in payload["records"])
        assert (tmp_path / "cli-cache.json").exists()

    def test_tune_main_unknown_device(self, tmp_path):
        from repro.cli import tune_main

        assert tune_main([
            "--device", "gpu9000",
            "--cache", str(tmp_path / "c.json"),
        ]) == 2
