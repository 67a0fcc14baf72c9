"""Static verification layer: plan verifier, kernel validator, AST lint."""

import dataclasses
import threading

import numpy as np
import pytest

from repro.accel.device import DEVICE_CATALOG, ProcessorType
from repro.analysis import (
    Diagnostic,
    Severity,
    format_diagnostics,
    has_errors,
    lint_paths,
    lint_source,
    max_severity,
    suggest_kernel_config,
    validate_kernel_config,
)
from repro.analysis.planverify import PlanVerifier, verify_plan
from repro.core.api import (
    beagle_configure,
    beagle_create_instance,
    beagle_finalize_instance,
    beagle_get_last_error_message,
    beagle_get_resource_list,
    beagle_set_tip_states,
)
from repro.core.flags import OP_NONE, ReturnCode
from repro.core.instance import BeagleInstance
from repro.core.plan import ExecutionPlan
from repro.core.types import InstanceConfig, Operation
from repro.util.errors import PlanVerificationError
from tests.conftest import make_config


def op(dest, c1, m1, c2, m2, **kw):
    return Operation(destination=dest, child1=c1, child1_matrix=m1,
                     child2=c2, child2_matrix=m2, **kw)


def small_instance_config(**overrides):
    kw = dict(
        tip_count=4,
        partials_buffer_count=7,
        compact_buffer_count=0,
        state_count=4,
        pattern_count=10,
        eigen_buffer_count=1,
        matrix_buffer_count=7,
        category_count=1,
        scale_buffer_count=0,
    )
    kw.update(overrides)
    return InstanceConfig(**kw)


def codes(diagnostics):
    return sorted(d.code for d in diagnostics)


# ---------------------------------------------------------------------------
# Plan verifier
# ---------------------------------------------------------------------------

class TestPlanVerifier:
    def make_cascade(self):
        """A well-formed little plan: matrices -> two ops -> join -> root."""
        plan = ExecutionPlan()
        plan.record_matrix_update(0, [0, 1, 2, 3, 4, 5], [0.1] * 6)
        plan.record_operations([
            op(4, 0, 0, 1, 1),
            op(5, 2, 2, 3, 3),
            op(6, 4, 4, 5, 5),
        ])
        plan.record_root_likelihood(6)
        return plan

    def test_organic_plan_is_clean(self):
        assert verify_plan(self.make_cascade()) == []

    def test_clean_with_config_and_state(self):
        diags = verify_plan(
            self.make_cascade(),
            config=small_instance_config(),
            initialized_partials=frozenset(range(4)),
            initialized_matrices=frozenset(),
        )
        assert diags == []

    def test_missing_hazard_edge_is_flagged(self):
        plan = self.make_cascade()
        # Drop every edge into the join node: it now shares level 0 with
        # the ops (and matrix update) that feed it -- a read/write race.
        join = plan.nodes[3]
        assert join.payload.destination == 6
        join.deps.clear()
        diags = verify_plan(plan)
        hazards = [d for d in diags if d.code == "plan-hazard"]
        assert hazards, codes(diags)
        assert all(d.severity is Severity.ERROR for d in hazards)
        # The join now shares level 0 with the matrix update that writes
        # the transition matrices it reads.
        contested = {d.resource for d in hazards}
        assert ("matrix", 4) in contested and ("matrix", 5) in contested
        assert all(join.index in d.nodes for d in hazards)

    def test_cycle_is_flagged_and_short_circuits(self):
        plan = ExecutionPlan()
        a, b = plan.record_operations([
            op(4, 0, 0, 1, 1),
            op(5, 4, 2, 3, 3),
        ])
        a.deps.add(b)  # b already depends on a (RAW on 4)
        diags = verify_plan(plan)
        assert codes(diags) == ["plan-cycle"]
        assert diags[0].severity is Severity.ERROR
        assert set(diags[0].nodes) == {a.index, b.index}

    def test_out_of_range_index(self):
        plan = ExecutionPlan()
        plan.record_operations([op(99, 0, 0, 1, 1)])
        diags = verify_plan(plan, config=small_instance_config())
        assert "index-out-of-range" in codes(diags)
        bad = next(d for d in diags if d.code == "index-out-of-range")
        assert bad.resource == ("partials", 99)
        # Without a config there is no bound to check against.
        assert "index-out-of-range" not in codes(verify_plan(plan))

    def test_foreign_dependency(self):
        plan = ExecutionPlan()
        other = ExecutionPlan()
        (node,) = plan.record_operations([op(4, 0, 0, 1, 1)])
        (foreign,) = other.record_operations([op(5, 2, 2, 3, 3)])
        node.deps.add(foreign)
        diags = verify_plan(plan)
        assert "plan-foreign-dep" in codes(diags)

    def test_dead_node_is_flagged(self):
        plan = ExecutionPlan()
        plan.record_matrix_update(0, [0, 1, 2, 3], [0.1] * 4)
        plan.record_operations([
            op(4, 0, 0, 1, 1),
            op(5, 2, 2, 3, 3),  # nothing ever consumes buffer 5
        ])
        plan.record_root_likelihood(4)
        diags = verify_plan(plan)
        dead = [d for d in diags if d.code == "dead-node"]
        assert len(dead) == 1
        assert dead[0].severity is Severity.WARNING
        assert dead[0].resource == ("partials", 5)

    def test_plans_without_requests_skip_dead_analysis(self):
        # A partials-only batch (root issued separately, e.g. around a
        # scale-factor sync) has no consumer to anchor liveness.
        plan = ExecutionPlan()
        plan.record_operations([op(4, 0, 0, 1, 1)])
        assert "dead-node" not in codes(verify_plan(plan))

    def test_unwritten_read_warns_with_config_only(self):
        plan = ExecutionPlan()
        # Reads internal buffer 5 which nothing in the plan writes.
        plan.record_operations([op(6, 5, 0, 1, 1)])
        diags = verify_plan(plan, config=small_instance_config())
        assert "maybe-uninitialized-read" in codes(diags)
        warn = next(
            d for d in diags if d.code == "maybe-uninitialized-read"
        )
        assert warn.severity is Severity.WARNING

    def test_unwritten_read_errors_with_known_state(self):
        plan = ExecutionPlan()
        plan.record_operations([op(6, 5, 0, 1, 1)])
        diags = verify_plan(
            plan,
            config=small_instance_config(),
            initialized_partials=frozenset(range(4)),
            initialized_matrices=frozenset(range(7)),
        )
        errors = [d for d in diags if d.code == "uninitialized-read"]
        assert errors and errors[0].resource == ("partials", 5)
        # The same read is fine once instance state covers it.
        assert not [
            d
            for d in verify_plan(
                plan,
                config=small_instance_config(),
                initialized_partials=frozenset(range(6)),
                initialized_matrices=frozenset(range(7)),
            )
            if d.code == "uninitialized-read"
        ]

    def test_scale_reads_are_exempt(self):
        plan = ExecutionPlan()
        plan.record_operations([op(4, 0, 0, 1, 1, read_scale=2)])
        diags = PlanVerifier(
            config=small_instance_config(scale_buffer_count=3),
            initialized_partials=frozenset(range(4)),
            initialized_matrices=frozenset(range(7)),
        ).verify(plan)
        assert "uninitialized-read" not in codes(diags)


# ---------------------------------------------------------------------------
# Instance / API integration (strict flush, parity on organic plans)
# ---------------------------------------------------------------------------

@pytest.fixture()
def deferred_instance(small_tree, nucleotide_patterns, hky_model,
                      gamma_sites):
    cfg = make_config(small_tree, nucleotide_patterns, hky_model,
                      gamma_sites)
    inst = BeagleInstance(cfg, deferred=True)
    enc = nucleotide_patterns.alignment.encode_partials()
    for t in range(small_tree.n_tips):
        inst.set_tip_partials(t, enc[t])
    inst.set_pattern_weights(nucleotide_patterns.weights)
    inst.set_category_rates(gamma_sites.rates)
    inst.set_category_weights(0, gamma_sites.weights)
    inst.set_substitution_model(0, hky_model)
    yield inst
    inst.finalize()


def record_full_traversal(inst, tree):
    from repro.tree import plan_traversal

    plan = plan_traversal(tree)
    inst.update_transition_matrices(
        0, list(plan.branch_node_indices), plan.branch_lengths
    )
    inst.update_partials(plan.operations)
    node = inst._plan.record_root_likelihood(plan.root_index)
    return plan, node


class TestInstanceVerification:
    def test_organic_plan_verifies_clean(self, deferred_instance,
                                         small_tree):
        record_full_traversal(deferred_instance, small_tree)
        assert deferred_instance.verify_plan() == []

    def test_verify_leaves_plan_recorded(self, deferred_instance,
                                         small_tree):
        record_full_traversal(deferred_instance, small_tree)
        deferred_instance.verify_plan()
        assert not deferred_instance._plan.is_empty
        results = deferred_instance.flush()
        assert len(results) == 1

    def test_strict_flush_rejects_corrupted_plan(self, deferred_instance,
                                                 small_tree):
        record_full_traversal(deferred_instance, small_tree)
        # Sever the final operation's edges: it drops to level 0, racing
        # the matrix update that writes the matrices it reads.
        final_op = deferred_instance._plan.nodes[-2]
        final_op.deps.clear()
        deferred_instance.set_plan_verification(True)
        assert deferred_instance.strict_plans
        with pytest.raises(PlanVerificationError) as err:
            deferred_instance.flush()
        assert "plan-hazard" in str(err.value)
        # Nothing executed; the bad plan is still there to inspect.
        assert not deferred_instance._plan.is_empty
        assert any(
            d.code == "plan-hazard"
            for d in deferred_instance.verify_plan()
        )
        # Discard the corrupted plan so teardown's finalize doesn't
        # try to flush it again.
        deferred_instance._plan = ExecutionPlan()

    def test_strict_flush_passes_clean_plan(self, deferred_instance,
                                            small_tree):
        record_full_traversal(deferred_instance, small_tree)
        deferred_instance.set_plan_verification(True)
        results = deferred_instance.flush()
        assert len(results) == 1
        (value,) = results.values()
        assert np.isfinite(value)

    def test_functional_api_toggle(self, nucleotide_patterns):
        handle, _ = beagle_create_instance(
            tip_count=8, partials_buffer_count=15, compact_buffer_count=0,
            state_count=4, pattern_count=nucleotide_patterns.n_patterns,
            eigen_buffer_count=1, matrix_buffer_count=15,
            category_count=1, scale_buffer_count=0,
        )
        try:
            assert beagle_configure(handle, strict_plans=True) == int(
                ReturnCode.SUCCESS
            )
        finally:
            beagle_finalize_instance(handle)
        assert beagle_configure(987654, strict_plans=True) != int(
            ReturnCode.SUCCESS
        )


class TestSessionVerify:
    def test_session_verifies_clean_and_emits_metrics(
        self, small_tree, nucleotide_patterns, hky_model, gamma_sites
    ):
        from repro.session import Session

        with Session(
            nucleotide_patterns, small_tree, hky_model, gamma_sites
        ) as session:
            diags = session.verify(strict=True)  # strict must not raise
            assert not has_errors(diags)
            assert session.metrics.counter("verify.runs").value == 1
            # verify() must not disturb subsequent evaluation.
            assert np.isfinite(session.log_likelihood())

    def test_session_verify_clean_across_backends(
        self, small_tree, nucleotide_patterns, hky_model, gamma_sites
    ):
        from repro.session import Session

        for backend in ("cpu-serial", "cuda", "opencl-gpu"):
            with Session(
                nucleotide_patterns, small_tree, hky_model, gamma_sites,
                backend=backend,
            ) as session:
                assert session.verify(strict=True) is not None


# ---------------------------------------------------------------------------
# Kernel-config validation (paper Tables IV / V)
# ---------------------------------------------------------------------------

class TestKernelConfigValidator:
    def test_codon_single_precision_overflows_amd_lds(self):
        """Table IV: codon SP with 16 patterns/WG does not fit R9 Nano."""
        from repro.accel.device import get_device
        from repro.accel.ir import KernelConfig

        nano = get_device("R9 Nano")
        config = KernelConfig(
            state_count=61, precision="single", variant="gpu",
            pattern_block_size=16, use_local_memory=True,
        )
        diags = validate_kernel_config(config, nano)
        found = codes(diags)
        assert "local-memory-overflow" in found
        assert "workgroup-too-large" in found  # 16*61 = 976 > 256
        overflow = next(
            d for d in diags if d.code == "local-memory-overflow"
        )
        # (2*61^2 + 2*61*16) * 4 B = 37576 B > 32 KB LDS.
        assert "37576" in overflow.message
        assert has_errors(diags)

    def test_suggested_codon_config_fits_amd(self):
        """Table IV's accommodation: 4 patterns/WG fits and is clean."""
        from repro.accel.device import get_device
        from repro.accel.ir import KernelConfig

        nano = get_device("R9 Nano")
        config = KernelConfig(
            state_count=61, precision="single", variant="gpu",
            pattern_block_size=16, use_local_memory=True,
        )
        fitted = suggest_kernel_config(config, nano)
        assert fitted.pattern_block_size == 4
        assert fitted.pattern_block_size * 61 <= nano.max_workgroup_size
        assert fitted.local_memory_bytes() <= nano.local_mem_kb * 1024
        assert validate_kernel_config(fitted, nano) == []

    def test_same_config_fits_nvidia(self):
        """The rejection is AMD-specific: P5000 has 48 KB and 1024 WIs."""
        from repro.accel.device import get_device
        from repro.accel.ir import KernelConfig

        p5000 = get_device("P5000")
        config = KernelConfig(
            state_count=61, precision="single", variant="gpu",
            pattern_block_size=16, use_local_memory=True,
        )
        assert not has_errors(validate_kernel_config(config, p5000))

    def test_fma_rejected_without_hardware_support(self):
        from repro.accel.device import get_device
        from repro.accel.ir import KernelConfig

        i7 = get_device("i7-930")
        config = KernelConfig(
            state_count=4, variant="x86", use_fma=True,
            use_local_memory=False,
        )
        diags = validate_kernel_config(config, i7)
        assert "fma-unsupported" in codes(diags)
        fitted = suggest_kernel_config(config, i7)
        assert not fitted.use_fma
        assert not has_errors(validate_kernel_config(fitted, i7))

    def test_local_memory_on_device_without_any(self):
        from repro.accel.device import get_device
        from repro.accel.ir import KernelConfig

        flat = dataclasses.replace(get_device("i7-930"), local_mem_kb=0.0)
        config = KernelConfig(
            state_count=4, variant="x86", use_local_memory=True,
        )
        diags = validate_kernel_config(config, flat)
        assert "no-local-memory" in codes(diags)

    def test_variant_mismatch_is_a_warning(self):
        from repro.accel.device import get_device
        from repro.accel.ir import KernelConfig

        xeon = get_device("E5-2680")
        config = KernelConfig(
            state_count=4, variant="gpu", use_local_memory=False,
        )
        diags = validate_kernel_config(config, xeon)
        assert "variant-mismatch" in codes(diags)
        assert max_severity(
            [d for d in diags if d.code == "variant-mismatch"]
        ) is Severity.WARNING

    def test_build_program_produces_validated_config(self):
        """The dynamic fitting in build_program satisfies the validator."""
        from repro.accel.device import get_device
        from repro.accel.ir import KernelConfig
        from repro.accel.opencl import OpenCLInterface

        nano = get_device("R9 Nano")
        iface = OpenCLInterface(nano)
        try:
            iface.build_program(KernelConfig(
                state_count=61, precision="single", variant="gpu",
                pattern_block_size=16, use_local_memory=True,
            ))
            built = iface.kernel_config
            assert built.pattern_block_size * 61 <= nano.max_workgroup_size
            assert not has_errors(validate_kernel_config(built, nano))
        finally:
            iface.finalize()


#: Every catalog device under every framework that serves it: CUDA on
#: NVIDIA GPUs, OpenCL everywhere.
FRAMEWORK_DEVICES = [
    (framework, device)
    for device in DEVICE_CATALOG.values()
    for framework in ("cuda", "opencl")
    if framework == "opencl" or (
        device.vendor == "NVIDIA" and device.processor is ProcessorType.GPU
    )
]


@pytest.mark.parametrize(
    "framework,device", FRAMEWORK_DEVICES,
    ids=[f"{f}-{d.name.split()[-1]}" for f, d in FRAMEWORK_DEVICES],
)
@pytest.mark.parametrize("states", (4, 20, 61))
@pytest.mark.parametrize("precision", ("single", "double"))
@pytest.mark.parametrize("variant", ("gpu", "x86", "cpu"))
@pytest.mark.parametrize("block", (16, 64))
@pytest.mark.parametrize("fma", (False, True))
def test_build_program_builds_the_suggested_config(
    framework, device, states, precision, variant, block, fma
):
    """The builder and the validator share one fitting and variant rule:
    what build_program builds is what suggest_kernel_config names, and
    the validator finds no error in it."""
    from repro.accel.cuda import CudaInterface
    from repro.accel.ir import KernelConfig
    from repro.accel.opencl import OpenCLInterface

    requested = KernelConfig(
        states, precision=precision, variant=variant, use_fma=fma,
        pattern_block_size=block,
    )
    interface = {"cuda": CudaInterface, "opencl": OpenCLInterface}[
        framework
    ](device)
    try:
        interface.build_program(requested, autotune=False)
        built = interface.kernel_config
    finally:
        interface.finalize()
    assert built == suggest_kernel_config(requested, device)
    assert not has_errors(validate_kernel_config(built, device))


# ---------------------------------------------------------------------------
# Concurrency / API-surface lint
# ---------------------------------------------------------------------------

class TestAstLint:
    def test_unlocked_mutation_flagged(self):
        source = (
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = object()\n"
            "        self.count = 0\n"
            "    def safe(self):\n"
            "        with self._lock:\n"
            "            self.count += 1\n"
            "    def racy(self):\n"
            "        self.count += 1\n"
        )
        diags = lint_source(source, "synthetic.py")
        assert codes(diags) == ["unlocked-mutation"]
        assert diags[0].severity is Severity.ERROR
        assert "count" in diags[0].message
        assert "synthetic.py:9" in diags[0].location

    def test_init_mutations_are_exempt(self):
        source = (
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = object()\n"
            "        self.count = 0\n"
            "    def bump(self):\n"
            "        with self._lock:\n"
            "            self.count += 1\n"
        )
        assert lint_source(source, "x.py") == []

    def test_unguarded_attrs_are_not_flagged(self):
        # No lock ever guards .label, so mutating it freely is fine.
        source = (
            "class C:\n"
            "    def rename(self, s):\n"
            "        self.label = s\n"
        )
        assert lint_source(source, "x.py") == []

    def test_subscript_mutation_is_tracked(self):
        source = (
            "class C:\n"
            "    def guarded(self):\n"
            "        with self._lock:\n"
            "            self.table[1] = 2\n"
            "    def racy(self):\n"
            "        self.table[3] = 4\n"
        )
        diags = lint_source(source, "x.py")
        assert codes(diags) == ["unlocked-mutation"]
        assert "table" in diags[0].message

    def test_module_global_lock_rule(self):
        source = (
            "_registry_lock = object()\n"
            "_registry = {}\n"
            "def safe(k, v):\n"
            "    global _registry\n"
            "    with _registry_lock:\n"
            "        _registry[k] = v\n"
            "def racy(k, v):\n"
            "    global _registry\n"
            "    _registry[k] = None\n"
        )
        diags = lint_source(source, "x.py")
        assert codes(diags) == ["unlocked-mutation"]
        assert "_registry" in diags[0].message

    def test_unwrapped_api_function(self):
        source = (
            "def _wrap(name, fn):\n"
            "    return 0\n"
            "def beagle_good(instance):\n"
            "    return _wrap('beagle_good', lambda: None)\n"
            "def beagle_bad(instance):\n"
            "    return 0\n"
            "def beagle_get_last_error_message():\n"
            "    return None\n"
        )
        diags = lint_source(source, "api.py")
        assert codes(diags) == ["unwrapped-api"]
        assert "beagle_bad" in diags[0].message

    def test_wrap_rule_only_applies_where_wrap_exists(self):
        source = "def beagle_helper():\n    return 0\n"
        assert lint_source(source, "x.py") == []

    def test_syntax_error_is_reported_not_raised(self):
        diags = lint_source("def broken(:\n", "x.py")
        assert codes(diags) == ["syntax-error"]
        assert diags[0].severity is Severity.ERROR

    def test_unbounded_retry_in_resil_module(self):
        source = (
            "def _drain(queue):\n"
            "    while True:\n"
            "        queue.pop()\n"
        )
        diags = lint_source(source, "repro/resil/pump.py")
        assert codes(diags) == ["unbounded-retry"]
        assert diags[0].severity is Severity.ERROR
        assert "repro/resil/pump.py:2" in diags[0].location
        # The same loop outside a resil module is not a retry loop.
        assert lint_source(source, "repro/sched/pump.py") == []

    def test_unbounded_retry_in_retry_function_anywhere(self):
        source = (
            "def retry_launch(component):\n"
            "    while True:\n"
            "        component.launch()\n"
        )
        diags = lint_source(source, "repro/sched/executor.py")
        assert codes(diags) == ["unbounded-retry"]
        assert "retry_launch" in diags[0].message

    def test_bounded_retry_loop_is_clean(self):
        source = (
            "def _retry_launch(component, policy):\n"
            "    for attempt in range(1, policy.max_attempts + 1):\n"
            "        component.launch()\n"
            "    while not component.done():\n"
            "        component.poll()\n"
        )
        assert lint_source(source, "repro/resil/pump.py") == []

    def test_resil_entrypoint_must_be_routed(self):
        source = (
            "def restore_things(path):\n"
            "    return open(path).read()\n"
        )
        diags = lint_source(source, "repro/resil/extra.py")
        assert codes(diags) == ["resil-unrouted-entrypoint"]
        assert "restore_things" in diags[0].message
        # Outside a resil module the rule does not apply.
        assert lint_source(source, "repro/util/extra.py") == []

    def test_resil_entrypoint_decorated_or_private_is_clean(self):
        source = (
            "from repro.resil._surface import resil_entrypoint\n"
            "@resil_entrypoint\n"
            "def save_things(path):\n"
            "    return 1\n"
            "def report_things(path):\n"
            "    _record_failure('resil.report_things', None)\n"
            "    return 2\n"
            "def _helper(path):\n"
            "    return 3\n"
        )
        assert lint_source(source, "repro/resil/extra.py") == []

    def test_repro_tree_is_lint_clean(self):
        """The CI gate: no error-severity finding anywhere in src."""
        import repro

        diags = lint_paths([repro.__path__[0]])
        errors = [d for d in diags if d.severity is Severity.ERROR]
        assert errors == [], format_diagnostics(errors)


# ---------------------------------------------------------------------------
# Diagnostics plumbing
# ---------------------------------------------------------------------------

class TestDiagnostics:
    def test_severity_helpers(self):
        warn = Diagnostic(Severity.WARNING, "w", "warn", "plan")
        err = Diagnostic(Severity.ERROR, "e", "broke", "plan")
        assert max_severity([]) is None
        assert max_severity([warn]) is Severity.WARNING
        assert max_severity([warn, err]) is Severity.ERROR
        assert not has_errors([warn])
        assert has_errors([warn, err])

    def test_format_orders_worst_first(self):
        warn = Diagnostic(Severity.WARNING, "w", "warn", "plan")
        err = Diagnostic(Severity.ERROR, "e", "broke", "plan",
                         location="node 3", suggestion="fix it")
        text = format_diagnostics([warn, err], header="findings:")
        lines = text.splitlines()
        assert lines[0] == "findings:"
        assert "[e]" in lines[1] and "(fix: fix it)" in lines[1]
        assert "[w]" in lines[2]
        assert format_diagnostics([]).strip() == "no findings"


# ---------------------------------------------------------------------------
# Error-message lifecycle (satellite regression)
# ---------------------------------------------------------------------------

class TestErrorMessageLifecycle:
    def test_cleared_by_next_successful_call(self):
        assert beagle_set_tip_states(424242, 0, [0, 1]) != int(
            ReturnCode.SUCCESS
        )
        assert beagle_get_last_error_message() is not None
        resources = beagle_get_resource_list()  # succeeds
        assert resources
        assert beagle_get_last_error_message() is None

    def test_reading_the_message_does_not_clear_it(self):
        beagle_set_tip_states(424242, 0, [0, 1])
        first = beagle_get_last_error_message()
        assert first is not None
        assert beagle_get_last_error_message() == first
        beagle_get_resource_list()

    def test_error_state_is_thread_local(self):
        beagle_get_resource_list()  # clear this thread's state
        beagle_set_tip_states(424242, 0, [0, 1])
        assert beagle_get_last_error_message() is not None
        seen = {}

        def probe():
            seen["before"] = beagle_get_last_error_message()
            beagle_set_tip_states(999999, 0, [0])
            seen["after"] = beagle_get_last_error_message()

        t = threading.Thread(target=probe)
        t.start()
        t.join()
        # The worker started clean despite this thread's failure...
        assert seen["before"] is None
        assert seen["after"] is not None
        # ...and this thread still sees its own message afterwards.
        assert beagle_get_last_error_message() is not None
        beagle_get_resource_list()


# ---------------------------------------------------------------------------
# Bare lock acquire/release lint
# ---------------------------------------------------------------------------

class TestBareLockLint:
    def test_bare_acquire_and_release_flagged(self):
        source = (
            "import threading\n"
            "_lock = threading.Lock()\n"
            "def leak():\n"
            "    _lock.acquire()\n"
            "    work()\n"
            "    _lock.release()\n"
        )
        diags = lint_source(source, "x.py")
        assert codes(diags) == ["bare-lock-acquire", "bare-lock-release"]
        assert all(d.severity is Severity.ERROR for d in diags)
        locations = sorted(d.location for d in diags)
        assert locations == ["x.py:4", "x.py:6"]

    def test_try_finally_pair_is_clean(self):
        source = (
            "def safe(self):\n"
            "    self._lock.acquire()\n"
            "    try:\n"
            "        work()\n"
            "    finally:\n"
            "        self._lock.release()\n"
        )
        assert lint_source(source, "x.py") == []

    def test_with_statement_is_clean(self):
        source = (
            "def safe(self):\n"
            "    with self._lock:\n"
            "        work()\n"
        )
        assert lint_source(source, "x.py") == []

    def test_acquire_with_unrelated_finally_still_flagged(self):
        # The finally releases a *different* lock: the acquire leaks.
        source = (
            "def leaky(self):\n"
            "    self._a_lock.acquire()\n"
            "    try:\n"
            "        work()\n"
            "    finally:\n"
            "        self._b_lock.release()\n"
        )
        diags = lint_source(source, "x.py")
        assert "bare-lock-acquire" in codes(diags)

    def test_lock_protocol_methods_are_exempt(self):
        # A proxy's own acquire/release delegate by design.
        source = (
            "class Proxy:\n"
            "    def acquire(self, *a, **k):\n"
            "        return self._lock.acquire(*a, **k)\n"
            "    def release(self):\n"
            "        self._lock.release()\n"
            "    def __exit__(self, *exc):\n"
            "        self._lock.release()\n"
        )
        assert lint_source(source, "x.py") == []

    def test_non_lock_receivers_ignored(self):
        # Resource-pool verbs are not lock operations.
        source = (
            "def run(self):\n"
            "    inst = self._pool.acquire()\n"
            "    self.ctx.release()\n"
        )
        assert lint_source(source, "x.py") == []

    def test_source_tree_is_clean(self):
        diags = [
            d for d in lint_paths(["src/repro"])
            if d.code.startswith("bare-lock")
        ]
        assert diags == []


# ---------------------------------------------------------------------------
# Plan verification of serve's pooled deferred instances
# ---------------------------------------------------------------------------

class TestServePlanVerification:
    """PlanVerifier over the plans serve actually dispatches.

    The serving pool hands one warm deferred instance to many tenants
    in turn (``rebind``); every tenant's batched traversal is recorded
    into the instance's execution plan before it runs.  Those organic
    cross-tenant plans must verify clean against the pooled instance's
    buffer bounds — and a corrupted plan must still be caught after a
    rebind, on the second tenant's traversal.
    """

    @pytest.fixture()
    def serve_pool(self):
        from repro.config import SessionConfig
        from repro.serve.pool import InstancePool

        pool = InstancePool(
            SessionConfig(backend="cpu-serial", deferred=True), per_key=1
        )
        yield pool
        pool.shutdown()

    @pytest.fixture()
    def serve_workload(self):
        from repro.model import HKY85, SiteModel
        from repro.seq import synthetic_pattern_set
        from repro.tree import yule_tree

        model = HKY85(kappa=2.0)
        site_model = SiteModel.gamma(0.5, 4)
        data = synthetic_pattern_set(6, 40, 4, rng=7)
        trees = [yule_tree(6, rng=11), yule_tree(6, rng=13)]
        return model, site_model, data, trees

    def _record_traversal(self, instance, tree):
        from repro.tree import plan_traversal

        traversal = plan_traversal(tree)
        instance.update_transition_matrices(
            0, list(traversal.branch_node_indices),
            traversal.branch_lengths,
        )
        instance.update_partials(traversal.operations)
        instance._plan.record_root_likelihood(traversal.root_index)
        return traversal

    def test_cross_tenant_rebind_plans_verify_clean(self, serve_pool,
                                                    serve_workload):
        model, site_model, data, trees = serve_workload
        outcomes = []
        for tenant, tree in (("a", trees[0]), ("b", trees[1]),
                             ("a", trees[0])):
            pooled, outcome = serve_pool.acquire(
                tenant, data, tree, model, site_model
            )
            outcomes.append(outcome)
            instance = pooled.likelihood.instance
            self._record_traversal(instance, tree)
            assert instance.verify_plan() == [], (
                f"plan for tenant {tenant} after {outcome} is dirty"
            )
            results = instance.flush()
            assert len(results) == 1
            assert np.isfinite(next(iter(results.values())))
            serve_pool.release(pooled)
        # One warm instance served both tenants: the second and third
        # acquires exercised rebind and the same-binding warm hit.
        assert outcomes == ["miss", "rebind", "rebind"]

    def test_corrupted_plan_caught_after_rebind(self, serve_pool,
                                                serve_workload):
        model, site_model, data, trees = serve_workload
        pooled, _ = serve_pool.acquire("a", data, trees[0], model,
                                       site_model)
        instance = pooled.likelihood.instance
        self._record_traversal(instance, trees[0])
        instance.flush()
        serve_pool.release(pooled)

        pooled, outcome = serve_pool.acquire("b", data, trees[1], model,
                                             site_model)
        assert outcome == "rebind"
        instance = pooled.likelihood.instance
        self._record_traversal(instance, trees[1])
        # Sever the final operation's hazard edges: it now races the
        # matrix update feeding it, exactly what strict flush rejects.
        instance._plan.nodes[-2].deps.clear()
        instance.set_plan_verification(True)
        with pytest.raises(PlanVerificationError, match="plan-hazard"):
            instance.flush()
        # Drop the corrupted plan so pool shutdown can finalize cleanly.
        instance._plan = ExecutionPlan()
        serve_pool.release(pooled)
