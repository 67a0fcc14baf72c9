"""Base lowering pass: portable kernel IR -> compilable kernel source.

One :class:`Lowering` walks a :class:`~repro.accel.ir.ProgramIR` and
emits the kernel-program artefact the simulated frameworks compile with
:func:`compile_kernel_program`.  The backends subclass it
(:mod:`repro.accel.lower_cuda`, :mod:`repro.accel.lower_opencl`,
:mod:`repro.accel.lower_cpu`) and differ only where the paper says they
must: framework keywords (:class:`MacroSet`), per-backend launch
decorations, and the realisation of the states-reduction inner product.

**Bit-identity contract.**  The numeric realisations of every IR
statement live here, in one place, as canonical code fragments
(:data:`INNER_GPU`, :data:`INNER_X86`, :data:`INNER_CPU_VECTOR`, and the
per-statement emitters).  Every lowering emits these same fragments, so
two backends that share a variant produce numerically identical kernels,
and the cpu-vector realisation is the same batched product the gpu
variant issues — which is what makes cross-backend log-likelihoods
bit-identical on double-precision fixtures (see
``tests/test_ir_lowering.py``).

**Host array forms.**  Device partials share the host's ``(c, s, p)``
layout, and each emitter produces :mod:`repro.core.compute`'s form:
``InnerProduct`` is ``update_partials_pp``'s ``np.matmul(M, L)`` (gpu
and cpu variants), ``StateGather`` is ``_gather_states``'s ``np.take``,
``DynamicRescale`` is ``rescale_partials``, ``MatrixExpADB`` is
``matrices_from_eigen``'s GEMM, and ``SiteReduce`` and each of
``GradientReduce``'s sums are ``_site_sums``'s ``w @ (pi @ X)``.  So
the gpu and cpu variants give the host's bits; no emitter uses
``einsum``.

This module also holds every per-device build decision (sections
VII-B.1/2): :func:`variant_for` picks the kernel variant a device runs,
and :func:`fit_config_for_device` is the single clamp-and-backstop
fitting policy that ``HardwareInterface.build_program``,
``KernelConfigValidator.suggest`` and the autotuner all apply.  A
kernel program is built as ``lowering_for(config, macros).lower(
build_program_ir(config))`` and loaded with
:func:`compile_kernel_program`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.accel.device import DeviceSpec, ProcessorType
from repro.accel.ir import (
    AccumulateLogFactors,
    Barrier,
    Comment,
    DynamicRescale,
    FusedDispatch,
    GradientReduce,
    Guarded,
    InnerProduct,
    KernelConfig,
    KernelIR,
    LocalTile,
    LogWithScale,
    MatrixExpADB,
    Multiply,
    ProgramIR,
    SiteReduce,
    StateGather,
    Stmt,
)

# ---------------------------------------------------------------------------
# Framework macro sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MacroSet:
    """Framework keyword definitions, one instance per framework.

    Mirrors BEAGLE's ``GPUImplDefs.h`` keyword tables: the same template
    token expands to the framework's native qualifier.  The expansion
    lands in generated-source comments and decorator metadata so the
    artefact records which framework it was built for; array semantics
    are identical, which is the point of the shared design.
    """

    framework: str
    kw_global_kernel: str       # e.g. "__global__" vs "__kernel"
    kw_device_mem: str          # "CUdeviceptr" vs "__global REAL*"
    kw_local_mem: str           # "__shared__" vs "__local"
    kw_thread_fence: str        # "__syncthreads()" vs "barrier(...)"
    subpointer_strategy: str    # "pointer-arithmetic" vs "sub-buffer"


CUDA_MACROS = MacroSet(
    framework="CUDA",
    kw_global_kernel="__global__",
    kw_device_mem="CUdeviceptr",
    kw_local_mem="__shared__",
    kw_thread_fence="__syncthreads()",
    subpointer_strategy="pointer-arithmetic",
)

OPENCL_MACROS = MacroSet(
    framework="OpenCL",
    kw_global_kernel="__kernel",
    kw_device_mem="__global REAL*",
    kw_local_mem="__local",
    kw_thread_fence="barrier(CLK_LOCAL_MEM_FENCE)",
    subpointer_strategy="sub-buffer",
)


def compile_kernel_program(source: str) -> Dict[str, Callable]:
    """Compile generated kernel source into callable entry points.

    ``exec`` plays the role of the CUDA JIT / OpenCL runtime compiler:
    the artefact being compiled is genuinely the generated text, so a
    template bug is a build failure here just as it would be on device.
    """
    namespace: Dict[str, object] = {}
    exec(compile(source, "<beagle-kernels>", "exec"), namespace)
    kernels = namespace.get("KERNELS")
    if not isinstance(kernels, dict) or not kernels:
        raise ValueError("kernel program defines no KERNELS table")
    return kernels  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Per-device accommodations (sections VII-B.1/2)
# ---------------------------------------------------------------------------


def variant_for(device: DeviceSpec, requested: str) -> str:
    """The kernel variant ``device`` runs for a ``requested`` variant.

    CPU devices run the loop-over-states ``x86`` variant unless the
    host-vector ``cpu`` lowering was requested; every other device runs
    the concurrent-states ``gpu`` variant (section VII-B).
    """
    if device.processor == ProcessorType.CPU:
        return "cpu" if requested == "cpu" else "x86"
    return "gpu"


def fit_pattern_block_size(
    state_count: int,
    precision: str,
    local_mem_kb: float,
    preferred: int = 16,
) -> int:
    """Largest power-of-two patterns-per-work-group that fits local memory.

    Reproduces the AMD codon-model accommodation of section VII-B.1: "we
    had to reduce the number of sequence patterns computed per work-group
    ... to reduce memory usage in the local address space".  Returns 1 if
    even one pattern per work-group overflows (see
    :func:`fits_local_memory` for the staging on/off decision).
    """
    if local_mem_kb <= 0:
        return preferred
    block = preferred
    while block > 1 and not fits_local_memory(
        state_count, precision, local_mem_kb, block
    ):
        block //= 2
    return block


def fit_workgroup_block(
    block: int, state_count: int, max_workgroup_size: int
) -> int:
    """Halve a GPU pattern block until ``block × states`` fits the device.

    The gpu-variant work-group runs one work-item per state of each
    staged pattern (:attr:`KernelConfig.workgroup_size`); AMD GCN caps
    work-groups at 256 work-items where NVIDIA allows 1024, which bites
    codon models (61 states) first.
    """
    if max_workgroup_size <= 0:
        return block
    while block > 1 and block * state_count > max_workgroup_size:
        block //= 2
    return block


def fits_local_memory(
    state_count: int, precision: str, local_mem_kb: float, block: int
) -> bool:
    """Whether local-memory staging fits at all for this configuration."""
    if local_mem_kb <= 0:
        return False
    cfg = KernelConfig(
        state_count=state_count, precision=precision,
        pattern_block_size=block,
    )
    return cfg.local_memory_bytes() <= local_mem_kb * 1024


def fit_config_for_device(
    config: KernelConfig,
    device: DeviceSpec,
    variant: Optional[str] = None,
) -> KernelConfig:
    """Clamp a requested config to one device's hard limits.

    Applies, in order, the paper's accommodations (sections VII-B.1/2):

    * ``pattern_block_size`` halved until local-memory staging fits
      (AMD codon accommodation), then until ``block × states`` respects
      the device work-group cap (GCN's 256 vs NVIDIA's 1024);
    * local staging only for the gpu variant and only where it fits —
      otherwise global-memory access with the caches managing reuse;
    * FMA only on hardware that has it (Table IV);
    * ``workgroup_patterns`` clamped to the device work-group cap.

    ``variant`` overrides the requested kernel variant; the builders
    pass :func:`variant_for`'s choice.  This is the one fitting policy
    shared by every backend's ``build_program``, by
    ``KernelConfigValidator.suggest`` and its diagnostics' suggested
    numbers, and by the autotuner's candidate enumeration.
    """
    fitted_variant = config.variant if variant is None else variant
    block = fit_pattern_block_size(
        config.state_count,
        config.precision,
        device.local_mem_kb,
        preferred=config.pattern_block_size,
    )
    if fitted_variant == "gpu":
        block = fit_workgroup_block(
            block, config.state_count, device.max_workgroup_size
        )
    use_local = fitted_variant == "gpu" and fits_local_memory(
        config.state_count, config.precision, device.local_mem_kb, block
    )
    return KernelConfig(
        state_count=config.state_count,
        precision=config.precision,
        variant=fitted_variant,
        use_fma=config.use_fma and device.supports_fma,
        pattern_block_size=block,
        workgroup_patterns=min(
            config.workgroup_patterns, device.max_workgroup_size
        ),
        category_count=config.category_count,
        use_local_memory=use_local,
    )


# ---------------------------------------------------------------------------
# Canonical numeric realisations of the inner product, per variant.
# These fragments ARE the bit-identity contract: every lowering that
# emits a given variant emits exactly this text.
# ---------------------------------------------------------------------------

#: GPU: all states concurrently -- a batched GEMM, one work-item per state.
INNER_GPU = """\
    # GPU variant: one work-item per (state, pattern); the whole state
    # dimension is evaluated concurrently, with matrices staged in
    # {KW_LOCAL_MEM} memory (fused multiply-add: {FMA}).
    return np.matmul(matrices, partials)
"""

#: x86: loop over the state space inside each work-item (section VII-B.2),
#: trusting the runtime/compiler to manage caching (no local memory).
INNER_X86 = """\
    # x86 variant: each work-item loops over the state space, giving every
    # thread of execution more work (section VII-B.2); no {KW_LOCAL_MEM}
    # staging -- the compiler manages memory caching.
    acc = np.zeros(partials.shape, dtype=REAL)
    for j in range(STATE_COUNT):
        acc += (matrices[:, :, j, np.newaxis]
                * partials[:, np.newaxis, j, :])
    return acc
"""

#: cpu-vector: one contiguous batched product over the whole pattern
#: block, letting the host BLAS drive the SIMD lanes across the pattern
#: dimension: the gpu realisation's product, so cpu-vector stays
#: bit-identical to the GPU backends and the host.
INNER_CPU_VECTOR = """\
    # cpu-vector variant: the full pattern block is one contiguous
    # batched product; the host vector units consume the patterns
    # (fused multiply-add: {FMA}), with no {KW_LOCAL_MEM} staging.
    return np.matmul(matrices, partials)
"""

_INNER_BY_VARIANT = {
    "gpu": INNER_GPU,
    "x86": INNER_X86,
    "cpu": INNER_CPU_VECTOR,
}


def _site_reduce_lines(
    dest: str, integrand: str, weights: str, frequencies: str
) -> List[str]:
    """``dest[p] = sum_c w_c sum_i pi_i X[c, i, p]`` as two matmuls.

    ``compute._site_sums``'s pair of products: states first, then
    categories, in float64.
    """
    return [
        f"    {dest} = np.matmul({weights}, np.matmul({frequencies},",
        f"        ({integrand}).astype(np.float64, copy=False)))",
    ]


class LoweringError(ValueError):
    """A lowering pass cannot realise the given IR."""


class Lowering:
    """Base lowering: IR -> Python-source kernel program.

    Subclasses set :attr:`lowering_name`, may restrict
    :attr:`supported_variants`, and may override :meth:`header_extra`
    for backend-specific launch decoration.  Everything numeric is
    emitted here, identically for every backend.
    """

    lowering_name = "generic"
    #: Kernel variants this backend can realise.
    supported_variants = ("gpu", "x86", "cpu")

    def __init__(self, config: KernelConfig, macros: MacroSet) -> None:
        if config.variant not in self.supported_variants:
            raise LoweringError(
                f"{type(self).__name__} cannot lower the "
                f"{config.variant!r} variant (supports "
                f"{self.supported_variants})"
            )
        self.config = config
        self.macros = macros

    # -- formatting helpers -------------------------------------------------

    def macro_map(self) -> Dict[str, object]:
        """Template fields available to comments and docstrings."""
        return {
            "KW_GLOBAL_KERNEL": self.macros.kw_global_kernel,
            "KW_DEVICE_MEM": self.macros.kw_device_mem,
            "KW_LOCAL_MEM": self.macros.kw_local_mem,
            "KW_THREAD_FENCE": self.macros.kw_thread_fence,
            "VARIANT": self.config.variant,
            "FMA": self.config.use_fma,
            "STATE_COUNT": self.config.state_count,
        }

    def inner_product_body(self) -> str:
        return _INNER_BY_VARIANT[self.config.variant].format(
            **self.macro_map()
        )

    def header_extra(self) -> List[str]:
        """Backend-specific header lines (launch decoration)."""
        return []

    # -- top-level emission --------------------------------------------------

    def lower(self, program: ProgramIR) -> str:
        """Emit the full kernel-program source for ``program``.

        Validates before emitting: structural checks
        (:meth:`ProgramIR.validate`) raise directly, then the dataflow
        verifier (:mod:`repro.analysis.irverify`) gates emission on
        error-severity hazards — a racy tile body or divergent barrier
        never reaches a framework compile, on any backend.
        """
        program.validate()
        from repro.analysis.diagnostics import (
            Severity,
            format_diagnostics,
            has_errors,
        )
        from repro.analysis.irverify import verify_program_ir

        diagnostics = verify_program_ir(program)
        if has_errors(diagnostics):
            errors = [
                d for d in diagnostics if d.severity >= Severity.ERROR
            ]
            raise LoweringError(
                "IR verification failed:\n"
                + format_diagnostics(errors)
            )
        config = self.config
        pattern_block = config.patterns_per_workgroup
        local_bytes = (
            config.local_memory_bytes() if config.variant == "gpu" else 0
        )
        bar = "# " + "=" * 75
        lines = [
            bar,
            "# BEAGLE kernel program (generated -- do not edit)",
            "#",
            f"# framework          : {self.macros.framework}",
            f"# lowering           : {self.lowering_name}",
            f"# kernel qualifier   : {self.macros.kw_global_kernel}",
            f"# device memory      : {self.macros.kw_device_mem}",
            f"# local memory       : {self.macros.kw_local_mem}",
            f"# thread fence       : {self.macros.kw_thread_fence}",
            f"# sub-pointer access : {self.macros.subpointer_strategy}",
            "#",
            f"# STATE_COUNT        = {config.state_count}",
            f"# REAL               = {config.real_type}  "
            f"({config.precision} precision)",
            f"# VARIANT            = {config.variant}",
            f"# FP_FAST_FMA        = {config.use_fma}",
            f"# PATTERN_BLOCK_SIZE = {pattern_block}",
            f"# LOCAL_MEM_BYTES    = {local_bytes}",
            f"# IR_SIGNATURE       = {program.signature()}",
        ]
        lines.extend(self.header_extra())
        lines.extend([
            bar,
            "import numpy as np",
            "",
            f"STATE_COUNT = {config.state_count}",
            f"REAL = np.{config.real_type}",
            "# Scale buffers hold integer exponents e; log factor e * LN2.",
            "LN2 = float(np.log(2.0))",
            "MIN_SCALE_EXPONENT = 1 - np.finfo(REAL).maxexp",
            f"USES_FMA = {config.use_fma}",
            f"PATTERN_BLOCK_SIZE = {pattern_block}",
            "",
            "",
            "def _inner_product_child(partials, matrices):",
            '    """sum_j M[c, i, j] * L[c, j, p] for every (c, i, p)."""',
        ])
        lines.append(self.inner_product_body().rstrip("\n"))
        for kernel in program.kernels:
            lines.extend(["", ""])
            lines.extend(self._emit_kernel(kernel))
        lines.extend(["", "", "KERNELS = {"])
        for name in program.kernel_names:
            lines.append(f'    "{name}": {name},')
        lines.append("}")
        return "\n".join(lines) + "\n"

    # -- kernel emission ------------------------------------------------------

    def _emit_kernel(self, kernel: KernelIR) -> List[str]:
        lines = self._def_lines(kernel)
        if kernel.doc:
            doc = kernel.doc.format(**self.macro_map())
            doc_lines = doc.split("\n")
            if len(doc_lines) == 1:
                lines.append(f'    """{doc_lines[0]}"""')
            else:
                lines.append(f'    """{doc_lines[0]}')
                lines.extend(f"    {d}" for d in doc_lines[1:-1])
                lines.append(f'    {doc_lines[-1]}"""')
        for stmt in kernel.body:
            lines.extend(self._emit_stmt(stmt))
        return lines

    def _def_lines(self, kernel: KernelIR) -> List[str]:
        """The (wrapped) ``def`` statement; ``geom`` is always trailing."""
        names = [p.name for p in kernel.params] + ["geom"]
        head = f"def {kernel.name}("
        indent = " " * len(head)
        lines: List[str] = []
        current = head
        for i, name in enumerate(names):
            last = i == len(names) - 1
            piece = name + ("):" if last else ", ")
            if len(current) + len(piece) > 79 and current.strip() != "":
                lines.append(current.rstrip())
                current = indent
            current += piece
        lines.append(current)
        return lines

    def _emit_stmt(self, stmt: Stmt) -> List[str]:
        m = self.macro_map()
        if isinstance(stmt, Comment):
            return [f"    # {stmt.text.format(**m)}"]
        if isinstance(stmt, LocalTile):
            return [
                f"    # {m['KW_LOCAL_MEM']} tile {stmt.name}: "
                f"{stmt.contents} ({stmt.reals} REALs per work-group)."
            ]
        if isinstance(stmt, Barrier):
            return [
                f"    # {m['KW_THREAD_FENCE']} -- staged tiles visible "
                "to the whole work-group."
            ]
        if isinstance(stmt, InnerProduct):
            return [
                f"    {stmt.dest} = _inner_product_child("
                f"{stmt.partials}, {stmt.matrices})"
            ]
        if isinstance(stmt, StateGather):
            return [
                f"    {stmt.dest} = np.take({stmt.matrices_ext}, "
                f"{stmt.states}, axis=2, mode=\"clip\")"
            ]
        if isinstance(stmt, Multiply):
            return [f"    np.multiply({stmt.a}, {stmt.b}, out={stmt.dest})"]
        if isinstance(stmt, MatrixExpADB):
            return [
                f"    expd = np.exp(np.multiply.outer("
                f"{stmt.lengths_rates}, {stmt.eigenvalues}))",
                f"    p = np.matmul({stmt.eigenvectors} "
                "* expd[..., np.newaxis, :], "
                f"{stmt.inv_eigenvectors})",
                "    p = np.clip(p.real if np.iscomplexobj(p) else p, "
                "0.0, None)",
                f"    {stmt.dest}[...] = p.astype(REAL)",
            ]
        if isinstance(stmt, FusedDispatch):
            return [
                f"    for kind, args in {stmt.batch}:",
                "        KERNELS[kind](*args, geom)",
            ]
        if isinstance(stmt, Guarded):
            lines = [f"    if {stmt.cond}:"]
            for inner in stmt.body:
                lines.extend("    " + ln for ln in self._emit_stmt(inner))
            return lines
        if isinstance(stmt, DynamicRescale):
            return [
                f"    maxima = {stmt.partials}.max(axis=(0, 1))",
                "    exponents = np.frexp(maxima)[1]",
                f"    if {stmt.threshold} < np.inf:",
                f"        exponents[~(maxima < {stmt.threshold})] = 0",
                "    np.maximum(exponents, MIN_SCALE_EXPONENT, "
                "out=exponents)",
                f"    {stmt.partials} *= np.ldexp(REAL(1), -exponents)",
                f"    {stmt.scale_factors_log}[...] = exponents",
            ]
        if isinstance(stmt, AccumulateLogFactors):
            return [
                f"    for buf in {stmt.factor_buffers}:",
                f"        {stmt.cumulative} += buf",
            ]
        if isinstance(stmt, SiteReduce):
            return _site_reduce_lines(
                "site", stmt.partials_expr, stmt.weights, stmt.frequencies
            )
        if isinstance(stmt, GradientReduce):
            lines = []
            for site, lifted in (("f", stmt.lifted), ("f1", stmt.lifted1),
                                 ("f2", stmt.lifted2)):
                lines.extend(_site_reduce_lines(
                    site, f"{stmt.parent} * {lifted}", stmt.weights,
                    stmt.frequencies,
                ))
            lines.extend([
                '    with np.errstate(divide="ignore", invalid="ignore"):',
                "        log_site = np.log(f)",
                "        g1 = f1 / f",
                "        g2 = f2 / f - g1 * g1",
                f"    if {stmt.scale} is not None:",
                "        # Scale factors are branch-length independent: an",
                "        # additive constant on logL, zero on d1/d2.",
                f"        log_site = log_site + {stmt.scale} * LN2",
                f"    {stmt.out_log_like}[...] = log_site",
                f"    {stmt.out_d1}[...] = g1",
                f"    {stmt.out_d2}[...] = g2",
            ])
            return lines
        if isinstance(stmt, LogWithScale):
            return [
                '    with np.errstate(divide="ignore"):',
                "        log_site = np.log(site)",
                f"    if {stmt.scale} is not None:",
                f"        log_site = log_site + {stmt.scale} * LN2",
                f"    {stmt.out}[...] = log_site",
            ]
        raise LoweringError(
            f"no emitter for IR statement {type(stmt).__name__}"
        )


def lowering_for(config: KernelConfig, macros: MacroSet) -> Lowering:
    """Select the lowering pass for one (config, framework) pair.

    The cpu-vector lowering serves the ``cpu`` variant under either
    framework's macro set; otherwise the framework picks its own pass.
    """
    if config.variant == "cpu":
        from repro.accel.lower_cpu import CPUVectorLowering

        return CPUVectorLowering(config, macros)
    if macros.framework == "CUDA":
        from repro.accel.lower_cuda import CudaLowering

        return CudaLowering(config, macros)
    from repro.accel.lower_opencl import OpenCLLowering

    return OpenCLLowering(config, macros)
