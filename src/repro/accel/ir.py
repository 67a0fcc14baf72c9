"""Portable kernel IR: one typed representation, many lowerings.

The paper shares kernel *text* between CUDA and OpenCL through macro
substitution (section V-B).  OCCA-style systems factor the same idea one
level higher: a portable kernel representation is *lowered* to each
backend at run time, so adding a backend means adding a lowering pass
rather than another copy of the kernel text.  This module is that
representation for the reproduction's kernel programs.

An IR program (:class:`ProgramIR`) is a typed declaration of the eleven
BEAGLE kernels for one :class:`KernelConfig`:

* each kernel (:class:`KernelIR`) declares its parameters, its parallel
  iteration space (:class:`IterAxis` loops over patterns / states /
  categories), and a body of statements;
* statements are the paper's kernel building blocks — local-memory tiles
  and barriers (section VII-B.1), the states-reduction inner product with
  its FMA annotation (Table IV), tip-state gathers, dynamic rescaling,
  and the site-likelihood integrations;
* :meth:`ProgramIR.validate` enforces structural invariants (barriers
  only after tiles, tiles only on local-memory builds, operands defined
  before use), and :meth:`ProgramIR.signature` gives a stable content
  hash used by the tuning cache.

The IR is deliberately framework-neutral: nothing here mentions CUDA or
OpenCL.  The per-backend lowering passes live in
:mod:`repro.accel.lower`, :mod:`repro.accel.lower_cuda`,
:mod:`repro.accel.lower_opencl`, and :mod:`repro.accel.lower_cpu`.

The build configuration the IR is built for (:class:`KernelConfig`)
lives here too, with the launch geometry it implies
(:class:`LaunchGeometry`): every layer that sizes a work-group or pads
a launch — the lowerings, the validator, the autotuner and the
accelerated implementation — reads it from the config.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields
from typing import List, Optional, Tuple


@dataclass(frozen=True)
class KernelConfig:
    """One kernel-program build configuration.

    Parameters mirror the knobs of BEAGLE's kernel generation, whose
    build scripts "generate OpenCL/CUDA kernel source code for different
    inference types ... and floating point formats, allowing for better
    performance at runtime" (section V-C), plus the hardware-specific
    optimisations of section VII-B.  Hardware variants differentiate
    performance-critical structure: the ``gpu`` variant computes all
    states of a pattern concurrently (one work-item per state); the
    ``x86`` variant "loops over the state space in each work-item
    instead of computing all states concurrently" and avoids explicit
    local memory; the ``cpu`` variant is the host-vector lowering (one
    batched product per pattern work-group).
    """

    state_count: int
    precision: str = "double"            # "single" | "double"
    variant: str = "gpu"                 # "gpu" | "x86" | "cpu"
    use_fma: bool = False                # FP_FAST_FMA(F) (Table IV)
    pattern_block_size: int = 16         # patterns per work-group (GPU)
    workgroup_patterns: int = 256        # patterns per work-group (x86/cpu)
    category_count: int = 4
    #: Stage matrices/partials blocks in local memory.  High-state-count
    #: double-precision kernels cannot fit even one pattern's staging in
    #: any real device's local memory and fall back to global-memory
    #: access (with the compiler/caches managing reuse).
    use_local_memory: bool = True

    def __post_init__(self) -> None:
        if self.state_count < 2:
            raise ValueError(f"state count {self.state_count} < 2")
        if self.precision not in ("single", "double"):
            raise ValueError(f"bad precision {self.precision!r}")
        if self.variant not in ("gpu", "x86", "cpu"):
            raise ValueError(f"bad variant {self.variant!r}")
        if self.pattern_block_size < 1 or self.workgroup_patterns < 1:
            raise ValueError("work-group sizes must be positive")

    @property
    def real_type(self) -> str:
        return "float32" if self.precision == "single" else "float64"

    @property
    def itemsize(self) -> int:
        return 4 if self.precision == "single" else 8

    @property
    def patterns_per_workgroup(self) -> int:
        """Patterns one work-group covers: the staged block on gpu."""
        if self.variant == "gpu":
            return self.pattern_block_size
        return self.workgroup_patterns

    @property
    def workgroup_size(self) -> int:
        """Work-items per work-group the launch geometry will request.

        The gpu variant runs one work-item per state of each staged
        pattern, ``pattern_block_size × state_count``; the x86/cpu
        variants loop over states inside one work-item per pattern.
        """
        if self.variant == "gpu":
            return self.pattern_block_size * self.state_count
        return self.workgroup_patterns

    def launch_geometry(self, pattern_count: int) -> "LaunchGeometry":
        """The partials-kernel launch, padded to whole work-groups.

        gpu: a 2-D (pattern, state) grid; x86/cpu: 1-D over patterns.
        """
        block = self.patterns_per_workgroup
        padded = math.ceil(pattern_count / block) * block
        if self.variant == "gpu":
            return LaunchGeometry(
                (padded, self.state_count), (block, self.state_count)
            )
        return LaunchGeometry((padded,), (block,))

    def local_memory_bytes(self) -> int:
        """Local/shared memory one work-group needs (GPU variant).

        The GPU kernel stages both transition matrices plus a block of
        child partials in local memory: ``2 s^2 + 2 s P_blk`` reals.
        This is the quantity that exceeds AMD's smaller local memory for
        codon models, forcing a reduced ``pattern_block_size``
        (section VII-B.1).
        """
        if not self.use_local_memory:
            return 0
        s = self.state_count
        reals = 2 * s * s + 2 * s * self.pattern_block_size
        return reals * self.itemsize


@dataclass(frozen=True)
class LaunchGeometry:
    """Grid/work-group geometry of one kernel launch.

    CUDA expresses this as (grid, block); OpenCL as (global, local).  The
    simulated kernels receive it for padding-aware slicing and the
    perf model uses it for work-group dispatch accounting.
    """

    global_size: Tuple[int, ...]
    local_size: Tuple[int, ...]

    @property
    def n_workgroups(self) -> int:
        n = 1
        for g, l in zip(self.global_size, self.local_size):
            if l <= 0 or g % l != 0:
                raise ValueError(
                    f"global size {self.global_size} not a multiple of "
                    f"local size {self.local_size}"
                )
            n *= g // l
        return n


#: Every kernel program must define exactly these entry points: the
#: launch sites in :mod:`repro.impl.accelerated` resolve them by name.
REQUIRED_KERNELS = (
    "kernelMatrixMulADB",
    "kernelPartialsPartialsNoScale",
    "kernelStatesPartialsNoScale",
    "kernelStatesStatesNoScale",
    "kernelPartialsLevelNoScale",
    "kernelPartialsDynamicScaling",
    "kernelAccumulateFactorsScale",
    "kernelIntegrateLikelihoods",
    "kernelIntegrateLikelihoodsEdge",
    "kernelEdgeDerivatives",
    "kernelEdgeGradientsBatch",
)


class IRError(ValueError):
    """A structurally invalid kernel IR program."""


@dataclass(frozen=True)
class Param:
    """One kernel parameter.

    ``kind`` records the argument class the launch path will supply:
    device buffers, compact tip-state index buffers, scalars, lists of
    buffers, or the fused-dispatch batch.

    ``role`` and ``extent`` are the dataflow contract the static
    verifier (:mod:`repro.analysis.irverify`) checks the body against:
    ``"in"`` buffers are read-only, ``"out"`` buffers must be written
    before any read, ``"inout"`` may do both; ``extent`` names the
    buffer's symbolic dimensions (``"category"``, ``"pattern"``,
    ``"state"``, ``"state+1"`` for the gap-column-extended matrices,
    ``"branch"``), with ``None`` leaving the buffer unchecked.
    """

    name: str
    kind: str = "buffer"   # buffer | states | scalar | buffer_list | batch
    role: str = "in"       # in | out | inout
    extent: Optional[Tuple[str, ...]] = None

    _KINDS = ("buffer", "states", "scalar", "buffer_list", "batch")
    _ROLES = ("in", "out", "inout")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise IRError(f"bad param kind {self.kind!r} for {self.name!r}")
        if self.role not in self._ROLES:
            raise IRError(f"bad param role {self.role!r} for {self.name!r}")


@dataclass(frozen=True)
class IterAxis:
    """One axis of a kernel's parallel iteration space.

    ``extent`` is a compile-time constant (states, categories) or ``None``
    for runtime-sized axes (patterns).  ``parallel`` distinguishes the
    paper's two variant structures: the gpu variant runs the ``state``
    axis concurrently (one work-item per state), while the x86/cpu
    variants loop over it inside each work-item (section VII-B.2).
    """

    name: str              # "pattern" | "state" | "category"
    extent: Optional[int] = None
    parallel: bool = True


class Stmt:
    """Base class for kernel-body statements."""

    def operands(self) -> Tuple[str, ...]:
        """Names this statement reads (subset of params + earlier dests)."""
        return ()

    def dest_names(self) -> Tuple[str, ...]:
        """Names this statement defines for later statements."""
        return ()


@dataclass(frozen=True)
class Comment(Stmt):
    """An explanatory comment; ``{KW_*}`` fields expand per lowering."""

    text: str


@dataclass(frozen=True)
class LocalTile(Stmt):
    """Stage an operand block in local/shared memory (gpu variant).

    ``reals`` is the per-work-group staging size in REALs; the sum over a
    kernel's tiles is the ``2s² + 2sP`` local-memory budget of section
    VII-B.1 that the config validator checks against the device.

    ``stages`` names the parameters whose blocks the tile copies in.
    Every work-item participates in the copy, so any read of a staged
    operand before the next :class:`Barrier` races with another
    work-item's in-flight write — the shared-memory hazard the dataflow
    verifier rejects.
    """

    name: str
    reals: int
    contents: str
    stages: Tuple[str, ...] = ()

    def dest_names(self) -> Tuple[str, ...]:
        return ()


@dataclass(frozen=True)
class Barrier(Stmt):
    """Work-group barrier: staged tiles visible to every work-item."""


@dataclass(frozen=True)
class InnerProduct(Stmt):
    """``dest[c,i,p] = sum_j matrices[c,i,j] * partials[c,j,p]``.

    The states-reduction at the heart of every partials kernel; its
    realisation is the per-variant performance decision (concurrent
    states / loop over states / batched host product) and it carries the
    FMA annotation of Table IV.
    """

    dest: str
    partials: str
    matrices: str
    fma: bool = False

    def operands(self) -> Tuple[str, ...]:
        return (self.partials, self.matrices)

    def dest_names(self) -> Tuple[str, ...]:
        return (self.dest,)


@dataclass(frozen=True)
class StateGather(Stmt):
    """Gather matrix columns for a compact (tip-state) child."""

    dest: str
    states: str
    matrices_ext: str

    def operands(self) -> Tuple[str, ...]:
        return (self.states, self.matrices_ext)

    def dest_names(self) -> Tuple[str, ...]:
        return (self.dest,)


@dataclass(frozen=True)
class Multiply(Stmt):
    """Elementwise product of two child contributions into ``dest``."""

    dest: str
    a: str
    b: str

    def operands(self) -> Tuple[str, ...]:
        return (self.a, self.b)

    def dest_names(self) -> Tuple[str, ...]:
        return (self.dest,)


@dataclass(frozen=True)
class MatrixExpADB(Stmt):
    """``P = V expm(diag(lambda * t * r)) V^-1`` for a (branch, rate) batch."""

    dest: str
    eigenvectors: str
    inv_eigenvectors: str
    eigenvalues: str
    lengths_rates: str

    def operands(self) -> Tuple[str, ...]:
        return (self.eigenvectors, self.inv_eigenvectors,
                self.eigenvalues, self.lengths_rates)

    def dest_names(self) -> Tuple[str, ...]:
        return (self.dest,)


@dataclass(frozen=True)
class DynamicRescale(Stmt):
    """Per-pattern power-of-two rescaling with stored exponents.

    Multiplies each pattern by ``2**-e``, ``e = frexp(maximum)``, where
    the maximum fell below ``threshold``, and stores ``e`` (as float64)
    in the buffer named ``scale_factors_log``: its log factor is
    ``e * ln 2``, applied where a scale enters a log-likelihood.
    """

    partials: str
    scale_factors_log: str
    threshold: str

    def operands(self) -> Tuple[str, ...]:
        return (self.partials, self.threshold)

    def dest_names(self) -> Tuple[str, ...]:
        return (self.scale_factors_log,)


@dataclass(frozen=True)
class AccumulateLogFactors(Stmt):
    """``cumulative += sum`` of per-buffer scale exponents (exact)."""

    cumulative: str
    factor_buffers: str

    def operands(self) -> Tuple[str, ...]:
        return (self.cumulative, self.factor_buffers)


@dataclass(frozen=True)
class SiteReduce(Stmt):
    """Weighted site likelihoods: ``site[p] = sum_{c,i} w_c f_i X[c,i,p]``.

    ``partials_expr`` is the integrand — a buffer name or an elementwise
    product of earlier dests — accumulated in float64 regardless of the
    kernel precision (this is what keeps the lowered backends
    bit-identical end to end).
    """

    partials_expr: str
    weights: str
    frequencies: str

    def operands(self) -> Tuple[str, ...]:
        return (self.partials_expr, self.weights, self.frequencies)

    def dest_names(self) -> Tuple[str, ...]:
        return ("site",)


@dataclass(frozen=True)
class LogWithScale(Stmt):
    """``out = log(site) (+ cumulative scale exponents * ln 2)``."""

    out: str
    scale: str

    def operands(self) -> Tuple[str, ...]:
        return ("site", self.scale)


@dataclass(frozen=True)
class GradientReduce(Stmt):
    """Per-pattern edge log-likelihood plus first/second log-derivatives.

    Consumes the three lifted child blocks (``P·L``, ``P'·L``, ``P''·L``
    from preceding :class:`InnerProduct` statements), reduces each
    against the parent partials, weights, and frequencies exactly like
    :class:`SiteReduce`, and converts the raw site values ``f, f1, f2``
    into log-space derivatives ``g1 = f1/f`` and ``g2 = f2/f - g1²``.
    The scale term is branch-length independent, so it lands on the
    log-likelihood output only — never on the derivatives.
    """

    out_log_like: str
    out_d1: str
    out_d2: str
    parent: str
    lifted: str
    lifted1: str
    lifted2: str
    weights: str
    frequencies: str
    scale: str

    def operands(self) -> Tuple[str, ...]:
        return (self.parent, self.lifted, self.lifted1, self.lifted2,
                self.weights, self.frequencies, self.scale)

    def dest_names(self) -> Tuple[str, ...]:
        return (self.out_log_like, self.out_d1, self.out_d2)


@dataclass(frozen=True)
class FusedDispatch(Stmt):
    """Dispatch a batch of independent operations inside one launch."""

    batch: str

    def operands(self) -> Tuple[str, ...]:
        return (self.batch,)


@dataclass(frozen=True)
class Guarded(Stmt):
    """Execute ``body`` only where ``cond`` holds (predicated region).

    ``cond`` is a boolean expression over scalar params and iteration
    indices.  No catalog kernel is predicated today; the statement
    exists so the dataflow verifier can reason about work-item-divergent
    control flow — a :class:`Barrier` under a guard that mentions a
    parallel axis deadlocks the work-group, because only some work-items
    reach it (the barrier-divergence hazard).
    """

    cond: str
    body: Tuple[Stmt, ...]


def walk_stmts(body, guards=()):
    """Yield ``(stmt, guards)`` in program order, descending into
    :class:`Guarded` regions; ``guards`` is the tuple of enclosing
    conditions."""
    for stmt in body:
        yield stmt, guards
        if isinstance(stmt, Guarded):
            yield from walk_stmts(stmt.body, guards + (stmt.cond,))


@dataclass(frozen=True)
class KernelIR:
    """One kernel: parameters, iteration space, body."""

    name: str
    params: Tuple[Param, ...]
    space: Tuple[IterAxis, ...]
    body: Tuple[Stmt, ...]
    doc: str = ""

    def local_memory_reals(self) -> int:
        return sum(
            s.reals for s in self.body if isinstance(s, LocalTile)
        )

    def validate(self, config: KernelConfig) -> None:
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise IRError(f"{self.name}: duplicate parameter names {names}")
        defined = set(names)
        tile_seen = False
        for stmt, _guards in walk_stmts(self.body):
            if isinstance(stmt, LocalTile):
                if not config.use_local_memory:
                    raise IRError(
                        f"{self.name}: local tile {stmt.name!r} in a "
                        "build without local-memory staging"
                    )
                if config.variant != "gpu":
                    raise IRError(
                        f"{self.name}: local tile {stmt.name!r} in the "
                        f"{config.variant!r} variant (section VII-B.2: "
                        "only the gpu variant stages local memory)"
                    )
                tile_seen = True
            elif isinstance(stmt, Barrier):
                if not tile_seen:
                    raise IRError(
                        f"{self.name}: barrier with no preceding local "
                        "tile (nothing to synchronise)"
                    )
            elif isinstance(stmt, InnerProduct):
                if stmt.fma != config.use_fma:
                    raise IRError(
                        f"{self.name}: inner-product FMA annotation "
                        f"{stmt.fma} disagrees with config.use_fma "
                        f"{config.use_fma}"
                    )
            for operand in stmt.operands():
                if operand and operand.isidentifier() \
                        and operand not in defined:
                    raise IRError(
                        f"{self.name}: statement reads undefined operand "
                        f"{operand!r}"
                    )
            defined.update(stmt.dest_names())


@dataclass(frozen=True)
class ProgramIR:
    """A full kernel program for one build configuration."""

    config: KernelConfig
    kernels: Tuple[KernelIR, ...]

    @property
    def kernel_names(self) -> Tuple[str, ...]:
        return tuple(k.name for k in self.kernels)

    def kernel(self, name: str) -> KernelIR:
        for k in self.kernels:
            if k.name == name:
                return k
        raise KeyError(name)

    def validate(self) -> None:
        """Check structural invariants; raises :class:`IRError`."""
        names = list(self.kernel_names)
        if len(set(names)) != len(names):
            raise IRError(f"duplicate kernel names: {names}")
        missing = [n for n in REQUIRED_KERNELS if n not in names]
        if missing:
            raise IRError(f"program is missing required kernels: {missing}")
        for kernel in self.kernels:
            kernel.validate(self.config)
        budget = self.config.local_memory_bytes()
        for kernel in self.kernels:
            need = kernel.local_memory_reals() * self.config.itemsize
            if need > budget:
                raise IRError(
                    f"{kernel.name}: tiles need {need} B but the config "
                    f"accounts only {budget} B of local memory"
                )

    def signature(self) -> str:
        """Stable content hash of the program structure and config.

        Two configs that lower to the same kernels share a signature;
        the tuning cache and generated-source headers embed it so stale
        artefacts are detectable.
        """
        def stmt_repr(stmt: Stmt) -> List[object]:
            entry: List[object] = [type(stmt).__name__]
            for f in fields(stmt):  # type: ignore[arg-type]
                value = getattr(stmt, f.name)
                if isinstance(value, tuple) and any(
                    isinstance(v, Stmt) for v in value
                ):
                    value = [stmt_repr(v) for v in value]
                entry.append([f.name, value])
            return entry

        payload = {
            "config": [
                self.config.state_count, self.config.precision,
                self.config.variant, self.config.use_fma,
                self.config.pattern_block_size,
                self.config.workgroup_patterns,
                self.config.use_local_memory,
            ],
            "kernels": [
                [
                    k.name,
                    [[p.name, p.kind, p.role, p.extent] for p in k.params],
                    [[a.name, a.extent, a.parallel] for a in k.space],
                    [stmt_repr(s) for s in k.body],
                ]
                for k in self.kernels
            ],
        }
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()
        ).hexdigest()
        return digest[:16]


# ---------------------------------------------------------------------------
# Program builder
# ---------------------------------------------------------------------------

def _partials_space(config: KernelConfig) -> Tuple[IterAxis, ...]:
    """The iteration space of a partials kernel for one variant.

    gpu: (pattern, state) work-items per category — the state axis is
    parallel.  x86/cpu: pattern work-items only; the state axis is a
    sequential loop inside each work-item.
    """
    concurrent_states = config.variant == "gpu"
    return (
        IterAxis("category", config.category_count, parallel=True),
        IterAxis("pattern", None, parallel=True),
        IterAxis("state", config.state_count, parallel=concurrent_states),
    )


def _partials_tiles(
    config: KernelConfig,
    matrices: Tuple[str, ...],
    partials: Tuple[str, ...] = (),
) -> List[Stmt]:
    """Local staging statements for one partials kernel (gpu variant).

    Two transition matrices (``s²`` REALs each) plus one staged block
    per child-partials param (``s·P`` REALs each) — together the
    ``2s² + 2sP`` budget of section VII-B.1.  ``matrices``/``partials``
    name the params each tile stages, which is what lets the dataflow
    verifier prove reads of staged operands sit behind the barrier.
    """
    if not (config.use_local_memory and config.variant == "gpu"):
        return []
    s = config.state_count
    p = config.pattern_block_size
    tiles: List[Stmt] = [
        LocalTile("tile_matrices", 2 * s * s,
                  "both children's transition matrices",
                  stages=tuple(matrices)),
    ]
    if partials:
        tiles.append(LocalTile(
            "tile_partials", len(partials) * s * p,
            f"{len(partials)} staged child-partials block(s)",
            stages=tuple(partials),
        ))
    tiles.append(Barrier())
    return tiles


#: Shorthand extents for the catalog's buffer shapes.
_CPS = ("category", "state", "pattern")        # partials blocks
_CSS = ("category", "state", "state")          # transition matrices
_CSX = ("category", "state", "state+1")        # gap-column-extended


def build_program_ir(config: KernelConfig) -> ProgramIR:
    """The eleven-kernel BEAGLE program as portable IR for one config."""
    fma = config.use_fma
    space = _partials_space(config)
    serial_pattern = (IterAxis("pattern", None, parallel=True),)

    kernels = [
        KernelIR(
            name="kernelMatrixMulADB",
            params=(
                Param("matrices_out", role="out",
                      extent=("branch", "category", "state", "state")),
                Param("eigenvectors", extent=("state", "state")),
                Param("inv_eigenvectors", extent=("state", "state")),
                Param("eigenvalues", extent=("state",)),
                Param("lengths_rates", extent=("branch", "category")),
            ),
            space=(IterAxis("branch", None), IterAxis("category", None)),
            body=(
                MatrixExpADB("matrices_out", "eigenvectors",
                             "inv_eigenvectors", "eigenvalues",
                             "lengths_rates"),
            ),
            doc="P = V expm(diag(lambda * t * r)) V^-1 for a batch of "
                "(branch, rate).",
        ),
        KernelIR(
            name="kernelPartialsPartialsNoScale",
            params=(
                Param("dest", role="out", extent=_CPS),
                Param("partials1", extent=_CPS),
                Param("matrices1", extent=_CSS),
                Param("partials2", extent=_CPS),
                Param("matrices2", extent=_CSS),
            ),
            space=space,
            body=tuple(
                [Comment("{KW_GLOBAL_KERNEL}: one work-item per partials "
                         "entry ({VARIANT}).")]
                + _partials_tiles(config, ("matrices1", "matrices2"),
                                  ("partials1", "partials2"))
                + [
                    InnerProduct("a", "partials1", "matrices1", fma=fma),
                    InnerProduct("b", "partials2", "matrices2", fma=fma),
                    Multiply("dest", "a", "b"),
                ]
            ),
        ),
        KernelIR(
            name="kernelStatesPartialsNoScale",
            params=(
                Param("dest", role="out", extent=_CPS),
                Param("states1", kind="states", extent=("pattern",)),
                Param("matrices1_ext", extent=_CSX),
                Param("partials2", extent=_CPS),
                Param("matrices2", extent=_CSS),
            ),
            space=space,
            body=tuple(
                [Comment("Compact child 1: gather the matrix column of "
                         "each observed state"),
                 Comment("(column STATE_COUNT is the all-ones gap "
                         "column).")]
                + _partials_tiles(config, ("matrices1_ext", "matrices2"),
                                  ("partials2",))
                + [
                    StateGather("a", "states1", "matrices1_ext"),
                    InnerProduct("b", "partials2", "matrices2", fma=fma),
                    Multiply("dest", "a", "b"),
                ]
            ),
        ),
        KernelIR(
            name="kernelStatesStatesNoScale",
            params=(
                Param("dest", role="out", extent=_CPS),
                Param("states1", kind="states", extent=("pattern",)),
                Param("matrices1_ext", extent=_CSX),
                Param("states2", kind="states", extent=("pattern",)),
                Param("matrices2_ext", extent=_CSX),
            ),
            space=space,
            body=tuple(
                _partials_tiles(config,
                                ("matrices1_ext", "matrices2_ext"))
                + [
                    StateGather("a", "states1", "matrices1_ext"),
                    StateGather("b", "states2", "matrices2_ext"),
                    Multiply("dest", "a", "b"),
                ]
            ),
        ),
        KernelIR(
            name="kernelPartialsLevelNoScale",
            params=(Param("batch", kind="batch"),),
            space=(IterAxis("operation", None, parallel=True),) + space,
            body=(FusedDispatch("batch"),),
            doc="Fused dispatch of one dependency level: every entry is "
                "an\nindependent partials operation, so the whole batch "
                "shares one launch\n(no {KW_THREAD_FENCE} needed between "
                "entries).",
        ),
        KernelIR(
            name="kernelPartialsDynamicScaling",
            params=(
                Param("partials", role="inout", extent=_CPS),
                Param("scale_factors_log", role="out",
                      extent=("pattern",)),
                Param("threshold", kind="scalar"),
            ),
            space=serial_pattern,
            body=(
                DynamicRescale("partials", "scale_factors_log",
                               "threshold"),
            ),
            doc="Multiply each pattern by 2**-e, e = frexp(maximum), where "
                "the\nmaximum fell below threshold; store the exponents e "
                "(zero for\ncomfortable patterns).",
        ),
        KernelIR(
            name="kernelAccumulateFactorsScale",
            params=(
                Param("cumulative_log", role="inout",
                      extent=("pattern",)),
                Param("factor_buffers", kind="buffer_list"),
            ),
            space=serial_pattern,
            body=(AccumulateLogFactors("cumulative_log",
                                       "factor_buffers"),),
            doc="cumulative += sum of scale exponent buffers "
                "({KW_THREAD_FENCE}).",
        ),
        KernelIR(
            name="kernelIntegrateLikelihoods",
            params=(
                Param("out_log_like", role="out", extent=("pattern",)),
                Param("root_partials", extent=_CPS),
                Param("weights", extent=("category",)),
                Param("frequencies", extent=("state",)),
                Param("pattern_weights", extent=("pattern",)),
                Param("cumulative_scale_log", extent=("pattern",)),
            ),
            space=serial_pattern,
            body=(
                SiteReduce("root_partials", "weights", "frequencies"),
                LogWithScale("out_log_like", "cumulative_scale_log"),
            ),
        ),
        KernelIR(
            name="kernelIntegrateLikelihoodsEdge",
            params=(
                Param("out_log_like", role="out", extent=("pattern",)),
                Param("parent_partials", extent=_CPS),
                Param("child_partials", extent=_CPS),
                Param("edge_matrices", extent=_CSS),
                Param("weights", extent=("category",)),
                Param("frequencies", extent=("state",)),
                Param("pattern_weights", extent=("pattern",)),
                Param("cumulative_scale_log", extent=("pattern",)),
            ),
            space=serial_pattern,
            body=(
                InnerProduct("lifted", "child_partials", "edge_matrices",
                             fma=fma),
                SiteReduce("parent_partials * lifted", "weights",
                           "frequencies"),
                LogWithScale("out_log_like", "cumulative_scale_log"),
            ),
        ),
        KernelIR(
            name="kernelEdgeDerivatives",
            params=(
                Param("out_log_like", role="out", extent=("pattern",)),
                Param("out_d1", role="out", extent=("pattern",)),
                Param("out_d2", role="out", extent=("pattern",)),
                Param("parent_partials", extent=_CPS),
                Param("child_partials", extent=_CPS),
                Param("edge_matrices", extent=_CSS),
                Param("d1_matrices", extent=_CSS),
                Param("d2_matrices", extent=_CSS),
                Param("weights", extent=("category",)),
                Param("frequencies", extent=("state",)),
                Param("pattern_weights", extent=("pattern",)),
                Param("cumulative_scale_log", extent=("pattern",)),
            ),
            space=serial_pattern,
            body=(
                InnerProduct("lifted", "child_partials", "edge_matrices",
                             fma=fma),
                InnerProduct("lifted1", "child_partials", "d1_matrices",
                             fma=fma),
                InnerProduct("lifted2", "child_partials", "d2_matrices",
                             fma=fma),
                GradientReduce("out_log_like", "out_d1", "out_d2",
                               "parent_partials", "lifted", "lifted1",
                               "lifted2", "weights", "frequencies",
                               "cumulative_scale_log"),
            ),
            doc="Edge log-likelihood with analytic d/dt and d²/dt² per "
                "pattern:\nthree lifted products (P, rQP, r²Q²P) against "
                "one child, reduced\nagainst the parent in a single pass.",
        ),
        KernelIR(
            name="kernelEdgeGradientsBatch",
            params=(Param("batch", kind="batch"),),
            space=(IterAxis("edge", None, parallel=True),)
            + serial_pattern,
            body=(FusedDispatch("batch"),),
            doc="Fused dispatch of one gradient sweep: every entry is an "
                "independent\nedge-derivative evaluation (one per branch), "
                "so the whole batch\nshares one launch — the one-downward-"
                "sweep half of the 2-traversal\ngradient cost model.",
        ),
    ]
    program = ProgramIR(config=config, kernels=tuple(kernels))
    program.validate()
    return program
