"""Static dataflow verification of kernel IR bodies.

:mod:`repro.accel.ir` gives every backend one portable kernel
representation; this module gives it portable *verification*.  The
structural checks in :meth:`~repro.accel.ir.KernelIR.validate` accept
any body whose operands are defined — they would happily lower a kernel
that reads a shared-memory tile mid-copy or fences under a divergent
guard.  The dataflow verifier closes that gap with four hazard families,
all checked without executing anything:

* **local-race** — a read (or second staged write) of an operand a
  :class:`~repro.accel.ir.LocalTile` is copying in, with no intervening
  :class:`~repro.accel.ir.Barrier`.  Every work-item participates in the
  staging copy, so touching the staged operand before the barrier races
  with another work-item's in-flight write (section VII-B.1's tiles are
  exactly this pattern, barrier included).

* **barrier-divergence** — a barrier reachable under a
  :class:`~repro.accel.ir.Guarded` condition that depends on a parallel
  axis (work-item-dependent: only some work-items arrive) or on a
  runtime-sized sequential axis (non-uniform trip count).  Both deadlock
  a work-group on real hardware.

* **read-before-write / write-to-input** — dataflow against the
  declared :class:`~repro.accel.ir.Param` roles: an ``out`` buffer read
  before any statement writes it is garbage in, and a write to an
  ``in`` buffer corrupts a caller-owned operand.

* **param-oob** — each statement's known symbolic access shape checked
  against the declared ``Param.extent``; in particular a
  :class:`~repro.accel.ir.StateGather` indexes the gap column at
  ``STATE_COUNT``, so its matrices must be declared ``state+1`` wide.

* **fused-aliasing** — a :class:`~repro.accel.ir.FusedDispatch` mixed
  with direct buffer statements (or a second dispatch) in one body:
  the dispatched batch's internal buffers cannot be proven disjoint
  from the direct accesses, so the fusion is rejected.

Wired as a validate-before-emit step in every lowering
(:meth:`repro.accel.lower.Lowering.lower`), as a candidate-pruning
filter in the autotuner, and surfaced via ``Session.verify()`` and
``pybeagle-verify --ir``.  Findings are ordinary
:class:`~repro.analysis.diagnostics.Diagnostic` records with
``source="ir"``.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.accel.ir import (
    AccumulateLogFactors,
    Barrier,
    DynamicRescale,
    FusedDispatch,
    GradientReduce,
    InnerProduct,
    KernelConfig,
    KernelIR,
    LocalTile,
    LogWithScale,
    MatrixExpADB,
    Multiply,
    ProgramIR,
    StateGather,
    Stmt,
    walk_stmts,
)
from repro.analysis.diagnostics import Diagnostic, Severity

__all__ = ["verify_kernel_ir", "verify_program_ir"]

_SOURCE = "ir"

#: Symbolic buffer shapes the statement emitters access.
_CPS = ("category", "state", "pattern")
_CSS = ("category", "state", "state")
_CSX = ("category", "state", "state+1")

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: Condition tokens that never carry work-item identity.
_UNIFORM_TOKENS = frozenset({
    "and", "or", "not", "if", "else", "True", "False", "None",
    "min", "max", "abs",
})


def _identifiers(expr: str) -> List[str]:
    """Identifier tokens of a free-form IR expression."""
    return [t for t in _IDENT.findall(expr) if t not in _UNIFORM_TOKENS]


def _stmt_reads(stmt: Stmt) -> List[str]:
    """Buffer names a statement reads (expressions split to tokens)."""
    out: List[str] = []
    for operand in stmt.operands():
        if operand.isidentifier():
            out.append(operand)
        else:
            out.extend(_identifiers(operand))
    return out


def _stmt_writes(stmt: Stmt) -> Tuple[str, ...]:
    """Buffer names a statement writes (semantic, not just SSA dests:
    the in-place statements mutate operands their ``dest_names`` omit).
    """
    if isinstance(stmt, DynamicRescale):
        return (stmt.partials, stmt.scale_factors_log)
    if isinstance(stmt, AccumulateLogFactors):
        return (stmt.cumulative,)
    if isinstance(stmt, LogWithScale):
        return (stmt.out,)
    return stmt.dest_names()


def _required_extents(stmt: Stmt) -> Dict[str, Tuple[str, ...]]:
    """Symbolic shape each named operand must provide for ``stmt``."""
    if isinstance(stmt, InnerProduct):
        return {stmt.partials: _CPS, stmt.matrices: _CSS, stmt.dest: _CPS}
    if isinstance(stmt, StateGather):
        # The gather reads column STATE_COUNT (the all-ones gap column),
        # so the matrices must carry the extended state+1 trailing dim.
        return {stmt.states: ("pattern",), stmt.matrices_ext: _CSX,
                stmt.dest: _CPS}
    if isinstance(stmt, Multiply):
        return {stmt.a: _CPS, stmt.b: _CPS, stmt.dest: _CPS}
    if isinstance(stmt, MatrixExpADB):
        return {
            stmt.dest: ("branch", "category", "state", "state"),
            stmt.eigenvectors: ("state", "state"),
            stmt.inv_eigenvectors: ("state", "state"),
            stmt.eigenvalues: ("state",),
            stmt.lengths_rates: ("branch", "category"),
        }
    if isinstance(stmt, DynamicRescale):
        return {stmt.partials: _CPS, stmt.scale_factors_log: ("pattern",)}
    if isinstance(stmt, AccumulateLogFactors):
        return {stmt.cumulative: ("pattern",)}
    if isinstance(stmt, LogWithScale):
        return {stmt.out: ("pattern",)}
    if isinstance(stmt, GradientReduce):
        return {
            stmt.parent: _CPS,
            stmt.lifted: _CPS,
            stmt.lifted1: _CPS,
            stmt.lifted2: _CPS,
            stmt.weights: ("category",),
            stmt.frequencies: ("state",),
            stmt.scale: ("pattern",),
            stmt.out_log_like: ("pattern",),
            stmt.out_d1: ("pattern",),
            stmt.out_d2: ("pattern",),
        }
    if isinstance(stmt, Stmt) and type(stmt).__name__ == "SiteReduce":
        required = {}
        for name in _identifiers(getattr(stmt, "partials_expr")):
            required[name] = _CPS
        required[getattr(stmt, "weights")] = ("category",)
        required[getattr(stmt, "frequencies")] = ("state",)
        return required
    return {}


def _extent_violation(
    declared: Tuple[str, ...], required: Tuple[str, ...]
) -> Optional[str]:
    """Why ``required`` access exceeds the ``declared`` extent, if so."""
    if len(declared) != len(required):
        return (
            f"accessed as rank-{len(required)} "
            f"({'x'.join(required)}) but declared rank-{len(declared)} "
            f"({'x'.join(declared)})"
        )
    for dim, (have, need) in enumerate(zip(declared, required)):
        if have == need:
            continue
        if have == "state+1" and need == "state":
            continue  # reading within the extended buffer is in bounds
        if have == "state" and need == "state+1":
            return (
                f"dim {dim} indexes the gap column at STATE_COUNT but "
                f"the buffer is declared only {have!r} wide"
            )
        return f"dim {dim} accessed as {need!r} but declared {have!r}"
    return None


class _KernelVerifier:
    """One kernel's dataflow walk; collects diagnostics as it goes."""

    def __init__(self, kernel: KernelIR, config: KernelConfig) -> None:
        self.kernel = kernel
        self.config = config
        self.params = {p.name: p for p in kernel.params}
        self.parallel_axes = {a.name for a in kernel.space if a.parallel}
        self.runtime_axes = {
            a.name for a in kernel.space
            if not a.parallel and a.extent is None
        }
        self.scalars = {
            p.name for p in kernel.params if p.kind == "scalar"
        }
        self.diagnostics: List[Diagnostic] = []

    def _report(self, severity: Severity, code: str, message: str,
                suggestion: Optional[str] = None) -> None:
        self.diagnostics.append(Diagnostic(
            severity=severity,
            code=code,
            message=message,
            source=_SOURCE,
            location=self.kernel.name,
            suggestion=suggestion,
        ))

    def run(self) -> List[Diagnostic]:
        #: Params staged by tiles since the last barrier, per tile name.
        pending: Dict[str, Set[str]] = {}
        written: Set[str] = set()
        dispatches = 0
        touches_buffers = False
        for stmt, guards in walk_stmts(self.kernel.body):
            reads = _stmt_reads(stmt)
            writes = _stmt_writes(stmt)
            if isinstance(stmt, LocalTile):
                self._check_tile_overlap(stmt, pending)
                pending[stmt.name] = set(stmt.stages)
                continue
            if isinstance(stmt, Barrier):
                self._check_divergence(guards)
                pending.clear()
                continue
            if isinstance(stmt, FusedDispatch):
                dispatches += 1
                self._check_dispatch(stmt, dispatches)
                continue
            if reads or writes:
                touches_buffers = touches_buffers or any(
                    name in self.params for name in (*reads, *writes)
                )
            self._check_staged_race(stmt, reads, writes, pending)
            self._check_roles(stmt, reads, writes, written)
            self._check_extents(stmt)
            written.update(writes)
        if dispatches and touches_buffers:
            self._report(
                Severity.ERROR, "fused-aliasing",
                "FusedDispatch shares the body with direct buffer "
                "statements; the dispatched operations' buffers cannot "
                "be proven disjoint from the direct accesses",
                suggestion="move the direct statements into their own "
                           "kernel or into the dispatched batch",
            )
        return self.diagnostics

    # -- individual checks --------------------------------------------------

    def _check_tile_overlap(self, tile: LocalTile,
                            pending: Dict[str, Set[str]]) -> None:
        if tile.name in pending:
            self._report(
                Severity.ERROR, "local-race",
                f"local tile {tile.name!r} staged twice with no "
                "barrier between the copies (write-write race on the "
                "tile region)",
                suggestion="insert a Barrier between the stagings",
            )
            return
        staged = set().union(*pending.values()) if pending else set()
        overlap = staged & set(tile.stages)
        if overlap:
            self._report(
                Severity.ERROR, "local-race",
                f"local tile {tile.name!r} re-stages "
                f"{sorted(overlap)} while an earlier tile's copy of the "
                "same operand(s) is still in flight",
                suggestion="insert a Barrier between the stagings",
            )

    def _check_staged_race(self, stmt: Stmt, reads: List[str],
                           writes: Tuple[str, ...],
                           pending: Dict[str, Set[str]]) -> None:
        if not pending:
            return
        staged: Set[str] = set().union(*pending.values())
        racy_reads = staged.intersection(reads)
        racy_writes = staged.intersection(writes)
        for name in sorted(racy_reads):
            self._report(
                Severity.ERROR, "local-race",
                f"{type(stmt).__name__} reads {name!r} while its "
                "local-memory staging copy is still in flight (no "
                "barrier since the tile)",
                suggestion="insert a Barrier after the staging tiles",
            )
        for name in sorted(racy_writes - racy_reads):
            self._report(
                Severity.ERROR, "local-race",
                f"{type(stmt).__name__} writes {name!r} while its "
                "local-memory staging copy is still in flight (no "
                "barrier since the tile)",
                suggestion="insert a Barrier after the staging tiles",
            )

    def _check_divergence(self, guards: Tuple[str, ...]) -> None:
        for cond in guards:
            tokens = set(_identifiers(cond))
            divergent = tokens & self.parallel_axes
            if divergent:
                self._report(
                    Severity.ERROR, "barrier-divergence",
                    f"Barrier guarded by {cond!r}, which depends on "
                    f"parallel axis {sorted(divergent)}: only some "
                    "work-items reach the fence, deadlocking the "
                    "work-group",
                    suggestion="hoist the barrier out of the guard",
                )
                continue
            nonuniform = tokens & self.runtime_axes
            if nonuniform:
                self._report(
                    Severity.ERROR, "barrier-divergence",
                    f"Barrier guarded by {cond!r}, which depends on "
                    f"runtime-sized axis {sorted(nonuniform)}: the "
                    "guard's trip count is not uniform across the "
                    "work-group",
                    suggestion="hoist the barrier out of the guard",
                )
                continue
            if not tokens <= self.scalars:
                unknown = sorted(tokens - self.scalars)
                self._report(
                    Severity.WARNING, "barrier-divergence",
                    f"Barrier guarded by {cond!r}; cannot prove "
                    f"{unknown} uniform across the work-group",
                    suggestion="guard barriers only on scalar params",
                )

    def _check_roles(self, stmt: Stmt, reads: List[str],
                     writes: Tuple[str, ...], written: Set[str]) -> None:
        for name in reads:
            param = self.params.get(name)
            if param is None or param.role != "out":
                continue
            if name not in written and name not in writes:
                self._report(
                    Severity.ERROR, "read-before-write",
                    f"{type(stmt).__name__} reads output param "
                    f"{name!r} before anything writes it (undefined "
                    "contents)",
                    suggestion=f"declare {name!r} role='inout' if the "
                               "caller provides initial contents",
                )
        for name in writes:
            param = self.params.get(name)
            if param is not None and param.role == "in":
                self._report(
                    Severity.ERROR, "write-to-input",
                    f"{type(stmt).__name__} writes input param "
                    f"{name!r}, corrupting a caller-owned operand",
                    suggestion=f"declare {name!r} role='out' or "
                               "'inout'",
                )

    def _check_extents(self, stmt: Stmt) -> None:
        for name, required in _required_extents(stmt).items():
            param = self.params.get(name)
            if param is None or param.extent is None:
                continue
            problem = _extent_violation(param.extent, required)
            if problem:
                self._report(
                    Severity.ERROR, "param-oob",
                    f"{type(stmt).__name__} on param {name!r}: "
                    f"{problem}",
                    suggestion=f"declare extent={required!r}",
                )

    def _check_dispatch(self, stmt: FusedDispatch,
                        dispatches: int) -> None:
        param = self.params.get(stmt.batch)
        if param is not None and param.kind != "batch":
            self._report(
                Severity.ERROR, "fused-aliasing",
                f"FusedDispatch operand {stmt.batch!r} has kind "
                f"{param.kind!r}, not 'batch'; the launch path cannot "
                "marshal it as a fused level",
            )
        if dispatches > 1:
            self._report(
                Severity.ERROR, "fused-aliasing",
                "multiple FusedDispatch statements in one body: the "
                "batches' buffers cannot be proven disjoint",
                suggestion="fuse into one batch or split the kernel",
            )


def verify_kernel_ir(
    kernel: KernelIR, config: KernelConfig
) -> List[Diagnostic]:
    """Dataflow-verify one kernel body; returns diagnostics."""
    return _KernelVerifier(kernel, config).run()


def verify_program_ir(program: ProgramIR) -> List[Diagnostic]:
    """Dataflow-verify every kernel of a program.

    Complements :meth:`~repro.accel.ir.ProgramIR.validate` (which
    raises on *structural* breakage): this pass reports semantic
    hazards as :class:`Diagnostic` records, letting callers choose
    between pruning (the autotuner), failing the build (the lowerings),
    and reporting (``pybeagle-verify --ir``).
    """
    out: List[Diagnostic] = []
    for kernel in program.kernels:
        out.extend(verify_kernel_ir(kernel, program.config))
    return out
