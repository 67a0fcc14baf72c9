"""Shared pieces of the wall-clock benchmark: spans, statistics, inputs.

Nothing here imports NumPy or the library under test at module level,
so ``run.py`` can fix the process environment (BLAS threads, tuning
cache) before they load.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import statistics
import struct
import sys
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Sequence

clock = time.perf_counter

#: An op kind's tail latency is the mean of its slowest ``TAIL_SHARE`` of
#: ops, without the slowest tenth of those (a single stall).  A percentile
#: would jump between the host's fast and slow regimes (see ``TRIM``); a
#: mean over the slowest quarter moves smoothly with the share of the run
#: spent in each.  ``tail_ratio.*`` reports it over the op kind's
#: ``mean_ms``: the tail in ms moved with the host's speed half as much
#: again as the mean did, the ratio much less.  Every op kind is sized to
#: at least ``MIN_SAMPLES`` ops per run, so at least 10 lie beyond its
#: p75 (``spec.py`` checks).
TAIL_SHARE = 0.25
MIN_SAMPLES = 40

#: Share of the fastest and of the slowest ops ``mean_ms.*`` leaves out.
#: The host alternates between a fast and a slow regime for seconds at a
#: time, so an op kind's latencies are bimodal and their median jumps
#: between the two modes with the share of the run spent in each; a mean
#: moves with that share smoothly, and trimming keeps a single stall out.
TRIM = 0.1

#: Relative tolerance for comparisons between *different* backends
#: (rescaling and kernel lowering may round the last bits differently).
#: Same-backend comparisons are exact.
CROSS_BACKEND_RTOL = 1e-10

#: Relative tolerance for replaying a value on the *same* backend with a
#: different history.  This is an open defect of the program: transition
#: matrices computed in one batch differ in the last bits from the same
#: matrices computed one at a time, and the matrix cache serves whichever
#: was computed first, so a pooled or long-lived instance can disagree
#: with a fresh one by an ulp or two.  Such values pass only while their
#: share stays within the workload's measured cap (``Replay``); they are
#: counted in ``check.inexact_frac``.
REPLAY_RTOL = 1e-12


# -- spans --


class Spans:
    """In-memory span recorder used only by traced runs.

    Each span is ``(name, start, end, parent, op)``: ``parent`` is the
    index of the enclosing span (or -1) and ``op`` the id of the
    benchmark operation it belongs to.  Spans are written out once, at
    the end of the run.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.parent: List[int] = []
        self.op: List[int] = []
        self._stack: List[int] = []
        self.op_id = -1

    @contextmanager
    def span(self, name: str):
        index = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(clock())
        try:
            yield
        finally:
            self.end[index] = clock()
            self._stack.pop()

    def durations(self, name: str, within: Optional[str] = None
                  ) -> List[float]:
        """Durations of spans called ``name`` (inside ``within`` spans)."""
        return [
            self.end[i] - self.start[i]
            for i, n in enumerate(self.names)
            if n == name and (within is None or self._inside(i, within))
        ]

    def _inside(self, index: int, name: str) -> bool:
        p = self.parent[index]
        while p >= 0:
            if self.names[p] == name:
                return True
            p = self.parent[p]
        return False

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def own_times(self) -> List[float]:
        """Self time of every span: its duration minus its children's."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def self_times(self, root: Optional[str] = None) -> Dict[str, float]:
        """Summed self time per span name.

        With ``root`` given, only spans inside (or equal to) spans of
        that name count.
        """
        out: Dict[str, float] = {}
        for i, own in enumerate(self.own_times()):
            n = self.names[i]
            if root is None or n == root or self._inside(i, root):
                out[n] = out.get(n, 0.0) + own
        return out

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, n in enumerate(self.names):
                fh.write(json.dumps({
                    "name": n, "start": self.start[i], "end": self.end[i],
                    "parent": self.parent[i], "op": self.op[i],
                }) + "\n")


class NoSpans:
    """Stand-in for :class:`Spans` in untraced runs."""

    op_id = -1

    @contextmanager
    def span(self, name: str):
        yield


# -- statistics --


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1])."""
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
    return ordered[rank - 1]


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def trimmed_mean(values: Sequence[float], trim: float = TRIM) -> float:
    """Mean of ``values`` without the ``trim`` share at either end."""
    ordered = sorted(values)
    cut = int(len(ordered) * trim)
    return statistics.fmean(ordered[cut:len(ordered) - cut])


class OpLog:
    """Per-op-kind latencies, attempts and failures of one run.

    ``digest`` hashes every op's kind and value, so a traced and an
    untraced run of one seed can be compared bit for bit.  With
    ``digits`` set, values enter the digest rounded to that many
    significant digits (for results that may replay inexactly, see
    ``REPLAY_RTOL``).
    """

    def __init__(self, kinds: Sequence[str],
                 digits: Optional[int] = None) -> None:
        self.digits = digits
        self.latency: Dict[str, List[float]] = {k: [] for k in kinds}
        #: ``clock()`` at the end of each op, parallel to ``latency``.
        self.ends: Dict[str, List[float]] = {k: [] for k in kinds}
        self.attempted = 0
        self.failed = 0
        self.window_s = 0.0
        self.digest = hashlib.sha256()

    def record(self, kind: str, seconds: float, ok: bool, value,
               end: float) -> None:
        self.attempted += 1
        self.latency[kind].append(seconds)
        self.ends[kind].append(end)
        if not ok:
            self.failed += 1
        self.digest.update(kind.encode())
        self.digest.update(_value_bytes(value, self.digits))

    def scaled(self, scale) -> "OpLog":
        """A copy whose every latency is multiplied by ``scale(end)``."""
        out = OpLog(list(self.latency), self.digits)
        out.attempted, out.failed = self.attempted, self.failed
        out.window_s, out.digest = self.window_s, self.digest
        out.ends = self.ends
        out.latency = {k: [s * scale(t) for s, t in zip(v, self.ends[k])]
                       for k, v in self.latency.items()}
        return out

    def busy_s(self) -> float:
        """Summed latency of every op."""
        return sum(sum(v) for v in self.latency.values())

    def mean_ms(self, kind: str) -> float:
        return trimmed_mean(self.latency[kind]) * 1e3

    def tail_ms(self, kind: str) -> float:
        ordered = sorted(self.latency[kind])
        slowest = ordered[int(len(ordered) * (1 - TAIL_SHARE)):]
        kept = slowest[:len(slowest) - len(slowest) // 10]
        return statistics.fmean(kept) * 1e3


def _value_bytes(value, digits: Optional[int] = None) -> bytes:
    if isinstance(value, (list, tuple)):
        return b"".join(_value_bytes(v, digits) for v in value)
    if hasattr(value, "tobytes"):
        return value.tobytes()
    if digits is not None:
        return f"{float(value):.{digits - 1}e}".encode()
    return struct.pack("<d", float(value))


def close_enough(a: float, b: float, rtol: float = CROSS_BACKEND_RTOL) -> bool:
    return math.isfinite(a) and abs(a - b) <= rtol * max(abs(a), abs(b))


class Replay:
    """Same-backend checks: exact, or within ``REPLAY_RTOL`` while the
    share of inexact values stays at most ``max_inexact_frac``.

    The cap is what the workload measures at the commit that set it; a
    change that makes more values inexact fails the run (``within_cap``).
    """

    def __init__(self, max_inexact_frac: float = 0.0) -> None:
        self.max_inexact_frac = max_inexact_frac
        self.checked = 0
        self.inexact = 0

    def same(self, values: Sequence[float], expected: Sequence[float]) -> bool:
        self.checked += len(expected)
        if len(values) != len(expected):
            return False
        ok = True
        for a, b in zip(values, expected):
            if a != b:
                self.inexact += 1
                ok = ok and close_enough(a, b, REPLAY_RTOL)
        return ok

    @property
    def inexact_frac(self) -> float:
        return self.inexact / self.checked if self.checked else 0.0

    def within_cap(self) -> bool:
        if self.inexact_frac <= self.max_inexact_frac:
            return True
        print(f"perfbench: {self.inexact} of {self.checked} checked values "
              f"matched only within {REPLAY_RTOL:g} (share "
              f"{self.inexact_frac:.3f} > cap {self.max_inexact_frac:.3f})",
              file=sys.stderr)
        return False


# -- host --


def settle() -> None:
    """Collect garbage so earlier work's leftovers are not timed later."""
    import gc

    gc.collect()


#: Set-up repetitions per run, half before and half after the timed
#: window: the host's speed drifts within a run, and ``setup_s`` (their
#: median) should see the same drift as the ops rather than only the
#: first seconds of the run.
SETUP_REPS = 8


#: Host-reference samples (``hostref.HostRef``) taken after each set-up.
SETUP_REF_SAMPLES = 3


def repeat_set_up(set_up, close, reps: int, times: List[tuple], host,
                  check=None):
    """Run ``set_up()`` ``reps`` times, appending ``(duration, end)`` of
    each to ``times``; ``check(result)`` runs untimed after each, and so
    do ``SETUP_REF_SAMPLES`` samples of the host reference ``host``.
    Every result but the last is passed to ``close``; the last is
    returned."""
    result = None
    for _ in range(reps):
        if result is not None:
            close(result)
        settle()
        t0 = clock()
        result = set_up()
        end = clock()
        times.append((end - t0, end))
        for _ in range(SETUP_REF_SAMPLES):
            host.sample("setup")
        if check is not None:
            check(result)
    return result


_window_faults = [0]


def start_window() -> None:
    """Settle, then restart the process's peak-RSS mark (Linux) and
    note its page-fault count.

    Set-up builds and discards instances, and its transient peak varied
    by a quarter between runs of one seed; restarting the mark makes
    ``peak_rss_mb`` the peak of the timed window alone.
    """
    settle()
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")
    _window_faults[0] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def end_window():
    """``(peak RSS in MB, minor page faults)`` since ``start_window``
    (Linux reports the peak in KiB)."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_maxrss / 1024.0, usage.ru_minflt - _window_faults[0]


def host_ref_ms() -> float:
    """A fixed compute-bound NumPy reference, median of 7 timings.

    Reported beside the results as a drift diagnostic, never used to
    normalise or gate them.
    """
    import numpy as np

    a = np.random.default_rng(0).random((192, 192))
    times = []
    for _ in range(7):
        t0 = clock()
        for _ in range(20):
            b = a @ a
        times.append(clock() - t0)
        a = b / b.max()
    return median(times) * 1e3


def environment() -> Dict[str, object]:
    import platform

    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


# -- inputs --


def scaled_tree(n_tips: int, seed: int, topology: int = 0,
                height: float = 0.5):
    """A tree of fixed topology with seeded branch lengths.

    The topology is one Yule tree per ``(n_tips, topology)``, the same
    for every seed, so the work an evaluation does (levels, depth of a
    branch) does not vary with the seed; the seed draws the branch
    lengths, which are rescaled to a root-to-tip height in subs/site.
    """
    import numpy as np

    from repro.tree import yule_tree

    tree = yule_tree(n_tips, rng=[1000 + n_tips, topology])
    rng = np.random.default_rng([seed, n_tips])
    for node in tree.root.postorder():
        if not node.is_root:
            node.branch_length *= float(rng.lognormal(0.0, 0.3))
    depth = 0.0
    node = next(iter(tree.root.tips()))
    while not node.is_root:
        depth += node.branch_length
        node = node.parent
    tree.scale_branches(height / depth)
    return tree


def draw_lengths(tree, rng, low: float = 0.005, high: float = 0.08) -> None:
    """Give every branch a fresh seeded length (forces matrix-cache misses)."""
    for node in tree.root.postorder():
        if not node.is_root:
            node.branch_length = float(rng.uniform(low, high))


def alignment_with_patterns(tree, model, n_patterns, site_model, rng):
    """A simulated alignment with exactly ``n_patterns`` unique columns.

    Simulates more sites than needed and keeps only the sites of the
    first ``n_patterns`` distinct columns, so the work per evaluation
    does not vary with the seed.
    """
    from repro.seq.patterns import compress_patterns
    from repro.seq.simulate import simulate_alignment

    n_sites = int(n_patterns * 1.5)
    while True:
        aln = simulate_alignment(tree, model, n_sites, site_model,
                                 rng=int(rng.integers(2**31)))
        site_to_pattern = compress_patterns(aln).site_to_pattern
        if site_to_pattern.max() + 1 >= n_patterns:
            keep = [i for i, p in enumerate(site_to_pattern)
                    if p < n_patterns]
            return aln.sites(keep)
        n_sites *= 2
