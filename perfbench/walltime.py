"""Where wall time goes in one likelihood evaluation, per backend.

Built from the spans of a traced ``eval`` run: for each op kind, the
median per op of every layer's self time, and its share of the op's
median wall time.
"""

from __future__ import annotations

from typing import Dict, List

from common import median

#: op kind -> how the op is configured, for the table heading.
OP_LABELS = {
    "full": "cpu-sse, 4-state HKY+G4, eager, rescaling",
    "codon": "cuda-sim, 61-state GY94, deferred",
    "grad": "cuda-sim, 4-state HKY+G4, branch gradients",
}


def per_op_self_times(spans, kind: str) -> Dict[str, List[float]]:
    """Self time of each span name, one entry per op of ``kind``."""
    root = f"op.{kind}"
    ops: Dict[int, Dict[str, float]] = {}
    for i, own in enumerate(spans.own_times()):
        top = i
        while spans.parent[top] >= 0:
            top = spans.parent[top]
        if spans.names[top] == root:
            per = ops.setdefault(top, {})
            per[spans.names[i]] = per.get(spans.names[i], 0.0) + own
    names = sorted({n for per in ops.values() for n in per})
    return {n: [per.get(n, 0.0) for per in ops.values()] for n in names}


def table(spans, measured_on: str) -> str:
    lines = ["# Where wall time goes in one likelihood evaluation", "",
             "Median self time per op of each layer, from a traced `eval` "
             "run (`python3 perfbench/run.py --workload eval --trace 1`). "
             "`op.*` self time is span bookkeeping and glue between layer "
             "calls.", "", measured_on, ""]
    for kind in ("full", "codon", "grad"):
        selfs = per_op_self_times(spans, kind)
        if not selfs:
            continue
        wall = median(spans.durations(f"op.{kind}"))
        lines.append(f"## {kind}: {OP_LABELS[kind]}")
        lines.append("")
        count = len(spans.durations(f"op.{kind}"))
        lines.append(f"Op wall time (median of {count} ops): "
                     f"{wall * 1e3:.2f} ms")
        lines.append("")
        lines.append("| layer | self ms | share |")
        lines.append("|---|---:|---:|")
        rows = sorted(selfs.items(), key=lambda kv: -median(kv[1]))
        for name, values in rows:
            m = median(values)
            lines.append(f"| `{name}` | {m * 1e3:.3f} | {m / wall:.1%} |")
        lines.append("")
    return "\n".join(lines)
