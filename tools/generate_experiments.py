"""Generate EXPERIMENTS.md from the experiment harness.

Run after any recalibration:  python tools/generate_experiments.py
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.bench.harness import ALL_EXPERIMENTS

HEADER = """\
# EXPERIMENTS — paper vs. model-regenerated results

Reproduction of every table and figure in Ayres & Cummings,
*Heterogeneous Hardware Support in BEAGLE* (ICPPW 2017), section VIII.

## Methodology

The reproduction environment has **no GPU, no CUDA/OpenCL runtime, and
2 vCPUs** against the paper's 56 hardware threads, so the paper's
performance landscape cannot be re-measured directly.  Instead (see DESIGN.md section 2):

* every implementation is **functionally real** — the same generated
  kernels, buffer managements, and schedulers execute on NumPy, and the
  test suite asserts bit-level (within FP tolerance) agreement across all
  backends;
* elapsed time on the paper's hardware is **regenerated from a calibrated
  analytic performance model** (`repro.accel.perfmodel`): a roofline with
  a work-based occupancy ramp for accelerators, and a cache/bandwidth/
  overhead model for the CPU execution designs.  Model constants are
  documented in `repro/accel/device.py` and `repro/accel/perfmodel.py`;
* `pytest benchmarks/ --benchmark-only` additionally wall-clock-times the
  functional kernels of every backend on this host (these numbers
  characterise the *reproduction host*, not the paper's machines).

Every table below prints model values next to the published values; the
assertions in `tests/test_bench_harness.py` and `benchmarks/` pin the
tolerances, orderings, and crossovers.

**Paper-value provenance.** Tables III–V are printed in the paper.
Figure-derived values are read off log-scale plots and anchored to exact
numbers quoted in the text (444.92 GFLOPS at 475,081 patterns; 1324.19
GFLOPS at 28,419; 328.78 GFLOPS at 20,092; the 7.6x/13.8x MrBayes GPU
anchors; the abstract's 39-fold codon speedup) — those rows are marked
approximate (`paper~`).

**Table III column reconstruction.** The published PDF's column layout is
recovered from the constraint `speedup = thread-pool / serial`
(e.g. 35.82 x 5.39 = 193.07), identifying the throughput columns as
(serial, futures, thread-create, thread-pool).

## Calibration summary

| Constant set | Fitted against | Where |
|---|---|---|
| Dual-Xeon bandwidths, thread/future/pool overheads, NUMA penalty | Table III (16 cells, grid search; mean log-error ~9%) | `XEON_E5_2680V4_SYSTEM` |
| R9 Nano compute/memory efficiency, ramp, FMA gains | Table IV (8 cells) + Fig. 4 anchors | `RADEON_R9_NANO` |
| OpenCL-x86 compute cap, launch/work-group overheads, GPU-variant penalty | Table V | `CPUSystemModel.x86_*` |
| P5000 / FirePro efficiencies | Fig. 4 curves + Fig. 6 GPU bars | device catalog |
| Xeon Phi system constants | Fig. 6 Phi bars + Fig. 4 "weak under 10^4" | `XEON_PHI_7210_SYSTEM` |
| MrBayes internal rates + overhead fractions | Fig. 6 SSE bars + text anchors | `bench.harness` |

## Known deviations

* **Table IV, single precision at 100k patterns**: the model keeps a
  ~1.8% FMA gain where the paper measures 0.69% — the modelled SP kernel
  at 100k is slightly less memory-bound than the real one.
* **Table V plateau**: the paper shows a mild decline from 256 to 1024
  patterns/work-group (98.36 -> 96.51); the model plateaus flat-to-rising
  (within 5%).  The load-imbalance term that would bend it down is not
  modelled.
* **Fig. 5 knee position**: saturation emerges at ~10-14 threads in the
  model vs ~27 in the paper.  With the single-thread rate pinned to Table
  III's serial 35.8 GFLOPS and the aggregate cache bandwidth pinned by
  Table III's pool rates, the knee (their ratio) is over-determined; the
  paper's own Fig. 5 single-thread point appears to be well below its
  Table III serial rate.
* **Fig. 6 codon double-precision bars** required a DP-codon compute
  penalty (register pressure at 61 states) not independently measurable
  from the paper.

## Thread-pool wall clock

The one measured CPU-threading result.  Eval `full` inputs (perfbench
seed 1: 64 taxa, HKY+Γ4, rescaling on), median ms of one
`log_likelihood()` call; each cell is the median of 4 runs, each run
the median of 21 calls after 3 warm-up calls, parent and change runs
alternating.  Host: 2 vCPUs (Intel Xeon), Python 3.11.7, NumPy 2.4.6.
`cpp-threads` is the thread-pool design.  Before: a scaled traversal
went through the pool once per operation and rescaled the whole array
serially between waves.  After: one wave per traversal, each slice
task rescaling its own slice.  In every run the three columns gave
bit-identical log-likelihoods.

| patterns | cpu-sse | `cpp-threads`, 1 thread | `cpp-threads`, 2 threads |
|---:|---:|---:|---:|
| 2,600, before | 12.9 | 12.8 | 20.7 |
| 2,600, after | 9.9 | 12.2 | 15.3 |
| 12,000, before | 55.2 | 52.2 | 74.7 |
| 12,000, after | 54.4 | 56.0 | 60.0 |

Run-to-run spread is wide (2,600-pattern cpu-sse before: 10.1–14.0 ms),
so only the 2-thread column moved beyond it.  Two threads still lose
to one on CPython: each slice task makes many short NumPy calls, and
the interpreter lock serialises the Python between them.

## Regenerated tables

Regenerate at any time with `pybeagle-experiments` or
`python tools/generate_experiments.py`.

"""


def main() -> int:
    from repro.util.asciiplot import plot_experiment

    parts = [HEADER]
    for name, fn in ALL_EXPERIMENTS.items():
        result = fn()
        parts.append(f"### {name}\n\n```")
        parts.append(result.table())
        parts.append("```")
        if result.notes:
            parts.append(f"\n*{result.notes}*")
        if name.startswith("fig4") or name == "fig5":
            linear = name == "fig5"
            parts.append("\n```")
            parts.append(plot_experiment(
                result, log_x=not linear, log_y=not linear,
            ))
            parts.append("```")
        parts.append("")
    out = Path(__file__).parent.parent / "EXPERIMENTS.md"
    out.write_text("\n".join(parts))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
