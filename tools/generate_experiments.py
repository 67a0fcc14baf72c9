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

## MCMC restore by buffer flip

`python3 perfbench/run.py --workload mcmc --seconds 12`, untraced, on
a 2-vCPU host (Python 3.11.7, NumPy 2.4.6): eleven parent/change pairs
(seeds 1–10 and 4242), alternating which side ran first.  Parent:
a rejected proposal recomputes its move.  Change: it flips buffer
slots back (DESIGN choice 20) plus the `scipy.stats`-free import.
Median [quartiles]; a generation is one op, restore included.

| metric | parent | change | change wins |
|---|---:|---:|---:|
| `rate_per_s` | 96.1 [88.6, 103.7] | 174.5 [168.8, 186.5] | 11/11 |
| `mean_ms.a` (branch multiplier) | 2.73 [2.49, 2.89] | 1.88 [1.80, 1.98] | 11/11 |
| `mean_ms.b` (NNI) | 23.1 [21.1, 24.6] | 12.3 [11.5, 12.7] | 11/11 |
| `mean_ms.c` (kappa/alpha) | 28.9 [27.2, 30.5] | 13.5 [12.9, 14.0] | 11/11 |
| `tail_ratio.a` | 1.51 [1.49, 1.53] | 1.36 [1.33, 1.38] | 11/11 |
| `tail_ratio.b` | 1.17 [1.13, 1.20] | 1.12 [1.08, 1.18] | 6/11 |
| `tail_ratio.c` | 1.14 [1.13, 1.17] | 1.09 [1.09, 1.16] | 7/11 |
| `peak_rss_mb` | 154.0 [153.8, 154.1] | 144.5 [144.3, 144.6] | 11/11 |
| `setup_s` | 0.199 [0.170, 0.225] | 0.217 [0.165, 0.230] | 4/11 |
| `ok_frac` | 1.0 | 1.0 | — |

`rate_per_s` rose 1.82× in the median, and the medians differ by far
more than the parent's interquartile range (15.1/s).  Every pair gave
the same `results_sha256`, and no run had a mismatch.  For `--seed 3
--seconds 3`, traced and untraced runs at both commits all gave
`80830b9d…8432`.  NNI and parameter generations halve because more
than nine in ten of them are rejected (seed 1, 480 generations: NNI
101 of 103, kappa/alpha 57 of 62, branch multiplier 199 of 315), and a
rejected one no longer pays a second full traversal.  The traced `mcmc.restore_ms` does not show
this: perfbench's traced proxy (`wl_mcmc.TimedBackend`) still
recomputes.  The per-layer evidence is a count instead:
`tests/test_chain_restore.py` checks that `BeagleBackend.restore`
adds 0 to `partials.operations` and to `matrix.updates` after rejected
branch, NNI and parameter moves.  The spare partials cost about 30 MB
(47 internal nodes × 4 categories × 4 states × 5,000 patterns × 8 B).
Dropping `scipy.stats` from the import path saves more than that, so
`peak_rss_mb` still fell.

The other workloads never open a store point.  Five pairs each (seeds
1–5, same host and settings), medians:

| workload | `rate_per_s` | `mean_ms.a` / `.b` / `.c` | worst `tail_ratio` change | `peak_rss_mb` |
|---|---:|---:|---:|---:|
| eval | 26.0 → 26.4 | 14.3 / 30.1 / 70.4 → 13.7 / 29.6 / 67.7 | −2% | 296 → 254 |
| serve | 10.86 → 10.86 | 22.9 / 23.7 / 49.8 → 22.2 / 22.4 / 45.8 | −1% | 147 → 109 |
| split | 14.7 → 14.3 | 43.5 / 38.0 / 124.7 → 46.0 / 38.7 / 130.2 | +3.5% | 174 → 153 |

All stay inside their bounds, with the same `results_sha256` on every
pair.  split is 2–6% slower.  It rebuilds its two instances on every
re-split, and each rebuild now allocates the spare slots too; two
traced runs per side put `split.resplit_ms` at 24–25 ms before and
28–32 ms after.

## Transition-matrix cache removed

`python3 perfbench/run.py --workload <w> --seconds 12`, untraced, on a
2-vCPU host (Python 3.11.7, NumPy 2.4.6): ten parent/change pairs per
workload (seeds 1–10), alternating which side ran first.  Parent: an
LRU memo of transition matrices (up to 256 entries per instance).
Change: no memo; every matrix update computes its matrices (DESIGN
choice 7).  Median [quartiles]; "wins" counts pairs where the change
reads better.  This change claims no gain: it is judged on holding
every bound.

| workload | metric | parent | change | wins |
|---|---|---:|---:|---:|
| eval | `peak_rss_mb` | 254.3 [254.3, 254.4] | 218.5 [218.4, 218.6] | 10/10 |
| eval | `rate_per_s` | 22.9 [22.5, 23.1] | 23.3 [23.1, 23.6] | 9/10 |
| eval | `mean_ms.a` / `.b` / `.c` | 16.9 / 35.6 / 77.4 | 16.3 / 35.0 / 75.5 | 10, 7, 8 |
| eval | worst `tail_ratio` | `.c` 1.13 [1.10, 1.17] | `.c` 1.09 [1.07, 1.14] | 7/10 |
| mcmc | `rate_per_s` | 190.7 [189.2, 192.8] | 191.8 [187.0, 194.1] | 6/10 |
| mcmc | `mean_ms.a` / `.b` / `.c` | 1.82 / 10.98 / 12.21 | 1.80 / 11.03 / 12.04 | 7, 5, 8 |
| mcmc | worst `tail_ratio` | `.c` 1.10 [1.07, 1.10] | `.c` 1.12 [1.08, 1.15] | 2/10 |
| mcmc | `peak_rss_mb` | 144.5 | 144.2 | 8/10 |
| serve | `rate_per_s` | 10.87 | 10.87 | 6/10 |
| serve | `mean_ms.a` / `.b` / `.c` | 19.7 / 19.8 / 42.2 | 20.3 / 20.0 / 42.1 | 5, 6, 4 |
| serve | worst `tail_ratio` | `.a` 1.27 [1.25, 1.31] | `.a` 1.30 [1.26, 1.37] | 3/10 |
| serve | `peak_rss_mb` | 109.2 | 109.0 | 9/10 |
| split | `rate_per_s` | 14.8 [14.7, 15.1] | 15.6 [15.4, 15.7] | 9/10 |
| split | `mean_ms.a` / `.b` / `.c` | 41.4 / 36.8 / 125.3 | 36.2 / 36.3 / 123.1 | 9, 7, 10 |
| split | worst `tail_ratio` | `.a` 1.32 [1.28, 1.36] | `.a` 1.39 [1.36, 1.44] | 3/10 |
| split | `peak_rss_mb` | 145.7 [140.4, 154.0] | 153.0 [152.6, 158.3] | 2/10 |

`setup_s` and `ok_frac` moved by under 2% (`ok_frac` 1.0 everywhere,
no failed op).  Every metric on every workload stays inside its
bound.  The closest is split `peak_rss_mb`, +5.0% against a 0.10
bound, with a parent interquartile range of 13.5 MB (9.3%); its
`tail_ratio.a` rose 5.2% against 0.25.  split's shares come from the
mixed-clock rebalancer (ROADMAP item 5): cheaper host matrix updates
move work between the devices.  One traced seed-3 run per side read
`split.share.gpu` 0.919 → 0.925 and `host.page_faults_per_op` 45.6 →
76.0.

Per layer (one traced seed-3 run per side, 12 s): eval's
`matrices.update_ms` (the cpu-sse op's matrix update) fell 0.524 →
0.237 ms and `host.page_faults_per_op` 10.4 → 0.14; that is where
the memory went, since eval's cache hit rate was 0.  mcmc's
`matrices.count` stayed 64.3 per generation and
`matrices.cache_hit_frac` read 0.62 → 0: perfbench's traced proxy
still recomputes rejected moves, and those hits now cost a
recomputation that the untraced chain never makes.

`results_sha256` for `--seed 3 --seconds 3` was identical at both
commits on eval, mcmc, serve and split, traced and untraced, and on
every 12 s traced pair above.  `examples/ml_tree_search.py` printed
identical output (3.2–3.7 s on both sides).

`benchmarks/bench_gradients.py` (simulated clock) moved, though not
because anything got faster: the serial reference path lost its cache
hits, so `serial_sim_ms` rose about 9% (64 branches: 4.276 → 4.692
ms) and the recorded `speedup` rose 1.83 → 2.01 (8 branches: 1.75 →
1.91).  The fused path is unchanged (2.331 ms), and the record was
not re-baselined.  `bench_cluster.py --assert` wrote a byte-identical
report; `bench_serving.py --assert` passed.

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
