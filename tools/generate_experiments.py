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

## Tips encoded once

`python3 perfbench/run.py --workload <w> --seconds 12`, untraced, on a
2-vCPU host (Python 3.11.7, NumPy 2.4.6): ten parent/change pairs per
workload (seeds 1–10), alternating which side ran first.  Parent:
every `TreeLikelihood` built or rebound from a `PatternSet` encoded
each tip token by token, and `Alignment` validated every token.
Change: a `PatternSet` encodes its tips once, through a memoised token
table, and instances gather rows of that matrix (DESIGN choice 21).
Median [quartiles]; "wins" counts pairs where the change reads
better.  The claim is serve `mean_ms.a`.

Serve (40 tips × 1,200 patterns, four tenants on one `PatternSet`,
open loop at 10.9 ops/s):

| metric | parent | change | wins |
|---|---:|---:|---:|
| `mean_ms.a` (full) | 19.48 [19.21, 19.88] | 6.04 [5.99, 6.21] | 10/10 |
| `mean_ms.b` (edit) | 19.80 [19.58, 20.09] | 6.18 [6.10, 6.28] | 10/10 |
| `mean_ms.c` (burst) | 41.20 [40.35, 41.81] | 13.73 [13.59, 14.00] | 10/10 |
| `tail_ratio.a` / `.b` / `.c` | 1.23 / 1.20 / 1.19 | 1.15 / 1.15 / 1.12 | 10, 9, 6 |
| `setup_s` | 0.0985 [0.0977, 0.1012] | 0.0386 [0.0374, 0.0401] | 10/10 |
| `peak_rss_mb` | 108.9 [108.6, 109.0] | 108.6 [108.4, 108.8] | 9/10 |
| `rate_per_s` | 10.87 | 10.88 | 10/10 |

The claimed gain holds: `mean_ms.a` fell by 13.4 ms, 20 times the
parent's interquartile range (0.67 ms), in 10 of 10 pairs, on seeds
4–10 as well as on the seeds 1–3 used while writing the change.

Split (32 tips × 1,500 patterns over cpu-sse + cuda-sim, closed loop,
with rebalancing):

| metric | parent | change | wins |
|---|---:|---:|---:|
| `rate_per_s` | 15.93 [15.71, 16.12] | 28.49 [27.73, 29.44] | 10/10 |
| `mean_ms.a` (full) | 32.13 [30.83, 35.68] | 20.32 [19.04, 21.00] | 10/10 |
| `mean_ms.b` (incr) | 35.51 [34.42, 36.35] | 17.63 [16.96, 18.23] | 10/10 |
| `mean_ms.c` (recover) | 120.9 [119.7, 121.6] | 67.9 [65.3, 68.6] | 10/10 |
| `tail_ratio.a` / `.b` / `.c` | 1.47 / 1.37 / 1.12 | 1.45 / 1.42 / 1.08 | 7, 5, 8 |
| `setup_s` | 0.0958 | 0.0592 | 10/10 |
| `peak_rss_mb` | 153.4 [152.4, 153.7] | 156.9 [156.7, 157.0] | 1/10 |

eval and mcmc do not rebind or resplit; they pay the encode once, at
set-up:

| workload | metric | parent | change | wins |
|---|---|---:|---:|---:|
| eval | `setup_s` | 0.323 | 0.241 | 10/10 |
| eval | `rate_per_s` | 23.87 [23.57, 23.97] | 23.60 [23.34, 23.87] | 2/10 |
| eval | `mean_ms.a` / `.b` / `.c` | 16.28 / 34.61 / 74.5 | 16.29 / 34.85 / 75.4 | 4, 3, 3 |
| eval | worst `tail_ratio` | `.b` 1.05 | `.a` 1.05 | 3/10 |
| eval | `peak_rss_mb` | 218.6 | 219.1 | 0/10 |
| mcmc | `setup_s` | 0.180 | 0.096 | 10/10 |
| mcmc | `rate_per_s` | 194.8 [191.6, 199.3] | 193.6 [191.3, 197.1] | 3/10 |
| mcmc | `mean_ms.a` / `.b` / `.c` | 1.76 / 10.81 / 11.83 | 1.78 / 10.90 / 11.91 | 3, 3, 4 |
| mcmc | worst `tail_ratio` | `.a` 1.33 | `.a` 1.32 | 7/10 |
| mcmc | `peak_rss_mb` | 144.4 | 145.0 | 0/10 |

`ok_frac` was 1.0 on every run, and `results_sha256` was identical
within each of the 40 pairs.  No end-to-end metric moved past its
bound.  The closest are split `tail_ratio.b`, +3.6% against 0.25, and
split `peak_rss_mb`, +2.3% against 0.10.  eval and mcmc stay within
1.2% on every time metric.

Per layer (one traced run per side, seed 1, 8 s): serve
`tips.rebind_ms` 9.42 → 0.89 ms and `serve.server_ms` 11.9 → 4.0 ms;
split `split.resplit_ms` 17.8 → 7.6 ms per resplit (71 → 62
rebalances in the window).  The rebind saving (8.5 ms) accounts for
the fall in `serve.server_ms` (7.9 ms).  Outside perfbench, one rebind
of a 40-tip × 2,758-pattern set on cpu-sse took 21.7 → 1.35 ms
(median of 15) and `split_pattern_set` into two chunks 13.2 → 8.2 ms.

Closed-loop serve capacity (`perfbench/run.py --workload serve --seed
1 --seconds 1 --capacity`): parent 63 ops/s (burst p90 30.5 ms);
change 210–242 ops/s over three runs (burst p90 7.9–10.1 ms).  The
workload's `CAPACITY_OPS_PER_S` (36) and `CLOSED_P90_S` (0.056 s)
already underestimated the parent and are now further off; they size
the offered rate and are left for the next change to the benchmark.

Legacy serving budgets (synthetic patterns, so this change does not
move them), five runs each: `benchmarks/bench_serving.py --assert`
worst tenant p99 4.64, 5.12, 5.09, 4.97, 4.69 s; the CI drill
(`serve_main --chaos`) 2.62, 2.45, 2.51, 2.50, 2.68 s.  The budgets
are now twice the worst run, rounded up to half a second: 20 → 10.5 s
and 30 → 5.5 s.

## Lowered kernels on the host's array forms

`python3 perfbench/run.py --workload <w> --seconds 12`, untraced, on a
2-vCPU host (Python 3.11.7, NumPy 2.4.6): ten parent/change pairs per
workload (seeds 1–10), alternating which side ran first.  Parent: the
lowered `kernelMatrixMulADB`, `SiteReduce` and `GradientReduce` used
`einsum` (three `einsum(..., optimize=True)` calls per gradient edge),
and the CUDA driver sized every view with `int(np.prod(shape))`.
Change: the emitters produce `core/compute.py`'s `np.matmul` forms,
sizes use `math.prod`, and `CudaContext.device_view` keeps each view
until the next free (DESIGN choice 22).  Median [quartiles]; "wins"
counts pairs where the change reads better.  The claim is eval
`mean_ms.c`.

Eval (full on cpu-sse; codon and grad on cuda-sim):

| metric | parent | change | wins |
|---|---:|---:|---:|
| `mean_ms.c` (grad) | 75.61 [74.97, 77.19] | 38.94 [37.62, 40.68] | 10/10 |
| `mean_ms.b` (codon) | 35.97 [35.77, 36.09] | 19.72 [19.08, 20.28] | 10/10 |
| `mean_ms.a` (full) | 16.29 [16.12, 16.40] | 16.06 [15.64, 16.16] | 7/10 |
| `rate_per_s` | 23.13 [22.83, 23.43] | 39.83 [37.47, 41.33] | 10/10 |
| `tail_ratio.a` / `.b` / `.c` | 1.079 / 1.056 / 1.093 | 1.085 / 1.089 / 1.091 | 4, 4, 4 |
| `setup_s` | 0.251 [0.244, 0.253] | 0.192 [0.186, 0.197] | 10/10 |
| `peak_rss_mb` | 219.3 | 219.8 | 0/10 |
| `check.inexact_frac` | 0.035–0.169 | 0.065–0.146 | |

The claimed gain holds: `mean_ms.c` fell by 36.7 ms, 16.5 times the
parent's interquartile range (2.22 ms), in 10 of 10 pairs.  Per seed,
`check.inexact_frac` was 0.127, 0.035, 0.049, 0.068, 0.169, 0.138,
0.140, 0.103, 0.154, 0.059 at the parent and 0.146, 0.119, 0.130,
0.088, 0.114, 0.073, 0.101, 0.069, 0.065, 0.110 with the change,
against the 0.4 cap.  `results_sha256` differs in every eval pair:
the cuda-sim values moved in their last bits, and every value still
passed its check.

Other workloads:

| workload | metric | parent | change | wins |
|---|---|---:|---:|---:|
| split | `rate_per_s` | 28.25 [27.95, 29.31] | 34.54 [32.51, 36.01] | 10/10 |
| split | `mean_ms.a` / `.b` / `.c` | 19.04 / 17.53 / 67.77 | 14.38 / 16.40 / 56.22 | 10, 8, 10 |
| split | `tail_ratio.a` | 1.553 [1.440, 1.586] | 1.693 [1.570, 1.735] | 1/10 |
| split | `tail_ratio.b` / `.c` | 1.333 / 1.113 | 1.317 / 1.091 | 6, 8 |
| split | `setup_s` / `peak_rss_mb` | 0.0577 / 156.9 | 0.0542 / 157.1 | 8, 5 |
| mcmc | `rate_per_s` | 198.6 [193.1, 201.8] | 196.7 [192.2, 203.7] | 6/10 |
| mcmc | `mean_ms.a` / `.b` / `.c` | 1.770 / 10.68 / 11.60 | 1.757 / 10.82 / 11.72 | 7, 6, 5 |
| mcmc | worst `tail_ratio` | `.c` 1.119 | `.c` 1.174 | 4/10 |
| mcmc | `setup_s` / `peak_rss_mb` | 0.0969 / 145.1 | 0.0991 / 145.0 | 3, 5 |
| serve | `mean_ms.a` / `.b` / `.c` | 6.59 / 6.94 / 14.98 | 6.65 / 6.66 / 14.65 | 6, 6, 5 |
| serve | worst `tail_ratio` | `.c` 1.144 | `.c` 1.167 | 4/10 |
| serve | `rate_per_s` / `setup_s` / `peak_rss_mb` | 10.88 / 0.0408 / 108.7 | 10.88 / 0.0406 / 108.7 | 6, 5, 8 |

`ok_frac` was 1.0 on every run, and `results_sha256` was identical
within each split, mcmc and serve pair.  No end-to-end metric moved
past its bound.  The closest is split `tail_ratio.a`, +9.0% against
0.25: its mean fell by a quarter under the same scripted jitter.  mcmc
and serve run only on cpu-sse and stay within 5% (`mcmc`
`tail_ratio.c` +4.9%, inside its run-to-run spread).

Per layer (one traced run per side, seed 1, 12 s, raw host ms):
`plan.flush_ms` 17.73 → 9.56, `upper.update_ms` 15.65 → 8.68,
`grad.batch_ms` 17.16 → 8.55, `accel.ms_per_launch` 0.282 → 0.158,
with `accel.launches` 100.5 and `accel.sim_ms` 3.3625 unchanged to the
last digit.  Untraced, raw medians fell 42.7 → 22.3 ms per grad op and
20.2 → 11.3 ms per codon op: `upper.update` and `grad.batch` account
for 15.6 of the grad op's 20.4 ms, `plan.flush` for 8.2 of the codon
op's 8.9 ms.  The simulated-clock reports of `bench_gradients.py`,
`bench_multi_device.py` and `bench_resilience.py`, and the chaos and
node-loss drill reports, are byte-identical between the two commits.

The view cache was measured on its own first (six pairs, seeds 1–6,
against the change without it): eval `mean_ms.c` 41.18 [40.33, 42.00]
→ 38.18 [37.41, 38.89] ms, 6 of 6 pairs, −7.3%.  It is kept because
that clears 5%.

## One partials layout, one pre-order operation per node

`python3 perfbench/run.py --workload <w> --seconds 12`, untraced, on a
2-vCPU host (Python 3.11.7, NumPy 2.4.6), alternating which side ran
first.  Parent: device partials pools in `(c, p, s)`, and an upper
pass of two operations per node (`tmp(v) = I·W(u) ∘ P_w L(w)`,
`W(v) = P_v tmp(v) ∘ I·1`).  Change: device pools in the host's
`(c, s, p)` with the host's array forms in every emitter (DESIGN
choices 18 and 22), and one operation per node,
`tmp(v) = (P_u tmp(u)) ∘ (P_w L(w))` (choice 16), with the gradient's
logL column taken from the root reduction.  Median [quartiles];
"wins" counts pairs where the change reads better.  The claim is eval
`mean_ms.c`.

Eval, seeds 1–10 (full on cpu-sse; codon and grad on cuda-sim):

| metric | parent | change | wins |
|---|---:|---:|---:|
| `mean_ms.c` (grad) | 39.98 [38.67, 42.26] | 20.81 [20.35, 22.62] | 10/10 |
| `mean_ms.b` (codon) | 20.85 [20.19, 21.12] | 18.87 [18.49, 19.21] | 10/10 |
| `mean_ms.a` (full) | 14.47 [14.10, 14.60] | 14.33 [13.93, 14.63] | 3/10 |
| `rate_per_s` | 40.18 [38.82, 40.81] | 55.04 [53.35, 57.15] | 10/10 |
| `tail_ratio.a` / `.b` / `.c` | 1.095 / 1.092 / 1.127 | 1.071 / 1.087 / 1.082 | 8, 7, 7 |
| `setup_s` | 0.190 [0.181, 0.194] | 0.162 [0.158, 0.167] | 10/10 |
| `peak_rss_mb` | 219.8 [219.5, 219.9] | 204.3 [203.9, 204.4] | 10/10 |
| `check.inexact_frac` | 0.065–0.146 | 0.0 on every seed | |

The claimed gain holds: `mean_ms.c` fell by 19.2 ms (−48%), 5.4 times
the parent's interquartile range (3.58 ms), in 10 of 10 pairs.  An
earlier set of ten pairs, run while only comments and a shared
fused-launch helper still changed, gave the same picture: `mean_ms.c`
41.01 → 21.74 ms (10/10), `mean_ms.b` 20.70 → 18.91, `peak_rss_mb`
219.6 → 204.3, `check.inexact_frac` 0.0 on seeds 1–10.  The full op
(cpu-sse) runs no changed code; it reads within 1%.  `peak_rss_mb`
fell because upper partials take n + 1 buffers, not 2n + 1.

Other workloads (split runs these kernels on its gpu component; mcmc
and serve run only cpu-sse and share no changed code):

| workload | metric | parent | change | wins |
|---|---|---:|---:|---:|
| split | `rate_per_s` | 26.73 [26.17, 27.20] | 29.27 [28.76, 30.21] | 10/10 |
| split | `mean_ms.a` / `.b` / `.c` | 25.87 / 25.30 / 61.03 | 23.77 / 21.32 / 58.47 | 10, 10, 9 |
| split | `tail_ratio.a` / `.b` / `.c` | 1.118 / 1.159 / 1.109 | 1.139 / 1.207 / 1.106 | 4, 2, 6 |
| split | `setup_s` / `peak_rss_mb` | 0.0546 / 155.3 | 0.0533 / 154.7 | 8, 6 |
| mcmc | `rate_per_s` | 172.7 [164.2, 179.0] | 168.3 [164.8, 172.4] | 4/10 |
| mcmc | `mean_ms.a` / `.b` / `.c` | 2.045 / 12.33 / 13.65 | 2.103 / 12.70 / 13.74 | 2, 3, 6 |
| mcmc | `tail_ratio.a` / `.b` / `.c` | 1.343 / 1.136 / 1.111 | 1.332 / 1.118 / 1.122 | 8, 6, 7 |
| serve | `mean_ms.a` / `.b` / `.c` | 6.33 / 6.28 / 15.12 | 6.42 / 6.40 / 14.94 | 6, 5, 7 |
| serve | `tail_ratio.a` / `.b` / `.c` | 1.128 / 1.166 / 1.137 | 1.136 / 1.177 / 1.168 | 3, 5, 2 |
| serve | `rate_per_s` / `peak_rss_mb` | 10.88 / 108.8 | 10.88 / 108.6 | 7, 9 |

split, mcmc and serve ran seeds 1–10 (mcmc and serve in two batches of
five).  `ok_frac` was 1.0 and every value passed its check on every
run.  No median moved past its bound; the largest moves against the
change are split `tail_ratio.b` +4.1% and mcmc `mean_ms.b` +3.0%
(bound 0.25 each).  serve's first batch had three change-side runs
with `tail_ratio.c` 1.51–1.79 (seeds 1, 3, 4) on code that serve does
not execute; a second batch of the same five seeds read 1.09–1.16
against the parent's 1.13–1.22, so those three are host noise, and
serve's tail ratios are unresolved at this spread rather than
unchanged.

Per layer (one traced run per side, seed 1, 12 s, raw host ms):
`upper.update_ms` 14.56 → 4.71, `grad.batch_ms` 14.43 → 9.56, the grad
op's `partials.update` 3.90 → 2.26, `plan.flush_ms` (codon) 19.04 →
16.86; grad op wall 35.2 → 18.4 ms.  The upper pass now issues 62
operations per grad op instead of 125 at 32 taxa; perfbench still adds
125 to `partials.ops` (a hard-coded count, CHANGES.md FOUND).
`accel.launches` 100.5 → 69.0 and `accel.sim_ms` 3.363 → 3.119 are
workload means over the codon and grad ops; the codon op alone keeps
its simulated time and launch count to the last digit (24-taxon GY94,
deferred: 1.5406 ms, 12 launches), while a 32-taxon grad op went
2.440 → 1.961 ms and 159 → 96 launches.  `bench_gradients.py` at 64
branches: fused 2.331 → 1.872 ms, serial 4.692 → 4.234 ms, speedup
2.01 → 2.26, refresh launches 163 → 98.

## Table III on wall clock

Measured at the commit before the futures and thread-create backends
were removed, so this section is their only wall-clock record; Table
III itself stays regenerated from the calibrated model, all four
columns.  Input: one full `update_partials` pass over a balanced tree
(`benchmarks/conftest.build_impl`: HKY+Γ4, compact tip states, random
unique patterns), 10,000 patterns, 2 threads for each threaded design.
A sample is the median of 3 calls on a freshly built instance after
one warm-up call.  11 rounds, the design order reversed every other
round.  Host: 2 vCPUs (Intel Xeon), Python 3.11.7, NumPy 2.4.6.
Median ms [quartiles]; the last three columns count the rounds a
design beat another.

| tips | precision | cpu-sse | futures | thread-create | thread-pool | futures beat pool | create beat pool | pool beat cpu-sse |
|---:|---|---:|---:|---:|---:|---:|---:|---:|
| 8 | single | 2.13 [2.06, 2.65] | 4.74 [4.43, 5.15] | 4.15 [3.63, 4.83] | 2.71 [2.67, 3.02] | 2/11 | 2/11 | 1/11 |
| 8 | double | 4.48 [3.93, 4.60] | 6.14 [5.64, 6.45] | 5.06 [4.71, 6.34] | 3.80 [3.69, 4.09] | 0/11 | 2/11 | 7/11 |
| 16 | single | 6.98 [6.35, 7.37] | 9.78 [8.46, 10.35] | 8.09 [6.23, 10.21] | 6.41 [6.12, 6.62] | 2/11 | 4/11 | 8/11 |
| 16 | double | 9.84 [9.55, 10.51] | 11.65 [11.02, 12.13] | 9.05 [8.26, 11.24] | 8.97 [7.84, 9.93] | 2/11 | 2/11 | 9/11 |
| 64 | single | 30.57 [28.58, 31.31] | 28.22 [26.69, 33.23] | 25.81 [24.65, 26.14] | 23.92 [23.21, 24.29] | 0/11 | 4/11 | 10/11 |
| 64 | double | 43.21 [41.21, 44.43] | 31.76 [30.82, 33.19] | 31.95 [30.84, 34.15] | 30.10 [29.04, 33.13] | 5/11 | 3/11 | 10/11 |
| 128 | single | 68.10 [67.28, 71.44] | 48.40 [42.59, 50.87] | 47.64 [46.45, 50.89] | 47.71 [44.23, 49.75] | 5/11 | 2/11 | 11/11 |
| 128 | double | 76.41 [70.03, 82.44] | 56.41 [51.97, 57.37] | 56.87 [52.03, 57.62] | 55.85 [55.68, 58.67] | 7/11 | 6/11 | 11/11 |

* The pool has the lowest median of the three threaded designs in 7
  of 8 cells and ties thread-create in the eighth (128 tips, single:
  47.71 against 47.64 ms).  Neither earlier design beat it in 9 of 10
  rounds anywhere: futures' best is 7 of 11 (128 tips, double), with
  medians 1% apart.  An earlier unpaired probe had futures ahead there
  in 16 of 21 samples; the paired rounds do not reproduce that.
* At 8 and 16 tips futures is the slowest design: its parallelism is
  the tree's width per dependency level, and each level pays for a
  fresh executor.  With wider levels it closes in: its median is 18%
  above the pool's at 64 tips in single precision and within 1.5% at
  128 tips.
* cpu-sse beats every threaded design at 8 tips in single precision.
  From 16 tips up the pool beats cpu-sse in 8 to 11 rounds of 11, by
  up to 1.43× at 128 tips (68.1 against 47.7 ms, single).

Crossover between cpu-sse and the pool, same input and host, single
precision, 21 rounds:

| tips | patterns | cpu-sse | thread-pool | pool beat cpu-sse |
|---:|---:|---:|---:|---:|
| 8 | 2,000 | 0.40 [0.37, 0.53] | 1.28 [1.16, 1.46] | 0/21 |
| 8 | 4,000 | 0.71 [0.70, 1.07] | 1.58 [1.44, 1.67] | 0/21 |
| 8 | 6,000 | 1.07 [1.05, 1.13] | 1.87 [1.56, 1.99] | 1/21 |
| 8 | 8,000 | 2.42 [2.36, 2.57] | 2.51 [2.38, 2.66] | 6/21 |
| 8 | 12,000 | 2.55 [2.47, 3.35] | 3.05 [2.63, 3.30] | 11/21 |
| 64 | 2,000 | 6.65 [4.69, 7.05] | 10.74 [10.10, 11.34] | 0/21 |
| 64 | 4,000 | 8.47 [8.18, 9.02] | 12.67 [11.89, 14.11] | 0/21 |
| 64 | 6,000 | 17.08 [12.60, 19.12] | 15.09 [14.27, 15.82] | 14/21 |
| 64 | 8,000 | 24.43 [18.41, 24.96] | 17.88 [17.21, 18.74] | 18/21 |
| 64 | 12,000 | 30.47 [27.46, 37.12] | 25.99 [24.62, 26.34] | 21/21 |

At 64 tips the pool starts to win between 4,000 and 6,000 patterns;
at 8 tips it never wins clearly up to 12,000.  Both crossovers sit
where cpu-sse's time per pattern jumps (8 tips: 1.07 ms at 6,000,
2.42 ms at 8,000), which suggests the pool's half-size slices still
fit a cache level the whole array has left; that reading is not
established.  The 512-pattern threading minimum
(`MIN_PATTERNS_FOR_THREADING`, the paper's value) is far below either
crossover on this host and is left as it is; ROADMAP item 10 carries
re-deriving it.

The deletion itself claims no gain.  `python3 perfbench/run.py
--workload <w> --seconds 12`, untraced, same host, parent and change
alternating which ran first; five pairs per workload (seeds 1–5), ten
for serve (seeds 1–10).  Median [quartiles]:

| workload | metric | parent | change | change wins |
|---|---|---:|---:|---:|
| eval | `mean_ms.a` (full, cpu-sse) | 14.46 [14.21, 14.46] | 14.71 [14.56, 15.45] | 2/5 |
| eval | `rate_per_s` | 52.18 [51.59, 53.62] | 52.51 [49.65, 52.60] | 2/5 |
| mcmc | `rate_per_s` | 164.3 [163.4, 164.8] | 166.4 [166.3, 168.5] | 5/5 |
| mcmc | `mean_ms.a` / `.b` / `.c` | 2.212 / 12.91 / 14.26 | 2.188 / 12.55 / 13.95 | 4, 5, 5 |
| serve | `mean_ms.a` / `.b` / `.c` | 6.33 / 6.51 / 15.36 | 6.38 / 6.38 / 15.01 | 6, 7, 6 |
| serve | `tail_ratio.a` / `.b` / `.c` | 1.258 / 1.196 / 1.180 | 1.248 / 1.318 / 1.253 | 3, 4, 5 |
| split | `rate_per_s` | 26.32 [25.97, 28.93] | 26.45 [25.91, 26.54] | 2/5 |
| split | `mean_ms.a` / `.b` / `.c` | 25.49 / 24.38 / 63.30 | 25.82 / 25.16 / 62.47 | 1, 2, 2 |

Every run passed its correctness check with `ok_frac` 1.0, and no
median of any end-to-end metric on any workload moved against the
change by more than its bound.  The largest moves were serve
`tail_ratio.b` +10.2% and eval `tail_ratio.c` +7.2%; `peak_rss_mb`
and `setup_s` stayed within 6%.  serve's tail ratios spread wider
than their bound at both commits (parent `tail_ratio.a` quartiles
1.14–1.77; one parent run read 4.48), so they are unresolved, not
unchanged.  cpu-sse's one-slice path does the same work per call as
before: the pool, its root split and `finalize` moved into the shared
class, and cpu-sse never creates a pool.

## Power-of-two rescaling

Parent: `rescale_partials` and the `DynamicRescale` emitter divide each
pattern by its maximum and store `log(maximum)`.  Change: they multiply
by `2**-e`, `e = frexp(maximum)`, and store `e` (DESIGN choice 23).
`python3 perfbench/run.py --workload <w> --seconds 12`, untraced, on a
2-vCPU host (Python 3.11.7, NumPy 2.4.6).  Median [quartiles]; "wins"
counts pairs where the change reads better.  The claim is eval
`mean_ms.a`, the cpu-sse `full` op, which rescales after every one of
its 63 operations.

Eval, seeds 1–12, the side that ran first alternating every pair
(seeds 1–8 ran before the last refactor, which only moved the
`e * ln 2` multiply of the host paths into one helper):

| metric | parent | change | wins |
|---|---:|---:|---:|
| `mean_ms.a` (full, cpu-sse) | 15.80 [15.60, 15.89] | 14.07 [13.79, 14.21] | 12/12 |
| `mean_ms.b` (codon) | 20.32 [20.09, 20.72] | 20.27 [20.12, 20.68] | 5/12 |
| `mean_ms.c` (grad) | 21.50 [21.17, 22.03] | 21.93 [21.59, 22.04] | 4/12 |
| `rate_per_s` | 51.13 [50.09, 52.38] | 53.04 [51.49, 53.43] | 9/12 |
| `tail_ratio.a` / `.b` / `.c` | 1.058 / 1.059 / 1.089 | 1.056 / 1.063 / 1.054 | 5, 5, 7 |
| `setup_s` | 0.162 [0.158, 0.163] | 0.159 [0.157, 0.160] | 7/12 |
| `peak_rss_mb` | 204.4 | 204.1 | 9/12 |

`mean_ms.a` fell by 1.73 ms (−10.9%), 5.9 times the parent's
interquartile range (0.29 ms).  A second set, seeds 1–10 with the
parent always first, gave `mean_ms.a` 15.16 [14.88, 15.56] → 13.26
[13.03, 13.35] ms (10/10) and `mean_ms.b` / `.c` 20.11 / 21.68 →
19.40 / 20.69 ms.  `check.inexact_frac` read 0.0 on seeds 1–10 on both
sides, `ok_frac` was 1.0 on every run, and every run passed its
checks.  The codon and grad ops run no rescale; their medians moved
by 1–5% in opposite directions between the two sets.

Per layer, traced (`--trace 1`), seeds 1–5, parent first, raw host ms:

| layer | parent | change | wins |
|---|---:|---:|---:|
| `partials.update_ms` | 11.14 [10.96, 11.19] | 9.51 [9.27, 9.56] | 5/5 |
| `partials.gflops` | 3.83 | 4.46 | 5/5 |
| `scale.accumulate_ms` | 0.203 [0.200, 0.212] | 0.215 [0.202, 0.215] | 3/5 |
| `root.reduce_ms` | 0.104 | 0.112 | 1/5 |
| `accel.sim_ms` | 3.118502701829805 | 3.118502701829805 | |
| `accel.launches` | 69.0 | 69.0 | |

`root.reduce_ms` pays for the one `e * ln 2` multiply per root call.
`accel.sim_ms` is the same number on all ten runs, and the
simulated-clock records of `bench_gradients.py` and
`bench_plan_batching.py` are equal field for field apart from their
timestamps; `ProgramIR.signature()` is unchanged for every state
count, precision, variant and FMA setting.

Other workloads (none of them rescales; the code they run is
unchanged):

| workload | metric | parent | change | wins |
|---|---|---:|---:|---:|
| mcmc | `rate_per_s` | 162.8 [161.7, 165.0] | 164.8 [162.3, 166.7] | 3/5 |
| mcmc | `mean_ms.a` / `.b` / `.c` | 2.155 / 12.74 / 14.29 | 2.159 / 12.67 / 13.99 | 4, 3, 4 |
| mcmc | `tail_ratio.a` / `.b` / `.c` | 1.356 / 1.144 / 1.087 | 1.334 / 1.124 / 1.153 | 3, 2, 2 |
| split | `rate_per_s` | 29.63 [28.55, 30.54] | 29.32 [28.44, 30.03] | 5/8 |
| split | `mean_ms.a` / `.b` / `.c` | 23.57 / 22.18 / 57.03 | 23.70 / 22.50 / 57.51 | 4, 5, 4 |
| split | `tail_ratio.a` / `.b` / `.c` | 1.132 / 1.145 / 1.105 | 1.141 / 1.219 / 1.129 | 1, 2, 2 |
| serve | `mean_ms.a` / `.b` / `.c` | 6.84 / 6.85 / 15.47 | 5.16 / 5.26 / 12.11 | 5, 5, 5 |
| serve | `tail_ratio.a` / `.b` / `.c` | 1.165 / 1.141 / 1.164 | 1.145 / 1.146 / 1.172 | 5, 3, 2 |

mcmc ran seeds 1–5 with the parent first; split (seeds 1–3, 6–10) and
serve (seeds 1, 6–10) alternated the side that ran first.  A first
split set of five pairs with the parent always first read `rate_per_s`
30.08 → 27.58 (0/5) and `mean_ms.a` +8.4%; alternating the order
removed it, so the order, not the code, made that difference.  serve's
means moved by about +10% in a first, parent-first set of five pairs
and by about −23% in the alternating set above, on code serve does not
execute, so serve's means are unresolved at this spread rather than
changed.  `peak_rss_mb` and `setup_s` stayed within 2% on every
workload.

**The crossover of item 10, with rescaling on.**  The table in "Table
III on wall clock" timed unscaled passes.  Here one scaled
`update_partials` pass (`plan_traversal(tree, use_scaling=True)`, one
scale buffer per internal node) over the same input: a 64-tip
balanced tree, HKY+Γ4, compact tip states, random unique patterns,
single precision, the pool with 2 threads.  A sample is the median of
3 calls after one warm-up; 11 rounds, each round one process per
commit, alternating which ran first and the design order.  Median ms
[quartiles]:

| patterns | commit | cpu-sse | thread-pool | pool beat cpu-sse |
|---:|---|---:|---:|---:|
| 4,000 | parent | 9.95 [9.88, 12.69] | 19.14 [17.29, 21.30] | 0/11 |
| 4,000 | change | 9.46 [9.37, 9.67] | 18.66 [16.77, 20.00] | 0/11 |
| 6,000 | parent | 15.58 [14.68, 20.91] | 20.14 [18.59, 21.95] | 2/11 |
| 6,000 | change | 16.71 [13.53, 19.95] | 19.04 [17.13, 20.91] | 1/11 |
| 12,000 | parent | 34.24 [29.88, 43.91] | 31.52 [30.24, 32.99] | 9/11 |
| 12,000 | change | 29.20 [28.06, 34.77] | 29.52 [25.12, 32.55] | 8/11 |

The change made cpu-sse's scaled pass faster in 10 of 11 rounds at
4,000 and at 12,000 patterns (7 of 11 at 6,000), and the pool's in 8
of 11 at 4,000 and 12,000.  With rescaling on, the pool starts to win
between 6,000 and 12,000 patterns at 64 tips, later than the 4,000 to
6,000 of the unscaled table, on both commits.  The pool pays most
for rescaling: at 4,000 patterns its scaled median is about 6 ms above
the unscaled table's, cpu-sse's about 1.5 ms.  Each slice task runs
its own rescale, several NumPy calls per operation under the
interpreter lock, which likely makes this part of item 10's Python
overhead; power-of-two factors shorten those calls but do not remove
them.

## Calm re-splits

Parent: the split executor's rate table mixed cuda-sim's simulated
seconds with cpu-sse's wall seconds, every evaluation fed it (the
incremental updates too), a readmitted device came back at a uniform
share, and every chunk of a split re-encoded its tips.  Change (DESIGN
choice 19): one clock per evaluation (wall here, since the host has no
device clock), rates and rebalances from full traversals only,
readmission at the pre-loss shares, and chunks that are views of the
parent's tips and weights.  `python3 perfbench/run.py --workload split
--seconds 12`, untraced, on a 2-vCPU host (Python 3.11.7, NumPy
2.4.6).  Median [quartiles]; "wins" counts pairs where the change
reads better.  The claim is split `mean_ms.a`.

Split, seeds 1–10, the side that ran first alternating every pair:

| metric | parent | change | wins |
|---|---:|---:|---:|
| `mean_ms.a` (full) | 23.76 [23.38, 24.40] | 7.49 [7.09, 8.26] | 10/10 |
| `mean_ms.b` (incr) | 20.18 [19.26, 22.13] | 2.53 [2.34, 2.74] | 10/10 |
| `mean_ms.c` (recover) | 59.79 [58.15, 61.84] | 34.98 [33.19, 37.63] | 10/10 |
| `rate_per_s` | 29.34 [28.36, 29.75] | 66.94 [60.40, 70.25] | 10/10 |
| `tail_ratio.a` | 1.169 [1.133, 1.187] | 1.243 [1.205, 1.329] | 2/10 |
| `tail_ratio.b` | 1.326 [1.291, 1.370] | 1.402 [1.364, 1.566] | 1/10 |
| `tail_ratio.c` | 1.153 [1.127, 1.168] | 1.243 [1.205, 1.318] | 1/10 |
| `setup_s` | 0.0552 [0.0518, 0.0565] | 0.0409 [0.0391, 0.0429] | 10/10 |
| `peak_rss_mb` | 155.4 [154.2, 156.2] | 148.9 [148.7, 150.7] | 9/10 |

`mean_ms.a` fell by 16.27 ms (−68.5%), 16 times the parent's
interquartile range (1.02 ms).  `mismatches` was 0 and `ok_frac` 1.0
on all 20 runs: every split value was bit-identical to the serial
baseline.  The tails rose by 6–8% in the median, inside the 0.25
bound; the change's own spread is wider (`tail_ratio.b` 1.30–1.77 over
its ten runs, against 1.17–1.43 at the parent), with the four highest
values on seeds 1–4.  A re-run of seeds 1–4, interleaved with the
ablation runs below, read `tail_ratio.b` 1.23–1.47.

Per layer, traced (`--trace 1`), seeds 1, 2, 3:

| layer | parent | change |
|---|---:|---:|
| `split.rebalances` | 118 / 118 / 126 | 10 / 13 / 13 |
| `split.resplit_ms` | 11.8 / 9.7 / 11.2 | 2.9 / 3.5 / 4.0 |
| `split.fanout_ms` | 18.0 / 14.3 / 15.8 | 0.44 / 0.49 / 0.58 |
| `split.wall_imbalance` | 0.25 / 0.18 / 0.19 | 0.15 / 0.14 / 0.17 |
| `split.share.gpu` | 0.91 / 0.93 / 0.92 | 0.041 / 0.026 / 0.021 |
| `split.failovers`, `split.readmits` | 43, 43 | 43, 43 |
| `host.page_faults_per_op` | 70.6 / 70.1 / 66.6 | 72.9 / 93.5 / 94.4 |

At the parent `split.fanout_ms` subtracted cuda-sim's simulated
critical path from a wall-clock op; on one clock it reads the real
fan-out cost.  `host.page_faults_per_op` rose: ops are three times
shorter, while every recover op still rebuilds both instances.
`split_pattern_set` into two chunks (0.7/0.3) at 32 taxa × 1,500
patterns, best of 5 × 20 calls, three alternating rounds: 3.4–7.9 ms
at the parent, 0.16–0.17 ms with chunk views.

Ablation: all four changes but one, seeds 1–4, two runs each (one set
run interleaved with four runs of the full change), median and range:

| variant | `mean_ms.a` | `mean_ms.c` | `tail_ratio.a` | `tail_ratio.b` |
|---|---:|---:|---:|---:|
| all four (4 runs) | 7.51 (6.64–8.17) | 35.4 (31.8–37.6) | 1.19 (1.13–1.23) | 1.36 (1.23–1.47) |
| without one clock | 8.26 (7.25–8.65) | 34.6 (33.1–38.4) | 1.40 (1.33–1.61) | 1.79 (1.71–2.12) |
| without full-only rates | 7.67 (6.91–9.26) | 34.1 (31.3–38.4) | 1.31 (1.17–1.70) | 2.32 (1.87–2.50) |
| without pre-loss readmission | 9.45 (8.85–10.84) | 46.0 (44.0–49.3) | 1.45 (1.09–1.60) | 1.82 (1.44–2.10) |

Traced seed 1: without one clock the split went to gpu 0.97 (5
rebalances, `split.fanout_ms` 6.0); without full-only rates it
rebalanced 6 times, some of them inside incremental ops; without
pre-loss readmission it rebalanced 50 times, since every readmission
reset the split to uniform.  Each of the three rules alone, at an
earlier parent, had failed a tail bound as well (DESIGN choice 19).

Other workloads, whose code is unchanged apart from one helper call in
the scaled evaluation path:

| workload | metric | parent | change | wins |
|---|---|---:|---:|---:|
| eval (10 pairs) | `mean_ms.a` / `.b` / `.c` | 13.72 / 20.42 / 22.08 | 13.61 / 20.50 / 22.36 | 4, 3, 4 |
| eval (10 pairs) | `tail_ratio.a` / `.b` / `.c` | 1.134 / 1.118 / 1.118 | 1.079 / 1.072 / 1.094 | 5, 5, 5 |
| mcmc (5 pairs) | `mean_ms.a` / `.b` / `.c` | 2.183 / 12.76 / 14.06 | 2.113 / 12.69 / 13.96 | 5, 3, 4 |
| mcmc (5 pairs) | `tail_ratio.a` / `.b` / `.c` | 1.343 / 1.111 / 1.105 | 1.341 / 1.053 / 1.041 | 4, 4, 3 |
| serve (5 pairs) | `mean_ms.a` / `.b` / `.c` | 7.11 / 6.86 / 15.69 | 6.85 / 6.70 / 15.01 | 2, 2, 3 |
| serve (5 pairs) | `tail_ratio.a` / `.b` / `.c` | 1.170 / 1.165 / 1.221 | 1.169 / 1.176 / 1.223 | 4, 1, 4 |

All alternated the side that ran first.  `peak_rss_mb` and
`rate_per_s` moved by at most 2.1% and `setup_s` by at most 3.7% on
each of the three, and every run passed its checks.  The first five eval pairs read `mean_ms.a` 12.94 → 13.54
(1/5); the next five, 13.97 → 13.78 (3/5).

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
