"""Survey the heterogeneous device catalog, paper-style.

Demonstrates the paper's central design: ONE kernel code base serving
CUDA and OpenCL.  Prints the generated kernel program headers for both
frameworks (same template, different keyword macros), shows the AMD
codon local-memory accommodation (section VII-B.1), then sweeps the
partial-likelihoods throughput of every catalog device with the
calibrated performance model — a miniature Fig. 4.

Run:  python examples/heterogeneous_survey.py
"""

from repro.accel import (
    CUDA_MACROS,
    OPENCL_MACROS,
    KernelConfig,
    build_program_ir,
    fit_pattern_block_size,
    lowering_for,
)
from repro.accel.device import QUADRO_P5000, RADEON_R9_NANO
from repro.bench.harness import fig4_series
from repro.util.tables import format_table


def show_shared_kernels() -> None:
    config = KernelConfig(state_count=61, precision="single", use_fma=True)
    program = build_program_ir(config)
    for macros in (CUDA_MACROS, OPENCL_MACROS):
        source = lowering_for(config, macros).lower(program)
        header = "\n".join(source.splitlines()[:13])
        print(header)
        print("...\n")


def show_local_memory_fit() -> None:
    rows = []
    for device in (QUADRO_P5000, RADEON_R9_NANO):
        for states, label in ((4, "nucleotide"), (61, "codon")):
            block = fit_pattern_block_size(
                states, "single", device.local_mem_kb, preferred=16
            )
            rows.append([device.name, label, device.local_mem_kb, block])
    print(format_table(
        ["device", "model", "local mem (KB)", "patterns/work-group"],
        rows,
        title="AMD's smaller local memory forces fewer codon patterns per "
              "work-group (paper section VII-B.1)",
    ))
    print()


def survey() -> None:
    for states in (4, 61):
        result = fig4_series(states, patterns=[1000, 10_000, 50_000])
        print(result.table())
        print()


def main() -> None:
    print("== one kernel template, two frameworks ==\n")
    show_shared_kernels()
    show_local_memory_fit()
    print("== modelled throughput across the catalog (mini Fig. 4) ==\n")
    survey()


if __name__ == "__main__":
    main()
