"""Command-line entry points."""

import pytest

from repro.cli import (
    chaos_main,
    cluster_main,
    experiments_main,
    info_main,
    serve_main,
    trace_main,
    verify_main,
)


class TestInfo:
    def test_resource_survey(self, capsys):
        assert info_main([]) == 0
        out = capsys.readouterr().out
        assert "CPU (host)" in out
        assert "AMD Radeon R9 Nano" in out
        assert "Performance-model ranking" in out

    def test_kernel_dump_cuda(self, capsys):
        assert info_main(["--kernels", "cuda", "--states", "61"]) == 0
        out = capsys.readouterr().out
        assert "__global__" in out
        assert "STATE_COUNT = 61" in out

    def test_kernel_dump_opencl(self, capsys):
        assert info_main(
            ["--kernels", "opencl", "--precision", "double"]
        ) == 0
        out = capsys.readouterr().out
        assert "__kernel" in out
        assert "float64" in out


class TestExperiments:
    def test_list(self, capsys):
        assert experiments_main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in ("table3", "table4", "table5", "fig4-nucleotide",
                     "fig4-codon", "fig5", "fig6"):
            assert name in out

    def test_single_experiment(self, capsys):
        assert experiments_main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "Table III" in out
        assert "193.10" in out  # paper value printed alongside

    def test_unknown_experiment(self, capsys):
        assert experiments_main(["table99"]) == 2

    def test_all_experiments(self, capsys):
        assert experiments_main([]) == 0
        out = capsys.readouterr().out
        assert "Figure 6" in out and "Table V" in out


class TestVerify:
    def test_kernel_sweep_requests_the_variant_each_device_runs(
        self, capsys
    ):
        # The Xeon Phi runs the gpu variant; asking it for x86 used to
        # print "requested config rejected" with a variant-mismatch
        # warning for every state count.
        assert verify_main(["--kernels", "--strict"]) == 0
        out = capsys.readouterr().out
        assert "variant-mismatch" not in out
        phi = [line for line in out.splitlines() if "Xeon Phi" in line]
        assert len(phi) == 3
        assert all("requested config OK" in line for line in phi)


class TestArgumentChecks:
    """Bad arguments exit with status 2 before any work starts."""

    @pytest.mark.parametrize(
        "main", [trace_main, chaos_main, cluster_main, serve_main],
        ids=lambda main: main.__name__,
    )
    def test_unknown_backend(self, main, capsys):
        assert main(["--backend", "bogus"]) == 2
        assert "unknown backend 'bogus'" in capsys.readouterr().err

    def test_chaos_needs_two_devices(self, capsys):
        assert chaos_main(["--devices", "1"]) == 2
        assert "need --devices >= 2" in capsys.readouterr().err

    def test_node_loss_needs_two_nodes(self, capsys):
        assert cluster_main(["--nodes", "1", "--scenario", "node-loss"]) == 2
        assert "need --nodes >= 2" in capsys.readouterr().err
