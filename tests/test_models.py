"""Substitution models: Q-matrix structure, eigensystems, P(t) properties."""

import numpy as np
import pytest
from scipy.linalg import expm

from repro.core.compute import matrices_from_eigen
from repro.model import (
    F81,
    GTR,
    GY94,
    HKY85,
    JC69,
    K80,
    MG94,
    EmpiricalAAModel,
    Poisson,
    build_reversible_q,
    eigendecompose_general,
    eigendecompose_reversible,
    f1x4_frequencies,
    f3x4_frequencies,
    make_benchmark_aa_model,
    normalize_rate_matrix,
)

ALL_MODELS = [
    JC69(),
    K80(kappa=3.0),
    F81([0.4, 0.3, 0.2, 0.1]),
    HKY85(2.5, [0.3, 0.2, 0.2, 0.3]),
    GTR([1.0, 2.0, 0.5, 0.8, 3.0, 1.0], [0.25, 0.25, 0.3, 0.2]),
    GY94(kappa=2.0, omega=0.4),
    MG94(kappa=2.0, omega=0.4, nuc_freqs=[0.3, 0.2, 0.2, 0.3]),
    Poisson(),
    make_benchmark_aa_model(),
]


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
class TestModelInvariants:
    def test_rows_sum_to_zero(self, model):
        assert np.allclose(model.q.sum(axis=1), 0.0, atol=1e-10)

    def test_off_diagonal_non_negative(self, model):
        off = model.q - np.diag(np.diag(model.q))
        assert np.all(off >= -1e-12)

    def test_unit_mean_rate(self, model):
        rate = -np.dot(model.frequencies, np.diag(model.q))
        assert np.isclose(rate, 1.0)

    def test_stationary_distribution(self, model):
        assert np.allclose(model.frequencies @ model.q, 0.0, atol=1e-10)

    def test_detailed_balance(self, model):
        flow = model.frequencies[:, None] * model.q
        assert np.allclose(flow, flow.T, atol=1e-10)

    def test_transition_matrix_matches_expm(self, model):
        for t in (0.01, 0.3, 2.0):
            assert np.allclose(
                model.transition_matrix(t), expm(model.q * t), atol=1e-8
            )

    def test_transition_matrix_stochastic(self, model):
        p = model.transition_matrix(0.7)
        assert np.all(p >= 0.0)
        assert np.allclose(p.sum(axis=1), 1.0)

    def test_zero_branch_is_identity(self, model):
        assert np.allclose(
            model.transition_matrix(0.0), np.eye(model.n_states), atol=1e-10
        )

    def test_long_branch_reaches_stationarity(self, model):
        p = model.transition_matrix(200.0)
        assert np.allclose(p, np.tile(model.frequencies, (model.n_states, 1)),
                           atol=1e-6)

    def test_chapman_kolmogorov(self, model):
        # P(s + t) = P(s) P(t)
        assert np.allclose(
            model.transition_matrix(0.5),
            model.transition_matrix(0.2) @ model.transition_matrix(0.3),
            atol=1e-8,
        )

    def test_negative_branch_rejected(self, model):
        with pytest.raises(ValueError, match="non-negative"):
            model.transition_matrix(-0.1)

    def test_batched_matches_scalar(self, model):
        # The batched form every backend shares: one (branch, rate) GEMM.
        ts = np.array([0.05, 0.4, 1.3])
        eigen = model.eigen
        batch = matrices_from_eigen(
            eigen.eigenvectors, eigen.inverse_eigenvectors,
            eigen.eigenvalues, ts, np.ones(1),
        )[:, 0]
        for i, t in enumerate(ts):
            assert np.allclose(batch[i], model.transition_matrix(t), atol=1e-9)


class TestParameterValidation:
    def test_k80_rejects_bad_kappa(self):
        with pytest.raises(ValueError, match="kappa"):
            K80(kappa=-1.0)

    def test_hky_rejects_zero_kappa(self):
        with pytest.raises(ValueError, match="kappa"):
            HKY85(kappa=0.0)

    def test_gy94_rejects_negative_omega(self):
        with pytest.raises(ValueError):
            GY94(omega=-0.5)

    def test_gtr_needs_six_rates(self):
        with pytest.raises(ValueError, match="6"):
            GTR([1.0, 2.0, 3.0])

    def test_gtr_rejects_negative_rate(self):
        with pytest.raises(ValueError, match="non-negative"):
            GTR([1.0, -2.0, 1.0, 1.0, 1.0, 1.0])

    def test_frequencies_must_sum_to_one(self):
        with pytest.raises(ValueError):
            F81([0.5, 0.5, 0.5, 0.5])

    def test_mg94_needs_four_frequencies(self):
        with pytest.raises(ValueError):
            MG94(nuc_freqs=[0.5, 0.5])


class TestModelStructure:
    def test_jc69_all_rates_equal(self):
        q = JC69().q
        off = q[~np.eye(4, dtype=bool)]
        assert np.allclose(off, off[0])

    def test_k80_transition_transversion_ratio(self):
        m = K80(kappa=5.0)
        # A->G is a transition, A->C a transversion.
        assert np.isclose(m.q[0, 2] / m.q[0, 1], 5.0)

    def test_hky_reduces_to_k80_with_uniform_freqs(self):
        assert np.allclose(HKY85(kappa=2.0).q, K80(kappa=2.0).q)

    def test_gtr_reduces_to_jc69(self):
        assert np.allclose(
            GTR([1.0] * 6, [0.25] * 4).q, JC69().q
        )

    def test_gy94_multistep_changes_forbidden(self):
        from repro.model.statespace import SENSE_CODONS

        m = GY94()
        i = SENSE_CODONS.index("AAA")
        j = SENSE_CODONS.index("CCA")  # two positions differ
        assert m.q[i, j] == 0.0

    def test_gy94_omega_scales_nonsynonymous(self):
        from repro.model.statespace import SENSE_CODONS

        low, high = GY94(omega=0.1), GY94(omega=1.0)
        # GCT (Ala) -> GCA (Ala) is synonymous: unaffected by omega up to
        # normalisation; compare a nonsyn/syn *ratio* instead.
        i = SENSE_CODONS.index("GCT")
        j_syn = SENSE_CODONS.index("GCA")
        k = SENSE_CODONS.index("ACT")  # Ala -> Thr, nonsynonymous
        ratio_low = low.q[i, k] / low.q[i, j_syn]
        ratio_high = high.q[i, k] / high.q[i, j_syn]
        assert np.isclose(ratio_high / ratio_low, 10.0)

    def test_f1x4_frequencies_sum_to_one(self):
        pi = f1x4_frequencies([0.4, 0.3, 0.2, 0.1])
        assert pi.shape == (61,)
        assert np.isclose(pi.sum(), 1.0)

    def test_f3x4_frequencies(self):
        pf = np.array([[0.4, 0.3, 0.2, 0.1]] * 3)
        pi = f3x4_frequencies(pf)
        assert np.isclose(pi.sum(), 1.0)
        assert np.allclose(pi, f1x4_frequencies([0.4, 0.3, 0.2, 0.1]))

    def test_uniform_f1x4_prefers_nothing(self):
        pi = f1x4_frequencies([0.25] * 4)
        assert np.allclose(pi, 1.0 / 61.0)

    def test_benchmark_aa_model_deterministic(self):
        a, b = make_benchmark_aa_model(), make_benchmark_aa_model()
        assert np.array_equal(a.q, b.q)

    def test_empirical_model_requires_symmetry(self):
        r = np.random.default_rng(0).random((20, 20))
        with pytest.raises(ValueError, match="symmetric"):
            EmpiricalAAModel(r, np.full(20, 0.05))


class TestEigenMachinery:
    def test_reversible_decomposition_reconstructs_q(self):
        m = HKY85(2.0, [0.1, 0.2, 0.3, 0.4])
        e = m.eigen
        q = e.eigenvectors @ np.diag(e.eigenvalues) @ e.inverse_eigenvectors
        assert np.allclose(q, m.q, atol=1e-10)

    def test_reversible_eigenvalues_real_nonpositive(self):
        e = GTR([1, 2, 3, 4, 5, 6], [0.1, 0.2, 0.3, 0.4]).eigen
        assert not np.iscomplexobj(e.eigenvalues)
        assert np.all(e.eigenvalues <= 1e-12)

    def test_one_zero_eigenvalue(self):
        e = JC69().eigen
        assert np.sum(np.isclose(e.eigenvalues, 0.0, atol=1e-10)) == 1

    def test_general_decomposition_agrees_with_reversible(self):
        m = HKY85(2.0, [0.3, 0.2, 0.2, 0.3])
        general = eigendecompose_general(m.q)
        assert np.allclose(
            general.transition_matrix(0.4), m.transition_matrix(0.4),
            atol=1e-9,
        )

    def test_general_handles_nonreversible(self):
        # A cyclic (non-reversible) 3-state chain.
        q = np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [1.0, 0.0, -1.0]])
        e = eigendecompose_general(q)
        assert np.allclose(e.transition_matrix(0.5), expm(q * 0.5), atol=1e-9)

    def test_reversible_rejects_zero_frequency(self):
        with pytest.raises(ValueError, match="pi_i > 0"):
            eigendecompose_reversible(JC69().q, np.array([0.5, 0.5, 0.0, 0.0]))

    def test_normalize_rejects_zero_rate(self):
        with pytest.raises(ValueError, match="non-positive"):
            normalize_rate_matrix(np.zeros((4, 4)), np.full(4, 0.25))

    def test_build_reversible_q_shape_check(self):
        with pytest.raises(ValueError, match="shape"):
            build_reversible_q(np.ones((3, 3)), np.full(4, 0.25))
