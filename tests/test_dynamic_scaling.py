"""Dynamic rescaling mode (BEAGLE_FLAG_SCALING_DYNAMIC analogue)."""

import numpy as np
import pytest

from repro.core import compute
from repro.core.flags import Flag
from repro.core.highlevel import TreeLikelihood
from repro.model import JC69, HKY85, SiteModel
from repro.seq import compress_patterns, simulate_alignment
from repro.tree import balanced_tree, yule_tree


class TestRescaleThreshold:
    def test_infinite_threshold_rescales_everything(self):
        rng = np.random.default_rng(1)
        # Pattern p is scaled by 1e-10**p, so all but the first need a
        # nonzero exponent.
        partials = rng.random((2, 5, 4)) * (1e-10 ** np.arange(5))[:, None]
        rescaled, factors = compute.rescale_partials(
            partials.swapaxes(1, 2).copy()
        )
        rescaled = rescaled.swapaxes(1, 2)
        maxima = rescaled.max(axis=(0, 2))
        assert np.all((maxima >= 0.5) & (maxima < 1.0))
        assert np.array_equal(
            factors, np.frexp(partials.max(axis=(0, 2)))[1]
        )
        assert np.all(factors[1:] != 0)
        restored = np.ldexp(rescaled, factors[None, :, None])
        assert np.array_equal(restored, partials)

    def test_threshold_skips_comfortable_patterns(self):
        # 1e-3 is comfortable under the threshold but would get a
        # nonzero exponent in always mode, so "untouched" is observable.
        partials = np.full((1, 3, 4), 1e-3)
        partials[0, 1, :] = 1e-12  # only pattern 1 is in danger
        rescaled, factors = compute.rescale_partials(
            partials.swapaxes(1, 2).copy(), threshold=1e-6
        )
        rescaled = rescaled.swapaxes(1, 2)
        assert factors[0] == 0 and factors[2] == 0
        assert factors[1] == np.frexp(1e-12)[1]
        assert np.array_equal(rescaled[0, 0], partials[0, 0])   # untouched
        assert np.array_equal(rescaled[0, 2], partials[0, 2])   # untouched
        assert 0.5 <= rescaled[0, 1].max() < 1.0                # rescaled
        restored = np.ldexp(rescaled, factors[None, :, None])
        assert np.array_equal(restored, partials)

    def test_zero_patterns_still_propagate(self):
        partials = np.zeros((1, 2, 4))
        rescaled, factors = compute.rescale_partials(
            partials.swapaxes(1, 2).copy(), threshold=1e-6
        )
        rescaled = rescaled.swapaxes(1, 2)
        assert np.all(rescaled == 0.0)
        assert np.all(factors == 0.0)


class TestDynamicScalingEndToEnd:
    @pytest.fixture(scope="class")
    def deep_setup(self):
        tree = balanced_tree(128, branch_length=0.05)
        model = JC69()
        aln = simulate_alignment(tree, model, 40, rng=2)
        return tree, compress_patterns(aln), model

    def test_dynamic_equals_always(self, deep_setup):
        tree, data, model = deep_setup
        with TreeLikelihood(
            tree, data, model, precision="single", use_scaling="always"
        ) as tl:
            always = tl.log_likelihood()
        with TreeLikelihood(
            tree, data, model, precision="single", use_scaling="dynamic"
        ) as tl:
            dynamic = tl.log_likelihood()
        assert np.isfinite(dynamic)
        assert np.isclose(dynamic, always, rtol=1e-3)

    def test_dynamic_writes_fewer_factors(self, deep_setup):
        """Near the tips nothing needs rescaling yet: dynamic mode leaves
        those scale buffers at zero while always-mode rescales every
        buffer, bringing each pattern's maximum into [0.5, 1)."""
        tree, data, model = deep_setup

        def rescaled_buffers(mode):
            with TreeLikelihood(
                tree, data, model, precision="single", use_scaling=mode
            ) as tl:
                tl.log_likelihood()
                impl = tl.instance.impl
                total = nonzero = 0
                for i in range(tree.n_internal):
                    factors = impl.get_scale_factors(i)
                    total += factors.size
                    nonzero += int(np.count_nonzero(factors))
                maxima = [
                    tl.instance.get_partials(
                        tl.partials_index(node.index)
                    ).max(axis=(0, 2))
                    for node in tree.root.postorder()
                    if not node.is_tip
                ]
            return nonzero / total, np.stack(maxima)

        dynamic_fraction, dynamic_maxima = rescaled_buffers("dynamic")
        always_fraction, always_maxima = rescaled_buffers("always")
        assert dynamic_fraction < 0.5
        assert dynamic_fraction < always_fraction
        assert np.all((always_maxima >= 0.5) & (always_maxima < 1.0))
        # Buffers dynamic mode left alone keep maxima outside [0.5, 1).
        assert np.any(dynamic_maxima < 0.5)

    def test_dynamic_on_accelerated_backend(self, deep_setup):
        tree, data, model = deep_setup
        with TreeLikelihood(
            tree, data, model, precision="single", use_scaling="always"
        ) as tl:
            want = tl.log_likelihood()
        with TreeLikelihood(
            tree, data, model, precision="single", use_scaling="dynamic",
            requirement_flags=Flag.FRAMEWORK_CUDA,
        ) as tl:
            got = tl.log_likelihood()
        assert np.isclose(got, want, rtol=1e-3)

    def test_invalid_mode_rejected(self):
        tree = yule_tree(4, rng=3)
        model = HKY85(2.0)
        data = compress_patterns(simulate_alignment(tree, model, 50, rng=4))
        with pytest.raises(ValueError, match="use_scaling"):
            TreeLikelihood(tree, data, model, use_scaling="sometimes")

    def test_impl_mode_validation(self):
        from repro.core.types import InstanceConfig
        from repro.impl import CPUSSEImplementation

        config = InstanceConfig(
            tip_count=2, partials_buffer_count=3, compact_buffer_count=0,
            state_count=4, pattern_count=4, eigen_buffer_count=1,
            matrix_buffer_count=3,
        )
        with pytest.raises(ValueError, match="scaling_mode"):
            CPUSSEImplementation(config, "double", scaling_mode="never")