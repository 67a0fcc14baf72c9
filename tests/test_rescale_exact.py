"""Power-of-two rescaling on hostile inputs, on the host and on device.

``compute.rescale_partials`` (every host backend) and the lowered
``DynamicRescale`` kernel (cuda-sim here) multiply each pattern by
``2**-e`` with ``e = frexp(maximum)`` and store ``e``.  These tests pin
the edges of that scheme: subnormal maxima stay finite, zero, inf and
NaN maxima keep ``e = 0``, a power-of-two multiply restores exactly,
slices rescale like the whole axis, and cumulative exponent sums do not
depend on the order of the scale-index list.
"""

import numpy as np
import pytest

from repro.config import backend_flags
from repro.core import compute
from repro.core.highlevel import TreeLikelihood
from repro.core.instance import BeagleInstance
from repro.core.types import InstanceConfig, Operation
from repro.impl.base import BaseImplementation
from repro.model import HKY85, SiteModel
from repro.seq import compress_patterns, simulate_alignment
from repro.tree import yule_tree

DTYPES = {"single": np.float32, "double": np.float64}
#: A subnormal pattern maximum in each precision.
SUBNORMAL = {"single": 1e-40, "double": 1e-310}
#: A normal maximum below each precision's dynamic-scaling threshold.
TINY = {"single": 1e-20, "double": 1e-250}
PATHS = ("host", "cuda")


def _instance(backend, precision, mode, pattern_count, category_count):
    """Two dense tips (buffers 0 and 1) and one internal buffer, 2."""
    return BeagleInstance(
        InstanceConfig(
            tip_count=2, partials_buffer_count=3,
            compact_buffer_count=0, state_count=4,
            pattern_count=pattern_count, eigen_buffer_count=1,
            matrix_buffer_count=1, category_count=category_count,
            scale_buffer_count=2,
        ),
        precision, scaling_mode=mode, **backend_flags(backend),
    )


def _rescale(path, partials, precision, mode="always"):
    """Rescale ``(c, s, p)`` partials; return ``(rescaled, exponents)``.

    ``host`` calls ``compute.rescale_partials``; ``cuda`` runs the
    lowered scaling kernel of a cuda-sim instance on a device buffer.
    """
    partials = partials.astype(DTYPES[precision])
    if path == "host":
        threshold = (
            np.inf if mode == "always"
            else BaseImplementation.DYNAMIC_SCALING_THRESHOLDS[precision]
        )
        rescaled, exponents = compute.rescale_partials(
            partials.copy(), threshold=threshold
        )
        return rescaled, exponents
    c, _, p = partials.shape
    inst = _instance("cuda", precision, mode, p, category_count=c)
    impl = inst.impl
    inst.set_partials(2, partials.swapaxes(1, 2))
    geom, _ = impl._partials_geometry()
    impl._apply_device_scaling(Operation(2, 0, 0, 1, 0, write_scale=0), geom)
    rescaled = inst.get_partials(2).swapaxes(1, 2)
    exponents = np.array(impl._cumulative_scale(0))
    inst.finalize()
    return rescaled, exponents


def _random_partials(rng, shape=(2, 4, 9)):
    """Partials whose patterns span many binades, like a deep tree's."""
    magnitudes = 10.0 ** -rng.integers(0, 30, size=shape[-1])
    return rng.random(shape) * magnitudes


@pytest.mark.parametrize("precision", sorted(DTYPES))
@pytest.mark.parametrize("path", PATHS)
class TestHostileRescale:
    def test_subnormal_maximum_stays_finite_and_restores(self, path,
                                                         precision):
        dtype = DTYPES[precision]
        partials = np.full((2, 4, 3), 0.25, dtype=dtype)
        partials[:, :, 1] = dtype(SUBNORMAL[precision])
        partials[0, 0, 1] = 0.0
        assert partials[:, :, 1].max() < np.finfo(dtype).tiny
        with np.errstate(over="raise"):
            rescaled, exponents = _rescale(path, partials, precision)
        assert np.all(np.isfinite(rescaled))
        # The clamp keeps 2**-e finite; the maximum stays below 0.5.
        assert exponents[1] == 1 - np.finfo(dtype).maxexp
        assert 0.0 < rescaled[:, :, 1].max() < 0.5
        assert np.array_equal(
            np.ldexp(rescaled, exponents.astype(np.intc)), partials
        )

    @pytest.mark.parametrize("mode", ["always", "dynamic"])
    def test_zero_inf_and_nan_maxima_keep_exponent_zero(self, path,
                                                        precision, mode):
        partials = np.full((2, 4, 4), TINY[precision])
        partials[:, :, 0] = 0.0
        partials[1, 2, 1] = np.inf
        partials[0, 3, 2] = np.nan
        rescaled, exponents = _rescale(path, partials, precision, mode)
        assert np.array_equal(exponents[:3], [0, 0, 0])
        assert exponents[3] == np.frexp(DTYPES[precision](TINY[precision]))[1]
        assert np.all(rescaled[:, :, 0] == 0.0)
        assert rescaled[1, 2, 1] == np.inf
        assert np.isnan(rescaled[0, 3, 2])

    def test_slices_rescale_like_the_whole_axis(self, path, precision):
        partials = _random_partials(np.random.default_rng(40))
        partials = partials.astype(DTYPES[precision])
        whole, whole_e = _rescale(path, partials, precision)
        parts = partials.copy()
        exponents = np.empty(parts.shape[-1], dtype=np.int32)
        for sl in (slice(0, 4), slice(4, None)):
            _, exponents[sl] = compute.rescale_partials(parts[:, :, sl])
        assert np.array_equal(whole, parts)
        assert np.array_equal(whole_e, exponents)

    def test_restore_is_exact(self, path, precision):
        partials = _random_partials(np.random.default_rng(41))
        partials = partials.astype(DTYPES[precision])
        rescaled, exponents = _rescale(path, partials, precision)
        maxima = rescaled.max(axis=(0, 1))
        assert np.all((maxima >= 0.5) & (maxima < 1.0))
        assert np.array_equal(
            rescaled * np.ldexp(1.0, exponents.astype(np.intc)), partials
        )


@pytest.mark.parametrize("precision", sorted(DTYPES))
@pytest.mark.parametrize("mode", ["always", "dynamic"])
@pytest.mark.parametrize("backend", ["cpu-sse", "cuda"])
def test_zero_pattern_reaches_the_root_as_minus_inf(backend, mode,
                                                    precision):
    rng = np.random.default_rng(42)
    inst = _instance(backend, precision, mode, pattern_count=5,
                     category_count=1)
    tip0 = rng.random((5, 4)) * 1e-30
    tip0[0] = 0.0  # pattern 0 is impossible
    inst.set_tip_partials(0, tip0)
    inst.set_tip_partials(1, rng.random((5, 4)))
    inst.set_transition_matrix(0, np.eye(4)[None])
    inst.update_partials([Operation(2, 0, 0, 1, 0, write_scale=0)])
    inst.reset_scale_factors(1)
    inst.accumulate_scale_factors([0], 1)
    inst.calculate_root_log_likelihoods(2, cumulative_scale_index=1)
    site = inst.get_site_log_likelihoods()
    assert site[0] == -np.inf
    assert np.all(np.isfinite(site[1:]))
    assert inst.impl.get_scale_factors(0)[0] == 0.0
    inst.finalize()


@pytest.mark.parametrize("backend", ["cpu-sse", "cpp-threads", "cuda"])
def test_cumulative_sum_ignores_index_order(backend):
    """Exponent sums are exact, so the accumulation order cannot move a
    bit of the cumulative buffer."""
    tree = yule_tree(40, rng=43)
    model = HKY85(2.0, [0.3, 0.2, 0.2, 0.3])
    site = SiteModel.gamma(0.5, 4)
    data = compress_patterns(
        simulate_alignment(tree, model, 400, site, rng=44)
    )
    with TreeLikelihood(tree, data, model, site, use_scaling="always",
                        **backend_flags(backend)) as tl:
        tl.log_likelihood()
        inst, cum = tl.instance, tl._cumulative_scale
        indices = list(range(tree.n_internal))
        sums = []
        for order in (indices, indices[::-1],
                      list(np.random.default_rng(45).permutation(indices))):
            inst.reset_scale_factors(cum)
            inst.accumulate_scale_factors([int(i) for i in order], cum)
            sums.append(inst.impl.get_scale_factors(cum))
    assert np.array_equal(sums[0], sums[1])
    assert np.array_equal(sums[0], sums[2])
