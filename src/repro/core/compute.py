"""Canonical array-level likelihood mathematics.

This module is the single source of truth for what every kernel computes:
the partial-likelihoods recursion (paper eq. 1), transition-matrix
construction from an eigendecomposition, rescaling, and the root/edge
likelihood integrations.  Hardware implementations differ in *how* they
schedule this work (scalar loops, vector units, threads, simulated
devices), never in *what* they compute — tests assert cross-implementation
agreement against these functions.

Array layout (the storage layout of the host implementations and of
the accelerated backends' device pools, whose lowered kernels emit
these same array forms):

* partials:  ``(n_categories, n_states, n_patterns)`` — patterns
  innermost, so the pattern axis is the contiguous vector axis.  This is
  the paper's own mapping: GPU kernels put patterns on threads and the
  OpenCL-x86 variant loops over states inside each work item.
* matrices:  ``(n_categories, n_states, n_states)``, row = parent state
* gap-extended matrices: ``(n_categories, n_states, n_states + 1)``
* tip states: ``(n_patterns,)`` int32, value ``n_states`` = gap/unknown

The ``beagle_*`` surface (``set_partials``, ``set_tip_partials``,
``get_partials``) keeps BEAGLE's ``(n_categories, n_patterns,
n_states)`` order; every implementation transposes only there.

The partials kernels write straight into ``out`` and use one
``scratch`` array of the same shape for the second child's term, so a
caller that owns both buffers allocates nothing per operation.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

#: Effective floating-point operation count per (pattern, category) entry
#: of one partial-likelihoods operation, as a function of the state count.
#: Each of ``s`` destination entries consumes two inner products of length
#: ``s`` (mul+add each) plus one final multiply: ``s * (4s + 1)``.  This is
#: the FLOP accounting behind every GFLOPS number reported by the paper's
#: genomictest methodology (section V-A) and by this reproduction.
def partials_flops(state_count: int) -> int:
    return state_count * (4 * state_count + 1)


#: ``ln 2``.  Scale buffers hold the integer exponents
#: :func:`rescale_partials` returns; a buffer's log scale factors are its
#: exponents times ``LN2``, applied once where they enter a
#: log-likelihood, so sums of exponents stay exact in any order.
LN2 = float(np.log(2.0))


def matrices_from_eigen(
    eigenvectors: np.ndarray,
    inverse_eigenvectors: np.ndarray,
    eigenvalues: np.ndarray,
    branch_lengths: np.ndarray,
    category_rates: np.ndarray,
    dtype: np.dtype = np.float64,
) -> np.ndarray:
    """Transition matrices for every (branch, category) pair.

    Computes ``P = V diag(exp(lambda * t * r_c)) V^{-1}`` and clamps tiny
    negative round-off to zero.  Returns shape
    ``(n_branches, n_categories, s, s)``.  Each matrix is one GEMM of its
    own, so a branch gets the same bits whether it is computed alone or
    in a batch.
    """
    branch_lengths = np.asarray(branch_lengths, dtype=np.float64)
    category_rates = np.asarray(category_rates, dtype=np.float64)
    scaled = np.multiply.outer(branch_lengths, category_rates)  # (b, c)
    expd = np.exp(np.multiply.outer(scaled, eigenvalues))  # (b, c, s)
    p = np.matmul(
        eigenvectors * expd[..., np.newaxis, :], inverse_eigenvectors
    )
    p = np.clip(p.real if np.iscomplexobj(p) else p, 0.0, None)
    return np.ascontiguousarray(p, dtype=dtype)


def derivative_matrices_from_eigen(
    eigenvectors: np.ndarray,
    inverse_eigenvectors: np.ndarray,
    eigenvalues: np.ndarray,
    branch_lengths: np.ndarray,
    category_rates: np.ndarray,
    order: int = 1,
    dtype: np.dtype = np.float64,
) -> np.ndarray:
    """``d^order P/dt^order`` for every (branch, category) pair.

    Differentiating ``P = V diag(exp(lambda r t)) V^{-1}`` in ``t`` scales
    each spectral component by ``(lambda r)^order``, so the derivative is
    ``(r Q)^order P`` without ever forming ``Q``.  Unlike
    :func:`matrices_from_eigen` the result is *not* clamped: derivative
    entries are legitimately negative.  Returns shape
    ``(n_branches, n_categories, s, s)``, batch-invariant like
    :func:`matrices_from_eigen`.
    """
    if order < 1:
        raise ValueError(f"derivative order must be >= 1, got {order}")
    branch_lengths = np.asarray(branch_lengths, dtype=np.float64)
    category_rates = np.asarray(category_rates, dtype=np.float64)
    scaled = np.multiply.outer(branch_lengths, category_rates)  # (b, c)
    exponent = np.multiply.outer(scaled, eigenvalues)  # (b, c, s)
    rate_eig = np.multiply.outer(category_rates, eigenvalues)  # (c, s)
    diag = (rate_eig**order)[np.newaxis] * np.exp(exponent)
    d = np.matmul(
        eigenvectors * diag[..., np.newaxis, :], inverse_eigenvectors
    )
    d = d.real if np.iscomplexobj(d) else d
    return np.ascontiguousarray(d, dtype=dtype)


def extend_matrices_for_gaps(matrices: np.ndarray) -> np.ndarray:
    """Append a ones column so the gap state code ``s`` selects all-ones.

    Input ``(..., s, s)``; output ``(..., s, s + 1)``.  Column ``j`` of the
    result is the probability of observing child state *j* given parent
    state *i*; a gap observation is compatible with every child state.
    """
    pad = np.ones(matrices.shape[:-1] + (1,), dtype=matrices.dtype)
    return np.concatenate([matrices, pad], axis=-1)


# ---------------------------------------------------------------------------
# Partial-likelihood update kernels (vectorised reference forms)
# ---------------------------------------------------------------------------

def _buffers(
    shape: Tuple[int, ...],
    dtype: np.dtype,
    out: Optional[np.ndarray],
    scratch: Optional[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """``out`` and ``scratch``, allocating whichever the caller left out."""
    if out is None:
        out = np.empty(shape, dtype=dtype)
    if scratch is None:
        scratch = np.empty_like(out)
    return out, scratch


def _gather_states(
    matrices_ext: np.ndarray, states: np.ndarray, out: np.ndarray
) -> None:
    """``out[c, i, p] = matrices_ext[c, i, states[p]]`` (tip-state lift).

    ``mode="clip"`` lets NumPy write a contiguous ``out`` directly; the
    codes were range-checked when the tip was set.
    """
    np.take(matrices_ext, states, axis=2, out=out, mode="clip")


def update_partials_pp(
    partials1: np.ndarray,
    matrices1: np.ndarray,
    partials2: np.ndarray,
    matrices2: np.ndarray,
    out: Optional[np.ndarray] = None,
    scratch: Optional[np.ndarray] = None,
) -> np.ndarray:
    """partials x partials operation (both children internal/ambiguous).

    ``out[c, i, p] = (sum_j M1[c,i,j] L1[c,j,p]) * (sum_j M2[c,i,j] L2[c,j,p])``

    Implemented as two batched GEMMs ``M @ L``, which vectorise across
    the pattern axis and release the GIL inside BLAS — the property the
    threaded implementations rely on.  Child 2's term is formed in
    ``scratch`` before ``out`` is written, so ``out`` may alias either
    child's partials.
    """
    out, scratch = _buffers(
        partials1.shape, np.result_type(partials1, matrices1), out, scratch
    )
    np.matmul(matrices2, partials2, out=scratch)
    np.matmul(matrices1, partials1, out=out)
    np.multiply(out, scratch, out=out)
    return out


def update_partials_sp(
    states1: np.ndarray,
    matrices1_ext: np.ndarray,
    partials2: np.ndarray,
    matrices2: np.ndarray,
    out: Optional[np.ndarray] = None,
    scratch: Optional[np.ndarray] = None,
) -> np.ndarray:
    """states x partials operation (child 1 is a compact tip buffer).

    ``matrices1_ext`` must already carry the gap column
    (:func:`extend_matrices_for_gaps`), so a state code of ``s`` selects
    the all-ones column.  Child 2's term is formed in ``scratch`` first,
    so ``out`` may alias ``partials2``.
    """
    out, scratch = _buffers(
        partials2.shape, np.result_type(partials2, matrices2), out, scratch
    )
    np.matmul(matrices2, partials2, out=scratch)
    _gather_states(matrices1_ext, states1, out)
    np.multiply(out, scratch, out=out)
    return out


def update_partials_ss(
    states1: np.ndarray,
    matrices1_ext: np.ndarray,
    states2: np.ndarray,
    matrices2_ext: np.ndarray,
    out: Optional[np.ndarray] = None,
    scratch: Optional[np.ndarray] = None,
) -> np.ndarray:
    """states x states operation (both children are compact tip buffers)."""
    shape = matrices1_ext.shape[:-1] + states1.shape
    out, scratch = _buffers(shape, matrices1_ext.dtype, out, scratch)
    _gather_states(matrices1_ext, states1, out)
    _gather_states(matrices2_ext, states2, scratch)
    np.multiply(out, scratch, out=out)
    return out


def rescale_partials(
    partials: np.ndarray,
    threshold: float = np.inf,
) -> Tuple[np.ndarray, np.ndarray]:
    """Scale each pattern by a power of two, in place, to prevent underflow.

    Returns ``(partials, exponents)``: the first item is the argument
    itself, now rescaled, and the second holds one integer exponent
    ``e`` per pattern, shape ``(n_patterns,)``.  Pattern ``p`` is
    multiplied by ``2**-e[p]`` with ``e = frexp(maximum)``, so its
    maximum lands in ``[0.5, 1)`` and a pattern already there gets
    ``e = 0``.  A power-of-two multiply does not round, so the rescaled
    partials times ``2**e`` are exactly the input (unless a result is
    subnormal), and the log factor of pattern ``p`` is ``e[p] * LN2``.

    Patterns whose maximum is zero (an impossible site), infinite or NaN
    keep ``e = 0``: ``frexp`` returns 0 for them, so the zero propagates
    to the root, where the log-likelihood correctly becomes ``-inf``.
    ``e`` is clamped so ``2**-e`` stays finite in the partials' dtype; a
    subnormal maximum then comes out below ``0.5`` instead of as ``inf``.

    ``threshold`` implements *dynamic* scaling
    (``BEAGLE_FLAG_SCALING_DYNAMIC``): only patterns whose maximum has
    fallen below it are rescaled; comfortable patterns keep ``e = 0``.
    The default (infinity) rescales every pattern.
    """
    maxima = partials.max(axis=(0, 1))  # (p,)
    exponents = np.frexp(maxima)[1]
    if threshold < np.inf:
        exponents[~(maxima < threshold)] = 0
    np.maximum(exponents, 1 - np.finfo(partials.dtype).maxexp, out=exponents)
    partials *= np.ldexp(partials.dtype.type(1), -exponents)
    return partials, exponents


def _site_sums(
    partials: np.ndarray,
    category_weights: np.ndarray,
    state_frequencies: np.ndarray,
) -> np.ndarray:
    """``site[p] = sum_c w_c sum_i pi_i partials[c, i, p]``."""
    return np.matmul(category_weights, np.matmul(state_frequencies, partials))


def _log_likelihoods(
    site_lik: np.ndarray,
    pattern_weights: np.ndarray,
    cumulative_scale_log: Optional[np.ndarray],
) -> Tuple[float, np.ndarray]:
    with np.errstate(divide="ignore"):
        log_site = np.log(site_lik)
    if cumulative_scale_log is not None:
        log_site = log_site + cumulative_scale_log
    return float(np.dot(pattern_weights, log_site)), log_site


def root_log_likelihood(
    root_partials: np.ndarray,
    category_weights: np.ndarray,
    state_frequencies: np.ndarray,
    pattern_weights: np.ndarray,
    cumulative_scale_log: Optional[np.ndarray] = None,
) -> Tuple[float, np.ndarray]:
    """Integrate root partials into the total log-likelihood.

    ``site_lik[p] = sum_c w_c sum_i pi_i L_root[c, i, p]``;
    ``logL = sum_p weight_p (log site_lik[p] + scale[p])``.

    Returns ``(log_likelihood, per_pattern_log_likelihoods)``.
    """
    site_lik = _site_sums(root_partials, category_weights, state_frequencies)
    return _log_likelihoods(site_lik, pattern_weights, cumulative_scale_log)


def _edge_site_values(
    parent_partials: np.ndarray,
    child_partials: np.ndarray,
    edge_matrices: np.ndarray,
    category_weights: np.ndarray,
    state_frequencies: np.ndarray,
) -> np.ndarray:
    """``sum_c w_c sum_i pi_i parent[c,i,p] sum_j P[c,i,j] child[c,j,p]``."""
    lifted = np.matmul(edge_matrices, child_partials)
    lifted *= parent_partials
    return _site_sums(lifted, category_weights, state_frequencies)


def edge_log_likelihood(
    parent_partials: np.ndarray,
    child_partials: np.ndarray,
    edge_matrices: np.ndarray,
    category_weights: np.ndarray,
    state_frequencies: np.ndarray,
    pattern_weights: np.ndarray,
    cumulative_scale_log: Optional[np.ndarray] = None,
) -> Tuple[float, np.ndarray]:
    """Likelihood integrated over a branch (``calculateEdgeLogLikelihoods``).

    ``site_lik[p] = sum_c w_c sum_i pi_i parent[c,i,p]
    sum_j P[c,i,j] child[c,j,p]``.

    For a reversible model this equals the root likelihood of the tree
    rooted anywhere along that edge (the "pulley principle"), which the
    property-based tests exploit.
    """
    site_lik = _edge_site_values(
        parent_partials, child_partials, edge_matrices,
        category_weights, state_frequencies,
    )
    return _log_likelihoods(site_lik, pattern_weights, cumulative_scale_log)


def edge_derivatives(
    parent_partials: np.ndarray,
    child_partials: np.ndarray,
    edge_matrices: np.ndarray,
    d1_matrices: np.ndarray,
    d2_matrices: np.ndarray,
    category_weights: np.ndarray,
    state_frequencies: np.ndarray,
    pattern_weights: np.ndarray,
) -> Tuple[float, float, float]:
    """Log-likelihood and its first/second branch-length derivatives.

    ``d1_matrices``/``d2_matrices`` are ``Q P(t)`` and ``Q^2 P(t)``
    per category (computed by the eigensystem with scaled eigenvalues);
    derivatives follow from differentiating the per-site likelihood and
    the chain rule for the log.
    """
    f, f1, f2 = (
        _edge_site_values(
            parent_partials, child_partials, mats,
            category_weights, state_frequencies,
        )
        for mats in (edge_matrices, d1_matrices, d2_matrices)
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        log_site = np.log(f)
        g1 = f1 / f
        g2 = f2 / f - g1 * g1
    logl = float(np.dot(pattern_weights, log_site))
    d1 = float(np.dot(pattern_weights, g1))
    d2 = float(np.dot(pattern_weights, g2))
    return logl, d1, d2
