"""Shared numpy kernels.

Both the analytic inference path (`core`) and the recorded training path
(`autodiff` primitives) call these functions, so the two routes perform
bit-identical floating-point arithmetic.
"""

from __future__ import annotations

import numpy as np

Array = np.ndarray


def mean_subtract(x: Array) -> Array:
    """Subtract the mean of the last axis from each row."""
    return x - x.mean(axis=-1, keepdims=True)


def rsqrt_normalize(u: Array, epsilon: float) -> Array:
    """Divide each row by sqrt(mean of squares + epsilon).

    Composed after `mean_subtract` this is the unscaled layer norm.
    """
    s = np.sqrt((u * u).mean(axis=-1, keepdims=True) + epsilon)
    return u / s


def _allowed_entries(scores: Array, mask: Array | None) -> tuple[Array, Array, Array] | None:
    """Flat indices, row starts and row counts of the allowed entries.

    None (the dense branch) unless `mask` is 2-D like the last two axes of
    `scores`, allows at most half of its entries and leaves no row empty.
    """
    if mask is None or mask.ndim != 2 or mask.shape != scores.shape[-2:]:
        return None
    if 2 * np.count_nonzero(mask) > mask.size:
        return None
    idx = np.flatnonzero(mask)
    counts = np.bincount(idx // mask.shape[1], minlength=mask.shape[0])
    if idx.size == 0 or not counts.all():
        return None
    starts = np.concatenate(([0], np.cumsum(counts[:-1])))
    return idx, starts, counts


def _shifted_exp(scores: Array, mask: Array | None) -> tuple[Array, Array]:
    """exp(z - max z) over the last axis, and the max (keepdims).

    z is `scores` with the disallowed entries at -inf, which exponentiate to
    exactly 0.  With a sparse mask only the allowed entries are gathered,
    maximized, shifted, exponentiated and scattered into zeros: each value
    is the same float64 operation on the same operands as in the dense
    branch, so both branches give the same bits.
    """
    allowed = _allowed_entries(scores, mask)
    if allowed is None:
        z = scores if mask is None else np.where(mask, scores, -np.inf)
        m = z.max(axis=-1, keepdims=True)
        return np.exp(z - m), m
    idx, starts, counts = allowed
    s = np.take(scores.reshape(scores.shape[:-2] + (-1,)), idx, axis=-1)
    m = np.maximum.reduceat(s, starts, axis=-1)
    e = np.exp(s - np.repeat(m, counts, axis=-1))
    w = np.zeros(scores.shape, dtype=e.dtype)
    matrix_starts = np.arange(0, w.size, mask.size)[:, None]
    np.put(w, matrix_starts + idx, e)
    return w, m[..., None]


def masked_logsumexp(scores: Array, mask: Array | None) -> Array:
    """Stable log-sum-exp over the last axis, restricted to `mask`.

    `mask` is a boolean array broadcastable to `scores`; None means all
    entries participate.  Rows whose mask is empty must be rejected by the
    caller: they would produce log(0).  A 2-D mask that allows at most half
    of its entries and no empty row exponentiates only its allowed entries;
    the result has the same bits as the dense formula.
    """
    w, m = _shifted_exp(scores, mask)
    return (m + np.log(w.sum(axis=-1, keepdims=True)))[..., 0]


def masked_softmax(scores: Array, mask: Array | None) -> Array:
    """Softmax over the last axis restricted to `mask` (None = dense).

    A 2-D mask that allows at most half of its entries and no empty row
    exponentiates only its allowed entries; the result has the same bits as
    the dense formula.
    """
    w, _ = _shifted_exp(scores, mask)
    w /= w.sum(axis=-1, keepdims=True)
    return w


def stable_sigmoid(x: Array) -> Array:
    """Logistic function computed without overflow in either tail."""
    x = np.asarray(x)
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softmax_backward(grad: Array, weights: Array) -> Array:
    """Vector-Jacobian product of a (masked) softmax over the last axis."""
    inner = (grad * weights).sum(axis=-1, keepdims=True)
    return weights * (grad - inner)


def rsqrt_normalize_backward(grad: Array, u: Array, epsilon: float) -> Array:
    """Vector-Jacobian product of `rsqrt_normalize` over the last axis."""
    d = u.shape[-1]
    s = np.sqrt((u * u).mean(axis=-1, keepdims=True) + epsilon)
    inner = (grad * u).sum(axis=-1, keepdims=True)
    return grad / s - u * (inner / (d * s**3))
