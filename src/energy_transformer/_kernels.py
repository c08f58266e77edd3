"""Shared numpy kernels.

Both the analytic inference path (`core`) and the recorded training path
(`autodiff` primitives) call these functions for their forward values, so
the two routes compute bit-identical values.  The backward kernels serve the
tape alone; the allowed-entry softmax VJP differs from the dense formula
only in summation order.

`masked_softmax` and `softmax_backward` take numpy's `out=`, which may be their
first argument.  `core.attention_update_of` puts the weights over the scores it
owns; the softmax VJP puts dS over its gradient when `autodiff.backward` finds
it private.  A graph step holds one (H, N, N) array, not two, and a graph-infer
op on a 2-vCPU VM no longer faults ~2,300 freed pages back in (~4 us each).
"""

from __future__ import annotations

import math
import weakref

import numpy as np

from .errors import DivergenceError

Array = np.ndarray


def mean_subtract(x: Array) -> Array:
    """Subtract the mean of the last axis (sum / n, ndarray.mean's bits) from each row."""
    return x - x.sum(axis=-1, keepdims=True) / x.shape[-1]


def rsqrt_normalize(u: Array, epsilon: float) -> Array:
    """Divide each row by sqrt(mean of squares + epsilon).

    Composed after `mean_subtract` this is the unscaled layer norm.  A scale
    that overflowed to inf raises DivergenceError; NaN passes to later checks.
    """
    s = np.sqrt((u * u).sum(axis=-1, keepdims=True) / u.shape[-1] + epsilon)
    if math.isinf(np.add.reduce(s, axis=None)):
        raise DivergenceError("layer norm variance overflowed to inf")
    return u / s


def relu(x: Array) -> Array:
    return np.maximum(x, 0.0)


# id(mask) -> layout of a read-only mask; an entry leaves with its mask
_LAYOUTS: dict[int, tuple[Array, Array, Array] | None] = {}


def _derive_layout(mask: Array) -> tuple[Array, Array, Array] | None:
    """Flat indices, row starts and row counts of a 2-D mask's allowed entries.

    None (the dense branch) when the mask allows more than half of its
    entries or leaves a row empty.
    """
    if 2 * np.count_nonzero(mask) > mask.size:
        return None
    idx = np.flatnonzero(mask)
    counts = np.bincount(idx // mask.shape[1], minlength=mask.shape[0])
    if idx.size == 0 or not counts.all():
        return None
    starts = np.concatenate(([0], np.cumsum(counts[:-1])))
    return idx, starts, counts


def _allowed_entries(scores: Array, mask: Array | None) -> tuple[Array, Array, Array] | None:
    """Layout of `mask`'s allowed entries (see `_derive_layout`), or None.

    None (the dense branch) also when `mask` is not 2-D like the last two
    axes of `scores`.  A read-only mask that owns its data (as
    `GraphNeighborhood` makes its adjacency) cannot change, so its layout is
    derived once and kept while the mask lives; any other mask may be edited
    between calls and is derived on every call.
    """
    if mask is None or mask.ndim != 2 or mask.shape != scores.shape[-2:]:
        return None
    if mask.flags.writeable or not mask.flags.owndata:
        return _derive_layout(mask)
    key = id(mask)
    if key not in _LAYOUTS:
        _LAYOUTS[key] = _derive_layout(mask)
        weakref.finalize(mask, _LAYOUTS.pop, key, None)
    return _LAYOUTS[key]


def _gather(a: Array, idx: Array) -> Array:
    """The entries at flat indices `idx` of each trailing matrix: (..., E)."""
    return np.take(a.reshape(a.shape[:-2] + (-1,)), idx, axis=-1)


def _scatter(values: Array, idx: Array, shape: tuple[int, ...], out: Array | None) -> Array:
    """Zeros of `shape` (or `out`, zero-filled) with `values` (..., E) at flat
    indices `idx` of each trailing matrix; the inverse of `_gather`."""
    if out is None:
        out = np.zeros(shape, dtype=values.dtype)
    else:
        out.fill(0.0)
    matrix_size = shape[-2] * shape[-1]
    np.put(out, np.arange(0, out.size, matrix_size)[:, None] + idx, values)
    return out


def _shifted_exp(scores: Array, mask: Array | None, out: Array | None = None) -> tuple[Array, Array]:
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
        return np.exp(np.subtract(z, m, out=out), out=out), m
    idx, starts, counts = allowed
    s = _gather(scores, idx)
    m = np.maximum.reduceat(s, starts, axis=-1)
    e = np.exp(s - np.repeat(m, counts, axis=-1))
    return _scatter(e, idx, scores.shape, out), m[..., None]


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


def masked_softmax(scores: Array, mask: Array | None, out: Array | None = None) -> Array:
    """Softmax over the last axis restricted to `mask` (None = dense).

    A 2-D mask that allows at most half of its entries and no empty row
    exponentiates only its allowed entries; the result has the same bits as
    the dense formula.
    """
    w, _ = _shifted_exp(scores, mask, out)
    w /= w.sum(axis=-1, keepdims=True)
    return w


def attention_terms(g: Array, a: Array, w: Array) -> Array:
    """sum_h w_h (g a_h^T) + w_h^T (g a_h): the "from" and "to" terms of
    attention's -dE/dg, (..., N, D), for tokens g (..., N, D), one (D, D)
    form per head a (H, D, D) and softmax weights w (..., H, N, N).

    Every N x N product runs feature-major, (D, N) by (N, N): the result is
    the transpose of sum_h (a_h g^T) w_h^T + (a_h^T g^T) w_h.
    """
    gt = g.swapaxes(-1, -2)[..., None, :, :]
    out_t = (a @ gt) @ w.swapaxes(-1, -2) + (a.swapaxes(-1, -2) @ gt) @ w
    return out_t.sum(axis=-3).swapaxes(-1, -2)


def stable_sigmoid(x: Array) -> Array:
    """Logistic function computed without overflow in either tail."""
    x = np.asarray(x)
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softmax_backward(
    grad: Array, weights: Array, mask: Array | None, out: Array | None = None
) -> Array:
    """Vector-Jacobian product of `masked_softmax` over the last axis.

    `weights` is the softmax output and `mask` the mask it was computed
    with.  Where the forward takes its allowed-entry branch, so does this:
    the row inner products are summed over the allowed entries alone and
    the disallowed entries are exactly 0.  That differs from the dense
    formula only in summation order (round-off); every other mask gets the
    dense formula.
    """
    allowed = _allowed_entries(weights, mask)
    if allowed is None:
        inner = (grad * weights).sum(axis=-1, keepdims=True)
        return np.multiply(weights, np.subtract(grad, inner, out=out), out=out)
    idx, starts, counts = allowed
    g = _gather(grad, idx)
    w = _gather(weights, idx)
    inner = np.add.reduceat(g * w, starts, axis=-1)
    return _scatter(w * (g - np.repeat(inner, counts, axis=-1)), idx, weights.shape, out)


def rsqrt_normalize_backward(grad: Array, u: Array, epsilon: float) -> Array:
    """Vector-Jacobian product of `rsqrt_normalize` over the last axis."""
    d = u.shape[-1]
    s = np.sqrt((u * u).sum(axis=-1, keepdims=True) / d + epsilon)
    inner = (grad * u).sum(axis=-1, keepdims=True)
    return grad / s - u * (inner / (d * s**3))
