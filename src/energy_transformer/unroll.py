"""Block computations expressed as tape primitives for training.

These builders mirror `core` operation-for-operation (same kernels, same
order of floating-point work), so a recorded unrolled forward pass produces
bit-identical values to the analytic inference path while remaining
differentiable with respect to every parameter via `autodiff.backward`.

Token arrays may carry leading batch axes; parameters are shared.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .core import Activation, Power, Relu, Softmax

Array = np.ndarray


def layer_norm_v(x: Var, gamma: Var, delta: Var, epsilon: float) -> Var:
    """Taped layer norm over the last axis."""
    return ad.mul(ad.rsqrt_normalize(ad.mean_subtract(x), epsilon), gamma) + delta


def _scores_v(g: Var, w_key: Var, w_query: Var, beta: float | Var):
    """Head-major projections, keys, queries and scaled scores beta * <Q, K>."""
    wk = ad.transpose(w_key, (1, 0, 2))   # (H, Y, D)
    wq = ad.transpose(w_query, (1, 0, 2))
    gh = ad.reshape(g, g.shape[:-2] + (1,) + g.shape[-2:])
    k = ad.matmul(gh, ad.transpose(wk, (0, 2, 1)))  # (..., H, N, Y)
    q = ad.matmul(gh, ad.transpose(wq, (0, 2, 1)))
    qk = ad.matmul(q, ad.transpose(k, tuple(range(k.value.ndim - 2)) + (-1, -2)))
    scores = ad.mul(beta, qk) if isinstance(beta, Var) else ad.scale(qk, beta)
    return wk, wq, k, q, scores


def attention_update_v(
    g: Var,
    w_key: Var,
    w_query: Var,
    beta: float | Var,
    mask: Array,
) -> Var:
    """Taped descent direction of the attention energy (see core.attention_grad)."""
    wk, wq, k, q, scores = _scores_v(g, w_key, w_query, beta)
    w = ad.masked_softmax(scores, mask)
    term_from = ad.matmul(ad.matmul(w, k), wq)
    w_t = ad.transpose(w, tuple(range(w.value.ndim - 2)) + (-1, -2))
    term_to = ad.matmul(ad.matmul(w_t, q), wk)
    return ad.sum_(term_from + term_to, axis=-3)


def hopfield_update_v(g: Var, xi: Var, activation: Activation) -> Var:
    """Taped descent direction of the memory energy (see core.hopfield_grad)."""
    hid = ad.matmul(g, ad.transpose(xi, (1, 0)))
    if isinstance(activation, Relu):
        f = ad.relu(hid)
    elif isinstance(activation, Power):
        f = ad.power(ad.relu(hid), activation.n - 1)
    elif isinstance(activation, Softmax):
        f = ad.masked_softmax(ad.scale(hid, activation.beta), None)
    else:
        raise TypeError(f"unknown activation {activation!r}")
    return ad.matmul(f, xi)


def et_step_v(
    x: Var,
    *,
    gamma: Var,
    delta: Var,
    epsilon: float,
    w_key: Var,
    w_query: Var,
    beta: float | Var,
    mask: Array,
    xi: Var,
    activation: Activation,
    enable_attn: bool,
    enable_hopfield: bool,
    alpha: float,
) -> Var:
    """One taped update x' = x + alpha * (-dE/dg), matching core.et_step."""
    g = layer_norm_v(x, gamma, delta, epsilon)
    if enable_attn and enable_hopfield:
        upd = attention_update_v(g, w_key, w_query, beta, mask) + hopfield_update_v(
            g, xi, activation
        )
    elif enable_attn:
        upd = attention_update_v(g, w_key, w_query, beta, mask)
    else:
        upd = hopfield_update_v(g, xi, activation)
    return x + ad.scale(upd, alpha)


def et_unroll_v(x: Var, n_steps: int, **step_kwargs) -> Var:
    """n_steps taped updates (backpropagation goes through every one)."""
    for _ in range(n_steps):
        x = et_step_v(x, **step_kwargs)
    return x


def total_energy_v(
    x: Var,
    *,
    gamma: Var,
    delta: Var,
    epsilon: float,
    w_key: Var,
    w_query: Var,
    beta: float,
    mask: Array,
    xi: Var,
    activation: Activation,
    enable_attn: bool,
    enable_hopfield: bool,
) -> Var:
    """Taped scalar total energy, for losses defined directly on the energy."""
    g = layer_norm_v(x, gamma, delta, epsilon)
    parts = []
    if enable_attn:
        *_, scores = _scores_v(g, w_key, w_query, beta)
        lse = ad.masked_logsumexp(scores, mask)
        parts.append(ad.scale(ad.sum_(lse), -1.0 / beta))
    if enable_hopfield:
        hid = ad.matmul(g, ad.transpose(xi, (1, 0)))
        act = activation
        if isinstance(act, Relu):
            e = ad.scale(ad.sum_(ad.square(ad.relu(hid))), -0.5)
        elif isinstance(act, Power):
            e = ad.scale(ad.sum_(ad.power(ad.relu(hid), act.n)), -1.0 / act.n)
        elif isinstance(act, Softmax):
            e = ad.scale(
                ad.sum_(ad.masked_logsumexp(ad.scale(hid, act.beta), None)),
                -1.0 / act.beta,
            )
        else:
            raise TypeError(f"unknown activation {act!r}")
        parts.append(e)
    out = parts[0]
    for p in parts[1:]:
        out = out + p
    return out
