"""The block recorded on the tape, for training.

`core` defines the block's math once on raw tensors; handed tape `Var`s it
records itself, so a taped step equals `core.et_step` to the last bit.  The
functions here only route a loss function's tensors into it: `pv` maps
checkpoint names ("et.norm.gamma", "et.attn.w_key", ...) to Vars, and `et`
is the block's `EtParams`, which supplies everything that is not learned.

Token arrays may carry leading batch axes; parameters are shared.
"""

from __future__ import annotations

from .autodiff import Var
from .core import (
    EtParams,
    attention_update_of,
    hopfield_update_of,
    layer_norm_of,
    mask_matrix,
)

# et_step_v looks this name up at call time, so replacing it changes every
# taped step; it is called positionally as (g, w_key, w_query, beta, mask)
attention_update_v = attention_update_of


def et_step_v(x: Var, pv: dict[str, Var], et: EtParams, alpha: float, beta=None) -> Var:
    """One taped update x' = x + alpha * (-dE/dg), matching core.et_step.

    `beta`, e.g. a learnable Var, replaces et.attn.beta.
    """
    g = layer_norm_of(x, pv["et.norm.gamma"], pv["et.norm.delta"], et.norm.epsilon)
    parts = []
    if et.enable_attn:
        beta = et.attn.beta if beta is None else beta
        mask = mask_matrix(et.attn.mask_mode, x.shape[-2])
        parts.append(attention_update_v(g, pv["et.attn.w_key"], pv["et.attn.w_query"], beta, mask))
    if et.enable_hopfield:
        parts.append(hopfield_update_of(g, pv["et.hopfield.xi"], et.hopfield.activation))
    return x + alpha * sum(parts[1:], parts[0])


def et_unroll_v(x: Var, pv: dict[str, Var], et: EtParams, n_steps: int, alpha: float, beta=None):
    """n_steps taped updates (backpropagation goes through every one)."""
    for _ in range(n_steps):
        x = et_step_v(x, pv, et, alpha, beta)
    return x
