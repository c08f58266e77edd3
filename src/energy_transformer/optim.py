"""Adam with decoupled weight decay and global gradient-norm clipping, and
the training step both tasks take with it."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .errors import DivergenceError

Array = np.ndarray
EPS = 1e-8  # Adam's denominator offset


def global_norm(grads: dict[str, Array]) -> float:
    """Euclidean norm of all gradients stacked into one vector."""
    total = 0.0
    for g in grads.values():
        total += float((g * g).sum())
    return float(np.sqrt(total))


def clip_by_global_norm(grads: dict[str, Array], max_norm: float) -> dict[str, Array]:
    """Rescale gradients so their global norm is at most max_norm."""
    norm = global_norm(grads)
    if norm <= max_norm:
        return grads
    factor = max_norm / norm
    return {k: g * factor for k, g in grads.items()}


@dataclass
class AdamState:
    """First/second moment accumulators plus the hyperparameters."""

    m: dict[str, Array]
    v: dict[str, Array]
    step: int
    lr: float
    b1: float = 0.9
    b2: float = 0.99
    weight_decay: float = 0.0
    grad_clip: float | None = 1.0
    decay_exempt: frozenset[str] = field(default_factory=frozenset)

    @classmethod
    def init(cls, params: dict[str, Array], lr: float, **kwargs) -> "AdamState":
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
            step=0,
            lr=lr,
            **kwargs,
        )


def adam_step(
    params: dict[str, Array],
    grads: dict[str, Array],
    state: AdamState,
    lr_scale: float = 1.0,
) -> tuple[dict[str, Array], AdamState]:
    """One bias-corrected Adam update; weight decay is applied separately.

    Gradients are clipped by global norm first (when grad_clip is set),
    then fed to the moment accumulators.  Decay multiplies the parameter
    directly by lr*weight_decay, skipping names in decay_exempt.
    lr_scale supports warmup schedules.  Pure: inputs are not mutated.
    """
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise DivergenceError(f"non-finite gradient for {name!r}")
    if state.grad_clip is not None:
        grads = clip_by_global_norm(grads, state.grad_clip)
    t = state.step + 1
    lr = state.lr * lr_scale
    new_params, new_m, new_v = {}, {}, {}
    for name, p in params.items():
        g = grads[name]
        m = state.b1 * state.m[name] + (1.0 - state.b1) * g
        v = state.b2 * state.v[name] + (1.0 - state.b2) * g * g
        m_hat = m / (1.0 - state.b1**t)
        v_hat = v / (1.0 - state.b2**t)
        p_new = p - lr * m_hat / (np.sqrt(v_hat) + EPS)
        if state.weight_decay and name not in state.decay_exempt:
            p_new = p_new - lr * state.weight_decay * p
        new_params[name] = p_new
        new_m[name] = m
        new_v[name] = v
    return new_params, replace(state, m=new_m, v=new_v, step=t)


@dataclass
class TrainConfig:
    """Optimizer and schedule settings both tasks train with; warmup_steps
    ramps the learning rate linearly over the first steps (0: no warmup)."""

    epochs: int = 100
    lr: float = 1e-3
    b1: float = 0.9
    b2: float = 0.99
    weight_decay: float = 0.0
    grad_clip: float | None = 1.0
    warmup_steps: int = 0
    seed: int = 0

    def adam(self, tensors: dict[str, Array], decay_exempt: frozenset[str]) -> AdamState:
        """Fresh Adam state for `tensors` with these hyperparameters."""
        return AdamState.init(
            tensors,
            lr=self.lr,
            b1=self.b1,
            b2=self.b2,
            weight_decay=self.weight_decay,
            grad_clip=self.grad_clip,
            decay_exempt=decay_exempt,
        )


def descend(loss_fn, tensors: dict[str, Array], state: AdamState, cfg: TrainConfig, *args):
    """Record loss_fn(tape, vars, *args) at `tensors`, backpropagate and take
    the next Adam step, its learning rate warmed up over cfg.warmup_steps.

    Returns (loss, new tensors, new state).  A non-finite loss raises
    DivergenceError before any update.  state.step counts the steps taken.
    """
    loss, tape = ad.record_forward(loss_fn, tensors, *args)
    if not np.isfinite(loss):
        raise DivergenceError(f"non-finite loss at step {state.step}: {loss}")
    step = state.step + 1
    lr_scale = min(1.0, step / cfg.warmup_steps) if cfg.warmup_steps else 1.0
    return (loss, *adam_step(tensors, ad.backward(tape), state, lr_scale=lr_scale))
