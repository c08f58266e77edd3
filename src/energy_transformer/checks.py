"""Randomized finite-difference verification of every gradient path.

Each check compares an analytic or tape gradient against the central
finite-difference oracle over many small random instances and reports the
worst relative error per tensor.  The CLI `verify-grad` command and the
acceptance suite both run these.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import core
from . import graph as gr
from . import image as im
from .core import (
    AttentionParams,
    EtParams,
    ExcludeSelf,
    GraphNeighborhood,
    HopfieldParams,
    IncludeSelf,
    LayerNormParams,
    Power,
    Relu,
    Softmax,
)
from .data import Rng, params_to_tensors
from .errors import InvalidInputError

Array = np.ndarray

_MASK_KINDS = ("exclude_self", "include_self", "graph")  # cycled over the instances


def rel_err(a: Array, b: Array) -> float:
    """Norm-based relative error, safe for near-zero references."""
    scale = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)), 1e-12)
    return float(np.linalg.norm(a - b)) / scale


@dataclass
class CheckReport:
    """Worst-case result of one gradient check family."""

    name: str
    worst_rel_err: float
    worst_seed: int
    n_instances: int
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.worst_rel_err <= self.tolerance

    def line(self) -> str:
        status = "ok" if self.passed else "FAIL"
        return (
            f"{status:4s} {self.name:40s} worst_rel_err={self.worst_rel_err:.3e} "
            f"(tol {self.tolerance:.1e}, {self.n_instances} instances, "
            f"worst seed {self.worst_seed})"
        )


def _random_mask_mode(kind: str, n: int, rng: np.random.Generator):
    if kind == "exclude_self":
        return ExcludeSelf()
    if kind == "include_self":
        return IncludeSelf()
    # random symmetric adjacency with guaranteed self-loops
    a = rng.random((n, n)) < 0.5
    a = a | a.T
    np.fill_diagonal(a, True)
    return GraphNeighborhood(a)


def check_energy_gradients(
    n_instances: int = 100,
    tolerance: float = 1e-6,
    seed0: int = 0,
    fd_step: float = 1e-5,
) -> list[CheckReport]:
    """Analytic dE/dg for both energies vs. finite differences.

    Covers all three mask modes and all three memory activations on random
    instances with N<=6, D<=8, H<=2, Y<=3, M<=5.
    """
    activations = (Relu(), Power(3), Softmax(0.7))
    worst: dict[str, tuple[float, int]] = {}

    for i in range(n_instances):
        seed = seed0 + i
        rng = Rng(seed).stream("grad-check")
        n = int(rng.integers(2, 7))
        d = int(rng.integers(2, 9))
        h = int(rng.integers(1, 3))
        y = int(rng.integers(1, 4))
        m = int(rng.integers(1, 6))
        g = rng.normal(0.0, 1.0, (n, d))

        kind = _MASK_KINDS[i % 3]
        attn = AttentionParams(
            w_key=rng.normal(0.0, 0.6, (y, h, d)),
            w_query=rng.normal(0.0, 0.6, (y, h, d)),
            beta=float(rng.uniform(0.3, 2.0)),
            mask_mode=_random_mask_mode(kind, n, rng),
        )
        act = activations[i % 3]
        hop = HopfieldParams(xi=rng.normal(0.0, 0.6, (m, d)), activation=act)
        act_name = type(act).__name__.lower()
        for name, grad, energy, p in (
            (f"attention_grad[{kind}]", core.attention_grad, core.attention_energy, attn),
            (f"hopfield_grad[{act_name}]", core.hopfield_grad, core.hopfield_energy, hop),
        ):
            fd = ad.finite_diff(lambda gg: energy(gg, p), g, fd_step)
            err = rel_err(grad(g, p), -fd)
            if err > worst.get(name, (-1.0, 0))[0]:
                worst[name] = (err, seed)

    return [
        CheckReport(name, err, seed, n_instances, tolerance)
        for name, (err, seed) in sorted(worst.items())
    ]


def _check_tape(
    prefix: str, loss_fn, table, params, data: tuple, tolerance, seed0, fd_step
) -> list[CheckReport]:
    """Tape gradients of loss_fn(tape, vars, *data, params) vs. finite
    differences, one report ("<prefix>/<tensor>") per tensor of `table`.

    Each tensor is perturbed coordinate-wise; `loss_fn` reads learned values
    from the tensors alone, so `params` stays as it is.
    """
    tensors = params_to_tensors(params, table)
    _, tape = ad.record_forward(loss_fn, tensors, *data, params)
    grads = ad.backward(tape)
    reports = []
    for name in tensors:
        def loss_of(value, name=name):
            return ad.record_forward(loss_fn, {**tensors, name: value}, *data, params)[0]

        fd = ad.finite_diff(loss_of, tensors[name], fd_step)
        err = rel_err(grads[name], fd)
        reports.append(CheckReport(f"{prefix}/{name}", err, seed0, 1, tolerance))
    return reports


def check_bptt_image(
    tolerance: float = 1e-6,
    seed0: int = 0,
    n_steps: int = 3,
    fd_step: float = 1e-5,
) -> list[CheckReport]:
    """Tape gradients of the full image-task loss vs. finite differences.

    Every parameter tensor (encoder, decoder, mask token, position bias,
    norms, attention, memory) is checked; tiny dims keep this fast.
    """
    rng = Rng(seed0).stream("bptt-image")
    n_tokens, patch = 4, 6
    params = im.init_image_params(
        n_tokens=n_tokens,
        patch_size=patch,
        d=5,
        h=2,
        y=2,
        m=3,
        beta=0.8,
        alpha=0.1,
        n_steps=n_steps,
        k_h=1,
        k_w=patch,
        mask_mode=ExcludeSelf(),
        activation=Relu(),
        rng=rng,
        init_std=0.5,
    )
    patches = rng.normal(0, 1, (2, n_tokens, patch))
    plans = [im.make_mask_plan(n_tokens, 2, 1, rng) for _ in range(2)]
    replaced = np.stack([p.replaced_mask(n_tokens) for p in plans])
    occluded = np.stack([p.occluded_mask(n_tokens) for p in plans])
    data = (patches, replaced, occluded)
    return _check_tape(
        "image", im.image_loss_fn, im.IMAGE_TENSORS, params, data,
        tolerance, seed0, fd_step,
    )


def check_bptt_graph(
    tolerance: float = 1e-6,
    seed0: int = 0,
    n_steps: int = 2,
    fd_step: float = 1e-5,
) -> list[CheckReport]:
    """Tape gradients of the full graph-task loss vs. finite differences,
    for a block with Y <= D ("graph/...") and one with Y > D like every graph
    config in use ("graph-token-basis/...", whose tape has `attention_terms`)."""
    reports = []
    for prefix, d, y in (("graph", 4, 2), ("graph-token-basis", 3, 6)):
        rng = Rng(seed0).stream("bptt-graph")
        n = 5
        edges = np.array([[0, 1], [1, 2], [2, 3], [3, 4], [0, 4], [1, 3]])
        g = gr.GraphInstance(
            n_nodes=n,
            edges=edges,
            features=rng.normal(0, 1, (n, 3)),
            labels=np.array([0, 1, 0, 0, 1]),
        )
        params = gr.init_graph_params(
            g,
            d=d,
            h=2,
            y=y,
            m=3,
            beta=0.9,
            alpha=0.2,
            n_steps=n_steps,
            hidden=4,
            rng=rng,
            init_std=0.5,
        )
        data = (g, np.array([0, 1, 2, 4]))
        reports += _check_tape(
            prefix, gr.graph_loss_fn, gr.GRAPH_TENSORS, params, data,
            tolerance, seed0, fd_step,
        )
    return reports


def check_energy_descent(n_instances: int = 100, seed0: int = 0) -> tuple[int, int]:
    """Count instances monotone at core.DESCENT_ALPHA0 and monotone after halving.

    Returns (monotone_at_alpha0, monotone_after_halving); the latter should
    equal n_instances.  Instances use training-scale weights, where the
    small-step regime is expected to hold.
    """
    at_alpha0 = 0
    after_halving = 0
    for i in range(n_instances):
        rng = Rng(seed0 + i).stream("descent-check")
        n = int(rng.integers(3, 9))
        d = int(rng.integers(4, 17))
        p = EtParams(
            norm=LayerNormParams(gamma=1.0, delta=np.zeros(d)),
            attn=AttentionParams(
                w_key=rng.normal(0, 0.02, (3, 2, d)),
                w_query=rng.normal(0, 0.02, (3, 2, d)),
                beta=core.default_beta(3),
                mask_mode=_random_mask_mode(_MASK_KINDS[i % 3], n, rng),
            ),
            hopfield=HopfieldParams(xi=rng.normal(0, 0.02, (8, d))),
        )
        x0 = rng.normal(0, 1, (n, d))
        try:
            alpha, _ = core.find_monotone_alpha(x0, p)
        except InvalidInputError:  # no monotone step size within the halvings
            continue
        at_alpha0 += alpha == core.DESCENT_ALPHA0
        after_halving += 1
    return at_alpha0, after_halving


def run_verification(
    *,
    n_instances: int = 100,
    tolerance: float = 1e-6,
    seed: int = 0,
    fd_step: float = 1e-5,
) -> list[CheckReport]:
    """The full gradient verification suite (energies + both task BPTTs)."""
    reports = check_energy_gradients(
        n_instances=n_instances, tolerance=tolerance, seed0=seed, fd_step=fd_step
    )
    reports += check_bptt_image(tolerance=tolerance, seed0=seed, fd_step=fd_step)
    reports += check_bptt_graph(tolerance=tolerance, seed0=seed, fd_step=fd_step)
    return reports
