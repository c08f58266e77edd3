"""The benchmark's four workloads, built from a seed.

An *op* is the unit the worker times.  Ops repeat with period `period`:
op k does the same work on the same inputs as op k - period, so every op
has a value to check.  The training workloads get there by restarting the
seeded training run (fresh parameters, optimizer state and random streams)
at the start of each period; `restart` is called outside the timed op.

`op(pos, tracer)` returns (value, others): `value` is compared with the
reference and with the first period, and every array in `others` must be
finite.  With tracing on, the op opens a span around each call into the
program; the infer workloads then make `et_forward`'s calls one by one, so
energy time and step time show separately.
"""

from __future__ import annotations

import numpy as np

from energy_transformer import autodiff as ad
from energy_transformer import core
from energy_transformer import graph as gr
from energy_transformer import image as im
from energy_transformer._kernels import stable_sigmoid
from energy_transformer.core import EnergyBreakdown, ExcludeSelf, GraphNeighborhood, Relu
from energy_transformer.data import Rng, gen_synthetic_images
from energy_transformer.optim import AdamState, adam_step

MIB = float(1 << 20)

# Acceptance dimensions, as in tests/test_acceptance.py.
IMAGE_INIT = dict(
    n_tokens=16, patch_size=64, d=64, h=4, y=16, m=256, beta=0.25,
    alpha=0.1, n_steps=6, k_h=8, k_w=8,
)
MASK_SIZES = dict(n_occluded=8, n_replaced=7)
IMAGE_TRAIN_CFG = dict(batch_size=16, lr=2e-3, weight_decay=0.01, **MASK_SIZES)
N_TRAIN_IMAGES = 128
N_EVAL_IMAGES = 64
GRAPH_DATA = dict(n_nodes=1000, anomaly_rate=0.05, shift=2.0)
GRAPH_INIT = dict(
    d=32, h=2, y=64, m=64, beta=1.0 / 8.0, alpha=1.0, n_steps=1,
    hidden=16, init_std=0.1,
)
GRAPH_TRAIN_CFG = dict(lr=1e-3)
TRAIN_RATIO = 0.4


class SpeedProbe:
    """A fixed numpy computation that needs nothing from the program.

    The worker times it between ops and scales each op time by `ref_ms` /
    (the median time of the probes run nearest that op): the time the op
    would take at the probe's reference speed, its median time on the
    machine of the first baseline in a fast phase.  The machine's slow and
    fast phases (other tenants on the host) move an op and a probe of the
    same kind of work alike, so the scaled times hold steady where the raw
    ones swing by a third.  The probe writes only into buffers made once,
    so its time hardly follows the program's memory use (bench/README.md
    gives the measured effect).
    """

    def __init__(self, name: str, ref_ms: float, run, *buffers):
        self.name, self.ref_ms, self._run, self._buffers = name, ref_ms, run, buffers

    def __call__(self) -> None:
        self._run(*self._buffers)


def _small_arrays(x, w, y, row, out):
    """Softmax of (16, 16, 64) matmuls, as in one attention head step of a
    16-token block: Python per-call overhead on arrays that fit in cache."""
    for _ in range(7):
        np.matmul(x, w, out=y)
        np.multiply(y, 0.01, out=y)
        np.max(y, axis=-1, keepdims=True, out=row)
        np.subtract(y, row, out=y)
        np.exp(y, out=y)
        np.sum(y, axis=-1, keepdims=True, out=row)
        np.divide(y, row, out=out)


def _large_arrays(col, row_vec, blocked, z, row, keys, out):
    """Masked softmax over a 1000x1000 score matrix and its product with the
    keys, as in one head of the graph attention: arrays larger than the
    per-core caches."""
    np.add(col, row_vec, out=z)
    np.copyto(z, -np.inf, where=blocked)
    np.max(z, axis=-1, keepdims=True, out=row)
    np.subtract(z, row, out=z)
    np.exp(z, out=z)
    np.sum(z, axis=-1, keepdims=True, out=row)
    np.divide(z, row, out=z)
    np.matmul(z, keys, out=out)


def small_probe() -> SpeedProbe:
    rng = np.random.default_rng(0)
    x = rng.normal(size=(16, 16, 64))
    return SpeedProbe(
        "small-arrays", 1.2, _small_arrays,
        x, rng.normal(size=(64, 64)), np.empty_like(x), np.empty((16, 16, 1)), np.empty_like(x),
    )


def large_probe() -> SpeedProbe:
    rng = np.random.default_rng(0)
    n = GRAPH_DATA["n_nodes"]
    return SpeedProbe(
        "large-arrays", 22.0, _large_arrays,
        rng.normal(size=(n, 1)), rng.normal(size=(1, n)), rng.random((n, n)) > 0.09,
        np.empty((n, n)), np.empty((n, 1)), rng.normal(size=(n, 64)), np.empty((n, 64)),
    )


def image_params(seed: int) -> im.ImageTaskParams:
    return im.init_image_params(
        mask_mode=ExcludeSelf(),
        activation=Relu(),
        rng=Rng(seed).stream("image-init"),
        **IMAGE_INIT,
    )


def graph_inputs(seed: int, tr) -> tuple[gr.GraphInstance, gr.SplitPlan, gr.GraphTaskParams]:
    """Planted graph, split and initial parameters, as `run_graph_seed` makes them."""
    with tr.span("data.gen"):
        g = gr.gen_planted_anomaly_graph(seed, **GRAPH_DATA)
    if tr.enabled:
        # init_graph_params builds this mask inside; time the same calls alone
        with tr.span("graph.adjacency"):
            GraphNeighborhood(gr.adjacency_matrix(g))
    rng = Rng(seed)
    split = gr.make_split(g.n_nodes, TRAIN_RATIO, rng.stream("graph-split"))
    params = gr.init_graph_params(g, rng=rng.stream("graph-init"), **GRAPH_INIT)
    return g, split, params


def adam_init(tensors: dict, cfg, decay_exempt: frozenset) -> AdamState:
    """Fresh Adam state from a train config, as the trainers make it."""
    return AdamState.init(
        tensors,
        lr=cfg.lr,
        b1=cfg.b1,
        b2=cfg.b2,
        weight_decay=cfg.weight_decay,
        grad_clip=cfg.grad_clip,
        decay_exempt=decay_exempt,
    )


def score_counts(entries: int, useful: int) -> dict[str, float]:
    """Attention score entries computed per op and the share the mask allows."""
    return {
        "kernels.score_entries": entries,
        "kernels.useful_score_ratio": useful / entries,
        "kernels.score_mb": entries * 8 / MIB,
    }


def tape_counts(tape: ad.Tape) -> dict[str, float]:
    """Exact counts from a recorded tape: nodes, saved bytes, score entries.

    Saved bytes count each buffer the node values keep alive once, so a
    transpose or reshape that views its input adds nothing.  Score entries
    are the inputs of the masked (attention) softmax and log-sum-exp nodes.
    """
    owners: dict[int, int] = {}
    entries = useful = 0
    for node in tape.nodes:
        base = node.value
        while isinstance(base.base, np.ndarray):
            base = base.base
        owners[id(base)] = base.nbytes
        if node.op in ("masked_softmax", "masked_logsumexp") and node.meta["mask"] is not None:
            scores = tape.nodes[node.inputs[0]].value
            entries += scores.size
            useful += int(np.broadcast_to(node.meta["mask"], scores.shape).sum())
    return {
        "autodiff.tape_nodes": len(tape.nodes),
        "autodiff.saved_mb": sum(owners.values()) / MIB,
        **score_counts(entries, useful),
    }


def forward_counts(p: core.EtParams, n_tokens: int, n_steps: int) -> dict[str, float]:
    """Counts of one `et_forward`: T+1 energy and T step score evaluations."""
    mask = core.mask_matrix(p.attn.mask_mode, n_tokens)
    evals = (2 * n_steps + 1) * p.attn.n_heads
    return {
        "autodiff.tape_nodes": 0,
        "autodiff.saved_mb": 0.0,
        **score_counts(evals * mask.size, evals * int(mask.sum())),
    }


def _traced_total_energy(x, p: core.EtParams, tr) -> EnergyBreakdown:
    with tr.span("core.total_energy"):
        with tr.span("core.layer_norm"):
            g = core.layer_norm(x, p.norm)
        with tr.span("core.attention_energy"):
            e_att = core.attention_energy(g, p.attn)
        with tr.span("core.hopfield_energy"):
            e_hn = core.hopfield_energy(g, p.hopfield)
    return EnergyBreakdown(e_att=e_att, e_hn=e_hn, e_total=e_att + e_hn)


def traced_et_forward(x0, p: core.EtParams, alpha: float, n_steps: int, tr):
    """`core.et_forward` call for call, with a span around each core call.

    Written for blocks with both modules enabled, which every workload uses.
    """
    x = np.asarray(x0, dtype=np.float64)
    out = [(x, _traced_total_energy(x, p, tr))]
    for _ in range(n_steps):
        with tr.span("core.et_step"):
            with tr.span("core.layer_norm"):
                g = core.layer_norm(x, p.norm)
            with tr.span("core.attention_grad"):
                upd_att = core.attention_grad(g, p.attn)
            with tr.span("core.hopfield_grad"):
                upd_hn = core.hopfield_grad(g, p.hopfield)
            x = x + alpha * (upd_att + upd_hn)
        out.append((x, _traced_total_energy(x, p, tr)))
    return out


class ImageTrain:
    """One Adam step on 16 images, the calls `train_image` makes per step."""

    name = "image-train"
    probe = staticmethod(small_probe)
    warmup = 3
    period = 16  # two epochs of 128 images in batches of 16

    def __init__(self, seed: int, tr):
        with tr.span("data.gen"):
            images = gen_synthetic_images(seed, N_TRAIN_IMAGES)
        self.params = image_params(seed)
        self.cfg = im.ImageTrainConfig(seed=seed, **IMAGE_TRAIN_CFG)
        p = self.params
        self.patches = np.stack([im.patchify(img, p.k_h, p.k_w).patches for img in images])
        self.restart()

    def restart(self) -> None:
        self.tensors = im.image_params_to_tensors(self.params)
        self.state = adam_init(self.tensors, self.cfg, im.IMAGE_DECAY_EXEMPT)
        self.rng_mask = Rng(self.cfg.seed).stream("image-masking")
        self.rng_order = Rng(self.cfg.seed).stream("image-batch-order")

    def _masks(self, n_plans: int, rng) -> tuple[np.ndarray, np.ndarray]:
        n, cfg = self.params.n_tokens, self.cfg
        plans = [im.make_mask_plan(n, cfg.n_occluded, cfg.n_replaced, rng) for _ in range(n_plans)]
        return (
            np.stack([plan.replaced_mask(n) for plan in plans]),
            np.stack([plan.occluded_mask(n) for plan in plans]),
        )

    def op(self, pos: int, tr):
        n_img, size = self.patches.shape[0], self.cfg.batch_size
        start = (pos * size) % n_img
        if start == 0:
            self.order = self.rng_order.permutation(n_img)
        batch_ids = self.order[start : start + size]
        with tr.span("image.mask_plan"):
            replaced, occluded = self._masks(len(batch_ids), self.rng_mask)
        with tr.span("autodiff.record"):
            loss, tape = self._record(batch_ids, replaced, occluded)
        with tr.span("autodiff.backward"):
            grads = ad.backward(tape)
        with tr.span("optim.adam"):
            self.tensors, self.state = adam_step(self.tensors, grads, self.state)
        return loss, tuple(grads.values())

    def _record(self, batch_ids, replaced, occluded):
        return ad.record_forward(
            im.image_loss_fn,
            self.tensors,
            self.patches[batch_ids],
            replaced,
            occluded,
            self.params,
        )

    def counts(self) -> dict[str, float]:
        size = self.cfg.batch_size
        _, tape = self._record(np.arange(size), *self._masks(size, np.random.default_rng(0)))
        return tape_counts(tape)


class GraphTrain:
    """One full-batch epoch, the calls `train_graph` makes per epoch."""

    name = "graph-train"
    probe = staticmethod(large_probe)
    warmup = 2
    period = 20

    def __init__(self, seed: int, tr):
        self.graph, self.split, self.params = graph_inputs(seed, tr)
        self.cfg = gr.GraphTrainConfig(seed=seed, **GRAPH_TRAIN_CFG)
        self.restart()

    def restart(self) -> None:
        self.tensors = gr.graph_params_to_tensors(self.params)
        self.state = adam_init(self.tensors, self.cfg, gr.GRAPH_DECAY_EXEMPT)

    def op(self, pos: int, tr):
        g, split = self.graph, self.split
        probs_out: list = []
        with tr.span("autodiff.record"):
            loss, tape = ad.record_forward(
                gr.graph_loss_fn, self.tensors, g, split.train, self.params, probs_out
            )
        probs = probs_out[0]
        with tr.span("graph.val_metrics"):
            gr.macro_f1(probs[split.valid], g.labels[split.valid])
            gr.auc(probs[split.valid], g.labels[split.valid])
        with tr.span("autodiff.backward"):
            grads = ad.backward(tape)
        with tr.span("optim.adam"):
            self.tensors, self.state = adam_step(self.tensors, grads, self.state)
        return loss, (probs, *grads.values())

    def counts(self) -> dict[str, float]:
        _, tape = ad.record_forward(
            gr.graph_loss_fn, self.tensors, self.graph, self.split.train, self.params
        )
        return tape_counts(tape)


class GraphInfer:
    """`graph_forward` plus the test-split AUC, with seeded parameters."""

    name = "graph-infer"
    probe = staticmethod(large_probe)
    warmup = 2
    period = 1

    def __init__(self, seed: int, tr):
        self.graph, self.split, self.params = graph_inputs(seed, tr)

    def restart(self) -> None:
        pass

    def op(self, pos: int, tr):
        g, p, test = self.graph, self.params, self.split.test
        if tr.enabled:
            probs = self._traced_forward(tr)
        else:
            probs = gr.graph_forward(g, p)
        with tr.span("graph.test_auc"):
            gr.auc(probs[test], g.labels[test])
        return probs, ()

    def _traced_forward(self, tr):
        """`graph_forward` call for call, with spans."""
        g, p = self.graph, self.params
        with tr.span("graph.embed"):
            x0 = gr.embed_nodes(g, p)
        with tr.span("core.layer_norm"):
            g1 = core.layer_norm(x0, p.et.norm)
        traj = traced_et_forward(x0, p.et, p.alpha, p.n_steps, tr)
        with tr.span("core.layer_norm"):
            g_final = core.layer_norm(traj[-1][0], p.et.norm)
        with tr.span("graph.head"):
            gf = np.concatenate([g1, g_final], axis=-1)
            h1 = np.maximum(np.matmul(gf, p.head_w1) + p.head_b1, 0.0)
            z = np.matmul(h1, p.head_w2) + p.head_b2
            return stable_sigmoid(z.reshape(-1))

    def counts(self) -> dict[str, float]:
        return forward_counts(self.params.et, self.graph.n_nodes, self.params.n_steps)


class ImageInfer:
    """`reconstruct` plus `masked_mse` for one image, as `eval_masked_mse` does."""

    name = "image-infer"
    probe = staticmethod(small_probe)
    warmup = 20
    period = N_EVAL_IMAGES

    def __init__(self, seed: int, tr):
        with tr.span("data.gen"):
            self.images = gen_synthetic_images(seed, N_EVAL_IMAGES)
        p = self.params = image_params(seed)
        rng = Rng(seed).stream("image-eval-masking")
        self.grids, self.plans = [], []
        for img in self.images:
            self.grids.append(im.patchify(img, p.k_h, p.k_w))
            self.plans.append(im.make_mask_plan(p.n_tokens, rng=rng, **MASK_SIZES))

    def restart(self) -> None:
        pass

    def op(self, pos: int, tr):
        img, grid, plan, p = self.images[pos], self.grids[pos], self.plans[pos], self.params
        if tr.enabled:
            with tr.span("image.encode"):
                x0 = im.encode_and_mask(im.patchify(img, p.k_h, p.k_w), plan, p)
            traj = traced_et_forward(x0, p.et, p.alpha, p.n_steps, tr)
            with tr.span("image.decode"):
                out = im.PatchGrid(im.decode_tokens(traj[-1][0], p), grid.rows, grid.cols)
                recon = im.unpatchify(out, img.shape[0], p.k_h, p.k_w)
                mse = im.masked_mse(im.patchify(recon, p.k_h, p.k_w), grid, plan)
        else:
            recon, _ = im.reconstruct(img, plan, p)
            mse = im.masked_mse(im.patchify(recon, p.k_h, p.k_w), grid, plan)
        return mse, (recon,)

    def counts(self) -> dict[str, float]:
        return forward_counts(self.params.et, self.params.n_tokens, self.params.n_steps)


WORKLOADS = {w.name: w for w in (ImageTrain, GraphTrain, GraphInfer, ImageInfer)}
