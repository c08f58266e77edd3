"""Masked-patch image completion: patchify, encode, mask, evolve, decode.

Training minimizes the MSE on occluded patches only.  Occluded patches are
split into a majority that is replaced by a learnable mask token and a
small remainder left untouched (still scored by the loss), which helps the
memory module learn meaningful patch content.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .core import EtParams, LayerNormParams, et_unroll, init_et_params, layer_norm
from .core import layer_norm_of, total_energy
from .data import Rng, params_from_tensors, params_to_tensors
from .errors import InvalidInputError, ShapeError
from .optim import TrainConfig, descend
from .unroll import et_unroll_v

Array = np.ndarray


# ---------------------------------------------------------------------------
# Patch grids

@dataclass
class PatchGrid:
    """Non-overlapping patches in row-major order plus the grid shape."""

    patches: Array  # (N, P)
    rows: int
    cols: int

    def __post_init__(self):
        if self.patches.ndim != 2 or self.patches.shape[0] != self.rows * self.cols:
            raise ShapeError(
                f"{self.patches.shape} patches do not fill a {self.rows}x{self.cols} grid"
            )


def patchify(image: Array, k_h: int, k_w: int) -> PatchGrid:
    """Split (C, H, W) into row-major (N, C*k_h*k_w) patches."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 3:
        raise ShapeError(f"expected (C, H, W) image, got {image.shape}")
    c, h, w = image.shape
    if h % k_h or w % k_w:
        raise ShapeError(f"image {h}x{w} not divisible by patch {k_h}x{k_w}")
    rows, cols = h // k_h, w // k_w
    patches = (
        image.reshape(c, rows, k_h, cols, k_w)
        .transpose(1, 3, 0, 2, 4)
        .reshape(rows * cols, c * k_h * k_w)
    )
    return PatchGrid(patches, rows, cols)


def unpatchify(grid: PatchGrid, channels: int, k_h: int, k_w: int) -> Array:
    """Exact inverse of `patchify`."""
    n, p = grid.patches.shape
    if p != channels * k_h * k_w:
        raise ShapeError(f"patch size {p} != {channels}*{k_h}*{k_w}")
    return (
        grid.patches.reshape(grid.rows, grid.cols, channels, k_h, k_w)
        .transpose(2, 0, 3, 1, 4)
        .reshape(channels, grid.rows * k_h, grid.cols * k_w)
    )


# ---------------------------------------------------------------------------
# Mask plans

@dataclass
class MaskPlan:
    """Which tokens count toward the loss and which become the mask token."""

    occluded: Array   # sorted unique indices scored by the loss
    replaced: Array   # subset of occluded whose tokens become mask_token

    def __post_init__(self):
        self.occluded = np.asarray(self.occluded, dtype=np.intp)
        self.replaced = np.asarray(self.replaced, dtype=np.intp)
        if not np.isin(self.replaced, self.occluded).all():
            raise InvalidInputError("replaced indices must be occluded")
        if len(np.unique(self.occluded)) != self.occluded.size:
            raise InvalidInputError("occluded indices must be unique")

    def occluded_mask(self, n: int) -> Array:
        m = np.zeros(n, dtype=bool)
        m[self.occluded] = True
        return m

    def replaced_mask(self, n: int) -> Array:
        m = np.zeros(n, dtype=bool)
        m[self.replaced] = True
        return m


def make_mask_plan(
    n: int, n_occluded: int, n_replaced: int, rng: np.random.Generator
) -> MaskPlan:
    """Uniform sample of occluded tokens and the replaced subset."""
    if not (0 <= n_replaced <= n_occluded <= n):
        raise InvalidInputError(
            f"need 0 <= n_replaced ({n_replaced}) <= n_occluded ({n_occluded}) <= N ({n})"
        )
    occluded = rng.choice(n, size=n_occluded, replace=False)
    replaced = rng.choice(occluded, size=n_replaced, replace=False) if n_occluded else occluded[:0]
    return MaskPlan(np.sort(occluded), np.sort(replaced))


# ---------------------------------------------------------------------------
# Task parameters

@dataclass
class ImageTaskParams:
    """Encoder/decoder, mask token, position bias, and the block parameters."""

    enc_kernel: Array          # (P, D)
    enc_bias: Array            # (D,)
    dec_norm: LayerNormParams
    dec_kernel: Array          # (D, P)
    dec_bias: Array            # (P,)
    mask_token: Array          # (D,)
    pos_bias: Array            # (N, D)
    et: EtParams
    alpha: float
    n_steps: int
    k_h: int
    k_w: int

    def __post_init__(self):
        d = self.et.dim
        p = self.enc_kernel.shape[0]
        if self.enc_kernel.shape != (p, d):
            raise ShapeError(f"encoder kernel {self.enc_kernel.shape} != ({p}, {d})")
        if self.dec_kernel.shape != (d, p):
            raise ShapeError(f"decoder kernel {self.dec_kernel.shape} != ({d}, {p})")
        if self.enc_bias.shape != (d,) or self.dec_bias.shape != (p,):
            raise ShapeError("encoder/decoder bias shapes inconsistent")
        if self.mask_token.shape != (d,) or self.pos_bias.shape[1] != d:
            raise ShapeError("mask token / position bias shapes inconsistent")
        if self.dec_norm.dim != d:
            raise ShapeError(f"decoder norm dim {self.dec_norm.dim} != {d}")

    @property
    def n_tokens(self) -> int:
        return self.pos_bias.shape[0]


def init_image_params(
    *,
    n_tokens: int,
    patch_size: int,
    alpha: float,
    n_steps: int,
    k_h: int,
    k_w: int,
    rng: np.random.Generator | None = None,
    init_std: float = 0.02,
    **block,
) -> ImageTaskParams:
    """The block from `init_et_params(**block)`, then kernels, mask token,
    and position bias from N(0, init_std); biases zero; layer-norm scale one."""
    rng = rng or np.random.default_rng(0)
    et = init_et_params(rng, init_std=init_std, **block)
    d = et.dim
    return ImageTaskParams(
        enc_kernel=rng.normal(0, init_std, (patch_size, d)),
        enc_bias=np.zeros(d),
        dec_norm=LayerNormParams(gamma=1.0, delta=np.zeros(d)),
        dec_kernel=rng.normal(0, init_std, (d, patch_size)),
        dec_bias=np.zeros(patch_size),
        mask_token=rng.normal(0, init_std, d),
        pos_bias=rng.normal(0, init_std, (n_tokens, d)),
        et=et,
        alpha=alpha,
        n_steps=n_steps,
        k_h=k_h,
        k_w=k_w,
    )


# (checkpoint name, attribute path, decay-exempt) of every learnable tensor;
# biases, norms and per-token vectors skip weight decay
IMAGE_TENSORS = (
    ("enc.kernel", "enc_kernel", False),
    ("enc.bias", "enc_bias", True),
    ("dec.norm.gamma", "dec_norm.gamma", True),
    ("dec.norm.delta", "dec_norm.delta", True),
    ("dec.kernel", "dec_kernel", False),
    ("dec.bias", "dec_bias", True),
    ("mask_token", "mask_token", True),
    ("pos_bias", "pos_bias", True),
    ("et.norm.gamma", "et.norm.gamma", True),
    ("et.norm.delta", "et.norm.delta", True),
    ("et.attn.w_key", "et.attn.w_key", False),
    ("et.attn.w_query", "et.attn.w_query", False),
    ("et.hopfield.xi", "et.hopfield.xi", False),
)

IMAGE_DECAY_EXEMPT = frozenset(name for name, _, exempt in IMAGE_TENSORS if exempt)


def image_params_to_tensors(p: ImageTaskParams) -> dict[str, Array]:
    """Flatten all learnable tensors to names for the optimizer/checkpoint."""
    return params_to_tensors(p, IMAGE_TENSORS)


def image_params_from_tensors(
    tensors: dict[str, Array], like: ImageTaskParams
) -> ImageTaskParams:
    """Rebuild structured parameters from named tensors, checking shapes."""
    return params_from_tensors(tensors, like, IMAGE_TENSORS)


# ---------------------------------------------------------------------------
# Inference path (plain numpy)

def encode_and_mask(grid: PatchGrid, plan: MaskPlan, p: ImageTaskParams) -> Array:
    """Affine-encode patches, replace planned rows by the mask token, add
    position biases.  Returns the (N, D) initial token state."""
    if grid.patches.shape[0] != p.n_tokens:
        raise ShapeError(
            f"{grid.patches.shape[0]} patches but parameters expect {p.n_tokens}"
        )
    enc = np.matmul(grid.patches, p.enc_kernel) + p.enc_bias
    x = np.where(plan.replaced_mask(p.n_tokens)[:, None], p.mask_token, enc)
    return x + p.pos_bias


def decode_tokens(x: Array, p: ImageTaskParams) -> Array:
    """Decoder: layer norm then affine projection back to patch space."""
    return np.matmul(layer_norm(x, p.dec_norm), p.dec_kernel) + p.dec_bias


def reconstruct(
    image: Array,
    plan: MaskPlan,
    p: ImageTaskParams,
    *,
    decode_at_min_energy: bool = False,
) -> tuple[Array, list[Array]]:
    """Run the dynamics on a masked image and decode the result.

    Returns the reconstructed image and the n_steps+1 token states of
    `et_unroll`.  By default the final state is decoded; with
    decode_at_min_energy the state of lowest total energy is, and only then
    are energies evaluated.  `et dump-energy` reports the energies.
    """
    channels = image.shape[0]
    grid = patchify(image, p.k_h, p.k_w)
    states = et_unroll(encode_and_mask(grid, plan, p), p.et, p.alpha, p.n_steps)
    if decode_at_min_energy:
        state = states[int(np.argmin([total_energy(x, p.et).e_total for x in states]))]
    else:
        state = states[-1]
    out = PatchGrid(decode_tokens(state, p), grid.rows, grid.cols)
    return unpatchify(out, channels, p.k_h, p.k_w), states


def masked_mse(recon: PatchGrid, orig: PatchGrid, plan: MaskPlan) -> float:
    """Mean squared error over occluded patches only (0 for an empty plan)."""
    if recon.patches.shape != orig.patches.shape:
        raise ShapeError("reconstruction and original differ in shape")
    if plan.occluded.size == 0:
        return 0.0
    w = plan.occluded_mask(recon.patches.shape[0])[:, None]
    diff = recon.patches - orig.patches
    sq = diff * diff
    return float((sq * w).sum() / (plan.occluded.size * recon.patches.shape[1]))


# ---------------------------------------------------------------------------
# Training path (recorded on tape)

def image_loss_fn(
    tape: ad.Tape,
    pv: dict[str, ad.Var],
    patches: Array,        # (B, N, P)
    replaced: Array,       # (B, N) bool
    occluded: Array,       # (B, N) bool
    spec: ImageTaskParams,
) -> ad.Var:
    """Average masked MSE of a batch, unrolled through the dynamics."""
    b, n, patch = patches.shape
    pc = tape.constant(patches)
    enc = ad.matmul(pc, pv["enc.kernel"]) + pv["enc.bias"]
    x = ad.where_rows(enc, pv["mask_token"], replaced)
    x = x + pv["pos_bias"]
    x = et_unroll_v(x, pv, spec.et, spec.n_steps, spec.alpha)
    g = layer_norm_of(x, pv["dec.norm.gamma"], pv["dec.norm.delta"], spec.dec_norm.epsilon)
    recon = ad.matmul(g, pv["dec.kernel"]) + pv["dec.bias"]
    sq = (recon - pc) ** 2
    weights = tape.constant(occluded[..., None].astype(np.float64))
    n_scored = int(occluded.sum()) * patch
    return ad.scale(ad.sum_(sq * weights), 1.0 / max(n_scored, 1))  # 0 when nothing is scored


@dataclass
class ImageTrainConfig(TrainConfig):
    epochs: int = 40
    weight_decay: float = 0.05
    batch_size: int = 16
    n_occluded: int = 8
    n_replaced: int = 7
    max_steps: int = 0  # 0: unlimited


def train_image(
    images: Array, params: ImageTaskParams, cfg: ImageTrainConfig
) -> tuple[ImageTaskParams, list[dict]]:
    """Minimize masked MSE over the image set; returns trained parameters
    and a per-epoch metrics log.  Deterministic given cfg.seed."""
    n_img = images.shape[0]
    grids = [patchify(img, params.k_h, params.k_w) for img in images]
    patches_all = np.stack([g.patches for g in grids])  # (n_img, N, P)
    n = params.n_tokens
    rng_mask = Rng(cfg.seed).stream("image-masking")
    rng_order = Rng(cfg.seed).stream("image-batch-order")

    tensors = image_params_to_tensors(params)
    state = cfg.adam(tensors, IMAGE_DECAY_EXEMPT)
    history: list[dict] = []
    for epoch in range(cfg.epochs):
        order = rng_order.permutation(n_img)
        losses = []
        for start in range(0, n_img, cfg.batch_size):
            if cfg.max_steps and state.step >= cfg.max_steps:
                break
            batch_ids = order[start : start + cfg.batch_size]
            plans = [
                make_mask_plan(n, cfg.n_occluded, cfg.n_replaced, rng_mask)
                for _ in batch_ids
            ]
            replaced = np.stack([p.replaced_mask(n) for p in plans])
            occluded = np.stack([p.occluded_mask(n) for p in plans])
            batch = (patches_all[batch_ids], replaced, occluded, params)
            loss, tensors, state = descend(image_loss_fn, tensors, state, cfg, *batch)
            losses.append(loss)
        if losses:
            history.append({"epoch": epoch, "loss": float(np.mean(losses))})
        if cfg.max_steps and state.step >= cfg.max_steps:
            break
    return image_params_from_tensors(tensors, params), history


def eval_plans(seed: int, n: int, n_occluded: int, n_replaced: int) -> Iterator[MaskPlan]:
    """The endless seeded plans over `n` tokens that evaluation masks its
    images with, in order; `et dump-energy` masks its one image with the first."""
    rng = Rng(seed).stream("image-eval-masking")
    while True:
        yield make_mask_plan(n, n_occluded, n_replaced, rng)


def eval_masked_mse(
    images: Array,
    params: ImageTaskParams,
    *,
    n_occluded: int,
    n_replaced: int,
    seed: int,
    decode_at_min_energy: bool = False,
) -> float:
    """Average masked-patch MSE over a set of images, the i-th masked by the
    i-th of `eval_plans(seed, ...)`."""
    total = 0.0
    plans = eval_plans(seed, params.n_tokens, n_occluded, n_replaced)
    for img, plan in zip(images, plans):
        grid = patchify(img, params.k_h, params.k_w)
        recon, _ = reconstruct(
            img, plan, params, decode_at_min_energy=decode_at_min_energy
        )
        total += masked_mse(patchify(recon, params.k_h, params.k_w), grid, plan)
    return total / images.shape[0]


# ---------------------------------------------------------------------------
# Weight inspection

def export_weights_as_patches(p: ImageTaskParams, which: str) -> PatchGrid:
    """Decode weight rows into patch space for visual inspection.

    which: 'hopfield' for the stored memories, 'keys'/'queries' for the
    attention projections (rows grouped by head).
    """
    if which == "hopfield":
        rows = p.et.hopfield.xi
    elif which == "keys":
        w = p.et.attn.w_key
        rows = w.transpose(1, 0, 2).reshape(-1, w.shape[2])
    elif which == "queries":
        w = p.et.attn.w_query
        rows = w.transpose(1, 0, 2).reshape(-1, w.shape[2])
    else:
        raise InvalidInputError(f"unknown weight family {which!r}")
    decoded = decode_tokens(rows, p)
    return PatchGrid(decoded, decoded.shape[0], 1)
