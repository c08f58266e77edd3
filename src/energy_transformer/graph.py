"""Node anomaly detection on attributed graphs.

Each node becomes a token (linear feature embedding plus a learnable
per-node positional embedding) and evolves under the block dynamics with
attention restricted to graph neighbors.  The layer-normalized initial and
final tokens are concatenated and fed to a small perceptron head with a
sigmoid output; training minimizes a class-weighted cross entropy on the
training nodes only.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from ._kernels import stable_sigmoid
from .core import (
    AttentionParams,
    EtParams,
    GraphNeighborhood,
    HopfieldParams,
    LayerNormParams,
    Relu,
    et_step,
    layer_norm,
)
from .data import Rng, params_from_tensors, params_to_tensors
from .errors import (
    DivergenceError,
    FormatError,
    InvalidInputError,
    MetricUndefinedError,
    ShapeError,
)
from .optim import AdamState, adam_step
from .unroll import et_unroll_v, layer_norm_v

Array = np.ndarray


# ---------------------------------------------------------------------------
# Graph data

@dataclass
class GraphInstance:
    """Undirected attributed graph with binary node labels (1 = anomaly)."""

    n_nodes: int
    edges: Array      # (E, 2) undirected, no duplicates, no self-loops
    features: Array   # (N, F)
    labels: Array     # (N,) in {0, 1}

    def __post_init__(self):
        self.edges = np.asarray(self.edges, dtype=np.intp).reshape(-1, 2)
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.intp)
        if self.features.shape[0] != self.n_nodes or self.labels.shape != (self.n_nodes,):
            raise ShapeError("features/labels do not match n_nodes")
        if self.edges.size and self.edges.max() >= self.n_nodes:
            raise ShapeError("edge endpoint out of range")
        if not np.isin(self.labels, (0, 1)).all():
            raise InvalidInputError("labels must be binary")

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


def normalize_edges(edges: Array, n_nodes: int) -> Array:
    """Canonical undirected edge list: sorted pairs, deduplicated, no loops."""
    edges = np.asarray(edges, dtype=np.intp).reshape(-1, 2)
    if edges.size == 0:
        return edges
    if edges.min() < 0 or edges.max() >= n_nodes:
        raise ShapeError("edge endpoint out of range")
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    keep = lo != hi
    pairs = np.unique(np.stack([lo[keep], hi[keep]], axis=1), axis=0)
    return pairs


def adjacency_matrix(g: GraphInstance, include_self: bool = False) -> Array:
    """Symmetric boolean adjacency; isolated nodes get a forced self-loop."""
    a = np.zeros((g.n_nodes, g.n_nodes), dtype=bool)
    if g.edges.size:
        a[g.edges[:, 0], g.edges[:, 1]] = True
        a[g.edges[:, 1], g.edges[:, 0]] = True
    if include_self:
        np.fill_diagonal(a, True)
    isolated = ~a.any(axis=1)
    if isolated.any():
        ids = np.flatnonzero(isolated)
        warnings.warn(
            f"forcing self-loops on {ids.size} isolated node(s): {ids[:8].tolist()}",
            stacklevel=2,
        )
        a[ids, ids] = True
    return a


# ---------------------------------------------------------------------------
# Train/valid/test splits

@dataclass
class SplitPlan:
    """Disjoint covering index sets; valid:test is 1:2 on the remainder."""

    train: Array
    valid: Array
    test: Array
    train_ratio: float

    def __post_init__(self):
        union = np.concatenate([self.train, self.valid, self.test])
        if len(np.unique(union)) != union.size:
            raise InvalidInputError("split sets must be disjoint")


def make_split(n: int, train_ratio: float, rng: np.random.Generator) -> SplitPlan:
    perm = rng.permutation(n)
    n_train = int(round(train_ratio * n))
    rest = perm[n_train:]
    n_valid = int(round(rest.size / 3.0))
    return SplitPlan(
        train=np.sort(perm[:n_train]),
        valid=np.sort(rest[:n_valid]),
        test=np.sort(rest[n_valid:]),
        train_ratio=train_ratio,
    )


# ---------------------------------------------------------------------------
# Parameters

@dataclass
class GraphTaskParams:
    """Embedding, positional embeddings, block, and the prediction head."""

    embed_kernel: Array   # (F, D)
    pos_embed: Array      # (N, D)
    et: EtParams          # with a GraphNeighborhood mask
    head_w1: Array        # (2D, hidden)
    head_b1: Array        # (hidden,)
    head_w2: Array        # (hidden, 1)
    head_b2: Array        # (1,)
    alpha: float
    n_steps: int
    beta_learnable: bool = True

    def __post_init__(self):
        d = self.et.dim
        if self.embed_kernel.shape[1] != d or self.pos_embed.shape[1] != d:
            raise ShapeError("embedding width must match token dim")
        if self.head_w1.shape[0] != 2 * d:
            raise ShapeError(
                f"head input width {self.head_w1.shape[0]} != 2*D ({2 * d})"
            )
        if self.n_steps < 1:
            raise InvalidInputError("n_steps must be >= 1")


def init_graph_params(
    g: GraphInstance,
    *,
    d: int,
    h: int,
    y: int,
    m: int,
    beta: float,
    alpha: float,
    n_steps: int,
    hidden: int | None = None,
    include_self: bool = False,
    enable_attn: bool = True,
    enable_hopfield: bool = True,
    beta_learnable: bool = True,
    activation=None,
    rng: np.random.Generator | None = None,
    init_std: float = 0.02,
) -> GraphTaskParams:
    rng = rng or np.random.default_rng(0)
    hidden = hidden or d
    mask_mode = GraphNeighborhood(adjacency_matrix(g, include_self=include_self))
    et = EtParams(
        norm=LayerNormParams(gamma=1.0, delta=np.zeros(d)),
        attn=AttentionParams(
            w_key=rng.normal(0, init_std, (y, h, d)),
            w_query=rng.normal(0, init_std, (y, h, d)),
            beta=beta,
            mask_mode=mask_mode,
        ),
        hopfield=HopfieldParams(
            xi=rng.normal(0, init_std, (m, d)), activation=activation or Relu()
        ),
        enable_attn=enable_attn,
        enable_hopfield=enable_hopfield,
    )
    return GraphTaskParams(
        embed_kernel=rng.normal(0, init_std, (g.n_features, d)),
        pos_embed=rng.normal(0, init_std, (g.n_nodes, d)),
        et=et,
        head_w1=rng.normal(0, init_std, (2 * d, hidden)),
        head_b1=np.zeros(hidden),
        head_w2=rng.normal(0, init_std, (hidden, 1)),
        head_b2=np.zeros(1),
        alpha=alpha,
        n_steps=n_steps,
        beta_learnable=beta_learnable,
    )


# (checkpoint name, attribute path, decay-exempt) of every learnable tensor
GRAPH_TENSORS = (
    ("embed.kernel", "embed_kernel", False),
    ("pos_embed", "pos_embed", True),
    ("head.w1", "head_w1", False),
    ("head.b1", "head_b1", True),
    ("head.w2", "head_w2", False),
    ("head.b2", "head_b2", True),
    ("et.norm.gamma", "et.norm.gamma", True),
    ("et.norm.delta", "et.norm.delta", True),
    ("et.attn.w_key", "et.attn.w_key", False),
    ("et.attn.w_query", "et.attn.w_query", False),
    ("et.attn.beta", "et.attn.beta", True),
    ("et.hopfield.xi", "et.hopfield.xi", False),
)

GRAPH_DECAY_EXEMPT = frozenset(name for name, _, exempt in GRAPH_TENSORS if exempt)


def graph_params_to_tensors(p: GraphTaskParams) -> dict[str, Array]:
    return params_to_tensors(p, GRAPH_TENSORS)


def graph_params_from_tensors(
    tensors: dict[str, Array], like: GraphTaskParams
) -> GraphTaskParams:
    return params_from_tensors(tensors, like, GRAPH_TENSORS)


# ---------------------------------------------------------------------------
# Inference path (plain numpy)

def embed_nodes(g: GraphInstance, p: GraphTaskParams) -> Array:
    """Initial token state: linear feature embedding plus positional row."""
    if g.n_features != p.embed_kernel.shape[0]:
        raise ShapeError(
            f"graph has {g.n_features} features, embedding expects "
            f"{p.embed_kernel.shape[0]}"
        )
    if g.n_nodes != p.pos_embed.shape[0]:
        raise ShapeError("positional embedding rows do not match node count")
    return np.matmul(g.features, p.embed_kernel) + p.pos_embed


def graph_forward(g: GraphInstance, p: GraphTaskParams) -> Array:
    """Per-node anomaly probabilities in (0, 1).

    Runs the n_steps block updates and evaluates no energy (`et_forward`
    and `et dump-energy` report those); the result has the same bits as
    taking the final state of `et_forward`.
    """
    x = embed_nodes(g, p)
    g1 = layer_norm(x, p.et.norm)
    for _ in range(p.n_steps):
        x = et_step(x, p.et, p.alpha)
    g_final = layer_norm(x, p.et.norm)
    gf = np.concatenate([g1, g_final], axis=-1)
    h1 = np.maximum(np.matmul(gf, p.head_w1) + p.head_b1, 0.0)
    z = np.matmul(h1, p.head_w2) + p.head_b2
    return stable_sigmoid(z.reshape(-1))


# ---------------------------------------------------------------------------
# Loss and metrics

def class_weight(labels: Array, train_idx: Array) -> float:
    """Ratio of regular to anomalous labels on the training split."""
    l_tr = labels[train_idx]
    n_anom = int((l_tr == 1).sum())
    if n_anom == 0:
        raise MetricUndefinedError("training split has no anomalous labels")
    return float((l_tr == 0).sum()) / n_anom


def weighted_bce(probs: Array, labels: Array, train_idx: Array) -> float:
    """Class-weighted negative log likelihood over the training nodes.

    Anomalous terms are weighted by the regular:anomalous ratio so the
    imbalanced positive class is not drowned out.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if ((probs <= 0) | (probs >= 1)).any():
        raise InvalidInputError("probabilities must lie strictly in (0, 1)")
    sigma = class_weight(labels, train_idx)
    pt = probs[train_idx]
    lt = labels[train_idx].astype(np.float64)
    return float(-(sigma * (lt * np.log(pt)).sum() + ((1.0 - lt) * np.log(1.0 - pt)).sum()))


def macro_f1(probs: Array, labels: Array, threshold: float = 0.5) -> float:
    """Unweighted mean of the per-class F1 scores at the given threshold."""
    labels = np.asarray(labels)
    if len(np.unique(labels)) < 2:
        raise MetricUndefinedError("macro-F1 needs both classes present")
    preds = np.asarray(probs) >= threshold
    scores = []
    for cls in (0, 1):
        tp = int(((preds == cls) & (labels == cls)).sum())
        fp = int(((preds == cls) & (labels != cls)).sum())
        fn = int(((preds != cls) & (labels == cls)).sum())
        denom = 2 * tp + fp + fn
        scores.append(2.0 * tp / denom if denom else 0.0)
    return float(np.mean(scores))


def _midranks(values: Array) -> Array:
    """1-based ranks with ties assigned the mean of their rank range."""
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(values.size, dtype=np.float64)
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def auc(probs: Array, labels: Array) -> float:
    """Area under the ROC curve via the rank statistic (ties get midranks)."""
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise MetricUndefinedError("AUC needs both classes present")
    ranks = _midranks(np.asarray(probs, dtype=np.float64))
    pos_rank_sum = float(ranks[labels == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


# ---------------------------------------------------------------------------
# Training path (recorded on tape)

def graph_loss_fn(
    tape: ad.Tape,
    pv: dict[str, ad.Var],
    g: GraphInstance,
    train_idx: Array,
    spec: GraphTaskParams,
    probs_out: list | None = None,
) -> ad.Var:
    """Weighted cross entropy of the full forward pass on the train nodes.

    When probs_out is given, the recorded per-node probabilities are
    appended to it (the trainer reuses them for validation metrics).
    """
    mask = spec.et.attn.mask_mode.adjacency
    feats = tape.constant(g.features)
    x = ad.matmul(feats, pv["embed.kernel"]) + pv["pos_embed"]
    g1 = layer_norm_v(x, pv["et.norm.gamma"], pv["et.norm.delta"], spec.et.norm.epsilon)
    beta = pv["et.attn.beta"] if spec.beta_learnable else spec.et.attn.beta
    x = et_unroll_v(
        x,
        spec.n_steps,
        gamma=pv["et.norm.gamma"],
        delta=pv["et.norm.delta"],
        epsilon=spec.et.norm.epsilon,
        w_key=pv["et.attn.w_key"],
        w_query=pv["et.attn.w_query"],
        beta=beta,
        mask=mask,
        xi=pv["et.hopfield.xi"],
        activation=spec.et.hopfield.activation,
        enable_attn=spec.et.enable_attn,
        enable_hopfield=spec.et.enable_hopfield,
        alpha=spec.alpha,
    )
    g_final = layer_norm_v(
        x, pv["et.norm.gamma"], pv["et.norm.delta"], spec.et.norm.epsilon
    )
    gf = ad.concat([g1, g_final], axis=-1)
    h1 = ad.relu(ad.matmul(gf, pv["head.w1"]) + pv["head.b1"])
    z = ad.matmul(h1, pv["head.w2"]) + pv["head.b2"]
    probs = ad.sigmoid(ad.reshape(z, (g.n_nodes,)))
    if probs_out is not None:
        probs_out.append(probs.value)

    sigma = class_weight(g.labels, train_idx)
    pt = ad.gather(probs, train_idx)
    lt = g.labels[train_idx].astype(np.float64)
    pos_term = ad.scale(ad.sum_(ad.mul(tape.constant(lt), ad.log(pt))), sigma)
    neg_term = ad.sum_(
        ad.mul(tape.constant(1.0 - lt), ad.log(ad.sub(tape.constant(np.ones_like(lt)), pt)))
    )
    return ad.neg(pos_term + neg_term)


@dataclass
class GraphTrainConfig:
    epochs: int = 100
    lr: float = 1e-3
    b1: float = 0.9
    b2: float = 0.99
    weight_decay: float = 0.0
    grad_clip: float | None = 1.0
    warmup_steps: int = 0
    seed: int = 0


def train_graph(
    g: GraphInstance,
    split: SplitPlan,
    params: GraphTaskParams,
    cfg: GraphTrainConfig,
) -> tuple[GraphTaskParams, dict, list[dict]]:
    """Full-batch training with model selection by validation macro-F1.

    Returns (best-validation parameters, test metrics, per-epoch history).
    """
    tensors = graph_params_to_tensors(params)
    state = AdamState.init(
        tensors,
        lr=cfg.lr,
        b1=cfg.b1,
        b2=cfg.b2,
        weight_decay=cfg.weight_decay,
        grad_clip=cfg.grad_clip,
        decay_exempt=GRAPH_DECAY_EXEMPT,
    )
    history: list[dict] = []
    best = {"val_macro_f1": -1.0, "tensors": tensors}
    for epoch in range(cfg.epochs):
        # validation metrics come from the same recorded forward pass that
        # produces the loss, so they describe the pre-update parameters
        probs_out: list = []
        loss, tape = ad.record_forward(
            graph_loss_fn, tensors, g, split.train, params, probs_out
        )
        if not np.isfinite(loss):
            raise DivergenceError(f"non-finite loss at epoch {epoch}: {loss}")
        probs = probs_out[0]
        row = {
            "epoch": epoch,
            "loss": loss,
            "val_macro_f1": macro_f1(probs[split.valid], g.labels[split.valid]),
            "val_auc": auc(probs[split.valid], g.labels[split.valid]),
        }
        history.append(row)
        if row["val_macro_f1"] > best["val_macro_f1"]:
            best = {"val_macro_f1": row["val_macro_f1"], "tensors": tensors}

        grads = ad.backward(tape)
        lr_scale = min(1.0, (epoch + 1) / cfg.warmup_steps) if cfg.warmup_steps else 1.0
        tensors, state = adam_step(tensors, grads, state, lr_scale=lr_scale)
    best_params = graph_params_from_tensors(best["tensors"], params)
    probs = graph_forward(g, best_params)
    metrics = {
        "test_macro_f1": macro_f1(probs[split.test], g.labels[split.test]),
        "test_auc": auc(probs[split.test], g.labels[split.test]),
        "best_val_macro_f1": best["val_macro_f1"],
    }
    return best_params, metrics, history


def run_graph_seed(
    g: GraphInstance,
    seed: int,
    *,
    train_ratio: float,
    init_kwargs: dict,
    cfg: GraphTrainConfig,
) -> tuple[GraphTaskParams, dict, list[dict]]:
    """One seeded split: fresh split, fresh initialization, full training."""
    rng = Rng(seed)
    split = make_split(g.n_nodes, train_ratio, rng.stream("graph-split"))
    params = init_graph_params(g, rng=rng.stream("graph-init"), **init_kwargs)
    return train_graph(g, split, params, replace(cfg, seed=seed))


def run_graph_seeds(
    g: GraphInstance,
    seeds: list[int],
    *,
    train_ratio: float,
    init_kwargs: dict,
    cfg: GraphTrainConfig,
    n_workers: int = 1,
) -> dict:
    """Train over several seeded splits; report per-seed and mean/std metrics.

    "params" and "histories" hold each seed's trained parameters and
    per-epoch log, in seed order.  Seeds are independent, so they may run on
    a small thread pool; results do not depend on the schedule.
    """
    def one(seed: int):
        return run_graph_seed(
            g, seed, train_ratio=train_ratio, init_kwargs=init_kwargs, cfg=cfg
        )

    if n_workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(one, seeds))
    else:
        results = [one(seed) for seed in seeds]
    rows = [{"seed": seed, **metrics} for seed, (_, metrics, _) in zip(seeds, results)]
    f1s = np.array([r["test_macro_f1"] for r in rows])
    aucs = np.array([r["test_auc"] for r in rows])
    return {
        "rows": rows,
        "params": [params for params, _, _ in results],
        "histories": [history for _, _, history in results],
        "mean_macro_f1": float(f1s.mean()),
        "std_macro_f1": float(f1s.std()),
        "mean_auc": float(aucs.mean()),
        "std_auc": float(aucs.std()),
    }


# ---------------------------------------------------------------------------
# Synthetic benchmark

def gen_planted_anomaly_graph(
    seed: int,
    n_nodes: int,
    anomaly_rate: float,
    shift: float,
    *,
    n_communities: int = 2,
    n_features: int = 8,
    p_in: float = 0.15,
    p_out: float = 0.002,
) -> GraphInstance:
    """Community-structured graph with feature anomalies planted in it.

    Benign nodes draw features from their own community's Gaussian
    (mean = shift * one-hot direction, unit covariance); anomalous nodes
    draw from a different community's distribution, so a reliable detector
    must compare a node with its neighborhood.  Communities have unequal
    sizes, which gives the anomaly class a weaker marginal footprint as
    well (as in real anomaly benchmarks).  shift=0 makes the labels
    statistically undetectable.
    """
    if not (0 < anomaly_rate < 0.5):
        raise InvalidInputError("anomaly_rate must be in (0, 0.5)")
    if n_communities > n_features:
        raise InvalidInputError("need n_features >= n_communities for distinct means")
    rng_struct = Rng(seed).stream("planted-structure")
    rng_feat = Rng(seed).stream("planted-features")
    rng_anom = Rng(seed).stream("planted-anomalies")

    sizes = np.arange(1, n_communities + 1, dtype=np.float64)
    comm = rng_struct.choice(n_communities, size=n_nodes, p=sizes / sizes.sum())
    upper = np.triu_indices(n_nodes, k=1)
    same = comm[upper[0]] == comm[upper[1]]
    p_edge = np.where(same, p_in, p_out)
    keep = rng_struct.random(upper[0].size) < p_edge
    edges = np.stack([upper[0][keep], upper[1][keep]], axis=1)

    n_anom = int(round(anomaly_rate * n_nodes))
    labels = np.zeros(n_nodes, dtype=np.intp)
    anom_ids = rng_anom.choice(n_nodes, size=n_anom, replace=False)
    labels[anom_ids] = 1

    feat_comm = comm.copy()
    for i in anom_ids:
        offset = rng_anom.integers(1, n_communities)
        feat_comm[i] = (comm[i] + offset) % n_communities
    means = shift * np.eye(n_communities, n_features)
    features = means[feat_comm] + rng_feat.normal(0.0, 1.0, (n_nodes, n_features))
    return GraphInstance(n_nodes=n_nodes, edges=edges, features=features, labels=labels)


# ---------------------------------------------------------------------------
# File formats

def save_graph_dir(g: GraphInstance, dirpath) -> None:
    """Write edges.tsv, features.csv, labels.txt."""
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    with open(dirpath / "edges.tsv", "w") as fh:
        for a, b in g.edges:
            fh.write(f"{a}\t{b}\n")
    with open(dirpath / "features.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in g.features:
            writer.writerow([repr(float(v)) for v in row])
    with open(dirpath / "labels.txt", "w") as fh:
        for label in g.labels:
            fh.write(f"{int(label)}\n")


def load_graph_dir(dirpath) -> GraphInstance:
    """Read a graph written by save_graph_dir (duplicate edges ignored)."""
    dirpath = Path(dirpath)
    features = []
    with open(dirpath / "features.csv", newline="") as fh:
        for row in csv.reader(fh):
            if row:
                features.append([float(v) for v in row])
    features = np.asarray(features, dtype=np.float64)
    labels = []
    for line in (dirpath / "labels.txt").read_text().splitlines():
        line = line.strip()
        if line:
            labels.append(int(line))
    labels = np.asarray(labels, dtype=np.intp)
    n = features.shape[0]
    edges = []
    for lineno, line in enumerate((dirpath / "edges.tsv").read_text().splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise FormatError(f"edges.tsv line {lineno}: expected src<TAB>dst")
        edges.append((int(parts[0]), int(parts[1])))
    edges = normalize_edges(np.asarray(edges, dtype=np.intp).reshape(-1, 2), n)
    return GraphInstance(n_nodes=n, edges=edges, features=features, labels=labels)
