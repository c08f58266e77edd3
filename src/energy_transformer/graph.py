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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from ._kernels import stable_sigmoid
from .core import EtParams, GraphNeighborhood, et_unroll, init_et_params, layer_norm
from .core import layer_norm_of
from .data import Rng, params_from_tensors, params_to_tensors
from .errors import FormatError, InvalidInputError, MetricUndefinedError, ShapeError
from .optim import TrainConfig as GraphTrainConfig, descend
from .unroll import et_unroll_v

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
        if self.edges.size and (self.edges.min() < 0 or self.edges.max() >= self.n_nodes):
            raise ShapeError("edge endpoint out of range")
        if (self.edges[:, 0] == self.edges[:, 1]).any():
            raise InvalidInputError("edges must not be self-loops")
        if not np.isin(self.labels, (0, 1)).all():
            raise InvalidInputError("labels must be binary")

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


def normalize_edges(edges: Array) -> Array:
    """Canonical undirected edge list: sorted pairs, deduplicated, no loops.
    Endpoints are range-checked by the callers (`load_graph_dir`, `GraphInstance`)."""
    edges = np.asarray(edges, dtype=np.intp).reshape(-1, 2)
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    keep = lo != hi
    return np.unique(np.stack([lo[keep], hi[keep]], axis=1), axis=0)


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
    )


def seeded_split(g: GraphInstance, seed: int, train_ratio: float) -> SplitPlan:
    """Seed `seed`'s split of `g`'s nodes: the one training holds out and `et eval` scores."""
    return make_split(g.n_nodes, train_ratio, Rng(seed).stream("graph-split"))


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
    alpha: float,
    n_steps: int,
    hidden: int,
    include_self: bool = False,
    rng: np.random.Generator | None = None,
    init_std: float = 0.02,
    **block,
) -> GraphTaskParams:
    """The block from `init_et_params(**block)` under the graph's neighborhood
    mask, then embeddings and head weights from N(0, init_std); biases zero."""
    rng = rng or np.random.default_rng(0)
    mask_mode = GraphNeighborhood(adjacency_matrix(g, include_self=include_self))
    et = init_et_params(rng, init_std=init_std, mask_mode=mask_mode, **block)
    d = et.dim
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

    The head reads the layer-normalized initial and final states of
    `et_unroll`; no energy is evaluated (`et_forward` and `et dump-energy`
    report those).
    """
    x0 = embed_nodes(g, p)
    g1 = layer_norm(x0, p.et.norm)
    g_final = layer_norm(et_unroll(x0, p.et, p.alpha, p.n_steps)[-1], p.et.norm)
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


def macro_f1(probs: Array, labels: Array) -> float:
    """Unweighted mean of the per-class F1 scores, predicting 1 at probs >= 0.5."""
    labels = np.asarray(labels)
    if len(np.unique(labels)) < 2:
        raise MetricUndefinedError("macro-F1 needs both classes present")
    preds = np.asarray(probs) >= 0.5
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
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)  # 1-based rank of each distinct value's last copy
    return (ends - 0.5 * (counts - 1))[inverse]


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


def score_test_split(g: GraphInstance, split: SplitPlan, p: GraphTaskParams) -> tuple[float, float]:
    """Macro-F1 and AUC of `p`'s predictions on the test nodes of `split`."""
    probs = graph_forward(g, p)[split.test]
    labels = g.labels[split.test]
    return macro_f1(probs, labels), auc(probs, labels)


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
    feats = tape.constant(g.features)
    x = ad.matmul(feats, pv["embed.kernel"]) + pv["pos_embed"]
    gamma, delta, epsilon = pv["et.norm.gamma"], pv["et.norm.delta"], spec.et.norm.epsilon
    g1 = layer_norm_of(x, gamma, delta, epsilon)
    x = et_unroll_v(x, pv, spec.et, spec.n_steps, spec.alpha, pv["et.attn.beta"])
    g_final = layer_norm_of(x, gamma, delta, epsilon)
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
    return -(pos_term + neg_term)


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
    state = cfg.adam(tensors, GRAPH_DECAY_EXEMPT)
    history: list[dict] = []
    best = {"val_macro_f1": -1.0, "tensors": tensors}
    for epoch in range(cfg.epochs):
        # validation metrics come from the same recorded forward pass that
        # produces the loss, so they describe the pre-update parameters
        probs_out: list = []
        loss, updated, state = descend(
            graph_loss_fn, tensors, state, cfg, g, split.train, params, probs_out
        )
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
        tensors = updated
    best_params = graph_params_from_tensors(best["tensors"], params)
    f1, roc = score_test_split(g, split, best_params)
    metrics = {"test_macro_f1": f1, "test_auc": roc, "best_val_macro_f1": best["val_macro_f1"]}
    return best_params, metrics, history


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

    Each seed draws a fresh split and a fresh initialization and trains in
    full.  "params" and "histories" hold each seed's trained parameters and
    per-epoch log, in seed order.  Seeds are independent, so they may run on
    a small thread pool; results do not depend on the schedule.
    """
    def one(seed: int):
        params = init_graph_params(g, rng=Rng(seed).stream("graph-init"), **init_kwargs)
        return train_graph(g, seeded_split(g, seed, train_ratio), params, cfg)

    if n_workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(one, seeds))
    else:  # serially: a one-worker pool would hold Ctrl-C until its seed ends
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
    if not (2 <= n_communities <= n_features):
        raise InvalidInputError("need 2 <= n_communities <= n_features for distinct means")
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
    """Read a graph written by save_graph_dir (duplicate edges ignored).

    Raises FormatError on text that is not UTF-8, a feature table that is
    empty, ragged, non-numeric or non-finite, labels that are not one 0 or 1
    per feature row, and an edge line that is not two node indices.
    """
    dirpath = Path(dirpath)
    try:
        with open(dirpath / "features.csv", newline="") as fh:
            features = [[float(v) for v in row] for row in csv.reader(fh) if row]
        labels = [int(s) for s in (dirpath / "labels.txt").read_text().splitlines() if s.strip()]
        edge_lines = (dirpath / "edges.tsv").read_text().splitlines()
    except (ValueError, csv.Error) as exc:
        raise FormatError(f"{dirpath}: {exc}") from exc
    n = len(features)
    if n == 0 or any(len(row) != len(features[0]) for row in features):
        raise FormatError(f"{dirpath / 'features.csv'}: need one or more rows of equal length")
    if not np.isfinite(features).all():
        raise FormatError(f"{dirpath / 'features.csv'}: non-finite feature")
    if len(labels) != n or not set(labels) <= {0, 1}:
        raise FormatError(f"{dirpath / 'labels.txt'}: need one 0 or 1 per feature row ({n})")
    edges = []
    for lineno, line in enumerate(edge_lines, 1):
        if not line.strip():
            continue
        try:
            a, b = (int(v) for v in line.strip().split("\t"))
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError
        except ValueError:
            raise FormatError(
                f"edges.tsv line {lineno}: expected src<TAB>dst, two node indices below {n}"
            ) from None
        edges.append((a, b))
    return GraphInstance(n_nodes=n, edges=normalize_edges(edges), features=features, labels=labels)
