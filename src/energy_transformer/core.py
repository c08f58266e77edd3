"""Energies, analytic gradients, and descent dynamics of the block.

A set of N tokens x (one D-vector per row) evolves by gradient descent on a
global energy.  The energy is the sum of two parts evaluated on the
layer-normalized tokens g: a log-sum-exp attention energy that aligns each
token's queries with other tokens' keys, and a Hopfield (associative memory)
energy that pulls each token toward stored patterns.  One discrete update is

    x' = x - alpha * dE/dg

i.e. the gradient is taken with respect to the normalized tokens but applied
to the raw ones.  Because the layer-norm Jacobian is positive semi-definite,
the continuous-time energy never increases, and the discrete dynamics is
non-increasing for small enough step size.

All functions here are pure.  The block's update math (`layer_norm_of`,
`scores_of`, `attention_update_of`, `hopfield_update_of`) is written once
on raw tensors: float64 numpy arrays for inference, or tape `Var`s, on
which the same code records the training pass (see `unroll`).  Training
differentiates the unrolled updates, never the energy, so the energies
are array functions only.  The public functions that take parameter
objects check their inputs and run that math on arrays.

Attention sees its key and query weights only through K . Q = g^T A_h g,
with one (D, D) form A_h = wq_h^T wk_h per head.  `scores_of` picks the
basis by shape: when Y > D it runs the N x N products over D, not Y, and
applies the update's "from" and "to" terms in one `attention_terms` kernel
(one tape primitive with a hand-written VJP); graph outputs move at
round-off.  Otherwise it keeps the per-head keys and queries, and image
outputs keep their bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import _kernels
from . import autodiff as ad
from .errors import DegenerateMaskError, InvalidInputError, ShapeError

Array = np.ndarray

# TokenState is a plain (N, D) float array; row A is token A.
TokenState = np.ndarray


# ---------------------------------------------------------------------------
# Attention mask modes

@dataclass(frozen=True)
class ExcludeSelf:
    """Each token attends to every other token but not to itself."""


@dataclass(frozen=True)
class IncludeSelf:
    """Each token attends to every token, itself included."""


@dataclass(frozen=True, eq=False)
class GraphNeighborhood:
    """Each token attends only to its graph neighbors.

    `adjacency` is a symmetric boolean (N, N) matrix; entry [C, B] means
    token C may attend to token B.  Every row must have at least one True
    entry (add self-loops for isolated nodes before constructing this);
    construction raises DegenerateMaskError otherwise.  The mode keeps a
    read-only copy, so the masked kernels derive its sparsity layout once
    and `mask_matrix` hands it out unchecked.
    """

    adjacency: Array

    def __post_init__(self):
        a = np.array(self.adjacency, dtype=bool)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ShapeError(f"adjacency must be square, got {a.shape}")
        if not np.array_equal(a, a.T):
            raise InvalidInputError("adjacency must be symmetric (undirected)")
        a.flags.writeable = False
        object.__setattr__(self, "adjacency", _partnered(a))


MaskMode = ExcludeSelf | IncludeSelf | GraphNeighborhood


def mask_matrix(mode: MaskMode, n: int) -> Array:
    """Boolean (N, N) matrix; [C, B] True iff token C may attend to B.

    ExcludeSelf/IncludeSelf masks are cached read-only.  DegenerateMaskError
    when some row has no partner: a log(0) in the energy (ExcludeSelf, N=1).
    A GraphNeighborhood mask is its `adjacency`, checked when the mode was
    made; here only its size is compared with n.
    """
    if isinstance(mode, (ExcludeSelf, IncludeSelf)):
        return _token_mask(mode, n)
    if not isinstance(mode, GraphNeighborhood):
        raise TypeError(f"unknown mask mode {mode!r}")
    if mode.adjacency.shape[0] != n:
        raise ShapeError(
            f"adjacency is for {mode.adjacency.shape[0]} tokens, state has {n}"
        )
    return mode.adjacency


@lru_cache(maxsize=32)
def _token_mask(mode: ExcludeSelf | IncludeSelf, n: int) -> Array:
    m = ~np.eye(n, dtype=bool) if isinstance(mode, ExcludeSelf) else np.ones((n, n), dtype=bool)
    m.flags.writeable = False
    return _partnered(m)


def _partnered(m: Array) -> Array:
    partnered = m.any(axis=1)
    if not partnered.all():
        empty = np.flatnonzero(~partnered).tolist()
        raise DegenerateMaskError(f"attention mask leaves token(s) {empty} with no partner")
    return m


# ---------------------------------------------------------------------------
# Hopfield activations

@dataclass(frozen=True)
class Relu:
    """Slow-growing activation; the memory energy is -1/2 sum relu(h)^2."""


@dataclass(frozen=True)
class Power:
    """Polynomial activation; the memory energy is -1/n sum relu(h)^n."""

    n: int = 3

    def __post_init__(self):
        if self.n < 2:
            raise InvalidInputError("power activation requires n >= 2")


@dataclass(frozen=True)
class Softmax:
    """Sharply peaked activation; per-token log-sum-exp memory energy."""

    beta: float = 1.0

    def __post_init__(self):
        if not (0 < self.beta < np.inf):
            raise InvalidInputError("softmax activation requires finite beta > 0")


Activation = Relu | Power | Softmax


# ---------------------------------------------------------------------------
# Parameter containers

@dataclass
class LayerNormParams:
    """Learnable scalar scale, vector bias, and the variance regularizer."""

    gamma: float
    delta: Array  # (D,)
    epsilon: float = 1e-5

    def __post_init__(self):
        self.delta = np.asarray(self.delta, dtype=np.float64)
        if self.delta.ndim != 1:
            raise ShapeError(f"delta must be a vector, got shape {self.delta.shape}")
        # epsilon == 0 is allowed for exact-identity checks on nonconstant input
        if not (self.epsilon >= 0):
            raise InvalidInputError("epsilon must be >= 0")
        if not np.isfinite(self.gamma) or not np.isfinite(self.delta).all():
            raise InvalidInputError("layer norm parameters must be finite")

    @property
    def dim(self) -> int:
        return self.delta.shape[0]


@dataclass
class AttentionParams:
    """Key/query projection tensors, inverse temperature, and mask mode.

    w_key and w_query have shape (Y, H, D): Y internal dimensions, H heads,
    D token dimensions.  There is no value matrix; the effective value
    projection is derived from the keys and queries themselves.
    """

    w_key: Array
    w_query: Array
    beta: float
    mask_mode: MaskMode = field(default_factory=ExcludeSelf)

    def __post_init__(self):
        self.w_key = np.asarray(self.w_key, dtype=np.float64)
        self.w_query = np.asarray(self.w_query, dtype=np.float64)
        if self.w_key.ndim != 3:
            raise ShapeError(f"w_key must be (Y, H, D), got {self.w_key.shape}")
        if self.w_key.shape != self.w_query.shape:
            raise ShapeError(
                f"w_key {self.w_key.shape} and w_query {self.w_query.shape} differ"
            )
        if not (np.isfinite(self.w_key).all() and np.isfinite(self.w_query).all()):
            raise InvalidInputError("key and query weights must be finite")
        if not (0 < self.beta < np.inf):
            raise InvalidInputError("beta must be finite and > 0")

    @property
    def dim(self) -> int:
        return self.w_key.shape[2]

    @property
    def n_heads(self) -> int:
        return self.w_key.shape[1]


def default_beta(y: int) -> float:
    """Default inverse temperature 1/sqrt(Y); 1/8 at the base Y=64."""
    return 1.0 / math.sqrt(y)


@dataclass
class HopfieldParams:
    """Stored memory patterns (one per row) and the hidden activation."""

    xi: Array  # (M, D)
    activation: Activation = field(default_factory=Relu)

    def __post_init__(self):
        self.xi = np.asarray(self.xi, dtype=np.float64)
        if self.xi.ndim != 2 or self.xi.shape[0] < 1:
            raise ShapeError(f"xi must be (M>=1, D), got {self.xi.shape}")
        if not np.isfinite(self.xi).all():
            raise InvalidInputError("memory rows must be finite")

    @property
    def dim(self) -> int:
        return self.xi.shape[1]


@dataclass
class EtParams:
    """All parameters of one block plus the module-ablation switches."""

    norm: LayerNormParams
    attn: AttentionParams
    hopfield: HopfieldParams
    enable_attn: bool = True
    enable_hopfield: bool = True

    def __post_init__(self):
        if not (self.enable_attn or self.enable_hopfield):
            raise InvalidInputError("at least one of attention/hopfield must be enabled")
        d = self.norm.dim
        if self.attn.dim != d or self.hopfield.dim != d:
            raise ShapeError(
                f"token dim mismatch: norm {d}, attention {self.attn.dim}, "
                f"hopfield {self.hopfield.dim}"
            )

    @property
    def dim(self) -> int:
        return self.norm.dim


def init_et_params(
    rng: np.random.Generator,
    *,
    d: int,
    h: int,
    y: int,
    m: int,
    beta: float,
    mask_mode: MaskMode,
    activation: Activation = Relu(),
    init_std: float,
    enable_attn: bool = True,
    enable_hopfield: bool = True,
) -> EtParams:
    """A block with keys, then queries, then memories drawn from
    N(0, init_std); layer-norm scale one and bias zero."""
    return EtParams(
        norm=LayerNormParams(gamma=1.0, delta=np.zeros(d)),
        attn=AttentionParams(
            w_key=rng.normal(0, init_std, (y, h, d)),
            w_query=rng.normal(0, init_std, (y, h, d)),
            beta=beta,
            mask_mode=mask_mode,
        ),
        hopfield=HopfieldParams(xi=rng.normal(0, init_std, (m, d)), activation=activation),
        enable_attn=enable_attn,
        enable_hopfield=enable_hopfield,
    )


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy of one state, split by module; disabled modules report 0."""

    e_att: float
    e_hn: float
    e_total: float


# ---------------------------------------------------------------------------
# Layer norm as the gradient of a scalar potential

def _check_finite(x: Array, what: str) -> Array:
    x = np.asarray(x, dtype=np.float64)
    # a finite sum proves every entry finite; any other sum is retested entrywise
    if not math.isfinite(np.add.reduce(x, axis=None)) and not np.isfinite(x).all():
        raise InvalidInputError(f"{what} contains non-finite values")
    return x


def layer_norm(x: Array, p: LayerNormParams) -> Array:
    """Normalize the last axis: gamma * (x - mean)/std + delta.

    The divisor is sqrt(mean of squared deviations + epsilon), so the map
    is smooth everywhere and is exactly the gradient of `lagrangian`.
    Broadcasts over any leading axes.
    """
    x = _check_finite(x, "layer_norm input")
    if x.shape[-1] != p.dim:
        raise ShapeError(f"input dim {x.shape[-1]} != parameter dim {p.dim}")
    return layer_norm_of(x, p.gamma, p.delta, p.epsilon)


def lagrangian(x: Array, p: LayerNormParams) -> float:
    """Scalar potential whose gradient is `layer_norm` (1-D input)."""
    x = _check_finite(x, "lagrangian input")
    if x.ndim != 1 or x.shape[0] != p.dim:
        raise ShapeError(f"expected a ({p.dim},) vector, got {x.shape}")
    u = x - x.mean()
    s = np.sqrt((u * u).mean() + p.epsilon)
    return float(x.size * p.gamma * s + p.delta @ x)


def layer_norm_jacobian(x: Array, p: LayerNormParams) -> Array:
    """(D, D) Jacobian dg/dx of `layer_norm` at a single token x.

    Symmetric and positive semi-definite for gamma >= 0, which is what
    makes the descent dynamics non-increasing in energy.
    """
    x = _check_finite(x, "jacobian input")
    if x.ndim != 1 or x.shape[0] != p.dim:
        raise ShapeError(f"expected a ({p.dim},) vector, got {x.shape}")
    d = x.shape[0]
    u = x - x.mean()
    s = np.sqrt((u * u).mean() + p.epsilon)
    proj = np.eye(d) - 1.0 / d
    return p.gamma * (proj / s - np.outer(u, u) / (d * s**3))


# ---------------------------------------------------------------------------
# The block's math on raw tensors
#
# Each function below takes numpy arrays or tape `Var`s and is written with
# ndarray methods and operators, which `Var` mirrors primitive for
# primitive.  The kernels come from `_kernels` for arrays and from the tape
# for Vars, so inference and the recorded training pass run one definition
# and agree to the last bit.

def _ops(t):
    """The kernel namespace for t: tape primitives for a Var, else `_kernels`."""
    return ad if isinstance(t, ad.Var) else _kernels


def layer_norm_of(x, gamma, delta, epsilon: float):
    """gamma * (x - mean)/sqrt(var + epsilon) + delta over the last axis."""
    k = _ops(x)
    return k.rsqrt_normalize(k.mean_subtract(x), epsilon) * gamma + delta


def scores_of(g, w_key, w_query, beta):
    """Scores beta K_B . Q_C, (..., H, N, N), and maps from softmax weights
    w to the "from" term, (..., H, N, D), and to -dE/dg, (..., N, D).

    Keys and queries meet only in K_B . Q_C = g_C^T A_h g_B, where
    A_h = wq_h^T wk_h is one (D, D) form per head.  When Y > D (the graph
    task) every N x N product runs over D: the scores are (g beta A_h) g^T
    and -dE/dg is sum_h w_h (g A_h^T) + w_h^T (g A_h), one
    `attention_terms` primitive that runs its N x N products feature-major
    and its weight gradient as one GEMM.  That costs 3N^2 D + 3N D^2 + Y D^2
    multiply-adds per head against 3N^2 Y + 4N D Y with keys and queries of
    width Y, which Y <= D (the image task) keeps.  The two bases agree up to
    round-off.
    """
    gh = g.reshape(g.shape[:-2] + (1,) + g.shape[-2:])  # broadcasts over heads
    if w_key.shape[0] > w_key.shape[2]:
        a = w_query.transpose(1, 2, 0) @ w_key.transpose(1, 0, 2)  # (H, D, D)
        scores = (gh @ (beta * a)) @ gh.swapaxes(-1, -2)
        term_from = lambda w: w @ (gh @ a.swapaxes(-1, -2))
        return scores, term_from, lambda w: _ops(g).attention_terms(g, a, w)
    wk = w_key.transpose(1, 0, 2)
    wq = w_query.transpose(1, 0, 2)
    k = gh @ wk.transpose(0, 2, 1)
    q = gh @ wq.transpose(0, 2, 1)
    scores = beta * (q @ k.swapaxes(-1, -2))
    term_from = lambda w: (w @ k) @ wq
    term_to = lambda w: (w.swapaxes(-1, -2) @ q) @ wk
    # A as the query, A as a key
    return scores, term_from, lambda w: (term_from(w) + term_to(w)).sum(axis=-3)


def attention_update_of(g, w_key, w_query, beta, mask):
    """-dE/dg of the attention energy: the "from" plus the "to" term."""
    scores, _, update = scores_of(g, w_key, w_query, beta)
    if isinstance(g, ad.Var):
        return update(ad.masked_softmax(scores, mask))
    return update(_kernels.masked_softmax(scores, mask, out=scores))  # scores are ours alone


def hopfield_update_of(g, xi, activation: Activation):
    """-dE/dg of the memory energy: f(g xi^T) xi."""
    hid = g @ xi.transpose(1, 0)
    if isinstance(activation, Relu):
        f = _ops(g).relu(hid)
    elif isinstance(activation, Power):
        f = _ops(g).relu(hid) ** (activation.n - 1)
    elif isinstance(activation, Softmax):
        f = _ops(g).masked_softmax(activation.beta * hid, None)
    else:
        raise TypeError(f"unknown activation {activation!r}")
    return f @ xi


# ---------------------------------------------------------------------------
# Attention energy and its exact gradient

def attention_energy(g: Array, a: AttentionParams) -> float:
    """Log-sum-exp alignment energy of normalized tokens g (N, D).

    For every head and every token C, the energy rewards large inner
    products between C's query and the keys of the tokens C may attend to:

        E = -(1/beta) * sum_h sum_C log sum_{B in mask(C)} exp(beta K_hB . Q_hC)
    """
    g = _check_finite(g, "attention input")
    scores, *_ = scores_of(g, a.w_key, a.w_query, a.beta)
    mask = mask_matrix(a.mask_mode, g.shape[-2])
    return float((-1.0 / a.beta) * _kernels.masked_logsumexp(scores, mask).sum())


def attention_grad(g: Array, a: AttentionParams) -> Array:
    """Descent direction -dE/dg of the attention energy, shape like g.

    The result is the sum of two terms.  The "from" term is conventional
    softmax attention for token A over its partners, with the value
    projection w_query^T applied to the keys.  The "to" term is the
    transposed flow: contributions from every token that attends to A.
    Broadcasts over leading axes of g.
    """
    g = _check_finite(g, "attention input")
    mask = mask_matrix(a.mask_mode, g.shape[-2])
    return attention_update_of(g, a.w_key, a.w_query, a.beta, mask)


def attention_from_term(g: Array, a: AttentionParams) -> Array:
    """Only the conventional-attention half of `attention_grad`."""
    g = _check_finite(g, "attention input")
    scores, term_from, _ = scores_of(g, a.w_key, a.w_query, a.beta)
    mask = mask_matrix(a.mask_mode, g.shape[-2])
    return term_from(_kernels.masked_softmax(scores, mask)).sum(axis=-3)


# ---------------------------------------------------------------------------
# Hopfield (associative memory) energy and gradient

def hopfield_energy(g: Array, h: HopfieldParams) -> float:
    """Memory energy of normalized tokens; low when tokens align with rows of xi.

    -1/n sum relu(g xi^T)^n (n=2 for Relu), or for Softmax the per-token
    log-sum-exp -(1/beta) sum log sum exp(beta g xi^T).
    """
    g = _check_finite(g, "hopfield input")
    hid = g @ h.xi.transpose(1, 0)
    act = h.activation
    if isinstance(act, Softmax):
        return float((-1.0 / act.beta) * _kernels.masked_logsumexp(act.beta * hid, None).sum())
    if isinstance(act, Relu):
        n = 2
    elif isinstance(act, Power):
        n = act.n
    else:
        raise TypeError(f"unknown activation {act!r}")
    return float((-1.0 / n) * (_kernels.relu(hid) ** n).sum())


def hopfield_grad(g: Array, h: HopfieldParams) -> Array:
    """Descent direction -dE/dg of the memory energy: f(g xi^T) xi.

    f is relu for the quadratic energy, relu^(n-1) for the power energy,
    and a per-token softmax for the log-sum-exp energy.
    """
    g = _check_finite(g, "hopfield input")
    return hopfield_update_of(g, h.xi, h.activation)


# ---------------------------------------------------------------------------
# Combined energy and the update dynamics

def total_energy(x: TokenState, p: EtParams) -> EnergyBreakdown:
    """Energy of a raw token state: normalize rows, then sum enabled parts."""
    x = _check_finite(x, "token state")
    if x.ndim != 2:
        raise ShapeError(f"token state must be (N, D), got {x.shape}")
    g = layer_norm(x, p.norm)
    e_att = attention_energy(g, p.attn) if p.enable_attn else 0.0
    e_hn = hopfield_energy(g, p.hopfield) if p.enable_hopfield else 0.0
    return EnergyBreakdown(e_att=e_att, e_hn=e_hn, e_total=e_att + e_hn)


def energy_update(g: Array, p: EtParams) -> Array:
    """Descent direction -dE/dg of the total enabled energy at g."""
    if p.enable_attn and p.enable_hopfield:
        return attention_grad(g, p.attn) + hopfield_grad(g, p.hopfield)
    if p.enable_attn:
        return attention_grad(g, p.attn)
    return hopfield_grad(g, p.hopfield)


def et_step(x: TokenState, p: EtParams, alpha: float) -> TokenState:
    """One discrete update x' = x - alpha * dE/dg at g = layer_norm(x).

    The gradient is taken with respect to the normalized tokens but is
    subtracted from the raw state (residual-stream semantics).  alpha == 0
    reproduces the input bit-exactly.
    """
    if not (alpha >= 0):
        raise InvalidInputError("alpha must be >= 0")
    g = layer_norm(x, p.norm)
    return x + alpha * energy_update(g, p)


def et_unroll(x0: TokenState, p: EtParams, alpha: float, n_steps: int) -> list[TokenState]:
    """Unroll the dynamics for n_steps; returns the n_steps+1 states.

    states[0] is the input and states[t] the state after t `et_step`
    updates.  No energy is evaluated.  Deterministic: identical inputs give
    bit-identical states.
    """
    if n_steps < 1:
        raise InvalidInputError("n_steps must be >= 1")
    states = [np.asarray(x0, dtype=np.float64)]
    for _ in range(n_steps):
        states.append(et_step(states[-1], p, alpha))
    return states


def et_forward(
    x0: TokenState, p: EtParams, alpha: float, n_steps: int
) -> list[tuple[TokenState, EnergyBreakdown]]:
    """`et_unroll`'s n_steps+1 states, each paired with its energy.

    For callers that read the energies (`et dump-energy`, the descent
    checks); inference that needs only states calls `et_unroll`.
    """
    return [(x, total_energy(x, p)) for x in et_unroll(x0, p, alpha, n_steps)]


def descent_quadratic_forms(x: TokenState, p: EtParams) -> Array:
    """Per-token quadratic form <dE/dg_A, J_A dE/dg_A> with J_A = dg_A/dx_A.

    The continuous-time energy derivative is -1/tau times the sum of these,
    so non-negative values certify that the dynamics cannot increase the
    energy.  Returns shape (N,).
    """
    x = _check_finite(x, "token state")
    g = layer_norm(x, p.norm)
    grad = -energy_update(g, p)  # dE/dg
    out = np.empty(x.shape[0])
    for a in range(x.shape[0]):
        j = layer_norm_jacobian(x[a], p.norm)
        out[a] = grad[a] @ j @ grad[a]
    return out


# find_monotone_alpha's search: trajectory length, first step size, the
# energy rise per step still counted as monotone, and halvings before it fails
DESCENT_STEPS = 12
DESCENT_ALPHA0 = 0.1
DESCENT_SLACK = 1e-9
DESCENT_MAX_HALVINGS = 60


def find_monotone_alpha(
    x0: TokenState, p: EtParams
) -> tuple[float, list[tuple[TokenState, EnergyBreakdown]]]:
    """Halve the step size from DESCENT_ALPHA0 until the trajectory is monotone.

    Returns the first alpha whose DESCENT_STEPS trajectory never increases
    e_total by more than DESCENT_SLACK, together with that trajectory.
    """
    alpha = DESCENT_ALPHA0
    for _ in range(DESCENT_MAX_HALVINGS + 1):
        traj = et_forward(x0, p, alpha, DESCENT_STEPS)
        e = np.array([b.e_total for _, b in traj])
        if (np.diff(e) <= DESCENT_SLACK).all():
            return alpha, traj
        alpha *= 0.5
    raise InvalidInputError(f"no monotone step size after {DESCENT_MAX_HALVINGS} halvings")


# ---------------------------------------------------------------------------
# Parameter counting

def param_count(
    d: int,
    h: int,
    y: int,
    m: int,
    n: int | None = None,
    p: int | None = None,
    *,
    with_embeddings: bool = False,
) -> int:
    """Number of learnable weights in one block (optionally plus embeddings).

    The block has no value matrix and a single shared memory matrix, so it
    counts 2*Y*H*D + M*D (biases excluded).  With embeddings the encoder
    kernel P*D, decoder kernel D*P, position bias N*D, and mask token D are
    added.
    """
    for name, v in (("d", d), ("h", h), ("y", y), ("m", m)):
        if v < 1:
            raise InvalidInputError(f"dimension {name} must be positive")
    block = 2 * y * h * d + m * d
    if not with_embeddings:
        return block
    if n is None or p is None or n < 1 or p < 1:
        raise InvalidInputError("embedding count needs positive n and p")
    return block + p * d + d * p + n * d + d
