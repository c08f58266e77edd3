"""Core energies, analytic gradients, and dynamics.

Every derived expectation is either a frozen hand computation or checked
at runtime against an independent loop-based oracle defined at the top of
this file; the oracles never call into the code paths they verify.
"""

import gc
import importlib.util
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from energy_transformer import _kernels, core
from energy_transformer import autodiff as ad
from energy_transformer.autodiff import finite_diff
from energy_transformer.core import (
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
from energy_transformer.errors import (
    DegenerateMaskError,
    DivergenceError,
    InvalidInputError,
    ShapeError,
)


# ---------------------------------------------------------------------------
# Independent oracles (explicit loops, no shared code with the package)

def oracle_layer_norm(x, gamma, delta, eps):
    d = len(x)
    mean = sum(x) / d
    var = sum((xj - mean) ** 2 for xj in x) / d
    return np.array(
        [gamma * (x[i] - mean) / np.sqrt(var + eps) + delta[i] for i in range(d)]
    )


def oracle_attention_energy(g, w_key, w_query, beta, allowed):
    """Quadruple-loop evaluation of the log-sum-exp attention energy."""
    y, h, d = w_key.shape
    n = g.shape[0]
    k = np.zeros((y, h, n))
    q = np.zeros((y, h, n))
    for a in range(y):
        for hh in range(h):
            for b in range(n):
                k[a, hh, b] = sum(w_key[a, hh, j] * g[b, j] for j in range(d))
                q[a, hh, b] = sum(w_query[a, hh, j] * g[b, j] for j in range(d))
    total = 0.0
    for hh in range(h):
        for c in range(n):
            inner = 0.0
            for b in range(n):
                if allowed[c, b]:
                    dot = sum(k[a, hh, b] * q[a, hh, c] for a in range(y))
                    inner += np.exp(beta * dot)
            total += np.log(inner)
    return -total / beta


def oracle_hopfield_energy(g, xi):
    m, d = xi.shape
    total = 0.0
    for b in range(g.shape[0]):
        for mu in range(m):
            hid = sum(xi[mu, j] * g[b, j] for j in range(d))
            total += max(hid, 0.0) ** 2
    return -0.5 * total


def oracle_conventional_attention(g, w_key, w_query, beta, allowed):
    """Standard softmax attention with the value projection (w_query)^T K."""
    y, h, d = w_key.shape
    n = g.shape[0]
    out = np.zeros((n, d))
    for hh in range(h):
        wk = w_key[:, hh, :]   # (Y, D)
        wq = w_query[:, hh, :]
        k = g @ wk.T           # (N, Y)
        q = g @ wq.T
        v = k @ wq             # value of token B = (w_query)^T k_B, (N, D)
        for a in range(n):
            scores = np.array(
                [
                    beta * (k[b] @ q[a]) if allowed[a, b] else -np.inf
                    for b in range(n)
                ]
            )
            weights = np.exp(scores - scores.max())
            weights = weights / weights.sum()
            out[a] += weights @ v
    return out


# ---------------------------------------------------------------------------
# Layer norm and its Lagrangian

class TestLayerNorm:
    def test_constant_input_gives_delta(self):
        delta = np.array([0.3, -1.0, 2.0, 0.0])
        p = LayerNormParams(gamma=1.0, delta=delta, epsilon=1e-5)
        for c in (0.0, 5.0, -3.25):
            npt.assert_array_equal(core.layer_norm(np.full(4, c), p), delta)

    def test_identity_on_normalized_input(self):
        # zero-mean, unit mean-square input passes through untouched at eps=0
        x = np.array([1.0, -1.0, 1.0, -1.0])
        p = LayerNormParams(gamma=1.0, delta=np.zeros(4), epsilon=0.0)
        npt.assert_allclose(core.layer_norm(x, p), x, rtol=1e-15)

    def test_matches_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = rng.normal(0, 2, 8)
            gamma = rng.uniform(0.5, 2)
            delta = rng.normal(0, 1, 8)
            p = LayerNormParams(gamma=gamma, delta=delta, epsilon=1e-5)
            npt.assert_allclose(
                core.layer_norm(x, p),
                oracle_layer_norm(x, gamma, delta, 1e-5),
                atol=1e-12,
            )

    def test_broadcasts_over_rows(self):
        rng = np.random.default_rng(3)
        x = rng.normal(0, 1, (5, 6))
        p = LayerNormParams(gamma=1.3, delta=rng.normal(0, 1, 6))
        out = core.layer_norm(x, p)
        for a in range(5):
            npt.assert_array_equal(out[a], core.layer_norm(x[a], p))

    def test_rejects_non_finite(self):
        p = LayerNormParams(gamma=1.0, delta=np.zeros(3))
        with pytest.raises(InvalidInputError):
            core.layer_norm(np.array([1.0, np.nan, 0.0]), p)

    def test_rejects_negative_epsilon(self):
        with pytest.raises(InvalidInputError):
            LayerNormParams(gamma=1.0, delta=np.zeros(3), epsilon=-1e-9)


class TestMeanForms:
    """Row means taken as sum / n against the `np.mean` formulas they
    replace: the same bits, at ordinary and at ~1e150 magnitudes."""

    @pytest.mark.parametrize("shape", [(7,), (5, 16), (3, 4, 64)], ids=str)
    @pytest.mark.parametrize("scale", [1.0, 1e150], ids=["unit", "1e150"])
    def test_bit_identical_to_np_mean(self, shape, scale):
        rng = np.random.default_rng(23)
        x = rng.normal(0, scale, shape) + rng.uniform(-2, 2) * scale
        grad = rng.normal(0, scale, shape)
        d = shape[-1]
        u = x - x.mean(axis=-1, keepdims=True)
        s = np.sqrt((u * u).mean(axis=-1, keepdims=True) + 1e-5)
        assert np.array_equal(_kernels.mean_subtract(x), u)
        assert np.array_equal(_kernels.rsqrt_normalize(u, 1e-5), u / s)
        _, mean_subtract_vjp = ad._OPS["mean_subtract"]
        got = mean_subtract_vjp(grad, [x], None, {})[0]
        assert np.array_equal(got, grad - grad.mean(axis=-1, keepdims=True))
        with np.errstate(over="ignore"):  # s**3 overflows at 1e150 on both sides
            inner = (grad * u).sum(axis=-1, keepdims=True)
            want = grad / s - u * (inner / (d * s**3))
            got = _kernels.rsqrt_normalize_backward(grad, u, 1e-5)
        assert np.array_equal(got, want)


class TestScaleOverflow:
    """A layer norm whose variance overflows to inf raises DivergenceError on
    the array and the tape route alike; a NaN row keeps its NaN path."""

    x = np.array([[1.0, -1.0, 0.5], [1e300, -1e300, 0.0]])
    p = LayerNormParams(gamma=1.0, delta=np.zeros(3), epsilon=1e-5)

    def test_infinite_scale_raises(self):
        p, x = self.p, self.x
        taped = ad.Tape().constant(x)
        with np.errstate(over="ignore"):
            for route in (
                lambda: _kernels.rsqrt_normalize(x, p.epsilon),
                lambda: core.layer_norm(x, p),
                lambda: core.layer_norm_of(taped, p.gamma, p.delta, p.epsilon),
            ):
                with pytest.raises(DivergenceError, match="variance overflowed to inf"):
                    route()

    def test_nan_row_passes(self):
        out = _kernels.rsqrt_normalize(np.array([[1.0, -1.0], [np.nan, 0.0]]), 1e-5)
        assert np.isfinite(out[0]).all() and np.isnan(out[1]).all()


class TestLagrangian:
    def test_constant_input(self):
        p = LayerNormParams(gamma=1.0, delta=np.zeros(5), epsilon=1e-3)
        assert core.lagrangian(np.full(5, 2.5), p) == pytest.approx(5 * np.sqrt(1e-3))

    def test_hand_value(self):
        p = LayerNormParams(gamma=1.0, delta=np.zeros(4), epsilon=0.0)
        expected = 4.0 * np.sqrt(1.25)
        assert core.lagrangian(np.array([1.0, 2.0, 3.0, 4.0]), p) == pytest.approx(
            expected, rel=1e-15
        )

    def test_gradient_is_layer_norm(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            d = int(rng.integers(2, 9))
            x = rng.normal(0, 1, d)
            p = LayerNormParams(
                gamma=float(rng.uniform(0.5, 2)),
                delta=rng.normal(0, 1, d),
                epsilon=1e-4,
            )
            fd = finite_diff(lambda xx: core.lagrangian(xx, p), x, 1e-6)
            ln = core.layer_norm(x, p)
            assert np.linalg.norm(fd - ln) / np.linalg.norm(ln) < 1e-8


class TestLayerNormJacobian:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        x = rng.normal(0, 1, 6)
        p = LayerNormParams(gamma=1.2, delta=rng.normal(0, 1, 6))
        j = core.layer_norm_jacobian(x, p)
        for i in range(6):
            fd = finite_diff(lambda xx, i=i: float(core.layer_norm(xx, p)[i]), x)
            npt.assert_allclose(j[i], fd, atol=1e-8)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            d = int(rng.integers(2, 10))
            x = rng.normal(0, 3, d)
            p = LayerNormParams(gamma=float(rng.uniform(0.1, 3)), delta=np.zeros(d))
            eigs = np.linalg.eigvalsh(core.layer_norm_jacobian(x, p))
            assert eigs.min() >= -1e-10


# ---------------------------------------------------------------------------
# Attention energy

class TestAttentionEnergy:
    def test_hand_value_two_tokens(self):
        # Y=1, H=1, D=2: keys (1,3) and queries (2,4) give E = -(6+4) = -10
        a = AttentionParams(
            w_key=np.array([[[1.0, 0.0]]]),
            w_query=np.array([[[0.0, 1.0]]]),
            beta=1.0,
            mask_mode=ExcludeSelf(),
        )
        g = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert core.attention_energy(g, a) == pytest.approx(-10.0, rel=1e-14)

    def test_zero_keys_reduce_to_log_count(self):
        rng = np.random.default_rng(0)
        n, d, y, h, beta = 5, 4, 3, 2, 0.7
        a = AttentionParams(
            w_key=np.zeros((y, h, d)),
            w_query=rng.normal(0, 1, (y, h, d)),
            beta=beta,
            mask_mode=ExcludeSelf(),
        )
        g = rng.normal(0, 1, (n, d))
        expected = -(h * n / beta) * np.log(n - 1)
        assert core.attention_energy(g, a) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("kind", ["exclude", "include", "graph"])
    def test_matches_loop_oracle(self, kind):
        rng = np.random.default_rng(42)
        for _ in range(5):
            n, d, y, h = 4, 3, 2, 2
            if kind == "exclude":
                mode = ExcludeSelf()
                allowed = ~np.eye(n, dtype=bool)
            elif kind == "include":
                mode = IncludeSelf()
                allowed = np.ones((n, n), dtype=bool)
            else:
                adj = rng.random((n, n)) < 0.6
                adj = adj | adj.T
                np.fill_diagonal(adj, True)
                mode = GraphNeighborhood(adj)
                allowed = adj
            a = AttentionParams(
                w_key=rng.normal(0, 1, (y, h, d)),
                w_query=rng.normal(0, 1, (y, h, d)),
                beta=float(rng.uniform(0.2, 1.5)),
                mask_mode=mode,
            )
            g = rng.normal(0, 1, (n, d))
            npt.assert_allclose(
                core.attention_energy(g, a),
                oracle_attention_energy(g, a.w_key, a.w_query, a.beta, allowed),
                rtol=1e-12,
            )

    def test_single_token_exclude_self_rejected(self):
        a = AttentionParams(
            w_key=np.ones((1, 1, 2)), w_query=np.ones((1, 1, 2)), beta=1.0
        )
        with pytest.raises(DegenerateMaskError):
            core.attention_energy(np.ones((1, 2)), a)

    def test_isolated_graph_row_rejected(self):
        adj = np.zeros((3, 3), dtype=bool)
        adj[0, 1] = adj[1, 0] = True  # node 2 has no partner
        with pytest.raises(DegenerateMaskError, match=r"token\(s\) \[2\]"):
            GraphNeighborhood(adj)

    def test_asymmetric_adjacency_rejected(self):
        adj = np.zeros((2, 2), dtype=bool)
        adj[0, 1] = True
        with pytest.raises(InvalidInputError):
            GraphNeighborhood(adj)


class TestTokenMasks:
    """ExcludeSelf and IncludeSelf masks come from a cache, read-only, and
    equal the freshly built arrays they replace."""

    @pytest.mark.parametrize("n", [2, 3, 16])
    def test_cached_read_only_and_equal_to_fresh(self, n):
        for mode, fresh in (
            (ExcludeSelf(), ~np.eye(n, dtype=bool)),
            (IncludeSelf(), np.ones((n, n), dtype=bool)),
        ):
            m = core.mask_matrix(mode, n)
            assert m.dtype == bool and np.array_equal(m, fresh)
            assert core.mask_matrix(type(mode)(), n) is m
            with pytest.raises(ValueError):
                m[0, 1] = not m[0, 1]

    def test_single_token_exclude_self_still_rejected(self):
        for _ in range(2):
            with pytest.raises(DegenerateMaskError):
                core.mask_matrix(ExcludeSelf(), 1)
        assert core.mask_matrix(IncludeSelf(), 1).all()


class TestCheckFinite:
    """The one-sum finiteness test decides as the entrywise test it
    replaces, also where the sum alone would not."""

    def test_accepts_finite_entries_whose_sum_overflows(self):
        x = np.array([1e308, 1e308])
        assert np.isfinite(x).all()
        with np.errstate(over="ignore"):
            assert np.array_equal(core._check_finite(x, "x"), x)

    @pytest.mark.parametrize(
        "bad", [[1.0, np.nan], [np.inf, 1.0], [-np.inf, 0.0], [np.inf, -np.inf]],
        ids=["nan", "inf", "-inf", "inf-inf"],
    )
    def test_rejects_non_finite(self, bad):
        with np.errstate(invalid="ignore"), pytest.raises(InvalidInputError):
            core._check_finite(np.array(bad), "x")


class TestAttentionParams:
    @pytest.mark.parametrize("field", ["w_key", "w_query"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_weights(self, field, value):
        w = {"w_key": np.ones((2, 1, 3)), "w_query": np.ones((2, 1, 3))}
        w[field][1, 0, 2] = value
        with pytest.raises(InvalidInputError, match="finite"):
            AttentionParams(beta=1.0, **w)

    @pytest.mark.parametrize("beta", [np.nan, np.inf, np.asarray(np.inf), 0.0, -1.0])
    def test_rejects_beta_not_finite_and_positive(self, beta):
        with pytest.raises(InvalidInputError, match="beta"):
            AttentionParams(w_key=np.ones((2, 1, 3)), w_query=np.ones((2, 1, 3)), beta=beta)


class TestParamGuards:
    """Each parameter container's shape and finiteness checks, one case per check."""

    @pytest.mark.parametrize(
        "make, error, message",
        [
            (lambda: LayerNormParams(1.0, np.zeros((2, 3))), ShapeError, "delta must be a vector"),
            (lambda: LayerNormParams(np.nan, np.zeros(3)), InvalidInputError,
             "layer norm parameters must be finite"),
            (lambda: AttentionParams(np.ones((2, 3)), np.ones((2, 3)), 1.0), ShapeError,
             r"w_key must be \(Y, H, D\)"),
            (lambda: AttentionParams(np.ones((2, 1, 3)), np.ones((2, 1, 4)), 1.0), ShapeError,
             r"w_key \(2, 1, 3\) and w_query \(2, 1, 4\) differ"),
            (lambda: HopfieldParams(np.ones((0, 3))), ShapeError, r"xi must be \(M>=1, D\)"),
            (lambda: HopfieldParams(np.full((2, 3), np.inf)), InvalidInputError,
             "memory rows must be finite"),
            (lambda: EtParams(
                LayerNormParams(1.0, np.zeros(3)),
                AttentionParams(np.ones((2, 1, 4)), np.ones((2, 1, 4)), 1.0),
                HopfieldParams(np.ones((2, 3))),
            ), ShapeError, "token dim mismatch: norm 3, attention 4, hopfield 3"),
        ],
        ids=[
            "delta_not_vector", "norm_not_finite", "w_key_not_3d", "w_key_w_query_differ",
            "no_memories", "memories_not_finite", "token_dims_differ",
        ],
    )
    def test_rejected(self, make, error, message):
        with pytest.raises(error, match=message):
            make()


# ---------------------------------------------------------------------------
# Hopfield energy

class TestHopfieldEnergy:
    def test_zero_memories(self):
        h = HopfieldParams(xi=np.zeros((3, 4)))
        assert core.hopfield_energy(np.ones((2, 4)), h) == 0.0

    def test_hand_value(self):
        h = HopfieldParams(xi=np.array([[1.0, 0.0], [0.0, 1.0]]))
        g = np.array([[3.0, -2.0]])
        assert core.hopfield_energy(g, h) == pytest.approx(-4.5, rel=1e-15)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            n, d, m = int(rng.integers(1, 5)), 4, int(rng.integers(1, 6))
            h = HopfieldParams(xi=rng.normal(0, 1, (m, d)))
            g = rng.normal(0, 1, (n, d))
            npt.assert_allclose(
                core.hopfield_energy(g, h),
                oracle_hopfield_energy(g, h.xi),
                rtol=1e-12,
            )


# ---------------------------------------------------------------------------
# Gradients against the finite-difference oracle

def random_mask(kind, n, rng):
    if kind == "exclude":
        return ExcludeSelf()
    if kind == "include":
        return IncludeSelf()
    adj = rng.random((n, n)) < 0.5
    adj = adj | adj.T
    np.fill_diagonal(adj, True)
    return GraphNeighborhood(adj)


class TestAttentionGrad:
    @pytest.mark.parametrize("kind", ["exclude", "include", "graph"])
    def test_matches_finite_differences(self, kind):
        rng = np.random.default_rng(13)
        for _ in range(8):
            n = int(rng.integers(2, 7))
            d = int(rng.integers(2, 9))
            a = AttentionParams(
                w_key=rng.normal(0, 0.7, (3, 2, d)),
                w_query=rng.normal(0, 0.7, (3, 2, d)),
                beta=float(rng.uniform(0.3, 1.5)),
                mask_mode=random_mask(kind, n, rng),
            )
            g = rng.normal(0, 1, (n, d))
            fd = finite_diff(lambda gg: core.attention_energy(gg, a), g)
            an = core.attention_grad(g, a)
            assert np.linalg.norm(an + fd) / np.linalg.norm(fd) < 1e-6

    def test_zero_weights_zero_gradient(self):
        a = AttentionParams(
            w_key=np.zeros((2, 1, 3)), w_query=np.zeros((2, 1, 3)), beta=1.0
        )
        g = np.random.default_rng(0).normal(0, 1, (4, 3))
        npt.assert_array_equal(core.attention_grad(g, a), np.zeros((4, 3)))

    def test_from_term_equals_conventional_attention(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            n, d = int(rng.integers(2, 6)), int(rng.integers(2, 7))
            a = AttentionParams(
                w_key=rng.normal(0, 1, (2, 2, d)),
                w_query=rng.normal(0, 1, (2, 2, d)),
                beta=float(rng.uniform(0.3, 1.2)),
                mask_mode=ExcludeSelf(),
            )
            g = rng.normal(0, 1, (n, d))
            expected = oracle_conventional_attention(
                g, a.w_key, a.w_query, a.beta, ~np.eye(n, dtype=bool)
            )
            npt.assert_allclose(core.attention_from_term(g, a), expected, atol=1e-10)


class TestHopfieldGrad:
    @pytest.mark.parametrize("act", [Relu(), Power(3), Power(4), Softmax(0.8)])
    def test_matches_finite_differences(self, act):
        rng = np.random.default_rng(17)
        for _ in range(8):
            n, d, m = int(rng.integers(1, 6)), int(rng.integers(2, 9)), int(rng.integers(1, 6))
            h = HopfieldParams(xi=rng.normal(0, 0.8, (m, d)), activation=act)
            g = rng.normal(0, 1, (n, d))
            fd = finite_diff(lambda gg: core.hopfield_energy(gg, h), g)
            an = core.hopfield_grad(g, h)
            scale = max(np.linalg.norm(fd), 1e-12)
            assert np.linalg.norm(an + fd) / scale < 1e-6

    def test_zero_memories_zero_gradient(self):
        h = HopfieldParams(xi=np.zeros((3, 4)))
        npt.assert_array_equal(core.hopfield_grad(np.ones((2, 4)), h), np.zeros((2, 4)))

    def test_single_memory_hand_value(self):
        # xi = [[2]], g = (3): hidden 6, gradient 2 * 6 = 12
        h = HopfieldParams(xi=np.array([[2.0]]))
        npt.assert_allclose(core.hopfield_grad(np.array([[3.0]]), h), [[12.0]])


# ---------------------------------------------------------------------------
# Combined energy, dynamics, invariants

def small_params(rng, n, d=6, scale=0.5, mask=None):
    return EtParams(
        norm=LayerNormParams(gamma=1.0, delta=np.zeros(d)),
        attn=AttentionParams(
            w_key=rng.normal(0, scale, (3, 2, d)),
            w_query=rng.normal(0, scale, (3, 2, d)),
            beta=0.8,
            mask_mode=mask or ExcludeSelf(),
        ),
        hopfield=HopfieldParams(xi=rng.normal(0, scale, (4, d))),
    )


class TestTotalEnergy:
    def test_ablation_identity(self):
        rng = np.random.default_rng(2)
        p = small_params(rng, 4)
        x = rng.normal(0, 1, (4, 6))
        hn_only = EtParams(
            norm=p.norm, attn=p.attn, hopfield=p.hopfield, enable_attn=False
        )
        b = core.total_energy(x, hn_only)
        assert b.e_att == 0.0
        assert b.e_total == b.e_hn

    def test_additivity_bit_exact(self):
        rng = np.random.default_rng(4)
        p = small_params(rng, 5)
        x = rng.normal(0, 1, (5, 6))
        both = core.total_energy(x, p)
        att_only = core.total_energy(
            x, EtParams(norm=p.norm, attn=p.attn, hopfield=p.hopfield, enable_hopfield=False)
        )
        hn_only = core.total_energy(
            x, EtParams(norm=p.norm, attn=p.attn, hopfield=p.hopfield, enable_attn=False)
        )
        assert both.e_total == att_only.e_att + hn_only.e_hn
        assert both.e_att == att_only.e_att
        assert both.e_hn == hn_only.e_hn

    def test_at_least_one_module_required(self):
        rng = np.random.default_rng(1)
        p = small_params(rng, 3)
        with pytest.raises(InvalidInputError):
            EtParams(
                norm=p.norm,
                attn=p.attn,
                hopfield=p.hopfield,
                enable_attn=False,
                enable_hopfield=False,
            )


class TestShiftInvariance:
    def test_bit_exact_on_exact_arithmetic(self):
        # integer tokens with a power-of-two row width make every mean
        # subtraction exact, so the invariance holds to the last bit
        rng = np.random.default_rng(8)
        p = small_params(rng, 5, d=8)
        x = rng.integers(-8, 9, size=(5, 8)).astype(np.float64)
        shifted = x + np.array([0.0, 0.0, 7.0, 0.0, -3.0])[:, None]
        g0 = core.layer_norm(x, p.norm)
        g1 = core.layer_norm(shifted, p.norm)
        npt.assert_array_equal(g0, g1)
        assert core.total_energy(x, p).e_total == core.total_energy(shifted, p).e_total
        npt.assert_array_equal(
            core.attention_grad(g0, p.attn), core.attention_grad(g1, p.attn)
        )

    def test_invariance_on_general_input(self):
        rng = np.random.default_rng(80)
        p = small_params(rng, 5)
        x = rng.normal(0, 1, (5, 6))
        shifted = x + rng.normal(0, 3, (5, 1))
        npt.assert_allclose(
            core.layer_norm(shifted, p.norm), core.layer_norm(x, p.norm), atol=1e-12
        )
        assert core.total_energy(shifted, p).e_total == pytest.approx(
            core.total_energy(x, p).e_total, rel=1e-12
        )


class TestPermutationEquivariance:
    @pytest.mark.parametrize("mask", [ExcludeSelf(), IncludeSelf()])
    def test_step_commutes_with_permutation(self, mask):
        # permuting rows reorders the token reductions, so agreement is up
        # to summation rounding (a few ulp), not bitwise
        rng = np.random.default_rng(12)
        p = small_params(rng, 6, mask=mask)
        x = rng.normal(0, 1, (6, 6))
        perm = rng.permutation(6)
        stepped = core.et_step(x, p, 0.05)
        stepped_perm = core.et_step(x[perm], p, 0.05)
        npt.assert_allclose(stepped_perm, stepped[perm], rtol=1e-13, atol=1e-14)
        assert core.total_energy(x[perm], p).e_total == pytest.approx(
            core.total_energy(x, p).e_total, rel=1e-13
        )


class TestEtStep:
    def test_fixed_point_when_gradient_zero(self):
        # zero attention weights and zero memories give a zero update
        d = 4
        p = EtParams(
            norm=LayerNormParams(gamma=1.0, delta=np.zeros(d)),
            attn=AttentionParams(
                w_key=np.zeros((2, 1, d)), w_query=np.zeros((2, 1, d)), beta=1.0
            ),
            hopfield=HopfieldParams(xi=np.zeros((3, d))),
        )
        x = np.random.default_rng(0).normal(0, 1, (3, d))
        npt.assert_array_equal(core.et_step(x, p, 0.1), x)

    def test_alpha_zero_is_identity(self):
        rng = np.random.default_rng(14)
        p = small_params(rng, 4)
        x = rng.normal(0, 1, (4, 6))
        npt.assert_array_equal(core.et_step(x, p, 0.0), x)

    def test_negative_alpha_rejected(self):
        rng = np.random.default_rng(14)
        p = small_params(rng, 4)
        with pytest.raises(InvalidInputError):
            core.et_step(rng.normal(0, 1, (4, 6)), p, -0.1)

    def test_small_step_decreases_energy(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            p = small_params(rng, 5, scale=0.1)
            x = rng.normal(0, 1, (5, 6))
            e0 = core.total_energy(x, p).e_total
            e1 = core.total_energy(core.et_step(x, p, 0.01), p).e_total
            assert e1 <= e0 + 1e-12


class TestEtForward:
    def test_single_step_equals_et_step(self):
        rng = np.random.default_rng(16)
        p = small_params(rng, 4)
        x = rng.normal(0, 1, (4, 6))
        traj = core.et_forward(x, p, 0.05, 1)
        assert len(traj) == 2
        npt.assert_array_equal(traj[1][0], core.et_step(x, p, 0.05))

    def test_deterministic(self):
        rng = np.random.default_rng(18)
        p = small_params(rng, 5)
        x = rng.normal(0, 1, (5, 6))
        t1 = core.et_forward(x, p, 0.1, 6)
        t2 = core.et_forward(x, p, 0.1, 6)
        for (x1, b1), (x2, b2) in zip(t1, t2):
            npt.assert_array_equal(x1, x2)
            assert b1 == b2

    def test_monotone_descent_with_halving(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            p = small_params(rng, 5, scale=0.3)
            x = rng.normal(0, 1, (5, 6))
            alpha, traj = core.find_monotone_alpha(x, p)
            e = np.array([b.e_total for _, b in traj])
            assert (np.diff(e) <= 1e-9).all()
            assert len(traj) == 13

    def test_step_size_halves_until_monotone(self):
        # a large layer-norm gamma and sharp softmax memories make
        # DESCENT_ALPHA0 overshoot; twice the returned step still does
        rng = np.random.default_rng(18)
        p = EtParams(
            norm=LayerNormParams(gamma=6.0, delta=np.zeros(4)),
            attn=AttentionParams(
                w_key=rng.normal(0, 1.5, (2, 1, 4)), w_query=rng.normal(0, 1.5, (2, 1, 4)), beta=0.5
            ),
            hopfield=HopfieldParams(xi=rng.normal(0, 1.5, (8, 4)), activation=Softmax(2.0)),
        )
        x = rng.normal(0, 1, (3, 4))
        alpha, traj = core.find_monotone_alpha(x, p)
        assert alpha < core.DESCENT_ALPHA0
        e = np.array([b.e_total for _, b in traj])
        assert (np.diff(e) <= core.DESCENT_SLACK).all()
        coarse = core.et_forward(x, p, 2 * alpha, core.DESCENT_STEPS)
        assert (np.diff([b.e_total for _, b in coarse]) > core.DESCENT_SLACK).any()

    def test_rejects_zero_steps(self):
        rng = np.random.default_rng(20)
        p = small_params(rng, 4)
        with pytest.raises(InvalidInputError):
            core.et_forward(rng.normal(0, 1, (4, 6)), p, 0.1, 0)

    def test_states_are_et_unroll(self):
        rng = np.random.default_rng(21)
        p = small_params(rng, 5)
        x = rng.normal(0, 1, (5, 6))
        states = core.et_unroll(x, p, 0.1, 3)
        traj = core.et_forward(x, p, 0.1, 3)
        assert len(states) == len(traj) == 4
        assert all(np.array_equal(s, y) for s, (y, _) in zip(states, traj))

    def test_unroll_rejects_zero_steps(self):
        rng = np.random.default_rng(20)
        p = small_params(rng, 4)
        with pytest.raises(InvalidInputError):
            core.et_unroll(rng.normal(0, 1, (4, 6)), p, 0.1, 0)


class TestDescentCertificate:
    def test_quadratic_forms_nonnegative(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            p = small_params(rng, n, scale=float(rng.uniform(0.1, 1.0)))
            x = rng.normal(0, 2, (n, 6))
            q = core.descent_quadratic_forms(x, p)
            assert (q >= -1e-10).all()

    def test_descent_check_counts_through_the_search(self):
        from energy_transformer.checks import check_energy_descent

        assert check_energy_descent(n_instances=3) == (3, 3)

    def test_descent_check_counts_no_step_and_propagates_bugs(self, monkeypatch):
        from energy_transformer.checks import check_energy_descent

        def no_step(*args):
            raise InvalidInputError("no monotone step size found")

        monkeypatch.setattr(core, "find_monotone_alpha", no_step)
        assert check_energy_descent(n_instances=2) == (0, 0)

        def bug(*args):
            raise TypeError("bug in the dynamics")

        monkeypatch.setattr(core, "find_monotone_alpha", bug)
        with pytest.raises(TypeError, match="bug in the dynamics"):
            check_energy_descent(n_instances=2)


# ---------------------------------------------------------------------------
# Attention in the token basis (Y > D) against the head basis

def head_basis_attention(g, a):
    """Energy and -dE/dg with keys and queries of width Y per head, on the
    dense masked formulas."""
    mask = core.mask_matrix(a.mask_mode, g.shape[-2])
    k = np.einsum("yhd,...nd->...hny", a.w_key, g)
    q = np.einsum("yhd,...nd->...hny", a.w_query, g)
    scores = a.beta * np.einsum("...cy,...by->...cb", q, k)
    energy = -dense_masked_logsumexp(scores, mask).sum() / a.beta
    w = dense_masked_softmax(scores, mask)
    term_from = np.einsum("...hcb,...hby,yhd->...cd", w, k, a.w_query)
    term_to = np.einsum("...hcb,...hcy,yhd->...bd", w, q, a.w_key)
    return energy, term_from + term_to


def token_basis_params(kind, n, rng, y=7, d=3, h=2):
    if kind == "sparse_graph":
        mode = GraphNeighborhood(random_adjacency(n, 0.2, rng))
    else:
        mode = random_mask(kind, n, rng)
    return AttentionParams(
        w_key=rng.normal(0, 0.6, (y, h, d)),
        w_query=rng.normal(0, 0.6, (y, h, d)),
        beta=float(rng.uniform(0.3, 1.2)),
        mask_mode=mode,
    )


class TestTokenBasis:
    @pytest.mark.parametrize("lead", [(), (2,)], ids=["2d", "batch"])
    @pytest.mark.parametrize("kind", ["exclude", "include", "sparse_graph"])
    def test_matches_head_basis(self, kind, lead):
        rng = np.random.default_rng(31)
        n = 12
        for _ in range(4):
            a = token_basis_params(kind, n, rng)
            g = rng.normal(0, 1, lead + (n, 3))
            energy, grad = head_basis_attention(g, a)
            npt.assert_allclose(core.attention_energy(g, a), energy, rtol=1e-12)
            npt.assert_allclose(core.attention_grad(g, a), grad, rtol=1e-12, atol=1e-13)
            if kind == "sparse_graph":
                mask = a.mask_mode.adjacency
                assert _kernels._allowed_entries(np.zeros((2, n, n)), mask) is not None

    @pytest.mark.parametrize("kind", ["exclude", "include", "graph"])
    def test_matches_finite_differences(self, kind):
        rng = np.random.default_rng(17)
        for _ in range(6):
            n = int(rng.integers(2, 7))
            a = token_basis_params(kind, n, rng, y=6)
            g = rng.normal(0, 1, (n, 3))
            fd = finite_diff(lambda gg: core.attention_energy(gg, a), g)
            an = core.attention_grad(g, a)
            assert np.linalg.norm(an + fd) / np.linalg.norm(fd) < 1e-6

    @pytest.mark.parametrize("y, d", [(3, 5), (4, 4)], ids=["y_below_d", "y_equals_d"])
    @pytest.mark.parametrize("lead", [(), (2,)], ids=["2d", "batch"])
    def test_head_basis_keeps_its_bits(self, y, d, lead):
        """Y <= D runs the per-head key and query products in this order."""
        rng = np.random.default_rng(5)
        n = 6
        for kind in ("exclude", "include", "graph"):
            a = token_basis_params(kind, n, rng, y=y, d=d)
            g = rng.normal(0, 1, lead + (n, d))
            mask = core.mask_matrix(a.mask_mode, n)
            wk = a.w_key.transpose(1, 0, 2)
            wq = a.w_query.transpose(1, 0, 2)
            gh = g.reshape(g.shape[:-2] + (1,) + g.shape[-2:])
            k = gh @ wk.transpose(0, 2, 1)
            q = gh @ wq.transpose(0, 2, 1)
            scores = a.beta * (q @ k.swapaxes(-1, -2))
            energy = (-1.0 / a.beta) * _kernels.masked_logsumexp(scores, mask).sum()
            w = _kernels.masked_softmax(scores, mask)
            grad = ((w @ k) @ wq + (w.swapaxes(-1, -2) @ q) @ wk).sum(axis=-3)
            assert core.attention_energy(g, a) == float(energy)
            assert np.array_equal(core.attention_grad(g, a), grad)


def composed_token_basis(g, a):
    """The token-basis "from" and "to" terms, (..., N, D) each, as separate
    head-axis matmuls (the form before one kernel applied both)."""
    mask = core.mask_matrix(a.mask_mode, g.shape[-2])
    gh = g.reshape(g.shape[:-2] + (1,) + g.shape[-2:])
    form = a.w_query.transpose(1, 2, 0) @ a.w_key.transpose(1, 0, 2)
    w = _kernels.masked_softmax((gh @ (a.beta * form)) @ gh.swapaxes(-1, -2), mask)
    term_from = (w @ (gh @ form.swapaxes(-1, -2))).sum(axis=-3)
    term_to = (w.swapaxes(-1, -2) @ (gh @ form)).sum(axis=-3)
    return term_from, term_to


class TestAttentionTermsKernel:
    @pytest.mark.parametrize("lead", [(), (2,)], ids=["2d", "batch"])
    @pytest.mark.parametrize("kind", ["exclude", "include", "sparse_graph"])
    def test_matches_composed_terms(self, kind, lead):
        rng = np.random.default_rng(43)
        n = 12
        for _ in range(4):
            a = token_basis_params(kind, n, rng)
            g = rng.normal(0, 1, lead + (n, 3))
            term_from, term_to = composed_token_basis(g, a)
            want = term_from + term_to
            got = core.attention_grad(g, a)
            npt.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
            # the "from" half alone keeps its composed bits
            assert np.array_equal(core.attention_from_term(g, a), term_from)

    def test_kernel_is_the_sum_over_heads(self):
        """sum_h w_h (g a_h^T) + w_h^T (g a_h) for any weights, head by head."""
        rng = np.random.default_rng(44)
        g = rng.normal(0, 1, (2, 7, 3))
        form = rng.normal(0, 1, (4, 3, 3))
        w = rng.normal(0, 1, (2, 4, 7, 7))
        want = np.zeros_like(g)
        for b in range(2):
            for h in range(4):
                want[b] += w[b, h] @ g[b] @ form[h].T + w[b, h].T @ g[b] @ form[h]
        got = _kernels.attention_terms(g, form, w)
        npt.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


# ---------------------------------------------------------------------------
# Masked softmax / log-sum-exp kernels against the dense formula

def dense_masked_softmax(scores, mask):
    z = scores if mask is None else np.where(mask, scores, -np.inf)
    w = np.exp(z - z.max(axis=-1, keepdims=True))
    return w / w.sum(axis=-1, keepdims=True)


def dense_masked_logsumexp(scores, mask):
    z = scores if mask is None else np.where(mask, scores, -np.inf)
    m = z.max(axis=-1, keepdims=True)
    return (m + np.log(np.exp(z - m).sum(axis=-1, keepdims=True)))[..., 0]


KERNELS = [
    (_kernels.masked_softmax, dense_masked_softmax),
    (_kernels.masked_logsumexp, dense_masked_logsumexp),
]

SPARSE_RTOL = 1e-14


def assert_near_dense(kernel, got, want, mask):
    """`got`, from the allowed-entry branch, against the dense formula's `want`.

    That branch sums each row over its allowed entries in another order, so
    softmax entries agree to SPARSE_RTOL relative and disallowed ones are
    exactly 0; log-sum-exp agrees to SPARSE_RTOL of max(1, |lse|).
    """
    if kernel is _kernels.masked_softmax:
        assert (got[np.broadcast_to(~mask, got.shape)] == 0).all()
        assert (np.abs(got - want) <= SPARSE_RTOL * np.abs(want)).all()
    else:
        assert (np.abs(got - want) <= SPARSE_RTOL * np.maximum(1.0, np.abs(want))).all()


def assert_matches_dense(kernel, dense, scores, mask):
    """Bit-equal to the dense formula on the dense branch, near it elsewhere."""
    got, want = kernel(scores, mask), dense(scores, mask)
    if _kernels._allowed_entries(scores, mask) is None:
        assert np.array_equal(got, want)
    else:
        assert_near_dense(kernel, got, want, mask)


def random_adjacency(n, density, rng):
    """Symmetric boolean mask; isolated nodes get a forced self-loop."""
    upper = np.triu(rng.random((n, n)) < density, k=1)
    adj = upper | upper.T
    isolated = ~adj.any(axis=1)
    adj[isolated, isolated] = True
    return adj


@pytest.mark.parametrize("kernel, dense", KERNELS, ids=["softmax", "logsumexp"])
class TestMaskedKernels:
    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)], ids=["2d", "heads", "batch_heads"])
    def test_random_graph_masks_bit_identical(self, kernel, dense, lead):
        rng = np.random.default_rng(len(lead))
        for n in (2, 3, 17, 100, 400):
            for density in (0.01, 0.05, 0.2, 0.5):
                mask = random_adjacency(n, density, rng)
                for scale in (1.0, 30.0):
                    scores = scale * rng.normal(size=lead + (n, n))
                    assert_matches_dense(kernel, dense, scores, mask)

    def test_exactly_half_density(self, kernel, dense):
        n = 6
        idx = np.arange(n)
        mask = (idx[:, None] + idx[None, :]) % 2 == 1
        assert 2 * mask.sum() == mask.size
        scores = 30.0 * np.random.default_rng(1).normal(size=(2, n, n))
        assert np.array_equal(kernel(scores, mask), dense(scores, mask))

    def test_isolated_nodes_with_forced_self_loops(self, kernel, dense):
        rng = np.random.default_rng(2)
        n = 50
        mask = np.zeros((n, n), dtype=bool)
        mask[10:, 10:] = random_adjacency(n - 10, 0.04, rng)  # nodes 0-9 isolated
        mask[np.arange(10), np.arange(10)] = True
        scores = 10.0 * rng.normal(size=(4, n, n))
        assert_matches_dense(kernel, dense, scores, mask)

    @pytest.mark.parametrize("mode", [ExcludeSelf(), IncludeSelf(), None], ids=["exclude", "include", "none"])
    def test_token_masks_and_none_unchanged(self, kernel, dense, mode):
        rng = np.random.default_rng(3)
        for n in (2, 3, 16):
            mask = None if mode is None else core.mask_matrix(mode, n)
            scores = 5.0 * rng.normal(size=(2, 4, n, n))
            assert np.array_equal(kernel(scores, mask), dense(scores, mask))


def dense_softmax_backward(grad, weights):
    inner = (grad * weights).sum(axis=-1, keepdims=True)
    return weights * (grad - inner)


def assert_vjp_close(got, grad, weights, rtol=1e-12):
    """`got` equals the dense VJP to `rtol` of the terms it is made of.

    An entry w_i (g_i - sum_j g_j w_j) can cancel to far below its terms, so
    a different summation order moves it by a few ulps of w_i times
    |g_i| + sum_j |g_j w_j|: that is the scale the tolerance is relative to.
    """
    want = dense_softmax_backward(grad, weights)
    scale = weights * (np.abs(grad) + np.abs(grad * weights).sum(axis=-1, keepdims=True))
    assert (np.abs(got - want) <= rtol * scale).all()


def taped_softmax_vjp(scores, mask, grad):
    """d/dscores of sum(grad * masked_softmax(scores, mask)), through the tape."""
    def loss(tape, pv):
        return ad.sum_(ad.mul(tape.constant(grad), ad.masked_softmax(pv["s"], mask)))

    _, tape = ad.record_forward(loss, {"s": scores})
    return ad.backward(tape)["s"]


class TestSoftmaxVjp:
    """The masked-softmax VJP against the dense formula written out above.

    On the allowed-entry branch only the summation order differs, so allowed
    entries agree to round-off and disallowed entries are exactly 0; every
    other mask keeps the dense formula's bits.
    """

    def check_sparse(self, scores, mask, rng):
        assert _kernels._allowed_entries(scores, mask) is not None
        grad = rng.normal(size=scores.shape)
        got = taped_softmax_vjp(scores, mask, grad)
        assert (got[np.broadcast_to(~mask, scores.shape)] == 0).all()
        assert_vjp_close(got, grad, dense_masked_softmax(scores, mask))

    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)], ids=["2d", "heads", "batch_heads"])
    def test_random_graph_masks(self, lead):
        rng = np.random.default_rng(10 + len(lead))
        for n in (3, 17, 100, 400):
            for density in (0.01, 0.05, 0.2):
                mask = GraphNeighborhood(random_adjacency(n, density, rng)).adjacency
                for scale in (1.0, 30.0):
                    self.check_sparse(scale * rng.normal(size=lead + (n, n)), mask, rng)

    def test_exactly_half_density(self):
        idx = np.arange(6)
        mask = GraphNeighborhood((idx[:, None] + idx[None, :]) % 2 == 1).adjacency
        rng = np.random.default_rng(11)
        self.check_sparse(30.0 * rng.normal(size=(2, 6, 6)), mask, rng)

    def test_isolated_nodes_with_forced_self_loops(self):
        rng = np.random.default_rng(12)
        n = 50
        adj = np.zeros((n, n), dtype=bool)
        adj[10:, 10:] = random_adjacency(n - 10, 0.04, rng)  # nodes 0-9 isolated
        adj[np.arange(10), np.arange(10)] = True
        mask = GraphNeighborhood(adj).adjacency
        self.check_sparse(10.0 * rng.normal(size=(4, n, n)), mask, rng)

    @pytest.mark.parametrize("mode", [ExcludeSelf(), IncludeSelf(), None], ids=["exclude", "include", "none"])
    def test_token_masks_and_none_unchanged(self, mode):
        rng = np.random.default_rng(13)
        for n in (3, 16):
            mask = None if mode is None else core.mask_matrix(mode, n)
            scores = 5.0 * rng.normal(size=(2, 4, n, n))
            grad = rng.normal(size=scores.shape)
            want = dense_softmax_backward(grad, dense_masked_softmax(scores, mask))
            assert np.array_equal(taped_softmax_vjp(scores, mask, grad), want)


@st.composite
def masked_scores(draw):
    """(scores, mask, rng) with lead shape (), (H,) or (B, H); graph masks
    allow a share of their entries far below and around `_derive_layout`'s
    1/2 rule, read-only (the layout cache) or writeable."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lead = draw(st.sampled_from([(), (3,), (2, 3)]))
    n = draw(st.integers(2, 40))
    kind = draw(st.sampled_from(["graph", "graph_writeable", "exclude", "include", "none"]))
    if kind.startswith("graph"):
        adj = random_adjacency(n, draw(st.sampled_from([0.02, 0.1, 0.4, 0.5, 0.6])), rng)
        mask = adj if kind == "graph_writeable" else GraphNeighborhood(adj).adjacency
    elif kind == "none":
        mask = None
    else:
        mask = core.mask_matrix(ExcludeSelf() if kind == "exclude" else IncludeSelf(), n)
    scale = draw(st.sampled_from([1.0, 30.0]))
    return scale * rng.normal(size=lead + (n, n)), mask, rng


PROPS = settings(derandomize=True, max_examples=150, deadline=None, database=None)


class TestKernelProperties:
    """Seeded properties of the masked kernels: the allowed-entry branch
    against the dense formulas above, `out=` against fresh results, and
    `attention_terms` against a per-head loop."""

    @PROPS
    @given(masked_scores())
    def test_softmax_and_logsumexp_match_dense_bits(self, case):
        """Bit-equal on the dense branch; near the dense formula elsewhere."""
        scores, mask, _ = case
        before = scores.copy()
        for kernel, dense in KERNELS:
            assert_matches_dense(kernel, dense, scores, mask)
        assert np.array_equal(scores, before)

    @PROPS
    @given(masked_scores())
    def test_softmax_out_matches_fresh_result(self, case):
        scores, mask, _ = case
        fresh = _kernels.masked_softmax(scores, mask)
        buf = scores.copy()
        got = _kernels.masked_softmax(buf, mask, out=buf)
        assert got is buf and np.array_equal(got, fresh)
        junk = np.full_like(scores, np.nan)
        got = _kernels.masked_softmax(scores, mask, out=junk)
        assert got is junk and np.array_equal(got, fresh)

    @PROPS
    @given(masked_scores())
    def test_softmax_backward_out_matches_fresh_result(self, case):
        scores, mask, rng = case
        weights = _kernels.masked_softmax(scores, mask)
        grad = rng.normal(size=scores.shape)
        grad_before, weights_before = grad.copy(), weights.copy()
        fresh = _kernels.softmax_backward(grad, weights, mask)
        assert np.array_equal(grad, grad_before)
        buf = grad.copy()
        got = _kernels.softmax_backward(buf, weights, mask, out=buf)
        assert got is buf and np.array_equal(got, fresh)
        assert np.array_equal(weights, weights_before)

    @PROPS
    @given(masked_scores())
    def test_softmax_backward_matches_dense_formula(self, case):
        """Bit-equal on the dense branch; on the allowed-entry branch exactly
        0 off the mask and within round-off of the terms elsewhere."""
        scores, mask, rng = case
        weights = _kernels.masked_softmax(scores, mask)
        grad = rng.normal(size=scores.shape)
        got = _kernels.softmax_backward(grad, weights, mask)
        if _kernels._allowed_entries(weights, mask) is None:
            assert np.array_equal(got, dense_softmax_backward(grad, weights))
            return
        assert (got[np.broadcast_to(~mask, got.shape)] == 0).all()
        assert_vjp_close(got, grad, weights)

    @PROPS
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([(), (2,)]),
        st.integers(1, 12),
        st.integers(1, 5),
        st.integers(1, 3),
    )
    def test_attention_terms_is_the_per_head_sum(self, seed, lead, n, d, h):
        rng = np.random.default_rng(seed)
        g = rng.normal(size=lead + (n, d))
        form = rng.normal(size=(h, d, d))
        w = rng.normal(size=lead + (h, n, n))
        want = np.zeros_like(g)
        for b in np.ndindex(*lead):
            for k in range(h):
                want[b] += w[b][k] @ g[b] @ form[k].T + w[b][k].T @ g[b] @ form[k]
        got = _kernels.attention_terms(g, form, w)
        npt.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * max(np.abs(want).max(), 1.0))


class TestLayoutCache:
    """A read-only mask's layout is derived once; nothing else is cached."""

    @pytest.fixture
    def derivations(self, monkeypatch):
        calls = []
        flatnonzero = np.flatnonzero

        def counting(a):
            calls.append(a)
            return flatnonzero(a)

        monkeypatch.setattr(np, "flatnonzero", counting)
        return calls

    def test_read_only_mask_derived_once(self, derivations):
        rng = np.random.default_rng(14)
        mask = GraphNeighborhood(random_adjacency(40, 0.1, rng)).adjacency
        scores, grad = rng.normal(size=(2, 2, 40, 40))
        first = _kernels.masked_softmax(scores, mask)
        for _ in range(3):
            w = _kernels.masked_softmax(scores, mask)
            assert np.array_equal(w, first)
            _kernels.masked_logsumexp(scores, mask)
            _kernels.softmax_backward(grad, w, mask)
        assert len(derivations) == 1

    def test_edited_writeable_mask_gets_new_layout(self, derivations):
        rng = np.random.default_rng(15)
        mask = random_adjacency(40, 0.1, rng)
        scores, grad = rng.normal(size=(2, 2, 40, 40))
        before = _kernels.masked_softmax(scores, mask)
        j = int(np.flatnonzero(~mask[0])[-1])  # add the edge 0-j
        mask[0, j] = mask[j, 0] = True
        w = _kernels.masked_softmax(scores, mask)
        assert_near_dense(_kernels.masked_softmax, w, dense_masked_softmax(scores, mask), mask)
        assert not np.array_equal(w, before)
        got = _kernels.softmax_backward(grad, w, mask)
        assert (got[:, ~mask] == 0).all() and (got[:, 0, j] != 0).all()
        assert_vjp_close(got, grad, w)
        assert len(derivations) == 4  # one per call, and the test's own

    def test_adjacency_is_read_only(self):
        adj = random_adjacency(8, 0.3, np.random.default_rng(16))
        mode = GraphNeighborhood(adj)
        assert core.mask_matrix(mode, 8) is mode.adjacency  # checked once, when made
        with pytest.raises(ValueError):
            mode.adjacency[0, 0] = not mode.adjacency[0, 0]
        adj[0, 0] = not adj[0, 0]  # the caller's array is not the mode's
        assert mode.adjacency[0, 0] != adj[0, 0]

    def test_cache_entry_goes_with_its_mask(self):
        rng = np.random.default_rng(17)
        mode = GraphNeighborhood(random_adjacency(40, 0.1, rng))
        key = id(mode.adjacency)
        _kernels.masked_softmax(rng.normal(size=(40, 40)), mode.adjacency)
        assert key in _kernels._LAYOUTS
        del mode
        gc.collect()
        assert key not in _kernels._LAYOUTS


def test_allowed_entry_branch_rule():
    """2-D, at most half allowed, no empty row: the rest stays dense."""
    def takes(mask, n=6):
        return _kernels._allowed_entries(np.zeros((2, n, n)), mask) is not None

    sparse = random_adjacency(6, 0.2, np.random.default_rng(4))
    idx = np.arange(6)
    half = (idx[:, None] + idx[None, :]) % 2 == 1
    empty_row = half.copy()
    empty_row[0] = False
    assert takes(sparse) and takes(half)
    assert takes(core.mask_matrix(ExcludeSelf(), 2), n=2)
    assert not takes(None)
    assert not takes(core.mask_matrix(ExcludeSelf(), 6))
    assert not takes(core.mask_matrix(IncludeSelf(), 6))
    assert not takes(empty_row)
    assert not takes(np.broadcast_to(half, (2, 6, 6)))
    assert not takes(half[:1])


# ---------------------------------------------------------------------------
# Parameter counting

class TestParamCount:
    def test_base_block(self):
        assert core.param_count(768, 12, 64, 3072) == 3_538_944

    def test_base_with_embeddings(self):
        assert (
            core.param_count(768, 12, 64, 3072, 196, 768, with_embeddings=True)
            == 4_869_888
        )

    def test_unit_dims(self):
        assert core.param_count(1, 1, 1, 1) == 3

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidInputError):
            core.param_count(0, 1, 1, 1)
        with pytest.raises(InvalidInputError):
            core.param_count(4, 2, 2, 2, with_embeddings=True)


class TestSwapPoints:
    """The module attributes that bench/fidelity_checks.py replaces to break
    the block on purpose must reach the code that the workloads run."""

    def test_attention_grad_reaches_et_step_and_graph_forward(self, monkeypatch):
        from energy_transformer import graph as gr

        g = gr.gen_planted_anomaly_graph(0, 150, 0.1, 2.0)
        p = gr.init_graph_params(
            g, d=4, h=2, y=2, m=3, beta=0.9, alpha=0.3, n_steps=2, hidden=4,
            rng=np.random.default_rng(0),
        )
        x = gr.embed_nodes(g, p)
        step, probs = core.et_step(x, p.et, p.alpha), gr.graph_forward(g, p)
        monkeypatch.setattr(core, "attention_grad", core.attention_from_term)
        assert not np.array_equal(core.et_step(x, p.et, p.alpha), step)
        assert not np.array_equal(gr.graph_forward(g, p), probs)

    def test_layer_norm_reaches_reconstruct(self, monkeypatch):
        from energy_transformer import image as im
        from energy_transformer.data import Rng, gen_synthetic_images

        p = im.init_image_params(
            n_tokens=16, patch_size=4, d=5, h=2, y=2, m=3, beta=0.8, alpha=0.1,
            n_steps=2, k_h=2, k_w=2, mask_mode=ExcludeSelf(), activation=Relu(),
            rng=np.random.default_rng(0),
        )
        img = gen_synthetic_images(3, 1, size=8)[0]
        plan = im.make_mask_plan(16, 6, 5, Rng(3).stream("m"))
        recon, _ = im.reconstruct(img, plan, p)
        layer_norm = core.layer_norm
        monkeypatch.setattr(
            core, "layer_norm", lambda x, q: np.float32(layer_norm(x, q)).astype(np.float64)
        )
        assert not np.array_equal(im.reconstruct(img, plan, p)[0], recon)

    def test_attention_update_v_reaches_image_loss(self, monkeypatch):
        from energy_transformer import autodiff as ad
        from energy_transformer import image as im
        from energy_transformer import unroll

        p = im.init_image_params(
            n_tokens=4, patch_size=6, d=5, h=2, y=2, m=3, beta=0.8, alpha=0.1,
            n_steps=2, k_h=1, k_w=6, mask_mode=ExcludeSelf(), activation=Relu(),
            rng=np.random.default_rng(0),
        )
        patches = np.random.default_rng(1).normal(0, 1, (2, 4, 6))
        replaced = np.array([[True, False, False, False], [False, False, True, False]])
        occluded = replaced | np.array([[False, True, False, False]] * 2)
        args = (im.image_params_to_tensors(p), patches, replaced, occluded, p)
        loss, _ = ad.record_forward(im.image_loss_fn, *args)
        update = unroll.attention_update_v
        # positional parameters only: the replacement is called as
        # (g, w_key, w_query, beta, mask)
        monkeypatch.setattr(
            unroll, "attention_update_v", lambda *a: ad.scale(update(*a), 0.5)
        )
        assert ad.record_forward(im.image_loss_fn, *args)[0] != loss


def test_benchmark_modules_import(monkeypatch):
    """bench/workloads.py and bench/fidelity_checks.py import the package
    and build their BREAKAGES table at module level, so a rename in the
    package fails here.  The files are imported by path, not collected."""
    bench = Path(__file__).resolve().parent.parent / "bench"
    monkeypatch.setattr(sys, "path", [str(bench), *sys.path])
    try:
        for name in ("workloads", "fidelity_checks"):
            spec = importlib.util.spec_from_file_location(name, bench / f"{name}.py")
            module = importlib.util.module_from_spec(spec)
            sys.modules[name] = module
            spec.loader.exec_module(module)
    finally:
        for name in ("workloads", "tracing", "worker", "fidelity_checks"):
            sys.modules.pop(name, None)
    assert module.BREAKAGES
    for cls, target, attr, _ in module.BREAKAGES:
        assert cls.name in module.W.WORKLOADS and callable(getattr(target, attr))
