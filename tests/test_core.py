"""Core energies, analytic gradients, and dynamics.

Every derived expectation is either a frozen hand computation or checked
at runtime against an independent loop-based oracle defined at the top of
this file; the oracles never call into the code paths they verify.
"""

import numpy as np
import numpy.testing as npt
import pytest

from energy_transformer import _kernels, core
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
from energy_transformer.errors import DegenerateMaskError, InvalidInputError


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
        a = AttentionParams(
            w_key=np.ones((1, 1, 2)),
            w_query=np.ones((1, 1, 2)),
            beta=1.0,
            mask_mode=GraphNeighborhood(adj),
        )
        with pytest.raises(DegenerateMaskError):
            core.attention_energy(np.ones((3, 2)), a)

    def test_asymmetric_adjacency_rejected(self):
        adj = np.zeros((2, 2), dtype=bool)
        adj[0, 1] = True
        with pytest.raises(InvalidInputError):
            GraphNeighborhood(adj)


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
            alpha, traj = core.find_monotone_alpha(x, p, n_steps=12)
            e = np.array([b.e_total for _, b in traj])
            assert (np.diff(e) <= 1e-9).all()
            assert len(traj) == 13

    def test_rejects_zero_steps(self):
        rng = np.random.default_rng(20)
        p = small_params(rng, 4)
        with pytest.raises(InvalidInputError):
            core.et_forward(rng.normal(0, 1, (4, 6)), p, 0.1, 0)


class TestDescentCertificate:
    def test_quadratic_forms_nonnegative(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            p = small_params(rng, n, scale=float(rng.uniform(0.1, 1.0)))
            x = rng.normal(0, 2, (n, 6))
            q = core.descent_quadratic_forms(x, p)
            assert (q >= -1e-10).all()


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
                    assert np.array_equal(kernel(scores, mask), dense(scores, mask)), (
                        n, density, scale
                    )

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
        assert np.array_equal(kernel(scores, mask), dense(scores, mask))

    @pytest.mark.parametrize("mode", [ExcludeSelf(), IncludeSelf(), None], ids=["exclude", "include", "none"])
    def test_token_masks_and_none_unchanged(self, kernel, dense, mode):
        rng = np.random.default_rng(3)
        for n in (2, 3, 16):
            mask = None if mode is None else core.mask_matrix(mode, n)
            scores = 5.0 * rng.normal(size=(2, 4, n, n))
            assert np.array_equal(kernel(scores, mask), dense(scores, mask))


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
