"""Tape recording, reverse-mode gradients, and the Adam optimizer."""

import inspect
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from energy_transformer import _kernels, core
from energy_transformer import autodiff as ad
from energy_transformer import graph as gr
from energy_transformer import image as im
from energy_transformer import optim
from energy_transformer.checks import _check_tape, rel_err
from energy_transformer.data import Rng
from energy_transformer.errors import DivergenceError, TapeError
from energy_transformer.optim import AdamState, adam_step, clip_by_global_norm, global_norm
from energy_transformer.unroll import et_step_v


def rel(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-12)


class TestFiniteDiff:
    def test_exact_on_quadratics(self):
        # central differences have no truncation error on quadratics
        a = np.array([[2.0, 1.0], [1.0, 3.0]])
        x = np.array([0.7, -1.2])
        fd = ad.finite_diff(lambda v: float(v @ a @ v), x, h=1e-4)
        npt.assert_allclose(fd, 2 * a @ x, rtol=1e-9)

    def test_linear_independent_of_h(self):
        w = np.array([3.0, -2.0, 0.5])
        x = np.zeros(3)
        for h in (1e-6, 1e-3, 1.0):
            npt.assert_allclose(ad.finite_diff(lambda v: float(w @ v), x, h), w, rtol=1e-9)

    def test_lagrangian_reproduces_layer_norm(self):
        rng = np.random.default_rng(0)
        p = core.LayerNormParams(gamma=1.1, delta=rng.normal(0, 1, 5))
        x = rng.normal(0, 1, 5)
        fd = ad.finite_diff(lambda v: core.lagrangian(v, p), x)
        npt.assert_allclose(fd, core.layer_norm(x, p), atol=1e-9)

    def test_rejects_nonpositive_h(self):
        with pytest.raises(ValueError):
            ad.finite_diff(lambda v: 0.0, np.zeros(2), h=0.0)

    def test_rel_err_on_known_vectors(self):
        # the difference norm over the larger norm, which is floored at 1e-12
        assert rel_err(np.array([3.0, 4.0]), np.zeros(2)) == 1.0
        assert rel_err(np.array([6.0, 8.0]), np.array([3.0, 4.0])) == 0.5
        assert rel_err(np.zeros(2), np.array([0.0, 1e-13])) == pytest.approx(0.1)


class TestPrimitives:
    """Each primitive's vector-Jacobian product against finite differences."""

    def check(self, build, args, seed=0):
        rng = np.random.default_rng(seed)
        values = {k: rng.normal(0, 1, shape) for k, shape in args.items()}

        def run(tape, pv):
            return build(tape, pv)

        loss, tape = ad.record_forward(run, values)
        grads = ad.backward(tape)
        for name in values:
            def f(v, name=name):
                probe = dict(values)
                probe[name] = v
                return ad.record_forward(run, probe)[0]

            fd = ad.finite_diff(f, values[name])
            assert rel(grads[name], fd) < 1e-7, name

    def test_add_sub_mul_broadcast(self):
        self.check(
            lambda t, pv: ad.sum_(((pv["a"] + pv["b"]) - pv["a"] * pv["c"]) ** 2),
            {"a": (3, 4), "b": (4,), "c": ()},
        )

    def test_matmul_batched(self):
        self.check(
            lambda t, pv: ad.sum_(ad.matmul(pv["a"], pv["b"]) ** 2),
            {"a": (2, 3, 4), "b": (4, 5)},
        )

    @pytest.mark.parametrize(
        "shapes",
        [
            {"a": (2, 6, 3), "b": (2, 2, 6)},  # views larger than the product
            {"a": (2, 3, 4), "b": (2, 5, 3)},
        ],
        ids=["kept", "smaller"],
    )
    def test_matmul_transposed_views(self, shapes):
        # operands viewed transposed, as k^T in Q K^T
        def build(t, pv):
            a = ad.transpose(pv["a"], (0, 2, 1))
            b = ad.transpose(pv["b"], (0, 2, 1))
            return ad.sum_(ad.matmul(a, b) ** 2)

        self.check(build, shapes)

    @pytest.mark.parametrize("view", [False, True], ids=["weight", "transposed_view"])
    def test_matmul_2d_weight_matches_per_batch_vjp(self, view):
        # batched rows against a 2-D weight (xi^T in the Hopfield hidden
        # layer when viewed): the folded VJP against the per-batch products
        # that _unbroadcast sums, at 1e-12 of the size of the summed terms
        rng = np.random.default_rng(4)
        a = rng.normal(0, 1, (3, 4, 5, 6))
        w = rng.normal(0, 1, (7, 6) if view else (6, 7))
        g = rng.normal(0, 1, (3, 4, 5, 7))

        def build(t, pv):
            b = ad.transpose(pv["w"], (1, 0)) if view else pv["w"]
            return ad.sum_(ad.matmul(pv["a"], b) * t.constant(g))

        grads = ad.backward(ad.record_forward(build, {"a": a, "w": w})[1])
        b = w.transpose(1, 0) if view else w
        ga = ad._unbroadcast(np.matmul(g, b.swapaxes(-1, -2)), a.shape)
        gb = ad._unbroadcast(np.matmul(a.swapaxes(-1, -2), g), b.shape)
        scale_a = np.matmul(np.abs(g), np.abs(b).swapaxes(-1, -2))
        scale_b = ad._unbroadcast(np.matmul(np.abs(a).swapaxes(-1, -2), np.abs(g)), b.shape)
        gw = grads["w"].transpose(1, 0) if view else grads["w"]
        assert (np.abs(grads["a"] - ga) <= 1e-12 * scale_a).all()
        assert (np.abs(gw - gb) <= 1e-12 * scale_b).all()

    def test_transpose_reshape(self):
        self.check(
            lambda t, pv: ad.sum_(
                ad.reshape(ad.transpose(pv["a"], (1, 0, 2)), (6, 4)) ** 2
            ),
            {"a": (3, 2, 4)},
        )

    def test_sum_axis(self):
        self.check(
            lambda t, pv: ad.sum_(ad.sum_(pv["a"], axis=-2) ** 2),
            {"a": (3, 4, 2)},
        )

    def test_relu_square_power(self):
        self.check(
            lambda t, pv: ad.sum_(ad.power(ad.relu(pv["a"]), 3))
            + ad.sum_(pv["a"] ** 2),
            {"a": (5, 3)},
        )

    def test_sigmoid_log(self):
        self.check(
            lambda t, pv: ad.sum_(ad.log(ad.sigmoid(pv["a"]))),
            {"a": (6,)},
        )

    def test_norm_kernels(self):
        self.check(
            lambda t, pv: ad.sum_(
                ad.rsqrt_normalize(ad.mean_subtract(pv["a"]), 1e-4) ** 2
            ),
            {"a": (4, 5)},
        )

    def test_masked_softmax(self):
        mask = ~np.eye(4, dtype=bool)
        self.check(
            lambda t, pv: ad.sum_(ad.masked_softmax(pv["s"], mask) ** 2),
            {"s": (2, 4, 4)},
        )

    def test_neg_scale(self):
        self.check(
            lambda t, pv: ad.sum_((-(2.5 * pv["a"]) + pv["a"] * pv["a"]) ** 2),
            {"a": (3, 4)},
        )

    def test_gather_where_concat(self):
        idx = np.array([0, 2, 2])
        rows = np.array([True, False, True, False])
        self.check(
            lambda t, pv: ad.sum_(ad.gather(pv["a"], idx) ** 2)
            + ad.sum_(ad.concat([ad.where_rows(pv["a"], pv["v"], rows), pv["a"]], axis=-1) ** 2),
            {"a": (4, 3), "v": (3,)},
        )


class TestRecordForward:
    def test_constant_loss_gives_zero_gradients(self):
        def fn(tape, pv):
            return ad.sum_(tape.constant(np.array([1.0, 2.0])))

        _, tape = ad.record_forward(fn, {"unused": np.ones((2, 2))})
        grads = ad.backward(tape)
        npt.assert_array_equal(grads["unused"], np.zeros((2, 2)))

    def test_scaling_loss_scales_gradients(self):
        rng = np.random.default_rng(2)
        w = rng.normal(0, 1, (3, 3))

        def fn(scale_factor):
            def inner(tape, pv):
                return ad.scale(ad.sum_(pv["w"] ** 2), scale_factor)

            _, tape = ad.record_forward(inner, {"w": w})
            return ad.backward(tape)["w"]

        npt.assert_allclose(fn(3.0), 3.0 * fn(1.0), rtol=1e-15)

    def test_node_that_does_not_feed_the_result_is_skipped(self):
        w = np.random.default_rng(3).normal(0, 1, (3, 2))

        def fn(extra):
            def inner(tape, pv):
                if extra:
                    ad.mul(pv["w"], pv["w"])  # recorded, never read
                return ad.sum_(pv["w"] ** 3)

            _, tape = ad.record_forward(inner, {"w": w})
            return tape, ad.backward(tape)["w"]

        (tape, with_extra), (_, without) = fn(True), fn(False)
        assert [n.op for n in tape.nodes] == ["leaf", "mul", "power", "sum"]
        npt.assert_array_equal(with_extra, without)

    def test_non_scalar_result_rejected(self):
        def fn(tape, pv):
            return pv["w"]

        with pytest.raises(TapeError):
            ad.record_forward(fn, {"w": np.ones(3)})

    def test_mixing_tapes_rejected(self):
        t1, t2 = ad.Tape(), ad.Tape()
        a = t1.constant(np.ones(2))
        b = t2.constant(np.ones(2))
        with pytest.raises(TapeError):
            ad.add(a, b)

    def test_duplicate_param_name_rejected(self):
        tape = ad.Tape()
        tape.param("w", np.ones(2))
        with pytest.raises(TapeError):
            tape.param("w", np.ones(2))

    @pytest.mark.parametrize(
        "misuse, message",
        [
            ("foreign_result", "result does not belong to this tape"),
            ("result_not_a_var", "recorded function must return a Var"),
            ("backward_before_finish", r"call finish\(\) first"),
            ("record_after_finish", "tape is finished"),
        ],
    )
    def test_tape_misuse_rejected(self, misuse, message):
        tape = ad.Tape()
        with pytest.raises(TapeError, match=message):
            if misuse == "foreign_result":
                tape.finish(ad.Tape().constant(1.0))  # a scalar, so only the tape is wrong
            elif misuse == "result_not_a_var":
                ad.record_forward(lambda tape, pv: float(ad.sum_(pv["w"]).value), {"w": np.ones(2)})
            elif misuse == "record_after_finish":
                w = tape.param("w", np.ones(2))
                tape.finish(ad.sum_(w))
                ad.sum_(w)
            else:
                tape.constant(1.0)
                ad.backward(tape)


def _block(activation, mask_mode, *, enable_attn=True, enable_hopfield=True, y=3):
    rng = np.random.default_rng(11)
    d = 5
    return core.EtParams(
        norm=core.LayerNormParams(gamma=1.3, delta=rng.normal(0, 0.1, d)),
        attn=core.AttentionParams(
            w_key=rng.normal(0, 0.5, (y, 2, d)),
            w_query=rng.normal(0, 0.5, (y, 2, d)),
            beta=0.7,
            mask_mode=mask_mode,
        ),
        hopfield=core.HopfieldParams(xi=rng.normal(0, 0.5, (4, d)), activation=activation),
        enable_attn=enable_attn,
        enable_hopfield=enable_hopfield,
    )


def _random_neighborhood(n):
    rng = np.random.default_rng(12)
    upper = np.triu(rng.random((n, n)) < 0.3, 1)
    adj = upper | upper.T
    adj[np.arange(n), np.arange(n)] |= ~adj.any(axis=1)
    return core.GraphNeighborhood(adj)


def _block_tensors(et):
    """The block's tensors under their checkpoint names."""
    return {
        "et.norm.gamma": np.asarray(et.norm.gamma),
        "et.norm.delta": et.norm.delta,
        "et.attn.w_key": et.attn.w_key,
        "et.attn.w_query": et.attn.w_query,
        "et.attn.beta": np.asarray(et.attn.beta),
        "et.hopfield.xi": et.hopfield.xi,
    }


def _taped(build, x, et, **kwargs):
    tape = ad.Tape()
    pv = {name: tape.param(name, v) for name, v in _block_tensors(et).items()}
    return build(tape.constant(x), pv, et, **kwargs).value


def _tape_step(x, pv, et, alpha, beta_var):
    return et_step_v(x, pv, et, alpha, pv["et.attn.beta"] if beta_var else None)


class TestCoreTapeBitIdentity:
    """The taped step equals the analytic one to the last bit."""

    def check(self, et, lead, beta_var):
        n, alpha = 6, 0.1
        x = np.random.default_rng(13).normal(0, 1, lead + (n, et.dim))
        stepped = _taped(_tape_step, x, et, alpha=alpha, beta_var=beta_var)
        for i in np.ndindex(lead):
            assert np.array_equal(stepped[i], core.et_step(x[i], et, alpha)), i

    @pytest.mark.parametrize("beta_var", [False, True], ids=["beta_float", "beta_var"])
    @pytest.mark.parametrize("lead", [(), (1,), (3,)], ids=["2d", "batch1", "batch3"])
    @pytest.mark.parametrize(
        "mask_mode",
        [core.ExcludeSelf(), core.IncludeSelf(), _random_neighborhood(6)],
        ids=["exclude_self", "include_self", "neighborhood"],
    )
    @pytest.mark.parametrize(
        "activation",
        [core.Relu(), core.Power(3), core.Softmax(0.7)],
        ids=["relu", "power3", "softmax"],
    )
    def test_step_and_energy(self, activation, mask_mode, lead, beta_var):
        self.check(_block(activation, mask_mode), lead, beta_var)

    @pytest.mark.parametrize(
        "enable", [(False, True), (True, False)], ids=["attn_off", "hopfield_off"]
    )
    def test_ablated_module(self, enable):
        et = _block(
            core.Power(3),
            _random_neighborhood(6),
            enable_attn=enable[0],
            enable_hopfield=enable[1],
        )
        self.check(et, (3,), beta_var=False)

    @pytest.mark.parametrize("beta_var", [False, True], ids=["beta_float", "beta_var"])
    @pytest.mark.parametrize("lead", [(), (3,)], ids=["2d", "batch3"])
    @pytest.mark.parametrize(
        "mask_mode",
        [core.ExcludeSelf(), core.IncludeSelf(), _random_neighborhood(6)],
        ids=["exclude_self", "include_self", "neighborhood"],
    )
    def test_token_basis_step_and_energy(self, mask_mode, lead, beta_var):
        """Y > D: attention runs its N x N products in the token width."""
        self.check(_block(core.Relu(), mask_mode, y=8), lead, beta_var)


def _composed_update(g, w_key, w_query, beta, mask):
    """Token-basis -dE/dg as the separate "from" and "to" matmuls (the form
    before one primitive applied both); records each product on Vars."""
    softmax = ad.masked_softmax if isinstance(g, ad.Var) else _kernels.masked_softmax
    gh = g.reshape(g.shape[:-2] + (1,) + g.shape[-2:])
    a = w_query.transpose(1, 2, 0) @ w_key.transpose(1, 0, 2)
    w = softmax((gh @ (beta * a)) @ gh.swapaxes(-1, -2), mask)
    return (w @ (gh @ a.swapaxes(-1, -2)) + w.swapaxes(-1, -2) @ (gh @ a)).sum(axis=-3)


def _allclose(got, want):
    npt.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


class TestAttentionTerms:
    """The token-basis update (Y > D) through the `attention_terms` primitive
    against the composed matmuls it replaces: equal up to round-off."""

    def record(self, update, et, x, cot, beta_var):
        mask = core.mask_matrix(et.attn.mask_mode, x.shape[-2])

        def fn(tape, pv):
            beta = pv["beta"] if beta_var else et.attn.beta
            out = update(pv["g"], pv["w_key"], pv["w_query"], beta, mask)
            return ad.sum_(out * tape.constant(cot))

        tensors = {
            "g": x,
            "w_key": et.attn.w_key,
            "w_query": et.attn.w_query,
            "beta": np.asarray(et.attn.beta),
        }
        return ad.record_forward(fn, tensors)[1]

    @pytest.mark.parametrize("beta_var", [False, True], ids=["beta_float", "beta_var"])
    @pytest.mark.parametrize("lead", [(), (3,)], ids=["2d", "batch3"])
    @pytest.mark.parametrize(
        "mask_mode",
        [core.ExcludeSelf(), core.IncludeSelf(), _random_neighborhood(6)],
        ids=["exclude_self", "include_self", "neighborhood"],
    )
    def test_forward_and_vjp_match_composed(self, mask_mode, lead, beta_var):
        et = _block(core.Relu(), mask_mode, y=8)
        rng = np.random.default_rng(21)
        x = rng.normal(0, 1, lead + (6, et.dim))
        cot = rng.normal(0, 1, x.shape)
        mask = core.mask_matrix(mask_mode, 6)
        if isinstance(mask_mode, core.GraphNeighborhood):
            assert _kernels._allowed_entries(np.zeros((2, 6, 6)), mask) is not None
        a = et.attn
        _allclose(
            core.attention_update_of(x, a.w_key, a.w_query, a.beta, mask),
            _composed_update(x, a.w_key, a.w_query, a.beta, mask),
        )
        tape = self.record(core.attention_update_of, et, x, cot, beta_var)
        assert [n.op for n in tape.nodes].count("attention_terms") == 1
        got = ad.backward(tape)
        want = ad.backward(self.record(_composed_update, et, x, cot, beta_var))
        for name in ("g", "w_key", "w_query") + (("beta",) if beta_var else ()):
            _allclose(got[name], want[name])

    @pytest.mark.parametrize("lead", [(), (2,)], ids=["2d", "batch"])
    def test_primitive_vjp_matches_finite_differences(self, lead):
        # any weights, not only a softmax's, and a form per head
        TestPrimitives().check(
            lambda t, pv: ad.sum_(ad.attention_terms(pv["g"], pv["a"], pv["w"]) ** 2),
            {"g": lead + (5, 3), "a": (2, 3, 3), "w": lead + (2, 5, 5)},
        )

    def test_graph_loss_matches_finite_differences(self):
        """The full graph-task loss at Y > D against central differences,
        per tensor at the verification tolerance (A7's check)."""
        rng = Rng(0).stream("bptt-graph")
        n = 5
        g = gr.GraphInstance(
            n_nodes=n,
            edges=np.array([[0, 1], [1, 2], [2, 3], [3, 4], [0, 4], [1, 3]]),
            features=rng.normal(0, 1, (n, 3)),
            labels=np.array([0, 1, 0, 0, 1]),
        )
        params = gr.init_graph_params(
            g, d=3, h=2, y=6, m=3, beta=0.9, alpha=0.2, n_steps=2, hidden=4,
            rng=rng, init_std=0.5,
        )
        data = (g, np.array([0, 1, 2, 4]))
        _, tape = ad.record_forward(
            gr.graph_loss_fn, gr.graph_params_to_tensors(params), *data, params
        )
        assert [node.op for node in tape.nodes].count("attention_terms") == 2
        reports = _check_tape(
            "graph", gr.graph_loss_fn, gr.GRAPH_TENSORS, params, data, 1e-6, 0, 1e-5
        )
        assert len(reports) == len(gr.GRAPH_TENSORS)
        assert all(r.passed for r in reports), [(r.name, r.worst_rel_err) for r in reports]


def _run_primitive_tests(monkeypatch, check):
    """Run every direct FD test of a primitive with `check` in place of
    `TestPrimitives.check`."""
    monkeypatch.setattr(TestPrimitives, "check", check)
    for name, test in vars(TestPrimitives).items():
        if name.startswith("test_") and list(inspect.signature(test).parameters) == ["self"]:
            test(TestPrimitives())
    TestAttentionTerms().test_primitive_vjp_matches_finite_differences(lead=())


def test_every_primitive_has_a_finite_difference_test(monkeypatch):
    """Walks the primitive registry: every primitive is recorded by some
    `TestPrimitives.check` call, the direct FD test of its VJP."""
    recorded = set()

    def record_ops(self, build, args, seed=0):
        values = {name: np.ones(shape) for name, shape in args.items()}
        recorded.update(node.op for node in ad.record_forward(build, values)[1].nodes)

    _run_primitive_tests(monkeypatch, record_ops)
    missing = set(ad._OPS) - recorded
    assert not missing, f"primitives with no finite-difference test: {sorted(missing)}"


def test_every_primitive_declares_what_its_vjp_reads(monkeypatch):
    """Each VJP of the primitive tests' tapes returns the same gradient bits
    when every input and output its declaration does not read is NaN, so
    `Tape.finish` may release those values."""
    checked = set()

    def check_reads(self, build, args, seed=0):
        rng = np.random.default_rng(seed)
        tape = ad.Tape()  # never finished: every value stays
        build(tape, {k: tape.param(k, rng.normal(0, 1, shape)) for k, shape in args.items()})
        for node in tape.nodes:
            if node.op == "leaf":
                continue
            _, bwd = ad._OPS[node.op]
            reads = ad._READS[node.op]
            ins = [tape.nodes[i].value for i in node.inputs]
            poisoned = [v if k in reads else np.full(v.shape, np.nan) for k, v in enumerate(ins)]
            out = node.value if "out" in reads else np.full(node.value.shape, np.nan)
            g = rng.normal(0, 1, node.value.shape)
            want = bwd(g.copy(), ins, node.value, node.meta)  # masked_softmax writes into g
            got = bwd(g.copy(), poisoned, out, node.meta)
            assert len(got) == len(want) == len(ins), node.op
            for w, h in zip(want, got):
                assert w.shape == h.shape and w.tobytes() == h.tobytes(), (node.op, reads)
            checked.add(node.op)

    _run_primitive_tests(monkeypatch, check_reads)
    assert checked == set(ad._OPS)


def test_tape_shapes_the_benchmark_counts():
    """The image tape at the benchmark's image-train dims has 204 nodes, and
    a graph step at Y > D records one masked softmax and one attention-terms
    node, the node whose scores the benchmark counts."""
    rng = np.random.default_rng(0)
    p = im.init_image_params(
        n_tokens=16, patch_size=64, d=64, h=4, y=16, m=256, beta=0.25, alpha=0.1,
        n_steps=6, k_h=8, k_w=8, mask_mode=core.ExcludeSelf(), activation=core.Relu(), rng=rng,
    )
    plans = [im.make_mask_plan(16, 8, 7, rng) for _ in range(16)]
    _, tape = ad.record_forward(
        im.image_loss_fn,
        im.image_params_to_tensors(p),
        rng.normal(0, 1, (16, 16, 64)),
        np.stack([plan.replaced_mask(16) for plan in plans]),
        np.stack([plan.occluded_mask(16) for plan in plans]),
        p,
    )
    assert len(tape.nodes) == 204

    g = gr.GraphInstance(
        n_nodes=4,
        edges=np.array([[0, 1], [1, 2], [2, 3]]),
        features=rng.normal(0, 1, (4, 3)),
        labels=np.array([0, 1, 0, 1]),
    )
    params = gr.init_graph_params(
        g, d=3, h=2, y=6, m=3, beta=0.9, alpha=0.2, n_steps=1, hidden=4, rng=rng,
    )
    _, tape = ad.record_forward(
        gr.graph_loss_fn, gr.graph_params_to_tensors(params), g, np.arange(4), params
    )
    ops = [node.op for node in tape.nodes]
    assert ops.count("masked_softmax") == ops.count("attention_terms") == 1


def _ring(n):
    ring = np.roll(np.eye(n, dtype=bool), 1, 1)
    return core.GraphNeighborhood(ring | ring.T).adjacency


class TestGradientOwnership:
    """The masked-softmax VJP writes dS into its incoming gradient, so it must
    give exact gradients when that gradient is shared with another pending
    one: equal to the out-of-place VJP and to finite differences."""

    MASKS = {"dense": ~np.eye(6, dtype=bool), "sparse": _ring(6)}

    def check(self, mask, consume, shapes, expected):
        """loss = sum(c * consume(w, pv)) with w = masked_softmax(s);
        expected(c) gives dloss/dw and the gradients of the other params."""
        rng = np.random.default_rng(21)
        values = {"s": rng.normal(size=(2, 6, 6))}
        values.update({name: rng.normal(size=shape) for name, shape in shapes.items()})
        c = rng.normal(size=(2, 6, 6))

        def build(tape, pv):
            return ad.sum_(tape.constant(c) * consume(ad.masked_softmax(pv["s"], mask), pv))

        grads = ad.backward(ad.record_forward(build, values)[1])
        dw, want = expected(c)
        weights = _kernels.masked_softmax(values["s"], mask)
        want["s"] = _kernels.softmax_backward(dw, weights, mask)
        for name, value in values.items():
            assert np.array_equal(grads[name], want[name]), name
            fd = ad.finite_diff(lambda v: ad.record_forward(build, {**values, name: v})[0], value)
            assert rel(grads[name], fd) < 1e-7, name

    @pytest.mark.parametrize("mask", ["dense", "sparse"])
    def test_add_hands_one_array_to_both_operands(self, mask):
        self.check(
            self.MASKS[mask], lambda w, pv: w + pv["x"], {"x": (2, 6, 6)}, lambda c: (c, {"x": c})
        )

    @pytest.mark.parametrize("mask", ["dense", "sparse"])
    def test_transposed_view_pending_elsewhere(self, mask):
        self.check(
            self.MASKS[mask],
            lambda w, pv: w + pv["z"].swapaxes(-1, -2),
            {"z": (2, 6, 6)},
            lambda c: (c, {"z": c.swapaxes(-1, -2)}),
        )

    @pytest.mark.parametrize("mask", ["dense", "sparse"])
    def test_reshaped_view_pending_elsewhere(self, mask):
        self.check(
            self.MASKS[mask],
            lambda w, pv: w + pv["z"].reshape((2, 6, 6)),
            {"z": (2, 36)},
            lambda c: (c, {"z": c.reshape(2, 36)}),
        )

    @pytest.mark.parametrize("mask", ["dense", "sparse"])
    def test_weights_consumed_twice(self, mask):
        self.check(self.MASKS[mask], lambda w, pv: w + w, {}, lambda c: (c + c, {}))
        self.check(
            self.MASKS[mask],
            lambda w, pv: w + w.swapaxes(-1, -2),
            {},
            lambda c: (c + c.swapaxes(-1, -2), {}),
        )


class TestAttentionMemory:
    """A graph step holds one (H, N, N) array where it used to hold two: the
    weights overwrite the scores on arrays, and on the tape dS overwrites
    the gradient it receives (N=400, H=2, Y > D, a mask allowing about 5% of
    its entries, as sparse as the bench graph's 9%: the allowed-entry
    arrays then stay small next to the N x N ones)."""

    N, H = 400, 2
    LIMIT = 1.5 * H * N * N * 8  # bytes

    @pytest.fixture(scope="class")
    def block(self):
        rng = np.random.default_rng(31)
        upper = np.triu(rng.random((self.N, self.N)) < 0.05, 1)
        adj = upper | upper.T
        adj[np.arange(self.N), np.arange(self.N)] |= ~adj.any(axis=1)
        et = core.init_et_params(
            rng, d=8, h=self.H, y=16, m=16, beta=0.25, mask_mode=core.GraphNeighborhood(adj),
            activation=core.Relu(), init_std=0.1, enable_attn=True, enable_hopfield=True,
        )
        return et, rng.normal(size=(self.N, 8))

    @staticmethod
    def peak(fn) -> int:
        fn()  # the mask's layout is derived on the first call and kept
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_array_step(self, block):
        et, x = block
        assert self.peak(lambda: core.et_step(x, et, 0.1)) < self.LIMIT

    def test_tape_backward(self, block):
        et, x = block

        def loss(tape, pv):
            x1 = et_step_v(pv["x"], pv, et, 0.1)
            return (x1 * x1).sum()

        tape = ad.record_forward(loss, {"x": x, **_block_tensors(et)})[1]
        assert self.peak(lambda: ad.backward(tape)) < self.LIMIT

    def test_finish_releases_the_scores(self, block):
        """The scores feed only the masked softmax, whose VJP reads its
        output: `finish` leaves the scores a zero-stride view of their
        shape, keeps the weights, and moves no loss or gradient bit."""
        et, x = block
        tensors = {"x": x, **_block_tensors(et)}

        def loss(tape, pv):
            x1 = et_step_v(pv["x"], pv, et, 0.1)
            return (x1 * x1).sum()

        kept = ad.Tape()  # its result is set by hand, so nothing is released
        out = loss(kept, {name: kept.param(name, value) for name, value in tensors.items()})
        kept.result = out.idx
        value, tape = ad.record_forward(loss, tensors)
        assert value == float(out.value)
        softmax = next(node for node in tape.nodes if node.op == "masked_softmax")
        scores = tape.nodes[softmax.inputs[0]]
        assert scores.op == "matmul"
        assert scores.value.shape == (self.H, self.N, self.N)
        assert scores.value.strides == (0, 0, 0)
        assert softmax.value.flags.owndata
        want, got, again = ad.backward(kept), ad.backward(tape), ad.backward(tape)
        for name in tensors:
            assert want[name].tobytes() == got[name].tobytes() == again[name].tobytes(), name


class TestBpttDeterminism:
    def test_identical_inputs_identical_gradients(self):
        rng = np.random.default_rng(5)
        w = rng.normal(0, 1, (4, 4))

        def fn(tape, pv):
            return ad.sum_(ad.matmul(pv["w"], pv["w"]) ** 2)

        g1 = ad.backward(ad.record_forward(fn, {"w": w})[1])["w"]
        g2 = ad.backward(ad.record_forward(fn, {"w": w})[1])["w"]
        npt.assert_array_equal(g1, g2)


class TestAdam:
    def test_zero_gradient_no_decay_keeps_params(self):
        params = {"w": np.ones((2, 2))}
        state = AdamState.init(params, lr=1e-2, weight_decay=0.0)
        new, _ = adam_step(params, {"w": np.zeros((2, 2))}, state)
        npt.assert_array_equal(new["w"], params["w"])

    def test_single_step_magnitude_is_lr(self):
        # unit gradient on a scalar: bias-corrected update is lr/(1+eps)
        params = {"w": np.asarray(5.0)}
        state = AdamState.init(params, lr=1e-3, b1=0.9, b2=0.99, weight_decay=0.0)
        new, _ = adam_step(params, {"w": np.asarray(1.0)}, state)
        assert float(params["w"] - new["w"]) == pytest.approx(1e-3, rel=1e-6)

    def test_lr_scale_halves_the_first_step(self):
        # from zero the step is -lr * m_hat / (sqrt(v_hat) + eps), so halving
        # lr halves it exactly
        params = {"w": np.zeros(3)}
        grads = {"w": np.array([0.5, -2.0, 0.1])}
        state = AdamState.init(params, lr=1e-3, weight_decay=0.0)
        full, _ = adam_step(params, grads, state)
        half, _ = adam_step(params, grads, state, lr_scale=0.5)
        assert np.array_equal(half["w"], 0.5 * full["w"])
        assert (full["w"] != 0).all()

    def test_eps_halves_a_first_step_of_gradient_eps(self):
        # from zero m_hat = g and sqrt(v_hat) = |g|, so a gradient of +-EPS
        # steps lr * EPS / (EPS + EPS) = lr / 2 against its sign
        params = {"w": np.zeros(2)}
        grads = {"w": np.array([optim.EPS, -optim.EPS])}
        state = AdamState.init(params, lr=1e-3, weight_decay=0.0)
        new, _ = adam_step(params, grads, state)
        assert np.array_equal(new["w"], np.array([-5e-4, 5e-4]))

    def test_clipping_rescales_to_threshold(self):
        grads = {"a": np.full(4, 5.0), "b": np.full(9, 5.0 / 3)}
        norm = global_norm(grads)
        clipped = clip_by_global_norm(grads, 1.0)
        assert norm == pytest.approx(np.sqrt(4 * 25 + 9 * 25 / 9))
        assert global_norm(clipped) == pytest.approx(1.0, rel=1e-12)

    def test_weight_decay_is_decoupled(self):
        # with zero gradient, decay shrinks the parameter by lr*wd*p exactly
        params = {"w": np.asarray(2.0)}
        state = AdamState.init(params, lr=0.1, weight_decay=0.5)
        new, _ = adam_step(params, {"w": np.asarray(0.0)}, state)
        assert float(new["w"]) == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)

    def test_decay_exempt_names_skipped(self):
        params = {"w": np.asarray(2.0), "b": np.asarray(2.0)}
        state = AdamState.init(
            params, lr=0.1, weight_decay=0.5, decay_exempt=frozenset({"b"})
        )
        new, _ = adam_step(params, {k: np.asarray(0.0) for k in params}, state)
        assert float(new["b"]) == 2.0
        assert float(new["w"]) < 2.0

    def test_warmup_ramps_the_learning_rate(self, monkeypatch):
        scales = []

        def recorded(params, grads, state, lr_scale=1.0):
            scales.append(lr_scale)
            return params, AdamState(state.m, state.v, state.step + 1, state.lr)

        monkeypatch.setattr(optim, "adam_step", recorded)
        cfg = optim.TrainConfig(warmup_steps=4)
        tensors = {"w": np.ones(2)}
        state = cfg.adam(tensors, frozenset())
        for _ in range(5):
            _, tensors, state = optim.descend(lambda tape, pv: ad.sum_(pv["w"]), tensors, state, cfg)
        assert scales == [0.25, 0.5, 0.75, 1.0, 1.0]

    def test_non_finite_gradient_raises(self):
        params = {"w": np.asarray(1.0)}
        state = AdamState.init(params, lr=0.1)
        with pytest.raises(DivergenceError):
            adam_step(params, {"w": np.asarray(np.nan)}, state)

    def test_lr_zero_keeps_params(self):
        rng = np.random.default_rng(6)
        params = {"w": rng.normal(0, 1, (3, 3))}
        state = AdamState.init(params, lr=0.0, weight_decay=0.05)
        new, _ = adam_step(params, {"w": rng.normal(0, 1, (3, 3))}, state)
        npt.assert_array_equal(new["w"], params["w"])
