"""Graph pipeline: embedding, forward, loss, metrics, splits, generator."""

import numpy as np
import numpy.testing as npt
import pytest

from energy_transformer import autodiff as ad
from energy_transformer import graph as gr
from energy_transformer._kernels import stable_sigmoid
from energy_transformer.core import et_forward, layer_norm
from energy_transformer.data import Rng
from energy_transformer.errors import (
    InvalidInputError,
    MetricUndefinedError,
    ShapeError,
)


def path_graph(n, n_features=3, seed=0, labels=None):
    rng = np.random.default_rng(seed)
    edges = np.array([[i, i + 1] for i in range(n - 1)])
    if labels is None:
        labels = np.zeros(n, dtype=int)
        labels[:: max(n // 3, 1)] = 1
    return gr.GraphInstance(
        n_nodes=n,
        edges=edges,
        features=rng.normal(0, 1, (n, n_features)),
        labels=np.asarray(labels),
    )


def tiny_graph_params(g, seed=0, **kw):
    defaults = dict(d=4, h=2, y=2, m=3, beta=0.9, alpha=0.3, n_steps=2, hidden=4)
    defaults.update(kw)
    return gr.init_graph_params(g, rng=np.random.default_rng(seed), init_std=0.4, **defaults)


class TestGraphInstance:
    def test_rejects_nonbinary_labels(self):
        with pytest.raises(InvalidInputError):
            gr.GraphInstance(
                n_nodes=2,
                edges=np.zeros((0, 2), dtype=int),
                features=np.zeros((2, 1)),
                labels=np.array([0, 2]),
            )

    def test_normalize_edges_dedups_and_drops_loops(self):
        edges = np.array([[0, 1], [1, 0], [2, 2], [1, 2], [1, 2]])
        out = gr.normalize_edges(edges, 3)
        npt.assert_array_equal(out, [[0, 1], [1, 2]])

    def test_adjacency_symmetric_and_isolated_forced(self):
        g = path_graph(3)
        g2 = gr.GraphInstance(
            n_nodes=4,
            edges=np.array([[0, 1]]),
            features=np.zeros((4, 1)),
            labels=np.array([0, 1, 0, 1]),
        )
        with pytest.warns(UserWarning, match="isolated"):
            a = gr.adjacency_matrix(g2)
        assert a[2, 2] and a[3, 3]
        npt.assert_array_equal(a, a.T)
        a3 = gr.adjacency_matrix(g)
        assert not a3.diagonal().any()
        a3s = gr.adjacency_matrix(g, include_self=True)
        assert a3s.diagonal().all()


class TestEmbedNodes:
    def test_zero_features_give_positional_rows(self):
        g = path_graph(4)
        g.features[:] = 0.0
        p = tiny_graph_params(g)
        npt.assert_array_equal(gr.embed_nodes(g, p), p.pos_embed)

    def test_identity_embedding(self):
        g = path_graph(4, n_features=4)
        p = tiny_graph_params(g, d=4)
        p.embed_kernel = np.eye(4)
        p.pos_embed = np.zeros((4, 4))
        npt.assert_array_equal(gr.embed_nodes(g, p), g.features)

    def test_matches_direct_evaluation(self):
        g = path_graph(5)
        p = tiny_graph_params(g)
        npt.assert_array_equal(
            gr.embed_nodes(g, p), g.features @ p.embed_kernel + p.pos_embed
        )

    def test_feature_width_mismatch(self):
        g = path_graph(4, n_features=3)
        p = tiny_graph_params(g)
        g2 = path_graph(4, n_features=5)
        with pytest.raises(ShapeError):
            gr.embed_nodes(g2, p)


class TestGraphForward:
    def test_outputs_are_probabilities(self):
        g = path_graph(6)
        p = tiny_graph_params(g)
        probs = gr.graph_forward(g, p)
        assert probs.shape == (6,)
        assert ((probs > 0) & (probs < 1)).all()

    def test_two_node_hand_check(self):
        # the full pipeline on a 2-node graph matches a step-by-step
        # composition of the public pieces
        g = gr.GraphInstance(
            n_nodes=2,
            edges=np.array([[0, 1]]),
            features=np.array([[1.0, -0.5], [0.25, 2.0]]),
            labels=np.array([0, 1]),
        )
        p = tiny_graph_params(g, n_steps=1)
        from energy_transformer.core import et_step

        x0 = g.features @ p.embed_kernel + p.pos_embed
        g1 = layer_norm(x0, p.et.norm)
        x1 = et_step(x0, p.et, p.alpha)
        gt = layer_norm(x1, p.et.norm)
        gf = np.concatenate([g1, gt], axis=-1)
        h1 = np.maximum(gf @ p.head_w1 + p.head_b1, 0.0)
        z = (h1 @ p.head_w2 + p.head_b2).reshape(-1)
        expected = 1.0 / (1.0 + np.exp(-z))
        npt.assert_allclose(gr.graph_forward(g, p), expected, rtol=1e-12)

    @pytest.mark.parametrize("n_steps", [1, 3])
    def test_bit_identical_to_final_state_of_et_forward(self, n_steps):
        g = gr.gen_planted_anomaly_graph(0, 150, 0.1, 2.0)
        p = tiny_graph_params(g, n_steps=n_steps)
        x0 = gr.embed_nodes(g, p)
        g1 = layer_norm(x0, p.et.norm)
        g_final = layer_norm(et_forward(x0, p.et, p.alpha, p.n_steps)[-1][0], p.et.norm)
        gf = np.concatenate([g1, g_final], axis=-1)
        h1 = np.maximum(np.matmul(gf, p.head_w1) + p.head_b1, 0.0)
        z = np.matmul(h1, p.head_w2) + p.head_b2
        expected = stable_sigmoid(z.reshape(-1))
        assert np.array_equal(gr.graph_forward(g, p), expected)

    def test_disconnected_pair_with_self_loops(self):
        g = gr.GraphInstance(
            n_nodes=2,
            edges=np.zeros((0, 2), dtype=int),
            features=np.array([[1.0], [2.0]]),
            labels=np.array([0, 1]),
        )
        with pytest.warns(UserWarning):
            p = tiny_graph_params(g)
        # each node attends only to itself: changing node 1's features
        # cannot influence node 0
        probs_a = gr.graph_forward(g, p)
        g.features[1, 0] = -7.0
        probs_b = gr.graph_forward(g, p)
        assert probs_a[0] == probs_b[0]
        assert probs_a[1] != probs_b[1]

    def test_node_relabeling_equivariance(self):
        g = path_graph(6)
        p = tiny_graph_params(g)
        probs = gr.graph_forward(g, p)
        perm = np.random.default_rng(4).permutation(6)
        inv = np.argsort(perm)
        remap = {old: new for new, old in enumerate(perm)}
        g2 = gr.GraphInstance(
            n_nodes=6,
            edges=np.array([[remap[a], remap[b]] for a, b in g.edges]),
            features=g.features[perm],
            labels=g.labels[perm],
        )
        p2 = tiny_graph_params(g2)
        p2.embed_kernel = p.embed_kernel
        p2.pos_embed = p.pos_embed[perm]
        p2.head_w1, p2.head_b1 = p.head_w1, p.head_b1
        p2.head_w2, p2.head_b2 = p.head_w2, p.head_b2
        p2.et.attn.w_key = p.et.attn.w_key
        p2.et.attn.w_query = p.et.attn.w_query
        p2.et.hopfield.xi = p.et.hopfield.xi
        probs2 = gr.graph_forward(g2, p2)
        npt.assert_allclose(probs2, probs[perm], rtol=1e-12)

    def test_locality_beyond_attention_horizon(self):
        # each update touches a node's 2-hop ball: 1 hop through the mixed
        # values plus 1 more through the neighbors' softmax normalizers,
        # so after t_steps updates the horizon is 2*t_steps edges
        n, t_steps = 10, 2
        g = path_graph(n)
        p = tiny_graph_params(g, n_steps=t_steps)
        base = gr.graph_forward(g, p)[0]
        far = g.features.copy()
        far[2 * t_steps + 1 :] += 100.0  # beyond the horizon of node 0
        g_far = gr.GraphInstance(n, g.edges, far, g.labels)
        assert gr.graph_forward(g_far, p)[0] == base
        near = g.features.copy()
        near[t_steps] += 1.0  # well inside the horizon: must influence
        g_near = gr.GraphInstance(n, g.edges, near, g.labels)
        assert gr.graph_forward(g_near, p)[0] != base


class TestWeightedBce:
    def test_balanced_labels_reduce_to_plain_bce(self):
        probs = np.array([0.8, 0.3, 0.6, 0.4])
        labels = np.array([1, 0, 1, 0])
        idx = np.arange(4)
        expected = -(
            np.log(0.8) + np.log(1 - 0.3) + np.log(0.6) + np.log(1 - 0.4)
        )
        assert gr.weighted_bce(probs, labels, idx) == pytest.approx(expected, rel=1e-12)

    def test_perfect_confident_predictions_vanish(self):
        probs = np.array([1 - 1e-12, 1e-12])
        labels = np.array([1, 0])
        assert gr.weighted_bce(probs, labels, np.arange(2)) < 1e-10

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        probs = rng.uniform(0.01, 0.99, 10)
        labels = (rng.random(10) < 0.3).astype(int)
        labels[0] = 1  # ensure an anomaly in the split
        idx = np.array([0, 2, 3, 5, 7, 9])
        n_reg = int((labels[idx] == 0).sum())
        n_anom = int((labels[idx] == 1).sum())
        sigma = n_reg / n_anom
        total = 0.0
        for a in idx:
            if labels[a] == 1:
                total += sigma * np.log(probs[a])
            else:
                total += np.log(1 - probs[a])
        npt.assert_allclose(gr.weighted_bce(probs, labels, idx), -total, rtol=1e-12)

    def test_no_anomalies_in_split_rejected(self):
        with pytest.raises(MetricUndefinedError):
            gr.weighted_bce(
                np.array([0.5, 0.5]), np.array([0, 0]), np.arange(2)
            )

    def test_probabilities_outside_open_interval_rejected(self):
        with pytest.raises(InvalidInputError):
            gr.weighted_bce(np.array([0.0, 0.5]), np.array([1, 0]), np.arange(2))


class TestMetrics:
    def test_perfect_separation(self):
        probs = np.array([0.9, 0.8, 0.1, 0.2])
        labels = np.array([1, 1, 0, 0])
        assert gr.macro_f1(probs, labels) == 1.0
        assert gr.auc(probs, labels) == 1.0

    def test_constant_probs_auc_half(self):
        probs = np.full(10, 0.5)
        labels = np.array([1, 0] * 5)
        assert gr.auc(probs, labels) == 0.5

    def test_auc_matches_pairwise_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            n = int(rng.integers(5, 30))
            probs = np.round(rng.uniform(0, 1, n), 1)  # force ties
            labels = (rng.random(n) < 0.4).astype(int)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            pos = np.flatnonzero(labels == 1)
            neg = np.flatnonzero(labels == 0)
            wins = 0.0
            for i in pos:
                for j in neg:
                    if probs[i] > probs[j]:
                        wins += 1.0
                    elif probs[i] == probs[j]:
                        wins += 0.5
            expected = wins / (len(pos) * len(neg))
            npt.assert_allclose(gr.auc(probs, labels), expected, rtol=1e-12)

    def test_macro_f1_matches_confusion_matrix(self):
        probs = np.array([0.9, 0.6, 0.4, 0.8, 0.2, 0.3])
        labels = np.array([1, 0, 1, 1, 0, 0])
        preds = probs >= 0.5
        # class 1: tp=2 fp=1 fn=1 -> f1 = 2*2/(2*2+1+1)
        # class 0: tp=2 fp=1 fn=1 -> same
        expected = 0.5 * (4 / 6 + 4 / 6)
        assert gr.macro_f1(probs, labels) == pytest.approx(expected)

    def test_single_class_rejected(self):
        with pytest.raises(MetricUndefinedError):
            gr.macro_f1(np.array([0.5, 0.6]), np.array([1, 1]))
        with pytest.raises(MetricUndefinedError):
            gr.auc(np.array([0.5, 0.6]), np.array([0, 0]))


class TestSplit:
    def test_disjoint_covering_one_to_two(self):
        split = gr.make_split(1000, 0.4, Rng(0).stream("split"))
        all_idx = np.concatenate([split.train, split.valid, split.test])
        assert len(np.unique(all_idx)) == 1000
        assert split.train.size == 400
        assert split.valid.size == 200
        assert split.test.size == 400

    def test_one_percent_ratio(self):
        split = gr.make_split(1000, 0.01, Rng(1).stream("split"))
        assert split.train.size == 10
        assert split.valid.size == 330
        assert split.test.size == 660


class TestTapedLossConsistency:
    def test_recorded_loss_equals_direct_pipeline(self):
        g = path_graph(6)
        p = tiny_graph_params(g)
        train_idx = np.array([0, 1, 3, 5])
        tensors = gr.graph_params_to_tensors(p)
        loss, tape = ad.record_forward(gr.graph_loss_fn, tensors, g, train_idx, p)
        probs = gr.graph_forward(g, p)
        direct = gr.weighted_bce(probs, g.labels, train_idx)
        assert loss == direct
        assert ad.replay(tape) > 0


class TestTrainGraph:
    def test_lr_zero_reports_untrained_metrics(self):
        g = path_graph(12, seed=3)
        p = tiny_graph_params(g)
        split = gr.make_split(12, 0.5, Rng(2).stream("split"))
        # guard: the tiny split must contain both classes
        if (g.labels[split.train] == 1).sum() == 0:
            g.labels[split.train[0]] = 1
        trained, metrics, history = gr.train_graph(
            g, split, p, gr.GraphTrainConfig(epochs=3, lr=0.0)
        )
        t0 = gr.graph_params_to_tensors(p)
        t1 = gr.graph_params_to_tensors(trained)
        for k in t0:
            npt.assert_array_equal(t0[k], t1[k], err_msg=k)
        assert len(history) == 3

    def test_multi_seed_report_has_mean_and_std(self):
        g = gr.gen_planted_anomaly_graph(3, 60, 0.2, 1.0, n_communities=2, p_in=0.3)
        out = gr.run_graph_seeds(
            g,
            [0, 1],
            train_ratio=0.5,
            init_kwargs=dict(d=4, h=1, y=2, m=3, beta=0.7, alpha=0.5, n_steps=1, hidden=4),
            cfg=gr.GraphTrainConfig(epochs=2, lr=1e-3),
        )
        assert {"rows", "mean_macro_f1", "std_macro_f1", "mean_auc", "std_auc"} <= set(out)
        assert len(out["rows"]) == 2
        assert [len(h) for h in out["histories"]] == [2, 2]
        assert all(isinstance(p, gr.GraphTaskParams) for p in out["params"])


class TestParamsValidation:
    def test_zero_steps_rejected(self):
        g = path_graph(4)
        with pytest.raises(InvalidInputError):
            tiny_graph_params(g, n_steps=0)

    def test_head_width_must_match_concat(self):
        g = path_graph(4)
        p = tiny_graph_params(g)
        with pytest.raises(ShapeError):
            gr.GraphTaskParams(
                embed_kernel=p.embed_kernel,
                pos_embed=p.pos_embed,
                et=p.et,
                head_w1=np.zeros((5, 4)),  # must be 2*D = 8 wide
                head_b1=p.head_b1,
                head_w2=p.head_w2,
                head_b2=p.head_b2,
                alpha=p.alpha,
                n_steps=p.n_steps,
            )


class TestGraphEnergyDescent:
    def test_neighborhood_masked_energy_decreases(self):
        # the neighborhood-restricted energy is non-increasing along the
        # trajectory in the small-step regime (halving finds such a step)
        from energy_transformer.core import find_monotone_alpha

        for seed in range(5):
            g = gr.gen_planted_anomaly_graph(seed, 30, 0.1, 1.0, n_communities=2, p_in=0.4)
            p = tiny_graph_params(g, seed=seed, d=6)
            x0 = gr.embed_nodes(g, p)
            alpha, traj = find_monotone_alpha(x0, p.et, n_steps=12)
            e = np.array([b.e_total for _, b in traj])
            assert (np.diff(e) <= 1e-9).all()


class TestGraphBptt:
    def test_full_pipeline_gradients_match_fd_on_small_graph(self):
        from energy_transformer.checks import check_bptt_graph

        reports = check_bptt_graph(tolerance=1e-6, seed0=3)
        assert all(r.passed for r in reports), [r.line() for r in reports]


class TestPlantedAnomalyGraph:
    def test_anomaly_count_rounds(self):
        g = gr.gen_planted_anomaly_graph(0, 200, 0.05, 1.0)
        assert g.labels.sum() == 10

    def test_deterministic(self):
        a = gr.gen_planted_anomaly_graph(7, 100, 0.1, 2.0)
        b = gr.gen_planted_anomaly_graph(7, 100, 0.1, 2.0)
        npt.assert_array_equal(a.features, b.features)
        npt.assert_array_equal(a.edges, b.edges)
        npt.assert_array_equal(a.labels, b.labels)

    def test_rate_bounds(self):
        with pytest.raises(InvalidInputError):
            gr.gen_planted_anomaly_graph(0, 10, 0.7, 1.0)


class TestGraphFiles:
    def test_round_trip(self, tmp_path):
        g = gr.gen_planted_anomaly_graph(1, 50, 0.1, 2.0)
        gr.save_graph_dir(g, tmp_path / "g")
        back = gr.load_graph_dir(tmp_path / "g")
        assert back.n_nodes == g.n_nodes
        npt.assert_array_equal(back.edges, g.edges)
        npt.assert_array_equal(back.features, g.features)
        npt.assert_array_equal(back.labels, g.labels)

    def test_duplicate_edges_ignored(self, tmp_path):
        d = tmp_path / "g"
        d.mkdir()
        (d / "edges.tsv").write_text("0\t1\n1\t0\n0\t1\n")
        (d / "features.csv").write_text("1.0\n2.0\n")
        (d / "labels.txt").write_text("0\n1\n")
        g = gr.load_graph_dir(d)
        npt.assert_array_equal(g.edges, [[0, 1]])

    def test_malformed_edge_line_rejected(self, tmp_path):
        d = tmp_path / "g"
        d.mkdir()
        (d / "edges.tsv").write_text("0 1\n")
        (d / "features.csv").write_text("1.0\n2.0\n")
        (d / "labels.txt").write_text("0\n1\n")
        from energy_transformer.errors import FormatError

        with pytest.raises(FormatError):
            gr.load_graph_dir(d)
