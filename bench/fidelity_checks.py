"""The benchmark's own tests: it measures the program, tracing changes no
result, and its output checks catch a wrong program.

    python3 -m pytest -q bench/fidelity_checks.py

The file name keeps the repository's test suite from collecting it.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import workloads as W  # noqa: E402
from tracing import Tracer, summarize_op  # noqa: E402
from worker import NULL_TRACER, Checker, load_reference  # noqa: E402

from energy_transformer import _kernels, core, unroll  # noqa: E402
from energy_transformer import autodiff as ad  # noqa: E402
from energy_transformer import graph as gr  # noqa: E402
from energy_transformer import image as im  # noqa: E402
from energy_transformer.data import gen_synthetic_images  # noqa: E402

REF_SEED = 0
OTHER_SEED = 3  # fidelity must hold off the reference seed too


def run_ops(wl, k: int, tr=NULL_TRACER) -> list:
    """Ops 0..k-1 the way the worker runs them; returns the checked values."""
    values = []
    for i in range(k):
        pos = i % wl.period
        if pos == 0:
            wl.restart()
        values.append(wl.op(pos, tr)[0])
    return values


@pytest.mark.parametrize("traced", [False, True])
def test_image_train_steps_match_train_image(traced):
    k = 10  # crosses the epoch boundary after 8 steps
    wl = W.ImageTrain(OTHER_SEED, NULL_TRACER)
    run_ops(wl, k, Tracer() if traced else NULL_TRACER)
    images = gen_synthetic_images(OTHER_SEED, W.N_TRAIN_IMAGES)
    trained, _ = im.train_image(images, W.image_params(OTHER_SEED), replace(wl.cfg, max_steps=k))
    expected = im.image_params_to_tensors(trained)
    assert expected.keys() == wl.tensors.keys()
    for name, value in expected.items():
        assert np.array_equal(wl.tensors[name], value), name


@pytest.mark.parametrize("traced", [False, True])
def test_graph_train_epochs_match_train_graph(traced):
    k = 3
    wl = W.GraphTrain(OTHER_SEED, NULL_TRACER)
    losses = run_ops(wl, k, Tracer() if traced else NULL_TRACER)
    g, split, params = W.graph_inputs(OTHER_SEED, NULL_TRACER)
    _, _, history = gr.train_graph(g, split, params, replace(wl.cfg, epochs=k))
    assert losses == [row["loss"] for row in history]


@pytest.mark.parametrize("cls", [W.GraphInfer, W.ImageInfer])
def test_traced_infer_op_is_bit_identical(cls):
    wl = cls(OTHER_SEED, NULL_TRACER)
    tr = Tracer()
    for pos in range(min(wl.period, 4)):
        plain, _ = wl.op(pos, NULL_TRACER)
        traced, _ = wl.op(pos, tr)
        assert np.array_equal(plain, traced)
    names = {span[0] for span in tr.take()}
    assert {"core.attention_energy", "core.attention_grad", "core.layer_norm"} <= names


def test_traced_et_forward_matches_core():
    wl = W.ImageInfer(OTHER_SEED, NULL_TRACER)
    p = wl.params
    x0 = im.encode_and_mask(wl.grids[0], wl.plans[0], p)
    expected = core.et_forward(x0, p.et, p.alpha, p.n_steps)
    got = W.traced_et_forward(x0, p.et, p.alpha, p.n_steps, Tracer())
    assert len(got) == len(expected)
    for (x_exp, e_exp), (x_got, e_got) in zip(expected, got):
        assert np.array_equal(x_exp, x_got)
        assert e_exp == e_got


def test_graph_infer_op_is_graph_forward():
    wl = W.GraphInfer(OTHER_SEED, NULL_TRACER)
    probs, _ = wl.op(0, Tracer())
    assert np.array_equal(probs, gr.graph_forward(wl.graph, wl.params))


def test_image_infer_period_is_eval_masked_mse():
    wl = W.ImageInfer(OTHER_SEED, NULL_TRACER)
    total = 0.0
    for mse in run_ops(wl, wl.period):
        total += mse
    expected = im.eval_masked_mse(wl.images, wl.params, seed=OTHER_SEED, **W.MASK_SIZES)
    assert total / wl.period == expected


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_one_period_matches_reference(name):
    wl = W.WORKLOADS[name](REF_SEED, NULL_TRACER)
    checker = Checker(wl.period, load_reference(name, REF_SEED))
    assert checker.reference is not None
    for pos in range(wl.period):
        if pos == 0:
            wl.restart()
        value, others = wl.op(pos, NULL_TRACER)
        assert checker.problem(pos, value, others) is None, pos


LAYER_NORM = core.layer_norm


def _layer_norm_in_float32(x, p):
    return np.float32(LAYER_NORM(x, p)).astype(np.float64)


RSQRT_NORMALIZE = _kernels.rsqrt_normalize


def _rsqrt_normalize_in_float32(u, epsilon):
    return np.float32(RSQRT_NORMALIZE(u, epsilon)).astype(np.float64)


def _attention_update_v_from_only(g, w_key, w_query, beta, mask):
    """unroll.attention_update_v without the "to" term."""
    wk = ad.transpose(w_key, (1, 0, 2))
    wq = ad.transpose(w_query, (1, 0, 2))
    gh = ad.reshape(g, g.shape[:-2] + (1,) + g.shape[-2:])
    k = ad.matmul(gh, ad.transpose(wk, (0, 2, 1)))
    q = ad.matmul(gh, ad.transpose(wq, (0, 2, 1)))
    qk = ad.matmul(q, ad.transpose(k, tuple(range(k.value.ndim - 2)) + (-1, -2)))
    scores = ad.mul(beta, qk) if isinstance(beta, ad.Var) else ad.scale(qk, beta)
    return ad.sum_(ad.matmul(ad.matmul(ad.masked_softmax(scores, mask), k), wq), axis=-3)


# One float32 cast and one dropped "to" term in each path through the block:
# the analytic `core` path the infer workloads run and the tape the training
# workloads record.
BREAKAGES = [
    (W.GraphInfer, core, "attention_grad", core.attention_from_term),
    (W.ImageInfer, core, "attention_grad", core.attention_from_term),
    (W.GraphInfer, core, "layer_norm", _layer_norm_in_float32),
    (W.ImageInfer, core, "layer_norm", _layer_norm_in_float32),
    (W.ImageTrain, unroll, "attention_update_v", _attention_update_v_from_only),
    (W.GraphTrain, unroll, "attention_update_v", _attention_update_v_from_only),
    (W.ImageTrain, _kernels, "rsqrt_normalize", _rsqrt_normalize_in_float32),
    (W.GraphTrain, _kernels, "rsqrt_normalize", _rsqrt_normalize_in_float32),
]


@pytest.mark.parametrize(
    "cls, module, name, broken", BREAKAGES, ids=lambda v: getattr(v, "__name__", None)
)
def test_reference_catches_a_broken_block(cls, module, name, broken, monkeypatch):
    wl = cls(REF_SEED, NULL_TRACER)
    reference = load_reference(cls.name, REF_SEED)
    value, _ = wl.op(0, NULL_TRACER)
    assert Checker(wl.period, reference).problem(0, value, ()) is None
    assert Checker(wl.period, reference).problem(0, np.float32(value), ()) is not None
    wl.restart()
    monkeypatch.setattr(module, name, broken)
    value, _ = wl.op(0, NULL_TRACER)
    assert Checker(wl.period, reference).problem(0, value, ()) is not None


def test_checker_flags_non_finite_and_drift():
    checker = Checker(1, None)
    assert checker.problem(0, 1.0, (np.ones(3),)) is None
    assert checker.problem(0, 1.0, (np.array([np.nan]),)) is not None
    assert checker.problem(0, 1.0 + 1e-6, ()) is not None


def test_counts_repeat_exactly():
    for cls in W.WORKLOADS.values():
        assert cls(OTHER_SEED, NULL_TRACER).counts() == cls(OTHER_SEED, NULL_TRACER).counts()
    image = W.ImageTrain(OTHER_SEED, NULL_TRACER).counts()
    assert image["autodiff.tape_nodes"] == 204
    # 6 steps x 16 images x 4 heads x 16 x 16 scores, 15 of 16 partners allowed
    assert image["kernels.score_entries"] == 6 * 16 * 4 * 256
    assert image["kernels.useful_score_ratio"] == 15 / 16
    g, _, _ = W.graph_inputs(OTHER_SEED, NULL_TRACER)
    edges_share = gr.adjacency_matrix(g).sum() / g.n_nodes**2
    infer = W.GraphInfer(OTHER_SEED, NULL_TRACER).counts()
    assert infer["kernels.score_entries"] == 3 * 2 * g.n_nodes**2
    assert infer["kernels.useful_score_ratio"] == edges_share


def test_summarize_op_counts_nested_spans_once():
    ms = 1_000_000
    spans = [
        ["op", None, 0, 10 * ms],
        ["core.total_energy", 0, 0, 4 * ms],
        ["core.layer_norm", 1, 0, 1 * ms],
        ["core.layer_norm", 0, 5 * ms, 7 * ms],
    ]
    op_ms, layers, coverage = summarize_op(spans)
    assert op_ms == 10.0
    assert layers == {"core.total_energy": 4.0, "core.layer_norm": 3.0}
    assert coverage == pytest.approx(0.6)
