"""Patch pipeline, mask plans, reconstruction, masked loss, training step."""

import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from energy_transformer import autodiff as ad
from energy_transformer import core
from energy_transformer import image as im
from energy_transformer.core import (
    ExcludeSelf,
    IncludeSelf,
    Power,
    Relu,
    Softmax,
    et_forward,
    total_energy,
)
from energy_transformer.data import Rng, gen_synthetic_images
from energy_transformer.errors import DivergenceError, InvalidInputError, ShapeError
from energy_transformer.optim import AdamState, adam_step


def tiny_params(rng=None, n_tokens=4, patch=6, **kw):
    rng = rng or np.random.default_rng(0)
    defaults = dict(
        n_tokens=n_tokens,
        patch_size=patch,
        d=5,
        h=2,
        y=2,
        m=3,
        beta=0.8,
        alpha=0.1,
        n_steps=2,
        k_h=1,
        k_w=patch,
        mask_mode=ExcludeSelf(),
        activation=Relu(),
        rng=rng,
    )
    defaults.update(kw)
    return im.init_image_params(**defaults)


class TestPatchify:
    def test_2x2_image_unit_patches_row_major(self):
        img = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        grid = im.patchify(img, 1, 1)
        npt.assert_array_equal(grid.patches, [[1.0], [2.0], [3.0], [4.0]])
        assert (grid.rows, grid.cols) == (2, 2)

    def test_round_trip_identity(self):
        rng = np.random.default_rng(0)
        img = rng.normal(0, 1, (3, 12, 8))
        grid = im.patchify(img, 4, 2)
        npt.assert_array_equal(im.unpatchify(grid, 3, 4, 2), img)

    def test_base_vit_geometry(self):
        img = np.zeros((3, 224, 224))
        grid = im.patchify(img, 16, 16)
        assert grid.patches.shape == (196, 768)

    def test_indivisible_rejected(self):
        with pytest.raises(ShapeError):
            im.patchify(np.zeros((1, 10, 10)), 3, 3)


class TestMaskPlan:
    def test_counts(self):
        rng = Rng(0).stream("mask")
        plan = im.make_mask_plan(196, 100, 90, rng)
        assert plan.occluded.size == 100
        assert plan.replaced.size == 90
        assert np.setdiff1d(plan.occluded, plan.replaced).size == 10

    def test_empty_plan(self):
        plan = im.make_mask_plan(16, 0, 0, Rng(0).stream("mask"))
        assert plan.occluded.size == 0

    def test_all_replaced(self):
        plan = im.make_mask_plan(16, 5, 5, Rng(0).stream("mask"))
        npt.assert_array_equal(plan.replaced, plan.occluded)

    def test_deterministic_given_seed(self):
        p1 = im.make_mask_plan(32, 10, 8, Rng(5).stream("mask"))
        p2 = im.make_mask_plan(32, 10, 8, Rng(5).stream("mask"))
        npt.assert_array_equal(p1.occluded, p2.occluded)
        npt.assert_array_equal(p1.replaced, p2.replaced)

    def test_count_violations_rejected(self):
        rng = Rng(0).stream("mask")
        with pytest.raises(InvalidInputError):
            im.make_mask_plan(16, 20, 0, rng)
        with pytest.raises(InvalidInputError):
            im.make_mask_plan(16, 4, 5, rng)

    def test_replaced_must_be_occluded(self):
        with pytest.raises(InvalidInputError):
            im.MaskPlan(occluded=np.array([1, 2]), replaced=np.array([3]))


class TestEncodeAndMask:
    def test_no_replacement_is_plain_encoding(self):
        p = tiny_params()
        rng = np.random.default_rng(1)
        grid = im.PatchGrid(rng.normal(0, 1, (4, 6)), 4, 1)
        plan = im.MaskPlan(occluded=np.array([0]), replaced=np.array([], dtype=int))
        x = im.encode_and_mask(grid, plan, p)
        npt.assert_array_equal(
            x, grid.patches @ p.enc_kernel + p.enc_bias + p.pos_bias
        )

    def test_all_replaced_rows_differ_only_by_position(self):
        p = tiny_params()
        rng = np.random.default_rng(2)
        grid = im.PatchGrid(rng.normal(0, 1, (4, 6)), 4, 1)
        plan = im.MaskPlan(occluded=np.arange(4), replaced=np.arange(4))
        x = im.encode_and_mask(grid, plan, p)
        npt.assert_array_equal(x, p.mask_token + p.pos_bias)

    def test_identity_round_trip_on_visible_rows(self):
        # identity encoder/decoder and zero position bias reproduce patches
        p = tiny_params(patch=5, d=5)
        p.enc_kernel = np.eye(5)
        p.enc_bias = np.zeros(5)
        p.pos_bias = np.zeros((4, 5))
        rng = np.random.default_rng(3)
        grid = im.PatchGrid(rng.normal(0, 1, (4, 5)), 4, 1)
        plan = im.MaskPlan(occluded=np.array([2]), replaced=np.array([2]))
        x = im.encode_and_mask(grid, plan, p)
        visible = [0, 1, 3]
        npt.assert_array_equal(x[visible], grid.patches[visible])


class TestMaskedMse:
    def test_zero_when_equal(self):
        rng = np.random.default_rng(4)
        g = im.PatchGrid(rng.normal(0, 1, (6, 4)), 6, 1)
        plan = im.MaskPlan(occluded=np.array([1, 3]), replaced=np.array([1]))
        assert im.masked_mse(g, g, plan) == 0.0

    def test_constant_offset_squares(self):
        base = im.PatchGrid(np.zeros((4, 8)), 4, 1)
        shifted = im.PatchGrid(np.zeros((4, 8)), 4, 1)
        shifted.patches = shifted.patches.copy()
        shifted.patches[2] += 2.0
        plan = im.MaskPlan(occluded=np.array([2]), replaced=np.array([2]))
        assert im.masked_mse(shifted, base, plan) == 4.0

    def test_empty_plan_is_zero(self):
        g = im.PatchGrid(np.ones((4, 3)), 4, 1)
        plan = im.MaskPlan(occluded=np.array([], dtype=int), replaced=np.array([], dtype=int))
        assert im.masked_mse(g, g, plan) == 0.0

    def test_matches_brute_force_accumulation(self):
        rng = np.random.default_rng(5)
        a = im.PatchGrid(rng.normal(0, 1, (7, 5)), 7, 1)
        b = im.PatchGrid(rng.normal(0, 1, (7, 5)), 7, 1)
        plan = im.MaskPlan(occluded=np.array([0, 2, 5]), replaced=np.array([2]))
        total, count = 0.0, 0
        for idx in plan.occluded:
            for j in range(5):
                total += (a.patches[idx, j] - b.patches[idx, j]) ** 2
                count += 1
        npt.assert_allclose(im.masked_mse(a, b, plan), total / count, rtol=1e-12)

    def test_gradient_zero_outside_occluded(self):
        # the loss reads only occluded rows, so other rows get exact zeros
        rng = np.random.default_rng(6)
        orig = im.PatchGrid(rng.normal(0, 1, (5, 3)), 5, 1)
        plan = im.MaskPlan(occluded=np.array([1, 4]), replaced=np.array([1]))
        recon = rng.normal(0, 1, (5, 3))
        fd = np.zeros_like(recon)
        h = 1e-6
        for i in range(5):
            for j in range(3):
                up, dn = recon.copy(), recon.copy()
                up[i, j] += h
                dn[i, j] -= h
                fd[i, j] = (
                    im.masked_mse(im.PatchGrid(up, 5, 1), orig, plan)
                    - im.masked_mse(im.PatchGrid(dn, 5, 1), orig, plan)
                ) / (2 * h)
        assert np.all(fd[[0, 2, 3]] == 0.0)
        assert np.all(np.abs(fd[[1, 4]]) > 1e-3)


class TestTaskParams:
    @pytest.mark.parametrize(
        "field, shape, message",
        [
            ("enc_kernel", (6, 4), r"encoder kernel \(6, 4\) != \(6, 5\)"),
            ("dec_kernel", (5, 7), r"decoder kernel \(5, 7\) != \(5, 6\)"),
            ("enc_bias", (4,), "encoder/decoder bias shapes inconsistent"),
            ("mask_token", (4,), "mask token / position bias shapes inconsistent"),
        ],
    )
    def test_shape_of_another_width_rejected(self, field, shape, message):
        with pytest.raises(ShapeError, match=message):
            dataclasses.replace(tiny_params(), **{field: np.zeros(shape)})

    def test_decoder_norm_of_another_width_rejected(self):
        p = tiny_params()
        with pytest.raises(ShapeError, match="decoder norm dim 3 != 5"):
            dataclasses.replace(p, dec_norm=core.LayerNormParams(1.0, np.zeros(3)))


class TestReconstruct:
    def test_shapes_and_finiteness_untrained(self):
        p = tiny_params(n_tokens=16, patch=4, k_h=2, k_w=2)
        img = gen_synthetic_images(0, 1, size=8)[0]
        plan = im.make_mask_plan(16, 8, 7, Rng(0).stream("m"))
        recon, states = im.reconstruct(img, plan, p)
        assert recon.shape == img.shape
        assert np.isfinite(recon).all()
        assert len(states) == p.n_steps + 1

    def test_fixed_point_decodes_initial_state(self):
        # zero weights mean zero update: the decoded image equals decoding x0
        p = tiny_params(n_tokens=16, patch=4, k_h=2, k_w=2)
        p.et.attn.w_key[:] = 0.0
        p.et.attn.w_query[:] = 0.0
        p.et.hopfield.xi[:] = 0.0
        img = gen_synthetic_images(1, 1, size=8)[0]
        plan = im.make_mask_plan(16, 4, 4, Rng(1).stream("m"))
        recon, states = im.reconstruct(img, plan, p)
        x0 = states[0]
        npt.assert_array_equal(states[-1], x0)
        direct = im.unpatchify(
            im.PatchGrid(im.decode_tokens(x0, p), 4, 4), 1, 2, 2
        )
        npt.assert_array_equal(recon, direct)

    def test_min_energy_decode_picks_argmin(self):
        rng = np.random.default_rng(7)
        p = tiny_params(n_tokens=9, patch=4, k_h=2, k_w=2, init_std=0.3)
        img = gen_synthetic_images(2, 1, size=6)[0]
        plan = im.make_mask_plan(9, 3, 3, Rng(2).stream("m"))
        recon_last, states = im.reconstruct(img, plan, p)
        recon_min, _ = im.reconstruct(img, plan, p, decode_at_min_energy=True)
        energies = [total_energy(x, p.et).e_total for x in states]
        idx = int(np.argmin(energies))
        expected = im.unpatchify(
            im.PatchGrid(im.decode_tokens(states[idx], p), 3, 3), 1, 2, 2
        )
        npt.assert_array_equal(recon_min, expected)


class TestReconstructMatchesEtForward:
    """`reconstruct` keeps the bits of decoding `et_forward`'s trajectory."""

    @pytest.mark.parametrize("min_energy", [False, True], ids=["last", "min_energy"])
    @pytest.mark.parametrize(
        "mask_mode", [ExcludeSelf(), IncludeSelf()], ids=["exclude", "include"]
    )
    @pytest.mark.parametrize(
        "activation", [Relu(), Power(3), Softmax(0.7)], ids=["relu", "power3", "softmax"]
    )
    def test_image_and_states(self, activation, mask_mode, min_energy):
        p = tiny_params(
            n_tokens=9, patch=4, k_h=2, k_w=2, n_steps=4, init_std=0.3,
            activation=activation, mask_mode=mask_mode,
        )
        p.alpha = 1.0  # large enough that the lowest energy need not be the last
        img = gen_synthetic_images(4, 1, size=6)[0]
        plan = im.make_mask_plan(9, 4, 3, Rng(4).stream("m"))
        recon, states = im.reconstruct(img, plan, p, decode_at_min_energy=min_energy)
        x0 = im.encode_and_mask(im.patchify(img, 2, 2), plan, p)
        traj = et_forward(x0, p.et, p.alpha, p.n_steps)
        assert len(states) == len(traj)
        assert all(np.array_equal(x, y) for x, (y, _) in zip(states, traj))
        idx = int(np.argmin([b.e_total for _, b in traj])) if min_energy else -1
        expected = im.unpatchify(
            im.PatchGrid(im.decode_tokens(traj[idx][0], p), 3, 3), 1, 2, 2
        )
        assert np.array_equal(recon, expected)


class TestReconstructEnergyCalls:
    """Energies are evaluated only when the decode reads them."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        energy = core.total_energy

        def counting(x, p):
            calls.append(x)
            return energy(x, p)

        monkeypatch.setattr(core, "total_energy", counting)
        monkeypatch.setattr(im, "total_energy", counting, raising=False)
        return calls

    @pytest.mark.parametrize("min_energy, expected", [(False, 0), (True, 4)])
    def test_total_energy_calls(self, calls, min_energy, expected):
        p = tiny_params(n_tokens=16, patch=4, k_h=2, k_w=2, n_steps=3)
        img = gen_synthetic_images(0, 1, size=8)[0]
        plan = im.make_mask_plan(16, 8, 7, Rng(0).stream("m"))
        im.reconstruct(img, plan, p, decode_at_min_energy=min_energy)
        assert len(calls) == expected  # T+1 under decode_at_min_energy


class TestTrainingStep:
    def test_recorded_loss_equals_inference_path(self):
        # the taped batch loss for one image equals the analytic pipeline's
        # masked MSE, bit for bit
        p = tiny_params(n_tokens=16, patch=4, k_h=2, k_w=2, n_steps=3)
        img = gen_synthetic_images(3, 1, size=8)[0]
        plan = im.make_mask_plan(16, 6, 5, Rng(3).stream("m"))
        grid = im.patchify(img, 2, 2)
        tensors = im.image_params_to_tensors(p)
        loss, tape = ad.record_forward(
            im.image_loss_fn,
            tensors,
            grid.patches[None],
            plan.replaced_mask(16)[None],
            plan.occluded_mask(16)[None],
            p,
        )
        recon, _ = im.reconstruct(img, plan, p)
        direct = im.masked_mse(im.patchify(recon, 2, 2), grid, plan)
        assert loss == direct
        assert ad.replay(tape) > 0

    def test_lr_zero_training_keeps_params(self):
        p = tiny_params(n_tokens=4, patch=6, k_h=1, k_w=6)
        images = np.stack(
            [im.unpatchify(im.PatchGrid(np.random.default_rng(i).normal(0, 1, (4, 6)), 4, 1), 1, 1, 6) for i in range(4)]
        )
        cfg = im.ImageTrainConfig(
            epochs=2, batch_size=2, n_occluded=2, n_replaced=1, lr=0.0, seed=0
        )
        trained, history = im.train_image(images, p, cfg)
        t0 = im.image_params_to_tensors(p)
        t1 = im.image_params_to_tensors(trained)
        for k in t0:
            npt.assert_array_equal(t0[k], t1[k])
        assert len(history) == 2

    def test_single_step_matches_manual_adam(self):
        # one batch, one optimizer step reproduces record/backward/adam by hand
        p = tiny_params(n_tokens=4, patch=6, k_h=1, k_w=6)
        rng = Rng(7)
        images = np.stack(
            [
                im.unpatchify(
                    im.PatchGrid(rng.stream(f"img{i}").normal(0, 1, (4, 6)), 4, 1),
                    1,
                    1,
                    6,
                )
                for i in range(2)
            ]
        )
        cfg = im.ImageTrainConfig(
            epochs=1,
            batch_size=2,
            n_occluded=2,
            n_replaced=1,
            lr=1e-3,
            weight_decay=0.05,
            seed=11,
        )
        trained, _ = im.train_image(images, p, cfg)

        # replicate: same mask stream, same batch order
        mask_rng = Rng(11).stream("image-masking")
        order_rng = Rng(11).stream("image-batch-order")
        order = order_rng.permutation(2)
        plans = [im.make_mask_plan(4, 2, 1, mask_rng) for _ in range(2)]
        grids = np.stack([im.patchify(img, 1, 6).patches for img in images])
        tensors = im.image_params_to_tensors(p)
        _, tape = ad.record_forward(
            im.image_loss_fn,
            tensors,
            grids[order],
            np.stack([pl.replaced_mask(4) for pl in plans]),
            np.stack([pl.occluded_mask(4) for pl in plans]),
            p,
        )
        grads = ad.backward(tape)
        state = AdamState.init(
            tensors,
            lr=1e-3,
            b1=0.9,
            b2=0.99,
            weight_decay=0.05,
            grad_clip=1.0,
            decay_exempt=im.IMAGE_DECAY_EXEMPT,
        )
        expected, _ = adam_step(tensors, grads, state)
        got = im.image_params_to_tensors(trained)
        for k in expected:
            npt.assert_array_equal(got[k], expected[k], err_msg=k)

    def test_max_steps_stops_inside_an_epoch(self, monkeypatch):
        # 4 images in batches of 1 make 4 steps an epoch; max_steps=3 stops inside the first
        p = tiny_params(n_tokens=4, patch=6, k_h=1, k_w=6)
        images = np.random.default_rng(0).normal(0, 1, (4, 1, 4, 6))
        descend, steps = im.descend, []

        def counted(*args):
            steps.append(descend(*args))  # (loss, tensors, state) after each Adam step
            return steps[-1]

        monkeypatch.setattr(im, "descend", counted)
        cfg = im.ImageTrainConfig(epochs=2, batch_size=1, n_occluded=2, n_replaced=1, max_steps=3)
        trained, history = im.train_image(images, p, cfg)
        assert [state.step for _, _, state in steps] == [1, 2, 3]
        assert history == [{"epoch": 0, "loss": float(np.mean([loss for loss, _, _ in steps]))}]
        final = im.image_params_to_tensors(trained)
        for name, value in steps[-1][1].items():
            npt.assert_array_equal(final[name], value, err_msg=name)

    def test_nan_image_diverges_before_any_update(self):
        p = tiny_params(n_tokens=4, patch=6, k_h=1, k_w=6)
        images = np.random.default_rng(0).normal(0, 1, (2, 1, 4, 6))
        images[1, 0, 2, 3] = np.nan
        cfg = im.ImageTrainConfig(epochs=1, batch_size=2, n_occluded=4, n_replaced=1)
        with pytest.raises(DivergenceError, match="non-finite loss at step 0"):
            im.train_image(images, p, cfg)

    def test_block_draws_match_inline_construction(self):
        # keys, then queries, then memories, then the task's own tensors
        p = tiny_params(rng=np.random.default_rng(5), init_std=0.3)
        rng = np.random.default_rng(5)
        for got, shape in (
            (p.et.attn.w_key, (2, 2, 5)),
            (p.et.attn.w_query, (2, 2, 5)),
            (p.et.hopfield.xi, (3, 5)),
            (p.enc_kernel, (6, 5)),
        ):
            npt.assert_array_equal(got, rng.normal(0, 0.3, shape))
        assert p.et.norm.gamma == 1.0 and not p.et.norm.delta.any()
        assert p.et.attn.beta == 0.8 and p.et.attn.mask_mode == ExcludeSelf()
        assert p.et.hopfield.activation == Relu()

    def test_training_determinism(self):
        p = tiny_params(n_tokens=4, patch=6, k_h=1, k_w=6)
        images = gen_synthetic_images(9, 6, size=2)
        images = images.reshape(6, 1, 2, 2)
        p2 = tiny_params(n_tokens=4, patch=1, k_h=1, k_w=1, d=5)
        cfg = im.ImageTrainConfig(
            epochs=3, batch_size=3, n_occluded=2, n_replaced=1, lr=1e-3, seed=21
        )
        r1 = im.train_image(images, p2, cfg)
        r2 = im.train_image(images, p2, cfg)
        assert [h["loss"] for h in r1[1]] == [h["loss"] for h in r2[1]]
        t1 = im.image_params_to_tensors(r1[0])
        t2 = im.image_params_to_tensors(r2[0])
        for k in t1:
            npt.assert_array_equal(t1[k], t2[k])


class TestEarlyDescent:
    def test_smoothed_loss_decreases_over_first_ten_epochs(self):
        # per-epoch train loss is noisy (fresh random masks every batch),
        # so strict monotonicity is asserted on 2-epoch means
        images = gen_synthetic_images(0, 256, size=32, channels=1)
        params = im.init_image_params(
            n_tokens=16,
            patch_size=64,
            d=64,
            h=4,
            y=16,
            m=256,
            beta=0.25,
            alpha=0.1,
            n_steps=6,
            k_h=8,
            k_w=8,
            mask_mode=ExcludeSelf(),
            activation=Relu(),
            rng=Rng(0).stream("image-init"),
        )
        cfg = im.ImageTrainConfig(
            epochs=10, batch_size=16, n_occluded=8, n_replaced=7, lr=1e-3, seed=0
        )
        _, hist = im.train_image(images, params, cfg)
        losses = np.array([h["loss"] for h in hist])
        smoothed = losses.reshape(5, 2).mean(axis=1)
        assert (np.diff(smoothed) < 0).all()


class TestEnergyTrajectory:
    def test_reconstruct_energy_non_increasing_small_alpha(self):
        # training-scale weights and a small step keep every recorded step
        # of the reconstruction trajectory non-increasing
        for seed in range(5):
            p = tiny_params(
                rng=np.random.default_rng(seed),
                n_tokens=16,
                patch=4,
                k_h=2,
                k_w=2,
                n_steps=8,
                init_std=0.02,
            )
            p.alpha = 0.1
            img = gen_synthetic_images(seed, 1, size=8)[0]
            plan = im.make_mask_plan(16, 8, 7, Rng(seed).stream("m"))
            _, states = im.reconstruct(img, plan, p)
            energies = np.array([total_energy(x, p.et).e_total for x in states])
            assert (np.diff(energies) <= 1e-9).all()


class TestWeightExport:
    def test_identity_decoder_returns_raw_rows(self):
        p = tiny_params(patch=5, d=5)
        p.dec_kernel = np.eye(5)
        p.dec_bias = np.zeros(5)
        from energy_transformer.core import LayerNormParams, layer_norm

        p.dec_norm = LayerNormParams(1.0, np.zeros(5))
        grid = im.export_weights_as_patches(p, "hopfield")
        npt.assert_array_equal(grid.patches, layer_norm(p.et.hopfield.xi, p.dec_norm))

    def test_memory_count_and_patch_size(self):
        p = tiny_params()
        grid = im.export_weights_as_patches(p, "hopfield")
        assert grid.patches.shape == (3, 6)  # M rows decoded to patch space
        keys = im.export_weights_as_patches(p, "keys")
        assert keys.patches.shape == (4, 6)  # Y*H rows

    def test_unknown_family_rejected(self):
        with pytest.raises(InvalidInputError):
            im.export_weights_as_patches(tiny_params(), "values")
