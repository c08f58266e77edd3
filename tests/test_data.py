"""Seeded RNG streams, synthetic data, netpbm codecs, checkpoints."""

import re

import numpy as np
import numpy.testing as npt
import pytest

from energy_transformer.data import (
    Rng,
    checkpoint_tensor,
    gen_synthetic_images,
    load_checkpoint,
    load_image_dataset,
    load_netpbm,
    read_manifest,
    save_checkpoint,
    save_image_dataset,
    save_netpbm,
    write_manifest,
)
from energy_transformer import graph as gr
from energy_transformer import image as im
from energy_transformer.core import ExcludeSelf, Relu
from energy_transformer.errors import FormatError, ShapeError


class TestRng:
    def test_same_seed_same_stream(self):
        a = Rng(42).stream("masking").normal(size=100)
        b = Rng(42).stream("masking").normal(size=100)
        npt.assert_array_equal(a, b)

    def test_purpose_streams_independent(self):
        # drawing from one purpose must not perturb another
        r1 = Rng(7)
        init_then_mask = r1.stream("init").normal(size=10)
        _ = r1.stream("mask").normal(size=1000)
        r2 = Rng(7)
        _ = r2.stream("mask").normal(size=3)
        init_direct = r2.stream("init").normal(size=10)
        npt.assert_array_equal(init_then_mask, init_direct)

    def test_different_seeds_differ(self):
        a = Rng(1).stream("x").normal(size=8)
        b = Rng(2).stream("x").normal(size=8)
        assert not np.array_equal(a, b)


class TestSyntheticImages:
    def test_deterministic(self):
        a = gen_synthetic_images(3, 10)
        b = gen_synthetic_images(3, 10)
        npt.assert_array_equal(a, b)

    def test_single_image_dims(self):
        imgs = gen_synthetic_images(0, 1, size=16, channels=1)
        assert imgs.shape == (1, 1, 16, 16)

    def test_normalized_per_image(self):
        imgs = gen_synthetic_images(5, 20)
        for img in imgs:
            assert abs(img.mean()) < 1e-6
            assert abs(img.std() - 1.0) < 1e-6


class TestNetpbm:
    def test_8bit_round_trip_is_exact(self, tmp_path):
        # an image already quantized to the 8-bit grid survives bit-exactly
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, size=(1, 9, 7)).astype(np.float64)
        path = tmp_path / "img.pgm"
        save_netpbm(path, img)
        npt.assert_array_equal(load_netpbm(path), img)

    def test_rgb_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        img = rng.integers(0, 256, size=(3, 5, 6)).astype(np.float64)
        path = tmp_path / "img.ppm"
        save_netpbm(path, img)
        npt.assert_array_equal(load_netpbm(path), img)

    def test_float_round_trip_quantization_bound(self, tmp_path):
        rng = np.random.default_rng(2)
        img = rng.normal(0, 1, (1, 12, 12))
        path = tmp_path / "f.pgm"
        save_netpbm(path, img)
        back = load_netpbm(path)
        span = img.max() - img.min()
        assert np.abs(back - img).max() <= span / 255.0

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + b"\x00" * 7)
        with pytest.raises(FormatError):
            load_netpbm(path)

    def test_wrong_maxval_rejected(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(FormatError):
            load_netpbm(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P7\n1 1\n255\n\x00\x00\x00")  # a whole RGB pixel
        with pytest.raises(FormatError, match="unsupported magic"):
            load_netpbm(path)

    def test_header_comments_allowed(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 1\n255\n\x10\x20")
        img = load_netpbm(path)
        assert img.shape == (1, 1, 2)


class TestManifest:
    def test_round_trip_with_comments(self, tmp_path):
        path = tmp_path / "manifest.txt"
        write_manifest(path, ["a.pgm", "b.pgm"])
        text = path.read_text()
        path.write_text("# header\n" + text + "\n# trailing\n")
        assert read_manifest(path) == ["a.pgm", "b.pgm"]

    def test_dataset_round_trip(self, tmp_path):
        imgs = gen_synthetic_images(0, 4, size=8)
        save_image_dataset(tmp_path / "ds", imgs)
        back = load_image_dataset(tmp_path / "ds")
        assert back.shape == imgs.shape
        span = imgs.max() - imgs.min()
        assert np.abs(back - imgs).max() <= span / 255.0

    def test_empty_manifest_rejected(self, tmp_path):
        write_manifest(tmp_path / "manifest.txt", [])
        with pytest.raises(FormatError, match="empty manifest"):
            load_image_dataset(tmp_path)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        tensors = {
            "a.scalar": np.asarray(np.pi),
            "b.vec": rng.normal(0, 1, 17),
            "c.mat": rng.normal(0, 1e300, (3, 5)),
            "d.cube": rng.normal(0, 1e-300, (2, 3, 4)),
        }
        path = tmp_path / "ck.bin"
        save_checkpoint(tensors, path)
        back = load_checkpoint(path)
        assert set(back) == set(tensors)
        for k in tensors:
            npt.assert_array_equal(back[k], tensors[k])

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "ck.bin"
        save_checkpoint({"w": np.ones((4, 4))}, path)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "ck.bin"
        save_checkpoint({"w": np.ones(2)}, path)
        data = bytearray(path.read_bytes())
        data[4] = 99  # little-endian version field
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "ck.bin"
        save_checkpoint({}, path)  # a valid version-1 body after the magic
        path.write_bytes(b"NOPE" + path.read_bytes()[4:])
        with pytest.raises(FormatError, match="bad magic"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "ck.bin"
        save_checkpoint({"w": np.ones(2)}, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="1 trailing bytes"):
            load_checkpoint(path)

    def test_header_dims_beyond_file_rejected(self, tmp_path):
        # one tensor "w" of dims 2^33 x 2^33 and no payload: 37 bytes
        header = (
            b"ETCK"
            + (1).to_bytes(4, "little")
            + (1).to_bytes(4, "little")
            + (1).to_bytes(4, "little")
            + b"w"
            + (2).to_bytes(4, "little")
            + (2**33).to_bytes(8, "little")
            + (2**33).to_bytes(8, "little")
        )
        assert len(header) == 37
        path = tmp_path / "ck.bin"
        path.write_bytes(header)
        with pytest.raises(FormatError, match="truncated"):
            load_checkpoint(path)

    def test_header_rank_bounded(self, tmp_path):
        # a complete one-value tensor of rank 100, beyond any numpy array
        data = (
            b"ETCK"
            + (1).to_bytes(4, "little") * 3
            + b"w"
            + (100).to_bytes(4, "little")
            + (1).to_bytes(8, "little") * 100
            + np.array([1.0]).astype("<f8").tobytes()
        )
        path = tmp_path / "ck.bin"
        path.write_bytes(data)
        with pytest.raises(FormatError, match="rank 100 > 32"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, tmp_path, value):
        path = tmp_path / "ck.bin"
        save_checkpoint({"a": np.ones(2), "b.w": np.array([[1.0, value]])}, path)
        with pytest.raises(FormatError, match="tensor 'b.w' has non-finite values"):
            load_checkpoint(path)

    def test_unknown_name_lookup_fails(self):
        with pytest.raises(FormatError):
            checkpoint_tensor({"a": np.ones(2)}, "b", (2,))

    def test_shape_mismatch_names_tensor(self):
        with pytest.raises(ShapeError, match="a"):
            checkpoint_tensor({"a": np.ones(2)}, "a", (3,))

    def test_golden_little_endian_fixture(self, tmp_path):
        # layout is frozen: magic, version/count u32, then per tensor
        # name_len u32, name, rank u32, dims u64, float64 payload, all LE
        path = tmp_path / "g.bin"
        save_checkpoint({"w": np.array([1.0, -2.5])}, path)
        expected = (
            b"ETCK"
            + (1).to_bytes(4, "little")
            + (1).to_bytes(4, "little")
            + (1).to_bytes(4, "little")
            + b"w"
            + (1).to_bytes(4, "little")
            + (2).to_bytes(8, "little")
            + np.array([1.0, -2.5]).astype("<f8").tobytes()
        )
        assert path.read_bytes() == expected


def _image_params():
    return im.init_image_params(
        n_tokens=4, patch_size=6, d=5, h=2, y=2, m=3, beta=0.8, alpha=0.1,
        n_steps=2, k_h=1, k_w=6, mask_mode=ExcludeSelf(), activation=Relu(),
        rng=np.random.default_rng(0),
    )


def _path_graph():
    return gr.GraphInstance(
        n_nodes=4,
        edges=np.array([[0, 1], [1, 2], [2, 3]]),
        features=np.random.default_rng(1).normal(0, 1, (4, 3)),
        labels=np.array([0, 1, 0, 1]),
    )


def _graph_params():
    return gr.init_graph_params(
        _path_graph(), d=4, h=2, y=2, m=3, beta=0.9, alpha=0.3, n_steps=1, hidden=4,
        rng=np.random.default_rng(0),
    )


# (params factory, to_tensors, from_tensors) for each task
TASKS = {
    "image": (_image_params, im.image_params_to_tensors, im.image_params_from_tensors),
    "graph": (_graph_params, gr.graph_params_to_tensors, gr.graph_params_from_tensors),
}


class TestInitializerDefaults:
    """The benchmark's flat initializer calls leave the block's defaults to
    `core.init_et_params`; spelling them out gives the same parameters."""

    @staticmethod
    def assert_same(a, b, to_tensors):
        ta, tb = to_tensors(a), to_tensors(b)
        assert list(ta) == list(tb)
        for name in ta:
            npt.assert_array_equal(ta[name], tb[name], err_msg=name)
        assert a.et.hopfield.activation == b.et.hopfield.activation == Relu()
        assert a.et.enable_attn and a.et.enable_hopfield
        assert (a.alpha, a.n_steps) == (b.alpha, b.n_steps)

    def test_image(self):
        flat = dict(
            n_tokens=4, patch_size=6, d=5, h=2, y=2, m=3, beta=0.8, alpha=0.1,
            n_steps=2, k_h=1, k_w=6, mask_mode=ExcludeSelf(), activation=Relu(),
        )
        a = im.init_image_params(rng=np.random.default_rng(0), **flat)
        b = im.init_image_params(
            rng=np.random.default_rng(0), init_std=0.02, enable_attn=True,
            enable_hopfield=True, **flat,
        )
        self.assert_same(a, b, im.image_params_to_tensors)
        assert a.et.attn.mask_mode == b.et.attn.mask_mode == ExcludeSelf()

    def test_graph(self):
        g = _path_graph()
        flat = dict(d=4, h=2, y=2, m=3, beta=0.9, alpha=0.3, n_steps=1, hidden=4, init_std=0.1)
        a = gr.init_graph_params(g, rng=np.random.default_rng(0), **flat)
        b = gr.init_graph_params(
            g, rng=np.random.default_rng(0), activation=Relu(), include_self=False,
            enable_attn=True, enable_hopfield=True, **flat,
        )
        self.assert_same(a, b, gr.graph_params_to_tensors)
        npt.assert_array_equal(a.et.attn.mask_mode.adjacency, gr.adjacency_matrix(g))
        npt.assert_array_equal(b.et.attn.mask_mode.adjacency, gr.adjacency_matrix(g))


class TestTensorTables:
    # the checkpoint layout and Adam's summation order: changing either
    # changes every checkpoint byte and every trained weight
    def test_image_names_in_checkpoint_order(self):
        names = [
            "enc.kernel", "enc.bias", "dec.norm.gamma", "dec.norm.delta",
            "dec.kernel", "dec.bias", "mask_token", "pos_bias",
            "et.norm.gamma", "et.norm.delta", "et.attn.w_key",
            "et.attn.w_query", "et.hopfield.xi",
        ]
        assert [name for name, _, _ in im.IMAGE_TENSORS] == names
        assert list(im.image_params_to_tensors(_image_params())) == names

    def test_graph_names_in_checkpoint_order(self):
        names = [
            "embed.kernel", "pos_embed", "head.w1", "head.b1", "head.w2",
            "head.b2", "et.norm.gamma", "et.norm.delta", "et.attn.w_key",
            "et.attn.w_query", "et.attn.beta", "et.hopfield.xi",
        ]
        assert [name for name, _, _ in gr.GRAPH_TENSORS] == names
        assert list(gr.graph_params_to_tensors(_graph_params())) == names

    def test_decay_exempt_sets(self):
        assert im.IMAGE_DECAY_EXEMPT == {
            "enc.bias", "dec.norm.gamma", "dec.norm.delta", "dec.bias",
            "mask_token", "pos_bias", "et.norm.gamma", "et.norm.delta",
        }
        assert gr.GRAPH_DECAY_EXEMPT == {
            "pos_embed", "head.b1", "head.b2", "et.norm.gamma",
            "et.norm.delta", "et.attn.beta",
        }

    @pytest.mark.parametrize("task", TASKS)
    def test_round_trip_bit_exact(self, task):
        make, to_tensors, from_tensors = TASKS[task]
        like = make()
        rng = np.random.default_rng(7)
        # fresh values in every tensor, scalars positive (gamma, beta)
        tensors = {
            k: np.abs(rng.normal(0, 1, v.shape)) + 0.5 for k, v in to_tensors(like).items()
        }
        back = from_tensors(tensors, like)
        assert type(back.et.norm.gamma) is float
        again = to_tensors(back)
        assert list(again) == list(tensors)
        for k in tensors:
            npt.assert_array_equal(again[k], tensors[k], err_msg=k)
            assert again[k].dtype == np.float64 and again[k].shape == tensors[k].shape

    @pytest.mark.parametrize("task", TASKS)
    def test_missing_and_misshapen_tensors_rejected(self, task):
        make, to_tensors, from_tensors = TASKS[task]
        like = make()
        for name in to_tensors(like):
            tensors = to_tensors(like)
            del tensors[name]
            with pytest.raises(FormatError, match=re.escape(name)):
                from_tensors(tensors, like)
            tensors = to_tensors(like)
            tensors[name] = np.ones(tensors[name].shape + (1,))
            with pytest.raises(ShapeError, match=re.escape(name)):
                from_tensors(tensors, like)
