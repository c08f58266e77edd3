"""Config parsing and the command-line surface (exit codes, files, determinism)."""

import os
import re
import struct
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from energy_transformer import graph as gr
from energy_transformer import image as im
from energy_transformer.cli import main
from energy_transformer.config import RunConfig, format_resolved, load_config, parse_config_text
from energy_transformer.core import ExcludeSelf, IncludeSelf
from energy_transformer.data import (
    gen_synthetic_images,
    load_image_dataset,
    load_netpbm,
    save_image_dataset,
    save_netpbm,
)
from energy_transformer.errors import ConfigError


class TestConfigParsing:
    def test_defaults_resolve_per_task(self):
        image = RunConfig(task="image")
        graph = RunConfig(task="graph")
        assert image.alpha == 0.1 and image.t == 6
        assert graph.alpha == 1.0 and graph.t == 1
        assert image.weight_decay == 0.05 and graph.weight_decay == 0.0
        assert image.beta == pytest.approx(1 / 4.0)  # y=16

    def test_key_value_lines_with_comments(self):
        values = parse_config_text(
            """
            # a comment
            task=graph
            lr = 0.01  # inline comment
            grad_clip=none
            enable_attn=false
            """
        )
        assert values == {
            "task": "graph",
            "lr": 0.01,
            "grad_clip": None,
            "enable_attn": False,
        }

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("learning_rate=0.1")
        with pytest.raises(ConfigError, match="'bogus'"):
            load_config(None, {"bogus": 1})

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("lr=fast")
        with pytest.raises(ConfigError):
            parse_config_text("enable_attn=maybe")
        with pytest.raises(ConfigError, match="train_ratio"):  # not only `et train`'s split check
            load_config(None, {"train_ratio": 1.5})

    @pytest.mark.parametrize(
        "key, value", [("lr", "fast"), ("d", "x"), ("d", 2.5), ("enable_attn", "maybe"), ("seed", None)]
    )
    def test_wrongly_typed_override_names_its_key(self, key, value):
        with pytest.raises(ConfigError, match=f"^override: bad value for {key}: "):
            load_config(None, {key: value})

    def test_override_reads_as_file_text(self):
        cfg = load_config(None, {"lr": "0.5", "enable_attn": "false", "grad_clip": None, "seed": 7})
        assert (cfg.lr, cfg.enable_attn, cfg.grad_clip, cfg.seed) == (0.5, False, None, 7)
        assert cfg == load_config(None, {"lr": 0.5, "enable_attn": False, "grad_clip": "none", "seed": "7"})

    def test_bad_task_rejected(self):
        with pytest.raises(ConfigError):
            load_config(None, {"task": "video"})

    def test_resolved_round_trips(self):
        cfg = load_config(None, {"task": "image", "lr": 0.0025})
        text = format_resolved(cfg)
        cfg2 = RunConfig(**parse_config_text(text))
        assert format_resolved(cfg2) == text

    def test_none_round_trips_through_resolved_text(self):
        text = format_resolved(load_config(None, {"grad_clip": "none"}))
        assert "grad_clip=none" in text.splitlines()
        assert RunConfig(**parse_config_text(text)).grad_clip is None

    def test_readme_key_table_lists_every_field(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("| group | keys |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
        keys = re.findall(r"[a-z_0-9]+", " ".join(re.findall(r"`([^`]*)`", table)))
        assert sorted(keys) == sorted(f.name for f in fields(RunConfig))

    def test_readme_package_layout_lists_every_module(self):
        root = Path(__file__).resolve().parents[1]
        readme = (root / "README.md").read_text()
        block = readme.split("## Package layout\n", 1)[1].split("```\n", 2)[1]
        listed = re.findall(r"^  (\S+\.py) ", block, flags=re.M)
        modules = [f.name for f in (root / "src" / "energy_transformer").glob("*.py")]
        assert sorted(listed) == sorted(m for m in modules if m != "__init__.py")

    @pytest.mark.parametrize("allow", [False, True], ids=["off", "on"])
    def test_allow_self_attention_switches_both_tasks(self, allow):
        from energy_transformer.cli import _graph_init_kwargs, _image_params_template, _load_graph

        image = RunConfig(**parse_config_text(IMAGE_CFG), allow_self_attention=allow)
        mode = _image_params_template(image).et.attn.mask_mode
        assert mode == (IncludeSelf() if allow else ExcludeSelf())
        graph = RunConfig(**parse_config_text(GRAPH_CFG), allow_self_attention=allow)
        g = _load_graph(graph)
        adjacency = gr.init_graph_params(g, **_graph_init_kwargs(graph)).et.attn.mask_mode.adjacency
        assert adjacency.diagonal().all() == allow
        np.testing.assert_array_equal(adjacency, gr.adjacency_matrix(g, include_self=allow))

    def test_activation_specs(self):
        from energy_transformer.core import Power, Relu, Softmax

        assert RunConfig(hn_activation="relu").activation() == Relu()
        assert RunConfig(hn_activation="power:4").activation() == Power(4)
        assert RunConfig(hn_activation="softmax:0.5").activation() == Softmax(0.5)


def write_cfg(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


IMAGE_CFG = """
task=image
image_size=8
patch_size=4
d=8
h=2
y=4
m=8
t=2
n_images=8
epochs=2
batch_size=4
n_occluded=2
n_replaced=1
seed=3
"""

GRAPH_CFG = """
task=graph
n_nodes=60
n_communities=2
anomaly_rate=0.25
p_in=0.3
shift=1.5
d=6
h=1
y=4
m=6
t=1
head_hidden=8
epochs=2
n_seeds=2
train_ratio=0.4
seed=1
"""

# Y > D: the graph task's token basis and its `attention_terms` node
GRAPH_TOKEN_CFG = GRAPH_CFG.replace("d=6\n", "d=4\n").replace("y=4\n", "y=8\n")


class TestCliTrainEval:
    def test_image_train_writes_outputs(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, IMAGE_CFG)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
        out = capsys.readouterr().out
        assert "resolved configuration" in out
        assert (tmp_path / "run" / "checkpoint.bin").exists()
        log = (tmp_path / "run" / "train_log.csv").read_text().splitlines()
        assert log[0] == "epoch,loss"
        assert len(log) == 3

    def test_image_train_deterministic_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path, IMAGE_CFG)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
        for name in ("checkpoint.bin", "train_log.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_image_eval_and_dump_energy(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, IMAGE_CFG)
        main(["train", "--config", cfg, "--out", str(tmp_path / "run")])
        ck = str(tmp_path / "run" / "checkpoint.bin")
        assert main(["eval", "--config", cfg, "--checkpoint", ck, "--out", str(tmp_path / "ev")]) == 0
        assert (tmp_path / "ev" / "eval.csv").exists()
        capsys.readouterr()
        assert main(["dump-energy", "--config", cfg, "--checkpoint", ck]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l and not l.startswith("#") and "=" not in l]
        assert lines[0] == "step,energy_att,energy_hn,energy_total"
        assert len(lines) == 1 + 2 + 1  # header + t steps + initial state

    def test_image_dump_energy_is_et_forward_of_seeded_plan(self, tmp_path, capsys):
        from energy_transformer import image as im
        from energy_transformer.cli import _image_params_template
        from energy_transformer.core import et_forward
        from energy_transformer.data import Rng, gen_synthetic_images, load_checkpoint

        cfg = write_cfg(tmp_path, IMAGE_CFG)
        main(["train", "--config", cfg, "--out", str(tmp_path / "run")])
        ck = str(tmp_path / "run" / "checkpoint.bin")
        capsys.readouterr()
        assert main(["dump-energy", "--config", cfg, "--checkpoint", ck]) == 0
        rows = [l for l in capsys.readouterr().out.splitlines() if l and l[0].isdigit()]
        rc = load_config(cfg, None)
        p = im.image_params_from_tensors(load_checkpoint(ck), _image_params_template(rc))
        image = gen_synthetic_images(rc.seed, 1, size=rc.image_size, channels=rc.channels)[0]
        rng = Rng(rc.seed).stream("image-eval-masking")
        plan = im.make_mask_plan(p.n_tokens, rc.n_occluded, rc.n_replaced, rng)
        x0 = im.encode_and_mask(im.patchify(image, p.k_h, p.k_w), plan, p)
        traj = et_forward(x0, p.et, p.alpha, p.n_steps)
        assert rows == [
            f"{t},{b.e_att!r},{b.e_hn!r},{b.e_total!r}" for t, (_, b) in enumerate(traj)
        ]

    def test_dump_energy_rows_non_increasing(self, tmp_path, capsys):
        # small weights keep the trajectory in the verified descent regime
        cfg = write_cfg(tmp_path, IMAGE_CFG + "t=6\n")
        main(["train", "--config", cfg, "--out", str(tmp_path / "run")])
        ck = str(tmp_path / "run" / "checkpoint.bin")
        capsys.readouterr()
        main(["dump-energy", "--config", cfg, "--checkpoint", ck])
        rows = [
            l.split(",")
            for l in capsys.readouterr().out.splitlines()
            if l and l[0].isdigit()
        ]
        totals = [float(r[3]) for r in rows]
        assert len(totals) == 7
        assert all(b <= a + 1e-9 for a, b in zip(totals, totals[1:]))

    def test_dump_energy_hn_column_zero_when_ablated(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, IMAGE_CFG + "enable_hopfield=false\n")
        main(["train", "--config", cfg, "--out", str(tmp_path / "run")])
        ck = str(tmp_path / "run" / "checkpoint.bin")
        capsys.readouterr()
        main(["dump-energy", "--config", cfg, "--checkpoint", ck])
        rows = [
            l.split(",")
            for l in capsys.readouterr().out.splitlines()
            if l and l[0].isdigit()
        ]
        assert all(float(r[2]) == 0.0 for r in rows)

    def test_graph_train_writes_metrics_with_footer(self, tmp_path):
        cfg = write_cfg(tmp_path, GRAPH_CFG)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "g")]) == 0
        lines = (tmp_path / "g" / "metrics.csv").read_text().splitlines()
        assert lines[0] == "seed,split,macro_f1,auc"
        assert len(lines) == 1 + 2 + 2  # header, 2 seeds, mean, std
        assert lines[-2].startswith("mean,")
        assert lines[-1].startswith("std,")
        assert (tmp_path / "g" / "train_log_seed1.csv").exists()

    def test_graph_eval_scores_the_training_split(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, GRAPH_CFG)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "g")]) == 0
        row = (tmp_path / "g" / "metrics.csv").read_text().splitlines()[1]
        assert row.startswith("1,test,")  # the checkpoint's seed
        f1, roc = row.split(",")[2:]
        capsys.readouterr()
        ck = str(tmp_path / "g" / "checkpoint.bin")
        assert main(["eval", "--config", cfg, "--checkpoint", ck, "--out", str(tmp_path / "e")]) == 0
        assert f"test_macro_f1={f1} test_auc={roc}" in capsys.readouterr().out.splitlines()
        eval_csv = (tmp_path / "e" / "eval.csv").read_text()
        assert eval_csv == f"metric,value\ntest_macro_f1,{f1}\ntest_auc,{roc}\n"

    def test_graph_train_outputs_independent_of_thread_count(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, GRAPH_CFG)
        for threads in ("1", "2"):
            monkeypatch.setenv("ET_THREADS", threads)
            assert main(["train", "--config", cfg, "--out", str(tmp_path / threads)]) == 0
        for name in ("checkpoint.bin", "metrics.csv", "train_log_seed1.csv", "train_log_seed2.csv"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

    @pytest.mark.parametrize("threads", ["abc", "0", "-3"])
    def test_bad_thread_count_exits_2_before_writing(self, tmp_path, capsys, monkeypatch, threads):
        cfg = write_cfg(tmp_path, GRAPH_CFG)
        out = tmp_path / "r"
        out.mkdir()
        monkeypatch.setenv("ET_THREADS", threads)
        assert main(["train", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1, err
        assert repr(threads) in err
        assert not any(out.iterdir())

    def test_graph_token_basis_outputs_deterministic(self, tmp_path):
        values = parse_config_text(GRAPH_TOKEN_CFG)
        assert values["y"] > values["d"]
        cfg = write_cfg(tmp_path, GRAPH_TOKEN_CFG)
        for run in ("a", "b"):
            out = tmp_path / run
            assert main(["train", "--config", cfg, "--out", str(out)]) == 0
            ck = str(out / "checkpoint.bin")
            assert main(["eval", "--config", cfg, "--checkpoint", ck, "--out", str(out)]) == 0
            assert main(["dump-energy", "--config", cfg, "--checkpoint", ck, "--out", str(out)]) == 0
        names = (
            "checkpoint.bin", "metrics.csv", "train_log_seed1.csv", "train_log_seed2.csv",
            "eval.csv", "energy.csv",
        )
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_export_weights_round_trip(self, tmp_path):
        cfg = write_cfg(tmp_path, IMAGE_CFG)
        main(["train", "--config", cfg, "--out", str(tmp_path / "run")])
        ck = str(tmp_path / "run" / "checkpoint.bin")
        outdir = tmp_path / "mem"
        assert main(
            ["export-weights", "--config", cfg, "--checkpoint", ck, "--which", "hopfield", "--out", str(outdir)]
        ) == 0
        files = sorted(outdir.glob("mem_*.pgm"))
        assert len(files) == 8  # m=8 memories
        assert files[0].name == "mem_0000.pgm"
        img = load_netpbm(files[0])
        assert img.shape == (1, 4, 4)
        # the written patch reproduces the decoded weight row within one
        # quantization level of its range
        from energy_transformer import image as im
        from energy_transformer.data import load_checkpoint

        cfg_obj = load_config(cfg)
        from energy_transformer.cli import _image_params_template

        params = im.image_params_from_tensors(
            load_checkpoint(ck), _image_params_template(cfg_obj)
        )
        grid = im.export_weights_as_patches(params, "hopfield")
        row = grid.patches[0].reshape(1, 4, 4)
        span = row.max() - row.min()
        assert np.abs(img - row).max() <= span / 255.0 + 1e-12

        # queries: one patch per (head, internal dim) row of w_query, head-major
        assert main(
            ["export-weights", "--config", cfg, "--checkpoint", ck, "--which", "queries",
             "--out", str(tmp_path / "q")]
        ) == 0
        files = sorted((tmp_path / "q").glob("query_*.pgm"))
        w = params.et.attn.w_query
        rows = im.decode_tokens(w.transpose(1, 0, 2).reshape(-1, w.shape[2]), params)
        assert len(files) == rows.shape[0] == 8  # h=2 heads, y=4
        for f, row in zip(files, rows):
            span = row.max() - row.min()
            assert np.abs(load_netpbm(f).reshape(-1) - row).max() <= span / 255.0 + 1e-12, f.name

    def test_wrong_task_checkpoint_rejected(self, tmp_path, capsys):
        icfg = write_cfg(tmp_path, IMAGE_CFG)
        gcfg = str(tmp_path / "g.cfg")
        with open(gcfg, "w") as fh:
            fh.write(GRAPH_CFG)
        main(["train", "--config", gcfg, "--out", str(tmp_path / "g")])
        code = main(
            [
                "export-weights",
                "--config",
                icfg,
                "--checkpoint",
                str(tmp_path / "g" / "checkpoint.bin"),
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert code == 2
        assert "no tensor named 'enc.kernel'" in _assert_one_error_line(capsys)
        assert not (tmp_path / "x").exists()

    def test_export_weights_needs_image_task(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, GRAPH_CFG)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "g")]) == 0
        capsys.readouterr()
        # the graph's own checkpoint, and one that does not exist: neither is read
        for ck in (tmp_path / "g" / "checkpoint.bin", tmp_path / "missing.bin"):
            out = tmp_path / "x"
            argv = ["export-weights", "--config", cfg, "--checkpoint", str(ck), "--out", str(out)]
            assert main(argv) == 2
            assert "export-weights needs task=image, got task=graph" in _assert_one_error_line(capsys)
            assert not out.exists()

    def test_epochs_zero_checkpoints_initialization(self, tmp_path):
        cfg = write_cfg(tmp_path, IMAGE_CFG + "epochs=0\n")
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "r0")]) == 0
        from energy_transformer.cli import _image_params_template
        from energy_transformer import image as im
        from energy_transformer.data import load_checkpoint

        init = im.image_params_to_tensors(_image_params_template(load_config(cfg)))
        saved = load_checkpoint(tmp_path / "r0" / "checkpoint.bin")
        for k in init:
            assert np.array_equal(saved[k], init[k]), k

    def test_gen_data_image_round_trip(self, tmp_path):
        cfg = write_cfg(tmp_path, IMAGE_CFG)
        assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "ds")]) == 0
        assert (tmp_path / "ds" / "manifest.txt").exists()
        cfg2 = write_cfg(tmp_path, IMAGE_CFG + f"data_dir={tmp_path / 'ds'}\nn_images=2\n")
        assert main(["train", "--config", cfg2, "--out", str(tmp_path / "run2")]) == 0
        # gen-data copies a data_dir, all 8 images of it, whatever n_images says
        assert main(["gen-data", "--config", cfg2, "--out", str(tmp_path / "ds2")]) == 0
        images = load_image_dataset(tmp_path / "ds")
        assert images.shape[0] == 8
        np.testing.assert_array_equal(load_image_dataset(tmp_path / "ds2"), images)

    def test_out_dir_key_used_without_out_flag(self, tmp_path, capsys):
        run = tmp_path / "run"
        cfg = write_cfg(tmp_path, IMAGE_CFG + f"out_dir={run}\n")
        assert main(["train", "--config", cfg]) == 0
        assert (run / "checkpoint.bin").exists() and (run / "resolved.cfg").exists()
        capsys.readouterr()
        ck = str(run / "checkpoint.bin")
        assert main(["dump-energy", "--config", cfg, "--checkpoint", ck]) == 0
        assert "energy_total" not in capsys.readouterr().out
        rows = (run / "energy.csv").read_text().splitlines()
        assert rows[0] == "step,energy_att,energy_hn,energy_total" and len(rows) == 4

    def test_gen_data_graph(self, tmp_path):
        cfg = write_cfg(tmp_path, GRAPH_CFG)
        assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "gd")]) == 0
        assert (tmp_path / "gd" / "edges.tsv").exists()


class TestCliVerifyGrad:
    def test_small_run_passes(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "fd_instances=6\nseed=5\n")
        assert main(["verify-grad", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "hopfield_grad" in out and "attention_grad" in out
        assert "graph/et.attn.w_key" in out and "graph-token-basis/et.attn.w_key" in out
        assert "all 43 gradient checks passed" in out
        assert "ok" in out

    def test_corrupted_gradient_fails_naming_tensor(self, tmp_path, capsys, monkeypatch):
        from energy_transformer import autodiff as ad

        backward = ad.backward

        def corrupted(tape):
            grads = backward(tape)
            return {**grads, "et.attn.w_query": grads["et.attn.w_query"] + 1.0}

        monkeypatch.setattr(ad, "backward", corrupted)
        cfg = write_cfg(tmp_path, "fd_instances=4\n")
        assert main(["verify-grad", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "image/et.attn.w_query" in err and "graph/et.attn.w_query" in err

    def test_impossible_tolerance_fails(self, tmp_path):
        cfg = write_cfg(tmp_path, "fd_instances=3\ntolerance=1e-300\n")
        assert main(["verify-grad", "--config", cfg]) == 1


class TestCliErrors:
    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path, "unknown_key=1\n")
        assert main(["verify-grad", "--config", cfg]) == 2

    def test_missing_config_file_exits_2(self, capsys):
        assert main(["train", "--config", "/nonexistent/run.cfg"]) == 2
        assert "No such file or directory: '/nonexistent/run.cfg'" in _assert_one_error_line(capsys)

    def test_missing_checkpoint_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, IMAGE_CFG)
        for command in ("eval", "dump-energy", "export-weights"):
            out = tmp_path / command
            assert main([command, "--config", cfg, "--out", str(out)]) == 2
            assert f"{command} requires --checkpoint" in _assert_one_error_line(capsys)
            assert not out.exists()

    def test_mask_mode_is_an_unknown_key(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, IMAGE_CFG + "mask_mode=include_self\n")
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        assert "unknown key 'mask_mode'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, cfg_text",
        [
            ("train", IMAGE_CFG + "batch_size=0\n"),
            ("train", GRAPH_CFG + "n_seeds=0\n"),
            ("train", IMAGE_CFG + "t=0\n"),
            ("verify-grad", "fd_instances=0\n"),
            ("train", GRAPH_CFG + "n_nodes=0\n"),
            ("train", IMAGE_CFG + "n_images=0\n"),
        ],
        ids=["batch_size", "n_seeds", "t", "fd_instances", "n_nodes", "n_images"],
    )
    def test_zero_count_exits_2(self, tmp_path, capsys, command, cfg_text):
        cfg = write_cfg(tmp_path, cfg_text)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "command, cfg_text",
        [
            ("train", IMAGE_CFG + "lr=-1\n"),
            ("train", IMAGE_CFG + "epochs=-2\n"),
            ("train", GRAPH_CFG + "lr=nan\n"),
            ("verify-grad", "fd_step=0\n"),
            ("verify-grad", "tolerance=0\n"),
            ("verify-grad", "tolerance=inf\n"),
            ("train", IMAGE_CFG + "alpha=-0.1\n"),
            ("train", IMAGE_CFG + "beta=0\n"),
            ("train", IMAGE_CFG + "alpha=nan\n"),
            ("train", GRAPH_CFG + "beta=inf\n"),
        ],
        ids=[
            "lr", "epochs", "lr_nan", "fd_step", "tolerance", "tolerance_inf",
            "alpha", "beta", "alpha_nan", "beta_inf",
        ],
    )
    def test_nonsense_number_exits_2(self, tmp_path, command, cfg_text):
        cfg = write_cfg(tmp_path, cfg_text)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        assert not (tmp_path / "r" / "checkpoint.bin").exists()

    @pytest.mark.parametrize(
        "cfg_text",
        [
            IMAGE_CFG + "y=0\n",
            GRAPH_CFG + "h=0\n",
            GRAPH_CFG + "d=0\n",
            IMAGE_CFG + "m=0\n",
            GRAPH_CFG + "f=0\n",
            IMAGE_CFG + "channels=0\n",
            IMAGE_CFG + "patch_size=0\n",
            IMAGE_CFG + "image_size=0\n",
            IMAGE_CFG + "max_steps=-1\n",
            IMAGE_CFG + "weight_decay=-1\n",
            GRAPH_CFG + "weight_decay=-1\n",
            IMAGE_CFG + "grad_clip=-1\n",
            GRAPH_CFG + "train_ratio=1.5\n",
            GRAPH_CFG + "train_ratio=0\n",
            GRAPH_CFG + "anomaly_rate=0.7\n",
            GRAPH_CFG + "anomaly_rate=0\n",
            GRAPH_CFG + "f=2\nn_communities=3\n",
            GRAPH_CFG + "n_communities=0\n",
            GRAPH_CFG + "init_std=-1\n",
            GRAPH_CFG + "init_std=nan\n",
            GRAPH_CFG + "head_hidden=-3\n",
            GRAPH_CFG + "head_hidden=0\n",
            GRAPH_CFG + "p_in=1.5\n",
            GRAPH_CFG + "p_out=-0.1\n",
            GRAPH_CFG + "b1=1\n",
            GRAPH_CFG + "b2=1.5\n",
            GRAPH_CFG + "warmup_steps=-5\n",
            IMAGE_CFG + "image_size=10\n",
        ],
        ids=[
            "image_y", "graph_h", "graph_d", "image_m", "graph_f", "channels",
            "patch_size", "image_size", "max_steps", "image_weight_decay",
            "graph_weight_decay", "grad_clip", "train_ratio_above_1", "train_ratio_0",
            "anomaly_rate_above_half", "anomaly_rate_0", "communities_above_f",
            "n_communities_0", "init_std_negative", "init_std_nan", "head_hidden_negative",
            "head_hidden_0",
            "p_in_above_1", "p_out_negative", "b1_1", "b2_above_1", "warmup_steps_negative",
            "image_size_not_multiple_of_patch_size",
        ],
    )
    def test_bad_size_or_range_exits_2(self, tmp_path, cfg_text):
        cfg = write_cfg(tmp_path, cfg_text)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "spec", ["power:x", "power:1", "softmax:-1", "softmax:nan", "softmax:inf", "tanh"]
    )
    def test_bad_hn_activation_exits_2_before_writing(self, tmp_path, capsys, spec):
        cfg = write_cfg(tmp_path, IMAGE_CFG + f"hn_activation={spec}\n")
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1, err
        assert f"{'unknown' if spec == 'tanh' else 'bad'} hn_activation {spec!r}" in err
        assert not (tmp_path / "r").exists()

    def test_more_replaced_than_occluded_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, IMAGE_CFG + "n_occluded=2\nn_replaced=3\n")
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        assert "n_replaced (3)" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()
        with pytest.raises(ConfigError):
            RunConfig(task="image", n_occluded=17)  # 16 tokens
        RunConfig(task="graph", n_occluded=2, n_replaced=3)  # unused by graphs

    @pytest.mark.parametrize(
        "cfg_text", [IMAGE_CFG + "alpha=1e300\n", GRAPH_CFG + "shift=1e300\n"],
        ids=["image_alpha", "graph_shift"],
    )
    def test_layer_norm_overflow_exits_1(self, tmp_path, cfg_text):
        # a child process, since pytest would capture numpy's overflow warnings
        cfg = write_cfg(tmp_path, cfg_text)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        argv = ["train", "--config", cfg, "--out", str(tmp_path / "r")]
        run = subprocess.run(
            [sys.executable, "-m", "energy_transformer.cli", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert run.returncode == 1
        err = run.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), run.stderr
        assert "layer norm variance overflowed to inf" in err[0]
        assert not (tmp_path / "r" / "checkpoint.bin").exists()

    def test_warning_of_a_completed_command_is_shown(self, tmp_path):
        # a child process, since pytest would capture the warning
        g = gr.gen_planted_anomaly_graph(1, 60, 0.25, 1.5, p_in=0.3, n_features=8)
        isolated = g.edges[(g.edges != 0).all(axis=1)]  # node 0 loses its edges
        gr.save_graph_dir(gr.GraphInstance(60, isolated, g.features, g.labels), tmp_path / "gd")
        cfg = write_cfg(tmp_path, GRAPH_CFG + f"data_dir={tmp_path / 'gd'}\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        run = subprocess.run(
            [sys.executable, "-m", "energy_transformer.cli", "train", "--config", cfg,
             "--out", str(tmp_path / "r")],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
        )
        assert run.returncode == 0, run.stderr
        assert "forcing self-loops on 1 isolated node(s): [0]" in run.stderr
        assert (tmp_path / "r" / "metrics.csv").exists()

    def test_eval_that_diverges_writes_nothing(self, tmp_path, capsys):
        from energy_transformer.data import load_checkpoint, save_checkpoint

        cfg = write_cfg(tmp_path, IMAGE_CFG + "epochs=0\n")
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
        tensors = load_checkpoint(tmp_path / "run" / "checkpoint.bin")
        tensors["enc.kernel"] *= 1e300  # finite, but the layer norm overflows
        ck = tmp_path / "big.bin"
        save_checkpoint(tensors, ck)
        capsys.readouterr()
        ev = tmp_path / "ev"
        with np.errstate(over="ignore"):
            assert main(["eval", "--config", cfg, "--checkpoint", str(ck), "--out", str(ev)]) == 1
        assert "overflowed" in _assert_one_error_line(capsys)
        assert not ev.exists()

    def test_eval_on_oversized_checkpoint_header_exits_2(self, tmp_path, capsys):
        ck = tmp_path / "ck.bin"
        ck.write_bytes(
            b"ETCK" + (1).to_bytes(4, "little") * 3 + b"w"
            + (2).to_bytes(4, "little") + (2**33).to_bytes(8, "little") * 2
        )
        cfg = write_cfg(tmp_path, IMAGE_CFG)
        assert main(["eval", "--config", cfg, "--checkpoint", str(ck)]) == 2
        assert "truncated" in capsys.readouterr().err

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2


class _Captured(Exception):
    """Carries the train config a trainer was called with out of `main`."""


class TestTrainConfigFromRunConfig:
    @pytest.mark.parametrize(
        "cfg_text, trainer, cls",
        [(IMAGE_CFG, "image.train_image", im.ImageTrainConfig),
         (GRAPH_CFG, "graph.run_graph_seeds", gr.GraphTrainConfig)],
        ids=["image", "graph"],
    )
    def test_train_passes_every_field_through(self, tmp_path, monkeypatch, cfg_text, trainer, cls):
        assert {f.name for f in fields(cls)} <= {f.name for f in fields(RunConfig)}
        cfg = write_cfg(
            tmp_path,
            cfg_text + "lr=0.002\nb1=0.8\nb2=0.95\nweight_decay=0.01\ngrad_clip=0.5\n"
            "warmup_steps=5\nmax_steps=3\nseed=4\nepochs=7\n",
        )

        def capture(*args, **kwargs):
            raise _Captured(kwargs.get("cfg", args[-1]))

        monkeypatch.setattr(f"energy_transformer.{trainer}", capture)
        with pytest.raises(_Captured) as exc:
            main(["train", "--config", cfg, "--out", str(tmp_path / "r")])
        train_cfg, run_cfg = exc.value.args[0], load_config(cfg)
        assert type(train_cfg) is cls
        for f in fields(cls):
            assert getattr(train_cfg, f.name) == getattr(run_cfg, f.name), f.name
        assert train_cfg.warmup_steps == 5 and train_cfg.epochs == 7  # not the defaults


def _assert_one_error_line(capsys):
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and len(err.splitlines()) == 1, err
    return err


VALID_GRAPH_DIR = {
    "edges.tsv": "0\t1\n1\t2\n2\t3\n",
    "features.csv": "0.1,0.2\n0.3,0.4\n0.5,0.6\n0.7,0.8\n",
    "labels.txt": "0\n1\n0\n1\n",
}


class TestBadInputFilesExit2:
    @pytest.mark.parametrize(
        "name, text",
        [
            ("edges.tsv", "x\t1\n"),
            ("edges.tsv", "-1\t2\n"),
            ("edges.tsv", "0\t4\n"),
            ("features.csv", "0.1,0.2\n0.3\n0.5,0.6\n0.7,0.8\n"),
            ("features.csv", "0.1,x\n0.3,0.4\n0.5,0.6\n0.7,0.8\n"),
            ("features.csv", "nan,0.2\n0.3,0.4\n0.5,0.6\n0.7,0.8\n"),
            ("labels.txt", "0\n7\n0\n1\n"),
            ("labels.txt", "0\n1\n0\n"),
        ],
        ids=[
            "edge_not_integer", "edge_negative", "edge_out_of_range", "features_ragged",
            "feature_not_numeric", "feature_nan", "label_7", "label_count",
        ],
    )
    def test_graph_dir(self, tmp_path, capsys, name, text):
        d = tmp_path / "g"
        d.mkdir()
        for fname, content in VALID_GRAPH_DIR.items():
            (d / fname).write_text(content)
        assert gr.load_graph_dir(d).n_nodes == 4
        (d / name).write_text(text)
        cfg = write_cfg(tmp_path, GRAPH_CFG + f"data_dir={d}\n")
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        err = _assert_one_error_line(capsys)
        assert name in err or f"{d}:" in err, err  # the bad file, not the 4-node split

    @pytest.mark.parametrize(
        "name, content",
        [
            ("img_00000.pgm", b"P5\n-2 -2\n255\n\x00\x00\x00\x00"),
            ("img_00000.pgm", b"P5\n0 8\n255\n"),
            ("img_00000.pgm.meta", b"lo=0.0\nhi\n"),
            ("img_00000.pgm.meta", b"hi=1.0\n"),
            ("img_00000.pgm.meta", b"lo=0.0\n"),
            ("img_00000.pgm.meta", b"lo=nan\nhi=1.0\n"),
            ("img_00000.pgm.meta", b"lo=0.0\nhi=inf\n"),
            ("img_00000.pgm.meta", b"lo=-1e308\nhi=1e308\n"),
            ("manifest.txt", b"img_00000.pgm\n\xff\n"),
        ],
        ids=[
            "dims_negative", "dims_zero", "sidecar_no_equals", "sidecar_no_lo",
            "sidecar_no_hi", "sidecar_lo_nan", "sidecar_hi_inf", "sidecar_span_inf",
            "manifest_not_utf8",
        ],
    )
    def test_netpbm(self, tmp_path, capsys, name, content):
        d = tmp_path / "ds"
        save_image_dataset(d, gen_synthetic_images(0, 2, size=8))
        (d / name).write_bytes(content)
        cfg = write_cfg(tmp_path, IMAGE_CFG + f"data_dir={d}\n")
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        _assert_one_error_line(capsys)

    @pytest.mark.parametrize(
        "cfg_text, commands, tensor",
        [
            (IMAGE_CFG, ("eval", "dump-energy", "export-weights"), "enc.kernel"),
            (GRAPH_CFG, ("eval", "dump-energy"), "embed.kernel"),
        ],
        ids=["image", "graph"],
    )
    def test_checkpoint_that_does_not_fit_config(
        self, tmp_path, capsys, cfg_text, commands, tensor
    ):
        train_cfg = write_cfg(tmp_path, cfg_text + "epochs=0\n")
        assert main(["train", "--config", train_cfg, "--out", str(tmp_path / "run")]) == 0
        ck = str(tmp_path / "run" / "checkpoint.bin")
        cfg = write_cfg(tmp_path, cfg_text + "d=5\n")
        capsys.readouterr()
        for command in commands:
            out = str(tmp_path / command)
            assert main([command, "--config", cfg, "--checkpoint", ck, "--out", out]) == 2
            err = capsys.readouterr().err.strip()
            assert err.startswith("error:") and len(err.splitlines()) == 1, err
            assert ck in err and f"tensor {tensor!r}" in err, err

    @pytest.mark.parametrize(
        "name, dims",
        [(b"\xff", ()), (b"w", (0, 2**63))],
        ids=["name_not_utf8", "empty_tensor_dim_too_large"],
    )
    def test_checkpoint(self, tmp_path, capsys, name, dims):
        ck = tmp_path / "ck.bin"
        ck.write_bytes(
            b"ETCK" + struct.pack("<III", 1, 1, len(name)) + name
            + struct.pack(f"<I{len(dims)}Q", len(dims), *dims)
            + (b"\x00" * 8 if not dims else b"")
        )
        cfg = write_cfg(tmp_path, IMAGE_CFG)
        assert main(["eval", "--config", cfg, "--checkpoint", str(ck)]) == 2
        _assert_one_error_line(capsys)

    @pytest.mark.parametrize(
        "cfg_text, tensor, value",
        [
            (IMAGE_CFG, "dec.kernel", np.nan),
            (IMAGE_CFG, "et.attn.w_key", np.nan),
            (IMAGE_CFG, "et.hopfield.xi", -np.inf),
            (GRAPH_CFG, "head.w1", np.nan),
            (GRAPH_CFG, "et.attn.w_key", np.nan),
            (GRAPH_CFG, "et.attn.beta", np.nan),
            (GRAPH_CFG, "et.attn.beta", np.inf),
        ],
        ids=[
            "image_dec_kernel", "image_w_key", "image_xi_inf", "graph_head_w1",
            "graph_w_key", "graph_beta", "graph_beta_inf",
        ],
    )
    def test_non_finite_checkpoint_tensor(self, tmp_path, capsys, cfg_text, tensor, value):
        # a head weight would give a silently wrong eval.csv, a block weight
        # a numerical error: both are a format error naming the tensor
        from energy_transformer.data import load_checkpoint, save_checkpoint

        cfg = write_cfg(tmp_path, cfg_text + "epochs=0\n")
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
        tensors = load_checkpoint(tmp_path / "run" / "checkpoint.bin")
        tensors[tensor].flat[0] = value
        ck = tmp_path / "bad.bin"
        save_checkpoint(tensors, ck)
        capsys.readouterr()
        ev = tmp_path / "ev"
        assert main(["eval", "--config", cfg, "--checkpoint", str(ck), "--out", str(ev)]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:") and len(err.splitlines()) == 1, err
        assert f"tensor {tensor!r}" in err, err
        assert not (ev / "eval.csv").exists()


class TestPathAndFitMistakesExit2:
    """A path of the wrong kind, a config the block cannot run, or images
    that do not fit the config: exit 2, one error line, no checkpoint."""

    @staticmethod
    def _checkpoint(tmp_path, capsys):
        cfg = write_cfg(tmp_path, IMAGE_CFG + "epochs=0\n")
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
        capsys.readouterr()
        return str(tmp_path / "run" / "checkpoint.bin")

    @pytest.mark.parametrize(
        "cfg_text, argv",
        [
            (IMAGE_CFG, ["eval", "--checkpoint", "{tmp}"]),
            (IMAGE_CFG, ["train", "--out", "{cfg}"]),
            (IMAGE_CFG + "data_dir={cfg}\n", ["train"]),
            (GRAPH_CFG + "data_dir={cfg}\n", ["train"]),
            (IMAGE_CFG, ["dump-energy", "--checkpoint", "{ck}", "--input", "{tmp}"]),
            (GRAPH_CFG + "data_dir={cfg}\n", ["gen-data"]),
        ],
        ids=[
            "checkpoint_is_dir", "out_is_file", "image_data_dir_is_file",
            "graph_data_dir_is_file", "input_is_dir", "gen_data_dir_is_file",
        ],
    )
    def test_path_of_the_wrong_kind(self, tmp_path, capsys, cfg_text, argv):
        ck = self._checkpoint(tmp_path, capsys) if "{ck}" in argv else ""
        cfg = str(tmp_path / "run.cfg")
        Path(cfg).write_text(cfg_text.replace("{cfg}", cfg))
        argv = [a.replace("{tmp}", str(tmp_path)).replace("{cfg}", cfg).replace("{ck}", ck) for a in argv]
        out = tmp_path / "r"
        if "--out" not in argv:
            argv += ["--out", str(out)]
        assert main([argv[0], "--config", cfg, *argv[1:]]) == 2
        _assert_one_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize(
        "mistake", ["config_is_dir", "config_not_utf8", "no_module_enabled", "line_without_equals"]
    )
    def test_config_mistake_writes_nothing(self, tmp_path, capsys, mistake):
        cfg = tmp_path / "run.cfg"
        if mistake == "config_is_dir":
            cfg.mkdir()
        elif mistake == "config_not_utf8":
            cfg.write_bytes(IMAGE_CFG.encode() + b"# caf\xe9\n")
        elif mistake == "line_without_equals":
            cfg.write_text(IMAGE_CFG + "seed 4\n")
        else:
            cfg.write_text(IMAGE_CFG + "enable_attn=false\nenable_hopfield=false\n")
        out = tmp_path / "r"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        err = _assert_one_error_line(capsys)
        assert mistake == "no_module_enabled" or str(cfg) in err, err
        assert not out.exists()

    @pytest.mark.parametrize(
        "cfg_text, cause",
        [
            (GRAPH_CFG + "n_communities=1\n", "n_communities (1)"),
            (GRAPH_CFG + "shift=nan\n", "shift must be finite"),
            (GRAPH_CFG + "shift=-inf\n", "shift must be finite"),
            (IMAGE_CFG + "data_dir={ds}\n", "images differ in shape"),
            (GRAPH_CFG + "n_nodes=5\n", "seed 1's split of 5 nodes leaves a class out"),
            (GRAPH_CFG + "n_nodes=2\n", "seed 1's split of 2 nodes leaves a class out"),
            (GRAPH_CFG + "anomaly_rate=0.01\n", "split of 60 nodes leaves a class out"),
            (GRAPH_CFG + "train_ratio=0.01\nn_seeds=5\n", "seed 5's split of 60 nodes"),
        ],
        ids=[
            "one_community", "shift_nan", "shift_inf", "mixed_image_shapes",
            "five_nodes", "two_nodes", "rare_anomalies", "one_training_node",
        ],
    )
    def test_unusable_input_writes_nothing(self, tmp_path, capsys, cfg_text, cause):
        ds = tmp_path / "ds"
        save_image_dataset(ds, gen_synthetic_images(0, 2, size=8))
        save_netpbm(ds / "img_00001.pgm", gen_synthetic_images(0, 1, size=12)[0])
        cfg = write_cfg(tmp_path, cfg_text.replace("{ds}", str(ds)))
        out = tmp_path / "r"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 2
        assert cause in _assert_one_error_line(capsys)
        assert not out.exists()

    def test_eval_of_an_unscoreable_split_writes_nothing(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, GRAPH_CFG)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "g")]) == 0
        capsys.readouterr()
        cfg = write_cfg(tmp_path, GRAPH_CFG + "anomaly_rate=0.01\n")
        # its own trained checkpoint, and one that does not exist: the split fails first
        for ck in (tmp_path / "g" / "checkpoint.bin", tmp_path / "missing.bin"):
            out = tmp_path / "e"
            argv = ["eval", "--config", cfg, "--checkpoint", str(ck), "--out", str(out)]
            assert main(argv) == 2
            assert "seed 1's split of 60 nodes leaves a class out" in _assert_one_error_line(capsys)
            assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("channels, size", [(3, 8), (1, 12)], ids=["rgb", "12x12"])
    def test_data_dir_that_does_not_fit(self, tmp_path, capsys, command, channels, size):
        ck = ["--checkpoint", self._checkpoint(tmp_path, capsys)] if command == "eval" else []
        d = tmp_path / "ds"
        save_image_dataset(d, gen_synthetic_images(0, 4, size=size, channels=channels))
        cfg = write_cfg(tmp_path, IMAGE_CFG + f"data_dir={d}\n")
        out = tmp_path / "r"
        assert main([command, "--config", cfg, "--out", str(out), *ck]) == 2
        err = _assert_one_error_line(capsys)
        assert str(d) in err and f"({channels}, {size}, {size})" in err and "(1, 8, 8)" in err
        assert not (out / "checkpoint.bin").exists() and not (out / "eval.csv").exists()

    @pytest.mark.parametrize("channels, size", [(3, 8), (1, 12)], ids=["rgb", "12x12"])
    def test_input_image_that_does_not_fit(self, tmp_path, capsys, channels, size):
        ck = self._checkpoint(tmp_path, capsys)
        image = tmp_path / ("in.ppm" if channels == 3 else "in.pgm")
        save_netpbm(image, gen_synthetic_images(0, 1, size=size, channels=channels)[0])
        cfg = write_cfg(tmp_path, IMAGE_CFG)
        out = tmp_path / "r"
        argv = ["dump-energy", "--config", cfg, "--checkpoint", ck, "--input", str(image)]
        assert main([*argv, "--out", str(out)]) == 2
        err = _assert_one_error_line(capsys)
        assert str(image) in err and "(1, 8, 8)" in err, err
        assert not (out / "energy.csv").exists()
