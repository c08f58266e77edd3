"""Config parsing and the command-line surface (exit codes, files, determinism)."""

import os

import numpy as np
import pytest

from energy_transformer.cli import main
from energy_transformer.config import RunConfig, format_resolved, load_config, parse_config_text
from energy_transformer.data import load_netpbm
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

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("lr=fast")
        with pytest.raises(ConfigError):
            parse_config_text("enable_attn=maybe")

    def test_bad_task_rejected(self):
        with pytest.raises(ConfigError):
            load_config(None, {"task": "video"})

    def test_resolved_round_trips(self):
        cfg = load_config(None, {"task": "image", "lr": 0.0025})
        text = format_resolved(cfg)
        cfg2 = RunConfig(**parse_config_text(text))
        assert format_resolved(cfg2) == text

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

    def test_graph_train_outputs_independent_of_thread_count(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, GRAPH_CFG)
        for threads in ("1", "2"):
            monkeypatch.setenv("ET_THREADS", threads)
            assert main(["train", "--config", cfg, "--out", str(tmp_path / threads)]) == 0
        for name in ("checkpoint.bin", "metrics.csv", "train_log_seed1.csv", "train_log_seed2.csv"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

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

    def test_wrong_task_checkpoint_rejected(self, tmp_path):
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
        cfg2 = write_cfg(tmp_path, IMAGE_CFG + f"data_dir={tmp_path / 'ds'}\n")
        assert main(["train", "--config", cfg2, "--out", str(tmp_path / "run2")]) == 0

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
        assert "ok" in out

    def test_corrupted_gradient_fails_naming_tensor(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "fd_instances=4\n")
        os.environ["ET_CORRUPT_GRAD"] = "image/et.attn.w_query"
        try:
            assert main(["verify-grad", "--config", cfg]) == 1
        finally:
            del os.environ["ET_CORRUPT_GRAD"]
        captured = capsys.readouterr()
        assert "et.attn.w_query" in captured.err

    def test_impossible_tolerance_fails(self, tmp_path):
        cfg = write_cfg(tmp_path, "fd_instances=3\ntolerance=1e-300\n")
        assert main(["verify-grad", "--config", cfg]) == 1


class TestCliErrors:
    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path, "unknown_key=1\n")
        assert main(["verify-grad", "--config", cfg]) == 2

    def test_missing_config_file_exits_2(self):
        assert main(["train", "--config", "/nonexistent/run.cfg"]) == 2

    def test_missing_checkpoint_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path, IMAGE_CFG)
        assert main(["eval", "--config", cfg]) == 2

    @pytest.mark.parametrize(
        "command, cfg_text",
        [
            ("train", IMAGE_CFG + "batch_size=0\n"),
            ("train", GRAPH_CFG + "n_seeds=0\n"),
            ("train", IMAGE_CFG + "t=0\n"),
            ("verify-grad", "fd_instances=0\n"),
        ],
        ids=["batch_size", "n_seeds", "t", "fd_instances"],
    )
    def test_zero_count_exits_2(self, tmp_path, command, cfg_text):
        cfg = write_cfg(tmp_path, cfg_text)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        assert not (tmp_path / "r" / "checkpoint.bin").exists()

    @pytest.mark.parametrize(
        "command, cfg_text",
        [
            ("train", IMAGE_CFG + "lr=-1\n"),
            ("train", IMAGE_CFG + "epochs=-2\n"),
            ("train", GRAPH_CFG + "lr=nan\n"),
            ("verify-grad", "fd_step=0\n"),
            ("verify-grad", "tolerance=0\n"),
            ("verify-grad", "tolerance=inf\n"),
        ],
        ids=["lr", "epochs", "lr_nan", "fd_step", "tolerance", "tolerance_inf"],
    )
    def test_nonsense_number_exits_2(self, tmp_path, command, cfg_text):
        cfg = write_cfg(tmp_path, cfg_text)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        assert not (tmp_path / "r" / "checkpoint.bin").exists()

    def test_more_replaced_than_occluded_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, IMAGE_CFG + "n_occluded=2\nn_replaced=3\n")
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        assert "n_replaced (3)" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()
        with pytest.raises(ConfigError):
            RunConfig(task="image", n_occluded=17)  # 16 tokens
        RunConfig(task="graph", n_occluded=2, n_replaced=3)  # unused by graphs

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
