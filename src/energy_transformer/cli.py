"""Batch command-line interface.

Subcommands: verify-grad, train, eval, dump-energy, export-weights,
gen-data.  Exit codes: 0 success, 1 verification/assertion failure,
2 usage or configuration error.  ET_THREADS (an integer >= 1, default 1)
caps multi-seed parallelism.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import graph as gr
from . import image as im
from .checks import run_verification
from .config import RunConfig, format_resolved, load_config
from .data import (
    Rng,
    gen_synthetic_images,
    load_checkpoint,
    load_image_dataset,
    load_netpbm,
    save_checkpoint,
    save_image_dataset,
    save_netpbm,
)
from .errors import ConfigError, EtError, FormatError, ShapeError
from .core import et_forward

Array = np.ndarray


def _fmt(x) -> str:
    """Full round-trip decimal formatting for CSV numbers."""
    return repr(float(x))


def _csv(header: list[str], rows: list[list]) -> str:
    """CSV text of a header and rows; numbers other than ints in `_fmt` form."""
    lines = [header] + [[c if isinstance(c, (str, int)) else _fmt(c) for c in row] for row in rows]
    return "".join(",".join(map(str, line)) + "\n" for line in lines)


def _threads() -> int:
    """ET_THREADS, an integer >= 1; unset or empty means 1."""
    raw = os.environ.get("ET_THREADS") or "1"
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ConfigError(f"ET_THREADS must be an integer >= 1, got {raw!r}")
    return int(raw)


def _config(args) -> RunConfig:
    """--config with the --seed and --checkpoint flags applied, echoed.

    Commands that take --checkpoint need one, from the flag or the config.
    """
    flags = {"seed": args.seed, "checkpoint": getattr(args, "checkpoint", None)}
    cfg = load_config(args.config, {k: v for k, v in flags.items() if v not in (None, "")})
    print("# resolved configuration")
    print(format_resolved(cfg), end="")
    if hasattr(args, "checkpoint") and not cfg.checkpoint:
        raise ConfigError(f"{args.command} requires --checkpoint")
    return cfg


def _out_dir(args, cfg: RunConfig) -> Path:
    out = Path(args.out or cfg.out_dir or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# Shared builders

def _block_kwargs(cfg: RunConfig) -> dict:
    """Initializer keywords that both tasks read from the config alike."""
    return dict(
        d=cfg.d,
        h=cfg.h,
        y=cfg.y,
        m=cfg.m,
        beta=float(cfg.beta),
        alpha=float(cfg.alpha),
        n_steps=int(cfg.t),
        activation=cfg.activation(),
        enable_attn=cfg.enable_attn,
        enable_hopfield=cfg.enable_hopfield,
        init_std=float(cfg.init_std),
    )


def _image_params_template(cfg: RunConfig) -> im.ImageTaskParams:
    return im.init_image_params(
        n_tokens=cfg.n_tokens,
        patch_size=cfg.patch_dim,
        k_h=cfg.patch_size,
        k_w=cfg.patch_size,
        mask_mode=cfg.image_mask_mode(),
        rng=Rng(cfg.seed).stream("image-init"),
        **_block_kwargs(cfg),
    )


def _graph_init_kwargs(cfg: RunConfig) -> dict:
    return dict(
        hidden=cfg.head_hidden, include_self=cfg.allow_self_attention, **_block_kwargs(cfg)
    )


def _fitting_images(images: Array, cfg: RunConfig, source: str) -> Array:
    """`images` if their (C, H, W) is the config's, else a ConfigError."""
    want = (cfg.channels, cfg.image_size, cfg.image_size)
    if images.shape[-3:] != want:
        raise ConfigError(f"{source}: images are {images.shape[-3:]}, the config expects {want}")
    return images


def _load_images(cfg: RunConfig) -> Array:
    if cfg.data_dir:
        return _fitting_images(load_image_dataset(cfg.data_dir), cfg, cfg.data_dir)
    return gen_synthetic_images(
        cfg.seed, cfg.n_images, size=cfg.image_size, channels=cfg.channels
    )


def _load_graph(cfg: RunConfig) -> gr.GraphInstance:
    if cfg.data_dir:
        return gr.load_graph_dir(cfg.data_dir)
    return gr.gen_planted_anomaly_graph(
        cfg.seed,
        cfg.n_nodes,
        cfg.anomaly_rate,
        cfg.shift,
        n_communities=cfg.n_communities,
        n_features=cfg.f,
        p_in=cfg.p_in,
        p_out=cfg.p_out,
    )


def _train_config(cls, cfg: RunConfig):
    """A trainer config whose fields all come from the same-named RunConfig keys."""
    return cls(**{f.name: getattr(cfg, f.name) for f in fields(cls)})


def _checkpoint_params(cfg: RunConfig, g: gr.GraphInstance | None = None):
    """The image task's parameters from cfg.checkpoint, or the graph task's
    for graph `g`; the config supplies everything that is not a tensor.

    A tensor missing (as from the other task) is a FormatError, one whose
    shape does not fit the config a ConfigError.
    """
    tensors = load_checkpoint(cfg.checkpoint)
    if g is None:
        template, from_tensors = _image_params_template(cfg), im.image_params_from_tensors
    else:
        template = gr.init_graph_params(g, **_graph_init_kwargs(cfg))  # tensors all replaced
        from_tensors = gr.graph_params_from_tensors
    try:
        return from_tensors(tensors, template)
    except ShapeError as exc:
        raise ConfigError(f"checkpoint {cfg.checkpoint} does not fit the config: {exc}") from exc


# ---------------------------------------------------------------------------
# Subcommands

def cmd_verify_grad(args) -> int:
    cfg = _config(args)
    reports = run_verification(
        n_instances=cfg.fd_instances, tolerance=cfg.tolerance, seed=cfg.seed, fd_step=cfg.fd_step
    )
    for r in reports:
        print(r.line())
    failed = [r for r in reports if not r.passed]
    if failed:
        names = ", ".join(r.name for r in failed)
        print(f"FAILED: {names}", file=sys.stderr)
        return 1
    print(f"all {len(reports)} gradient checks passed")
    return 0


def _train_image(cfg: RunConfig, images: Array, out: Path) -> int:
    params = _image_params_template(cfg)
    trained, history = im.train_image(images, params, _train_config(im.ImageTrainConfig, cfg))
    save_checkpoint(im.image_params_to_tensors(trained), out / "checkpoint.bin")
    rows = [[row["epoch"], row["loss"]] for row in history]
    (out / "train_log.csv").write_text(_csv(["epoch", "loss"], rows))
    print(f"wrote {out / 'checkpoint.bin'} and {out / 'train_log.csv'}")
    return 0


def _train_graph(cfg: RunConfig, g: gr.GraphInstance, out: Path) -> int:
    seeds = [cfg.seed + i for i in range(cfg.n_seeds)]
    report = gr.run_graph_seeds(
        g,
        seeds,
        train_ratio=cfg.train_ratio,
        init_kwargs=_graph_init_kwargs(cfg),
        cfg=_train_config(gr.GraphTrainConfig, cfg),
        n_workers=min(_threads(), len(seeds)),
    )
    header = ["epoch", "loss", "val_macro_f1", "val_auc"]
    for seed, history in zip(seeds, report["histories"]):
        log = _csv(header, [[r[key] for key in header] for r in history])
        (out / f"train_log_seed{seed}.csv").write_text(log)
    save_checkpoint(gr.graph_params_to_tensors(report["params"][0]), out / "checkpoint.bin")
    rows = [[r["seed"], "test", r["test_macro_f1"], r["test_auc"]] for r in report["rows"]]
    rows.append(["mean", "test", report["mean_macro_f1"], report["mean_auc"]])
    rows.append(["std", "test", report["std_macro_f1"], report["std_auc"]])
    (out / "metrics.csv").write_text(_csv(["seed", "split", "macro_f1", "auc"], rows))
    print(f"wrote {out / 'checkpoint.bin'} and {out / 'metrics.csv'}")
    return 0


def cmd_train(args) -> int:
    cfg = _config(args)
    # bad data, like a bad ET_THREADS, fails before anything is written
    if cfg.task == "image":
        data, train = _load_images(cfg), _train_image
    else:
        _threads()
        data, train = _load_graph(cfg), _train_graph
        for seed in range(cfg.seed, cfg.seed + cfg.n_seeds):
            gr.seeded_split(data, seed, cfg.train_ratio)  # a split that leaves a class out raises
    out = _out_dir(args, cfg)
    (out / "resolved.cfg").write_text(format_resolved(cfg))
    return train(cfg, data, out)


def cmd_eval(args) -> int:
    cfg = _config(args)
    if cfg.task == "image":
        params = _checkpoint_params(cfg)
        mse = im.eval_masked_mse(
            _load_images(cfg),
            params,
            n_occluded=cfg.n_occluded,
            n_replaced=cfg.n_replaced,
            seed=cfg.seed,
            decode_at_min_energy=cfg.decode_at_min_energy,
        )
        rows = [["masked_mse", mse]]
    else:
        g = _load_graph(cfg)
        split = gr.seeded_split(g, cfg.seed, cfg.train_ratio)  # checked before the checkpoint is read
        f1, roc = gr.score_test_split(g, split, _checkpoint_params(cfg, g))
        rows = [["test_macro_f1", f1], ["test_auc", roc]]
    out = _out_dir(args, cfg)  # made only once the metrics exist
    print(" ".join(f"{name}={_fmt(value)}" for name, value in rows))
    (out / "eval.csv").write_text(_csv(["metric", "value"], rows))
    return 0


def cmd_dump_energy(args) -> int:
    cfg = _config(args)
    if cfg.task == "image":
        params = _checkpoint_params(cfg)
        if args.input:
            image = _fitting_images(load_netpbm(args.input), cfg, args.input)
        else:
            image = gen_synthetic_images(
                cfg.seed, 1, size=cfg.image_size, channels=cfg.channels
            )[0]
        plan = next(im.eval_plans(cfg.seed, params.n_tokens, cfg.n_occluded, cfg.n_replaced))
        x0 = im.encode_and_mask(im.patchify(image, params.k_h, params.k_w), plan, params)
    else:
        g = gr.load_graph_dir(args.input) if args.input else _load_graph(cfg)
        params = _checkpoint_params(cfg, g)
        x0 = gr.embed_nodes(g, params)
    traj = et_forward(x0, params.et, params.alpha, params.n_steps)
    rows = [[step, b.e_att, b.e_hn, b.e_total] for step, (_, b) in enumerate(traj)]
    text = _csv(["step", "energy_att", "energy_hn", "energy_total"], rows)
    if args.out or cfg.out_dir:
        out = _out_dir(args, cfg)
        (out / "energy.csv").write_text(text)
        print(f"wrote {out / 'energy.csv'}")
    else:
        print(text, end="")
    return 0


def cmd_export_weights(args) -> int:
    cfg = _config(args)
    if cfg.task != "image":
        raise ConfigError(f"export-weights needs task=image, got task={cfg.task}")
    params = _checkpoint_params(cfg)
    grid = im.export_weights_as_patches(params, args.which)
    prefix = {"hopfield": "mem", "keys": "key", "queries": "query"}[args.which]
    out = _out_dir(args, cfg)
    for i, row in enumerate(grid.patches):
        patch = row.reshape(cfg.channels, params.k_h, params.k_w)
        save_netpbm(out / f"{prefix}_{i:04d}.{'pgm' if cfg.channels == 1 else 'ppm'}", patch)
    print(f"wrote {grid.patches.shape[0]} {prefix} patches to {out}")
    return 0


def cmd_gen_data(args) -> int:
    cfg = _config(args)
    # data_dir is read before --out is made, as in train and eval
    data = _load_images(cfg) if cfg.task == "image" else _load_graph(cfg)
    out = _out_dir(args, cfg)
    if cfg.task == "image":
        save_image_dataset(out, data)
        print(f"wrote {len(data)} images to {out}")
    else:
        gr.save_graph_dir(data, out)
        print(f"wrote graph with {data.n_nodes} nodes to {out}")
    return 0


# ---------------------------------------------------------------------------
# Entry point

def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="et", description="energy-descent transformer toolbench"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, summary, checkpoint=False, which=False, inp=False):
        """Add subcommand `name`, run by `run(args)`, with its flags."""
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--out", default=None, help="output directory")
        if checkpoint:
            p.add_argument("--checkpoint", default=None, help="checkpoint path")
        if which:
            p.add_argument(
                "--which",
                choices=("hopfield", "keys", "queries"),
                default="hopfield",
                help="weight family to export",
            )
        if inp:
            p.add_argument("--input", default=None, help="input image file or graph dir")

    command("verify-grad", cmd_verify_grad, "finite-difference gradient suite")
    command("train", cmd_train, "train the configured task")
    command("eval", cmd_eval, "evaluate a checkpoint", checkpoint=True)
    command("dump-energy", cmd_dump_energy, "per-step energy trajectory CSV",
            checkpoint=True, inp=True)
    command("export-weights", cmd_export_weights, "decode weight rows to image patches",
            checkpoint=True, which=True)
    command("gen-data", cmd_gen_data, "write a synthetic dataset")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # warnings wait for the command to return: one that stops prints one error line
    with warnings.catch_warnings(record=True) as caught:
        try:
            code = args.run(args)
        except (ConfigError, FormatError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except EtError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    for w in caught:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
