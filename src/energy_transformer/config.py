"""Flat key=value run configuration.

One `key=value` pair per line, `#` starts a comment.  Unknown keys are
rejected so typos fail fast, and every run logs its fully resolved
configuration verbatim.  Values marked 'auto' resolve per task.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError

_AUTO = "auto"


def _parse_bool(s: str) -> bool:
    if s.lower() in ("1", "true", "yes", "on"):
        return True
    if s.lower() in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"not a boolean: {s!r}")


def _parse_clip(s: str) -> float | None:
    if s.lower() in ("none", "off"):
        return None
    return float(s)


@dataclass
class RunConfig:
    """Every tunable of the artifact, with desk-scale defaults."""

    task: str = "image"              # image | graph
    # model dims (auto: image d64/h4/y16/m256, graph d32/h2/y64/m64)
    d: int | str = _AUTO
    h: int | str = _AUTO
    y: int | str = _AUTO
    m: int | str = _AUTO
    f: int = 8                       # graph feature width
    head_hidden: int = 0             # graph head width; 0 -> auto (16)
    # image geometry
    image_size: int = 32
    channels: int = 1
    patch_size: int = 8
    # dynamics
    alpha: float | str = _AUTO       # image 0.1, graph 1.0
    t: int | str = _AUTO             # image 6, graph 1
    beta: float | str = _AUTO        # 1/sqrt(y)
    mask_mode: str = "exclude_self"  # image attention mask
    enable_attn: bool = True
    enable_hopfield: bool = True
    allow_self_attention: bool = False
    hn_activation: str = "relu"      # relu | power:<n> | softmax:<beta>
    # optimization
    init_std: float | str = _AUTO    # image 0.02, graph 0.1
    lr: float = 1e-3
    b1: float = 0.9
    b2: float = 0.99
    weight_decay: float | str = _AUTO  # image 0.05, graph 0.0
    grad_clip: float | None = 1.0
    warmup_steps: int = 0
    epochs: int | str = _AUTO        # image 40, graph 100
    batch_size: int = 16
    max_steps: int = 0               # 0 -> unlimited
    # masking
    n_occluded: int = 8
    n_replaced: int = 7
    # randomness
    seed: int = 0
    # synthetic data
    n_images: int = 256
    n_nodes: int = 1000
    n_communities: int = 2
    anomaly_rate: float = 0.05
    shift: float = 2.0
    p_in: float = 0.15
    p_out: float = 0.002
    train_ratio: float = 0.4
    n_seeds: int = 5
    # paths
    data_dir: str = ""
    out_dir: str = ""
    checkpoint: str = ""
    # verification
    tolerance: float = 1e-6
    fd_instances: int = 100
    fd_step: float = 1e-5
    # inference
    decode_at_min_energy: bool = False

    def __post_init__(self):
        if self.task not in ("image", "graph"):
            raise ConfigError(f"task must be image or graph, got {self.task!r}")
        if self.mask_mode not in ("exclude_self", "include_self"):
            raise ConfigError(f"unknown mask_mode {self.mask_mode!r}")
        image = self.task == "image"
        if self.d == _AUTO:
            self.d = 64 if image else 32
        if self.h == _AUTO:
            self.h = 4 if image else 2
        if self.y == _AUTO:
            self.y = 16 if image else 64
        if self.m == _AUTO:
            self.m = 256 if image else 64
        if self.alpha == _AUTO:
            self.alpha = 0.1 if self.task == "image" else 1.0
        if self.t == _AUTO:
            self.t = 6 if self.task == "image" else 1
        if self.beta == _AUTO:
            self.beta = 1.0 / float(np.sqrt(self.y))
        if self.weight_decay == _AUTO:
            self.weight_decay = 0.05 if self.task == "image" else 0.0
        if self.epochs == _AUTO:
            self.epochs = 40 if self.task == "image" else 100
        if self.init_std == _AUTO:
            self.init_std = 0.02 if self.task == "image" else 0.1
        if self.head_hidden == 0:
            # a small head resists memorizing training labels through the
            # per-node embeddings on desk-scale graphs
            self.head_hidden = 16
        for name in ("batch_size", "n_seeds", "t", "fd_instances"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        for name in ("lr", "fd_step", "tolerance"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and > 0, got {value}")
        if image and not (0 <= self.n_replaced <= self.n_occluded <= self.n_tokens):
            raise ConfigError(
                f"need 0 <= n_replaced ({self.n_replaced}) <= n_occluded "
                f"({self.n_occluded}) <= n_tokens ({self.n_tokens})"
            )

    @property
    def n_tokens(self) -> int:
        if self.image_size % self.patch_size:
            raise ConfigError(
                f"image_size {self.image_size} not divisible by patch_size {self.patch_size}"
            )
        return (self.image_size // self.patch_size) ** 2

    @property
    def patch_dim(self) -> int:
        return self.channels * self.patch_size * self.patch_size

    def activation(self):
        from .core import Power, Relu, Softmax

        spec = self.hn_activation
        if spec == "relu":
            return Relu()
        if spec.startswith("power:"):
            return Power(int(spec.split(":", 1)[1]))
        if spec.startswith("softmax:"):
            return Softmax(float(spec.split(":", 1)[1]))
        raise ConfigError(f"unknown hn_activation {spec!r}")

    def image_mask_mode(self):
        from .core import ExcludeSelf, IncludeSelf

        if self.allow_self_attention or self.mask_mode == "include_self":
            return IncludeSelf()
        return ExcludeSelf()


def _field_parser(f):
    """Parser for one RunConfig field: the first member of its annotation."""
    if f.name == "grad_clip":
        return _parse_clip
    first = f.type.split("|")[0].strip()
    return {"int": int, "float": float, "str": str, "bool": _parse_bool}[first]


_PARSERS = {f.name: _field_parser(f) for f in fields(RunConfig)}


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse key=value lines into typed values; unknown keys are errors."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _PARSERS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        try:
            out[key] = _PARSERS[key](value)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key}: {exc}") from exc
    return out


def load_config(path: str | None, overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from an optional file plus programmatic overrides."""
    values: dict = {}
    if path:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {path}")
        values.update(parse_config_text(p.read_text(), str(path)))
    if overrides:
        for key in overrides:
            if key not in _PARSERS:
                raise ConfigError(f"unknown config key {key!r}")
        values.update(overrides)
    try:
        return RunConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def format_resolved(cfg: RunConfig) -> str:
    """The fully resolved configuration, one key=value per line."""
    lines = []
    for f in sorted(fields(RunConfig), key=lambda f: f.name):
        value = getattr(cfg, f.name)
        if isinstance(value, float):
            value = repr(value)
        elif value is None:
            value = "none"
        elif isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{f.name}={value}")
    return "\n".join(lines) + "\n"
