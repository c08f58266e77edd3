"""Flat key=value run configuration.

One `key=value` pair per line, `#` starts a comment.  Unknown keys are
rejected so typos fail fast, and every run logs its fully resolved
configuration verbatim.  Values marked 'auto' resolve per task.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .core import ExcludeSelf, IncludeSelf, Power, Relu, Softmax, default_beta
from .errors import ConfigError

_AUTO = "auto"
# key -> (image, graph) value of a key left at auto; beta is 1/sqrt(y)
_TASK_DEFAULTS = {
    "d": (64, 32), "h": (4, 2), "y": (16, 64), "m": (256, 64), "alpha": (0.1, 1.0),
    "t": (6, 1), "weight_decay": (0.05, 0.0), "epochs": (40, 100), "init_std": (0.02, 0.1),
}


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
    # model dims; an auto value resolves per task from _TASK_DEFAULTS
    d: int | str = _AUTO
    h: int | str = _AUTO
    y: int | str = _AUTO
    m: int | str = _AUTO
    f: int = 8                       # graph feature width
    # graph head width; a small head resists memorizing training labels
    # through the per-node embeddings on desk-scale graphs
    head_hidden: int = 16
    # image geometry
    image_size: int = 32
    channels: int = 1
    patch_size: int = 8
    # dynamics
    alpha: float | str = _AUTO
    t: int | str = _AUTO
    beta: float | str = _AUTO        # 1/sqrt(y)
    enable_attn: bool = True
    enable_hopfield: bool = True
    allow_self_attention: bool = False  # image IncludeSelf, graph self-loops
    hn_activation: str = "relu"      # relu | power:<n> | softmax:<beta>
    # optimization
    init_std: float | str = _AUTO
    lr: float = 1e-3
    b1: float = 0.9
    b2: float = 0.99
    weight_decay: float | str = _AUTO
    grad_clip: float | None = 1.0
    warmup_steps: int = 0
    epochs: int | str = _AUTO
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
        image = self.task == "image"
        for name, defaults in _TASK_DEFAULTS.items():
            if getattr(self, name) == _AUTO:
                setattr(self, name, defaults[0 if image else 1])
        # sizes before the default beta = 1/sqrt(y) divides by one of them
        for name in (
            "d", "h", "y", "m", "f", "channels", "patch_size", "image_size", "n_images",
            "n_nodes", "batch_size", "n_seeds", "t", "fd_instances", "head_hidden",
        ):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.beta == _AUTO:
            self.beta = default_beta(self.y)
        if not (self.enable_attn or self.enable_hopfield):
            raise ConfigError("enable_attn and enable_hopfield cannot both be false")
        for name in (
            "epochs", "max_steps", "weight_decay", "alpha", "warmup_steps",
        ):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ConfigError(f"{name} must be finite and >= 0, got {value}")
        for name in ("lr", "fd_step", "tolerance", "beta", "init_std"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and > 0, got {value}")
        if self.grad_clip is not None and not (self.grad_clip > 0):
            raise ConfigError(f"grad_clip must be none or > 0, got {self.grad_clip}")
        for name in ("p_in", "p_out"):
            if not (0 <= getattr(self, name) <= 1):
                raise ConfigError(f"need 0 <= {name} <= 1, got {getattr(self, name)}")
        for name in ("b1", "b2"):
            if not (0 <= getattr(self, name) < 1):
                raise ConfigError(f"need 0 <= {name} < 1, got {getattr(self, name)}")
        if not (0 < self.train_ratio < 1):
            raise ConfigError(f"need 0 < train_ratio < 1, got {self.train_ratio}")
        if not (0 < self.anomaly_rate < 0.5):
            raise ConfigError(f"need 0 < anomaly_rate < 0.5, got {self.anomaly_rate}")
        if not (2 <= self.n_communities <= self.f):
            raise ConfigError(f"need 2 <= n_communities ({self.n_communities}) <= f ({self.f})")
        if not np.isfinite(self.shift):
            raise ConfigError(f"shift must be finite, got {self.shift}")
        self.activation()  # parses and range-checks hn_activation
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
        spec = self.hn_activation
        name, _, arg = spec.partition(":")
        try:
            if spec == "relu":
                return Relu()
            if name == "power":
                return Power(int(arg))
            if name == "softmax":
                return Softmax(float(arg))
        except ValueError as exc:  # a bad number, or one out of range
            raise ConfigError(f"bad hn_activation {spec!r}: {exc}") from exc
        raise ConfigError(f"unknown hn_activation {spec!r}")

    def image_mask_mode(self):
        return IncludeSelf() if self.allow_self_attention else ExcludeSelf()


def _field_parser(f):
    """Parser for one RunConfig field: the first member of its annotation."""
    if f.name == "grad_clip":
        return _parse_clip
    first = f.type.split("|")[0].strip()
    return {"int": int, "float": float, "str": str, "bool": _parse_bool}[first]


_PARSERS = {f.name: _field_parser(f) for f in fields(RunConfig)}


def _parse_value(key: str, text: str, where: str):
    """`text` as `key`'s typed value; an unknown key or bad value is a ConfigError."""
    if key not in _PARSERS:
        raise ConfigError(f"{where}: unknown key {key!r}")
    try:
        return _PARSERS[key](text)
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key}: {exc}") from exc


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
        out[key] = _parse_value(key, value, f"{source}:{lineno}")
    return out


def load_config(path: str | None, overrides: dict | None = None) -> RunConfig:
    """A RunConfig from an optional file plus overrides, each read as its file text."""
    values: dict = {}
    if path:
        try:
            values.update(parse_config_text(Path(path).read_text(encoding="utf-8"), str(path)))
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {path} is not UTF-8: {exc}") from exc
    for key, value in (overrides or {}).items():
        values[key] = _parse_value(key, str(value), "override")
    return RunConfig(**values)


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
