"""Dataset generation, file codecs, checkpoints, and seeded randomness."""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import replace
from operator import attrgetter
from pathlib import Path

import numpy as np

from .errors import FormatError, InvalidInputError, ShapeError

Array = np.ndarray


# ---------------------------------------------------------------------------
# Seeded, purpose-split randomness

class Rng:
    """Counter-based random streams, split by purpose.

    Each named stream is an independent Philox generator keyed by
    (seed, crc32(purpose)), so drawing from one stream never perturbs
    another and every stream is reproducible from the seed alone.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)

    def stream(self, purpose: str) -> np.random.Generator:
        key = (self.seed, zlib.crc32(purpose.encode("utf-8")))
        return np.random.Generator(np.random.Philox(key=key))


# ---------------------------------------------------------------------------
# Synthetic image dataset

def _normalize(img: Array) -> Array:
    """Zero mean, unit variance per image (flat images stay at zero)."""
    img = img - img.mean()
    sd = img.std()
    if sd > 0:
        img = img / sd
    return img


def gen_synthetic_images(
    seed: int,
    n: int,
    *,
    size: int = 32,
    channels: int = 1,
    kinds: tuple[str, ...] = ("stripes", "gradient", "rectangles"),
) -> Array:
    """Deterministic set of procedural images, shape (n, channels, size, size).

    Stripes have random orientation/frequency/phase, gradients a random
    direction, rectangles random two-tone blocks.  Each image is
    normalized to zero mean and unit variance, so masked completion is
    learnable from local structure alone.
    """
    if n < 1:
        raise InvalidInputError("need n >= 1 images")
    rng = Rng(seed).stream("synthetic-images")
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64) / size
    out = np.empty((n, channels, size, size))
    for i in range(n):
        kind = kinds[rng.integers(len(kinds))]
        if kind == "stripes":
            # discrete orientations/frequencies keep the patch vocabulary small
            theta = rng.integers(4) * (np.pi / 4.0)
            freq = float(rng.integers(2, 5))
            phase = rng.uniform(0, 2 * np.pi)
            wave = np.sin(
                2 * np.pi * freq * (np.cos(theta) * xx + np.sin(theta) * yy) + phase
            )
            img = np.sign(wave) if rng.random() < 0.5 else wave
        elif kind == "gradient":
            theta = rng.uniform(0, 2 * np.pi)
            img = np.cos(theta) * xx + np.sin(theta) * yy
        else:  # rectangles snapped to an 8px grid: blocks are two-tone
            img = np.full((size, size), rng.uniform(-1, 0))
            cells = max(size // 8, 2)
            snap = size // cells
            for _ in range(rng.integers(1, 4)):
                r0, c0 = rng.integers(0, cells - 1, size=2)
                r1 = rng.integers(r0 + 1, cells + 1)
                c1 = rng.integers(c0 + 1, cells + 1)
                img[r0 * snap : r1 * snap, c0 * snap : c1 * snap] = rng.uniform(0, 1)
        img = _normalize(img)
        for c in range(channels):
            out[i, c] = img
    return out


# ---------------------------------------------------------------------------
# PPM / PGM codecs (binary P6 / P5, 8-bit, with a rescale sidecar)

def _sidecar_path(path: Path) -> Path:
    return path.with_suffix(path.suffix + ".meta")


def save_netpbm(path, image: Array) -> None:
    """Write a float image as 8-bit PGM (1 channel) or PPM (3 channels).

    The affine rescale used to fit [0, 1] is recorded in a sidecar text
    file so loading inverts it; round-trip error is below one quantization
    level of the original range.
    """
    path = Path(path)
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 3 or image.shape[0] not in (1, 3):
        raise ShapeError(f"expected (1|3, H, W) image, got {image.shape}")
    if not np.isfinite(image).all():
        raise InvalidInputError("image contains non-finite values")
    if (image == np.round(image)).all() and image.min() >= 0 and image.max() <= 255:
        # native 8-bit content: identity quantization, bit-exact round trip
        lo, hi = 0.0, 255.0
    else:
        lo = float(image.min())
        hi = float(image.max())
    span = hi - lo if hi > lo else 1.0
    scaled = np.clip((image - lo) / span, 0.0, 1.0)
    quant = np.round(scaled * 255.0).astype(np.uint8)
    channels, h, w = image.shape
    magic = b"P5" if channels == 1 else b"P6"
    with open(path, "wb") as fh:
        fh.write(magic + b"\n%d %d\n255\n" % (w, h))
        # P6 interleaves channels per pixel; P5 is the single plane
        if channels == 1:
            fh.write(quant[0].tobytes())
        else:
            fh.write(quant.transpose(1, 2, 0).tobytes())
    _sidecar_path(path).write_text(f"lo={lo!r}\nhi={hi!r}\n")


def load_netpbm(path) -> Array:
    """Read a P5/P6 file written by save_netpbm back to a float image."""
    path = Path(path)
    data = path.read_bytes()
    fields, pos = [], 0
    while len(fields) < 4:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise FormatError(f"{path}: truncated header")
        fields.append(data[start:pos])
    pos += 1  # single whitespace byte after maxval
    magic, ws, hs, maxval = fields
    if magic not in (b"P5", b"P6"):
        raise FormatError(f"{path}: unsupported magic {magic!r}")
    if maxval != b"255":
        raise FormatError(f"{path}: unsupported maxval {maxval!r} (only 255)")
    try:
        w, h = int(ws), int(hs)
    except ValueError as exc:
        raise FormatError(f"{path}: bad dimensions") from exc
    channels = 1 if magic == b"P5" else 3
    payload = data[pos : pos + w * h * channels]
    if len(payload) != w * h * channels:
        raise FormatError(f"{path}: truncated payload")
    raw = np.frombuffer(payload, dtype=np.uint8)
    if channels == 1:
        img = raw.reshape(1, h, w).astype(np.float64)
    else:
        img = raw.reshape(h, w, 3).transpose(2, 0, 1).astype(np.float64)
    img = img / 255.0
    sidecar = _sidecar_path(path)
    if sidecar.exists():
        meta = dict(
            line.split("=", 1) for line in sidecar.read_text().splitlines() if line
        )
        lo, hi = float(meta["lo"]), float(meta["hi"])
        span = hi - lo if hi > lo else 1.0
        img = img * span + lo
    return img


# ---------------------------------------------------------------------------
# Dataset manifests

def write_manifest(path, names: list[str]) -> None:
    Path(path).write_text("".join(f"{n}\n" for n in names))


def read_manifest(path) -> list[str]:
    """One relative path per line; blank lines and '#' comments ignored."""
    out = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            out.append(line)
    return out


def save_image_dataset(dirpath, images: Array) -> None:
    """Write images as PGM/PPM files plus manifest.txt."""
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    names = []
    for i, img in enumerate(images):
        name = f"img_{i:05d}.{'pgm' if img.shape[0] == 1 else 'ppm'}"
        save_netpbm(dirpath / name, img)
        names.append(name)
    write_manifest(dirpath / "manifest.txt", names)


def load_image_dataset(dirpath) -> Array:
    dirpath = Path(dirpath)
    names = read_manifest(dirpath / "manifest.txt")
    if not names:
        raise FormatError(f"{dirpath}: empty manifest")
    images = [load_netpbm(dirpath / n) for n in names]
    shapes = {img.shape for img in images}
    if len(shapes) != 1:
        raise ShapeError(f"{dirpath}: images differ in shape: {sorted(shapes)}")
    return np.stack(images)


# ---------------------------------------------------------------------------
# Checkpoints: flat binary container of named float64 tensors

_MAGIC = b"ETCK"
_VERSION = 1
_MAX_RANK = 32  # the oldest supported numpy's array rank limit


def save_checkpoint(tensors: dict[str, Array], path) -> None:
    """Write named tensors as little-endian IEEE-754 doubles.

    Layout: magic 'ETCK', version u32, tensor count u32, then per tensor:
    name length u32, UTF-8 name, rank u32, dims u64 each, raw values.
    All integers little-endian.  Round-trips bit-exactly.
    """
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, len(tensors)))
        for name, value in tensors.items():
            value = np.asarray(value, dtype=np.float64)
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", value.ndim))
            for dim in value.shape:
                fh.write(struct.pack("<Q", dim))
            fh.write(value.astype("<f8", copy=False).tobytes())


def load_checkpoint(path) -> dict[str, Array]:
    """Read a checkpoint; rejects bad magic, version mismatch, truncation."""
    data = Path(path).read_bytes()
    if data[:4] != _MAGIC:
        raise FormatError(f"{path}: not a checkpoint (bad magic)")
    pos = 4

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(data):
            raise FormatError(f"{path}: truncated checkpoint")
        chunk = data[pos : pos + n]
        pos += n
        return chunk

    version, count = struct.unpack("<II", take(8))
    if version != _VERSION:
        raise FormatError(f"{path}: version {version} != expected {_VERSION}")
    out: dict[str, Array] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4))
        name = take(name_len).decode("utf-8")
        (rank,) = struct.unpack("<I", take(4))
        if rank > _MAX_RANK:
            raise FormatError(f"{path}: tensor {name!r} has rank {rank} > {_MAX_RANK}")
        dims = struct.unpack(f"<{rank}Q", take(8 * rank))
        # exact integer product: take() rejects a size beyond the file
        raw = take(8 * math.prod(dims))
        out[name] = np.frombuffer(raw, dtype="<f8").reshape(dims).copy()
    if pos != len(data):
        raise FormatError(f"{path}: {len(data) - pos} trailing bytes")
    return out


def checkpoint_tensor(tensors: dict[str, Array], name: str, shape: tuple[int, ...]) -> Array:
    """Fetch one tensor, failing loudly on unknown names or wrong shapes."""
    if name not in tensors:
        raise FormatError(f"checkpoint has no tensor named {name!r}")
    value = tensors[name]
    if tuple(value.shape) != tuple(shape):
        raise ShapeError(
            f"tensor {name!r} has shape {value.shape}, expected {tuple(shape)}"
        )
    return value


# A tensor table lists a task's learnable tensors as (checkpoint name,
# dotted attribute path, decay-exempt) rows.  Its order is the checkpoint
# layout and the optimizer's summation order, so reordering it changes bytes.

def params_to_tensors(p, table) -> dict[str, Array]:
    """Flatten the table's fields of `p` to named float64 tensors, in table order."""
    return {name: np.asarray(attrgetter(path)(p), dtype=np.float64) for name, path, _ in table}


def _replace_path(obj, path: str, value):
    """Copy of `obj` with the field at dotted `path` set to `value`."""
    head, _, rest = path.partition(".")
    if rest:
        value = _replace_path(getattr(obj, head), rest, value)
    return replace(obj, **{head: value})


def params_from_tensors(tensors: dict[str, Array], like, table):
    """Rebuild `like` with every table field read from `tensors`.

    Each tensor must have the shape of the field it replaces; 0-d tensors
    fill scalar fields as Python floats.
    """
    out = like
    for name, path, _ in table:
        value = checkpoint_tensor(tensors, name, np.shape(attrgetter(path)(like)))
        out = _replace_path(out, path, float(value) if value.ndim == 0 else value)
    return out
