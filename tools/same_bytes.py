"""Same bytes: does the working tree write what a git ref writes?

    python3 tools/same_bytes.py <ref>

Runs one fixed `et` command matrix twice, on the working tree's source and
on `git archive <ref>`'s, each in its own temporary directory: `train`,
`eval`, `dump-energy` (to stdout and with `--out`), `gen-data` and
`verify-grad` on the IMAGE_CFG, GRAPH_CFG and GRAPH_TOKEN_CFG configs, and
the image task's `export-weights --which hopfield/keys/queries`.  Both sides
read the configs from the working tree's tests/test_cli.py, so they are
defined once.

Every output file, exit code, stdout and stderr is compared, with the run
directory and the source tree masked.  A difference is printed by name;
for a numeric CSV column or a checkpoint tensor it also prints the largest
absolute and relative difference.  The exit code is 0 when nothing
differs, 1 when something does, and 2 on a usage error, a ref that
cannot be archived or a missing config.

Stdlib only.  BLAS runs on one thread on both sides, and the two sides run
one after the other.
"""

from __future__ import annotations

import ast
import csv
import difflib
import io
import os
import struct
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ("IMAGE_CFG", "GRAPH_CFG", "GRAPH_TOKEN_CFG")
ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CK = "train/checkpoint.bin"


def read_configs(test_cli: Path) -> dict[str, str]:
    """The config strings that test_cli.py assigns at module level; each is
    a string or an expression over the ones before it."""
    found: dict[str, str] = {}
    for node in ast.parse(test_cli.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in CONFIGS:
                code = compile(ast.Expression(node.value), str(test_cli), "eval")
                found[name] = eval(code, {"__builtins__": {}}, dict(found))
    missing = set(CONFIGS) - set(found)
    if missing:
        print(f"error: {test_cli} defines no {', '.join(sorted(missing))}", file=sys.stderr)
        sys.exit(2)
    return found


def matrix(cfg_name: str) -> list[tuple[str, list[str]]]:
    """(label, et arguments) for one config, in run order; paths are
    relative to the config's run directory."""
    cfg = ["--config", "run.cfg"]
    ck = ["--checkpoint", CK]
    runs = [
        ("train", ["train", *cfg, "--out", "train"]),
        ("eval", ["eval", *cfg, *ck, "--out", "eval"]),
        ("dump-energy", ["dump-energy", *cfg, *ck]),
        ("dump-energy-out", ["dump-energy", *cfg, *ck, "--out", "energy"]),
        ("gen-data", ["gen-data", *cfg, "--out", "data"]),
        ("verify-grad", ["verify-grad", *cfg]),
    ]
    if cfg_name == "IMAGE_CFG":
        for which in ("hopfield", "keys", "queries"):
            out = ["--out", f"export-{which}"]
            runs.append((f"export-{which}", ["export-weights", *cfg, *ck, "--which", which, *out]))
    return runs


def run_side(src: Path, work: Path, configs: dict[str, str]) -> dict[str, bytes]:
    """Run the matrix with `src` on the path; every output keyed by name."""
    env = {**os.environ, **ENV, "PYTHONPATH": str(src)}
    outputs: dict[str, bytes] = {}

    def mask(data: bytes) -> bytes:
        for path, tag in ((work, b"<run>"), (src.parent, b"<tree>")):
            data = data.replace(str(path).encode(), tag)
        return data

    for cfg_name, text in configs.items():
        cwd = work / cfg_name
        cwd.mkdir(parents=True)
        (cwd / "run.cfg").write_text(text)
        for label, args in matrix(cfg_name):
            proc = subprocess.run(
                [sys.executable, "-m", "energy_transformer.cli", *args],
                cwd=cwd, env=env, capture_output=True,
            )
            key = f"{cfg_name}/{label}"
            outputs[f"{key}.exit"] = str(proc.returncode).encode()
            outputs[f"{key}.stdout"] = mask(proc.stdout)
            outputs[f"{key}.stderr"] = mask(proc.stderr)
        for path in sorted(cwd.rglob("*")):
            if path.is_file() and path.name != "run.cfg":
                outputs[f"{cfg_name}/{path.relative_to(cwd)}"] = path.read_bytes()
    return outputs


def checkpoint_tensors(data: bytes) -> dict[str, list[float]] | None:
    """A checkpoint's tensors as flat lists (see `data.save_checkpoint`),
    or None if `data` is not one."""
    if data[:4] != b"ETCK":
        return None
    pos, tensors = 12, {}
    try:
        for _ in range(struct.unpack_from("<I", data, 8)[0]):
            (n,) = struct.unpack_from("<I", data, pos)
            name = data[pos + 4 : pos + 4 + n].decode()
            pos += 4 + n
            (rank,) = struct.unpack_from("<I", data, pos)
            size = 1
            for d in struct.unpack_from(f"<{rank}Q", data, pos + 4):
                size *= d
            pos += 4 + 8 * rank
            tensors[name] = list(struct.unpack_from(f"<{size}d", data, pos))
            pos += 8 * size
    except (struct.error, UnicodeDecodeError):
        return None
    return tensors


def csv_columns(data: bytes) -> dict[str, list[str]] | None:
    """A CSV's columns by header name, or None if it does not parse as one."""
    try:
        rows = list(csv.reader(io.StringIO(data.decode())))
    except (UnicodeDecodeError, csv.Error):
        return None
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        return None
    return {head: [r[i] for r in rows[1:]] for i, head in enumerate(rows[0])}


def _numbers(values) -> list[float] | None:
    try:
        return [float(v) for v in values]
    except ValueError:
        return None


def largest_differences(a: list[float], b: list[float]) -> tuple[float, float]:
    """The largest |a - b| and the largest |a - b| / max(|a|, |b|)."""
    abs_max = rel_max = 0.0
    for x, y in zip(a, b):
        if x == y:
            continue
        d = abs(x - y)
        abs_max = max(abs_max, d)
        rel_max = max(rel_max, d / max(abs(x), abs(y)))
    return abs_max, rel_max


def describe(name: str, old: bytes, new: bytes) -> list[str]:
    """Lines saying how output `name` differs between the ref and the tree."""
    parsers = {".bin": (checkpoint_tensors, "tensor"), ".csv": (csv_columns, "column")}
    parse, kind = parsers.get(Path(name).suffix, (lambda data: None, ""))
    a, b = parse(old), parse(new)
    if a is not None and b is not None:
        lines = []
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b or len(a[key]) != len(b[key]):
                lines.append(f"  {kind} {key}: present or sized differently")
            elif a[key] != b[key]:
                x, y = _numbers(a[key]), _numbers(b[key])
                if x is None or y is None:
                    lines.append(f"  {kind} {key}: text differs")
                else:
                    d_abs, d_rel = largest_differences(x, y)
                    lines.append(f"  {kind} {key}: max abs diff {d_abs:.3g}, rel {d_rel:.3g}")
        return lines
    try:
        a, b = old.decode().splitlines(), new.decode().splitlines()
        return ["  " + line for line in list(difflib.unified_diff(a, b, lineterm="", n=0))[2:12]]
    except UnicodeDecodeError:
        changed = sum(x != y for x, y in zip(old, new)) + abs(len(old) - len(new))
        return [f"  {changed} of {max(len(old), len(new))} bytes differ"]


def archive(ref: str, dest: Path) -> None:
    """Extract `git archive <ref>` of this repository into `dest`."""
    proc = subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT, capture_output=True)
    if proc.returncode != 0:
        print(f"error: git archive {ref}: {proc.stderr.decode().strip()}", file=sys.stderr)
        sys.exit(2)
    with tarfile.open(fileobj=io.BytesIO(proc.stdout)) as tar:
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/same_bytes.py <ref>", file=sys.stderr)
        return 2
    ref = argv[0]
    configs = read_configs(ROOT / "tests" / "test_cli.py")
    with tempfile.TemporaryDirectory(prefix="same-bytes-") as tmp:
        tmp = Path(tmp)
        archive(ref, tmp / "ref")
        old = run_side(tmp / "ref" / "src", tmp / "ref-run", configs)
        new = run_side(ROOT / "src", tmp / "tree-run", configs)
    differing = 0
    for name in sorted(set(old) | set(new)):
        if name not in old or name not in new:
            print(f"DIFF {name}: only in {'tree' if name in new else 'ref'}")
            differing += 1
        elif old[name] != new[name]:
            print(f"DIFF {name}")
            for line in describe(name, old[name], new[name]):
                print(line)
            differing += 1
    total = len(set(old) | set(new))
    print(f"{total} outputs compared against {ref}: {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
