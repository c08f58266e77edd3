"""tools/same_bytes.py's parsing and reporting (the tool's runs are not repeated here)."""

import importlib.util
from pathlib import Path

import numpy as np

from energy_transformer.data import save_checkpoint

from test_cli import GRAPH_CFG, GRAPH_TOKEN_CFG, IMAGE_CFG

TOOL = Path(__file__).resolve().parent.parent / "tools" / "same_bytes.py"
spec = importlib.util.spec_from_file_location("same_bytes", TOOL)
sb = importlib.util.module_from_spec(spec)
spec.loader.exec_module(sb)


def test_reads_the_configs_the_cli_tests_use():
    assert sb.read_configs(Path(__file__).parent / "test_cli.py") == {
        "IMAGE_CFG": IMAGE_CFG, "GRAPH_CFG": GRAPH_CFG, "GRAPH_TOKEN_CFG": GRAPH_TOKEN_CFG,
    }


def test_checkpoint_tensor_differences(tmp_path):
    a = np.arange(6.0).reshape(2, 3)
    save_checkpoint({"w": a, "b": np.asarray(2.0)}, tmp_path / "old.bin")
    save_checkpoint({"w": a + [[0, 0, 0], [0, 0, 1e-3]], "b": np.asarray(2.0)}, tmp_path / "new.bin")
    old, new = (tmp_path / "old.bin").read_bytes(), (tmp_path / "new.bin").read_bytes()
    assert sb.checkpoint_tensors(old) == {"w": a.ravel().tolist(), "b": [2.0]}
    lines = sb.describe("train/checkpoint.bin", old, new)
    assert len(lines) == 1 and lines[0].startswith("  tensor w: max abs diff 0.001, rel 0.0002")


def test_csv_column_and_text_differences():
    old, new = b"step,e\n0,1.0\n1,4.0\n", b"step,e\n0,1.0\n1,4.5\n"
    assert sb.describe("energy/energy.csv", old, new) == ["  column e: max abs diff 0.5, rel 0.111"]
    assert sb.describe("x.stdout", b"a\nb\n", b"a\nc\n") == ["  @@ -2 +2 @@", "  -b", "  +c"]
    assert sb.describe("mem_0000.pgm", b"P5\xff\x00", b"P5\xff\x01") == ["  1 of 4 bytes differ"]
