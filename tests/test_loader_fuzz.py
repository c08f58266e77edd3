"""Seeded fuzzing of the file loaders: a mutated file loads or raises
FormatError, never anything else."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from energy_transformer import graph as gr
from energy_transformer.data import load_checkpoint, load_netpbm, save_checkpoint, save_netpbm
from energy_transformer.errors import FormatError

FUZZ = settings(derandomize=True, max_examples=200, deadline=None, database=None)
GRAPH_FILES = ("edges.tsv", "features.csv", "labels.txt")


def mutated(seed: bytes):
    """`seed` with one to four bytes replaced, then cut short half the time."""
    edits = st.lists(
        st.tuples(st.integers(0, len(seed) - 1), st.integers(0, 255)), min_size=1, max_size=4
    )
    length = st.one_of(st.just(len(seed)), st.integers(0, len(seed)))

    def apply(args):
        data = bytearray(seed)
        for pos, byte in args[0]:
            data[pos] = byte
        return bytes(data[: args[1]])

    return st.tuples(edits, length).map(apply)


def loads_or_format_error(load, path) -> None:
    try:
        load(path)
    except FormatError:
        pass


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """The bytes of one valid file of each format, and a directory to write to."""
    d = tmp_path_factory.mktemp("fuzz")
    save_checkpoint({"a": np.zeros(()), "bc": np.arange(2.0).reshape(2, 1)}, d / "ck.bin")
    save_netpbm(d / "img.pgm", np.arange(12.0).reshape(1, 3, 4) / 7.0)
    gr.save_graph_dir(gr.gen_planted_anomaly_graph(0, 8, 0.25, 1.0, n_features=2), d / "g")
    names = ("ck.bin", "img.pgm", "img.pgm.meta") + tuple(f"g/{n}" for n in GRAPH_FILES)
    return d, {name: (d / name).read_bytes() for name in names}


class TestLoaderFuzz:
    @FUZZ
    @given(data=st.data())
    def test_checkpoint(self, valid, data):
        d, files = valid
        (d / "ck.bin").write_bytes(data.draw(mutated(files["ck.bin"])))
        loads_or_format_error(load_checkpoint, d / "ck.bin")

    @pytest.mark.parametrize("name", ["img.pgm", "img.pgm.meta"], ids=["image", "sidecar"])
    @FUZZ
    @given(data=st.data())
    def test_netpbm(self, valid, data, name):
        d, files = valid
        for n in ("img.pgm", "img.pgm.meta"):
            (d / n).write_bytes(files[n])
        (d / name).write_bytes(data.draw(mutated(files[name])))
        loads_or_format_error(load_netpbm, d / "img.pgm")

    @FUZZ
    @given(data=st.data(), name=st.sampled_from(GRAPH_FILES))
    def test_graph_dir(self, valid, data, name):
        d, files = valid
        for n in GRAPH_FILES:
            (d / "g" / n).write_bytes(files[f"g/{n}"])
        (d / "g" / name).write_bytes(data.draw(mutated(files[f"g/{name}"])))
        loads_or_format_error(gr.load_graph_dir, d / "g")
