"""Property tests: byte-mutated model and IDX files are loaded or refused
with the documented error, never with another exception."""

import contextlib
import gzip
import io
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pss.cli import EXIT_DATA, EXIT_OK, main
from pss.container import read_container
from pss.data import DataFormatError, ImageDataset, load_idx, save_idx
from pss.model_io import MODEL_MAGIC, load_model, save_model
from pss.plasticity import PlasticNetwork

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=150)


def mutated(blob, edits, cut):
    """``blob`` with each ``(position, byte)`` edit applied, then cut to
    ``cut`` bytes."""
    out = bytearray(blob)
    for pos, byte in edits:
        out[pos] = byte
    return bytes(out[:cut])


def canonical_header(path):
    """The JSON header of a container file, parsed and dumped with sorted keys."""
    blob = path.read_bytes()
    (hlen,) = struct.unpack(">Q", blob[8:16])
    return json.dumps(json.loads(blob[16:16 + hlen]), sort_keys=True)


def edits(blob_len):
    return st.tuples(
        st.lists(st.tuples(st.integers(0, blob_len - 1), st.integers(0, 255)),
                 min_size=1, max_size=4),
        st.integers(0, blob_len))


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    """A small saved network with two generations and structural zeros in
    every layer after the first; returns (path to mutate, valid bytes)."""
    net = PlasticNetwork.new(5, [4, 3], np.random.default_rng(0))
    net.grow_output(0)
    net.grow_output(1)
    net.take_snapshot()
    net.hidden_layers[0].weights[0] += 1.0
    net.split_neuron(0, 0)
    net.ensure_support_path()
    assert all((l.conn_mask == 0.0).any() for l in net.layers[1:])
    path = tmp_path_factory.mktemp("fuzz") / "model.pssnet"
    save_model(path, net)
    return path, path.read_bytes()


@pytest.fixture(scope="module")
def idx_pair(tmp_path_factory):
    """Valid (images, labels) IDX bytes, plain and gzipped, and a path pair."""
    rng = np.random.default_rng(0)
    root = tmp_path_factory.mktemp("idx")
    paths = root / "images-idx3-ubyte", root / "labels-idx1-ubyte"
    save_idx(*paths, rng.integers(0, 256, size=(6, 4, 4), dtype=np.uint8),
             np.arange(6) % 10)
    plain = tuple(p.read_bytes() for p in paths)
    return paths, {"plain": plain, "gzip": tuple(gzip.compress(b) for b in plain)}


@FUZZ
@given(data=st.data())
def test_mutated_model_loads_audited_or_exits_3(model_file, data):
    path, blob = model_file
    path.write_bytes(mutated(blob, *data.draw(edits(len(blob)))))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["inspect", "--model", str(path)])
    assert code in (EXIT_OK, EXIT_DATA)
    if code == EXIT_OK:
        net = load_model(path)
        assert net.check_masks() == []
        again = path.with_name("resaved.pssnet")
        save_model(again, net)
        assert canonical_header(again) == canonical_header(path)
        arrays, resaved = (read_container(p, MODEL_MAGIC)[1] for p in (path, again))
        assert {k: a.tobytes() for k, a in resaved.items()} == \
            {k: a.tobytes() for k, a in arrays.items()}
    else:
        assert err.getvalue().startswith("data error:")


@FUZZ
@given(data=st.data(), kind=st.sampled_from(["plain", "gzip"]),
       target=st.sampled_from([0, 1]))
def test_mutated_idx_loads_or_raises_data_format_error(idx_pair, data, kind, target):
    paths, blobs = idx_pair
    for i, (path, blob) in enumerate(zip(paths, blobs[kind])):
        path.write_bytes(mutated(blob, *data.draw(edits(len(blob))))
                         if i == target else blob)
    try:
        ds = load_idx(*paths)
    except DataFormatError:
        return
    assert isinstance(ds, ImageDataset) and len(ds.labels) == len(ds.images)
