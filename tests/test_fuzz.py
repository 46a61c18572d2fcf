"""Property tests: byte-mutated model and IDX files, and model files whose
JSON header was edited, are loaded or refused with the documented error,
never with another exception."""

import contextlib
import copy
import gzip
import io
import json
import math
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
    return json.dumps(header_of(path.read_bytes())[0], sort_keys=True)


def header_of(blob):
    """The parsed JSON header of a container's bytes, and the bytes after it."""
    (hlen,) = struct.unpack(">Q", blob[8:16])
    return json.loads(blob[16:16 + hlen]), blob[16 + hlen:]


def with_header(blob, header):
    """``blob`` with its JSON header replaced by ``header`` and its length
    prefix rewritten to match."""
    _, arrays = header_of(blob)
    raw = json.dumps(header, sort_keys=True).encode("utf-8")
    return blob[:8] + struct.pack(">Q", len(raw)) + raw + arrays


def edits(blob_len):
    return st.tuples(
        st.lists(st.tuples(st.integers(0, blob_len - 1), st.integers(0, 255)),
                 min_size=1, max_size=4),
        st.integers(0, blob_len))


JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-2, 2 ** 70),
                         st.floats(), st.text(max_size=3))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4)
HEADER_EDITS = ("replace", "retype", "nudge", "delete", "insert")


def json_paths(node, path=()):
    """Every position in a parsed JSON tree as a tuple of keys and indices,
    the root first."""
    yield path
    children = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from json_paths(child, path + (key,))


def retyped(value):
    """``value`` as another JSON type: ``1`` as ``1.0``, ``1.5`` as ``1``,
    ``true`` as ``1``, a list as an object and anything else inside a list."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return float(value)
    if isinstance(value, float):
        return int(value) if math.isfinite(value) else str(value)
    if isinstance(value, list):
        return {str(i): v for i, v in enumerate(value)}
    return [value]


def edited(header, path, how, value, step):
    """A copy of ``header`` with the node at ``path`` edited ``how``: replaced
    by ``value``, retyped, a number moved by ``step``, deleted, or, in a list
    or an object, ``value`` inserted. An edit that does not apply to the
    node replaces it."""
    tree = copy.deepcopy(header)
    if not path:
        return value
    *above, key = path
    parent = tree
    for k in above:
        parent = parent[k]
    node = parent[key]
    number = isinstance(node, (int, float)) and not isinstance(node, bool)
    if how == "retype":
        parent[key] = retyped(node)
    elif how == "nudge" and number:
        parent[key] = node + step
    elif how == "delete":
        del parent[key]
    elif how == "insert" and isinstance(node, list):
        node.insert(step % (len(node) + 1), value)
    elif how == "insert" and isinstance(node, dict):
        node[f"extra{step}"] = value
    else:
        parent[key] = value
    return tree


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    """A small saved network with two generations and structural zeros in
    every layer after the first; returns (path to mutate, valid bytes)."""
    net = PlasticNetwork.new(5, [4, 3], np.random.default_rng(0))
    net.grow_output()
    net.grow_output()
    net.take_snapshot()
    net.hidden_layers[0].weights[0] += 1.0
    net.split_neurons(0, [0])
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


def assert_inspect_loads_audited_or_exits_3(path):
    """``pss inspect`` accepts the model at ``path``, which then loads, passes
    the audit and re-saves to the same header and arrays, or exits 3."""
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
@given(data=st.data())
def test_mutated_model_loads_audited_or_exits_3(model_file, data):
    path, blob = model_file
    path.write_bytes(mutated(blob, *data.draw(edits(len(blob)))))
    assert_inspect_loads_audited_or_exits_3(path)


@FUZZ
@given(data=st.data())
def test_model_with_an_edited_header_loads_audited_or_exits_3(model_file, data):
    """Edits of the model header's values, types, keys and tag lists, with
    the length prefix rewritten, reach ``load_model``'s header comparison.
    The array entries beside it are left to the byte mutations above."""
    path, blob = model_file
    header, _ = header_of(blob)
    where = data.draw(st.sampled_from(list(json_paths(header["meta"], ("meta",)))))
    how = data.draw(st.sampled_from(HEADER_EDITS))
    tree = edited(header, where, how, data.draw(JSON_VALUES), data.draw(st.integers(-2, 2)))
    path.write_bytes(with_header(blob, tree))
    assert_inspect_loads_audited_or_exits_3(path)


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
