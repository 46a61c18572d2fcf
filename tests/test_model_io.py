"""Unit tests for model serialization and boundary resume."""

import json
import struct

import numpy as np
import pytest

from pss.cli import EXIT_DATA, main
from pss.container import ContainerError, read_container
from pss.data import build_task_stream, synthetic_digits
from pss.model_io import MODEL_MAGIC, load_model, save_model
from pss.plasticity import PlasticNetwork
from pss.trainer import TrainerConfig, rng_for, train_task


def trained_net(seed=1):
    train, test = synthetic_digits(240, 120, seed=3)
    stream = build_task_stream(train, test, n_tasks=2, seed=3, test_count=120)
    cfg = TrainerConfig(hidden_sizes=(10, 6), sigma=1e-6, delta=0.0,
                        batch_size=32, epochs_per_task=2, seed=seed)
    net = PlasticNetwork.new(784, [10, 6], rng_for(seed, 0))
    for task in stream:
        train_task(net, task.train, cfg, task.index)
    return net, stream, cfg


def rewrite_header(path, edit):
    """Apply ``edit`` to the parsed JSON header of a saved container."""
    blob = path.read_bytes()
    (hlen,) = struct.unpack(">Q", blob[8:16])
    header = json.loads(blob[16:16 + hlen].decode())
    edit(header)
    new_header = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(blob[:8] + struct.pack(">Q", len(new_header)) + new_header
                     + blob[16 + hlen:])


def weight_at_structural_zero(path):
    net = load_model(path)
    rows, cols = np.nonzero(net.hidden_layers[1].conn_mask == 0.0)
    net.hidden_layers[1].weights[rows[0], cols[0]] = 0.5
    save_model(path, net)


# Each edit turns a valid model file into one ``pss inspect`` must refuse.
HOSTILE = {
    "missing n_layers": lambda h: h["meta"].pop("n_layers"),
    "missing arrays": lambda h: h.pop("arrays"),
    "negative shape": lambda h: h["arrays"][0]["shape"].__setitem__(0, -1),
    "non-integer shape": lambda h: h["arrays"][0]["shape"].__setitem__(0, 2.5),
    "unknown freeze_scope": lambda h: h["meta"].__setitem__("freeze_scope", "all"),
    "string tag": lambda h: h["meta"]["hidden_gens"][0].__setitem__(0, "0"),
    "short tag list": lambda h: h["meta"]["hidden_gens"][0].pop(),
    "tag newer than task": lambda h: h["meta"]["hidden_gens"][1].__setitem__(-1, 9),
    "task without output": lambda h: h["meta"].__setitem__("task", 5),
    "fan-in mismatch": lambda h: next(
        a for a in h["arrays"] if a["name"] == "w1")["shape"].__setitem__(1, 3),
    "unknown activation": lambda h: h["meta"]["activations"][0].__setitem__(
        "kind", "tanh"),
    "schema 1": lambda h: h["meta"].__setitem__("schema", 1),
}
# Cases the container reader itself must reject, before any model check.
CONTAINER_FAULTS = ("missing arrays", "negative shape", "non-integer shape")


class TestSaveLoad:
    def test_round_trip_is_bitwise(self, tmp_path):
        net, stream, _ = trained_net()
        path = tmp_path / "model.pssnet"
        save_model(path, net)
        back = load_model(path)
        probe = stream.pool_x[:40]
        assert back.predict(probe).tobytes() == net.predict(probe).tobytes()
        for a, b in zip(net.layers, back.layers):
            assert a.weights.tobytes() == b.weights.tobytes()
            assert np.array_equal(a.conn_mask, b.conn_mask)
            assert np.array_equal(a.train_mask, b.train_mask)
            assert np.array_equal(a.bias_train_mask, b.bias_train_mask)
            assert a.activation == b.activation
        assert back.hidden_gens == net.hidden_gens
        assert back.output_gens == net.output_gens
        assert back.task == net.task
        assert back.freeze_scope == net.freeze_scope
        assert back.check_masks() == []

    def test_rng_state_travels(self, tmp_path):
        net, _, _ = trained_net()
        path = tmp_path / "model.pssnet"
        save_model(path, net)
        back = load_model(path)
        np.testing.assert_array_equal(net.rng.standard_normal(8),
                                      back.rng.standard_normal(8))

    def test_resume_at_boundary_matches_straight_run(self, tmp_path):
        train, test = synthetic_digits(240, 120, seed=3)
        stream = build_task_stream(train, test, n_tasks=3, seed=3,
                                   test_count=120)
        cfg = TrainerConfig(hidden_sizes=(10, 6), sigma=1e-6, delta=0.0,
                            batch_size=32, epochs_per_task=2, seed=2)

        straight = PlasticNetwork.new(784, [10, 6], rng_for(2, 0))
        for task in stream:
            train_task(straight, task.train, cfg, task.index)

        resumed = PlasticNetwork.new(784, [10, 6], rng_for(2, 0))
        train_task(resumed, stream.tasks[0].train, cfg, 0)
        path = tmp_path / "boundary.pssnet"
        save_model(path, resumed)
        resumed = load_model(path)
        train_task(resumed, stream.tasks[1].train, cfg, 1)
        train_task(resumed, stream.tasks[2].train, cfg, 2)

        for a, b in zip(straight.layers, resumed.layers):
            assert a.weights.tobytes() == b.weights.tobytes()
            assert a.bias.tobytes() == b.bias.tobytes()

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.bin"
        path.write_bytes(b"NOTAMODL" + b"\x00" * 64)
        with pytest.raises(ContainerError, match="magic"):
            load_model(path)

    def test_future_schema_rejected(self, tmp_path):
        net, _, _ = trained_net()
        path = tmp_path / "model.pssnet"
        save_model(path, net)
        rewrite_header(path, lambda h: h["meta"].__setitem__("schema", 99))
        with pytest.raises(ContainerError, match="schema"):
            load_model(path)

    def test_file_holds_weights_and_biases_only(self, tmp_path):
        net, _, _ = trained_net()
        path = tmp_path / "model.pssnet"
        save_model(path, net)
        meta, arrays = read_container(path, MODEL_MAGIC)
        assert meta["schema"] == 2
        assert sorted(arrays) == ["b0", "b1", "b2", "w0", "w1", "w2"]


class TestHostileModelFiles:
    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        net, _, _ = trained_net()
        assert any((l.conn_mask == 0.0).any() for l in net.hidden_layers)
        path = tmp_path_factory.mktemp("model") / "model.pssnet"
        save_model(path, net)
        return path.read_bytes()

    @pytest.mark.parametrize("case", sorted(HOSTILE) + ["weight at structural zero"])
    def test_inspect_refuses_with_data_error(self, case, saved, tmp_path, capsys):
        path = tmp_path / "model.pssnet"
        path.write_bytes(saved)
        if case in HOSTILE:
            rewrite_header(path, HOSTILE[case])
        else:
            weight_at_structural_zero(path)
        if case in CONTAINER_FAULTS:
            with pytest.raises(ContainerError):
                read_container(path, MODEL_MAGIC)
        with pytest.raises(ContainerError):
            load_model(path)
        assert main(["inspect", "--model", str(path)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "Traceback" not in err
