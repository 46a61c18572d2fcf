"""Saving and loading networks at task boundaries.

A model file (schema 2) is a binary container: each layer's float64
weights ``w{i}`` and bias ``b{i}``, and a ``header`` of tags, task,
freeze scope, activations and generator state, so a run resumed from a
boundary continues bit-for-bit like an uninterrupted one. ``load_model``
rebuilds the network from the arrays, the hidden slopes and tags, the
task, the scope and the generator state, audits it, and refuses
(``ContainerError``) a file whose header is not exactly the rebuilt
network's. Schema-1 files, which stored masks, are rejected. Mid-task
state (snapshot, epoch, momentum) is not stored.
"""

import json

import numpy as np

from .container import ContainerError, read_container, write_container
from .numerics import IDENTITY, Activation, MaskedLayer
from .plasticity import PlasticNetwork

MODEL_MAGIC = b"PSSNET1\0"
MODEL_SCHEMA = 2


def header(net):
    """The metadata ``save_model`` writes for ``net``: hidden layers are
    leaky ReLUs at their own slopes, the output layer is the identity."""
    return {
        "schema": MODEL_SCHEMA,
        "task": net.task,
        "freeze_scope": net.freeze_scope,
        "hidden_gens": [list(g) for g in net.hidden_gens],
        "output_gens": net.output_gens,
        "activations": [{"kind": "leaky_relu", "slope": float(l.activation.slope)}
                        for l in net.hidden_layers]
                       + [{"kind": "identity", "slope": 1.0}],
        "rng_state": net.rng.bit_generator.state,
        "n_layers": len(net.layers),
    }


def save_model(path, net):
    """Write the network to ``path``; call it between tasks."""
    arrays = {}
    for i, layer in enumerate(net.layers):
        arrays[f"w{i}"] = layer.weights
        arrays[f"b{i}"] = layer.bias
    write_container(path, MODEL_MAGIC, header(net), arrays)


def load_model(path):
    """Rebuild a network saved by ``save_model``, trusting nothing in it."""
    meta, arrays = read_container(path, MODEL_MAGIC)
    if meta.get("schema") != MODEL_SCHEMA:
        raise ContainerError(f"unsupported model schema {meta.get('schema')!r}")
    n = len(arrays) // 2
    names = [f"{k}{i}" for i in range(n) for k in "wb"]
    if set(arrays) != set(names):
        raise ContainerError(f"expected arrays {names}, found {sorted(arrays)}")
    dtypes = {a.dtype.name for a in arrays.values()}
    if dtypes - {"float64"}:  # MaskedLayer would convert them silently
        raise ContainerError(f"arrays of {sorted(dtypes)}, not float64 only")
    try:
        acts = [Activation(meta["activations"][i]["slope"]) for i in range(n - 1)]
        layers = [MaskedLayer(arrays[f"w{i}"], arrays[f"b{i}"], activation=act)
                  for i, act in enumerate(acts + [IDENTITY])]
        rng = np.random.default_rng(0)
        rng.bit_generator.state = meta["rng_state"]
        net = PlasticNetwork(layers, meta["hidden_gens"], task=meta["task"], rng=rng,
                             freeze_scope=meta["freeze_scope"])
        problems = net.check_masks()
    except Exception as e:  # a hostile header can fail any step of the rebuild
        raise ContainerError(f"model does not rebuild: {e!r:.200}") from e
    if problems:
        raise ContainerError(f"model fails the structural audit: {problems}")
    if json.dumps(meta, sort_keys=True) != json.dumps(header(net), sort_keys=True):
        raise ContainerError("model header differs from the rebuilt network's")
    return net
