"""Saving and loading networks at task boundaries.

A model file (schema 2) is a binary container holding each layer's
weights ``w{i}`` and bias ``b{i}``, the generation tags, task index,
freeze scope, activations and generator state, so a run resumed from a
boundary continues bit-for-bit like an uninterrupted one. Masks are
derived from the tags, not stored; schema-1 files, which stored them,
are rejected. ``load_model`` checks the metadata and the tags against
the weight shapes before deriving anything, then audits the network,
and raises ``ContainerError`` on any fault. Mid-task state (snapshot,
drift schedule, momentum) is not stored: ``train_task`` rebuilds it.
"""

import math

import numpy as np

from .container import ContainerError, read_container, write_container
from .numerics import Activation, MaskedLayer
from .plasticity import FREEZE_SCOPES, PlasticNetwork

MODEL_MAGIC = b"PSSNET1\0"
MODEL_SCHEMA = 2
META_KEYS = ("activations", "freeze_scope", "hidden_gens", "n_layers",
             "output_gens", "rng_state", "schema", "task")


def save_model(path, net):
    """Write the network to ``path``; call it between tasks."""
    meta = {
        "schema": MODEL_SCHEMA,
        "task": net.task,
        "freeze_scope": net.freeze_scope,
        "hidden_gens": [list(g) for g in net.hidden_gens],
        "output_gens": list(net.output_gens),
        "activations": [{"kind": l.activation.kind, "slope": l.activation.slope}
                        for l in net.layers],
        "rng_state": net.rng.bit_generator.state,
        "n_layers": len(net.layers),
    }
    arrays = {}
    for i, layer in enumerate(net.layers):
        arrays[f"w{i}"] = layer.weights
        arrays[f"b{i}"] = layer.bias
    write_container(path, MODEL_MAGIC, meta, arrays)


def _tag_lists(meta):
    """The hidden and output tag lists, checked for type, count and range."""
    n, task, tags = meta["n_layers"], meta["task"], meta["hidden_gens"]
    if not (type(n) is int and n >= 2 and type(task) is int
            and isinstance(tags, list) and len(tags) == n - 1):
        raise ContainerError("n_layers, task or hidden_gens has a bad type or count")
    tags = tags + [meta["output_gens"]]
    for gens in tags:
        if not isinstance(gens, list) or \
                not all(type(g) is int and 0 <= g <= max(task, 0) for g in gens):
            raise ContainerError(f"tags {gens!r:.60} not all ints in [0, max(task, 0)]")
    if task != len(tags[-1]) - 1:
        raise ContainerError(f"task {task} needs one output tag per task so far")
    return tags


def _layer(i, w, b, tags, act):
    """Layer ``i`` from its arrays, checked against its tags."""
    try:
        if w.ndim != 2 or len(w) != len(tags):
            raise ValueError(f"{len(tags)} tags for weights of shape {w.shape}")
        if not math.isfinite(act["slope"]):
            raise ValueError("activation slope is not finite")
        return MaskedLayer(w, b, activation=Activation(act["kind"], act["slope"]))
    except (TypeError, KeyError, ValueError, OverflowError, FloatingPointError) as e:
        raise ContainerError(f"layer {i}: {e!r}") from e


def load_model(path):
    """Rebuild a network saved by ``save_model``, trusting nothing in it."""
    meta, arrays = read_container(path, MODEL_MAGIC)
    if meta.get("schema") != MODEL_SCHEMA:
        raise ContainerError(f"unsupported model schema {meta.get('schema')!r}")
    missing = [k for k in META_KEYS if k not in meta]
    if missing:
        raise ContainerError(f"model metadata lacks {missing}")
    if meta["freeze_scope"] not in FREEZE_SCOPES:
        raise ContainerError(f"unknown freeze scope {meta['freeze_scope']!r}")
    tags, acts = _tag_lists(meta), meta["activations"]
    names = [f"{k}{i}" for i in range(len(tags)) for k in "wb"]
    if set(arrays) != set(names) or not isinstance(acts, list) \
            or len(acts) != len(tags):
        raise ContainerError(f"expected arrays {names} and one activation each")
    layers = [_layer(i, arrays[f"w{i}"], arrays[f"b{i}"], gens, acts[i])
              for i, gens in enumerate(tags)]
    rng = np.random.default_rng(0)
    try:
        rng.bit_generator.state = meta["rng_state"]
    except (TypeError, ValueError, KeyError, OverflowError) as e:
        raise ContainerError(f"bad generator state: {e!r}") from e
    net = PlasticNetwork(layers, tags[:-1], tags[-1], task=meta["task"], rng=rng,
                         freeze_scope=meta["freeze_scope"])
    problems = net.check_masks()
    if problems:
        raise ContainerError(f"model fails the structural audit: {problems}")
    return net
