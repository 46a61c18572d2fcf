"""Minimal binary container: magic, JSON header, raw arrays.

Layout: an 8-byte magic, an 8-byte big-endian header length, a UTF-8
JSON header, then each array's C-order bytes back to back. The header
records array names, dtypes and shapes plus a free-form ``meta`` dict.
Only a small dtype whitelist is accepted so a hostile file cannot
smuggle object arrays in.
"""

import json
import math
import os
import struct

import numpy as np

HEADER_STRUCT = struct.Struct(">Q")
ALLOWED_DTYPES = ("float64", "int64", "uint8")


class ContainerError(ValueError):
    """The file is not a valid container of the expected kind."""


def write_container(path, magic, meta, arrays):
    """Write ``arrays`` (an ordered name -> ndarray dict) under ``magic``."""
    if len(magic) != 8:
        raise ContainerError("magic must be exactly 8 bytes")
    entries = []
    blobs = []
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        if arr.dtype.name not in ALLOWED_DTYPES:
            raise ContainerError(f"dtype {arr.dtype.name} not allowed in container")
        entries.append({"name": name, "dtype": arr.dtype.name,
                        "shape": list(arr.shape)})
        blobs.append(arr.tobytes())
    header = json.dumps({"meta": meta, "arrays": entries},
                        sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(magic)
        f.write(HEADER_STRUCT.pack(len(header)))
        f.write(header)
        for blob in blobs:
            f.write(blob)


def _entry(entry):
    """``(name, dtype, shape)`` of one header array entry, validated."""
    if not isinstance(entry, dict) or not isinstance(entry.get("name"), str) \
            or entry.get("dtype") not in ALLOWED_DTYPES \
            or not isinstance(entry.get("shape"), list) \
            or not all(type(s) is int and s >= 0 for s in entry["shape"]):
        raise ContainerError(f"bad array entry {entry!r:.80}: need name, dtype, dims")
    return entry["name"], entry["dtype"], tuple(entry["shape"])


def read_container(path, magic):
    """Read a container written by ``write_container``; returns (meta, arrays).

    Every header fault, and any length that runs past the end of the
    file, raises ``ContainerError``.
    """
    with open(path, "rb") as f:
        got = f.read(8)
        if got != magic:
            raise ContainerError(
                f"bad magic: expected {magic!r}, found {got!r}")
        raw_len = f.read(8)
        if len(raw_len) != 8:
            raise ContainerError("truncated container header length")
        (header_len,) = HEADER_STRUCT.unpack(raw_len)
        remaining = os.fstat(f.fileno()).st_size - 16
        if header_len > remaining:
            raise ContainerError("truncated container header")
        try:
            header = json.loads(f.read(header_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise ContainerError(f"unreadable container header: {e}") from e
        if not isinstance(header, dict) or not isinstance(header.get("meta"), dict) \
                or not isinstance(header.get("arrays"), list):
            raise ContainerError("header needs a meta object and an arrays list")
        remaining -= header_len
        arrays = {}
        for entry in header["arrays"]:
            name, dtype, shape = _entry(entry)
            size = math.prod(shape) * np.dtype(dtype).itemsize
            if size > remaining:
                raise ContainerError(f"truncated array {name!r}")
            remaining -= size
            try:
                arrays[name] = np.frombuffer(
                    f.read(size), dtype=dtype).reshape(shape).copy()
            except ValueError as e:  # a zero-size shape numpy cannot hold
                raise ContainerError(f"array {name!r}: {e}") from e
        return header["meta"], arrays
