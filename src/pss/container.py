"""Minimal binary container: magic, JSON header, raw arrays.

Layout: an 8-byte magic, an 8-byte big-endian header length, a UTF-8
JSON header, then each array's C-order bytes back to back. The header
records array names, dtypes and shapes plus a free-form ``meta`` dict.
Every array is float64, the one dtype a model holds; any other is
refused on write and on read, so a hostile file cannot smuggle in an
object array.
"""

import json
import math
import os
import struct

import numpy as np

HEADER_STRUCT = struct.Struct(">Q")
DTYPE = "float64"


class ContainerError(ValueError):
    """The file is not a valid container of the expected kind."""


def write_container(path, magic, meta, arrays):
    """Write ``arrays`` (an ordered name -> ndarray dict) under ``magic``."""
    if len(magic) != 8:
        raise ContainerError("magic must be exactly 8 bytes")
    arrays = {name: np.ascontiguousarray(arr) for name, arr in arrays.items()}
    for name, arr in arrays.items():
        if arr.dtype.name != DTYPE:
            raise ContainerError(f"array {name!r} of dtype {arr.dtype.name}, not {DTYPE}")
    entries = [{"name": name, "dtype": arr.dtype.name, "shape": list(arr.shape)}
               for name, arr in arrays.items()]
    header = json.dumps({"meta": meta, "arrays": entries},
                        sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(magic)
        f.write(HEADER_STRUCT.pack(len(header)))
        f.write(header)
        for arr in arrays.values():
            f.write(arr.reshape(-1).view(np.uint8))


def _entry(entry):
    """``(name, shape)`` of one header array entry, validated."""
    if not isinstance(entry, dict) or not isinstance(entry.get("name"), str) \
            or entry.get("dtype") != DTYPE \
            or not isinstance(entry.get("shape"), list) \
            or not all(type(s) is int and s >= 0 for s in entry["shape"]):
        raise ContainerError(f"bad array entry {entry!r:.80}: need name, dtype {DTYPE}, dims")
    return entry["name"], tuple(entry["shape"])


def read_container(path, magic):
    """Read a container written by ``write_container``; returns (meta, arrays).

    Every header fault, an array named twice, any length that runs past
    the end of the file and any byte after the last array raise
    ``ContainerError``.
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
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
            raise ContainerError(f"unreadable container header: {e}") from e
        if not isinstance(header, dict) or not isinstance(header.get("meta"), dict) \
                or not isinstance(header.get("arrays"), list):
            raise ContainerError("header needs a meta object and an arrays list")
        remaining -= header_len
        arrays = {}
        for entry in header["arrays"]:
            name, shape = _entry(entry)
            if name in arrays:
                raise ContainerError(f"array {name!r} named twice")
            size = math.prod(shape) * np.dtype(DTYPE).itemsize
            if size > remaining:
                raise ContainerError(f"truncated array {name!r}")
            remaining -= size
            try:
                arrays[name] = arr = np.empty(shape, DTYPE)
            except ValueError as e:  # a zero-size shape numpy cannot hold
                raise ContainerError(f"array {name!r}: {e}") from e
            if f.readinto(arr.reshape(-1).view(np.uint8)) != size:
                raise ContainerError(f"truncated array {name!r}")
        if remaining:
            raise ContainerError(f"{remaining} bytes after the last array")
        return header["meta"], arrays
