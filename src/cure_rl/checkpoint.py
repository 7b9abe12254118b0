"""Versioned binary checkpoints.

Layout (format ``VERSION`` 3, little-endian): the 8 magic bytes, the version
(``<I``), the config hash (``<H`` length + UTF-8), the array count (``<I``),
then one record per array in name order -- name (``<H`` length + UTF-8),
dtype code and ndim (``<BB``), each dimension (``<I``), the C-order data --
and last the JSON metadata blob (``<Q`` length + UTF-8: RNG states, counters,
scalars).

A training run stores each parameter group's flat buffer as ``param/<group>``
and each optimizer's moments as ``opt/<opt>/<group>/m`` and ``.../v``, one
pair per group it steps; then the replay buffer's filled rows
(``buffer/<field>``) and the environment's frame stack (``env/stack``).
Its metadata holds the phase, its step and its loop ``mode`` (``random``,
``cure`` or ``mixed``), which ``train`` refuses to resume in another mode, and
the pending metrics sums and counts (``agg``) keyed by ``metrics.csv`` column.
Version 1 stored one array per parameter tensor, and version 2 had no
``mode`` entry and other ``agg`` keys; neither is read.

Arrays are streamed: ``save`` writes each one from its own memory and
``load`` reads each one straight into a fresh ``np.empty`` array, so neither
copies the file or an array through ``bytes``. A load therefore holds at most
one copy of the arrays beside the caller's live state. ``load`` parses and
checks the whole file before returning, so a caller that restores state only
from its result never applies a corrupt or truncated checkpoint.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile

import numpy as np

MAGIC = b"CURERLCK"
VERSION = 3

_DTYPES = {0: "<f4", 1: "<f8", 2: "<i8", 3: "|u1"}
_DTYPE_CODES = {np.dtype(v): k for k, v in _DTYPES.items()}


class CheckpointError(RuntimeError):
    pass


def save(path: str, config_hash: str, arrays: dict, meta: dict):
    """Atomically write a checkpoint (temp file + rename)."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".ckpt.tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<I", VERSION))
            hash_bytes = config_hash.encode()
            f.write(struct.pack("<H", len(hash_bytes)))
            f.write(hash_bytes)
            f.write(struct.pack("<I", len(arrays)))
            for name in sorted(arrays):
                arr = np.asarray(arrays[name])
                code = _DTYPE_CODES.get(arr.dtype)
                if code is None:
                    raise CheckpointError(
                        f"{path}: array {name!r} has dtype {arr.dtype}; a checkpoint "
                        f"stores only {', '.join(str(d) for d in _DTYPE_CODES)}")
                name_b = name.encode()
                f.write(struct.pack("<H", len(name_b)))
                f.write(name_b)
                f.write(struct.pack("<BB", code, arr.ndim))
                for d in arr.shape:
                    f.write(struct.pack("<I", d))
                f.write(np.ascontiguousarray(arr).reshape(-1).view(np.uint8))
            meta_b = json.dumps(meta, sort_keys=True).encode()
            f.write(struct.pack("<Q", len(meta_b)))
            f.write(meta_b)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _Reader:
    """Reads a checkpoint's fields in order from an open file.

    Every read is checked against the file's size first, so a corrupt length
    or shape raises instead of allocating, and a short read raises too.
    """

    def __init__(self, f, path: str):
        self.f = f
        self.path = path
        self.size = os.fstat(f.fileno()).st_size
        self.pos = 0

    def _advance(self, n: int):
        if self.pos + n > self.size:
            raise CheckpointError(f"{self.path}: truncated checkpoint")
        self.pos += n

    def take(self, n: int) -> bytes:
        self._advance(n)
        out = self.f.read(n)
        if len(out) != n:
            raise CheckpointError(f"{self.path}: truncated checkpoint")
        return out

    def text(self, n: int, what: str) -> str:
        try:
            return self.take(n).decode()
        except UnicodeDecodeError as e:
            raise CheckpointError(f"{self.path}: corrupt {what}: {e}") from e

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, dtype: np.dtype, shape: tuple) -> np.ndarray:
        nbytes = math.prod(shape) * dtype.itemsize  # Python ints: no overflow on corrupt dims
        self._advance(nbytes)
        arr = np.empty(shape, dtype=dtype)
        if self.f.readinto(arr.reshape(-1).view(np.uint8)) != nbytes:
            raise CheckpointError(f"{self.path}: truncated checkpoint")
        return arr


def load(path: str, expected_hash: str | None = None):
    """Read and validate a checkpoint; returns (arrays, meta, config_hash)."""
    with open(path, "rb") as f:
        r = _Reader(f, path)
        if r.take(len(MAGIC)) != MAGIC:
            raise CheckpointError(f"{path}: bad magic bytes (not a checkpoint)")
        (version,) = r.unpack("<I")
        if version != VERSION:
            raise CheckpointError(f"{path}: format version {version}, expected {VERSION}")
        (hash_len,) = r.unpack("<H")
        file_hash = r.text(hash_len, "config hash")
        if expected_hash is not None and file_hash != expected_hash:
            raise CheckpointError(
                f"{path}: config hash mismatch (checkpoint {file_hash[:12]}..., "
                f"current config {expected_hash[:12]}...)")
        (n_arrays,) = r.unpack("<I")
        arrays = {}
        for _ in range(n_arrays):
            (name_len,) = r.unpack("<H")
            name = r.text(name_len, "array name")
            code, ndim = r.unpack("<BB")
            if code not in _DTYPES:
                raise CheckpointError(f"{path}: unknown dtype code {code} for {name!r}")
            shape = r.unpack(f"<{ndim}I")
            arrays[name] = r.array(np.dtype(_DTYPES[code]), shape)
        (meta_len,) = r.unpack("<Q")
        try:
            meta = json.loads(r.text(meta_len, "metadata block"))
        except json.JSONDecodeError as e:
            raise CheckpointError(f"{path}: corrupt metadata block: {e}") from e
        if r.pos != r.size:
            raise CheckpointError(f"{path}: {r.size - r.pos} trailing bytes")
    return arrays, meta, file_hash
