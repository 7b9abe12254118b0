"""Versioned binary checkpoints.

Layout (format ``VERSION`` 5, little-endian): the 8 magic bytes, the version
(``<I``), the config hash (``<H`` length + UTF-8), the array count (``<I``),
then one record per array in name order -- name (``<H`` length + UTF-8),
dtype code and ndim (``<BB``), each dimension (``<I``), the C-order data --
and last the JSON metadata blob (``<Q`` length + UTF-8).

Every stateful component exports its state as a nested dict whose ndarray
leaves are arrays and whose other leaves are JSON values. ``split`` turns
such a dict into the file's two parts: each ndarray leaf becomes an array
named by its ``/``-joined key path, and the rest stays nested as metadata.
``join`` puts the two back together. A training run's state has one key per
component: ``param`` (each parameter group's flat buffer, ``param/<group>``),
``opt`` (per optimizer its step count and each group's moments,
``opt/<opt>/<group>/m`` and ``.../v``), ``buffer`` (the replay buffer's
cursor and count; ``buffer/frames``, each frame its live transitions
reference once, in id order; ``buffer/index``, each filled slot's frame ids
into it, ``obs`` then ``next_obs``; and the filled rows of
``buffer/actions``, ``buffer/rewards`` and ``buffer/dones``), ``env`` (step
counter, RNG state, frame stack ``env/stack`` and the task's physical state, whose
ndarray values are arrays such as ``env/state/th``), ``rng`` (the trainer's
RNG streams), ``agg`` (the pending metrics sums and counts, keyed by
``metrics.csv`` column) and ``trainer`` (the loop position: phase, step,
episode counters, evaluations run and the rows written to the phase's
metrics file).
Versions 1-4 had other layouts (version 4 stored the buffer's full
``buffer/obs`` and ``buffer/next_obs`` stacks, version 3 kept the environment
state as JSON lists and its metadata flat); loading one raises
``CheckpointError``.

Arrays are streamed: ``save`` writes each one from its own memory and
``load`` reads each one straight into a fresh ``np.empty`` array, so neither
copies the file or an array through ``bytes``. A load therefore holds at most
one copy of the arrays beside the caller's live state. ``load`` parses and
checks the whole file before returning, so a caller that restores state only
from its result never applies a corrupt or truncated checkpoint.
"""

from __future__ import annotations

import copy
import json
import math
import os
import struct
import tempfile

import numpy as np

MAGIC = b"CURERLCK"
VERSION = 5

_DTYPES = {0: "<f4", 1: "<f8", 2: "<i8", 3: "|u1"}
_DTYPE_CODES = {np.dtype(v): k for k, v in _DTYPES.items()}


class CheckpointError(RuntimeError):
    pass


def split(state: dict, prefix: str = "") -> tuple[dict, dict]:
    """(arrays, meta) of a nested state dict: each ndarray leaf becomes an
    array named by its ``/``-joined key path; every other leaf stays in meta."""
    arrays, meta = {}, {}
    for key, value in state.items():
        if "/" in key:
            raise CheckpointError(f"state key {prefix + key!r} contains '/'")
        if isinstance(value, dict):
            sub_arrays, meta[key] = split(value, f"{prefix}{key}/")
            arrays.update(sub_arrays)
        elif isinstance(value, np.ndarray):
            arrays[prefix + key] = value
        else:
            meta[key] = value
    return arrays, meta


def join(arrays: dict, meta: dict) -> dict:
    """The nested state dict that ``split`` turned into ``arrays`` and ``meta``."""
    state = copy.deepcopy(meta)
    for name, arr in arrays.items():
        *path, leaf = name.split("/")
        node = state
        for key in path:
            node = node.setdefault(key, {})
        node[leaf] = arr
    return state


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
