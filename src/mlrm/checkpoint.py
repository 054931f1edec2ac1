"""Binary checkpoint format for parameters, optimizer moments and configs.

Layout, all integers little-endian:

    magic   8 bytes  b"MLRMCKPT"
    version u32      currently 1
    count   u32      number of array records
    records          name_len u32, name bytes (UTF-8),
                     rank u32, dims u32 * rank,
                     payload float64 LE, row-major
    trailer          UTF-8 JSON to end of file:
                     {"model": ..., "loss": ..., "optim": ..., "run": ...,
                      "step": int, "vocab": [tokens]}

Optimizer moments travel as ordinary records under the reserved
prefixes "adam.m." / "adam.v.", the shared step counter as the rank-0
record "adam.t", which every checkpoint has and which equals "step".
Frozen-or-not is not stored per record; it is reconstructed from the
model config on load.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
import uuid

import numpy as np

from .errors import FormatError

MAGIC = b"MLRMCKPT"
VERSION = 1

_M_PREFIX = "adam.m."
_V_PREFIX = "adam.v."
_T_NAME = "adam.t"
# every trailer key with the JSON type its value must have
TRAILER_KEYS = {"model": dict, "loss": dict, "optim": dict, "run": dict,
                "step": int, "vocab": list}


@contextlib.contextmanager
def atomic_write(path):
    """Binary handle whose bytes reach ``path`` only if the block completes.

    They go to a new file beside ``path``, which is synced to disk and
    then replaces it in one ``os.replace``. On any exception the new file
    is removed and an earlier file at ``path`` stays as it was.
    """
    tmp = f"{os.fspath(path)}.{uuid.uuid4().hex}.tmp"
    try:
        with open(tmp, "xb") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _write_record(fh, name: str, array: np.ndarray) -> None:
    raw = name.encode("utf-8")
    fh.write(struct.pack("<I", len(raw)))
    fh.write(raw)
    fh.write(struct.pack("<I", array.ndim))
    for dim in array.shape:
        fh.write(struct.pack("<I", dim))
    fh.write(np.ascontiguousarray(array, dtype="<f8").tobytes())


def _read_exact(fh, n: int, what: str) -> bytes:
    # checked before reading, so a corrupt length or shape cannot make the
    # read allocate more than the file holds
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > left:
        raise FormatError(f"checkpoint truncated: {what} needs {n} bytes, {left} are left")
    return fh.read(n)


def _read_record(fh) -> tuple[str, np.ndarray]:
    (name_len,) = struct.unpack("<I", _read_exact(fh, 4, "record name length"))
    try:
        name = _read_exact(fh, name_len, "record name").decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"checkpoint record name is not UTF-8 ({exc})") from None
    (rank,) = struct.unpack("<I", _read_exact(fh, 4, f"rank of {name}"))
    shape = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank, f"dims of {name}"))
    payload = _read_exact(fh, 8 * math.prod(shape), f"payload of {name}")
    try:
        data = np.frombuffer(payload, dtype="<f8").reshape(shape).astype(np.float64)
    except ValueError as exc:  # more dimensions than numpy supports
        raise FormatError(f"checkpoint record {name!r} of rank {rank}: {exc}") from None
    return name, data


def save_checkpoint(path, params, moments: dict,
                    step: int, configs: dict, vocab_tokens: list[str]) -> None:
    """``moments`` is {"m": {name: array}, "v": {name: array}, "t": int}."""
    records = [(name, params[name].data) for name in sorted(params)]
    records += [(_M_PREFIX + name, moments["m"][name]) for name in sorted(moments["m"])]
    records += [(_V_PREFIX + name, moments["v"][name]) for name in sorted(moments["v"])]
    records.append((_T_NAME, np.asarray(float(moments["t"]))))
    trailer = dict(configs, step=int(step), vocab=list(vocab_tokens))
    with atomic_write(path) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(records)))
        for name, array in records:
            _write_record(fh, name, array)
        fh.write(json.dumps(trailer, separators=(",", ":")).encode("utf-8"))


def load_checkpoint(path):
    """Returns (arrays, moments, step, configs, vocab_tokens).

    ``arrays`` maps parameter name to ndarray; turning them back into
    live tensors (with the right requires_grad) is the caller's job
    because freezing depends on the model config. ``moments`` is as
    ``save_checkpoint`` takes it; its "t" is the checkpoint's ``step``.
    """
    with open(path, "rb") as fh:
        if _read_exact(fh, 8, "magic") != MAGIC:
            raise FormatError(f"{path}: not a checkpoint (bad magic)")
        version, count = struct.unpack("<II", _read_exact(fh, 8, "header"))
        if version != VERSION:
            raise FormatError(f"{path}: unsupported checkpoint version {version}")
        arrays: dict[str, np.ndarray] = {}
        for _ in range(count):
            name, data = _read_record(fh)
            if name in arrays:
                raise FormatError(f"{path}: duplicate record {name!r}")
            arrays[name] = data
        try:
            trailer = json.loads(fh.read().decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise FormatError(f"{path}: bad config trailer ({exc})") from None

    if not isinstance(trailer, dict):
        raise FormatError(f"{path}: config trailer is not a JSON object")
    keys, want = set(trailer), set(TRAILER_KEYS)
    if keys != want:
        raise FormatError(f"{path}: config trailer lacks keys {sorted(want - keys)}, "
                          f"has unknown keys {sorted(keys - want)}")
    for key, kind in TRAILER_KEYS.items():
        if not isinstance(trailer[key], kind) or isinstance(trailer[key], bool):
            raise FormatError(f"{path}: config trailer {key!r} is not a {kind.__name__}")
    if not all(isinstance(token, str) for token in trailer["vocab"]):
        raise FormatError(f"{path}: config trailer 'vocab' is not a list of strings")

    step = trailer.pop("step")
    if step < 0:
        raise FormatError(f"{path}: checkpoint step {step} is negative")
    if _T_NAME not in arrays:
        raise FormatError(f"{path}: checkpoint has no optimizer state ({_T_NAME!r} record)")
    t = arrays.pop(_T_NAME)
    if t.shape != () or t != step:
        raise FormatError(f"{path}: optimizer step {t} is not the checkpoint step {step}")
    moments = {"m": {k[len(_M_PREFIX):]: a for k, a in arrays.items() if k.startswith(_M_PREFIX)},
               "v": {k[len(_V_PREFIX):]: a for k, a in arrays.items() if k.startswith(_V_PREFIX)},
               "t": step}
    plain = {k: a for k, a in arrays.items() if not k.startswith((_M_PREFIX, _V_PREFIX))}
    vocab_tokens = trailer.pop("vocab")
    return plain, moments, step, trailer, vocab_tokens
