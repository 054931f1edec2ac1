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

Loading checks every record header but leaves the moment payloads on
disk: only an optimizer step needs them, and they hold twice as many
values as the trainable parameters. The first read of a moment loads
them all from the same file, or raises FormatError if the file has been
replaced, rewritten or removed since it was loaded.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import struct
import uuid
from collections.abc import Mapping

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


def _check_left(fh, n: int, what: str) -> None:
    # checked before reading, so a corrupt length or shape cannot make the
    # read allocate more than the file holds
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > left:
        raise FormatError(f"checkpoint truncated: {what} needs {n} bytes, {left} are left")


def _read_exact(fh, n: int, what: str) -> bytes:
    _check_left(fh, n, what)
    return fh.read(n)


def _read_header(fh) -> tuple[str, tuple[int, ...], int]:
    """A record's name, shape and payload size, checked against what the
    file has left; ``fh`` is left at the payload."""
    (name_len,) = struct.unpack("<I", _read_exact(fh, 4, "record name length"))
    try:
        name = _read_exact(fh, name_len, "record name").decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"checkpoint record name is not UTF-8 ({exc})") from None
    (rank,) = struct.unpack("<I", _read_exact(fh, 4, f"rank of {name}"))
    shape = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank, f"dims of {name}"))
    size = 8 * math.prod(shape)
    _check_left(fh, size, f"payload of {name}")
    try:
        np.broadcast_to(0.0, shape)  # allocates nothing
    except ValueError as exc:  # more dimensions than numpy supports
        raise FormatError(f"checkpoint record {name!r} of rank {rank}: {exc}") from None
    return name, shape, size


def _decode(payload: bytes, shape) -> np.ndarray:
    return np.frombuffer(payload, dtype="<f8").reshape(shape).astype(np.float64)


def _identity(fh) -> tuple[int, int, int, int]:
    st = os.fstat(fh.fileno())
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


def _payload_reader(path, identity, records: dict):
    """A call that reads the ``records`` (name -> (offset, shape)) of the
    file loaded as ``path``, once, in one open; a file that is gone or no
    longer has the ``identity`` taken at load is a FormatError."""
    where = os.path.abspath(path)

    @functools.cache
    def read() -> dict[str, np.ndarray]:
        try:
            with open(where, "rb") as fh:
                if _identity(fh) != identity:
                    raise FormatError(f"{path}: checkpoint was replaced or rewritten after "
                                      f"it was loaded; its optimizer state cannot be read")
                arrays = {}
                for name, (offset, shape) in records.items():
                    fh.seek(offset)
                    arrays[name] = _decode(fh.read(8 * math.prod(shape)), shape)
                return arrays
        except FileNotFoundError:
            raise FormatError(f"{path}: checkpoint was removed after it was loaded; "
                              f"its optimizer state cannot be read") from None
    return read


class _Moments(Mapping):
    """One kind of optimizer moment by parameter name. Names and
    ``shapes`` come from the record headers; the first item read loads
    both kinds' payloads (``read``) and every later one returns the same
    arrays, which ``AdamW`` updates in place."""

    def __init__(self, prefix: str, shapes: dict[str, tuple[int, ...]], read):
        self.shapes = shapes
        self._prefix, self._read = prefix, read

    def __getitem__(self, name):
        if name not in self.shapes:
            raise KeyError(name)
        return self._read()[self._prefix + name]

    def __contains__(self, name):  # Mapping's default would read the payloads
        return name in self.shapes

    def __iter__(self):
        return iter(self.shapes)

    def __len__(self):
        return len(self.shapes)


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
    Its "m" and "v" are read-only mappings whose names and ``shapes``
    come from the checked record headers: their payloads are read at the
    first item access, after a check that ``path`` is still the file
    loaded here (FormatError if not).
    """
    with open(path, "rb") as fh:
        if _read_exact(fh, 8, "magic") != MAGIC:
            raise FormatError(f"{path}: not a checkpoint (bad magic)")
        version, count = struct.unpack("<II", _read_exact(fh, 8, "header"))
        if version != VERSION:
            raise FormatError(f"{path}: unsupported checkpoint version {version}")
        identity = _identity(fh)
        arrays: dict[str, np.ndarray] = {}
        deferred: dict[str, tuple[int, tuple[int, ...]]] = {}
        for _ in range(count):
            name, shape, size = _read_header(fh)
            if name in arrays or name in deferred:
                raise FormatError(f"{path}: duplicate record {name!r}")
            if name.startswith((_M_PREFIX, _V_PREFIX)):
                deferred[name] = (fh.tell(), shape)
                fh.seek(size, os.SEEK_CUR)
            else:
                arrays[name] = _decode(fh.read(size), shape)
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
    read = _payload_reader(path, identity, deferred)
    moments = {kind: _Moments(prefix, {k[len(prefix):]: shape for k, (_, shape)
                                       in deferred.items() if k.startswith(prefix)}, read)
               for kind, prefix in (("m", _M_PREFIX), ("v", _V_PREFIX))}
    moments["t"] = step
    vocab_tokens = trailer.pop("vocab")
    return arrays, moments, step, trailer, vocab_tokens
