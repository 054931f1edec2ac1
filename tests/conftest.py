import errno
import io
import json
import struct

import pytest

from mlrm import checkpoint


class DiskFull(io.FileIO):
    """A file that takes ``allowed`` writes, then fails as a full disk does."""

    allowed = 1
    writes = 0

    def write(self, b):
        self.writes += 1
        if self.writes > self.allowed:
            raise OSError(errno.ENOSPC, "No space left on device")
        return super().write(b)


@pytest.fixture
def fill_disk(monkeypatch):
    """Call it to make the files that ``checkpoint.atomic_write`` opens
    (checkpoints, embedding tables, reports and manifests) fail once they
    have taken ``writes`` writes (one by default)."""
    def fill(writes=1):
        full = type("DiskFull", (DiskFull,), {"allowed": writes})
        monkeypatch.setattr(checkpoint, "open", full, raising=False)
    return fill


@pytest.fixture
def write_records():
    """Call it as ``write_records(path, records, trailer)`` to write the
    named arrays and the JSON trailer in the checkpoint layout as they
    are, so a test can build a file that ``save_checkpoint`` never would."""
    def write(path, records, trailer):
        with open(path, "wb") as fh:
            fh.write(checkpoint.MAGIC + struct.pack("<II", checkpoint.VERSION, len(records)))
            for name, array in records.items():
                checkpoint._write_record(fh, name, array)
            fh.write(json.dumps(trailer).encode("utf-8"))
    return write
