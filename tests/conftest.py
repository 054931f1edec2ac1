import errno
import io

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
