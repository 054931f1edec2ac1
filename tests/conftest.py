import errno
import io

import pytest

from mlrm import checkpoint


class DiskFull(io.FileIO):
    """A file that takes one write, then fails as a full disk does."""

    writes = 0

    def write(self, b):
        self.writes += 1
        if self.writes > 1:
            raise OSError(errno.ENOSPC, "No space left on device")
        return super().write(b)


@pytest.fixture
def fill_disk(monkeypatch):
    """Call it to make the files that ``checkpoint.atomic_write`` opens
    (checkpoints and embedding tables) fail after their first write."""
    return lambda: monkeypatch.setattr(checkpoint, "open", DiskFull, raising=False)
