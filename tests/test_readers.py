"""Byte-level fuzzing of the binary and text artifact readers.

Each case takes a small valid checkpoint, ``.emb`` table or
``vocab.txt``, flips bytes in it, cuts it short or appends bytes, and
loads the result. A load must either succeed or raise ``FormatError`` or
``DataError`` (both exit 3 from the CLI); any other exception is a
reader fault.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mlrm.autodiff import Tensor
from mlrm.checkpoint import load_checkpoint, save_checkpoint
from mlrm.errors import DataError, FormatError
from mlrm.model import ModelConfig
from mlrm.prompting import RESERVED, Vocab
from mlrm.retrieval import EmbeddingTable, load_table, save_table
from mlrm.training import LossConfig, OptimConfig, RunSettings, init_state, load_state, save_state

TINY = dict(hidden_text=8, hidden_vision=8, patches=4, patch_dim=4, visual_tokens=2,
            lm_layers=1, lm_heads=2, vision_layers=1, vision_heads=2, connector_layers=1,
            connector_heads=2, ff_mult=1, out_dim=4, mode="notellm2")


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Valid bytes of each artifact and the reader that loads it."""
    root = tmp_path_factory.mktemp("readers")
    vocab = Vocab(list(RESERVED) + ["cafe", "naïve", "tea"])
    vocab.save(root / "vocab.txt")
    cfg = ModelConfig(vocab_size=len(vocab), **TINY)
    state = init_state(cfg, LossConfig(), OptimConfig(), RunSettings(seed=1), vocab)
    save_state(state, root / "ckpt.mlrm")
    vectors = np.random.default_rng(0).normal(size=(3, 4))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    save_table(root / "t.emb", EmbeddingTable(ids=[4, 0, 9], vectors=vectors))
    return {"checkpoint": ((root / "ckpt.mlrm").read_bytes(), load_state),
            "table": ((root / "t.emb").read_bytes(), load_table),
            "vocab": ((root / "vocab.txt").read_bytes(), Vocab.load)}


@st.composite
def corruption(draw, size):
    """A list of edits, applied in turn: (flip, position, xor mask),
    (truncate, length) or (append, bytes). Positions favour the header
    and the tail, where the structure lives; the rest is payload."""
    edits = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["flip", "truncate", "append"]))
        if kind == "flip":
            at = draw(st.one_of(st.integers(0, min(size, 64) - 1),
                                st.integers(max(0, size - 512), size - 1),
                                st.integers(0, size - 1)))
            edits.append((kind, at, draw(st.integers(1, 255))))
        elif kind == "truncate":
            edits.append((kind, draw(st.integers(0, size - 1))))
        else:
            edits.append((kind, draw(st.binary(min_size=1, max_size=16))))
    return edits


def corrupt(raw: bytes, edits) -> bytes:
    data = bytearray(raw)
    for kind, *args in edits:
        if kind == "flip":
            at, mask = args
            if at < len(data):
                data[at] ^= mask
        elif kind == "truncate":
            del data[args[0]:]
        else:
            data += args[0]
    return bytes(data)


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), name=st.sampled_from(["checkpoint", "table", "vocab"]))
def test_corrupt_artifacts_load_or_raise_format_or_data_error(artifacts, tmp_path, data, name):
    raw, reader = artifacts[name]
    path = tmp_path / name
    path.write_bytes(corrupt(raw, data.draw(corruption(len(raw)), label="edits")))
    try:
        reader(path)
    except (FormatError, DataError):
        pass


@pytest.mark.parametrize("entry", [{"x": 1}, 5, None, ["tea"]])
def test_checkpoint_vocabulary_of_non_strings_is_format_error(artifacts, tmp_path, entry):
    # one entry after the reserved tokens is not a token: a dict made the
    # Vocab raise TypeError, and 5 loaded as a token
    path = tmp_path / "ckpt.mlrm"
    path.write_bytes(artifacts["checkpoint"][0])
    arrays, moments, step, configs, vocab = load_checkpoint(path)
    vocab[len(RESERVED)] = entry
    save_checkpoint(path, {k: Tensor(a) for k, a in arrays.items()}, moments, step,
                    configs, vocab)
    with pytest.raises(FormatError, match="config trailer 'vocab' is not a list of strings"):
        load_state(path)


def test_corruption_edits():
    assert corrupt(b"abcd", [("flip", 1, 0x01), ("truncate", 3), ("append", b"xy")]) == b"accxy"
    # a flip past a truncation is a no-op
    assert corrupt(b"abcd", [("truncate", 2), ("flip", 3, 0xff)]) == b"ab"
