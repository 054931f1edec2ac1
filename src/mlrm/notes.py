"""Note records, and the one reader and writer of the JSONL dataset files."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import atomic_write
from .errors import DataError


@dataclass
class Note:
    """One item of the corpus: text fields plus a patch-grid image."""

    id: int
    title: str
    topics: list[str]
    content: str
    image: np.ndarray = field(repr=False)  # [patches, patch_dim] float64

    def replace_text(self, title=None, topics=None, content=None) -> "Note":
        return Note(
            id=self.id,
            title=self.title if title is None else title,
            topics=list(self.topics) if topics is None else topics,
            content=self.content if content is None else content,
            image=self.image,
        )


def note_to_row(note: Note) -> dict:
    return {"id": note.id, "title": note.title, "topics": note.topics,
            "content": note.content, "image": note.image.tolist()}


def note_id(row: dict, key: str) -> int:
    """``row[key]`` as a note id: a JSON integer in [0, 2**63)."""
    value = row[key]
    if type(value) is not int or value >= 2**63:  # bool is a subclass of int
        raise DataError(f"{key} must be an int64 note id, got {value!r}")
    if value < 0:
        raise DataError(f"negative note id {value} in {key}")
    return value


def note_from_row(row: dict) -> Note:
    title, topics, content = row["title"], row["topics"], row["content"]
    if not isinstance(title, str) or not isinstance(content, str):
        raise DataError("note title and content must be strings")
    if not isinstance(topics, list) or not all(isinstance(t, str) for t in topics):
        raise DataError("note topics must be a list of strings")
    image = np.asarray(row["image"])
    if image.ndim != 2 or image.dtype.kind not in "iuf" or not np.isfinite(image).all():
        raise DataError("note image must be a 2-D array of finite numbers")
    return Note(id=note_id(row, "id"), title=title, topics=topics, content=content,
                image=image.astype(np.float64, copy=False))


def read_jsonl(path, parse) -> list:
    """``parse(row)`` for each non-blank line of a JSONL file, ``row``
    being the JSON object on that line. A line that is not a UTF-8 JSON
    object, lacks a field or is rejected by ``parse`` raises DataError
    naming ``path:lineno``."""
    records = []
    # surrogateescape turns bytes that are not UTF-8 into lone surrogates,
    # which encode() rejects below, so the error names the right line
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, 1):
            if line.isspace():
                continue
            try:
                if not line.isascii():
                    line.encode("utf-8")
                row = json.loads(line)
                if not isinstance(row, dict):
                    raise DataError("not a JSON object")
                records.append(parse(row))
            except KeyError as missing:
                raise DataError(f"{path}:{lineno}: missing field {missing}") from None
            except (OverflowError, RecursionError, TypeError, ValueError) as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
    return records


def write_jsonl(path, rows) -> None:
    """One compact JSON object per line, written atomically."""
    with atomic_write(path) as fh:
        for row in rows:
            fh.write(json.dumps(row, separators=(",", ":")).encode("utf-8"))
            fh.write(b"\n")


def load_notes(path) -> list[Note]:
    notes = read_jsonl(path, note_from_row)
    if len({n.id for n in notes}) != len(notes):
        raise DataError(f"{path}: duplicate note ids")
    return notes
