"""Note records and their JSONL serialization."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

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


def note_to_json(note: Note) -> str:
    return json.dumps(
        {
            "id": note.id,
            "title": note.title,
            "topics": note.topics,
            "content": note.content,
            "image": note.image.tolist(),
        },
        separators=(",", ":"),
    )


def note_from_json(line: str) -> Note:
    row = json.loads(line)
    try:
        title, topics, content = row["title"], row["topics"], row["content"]
        note_id, image = row["id"], row["image"]
    except KeyError as missing:
        raise DataError(f"note record missing field {missing}") from None
    if not isinstance(title, str) or not isinstance(content, str):
        raise DataError("note title and content must be strings")
    if not isinstance(topics, list) or not all(isinstance(t, str) for t in topics):
        raise DataError("note topics must be a list of strings")
    return Note(id=int(note_id), title=title, topics=topics, content=content,
                image=np.asarray(image, dtype=np.float64))


def save_notes(path, notes) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for note in notes:
            fh.write(note_to_json(note))
            fh.write("\n")


def load_notes(path) -> list[Note]:
    notes = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                notes.append(note_from_json(line))
            except (json.JSONDecodeError, TypeError, ValueError) as exc:
                raise DataError(f"{path}:{lineno}: bad note record ({exc})") from None
    ids = [n.id for n in notes]
    if len(set(ids)) != len(ids):
        raise DataError(f"{path}: duplicate note ids")
    if ids and min(ids) < 0:
        raise DataError(f"{path}: negative note id {min(ids)}")
    return notes
