"""Word-level tokenization, the shared vocabulary, and prompt assembly.

Prompts render a note as a literal token sequence shaped like a small
dict: the image field holds a single placeholder token that the model
later replaces with spliced visual rows, and the sequence always ends
with the instruction to compress the note into one word followed by an
opening quote. The hidden state at that final quote is where the
compressed representation is read.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .checkpoint import atomic_write
from .errors import ConfigError, DataError, LayoutError
from .notes import Note

PAD, UNK, IMG, IMG_EMB = "<PAD>", "<UNK>", "<IMG>", "<IMG_EMB>"
# Placeholders first, then the quote characters the templates rely on.
RESERVED = [PAD, UNK, IMG, IMG_EMB, '"', "'"]
PAD_ID, UNK_ID, IMG_ID, IMG_EMB_ID = 0, 1, 2, 3

MAX_TITLE_WORDS = 20
MAX_CONTENT_WORDS = 80
MAX_PROMPT_TOKENS = 256

SHORT_NOTE_TOKENS = 50   # strictly below: short
LONG_NOTE_TOKENS = 165   # strictly above: long

_TOKEN_RE = re.compile(r"\w+|[^\w\s]", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Split into words and single punctuation marks."""
    return _TOKEN_RE.findall(text)


def join_topics(topics) -> str:
    return ", ".join(topics)


def truncate_note(note: Note) -> Note:
    """Clamp the title to 20 words and the content to 80; idempotent."""
    title_words = note.title.split()
    content_words = note.content.split()
    return note.replace_text(
        title=" ".join(title_words[:MAX_TITLE_WORDS]),
        content=" ".join(content_words[:MAX_CONTENT_WORDS]),
    )


def note_tokens(note: Note) -> list[str]:
    """Tokens of the fields the prompts consume (untruncated), in order."""
    return tokenize(note.title) + tokenize(join_topics(note.topics)) + tokenize(note.content)


def length_class(note: Note) -> str:
    n = len(note_tokens(note))
    if n < SHORT_NOTE_TOKENS:
        return "short"
    if n > LONG_NOTE_TOKENS:
        return "long"
    return "medium"


class Vocab:
    """Token <-> id table with fixed reserved prefix.

    Persisted as one token per line; the line number is the id, reserved
    tokens occupy the first lines and the rest is sorted.
    """

    def __init__(self, tokens: list[str]):
        if tokens[: len(RESERVED)] != RESERVED:
            raise DataError("vocabulary must start with the reserved tokens")
        self.tokens = list(tokens)
        self.index = {tok: i for i, tok in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise DataError("vocabulary contains duplicate tokens")

    def __len__(self) -> int:
        return len(self.tokens)

    @classmethod
    def build(cls, texts) -> "Vocab":
        """Collect every token of the corpus plus the template literals."""
        seen = set()
        for text in texts:
            seen.update(tokenize(text))
        seen.update(TEMPLATE_TOKENS)
        seen.difference_update(RESERVED)
        return cls(RESERVED + sorted(seen))

    def encode(self, tokens) -> list[int]:
        return [self.index.get(tok, UNK_ID) for tok in tokens]

    def save(self, path) -> None:
        with atomic_write(path) as fh:
            fh.write("".join(tok + "\n" for tok in self.tokens).encode("utf-8"))

    @classmethod
    def load(cls, path) -> "Vocab":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                tokens = [line.rstrip("\n") for line in fh]
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: vocabulary is not UTF-8 ({exc})") from None
        while tokens and tokens[-1] == "":
            tokens.pop()
        if len(tokens) < len(RESERVED):
            raise DataError(f"{path}: vocabulary too small to hold reserved tokens")
        return cls(tokens)


@dataclass(frozen=True)
class PromptLayout:
    """Tokenized prompt plus the positions the model needs.

    ``img_slot`` is the index of the image placeholder in the raw token
    sequence; ``img_emb_pos`` is the index of the in-context visual
    compressed-word token (None for single-segment prompts). The
    compressed representation is always read at the final position.
    """

    token_ids: tuple[int, ...]
    img_slot: int
    img_emb_pos: int | None = None

    def __post_init__(self):
        ids = self.token_ids
        if len(ids) < 3:
            raise LayoutError(f"prompt needs at least 3 tokens, got {len(ids)}")
        if ids.count(IMG_ID) != 1 or ids[self.img_slot] != IMG_ID:
            raise LayoutError("prompt must contain exactly one image placeholder at img_slot")
        if self.img_slot >= len(ids) - 1:
            raise LayoutError("image placeholder may not be the final token")
        if self.img_emb_pos is not None:
            if not (self.img_slot < self.img_emb_pos < len(ids) - 1):
                raise LayoutError("visual compressed word must sit between the image "
                                  "placeholder and the final token")

    @property
    def length(self) -> int:
        return len(self.token_ids)

    @property
    def compressed_pos(self) -> int:
        return len(self.token_ids) - 1


# Template literals, written out token by token so the rendering is
# unambiguous (the tokenizer never sees the placeholder strings).
_T_FIELD_OPEN = ["Note", "content", ":", "{"]
_T_INSTRUCTION = ["Compress", "this", "note", "into", "one", "word", ":", '"']


def _key(name: str) -> list[str]:
    return ["'", name, "'", ":"]

TEMPLATE_TOKENS = sorted(
    set(_T_FIELD_OPEN + _T_INSTRUCTION + _key("image") + _key("title")
        + _key("topic") + _key("content") + ["}", ",", "."])
)


def _text_fields(note: Note, vocab: Vocab) -> tuple[list[int], list[int], list[int]]:
    note = truncate_note(note)
    return (vocab.encode(tokenize(note.title)),
            vocab.encode(tokenize(join_topics(note.topics))),
            vocab.encode(tokenize(note.content)))


def build_basic_prompt(note: Note, vocab: Vocab) -> PromptLayout:
    """Single segment: image and text fields in one dict rendering."""
    title, topics, content = _text_fields(note, vocab)
    enc = vocab.encode
    ids = (enc(_T_FIELD_OPEN) + enc(_key("image")) + [IMG_ID]
           + enc([","]) + enc(_key("title")) + title
           + enc([","]) + enc(_key("topic")) + topics
           + enc([","]) + enc(_key("content")) + content
           + enc(["}", "."]) + enc(_T_INSTRUCTION))
    return PromptLayout(tuple(ids), img_slot=len(_T_FIELD_OPEN) + len(_key("image")))


def build_micl_prompt(note: Note, vocab: Vocab) -> PromptLayout:
    """Two segments: compress the image alone, then the text fields.

    The first segment ends with a quoted visual compressed-word token;
    the hidden state just before it is the visual representation.
    """
    title, topics, content = _text_fields(note, vocab)
    enc = vocab.encode
    img_slot = len(_T_FIELD_OPEN) + len(_key("image"))
    first = (enc(_T_FIELD_OPEN) + enc(_key("image")) + [IMG_ID]
             + enc(["}", ","]) + enc(_T_INSTRUCTION))
    img_emb_pos = len(first)
    first = first + [IMG_EMB_ID] + enc(['"', "."])
    second = (enc(_T_FIELD_OPEN) + enc(_key("title")) + title
              + enc([","]) + enc(_key("topic")) + topics
              + enc([","]) + enc(_key("content")) + content
              + enc(["}", "."]) + enc(_T_INSTRUCTION))
    return PromptLayout(tuple(first + second), img_slot=img_slot, img_emb_pos=img_emb_pos)


def build_prompt(note: Note, vocab: Vocab, use_micl: bool) -> PromptLayout:
    return build_micl_prompt(note, vocab) if use_micl else build_basic_prompt(note, vocab)


def check_prompt_budget(layout: PromptLayout) -> None:
    """Data generation rejects notes whose prompt exceeds the budget."""
    if layout.length > MAX_PROMPT_TOKENS:
        raise ConfigError(
            f"prompt of {layout.length} tokens exceeds the {MAX_PROMPT_TOKENS}-token budget")
