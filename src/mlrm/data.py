"""Synthetic corpus generation, click-log co-occurrence and batching.

The synthetic world is built from clusters that own disjoint word pools
and image prototypes, each cluster split into subtopics with their own
detail words and image offsets. Users browse one (cluster, subtopic)
neighborhood, so the click log links notes that share fine-grained
vocabulary and imagery; with full modality correlation the mined pairs
are almost entirely intra-cluster. A training batch is a list of note
ids holding its pairs one after another: query, related, query, ...;
``make_batches`` packs an epoch's batches one at a time as they are read.
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .checkpoint import atomic_write
from .errors import ConfigError, DataError
from .notes import Note, note_id, note_to_row, read_jsonl, write_jsonl
from .prompting import Vocab, build_micl_prompt, check_prompt_budget, join_topics


@dataclass(frozen=True)
class BehaviorEvent:
    """One click: the user saw ``viewed`` and clicked through to ``clicked``."""

    user: int
    viewed: int
    clicked: int


@dataclass(frozen=True)
class Pair:
    query: int
    related: int
    score: float


@dataclass
class PairConfig:
    """Co-occurrence filtering: keep lower < score < upper, then the top
    ``per_query`` related notes per query, ties broken by ascending note id."""

    lower: float = 0.01
    upper: float = 30.0
    per_query: int = 3

    def __post_init__(self):
        if not (0 <= self.lower < self.upper):
            raise ConfigError(f"pair score bounds must satisfy 0 <= lower < upper, "
                              f"got ({self.lower}, {self.upper})")
        if self.per_query < 1:
            raise ConfigError("per_query must be at least 1")


def cooccurrence(events: list[BehaviorEvent]) -> dict[tuple[int, int], float]:
    """Directional co-occurrence score for every observed (viewed, clicked).

    Each user contributes 1 / (number of distinct notes they clicked over
    the whole log) to every ordered pair they produced, at most once per
    pair. Contributions are summed with fsum, which is correctly rounded,
    so the result does not depend on event order.
    """
    clicks_per_user: dict[int, set[int]] = {}
    for e in events:
        clicks_per_user.setdefault(e.user, set()).add(e.clicked)
    weight = {u: 1.0 / len(c) for u, c in clicks_per_user.items()}

    contributors: dict[tuple[int, int], set[int]] = {}
    for e in events:
        contributors.setdefault((e.viewed, e.clicked), set()).add(e.user)

    return {
        pair: math.fsum(weight[u] for u in users)
        for pair, users in contributors.items()
    }


def build_pairs(events: list[BehaviorEvent], cfg: PairConfig) -> list[Pair]:
    """Mine training pairs from the click log.

    Scores outside the open interval (lower, upper) are treated as
    outliers and dropped; each query keeps its ``per_query`` best
    related notes. Output is sorted by (query, descending score, related id).
    """
    scores = cooccurrence(events)
    by_query: dict[int, list[tuple[float, int]]] = {}
    for (a, b), s in scores.items():
        if a == b:
            continue  # degenerate self-click, useless as a training pair
        if cfg.lower < s < cfg.upper:
            by_query.setdefault(a, []).append((s, b))
    pairs: list[Pair] = []
    for query in sorted(by_query):
        ranked = sorted(by_query[query], key=lambda sb: (-sb[0], sb[1]))
        pairs.extend(Pair(query, b, s) for s, b in ranked[:cfg.per_query])
    return pairs


def _pair_from_row(row: dict) -> Pair:
    query, related, score = note_id(row, "query"), note_id(row, "related"), row["score"]
    if query == related:
        raise DataError(f"pair of note {query} with itself")
    if type(score) not in (int, float) or not math.isfinite(score):
        raise DataError(f"pair score must be a finite number, got {score!r}")
    return Pair(query, related, float(score))


def load_pairs(path) -> list[Pair]:
    return read_jsonl(path, _pair_from_row)


def check_pairs(pairs: list[Pair], notes_by_id: dict) -> None:
    """DataError naming the first pair with a note that ``notes_by_id`` lacks."""
    for p in pairs:
        if p.query not in notes_by_id or p.related not in notes_by_id:
            raise DataError(f"pair ({p.query}, {p.related}) references an unknown note")


# ---------------------------------------------------------------------------
# Synthetic corpus


@dataclass
class SyntheticConfig:
    seed: int = 42
    n_notes: int = 2000
    n_clusters: int = 5
    rho: float = 1.0          # chance a note's image follows its text cluster
    subtopics: int = 6        # per cluster
    patches: int = 16
    patch_dim: int = 32
    events_per_note: float = 6.0
    short_fraction: float = 0.1
    long_fraction: float = 0.1

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.n_notes < 2 * self.n_clusters:
            raise ConfigError(f"need at least {2 * self.n_clusters} notes for "
                              f"{self.n_clusters} clusters, got {self.n_notes}")
        if not (0.0 <= self.rho <= 1.0):
            raise ConfigError(f"rho must lie in [0, 1], got {self.rho}")
        for name in ("n_clusters", "subtopics", "patches", "patch_dim"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")


_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


def _word_pool(rng: np.random.Generator, count: int) -> list[str]:
    """Distinct pronounceable pseudo-words in a deterministic shuffle."""
    syllables = [c + v for c in _CONSONANTS for v in _VOWELS]
    words = ["".join(t) for t in itertools.product(syllables, repeat=2)]
    rng.shuffle(words)
    if count > len(words):
        raise ConfigError(f"word pool exhausted: {count} > {len(words)}")
    return words[:count]


def _draw(rng, a: np.ndarray, size=None):
    """``rng.choice(a, size)`` with replacement, without its per-call
    overhead: it draws these same indices and leaves the stream in the
    same state."""
    return a[rng.integers(0, len(a), size)]


def _compose_content(rng, words, n_words: int) -> str:
    """Sentences of 4..8 words; periods attach to the preceding word."""
    out = []
    remaining = n_words
    while remaining > 0:
        n = int(min(remaining, rng.integers(4, 9)))
        sentence = [str(w) for w in _draw(rng, words, n)]
        sentence[-1] += "."
        out.append(" ".join(sentence))
        remaining -= n
    return " ".join(out)


def generate_synthetic(cfg: SyntheticConfig) -> tuple[list[Note], list[BehaviorEvent], dict]:
    """Build notes and a click log; returns (notes, events, meta).

    meta records the hidden cluster/subtopic of every note so tests can
    measure how well the mined pairs respect the latent structure.
    """
    rng = np.random.default_rng(cfg.seed)
    n_groups = cfg.n_clusters * cfg.subtopics

    # the pools are arrays, which _draw indexes
    pool = np.asarray(_word_pool(rng, 40 + cfg.n_clusters * 25 + n_groups * 10))
    filler = pool[:40]
    cursor = 40
    theme = []
    for _ in range(cfg.n_clusters):
        theme.append(pool[cursor:cursor + 25])
        cursor += 25
    detail = []
    for c in range(cfg.n_clusters):
        detail.append([pool[cursor + s * 10: cursor + (s + 1) * 10]
                       for s in range(cfg.subtopics)])
        cursor += cfg.subtopics * 10

    cluster_proto = rng.normal(0.0, 1.0, (cfg.n_clusters, cfg.patches, cfg.patch_dim))
    sub_offset = rng.normal(0.0, 0.45, (cfg.n_clusters, cfg.subtopics, cfg.patches, cfg.patch_dim))

    notes: list[Note] = []
    note_cluster = np.empty(cfg.n_notes, dtype=np.int64)
    note_subtopic = np.empty(cfg.n_notes, dtype=np.int64)
    for nid in range(cfg.n_notes):
        c = int(rng.integers(cfg.n_clusters))
        s = int(rng.integers(cfg.subtopics))
        note_cluster[nid], note_subtopic[nid] = c, s
        words_local = np.concatenate([theme[c], detail[c][s], filler[:10]])

        u = rng.random()
        if u < cfg.short_fraction:
            title_n, topics_n, content_n = int(rng.integers(2, 5)), 1, int(rng.integers(6, 18))
        elif u < cfg.short_fraction + cfg.long_fraction:
            title_n, topics_n, content_n = int(rng.integers(14, 21)), int(rng.integers(6, 9)), \
                int(rng.integers(125, 150))
        else:
            title_n, topics_n, content_n = int(rng.integers(4, 10)), int(rng.integers(2, 4)), \
                int(rng.integers(40, 90))

        title = " ".join([str(w) for w in _draw(rng, detail[c][s], 2)]
                         + [str(w) for w in _draw(rng, words_local, title_n - 2)])
        topics = [str(w) for w in rng.choice(theme[c], topics_n, replace=False)]
        content = _compose_content(rng, words_local, content_n)

        if rng.random() < cfg.rho:
            ic, isub = c, s
        else:
            ic = int(rng.integers(cfg.n_clusters))
            isub = int(rng.integers(cfg.subtopics))
        image = (cluster_proto[ic] + sub_offset[ic, isub]
                 + rng.normal(0.0, 0.3, (cfg.patches, cfg.patch_dim)))
        notes.append(Note(id=nid, title=title, topics=topics, content=content, image=image))

    # Browsing: users stick to one subtopic, occasionally wander.
    groups: dict[tuple[int, int], list[int]] = {}
    for nid in range(cfg.n_notes):
        groups.setdefault((int(note_cluster[nid]), int(note_subtopic[nid])), []).append(nid)
    members = {key: np.asarray(ids) for key, ids in groups.items()}
    cluster_members = [np.flatnonzero(note_cluster == c) for c in range(cfg.n_clusters)]

    events: list[BehaviorEvent] = []
    n_events_target = int(cfg.events_per_note * cfg.n_notes)
    n_users = max(8, cfg.n_notes // 5)
    user = 0
    while len(events) < n_events_target:
        c = int(rng.integers(cfg.n_clusters))
        s = int(rng.integers(cfg.subtopics))
        home = members.get((c, s))
        if home is None:
            home = cluster_members[c]
        n_user_events = int(rng.integers(4, 11))
        for _ in range(n_user_events):
            viewed = int(_draw(rng, home))
            roll = rng.random()
            if roll < 0.91:
                choices = home
            elif roll < 0.99:
                choices = cluster_members[c]
            else:
                choices = None
            clicked = int(_draw(rng, choices)) if choices is not None \
                else int(rng.integers(cfg.n_notes))
            if clicked == viewed:
                clicked = (clicked + 1) % cfg.n_notes
            events.append(BehaviorEvent(user, viewed, clicked))
        user += 1
        if user > 50 * n_users:
            break

    meta = {"cluster": note_cluster.tolist(), "subtopic": note_subtopic.tolist()}
    return notes, events, meta


def build_vocab(notes: list[Note]) -> Vocab:
    texts = []
    for n in notes:
        texts += [n.title, join_topics(n.topics), n.content]
    return Vocab.build(texts)


def generate_dataset(cfg: SyntheticConfig, out_dir, pair_cfg: PairConfig | None = None) -> dict:
    """Generate and persist a full dataset directory.

    Writes notes.jsonl, events.jsonl, pairs.jsonl, vocab.txt and
    meta.json; returns the file map. Every prompt is checked against the
    token budget before anything is written.
    """
    import os

    pair_cfg = pair_cfg or PairConfig()
    notes, events, meta = generate_synthetic(cfg)
    vocab = build_vocab(notes)
    for note in notes:
        # the two-segment prompt is the longest rendering of a note
        check_prompt_budget(build_micl_prompt(note, vocab))
    pairs = build_pairs(events, pair_cfg)

    os.makedirs(out_dir, exist_ok=True)
    files = {name: os.path.join(out_dir, name) for name in
             ("notes.jsonl", "events.jsonl", "pairs.jsonl", "vocab.txt", "meta.json")}
    write_jsonl(files["notes.jsonl"], map(note_to_row, notes))
    write_jsonl(files["events.jsonl"], map(vars, events))
    write_jsonl(files["pairs.jsonl"], map(vars, pairs))
    vocab.save(files["vocab.txt"])
    with atomic_write(files["meta.json"]) as fh:
        fh.write(json.dumps({"config": vars(cfg), "clusters": meta["cluster"],
                             "subtopics": meta["subtopic"]}, separators=(",", ":")).encode())
    return files


# ---------------------------------------------------------------------------
# Batching


def split_pairs(pairs: list[Pair], val_fraction: float, seed: int) -> tuple[list[Pair], list[Pair]]:
    """Withhold a deterministic fraction of pairs for validation."""
    perm = np.random.default_rng([seed, 7919]).permutation(len(pairs))
    n_val = int(round(val_fraction * len(pairs)))
    val_idx = set(perm[:n_val].tolist())
    train = [p for i, p in enumerate(pairs) if i not in val_idx]
    val = [p for i, p in enumerate(pairs) if i in val_idx]
    return train, val


def make_batches(pairs: list[Pair], batch_pairs: int, seed: int, epoch: int) -> Iterator[list[int]]:
    """Shuffle pairs for one epoch and pack duplicate-free batches of
    2 * ``batch_pairs`` note ids, each pair's query right before its
    related note: the row layout ``autodiff.contrastive`` expects.

    A pair whose notes already appear in the open batch is deferred to a
    later batch; each pair is used at most once per epoch. Arguments are
    checked at the call, and each batch is packed as it is read; the first
    ``next`` raises when not even one clash-free batch can be packed.
    """
    if batch_pairs < 1:
        raise ConfigError("batch_pairs must be positive")
    if len(pairs) < batch_pairs:
        raise DataError(f"need at least {batch_pairs} pairs per batch, have {len(pairs)}")
    return _pack_batches(pairs, batch_pairs, seed, epoch)


def _pack_batches(pairs, batch_pairs, seed, epoch):
    order = np.random.default_rng([seed, epoch]).permutation(len(pairs))
    remaining = [pairs[i] for i in order]
    while len(remaining) >= batch_pairs:
        ids: list[int] = []
        used: set[int] = set()
        deferred: list[Pair] = []
        for j, pair in enumerate(remaining):
            if len(ids) == 2 * batch_pairs:
                deferred += remaining[j:]
                break
            if pair.query in used or pair.related in used:
                deferred.append(pair)
            else:
                ids += [pair.query, pair.related]
                used.update((pair.query, pair.related))
        if len(ids) < 2 * batch_pairs:
            if len(remaining) == len(pairs):  # no batch packed yet
                raise DataError("could not assemble a single duplicate-free batch; "
                                "too few distinct notes across the pair list")
            return
        yield ids
        remaining = deferred
