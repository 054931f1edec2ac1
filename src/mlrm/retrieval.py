"""Embedding tables, exact top-k retrieval, recall slicing and BM25.

Search is exact by design: pools at this scale fit in memory and exact
rankings keep every comparison reproducible. Scores are computed in
float64 from the stored float32 vectors, ties always break toward the
smaller note id, and the query note never ranks in its own list.
"""

from __future__ import annotations

import itertools
import math
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .autodiff import no_grad
from .checkpoint import atomic_write
from .data import Pair, check_pairs
from .errors import ConfigError, DataError, FormatError, NumericError
from .model import ModelConfig, embed_notes
from .notes import Note
from .prompting import Vocab, length_class, note_tokens

MAGIC = b"MLRMEMB1"

SLICES = ("all", "short_query", "short_target", "long_query", "long_target")

# notes per no_grad forward in build_table, and the threads that run
# them: numpy's matmuls and ufuncs and scipy's erf release the GIL, and
# larger chunks on two threads raise peak memory for little speed
CHUNK = 8
WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
          else os.cpu_count() or 1)

BM25_K1 = 1.2
BM25_B = 0.75


@dataclass
class EmbeddingTable:
    ids: np.ndarray        # [n] int64, unique
    vectors: np.ndarray    # [n, dim] float32, unit rows
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)
        self.vectors = np.asarray(self.vectors, dtype=np.float32)
        if self.vectors.ndim != 2 or self.ids.shape != (self.vectors.shape[0],):
            raise DataError(f"table shape mismatch: {self.ids.shape} ids for "
                            f"{self.vectors.shape} vectors")
        if len(np.unique(self.ids)) != len(self.ids):
            raise DataError("embedding table has duplicate note ids")
        if self.ids.size and self.ids.min() < 0:
            raise DataError(f"embedding table has a negative note id {self.ids.min()}")
        if not np.isfinite(self.vectors).all():
            raise DataError("embedding table has a NaN or infinite vector entry")
        self._row = {int(i): r for r, i in enumerate(self.ids)}
        self._f64 = self.vectors.astype(np.float64)  # what every score multiplies

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, note_id: int) -> bool:
        return int(note_id) in self._row

    def vector(self, note_id: int) -> np.ndarray:
        try:
            return self.vectors[self._row[int(note_id)]]
        except KeyError:
            raise DataError(f"note id {note_id} is not in the embedding table") from None

    def scores(self, query_id: int) -> np.ndarray:
        """Cosine of every row with the query's row, aligned with ``ids``."""
        return self._f64 @ self.vector(query_id).astype(np.float64)


def build_table(params, cfg: ModelConfig, vocab: Vocab, notes: list[Note],
                modality: str = "multimodal", *, image_cache: dict | None = None,
                provenance: dict | None = None) -> EmbeddingTable:
    """Embed every note and L2-normalize; row order follows ``notes``.

    Notes go through the model ``CHUNK`` at a time under ``no_grad``, on
    ``WORKERS`` threads that live for this call, so at most
    ``WORKERS * CHUNK`` notes are in flight. A float32 table row's bits
    depend only on its own note, not on its chunk, place or thread. The
    float64 embedding before the cast does not promise that: a note
    alone in its chunk can differ by a few ulps from the same note among
    others. A chunk that fails raises its own error here, the first in
    note order. Chunks fill one ``image_cache`` with disjoint note ids;
    two text-only chunks may both encode the zero image, to the same
    bits, but only once each per encoder.
    """
    if not notes:
        raise DataError("cannot build an embedding table from zero notes")

    def embed_chunk(start: int) -> np.ndarray:
        with no_grad():  # autodiff modes are per thread
            return embed_notes(params, cfg, vocab, notes[start:start + CHUNK],
                               modality=modality, image_cache=image_cache).out_multimodal.data

    with ThreadPoolExecutor(WORKERS) as pool:
        raw = np.concatenate(list(pool.map(embed_chunk, range(0, len(notes), CHUNK))), axis=0)

    norms = np.linalg.norm(raw, axis=1)
    bad = np.flatnonzero(~np.isfinite(norms) | (norms == 0.0))
    if bad.size:
        raise NumericError(f"note {notes[bad[0]].id} embeds to a vector of norm {norms[bad[0]]}")
    unit = (raw / norms[:, None]).astype(np.float32)
    prov = {"mode": cfg.mode, "modality": modality}
    prov.update(provenance or {})
    return EmbeddingTable(ids=np.asarray([n.id for n in notes], dtype=np.int64),
                          vectors=unit, provenance=prov)


def _row_dtype(dim: int) -> np.dtype:
    """One on-disk row: the note id as <u8, then the vector as <f4 * dim."""
    return np.dtype([("id", "<u8"), ("vector", "<f4", (dim,))])


def save_table(path, table: EmbeddingTable) -> None:
    # EmbeddingTable has rejected negative ids, so the <u8 cast cannot wrap
    rows = np.empty(len(table), dtype=_row_dtype(table.dim))
    rows["id"] = table.ids
    rows["vector"] = table.vectors
    with atomic_write(path) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", len(table), table.dim))
        fh.write(rows.tobytes())


def load_table(path) -> EmbeddingTable:
    with open(path, "rb") as fh:
        if fh.read(8) != MAGIC:
            raise FormatError(f"{path}: not an embedding table (bad magic)")
        header = fh.read(8)
        if len(header) != 8:
            raise FormatError(f"{path}: truncated header")
        count, dim = struct.unpack("<II", header)
        # checked before building the row type or reading, so a corrupt
        # header can neither overflow numpy nor allocate past the file
        row_bytes, body = 8 + 4 * dim, os.fstat(fh.fileno()).st_size - fh.tell()
        if row_bytes >= 2**31:
            raise FormatError(f"{path}: header dim {dim} is too large for a table row")
        if count * row_bytes > body:
            raise FormatError(f"{path}: truncated table body: the header claims {count} "
                              f"rows of {row_bytes} bytes, the file holds {body} bytes")
        if count * row_bytes < body:
            raise FormatError(f"{path}: trailing bytes after the table body")
        rows = np.frombuffer(fh.read(body), dtype=_row_dtype(dim))
    return EmbeddingTable(ids=rows["id"].astype(np.int64),
                          vectors=rows["vector"].astype(np.float32))


# ---------------------------------------------------------------------------
# Ranking


def _ranked_ids(scores: np.ndarray, ids: np.ndarray, exclude: int | None = None) -> np.ndarray:
    # ids other than exclude; lexsort's last key is primary: descending score, then ascending id
    if exclude is not None:
        keep = ids != exclude
        scores, ids = scores[keep], ids[keep]
    return ids[np.lexsort((ids, -scores))]


def _rank(scores: np.ndarray, ids: np.ndarray, query_id: int, target_id: int) -> int:
    """1-based rank of the target among ``ids`` other than the query.

    ``scores`` is aligned with ``ids``; a candidate ranks above the
    target when it scores higher, or scores the same with a smaller id.
    """
    if query_id == target_id:
        raise DataError("a note cannot be its own retrieval target")
    hit = np.flatnonzero(ids == target_id)
    if hit.size == 0:
        raise DataError(f"note id {target_id} is not in the pool")
    s_t = scores[hit[0]]
    better = (scores > s_t) | ((scores == s_t) & (ids < target_id))
    return int(np.count_nonzero(better & (ids != query_id))) + 1


def topk(query_vec: np.ndarray, table: EmbeddingTable, k: int,
         exclude: int | None = None) -> np.ndarray:
    """Exact top-k by the float64 product of the stored rows with the query
    (for a row's own vector, ``table.scores``), the ``exclude`` id left out.
    An all-zero query or one with a NaN or infinite entry is a NumericError."""
    pool = len(table) - (1 if exclude is not None and exclude in table else 0)
    if not 1 <= k <= pool:
        raise ConfigError(f"k={k} out of range for a pool of {pool} candidates")
    q = np.asarray(query_vec, dtype=np.float64)
    if not q.any():
        raise NumericError("zero-norm query vector")
    if not np.isfinite(q).all():
        raise NumericError("query vector has a non-finite entry")
    return _ranked_ids(table._f64 @ q, table.ids, exclude)[:k]


def target_rank(table: EmbeddingTable, query_id: int, target_id: int) -> int:
    """1-based rank of the target in the query's ranking of the pool."""
    return _rank(table.scores(query_id), table.ids, int(query_id), int(target_id))


def random_baseline(k: int, pool_size: int) -> float:
    """Chance-level recall: k uniform guesses out of pool-1 candidates."""
    if pool_size < 2:
        raise ConfigError("pool must contain at least two notes")
    return min(k, pool_size - 1) / (pool_size - 1)


# ---------------------------------------------------------------------------
# Pair slices


def slice_pairs(pairs: list[Pair], classes: dict[int, str], kind: str) -> list[Pair]:
    """The pairs of one slice; ``classes`` maps each note id to its
    ``length_class``."""
    if kind not in SLICES:
        raise ConfigError(f"unknown slice {kind!r}, expected one of {SLICES}")
    if kind == "all":
        return list(pairs)
    side, _, end = kind.partition("_")
    return [p for p in pairs
            if classes[p.query if end == "query" else p.related] == side]


# ---------------------------------------------------------------------------
# BM25 baseline


class BM25Index:
    """Okapi BM25 over the concatenated text fields of a note pool.

    The pool is one CSR ``[notes, terms]`` matrix whose entries are the
    per-term BM25 weights, so a query's scores are one sparse mat-vec
    against the indicator vector of its distinct terms.
    """

    def __init__(self, notes: list[Note]):
        if not notes:
            raise DataError("cannot index an empty pool")
        by_id = {n.id: n for n in notes}
        self.ids = np.asarray(sorted(by_id), dtype=np.int64)
        docs = [note_tokens(by_id[nid]) for nid in self.ids.tolist()]
        self._column = {t: j for j, t in enumerate(sorted({t for d in docs for t in d}))}
        n_docs, lengths = len(docs), np.asarray([len(d) for d in docs])
        # one entry per token, which the conversion to CSR sums into term counts
        tf = sparse.csr_matrix(
            (np.ones(lengths.sum()), (np.repeat(np.arange(n_docs), lengths),
                                      [self._column[t] for d in docs for t in d])),
            shape=(n_docs, len(self._column)))
        # math.log, as the formula reads: np.log differs in the last bit for some inputs
        idf = np.asarray([math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
                          for df in np.bincount(tf.indices, minlength=tf.shape[1]).tolist()])
        dl = np.repeat(lengths, np.diff(tf.indptr))
        norm = BM25_K1 * (1.0 - BM25_B + BM25_B * dl / (lengths.sum() / n_docs))
        tf.data = idf[tf.indices] * (tf.data * (BM25_K1 + 1.0)) / (tf.data + norm)
        self._weights = tf

    def scores(self, query: Note) -> np.ndarray:
        """BM25 score of every pool note for the query, aligned with ``ids``."""
        hits = np.zeros(len(self._column))
        hits[[self._column[t] for t in set(note_tokens(query)) if t in self._column]] = 1.0
        return self._weights @ hits

    def rank(self, query: Note) -> np.ndarray:
        """All pool ids except the query's, best first, ties by id."""
        ranked = _ranked_ids(self.scores(query), self.ids, query.id)
        if not ranked.size:
            raise DataError("pool contains no candidates besides the query")
        return ranked


# ---------------------------------------------------------------------------
# Evaluation report


def _subsample(pairs: list[Pair], max_pairs: int | None, seed: int) -> list[Pair]:
    if max_pairs is None or max_pairs >= len(pairs):
        return list(pairs)
    picked = np.random.default_rng([seed, 104729]).choice(
        len(pairs), size=max_pairs, replace=False)
    return [pairs[i] for i in sorted(picked.tolist())]


def _pair_ranks(keys, ids: np.ndarray, scores_of) -> dict:
    """Rank of each (query, target) key, scoring each distinct query once."""
    ranks = {}
    for query, group in itertools.groupby(sorted(keys), key=lambda key: key[0]):
        scores = scores_of(query)
        for _, target in group:
            ranks[query, target] = _rank(scores, ids, query, target)
    return ranks


def _source_report(ranks: dict, subsets: dict, ks) -> dict:
    slices = {}
    for kind, per_seed_pairs in subsets.items():
        per_seed = {k: [] for k in ks}
        for subset in per_seed_pairs:
            hits = [ranks[p.query, p.related] for p in subset]
            for k in ks:
                per_seed[k].append(sum(1 for r in hits if r <= k) / len(hits)
                                   if hits else None)
        recall = {}
        for k in ks:
            values = [v for v in per_seed[k] if v is not None]
            recall[k] = math.fsum(values) / len(values) if values else None
        slices[kind] = {"n_pairs": [len(s) for s in per_seed_pairs], "recall": recall,
                        "per_seed": per_seed}
    return slices


def check_eval_options(ks, max_pairs: int | None, seeds) -> list[int]:
    """The sorted distinct recall cutoffs; ``ConfigError`` unless every
    cutoff and ``max_pairs`` (when given) is at least 1 and every seed is
    non-negative."""
    ks = sorted(set(int(k) for k in ks))
    if not ks or ks[0] < 1:
        raise ConfigError("recall cutoffs must be positive")
    if max_pairs is not None and max_pairs < 1:
        raise ConfigError(f"max_pairs must be positive, got {max_pairs}")
    if min(seeds, default=0) < 0:
        raise ConfigError(f"seeds must be non-negative, got {list(seeds)}")
    return ks


def evaluate(tables: dict[str, EmbeddingTable], pairs: list[Pair],
             notes_by_id: dict[int, Note], ks, *, bm25_pool: list[Note] | None = None,
             seeds=(42,), max_pairs: int | None = None) -> dict:
    """Recall@K per modality table (and optional BM25) per pair slice.

    Every source, the tables in sorted order and then BM25, must rank
    the same notes, or ``ConfigError``. Retrieval is deterministic, so
    distinct seeds only matter when ``max_pairs`` subsamples the pairs;
    reported recalls are means across seeds with per-seed values
    retained. Each source scores every distinct sampled query once and
    ranks each sampled pair once.
    """
    if not pairs:
        raise DataError("no evaluation pairs")
    ks = check_eval_options(ks, max_pairs, seeds)
    sources = {modality: (table.ids, table.scores, dict(table.provenance))
               for modality, table in sorted(tables.items())}
    if bm25_pool is not None:
        index = BM25Index(bm25_pool)
        sources["bm25"] = (index.ids, lambda q: index.scores(notes_by_id[q]),
                           {"kind": "bm25", "k1": BM25_K1, "b": BM25_B})
    pools = {frozenset(ids.tolist()) for ids, _, _ in sources.values()}
    if len(pools) > 1:
        raise ConfigError("sources rank different note pools: " + ", ".join(
            f"{name} over {len(ids)} notes" for name, (ids, _, _) in sources.items()))
    pool_size = len(pools.pop()) if pools else 0
    check_pairs(pairs, notes_by_id)

    samples = [_subsample(pairs, max_pairs, seed) for seed in seeds]
    sampled = {(p.query, p.related) for s in samples for p in s}
    classes = {nid: length_class(notes_by_id[nid]) for pair in sampled for nid in pair}
    subsets = {kind: [slice_pairs(s, classes, kind) for s in samples]
               for kind in SLICES}
    report = {
        "pool_size": pool_size,
        "ks": ks,
        "seeds": list(seeds),
        "max_pairs": max_pairs,
        "random_baseline": {k: random_baseline(k, pool_size) for k in ks},
        "sources": {},
    }
    for name, (ids, scores_of, provenance) in sources.items():
        report["sources"][name] = {"provenance": provenance, "slices": _source_report(
            _pair_ranks(sampled, ids, scores_of), subsets, ks)}
    return report


def write_eval_report(report: dict, json_path, csv_path) -> None:
    import csv as csv_mod
    import io
    import json

    with atomic_write(json_path) as fh:
        fh.write((json.dumps(report, indent=2) + "\n").encode("utf-8"))
    rows = io.StringIO()
    writer = csv_mod.writer(rows)
    writer.writerow(["source", "slice", "k", "recall", "random_baseline", "n_pairs"])
    for source in sorted(report["sources"]):
        slices = report["sources"][source]["slices"]
        for kind in SLICES:
            entry = slices[kind]
            for k in report["ks"]:
                recall = entry["recall"][k]
                writer.writerow([
                    source, kind, k,
                    "" if recall is None else repr(recall),
                    repr(report["random_baseline"][k]),
                    min(entry["n_pairs"]),
                ])
    with atomic_write(csv_path) as fh:
        fh.write(rows.getvalue().encode("utf-8"))


# ---------------------------------------------------------------------------
# Pool selection


def select_pool(notes: list[Note], pairs: list[Pair], size: int, seed: int):
    """Pick an evaluation pool that keeps whole pairs together.

    Pairs are admitted in a seeded random order while their endpoints
    fit in the budget; leftover capacity is filled with unpaired notes.
    Returns (pool notes, pairs fully inside the pool).
    """
    if size < 2 or size > len(notes):
        raise ConfigError(f"pool size {size} out of range for {len(notes)} notes")
    rng = np.random.default_rng([seed, 7907])
    chosen: set[int] = set()
    order = rng.permutation(len(pairs))
    for idx in order:
        p = pairs[idx]
        new = {p.query, p.related} - chosen
        if len(chosen) + len(new) <= size:
            chosen.update(new)
    remaining = [n.id for n in notes if n.id not in chosen]
    filler = rng.permutation(len(remaining))
    chosen.update(remaining[i] for i in filler[:size - len(chosen)])
    pool_notes = [n for n in notes if n.id in chosen]
    pool_pairs = [p for p in pairs if p.query in chosen and p.related in chosen]
    return pool_notes, pool_pairs
