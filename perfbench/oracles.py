"""Correctness oracles the benchmark computes without the library's code.

Each oracle recomputes a result the workload produced: dense rankings by
brute force, BM25 scores straight from the formula, unit norms and the
saliency share identity. Ties always break toward the smaller note id,
as the library promises.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

UNIT_NORM_TOL = 1e-6      # float32 rows, norm taken in float64
SHARE_SUM_TOL = 1e-12
RANK_RTOL = 1e-9          # near-ties may swap when summation order changes


def dense_rankings(ids: np.ndarray, vectors: np.ndarray):
    """Yield (query id, candidate ids, scores) for every row, by brute force.

    Scores are float64 dot products of the stored float32 unit rows; the
    query's own row is dropped from its candidates.
    """
    v = vectors.astype(np.float64)
    for row, query in enumerate(ids.tolist()):
        keep = ids != query
        yield query, ids[keep], (v @ v[row])[keep]


def rank_of(target: int, candidates: np.ndarray, scores: np.ndarray) -> int:
    """1-based position of target in the full (-score, id) sort."""
    order = candidates[np.lexsort((candidates, -scores))]
    return int(np.flatnonzero(order == target)[0]) + 1


def recall(ranks: list[int], k: int) -> float:
    return sum(1 for r in ranks if r <= k) / len(ranks)


def same_order(got, candidates: np.ndarray, scores: np.ndarray, rtol: float) -> bool:
    """True when ``got`` lists the best len(got) candidates, best first.

    ``scores`` are the oracle's, aligned with ``candidates``. Candidates
    whose scores agree within ``rtol`` may appear in either order.
    """
    got = np.asarray(got)
    if len(set(got.tolist())) != len(got) or not np.isin(got, candidates).all():
        return False
    by_id = dict(zip(candidates.tolist(), scores.tolist()))
    have = np.asarray([by_id[i] for i in got.tolist()])
    want = np.sort(scores)[::-1][:len(got)]
    return bool(np.allclose(have, want, rtol=rtol, atol=0.0))


def bm25_scorer(docs: dict[int, list[str]], k1: float, b: float):
    """Okapi BM25 straight from the formula: returns query terms -> {id: score}.

    idf(t) = ln(1 + (N - df + 0.5) / (df + 0.5)); each distinct query term
    present in a document adds idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl / avgdl)).
    """
    counts = {i: Counter(tokens) for i, tokens in docs.items()}
    lengths = {i: len(tokens) for i, tokens in docs.items()}
    n = len(docs)
    df = Counter(term for c in counts.values() for term in c)
    avgdl = math.fsum(lengths.values()) / n

    def score(query_terms: list[str]) -> dict[int, float]:
        out = {}
        for doc_id, tf_of in counts.items():
            norm = k1 * (1.0 - b + b * lengths[doc_id] / avgdl)
            parts = []
            for term in set(query_terms):
                tf = tf_of.get(term, 0)
                if tf:
                    idf = math.log(1.0 + (n - df[term] + 0.5) / (df[term] + 0.5))
                    parts.append(idf * tf * (k1 + 1.0) / (tf + norm))
            out[doc_id] = math.fsum(parts)
        return out
    return score


def unit_rows(vectors: np.ndarray) -> bool:
    norms = np.linalg.norm(vectors.astype(np.float64), axis=1)
    return bool(np.all(np.abs(norms - 1.0) <= UNIT_NORM_TOL))


def shares_sum_to_one(layer: dict) -> bool:
    return abs(layer["share_v"] + layer["share_t"] + layer["share_o"] - 1.0) <= SHARE_SUM_TOL
