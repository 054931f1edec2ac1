import dataclasses
import hashlib
import json
import math
import os
import struct
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlrm import model, retrieval
from mlrm.autodiff import Tensor, grad_enabled, no_grad, retaining
from mlrm.data import (Pair, PairConfig, SyntheticConfig, build_pairs, build_vocab,
                       generate_synthetic)
from mlrm.errors import ConfigError, DataError, FormatError, NumericError
from mlrm.model import MODALITIES, MODES, ModelConfig, embed_notes, init_params
from mlrm.notes import Note
from mlrm.prompting import join_topics, length_class, note_tokens, tokenize
from mlrm.retrieval import (
    BM25Index,
    CHUNK,
    EmbeddingTable,
    SLICES,
    build_table,
    evaluate,
    load_table,
    random_baseline,
    save_table,
    select_pool,
    slice_pairs,
    target_rank,
    topk,
    write_eval_report,
)
from mlrm.training import TAU_NAME


def random_table(n=40, dim=8, seed=0, ids=None):
    rng = np.random.default_rng(seed)
    vecs = rng.normal(size=(n, dim))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    if ids is None:
        ids = np.arange(n)
    return EmbeddingTable(ids=np.asarray(ids), vectors=vecs.astype(np.float32))


def brute_rank(table, query_vec, exclude=None):
    q = np.asarray(query_vec, np.float64)
    q = q / np.linalg.norm(q)
    rows = []
    for r in range(len(table)):
        nid = int(table.ids[r])
        if exclude is not None and nid == exclude:
            continue
        s = float(table.vectors[r].astype(np.float64) @ q)
        rows.append((-s, nid))
    rows.sort()
    return [nid for _, nid in rows]


# ---------------------------------------------------------------------------
# Table construction


def model_world(n=10, n_notes=30):
    data_cfg = SyntheticConfig(seed=11, n_notes=n_notes, n_clusters=2, rho=1.0,
                               patches=4, patch_dim=6)
    notes, _, _ = generate_synthetic(data_cfg)
    notes = notes[:n]
    vocab = build_vocab(notes)
    cfg = ModelConfig(vocab_size=len(vocab), hidden_text=16, hidden_vision=12,
                      patches=4, patch_dim=6, visual_tokens=3, lm_layers=1,
                      lm_heads=2, vision_layers=1, vision_heads=2,
                      connector_layers=1, connector_heads=2, out_dim=8,
                      mode="notellm2")
    params = init_params(cfg, seed=4)
    params[TAU_NAME] = Tensor(np.asarray(3.0), requires_grad=True)
    return params, cfg, vocab, notes


def test_build_table_rows_norms_and_determinism():
    params, cfg, vocab, notes = model_world()
    t1 = build_table(params, cfg, vocab, notes)
    t2 = build_table(params, cfg, vocab, notes)
    assert len(t1) == len(notes) and t1.dim == cfg.out_dim
    assert np.array_equal(t1.vectors, t2.vectors)
    norms = np.linalg.norm(t1.vectors.astype(np.float64), axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-6
    assert t1.provenance["modality"] == "multimodal"
    assert t1.provenance["mode"] == "notellm2"


@pytest.mark.parametrize("modality", ["multimodal", "text_only", "image_only"])
def test_build_table_rows_do_not_depend_on_chunk_or_order(modality):
    # two and a half chunks fill three; reversed, every note lands in
    # another chunk, among other notes, at another position; of CHUNK + 1
    # notes, the last is a chunk of its own. The contract is on the
    # float32 rows: in float64 a note alone can differ from the same note
    # among others by a few ulps
    n = 2 * CHUNK + CHUNK // 2
    params, base, vocab, notes = model_world(n=n, n_notes=n)
    for mode in MODES:
        cfg = dataclasses.replace(base, mode=mode)
        ahead = build_table(params, cfg, vocab, notes, modality=modality)
        reverse = build_table(params, cfg, vocab, notes[::-1], modality=modality)
        assert np.array_equal(reverse.ids, ahead.ids[::-1])
        assert np.array_equal(reverse.vectors, ahead.vectors[::-1]), mode
        head = build_table(params, cfg, vocab, notes[:CHUNK + 1], modality=modality)
        assert np.array_equal(head.vectors, ahead.vectors[:CHUNK + 1]), mode


def test_build_table_bytes_do_not_depend_on_workers_or_chunk_size(monkeypatch):
    n = 2 * CHUNK + CHUNK // 2
    params, base, vocab, notes = model_world(n=n, n_notes=n)

    def tables():
        return [build_table(params, dataclasses.replace(base, mode=mode), vocab, notes,
                            modality=modality).vectors.tobytes()
                for mode in MODES for modality in MODALITIES]

    monkeypatch.setattr(retrieval, "WORKERS", 2)
    pooled = tables()
    monkeypatch.setattr(retrieval, "WORKERS", 1)
    assert tables() == pooled
    monkeypatch.setattr(retrieval, "CHUNK", 32)
    assert tables() == pooled


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call")
def test_workers_count_the_cpus_this_process_may_run_on():
    src = os.path.dirname(os.path.dirname(retrieval.__file__))
    child = ("import os; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
             "from mlrm import retrieval; print(retrieval.WORKERS)")
    out = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "1"


def test_build_table_workers_record_nothing_for_the_caller(monkeypatch):
    # the worker threads start with the default modes, so each enters
    # no_grad itself, and the caller's retaining() list is not theirs
    params, cfg, vocab, notes = model_world(n=2 * CHUNK + 1, n_notes=30)
    seen = []

    def embed(*args, **kwargs):
        reps = embed_notes(*args, **kwargs)
        seen.append((grad_enabled(), reps.out_multimodal.node))
        return reps

    monkeypatch.setattr(retrieval, "embed_notes", embed)
    with retaining() as kept:
        recorded = build_table(params, cfg, vocab, notes)
        assert grad_enabled()
    assert kept == []
    assert seen == [(False, None)] * 3
    with no_grad():
        quiet = build_table(params, cfg, vocab, notes)
    assert np.array_equal(quiet.vectors, recorded.vectors)


def test_build_table_joins_its_threads_and_raises_the_failing_notes_error():
    params, cfg, vocab, notes = model_world(n=2 * CHUNK + 1, n_notes=30)
    before = threading.active_count()
    build_table(params, cfg, vocab, notes)
    assert threading.active_count() == before
    last = notes[-1]
    notes[-1] = dataclasses.replace(last, image=last.image[:-1])
    with pytest.raises(DataError, match=f"note {last.id}: image shape"):
        build_table(params, cfg, vocab, notes)
    assert threading.active_count() == before


def test_build_table_fills_one_shared_image_cache_under_thread_stress(monkeypatch):
    # four workers, more than the pool's two cores, on 2-note chunks that
    # switch threads every microsecond. Chunks hold disjoint note ids, so
    # the fills never meet on a note's row, and text-only chunks all fill
    # the one zero-image row, None: a lost update would drop a row, and a
    # misplaced block would move one. A second round encodes no image
    params, cfg, vocab, notes = model_world(n=4 * CHUNK, n_notes=40)
    want = {modality: build_table(params, cfg, vocab, notes, modality=modality).vectors
            for modality in MODALITIES}
    monkeypatch.setattr(retrieval, "WORKERS", 4)
    monkeypatch.setattr(retrieval, "CHUNK", 2)
    cache = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for modality in MODALITIES:
            got = build_table(params, cfg, vocab, notes, modality=modality, image_cache=cache)
            assert np.array_equal(got.vectors, want[modality]), modality
    finally:
        sys.setswitchinterval(interval)
    [(_, rows)] = cache.values()
    assert sorted(key for key in rows if key is not None) == sorted(n.id for n in notes)
    assert len(rows) == len(notes) + 1
    monkeypatch.setattr(model, "encode_images", lambda *a: pytest.fail("encoded an image"))
    for modality in MODALITIES:
        again = build_table(params, cfg, vocab, notes, modality=modality, image_cache=cache)
        assert np.array_equal(again.vectors, want[modality]), modality


def test_build_table_names_the_first_note_with_a_non_finite_embedding():
    # a NaN in one token's embedding row reaches only the notes that use
    # the token; the first of them is named instead of becoming a NaN row
    params, cfg, vocab, notes = model_world(n=6)
    token = note_tokens(notes[-1])[0]
    params["lm.tok_emb"].data[vocab.index[token], 0] = np.nan
    first = next(n for n in notes if token in note_tokens(n))
    with pytest.raises(NumericError, match=f"note {first.id} embeds to a vector of norm nan"):
        build_table(params, cfg, vocab, notes)


def test_identical_notes_embed_identically():
    params, cfg, vocab, notes = model_world(n=4)
    clone = Note(id=999, title=notes[0].title, topics=list(notes[0].topics),
                 content=notes[0].content, image=notes[0].image.copy())
    table = build_table(params, cfg, vocab, notes + [clone])
    assert np.array_equal(table.vector(notes[0].id), table.vector(999))


def test_modality_ablation_changes_vectors():
    # separation threshold is calibrated on the full-size configuration
    data_cfg = SyntheticConfig(seed=11, n_notes=30, n_clusters=2, rho=1.0)
    notes, _, _ = generate_synthetic(data_cfg)
    notes = notes[:10]
    vocab = build_vocab(notes)
    cfg = ModelConfig(vocab_size=len(vocab), mode="notellm2")
    params = init_params(cfg, seed=4)
    params[TAU_NAME] = Tensor(np.asarray(3.0), requires_grad=True)
    multi = build_table(params, cfg, vocab, notes, modality="multimodal")
    text = build_table(params, cfg, vocab, notes, modality="text_only")
    image = build_table(params, cfg, vocab, notes, modality="image_only")
    for n in notes:
        cos_tm = float(multi.vector(n.id).astype(np.float64)
                       @ text.vector(n.id).astype(np.float64))
        assert cos_tm < 1.0 - 1e-3
    assert not np.array_equal(multi.vectors, image.vectors)
    with pytest.raises(ConfigError):
        build_table(params, cfg, vocab, notes, modality="audio_only")


def test_table_round_trip_bit_exact(tmp_path):
    table = random_table(n=17, dim=5, ids=np.asarray([3, 1, 4, 15, 9, 2, 6, 5,
                                                      35, 8, 97, 93, 23, 84, 62, 64, 33]))
    path = tmp_path / "emb.mlrm"
    save_table(path, table)
    back = load_table(path)
    assert np.array_equal(back.ids, table.ids)
    assert back.vectors.tobytes() == table.vectors.tobytes()
    save_table(tmp_path / "emb2.mlrm", back)
    assert (tmp_path / "emb.mlrm").read_bytes() == (tmp_path / "emb2.mlrm").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["emb.mlrm", "emb2.mlrm"]
    # the documented layout, packed field by field
    layout = b"MLRMEMB1" + struct.pack("<II", len(table), table.dim)
    for nid, vec in zip(table.ids.tolist(), table.vectors):
        layout += struct.pack("<Q", nid) + struct.pack(f"<{table.dim}f", *vec.tolist())
    assert path.read_bytes() == layout


def test_failed_table_save_keeps_earlier_file(tmp_path, fill_disk):
    path = tmp_path / "emb.mlrm"
    save_table(path, random_table(n=5, dim=4, seed=1))
    before = path.read_bytes()
    fill_disk()
    with pytest.raises(OSError, match="No space"):
        save_table(path, random_table(n=9, dim=4, seed=2))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["emb.mlrm"]


def test_table_file_corruption(tmp_path):
    table = random_table(n=3, dim=4)
    path = tmp_path / "emb.mlrm"
    save_table(path, table)
    blob = bytearray(path.read_bytes())
    blob[0] ^= 1
    bad = tmp_path / "bad.mlrm"
    bad.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="magic"):
        load_table(bad)
    trunc = tmp_path / "trunc.mlrm"
    trunc.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(FormatError, match="truncated"):
        load_table(trunc)
    trailing = tmp_path / "trailing.mlrm"
    trailing.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(FormatError, match="trailing"):
        load_table(trailing)


@pytest.mark.parametrize("count, dim", [(1, 2**31), (0, 2**31), (2**32 - 1, 4)],
                         ids=["dim-2^31", "empty-dim-2^31", "count-past-file"])
def test_table_header_is_checked_against_the_file(tmp_path, count, dim):
    # a header that claims more rows, or wider ones, than the file holds
    # is a format error before any row type is built or byte is read
    path = tmp_path / "emb.mlrm"
    save_table(path, random_table(n=3, dim=4))
    blob = bytearray(path.read_bytes())
    blob[8:16] = struct.pack("<II", count, dim)
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="too large|truncated"):
        load_table(path)


def test_table_rejects_negative_ids():
    with pytest.raises(DataError, match="negative"):
        EmbeddingTable(ids=np.asarray([0, -1]), vectors=np.ones((2, 3), np.float32))


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
def test_table_with_a_non_finite_entry_fails_to_load(tmp_path, value):
    # every score against such a row would be NaN
    path = tmp_path / "emb.mlrm"
    save_table(path, random_table(n=3, dim=4))
    blob = bytearray(path.read_bytes())
    row = 16 + (8 + 4 * 4)  # the second row, after the header
    blob[row + 8 + 4:row + 8 + 8] = struct.pack("<f", value)
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError, match="NaN or infinite"):
        load_table(path)


def test_table_rejects_duplicate_ids():
    with pytest.raises(DataError, match="duplicate"):
        EmbeddingTable(ids=np.asarray([1, 1]), vectors=np.ones((2, 3), np.float32))


# ---------------------------------------------------------------------------
# Ranking


def test_topk_agrees_with_brute_force():
    table = random_table(n=60, dim=6, seed=3)
    rng = np.random.default_rng(9)
    for _ in range(10):
        qid = int(rng.integers(60))
        q = table.vector(qid)
        want = brute_rank(table, q, exclude=qid)
        for k in (1, 5, 59):
            got = topk(q, table, k, exclude=qid)
            assert got.tolist() == want[:k]


def test_topk_tie_break_ascending_id():
    vecs = np.ones((4, 3), dtype=np.float32)
    vecs[3] = [1.0, 0.0, 0.0]
    table = EmbeddingTable(ids=np.asarray([7, 3, 9, 1]), vectors=vecs)
    got = topk(np.ones(3), table, 3)
    assert got.tolist() == [3, 7, 9]


def test_topk_excludes_query_and_validates_k():
    table = random_table(n=10)
    q = table.vector(4)
    for k in range(1, 10):
        assert 4 not in topk(q, table, k, exclude=4).tolist()
    assert sorted(topk(q, table, 9, exclude=4).tolist()) == [i for i in range(10) if i != 4]
    with pytest.raises(ConfigError):
        topk(q, table, 10, exclude=4)
    with pytest.raises(ConfigError):
        topk(q, table, 0)
    with pytest.raises(NumericError, match="zero-norm"):
        topk(np.zeros(table.dim), table, 1)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(NumericError, match="non-finite"):
            topk(np.r_[bad, q[1:]], table, 3)


def test_identical_vector_ranks_first():
    table = random_table(n=20, seed=1)
    twin = table.vectors.copy()
    twin[11] = twin[5]
    table = EmbeddingTable(ids=table.ids, vectors=twin)
    assert topk(table.vector(5), table, 1, exclude=5).tolist() == [11]


def test_target_rank_consistent_with_topk():
    table = random_table(n=30, seed=5)
    rng = np.random.default_rng(2)
    for _ in range(20):
        q, t = rng.choice(30, size=2, replace=False)
        r = target_rank(table, int(q), int(t))
        for k in (1, 3, 10, 29):
            inside = int(t) in topk(table.vector(int(q)), table, k, exclude=int(q)).tolist()
            assert inside == (r <= k)


def test_scores_are_the_float64_products_bit_for_bit():
    # the table keeps one float64 copy; each query's scores must carry the
    # bits of casting the whole table anew
    table = random_table(n=50, dim=64, seed=4, ids=np.arange(50) * 3)
    for nid in table.ids.tolist():
        want = table.vectors.astype(np.float64) @ table.vector(nid).astype(np.float64)
        assert table.scores(nid).tobytes() == want.tobytes()


def recall_from_ranks(table, pairs, k):
    """Recall@k as evaluate computes it: the share of target ranks <= k."""
    ranks = [target_rank(table, p.query, p.related) for p in pairs]
    return sum(1 for r in ranks if r <= k) / len(ranks)


def test_recall_hand_count_and_monotonicity():
    table = random_table(n=25, seed=8)
    rng = np.random.default_rng(4)
    pairs = []
    while len(pairs) < 20:
        q, t = rng.integers(25, size=2)
        if q != t:
            pairs.append(Pair(int(q), int(t), 1.0))
    by_hand = {}
    for k in (1, 5, 10, 24):
        hits = 0
        for p in pairs:
            ranking = brute_rank(table, table.vector(p.query), exclude=p.query)
            if p.related in ranking[:k]:
                hits += 1
        by_hand[k] = hits / len(pairs)
        assert recall_from_ranks(table, pairs, k) == by_hand[k]
    values = [recall_from_ranks(table, pairs, k) for k in (1, 5, 10, 24)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert values[-1] == 1.0  # k = pool - 1 always contains the target


def test_random_vectors_hit_chance_level():
    table = random_table(n=101, dim=16, seed=13)
    rng = np.random.default_rng(3)
    pairs = []
    while len(pairs) < 300:
        q, t = rng.integers(101, size=2)
        if q != t:
            pairs.append(Pair(int(q), int(t), 1.0))
    k = 10
    p = random_baseline(k, 101)
    sigma = math.sqrt(p * (1 - p) / len(pairs))
    assert abs(recall_from_ranks(table, pairs, k) - p) <= 3 * sigma


def test_random_baseline_stays_a_probability():
    # chance recall reaches 1 once k covers the pool's pool - 1 candidates
    assert random_baseline(10, 101) == 10 / 100
    assert random_baseline(99, 100) == 1.0
    assert random_baseline(100, 100) == 1.0
    assert random_baseline(500, 2) == 1.0
    with pytest.raises(ConfigError):
        random_baseline(1, 1)


# ---------------------------------------------------------------------------
# Slices


def note_of_length(nid, words):
    return Note(id=nid, title="t", topics=["x"],
                content=" ".join(f"w{i}" for i in range(words)),
                image=np.zeros((2, 2)))


def test_slice_partition_and_rules():
    notes = {}
    for nid, words in ((0, 10), (1, 100), (2, 300), (3, 40), (4, 200)):
        notes[nid] = note_of_length(nid, words)
    pairs = [Pair(0, 1, 1.0), Pair(1, 2, 1.0), Pair(2, 3, 1.0), Pair(3, 4, 1.0)]
    classes = {nid: length_class(note) for nid, note in notes.items()}
    short_q = slice_pairs(pairs, classes, "short_query")
    long_q = slice_pairs(pairs, classes, "long_query")
    assert all(length_class(notes[p.query]) == "short" for p in short_q)
    assert all(length_class(notes[p.query]) == "long" for p in long_q)
    medium_q = [p for p in pairs if length_class(notes[p.query]) == "medium"]
    assert {id(p) for p in short_q} | {id(p) for p in long_q} | \
        {id(p) for p in medium_q} == {id(p) for p in pairs}
    short_t = slice_pairs(pairs, classes, "short_target")
    assert all(length_class(notes[p.related]) == "short" for p in short_t)
    assert slice_pairs(pairs, classes, "all") == pairs
    with pytest.raises(ConfigError):
        slice_pairs(pairs, classes, "medium_query")


# ---------------------------------------------------------------------------
# BM25


def simple_note(nid, text):
    return Note(id=nid, title=text, topics=[], content="", image=np.zeros((2, 2)))


def brute_bm25_scores(notes, query_tokens, k1=1.2, b=0.75):
    docs = {n.id: tokenize(n.title) + tokenize(join_topics(n.topics))
            + tokenize(n.content) for n in notes}
    n_docs = len(docs)
    avgdl = sum(len(d) for d in docs.values()) / n_docs
    scores = {}
    for nid, doc in docs.items():
        total = 0.0
        for term in set(query_tokens):
            df = sum(1 for d in docs.values() if term in d)
            if df == 0:
                continue
            idf = math.log(1 + (n_docs - df + 0.5) / (df + 0.5))
            tf = doc.count(term)
            total += idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * len(doc) / avgdl))
        scores[nid] = total
    return scores


def test_bm25_matches_brute_force():
    texts = ["red fox jumps", "red red wine", "blue sky", "fox hole",
             "wine and sky", "green fox red", "nothing here", "sky sky sky",
             "red", "fox fox"]
    notes = [simple_note(i, t) for i, t in enumerate(texts)]
    index = BM25Index(notes)
    query = simple_note(0, texts[0])
    want = brute_bm25_scores(notes, tokenize(texts[0]))
    got = dict(zip(index.ids.tolist(), index.scores(query).tolist()))
    for nid in range(10):
        assert got[nid] == pytest.approx(want[nid], rel=1e-12)
    ranked = index.rank(query).tolist()
    order = sorted((nid for nid in range(1, 10)), key=lambda i: (-want[i], i))
    assert ranked == order


def test_bm25_duplicate_document_ranks_first():
    texts = ["alpha beta gamma delta", "alpha beta", "gamma", "delta beta",
             "epsilon", "alpha gamma", "beta beta", "zeta", "alpha", "theta"]
    notes = [simple_note(i, t) for i, t in enumerate(texts)]
    twin = simple_note(99, texts[0])
    index = BM25Index(notes + [twin])
    assert index.rank(simple_note(500, texts[0])).tolist()[0] in (0, 99)
    # as a query from inside the pool, its duplicate wins
    assert index.rank(notes[0]).tolist()[0] == 99


def test_bm25_zero_overlap_ranks_by_id():
    notes = [simple_note(i, f"word{i}") for i in (4, 2, 7, 1)]
    index = BM25Index(notes)
    ranked = index.rank(simple_note(9, "unrelated text")).tolist()
    assert ranked == [1, 2, 4, 7]


def test_bm25_idf_monotone_in_rarity():
    notes = [simple_note(i, "common " + ("rare" if i == 0 else "filler"))
             for i in range(6)]
    index = BM25Index(notes)
    # note 0 holds each term once, so its single-term scores order as the idfs
    common, rare = (index.scores(simple_note(9, term))[0] for term in ("common", "rare"))
    assert 0.0 < common <= rare


def test_bm25_errors():
    with pytest.raises(DataError):
        BM25Index([])
    pool = [simple_note(0, "a"), simple_note(1, "b")]
    outside = {n.id: n for n in pool + [simple_note(17, "a")]}
    with pytest.raises(DataError, match="17 is not in the pool"):
        evaluate({}, [Pair(0, 17, 1.0)], outside, [1], bm25_pool=pool)


# ---------------------------------------------------------------------------
# Evaluation report


def eval_world():
    rng = np.random.default_rng(0)
    notes = {}
    for nid in range(30):
        words = int(rng.choice([10, 80, 200]))
        notes[nid] = note_of_length(nid, words)
    table_a = random_table(n=30, dim=8, seed=1)
    table_b = random_table(n=30, dim=8, seed=2)
    pairs = []
    while len(pairs) < 25:
        q, t = rng.integers(30, size=2)
        if q != t:
            pairs.append(Pair(int(q), int(t), 1.0))
    return notes, {"multimodal": table_a, "text_only": table_b}, pairs


def test_evaluate_report_structure():
    notes, tables, pairs = eval_world()
    report = evaluate(tables, pairs, notes, ks=[1, 10],
                      bm25_pool=list(notes.values()))
    assert report["pool_size"] == 30
    assert report["random_baseline"][10] == 10 / 29
    assert sorted(report["sources"]) == ["bm25", "multimodal", "text_only"]
    for source in report["sources"].values():
        assert set(source["slices"]) == set(SLICES)
        entry = source["slices"]["all"]
        assert entry["n_pairs"] == [25]
        assert entry["recall"][10] is not None
        assert 0.0 <= entry["recall"][10] <= 1.0
    # recall nondecreasing in k on the unsliced pairs
    for source in report["sources"].values():
        r = source["slices"]["all"]["recall"]
        assert r[1] <= r[10]


def test_evaluate_seed_subsampling():
    notes, tables, pairs = eval_world()
    full = evaluate(tables, pairs, notes, ks=[5], seeds=(42, 43, 44))
    entry = full["sources"]["multimodal"]["slices"]["all"]
    assert entry["per_seed"][5][0] == entry["per_seed"][5][1] == entry["per_seed"][5][2]
    sub = evaluate(tables, pairs, notes, ks=[5], seeds=(42, 43, 44), max_pairs=10)
    sub_entry = sub["sources"]["multimodal"]["slices"]["all"]
    assert sub_entry["n_pairs"] == [10, 10, 10]
    again = evaluate(tables, pairs, notes, ks=[5], seeds=(42, 43, 44), max_pairs=10)
    assert sub_entry == again["sources"]["multimodal"]["slices"]["all"]


def test_evaluate_errors():
    notes, tables, pairs = eval_world()
    with pytest.raises(DataError):
        evaluate(tables, [], notes, ks=[1])
    with pytest.raises(DataError):
        evaluate(tables, [Pair(0, 999, 1.0)], notes, ks=[1])
    with pytest.raises(ConfigError):
        evaluate(tables, pairs, notes, ks=[0])
    for max_pairs in (0, -1):
        with pytest.raises(ConfigError):
            evaluate(tables, pairs, notes, ks=[1], max_pairs=max_pairs)
    small = {"multimodal": random_table(n=30), "other": random_table(n=10)}
    with pytest.raises(ConfigError):
        evaluate(small, pairs, notes, ks=[1])


@pytest.mark.parametrize("case", ["tables over other notes", "larger bm25 pool",
                                  "bm25 over other notes"])
def test_evaluate_ranks_one_pool_for_every_source(case):
    # notes 0..29 and 1..30: the pairs avoid 0 and 30, so every source
    # could rank them, but the report would mix two pools
    notes, tables, pairs = eval_world()
    notes[30] = note_of_length(30, 80)
    pairs = [p for p in pairs if 0 not in (p.query, p.related)]
    shifted = random_table(n=30, seed=3, ids=np.arange(1, 31))
    tables, bm25_pool = {
        "tables over other notes": ({**tables, "text_only": shifted}, None),
        "larger bm25 pool": (tables, list(notes.values())),
        "bm25 over other notes": (tables, [notes[i] for i in range(1, 31)]),
    }[case]
    with pytest.raises(ConfigError, match="different note pools"):
        evaluate(tables, pairs, notes, ks=[1], bm25_pool=bm25_pool)


def lexsort_rank(scores, ids, query, target):
    """Brute force: sort every candidate but the query, find the target."""
    keep = ids != query
    order = ids[keep][np.lexsort((ids[keep], -scores[keep]))]
    return int(np.flatnonzero(order == target)[0]) + 1


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_evaluate_matches_lexsort_ranking_under_ties(data):
    n = data.draw(st.integers(4, 9), label="pool size")
    ids = np.asarray(data.draw(st.lists(st.integers(0, 40), min_size=n, max_size=n,
                                        unique=True), label="ids"))
    # small integer vectors tie often, and row 1 duplicates row 0
    grid = data.draw(st.lists(st.lists(st.integers(-1, 1), min_size=3, max_size=3),
                              min_size=n, max_size=n), label="vectors")
    vectors = np.asarray(grid, dtype=np.float32)
    vectors[1] = vectors[0]
    # note 1 duplicates note 0, and note 2's only word is in no other note,
    # so as a query it scores every candidate 0
    texts = data.draw(st.lists(st.lists(st.sampled_from("abcd"), max_size=4).map(" ".join),
                               min_size=n, max_size=n), label="texts")
    texts[1], texts[2] = texts[0], "solo"
    notes = {int(i): simple_note(int(i), text) for i, text in zip(ids, texts)}
    rows = st.integers(0, n - 1)
    picks = data.draw(st.lists(st.tuples(rows, rows).filter(lambda qt: qt[0] != qt[1]),
                               min_size=1, max_size=12), label="pairs")
    picks.append((2, 0))
    pairs = [Pair(int(ids[q]), int(ids[t]), 1.0) for q, t in picks]
    ks = [1, 2, n - 2]

    table = EmbeddingTable(ids=ids, vectors=vectors)
    index = BM25Index(list(notes.values()))
    report = evaluate({"multimodal": table}, pairs, notes, ks, bm25_pool=list(notes.values()))
    v = vectors.astype(np.float64)
    row = {int(i): r for r, i in enumerate(ids)}
    dense = [lexsort_rank(v @ v[row[p.query]], ids, p.query, p.related) for p in pairs]
    bm25 = [lexsort_rank(index.scores(notes[p.query]), index.ids, p.query, p.related)
            for p in pairs]
    for source, ranks in (("multimodal", dense), ("bm25", bm25)):
        recall = report["sources"][source]["slices"]["all"]["recall"]
        assert recall == {k: sum(1 for r in ranks if r <= k) / len(ranks) for k in ks}
    # the solo query ties every candidate at 0, so its ranking is by id
    assert not index.scores(notes[int(ids[2])])[index.ids != ids[2]].any()
    assert index.rank(notes[int(ids[2])]).tolist() == sorted(set(ids.tolist()) - {int(ids[2])})


def test_write_eval_report(tmp_path):
    notes, tables, pairs = eval_world()
    report = evaluate(tables, pairs, notes, ks=[1, 10])
    write_eval_report(report, tmp_path / "eval.json", tmp_path / "eval.csv")
    blob = json.loads((tmp_path / "eval.json").read_text())
    assert blob["pool_size"] == 30
    assert blob["sources"]["multimodal"]["slices"]["all"]["recall"]["10"] == \
        report["sources"]["multimodal"]["slices"]["all"]["recall"][10]
    lines = (tmp_path / "eval.csv").read_text().splitlines()
    assert lines[0] == "source,slice,k,recall,random_baseline,n_pairs"
    assert len(lines) == 1 + len(tables) * len(SLICES) * 2


def test_failed_eval_report_write_keeps_earlier_files(tmp_path, fill_disk):
    notes, tables, pairs = eval_world()
    write_eval_report(evaluate(tables, pairs, notes, ks=[1, 10]),
                      tmp_path / "eval.json", tmp_path / "eval.csv")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    fill_disk(0)
    with pytest.raises(OSError, match="No space"):
        write_eval_report(evaluate(tables, pairs, notes, ks=[1, 5]),
                          tmp_path / "eval.json", tmp_path / "eval.csv")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_select_pool_keeps_pairs_whole():
    rng = np.random.default_rng(1)
    notes = [note_of_length(i, 60) for i in range(50)]
    pairs = []
    while len(pairs) < 30:
        q, t = rng.integers(50, size=2)
        if q != t:
            pairs.append(Pair(int(q), int(t), 1.0))
    pool_notes, pool_pairs = select_pool(notes, pairs, size=20, seed=0)
    assert len(pool_notes) == 20
    ids = {n.id for n in pool_notes}
    assert all(p.query in ids and p.related in ids for p in pool_pairs)
    assert pool_pairs  # budget admits at least a few whole pairs
    again_notes, again_pairs = select_pool(notes, pairs, size=20, seed=0)
    assert [n.id for n in again_notes] == [n.id for n in pool_notes]
    assert again_pairs == pool_pairs
    with pytest.raises(ConfigError):
        select_pool(notes, pairs, size=51, seed=0)


# sha256 of select_pool's note ids and pairs on the GOLDEN_SEED3_200 corpus
# (tests/test_data.py), seed 1: at size 100 the admitted pairs fill the
# pool, and at 199 the filler draws 4 of the 5 notes outside every pair
GOLDEN_POOL = {
    100: "8adeb2f25081db42e5c64eed8344873937b014f78458dbcbd44000419d6cf6d1",
    199: "2cb62287d015baaaed5130d874cb7d8e288319e3c050aadeb0affa6affa00709",
}


def test_select_pool_bytes_match_golden_hashes():
    notes, events, _ = generate_synthetic(SyntheticConfig(seed=3, n_notes=200))
    pairs = build_pairs(events, PairConfig())
    got = {}
    for size in GOLDEN_POOL:
        pool_notes, pool_pairs = select_pool(notes, pairs, size=size, seed=1)
        blob = json.dumps([[n.id for n in pool_notes],
                           [[p.query, p.related, p.score] for p in pool_pairs]])
        got[size] = hashlib.sha256(blob.encode()).hexdigest()
    assert got == GOLDEN_POOL
