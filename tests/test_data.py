import hashlib
import json
from collections.abc import Iterator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlrm.cli import main
from mlrm.data import (
    BehaviorEvent,
    Pair,
    PairConfig,
    SyntheticConfig,
    build_pairs,
    build_vocab,
    cooccurrence,
    generate_dataset,
    generate_synthetic,
    load_pairs,
    make_batches,
    split_pairs,
)
from mlrm.errors import ConfigError, DataError
from mlrm.notes import Note, load_notes, note_to_row, read_jsonl, write_jsonl
from mlrm.prompting import UNK_ID, Vocab, length_class, tokenize


def brute_cooccurrence(events):
    """Independent reference: exact rational arithmetic over the same
    double-precision per-user weights, no ordering tricks."""
    clicks = {}
    for e in events:
        clicks.setdefault(e.user, set()).add(e.clicked)
    seen = set()
    scores = {}
    for e in events:
        key = (e.user, e.viewed, e.clicked)
        if key in seen:
            continue
        seen.add(key)
        w = Fraction(1.0 / len(clicks[e.user]))
        scores[(e.viewed, e.clicked)] = scores.get((e.viewed, e.clicked), Fraction(0)) + w
    return {k: float(v) for k, v in scores.items()}


def test_cooccurrence_hand_example():
    # user 0 clicks notes {2, 3} -> weight 1/2; user 1 clicks {3} -> weight 1
    events = [
        BehaviorEvent(0, 1, 2),
        BehaviorEvent(0, 1, 3),
        BehaviorEvent(1, 1, 3),
    ]
    scores = cooccurrence(events)
    assert scores[(1, 2)] == 0.5
    assert scores[(1, 3)] == 1.5
    assert set(scores) == {(1, 2), (1, 3)}


def test_cooccurrence_user_counts_once_per_pair():
    events = [BehaviorEvent(0, 1, 2)] * 5 + [BehaviorEvent(0, 3, 2)]
    scores = cooccurrence(events)
    # N_0 = 1 distinct click, repeated sightings of the same pair collapse
    assert scores[(1, 2)] == 1.0
    assert scores[(3, 2)] == 1.0


def test_cooccurrence_weight_uses_whole_log():
    # the user's denominator counts every distinct click, not per-pair activity
    events = [BehaviorEvent(0, 1, 2), BehaviorEvent(0, 9, 8), BehaviorEvent(0, 9, 7)]
    scores = cooccurrence(events)
    assert scores[(1, 2)] == pytest.approx(1.0 / 3.0, rel=0, abs=0)


def test_cooccurrence_order_invariant_bitwise():
    rng = np.random.default_rng(0)
    events = [
        BehaviorEvent(int(rng.integers(20)), int(rng.integers(50)), int(rng.integers(50)))
        for _ in range(400)
    ]
    base = cooccurrence(events)
    for seed in range(3):
        perm = np.random.default_rng(seed).permutation(len(events))
        shuffled = [events[i] for i in perm]
        again = cooccurrence(shuffled)
        assert base.keys() == again.keys()
        assert all(base[k] == again[k] for k in base)


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 8), st.integers(0, 15), st.integers(0, 15)),
    min_size=1, max_size=120,
))
def test_cooccurrence_matches_exact_rational_oracle(raw):
    events = [BehaviorEvent(u, v, c) for u, v, c in raw]
    got = cooccurrence(events)
    want = brute_cooccurrence(events)
    assert got.keys() == want.keys()
    # fsum is correctly rounded, so it must equal the rational sum exactly
    assert all(got[k] == want[k] for k in got)


def _one_shot_users(groups):
    """groups: list of (viewed, clicked, n_users); every user clicks once."""
    events = []
    user = 0
    for viewed, clicked, n in groups:
        for _ in range(n):
            events.append(BehaviorEvent(user, viewed, clicked))
            user += 1
    return events


def test_build_pairs_top_k_and_tie_order():
    events = _one_shot_users([(1, 5, 3), (1, 9, 2), (1, 7, 2), (1, 8, 2)])
    pairs = build_pairs(events, PairConfig())
    assert [(p.related, p.score) for p in pairs] == [(5, 3.0), (7, 2.0), (8, 2.0)]
    assert all(p.query == 1 for p in pairs)


def test_build_pairs_open_interval_bounds():
    events = _one_shot_users([(1, 2, 30), (1, 3, 31), (1, 4, 29)])
    # one user with 100 distinct clicks: every score exactly 0.01
    for i in range(100):
        events.append(BehaviorEvent(10_000, 50, 60 + i))
    cfg = PairConfig(lower=0.01, upper=30.0)
    scores = cooccurrence(events)
    assert scores[(1, 2)] == 30.0 and scores[(50, 60)] == 0.01
    pairs = build_pairs(events, cfg)
    kept = {(p.query, p.related) for p in pairs}
    assert (1, 2) not in kept          # == upper, outlier
    assert (1, 3) not in kept          # > upper
    assert (1, 4) in kept
    assert all(q != 50 for q, _ in kept)  # == lower, dropped


def test_build_pairs_skips_self_pairs():
    events = _one_shot_users([(1, 1, 5), (1, 2, 1)])
    pairs = build_pairs(events, PairConfig())
    assert [(p.query, p.related) for p in pairs] == [(1, 2)]


def test_pair_config_validation():
    with pytest.raises(ConfigError):
        PairConfig(lower=2.0, upper=1.0)
    with pytest.raises(ConfigError):
        PairConfig(per_query=0)


def load_events(path):
    return read_jsonl(path, lambda row: BehaviorEvent(**row))


def test_event_and_pair_round_trip(tmp_path):
    events = [BehaviorEvent(1, 2, 3), BehaviorEvent(4, 5, 6)]
    pairs = [Pair(1, 2, 0.25), Pair(3, 4, 1.5)]
    write_jsonl(tmp_path / "e.jsonl", map(vars, events))
    write_jsonl(tmp_path / "p.jsonl", map(vars, pairs))
    assert load_events(tmp_path / "e.jsonl") == events
    assert load_pairs(tmp_path / "p.jsonl") == pairs


def test_read_jsonl_reports_bad_line(tmp_path):
    path = tmp_path / "e.jsonl"
    path.write_text('{"user":1,"viewed":2,"clicked":3}\n\n{"user":1}\n')
    with pytest.raises(DataError, match="e.jsonl:3: "):
        load_events(path)


# ---------------------------------------------------------------------------
# Synthetic corpus


def small_cfg(**kw):
    base = dict(seed=7, n_notes=300, n_clusters=4, rho=1.0, patches=4, patch_dim=6)
    base.update(kw)
    return SyntheticConfig(**base)


def test_generate_is_deterministic():
    a_notes, a_events, _ = generate_synthetic(small_cfg())
    b_notes, b_events, _ = generate_synthetic(small_cfg())
    assert a_events == b_events
    for x, y in zip(a_notes, b_notes):
        assert (x.title, x.topics, x.content) == (y.title, y.topics, y.content)
        assert np.array_equal(x.image, y.image)
    c_notes, _, _ = generate_synthetic(small_cfg(seed=8))
    assert any(x.title != y.title for x, y in zip(a_notes, c_notes))


def test_generate_config_validation():
    with pytest.raises(ConfigError):
        SyntheticConfig(n_notes=5, n_clusters=3)
    with pytest.raises(ConfigError):
        SyntheticConfig(rho=1.5)
    with pytest.raises(ConfigError, match="seed"):
        SyntheticConfig(seed=-1)


def test_length_class_mix():
    notes, _, _ = generate_synthetic(small_cfg(n_notes=500))
    classes = [length_class(n) for n in notes]
    short = classes.count("short") / len(classes)
    long = classes.count("long") / len(classes)
    assert 0.04 <= short <= 0.18
    assert 0.04 <= long <= 0.18
    assert classes.count("medium") > len(classes) / 2


def test_images_follow_clusters_when_rho_one():
    cfg = small_cfg(n_notes=200)
    notes, _, meta = generate_synthetic(cfg)
    cluster = np.asarray(meta["cluster"])
    flat = np.stack([n.image.reshape(-1) for n in notes])
    # nearest cluster mean in image space recovers the text cluster
    means = np.stack([flat[cluster == c].mean(axis=0) for c in range(cfg.n_clusters)])
    d = ((flat[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    assert (d.argmin(axis=1) == cluster).mean() > 0.98


def test_rho_zero_breaks_image_text_link():
    cfg = small_cfg(n_notes=200, rho=0.0)
    notes, _, meta = generate_synthetic(cfg)
    cluster = np.asarray(meta["cluster"])
    flat = np.stack([n.image.reshape(-1) for n in notes])
    means = np.stack([flat[cluster == c].mean(axis=0) for c in range(cfg.n_clusters)])
    d = ((flat[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    # agreement should be near chance once images are shuffled across clusters
    assert (d.argmin(axis=1) == cluster).mean() < 0.6


def test_mined_pairs_respect_latent_structure():
    cfg = small_cfg(n_notes=400)
    notes, events, meta = generate_synthetic(cfg)
    pairs = build_pairs(events, PairConfig())
    assert len(pairs) >= 100
    cluster = meta["cluster"]
    sub = meta["subtopic"]
    same_cluster = np.mean([cluster[p.query] == cluster[p.related] for p in pairs])
    same_sub = np.mean([
        (cluster[p.query], sub[p.query]) == (cluster[p.related], sub[p.related])
        for p in pairs
    ])
    assert same_cluster > 0.95
    assert same_sub > 0.80


def test_generate_dataset_writes_consistent_files(tmp_path):
    files = generate_dataset(small_cfg(n_notes=120), tmp_path)
    notes = load_notes(files["notes.jsonl"])
    events = load_events(files["events.jsonl"])
    pairs = load_pairs(files["pairs.jsonl"])
    vocab = Vocab.load(files["vocab.txt"])
    assert len(notes) == 120 and events and pairs
    ids = {n.id for n in notes}
    assert all(p.query in ids and p.related in ids for p in pairs)
    # corpus vocabulary covers the corpus: no unknowns when encoding back
    for n in notes[:20]:
        assert UNK_ID not in vocab.encode(tokenize(n.title + " " + n.content))
    meta = json.loads((tmp_path / "meta.json").read_text())
    assert len(meta["clusters"]) == 120
    # mined pairs match an independent recomputation from the saved log
    assert build_pairs(events, PairConfig()) == pairs


# sha256 of every file generate_dataset(SyntheticConfig(seed=3, n_notes=200))
# writes: a faster generator must still draw the same stream and write the
# same bytes
GOLDEN_SEED3_200 = {
    "events.jsonl": "e45bf3b2e46d1bf5adc2551e996c906832e4a80b7c6c27022cd24a312cd14767",
    "meta.json": "b72beebaa0611718afadf25468f3fb5789356e4022644dbec5f3760ae71f7963",
    "notes.jsonl": "9be0871c38e270cd186ad2f970e58429c160d23f1b716d31673b639c7eb4d1b4",
    "pairs.jsonl": "5cb5fc8d6ff5a652d1539a5ba986099082cd242646c719814531cc42c4803438",
    "vocab.txt": "7a8a636121f2967d7d2584fd596b927b95b18e4b42567f4d20cf3599a057f565",
}


def test_generate_dataset_bytes_match_golden_hashes(tmp_path):
    files = generate_dataset(SyntheticConfig(seed=3, n_notes=200), tmp_path)
    got = {name: hashlib.sha256(open(path, "rb").read()).hexdigest()
           for name, path in files.items()}
    assert got == GOLDEN_SEED3_200


def test_build_vocab_matches_corpus():
    notes, _, _ = generate_synthetic(small_cfg(n_notes=60))
    vocab = build_vocab(notes)
    for n in notes:
        assert UNK_ID not in vocab.encode(tokenize(n.title))
        assert UNK_ID not in vocab.encode(tokenize(n.content))


# ---------------------------------------------------------------------------
# Batching


def test_make_batches_shapes_and_partner():
    pairs = [Pair(2 * i, 2 * i + 1, 1.0) for i in range(10)]
    batches = list(make_batches(pairs, 4, seed=1, epoch=0))
    assert len(batches) == 2  # 10 pairs, incomplete tail dropped
    for b in batches:
        assert len(b) == 8
        assert len(set(b)) == 8
        # consecutive rows are one mined pair: row i's partner is row i ^ 1
        assert all(Pair(b[2 * k], b[2 * k + 1], 1.0) in pairs for k in range(4))


def test_make_batches_deterministic_and_epoch_dependent():
    pairs = [Pair(2 * i, 2 * i + 1, 1.0) for i in range(40)]
    a = list(make_batches(pairs, 8, seed=3, epoch=0))
    b = list(make_batches(pairs, 8, seed=3, epoch=0))
    assert a == b
    c = list(make_batches(pairs, 8, seed=3, epoch=1))
    assert a != c


def test_make_batches_defers_clashing_pairs():
    pairs = [Pair(1, 2, 1.0), Pair(1, 3, 1.0), Pair(4, 5, 1.0), Pair(6, 7, 1.0)]
    batches = list(make_batches(pairs, 2, seed=0, epoch=0))
    assert len(batches) == 2
    for b in batches:
        assert len(set(b)) == 4
    used = sorted(tuple(b[i:i + 2]) for b in batches for i in range(0, 4, 2))
    assert used == [(1, 2), (1, 3), (4, 5), (6, 7)]


def test_make_batches_each_pair_at_most_once():
    rng = np.random.default_rng(5)
    pairs = [Pair(int(a), int(b), 1.0) for a, b in rng.integers(0, 60, (50, 2)) if a != b]
    batches = list(make_batches(pairs, 4, seed=9, epoch=2))
    seen = [tuple(b[i:i + 2]) for b in batches for i in range(0, 8, 2)]
    assert len(seen) == len(set(seen)) or \
        len(seen) <= len(pairs)  # duplicates only if the pair list repeats them
    counts = {}
    for p in pairs:
        counts[(p.query, p.related)] = counts.get((p.query, p.related), 0) + 1
    used = {}
    for s in seen:
        used[s] = used.get(s, 0) + 1
    assert all(used[s] <= counts[s] for s in used)


def _full_scan_batches(pairs, batch_pairs, seed, epoch):
    """The loop make_batches had before it stopped scanning at a full batch:
    every pass walks the whole remaining list. Returns (batches, number of
    pairs deferred because they clashed with the open batch)."""
    order = np.random.default_rng([seed, epoch]).permutation(len(pairs))
    remaining = [pairs[i] for i in order]
    batches, clashes = [], 0
    while len(remaining) >= batch_pairs:
        ids, used, deferred = [], set(), []
        for pair in remaining:
            if len(ids) == 2 * batch_pairs:
                deferred.append(pair)
            elif pair.query in used or pair.related in used:
                deferred.append(pair)
                clashes += 1
            else:
                ids += [pair.query, pair.related]
                used.update((pair.query, pair.related))
        if len(ids) < 2 * batch_pairs:
            break
        batches.append(ids)
        remaining = deferred
    return batches, clashes


def test_make_batches_matches_full_scan():
    # 200 notes under 400 pairs: many pairs share a note, so deferral runs
    rng = np.random.default_rng(8)
    pairs = [Pair(int(a), int(b), 1.0) for a, b in rng.integers(0, 200, (420, 2)) if a != b]
    for seed in (0, 42, 7, 1):
        for epoch in range(3):
            for batch_pairs in (2, 16, 64):
                want, clashes = _full_scan_batches(pairs, batch_pairs, seed, epoch)
                got = make_batches(pairs, batch_pairs, seed, epoch)
                assert isinstance(got, Iterator)
                assert list(got) == want
                assert clashes > 0


def test_make_batches_errors():
    # bad arguments raise at the call, before any batch is read
    with pytest.raises(DataError, match="need at least 2 pairs"):
        make_batches([Pair(1, 2, 1.0)], 2, seed=0, epoch=0)
    clashing = [Pair(1, 2, 1.0), Pair(1, 3, 1.0), Pair(1, 4, 1.0)]
    with pytest.raises(ConfigError):
        make_batches(clashing, 0, seed=0, epoch=0)
    # no clash-free batch: the first batch read raises
    batches = make_batches(clashing, 2, seed=0, epoch=0)
    with pytest.raises(DataError, match="duplicate-free"):
        next(batches)


def test_split_pairs_deterministic_disjoint():
    pairs = [Pair(i, i + 100, 1.0) for i in range(50)]
    tr1, va1 = split_pairs(pairs, 0.1, seed=4)
    tr2, va2 = split_pairs(pairs, 0.1, seed=4)
    assert tr1 == tr2 and va1 == va2
    assert len(va1) == 5 and len(tr1) == 45
    assert not set((p.query, p.related) for p in tr1) & \
        set((p.query, p.related) for p in va1)


@pytest.mark.parametrize("field, value", [
    ("title", 5), ("content", None), ("topics", "food"), ("topics", ["food", 3]),
])
def test_load_notes_rejects_bad_field_types(tmp_path, field, value):
    row = note_to_row(Note(id=1, title="t", topics=["food"], content="c",
                           image=np.zeros((2, 2))))
    row[field] = value
    path = tmp_path / "notes.jsonl"
    path.write_text(json.dumps(row) + "\n")
    with pytest.raises(DataError, match=field):
        load_notes(path)


NOTE_ROW = {"id": 1, "title": "t", "topics": ["food"], "content": "c", "image": [[0.0, 1.0]]}
PAIR_ROW = {"query": 1, "related": 2, "score": 0.5}
LOADERS = {"notes": load_notes, "pairs": load_pairs}
NAN, INF = float("nan"), float("inf")
LOOSE_ROWS = [
    ("notes", {"id": 2.7}), ("notes", {"id": True}), ("notes", {"id": "2"}),
    ("notes", {"id": 2**63}), ("notes", {"image": [[NAN]]}), ("notes", {"image": [1.0]}),
    ("notes", {"image": [["1.0"]]}),
    ("pairs", {"query": 1.9, "related": True, "score": "nan"}),
    ("pairs", {"query": 1.0}), ("pairs", {"related": "2"}), ("pairs", {"related": -2}),
    ("pairs", {"score": NAN}), ("pairs", {"score": -INF}), ("pairs", {"score": None}),
    ("pairs", {"score": False}), ("pairs", {"score": 10**400}), ("pairs", {"related": 1}),
]


@pytest.mark.parametrize("kind, row", [
    pytest.param(kind, row, id=kind + "-" + ",".join(f"{k}={v!r:.12}" for k, v in row.items()))
    for kind, row in LOOSE_ROWS])
def test_reader_rejects_loose_field_types(tmp_path, kind, row):
    path = tmp_path / f"{kind}.jsonl"
    path.write_text(json.dumps({**(NOTE_ROW if kind == "notes" else PAIR_ROW), **row}) + "\n")
    with pytest.raises(DataError, match=f"{kind}.jsonl:1: "):
        LOADERS[kind](path)


def test_reader_accepts_strict_rows(tmp_path):
    path = tmp_path / "pairs.jsonl"
    path.write_text('\n{"query":0,"related":3,"score":2}\n  \n')
    assert load_pairs(path) == [Pair(0, 3, 2.0)]


NOT_ID = st.one_of(st.booleans(), st.floats(), st.text(max_size=3), st.none(),
                   st.integers(max_value=-1), st.integers(min_value=2**63),
                   st.lists(st.integers(0, 3), max_size=2))
NOT_TEXT = st.one_of(st.integers(), st.floats(allow_nan=False), st.booleans(), st.none(),
                     st.lists(st.text(max_size=2), max_size=2))
BAD_FIELDS = {
    "notes": {
        "id": NOT_ID, "title": NOT_TEXT, "content": NOT_TEXT,
        "topics": st.one_of(st.text(max_size=3), st.integers(), st.none(),
                            st.lists(st.integers(), min_size=1, max_size=2)),
        "image": st.one_of(st.text(max_size=3), st.none(), st.booleans(),
                           st.lists(st.floats(allow_nan=False), max_size=3),
                           st.sampled_from([[[NAN]], [[INF, 0.0]], [["a"]], [[True]],
                                            [[1.0], [1.0, 2.0]], [[[1.0]]], {"a": 1}])),
    },
    "pairs": {
        "query": NOT_ID, "related": NOT_ID,
        "score": st.one_of(st.booleans(), st.text(max_size=3), st.none(),
                           st.sampled_from([NAN, INF, -INF, 10**400]),
                           st.lists(st.floats(), max_size=2)),
    },
}


@st.composite
def malformed_line(draw, kind):
    """One line that the reader of ``kind`` files must reject."""
    row = dict(NOTE_ROW if kind == "notes" else PAIR_ROW)
    how = draw(st.sampled_from(["field", "missing", "truncated", "not_object", "not_utf8"]))
    if how == "field":
        field = draw(st.sampled_from(sorted(BAD_FIELDS[kind])))
        row[field] = draw(BAD_FIELDS[kind][field])
    elif how == "missing":
        del row[draw(st.sampled_from(sorted(row)))]
    line = json.dumps(row).encode()
    if how == "truncated":
        line = line[:draw(st.integers(1, len(line) - 1))]
    elif how == "not_object":
        line = json.dumps(draw(st.one_of(st.integers(), st.text(), st.none(),
                                         st.lists(st.integers())))).encode()
    elif how == "not_utf8":
        at = draw(st.integers(0, len(line)))
        line = line[:at] + b"\xff" + line[at:]
    return line


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(LOADERS)).flatmap(
    lambda kind: st.tuples(st.just(kind), malformed_line(kind))))
def test_malformed_lines_raise_data_error_and_exit_3(tmp_path_factory, case):
    kind, line = case
    ds = tmp_path_factory.mktemp("fuzz")
    good = {"notes": {**NOTE_ROW, "id": 0}, "pairs": {**PAIR_ROW, "query": 0}}
    for name in LOADERS:
        lines = [json.dumps(good[name]).encode()] + ([line] if name == kind else [])
        (ds / f"{name}.jsonl").write_bytes(b"\n".join(lines) + b"\n")
    (ds / "vocab.txt").write_text("")
    with pytest.raises(DataError, match=f"{kind}.jsonl:2: "):
        LOADERS[kind](ds / f"{kind}.jsonl")
    assert main(["train", "--dataset", str(ds), "--out", str(ds / "run")]) == 3
    assert not (ds / "run").exists()
