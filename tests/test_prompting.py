"""Tokenizer, vocabulary and prompt layout tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlrm import prompting as pr
from mlrm.errors import ConfigError, LayoutError
from mlrm.notes import Note


def make_note(title="hello world", topics=("travel", "food"), content="a tasty trip", nid=0):
    return Note(id=nid, title=title, topics=list(topics), content=content,
                image=np.zeros((2, 2)))


def corpus_vocab(notes):
    texts = []
    for n in notes:
        texts += [n.title, pr.join_topics(n.topics), n.content]
    return pr.Vocab.build(texts)


def test_tokenize_splits_words_and_punctuation():
    assert pr.tokenize("Hi, there! xx-1") == ["Hi", ",", "there", "!", "xx", "-", "1"]


def test_tokenize_empty():
    assert pr.tokenize("") == []
    assert pr.tokenize("   ") == []


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from("alpha beta gamma , . ! tiny12".split()), max_size=30))
def test_roundtrip_up_to_whitespace(words):
    text = " ".join(words)
    vocab = pr.Vocab.build([text])
    toks = pr.tokenize(text)
    recovered = [vocab.tokens[i] for i in vocab.encode(toks)]
    assert "".join(recovered) == "".join(text.split())


def test_unknown_token_maps_to_unk():
    vocab = pr.Vocab.build(["alpha beta"])
    assert vocab.encode(["alpha", "never_seen"]) == [vocab.index["alpha"], pr.UNK_ID]


def test_vocab_reserved_prefix_and_sorted_body(tmp_path):
    vocab = pr.Vocab.build(["zeta alpha", "m n"])
    assert vocab.tokens[:6] == pr.RESERVED
    body = vocab.tokens[6:]
    assert body == sorted(body)
    path = tmp_path / "vocab.txt"
    vocab.save(path)
    again = pr.Vocab.load(path)
    assert again.tokens == vocab.tokens
    # line number == id
    lines = path.read_text().splitlines()
    assert lines[pr.IMG_ID] == pr.IMG


def test_truncation_limits_and_idempotence():
    long_title = " ".join(f"t{i}" for i in range(50))
    long_content = " ".join(f"c{i}" for i in range(200))
    note = make_note(title=long_title, content=long_content)
    cut = pr.truncate_note(note)
    assert len(cut.title.split()) == 20
    assert len(cut.content.split()) == 80
    again = pr.truncate_note(cut)
    assert again.title == cut.title and again.content == cut.content
    assert cut.topics == note.topics


def test_basic_prompt_layout():
    note = make_note()
    vocab = corpus_vocab([note])
    layout = pr.build_basic_prompt(note, vocab)
    ids = list(layout.token_ids)
    assert ids.count(pr.IMG_ID) == 1
    assert ids[layout.img_slot] == pr.IMG_ID
    assert layout.img_emb_pos is None
    # trailing instruction ends with the opening quote
    assert vocab.tokens[ids[-1]] == '"'
    assert layout.compressed_pos == layout.length - 1


def test_micl_prompt_layout_ordering():
    note = make_note()
    vocab = corpus_vocab([note])
    layout = pr.build_micl_prompt(note, vocab)
    ids = list(layout.token_ids)
    assert ids.count(pr.IMG_ID) == 1
    assert ids.count(pr.IMG_EMB_ID) == 1
    assert ids[layout.img_emb_pos] == pr.IMG_EMB_ID
    assert layout.img_slot < layout.img_emb_pos < layout.length - 1
    assert vocab.tokens[ids[-1]] == '"'


def test_prompts_share_field_token_subsequence():
    note = make_note(title="blue lake hike", topics=("outdoors",), content="bring warm layers")
    vocab = corpus_vocab([note])
    basic = list(pr.build_basic_prompt(note, vocab).token_ids)
    micl = list(pr.build_micl_prompt(note, vocab).token_ids)
    fields = (vocab.encode(pr.tokenize(note.title))
              + vocab.encode(pr.tokenize(pr.join_topics(note.topics)))
              + vocab.encode(pr.tokenize(note.content)))

    def subseq(needle, haystack):
        pos = 0
        for x in haystack:
            if pos < len(needle) and x == needle[pos]:
                pos += 1
        return pos == len(needle)

    assert subseq(fields, basic) and subseq(fields, micl)


def test_token_count_oracle_random_notes():
    rng = np.random.default_rng(11)
    words = [f"w{i}" for i in range(60)]
    notes = []
    for nid in range(20):
        notes.append(make_note(
            title=" ".join(rng.choice(words, rng.integers(1, 10))),
            topics=tuple(rng.choice(words, rng.integers(1, 4))),
            content=" ".join(rng.choice(words, rng.integers(1, 30))),
            nid=nid,
        ))
    vocab = corpus_vocab(notes)
    empty = make_note(title="", topics=(), content="")
    for build in (pr.build_basic_prompt, pr.build_micl_prompt):
        template_len = build(empty, vocab).length
        for note in notes:
            expect = (template_len
                      + len(pr.tokenize(note.title))
                      + len(pr.tokenize(pr.join_topics(note.topics)))
                      + len(pr.tokenize(note.content)))
            assert build(note, vocab).length == expect


def test_layout_rejects_bad_placeholder_positions():
    with pytest.raises(LayoutError):
        pr.PromptLayout((5, 6, 7), img_slot=0)  # no IMG token
    with pytest.raises(LayoutError):
        pr.PromptLayout((pr.IMG_ID, 6, pr.IMG_ID, 7), img_slot=0)  # duplicated
    with pytest.raises(LayoutError):
        # compressed word before the image placeholder
        pr.PromptLayout((pr.IMG_EMB_ID, 9, pr.IMG_ID, 7), img_slot=2, img_emb_pos=0)


def test_prompt_budget_enforced():
    note = make_note(content=" ".join(f"c{i}" for i in range(80)))
    # topics are not truncated, so a pathological topic list can push a
    # prompt past the budget
    note = note.replace_text(topics=[f"topic{i}" for i in range(400)])
    vocab = corpus_vocab([note])
    layout = pr.build_basic_prompt(note, vocab)
    assert layout.length > pr.MAX_PROMPT_TOKENS
    with pytest.raises(ConfigError):
        pr.check_prompt_budget(layout)


def test_length_classes():
    short = make_note(title="tiny", topics=("a",), content="short note")
    assert pr.length_class(short) == "short"
    long_note = make_note(
        title=" ".join(f"t{i}" for i in range(20)),
        topics=tuple(f"topic{i}" for i in range(10)),
        content=", ".join(f"c{i}" for i in range(75)),
    )
    assert len(pr.note_tokens(long_note)) > pr.LONG_NOTE_TOKENS
    assert pr.length_class(long_note) == "long"
