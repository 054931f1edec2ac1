"""Model wiring tests: shapes, isolation, symmetry, gating, projection."""

import dataclasses
from collections import Counter

import numpy as np
import pytest

import mlrm.autodiff as ad
import mlrm.model as mm
from mlrm.errors import ConfigError, DataError, ShapeError
from mlrm.notes import Note
from mlrm.prompting import Vocab, build_basic_prompt, build_micl_prompt, join_topics
from mlrm.training import TAU_NAME, LossConfig, batch_loss

from refops import attention_probabilities, mul, saliency_matrices, tsum


def tiny_cfg(vocab_size, **kw):
    base = dict(
        vocab_size=vocab_size, hidden_text=16, hidden_vision=12, patches=4,
        patch_dim=6, visual_tokens=3, lm_layers=2, lm_heads=2, vision_layers=1,
        vision_heads=2, connector_layers=1, connector_heads=2, ff_mult=2,
        out_dim=8, mode="notellm2",
    )
    base.update(kw)
    return mm.ModelConfig(**base)


def make_notes(count, cfg, seed=0):
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(40)]
    notes = []
    for nid in range(count):
        notes.append(Note(
            id=nid,
            title=" ".join(rng.choice(words, rng.integers(2, 6))),
            topics=list(rng.choice(words, rng.integers(1, 3))),
            content=" ".join(rng.choice(words, rng.integers(3, 12))),
            image=rng.normal(size=(cfg.patches, cfg.patch_dim)),
        ))
    return notes


def vocab_for(notes):
    texts = []
    for n in notes:
        texts += [n.title, join_topics(n.topics), n.content]
    return Vocab.build(texts)


@pytest.fixture(scope="module")
def setup():
    cfg = tiny_cfg(vocab_size=64)
    notes = make_notes(6, cfg)
    vocab = vocab_for(notes)
    cfg = tiny_cfg(vocab_size=len(vocab))
    params = mm.init_params(cfg, seed=3)
    return cfg, params, vocab, notes


def test_config_validation():
    with pytest.raises(ConfigError):
        tiny_cfg(vocab_size=10, hidden_text=15)  # not divisible by heads
    with pytest.raises(ConfigError):
        tiny_cfg(vocab_size=10, mode="bogus")
    with pytest.raises(ConfigError):
        tiny_cfg(vocab_size=0)


def test_splice_length_law(setup):
    cfg, params, vocab, notes = setup
    for lc in (1, 3, 5):
        cfg_lc = tiny_cfg(vocab_size=cfg.vocab_size, visual_tokens=lc)
        params_lc = mm.init_params(cfg_lc, seed=1)
        for note in notes[:3]:
            layout = build_basic_prompt(note, vocab)
            feats = mm.encode_images(params_lc, cfg_lc, note.image[None])
            rows = mm.connect(params_lc, cfg_lc, feats)
            seq, (info,) = mm.assemble(params_lc, cfg_lc, [layout], rows)
            assert seq.shape == (1, layout.length + lc - 1, cfg_lc.hidden_text)
            assert info.length == layout.length + lc - 1


def test_assemble_packs_tokens_and_visual_rows(setup):
    cfg, params, vocab, notes = setup
    layouts = [build_micl_prompt(n, vocab) for n in notes[:3]]
    lc, ht = cfg.visual_tokens, cfg.hidden_text
    rows = ad.Tensor(np.random.default_rng(2).normal(size=(3, lc, ht)))
    tok = params["lm.tok_emb"].data
    for visual, expect in ((rows, lambda i: rows.data[i]),
                           (ad.Tensor(rows.data[:1, :1]),
                            lambda i: np.repeat(rows.data[0, :1], lc, axis=0))):
        x, infos = mm.assemble(params, cfg, layouts, visual)
        assert x.shape == (1, sum(i.length for i in infos), ht)
        want = []
        for i, layout in enumerate(layouts):
            ids = np.asarray(layout.token_ids)
            slot = layout.img_slot
            want += [tok[ids[:slot]], expect(i), tok[ids[slot + 1:]]]
        assert np.array_equal(x.data[0], np.concatenate(want))
    x, infos = mm.assemble(params, cfg, layouts, None)
    for layout, info in zip(layouts, infos):
        assert info.length == layout.length and not info.spliced
    assert np.array_equal(x.data[0], np.concatenate([tok[list(l.token_ids)] for l in layouts]))
    with pytest.raises(ShapeError):
        mm.assemble(params, cfg, layouts, ad.Tensor(np.zeros((2, lc, ht))))


def test_batch_tape_size_is_independent_of_batch_size(setup):
    cfg, params, vocab, notes = setup
    notes = make_notes(8, cfg, seed=4)
    params = {**params, TAU_NAME: ad.Tensor(np.asarray(3.0), requires_grad=True)}
    for mode in mm.MODES:
        cfg_m = tiny_cfg(vocab_size=cfg.vocab_size, mode=mode)
        counts = []
        for b in (2, 8):
            loss, _ = batch_loss(params, cfg_m, vocab, notes[:b], LossConfig())
            counts.append(len(ad._topo_order(loss)))
        assert counts[0] == counts[1], (mode, counts)


# op nodes a default batch records per mode; leaves have no node
DEFAULT_TAPE_SIZE = {"basic": 69, "micl": 76, "late_fusion": 71, "notellm2": 79,
                     "only_late_fusion": 32, "omni": 183}


def test_default_notellm2_batch_tape_size():
    notes = make_notes(32, tiny_cfg(vocab_size=64, patches=16, patch_dim=32), seed=6)
    vocab = vocab_for(notes)
    tapes = {}
    for mode in mm.MODES:
        cfg = mm.ModelConfig(vocab_size=len(vocab), mode=mode)
        params = mm.init_params(cfg, seed=0)
        params[TAU_NAME] = ad.Tensor(np.asarray(3.0), requires_grad=True)
        loss, _ = batch_loss(params, cfg, vocab, notes, LossConfig())
        tapes[mode] = ad._topo_order(loss)
    assert {mode: len(tape) for mode, tape in tapes.items()} == DEFAULT_TAPE_SIZE
    ops = Counter(node.op for node in tapes["notellm2"])
    # two LM layers and two connector layers of self- and cross-attention;
    # the frozen vision encoder records nothing; one node per gate and one
    # loss node per table
    assert ops["attention"] == 6 and ops["ff"] == 4 and ops["contrastive"] == 2
    assert ops["gate_fuse"] == 2
    # every biased projection is one node: q, k, v and out in each of the
    # six attentions, and the connector's and the visual read-out's
    assert ops["linear"] == 26
    # projections take [B, L, d] inputs whole, so only the assembly and the
    # vision read-outs reshape
    assert ops["reshape"] <= 4
    assert not any(ops[op] for op in ("masked_softmax", "gelu", "sigmoid", "mul", "addc",
                                      "transpose"))


def test_recording_forward_llm_holds_what_its_backward_reads():
    # After a recording 2-layer forward, with its output held, only the
    # arrays the backward closures read remain. In [row, d] units, over
    # the N packed rows and the R read rows:
    #   block 0, N rows: ln1 xhat and output, q, k, v, the attention
    #     output, ln2 xhat and output (8), ff gelu(h) and gelu'(h)
    #     (2 * ff_mult);
    #   block 1, N rows: ln1 xhat and output, k, v (4);
    #   block 1, R rows: the gathered ln1 rows, q, the attention output,
    #     ln2 xhat and output (5), ff (2 * ff_mult); ln_f xhat and output (2).
    # Residual sums, the position lookup and the wo and ff outputs are
    # read by no backward and die; one more [N, d] array breaks the bound.
    import gc
    import tracemalloc
    cfg = tiny_cfg(vocab_size=20, hidden_text=64, ff_mult=4)
    params = mm.init_params(cfg, seed=1)
    lengths = [40, 70, 55, 62, 48, 66, 51, 58]
    reads = [[n - 2, n - 1] for n in lengths]
    n, r, d, m = sum(lengths), 2 * len(lengths), cfg.hidden_text, cfg.ff_mult
    x = ad.Tensor(np.random.default_rng(0).normal(size=(1, n, d)))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        hidden = mm.forward_llm(params, cfg, x, lengths, reads)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert hidden.requires_grad and hidden.shape == (r, d)
    read_units = (8 + 2 * m) * n + 4 * n + (5 + 2 * m + 2) * r
    # the rest (softmax statistics, masks, 1/std, indices, nodes) is under one [N, d]
    assert read_units * d * 8 <= held < (read_units + n) * d * 8, (held / (d * 8), read_units)


def _full_forward_llm(params, cfg, x, lengths, reads):
    """Reference LM: every block over every row, then the read rows."""
    n, d = x.shape[1:]
    positions = np.concatenate([np.arange(t) for t in lengths])
    h = ad.add(ad.reshape(x, (n, d)), ad.embedding_lookup(params["lm.pos"], positions))
    for i in range(cfg.lm_layers):
        h = mm._encoder_block(params, cfg, f"lm.blocks.{i}", h, cfg.lm_heads, lengths)
    starts = np.cumsum([0] + lengths[:-1])
    index = np.concatenate([start + np.asarray(r) for start, r in zip(starts, reads)])
    return ad.embedding_lookup(mm._ln(params, "lm.ln_f", h, cfg.eps), index)


REPRESENTATIONS = ("raw_visual", "raw_multimodal", "fused_visual", "fused_multimodal",
                   "out_visual", "out_multimodal")


def test_last_block_at_read_rows_matches_full_forward(setup, monkeypatch):
    cfg, params, vocab, notes = setup
    for mode in mm.MODES:
        cfg_m = tiny_cfg(vocab_size=cfg.vocab_size, mode=mode)
        for modality in mm.MODALITIES:
            got = mm.embed_notes(params, cfg_m, vocab, notes[:5], modality=modality)
            with monkeypatch.context() as patch:
                patch.setattr(mm, "forward_llm", _full_forward_llm)
                want = mm.embed_notes(params, cfg_m, vocab, notes[:5], modality=modality)
            for field in REPRESENTATIONS:
                a, b = getattr(got, field), getattr(want, field)
                assert (a is None) == (b is None), (mode, modality, field)
                if a is None:
                    continue
                if mode in mm.MICL_PROMPT_MODES:
                    assert np.array_equal(a.data, b.data), (mode, modality, field)
                else:
                    # one query row per note: numpy may take a matrix-vector
                    # product, which rounds differently from the full one
                    np.testing.assert_allclose(a.data, b.data, rtol=0, atol=1e-13)


def test_read_rows_leave_saliency_unchanged(setup, monkeypatch):
    cfg, params, vocab, notes = setup
    params = {**params, TAU_NAME: ad.Tensor(np.asarray(3.0))}

    def matrices():
        _, reps, layers = attention_probabilities(params, cfg, vocab, notes[:4], LossConfig())
        return saliency_matrices(layers, reps.infos), reps, layers

    got, reps, layers = matrices()
    with monkeypatch.context() as patch:
        patch.setattr(mm, "forward_llm", _full_forward_llm)
        want, _, full = matrices()
    # the full forward's last-layer attention gradient is exactly zero
    # outside the read rows, which the read-row forward does not query
    for b, (info, (rows, probs), (_, probs_full)) in enumerate(zip(reps.infos, layers[-1],
                                                                  full[-1])):
        read = [info.visual_word_pos, info.compressed_pos]
        assert rows.tolist() == read and probs.shape == (cfg.lm_heads, 2, info.length)
        unread = np.setdiff1d(np.arange(info.length), read)
        assert not probs_full.grad[:, unread].any()
        assert np.array_equal(probs.data, probs_full.data[:, read])
        for layer in range(cfg.lm_layers):
            # zero entries must match exactly; the backward through the
            # last block's smaller products may round differently
            np.testing.assert_allclose(got[b][layer], want[b][layer], rtol=1e-12, atol=0)


def test_no_splice_keeps_token_count(setup):
    cfg, params, vocab, notes = setup
    note = notes[0]
    cfg = dataclasses.replace(cfg, mode="only_late_fusion")
    info = mm.embed_notes(params, cfg, vocab, [note]).infos[0]
    assert info.length == build_basic_prompt(note, vocab).length
    assert not info.spliced


def test_causal_isolation_bitwise(setup):
    cfg, params, vocab, notes = setup
    note = notes[0]
    layout = build_micl_prompt(note, vocab)
    rng = np.random.default_rng(5)
    cfg = dataclasses.replace(cfg, mode="micl")
    base = mm.embed_layouts(params, cfg, [layout], [note])
    for _ in range(8):
        # any position from the in-context compressed word onwards,
        # including the compressed-word token itself
        pos = int(rng.integers(layout.img_emb_pos, layout.length))
        ids = list(layout.token_ids)
        replacement = int(rng.integers(6, cfg.vocab_size))
        while replacement == ids[pos]:
            replacement = int(rng.integers(6, cfg.vocab_size))
        ids[pos] = replacement
        perturbed_layout = type(layout)(tuple(ids), layout.img_slot, layout.img_emb_pos)
        perturbed = mm.embed_layouts(params, cfg, [perturbed_layout], [note])
        assert np.array_equal(base.raw_visual.data, perturbed.raw_visual.data)
        if pos < layout.length - 1:
            assert not np.array_equal(base.raw_multimodal.data,
                                      perturbed.raw_multimodal.data)


def test_permutation_symmetry_of_connector(setup):
    cfg, params, vocab, notes = setup
    feats = mm.encode_images(params, cfg, np.stack([notes[0].image]))
    ev = mm.connect(params, cfg, feats).data
    perm = np.random.default_rng(9).permutation(np.arange(1, cfg.vision_len))
    shuffled = ad.Tensor(feats.data[:, np.concatenate([[0], perm]), :])
    ev_perm = mm.connect(params, cfg, shuffled).data
    np.testing.assert_allclose(ev, ev_perm, atol=1e-10)


def test_zero_connector_outputs_zero(setup):
    cfg, params, vocab, notes = setup
    zeroed = {name: ad.Tensor(np.zeros_like(t.data)) for name, t in params.items()}
    feats = ad.Tensor(np.random.default_rng(0).normal(size=(1, cfg.vision_len, cfg.hidden_vision)))
    out = mm.connect(zeroed, cfg, feats).data
    np.testing.assert_array_equal(out, np.zeros_like(out))


def test_gate_properties(setup):
    cfg, params, vocab, _ = setup
    h = cfg.hidden_text
    rng = np.random.default_rng(17)
    w = ad.Tensor(rng.normal(0, 0.2, (h, 2 * h)))
    b = ad.Tensor(rng.normal(0, 0.2, h))
    v = ad.Tensor(rng.normal(size=(64, h)))
    n = ad.Tensor(rng.normal(size=(64, h)))
    fused = ad.gate_fuse(v, n, w, b).data
    lo = np.minimum(v.data, n.data)
    hi = np.maximum(v.data, n.data)
    assert (fused >= lo - 1e-12).all() and (fused <= hi + 1e-12).all()
    # equal inputs pass through exactly up to rounding
    same = ad.gate_fuse(v, v, w, b).data
    np.testing.assert_allclose(same, v.data, rtol=0, atol=1e-12)


def test_gate_saturation():
    h = 4
    v = ad.Tensor(np.full((1, h), 2.0))
    n = ad.Tensor(np.full((1, h), -3.0))
    w = ad.Tensor(np.zeros((h, 2 * h)))
    huge = ad.Tensor(np.full(h, 1e3))
    assert np.allclose(ad.gate_fuse(v, n, w, huge).data, v.data)
    tiny = ad.Tensor(np.full(h, -1e3))
    assert np.allclose(ad.gate_fuse(v, n, w, tiny).data, n.data)


def test_project_linearity(setup):
    cfg, params, vocab, _ = setup
    rng = np.random.default_rng(2)
    a = ad.Tensor(rng.normal(size=(1, cfg.hidden_text)))
    b = ad.Tensor(rng.normal(size=(1, cfg.hidden_text)))
    lhs = mm.project(params, ad.add(ad.scale(a, 2.5), ad.scale(b, -0.5))).data
    rhs = 2.5 * mm.project(params, a).data - 0.5 * mm.project(params, b).data
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-14)


def test_modes_populate_expected_fields(setup):
    cfg, params, vocab, notes = setup
    note = notes[1]
    expect = {
        "basic": (False, False, False),
        "micl": (True, False, False),
        "late_fusion": (False, False, True),
        "notellm2": (True, True, True),
        "only_late_fusion": (False, False, True),
        "omni": (True, False, False),
    }
    for mode, (has_nv, has_fv, has_fm) in expect.items():
        rep = mm.embed_notes(params, dataclasses.replace(cfg, mode=mode), vocab, [note])
        assert (rep.raw_visual is not None) == has_nv, mode
        assert (rep.fused_visual is not None) == has_fv, mode
        assert (rep.fused_multimodal is not None) == has_fm, mode
        assert rep.out_multimodal.shape == (1, cfg.out_dim)
        micl_modes = {"micl", "notellm2", "omni"}
        assert (rep.infos[0].layout.img_emb_pos is not None) == (mode in micl_modes)


def test_modality_ablations(setup):
    cfg, params, vocab, notes = setup
    note = notes[2]
    assert cfg.mode == "notellm2"
    full = mm.embed_notes(params, cfg, vocab, [note])
    img_only = mm.embed_notes(params, cfg, vocab, [note], modality="image_only")
    txt_only = mm.embed_notes(params, cfg, vocab, [note], modality="text_only")
    # image-only drops the text, so the prompt is shorter
    assert img_only.infos[0].length < full.infos[0].length
    # text-only keeps the full prompt but swaps the visual rows
    assert txt_only.infos[0].length == full.infos[0].length
    assert not np.array_equal(txt_only.out_multimodal.data, full.out_multimodal.data)
    with pytest.raises(ConfigError):
        mm.embed_notes(params, cfg, vocab, [note], modality="nope")


def test_text_only_is_invariant_to_image(setup):
    cfg, params, vocab, notes = setup
    a = notes[0]
    b = Note(id=a.id, title=a.title, topics=a.topics, content=a.content,
             image=np.random.default_rng(1).normal(size=a.image.shape))
    ra = mm.embed_notes(params, cfg, vocab, [a], modality="text_only")
    rb = mm.embed_notes(params, cfg, vocab, [b], modality="text_only")
    assert np.array_equal(ra.out_multimodal.data, rb.out_multimodal.data)


def test_image_cache_matches_uncached(setup):
    cfg, params, vocab, notes = setup
    cache = {}
    r1 = mm.embed_notes(params, cfg, vocab, notes[:3], image_cache=cache)
    r2 = mm.embed_notes(params, cfg, vocab, notes[:3], image_cache=cache)
    r3 = mm.embed_notes(params, cfg, vocab, notes[:3])
    assert np.array_equal(r1.out_multimodal.data, r2.out_multimodal.data)
    assert np.array_equal(r1.out_multimodal.data, r3.out_multimodal.data)
    assert sorted(note_id for _, note_id in cache) == [n.id for n in notes[:3]]


def test_image_cache_shared_across_seeds(setup):
    cfg, params, vocab, notes = setup
    other = mm.init_params(cfg, seed=4)
    cache = {}
    mm.embed_notes(params, cfg, vocab, notes[:3], image_cache=cache)
    shared = mm.embed_notes(other, cfg, vocab, notes[:3], image_cache=cache)
    alone = mm.embed_notes(other, cfg, vocab, notes[:3])
    assert np.array_equal(shared.out_multimodal.data, alone.out_multimodal.data)
    assert len(cache) == 6


def test_frozen_vision_gets_no_grad(setup):
    cfg, params, vocab, notes = setup
    rep = mm.embed_notes(params, cfg, vocab, notes[:1])
    ad.backward(tsum(rep.out_multimodal))
    for name, tensor in params.items():
        if name.startswith("vision."):
            assert not tensor.requires_grad and tensor.grad is None
    assert params["project.w"].grad is not None
    for name, tensor in params.items():
        tensor.grad = None


def test_unfrozen_vision_gets_grad():
    cfg = tiny_cfg(vocab_size=80, freeze_vision=False)
    notes = make_notes(2, cfg)
    vocab = vocab_for(notes)
    cfg = tiny_cfg(vocab_size=len(vocab), freeze_vision=False)
    params = mm.init_params(cfg, seed=0)
    rep = mm.embed_notes(params, cfg, vocab, notes[:1])
    ad.backward(tsum(rep.out_multimodal))
    assert params["vision.patch_proj.w"].grad is not None


def test_determinism_bitwise(setup):
    cfg, params, vocab, notes = setup
    a = mm.embed_notes(params, cfg, vocab, notes[:4]).out_multimodal.data
    b = mm.embed_notes(params, cfg, vocab, notes[:4]).out_multimodal.data
    assert np.array_equal(a, b)


@pytest.mark.parametrize("mode", mm.MODES)
def test_no_grad_embedding_matches_recording_bitwise(setup, mode):
    # 32 notes pack more LM rows than one ff block; under no_grad every ff
    # runs through one reused block, and the bits stay the recording call's
    cfg, params, vocab, _ = setup
    cfg = dataclasses.replace(cfg, mode=mode)
    notes = make_notes(32, cfg, seed=5)
    recorded = mm.embed_notes(params, cfg, vocab, notes)
    assert recorded.out_multimodal.requires_grad
    assert sum(info.length for info in recorded.infos) > 2 * ad._FF_BLOCK
    with ad.no_grad():
        quiet = mm.embed_notes(params, cfg, vocab, notes)
    assert not quiet.out_multimodal.requires_grad
    assert np.array_equal(quiet.out_multimodal.data, recorded.out_multimodal.data)


def test_sequence_length_cap(setup):
    cfg, params, vocab, notes = setup
    small = tiny_cfg(vocab_size=cfg.vocab_size, max_positions=4)
    params_small = mm.init_params(small, seed=0)
    with pytest.raises(ConfigError):
        mm.embed_notes(params_small, small, vocab, notes[:1])


def test_bad_image_shape_rejected(setup):
    cfg, params, vocab, notes = setup
    bad = Note(id=99, title="x", topics=["y"], content="z",
               image=np.zeros((cfg.patches + 1, cfg.patch_dim)))
    with pytest.raises(DataError):
        mm.embed_notes(params, cfg, vocab, [bad])


def test_batched_matches_single(setup):
    cfg, params, vocab, notes = setup
    batch = mm.embed_notes(params, cfg, vocab, notes[:3])
    for i, note in enumerate(notes[:3]):
        single = mm.embed_notes(params, cfg, vocab, [note])
        np.testing.assert_allclose(single.out_multimodal.data[0],
                                   batch.out_multimodal.data[i], rtol=0, atol=1e-10)


def test_end_to_end_gradients_match_fd(setup):
    cfg, params, vocab, notes = setup
    batch_notes = notes[:2]

    def loss_value():
        reps = mm.embed_notes(params, cfg, vocab, batch_notes)
        return tsum(mul(reps.out_multimodal, reps.out_multimodal))

    for name, tensor in params.items():
        tensor.grad = None
    ad.backward(loss_value())
    rng = np.random.default_rng(23)
    candidates = [n for n, t in params.items() if t.requires_grad]
    for name in rng.choice(candidates, size=6, replace=False):
        tensor = params[name]
        flat = tensor.data.reshape(-1)
        idx = int(rng.integers(flat.size))
        keep = flat[idx]
        flat[idx] = keep + 1e-6
        hi = loss_value().item()
        flat[idx] = keep - 1e-6
        lo = loss_value().item()
        flat[idx] = keep
        numeric = (hi - lo) / 2e-6
        analytic = tensor.grad.reshape(-1)[idx]
        assert abs(analytic - numeric) <= 1e-4 * max(abs(analytic), abs(numeric), 1e-3), name
    for tensor in params.values():
        tensor.grad = None
