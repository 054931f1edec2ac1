import csv
import json
import math

import numpy as np
import pytest

from mlrm import saliency
from mlrm.autodiff import Retained, Tensor, _topo_order, backward, retaining
from mlrm.data import (build_pairs, build_vocab, generate_synthetic, make_batches, PairConfig,
                       SyntheticConfig)
from mlrm.model import MODES, ModelConfig, embed_notes, init_params
from mlrm.saliency import batch_saliency, saliency_report, write_report, CSV_FIELDS
from mlrm.training import TAU_NAME, LossConfig, representation_loss
from mlrm.autodiff import Tensor
from refops import attention_probabilities, decompose, position_sets, saliency_matrices


def make_cfg(mode, **kw):
    base = dict(vocab_size=64, hidden_text=16, hidden_vision=12, patches=4,
                patch_dim=6, visual_tokens=3, lm_layers=2, lm_heads=2,
                vision_layers=1, vision_heads=2, connector_layers=1,
                connector_heads=2, out_dim=8, mode=mode)
    base.update(kw)
    return ModelConfig(**base)


def setup(mode, n=4, **cfg_kw):
    data_cfg = SyntheticConfig(seed=3, n_notes=20, n_clusters=2, rho=1.0,
                               patches=4, patch_dim=6)
    notes, _, _ = generate_synthetic(data_cfg)
    notes = notes[:n]
    vocab = build_vocab(notes)
    cfg = make_cfg(mode, **cfg_kw)
    cfg.vocab_size = len(vocab)
    params = init_params(cfg, seed=2)
    params[TAU_NAME] = Tensor(np.asarray(3.0), requires_grad=True)
    return params, cfg, vocab, notes


def run_retained(params, cfg, vocab, notes):
    """``batch_saliency``'s loss and backward over grad-free views of the
    parameters; returns (loss, reps, the multimodal pass's retained maps)."""
    views = {name: Tensor(p.data) for name, p in params.items()}
    with retaining() as kept:
        reps = embed_notes(views, cfg, vocab, notes)
    loss = representation_loss(views, cfg, vocab, notes, LossConfig(), reps)
    backward(loss)
    return loss, reps, kept


def run_stored(params, cfg, vocab, notes):
    """The dense reference: (reps, layers, matrices) of the saliency loss
    run through the stored attention's explicit probabilities."""
    _, reps, layers = attention_probabilities(params, cfg, vocab, notes, LossConfig())
    return reps, layers, saliency_matrices(layers, reps.infos)


# ---------------------------------------------------------------------------
# Position sets


def test_position_sets_partition_lower_triangle():
    for mode in ("basic", "micl", "notellm2", "only_late_fusion"):
        params, cfg, vocab, notes = setup(mode, n=2)
        reps = embed_notes(params, cfg, vocab, notes)
        for info in reps.infos:
            p_v, p_t, p_o = position_sets(info, mode)
            t = info.length
            assert p_v.shape == p_t.shape == p_o.shape == (t, t)
            assert not (p_v & p_t).any() and not (p_v & p_o).any() and not (p_t & p_o).any()
            assert p_v.sum() + p_t.sum() + p_o.sum() == t * (t - 1) // 2
            everything = p_v | p_t | p_o
            assert set(zip(*np.nonzero(everything))) == {(i, j) for i in range(t)
                                                         for j in range(i)}


def test_visual_set_sizes_by_mode():
    sizes = {}
    for mode in ("basic", "micl", "notellm2", "only_late_fusion"):
        params, cfg, vocab, notes = setup(mode, n=2)
        reps = embed_notes(params, cfg, vocab, notes)
        p_v, _, _ = position_sets(reps.infos[0], mode)
        sizes[mode] = int(p_v.sum())
    assert sizes["basic"] == 3                   # one column per spliced row
    assert sizes["micl"] == 4                    # plus the folded compressed word
    assert sizes["notellm2"] == 4
    assert sizes["only_late_fusion"] == 1        # the kept placeholder token
    assert sizes["micl"] - sizes["basic"] == 1


def test_visual_set_row_is_compressed_position():
    params, cfg, vocab, notes = setup("micl", n=2)
    reps = embed_notes(params, cfg, vocab, notes)
    info = reps.infos[0]
    p_v, p_t, _ = position_sets(info, "micl")
    c = info.compressed_pos
    assert all(i == c for i, _ in zip(*np.nonzero(p_v)))
    assert all(i == c for i, _ in zip(*np.nonzero(p_t)))
    assert set(np.flatnonzero(p_v[c])) >= set(info.visual_positions)


# ---------------------------------------------------------------------------
# Saliency matrices


def test_saliency_single_head_hadamard_oracle():
    # the fused op's map against |A * dL/dA| of the reference's explicit
    # single-head probabilities
    params, cfg, vocab, notes = setup("notellm2", n=4,
                                               lm_layers=1, lm_heads=1)
    loss, reps, retained = run_retained(params, cfg, vocab, notes)
    _, (layer,), _ = run_stored(params, cfg, vocab, notes)
    kept = retained[0]
    assert kept.grad is None
    for info, rows, s, (_, probs) in zip(reps.infos, kept.queries, kept.blocks(), layer):
        # the only layer is the last: it holds the read rows alone
        t = info.length
        assert rows.tolist() == [info.visual_word_pos, info.compressed_pos]
        a, g, got = np.zeros((t, t)), np.zeros((t, t)), np.zeros((t, t))
        a[rows], g[rows], got[rows] = probs.data[0], probs.grad[0], s
        want = np.abs(a * g)
        assert np.max(np.abs(got - want)) <= 1e-12
        assert np.all(got >= 0.0)


def test_saliency_sums_over_heads():
    params, cfg, vocab, notes = setup("notellm2", n=4, lm_heads=2)
    loss, reps, retained = run_retained(params, cfg, vocab, notes)
    _, layers, matrices = run_stored(params, cfg, vocab, notes)
    b, info = 0, reps.infos[0]
    t = info.length
    rows, probs = layers[0][b]
    a, g = probs.data, probs.grad
    assert rows.tolist() == list(range(t)) and a.shape == g.shape == (cfg.lm_heads, t, t)
    want = sum(np.abs(a[h] * g[h]) for h in range(cfg.lm_heads))
    assert np.allclose(matrices[b][0], want, rtol=0, atol=1e-15)
    assert np.allclose(retained[0].blocks()[b], want, rtol=0, atol=1e-15)


def test_saliency_zero_for_single_pair_batch():
    # one pair means no negatives: the loss is constant zero, so every
    # attention gradient (hence every saliency mean) vanishes
    params, cfg, vocab, notes = setup("notellm2", n=2)
    loss, _, _ = run_retained(params, cfg, vocab, notes)
    assert loss.item() == 0.0
    triples = batch_saliency(params, cfg, vocab, notes, LossConfig())
    assert len(triples) == 2 and all(len(t) == cfg.lm_layers for t in triples)
    assert all(value == 0.0 for note in triples for triple in note for value in triple)


def test_saliency_support_is_causal():
    params, cfg, vocab, notes = setup("notellm2", n=4)
    loss, reps, retained = run_retained(params, cfg, vocab, notes)
    _, _, matrices = run_stored(params, cfg, vocab, notes)
    for per_layer in matrices:
        for m in per_layer:
            assert np.all(m[np.triu_indices(m.shape[0], k=1)] == 0.0)
    # the fused op's maps too: row i of a segment is zero beyond column i
    for layer in retained:
        for rows, s in zip(layer.queries, layer.blocks()):
            positions = np.arange(s.shape[1])[rows]
            assert np.all(s[positions[:, None] < np.arange(s.shape[1])] == 0.0)


@pytest.mark.parametrize("mode", MODES)
def test_stored_reference_matches_fused_maps_bitwise(mode):
    # the reference keeps every probability block and reads dL/dA from
    # its explicit leaves; the fused op writes the same maps to the bit
    params, cfg, vocab, notes = setup(mode, n=4)
    loss, reps, retained = run_retained(params, cfg, vocab, notes)
    ref_loss, _, layers = attention_probabilities(params, cfg, vocab, notes, LossConfig())
    assert loss.data.tobytes() == ref_loss.data.tobytes()
    assert len(layers) == len(retained) == cfg.lm_layers
    for kept, layer in zip(retained, layers):
        for rows, s, (ref_rows, probs) in zip(kept.queries, kept.blocks(), layer):
            assert np.array_equal(np.arange(s.shape[1])[rows], ref_rows)
            assert s.tobytes() == np.abs(probs.data * probs.grad).sum(axis=0).tobytes()


# ---------------------------------------------------------------------------
# Decomposition


def test_decompose_matches_brute_force_scan():
    params, cfg, vocab, notes = setup("notellm2", n=4)
    reps, _, matrices = run_stored(params, cfg, vocab, notes)
    for b, info in enumerate(reps.infos):
        for layer in range(cfg.lm_layers):
            m = matrices[b][layer]
            p_v, p_t, p_o = position_sets(info, cfg.mode)
            s_v, s_t, s_o = decompose(m, (p_v, p_t, p_o))
            for got, pset in ((s_v, p_v), (s_t, p_t), (s_o, p_o)):
                entries = [float(m[i, j]) for i, j in zip(*np.nonzero(pset))]
                want = np.mean(entries)
                assert got == pytest.approx(float(want), rel=1e-12, abs=1e-300)
                assert got == math.fsum(sorted(entries)) / len(entries)
            assert s_v >= 0 and s_t >= 0 and s_o >= 0


@pytest.mark.parametrize("mode, layers", [(m, 2) for m in MODES] + [("notellm2", 1)])
def test_batch_saliency_matches_dense_reference(mode, layers):
    # the production means, read from the fused op's maps, equal the
    # masked means of the dense maps of the stored reference's explicit
    # probabilities bit for bit; with one layer, the last layer's block
    # holds only the read rows
    params, cfg, vocab, notes = setup(mode, n=4, lm_layers=layers)
    triples = batch_saliency(params, cfg, vocab, notes, LossConfig())
    reps, _, matrices = run_stored(params, cfg, vocab, notes)
    want = [[decompose(m, position_sets(info, mode)) for m in per_layer]
            for per_layer, info in zip(matrices, reps.infos)]
    assert len(triples) == len(notes)
    assert [[tuple(map(float.hex, t)) for t in note] for note in triples] == \
        [[tuple(map(float.hex, t)) for t in note] for note in want]
    # the first layer queries every row; the last one reads the compressed
    # word alone in single-segment prompts, so its S_o is zero there
    assert all(v > 0.0 for note in triples for v in note[0])
    assert all(s_v > 0.0 and s_t > 0.0 for note in triples for s_v, s_t, _ in note)


@pytest.mark.parametrize("mode", MODES)
def test_batch_saliency_retains_only_the_multimodal_pass(mode, monkeypatch):
    # omni's image-only and text-only passes run after the retaining
    # block, so they keep no map that nobody reads
    params, cfg, vocab, notes = setup(mode)
    grad_leaves = []

    def spy(loss):
        grad_leaves.extend(p for node in _topo_order(loss) for p in node.parents
                           if isinstance(p, Tensor))
        backward(loss)
    monkeypatch.setattr(saliency, "backward", spy)
    batch_saliency(params, cfg, vocab, notes, LossConfig())
    assert len(grad_leaves) == cfg.lm_layers
    assert all(isinstance(x, Retained) for x in grad_leaves)


# ---------------------------------------------------------------------------
# Report


def world_with_pairs(mode="notellm2", n_notes=40):
    data_cfg = SyntheticConfig(seed=5, n_notes=n_notes, n_clusters=2, rho=1.0,
                               patches=4, patch_dim=6)
    notes, events, _ = generate_synthetic(data_cfg)
    pairs = build_pairs(events, PairConfig())
    vocab = build_vocab(notes)
    cfg = make_cfg(mode)
    cfg.vocab_size = len(vocab)
    params = init_params(cfg, seed=2)
    params[TAU_NAME] = Tensor(np.asarray(3.0), requires_grad=True)
    return params, cfg, vocab, {n.id: n for n in notes}, pairs


def test_report_shares_sum_to_one():
    params, cfg, vocab, by_id, pairs = world_with_pairs()
    report = saliency_report(params, cfg, vocab, by_id, pairs, LossConfig(),
                             batch_pairs=2, seed=0, max_notes=8)
    assert report.n_notes == 8
    assert len(report.layers) == cfg.lm_layers
    for row in report.layers:
        assert abs(row["share_v"] + row["share_t"] + row["share_o"] - 1.0) <= 1e-12
        assert row["S_v"] >= 0 and row["S_t"] >= 0 and row["S_o"] >= 0


def test_report_single_batch_equals_batch_decomposition():
    params, cfg, vocab, by_id, pairs = world_with_pairs()
    batch = next(make_batches(pairs, 2, seed=0, epoch=0))
    notes = [by_id[i] for i in batch]
    triples = batch_saliency(params, cfg, vocab, notes, LossConfig())
    report = saliency_report(params, cfg, vocab, by_id, pairs, LossConfig(),
                             batch_pairs=2, seed=0, max_notes=len(notes))
    for layer in range(cfg.lm_layers):
        vals = sorted(t[layer][0] for t in triples)
        want = math.fsum(vals) / len(vals)
        assert report.layers[layer]["S_v"] == want


def test_report_packs_only_the_batches_it_reads(monkeypatch):
    params, cfg, vocab, by_id, pairs = world_with_pairs()
    packed = []

    def counting(*args):
        for batch in make_batches(*args):
            packed.append(batch)
            yield batch
    monkeypatch.setattr(saliency, "make_batches", counting)
    report = saliency_report(params, cfg, vocab, by_id, pairs, LossConfig(),
                             batch_pairs=2, seed=0, max_notes=8)
    assert report.n_notes == 8
    assert len(packed) == 2
    assert len(list(make_batches(pairs, 2, 0, 0))) > 2


def test_report_param_grads_left_clean():
    params, cfg, vocab, by_id, pairs = world_with_pairs()
    saliency_report(params, cfg, vocab, by_id, pairs, LossConfig(),
                    batch_pairs=2, seed=0, max_notes=4)
    assert all(p.grad is None for p in params.values())


def test_report_computes_no_parameter_gradients(monkeypatch):
    params, cfg, vocab, by_id, pairs = world_with_pairs()
    before = {name: p.data.tobytes() for name, p in params.items()}
    grad_leaves = []

    def spy(loss):
        grad_leaves.extend(p for node in _topo_order(loss) for p in node.parents
                           if isinstance(p, Tensor))
        backward(loss)
    monkeypatch.setattr(saliency, "backward", spy)
    saliency_report(params, cfg, vocab, by_id, pairs, LossConfig(),
                    batch_pairs=2, seed=0, max_notes=8)
    # two batches, and the only leaves that take a gradient are the
    # retained attention of each layer
    assert len(grad_leaves) == 2 * cfg.lm_layers
    assert all(isinstance(x, Retained) for x in grad_leaves)
    assert all(p.grad is None for p in params.values())
    assert {name: p.data.tobytes() for name, p in params.items()} == before


def test_write_report_formats(tmp_path):
    params, cfg, vocab, by_id, pairs = world_with_pairs()
    report = saliency_report(params, cfg, vocab, by_id, pairs, LossConfig(),
                             batch_pairs=2, seed=0, max_notes=4)
    csv_path = tmp_path / "saliency.csv"
    json_path = tmp_path / "saliency.json"
    write_report(report, csv_path, json_path)

    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == cfg.lm_layers
    assert tuple(rows[0]) == CSV_FIELDS
    for i, row in enumerate(rows):
        assert int(row["layer"]) == i
        assert float(row["S_v"]) == report.layers[i]["S_v"]

    blob = json.loads(json_path.read_text())
    assert blob["mode"] == "notellm2"
    assert blob["folded_visual_word"] is True
    assert blob["n_notes"] == report.n_notes
    assert blob["layers"] == report.layers


def test_report_mode_flag_for_single_segment_prompt():
    params, cfg, vocab, by_id, pairs = world_with_pairs(mode="basic")
    report = saliency_report(params, cfg, vocab, by_id, pairs, LossConfig(),
                             batch_pairs=2, seed=0, max_notes=4)
    assert report.folded_visual_word is False
