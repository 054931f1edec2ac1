import dataclasses
import json
import math
import os
import re
import struct

import numpy as np
import pytest

import mlrm.model
import mlrm.training
from mlrm.autodiff import Tensor, backward, contrastive
from mlrm.checkpoint import load_checkpoint, save_checkpoint
from mlrm.data import PairConfig, SyntheticConfig, build_pairs, build_vocab, generate_synthetic
from mlrm.errors import ConfigError, FormatError, NumericError, ShapeError
from mlrm.model import MODALITIES, ModelConfig, embed_notes, init_params
from mlrm.retrieval import build_table
from mlrm.saliency import batch_saliency
from mlrm.training import (
    TAU_NAME,
    AdamW,
    LossConfig,
    OptimConfig,
    RunSettings,
    batch_loss,
    clip_gradients,
    decode_config,
    final_loss,
    grad_norm,
    init_state,
    load_state,
    lr_at,
    save_state,
    train,
)
from fdcheck import central_diff


def brute_loss(emb: np.ndarray, partner, tau: float) -> float:
    """Direct evaluation of the objective, no factoring tricks."""
    normed = emb / np.linalg.norm(emb, axis=1, keepdims=True)
    sims = normed @ normed.T
    scale = math.exp(tau)
    rows = []
    for i in range(emb.shape[0]):
        denom = math.fsum(
            math.exp(sims[i, j] * scale) for j in range(emb.shape[0]) if j != i
        )
        rows.append(math.log(denom) - sims[i, partner[i]] * scale)
    return math.fsum(rows) / len(rows)


def pairs_partner(n: int) -> np.ndarray:
    return np.arange(n) ^ 1


def within_loss(emb, tau) -> Tensor:
    """The loss over one table: ``emb`` (an array or a Tensor) as both."""
    table = emb if isinstance(emb, Tensor) else Tensor(emb)
    return contrastive(table, table, tau if isinstance(tau, Tensor)
                       else Tensor(np.asarray(tau)))


def test_single_pair_loss_is_exactly_zero():
    emb = Tensor(np.random.default_rng(0).normal(size=(2, 8)), requires_grad=True)
    loss = within_loss(emb, 3.0)
    assert loss.item() == 0.0


def test_orthogonal_pairs_closed_form():
    emb = np.zeros((4, 16))
    emb[0, 0] = emb[1, 0] = 1.0
    emb[2, 1] = emb[3, 1] = 1.0
    loss = within_loss(emb, 3.0)
    expected = math.log1p(2.0 * math.exp(-math.exp(3.0)))
    assert abs(loss.item() - expected) <= 1e-12 * expected


def test_loss_matches_brute_force():
    rng = np.random.default_rng(7)
    for n in (2, 4, 6, 8):
        for _ in range(5):
            emb = rng.normal(size=(n, 12))
            tau = float(rng.uniform(-1.0, 3.0))
            got = within_loss(emb, tau).item()
            want = brute_loss(emb, pairs_partner(n), tau)
            # abs floor covers the reference's own last-ulp noise near zero
            assert got == pytest.approx(want, rel=1e-12, abs=1e-13)


def test_loss_permutation_invariant():
    # reordering whole pairs, and swapping query and related within a
    # pair, keeps every row's positive and negatives
    rng = np.random.default_rng(3)
    emb = rng.normal(size=(8, 10))
    base = within_loss(emb, 1.0).item()
    for seed in range(4):
        draw = np.random.default_rng(seed)
        order = 2 * draw.permutation(4)[:, None] + np.array([0, 1])
        swap = draw.permutation(4) < 2  # two of the four pairs
        order[swap] = order[swap, ::-1]
        moved = within_loss(emb[order.ravel()], 1.0).item()
        assert moved == pytest.approx(base, rel=1e-12)


def test_loss_rejects_odd_row_count():
    # row i's positive is row i ^ 1, so an odd count leaves one row unpaired
    emb = Tensor(np.ones((3, 4)))
    with pytest.raises(ShapeError):
        within_loss(emb, 0.0)
    with pytest.raises(ShapeError):
        contrastive(emb, Tensor(np.ones((3, 4))), Tensor(np.asarray(0.0)))


def test_loss_rejects_zero_norm_rows():
    emb = np.ones((4, 3))
    emb[2] = 0.0
    with pytest.raises(NumericError, match="row 2"):
        within_loss(emb, 0.0)
    with pytest.raises(NumericError, match="row 2"):
        contrastive(Tensor(np.ones((4, 3))), Tensor(emb), Tensor(np.asarray(0.0)))


def test_loss_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    emb0 = rng.normal(size=(6, 7))

    emb = Tensor(emb0.copy(), requires_grad=True)
    tau = Tensor(np.asarray(0.7), requires_grad=True)
    loss = within_loss(emb, tau)
    backward(loss)

    def f_emb(arrays):
        return within_loss(arrays[0], 0.7).item()

    num_emb = central_diff(f_emb, [emb0.copy()], 0)
    assert np.allclose(emb.grad, num_emb, rtol=1e-4, atol=1e-8)

    h = 1e-6
    hi = within_loss(emb0, 0.7 + h).item()
    lo = within_loss(emb0, 0.7 - h).item()
    num_tau = (hi - lo) / (2.0 * h)
    assert float(tau.grad) == pytest.approx(num_tau, rel=1e-4, abs=1e-8)


def test_cross_loss_collapses_to_within_table_loss():
    rng = np.random.default_rng(5)
    emb = rng.normal(size=(6, 9))
    tau = Tensor(np.asarray(0.5))
    within = within_loss(emb, tau).item()
    across = contrastive(Tensor(emb), Tensor(emb.copy()), tau).item()
    assert across == within


def test_cross_loss_shape_mismatch():
    with pytest.raises(ShapeError):
        contrastive(Tensor(np.ones((4, 3))), Tensor(np.ones((4, 5))), Tensor(np.asarray(0.0)))


def test_final_loss_examples():
    two = Tensor(np.asarray(2.0))
    one = Tensor(np.asarray(1.0))
    assert final_loss(two, one, 9.0).item() == 1.1
    # equal inputs are a fixed point for any blend weight
    for alpha in (0.5, 1.0, 9.0, 123.0):
        assert final_loss(two, two, alpha).item() == pytest.approx(2.0, rel=1e-12)
    # vanishing alpha recovers the first loss
    assert final_loss(two, one, 1e-12).item() == pytest.approx(2.0, rel=1e-9)


# ---------------------------------------------------------------------------
# Variant dispatch


def tiny_cfg(mode="notellm2"):
    return ModelConfig(vocab_size=64, hidden_text=16, hidden_vision=12, patches=4,
                       patch_dim=6, visual_tokens=3, lm_layers=1, lm_heads=2,
                       vision_layers=1, vision_heads=2, connector_layers=1,
                       connector_heads=2, out_dim=8, mode=mode)


def tiny_corpus(n=8, seed=0):
    cfg = SyntheticConfig(seed=seed, n_notes=max(n, 20), n_clusters=2, rho=1.0,
                          patches=4, patch_dim=6)
    notes, _, _ = generate_synthetic(cfg)
    return notes[:n]


def loss_setup(mode, n=4):
    notes = tiny_corpus(n)
    vocab = build_vocab(notes)
    cfg = tiny_cfg(mode)
    cfg.vocab_size = len(vocab)
    params = init_params(cfg, seed=1)
    params[TAU_NAME] = Tensor(np.asarray(3.0), requires_grad=True)
    return params, cfg, vocab, notes


def test_basic_mode_never_touches_fusion_parameters():
    params, cfg, vocab, notes = loss_setup("basic")
    loss, _ = batch_loss(params, cfg, vocab, notes, LossConfig())
    backward(loss)
    for name in ("fusion.vision_proj.w", "fusion.gate_visual.w", "fusion.gate_multimodal.w"):
        assert params[name].grad is None
    assert params["connector.out.w"].grad is not None  # spliced path still live


def test_blended_modes_recompose_from_representations():
    for mode in ("micl", "notellm2"):
        params, cfg, vocab, notes = loss_setup(mode)
        loss, reps = batch_loss(params, cfg, vocab, notes, LossConfig())
        tau = params[TAU_NAME]
        lv = within_loss(reps.out_visual, tau)
        lm = within_loss(reps.out_multimodal, tau)
        assert loss.item() == final_loss(lv, lm, 9.0).item()


def test_single_table_modes_recompose():
    for mode in ("basic", "late_fusion", "only_late_fusion"):
        params, cfg, vocab, notes = loss_setup(mode)
        loss, reps = batch_loss(params, cfg, vocab, notes, LossConfig())
        again = within_loss(reps.out_multimodal, params[TAU_NAME])
        assert loss.item() == again.item()


def test_omni_mode_is_mean_of_six_terms():
    params, cfg, vocab, notes = loss_setup("omni")
    loss, _ = batch_loss(params, cfg, vocab, notes, LossConfig())
    tau = params[TAU_NAME]
    tables = {
        m: embed_notes(params, cfg, vocab, notes, modality=m).out_multimodal
        for m in ("multimodal", "image_only", "text_only")
    }
    e_m, e_i, e_t = tables["multimodal"], tables["image_only"], tables["text_only"]
    terms = [contrastive(a, b, tau).item() for a, b in (
        (e_i, e_i), (e_t, e_t), (e_m, e_m), (e_i, e_t), (e_i, e_m), (e_t, e_m))]
    assert loss.item() == pytest.approx(sum(terms) / 6.0, rel=1e-12)


# ---------------------------------------------------------------------------
# Optimizer and schedule


def test_lr_schedule_endpoints_exact():
    optim = OptimConfig(peak_lr=3e-4, steps=500, warmup_ratio=0.1)
    assert optim.warmup_steps == 50
    assert lr_at(50, optim) == 3e-4
    assert lr_at(500, optim) == 0.0
    assert lr_at(1, optim) == 3e-4 / 50
    ramp = [lr_at(s, optim) for s in range(1, 51)]
    decay = [lr_at(s, optim) for s in range(50, 501)]
    assert all(a < b for a, b in zip(ramp, ramp[1:]))
    assert all(a > b for a, b in zip(decay, decay[1:]))


def test_lr_schedule_no_warmup_and_bounds():
    optim = OptimConfig(peak_lr=1.0, steps=10, warmup_ratio=0.0)
    assert lr_at(1, optim) == 0.9
    with pytest.raises(ConfigError):
        lr_at(0, optim)
    with pytest.raises(ConfigError):
        lr_at(11, optim)


def test_adamw_matches_scalar_hand_reference():
    cfg = OptimConfig(peak_lr=0.1, steps=10, beta1=0.9, beta2=0.999,
                      eps=1e-8, weight_decay=1e-3)
    params = {"w": Tensor(np.asarray([[0.5]]), requires_grad=True)}
    opt = AdamW(params, cfg)
    grads = [0.3, -0.2, 0.05]

    w, m, v = 0.5, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        params["w"].grad = np.asarray([[g]])
        opt.step(params, 0.1)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mh = m / (1.0 - 0.9 ** t)
        vh = v / (1.0 - 0.999 ** t)
        w = w - 0.1 * (mh / (math.sqrt(vh) + 1e-8) + 1e-3 * w)
        assert params["w"].data[0, 0] == pytest.approx(w, rel=1e-12)


def test_adamw_decay_mask_by_rank():
    cfg = OptimConfig()
    params = {
        "matrix": Tensor(np.full((2, 2), 2.0), requires_grad=True),
        "bias": Tensor(np.full(2, 2.0), requires_grad=True),
        "tau": Tensor(np.asarray(2.0), requires_grad=True),
    }
    opt = AdamW(params, cfg)
    for name in params:
        params[name].grad = np.zeros_like(params[name].data)
    opt.step(params, lr=0.5)
    # zero gradient: only the decoupled decay moves anything
    assert np.all(params["matrix"].data < 2.0)
    assert np.all(params["bias"].data == 2.0)
    assert params["tau"].data == 2.0


def test_adamw_skips_missing_grads():
    params = {
        "a": Tensor(np.ones((2, 2)), requires_grad=True),
        "b": Tensor(np.ones((2, 2)), requires_grad=True),
    }
    opt = AdamW(params, OptimConfig())
    params["a"].grad = np.ones((2, 2))
    opt.step(params, lr=0.01)
    assert np.array_equal(params["b"].data, np.ones((2, 2)))
    assert np.all(opt.v["b"] == 0.0)
    assert not np.array_equal(params["a"].data, np.ones((2, 2)))


def test_clip_gradients_norm_and_scaling():
    params = {
        "a": Tensor(np.zeros(1), requires_grad=True),
        "b": Tensor(np.zeros(1), requires_grad=True),
    }
    params["a"].grad = np.asarray([3.0])
    params["b"].grad = np.asarray([4.0])
    assert grad_norm(params) == 5.0
    pre = clip_gradients(params, 2.5)  # factor 0.5 is exact
    assert pre == 5.0
    assert params["a"].grad[0] == 1.5
    assert params["b"].grad[0] == 2.0
    # already small: untouched
    params["a"].grad = np.asarray([0.1])
    params["b"].grad = np.asarray([0.2])
    assert clip_gradients(params, 1.0) == pytest.approx(math.sqrt(0.05), rel=1e-15)
    assert params["a"].grad[0] == 0.1


# ---------------------------------------------------------------------------
# Training loop


def small_world(mode="notellm2", n_notes=60, seed=5):
    data_cfg = SyntheticConfig(seed=seed, n_notes=n_notes, n_clusters=2, rho=1.0,
                               patches=4, patch_dim=6)
    notes, events, _ = generate_synthetic(data_cfg)
    pairs = build_pairs(events, PairConfig())
    vocab = build_vocab(notes)
    cfg = tiny_cfg(mode)
    cfg.vocab_size = len(vocab)
    return notes, pairs, vocab, cfg


def test_train_smoke_metrics_and_frozen_vision(tmp_path):
    notes, pairs, vocab, cfg = small_world()
    optim = OptimConfig(peak_lr=1e-3, steps=6)
    state = init_state(cfg, LossConfig(), optim, RunSettings(seed=1, batch_pairs=2), vocab)
    vision_before = {n: p.data.copy() for n, p in state.params.items()
                     if n.startswith("vision.")}
    out = tmp_path / "run"
    state = train(state, notes, pairs, out_dir=out)
    assert state.step == 6
    lines = [json.loads(l) for l in (out / "metrics.jsonl").read_text().splitlines()]
    assert [l["step"] for l in lines] == list(range(1, 7))
    for line in lines:
        assert set(line) == {"step", "loss", "lr", "tau", "grad_norm"}
        assert math.isfinite(line["loss"]) and line["grad_norm"] >= 0.0
    for name, before in vision_before.items():
        assert np.array_equal(state.params[name].data, before)
    assert (out / "checkpoint.mlrm").exists()
    # temperature is trained
    assert state.params[TAU_NAME].item() != 3.0


def test_resume_is_bitwise_identical(tmp_path):
    notes, pairs, vocab, cfg = small_world()
    optim = OptimConfig(peak_lr=1e-3, steps=6)
    run = RunSettings(seed=2, batch_pairs=2)

    full = init_state(cfg, LossConfig(), optim, run, vocab)
    full = train(full, notes, pairs, out_dir=tmp_path / "full")

    half = init_state(cfg, LossConfig(), optim, run, vocab)
    half = train(half, notes, pairs, out_dir=tmp_path / "half", steps=3)
    assert half.step == 3
    resumed = load_state(tmp_path / "half" / "checkpoint.mlrm")
    assert resumed.step == 3
    resumed = train(resumed, notes, pairs, out_dir=tmp_path / "resumed")

    tail_full = [m for m in full.metrics if m["step"] > 3]
    tail_resumed = resumed.metrics
    assert [m["loss"] for m in tail_full] == [m["loss"] for m in tail_resumed]
    assert [m["grad_norm"] for m in tail_full] == [m["grad_norm"] for m in tail_resumed]
    for name in full.params:
        assert np.array_equal(full.params[name].data, resumed.params[name].data), name


def test_train_aborts_on_nonfinite_loss():
    # the blame names a parameter that is not finite, frozen ones too,
    # else the first op whose output is not: a finite tau so large that
    # exp(tau) overflows inside the loss is the loss op's fault
    notes, pairs, vocab, cfg = small_world()
    for name, index, value in (("lm.tok_emb", (slice(None), 0), np.inf),
                               ("lm.blocks.0.ff.w1", (0, 0), np.nan),
                               ("vision.patch_proj.w", (0, 0), np.nan),
                               (TAU_NAME, (), 1e3)):
        state = init_state(cfg, LossConfig(), OptimConfig(steps=3),
                           RunSettings(seed=1, batch_pairs=2), vocab)
        param = state.params[name]
        param.data[index] = value
        blamed = ("op='contrastive', shape=()" if name == TAU_NAME
                  else f"parameter {name!r}, shape={param.shape}")
        with pytest.raises(NumericError, match=re.escape(f"at step 1; first bad value: {blamed}")):
            with np.errstate(all="ignore"):
                train(state, notes, pairs)


def test_run_settings_reject_negative_seed():
    RunSettings(seed=0)
    with pytest.raises(ConfigError, match="seed"):
        RunSettings(seed=-1)


@pytest.mark.parametrize("cls", [ModelConfig, LossConfig, OptimConfig, RunSettings],
                         ids=lambda cls: cls.__name__)
def test_no_config_value_ends_in_a_traceback(cls):
    # each int field at 0 and -1 and each float field at 0, -1, NaN and
    # inf is refused with a ConfigError or accepted; no model size, head
    # count or layer-norm eps may take any of them
    probes = {"int": (0, -1), "float": (0.0, -1.0, math.nan, math.inf)}
    base = {"vocab_size": 10} if cls is ModelConfig else {}
    for f in dataclasses.fields(cls):
        for value in probes.get(f.type, ()):
            try:
                decode_config(cls, dict(base, **{f.name: value}), "cfg")
            except ConfigError:
                continue
            assert cls is not ModelConfig, f"ModelConfig accepted {f.name}={value}"


@pytest.mark.slow
def test_loss_decreases_on_separable_batch():
    passed = 0
    for seed in range(5):
        notes, pairs, vocab, cfg = small_world(n_notes=40, seed=seed + 10)
        by_id = {n.id: n for n in notes}
        used = set()
        fixed = []
        for p in pairs:
            if p.query not in used and p.related not in used:
                fixed.append(p)
                used.update((p.query, p.related))
            if len(fixed) == 4:
                break
        assert len(fixed) == 4
        optim = OptimConfig(peak_lr=3e-4, steps=50)
        state = init_state(cfg, LossConfig(), optim,
                           RunSettings(seed=seed, batch_pairs=len(fixed),
                                       val_fraction=0.0), vocab)
        state = train(state, [by_id[i] for i in used], fixed)
        losses = [m["loss"] for m in state.metrics]
        smooth = [sum(losses[i:i + 10]) / 10 for i in range(len(losses) - 9)]
        if smooth[-1] < smooth[0] and all(b <= a + 1e-9 for a, b in
                                          zip(smooth, smooth[1:])):
            passed += 1
    assert passed >= 4


# ---------------------------------------------------------------------------
# Checkpoint format


def test_checkpoint_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    params = {
        "a.w": Tensor(rng.normal(size=(3, 4)), requires_grad=True),
        "b": Tensor(rng.normal(size=5), requires_grad=True),
        TAU_NAME: Tensor(np.asarray(3.0), requires_grad=True),
    }
    moments = {
        "m": {k: rng.normal(size=v.shape) for k, v in params.items()},
        "v": {k: np.abs(rng.normal(size=v.shape)) for k, v in params.items()},
        "t": 7,
    }
    configs = {"model": {"x": 1}, "loss": {"alpha": 9.0}, "optim": {}, "run": {}}
    path = tmp_path / "ck.mlrm"
    save_checkpoint(path, params, moments, 7, configs, ["<PAD>", "a", "b"])
    arrays, got_moments, step, got_cfg, vocab = load_checkpoint(path)
    assert step == 7 and vocab == ["<PAD>", "a", "b"]
    assert got_cfg["model"] == {"x": 1}
    for name, p in params.items():
        assert np.array_equal(arrays[name], p.data)
    for name in params:
        assert np.array_equal(got_moments["m"][name], moments["m"][name])
        assert np.array_equal(got_moments["v"][name], moments["v"][name])
    assert got_moments["t"] == 7
    # deterministic bytes
    path2 = tmp_path / "ck2.mlrm"
    save_checkpoint(path2, params, moments, 7, configs, ["<PAD>", "a", "b"])
    assert path.read_bytes() == path2.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ck.mlrm", "ck2.mlrm"]


def test_failed_checkpoint_save_keeps_earlier_file(tmp_path, fill_disk):
    notes, pairs, vocab, cfg = small_world()
    state = init_state(cfg, LossConfig(), OptimConfig(steps=4),
                       RunSettings(seed=3, batch_pairs=2), vocab)
    path = tmp_path / "checkpoint.mlrm"
    save_state(state, path)
    before = path.read_bytes()
    state = train(state, notes, pairs, steps=1)
    fill_disk()
    with pytest.raises(OSError, match="No space"):
        save_state(state, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.mlrm"]


# the optimizer state of a parameter dict with nothing to train, one step in
NO_MOMENTS = {"m": {}, "v": {}, "t": 1}


def test_checkpoint_rejects_corruption(tmp_path):
    params = {"w": Tensor(np.ones((2, 2)))}
    path = tmp_path / "ck.mlrm"
    save_checkpoint(path, params, NO_MOMENTS, 1, {"model": {}}, ["<PAD>"])

    blob = bytearray(path.read_bytes())
    blob[0] ^= 0xFF
    bad = tmp_path / "bad.mlrm"
    bad.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="magic"):
        load_checkpoint(bad)

    trunc = tmp_path / "trunc.mlrm"
    trunc.write_bytes(path.read_bytes()[:20])
    with pytest.raises(FormatError, match="truncated"):
        load_checkpoint(trunc)

    # the moment payloads are read later, but whether they fit is checked now
    moments = {"m": {"w": np.ones((2, 2))}, "v": {"w": np.ones((2, 2))}, "t": 1}
    save_checkpoint(path, {"w": Tensor(np.ones((2, 2)), requires_grad=True)}, moments, 1,
                    {"model": {}}, ["<PAD>"])
    blob = path.read_bytes()
    # 8 bytes short of the end of the last payload before the adam.t record
    trunc.write_bytes(blob[:blob.index(b"adam.t") - 4 - 8])
    with pytest.raises(FormatError, match="truncated: payload of adam.v.w"):
        load_checkpoint(trunc)


def _corrupt_first_record(tmp_path, **fields):
    """A one-record checkpoint (``w``, shape [2, 2]) with its name byte,
    rank or dims overwritten."""
    path = tmp_path / "ck.mlrm"
    save_checkpoint(path, {"w": Tensor(np.ones((2, 2)))}, NO_MOMENTS, 1, {"model": {}},
                    ["<PAD>"])
    blob = bytearray(path.read_bytes())
    # magic 8, version 4, count 4, name length 4, then the 1-byte name
    if "name" in fields:
        blob[20:21] = fields["name"]
    if "rank" in fields:
        blob[21:25] = struct.pack("<I", fields["rank"])
    if "dims" in fields:
        blob[25:33] = struct.pack("<II", *fields["dims"])
    path.write_bytes(bytes(blob))
    return path


def test_checkpoint_record_name_must_be_utf8(tmp_path):
    with pytest.raises(FormatError, match="not UTF-8"):
        load_checkpoint(_corrupt_first_record(tmp_path, name=b"\xff"))


@pytest.mark.parametrize("fields", [{"rank": 0x7FFFFFFF}, {"dims": (0xFFFFFFFF, 2)}],
                         ids=["rank", "dims"])
def test_checkpoint_sizes_are_checked_before_reading(tmp_path, fields):
    # a rank or dims that claim gigabytes past the end of a small file are
    # a format error, raised before the read could try to allocate them
    with pytest.raises(FormatError, match="truncated"):
        load_checkpoint(_corrupt_first_record(tmp_path, **fields))


def test_checkpoint_rank_beyond_numpy_is_format_error(tmp_path):
    # a record of 100 unit dims and one float fits the file, but no
    # ndarray has that many dimensions
    path = tmp_path / "ck.mlrm"
    path.write_bytes(b"MLRMCKPT" + struct.pack("<III", 1, 1, 1) + b"w"
                     + struct.pack("<101I", 100, *[1] * 100) + struct.pack("<d", 1.0) + b"{}")
    with pytest.raises(FormatError, match="rank 100"):
        load_checkpoint(path)


def test_checkpoint_without_optimizer_state_is_format_error(tmp_path, write_records):
    # every checkpoint carries its optimizer state; a file without it would
    # resume with a fresh optimizer at the saved step
    path = tmp_path / "ck.mlrm"
    trailer = {"model": {}, "loss": {}, "optim": {}, "run": {}, "step": 0, "vocab": ["<PAD>"]}
    write_records(path, {"w": np.ones(3)}, trailer)
    with pytest.raises(FormatError, match="no optimizer state"):
        load_checkpoint(path)


@pytest.mark.parametrize("change", ["replace", "remove"])
def test_loaded_state_reads_moments_at_its_first_step(tmp_path, change):
    # embedding and saliency read no optimizer state; the first optimizer
    # step reads it from the file that was loaded, or refuses to
    notes, pairs, vocab, cfg = small_world()
    run = RunSettings(seed=3, batch_pairs=2)
    state = train(init_state(cfg, LossConfig(), OptimConfig(steps=4), run, vocab),
                  notes, pairs, steps=1)
    path = tmp_path / "s.mlrm"
    save_state(state, path)
    back = load_state(path)

    def outputs():
        tables = [build_table(back.params, back.model_cfg, back.vocab, notes[:6],
                              modality=modality).vectors.tobytes()
                  for modality in MODALITIES]
        triples = batch_saliency(back.params, back.model_cfg, back.vocab, notes[:4],
                                 back.loss_cfg)
        return tables, np.asarray(triples).tobytes()
    before = outputs()
    if change == "replace":
        other = tmp_path / "other.mlrm"
        save_state(train(state, notes, pairs, steps=2), other)
        os.replace(other, path)
    else:
        os.remove(path)
    assert outputs() == before
    with pytest.raises(FormatError, match=re.escape(str(path))):
        train(back, notes, pairs, steps=back.step + 1)


def test_save_state_load_state_round_trip(tmp_path):
    notes, pairs, vocab, cfg = small_world()
    state = init_state(cfg, LossConfig(), OptimConfig(steps=4),
                       RunSettings(seed=3, batch_pairs=2), vocab)
    state = train(state, notes, pairs, steps=2)
    path = tmp_path / "s.mlrm"
    save_state(state, path)
    back = load_state(path)
    assert back.step == 2
    assert back.model_cfg == state.model_cfg
    assert back.optim_cfg == state.optim_cfg
    assert back.vocab.tokens == state.vocab.tokens
    for name, p in state.params.items():
        assert np.array_equal(back.params[name].data, p.data)
        assert back.params[name].requires_grad == p.requires_grad
    assert np.array_equal(back.optimizer.m["lm.tok_emb"], state.optimizer.m["lm.tok_emb"])
    assert back.optimizer.t == state.optimizer.t


def test_load_state_draws_nothing(tmp_path, monkeypatch):
    # every parameter and moment is its record as read: no random draw
    # stands in for them, not even one that is then overwritten
    notes, pairs, vocab, cfg = small_world()
    assert cfg.mode == "notellm2" and cfg.freeze_vision
    run = RunSettings(seed=3, batch_pairs=2)
    state = train(init_state(cfg, LossConfig(), OptimConfig(steps=4), run, vocab),
                  notes, pairs, steps=2)
    path = tmp_path / "s.mlrm"
    save_state(state, path)
    arrays, moments, _, _, _ = load_checkpoint(path)
    fresh = init_state(cfg, LossConfig(), OptimConfig(steps=4), run, vocab)

    def never(*args, **kwargs):
        raise AssertionError("load_state drew a parameter set")
    monkeypatch.setattr(mlrm.model, "init_params", never)
    monkeypatch.setattr(mlrm.training, "init_params", never)
    back = load_state(path)
    assert list(back.params) == list(fresh.params)
    for name, p in back.params.items():
        assert p.data.dtype == arrays[name].dtype and p.shape == arrays[name].shape
        assert p.data.tobytes() == arrays[name].tobytes()
        assert p.requires_grad == fresh.params[name].requires_grad
    opt = back.optimizer
    assert opt.t == back.step == 2
    for kind, got in (("m", opt.m), ("v", opt.v)):
        assert sorted(got) == sorted(fresh.optimizer.m)
        for name, a in got.items():
            assert a.tobytes() == moments[kind][name].tobytes()
