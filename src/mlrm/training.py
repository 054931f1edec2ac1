"""Contrastive objectives, optimizer, schedule and the training loop.

Every variant trains on the in-batch contrastive loss of
``autodiff.contrastive`` (see there for its factored, tiny-loss-accurate
form), over one embedding table or across two, on batches laid out as
consecutive (query, related) pairs by ``data.make_batches``. ``train``
chains the epochs' batch iterators and on resume at step k skips k
batches; ``load_state`` draws nothing, it checks the records it uses,
and it leaves the optimizer moments on disk until the first optimizer
step reads them.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .autodiff import (
    Tensor,
    add,
    backward,
    contrastive,
    divs,
    first_nonfinite,
    scale,
)
from .checkpoint import atomic_write, load_checkpoint, save_checkpoint
from .data import Pair, check_pairs, make_batches, split_pairs
from .errors import ConfigError, FormatError, NumericError
from .model import (
    MICL_PROMPT_MODES,
    BatchRepresentations,
    ModelConfig,
    embed_notes,
    init_params,
    param_table,
    trainable_names,
)
from .notes import Note
from .prompting import Vocab

TAU_NAME = "loss.tau"
# below it, 2 * exp(tau) < log(float max): exp of cosine gaps in [-2, 2] stays finite
_TAU_INIT_MAX = math.log(math.log(np.finfo(np.float64).max) / 2.0)


@dataclass
class LossConfig:
    """Objective settings; the single temperature is shared by every term."""

    alpha: float = 9.0
    tau_init: float = 3.0

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ConfigError(f"alpha must be finite and positive, got {self.alpha}")
        if not -math.inf < self.tau_init < _TAU_INIT_MAX:
            raise ConfigError(f"tau_init must be finite and below {_TAU_INIT_MAX:.4f}, "
                              f"got {self.tau_init}")


@dataclass
class OptimConfig:
    peak_lr: float = 3e-4
    steps: int = 500
    warmup_ratio: float = 0.1
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 1e-3
    max_grad_norm: float = 1.0

    def __post_init__(self):
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise ConfigError("betas must lie strictly inside (0, 1)")
        if not (0 <= self.warmup_ratio < 1):
            raise ConfigError("warmup_ratio must lie in [0, 1)")
        if self.steps < 1:
            raise ConfigError("steps must be positive")
        for name in ("peak_lr", "eps"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and positive, got {value}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ConfigError(f"weight_decay must be finite and non-negative, "
                              f"got {self.weight_decay}")
        if not (self.max_grad_norm > 0):
            raise ConfigError(f"max_grad_norm must be positive, got {self.max_grad_norm}")

    @property
    def warmup_steps(self) -> int:
        return int(self.warmup_ratio * self.steps)


# ---------------------------------------------------------------------------
# Losses


def final_loss(loss_visual: Tensor, loss_multimodal: Tensor, alpha: float) -> Tensor:
    """Blend the two objectives: (L_v + alpha * L_m) / (1 + alpha)."""
    return divs(add(loss_visual, scale(loss_multimodal, float(alpha))), 1.0 + float(alpha))


def batch_loss(params: dict[str, Tensor], cfg: ModelConfig, vocab: Vocab,
               notes: list[Note], loss_cfg: LossConfig,
               image_cache: dict | None = None):
    """Variant-dispatching objective; returns (loss, representations).

    The returned representations come from the multimodal pass, which
    runs first, so callers can inspect embeddings regardless of mode.
    """
    reps = embed_notes(params, cfg, vocab, notes, image_cache=image_cache)
    return representation_loss(params, cfg, vocab, notes, loss_cfg, reps, image_cache), reps


def representation_loss(params: dict[str, Tensor], cfg: ModelConfig, vocab: Vocab,
                        notes: list[Note], loss_cfg: LossConfig,
                        reps: BatchRepresentations, image_cache: dict | None = None) -> Tensor:
    """``batch_loss`` after its multimodal pass ``reps``; ``omni`` runs its
    image-only and text-only passes here."""
    tau = params[TAU_NAME]
    if cfg.mode == "omni":
        e_m = reps.out_multimodal
        e_i, e_t = (embed_notes(params, cfg, vocab, notes, modality=modality,
                                image_cache=image_cache).out_multimodal
                    for modality in ("image_only", "text_only"))
        terms = [contrastive(a, b, tau) for a, b in (
            (e_i, e_i), (e_t, e_t), (e_m, e_m), (e_i, e_t), (e_i, e_m), (e_t, e_m))]
        return divs(reduce(add, terms), 6.0)
    if cfg.mode in MICL_PROMPT_MODES:
        loss_v = contrastive(reps.out_visual, reps.out_visual, tau)
        loss_m = contrastive(reps.out_multimodal, reps.out_multimodal, tau)
        return final_loss(loss_v, loss_m, loss_cfg.alpha)
    e_m = reps.out_multimodal
    return contrastive(e_m, e_m, tau)


# ---------------------------------------------------------------------------
# Optimizer and schedule


def lr_at(step: int, optim: OptimConfig) -> float:
    """Warmup-linear schedule on 1-based steps; exact at both ends."""
    if not 1 <= step <= optim.steps:
        raise ConfigError(f"step {step} outside schedule 1..{optim.steps}")
    warm = optim.warmup_steps
    if warm > 0 and step <= warm:
        return optim.peak_lr * step / warm
    return optim.peak_lr * (optim.steps - step) / (optim.steps - warm)


def grad_norm(params: dict[str, Tensor]) -> float:
    """Global L2 norm over all trainable gradients, order-independent."""
    squares = [float((params[n].grad ** 2).sum())
               for n in trainable_names(params) if params[n].grad is not None]
    return math.sqrt(math.fsum(squares))


def clip_gradients(params: dict[str, Tensor], max_norm: float) -> float:
    """Scale gradients to the max global norm; returns the pre-clip norm."""
    norm = grad_norm(params)
    if norm > max_norm:
        factor = max_norm / norm
        for name in trainable_names(params):
            if params[name].grad is not None:
                params[name].grad *= factor
    return norm


class AdamW:
    """Decoupled-weight-decay Adam over a named parameter dict.

    Decay applies only to rank >= 2 parameters, which leaves the
    temperature, biases and layer-norm parameters unregularized.
    """

    def __init__(self, params: dict[str, Tensor], cfg: OptimConfig, moments: dict | None = None):
        """Zero moments at step 0, or ``moments`` as ``moments()`` gives them."""
        self.cfg = cfg
        if moments is None:
            moments = {kind: {n: np.zeros_like(params[n].data) for n in trainable_names(params)}
                       for kind in "mv"}
            moments["t"] = 0
        self.m, self.v, self.t = moments["m"], moments["v"], moments["t"]

    def moments(self) -> dict:
        return {"m": self.m, "v": self.v, "t": self.t}

    def step(self, params: dict[str, Tensor], lr: float) -> None:
        cfg = self.cfg
        self.t += 1
        bc1 = 1.0 - cfg.beta1 ** self.t
        bc2 = 1.0 - cfg.beta2 ** self.t
        for name in trainable_names(params):
            p = params[name]
            g = p.grad
            if g is None:
                continue
            m = self.m[name]
            v = self.v[name]
            m *= cfg.beta1
            m += (1.0 - cfg.beta1) * g
            v *= cfg.beta2
            v += (1.0 - cfg.beta2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)
            if p.ndim >= 2:
                update = update + cfg.weight_decay * p.data
            p.data -= lr * update


def zero_gradients(params: dict[str, Tensor]) -> None:
    for p in params.values():
        p.grad = None


# ---------------------------------------------------------------------------
# Training loop


@dataclass
class RunSettings:
    seed: int = 42
    batch_pairs: int = 16
    val_fraction: float = 0.1  # withheld from training; nothing reads it yet

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.batch_pairs < 2:
            raise ConfigError(f"batch_pairs must be at least 2, got {self.batch_pairs}: "
                              f"a one-pair batch has no negatives, so its loss is 0")
        if not (0 <= self.val_fraction < 1):
            raise ConfigError("val_fraction must lie in [0, 1)")


# the JSON value types a config field of each annotated type accepts
_JSON_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str}


def decode_config(cls, section: dict, where: str, error: type[Exception] = ConfigError):
    """Build one config dataclass from its JSON object. An unknown key, a
    value of the wrong JSON type, a missing required key or a value the
    dataclass rejects raises ``error``."""
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    for key, value in section.items():
        if key not in types:
            raise error(f"{where}: unknown key {key!r}")
        if isinstance(value, bool) != (types[key] == "bool") \
                or not isinstance(value, _JSON_TYPES[types[key]]):
            raise error(f"{where}: {key} must be a JSON {types[key]}, got {value!r}")
    try:
        return cls(**section)
    except (TypeError, ValueError) as exc:
        raise error(f"{where}: {exc}") from None


@dataclass
class TrainState:
    params: dict[str, Tensor]
    optimizer: AdamW
    step: int
    model_cfg: ModelConfig
    loss_cfg: LossConfig
    optim_cfg: OptimConfig
    run: RunSettings
    vocab: Vocab
    metrics: list[dict] = field(default_factory=list)

    def configs(self) -> dict:
        # format 1 keeps the null "mode" key that loss configs once had
        return {
            "model": dataclasses.asdict(self.model_cfg),
            "loss": dict(dataclasses.asdict(self.loss_cfg), mode=None),
            "optim": dataclasses.asdict(self.optim_cfg),
            "run": dataclasses.asdict(self.run),
        }


def init_state(model_cfg: ModelConfig, loss_cfg: LossConfig, optim_cfg: OptimConfig,
               run: RunSettings, vocab: Vocab) -> TrainState:
    params = init_params(model_cfg, run.seed)
    params[TAU_NAME] = Tensor(np.asarray(loss_cfg.tau_init), requires_grad=True)
    return TrainState(params=params, optimizer=AdamW(params, optim_cfg), step=0,
                      model_cfg=model_cfg, loss_cfg=loss_cfg, optim_cfg=optim_cfg,
                      run=run, vocab=vocab)


def load_state(path) -> TrainState:
    """The saved state, its parameters and moments the records as read; a
    record missing from, unknown to or mis-shaped for ``model.param_table``
    of the saved model config is a FormatError. Moment shapes are checked
    from their record headers: the payloads stay on disk until the first
    ``AdamW.step``, which raises FormatError if ``path`` has been replaced,
    rewritten or removed since, so a state loaded to embed, evaluate or
    analyze never holds them."""
    arrays, moments, step, configs, vocab_tokens = load_checkpoint(path)
    loss_mode = configs["loss"].pop("mode", None)  # format 1: null or the model's mode
    model_cfg, loss_cfg, optim_cfg, run = (
        decode_config(cls, configs[key], f"{path}: {key}", FormatError)
        for cls, key in ((ModelConfig, "model"), (LossConfig, "loss"),
                         (OptimConfig, "optim"), (RunSettings, "run")))
    if loss_mode is not None and loss_mode != model_cfg.mode:
        raise FormatError(f"{path}: loss mode {loss_mode!r} contradicts model mode "
                          f"{model_cfg.mode!r}")
    if len(vocab_tokens) != model_cfg.vocab_size:
        raise FormatError(f"{path}: vocabulary holds {len(vocab_tokens)} tokens, "
                          f"the model config needs {model_cfg.vocab_size}")
    table = param_table(model_cfg) | {TAU_NAME: ((), "tau_init", True)}
    trained = {name for name, (_, _, trains) in table.items() if trains}
    missing = sorted(table.keys() - arrays.keys())
    unknown = sorted(arrays.keys() - table.keys()) + sorted(
        f"adam.{kind}.{name}" for kind in "mv" for name in moments[kind].keys() - trained)
    if missing or unknown:
        raise FormatError(f"{path}: checkpoint lacks parameter records {missing}, "
                          f"has unknown records {unknown}")
    for name, (shape, _, _) in table.items():
        if arrays[name].shape != shape:
            raise FormatError(f"{path}: record {name!r} has shape {arrays[name].shape}, "
                              f"the model config needs {shape}")
        if name not in trained:  # frozen: no optimizer state
            continue
        for saved in (moments["m"], moments["v"]):
            if name not in saved:
                raise FormatError(f"{path}: checkpoint is missing optimizer state for {name!r}")
            if saved.shapes[name] != shape:
                raise FormatError(f"{path}: optimizer state shape mismatch for {name!r}")
    params = {name: Tensor(arrays[name], requires_grad=name in trained) for name in table}
    return TrainState(params=params, optimizer=AdamW(params, optim_cfg, moments), step=step,
                      model_cfg=model_cfg, loss_cfg=loss_cfg, optim_cfg=optim_cfg,
                      run=run, vocab=Vocab(vocab_tokens))


def save_state(state: TrainState, path) -> None:
    save_checkpoint(path, state.params, state.optimizer.moments(), state.step,
                    state.configs(), state.vocab.tokens)


def _drop_metrics_after(path, step: int) -> None:
    """Rewrite metrics.jsonl without the records past ``step``, which the
    run writes again, or a last line cut short with no newline."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")[:-1]
    try:
        kept = "".join(f"{line}\n" for line in lines if json.loads(line)["step"] <= step)
    except (ValueError, TypeError, KeyError):
        raise FormatError(f"{path}: a line is not a metrics record") from None
    with atomic_write(path) as fh:
        fh.write(kept.encode("utf-8"))


def _blame(params: dict, forward) -> str:
    """Name the origin of a non-finite loss: the first parameter by name
    that is not finite, frozen ones too, else the op and the shape of the
    first output that is not when ``forward`` runs again."""
    for name in sorted(params):
        if not np.isfinite(params[name].data).all():
            return f"parameter {name!r}, shape={params[name].shape}"
    bad = first_nonfinite(forward)
    return "unknown node" if bad is None else f"op={bad[0]!r}, shape={bad[1]}"


def train(state: TrainState, notes: list[Note], pairs: list[Pair],
          out_dir=None, steps: int | None = None,
          on_step=None) -> TrainState:
    """Run the loop from state.step up to the schedule end (or ``steps``).

    Appends one metrics record per step to out_dir/metrics.jsonl when
    out_dir is given, after its records up to state.step, and
    checkpoints there at the end. A non-finite loss aborts with its
    origin named: the first parameter that is not finite, or else the
    first op whose output is not when the step's forward runs again.
    """
    notes_by_id = {n.id: n for n in notes}
    if len(notes_by_id) != len(notes):
        raise ConfigError("duplicate note ids in training corpus")
    check_pairs(pairs, notes_by_id)
    train_pairs, _ = split_pairs(pairs, state.run.val_fraction, state.run.seed)
    stop = state.optim_cfg.steps if steps is None else min(steps, state.optim_cfg.steps)
    if state.step >= stop:
        return state

    metrics_path = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        metrics_path = os.path.join(out_dir, "metrics.jsonl")
        if state.step == 0 and os.path.exists(metrics_path):
            os.remove(metrics_path)
        elif os.path.exists(metrics_path):
            _drop_metrics_after(metrics_path, state.step)

    image_cache: dict = {}
    batches = itertools.islice(itertools.chain.from_iterable(
        make_batches(train_pairs, state.run.batch_pairs, state.run.seed, epoch)
        for epoch in itertools.count()), state.step, None)

    for step, batch in zip(range(state.step + 1, stop + 1), batches):
        batch_notes = [notes_by_id[i] for i in batch]

        def forward():
            return batch_loss(state.params, state.model_cfg, state.vocab,
                              batch_notes, state.loss_cfg, image_cache=image_cache)[0]
        loss = forward()
        value = loss.item()
        if not math.isfinite(value):
            raise NumericError(f"non-finite loss at step {step}; first bad value: "
                               f"{_blame(state.params, forward)}")
        backward(loss)
        norm = clip_gradients(state.params, state.optim_cfg.max_grad_norm)
        lr = lr_at(step, state.optim_cfg)
        state.optimizer.step(state.params, lr)
        zero_gradients(state.params)
        state.step = step
        record = {"step": step, "loss": value, "lr": lr,
                  "tau": state.params[TAU_NAME].item(), "grad_norm": norm}
        state.metrics.append(record)
        if metrics_path is not None:
            with open(metrics_path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record, separators=(",", ":")))
                fh.write("\n")
        if on_step is not None:
            on_step(state, record)

    if out_dir is not None:
        save_state(state, os.path.join(out_dir, "checkpoint.mlrm"))
    return state
