"""Attention saliency and modality-flow decomposition.

For each LM layer the saliency matrix is the head-sum of |A * dL/dA|,
where L is the same contrastive objective used in training. Entries in
the final row (the compressed-word query position) are split between
the visual columns and the textual columns; everything else in the
lower triangle counts as word-to-word flow. Scores are averaged per
note, then across the sampled batches with order-independent sums.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, backward
from .checkpoint import atomic_write
from .data import Pair, make_batches
from .errors import ContractError, NumericError
from .model import MICL_PROMPT_MODES, AssembledInfo, ModelConfig
from .notes import Note
from .prompting import Vocab
from .training import LossConfig, batch_loss


def position_sets(info: AssembledInfo, mode: str):
    """Disjoint boolean [T, T] masks (visual, textual, other) partitioning
    the strict lower triangle {j < i}.

    Visual columns are the spliced rows (or the kept image placeholder
    when nothing is spliced); prompts with an in-context visual
    compressed word fold its carrier position into the visual set. The
    textual set is the rest of the compressed row; the remainder of the
    lower triangle is word-to-word flow.
    """
    t, c = info.length, info.compressed_pos
    visual = np.zeros(t, dtype=bool)
    visual[info.visual_positions] = True
    if mode in MICL_PROMPT_MODES:
        visual[info.visual_word_pos] = True
    p_v = np.zeros((t, t), dtype=bool)
    p_v[c] = visual
    p_t = np.zeros((t, t), dtype=bool)
    p_t[c, :c] = ~visual[:c]
    p_o = np.tri(t, k=-1, dtype=bool)
    p_o[c] = False
    return p_v, p_t, p_o


def saliency_matrices(attentions, infos) -> list[list[np.ndarray]]:
    """Per-note, per-layer saliency from retained attention.

    ``attentions`` is the per-layer list of ``autodiff.Retained``
    probabilities, each carrying the gradient of the loss; rows that were
    not queries are zero. Returns matrices[b][l], each [T_b, T_b].
    """
    if not attentions:
        raise ContractError("no attention tensors were recorded")
    for layer in attentions:
        if layer.grad is None:
            raise ContractError("attention was not retained before backward; "
                                "run the forward pass with retain_attention=True")
    out = [[] for _ in infos]
    for layer in attentions:
        for per_layer, info, rows, a, g in zip(out, infos, layer.queries,
                                               layer.blocks(layer.data), layer.blocks(layer.grad)):
            matrix = np.zeros((info.length, info.length))
            matrix[rows] = np.abs(a * g).sum(axis=0)
            per_layer.append(matrix)
    return out


def _set_mean(matrix: np.ndarray, mask: np.ndarray) -> float:
    # fsum is correctly rounded, so the order of the summands is immaterial
    count = int(np.count_nonzero(mask))
    if not count:
        raise NumericError("saliency mean over an empty position set is undefined")
    return math.fsum(matrix[mask].tolist()) / count


def decompose(matrix: np.ndarray, sets) -> tuple[float, float, float]:
    """Mean saliency over a note's visual, textual and word-to-word ``position_sets``."""
    return tuple(_set_mean(matrix, mask) for mask in sets)


def _sorted_mean(values: list[float]) -> float:
    return math.fsum(sorted(values)) / len(values)


@dataclass
class SaliencyReport:
    mode: str
    folded_visual_word: bool
    n_notes: int
    layers: list[dict]  # layer, S_v, S_t, S_o, share_v, share_t, share_o


def batch_saliency(params, cfg: ModelConfig, vocab: Vocab, notes: list[Note],
                   loss_cfg: LossConfig):
    """Loss -> backward -> per-note per-layer (S_v, S_t, S_o) triples.

    The loss runs over grad-free views of the parameters, so the tape
    starts at the first layer's retained attention and the backward pass
    computes no parameter gradient."""
    views = {name: Tensor(p.data) for name, p in params.items()}
    loss, reps = batch_loss(views, cfg, vocab, notes, loss_cfg, retain_attention=True)
    backward(loss)
    matrices = saliency_matrices(reps.attentions, reps.infos)
    sets = [position_sets(info, cfg.mode) for info in reps.infos]
    return [[decompose(m, note_sets) for m in note_layers]
            for note_layers, note_sets in zip(matrices, sets)]


def saliency_report(params, cfg: ModelConfig, vocab: Vocab,
                    notes_by_id: dict[int, Note], pairs: list[Pair],
                    loss_cfg: LossConfig, *, batch_pairs: int = 16, seed: int = 0,
                    max_notes: int = 1000) -> SaliencyReport:
    """Average the decomposition over sampled batches of paired notes."""
    batches = make_batches(pairs, batch_pairs, seed, 0)
    per_layer: list[list[tuple[float, float, float]]] = [[] for _ in range(cfg.lm_layers)]
    n_notes = 0
    for batch in batches:
        if n_notes >= max_notes:
            break
        notes = [notes_by_id[i] for i in batch]
        triples = batch_saliency(params, cfg, vocab, notes, loss_cfg)
        for note_triples in triples:
            for layer, triple in enumerate(note_triples):
                per_layer[layer].append(triple)
        n_notes += len(notes)
    if n_notes == 0:
        raise NumericError("no notes sampled; not enough pairs for one batch")

    layers = []
    for layer, layer_triples in enumerate(per_layer):
        s_v, s_t, s_o = (_sorted_mean(list(column)) for column in zip(*layer_triples))
        total = s_v + s_t + s_o
        if total == 0.0:
            share_v = share_t = share_o = 0.0
        else:
            share_v, share_t, share_o = s_v / total, s_t / total, s_o / total
        layers.append({"layer": layer, "S_v": s_v, "S_t": s_t, "S_o": s_o,
                       "share_v": share_v, "share_t": share_t, "share_o": share_o})
    folded = cfg.mode in MICL_PROMPT_MODES
    return SaliencyReport(mode=cfg.mode, folded_visual_word=folded,
                          n_notes=n_notes, layers=layers)


CSV_FIELDS = ("layer", "S_v", "S_t", "S_o", "share_v", "share_t", "share_o")


def write_report(report: SaliencyReport, csv_path, json_path) -> None:
    rows = io.StringIO()
    writer = csv.DictWriter(rows, fieldnames=CSV_FIELDS)
    writer.writeheader()
    for row in report.layers:
        writer.writerow({k: row[k] for k in CSV_FIELDS})
    with atomic_write(csv_path) as fh:
        fh.write(rows.getvalue().encode("utf-8"))
    with atomic_write(json_path) as fh:
        fh.write((json.dumps(dataclasses.asdict(report), indent=2) + "\n").encode("utf-8"))
