"""Attention saliency and modality-flow decomposition.

For each LM layer the saliency matrix is the head-sum of |A * dL/dA|,
where L is the same contrastive objective used in training. Entries in
the final row (the compressed-word query position) are split between
the visual columns and the textual columns; everything else in the
lower triangle counts as word-to-word flow. Visual columns are the
spliced rows (or the kept image placeholder when nothing is spliced),
plus, in two-segment prompts, the carrier of the in-context visual
compressed word. Scores are averaged per note, then across the sampled
batches with order-independent sums.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, backward, retaining
from .checkpoint import atomic_write
from .data import Pair, check_pairs, make_batches
from .model import MICL_PROMPT_MODES, ModelConfig, embed_notes
from .notes import Note
from .prompting import Vocab
from .training import LossConfig, representation_loss


@dataclass
class SaliencyReport:
    mode: str
    folded_visual_word: bool
    n_notes: int
    layers: list[dict]  # layer, S_v, S_t, S_o, share_v, share_t, share_o


def batch_saliency(params, cfg: ModelConfig, vocab: Vocab, notes: list[Note],
                   loss_cfg: LossConfig):
    """Loss -> backward -> per-note per-layer (S_v, S_t, S_o) triples.

    The multimodal pass runs inside ``retaining()`` over grad-free views
    of the parameters, so the tape starts at its first retained attention
    and the backward computes no parameter gradient; the rest of the loss
    (``omni``'s other passes included) runs after the block and retains
    nothing. Each note's means at a layer are read straight
    from its retained [queries, T] map, the head-sum of |A * dL/dA| that
    the backward wrote: rows that were not queries hold zero saliency,
    so the query rows alone give the means of the dense [T, T] map. The
    last query row is always the compressed word c = T - 1."""
    views = {name: Tensor(p.data) for name, p in params.items()}
    with retaining() as kept:
        reps = embed_notes(views, cfg, vocab, notes)
    backward(representation_loss(views, cfg, vocab, notes, loss_cfg, reps))
    out = [[] for _ in reps.infos]
    for layer in kept:
        for triples, info, rows, s in zip(out, reps.infos, layer.queries, layer.blocks()):
            t, c = info.length, info.compressed_pos
            visual = np.zeros(c, dtype=bool)
            visual[info.visual_positions] = True
            if info.visual_word_pos is not None:
                visual[info.visual_word_pos] = True
            n_visual = int(np.count_nonzero(visual))
            # the strict lower triangle of every other query row
            lower = np.arange(t)[rows][:-1, None] > np.arange(t)
            # fsum is correctly rounded, so the order of the summands is immaterial
            triples.append((math.fsum(s[-1, :c][visual].tolist()) / n_visual,
                            math.fsum(s[-1, :c][~visual].tolist()) / (c - n_visual),
                            math.fsum(s[:-1][lower].tolist()) / ((t - 1) * (t - 2) // 2)))
    return out


def saliency_report(params, cfg: ModelConfig, vocab: Vocab,
                    notes_by_id: dict[int, Note], pairs: list[Pair],
                    loss_cfg: LossConfig, *, batch_pairs: int = 16, seed: int = 0,
                    max_notes: int = 1000) -> SaliencyReport:
    """Average the decomposition over the epoch-0 batches that hold the first ``max_notes`` notes."""
    per_layer: list[list[tuple[float, float, float]]] = [[] for _ in range(cfg.lm_layers)]
    check_pairs(pairs, notes_by_id)
    n_notes = 0
    for batch in make_batches(pairs, batch_pairs, seed, 0):
        notes = [notes_by_id[i] for i in batch]
        triples = batch_saliency(params, cfg, vocab, notes, loss_cfg)
        for note_triples in triples:
            for layer, triple in enumerate(note_triples):
                per_layer[layer].append(triple)
        n_notes += len(notes)
        if n_notes >= max_notes:
            break

    layers = []
    for layer, layer_triples in enumerate(per_layer):
        s_v, s_t, s_o = (math.fsum(column) / len(column) for column in zip(*layer_triples))
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
