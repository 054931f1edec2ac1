"""The representation model: frozen patch encoder, query connector,
causal LM, gated late fusion and the shared output projector.

Forward passes are batched without padding: the LM runs over the real
rows of every note packed one after another, as in FlashAttention's
variable-length batches, and each note attends causally only within its
own segment. Positions restart at 0 for every note. A note embedding
reads the final hidden state at one or two positions (the compressed
word, and the in-context visual word for mICL prompts), so the last
block computes keys and values over every row but queries, attention
output, feed-forward and final norm only at those read rows.

Variants wire the same blocks differently:

  basic            single-segment prompt, visual rows spliced in, the
                   final hidden state is the note embedding
  micl             two-segment prompt; the hidden state before the
                   in-context visual compressed word is a visual
                   embedding, the final hidden state the multimodal one
  late_fusion      basic forward plus a gate that mixes the raw visual
                   summary into the multimodal embedding
  notellm2         micl forward plus gates on both paths
  only_late_fusion single-segment prompt with no visual rows spliced
                   (the image placeholder stays an ordinary token);
                   fusion happens only through the gate
  omni             micl forward; extra image-only/text-only passes are
                   orchestrated by the training loss
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, DataError, ShapeError
from .notes import Note
from .prompting import MAX_PROMPT_TOKENS, PromptLayout, Vocab, build_prompt

MODES = ("basic", "micl", "late_fusion", "notellm2", "only_late_fusion", "omni")
MICL_PROMPT_MODES = frozenset({"micl", "notellm2", "omni"})
SPLICE_MODES = frozenset(MODES) - {"only_late_fusion"}
GATE_MULTIMODAL_MODES = frozenset({"late_fusion", "notellm2", "only_late_fusion"})
MODALITIES = ("multimodal", "image_only", "text_only")


@dataclass
class ModelConfig:
    vocab_size: int
    hidden_text: int = 64
    hidden_vision: int = 64
    patches: int = 16
    patch_dim: int = 32
    visual_tokens: int = 16
    lm_layers: int = 2
    lm_heads: int = 4
    vision_layers: int = 2
    vision_heads: int = 4
    connector_layers: int = 2
    connector_heads: int = 4
    ff_mult: int = 4
    out_dim: int = 64
    max_positions: int = MAX_PROMPT_TOKENS + 48
    freeze_vision: bool = True
    mode: str = "notellm2"
    eps: float = 1e-5

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown variant {self.mode!r}, expected one of {MODES}")
        for f in fields(self):
            if f.type == "int" and getattr(self, f.name) < 1:
                raise ConfigError(f"{f.name} must be positive, got {getattr(self, f.name)}")
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ConfigError(f"eps must be finite and positive, got {self.eps}")
        for dim, heads, what in ((self.hidden_text, self.lm_heads, "lm"),
                                 (self.hidden_vision, self.vision_heads, "vision"),
                                 (self.hidden_text, self.connector_heads, "connector")):
            if dim % heads:
                raise ConfigError(f"{what}: hidden dim {dim} not divisible by {heads} heads")

    @property
    def vision_len(self) -> int:
        return self.patches + 1  # learned [CLS] row plus one row per patch


# ---------------------------------------------------------------------------
# Parameters


def param_table(cfg: ModelConfig) -> dict[str, tuple[tuple[int, ...], str, bool]]:
    """Every weight's shape, fill ("normal", "zeros" or "ones") and whether
    it trains, in the order ``init_params`` draws them; the one freeze rule
    is that vision.* weights take no gradient under ``freeze_vision``."""
    table: dict[str, tuple[tuple[int, ...], str, bool]] = {}

    def add(name, shape, fill="normal"):
        table[name] = (shape, fill, not (cfg.freeze_vision and name.startswith("vision.")))

    def add_attention(prefix, d_q, d_kv, d):
        add(f"{prefix}.wq", (d_q, d))
        add(f"{prefix}.bq", (d,), "zeros")
        add(f"{prefix}.wk", (d_kv, d))
        add(f"{prefix}.bk", (d,), "zeros")
        add(f"{prefix}.wv", (d_kv, d))
        add(f"{prefix}.bv", (d,), "zeros")
        add(f"{prefix}.wo", (d, d))
        add(f"{prefix}.bo", (d,), "zeros")

    def add_ln(prefix, d):
        add(f"{prefix}.g", (d,), "ones")
        add(f"{prefix}.b", (d,), "zeros")

    def add_ff(prefix, d):
        add(f"{prefix}.w1", (d, cfg.ff_mult * d))
        add(f"{prefix}.b1", (cfg.ff_mult * d,), "zeros")
        add(f"{prefix}.w2", (cfg.ff_mult * d, d))
        add(f"{prefix}.b2", (d,), "zeros")

    hv, ht = cfg.hidden_vision, cfg.hidden_text
    add("vision.patch_proj.w", (cfg.patch_dim, hv))
    add("vision.patch_proj.b", (hv,), "zeros")
    add("vision.cls", (1, hv))
    add("vision.pos", (cfg.vision_len, hv))
    for i in range(cfg.vision_layers):
        add_ln(f"vision.blocks.{i}.ln1", hv)
        add_attention(f"vision.blocks.{i}.attn", hv, hv, hv)
        add_ln(f"vision.blocks.{i}.ln2", hv)
        add_ff(f"vision.blocks.{i}.ff", hv)
    add_ln("vision.ln_f", hv)

    add("connector.queries", (cfg.visual_tokens, ht))
    for i in range(cfg.connector_layers):
        add_ln(f"connector.blocks.{i}.ln_self", ht)
        add_attention(f"connector.blocks.{i}.self_attn", ht, ht, ht)
        add_ln(f"connector.blocks.{i}.ln_cross", ht)
        add_attention(f"connector.blocks.{i}.cross_attn", ht, hv, ht)
        add_ln(f"connector.blocks.{i}.ln_ff", ht)
        add_ff(f"connector.blocks.{i}.ff", ht)
    add("connector.out.w", (ht, ht))
    add("connector.out.b", (ht,), "zeros")

    add("lm.tok_emb", (cfg.vocab_size, ht))
    add("lm.pos", (cfg.max_positions, ht))
    for i in range(cfg.lm_layers):
        add_ln(f"lm.blocks.{i}.ln1", ht)
        add_attention(f"lm.blocks.{i}.attn", ht, ht, ht)
        add_ln(f"lm.blocks.{i}.ln2", ht)
        add_ff(f"lm.blocks.{i}.ff", ht)
    add_ln("lm.ln_f", ht)

    add("fusion.vision_proj.w", (hv, ht))
    add("fusion.vision_proj.b", (ht,), "zeros")
    add("fusion.gate_visual.w", (ht, 2 * ht))
    add("fusion.gate_visual.b", (ht,), "zeros")
    add("fusion.gate_multimodal.w", (ht, 2 * ht))
    add("fusion.gate_multimodal.b", (ht,), "zeros")
    add("fusion.null_image", (ht,))
    add("project.w", (ht, cfg.out_dim))
    return table


def init_params(cfg: ModelConfig, seed: int) -> dict[str, Tensor]:
    """Draw every weight of ``param_table`` from one seeded generator."""
    rng = np.random.default_rng(seed)
    fills = {"normal": lambda shape: rng.normal(0.0, 0.02, shape),
             "zeros": np.zeros, "ones": np.ones}
    return {name: Tensor(fills[fill](shape), requires_grad=trains)
            for name, (shape, fill, trains) in param_table(cfg).items()}


def trainable_names(params: dict[str, Tensor]) -> list[str]:
    return sorted(name for name, t in params.items() if t.requires_grad)


# ---------------------------------------------------------------------------
# Shared blocks (all operate on [batch, positions, features])


def _attention(params: dict, prefix: str, x_q: Tensor, x_kv: Tensor, heads: int,
               lengths: list[int] | None = None, queries: list[list[int]] | None = None) -> Tensor:
    """Multi-head attention of x_q over x_kv.

    With ``lengths`` None, batches [B, T, d] attend fully; otherwise x_kv
    holds packed [N, d] rows, x_q the rows at the per-segment positions
    ``queries`` (default: all of them), and each query attends causally
    within its own segment (see ``autodiff.attention``). No positional
    information is injected here, so full attention over x_kv is
    permutation-equivariant in its rows.
    """
    q, k, v = (ad.linear(x, params[f"{prefix}.w{n}"], params[f"{prefix}.b{n}"])
               for x, n in ((x_q, "q"), (x_kv, "k"), (x_kv, "v")))
    out = ad.attention(q, k, v, heads, lengths, queries)
    return ad.linear(out, params[f"{prefix}.wo"], params[f"{prefix}.bo"])


def _ln(params: dict, prefix: str, x: Tensor, eps: float) -> Tensor:
    return ad.layer_norm(x, params[f"{prefix}.g"], params[f"{prefix}.b"], eps)


def _ff(params: dict, prefix: str, x: Tensor) -> Tensor:
    return ad.ff(x, *(params[f"{prefix}.{name}"] for name in ("w1", "b1", "w2", "b2")))


def _encoder_block(params, cfg, prefix, x, heads, lengths=None, reads=None):
    """Pre-norm attention and feed-forward block. With ``reads`` (per
    segment of packed rows, ascending positions) only the rows at those
    positions are computed and returned: keys and values still come from
    every row, everything else runs at the read rows alone."""
    normed = _ln(params, f"{prefix}.ln1", x, cfg.eps)
    x_q = normed
    if reads is not None:
        starts = np.cumsum([0] + lengths[:-1])
        index = np.concatenate([start + np.asarray(r) for start, r in zip(starts, reads)])
        x_q = ad.embedding_lookup(normed, index)
        x = ad.embedding_lookup(x, index)
    x = ad.add(x, _attention(params, f"{prefix}.attn", x_q, normed, heads, lengths, reads))
    return ad.add(x, _ff(params, f"{prefix}.ff", _ln(params, f"{prefix}.ln2", x, cfg.eps)))


# ---------------------------------------------------------------------------
# Vision encoder and connector


def encode_images(params: dict, cfg: ModelConfig, images: np.ndarray) -> Tensor:
    """Bidirectional encoding of patch grids -> [B, patches+1, h_v]."""
    images = np.asarray(images, dtype=np.float64)
    if images.ndim != 3 or images.shape[1:] != (cfg.patches, cfg.patch_dim):
        raise DataError(f"images must be [batch, {cfg.patches}, {cfg.patch_dim}], "
                        f"got {images.shape}")
    b = images.shape[0]
    x = ad.linear(Tensor(images), params["vision.patch_proj.w"], params["vision.patch_proj.b"])
    cls = ad.reshape(params["vision.cls"], (1, 1, cfg.hidden_vision))
    x = ad.concat([ad.concat([cls] * b, axis=0), x], axis=1)
    x = ad.add(x, params["vision.pos"])
    for i in range(cfg.vision_layers):
        x = _encoder_block(params, cfg, f"vision.blocks.{i}", x, cfg.vision_heads)
    return _ln(params, "vision.ln_f", x, cfg.eps)


def connect(params: dict, cfg: ModelConfig, vision_feats: Tensor) -> Tensor:
    """Cross-attend learned queries to vision features -> [B, L_c, h_t].

    Vision rows carry no positional encoding here, so the result is
    invariant to permuting them.
    """
    if vision_feats.ndim != 3 or vision_feats.shape[2] != cfg.hidden_vision:
        raise ShapeError(f"connect expects [B, L, {cfg.hidden_vision}], got {vision_feats.shape}")
    b = vision_feats.shape[0]
    q = ad.reshape(params["connector.queries"], (1, cfg.visual_tokens, cfg.hidden_text))
    x = ad.concat([q] * b, axis=0)
    for i in range(cfg.connector_layers):
        prefix = f"connector.blocks.{i}"
        normed = _ln(params, f"{prefix}.ln_self", x, cfg.eps)
        x = ad.add(x, _attention(params, f"{prefix}.self_attn", normed, normed, cfg.connector_heads))
        x = ad.add(x, _attention(params, f"{prefix}.cross_attn",
                                 _ln(params, f"{prefix}.ln_cross", x, cfg.eps), vision_feats,
                                 cfg.connector_heads))
        x = ad.add(x, _ff(params, f"{prefix}.ff", _ln(params, f"{prefix}.ln_ff", x, cfg.eps)))
    return ad.linear(x, params["connector.out.w"], params["connector.out.b"])


def visual_summaries(params: dict, cfg: ModelConfig, vision_feats: Tensor) -> Tensor:
    """Trained linear read-out of the [CLS] row -> [B, h_t]."""
    cls = ad.reshape(ad.narrow(vision_feats, 1, 0, 1), (vision_feats.shape[0], cfg.hidden_vision))
    return ad.linear(cls, params["fusion.vision_proj.w"], params["fusion.vision_proj.b"])


# ---------------------------------------------------------------------------
# Assembly and the causal LM


@dataclass
class AssembledInfo:
    """Position bookkeeping for one spliced (or plain) sequence."""

    layout: PromptLayout
    spliced: bool
    visual_len: int  # spliced visual rows, or 1 for the kept placeholder token
    length: int      # sequence length after splicing

    @property
    def visual_positions(self) -> range:
        return range(self.layout.img_slot, self.layout.img_slot + self.visual_len)

    @property
    def visual_word_pos(self) -> int | None:
        """Position read as the visual embedding: the one just before the
        in-context compressed-word token (None for single-segment prompts).
        That token comes after the image placeholder, whose one row became
        ``visual_len`` rows."""
        if self.layout.img_emb_pos is None:
            return None
        return self.layout.img_emb_pos + self.visual_len - 2

    @property
    def compressed_pos(self) -> int:
        return self.length - 1

    def source_rows(self, visual_ids: np.ndarray) -> np.ndarray:
        """Source-table row of every position: the token ids, with the
        image placeholder replaced by ``visual_ids`` when spliced."""
        ids = np.asarray(self.layout.token_ids, dtype=np.int64)
        if not self.spliced:
            return ids
        slot = self.layout.img_slot
        return np.concatenate([ids[:slot], visual_ids, ids[slot + 1:]])


def assemble(params: dict, cfg: ModelConfig, layouts: list[PromptLayout],
             visual_rows: Tensor | None) -> tuple[Tensor, list[AssembledInfo]]:
    """Splice visual rows into every prompt and pack the real rows of all
    notes, one note after another, into [1, N, h_t], where N is the sum
    of the note lengths. One gather reads them from a table of token
    embeddings and visual rows; there is no padding.

    ``visual_rows`` broadcasts against [B, visual_tokens, h_t] (a [1, 1, h_t]
    row is read L_c times by every note); None keeps each placeholder as an
    ordinary token. Positions are added later, per note.
    """
    b, ht = len(layouts), cfg.hidden_text
    tok_emb = params["lm.tok_emb"]
    table = tok_emb
    if visual_rows is None:
        visual_len = 1
        visual_ids = np.zeros((b, 0), dtype=np.int64)
    else:
        visual_len = cfg.visual_tokens
        if visual_rows.ndim != 3 or visual_rows.shape[0] not in (1, b) \
                or visual_rows.shape[1:] not in ((1, ht), (visual_len, ht)):
            raise ShapeError(f"visual rows must broadcast to [{b}, {visual_len}, {ht}], "
                             f"got {visual_rows.shape}")
        n, l = visual_rows.shape[:2]
        visual_ids = tok_emb.shape[0] + np.broadcast_to(
            np.arange(n * l).reshape(n, l), (b, visual_len))
        table = ad.concat([tok_emb, ad.reshape(visual_rows, (n * l, ht))], axis=0)
    infos = [AssembledInfo(layout, spliced=visual_rows is not None, visual_len=visual_len,
                           length=layout.length + visual_len - 1) for layout in layouts]
    index = np.concatenate([info.source_rows(visual_ids[i]) for i, info in enumerate(infos)])
    return ad.reshape(ad.embedding_lookup(table, index), (1, index.size, ht)), infos


def forward_llm(params: dict, cfg: ModelConfig, x: Tensor, lengths: list[int],
                reads: list[list[int]]) -> Tensor:
    """Causal transformer over the packed rows [1, N, h_t] of notes with
    the given lengths; each note attends only within itself.

    ``reads`` lists, per note, the ascending positions whose final hidden
    states are wanted. Every block but the last runs over all N rows; the
    last computes keys and values over all rows and the rest only at the
    read rows, since no later block consumes the others. Returns the
    hidden states [R, h_t] at the read positions, note after note; inside
    ``autodiff.retaining()`` each layer retains one unpadded [queries, T]
    map per note, and the last layer's queries are the read rows.
    """
    if x.ndim != 3 or x.shape[0] != 1 or x.shape[1] != sum(lengths):
        raise ShapeError(f"forward_llm: {x.shape} does not pack notes of lengths {lengths}")
    n, d = x.shape[1:]
    if max(lengths) > cfg.max_positions:
        raise ConfigError(f"sequence of {max(lengths)} positions exceeds the position table "
                          f"({cfg.max_positions})")
    positions = np.concatenate([np.arange(t) for t in lengths])
    x = ad.add(ad.reshape(x, (n, d)), ad.embedding_lookup(params["lm.pos"], positions))
    for i in range(cfg.lm_layers):
        last = i == cfg.lm_layers - 1
        x = _encoder_block(params, cfg, f"lm.blocks.{i}", x, cfg.lm_heads,
                           lengths, reads if last else None)
    return _ln(params, "lm.ln_f", x, cfg.eps)


# ---------------------------------------------------------------------------
# Fusion and projection


def project(params: dict, x: Tensor) -> Tensor:
    """Shared linear projector [B, h] -> [B, out_dim] (no bias, so it is
    exactly linear)."""
    return ad.matmul(x, params["project.w"])


# ---------------------------------------------------------------------------
# Whole-note embedding


@dataclass
class BatchRepresentations:
    """Everything one batched forward produced, batch-major."""

    infos: list[AssembledInfo]
    raw_visual: Tensor | None         # [B, h_t] (micl-family)
    raw_multimodal: Tensor            # [B, h_t]
    fused_visual: Tensor | None       # [B, h_t]
    fused_multimodal: Tensor | None   # [B, h_t]
    out_visual: Tensor | None         # [B, out_dim], projected
    out_multimodal: Tensor            # [B, out_dim], projected; the eval embedding


def _vision_features(params, cfg, notes, text_only, image_cache):
    """Encode each note's image, or the zero image for text-only ablations.

    A trainable encoder (``freeze_vision=False``) encodes every image on
    the tape. A frozen one encodes each image once per cache, the
    caller's ``image_cache`` or a dict that lives for this call. A cache
    holds one entry per encoder, keyed by the ids of its ``vision.*``
    arrays and holding them, so no id is reused while the cache lives
    (grad-free views ``Tensor(p.data)`` share the arrays, so the entry);
    under it, rows are keyed by note id, and by None for the zero image.
    Identity stands in for content because mlrm never writes a frozen
    ``vision.*`` array in place: only ``AdamW`` writes parameters, and
    only trainable ones."""
    if not text_only:
        for n in notes:
            if n.image.shape != (cfg.patches, cfg.patch_dim):
                raise DataError(f"note {n.id}: image shape {n.image.shape} != "
                                f"({cfg.patches}, {cfg.patch_dim})")
    zero = np.zeros((cfg.patches, cfg.patch_dim))
    if not cfg.freeze_vision:
        return encode_images(params, cfg, np.stack([zero if text_only else n.image
                                                    for n in notes]))
    arrays = tuple(params[name].data for name in sorted(params) if name.startswith("vision."))
    cache = {} if image_cache is None else image_cache
    rows = cache.setdefault(tuple(map(id, arrays)), (arrays, {}))[1]
    images = {None: zero} if text_only else {n.id: n.image for n in notes}
    missing = sorted(k for k in images if k not in rows)
    if missing:
        feats = encode_images(params, cfg, np.stack([images[k] for k in missing]))
        rows.update(zip(missing, feats.data))
    return Tensor(np.stack([rows[None if text_only else n.id] for n in notes]))


def embed_notes(params: dict, cfg: ModelConfig, vocab: Vocab, notes: list[Note],
                modality: str = "multimodal",
                image_cache: dict | None = None) -> BatchRepresentations:
    """Batched note embedding along the wiring of the variant ``cfg.mode``.
    A frozen encoder reads image rows through ``image_cache``, or a dict
    that lives for this call, by note id and by None for the zero image;
    no frozen ``vision.*`` array may change in place while a cache lives
    (see ``_vision_features``)."""
    if modality not in MODALITIES:
        raise ConfigError(f"unknown modality {modality!r}, expected one of {MODALITIES}")
    if not notes:
        raise DataError("embed_notes: empty batch")
    if modality == "image_only":
        notes = [n.replace_text(title="", topics=[], content="") for n in notes]
    layouts = [build_prompt(n, vocab, use_micl=cfg.mode in MICL_PROMPT_MODES) for n in notes]
    return embed_layouts(params, cfg, layouts, notes, modality, image_cache=image_cache)


def embed_layouts(params: dict, cfg: ModelConfig, layouts: list[PromptLayout],
                  notes: list[Note], modality: str = "multimodal",
                  image_cache: dict | None = None) -> BatchRepresentations:
    """Lower-level entry point taking pre-built prompt layouts."""
    ht, mode = cfg.hidden_text, cfg.mode
    text_only = modality == "text_only"
    vision_feats = _vision_features(params, cfg, notes, text_only, image_cache)
    v = visual_summaries(params, cfg, vision_feats)

    if mode not in SPLICE_MODES:
        visual_rows = None
    elif text_only:
        visual_rows = ad.reshape(params["fusion.null_image"], (1, 1, ht))
    else:
        visual_rows = connect(params, cfg, vision_feats)
    packed, infos = assemble(params, cfg, layouts, visual_rows)
    lengths = [info.length for info in infos]
    if mode in MICL_PROMPT_MODES:
        reads = [[info.visual_word_pos, info.compressed_pos] for info in infos]
    else:
        reads = [[info.compressed_pos] for info in infos]
    hidden = forward_llm(params, cfg, packed, lengths, reads)

    # hidden holds each note's read rows in turn: [visual word,] compressed word
    n_m, n_v = hidden, None
    if mode in MICL_PROMPT_MODES:
        n_v = ad.embedding_lookup(hidden, np.arange(0, 2 * len(infos), 2))
        n_m = ad.embedding_lookup(hidden, np.arange(1, 2 * len(infos), 2))

    fused_v = fused_m = None
    if mode == "notellm2":
        fused_v = ad.gate_fuse(v, n_v, params["fusion.gate_visual.w"],
                               params["fusion.gate_visual.b"])
    if mode in GATE_MULTIMODAL_MODES:
        fused_m = ad.gate_fuse(v, n_m, params["fusion.gate_multimodal.w"],
                               params["fusion.gate_multimodal.b"])

    visual_path = fused_v if fused_v is not None else n_v
    out_v = project(params, visual_path) if visual_path is not None else None
    out_m = project(params, fused_m if fused_m is not None else n_m)

    return BatchRepresentations(
        infos=infos, raw_visual=n_v, raw_multimodal=n_m,
        fused_visual=fused_v, fused_multimodal=fused_m,
        out_visual=out_v, out_multimodal=out_m,
    )
