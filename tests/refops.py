"""Reference ops that the model does not run, built on the engine's tape.

The model runs the fused ``autodiff.linear``, ``autodiff.attention``,
``autodiff.ff``, ``autodiff.gate_fuse`` and ``autodiff.contrastive``. An
explicit masked softmax and gelu are the references of attention and the
feed-forward block: the fused ops must match compositions of these. The
fused attention recomputes its probabilities in backward and keeps only
their head-summed saliency, the fused feed-forward block keeps gelu(h)
and its derivative in place of the pre-activation and cdf, and layer
norm's backward works in place; ``stored_attention``, ``stored_ff`` and
``stored_layer_norm`` keep the whole-array arithmetic those replaced,
which the engine's ops must match bit for bit. ``stored_attention`` also
returns its probabilities as explicit leaves that take dL/dA, and
``attention_probabilities`` runs the saliency loss through it: the
independent reference of the maps the fused op writes. The elementwise,
reduction and row-wise primitives below compose the reference biased
projection (``linear_composition``), late-fusion gate
(``gate_fuse_composition``) and contrastive loss
(``contrastive_composition``), which the fused ops must match bit for
bit, and give the tests scalar reductions. Each keeps its own
finite-difference cases. The dense saliency maps and position masks at
the end are the reference of ``saliency.batch_saliency``, which reads
the same means straight from the retained maps.
"""

import math

import numpy as np
from scipy.special import erf

from mlrm import autodiff as ad
from mlrm.errors import NumericError, ShapeError
from mlrm.model import MICL_PROMPT_MODES
from mlrm.training import batch_loss

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


def masked_softmax(logits, mask):
    """Softmax over the last axis restricted to ``mask == True`` entries.

    Disallowed entries are exactly zero in the output; each row is
    stabilized by its own maximum over allowed entries. Every row needs
    at least one allowed entry.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != logits.shape:
        raise ShapeError(f"masked_softmax: mask shape {mask.shape} != logits shape {logits.shape}")
    # One buffer, in place: exp(-inf) is exactly 0 at disallowed entries.
    out = np.where(mask, logits.data, -np.inf)
    out -= out.max(axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)

    def back(g):
        dx = g - (g * out).sum(axis=-1, keepdims=True)
        dx *= out
        return (dx,)
    return ad._record(out, "masked_softmax", (logits,), back)


def gelu(x):
    """Exact erf-based gelu."""
    cdf = erf(x.data * _INV_SQRT2)
    cdf += 1.0
    cdf *= 0.5

    def back(g):
        dx = _INV_SQRT2PI * np.exp(-0.5 * x.data * x.data)
        dx *= x.data
        dx += cdf
        dx *= g
        return (dx,)
    return ad._record(x.data * cdf, "gelu", (x,), back)


def _positions(lengths, queries):
    """Each segment's query positions: all of them when ``queries`` is None."""
    if queries is None:
        return [np.arange(n) for n in lengths]
    return [np.asarray(r) for r in queries]


def stored_attention(q, k, v, heads, lengths=None, queries=None, retain=False):
    """``autodiff.attention`` as it was when it kept every probability
    block for backward and masked the future with -inf before ``exp``:
    q, k, v [B, T, d] attending fully, or packed [N, d] rows of causal
    segments of the given lengths, queried at every position or at the
    per-segment positions ``queries``. Returns (output, probabilities):
    with ``retain``, each segment's [heads, queries, keys] probabilities
    as a leaf that requires grad and is a parent of the output, so
    ``backward`` writes dL/dA into its ``grad``; else None. The
    reference of the fused op's recomputing backward and of its saliency
    maps."""
    c = 1.0 / math.sqrt(q.shape[-1] // heads)
    if lengths is None:
        qspans, kspans, masks = [Ellipsis], [Ellipsis], [None]
    else:
        rows = _positions(lengths, queries)
        qspans, kspans = (
            [slice(end - n, end) for n, end in zip(sizes, np.cumsum(sizes).tolist())]
            for sizes in ([len(r) for r in rows], lengths))
        masks = [~np.tri(n, dtype=bool)[r] for r, n in zip(rows, lengths)]
    out, probs = np.empty_like(q.data), []
    for qspan, kspan, mask in zip(qspans, kspans, masks):
        qh = ad._heads(q.data[qspan], heads)
        kh, vh = (ad._heads(x.data[kspan], heads) for x in (k, v))
        p = np.matmul(qh, kh.swapaxes(-1, -2))
        p *= c
        if mask is not None:
            np.copyto(p, -np.inf, where=mask)
        p -= p.max(axis=-1, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=-1, keepdims=True)
        out[qspan] = ad._merge(p @ vh)
        probs.append(p)

    def back(g):
        dq, dk, dv = (np.empty_like(x.data) for x in (q, k, v))
        dps = []
        for qspan, kspan, p in zip(qspans, kspans, probs):
            qh = ad._heads(q.data[qspan], heads)
            kh, vh = (ad._heads(x.data[kspan], heads) for x in (k, v))
            gh = ad._heads(g[qspan], heads)
            dp = np.matmul(gh, vh.swapaxes(-1, -2))
            dps.append(dp)
            dv[kspan] = ad._merge(p.swapaxes(-1, -2) @ gh)
            ds = dp.copy()
            ds -= (ds * p).sum(axis=-1, keepdims=True)
            ds *= p
            ds *= c
            dq[qspan] = ad._merge(ds @ kh)
            dk[kspan] = ad._merge(ds.swapaxes(-1, -2) @ qh)
        return dq, dk, dv, *dps
    leaves = [ad.Tensor(p, requires_grad=True) for p in probs] if retain else []
    return ad._record(out, "attention", (q, k, v, *leaves), back), leaves or None


def attention_probabilities(params, cfg, vocab, notes, loss_cfg):
    """``saliency.batch_saliency``'s loss and backward inside
    ``autodiff.retaining()``, over grad-free views of the parameters, with
    ``stored_attention`` in place of the fused op; like the fused op, it
    retains at packed calls that record. Returns (loss, reps, layers):
    layers[l][b] is (rows, probs), note b's query positions at LM layer l
    of the multimodal pass and its [heads, queries, T] probability leaf,
    whose ``grad`` holds dL/dA. Every value matches the fused op's run bit
    for bit."""
    layers = []

    def stored(q, k, v, heads, lengths=None, queries=None):
        retain = lengths is not None and ad._tls.retained is not None and ad.grad_enabled()
        out, probs = stored_attention(q, k, v, heads, lengths, queries, retain)
        if retain:
            layers.append(list(zip(_positions(lengths, queries), probs)))
        return out
    fused, ad.attention = ad.attention, stored
    try:
        views = {name: ad.Tensor(p.data) for name, p in params.items()}
        with ad.retaining():
            loss, reps = batch_loss(views, cfg, vocab, notes, loss_cfg)
        ad.backward(loss)
    finally:
        ad.attention = fused
    return loss, reps, layers[:cfg.lm_layers]


def stored_ff(x, w1, b1, w2, b2):
    """Feed-forward block that keeps its whole pre-activation and gelu
    cdf, with the whole-array gelu-derivative expression of the earlier
    ``autodiff.ff`` backward: the reference of the fused op, which keeps
    gelu(h) and the derivative from its row-blocked forward instead."""
    d = x.shape[-1]
    rows = x.data.reshape(-1, d)
    h = rows @ w1.data
    h += b1.data
    cdf = erf(h * _INV_SQRT2)
    cdf += 1.0
    cdf *= 0.5
    out = (h * cdf) @ w2.data
    out += b2.data

    def back(g):
        g = g.reshape(-1, d)
        need = [t.requires_grad for t in (x, w1, b1, w2, b2)]
        if any(need[:3]):
            dh = _INV_SQRT2PI * np.exp(-0.5 * h * h)
            dh *= h
            dh += cdf
            dh *= g @ w2.data.T
        return ((dh @ w1.data.T).reshape(x.shape) if need[0] else None,
                rows.T @ dh if need[1] else None, dh.sum(axis=0) if need[2] else None,
                (h * cdf).T @ g if need[3] else None, g.sum(axis=0) if need[4] else None)
    return ad._record(out.reshape(x.shape), "ff", (x, w1, b1, w2, b2), back)


def stored_layer_norm(x, gain, bias, eps=1e-5):
    """Layer norm with the one-expression backward of the earlier
    ``autodiff.layer_norm``, the reference of the in-place one."""
    d = x.shape[-1]
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    var = np.square(xhat).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv

    def back(g):
        dx = None
        if x.requires_grad:
            gxhat = g * gain.data
            dx = inv * (gxhat - gxhat.mean(axis=-1, keepdims=True)
                        - xhat * (gxhat * xhat).mean(axis=-1, keepdims=True))
        return (dx, (g * xhat).reshape(-1, d).sum(axis=0) if gain.requires_grad else None,
                g.reshape(-1, d).sum(axis=0) if bias.requires_grad else None)
    return ad._record(xhat * gain.data + bias.data, "layer_norm", (x, gain, bias), back)


def mul(a, b):
    """Elementwise product of same-shape tensors."""
    if a.shape != b.shape:
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}")

    def back(g):
        return (g * b.data if a.requires_grad else None,
                g * a.data if b.requires_grad else None)
    return ad._record(a.data * b.data, "mul", (a, b), back)


def addc(x, c):
    """Add a python constant elementwise."""
    def back(g):
        return (g,)
    return ad._record(x.data + float(c), "addc", (x,), back)


def transpose(x, axes=None):
    perm = tuple(axes) if axes is not None else tuple(reversed(range(x.ndim)))
    if sorted(perm) != list(range(x.ndim)):
        raise ShapeError(f"transpose: {perm} is not a permutation of rank {x.ndim}")
    inverse = tuple(np.argsort(perm))

    def back(g):
        return (np.ascontiguousarray(g.transpose(inverse)),)
    return ad._record(np.ascontiguousarray(x.data.transpose(perm)), "transpose", (x,), back)


def sigmoid(x):
    # Split by sign so neither branch exponentiates a positive argument.
    out = np.where(x.data >= 0,
                   1.0 / (1.0 + np.exp(-np.clip(x.data, 0, None))),
                   np.exp(np.clip(x.data, None, 0)) / (1.0 + np.exp(np.clip(x.data, None, 0))))

    def back(g):
        return (g * out * (1.0 - out),)
    return ad._record(out, "sigmoid", (x,), back)


def smul(s, x):
    """Scale a tensor by a scalar tensor (gradient flows to both)."""
    if s.size != 1:
        raise ShapeError(f"smul: scale factor must be scalar, got shape {s.shape}")

    def back(g):
        return np.asarray((g * x.data).sum()).reshape(s.shape), g * s.data
    return ad._record(s.data * x.data, "smul", (s, x), back)


def exp(x):
    out = np.exp(x.data)

    def back(g):
        return (g * out,)
    return ad._record(out, "exp", (x,), back)


def log1p(x):
    """log(1 + x), precise for tiny x."""
    def back(g):
        return (g / (1.0 + x.data),)
    return ad._record(np.log1p(x.data), "log1p", (x,), back)


def power(x, p):
    """Elementwise x**p for a python exponent."""
    p = float(p)
    out = x.data ** p

    def back(g):
        return (g * p * x.data ** (p - 1.0),)
    return ad._record(out, "power", (x,), back)


def tsum(x, axis=None):
    """Sum over all elements (axis None, scalar result) or one axis."""
    if axis is None:
        def back(g):
            return (np.broadcast_to(g, x.shape).copy(),)
        return ad._record(np.asarray(x.data.sum()), "sum", (x,), back)
    ax = axis % x.ndim

    def back(g):
        return (np.broadcast_to(np.expand_dims(g, ax), x.shape).copy(),)
    return ad._record(x.data.sum(axis=ax), "sum", (x,), back)


def tmean(x, axis=None):
    n = x.size if axis is None else x.shape[axis % x.ndim]
    return ad.divs(tsum(x, axis), n)


def add_rows(x, r):
    """Add r[i] to every entry of row i of a matrix."""
    if x.ndim != 2 or r.shape != (x.shape[0],):
        raise ShapeError(f"add_rows: expected matrix and per-row vector, got {x.shape} and {r.shape}")

    def back(g):
        return g, g.sum(axis=1)
    return ad._record(x.data + r.data[:, None], "add_rows", (x, r), back)


def scale_rows(x, s):
    """Multiply row i of a matrix by s[i]."""
    if x.ndim != 2 or s.shape != (x.shape[0],):
        raise ShapeError(f"scale_rows: expected matrix and per-row vector, got {x.shape} and {s.shape}")

    def back(g):
        return g * s.data[:, None], (g * x.data).sum(axis=1)
    return ad._record(x.data * s.data[:, None], "scale_rows", (x, s), back)


def linear_composition(x, w, b):
    """``autodiff.linear`` as 2 tape nodes: x @ w, then + b."""
    return ad.add(ad.matmul(x, w), b)


def gate_fuse_composition(v, n, w, b):
    """``autodiff.gate_fuse`` as 10 tape nodes: z = sigmoid([v; n] W^T + b),
    then z * v + (1 - z) * n."""
    if v.shape != n.shape or v.ndim != 2:
        raise ShapeError(f"gate_fuse: need equal [B, h] shapes, got {v.shape} and {n.shape}")
    h = v.shape[1]
    if w.shape != (h, 2 * h) or b.shape != (h,):
        raise ShapeError(f"gate_fuse: weights {w.shape}/{b.shape} do not fit dim {h}")
    x = ad.concat([v, n], axis=1)
    z = sigmoid(ad.add(ad.matmul(x, transpose(w)), b))
    one_minus = addc(ad.scale(z, -1.0), 1.0)
    return ad.add(mul(z, v), mul(one_minus, n))


def _normalize_rows(emb):
    sq = tsum(mul(emb, emb), axis=1)
    bad = np.flatnonzero(sq.data == 0.0)
    if bad.size:
        raise NumericError(f"zero-norm embedding at row {bad[0]}")
    return scale_rows(emb, power(sq, -0.5))


def contrastive_composition(queries, candidates, partner, tau):
    """``autodiff.contrastive`` as 22 tape nodes (27 with two tables):
    unit rows, cosine similarities, the positive subtracted row by row,
    exp of the scaled logits, the masked row sum, log1p and the mean."""
    same = candidates is queries
    q = _normalize_rows(queries)
    c = q if same else _normalize_rows(candidates)
    n = q.shape[0]
    rows = np.arange(n)
    sims = ad.matmul(q, transpose(c))
    indicator = np.zeros((n, n))
    indicator[rows, partner] = 1.0
    pos = tsum(mul(sims, ad.Tensor(indicator)), axis=1)
    logits = smul(exp(tau), add_rows(sims, ad.scale(pos, -1.0)))
    keep = np.ones((n, n))
    keep[rows, rows] = 0.0
    keep[rows, partner] = 0.0
    masked = mul(exp(logits), ad.Tensor(keep))
    return tmean(log1p(tsum(masked, axis=1)))


def position_sets(info, mode):
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


def saliency_matrices(layers, infos):
    """Dense per-note, per-layer [T, T] head-sums of |A * dL/dA| from the
    explicit probabilities of ``attention_probabilities``; rows that were
    not queries are zero. Returns matrices[b][l]."""
    out = [[] for _ in infos]
    for layer in layers:
        for per_layer, info, (rows, probs) in zip(out, infos, layer):
            matrix = np.zeros((info.length, info.length))
            matrix[rows] = np.abs(probs.data * probs.grad).sum(axis=0)
            per_layer.append(matrix)
    return out


def decompose(matrix, sets):
    """Mean of ``matrix`` over each of a note's ``position_sets``."""
    return tuple(math.fsum(matrix[mask].tolist()) / int(np.count_nonzero(mask))
                 for mask in sets)
