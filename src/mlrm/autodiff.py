"""Dense float64 tensors with reverse-mode automatic differentiation.

Deliberately small: float64 everywhere, a dynamic graph rebuilt on every
forward pass, and no broadcasting except bias addition over leading axes.
The model's biased projections (``linear``), attention, feed-forward
block, late-fusion gate and contrastive loss are each one fused op with
a hand-written backward; the loss reads rows 2k and 2k + 1 as one
(query, related) pair, the layout of a training batch. The backward
sweep is a single-threaded reverse pass over a topologically ordered
tape, so gradients are bitwise reproducible for identical inputs.
Backward functions compute a parent's gradient only when that parent
requires grad.

What is held for backward, and when it is freed:

- The tape is made of ``Node`` objects, apart from the values, one per
  recorded op and none for a leaf. A recorded op's output ``Tensor``
  points to its node, which holds the op name, the backward function
  and one slot per parent: the parent's node, the parent itself when it
  is a leaf that takes a gradient, or None. No node holds a value, and
  no backward function holds a parent ``Tensor``: each keeps the arrays
  and flags it reads. ``linear``, ``matmul`` and ``ff`` keep their input
  rows only when the weight takes a gradient; ``add``, ``narrow`` and
  ``embedding_lookup`` keep no array (a shape at most). So an op's
  output dies when the model code drops it, unless a backward that will
  run reads it.
- ``attention`` keeps q, k and v and each segment's softmax row max and
  row sum, [heads, queries, 1], and rebuilds the probabilities just
  before use with the forward's own steps, which give the same bits,
  also inside ``retaining()``; ``ff`` keeps gelu(h) when w2 needs a
  gradient and the gelu derivative when x, w1 or b1 does, and works
  through one reused block of rows of the pre-activation and cdf.
- ``backward`` consumes the graph as it goes, as PyTorch does by
  default: the sweep drops each node's backward function, parent links
  and tape slot as soon as it passes the node (skipped nodes too), so
  the arrays that node saved are freed before any earlier node runs,
  even while the caller still holds the loss; only ``op`` stays, for
  diagnostics. ``_topo_order`` must run before it, and a second
  ``backward`` through a consumed node raises ``ContractError``.
- Under ``no_grad`` nothing is recorded, so nothing is kept.
- Values are not on the tape, so ``first_nonfinite`` runs a forward
  again without recording and stops at the first op whose output is
  not finite.

``no_grad``, that replay and ``retaining`` are per-thread modes. Inside
``retaining()`` each packed attention call that records also makes a
leaf that requires grad (``Retained``), into which its backward writes
the head-summed |A * dL/dA| of each segment; a loss over grad-free
parameters then records the tape from the first such leaf on, and the
sweep computes only what reaches them (used for attention saliency).
"""

from __future__ import annotations

import contextlib
import math
import threading
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf as _erf

from .errors import ContractError, NumericError, ShapeError


# per-thread modes, defaults on the class: no_grad() on one thread leaves the others recording
class _Modes(threading.local):
    grad_enabled = True
    find_nonfinite = False  # first_nonfinite's replay
    retained = None  # the leaves retaining() collects


_tls = _Modes()

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)
# rows per block of ff's forward: a block of the 4x-wide layer stays in cache
_FF_BLOCK = 256


@contextlib.contextmanager
def _mode(name: str, value):
    """Set mode ``name`` to ``value`` inside the block, also on an exception."""
    prev = getattr(_tls, name)
    setattr(_tls, name, value)
    try:
        yield value
    finally:
        setattr(_tls, name, prev)


def grad_enabled() -> bool:
    return _tls.grad_enabled


def no_grad():
    """Disable graph recording inside the block (pure inference)."""
    return _mode("grad_enabled", False)


def retaining():
    """Yield the ``Retained`` leaves of the block's packed ``attention`` calls
    in call order; an inner block keeps its own, batched calls retain none."""
    return _mode("retained", [])


class _NonFinite(Exception):
    """Raised by ``_record`` inside ``first_nonfinite``'s replay."""


class Node:
    """One tape entry of a recorded op: its name ``op``, its ``backward_fn``
    and one ``parents`` slot per input, which holds the input's node when
    an op made it, the input ``Tensor`` itself when it is a leaf that
    takes a gradient, and None otherwise."""

    __slots__ = ("op", "backward_fn", "parents")

    def __init__(self, op: str,
                 backward_fn: Callable[[np.ndarray], Sequence[np.ndarray | None]],
                 parents: tuple[Node | Tensor | None, ...]):
        self.op, self.backward_fn, self.parents = op, backward_fn, parents


class Tensor:
    """A float64 array plus the bookkeeping reverse mode needs.

    ``data`` is the row-major value buffer, ``grad`` is filled by
    ``backward`` for leaves with ``requires_grad``, and ``node`` is the
    tape entry of the op that made the tensor (None for a leaf).
    """

    __slots__ = ("data", "grad", "requires_grad", "node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self.node: Node | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        flags = []
        if self.requires_grad:
            flags.append("grad")
        if self.node is not None:
            flags.append(self.node.op)
        return f"Tensor(shape={self.shape}{', ' + ','.join(flags) if flags else ''})"


def _records(parents: tuple[Tensor, ...]) -> bool:
    """Whether an op over ``parents`` records a node on the tape."""
    return grad_enabled() and any(p.requires_grad for p in parents)


def _record(data: np.ndarray, op: str, parents: tuple[Tensor, ...],
            backward_fn: Callable[[np.ndarray], Sequence[np.ndarray | None]]) -> Tensor:
    out = Tensor(data)
    if _records(parents):
        out.requires_grad = True
        out.node = Node(op, backward_fn, tuple(
            p.node if p.node is not None else p if p.requires_grad else None
            for p in parents))
    elif _tls.find_nonfinite and not np.isfinite(out.data).all():
        raise _NonFinite(op, out.shape)
    return out


def _topo_order(root: Tensor) -> list[Node]:
    """Every op node reachable from ``root`` through parent links, parents
    strictly before children."""
    nodes: list[Node] = []
    seen: set[Node] = set()
    # Iterative post-order: parents are appended before the nodes that
    # consume them.
    stack: list[tuple[Node, bool]] = [] if root.node is None else [(root.node, False)]
    while stack:
        node, expanded = stack.pop()
        if node in seen:
            continue
        if expanded:
            seen.add(node)
            nodes.append(node)
            continue
        stack.append((node, True))
        for p in node.parents:
            if isinstance(p, Node) and p not in seen:
                stack.append((p, False))
    return nodes


def backward(loss: Tensor) -> None:
    """Reverse sweep from a scalar loss, consuming its graph.

    Visits every op node exactly once in reverse topological order,
    accumulating gradients; each leaf's sum stays in flight until the
    sweep ends, when leaves with ``requires_grad`` receive (or
    accumulate into) ``.grad``. As the sweep passes a node, visited or
    skipped, the node drops its backward function and parent links and
    the sweep drops its tape slot, so the arrays its closure saved die
    before the next node's backward runs (PyTorch's
    ``retain_graph=False``); the sweep's peak holds the gradients in
    flight and the saved arrays of the nodes not yet reached. Values the
    forward made and no backward reads were freed when the caller dropped
    them, before the sweep starts. Walk the graph (``_topo_order``)
    before calling this; a graph that an earlier call consumed raises
    ``ContractError``.
    """
    if loss.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    order = _topo_order(loss)
    for node in order:
        if node.backward_fn is None:
            raise ContractError(f"backward: the {node.op!r} node was consumed by an "
                                f"earlier backward; rebuild the graph")
    flowing: dict[Node | Tensor, np.ndarray] = {
        loss if loss.node is None else loss.node: np.ones_like(loss.data)}
    for i in range(len(order) - 1, -1, -1):
        # the loop names below are the closure's last references, rebound
        # before the next node's backward runs
        node, order[i] = order[i], None
        fn, parents = node.backward_fn, node.parents
        node.backward_fn, node.parents = None, ()
        g = flowing.pop(node, None)
        if g is None:
            continue
        for p, pg in zip(parents, fn(g)):
            if pg is None or p is None:
                continue
            acc = flowing.get(p)
            flowing[p] = pg if acc is None else acc + pg
    # only leaves are left; a copy, since an op may hand one array to two parents
    while flowing:
        t, g = flowing.popitem()
        if t.requires_grad:
            t.grad = g.copy() if t.grad is None else t.grad + g


# ---------------------------------------------------------------------------
# Primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; the only broadcast allowed is a bias whose shape
    equals a trailing suffix of the other operand's shape (bias-add over
    the leading axes)."""
    if a.shape == b.shape:
        def back(g):
            return g, g
        return _record(a.data + b.data, "add", (a, b), back)
    if 1 <= b.ndim < a.ndim and a.shape[a.ndim - b.ndim:] == b.shape:
        lead, grads = a.ndim - b.ndim, (a.requires_grad, b.requires_grad)

        def back(g):
            return (g if grads[0] else None,
                    g.sum(axis=tuple(range(lead))) if grads[1] else None)
        return _record(a.data + b.data, "add", (a, b), back)
    raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")


def scale(x: Tensor, c: float) -> Tensor:
    """Multiply by a python constant."""
    c = float(c)

    def back(g):
        return (g * c,)
    return _record(x.data * c, "scale", (x,), back)


def divs(x: Tensor, c: float) -> Tensor:
    """Divide by a python constant (kept distinct from scale for exact
    rounding of ratios like 11/10)."""
    c = float(c)

    def back(g):
        return (g / c,)
    return _record(x.data / c, "divs", (x,), back)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product, 2-D or batched with identical leading dims."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must be at least 2-D, got {a.shape} and {b.shape}")
    if a.ndim != b.ndim or a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul: batch dims must match exactly, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dims disagree, {a.shape} vs {b.shape}")

    bt = np.swapaxes(b.data, -1, -2) if a.requires_grad else None
    at = np.swapaxes(a.data, -1, -2) if b.requires_grad else None

    def back(g):
        return (None if bt is None else g @ bt, None if at is None else at @ g)
    return _record(a.data @ b.data, "matmul", (a, b), back)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Biased projection x [..., d_in] @ w [d_in, d_out] + b [d_out] over
    the last axis.

    Works on the [rows, d_in] view of x and holds one [rows, d_out]
    buffer where ``add(matmul(x, w), b)`` holds two; forward and backward
    repeat that composition's numpy steps on the views, so both give the
    same bits. The backward keeps the input rows only when w takes a
    gradient, and w only when x does.
    """
    if x.ndim < 1 or w.ndim != 2 or x.shape[-1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeError(f"linear: x {x.shape}, w {w.shape}, b {b.shape}")
    rows = x.data.reshape(-1, w.shape[0])
    out = rows @ w.data
    out += b.data
    shapes = (x.shape, out.shape)
    wt = w.data.T if x.requires_grad else None
    rows_t = rows.T if w.requires_grad else None
    db = b.requires_grad

    def back(g):
        g = g.reshape(shapes[1])
        return (None if wt is None else (g @ wt).reshape(shapes[0]),
                None if rows_t is None else rows_t @ g, g.sum(axis=(0,)) if db else None)
    return _record(out.reshape(x.shape[:-1] + w.shape[1:]), "linear", (x, w, b), back)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    if int(np.prod(shape)) != x.size:
        raise ShapeError(f"reshape: cannot view {x.shape} as {shape}")
    old = x.shape

    def back(g):
        return (g.reshape(old),)
    return _record(x.data.reshape(shape), "reshape", (x,), back)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ShapeError("concat: empty tensor list")
    rank = tensors[0].ndim
    for t in tensors[1:]:
        if t.ndim != rank:
            raise ShapeError("concat: rank mismatch")
        for ax in range(rank):
            if ax != axis % rank and t.shape[ax] != tensors[0].shape[ax]:
                raise ShapeError(f"concat: shapes {tensors[0].shape} and {t.shape} differ off axis {axis}")
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def back(g):
        return tuple(np.split(g, splits, axis=axis))
    return _record(np.concatenate([t.data for t in tensors], axis=axis),
                   "concat", tuple(tensors), back)


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice along one axis."""
    if not (0 <= start and start + length <= x.shape[axis] and length >= 0):
        raise ShapeError(f"narrow: [{start}, {start + length}) outside axis {axis} of {x.shape}")
    index = [slice(None)] * x.ndim
    index[axis] = slice(start, start + length)
    index, shape = tuple(index), x.shape

    def back(g):
        full = np.zeros(shape)
        full[index] = g
        return (full,)
    return _record(np.ascontiguousarray(x.data[index]), "narrow", (x,), back)


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Gather rows of ``table`` by integer id; gradient scatter-adds."""
    ids = np.asarray(ids, dtype=np.int64)
    if table.ndim != 2:
        raise ShapeError(f"embedding_lookup: table must be 2-D, got {table.shape}")
    if ids.ndim != 1:
        raise ShapeError(f"embedding_lookup: ids must be 1-D, got {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ShapeError(f"embedding_lookup: id out of range for table of {table.shape[0]} rows")

    shape = table.shape

    def back(g):
        full = np.zeros(shape)
        np.add.at(full, ids, g)
        return (full,)
    return _record(table.data[ids], "embedding_lookup", (table,), back)


def _heads(x: np.ndarray, heads: int) -> np.ndarray:
    """[..., T, d] -> a [..., heads, T, d / heads] view."""
    return x.reshape(x.shape[:-1] + (heads, x.shape[-1] // heads)).swapaxes(-2, -3)


def _merge(x: np.ndarray) -> np.ndarray:
    """[..., heads, T, dh] -> [..., T, heads * dh]."""
    x = x.swapaxes(-2, -3)
    return x.reshape(x.shape[:-2] + (-1,))


class Retained(Tensor):
    """Attention saliency kept by a packed ``attention`` call inside
    ``retaining()``: a leaf that requires grad, so a loss over grad-free
    parameters records from the op on. Each backward through the op
    writes the head-sum of |A * dL/dA| into ``data`` (zero until then;
    ``grad`` stays None): one flat buffer of per-segment [queries, keys]
    maps, with no padding. ``queries`` holds each segment's query
    positions (a slice when every position is a query)."""

    __slots__ = ("queries", "shapes")

    def __init__(self, shapes: list[tuple[int, int]], queries: list):
        super().__init__(np.zeros(sum(m * n for m, n in shapes)), requires_grad=True)
        self.shapes, self.queries = shapes, queries

    def blocks(self) -> list[np.ndarray]:
        """Per-segment [queries, keys] views of ``data``."""
        ends = np.cumsum([m * n for m, n in self.shapes]).tolist()
        return [self.data[end - m * n:end].reshape(m, n)
                for (m, n), end in zip(self.shapes, ends)]


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int, lengths=None,
              queries=None) -> Tensor:
    """Multi-head scaled dot-product attention from projected q, k, v to
    the head-merged output.

    With ``lengths`` None, q [B, Tq, d] attends fully over k, v
    [B, Tk, d]. Otherwise k, v are packed [N, d] rows of consecutive
    segments of the given lengths, and each query attends causally within
    its own segment: the query at position i to keys 0..i. ``queries``
    gives, per segment, the strictly ascending positions that q holds
    rows for, packed segment after segment; by default q holds every
    position, [N, d]. For the backward pass each segment keeps only its
    softmax row max and row sum, [heads, queries, 1]; the backward
    rebuilds the segment's probabilities just before use with the
    forward's steps in order (scores, scale, minus the stored max, exp of
    the unmasked entries, over the stored sum), which give the forward's
    bits, and frees them before the next segment. A packed call inside
    ``retaining()``, with recording on, also adds a ``Retained`` leaf to
    the scope's list, into which the backward writes each segment's head-sum
    of |A * dL/dA| from the rebuilt probabilities.
    """
    if q.ndim not in (2, 3) or k.shape != v.shape or k.ndim != q.ndim \
            or q.shape[-1] != k.shape[-1] or q.shape[-1] % heads:
        raise ShapeError(f"attention: q {q.shape}, k {k.shape}, v {v.shape} "
                         f"with {heads} heads")
    if lengths is None:
        if q.ndim != 3 or q.shape[0] != k.shape[0] or queries is not None:
            raise ShapeError(f"attention: batched q {q.shape}, k {k.shape} (or packed-only args)")
        qspans, kspans, masks, kept = [Ellipsis], [Ellipsis], [(None, True)], None
    else:
        lengths = [int(n) for n in lengths]
        if q.ndim != 2 or min(lengths, default=0) < 1 or sum(lengths) != k.shape[0]:
            raise ShapeError(f"attention: packed k {k.shape} does not hold "
                             f"segments of lengths {lengths}")
        if queries is None:
            rows = [slice(n) for n in lengths]
            counts = lengths
        else:
            rows = [np.asarray(r, dtype=np.int64) for r in queries]
            if len(rows) != len(lengths) or any(
                    r.ndim != 1 or not r.size or r[0] < 0 or r[-1] >= n
                    or (np.diff(r) <= 0).any() for r, n in zip(rows, lengths)):
                raise ShapeError(f"attention: queries {queries} are not ascending "
                                 f"positions within segments of lengths {lengths}")
            counts = [r.size for r in rows]
        if q.shape[0] != sum(counts):
            raise ShapeError(f"attention: q {q.shape} does not hold {sum(counts)} query rows")
        qspans, kspans = (
            [slice(end - n, end) for n, end in zip(sizes, np.cumsum(sizes).tolist())]
            for sizes in (counts, lengths))
        allowed = np.tri(max(lengths), dtype=bool)
        future = ~allowed
        # per segment: the (future, allowed) key positions of each query row
        masks = [(future[r, :n], allowed[r, :n]) for r, n in zip(rows, lengths)]
        kept = None
        if _tls.retained is not None and _tls.grad_enabled:
            kept = Retained(list(zip(counts, lengths)), rows)
            _tls.retained.append(kept)
    c = 1.0 / math.sqrt(q.shape[-1] // heads)

    def softmax(qh, kh, mask, stats=None):
        """One segment's probabilities with their row max and row sum;
        given ``stats``, the same steps with the stored statistics in place
        of the reductions, which rebuilds the same bits."""
        future, allowed = mask
        p = qh @ kh.swapaxes(-1, -2)
        p *= c
        top = (p.max(axis=-1, keepdims=True, where=allowed, initial=-np.inf)
               if stats is None else stats[0])
        p -= top
        if future is not None:
            # masked entries end as exactly the 0 that exp(-inf) gives, but
            # exp skips them: exp of -inf, or of any value that underflows,
            # runs several times slower than of the rest
            np.copyto(p, 0.0, where=future)
        np.exp(p, out=p, where=allowed)
        total = p.sum(axis=-1, keepdims=True) if stats is None else stats[1]
        p /= total
        return p, (top, total)

    qkv = (q.data, k.data, v.data)
    out = np.empty_like(q.data)
    saved = []  # per segment: the [heads, queries, 1] row max and sum
    for qspan, kspan, mask in zip(qspans, kspans, masks):
        qh = _heads(qkv[0][qspan], heads)
        kh, vh = (_heads(x[kspan], heads) for x in qkv[1:])
        p, stats = softmax(qh, kh, mask)
        saved.append(stats)
        out[qspan] = _merge(p @ vh)
    grads = [x.requires_grad for x in (q, k, v)]
    maps = [None] * len(qspans) if kept is None else kept.blocks()

    def back(g):
        dq, dk, dv = (np.empty_like(x) if need else None for x, need in zip(qkv, grads))
        for qspan, kspan, mask, stats, s in zip(qspans, kspans, masks, saved, maps):
            qh = _heads(qkv[0][qspan], heads)
            kh, vh = (_heads(x[kspan], heads) for x in qkv[1:])
            p = softmax(qh, kh, mask, stats)[0]
            gh = _heads(g[qspan], heads)
            dp = gh @ vh.swapaxes(-1, -2)
            if s is not None:
                np.abs(p * dp).sum(axis=0, out=s)
            if dv is not None:
                dv[kspan] = _merge(p.swapaxes(-1, -2) @ gh)
            if dq is None and dk is None:
                continue
            # softmax backward in place, then the 1/sqrt(dh) scale
            dp -= (dp * p).sum(axis=-1, keepdims=True)
            dp *= p
            dp *= c
            if dq is not None:
                dq[qspan] = _merge(dp @ kh)
            if dk is not None:
                dk[kspan] = _merge(dp.swapaxes(-1, -2) @ qh)
        return dq, dk, dv
    parents = (q, k, v) if kept is None else (q, k, v, kept)
    return _record(out, "attention", parents, back)


def ff(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """Feed-forward block gelu(x @ w1 + b1) @ w2 + b2 over the last axis,
    with the exact erf-based gelu.

    The forward is one loop over blocks of ``_FF_BLOCK`` rows, through
    one reused block-sized pair of buffers: per block, the pre-activation
    h, the gelu cdf in place, then that block's output rows from
    gelu(h) = h * cdf. A call that records a node also writes, per block,
    what its backward reads into full [rows, d_ff] arrays: gelu(h) when
    w2 needs a gradient, and the derivative cdf + h * phi(h) when x, w1
    or b1 does; a call that records none keeps nothing wide. A one-row
    tail joins the block before it, so a block has one row only when the
    input does: numpy takes its matrix-vector path for a one-row product,
    whose bits differ. Every row's bits are those of the whole-array
    expression. The backward takes dW2 from the kept gelu(h), then
    builds dh in the one g @ w2^T buffer, scaled in place by the kept
    derivative.
    """
    d = x.shape[-1]
    if w1.ndim != 2 or w1.shape[0] != d or b1.shape != w1.shape[1:] \
            or w2.shape != (w1.shape[1], d) or b2.shape != (d,):
        raise ShapeError(f"ff: weights {w1.shape}/{b1.shape}/{w2.shape}/{b2.shape} "
                         f"do not fit input {x.shape}")
    rows = x.data.reshape(-1, d)
    n, parents = len(rows), (x, w1, b1, w2, b2)
    need = [_records(parents) and t.requires_grad for t in parents]
    edges = [*range(0, max(n - 1, 1), _FF_BLOCK), n]
    h, cdf = (np.empty((min(n, _FF_BLOCK + 1), w1.shape[1])) for _ in range(2))
    act = np.empty((n, w1.shape[1])) if need[3] else None
    dgelu = np.empty((n, w1.shape[1])) if any(need[:3]) else None
    out = np.empty((n, d))
    for start, stop in zip(edges, edges[1:]):
        block = slice(start, stop)
        hb, cb = h[:stop - start], cdf[:stop - start]
        np.matmul(rows[block], w1.data, out=hb)
        hb += b1.data
        np.multiply(hb, _INV_SQRT2, out=cb)
        _erf(cb, out=cb)
        cb += 1.0
        cb *= 0.5
        np.matmul(hb * cb if act is None else np.multiply(hb, cb, out=act[block]),
                  w2.data, out=out[block])
        if dgelu is not None:
            # gelu'(h) = (exp(-0.5 * h * h) / sqrt(2 pi)) * h + cdf, step by step
            s = dgelu[block]
            np.multiply(hb, -0.5, out=s)
            s *= hb
            np.exp(s, out=s)
            s *= _INV_SQRT2PI
            s *= hb
            s += cb
    out += b2.data

    shape = x.shape
    w1t = w1.data.T if need[0] else None
    rows_t = rows.T if need[1] else None
    w2t = w2.data.T if dgelu is not None else None

    def back(g):
        g = g.reshape(-1, d)
        dh = None
        if dgelu is not None:
            dh = g @ w2t
            dh *= dgelu
        return (None if w1t is None else (dh @ w1t).reshape(shape),
                None if rows_t is None else rows_t @ dh, dh.sum(axis=0) if need[2] else None,
                act.T @ g if need[3] else None, g.sum(axis=0) if need[4] else None)
    return _record(out.reshape(x.shape), "ff", parents, back)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then apply
    the per-feature affine."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm: affine shapes {gain.shape}/{bias.shape} do not match feature dim {d}")
    # np.var's own arithmetic, reusing the centred copy for xhat.
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    var = np.square(xhat).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    out = xhat * gain.data + bias.data
    gain_x = gain.data if x.requires_grad else None
    dgain_, dbias_ = gain.requires_grad, bias.requires_grad

    def back(g):
        # inv * (gxhat - mean(gxhat) - xhat * mean(gxhat * xhat)) step by step,
        # in dx and one scratch buffer that first holds g * xhat for the gain
        buf = g * xhat if dgain_ else np.empty_like(xhat)
        dgain = buf.reshape(-1, d).sum(axis=0) if dgain_ else None
        dx = None
        if gain_x is not None:
            dx = g * gain_x
            np.multiply(dx, xhat, out=buf)
            dx -= dx.mean(axis=-1, keepdims=True)
            dx -= np.multiply(xhat, buf.mean(axis=-1, keepdims=True), out=buf)
            dx *= inv
        return dx, dgain, g.reshape(-1, d).sum(axis=0) if dbias_ else None
    return _record(out, "layer_norm", (x, gain, bias), back)


def gate_fuse(v: Tensor, n: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Late-fusion gate over rows [B, h]: z = sigmoid([v; n] W^T + b),
    then z * v + (1 - z) * n.

    Forward and backward repeat the numpy steps of the unfused composition
    in ``tests/refops.py`` in its order, so both give the same bits. v is
    listed twice on the tape, first for its product with z and then for
    its part of [v; n], so a v shared by two gates sums its four
    gradients in the composition's grouping.
    """
    if v.shape != n.shape or v.ndim != 2:
        raise ShapeError(f"gate_fuse: need equal [B, h] shapes, got {v.shape} and {n.shape}")
    h = v.shape[1]
    if w.shape != (h, 2 * h) or b.shape != (h,):
        raise ShapeError(f"gate_fuse: weights {w.shape}/{b.shape} do not fit dim {h}")
    x = np.concatenate([v.data, n.data], axis=1)
    wt = np.ascontiguousarray(w.data.T)
    a = x @ wt + b.data
    # Split by sign so neither branch exponentiates a positive argument.
    z = np.where(a >= 0, 1.0 / (1.0 + np.exp(-np.clip(a, 0, None))),
                 np.exp(np.clip(a, None, 0)) / (1.0 + np.exp(np.clip(a, None, 0))))
    rest = 1.0 - z
    vd, nd = v.data, n.data
    gv, gn, gb = v.requires_grad, n.requires_grad, b.requires_grad
    xt = x.T if w.requires_grad else None

    def back(g):
        da = (g * vd - g * nd) * z * rest
        dx = da @ wt.T if gv or gn else None
        dv, dn = (None, None) if dx is None else np.split(dx, [h], axis=1)
        return (g * z if gv else None, dv if gv else None, g * rest + dn if gn else None,
                None if xt is None else np.ascontiguousarray((xt @ da).T),
                da.sum(axis=(0,)) if gb else None)
    return _record(z * v.data + rest * n.data, "gate_fuse", (v, v, n, w, b), back)


def contrastive(queries: Tensor, candidates: Tensor, tau: Tensor) -> Tensor:
    """In-batch contrastive loss over consecutive (query, related) rows:
    the mean over rows i of -log softmax(candidate i ^ 1 | every
    candidate but i), on cosine similarities scaled by exp(tau). Pass
    one tensor as both tables for the within-table loss; a batch of one
    pair has no negatives, so its loss is exactly zero.

    The positive logit is subtracted before ``exp``, so row i's term is
    log1p of a sum of non-positive-shifted exponentials; this stays
    accurate when the positive dominates and the term is tiny, where
    logsumexp minus the positive loses every digit. Forward and backward
    repeat the numpy steps of the unfused composition in
    ``tests/refops.py`` in its order, so both give the same bits.
    """
    n = queries.shape[0]
    if queries.ndim != 2 or candidates.shape != queries.shape or n % 2 or tau.size != 1:
        raise ShapeError(f"contrastive: need two equal tables of an even row count and "
                         f"a scalar tau, got {queries.shape}/{candidates.shape} and {tau.shape}")
    tables = (queries,) if candidates is queries else (queries, candidates)
    norms = []  # per table: rows, squared row norms, their -1/2 power, unit rows
    for x in tables:
        sq = (x.data * x.data).sum(axis=1)
        bad = np.flatnonzero(sq == 0.0)
        if bad.size:
            raise NumericError(f"zero-norm embedding at row {bad[0]}")
        inv = sq ** -0.5
        norms.append((x.data, sq, inv, x.data * inv[:, None]))
    q, c = norms[0][3], norms[-1][3]
    ct = np.ascontiguousarray(c.T)
    rows = np.arange(n)
    partner = rows ^ 1
    sims = q @ ct
    shifted = sims - sims[rows, partner][:, None]
    scale = np.exp(tau.data)
    ex = np.exp(scale * shifted)
    keep = np.ones((n, n))
    keep[rows, rows] = 0.0
    keep[rows, partner] = 0.0
    terms = (ex * keep).sum(axis=1)
    loss = np.asarray(np.log1p(terms).sum()) / float(n)
    dq_, dc_, dtau_ = queries.requires_grad, candidates.requires_grad, tau.requires_grad

    def back(g):
        dlogits = ((g / float(n)) / (1.0 + terms))[:, None] * keep * ex
        dsims = dlogits * scale
        dsims[rows, partner] -= dsims.sum(axis=1)  # through the subtracted positive
        dq = dsims @ ct.T if dq_ else None
        dc = np.ascontiguousarray((q.T @ dsims).T) if dc_ else None
        grads = [dq, dc] if len(norms) == 2 else [None if dq is None else dq + dc]
        for i, (x, sq, inv, _) in enumerate(norms):
            if grads[i] is not None:
                # through |x|^2: d(x * x)/dx adds x twice, as a product's two parents do
                half = ((grads[i] * x).sum(axis=1) * -0.5 * sq ** -1.5)[:, None] * x
                grads[i] = grads[i] * inv[:, None] + half + half
        return (*grads, (dlogits * shifted).sum() * scale if dtau_ else None)
    return _record(loss, "contrastive", (*tables, tau), back)


def first_nonfinite(build: Callable[[], Tensor]) -> tuple[str, tuple[int, ...]] | None:
    """(op, output shape) of the first op whose output is not finite when
    ``build()`` runs again under ``no_grad``, or None when none is.

    Used to blame the origin of a NaN/Inf loss: the tape keeps no values,
    so the caller passes a function that repeats the failing forward,
    which records nothing and stops at that op. A leaf is no op, so a
    non-finite input shows at the first op that reads it.
    """
    try:
        with _mode("find_nonfinite", True), no_grad():
            build()
    except _NonFinite as bad:
        return bad.args
    return None
