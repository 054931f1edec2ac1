"""Unit and property tests for the reverse-mode tensor engine."""

import contextlib
import itertools
import tracemalloc
import weakref
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlrm import autodiff as ad
from mlrm.errors import ContractError, ShapeError

from fdcheck import assert_grad_close, central_diff
from refops import (add_rows, addc, contrastive_composition, exp, gate_fuse_composition, gelu,
                    linear_composition, log1p, masked_softmax, mul, power, scale_rows, sigmoid,
                    smul, stored_attention, stored_ff, stored_layer_norm, tmean, transpose,
                    tsum)


def t(arr, grad=True):
    return ad.Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


def scalar_loss(x):
    """Reduce any tensor to a scalar with nontrivial entry weights."""
    w = ad.Tensor(np.arange(1, x.size + 1, dtype=np.float64).reshape(x.shape) / x.size)
    return tsum(mul(x, w))


# ---------------------------------------------------------------------------
# Forward-value examples


def test_matmul_identity():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 4))
    out = ad.matmul(t(a), t(np.eye(4)))
    np.testing.assert_array_equal(out.data, a)


def test_matmul_zeros():
    out = ad.matmul(t(np.zeros((2, 3))), t(np.ones((3, 4))))
    np.testing.assert_array_equal(out.data, np.zeros((2, 4)))


def test_matmul_shape_errors():
    with pytest.raises(ShapeError):
        ad.matmul(t(np.ones((2, 3))), t(np.ones((4, 2))))
    with pytest.raises(ShapeError):
        ad.matmul(t(np.ones((2, 2, 3))), t(np.ones((3, 3, 2))))


def causal_probs(q, k, lengths, heads=1):
    """Per-segment [heads, T, T] probabilities of packed causal attention,
    read exactly from the op's output: each head is at least as wide as
    the longest segment, and value row j is one-hot at column j of every
    head, so output row i of a head is row i of its probabilities."""
    n, width = sum(lengths), q.shape[1] // heads
    assert width >= max(lengths)
    positions = np.concatenate([np.arange(m) for m in lengths])
    v = np.zeros((n, heads, width))
    v[np.arange(n), :, positions] = 1.0
    out = ad.attention(t(q), t(k), t(v.reshape(n, -1)), heads, lengths)
    rows = out.data.reshape(n, heads, width).swapaxes(0, 1)
    return [rows[:, end - m:end, :m] for m, end in zip(lengths, np.cumsum(lengths))]


def assert_causal_rows(lengths, blocks):
    """Later positions hold exactly zero and every row sums to one."""
    for n, block in zip(lengths, blocks):
        assert np.all(block[:, ~np.tri(n, dtype=bool)] == 0.0)
        np.testing.assert_allclose(block.sum(axis=-1), 1.0, rtol=0, atol=1e-12)


def test_masked_softmax_rows_sum_to_one_and_masked_exactly_zero():
    rng = np.random.default_rng(1)
    lengths = [1, 4, 6]
    q, k = (rng.normal(size=(11, 12)) * 5 for _ in range(2))
    assert_causal_rows(lengths, causal_probs(q, k, lengths, heads=2))


def test_masked_softmax_uniform_under_equal_logits():
    (block,) = causal_probs(np.zeros((4, 4)), np.ones((4, 4)), [4])
    np.testing.assert_allclose(block[0], np.tri(4) / np.arange(1.0, 5.0)[:, None], atol=1e-15)


def test_masked_softmax_stability_under_large_logits():
    # one head of width 4, so the 1/sqrt(4) scale halves the query-key
    # products exactly and the logits are 1e4 and 1e4 - 1
    q = np.array([[2.0, 0, 0, 0]] * 2)
    k = np.array([[1e4, 0, 0, 0], [1e4 - 1.0, 0, 0, 0]])
    (block,) = causal_probs(q, k, [2])
    assert np.isfinite(block).all()
    np.testing.assert_allclose(block[0, 1, 0], 1 / (1 + np.e ** -1), rtol=1e-12)


def test_layer_norm_constant_vector_is_zero_before_affine():
    out = ad.layer_norm(t(np.full((3, 8), 2.5)), t(np.ones(8)), t(np.zeros(8)))
    np.testing.assert_array_equal(out.data, np.zeros((3, 8)))


def test_gelu_fixed_points():
    # with identity weights and zero biases the feed-forward block is gelu
    eye, zero = t(np.eye(3)), t(np.zeros(3))
    out = ad.ff(t(np.array([[0.0, 100.0, -100.0]])), eye, zero, eye, zero)
    np.testing.assert_allclose(out.data, [[0.0, 100.0, 0.0]], atol=1e-12)


def test_sigmoid_symmetry_and_range():
    # Strict bounds are representable up to |x| ~ 36; beyond that the
    # double rounds to exactly 0 or 1, which the saturation case covers.
    x = np.linspace(-30, 30, 101)
    out = sigmoid(t(x)).data
    assert ((out > 0) & (out < 1)).all()
    np.testing.assert_allclose(out + out[::-1], 1.0, atol=1e-12)
    saturated = sigmoid(t(np.array([-500.0, 500.0]))).data
    assert np.isfinite(saturated).all()
    assert saturated[0] < 1e-200 and saturated[1] == 1.0


def test_embedding_lookup_gathers_rows():
    table = t(np.arange(12.0).reshape(4, 3))
    out = ad.embedding_lookup(table, np.array([2, 0, 2]))
    np.testing.assert_array_equal(out.data, table.data[[2, 0, 2]])


def test_embedding_lookup_repeated_ids_accumulate_grad():
    table = t(np.zeros((4, 2)))
    out = ad.embedding_lookup(table, np.array([1, 1, 3]))
    ad.backward(tsum(out))
    np.testing.assert_array_equal(table.grad, [[0, 0], [2, 2], [0, 0], [1, 1]])


def test_concat_narrow_roundtrip():
    a, b = t(np.ones((2, 3))), t(np.full((4, 3), 2.0))
    cat = ad.concat([a, b], axis=0)
    back = ad.narrow(cat, 0, 2, 4)
    np.testing.assert_array_equal(back.data, b.data)


def test_backward_rejects_nonscalar_loss():
    with pytest.raises(ContractError):
        ad.backward(t(np.ones(3)))


def test_add_bias_broadcast_only():
    x = t(np.zeros((3, 4)))
    bias = t(np.arange(4.0))
    out = ad.add(x, bias)
    np.testing.assert_array_equal(out.data, np.tile(np.arange(4.0), (3, 1)))
    with pytest.raises(ShapeError):
        ad.add(x, t(np.zeros((3, 1))))
    with pytest.raises(ShapeError):
        mul(x, t(np.zeros(4)))


def test_no_grad_blocks_recording():
    x = t(np.ones(3))
    with ad.no_grad():
        y = ad.scale(x, 2.0)
    assert not y.requires_grad and y.node is None


def test_no_grad_is_per_thread():
    # overlapping no_grad blocks in worker threads must not turn
    # recording off for anyone else once they unwind
    import concurrent.futures

    def embed(_):
        with ad.no_grad():
            return ad.scale(t(np.ones(2)), 2.0).requires_grad

    with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
        flags = list(pool.map(embed, range(64)))
    assert not any(flags)
    y = ad.scale(t(np.ones(2)), 2.0)
    assert y.requires_grad and y.node is not None


def _retains(out):
    # a packed call that retained holds its Retained leaf as a fourth parent
    return len(out.node.parents) == 4


def test_retaining_is_per_thread():
    # blocks in worker threads collect their own calls alone, and leave
    # the main thread's block and the threads' later calls alone
    import concurrent.futures
    q = t(np.ones((3, 4)))

    def collect(_):
        with ad.retaining() as kept:
            ad.attention(q, q, q, 2, [3])
            ad.attention(q, q, q, 2, [1, 2])
        return [r.shapes for r in kept], _retains(ad.attention(q, q, q, 2, [3]))

    with ad.retaining() as mine:
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            runs = list(pool.map(collect, range(64)))
    assert all(run == ([[(3, 3)], [(1, 1), (2, 2)]], False) for run in runs)
    assert mine == [] and not _retains(ad.attention(q, q, q, 2, [3]))


def test_retaining_is_restored_after_an_exception():
    q = t(np.ones((3, 4)))
    with pytest.raises(KeyError):
        with ad.retaining() as kept:
            ad.attention(q, q, q, 2, [3])
            raise KeyError("boom")
    # the call after the block neither retains nor adds to the closed list
    assert not _retains(ad.attention(q, q, q, 2, [3])) and len(kept) == 1


def test_inner_retaining_block_collects_only_its_own_leaves():
    q = t(np.ones((3, 4)))
    with ad.retaining() as outer:
        ad.attention(q, q, q, 2, [3])
        with ad.retaining() as inner:
            ad.attention(q, q, q, 2, [1, 2])
        ad.attention(q, q, q, 2, [2, 1])
    assert [r.shapes for r in outer] == [[(3, 3)], [(2, 2), (1, 1)]]
    assert [r.shapes for r in inner] == [[(1, 1), (2, 2)]]


def test_batched_and_no_grad_attention_retain_nothing():
    b, q = t(np.ones((2, 3, 4))), t(np.ones((3, 4)))
    with ad.retaining() as kept:
        batched = ad.attention(b, b, b, 2)
        with ad.no_grad():
            free = ad.attention(q, q, q, 2, [3])
    assert kept == [] and len(batched.node.parents) == 3 and free.node is None


def test_retained_tensor_holds_its_map_and_no_grad():
    x = t(np.array([[0.5, -1.0], [2.0, 0.1]]))
    with ad.retaining() as kept:
        out = ad.attention(x, x, x, 2, [2])
    (kept,) = kept
    assert not kept.data.any()  # zero until a backward pass writes it
    loss = scalar_loss(out)
    ad.backward(loss)
    (block,) = kept.blocks()
    assert kept.grad is None and block.shape == (2, 2)
    assert np.isfinite(block).all() and (block >= 0.0).all() and block[0, 1] == 0.0
    assert block[1].any()


def test_gradient_accumulates_across_backward_calls():
    x = t(np.array([3.0]))
    ad.backward(tsum(ad.scale(x, 2.0)))
    ad.backward(tsum(ad.scale(x, 5.0)))
    np.testing.assert_array_equal(x.grad, [7.0])


def test_backward_frees_the_tape_while_the_loss_is_held():
    rng = np.random.default_rng(21)
    inputs = [t(rng.normal(size=s)) for s in [(3, 4), (4, 6), (6,), (6, 4), (4,)]]

    def build():
        # the ff output is kept alive only by the tape that consumes it
        h = ad.ff(*inputs)
        return scalar_loss(h), weakref.ref(h.data)
    loss, saved = build()
    assert saved() is not None
    ad.backward(loss)
    assert saved() is None
    assert loss.node.op is not None and loss.node.parents == () and loss.node.backward_fn is None
    assert all(x.grad is not None for x in inputs)


def test_backward_frees_each_node_as_the_sweep_passes():
    # the later node's closure saves an array nothing else holds; it must
    # be gone by the time the earlier node's backward runs
    x = t(np.ones(3))
    alive = []

    def earlier_back(g):
        alive.append(saved() is not None)
        return (g,)
    earlier = ad._record(x.data.copy(), "earlier", (x,), earlier_back)

    def later(a):
        kept = np.arange(3.0)

        def back(g):
            return (g * kept,)
        return ad._record(a.data * kept, "later", (a,), back), weakref.ref(kept)
    out, saved = later(earlier)
    assert saved() is not None
    ad.backward(tsum(out))
    assert alive == [False]
    np.testing.assert_array_equal(x.grad, [0.0, 1.0, 2.0])
    assert earlier.node.backward_fn is None and earlier.node.parents == ()


def test_forward_values_die_unless_a_backward_reads_them():
    # with the loss held and before backward: the linear output that only
    # an add reads, and that add's output, which only layer norm reads
    # (it keeps its own xhat), are gone once the caller drops them;
    # attention's q lives until the sweep passes the attention node
    rng = np.random.default_rng(24)
    x, w, b, gain, bias, wq, bq = (t(rng.normal(size=s)) for s in
                                   ((5, 4), (4, 4), (4,), (4,), (4,), (4, 4), (4,)))
    alive = []

    def probe_back(g):
        alive.append(q_alive() is not None)
        return (g,)

    def build():
        h = ad.linear(x, w, b)
        r = ad.add(h, x)
        normed = ad.layer_norm(r, gain, bias)
        proj = ad.linear(normed, wq, bq)
        q = ad._record(proj.data.copy(), "probe", (proj,), probe_back)
        out = ad.attention(q, normed, normed, 2, [2, 3])
        refs = [weakref.ref(a if a.base is None else a.base) for a in (h.data, r.data)]
        return scalar_loss(out), refs, weakref.ref(q.data)
    loss, dropped, q_alive = build()
    assert all(ref() is None for ref in dropped)
    assert q_alive() is not None
    ad.backward(loss)
    assert alive == [False]
    assert all(p.grad is not None for p in (x, w, b, gain, bias, wq, bq))


def test_packed_attention_forward_keeps_row_statistics_only():
    rng = np.random.default_rng(22)
    heads, d, lengths = 2, 8, [256, 256]
    q, k, v = (t(rng.normal(size=(sum(lengths), d))) for _ in range(3))
    prob_bytes = sum(heads * n * n for n in lengths) * 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = ad.attention(q, k, v, heads, lengths)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert out.requires_grad
    assert held < prob_bytes / 2, (held, prob_bytes)


def test_retaining_attention_forward_holds_no_probabilities():
    # the forward keeps the row statistics and a zeroed [queries, keys]
    # map per segment, a quarter of the probabilities with four heads
    rng = np.random.default_rng(31)
    heads, d, lengths = 4, 16, [256, 256]
    q, k, v = (t(rng.normal(size=(sum(lengths), d))) for _ in range(3))
    prob_bytes = sum(heads * n * n for n in lengths) * 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with ad.retaining() as kept:
            out = ad.attention(q, k, v, heads, lengths)
        held = tracemalloc.get_traced_memory()[0] - before
        (kept,) = kept
    finally:
        tracemalloc.stop()
    assert out.requires_grad and kept.data.nbytes == prob_bytes // heads
    assert held < prob_bytes / 2, (held, prob_bytes)


def test_second_backward_on_a_consumed_graph_raises():
    x = t(np.array([3.0]))
    y = ad.scale(x, 2.0)
    loss = tsum(y)
    ad.backward(loss)
    with pytest.raises(ContractError, match="consumed"):
        ad.backward(loss)
    # a new graph over a consumed node fails before touching any gradient
    with pytest.raises(ContractError, match="'scale'"):
        ad.backward(tsum(ad.scale(y, 5.0)))
    np.testing.assert_array_equal(x.grad, [2.0])


def test_backward_determinism_bitwise():
    def run():
        rng = np.random.default_rng(7)
        ts = [t(rng.normal(size=s)) for s in [(7, 4), (4, 8), (8,), (8, 4), (4,)]]
        h = ad.ff(*ts)
        out = ad.attention(h, h, h, 2, [3, 4])
        ad.backward(scalar_loss(out))
        return [x.grad.copy() for x in ts]
    g1, g2 = run(), run()
    assert all(np.array_equal(a, b) for a, b in zip(g1, g2))


# ---------------------------------------------------------------------------
# Finite-difference gradient checks, one per primitive


def _check(op_name, build, arrays, n_wrt=None):
    """FD-check d scalar_loss(op(*inputs)) / d input_k for every input."""
    tensors = [t(a.copy()) for a in arrays]
    out = build(tensors)
    ad.backward(scalar_loss(out))
    for k in range(n_wrt if n_wrt is not None else len(arrays)):
        def f(arrs, k=k):
            ts = [ad.Tensor(a) for a in arrs]
            return scalar_loss(build(ts)).item()
        numeric = central_diff(f, [a.copy() for a in arrays], k)
        assert_grad_close(tensors[k].grad, numeric, f"{op_name}[{k}]")


# grad-free ff inputs around the one that takes a gradient
FF_FIXED = [t(np.random.default_rng(29).normal(size=s), grad=False)
            for s in [(2, 3, 4), (4, 6), (6,), (6, 4), (4,)]]

CASES = {
    "add": (lambda ts: ad.add(ts[0], ts[1]), [(3, 4), (3, 4)]),
    "add_bias": (lambda ts: ad.add(ts[0], ts[1]), [(3, 4), (4,)]),
    "add_bias_matrix": (lambda ts: ad.add(ts[0], ts[1]), [(2, 3, 4), (3, 4)]),
    "mul": (lambda ts: mul(ts[0], ts[1]), [(2, 5), (2, 5)]),
    "smul": (lambda ts: smul(ts[0], ts[1]), [(), (3, 3)]),
    "scale": (lambda ts: ad.scale(ts[0], -1.7), [(4, 2)]),
    "divs": (lambda ts: ad.divs(ts[0], 3.0), [(5,)]),
    "addc": (lambda ts: addc(ts[0], 0.3), [(4,)]),
    "matmul": (lambda ts: ad.matmul(ts[0], ts[1]), [(3, 4), (4, 2)]),
    "matmul_batched": (lambda ts: ad.matmul(ts[0], ts[1]), [(2, 3, 4), (2, 4, 3)]),
    "linear": (lambda ts: ad.linear(*ts), [(3, 4), (4, 5), (5,)]),
    "transpose": (lambda ts: transpose(ts[0]), [(3, 5)]),
    "transpose_axes": (lambda ts: transpose(ts[0], (1, 0, 2)), [(2, 3, 4)]),
    "reshape": (lambda ts: ad.reshape(ts[0], (2, 6)), [(3, 4)]),
    "concat": (lambda ts: ad.concat(ts, axis=1), [(3, 2), (3, 3)]),
    "narrow": (lambda ts: ad.narrow(ts[0], 0, 1, 2), [(4, 3)]),
    "masked_softmax": (
        lambda ts: masked_softmax(ts[0], np.tril(np.ones((4, 4), bool))), [(4, 4)]),
    "layer_norm": (
        lambda ts: ad.layer_norm(ts[0], ad.Tensor(np.ones(6)), ad.Tensor(np.zeros(6))), [(3, 6)]),
    "layer_norm_affine": (
        lambda ts: ad.layer_norm(ts[0], ts[1], ts[2]), [(3, 6), (6,), (6,)]),
    "gelu": (lambda ts: gelu(ts[0]), [(3, 4)]),
    "sigmoid": (lambda ts: sigmoid(ts[0]), [(5,)]),
    "exp": (lambda ts: exp(ts[0]), [(3, 3)]),
    "log1p": (lambda ts: log1p(ts[0]), [(6,)]),
    "power": (lambda ts: power(ts[0], -0.5), [(5,)]),
    "sum_all": (lambda ts: tsum(ts[0]), [(3, 4)]),
    "sum_axis": (lambda ts: tsum(ts[0], axis=1), [(3, 4)]),
    "mean": (lambda ts: tmean(ts[0], axis=0), [(3, 4)]),
    "add_rows": (lambda ts: add_rows(ts[0], ts[1]), [(3, 4), (3,)]),
    "scale_rows": (lambda ts: scale_rows(ts[0], ts[1]), [(3, 4), (3,)]),
    "embedding_lookup": (
        lambda ts: ad.embedding_lookup(ts[0], np.array([0, 2, 2, 1])), [(4, 3)]),
    "attention_causal": (
        lambda ts: ad.attention(ts[0], ts[1], ts[2], 2, [3, 1, 2]), [(6, 4)] * 3),
    "attention_cross": (
        lambda ts: ad.attention(ts[0], ts[1], ts[2], 2), [(2, 2, 4), (2, 3, 4), (2, 3, 4)]),
    "ff": (lambda ts: ad.ff(*ts), [(2, 3, 4), (4, 6), (6,), (6, 4), (4,)]),
    # one input takes a gradient: ff keeps only the gelu derivative, or only gelu(h)
    "ff_x": (lambda ts: ad.ff(ts[0], *FF_FIXED[1:]), [(2, 3, 4)]),
    "ff_w2": (lambda ts: ad.ff(*FF_FIXED[:3], ts[0], FF_FIXED[4]), [(6, 4)]),
    "gate_fuse": (lambda ts: ad.gate_fuse(*ts), [(3, 4), (3, 4), (4, 8), (4,)]),
    # one v into two gates, as notellm2 wires its visual summary
    "gate_fuse_shared": (
        lambda ts: ad.add(ad.gate_fuse(*ts[:4]), ad.gate_fuse(ts[0], *ts[4:])),
        [(3, 4), (3, 4), (4, 8), (4,), (3, 4), (4, 8), (4,)]),
    "contrastive": (
        lambda ts: ad.contrastive(ts[0], ts[0], ts[1]), [(6, 3), ()]),
    "contrastive_cross": (
        lambda ts: ad.contrastive(*ts), [(4, 3), (4, 3), ()]),
}

POSITIVE_ONLY = {"log1p", "power"}


def draw_inputs(name, shapes, rng):
    arrays = []
    for shape in shapes:
        a = rng.normal(size=shape)
        if name in POSITIVE_ONLY:
            a = np.abs(a) + 0.5
        arrays.append(a)
    return arrays


@pytest.mark.parametrize("name", sorted(CASES))
def test_fd_gradients(name):
    build, shapes = CASES[name]
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for _ in range(5):
        _check(name, build, draw_inputs(name, shapes, rng))


def _query_rows(lengths, rng):
    """Random ascending query positions per segment, always holding
    position 0 and the segment's last position."""
    queries = []
    for n in lengths:
        keep = rng.random(n) < 0.5
        keep[[0, -1]] = True
        queries.append(np.flatnonzero(keep).tolist())
    return queries


def test_fd_attention_rows():
    # 100 cases: segments of unequal lengths, each queried at a subset of
    # its positions
    rng = np.random.default_rng(14)
    for _ in range(100):
        lengths = rng.permutation([1, int(rng.integers(2, 4)), int(rng.integers(4, 7))]).tolist()
        queries = _query_rows(lengths, rng)
        rows = sum(len(r) for r in queries)
        shapes = [(rows, 4), (sum(lengths), 4), (sum(lengths), 4)]
        _check("attention_rows",
               lambda ts: ad.attention(ts[0], ts[1], ts[2], 2, lengths, queries=queries),
               [rng.normal(size=shape) for shape in shapes])


def test_attention_rows_match_full_causal_attention():
    rng = np.random.default_rng(15)
    heads, d, lengths = 2, 6, [4, 1, 7, 3]
    queries = _query_rows(lengths, rng)
    starts = np.cumsum([0] + lengths[:-1])
    index = np.concatenate([start + np.asarray(r) for start, r in zip(starts, queries)])
    qkv = [rng.normal(size=(sum(lengths), d)) for _ in range(3)]
    w = rng.normal(size=(index.size, d))
    w_full = np.zeros((sum(lengths), d))
    w_full[index] = w  # the full op's other rows do not reach the loss
    full = [t(a) for a in qkv]
    with ad.retaining() as kept:
        out_full = ad.attention(*full, heads, lengths)
        ad.backward(tsum(mul(out_full, t(w_full, grad=False))))
        rows = [t(qkv[0][index]), t(qkv[1]), t(qkv[2])]
        out = ad.attention(*rows, heads, lengths, queries=queries)
    kept_full, kept = kept
    ad.backward(tsum(mul(out, t(w, grad=False))))
    close = dict(rtol=0, atol=1e-12)
    np.testing.assert_allclose(out.data, out_full.data[index], **close)
    np.testing.assert_allclose(rows[0].grad, full[0].grad[index], **close)
    for a, b in zip(rows[1:], full[1:]):
        np.testing.assert_allclose(a.grad, b.grad, **close)
    assert kept.shapes == [(len(r), n) for r, n in zip(queries, lengths)]
    for r, n, block, block_full in zip(queries, lengths, kept.blocks(), kept_full.blocks()):
        np.testing.assert_allclose(block, block_full[r], **close)
        # the full op's saliency is exactly zero at the rows no loss reads
        assert not block_full[np.setdiff1d(np.arange(n), r)].any()


def _capture(x):
    """Identity op whose backward stores the gradient flowing into it as
    the returned tensor's ``grad``."""
    def back(g):
        out.grad = g.copy()
        return (g,)
    out = ad._record(x.data, "capture", (x,), back)
    return out


def _unfused_attention(q, k, v, heads, mask):
    """The split/score/scale/masked_softmax/value/merge composition of one
    [B, T, d] batch; returns (output, probabilities with their gradient)."""
    def split(x):
        b, t, d = x.shape
        return transpose(ad.reshape(x, (b, t, heads, d // heads)), (0, 2, 1, 3))
    qh, kh, vh = split(q), split(k), split(v)
    scores = ad.scale(ad.matmul(qh, transpose(kh, (0, 1, 3, 2))),
                      1.0 / np.sqrt(q.shape[-1] // heads))
    probs = _capture(masked_softmax(scores, np.broadcast_to(mask, scores.shape)))
    out = ad.matmul(probs, vh)
    b, h, t, dh = out.shape
    return ad.reshape(transpose(out, (0, 2, 1, 3)), (b, t, h * dh)), probs


def test_attention_matches_unfused_composition_note_by_note():
    rng = np.random.default_rng(11)
    heads, d, lengths = 2, 6, [4, 1, 7, 3]
    qkv = [rng.normal(size=(sum(lengths), d)) for _ in range(3)]
    w = rng.normal(size=(sum(lengths), d))
    q, k, v = (t(a) for a in qkv)
    with ad.retaining() as kept:
        out = ad.attention(q, k, v, heads, lengths)
    (kept,) = kept
    ad.backward(tsum(mul(out, t(w, grad=False))))
    assert kept.shapes == [(n, n) for n in lengths]
    start = 0
    for i, n in enumerate(lengths):
        span = slice(start, start + n)
        start += n
        parts = [t(a[None, span]) for a in qkv]
        ref, probs = _unfused_attention(*parts, heads, np.tri(n, dtype=bool))
        ad.backward(tsum(mul(ref, t(w[None, span], grad=False))))
        close = dict(rtol=0, atol=1e-12)
        np.testing.assert_allclose(out.data[span], ref.data[0], **close)
        for fused, part in zip((q, k, v), parts):
            np.testing.assert_allclose(fused.grad[span], part.grad[0], **close)
        # the kept map is the head-sum of |A * dL/dA| of the explicit softmax
        np.testing.assert_allclose(kept.blocks()[i],
                                   np.abs(probs.data[0] * probs.grad[0]).sum(axis=0), **close)


def test_batched_attention_matches_unfused_composition():
    rng = np.random.default_rng(12)
    heads, shapes = 2, [(3, 4, 6), (3, 5, 6), (3, 5, 6)]
    arrays = [rng.normal(size=s) for s in shapes]
    w = t(rng.normal(size=shapes[0]), grad=False)
    fused_in, ref_in = [t(a) for a in arrays], [t(a) for a in arrays]
    out = ad.attention(*fused_in, heads)
    ref, _ = _unfused_attention(*ref_in, heads, np.ones((4, 5), bool))
    for o in (out, ref):
        ad.backward(tsum(mul(o, w)))
    close = dict(rtol=0, atol=1e-12)
    np.testing.assert_allclose(out.data, ref.data, **close)
    for a, b in zip(fused_in, ref_in):
        np.testing.assert_allclose(a.grad, b.grad, **close)


def test_ff_matches_unfused_composition():
    rng = np.random.default_rng(13)
    arrays = [rng.normal(size=s) for s in [(2, 5, 4), (4, 8), (8,), (8, 4), (4,)]]
    w = t(rng.normal(size=(2, 5, 4)), grad=False)
    fused_in, ref_in = [t(a) for a in arrays], [t(a) for a in arrays]
    x, w1, b1, w2, b2 = ref_in
    h = gelu(ad.add(ad.matmul(ad.reshape(x, (10, 4)), w1), b1))
    ref = ad.reshape(ad.add(ad.matmul(h, w2), b2), (2, 5, 4))
    out = ad.ff(*fused_in)
    for o in (out, ref):
        ad.backward(tsum(mul(o, w)))
    close = dict(rtol=0, atol=1e-12)
    np.testing.assert_allclose(out.data, ref.data, **close)
    for a, b in zip(fused_in, ref_in):
        np.testing.assert_allclose(a.grad, b.grad, **close)


def _attention_grads(arrays, retain=False, **kwargs):
    qkv = [t(a) for a in arrays]
    with ad.retaining() if retain else contextlib.nullcontext():
        out = ad.attention(*qkv, **kwargs)
    ad.backward(scalar_loss(out))
    return [out.data] + [x.grad for x in qkv]


@pytest.mark.parametrize("with_queries", [False, True])
def test_recomputed_attention_matches_retained_bitwise(with_queries):
    # both rebuild each block from the stored row max and sum; within
    # retaining() the op also writes the saliency maps, which leaves every other bit alone
    rng = np.random.default_rng(23)
    heads, lengths = 2, [5, 1, 9, 4]
    queries = _query_rows(lengths, rng) if with_queries else None
    rows = sum(len(r) for r in queries) if with_queries else sum(lengths)
    arrays = [rng.normal(size=(n, 6)) for n in (rows, sum(lengths), sum(lengths))]
    kwargs = dict(heads=heads, lengths=lengths, queries=queries)
    recomputed = _attention_grads(arrays, **kwargs)
    stored = _attention_grads(arrays, retain=True, **kwargs)
    for a, b in zip(recomputed, stored):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("layout", ["batched", "packed", "rows"])
def test_attention_matches_stored_probabilities_bitwise(layout):
    # the fused op recomputes its probabilities and never takes exp of
    # the masked entries; the reference keeps them and masks with -inf
    rng = np.random.default_rng(24)
    lengths = None if layout == "batched" else [5, 1, 9, 4]
    queries = _query_rows(lengths, rng) if layout == "rows" else None
    shapes = [(3, 4, 8), (3, 7, 8), (3, 7, 8)] if lengths is None else [(sum(lengths), 8)] * 3
    if queries is not None:
        shapes[0] = (sum(len(r) for r in queries), 8)
    arrays = [rng.normal(size=s) * 3 for s in shapes]
    fused = _attention_grads(arrays, heads=2, lengths=lengths, queries=queries)
    ref_in = [t(a) for a in arrays]
    ref, _ = stored_attention(*ref_in, 2, lengths, queries)
    ad.backward(scalar_loss(ref))
    for a, b in zip(fused, [ref.data] + [x.grad for x in ref_in]):
        assert np.array_equal(a, b)


# one row, a block and either side of it, a one-row tail that joins the
# block before it, and a tail of five rows
FF_ROWS = [1, 2, 10, 64, 150, ad._FF_BLOCK - 1, ad._FF_BLOCK, ad._FF_BLOCK + 1,
           2 * ad._FF_BLOCK + 1, 2 * ad._FF_BLOCK + 5]


@pytest.mark.parametrize("rows", FF_ROWS)
@pytest.mark.parametrize("grads", ["all", "x", "w2", "weights"])
def test_ff_matches_whole_array_backward_bitwise(rows, grads):
    # the row-blocked forward, gelu(h) and gelu derivative give the
    # whole-array expressions' bits, whichever of them the call keeps
    rng = np.random.default_rng(25)
    arrays = [rng.normal(size=s) for s in [(rows, 4), (4, 16), (16,), (16, 4), (4,)]]
    flags = {"all": [True] * 5, "x": [True] + [False] * 4,
             "w2": [False, False, False, True, False], "weights": [False] + [True] * 4}[grads]
    results = []
    for op in (ad.ff, stored_ff):
        ins = [t(a, grad=f) for a, f in zip(arrays, flags)]
        out = op(*ins)
        ad.backward(scalar_loss(out))
        results.append([out.data] + [x.grad for x in ins])
    for a, b in zip(*results):
        assert (a is None and b is None) or np.array_equal(a, b)


@pytest.mark.parametrize("rows", FF_ROWS)
def test_ff_without_a_node_matches_recording_bitwise(rows):
    # under no_grad, or with no input that requires grad, the forward
    # reuses one block-sized buffer pair: the same bits as the recording call
    rng = np.random.default_rng(27)
    arrays = [rng.normal(size=s) for s in [(rows, 4), (4, 16), (16,), (16, 4), (4,)]]
    recorded = ad.ff(*[t(a) for a in arrays])
    assert recorded.requires_grad
    with ad.no_grad():
        quiet = ad.ff(*[t(a) for a in arrays])
    frozen = ad.ff(*[t(a, grad=False) for a in arrays])
    for out in (quiet, frozen):
        assert not out.requires_grad
        assert np.array_equal(out.data, recorded.data)


def test_ff_without_a_node_holds_one_block_of_the_wide_layer():
    rng = np.random.default_rng(28)
    rows, d, d_ff = 4096, 64, 256
    ins = [t(rng.normal(size=s), grad=False) for s in [(rows, d), (d, d_ff), (d_ff,),
                                                       (d_ff, d), (d,)]]
    wide_bytes = rows * d_ff * 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = ad.ff(*ins)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert out.shape == (rows, d) and not out.requires_grad
    assert peak < wide_bytes, (peak, wide_bytes)


@pytest.mark.parametrize("weights_grad", [False, True])
def test_recording_ff_holds_what_its_backward_reads(weights_grad):
    # the gelu derivative for x, plus gelu(h) when w2 takes a gradient;
    # the input rows only when w1 takes a gradient, as linear keeps them
    # only for its w
    rng = np.random.default_rng(30)
    rows, d, d_ff = 4096, 64, 256
    arrays = [rng.normal(size=s) for s in [(rows, d), (d, d_ff), (d_ff,), (d_ff, d), (d,)]]
    weights = [t(a, grad=weights_grad) for a in arrays[1:]]
    wide_bytes = rows * d_ff * 8
    # ff: the [rows, d] output and the closure are well under one wide
    # array; linear [d, d_ff]: its wide output and nothing else
    for op, args, wide in ((ad.ff, weights, 2 if weights_grad else 1),
                           (ad.linear, weights[:2], 1)):
        x = ad.scale(t(arrays[0]), 1.0)  # an input no other backward reads
        rows_alive = weakref.ref(x.data)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = op(x, *args)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        del x
        assert out.requires_grad
        assert held // wide_bytes == wide, (op.__name__, held, wide_bytes)
        assert (rows_alive() is not None) == weights_grad, op.__name__


@pytest.mark.parametrize("shape", [(1, 4), (10, 8), (3, 7, 16), (150, 48)])
@pytest.mark.parametrize("grads", ["all", "x", "affine"])
def test_layer_norm_matches_one_expression_backward_bitwise(shape, grads):
    # the in-place backward repeats the one-expression backward's steps
    rng = np.random.default_rng(26)
    d = shape[-1]
    arrays = [rng.normal(size=shape), rng.normal(size=d), rng.normal(size=d)]
    flags = {"all": [True] * 3, "x": [True, False, False], "affine": [False, True, True]}[grads]
    results = []
    for op in (ad.layer_norm, stored_layer_norm):
        ins = [t(a, grad=f) for a, f in zip(arrays, flags)]
        out = op(*ins)
        ad.backward(scalar_loss(out))
        results.append([out.data] + [x.grad for x in ins])
    for a, b in zip(*results):
        assert (a is None and b is None) or np.array_equal(a, b)


def test_linear_matches_composition_bitwise():
    # the fused projection repeats matmul's and add's arithmetic, so the
    # output and every gradient agree to the last bit, whichever inputs
    # take a gradient
    rng = np.random.default_rng(20)
    for (n, d_in, d_out), grads in itertools.product(
            ((1, 3, 2), (7, 5, 4), (33, 16, 48)), itertools.product((True, False), repeat=3)):
        arrays = [rng.normal(size=s) for s in ((n, d_in), (d_in, d_out), (d_out,))]
        w = t(rng.normal(size=(n, d_out)), grad=False)
        runs = []
        for op in (ad.linear, linear_composition):
            ts = [t(a, grad=g) for a, g in zip(arrays, grads)]
            out = op(*ts)
            ad.backward(tsum(mul(out, w)))
            runs.append([out.data] + [x.grad for x in ts])
        for got, want in zip(*runs):
            assert (got is want is None) or got.tobytes() == want.tobytes()
    x = t(np.ones((2, 3)))
    for w, b in ((t(np.ones((2, 4))), t(np.ones(4))), (t(np.ones((3, 4))), t(np.ones(3))),
                 (t(np.ones((3, 4))), t(np.ones((1, 4))))):
        with pytest.raises(ShapeError):
            ad.linear(x, w, b)
    # a [B, L, d_in] input projects its [B * L, d_in] view: the same bits as
    # reshape -> composition -> reshape, and no reshape node of its own
    arrays = [rng.normal(size=s) for s in ((2, 5, 3), (3, 4), (4,))]
    w = t(rng.normal(size=(2, 5, 4)), grad=False)
    runs = []
    for fused in (True, False):
        ts = [t(a, grad=True) for a in arrays]
        if fused:
            out = ad.linear(*ts)
            assert out.shape == (2, 5, 4) and out.node.parents[0] is ts[0]
        else:
            out = ad.reshape(linear_composition(ad.reshape(ts[0], (10, 3)), *ts[1:]), (2, 5, 4))
        ad.backward(tsum(mul(out, w)))
        runs.append([out.data] + [x.grad for x in ts])
    for got, want in zip(*runs):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("tables", [1, 2])
def test_contrastive_matches_composition_bitwise(tables):
    # the fused loss repeats the composition's arithmetic step for step,
    # so the loss and every gradient agree to the last bit
    rng = np.random.default_rng(18)
    for n, d in ((2, 5), (8, 3), (32, 16)):
        arrays = [rng.normal(size=(n, d)) for _ in range(tables)] + [rng.normal(size=())]
        runs = []
        for loss_fn in (ad.contrastive,
                        lambda q, c, tau: contrastive_composition(q, c, np.arange(n) ^ 1, tau)):
            ts = [t(a) for a in arrays]
            loss = loss_fn(ts[0], ts[tables - 1], ts[-1])
            # an upstream gradient other than 1, as the blended losses send
            ad.backward(ad.scale(loss, 0.9))
            runs.append([loss.data] + [x.grad for x in ts])
        for got, want in zip(*runs):
            assert got.tobytes() == want.tobytes()
    with pytest.raises(ShapeError):
        ad.contrastive(t(np.ones((4, 3))), t(np.ones((4, 2))), t(0.0))
    with pytest.raises(ShapeError):
        ad.contrastive(t(np.ones((5, 3))), t(np.ones((5, 3))), t(0.0))


@pytest.mark.parametrize("v_grad", [True, False])
def test_gate_fuse_matches_composition_bitwise(v_grad):
    # one v feeds two gates, as in notellm2; the fused op repeats the
    # composition's arithmetic and its grouping of v's four gradient
    # terms, so the outputs and every gradient agree to the last bit
    rng = np.random.default_rng(19)
    for rows, h in ((1, 3), (4, 8), (32, 16)):
        shapes = [(rows, h)] * 3 + [(h, 2 * h), (h,)] * 2
        arrays = [rng.normal(size=shape) for shape in shapes]
        weights = [t(rng.normal(size=(rows, h)), grad=False) for _ in range(2)]
        runs = []
        for gate in (ad.gate_fuse, gate_fuse_composition):
            ts = [t(a, grad=v_grad or i > 0) for i, a in enumerate(arrays)]
            v, n1, n2, w1, b1, w2, b2 = ts
            outs = [gate(v, n1, w1, b1), gate(v, n2, w2, b2)]
            ad.backward(ad.add(*(tsum(mul(o, w)) for o, w in zip(outs, weights))))
            runs.append([o.data for o in outs] + [x.grad for x in ts])
        assert (runs[0][2] is None) == (not v_grad)
        for got, want in zip(*runs):
            assert (got is want is None) or got.tobytes() == want.tobytes()
    x = t(np.ones((2, 3)))
    for v, n, w, b in ((x, t(np.ones((2, 4))), t(np.ones((3, 6))), t(np.ones(3))),
                       (x, x, t(np.ones((3, 3))), t(np.ones(3))),
                       (x, x, t(np.ones((3, 6))), t(np.ones(2)))):
        with pytest.raises(ShapeError):
            ad.gate_fuse(v, n, w, b)


def test_retained_attention_holds_unpadded_blocks():
    rng = np.random.default_rng(16)
    heads, lengths = 2, [4, 1, 7, 3]
    queries = _query_rows(lengths, rng)
    rows = sum(len(r) for r in queries)
    arrays = [rng.normal(size=(n, 6)) for n in (rows, sum(lengths), sum(lengths))]
    w = t(rng.normal(size=(rows, 6)), grad=False)
    runs = []
    for grad in (True, False):
        qkv = [t(a, grad=grad) for a in arrays]
        with ad.retaining() as kept:
            out = ad.attention(*qkv, heads, lengths, queries=queries)
        ad.backward(tsum(mul(out, w)))
        runs.append((qkv, *kept))
    (qkv, kept), (qkv_free, kept_free) = runs
    assert isinstance(kept, ad.Retained) and kept.node is None and kept.requires_grad
    size = sum(len(r) * n for r, n in zip(queries, lengths))
    assert kept.data.shape == (size,) and kept.grad is None
    for block, r, n in zip(kept.blocks(), queries, lengths):
        assert block.shape == (len(r), n) and np.shares_memory(block, kept.data)
    # with grad-free q, k and v the tape starts at the retained leaf, and
    # the backward pass writes the same maps and nothing else
    assert all(x.grad is None for x in qkv_free) and all(x.grad is not None for x in qkv)
    assert np.array_equal(kept_free.data, kept.data)
    # the maps are the head-sums of |A * dL/dA| of the stored reference's
    # explicit probabilities, to the bit
    ref, probs = stored_attention(*(t(a, grad=False) for a in arrays), heads, lengths,
                                  queries, retain=True)
    ad.backward(tsum(mul(ref, w)))
    for block, p in zip(kept.blocks(), probs):
        assert np.array_equal(block, np.abs(p.data * p.grad).sum(axis=0))


SKIP_CASES = {
    "add_bias": (lambda ts: ad.add(*ts), [(2, 3, 4), (3, 4)]),
    "mul": (lambda ts: mul(*ts), [(2, 5), (2, 5)]),
    "matmul": (lambda ts: ad.matmul(*ts), [(2, 3, 4), (2, 4, 3)]),
    "linear": (lambda ts: ad.linear(*ts), [(3, 4), (4, 5), (5,)]),
    "embedding_lookup": (lambda ts: ad.embedding_lookup(ts[0], [0, 2, 2, 1]), [(4, 3)]),
    "layer_norm": (lambda ts: ad.layer_norm(*ts), [(3, 6), (6,), (6,)]),
    "ff": (lambda ts: ad.ff(*ts), [(2, 3, 4), (4, 6), (6,), (6, 4), (4,)]),
    "attention_rows": (
        lambda ts: ad.attention(*ts, 2, [3, 1, 2], queries=[[0, 2], [0], [1]]),
        [(4, 4), (6, 4), (6, 4)]),
    "attention_cross": (
        lambda ts: ad.attention(*ts, 2), [(2, 2, 4), (2, 3, 4), (2, 3, 4)]),
    "contrastive": (
        lambda ts: ad.contrastive(*ts), [(4, 3), (4, 3), ()]),
    "gate_fuse": (lambda ts: ad.gate_fuse(*ts), [(3, 4), (3, 4), (4, 8), (4,)]),
}


@pytest.mark.parametrize("name", sorted(SKIP_CASES))
def test_backward_skips_parents_without_grad(name):
    build, shapes = SKIP_CASES[name]
    rng = np.random.default_rng(17)
    arrays = [rng.normal(size=shape) for shape in shapes]
    out = build([t(a) for a in arrays])
    g = rng.normal(size=out.shape)
    want = out.node.backward_fn(g)
    masks = [[j != k for j in range(len(arrays))] for k in range(len(arrays))]
    masks += [[j == k for j in range(len(arrays))] for k in range(len(arrays))]
    for mask in masks:
        out = build([t(a, grad=m) for a, m in zip(arrays, mask)])
        if not any(mask):  # a single-parent op records nothing without grad
            assert out.node is None and not out.requires_grad
            continue
        # one slot per parent; gate_fuse lists v twice; a slot holds the
        # leaf only when it takes a gradient
        for p, got, ref in zip(out.node.parents, out.node.backward_fn(g), want):
            assert (got is None) if p is None else np.array_equal(got, ref), (name, mask)


def test_attention_and_ff_shape_errors():
    x = t(np.zeros((5, 4)))
    with pytest.raises(ShapeError):
        ad.attention(x, x, x, 2, [2, 2])  # lengths do not cover the rows
    with pytest.raises(ShapeError):
        ad.attention(x, x, x, 2, [5, 0])  # empty segment
    with pytest.raises(ShapeError):
        ad.attention(x, x, x, 3, [5])  # width not divisible by heads
    with pytest.raises(ShapeError):
        ad.attention(t(np.zeros((2, 3, 4))), t(np.zeros((3, 3, 4))), t(np.zeros((3, 3, 4))), 2)
    batched = t(np.zeros((2, 3, 4)))
    ad.attention(batched, batched, batched, 2)
    q = t(np.zeros((3, 4)))
    ad.attention(q, x, x, 2, [2, 3], queries=[[0, 1], [1]])
    # unordered, repeated, out of range, empty, too few rows, too many segments
    for queries in ([[1, 0], [2]], [[0], [1, 1]], [[0, 2], [0]], [[0], [0, 3]],
                    [[], [0, 1, 2]], [[0], [1]], [[0], [0], [1]]):
        with pytest.raises(ShapeError):
            ad.attention(q, x, x, 2, [2, 3], queries=queries)
    with pytest.raises(ShapeError):
        ad.ff(x, t(np.zeros((4, 6))), t(np.zeros(6)), t(np.zeros((6, 5))), t(np.zeros(4)))


# ---------------------------------------------------------------------------
# Properties


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=1, max_size=3), st.integers(0, 2**31 - 1))
def test_masked_softmax_rows_property(lengths, seed):
    rng = np.random.default_rng(seed)
    q, k = (rng.normal(size=(sum(lengths), 12)) * 10 for _ in range(2))
    assert_causal_rows(lengths, causal_probs(q, k, lengths, heads=2))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**31 - 1))
def test_matmul_matches_numpy(n, m, seed):
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=(n, m)), rng.normal(size=(m, n))
    np.testing.assert_array_equal(ad.matmul(t(a), t(b)).data, a @ b)


def test_first_nonfinite_replays_without_recording():
    x = t(np.array([1.0, -1.0]))
    made = []

    def build(p):
        made.append(ad.scale(x, 2.0))
        made.append(power(x, p))  # p = 0.5 makes a nan, and the replay stops here
        made.append(ad.scale(made[-1], 2.0))
        return made[-1]
    with np.errstate(invalid="ignore"):
        assert ad.first_nonfinite(lambda: build(0.5)) == ("power", (2,))
    assert len(made) == 1
    assert ad.first_nonfinite(lambda: build(2.0)) is None
    assert len(made) == 4 and all(m.node is None for m in made)

    def boom():
        raise KeyError("boom")
    with pytest.raises(KeyError):
        ad.first_nonfinite(boom)
    # the switch and no_grad are off again: a recording forward over a
    # nan records its node and does not raise
    with np.errstate(invalid="ignore"):
        y = power(x, 0.5)
    assert ad.grad_enabled() and y.node is not None and y.node.op == "power"


def test_leaf_gradients_sum_in_sweep_order_per_graph():
    # w is read by three ops of one graph and by a second graph built
    # before either backward: each backward adds its own graph's sum
    a, big = 1e16, np.full(3, -1e16)
    w, u, v = t(np.ones(3)), t(big, grad=False), t(np.ones(3), grad=False)
    u2 = t(np.arange(1.0, 4.0), grad=False)
    first = tsum(mul(ad.add(ad.add(ad.scale(w, a), mul(w, u)), w), v))
    second = tsum(mul(w, u2))
    # each op's gradient into w, summed in the order the sweep visits them
    into_w = {"scale": a * v.data, "mul": u.data * v.data, "add": v.data}
    sweep = [into_w[n.op] for n in reversed(ad._topo_order(first))
             if any(p is w for p in n.parents)]
    assert len(sweep) == 3
    want = sweep[0] + sweep[1] + sweep[2]
    assert want.tobytes() != (sweep[0] + (sweep[1] + sweep[2])).tobytes()  # the order shows
    ad.backward(first)
    assert w.grad.tobytes() == want.tobytes()
    ad.backward(second)
    assert w.grad.tobytes() == (want + u2.data).tobytes()
    # a retained attention leaf takes no gradient
    q = t(np.ones((3, 4)))
    with ad.retaining() as kept:
        out = ad.attention(q, q, q, 2, [3])
    (kept,) = kept
    ad.backward(tsum(out))
    assert kept.grad is None and q.grad is not None
    # a loss that is itself a leaf gets ones only when it requires grad
    for grad in (True, False):
        loss = t(np.asarray(2.0), grad=grad)
        ad.backward(loss)
        assert (loss.grad == 1.0) if grad else (loss.grad is None)
