"""
A tour of the reverse-mode engine
=================================

Build a small computation out of the ops the model runs (the fused
feed-forward block, layer norm, the contrastive loss and packed causal
attention), pull gradients back through it, and cross-check one of them
against a central difference.
"""

import numpy as np

import mlrm.autodiff as ad
from mlrm.autodiff import Tensor, backward, no_grad

rng = np.random.default_rng(0)

# Leaf tensors opt in to gradient tracking; everything derived from them
# records its parents on a tape.
x = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
w1 = Tensor(rng.standard_normal((6, 8)), requires_grad=True)
b1 = Tensor(np.zeros(8), requires_grad=True)
w2 = Tensor(rng.standard_normal((8, 6)), requires_grad=True)
b2 = Tensor(np.zeros(6), requires_grad=True)
gain, bias = Tensor(np.ones(6)), Tensor(np.zeros(6))
tau = Tensor(np.asarray(1.0), requires_grad=True)


def forward():
    # gelu(x @ w1 + b1) @ w2 + b2, then layer norm; rows come in related
    # pairs (0 with 1, 2 with 3), and the loss pulls each row toward its
    # partner's and away from the other rows, on cosine similarities
    # scaled by exp(tau)
    h = ad.layer_norm(ad.ff(x, w1, b1, w2, b2), gain, bias)
    return ad.contrastive(h, h, tau)


loss = forward()
print("loss =", loss.item())
print("tape:", [node.op for node in ad._topo_order(loss) if node.op])

backward(loss)
print("dloss/dw1[0,0] =", w1.grad[0, 0], " dloss/dtau =", tau.grad)

# The same quantity by central differences, no tape involved.
eps = 1e-6
keep = w1.data[0, 0]
w1.data[0, 0] = keep + eps
up = forward().item()
w1.data[0, 0] = keep - eps
down = forward().item()
w1.data[0, 0] = keep
print("finite difference =", (up - down) / (2 * eps))

# Causal attention over two notes packed row after row, of 3 and 2 rows,
# with 2 heads of width 4. Value row j is one-hot at column j of each
# head, so each head's output rows are exactly its softmax probabilities:
# a query never sees a later position, so every entry above the diagonal
# is exactly zero.
lengths = [3, 2]
q, k = (Tensor(rng.standard_normal((5, 8)), requires_grad=True) for _ in range(2))
positions = np.concatenate([np.arange(n) for n in lengths])
onehot = np.zeros((5, 2, 4))
onehot[np.arange(5), :, positions] = 1.0
v = Tensor(onehot.reshape(5, 8), requires_grad=True)
out = ad.attention(q, k, v, 2, lengths)
for n, end in zip(lengths, np.cumsum(lengths)):
    print(f"\nhead 0 probabilities of the {n}-row note:\n", out.data[end - n:end, :n].round(4))

# Hence the first row's output gets exactly zero gradient from every
# later value row. Its entries summed (a [1, 8] @ [8, 1] product) make a
# one-element loss.
backward(ad.matmul(ad.narrow(out, 0, 0, 1), Tensor(np.ones((8, 1)))))
print("\nlargest |gradient| at value rows 1-4:", np.abs(v.grad[1:]).max())

# Inside no_grad() nothing is recorded; useful for evaluation loops.
with no_grad():
    silent = ad.matmul(x, w1)
print("\nrecorded under no_grad?", silent.requires_grad)
