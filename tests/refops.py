"""Reference ops that the model does not run, built on the engine's tape.

The model runs the fused ``autodiff.attention`` and ``autodiff.ff``. An
explicit masked softmax and gelu are their independent references: the
fused ops must match compositions of these, and each keeps its own
finite-difference cases.
"""

import numpy as np
from scipy.special import erf

from mlrm import autodiff as ad
from mlrm.errors import ShapeError

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
