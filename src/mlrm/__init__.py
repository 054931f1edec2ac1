"""Desk-scale multimodal note representation pipeline."""

import os

# One BLAS thread unless the caller chose otherwise: a multi-threaded
# BLAS splits reductions by thread count, so training bytes would depend
# on the core count. Only takes effect if numpy is not loaded yet.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"
