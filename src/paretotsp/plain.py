"""Forward kernels of the autodiff ops, on bare ndarrays.

Each function has the name, arguments and result of the tape op in
`autodiff` that it serves, with ndarrays in place of Arrays, and each tape op
computes its forward by calling it. So a forward pass that takes its ops
from this module instead of `autodiff` makes the same numpy calls in the
same order and gives the same bits, but builds no Array and records no tape.

Nothing here checks shapes. Both paths follow one NaN/Inf policy, and no op
result is checked. What is checked, and where:
- leaves, when `autodiff` builds them (a loaded model's arrays are leaves);
- the inputs of the ops that can map a non-finite input to a finite output:
  `relu` (max(-inf, 0) = 0), `tanh` (tanh(±inf) = ±1) and the softmaxes;
- an encoding, once, in `model._decode`, for the sampling loop and the solve;
- every array that `decomposition.read_checkpoint` reads;
- the gradient norm, in `trainer.clip_gradients`.
Every other op carries a NaN or Inf into its output or leaves the entry out
(`gather_rows`), so every value that is used meets one of these checks.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import ContractError, NonFiniteError

BN_EPS = 1e-5           # added to the variance before the square root


def finite(x: np.ndarray, op: str) -> np.ndarray:
    """x, after checking that it holds no NaN or Inf."""
    if not np.isfinite(x).all():
        raise NonFiniteError(f"non-finite values entering op '{op}'")
    return x


def constant(data, dtype=None) -> np.ndarray:
    arr = np.asarray(data)
    return arr.astype(dtype) if dtype is not None else arr


matmul = bmm = operator.matmul
add = add_bias = operator.add
mul = operator.mul


def scale(x, c: float):
    return x * float(c)


def relu(x):
    # maximum may return either zero on a ±0 tie; `+ 0` makes every zero +0.0.
    return np.maximum(finite(x, "relu"), 0) + 0


def tanh(x):
    return np.tanh(finite(x, "tanh"))


def log(x):
    """A non-positive input is a caller's error (ContractError): the model logs
    chosen nodes' probabilities, zero only for a replayed tour it cannot make."""
    if np.any(x <= 0):
        raise ContractError("log requires strictly positive inputs")
    return np.log(x)


def concat(parts, axis: int = -1):
    return np.concatenate(parts, axis=axis)


def mean_over_axis(x, axis: int):
    return x.mean(axis=axis)


def reshape(x, shape):
    return x.reshape(shape)


def transpose_last2(x):
    return np.swapaxes(x, -1, -2)


def permute(x, axes):
    return np.transpose(x, axes)


def gather_rows(x, idx):
    return x[idx]


def masked_softmax(logits, mask):
    """Softmax over the last axis; entries where mask is True get probability
    exactly 0. Stable via max-subtraction over the unmasked entries."""
    finite(logits, "masked_softmax")
    if mask.all(axis=-1).any():
        raise ContractError("masked_softmax: a row has every entry masked")
    shifted = np.where(mask, -np.inf, logits)
    # Every row has a finite maximum, and exp(-inf) is exactly 0.
    ex = np.exp(shifted - shifted.max(axis=-1, keepdims=True))
    return ex / ex.sum(axis=-1, keepdims=True)


def softmax(logits):
    """Softmax over the last axis; equals `masked_softmax` with nothing masked."""
    ex = np.exp(finite(logits, "softmax") - logits.max(axis=-1, keepdims=True))
    return ex / ex.sum(axis=-1, keepdims=True)


def normalize(x, mean, var, gamma, beta):
    """Per-column (x - mean) / sqrt(var + eps) * gamma + beta; returns the
    normalized x, 1 / sqrt(var + eps) and the result."""
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat = (x - mean) * inv_std
    return xhat, inv_std, xhat * gamma + beta


def batch_norm(x, scale, shift, mean, var, mode: str):
    """Infer-mode batch norm of an (r, d) array: normalize by the running
    statistics `mean` and `var`. Train mode updates those statistics for a
    backward pass to follow, so it exists only on the tape."""
    if mode != "infer":
        raise ContractError(f"a tape-free batch_norm runs in infer mode only, got {mode!r}")
    return normalize(x, mean, var, scale, shift)[2]
