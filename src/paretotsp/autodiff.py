"""Minimal reverse-mode differentiation over dense numpy arrays.

Op results are never written once created. Only leaves are rebound: by
Adam, and by batch norm's train mode, which moves its running statistics.
Each op result that needs a gradient gets a node on
the implicit tape (the creation-ordered graph of nodes), so `backward` on a
scalar loss fills `.grad` on every reachable parameter in one heap-ordered
pass, newest node first; a training iteration sums its actor and critic
losses and calls it once. A node holds its parents' nodes, its backward
closure and its creation id, but no data; a trainable leaf is its own node.
A closure keeps only the ndarrays it reads (the inputs of `matmul`, `bmm`,
`mul` and `log`, the outputs of `relu`, `tanh` and the softmaxes,
`batch_norm`'s normalized input), so the tape frees an intermediate's data
with its Array unless a closure reads it. There is no
implicit broadcasting: each op states the exact shapes it accepts and raises
DimensionError otherwise. Each op computes its forward with the kernel of
the same name in `plain`, `transpose_last2` with `permute`'s; a forward
pass that nothing differentiates runs on those kernels directly and builds
no Array. NaN and Inf follow the one policy that `plain`'s docstring lists:
here, leaves are checked when built and op results never.
"""

from __future__ import annotations

import heapq
import itertools
import math

import numpy as np

from . import plain
from .errors import ContractError, DimensionError
from .plain import BN_EPS  # re-exported: batch_norm's epsilon

_ids = itertools.count()


class _Node:
    """An op result's place on the tape: its parents' nodes (None for a parent
    that needs no gradient), its backward closure and its creation id."""

    __slots__ = ("_parents", "_backward", "_id")

    def __init__(self, parents, backward, node_id):
        self._parents, self._backward, self._id = parents, backward, node_id


def _link(a: Array):
    """The node that stands for `a` on the tape, or None if it needs no gradient."""
    return a._node if a._node is not None else (a if a.requires_grad else None)


class Array:
    """A dense real array plus, if it needs a gradient, its place on the tape.

    An op result's `data` is never written; a leaf's `data` may be rebound to
    a new array. `grad` accumulates across backward calls until `zero_grad`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_node", "_id")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward=None):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr if _parents else plain.finite(arr, "leaf")
        self.grad = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in _parents)
        self._id = next(_ids)
        self._node = (_Node(tuple(map(_link, _parents)), _backward, self._id)
                      if self.requires_grad and _backward is not None else None)

    # Its node's backward closure, or None; settable, so a tracer can wrap it.
    _backward = property(lambda self: self._node and self._node._backward,
                         lambda self, back: setattr(self._node, "_backward", back))

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Array(shape={self.data.shape}, dtype={self.data.dtype})"

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def zero_grad(self) -> None:
        self.grad = None


def param(data, dtype=np.float64) -> Array:
    """Leaf array marked as trainable."""
    return Array(np.asarray(data, dtype=dtype), requires_grad=True)


def constant(data, dtype=None) -> Array:
    """Leaf array outside the gradient path."""
    return Array(plain.constant(data, dtype))


def _spent(g):
    raise ContractError("backward through a graph that an earlier backward already consumed")


def backward(loss: Array) -> None:
    """Accumulate dLoss/dX into .grad for every requires_grad Array reachable
    from `loss`. Repeated calls on fresh graphs accumulate; callers reset with
    zero_grad.

    One pass over a max-heap of the nodes that hold a staged gradient, keyed
    by creation id. Nodes are created in topological order, so a node is
    popped only after every node that passes it a gradient, and each node's
    contributions are summed newest first. The sweep frees the graph as it
    goes: once a node's closure has run, the node drops the closure and its
    parents, so the arrays they hold can be released before the sweep ends.
    A second backward through a spent node raises ContractError.
    """
    if loss.shape != ():
        raise ContractError(f"backward expects a scalar loss, got shape {loss.shape}")
    root = _link(loss)
    if root is None:
        return
    staged = {root._id: np.ones((), dtype=loss.dtype)}
    heap = [(-root._id, root)]
    while heap:
        node_id, node = heapq.heappop(heap)
        g = staged.pop(-node_id)
        if type(node) is Array:
            node.accumulate_grad(g)
            continue
        parent_grads = node._backward(g)
        parents = node._parents
        node._backward, node._parents = _spent, ()
        for parent, pg in zip(parents, parent_grads):
            if pg is None or parent is None:
                continue
            key = parent._id
            if key in staged:
                staged[key] = staged[key] + pg
            else:
                staged[key] = pg
                heapq.heappush(heap, (-key, parent))


def _require_2d(x: Array, op: str) -> None:
    if x.data.ndim != 2:
        raise DimensionError(f"{op} expects a 2-D array, got shape {x.shape}")


# ---------------------------------------------------------------------------
# core ops


def _product(a: Array, b: Array, ndim: int, op: str, kernel) -> Array:
    """Matrix product of two ndim-D arrays over equal leading dims;
    dL/da = g @ b^T, dL/db = a^T @ g, transposing the last two axes."""
    if a.data.ndim != ndim or b.data.ndim != ndim:
        raise DimensionError(f"{op} expects {ndim}-D arrays, got {a.shape} and {b.shape}")
    if a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"{op} shapes disagree: {a.shape} vs {b.shape}")
    x, y = a.data, b.data

    def back(g):
        return g @ np.swapaxes(y, -1, -2), np.swapaxes(x, -1, -2) @ g

    return Array(kernel(x, y), _parents=(a, b), _backward=back)


def matmul(a: Array, b: Array) -> Array:
    """2-D matrix product: (p,q)@(q,r)."""
    return _product(a, b, 2, "matmul", plain.matmul)


def bmm(a: Array, b: Array) -> Array:
    """Batched matrix product over matching leading batch dims: (B,p,q)@(B,q,r)."""
    return _product(a, b, 3, "bmm", plain.bmm)


def add(a: Array, b: Array) -> Array:
    if a.shape != b.shape:
        raise DimensionError(f"add shapes disagree: {a.shape} vs {b.shape}")
    da, db = a.dtype, b.dtype

    def back(g):   # each input's gradient in its own dtype, as its own loss's would be
        return g.astype(da, copy=False), g.astype(db, copy=False)

    return Array(plain.add(a.data, b.data), _parents=(a, b), _backward=back)


def add_bias(x: Array, b: Array) -> Array:
    """Add a length-c bias vector to every row of an (r, c) array."""
    _require_2d(x, "add_bias")
    if b.data.ndim != 1 or b.shape[0] != x.shape[1]:
        raise DimensionError(f"add_bias bias shape {b.shape} does not match columns of {x.shape}")

    def back(g):
        return g, g.sum(axis=0)

    return Array(plain.add_bias(x.data, b.data), _parents=(x, b), _backward=back)


def mul(a: Array, b: Array) -> Array:
    if a.shape != b.shape:
        raise DimensionError(f"mul shapes disagree: {a.shape} vs {b.shape}")
    x, y = a.data, b.data

    def back(g):
        return g * y, g * x

    return Array(plain.mul(x, y), _parents=(a, b), _backward=back)


def scale(x: Array, c: float) -> Array:
    c = float(c)

    def back(g):
        return (g * c,)

    return Array(plain.scale(x.data, c), _parents=(x,), _backward=back)


def relu(x: Array) -> Array:
    out = plain.relu(x.data)

    def back(g):
        return (g * (out > 0),)   # out > 0 exactly where x > 0

    return Array(out, _parents=(x,), _backward=back)


def tanh(x: Array) -> Array:
    t = plain.tanh(x.data)

    def back(g):
        return (g * (1.0 - t * t),)

    return Array(t, _parents=(x,), _backward=back)


def log(x: Array) -> Array:
    data = x.data

    def back(g):
        return (g / data,)

    return Array(plain.log(data), _parents=(x,), _backward=back)


def concat(parts: list[Array], axis: int = -1) -> Array:
    if not parts:
        raise ContractError("concat needs at least one array")
    ndim = parts[0].data.ndim
    ax = axis % ndim
    for p in parts[1:]:
        if p.data.ndim != ndim:
            raise DimensionError("concat rank mismatch")
        if p.shape[:ax] + p.shape[ax + 1:] != parts[0].shape[:ax] + parts[0].shape[ax + 1:]:
            raise DimensionError(f"concat shapes disagree off-axis: {p.shape} vs {parts[0].shape}")
    sizes = [p.shape[ax] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def back(g):
        return tuple(np.split(g, splits, axis=ax))

    return Array(plain.concat([p.data for p in parts], axis=ax), _parents=tuple(parts), _backward=back)


def mean_over_axis(x: Array, axis: int) -> Array:
    if x.data.ndim == 0:
        raise DimensionError("mean_over_axis needs at least one axis")
    ax = axis % x.data.ndim
    k = x.shape[ax]

    def back(g):
        return (np.repeat(np.expand_dims(g / k, ax), k, axis=ax),)

    return Array(plain.mean_over_axis(x.data, ax), _parents=(x,), _backward=back)


def reshape(x: Array, shape) -> Array:
    out_data = plain.reshape(x.data, shape)
    orig = x.data.shape

    def back(g):
        return (g.reshape(orig),)

    return Array(out_data, _parents=(x,), _backward=back)


def transpose_last2(x: Array) -> Array:
    nd = x.data.ndim
    if nd < 2:
        raise DimensionError("transpose_last2 needs ndim >= 2")
    return permute(x, (*range(nd - 2), nd - 1, nd - 2))


def permute(x: Array, axes) -> Array:
    """Reorder the axes of x (numpy transpose); backward applies the inverse order."""
    axes = tuple(int(a) for a in axes)
    if sorted(axes) != list(range(x.data.ndim)):
        raise DimensionError(f"permute axes {axes} do not reorder the {x.data.ndim} axes of {x.shape}")
    inverse = tuple(sorted(range(len(axes)), key=axes.__getitem__))

    def back(g):
        return (np.transpose(g, inverse),)

    return Array(plain.permute(x.data, axes), _parents=(x,), _backward=back)


def gather_rows(x: Array, idx) -> Array:
    """Select rows of a 2-D array by index; gradients route back to the
    selected rows only (duplicates accumulate)."""
    _require_2d(x, "gather_rows")
    idx = np.asarray(idx, dtype=np.intp)
    if idx.ndim != 1:
        raise DimensionError("gather_rows expects a 1-D index list")
    n = x.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ContractError(f"gather_rows index out of range for {n} rows")
    shape, dtype = x.shape, x.dtype

    def back(g):
        gx = np.zeros(shape, dtype)
        np.add.at(gx, idx, g)
        return (gx,)

    return Array(plain.gather_rows(x.data, idx), _parents=(x,), _backward=back)


def masked_softmax(logits: Array, mask) -> Array:
    """Softmax over the last axis; entries where mask is True get probability
    exactly 0. Stable via max-subtraction over the unmasked entries."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != logits.shape:
        raise DimensionError(f"mask shape {mask.shape} does not match logits {logits.shape}")
    return _softmax_node(plain.masked_softmax(logits.data, mask), logits)


def softmax(logits: Array) -> Array:
    """Softmax over the last axis; equals `masked_softmax` with nothing masked."""
    return _softmax_node(plain.softmax(logits.data), logits)


def _softmax_node(probs: np.ndarray, logits: Array) -> Array:
    def back(g):
        dot = (g * probs).sum(axis=-1, keepdims=True)
        return (probs * (g - dot),)

    return Array(probs, _parents=(logits,), _backward=back)


BN_MOMENTUM = 0.1       # weight of the batch statistics in the running EMA


def batch_norm(x: Array, scale: Array, shift: Array, mean: Array, var: Array, mode: str) -> Array:
    """Per-feature normalization of an (B, d) array, then `scale` and `shift`.

    `mean` and `var` are the running statistics, leaves outside the gradient
    path. Train mode normalizes with batch statistics (biased variance) and
    rebinds `mean.data` and `var.data` to their EMA update; infer mode
    normalizes with them.
    """
    _require_2d(x, "batch_norm")
    for v in (scale, shift, mean, var):
        if v.shape != x.shape[1:]:
            raise DimensionError(f"batch_norm vector shape {v.shape} does not match features of {x.shape}")
    if mode not in ("train", "infer"):
        raise ContractError(f"batch_norm mode must be 'train' or 'infer', got {mode!r}")
    rows = x.shape[0]
    gamma = scale.data

    if mode == "train":
        if rows < 2:
            raise ContractError("batch_norm train mode needs at least 2 rows")
        batch_mean = x.data.mean(axis=0)
        batch_var = x.data.var(axis=0)
        xhat, inv_std, out = plain.normalize(x.data, batch_mean, batch_var, gamma, shift.data)
        m = BN_MOMENTUM
        mean.data = (1.0 - m) * mean.data + m * batch_mean
        var.data = (1.0 - m) * var.data + m * batch_var * (rows / (rows - 1))

        def back(g):
            gxhat = g * gamma
            gx = inv_std * (gxhat - gxhat.mean(axis=0) - xhat * (gxhat * xhat).mean(axis=0))
            return gx, (g * xhat).sum(axis=0), g.sum(axis=0)

    else:
        xhat, inv_std, out = plain.normalize(x.data, mean.data, var.data, gamma, shift.data)

        def back(g):
            return g * gamma * inv_std, (g * xhat).sum(axis=0), g.sum(axis=0)

    return Array(out, _parents=(x, scale, shift), _backward=back)


def global_grad_norm(params: list[Array]) -> float:
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad.astype(np.float64) ** 2).sum())
    return math.sqrt(total)
