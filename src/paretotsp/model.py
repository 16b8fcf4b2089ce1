"""Attention-model actor and convolutional critic.

The encoder lifts node features to d_h-dim embeddings through a linear layer
and N attention layers (multi-head attention sublayer and feed-forward
sublayer, each with a skip connection and batch norm); the graph embedding is
the mean node embedding. The decoder builds a context from the graph
embedding plus the first and last visited nodes, refines it with masked
multi-head attention over the nodes, and scores candidates with a clipped
single-head attention; visited nodes get probability exactly 0.

The critic maps raw node features through four kernel-1 convolution stages
(per-node linear layers) and averages the per-node scalars into a baseline.

Each attention projection is one fused matrix whose rows (columns for the
output projection) hold the H heads' blocks in head order; attention splits
the heads by reshaping to (B*H, n, d_k), so it costs the same number of tape
ops whatever H is.

Training works on batches: node embeddings live in (B*n, d_h) arrays so batch
norm statistics run over the node dimension of the whole batch, and attention
uses per-instance (B, n, ...) views. The decoder keeps no state between
steps: a decode step is a function of the encoding and the tour prefix. A
training rollout chooses its tours step by step without a tape, then scores
all n steps of them in one teacher-forced decoder pass on the tape.
`greedy_tours` decodes one instance under many actors, a group at a time:
each actor's decoder inputs are written into its slot on the leading model
axis of one set of group buffers, reused by every group, so a group's actors
are the batch rows of a single decode.

The encoder, the decode step and the glimpse and pointer take their ops from
a namespace, `ops`: `autodiff` records the tape, and `plain` runs the same
numpy calls on bare ndarrays with no tape. Every forward pass that nothing
differentiates (the sampling loop, and the whole of `greedy_tours`) runs on
`plain`, so the math exists once and both paths give the same bits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from . import plain
from .errors import ContractError, DimensionError
from .instances import MotspInstance

DEFAULT_CRITIC_CHANNELS = ((4, 128), (128, 20), (20, 20), (20, 1))


@dataclass(frozen=True)
class ModelConfig:
    d_x: int = 4
    d_h: int = 128
    n_layers: int = 1
    n_heads: int = 8
    d_ff: int = 512
    clip: float = 10.0

    def __post_init__(self):
        if min(self.d_x, self.d_h, self.n_layers, self.n_heads, self.d_ff) < 1 or not 0 < self.clip < math.inf:
            raise ContractError(f"model sizes must be >= 1 and clip positive and finite: {self}")
        if self.d_h % self.n_heads != 0:
            raise ContractError(f"n_heads={self.n_heads} must divide d_h={self.d_h}")

    @property
    def d_k(self) -> int:
        return self.d_h // self.n_heads


def _linear(x, w, b=None, ops=ad):
    """x (rows, in) with w stored (out, in) as in the math; optional bias.

    A 3-D w (rows, out, in) holds one weight per row of x, and row r is the
    matrix-vector product w[r] @ x[r].
    """
    if len(w.shape) == 3:
        rows, out, d_in = w.shape
        h = ops.reshape(ops.bmm(w, ops.reshape(x, (rows, d_in, 1))), (rows, out))
    else:
        h = ops.matmul(x, ops.transpose_last2(w))
    return ops.add_bias(h, b) if b is not None else h


class _Params:
    """A model: its key (an actor's config, a critic's channels) and its named
    arrays in checkpoint order, the trainable weights then any batch norms'
    running statistics (leaves outside the gradient path). The constructor is
    the one way in, from `init`'s draws, `from_state`'s loaded arrays or
    `copy`'s copies; like every leaf, each array is checked for NaN and Inf."""

    def __init__(self, key, arrays: dict[str, np.ndarray], dtype):
        self._key = key
        self.dtype = np.dtype(dtype)
        self.params: dict[str, ad.Array] = {
            name: ad.constant(a, self.dtype) if name.endswith((".running_mean", ".running_var"))
            else ad.param(a, self.dtype) for name, a in arrays.items()}

    def trainable(self) -> list[ad.Array]:
        return [p for p in self.params.values() if p.requires_grad]

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Named arrays for serialization, in store order."""
        return {name: p.data for name, p in self.params.items()}

    @classmethod
    def from_state(cls, key, arrays: dict[str, np.ndarray], dtype=np.float32):
        """The `cls` on `key` that holds `arrays`, whose names and shapes must
        be those that `init` lays out."""
        shapes = _shapes(cls, key)
        if arrays.keys() != shapes.keys():
            missing, extra = sorted(shapes.keys() - arrays.keys()), sorted(arrays.keys() - shapes.keys())
            raise ContractError(f"{cls.__name__} state mismatch: missing={missing} extra={extra}")
        for name, shape in shapes.items():
            if np.shape(arrays[name]) != shape:
                raise DimensionError(f"{name}: shape {np.shape(arrays[name])} != {shape}")
        return cls(key, {name: arrays[name] for name in shapes}, dtype)

    def copy(self):
        return type(self)(self._key, {k: v.copy() for k, v in self.state_arrays().items()}, self.dtype)


@functools.cache
def _shapes(cls, key) -> dict[str, tuple]:
    """The names and shapes of `cls`'s arrays on `key`, in layout order."""
    return {name: a.shape for name, a in cls._layout(key).items()}


class ActorParams(_Params):
    """All arrays of one encoder+decoder, keyed by layer names."""

    cfg = property(lambda self: self._key)

    @classmethod
    def init(cls, cfg: ModelConfig, rng: np.random.Generator, dtype=np.float32) -> "ActorParams":
        return cls(cfg, cls._layout(cfg, rng, dtype), dtype)

    @staticmethod
    def _layout(cfg: ModelConfig, rng: np.random.Generator | None = None, dtype=np.float32) -> dict:
        """The named arrays in checkpoint order, the weights drawn from `rng`
        (zero-filled without one) and cast to `dtype` as each is drawn. Each
        attention sublayer's per-head blocks are drawn head by head, Wq, Wk,
        Wv, Wo within a head, and stacked in head order into the fused
        matrices, so `init` draws the same numbers as a per-head actor would."""
        d_h, d_k, d_ff, bound = cfg.d_h, cfg.d_k, cfg.d_ff, 1.0 / math.sqrt(cfg.d_h)
        out = {}

        def u(*shape):
            return np.zeros(shape, dtype) if rng is None else rng.uniform(-bound, bound, shape).astype(dtype)

        def attention(layer: str, d_q: int) -> None:
            wq, wk, wv, wo = zip(*[(u(d_k, d_q), u(d_k, d_h), u(d_k, d_h), u(d_h, d_k))
                                   for _ in range(cfg.n_heads)])
            out.update({f"{layer}.Wq": np.concatenate(wq), f"{layer}.Wk": np.concatenate(wk),
                        f"{layer}.Wv": np.concatenate(wv), f"{layer}.Wo": np.concatenate(wo, axis=1)})

        out["enc.init.W"] = u(d_h, cfg.d_x)
        out["enc.init.b"] = u(d_h)
        for l in range(1, cfg.n_layers + 1):
            attention(f"enc.l{l}", d_h)
            out[f"enc.l{l}.bn1.scale"], out[f"enc.l{l}.bn1.shift"] = np.ones(d_h, dtype), np.zeros(d_h, dtype)
            out[f"enc.l{l}.ff.W0"] = u(d_ff, d_h)
            out[f"enc.l{l}.ff.b0"] = u(d_ff)
            out[f"enc.l{l}.ff.W1"] = u(d_h, d_ff)
            out[f"enc.l{l}.ff.b1"] = u(d_h)
            out[f"enc.l{l}.bn2.scale"], out[f"enc.l{l}.bn2.shift"] = np.ones(d_h, dtype), np.zeros(d_h, dtype)
        out["dec.v1"] = u(d_h)
        out["dec.vf"] = u(d_h)
        attention("dec", 3 * d_h)
        out["dec.final.Wq"] = u(d_h, d_h)
        out["dec.final.Wk"] = u(d_h, d_h)
        # The batch norms' running statistics come last, as checkpoints store them.
        for norm in (f"enc.l{l}.{bn}" for l in range(1, cfg.n_layers + 1) for bn in ("bn1", "bn2")):
            out[f"{norm}.running_mean"], out[f"{norm}.running_var"] = np.zeros(d_h, dtype), np.ones(d_h, dtype)
        return out


class CriticParams(_Params):
    """Kernel-1 convolution stages (out,in) weight + bias per stage."""

    channels = property(lambda self: tuple((int(i), int(o)) for i, o in self._key))

    @classmethod
    def init(cls, rng: np.random.Generator, dtype=np.float32, channels=DEFAULT_CRITIC_CHANNELS) -> "CriticParams":
        return cls(channels, cls._layout(channels, rng, dtype), dtype)

    @staticmethod
    def _layout(channels, rng: np.random.Generator | None = None, dtype=np.float32) -> dict:
        """Each stage's weight and bias, drawn from `rng` within 1/sqrt(c_in)
        (zero-filled without one), each cast to `dtype` as it is drawn."""
        out = {}
        for k, (c_in, c_out) in enumerate(channels, start=1):
            bound = 1.0 / math.sqrt(c_in)
            for name, shape in ((f"conv{k}.W", (c_out, c_in)), (f"conv{k}.b", (c_out,))):
                out[name] = (np.zeros(shape, dtype) if rng is None
                             else rng.uniform(-bound, bound, shape).astype(dtype))
        return out


# ---------------------------------------------------------------------------
# encoder


class EncodedBatch(NamedTuple):
    """One rollout's fixed encoder outputs for B instances.

    `nodes2d` (B*n, d_h) and `graph` (B, d_h) are the node and graph
    embeddings. The rest are the decoder's projections of the nodes:
    `keys_t` (B*H, d_k, n) and `values` (B*H, n, d_k) hold the glimpse's
    heads, `final_keys_t` (B, d_h, n) the pointer's keys; the keys are
    transposed here, once per rollout. The five are Arrays on the tape, or
    ndarrays for a plain decode.
    """

    nodes2d: ad.Array | np.ndarray
    graph: ad.Array | np.ndarray
    keys_t: ad.Array | np.ndarray
    values: ad.Array | np.ndarray
    final_keys_t: ad.Array | np.ndarray

    @property
    def batch(self) -> int:
        return self.graph.shape[0]

    @property
    def n(self) -> int:
        return self.nodes2d.shape[0] // self.batch

    def untaped(self) -> "EncodedBatch":
        """The same encoding as ndarrays, views of the Arrays' data."""
        return EncodedBatch(*(a.data for a in self))


def _split_heads(x2d, batch: int, heads: int, axes, ops=ad):
    """(B*n, H*d_k) rows, head-major in each row, as (B*H, ., .) per-head blocks.

    `axes` orders (B, H, n, d_k): (0, 2, 1, 3) gives (B*H, n, d_k) and
    (0, 2, 3, 1) the transposed (B*H, d_k, n).
    """
    n = x2d.shape[0] // batch
    d_k = x2d.shape[1] // heads
    blocks = ops.permute(ops.reshape(x2d, (batch, n, heads, d_k)), axes)
    return ops.reshape(blocks, (batch * heads,) + blocks.shape[2:])


def _merge_heads(blocks, batch: int, ops=ad):
    """(B*H, n, d_k) per-head blocks back to (B*n, H*d_k) rows, head-major in each row."""
    rows, n, d_k = blocks.shape
    heads = rows // batch
    return ops.reshape(ops.permute(ops.reshape(blocks, (batch, heads, n, d_k)), (0, 2, 1, 3)),
                       (batch * n, heads * d_k))


def encode_batch(features: np.ndarray, actor: ActorParams, mode: str, ops=ad) -> EncodedBatch:
    """The encoding of B instances' features (B, n, d_x); batch norm in `mode`.

    With `ops=plain` it is built from ndarrays without a tape, in infer mode.
    `_decode` checks the five arrays for NaN and Inf, once per decode.
    """
    cfg = actor.cfg
    feats = np.asarray(features)
    if feats.ndim != 3 or feats.shape[2] != cfg.d_x:
        raise DimensionError(f"expected features (B, n, {cfg.d_x}), got {feats.shape}")
    batch, n = feats.shape[0], feats.shape[1]
    if n < 2:
        raise ContractError("encoder needs n >= 2 nodes")
    p = actor.params if ops is ad else actor.state_arrays()
    d_h, heads = cfg.d_h, cfg.n_heads
    inv_sqrt_dk = 1.0 / math.sqrt(cfg.d_k)

    def bn(name):
        return [p[f"{name}.{k}"] for k in ("scale", "shift", "running_mean", "running_var")]

    x = ops.constant(feats.reshape(batch * n, cfg.d_x), dtype=actor.dtype)
    h = _linear(x, p["enc.init.W"], p["enc.init.b"], ops=ops)
    for l in range(1, cfg.n_layers + 1):
        q = _split_heads(_linear(h, p[f"enc.l{l}.Wq"], ops=ops), batch, heads, (0, 2, 1, 3), ops)
        keys_t = _split_heads(_linear(h, p[f"enc.l{l}.Wk"], ops=ops), batch, heads, (0, 2, 3, 1), ops)
        v = _split_heads(_linear(h, p[f"enc.l{l}.Wv"], ops=ops), batch, heads, (0, 2, 1, 3), ops)
        weights = ops.softmax(ops.scale(ops.bmm(q, keys_t), inv_sqrt_dk))     # (B*H, n, n)
        mha = _linear(_merge_heads(ops.bmm(weights, v), batch, ops), p[f"enc.l{l}.Wo"], ops=ops)
        h = ops.batch_norm(ops.add(h, mha), *bn(f"enc.l{l}.bn1"), mode)
        ff = _linear(ops.relu(_linear(h, p[f"enc.l{l}.ff.W0"], p[f"enc.l{l}.ff.b0"], ops=ops)),
                     p[f"enc.l{l}.ff.W1"], p[f"enc.l{l}.ff.b1"], ops=ops)
        h = ops.batch_norm(ops.add(h, ff), *bn(f"enc.l{l}.bn2"), mode)
    graph = ops.mean_over_axis(ops.reshape(h, (batch, n, d_h)), 1)
    keys_t = _split_heads(_linear(h, p["dec.Wk"], ops=ops), batch, heads, (0, 2, 3, 1), ops)
    values = _split_heads(_linear(h, p["dec.Wv"], ops=ops), batch, heads, (0, 2, 1, 3), ops)
    final_keys = ops.reshape(_linear(h, p["dec.final.Wk"], ops=ops), (batch, n, d_h))
    final_keys_t = ops.transpose_last2(final_keys)
    return EncodedBatch(h, graph, keys_t, values, final_keys_t)


# ---------------------------------------------------------------------------
# decoder


def _decode_step_batch(enc: EncodedBatch, placed: np.ndarray, cfg: ModelConfig, p, ops=ad):
    """The probabilities (B, n) of each row's next node after its tour prefix
    `placed` (B, t), for the encoding `enc` under the weights `p`: an actor's,
    or a group's with one leading row per actor.

    The decoder has no recurrent state: the context reads the prefix's first
    and last nodes (the `dec.v1`/`dec.vf` placeholders while it is empty), and
    the mask is the set of nodes it holds.
    """
    batch, n = enc.batch, enc.n
    d_h = cfg.d_h
    if placed.shape[1] == 0:
        # A (d_h,) placeholder serves every row; a stacked (rows, d_h) one
        # gives each row its own.
        own = np.arange(batch) if len(p["dec.v1"].shape) == 2 else np.zeros(batch, dtype=np.intp)
        first = ops.gather_rows(ops.reshape(p["dec.v1"], (-1, d_h)), own)
        last = ops.gather_rows(ops.reshape(p["dec.vf"], (-1, d_h)), own)
    else:
        base = np.arange(batch) * n
        first = ops.gather_rows(enc.nodes2d, base + placed[:, 0])
        last = ops.gather_rows(enc.nodes2d, base + placed[:, -1])
    context = ops.concat([enc.graph, first, last], axis=1)     # (B, 3*d_h)
    visited = np.zeros((batch, 1, n), dtype=bool)
    visited[np.arange(batch)[:, None], 0, placed] = True

    q = ops.reshape(_linear(context, p["dec.Wq"], ops=ops), (batch * cfg.n_heads, 1, cfg.d_k))
    return ops.reshape(_attend(q, visited, enc, cfg, p, ops), (batch, n))


def _attend(q, visited: np.ndarray, enc: EncodedBatch, cfg: ModelConfig, p, ops=ad):
    """The decoder's glimpse and pointer for S query rows per instance.

    q (B*H, S, d_k) holds each row's projected context, per head; visited
    (B, S, n) masks each row's placed nodes. Returns the pointer's
    probabilities (B, S, n).
    """
    batch, steps, n = visited.shape
    heads = cfg.n_heads
    compat = ops.scale(ops.reshape(ops.bmm(q, enc.keys_t), (batch, heads, steps, n)),
                       1.0 / math.sqrt(cfg.d_k))
    attn = ops.masked_softmax(compat, np.broadcast_to(visited[:, None], (batch, heads, steps, n)))
    mixed = ops.bmm(ops.reshape(attn, (batch * heads, steps, n)), enc.values)     # (B*H, S, d_k)
    glimpse = _linear(_merge_heads(mixed, batch, ops), p["dec.Wo"], ops=ops)

    q_final = ops.reshape(_linear(glimpse, p["dec.final.Wq"], ops=ops), (batch, steps, cfg.d_h))
    logits = ops.scale(ops.tanh(ops.bmm(q_final, enc.final_keys_t)), cfg.clip)
    return ops.masked_softmax(logits, visited)


def _sample_rows(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    cdf = np.cumsum(probs, axis=1)
    cdf /= cdf[:, -1:]
    u = rng.random(probs.shape[0])
    return (cdf <= u[:, None]).sum(axis=1).astype(np.intp)     # never a zero-probability node


def rollout_batch(features: np.ndarray, actor: ActorParams, rng: np.random.Generator | None = None,
                  bn_mode: str = "infer", forced_tours: np.ndarray | None = None):
    """Construct one tour per instance; returns (tours, log-prob Array, step probs).

    `forced_tours`, whose rows must be permutations of range(n), replays
    given tours, to score them under the current parameters. Otherwise each
    node is drawn from the decode distribution if `rng` is given, or is its
    argmax (ties to the lowest index) if not. The log-probability is the
    tape-connected sum of log-probabilities of the chosen nodes; the step
    probs are the n (B, n) distributions the chosen nodes were taken from.

    The encoding, with the decoder's key and value projections, is built on
    the tape; the n decode steps that choose the tours run on `plain` ops over
    the encoding's data, and `_score_tours` then puts the chosen tours'
    log-probability on the tape in a single pass.
    """
    feats = np.asarray(features)
    batch, n = feats.shape[0], feats.shape[1]
    if forced_tours is not None:
        forced_tours = np.array(forced_tours, dtype=np.intp)
        if forced_tours.shape != (batch, n):
            raise DimensionError(f"forced_tours must be ({batch}, {n}), got {forced_tours.shape}")
        bad = np.flatnonzero((np.sort(forced_tours, axis=1) != np.arange(n)).any(axis=1))
        if bad.size:
            raise ContractError(f"forced_tours row {bad[0]} is not a permutation of range({n})")
    enc = encode_batch(feats, actor, bn_mode)
    tours, step_probs = _decode(enc.untaped(), actor.cfg, actor.state_arrays(), rng, forced_tours)
    return tours, _score_tours(enc, actor, tours), step_probs


def _decode(enc: EncodedBatch, cfg: ModelConfig, p, rng=None, forced_tours: np.ndarray | None = None):
    """The n plain decode steps of the ndarray encoding `enc` under the
    weights `p`, choosing as `rollout_batch` does; returns (tours, step probs).
    An encoding that holds a NaN or Inf raises NonFiniteError first, and a
    decode that places a node twice raises ContractError."""
    for a in enc:
        plain.finite(a, "encode_batch")
    tours = np.empty((enc.batch, enc.n), dtype=np.intp)
    step_probs = []
    for t in range(enc.n):
        probs = _decode_step_batch(enc, tours[:, :t], cfg, p, plain)
        step_probs.append(probs)
        if forced_tours is not None:
            tours[:, t] = forced_tours[:, t]
        elif rng is not None:
            tours[:, t] = _sample_rows(probs, rng)
        else:
            tours[:, t] = probs.argmax(axis=1)
    if (np.sort(tours, axis=1) != np.arange(enc.n)).any():
        raise ContractError("a decode placed a node twice")
    return tours, step_probs


def _score_tours(enc: EncodedBatch, actor: ActorParams, tours: np.ndarray) -> ad.Array:
    """(B,) tape-connected log-probabilities of the given tours, every decode
    step at once.

    The decoder has no recurrent state: step t's query reads only the graph
    embedding and the tour's first node and node t-1, and its mask is the
    set of nodes placed before t. So the n steps are n query rows per
    instance of one masked attention (teacher forcing). The query uses Kool
    et al.'s split of the fixed context: `dec.Wq`'s graph and first-node
    blocks project one row per instance, its last-node block one row per
    step; `_attend` then runs the glimpse and pointer on all n rows.
    """
    cfg = actor.cfg
    p = actor.params
    batch, n = enc.batch, enc.n
    d_h, heads, d_k = cfg.d_h, cfg.n_heads, cfg.d_k
    base = np.arange(batch) * n
    pos = np.empty((batch, n), dtype=np.intp)
    pos[np.arange(batch)[:, None], tours] = np.arange(n)
    visited = pos[:, None, :] < np.arange(n)[None, :, None]            # (B, step, node)

    # dec.Wq's column blocks are the row blocks of its transpose.
    wq_t = ad.transpose_last2(p["dec.Wq"])
    w_graph, w_first, w_last = (ad.gather_rows(wq_t, np.arange(k * d_h, (k + 1) * d_h)) for k in range(3))
    graph_part = ad.matmul(enc.graph, w_graph)                          # (B, d_h)
    placeholders = ad.add(ad.matmul(ad.reshape(p["dec.v1"], (1, d_h)), w_first),
                          ad.matmul(ad.reshape(p["dec.vf"], (1, d_h)), w_last))
    q_first = ad.add_bias(graph_part, ad.reshape(placeholders, (d_h,)))
    fixed = ad.add(graph_part, ad.matmul(ad.gather_rows(enc.nodes2d, base + tours[:, 0]), w_first))
    # Steps 1..n-1 in step-major rows, so each instance's fixed part is a bias.
    prev = ad.gather_rows(enc.nodes2d, (base + tours[:, :-1].T).reshape(-1))
    q_rest = ad.add_bias(ad.reshape(ad.matmul(prev, w_last), (n - 1, batch * d_h)),
                         ad.reshape(fixed, (batch * d_h,)))
    q = ad.concat([ad.reshape(q_first, (1, batch * d_h)), q_rest], axis=0)
    q = ad.reshape(ad.permute(ad.reshape(q, (n, batch, heads, d_k)), (1, 2, 0, 3)),
                   (batch * heads, n, d_k))

    probs = _attend(q, visited, enc, cfg, p)                            # (B, step, node)
    chosen = (base[:, None] + np.arange(n)) * n + tours
    picked = ad.gather_rows(ad.reshape(probs, (batch * n * n, 1)), chosen.reshape(-1))
    step_logp = ad.log(ad.reshape(picked, (batch, n)))
    summed = ad.matmul(step_logp, ad.constant(np.ones((n, 1)), dtype=actor.dtype))   # sum over steps
    return ad.reshape(summed, (batch,))


# Actors per stacked decode. Only one group's buffers are held, reused by every
# group, so the solve's memory grows with the group, not with M, and a step
# streams one group's decoder weights and projections (about 0.5 MB per model at
# full width) instead of all M models'. Groups of 16-20 decode faster than one
# stack of 100; smaller groups pay each step's fixed Python cost too often.
_GROUP = 20


def _slots(part: np.ndarray) -> np.ndarray:
    """Room for `_GROUP` copies of `part` on its leading axis, the trailing axes
    packed in `part`'s memory order (a transposed key block stays column-major),
    so a product against any leading run of slots makes the same BLAS call per
    row as against one part."""
    inner = sorted(range(1, part.ndim), key=lambda ax: -part.strides[ax])   # outermost first
    packed = np.empty((_GROUP * part.shape[0],) + tuple(part.shape[ax] for ax in inner), dtype=part.dtype)
    return np.transpose(packed, (0,) + tuple(int(ax) + 1 for ax in np.argsort(inner)))


def greedy_tours(features: np.ndarray, actors) -> np.ndarray:
    """(M, n) greedy tours of one instance, row i under the i-th of `actors`.

    `actors` is any iterable of actors sharing one config and dtype. Each is
    encoded on `plain` ops as soon as it is drawn; its encoding and the
    decoder weights that the encoding has not already applied are written
    into its slot of one set of group buffers, allocated from the first actor
    and reused by every group, and the rest is released before the next actor
    is drawn. A full group's actors are the batch rows of one n-step decode;
    a last, partial group decodes through views of its filled slots. Row i
    equals the tour of `rollout_batch(features[None], actor_i)`.
    """
    feats = np.asarray(features)[None, :, :]
    cfg = dtype = encs = weights = None
    tours = []

    def decode(count: int) -> np.ndarray:
        return _decode(EncodedBatch(*(b[:count * len(b) // _GROUP] for b in encs)), cfg,
                       {name: w[:count] for name, w in weights.items()})[0]

    for i, actor in enumerate(actors):
        if cfg is not None and (actor.cfg, actor.dtype) != (cfg, dtype):
            raise ContractError("greedy_tours needs actors of one model config and dtype")
        cfg, dtype, slot = actor.cfg, actor.dtype, i % _GROUP
        enc = encode_batch(feats, actor, "infer", plain)
        if encs is None:
            # The key/value projections are in the encoding; the rest is read per step.
            encs = EncodedBatch(*map(_slots, enc))
            weights = {name: np.empty((_GROUP,) + p.shape, dtype) for name, p in actor.params.items()
                       if name.startswith("dec.") and not name.endswith(("Wk", "Wv"))}
        for buf, part in zip(encs, enc):
            buf[slot * len(part):(slot + 1) * len(part)] = part
        for name, w in weights.items():
            w[slot] = actor.params[name].data
        if slot == _GROUP - 1:
            tours.append(decode(_GROUP))
    if cfg is None:
        raise ContractError("greedy_tours needs at least one actor")
    if slot < _GROUP - 1:
        tours.append(decode(slot + 1))
    return np.concatenate(tours)


def rollout(inst: MotspInstance, actor: ActorParams, seed: int | None = None) -> tuple[np.ndarray, float]:
    """`rollout_batch` on a batch of one, sampling from `seed` if given and
    greedy if not; returns the (n,) tour and its log-probability."""
    if inst.d_x != actor.cfg.d_x:
        raise DimensionError(f"instance d_x={inst.d_x} != model d_x={actor.cfg.d_x}")
    rng = None if seed is None else np.random.default_rng(seed)
    tours, logp, _ = rollout_batch(inst.features[None, :, :], actor, rng)
    return tours[0], float(logp.data[0])


# ---------------------------------------------------------------------------
# critic


def critic_batch(features: np.ndarray, critic: CriticParams) -> ad.Array:
    """Baseline per instance: four kernel-1 conv stages then the node mean."""
    feats = np.asarray(features)
    if feats.ndim != 3 or feats.shape[2] != critic.channels[0][0]:
        raise DimensionError(f"expected features (B, n, {critic.channels[0][0]}), got {feats.shape}")
    batch, n = feats.shape[0], feats.shape[1]
    h = ad.constant(feats.reshape(batch * n, feats.shape[2]), dtype=critic.dtype)
    n_stages = len(critic.channels)
    for k in range(1, n_stages + 1):
        h = _linear(h, critic.params[f"conv{k}.W"], critic.params[f"conv{k}.b"])
        if k < n_stages:
            h = ad.relu(h)
    per_node = ad.reshape(h, (batch, n))
    return ad.mean_over_axis(per_node, 1)
