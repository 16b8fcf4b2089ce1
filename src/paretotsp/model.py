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

Training works on batches: node embeddings live in (B*n, d_h) arrays so batch
norm statistics run over the node dimension of the whole batch, and attention
uses per-instance (B, n, ...) views. The single-instance API wraps batches of
one with batch norm in inference mode. `greedy_tours` decodes one instance
under many actors at once: their decoder inputs are stacked on a leading
model axis, so the actors are the batch rows of a single decode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ContractError, DimensionError, NoFeasibleActionError
from .instances import MotspInstance, Tour

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
        if self.d_h % self.n_heads != 0:
            raise ContractError(f"n_heads={self.n_heads} must divide d_h={self.d_h}")

    @property
    def d_k(self) -> int:
        return self.d_h // self.n_heads


def _linear(x: ad.Array, w: ad.Array, b: ad.Array | None = None) -> ad.Array:
    """x (rows, in) with w stored (out, in) as in the math; optional bias.

    A 3-D w (rows, out, in) holds one weight per row of x, and row r is the
    matrix-vector product w[r] @ x[r]; that form needs no transposed view of
    the stacked weights, whose finiteness check would cost a full pass over
    them on every call.
    """
    if w.data.ndim == 3:
        rows, out, d_in = w.shape
        h = ad.reshape(ad.bmm(w, ad.reshape(x, (rows, d_in, 1))), (rows, out))
    else:
        h = ad.matmul(x, ad.transpose_last2(w))
    return ad.add_bias(h, b) if b is not None else h


class ActorParams:
    """All trainable arrays of one encoder+decoder, keyed by layer/head names."""

    def __init__(self, cfg: ModelConfig, dtype=np.float32):
        self.cfg = cfg
        self.dtype = np.dtype(dtype)
        self.params: dict[str, ad.Array] = {}
        self.bn: dict[str, ad.BatchNormState] = {}

    def _add(self, name: str, arr: np.ndarray) -> None:
        self.params[name] = ad.param(arr, dtype=self.dtype)

    def _add_bn(self, name: str) -> None:
        state = ad.BatchNormState(self.cfg.d_h, dtype=self.dtype)
        self.bn[name] = state
        self.params[f"{name}.scale"] = state.scale
        self.params[f"{name}.shift"] = state.shift

    @classmethod
    def init(cls, cfg: ModelConfig, rng: np.random.Generator, dtype=np.float32) -> "ActorParams":
        bound = 1.0 / math.sqrt(cfg.d_h)
        return cls._build(cfg, dtype, lambda *shape: rng.uniform(-bound, bound, shape))

    @classmethod
    def zeros(cls, cfg: ModelConfig, dtype=np.float32) -> "ActorParams":
        """Every array at its shape, zero-filled: a target for `load_state`
        that draws no random numbers."""
        return cls._build(cfg, dtype, lambda *shape: np.zeros(shape, dtype))

    @classmethod
    def _build(cls, cfg: ModelConfig, dtype, u) -> "ActorParams":
        """Arrays filled by `u(*shape)`, called in a fixed order."""
        self = cls(cfg, dtype)
        d_h, d_k, d_ff = cfg.d_h, cfg.d_k, cfg.d_ff

        self._add("enc.init.W", u(d_h, cfg.d_x))
        self._add("enc.init.b", u(d_h))
        for l in range(1, cfg.n_layers + 1):
            for a in range(1, cfg.n_heads + 1):
                self._add(f"enc.l{l}.head{a}.Wq", u(d_k, d_h))
                self._add(f"enc.l{l}.head{a}.Wk", u(d_k, d_h))
                self._add(f"enc.l{l}.head{a}.Wv", u(d_k, d_h))
                self._add(f"enc.l{l}.head{a}.Wo", u(d_h, d_k))
            self._add_bn(f"enc.l{l}.bn1")
            self._add(f"enc.l{l}.ff.W0", u(d_ff, d_h))
            self._add(f"enc.l{l}.ff.b0", u(d_ff))
            self._add(f"enc.l{l}.ff.W1", u(d_h, d_ff))
            self._add(f"enc.l{l}.ff.b1", u(d_h))
            self._add_bn(f"enc.l{l}.bn2")
        self._add("dec.v1", u(d_h))
        self._add("dec.vf", u(d_h))
        for a in range(1, cfg.n_heads + 1):
            self._add(f"dec.head{a}.Wq", u(d_k, 3 * d_h))
            self._add(f"dec.head{a}.Wk", u(d_k, d_h))
            self._add(f"dec.head{a}.Wv", u(d_k, d_h))
            self._add(f"dec.head{a}.Wo", u(d_h, d_k))
        self._add("dec.final.Wq", u(d_h, d_h))
        self._add("dec.final.Wk", u(d_h, d_h))
        return self

    def trainable(self) -> list[ad.Array]:
        return list(self.params.values())

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Named arrays for serialization: trainables plus batch-norm running stats."""
        out = {name: p.data for name, p in self.params.items()}
        for name, state in self.bn.items():
            out[f"{name}.running_mean"] = state.running_mean
            out[f"{name}.running_var"] = state.running_var
        return out

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        expected = set(self.state_arrays())
        if set(arrays) != expected:
            missing = expected - set(arrays)
            extra = set(arrays) - expected
            raise ContractError(f"actor state mismatch: missing={sorted(missing)} extra={sorted(extra)}")
        for name, p in self.params.items():
            arr = np.asarray(arrays[name], dtype=self.dtype)
            if arr.shape != p.data.shape:
                raise DimensionError(f"{name}: shape {arr.shape} != {p.data.shape}")
            p.data = arr
        for name, state in self.bn.items():
            state.running_mean = np.asarray(arrays[f"{name}.running_mean"], dtype=self.dtype)
            state.running_var = np.asarray(arrays[f"{name}.running_var"], dtype=self.dtype)

    def copy(self) -> "ActorParams":
        dup = ActorParams.zeros(self.cfg, self.dtype)
        dup.load_state({k: v.copy() for k, v in self.state_arrays().items()})
        return dup


class CriticParams:
    """Kernel-1 convolution stages (out,in) weight + bias per stage."""

    def __init__(self, channels=DEFAULT_CRITIC_CHANNELS, dtype=np.float32):
        self.channels = tuple((int(i), int(o)) for i, o in channels)
        self.dtype = np.dtype(dtype)
        self.params: dict[str, ad.Array] = {}

    @classmethod
    def init(cls, rng: np.random.Generator, dtype=np.float32,
             channels=DEFAULT_CRITIC_CHANNELS) -> "CriticParams":
        return cls._build(channels, dtype, lambda bound, shape: rng.uniform(-bound, bound, shape))

    @classmethod
    def zeros(cls, dtype=np.float32, channels=DEFAULT_CRITIC_CHANNELS) -> "CriticParams":
        """Every array at its shape, zero-filled: a target for `load_state`."""
        return cls._build(channels, dtype, lambda bound, shape: np.zeros(shape, dtype))

    @classmethod
    def _build(cls, channels, dtype, u) -> "CriticParams":
        """Arrays filled by `u(bound, shape)`, called in a fixed order."""
        self = cls(channels, dtype)
        for k, (c_in, c_out) in enumerate(self.channels, start=1):
            bound = 1.0 / math.sqrt(c_in)
            self.params[f"conv{k}.W"] = ad.param(u(bound, (c_out, c_in)), dtype=dtype)
            self.params[f"conv{k}.b"] = ad.param(u(bound, c_out), dtype=dtype)
        return self

    def trainable(self) -> list[ad.Array]:
        return list(self.params.values())

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.data for name, p in self.params.items()}

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        if set(arrays) != set(self.params):
            raise ContractError("critic state names mismatch")
        for name, p in self.params.items():
            arr = np.asarray(arrays[name], dtype=self.dtype)
            if arr.shape != p.data.shape:
                raise DimensionError(f"{name}: shape {arr.shape} != {p.data.shape}")
            p.data = arr

    def copy(self) -> "CriticParams":
        dup = CriticParams.zeros(self.dtype, self.channels)
        dup.load_state({k: v.copy() for k, v in self.state_arrays().items()})
        return dup


def validate_critic_chain(critic: CriticParams) -> None:
    if critic.channels != DEFAULT_CRITIC_CHANNELS:
        raise ContractError(f"critic channel chain {critic.channels} != {DEFAULT_CRITIC_CHANNELS}")


# ---------------------------------------------------------------------------
# encoder


class EncodedBatch:
    """Embeddings of B instances: (B*n, d_h) node rows plus (B, d_h) graph rows."""

    def __init__(self, nodes2d: ad.Array, graph: ad.Array, batch: int, n: int):
        self.nodes2d = nodes2d
        self.graph = graph
        self.batch = batch
        self.n = n


def encode_batch(features: np.ndarray, actor: ActorParams, mode: str) -> EncodedBatch:
    cfg = actor.cfg
    feats = np.asarray(features)
    if feats.ndim != 3 or feats.shape[2] != cfg.d_x:
        raise DimensionError(f"expected features (B, n, {cfg.d_x}), got {feats.shape}")
    batch, n = feats.shape[0], feats.shape[1]
    if n < 2:
        raise ContractError("encoder needs n >= 2 nodes")
    p = actor.params
    d_h, d_k = cfg.d_h, cfg.d_k
    inv_sqrt_dk = 1.0 / math.sqrt(d_k)

    x = ad.constant(feats.reshape(batch * n, cfg.d_x), dtype=actor.dtype)
    h = _linear(x, p["enc.init.W"], p["enc.init.b"])
    for l in range(1, cfg.n_layers + 1):
        mha = None
        for a in range(1, cfg.n_heads + 1):
            q = ad.reshape(_linear(h, p[f"enc.l{l}.head{a}.Wq"]), (batch, n, d_k))
            k = ad.reshape(_linear(h, p[f"enc.l{l}.head{a}.Wk"]), (batch, n, d_k))
            v = ad.reshape(_linear(h, p[f"enc.l{l}.head{a}.Wv"]), (batch, n, d_k))
            compat = ad.scale(ad.bmm(q, ad.transpose_last2(k)), inv_sqrt_dk)
            weights = ad.softmax(compat)                      # (B, n, n)
            mixed = ad.reshape(ad.bmm(weights, v), (batch * n, d_k))
            head_out = _linear(mixed, p[f"enc.l{l}.head{a}.Wo"])
            mha = head_out if mha is None else ad.add(mha, head_out)
        h = ad.batch_norm(ad.add(h, mha), actor.bn[f"enc.l{l}.bn1"], mode)
        ff = _linear(ad.relu(_linear(h, p[f"enc.l{l}.ff.W0"], p[f"enc.l{l}.ff.b0"])),
                     p[f"enc.l{l}.ff.W1"], p[f"enc.l{l}.ff.b1"])
        h = ad.batch_norm(ad.add(h, ff), actor.bn[f"enc.l{l}.bn2"], mode)
    graph = ad.mean_over_axis(ad.reshape(h, (batch, n, d_h)), 1)
    return EncodedBatch(h, graph, batch, n)


@dataclass
class EncodedGraph:
    """Single-instance view: per-node embeddings and their mean."""

    nodes: np.ndarray       # (n, d_h)
    graph: np.ndarray       # (d_h,)
    _batch: EncodedBatch = None

    @property
    def n(self) -> int:
        return self.nodes.shape[0]


def encode(inst: MotspInstance, actor: ActorParams, mode: str = "infer") -> EncodedGraph:
    enc = encode_batch(inst.features[None, :, :], actor, mode)
    return EncodedGraph(enc.nodes2d.data.reshape(inst.n, actor.cfg.d_h).copy(),
                        enc.graph.data[0].copy(), enc)


# ---------------------------------------------------------------------------
# decoder


class _DecoderCache:
    """Per-rollout key/value projections; they depend only on the encodings."""

    def __init__(self, enc: EncodedBatch, actor: ActorParams):
        cfg = actor.cfg
        p = actor.params
        batch, n = enc.batch, enc.n
        self.keys = []
        self.values = []
        for a in range(1, cfg.n_heads + 1):
            self.keys.append(ad.reshape(_linear(enc.nodes2d, p[f"dec.head{a}.Wk"]), (batch, n, cfg.d_k)))
            self.values.append(ad.reshape(_linear(enc.nodes2d, p[f"dec.head{a}.Wv"]), (batch, n, cfg.d_k)))
        self.final_keys = ad.reshape(_linear(enc.nodes2d, p["dec.final.Wk"]), (batch, n, cfg.d_h))

    @classmethod
    def stack(cls, caches: list["_DecoderCache"]) -> "_DecoderCache":
        """One cache whose batch rows are the rows of `caches`, in order."""
        out = cls.__new__(cls)
        out.keys = [_stack_rows([c.keys[h] for c in caches]) for h in range(len(caches[0].keys))]
        out.values = [_stack_rows([c.values[h] for c in caches]) for h in range(len(caches[0].values))]
        out.final_keys = _stack_rows([c.final_keys for c in caches])
        return out


def _stack_rows(parts: list[ad.Array]) -> ad.Array:
    """Concatenate along the leading axis, outside the tape."""
    return ad.constant(np.concatenate([p.data for p in parts]))


class BatchDecodeState:
    def __init__(self, enc: EncodedBatch, cache: _DecoderCache):
        self.enc = enc
        self.cache = cache
        self.visited = np.zeros((enc.batch, enc.n), dtype=bool)
        self.first = np.zeros(enc.batch, dtype=np.intp)
        self.last = np.zeros(enc.batch, dtype=np.intp)
        self.t = 1

    def advance(self, chosen: np.ndarray) -> None:
        rows = np.arange(self.enc.batch)
        if self.visited[rows, chosen].any():
            raise ContractError("advance on an already visited node")
        self.visited[rows, chosen] = True
        if self.t == 1:
            self.first = chosen.astype(np.intp)
        self.last = chosen.astype(np.intp)
        self.t += 1


def _decode_step_batch(state: BatchDecodeState, actor: "ActorParams | _StackedDecoder",
                       want_logits: bool = False):
    cfg = actor.cfg
    p = actor.params
    enc, cache = state.enc, state.cache
    batch, n = enc.batch, enc.n
    if state.visited.all(axis=1).any():
        raise NoFeasibleActionError("decode_step: all nodes already visited")
    d_k, d_h = cfg.d_k, cfg.d_h
    inv_sqrt_dk = 1.0 / math.sqrt(d_k)

    if state.t == 1:
        # A (d_h,) placeholder serves every row; a stacked (rows, d_h) one
        # gives each row its own.
        own = np.arange(batch) if p["dec.v1"].data.ndim == 2 else np.zeros(batch, dtype=np.intp)
        first = ad.gather_rows(ad.reshape(p["dec.v1"], (-1, d_h)), own)
        last = ad.gather_rows(ad.reshape(p["dec.vf"], (-1, d_h)), own)
    else:
        base = np.arange(batch) * n
        first = ad.gather_rows(enc.nodes2d, base + state.first)
        last = ad.gather_rows(enc.nodes2d, base + state.last)
    context = ad.concat([enc.graph, first, last], axis=1)     # (B, 3*d_h)

    glimpse = None
    for a in range(1, cfg.n_heads + 1):
        q = ad.reshape(_linear(context, p[f"dec.head{a}.Wq"]), (batch, 1, d_k))
        compat = ad.reshape(ad.bmm(q, ad.transpose_last2(cache.keys[a - 1])), (batch, n))
        compat = ad.scale(compat, inv_sqrt_dk)
        attn = ad.masked_softmax(compat, state.visited)
        mixed = ad.reshape(ad.bmm(ad.reshape(attn, (batch, 1, n)), cache.values[a - 1]), (batch, d_k))
        head_out = _linear(mixed, p[f"dec.head{a}.Wo"])
        glimpse = head_out if glimpse is None else ad.add(glimpse, head_out)

    q_final = ad.reshape(_linear(glimpse, p["dec.final.Wq"]), (batch, 1, d_h))
    raw = ad.reshape(ad.bmm(q_final, ad.transpose_last2(cache.final_keys)), (batch, n))
    logits = ad.scale(ad.tanh(raw), cfg.clip)
    probs = ad.masked_softmax(logits, state.visited)
    if want_logits:
        return probs, logits
    return probs


def _sample_rows(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    cdf = np.cumsum(probs, axis=1)
    cdf /= cdf[:, -1:]
    u = rng.random(probs.shape[0])
    return (cdf < u[:, None]).sum(axis=1).astype(np.intp)


def rollout_batch(features: np.ndarray, actor: ActorParams, mode: str,
                  rng: np.random.Generator | None = None, bn_mode: str = "infer",
                  want_step_probs: bool = False,
                  forced_tours: np.ndarray | None = None):
    """Construct one tour per instance; returns (tours, log-prob Array, step probs).

    `mode` is "sample" (draws each node from the decode distribution; needs
    rng) or "greedy" (argmax, ties to the lowest index). The log-probability
    is the tape-connected sum of log-probabilities of the chosen nodes.
    `forced_tours` replays given tours instead of choosing, which scores
    their log-probability under the current parameters.
    """
    if mode not in ("sample", "greedy"):
        raise ContractError(f"rollout mode must be 'sample' or 'greedy', got {mode!r}")
    if mode == "sample" and rng is None and forced_tours is None:
        raise ContractError("sample mode needs an rng")
    feats = np.asarray(features)
    batch, n = feats.shape[0], feats.shape[1]
    if forced_tours is not None:
        forced_tours = np.asarray(forced_tours, dtype=np.intp)
        if forced_tours.shape != (batch, n):
            raise DimensionError(f"forced_tours must be ({batch}, {n}), got {forced_tours.shape}")
    enc = encode_batch(feats, actor, bn_mode)
    state = BatchDecodeState(enc, _DecoderCache(enc, actor))
    return _decode(state, actor, mode, rng, want_step_probs, forced_tours)


def _decode(state: BatchDecodeState, actor, mode: str, rng=None, want_step_probs: bool = False,
            forced_tours: np.ndarray | None = None):
    """The n decode steps of `rollout_batch` from a fresh state."""
    batch, n = state.enc.batch, state.enc.n
    tours = np.empty((batch, n), dtype=np.intp)
    rows = np.arange(batch)
    logp = None
    step_probs = [] if want_step_probs else None
    for t in range(n):
        probs = _decode_step_batch(state, actor)
        if want_step_probs:
            step_probs.append(probs.data.copy())
        if forced_tours is not None:
            chosen = forced_tours[:, t]
        elif mode == "sample":
            chosen = _sample_rows(probs.data, rng)
        else:
            chosen = probs.data.argmax(axis=1).astype(np.intp)
        picked = ad.gather_rows(ad.reshape(probs, (batch * n, 1)), rows * n + chosen)
        lp = ad.log(ad.reshape(picked, (batch,)))
        logp = lp if logp is None else ad.add(logp, lp)
        tours[:, t] = chosen
        state.advance(chosen)
    return tours, logp, step_probs


@dataclass
class _StackedDecoder:
    """The weights a decode step reads, one leading row per actor."""

    cfg: ModelConfig
    params: dict[str, ad.Array]


def greedy_tours(features: np.ndarray, actors) -> np.ndarray:
    """(M, n) greedy tours of one instance, row i under the i-th of `actors`.

    `actors` is any iterable of actors sharing one config and dtype. Each is
    encoded without a tape as soon as it is drawn; only its encodings, its
    key/value caches and the decoder weights are kept. These are stacked on a
    leading model axis, so the M actors are the batch rows of one
    `BatchDecodeState` and one n-step loop decodes them all. Row i equals the
    tour of `rollout_batch(features[None], actor_i, "greedy")`.
    """
    feats = np.asarray(features)[None, :, :]
    cfg = dtype = None
    encs, caches, weights = [], [], []
    with ad.no_grad():
        for actor in actors:
            if cfg is None:
                cfg, dtype = actor.cfg, actor.dtype
            elif (actor.cfg, actor.dtype) != (cfg, dtype):
                raise ContractError("greedy_tours needs actors of one model config and dtype")
            enc = encode_batch(feats, actor, "infer")
            encs.append(enc)
            caches.append(_DecoderCache(enc, actor))
            # The key/value projections are in the cache; the rest is read per step.
            weights.append({name: p.data for name, p in actor.params.items()
                            if name.startswith("dec.") and not name.endswith(("Wk", "Wv"))})
        if cfg is None:
            raise ContractError("greedy_tours needs at least one actor")
        enc = EncodedBatch(_stack_rows([e.nodes2d for e in encs]), _stack_rows([e.graph for e in encs]),
                           len(encs), feats.shape[1])
        state = BatchDecodeState(enc, _DecoderCache.stack(caches))
        decoder = _StackedDecoder(cfg, {name: ad.constant(np.stack([w[name] for w in weights]))
                                        for name in weights[0]})
        tours, _, _ = _decode(state, decoder, "greedy")
    return tours


class DecodeState:
    """Single-instance decoding state over a fixed encoding."""

    def __init__(self, inst: MotspInstance, actor: ActorParams, mode: str = "infer"):
        if inst.d_x != actor.cfg.d_x:
            raise DimensionError(f"instance d_x={inst.d_x} != model d_x={actor.cfg.d_x}")
        enc = encode_batch(inst.features[None, :, :], actor, mode)
        self._state = BatchDecodeState(enc, _DecoderCache(enc, actor))
        self.partial: list[int] = []

    @property
    def visited(self) -> np.ndarray:
        return self._state.visited[0]

    def visit(self, node: int) -> None:
        self._state.advance(np.array([node]))
        self.partial.append(int(node))


def decode_step(state: DecodeState, actor: ActorParams) -> np.ndarray:
    """Probability distribution over the next node; visited nodes get 0."""
    probs = _decode_step_batch(state._state, actor)
    return probs.data[0].copy()


def rollout(inst: MotspInstance, actor: ActorParams, mode: str = "greedy",
            seed: int | None = None) -> tuple[Tour, float]:
    """Encode once, decode n steps; returns the tour and its log-probability."""
    if inst.d_x != actor.cfg.d_x:
        raise DimensionError(f"instance d_x={inst.d_x} != model d_x={actor.cfg.d_x}")
    rng = np.random.default_rng(seed) if mode == "sample" else None
    tours, logp, _ = rollout_batch(inst.features[None, :, :], actor, mode, rng=rng)
    return Tour(tours[0]), float(logp.data[0])


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


def critic_value(inst: MotspInstance, critic: CriticParams) -> float:
    if inst.d_x != critic.channels[0][0]:
        raise DimensionError(f"instance d_x={inst.d_x} != critic input channels {critic.channels[0][0]}")
    return float(critic_batch(inst.features[None, :, :], critic).data[0])
