"""REINFORCE with a learned critic baseline.

One iteration samples a fresh batch of instances, rolls the policy out in
sample mode, scores each tour by the weighted sum of its objectives, and
applies two Adam updates: the actor follows (1/B) Σ (cost − baseline) ∇ log p
with the advantage held constant, and the critic regresses its baseline onto
the observed costs by mean squared error. A subproblem run is E epochs of
T = D / B such iterations.

Sizes and optimizer settings are read by attribute from the run's checked
`RunConfig`; `decomposition`, which defines it, imports this module.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, astuple, dataclass, fields

import numpy as np

from . import autodiff as ad
from .errors import NonFiniteError, TrainingDivergedError, format_float, write_file
from .instances import tour_costs_batch
from .model import ActorParams, CriticParams, critic_batch, rollout_batch


@dataclass(frozen=True)
class IterationMetrics:
    """One row of the metrics file; the fields are its columns, in order."""

    iteration: int
    mean_gws: float
    critic_loss: float
    grad_norm: float
    seconds: float


def write_metrics(path, rows: list[IterationMetrics]) -> None:
    """The rows as CSV under a header of `IterationMetrics`' field names;
    floats print with 17 significant digits."""
    lines = [",".join(f.name for f in fields(IterationMetrics))]
    lines += [",".join(map(format_float, astuple(r))) for r in rows]
    write_file(path, ("\n".join(lines) + "\n").encode("ascii"))


class Adam:
    """Adam over a fixed parameter list, with bias correction."""

    def __init__(self, params: list[ad.Array], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            if g is None:
                continue
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p.data = p.data - (self.lr / bias1) * m / (np.sqrt(v / bias2) + self.eps)


def clip_gradients(params: list[ad.Array], max_norm: float) -> float:
    """Scale all gradients so their global norm is at most max_norm.

    Returns the pre-clip norm.
    """
    norm = ad.global_grad_norm(params)
    if not math.isfinite(norm):
        raise TrainingDivergedError("non-finite gradient norm", snapshot={"grad_norm": norm})
    if norm > max_norm and norm > 0.0:
        factor = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad = p.grad * factor
    return norm


def sample_batch(cfg, rng: np.random.Generator, d_x: int) -> np.ndarray:
    """B fresh instances with features uniform on [0, 1)."""
    return rng.random((cfg.batch_size, cfg.n_nodes, d_x))


def reinforce_iteration(weights, actor: ActorParams, critic: CriticParams,
                        cfg, rng: np.random.Generator,
                        actor_opt: Adam, critic_opt: Adam) -> dict:
    """One Adam update of actor and critic from a fresh sampled batch."""
    w = np.asarray(weights, dtype=np.float64)
    feats = sample_batch(cfg, rng, actor.cfg.d_x)
    try:
        tours, logp, _ = rollout_batch(feats, actor, rng=rng, bn_mode="train")
        costs = tour_costs_batch(feats, tours)          # (B, m)
        gws = costs @ w                                 # (B,) constants
        baseline = critic_batch(feats, critic)          # (B,) on the tape

        advantage = (gws - baseline.data).astype(actor.dtype)
        actor_loss = ad.mean_over_axis(ad.mul(logp, ad.constant(advantage)), 0)
        resid = ad.add(baseline, ad.constant(-gws, dtype=critic.dtype))
        critic_loss = ad.mean_over_axis(ad.mul(resid, resid), 0)
        actor.zero_grad()
        critic.zero_grad()
        # The two graphs share no node (the advantage is a constant), so one
        # sweep gives each side exactly the gradients of its own loss.
        ad.backward(ad.add(actor_loss, critic_loss))
        grad_norm = clip_gradients(actor.trainable(), cfg.clip_norm)
        actor_opt.step()
        clip_gradients(critic.trainable(), cfg.clip_norm)
        critic_opt.step()
    except NonFiniteError as exc:
        raise TrainingDivergedError(
            f"iteration aborted: {exc}",
            snapshot={"weights": w.tolist()}) from exc

    return {
        "mean_gws": float(gws.mean()),
        "critic_loss": float(critic_loss.data),
        "grad_norm": float(grad_norm),
    }


def train_subproblem(weights, actor: ActorParams, critic: CriticParams,
                     cfg, epochs: int, rng: np.random.Generator,
                     metrics_path=None) -> list[IterationMetrics]:
    """`epochs` epochs of T = D/B iterations on one weight vector; mutates the params.

    Returns one `IterationMetrics` row per iteration. Given `metrics_path`,
    writes the header there at once and all rows so far after each epoch.
    Deterministic for a fixed rng state. A `TrainingDivergedError` leaves
    with the failing `iteration` and the `last_metrics` row before it (None
    on the first) in its snapshot.
    """
    actor_opt = Adam(actor.trainable(), cfg.lr_actor, cfg.beta1, cfg.beta2, cfg.eps)
    critic_opt = Adam(critic.trainable(), cfg.lr_critic, cfg.beta1, cfg.beta2, cfg.eps)
    rows: list[IterationMetrics] = []
    if metrics_path is not None:
        write_metrics(metrics_path, rows)
    for _ in range(epochs):
        for _ in range(cfg.dataset_size // cfg.batch_size):
            started = time.perf_counter()
            try:
                metrics = reinforce_iteration(weights, actor, critic, cfg, rng, actor_opt, critic_opt)
            except TrainingDivergedError as exc:
                exc.snapshot["iteration"] = len(rows) + 1
                exc.snapshot["last_metrics"] = asdict(rows[-1]) if rows else None
                raise
            rows.append(IterationMetrics(iteration=len(rows) + 1, **metrics,
                                         seconds=time.perf_counter() - started))
        if metrics_path is not None:
            write_metrics(metrics_path, rows)
    return rows
