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
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import NonFiniteError, TrainingDivergedError
from .instances import tour_costs_batch
from .model import ActorParams, CriticParams, critic_batch, rollout_batch


@dataclass(frozen=True)
class IterationMetrics:
    iteration: int
    mean_gws: float
    critic_loss: float
    grad_norm: float
    seconds: float


@dataclass
class TrainReport:
    rows: list[IterationMetrics] = field(default_factory=list)

    def write_csv(self, path) -> None:
        lines = ["iteration,mean_gws,critic_loss,grad_norm,seconds"]
        for r in self.rows:
            lines.append(",".join([
                str(r.iteration),
                format(r.mean_gws, ".17g"),
                format(r.critic_loss, ".17g"),
                format(r.grad_norm, ".17g"),
                format(r.seconds, ".17g"),
            ]))
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")


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
        tours, logp, _ = rollout_batch(feats, actor, mode="sample", rng=rng, bn_mode="train")
        costs = tour_costs_batch(feats, tours)          # (B, m)
        gws = costs @ w                                 # (B,) constants
        baseline = critic_batch(feats, critic)          # (B,) on the tape

        advantage = (gws - baseline.data).astype(actor.dtype)
        actor_loss = ad.mean_over_axis(ad.mul(logp, ad.constant(advantage)), 0)
        actor.zero_grad()
        ad.backward(actor_loss)
        grad_norm = clip_gradients(actor.trainable(), cfg.clip_norm)
        actor_opt.step()

        resid = ad.add(baseline, ad.constant(-gws, dtype=critic.dtype))
        critic_loss = ad.mean_over_axis(ad.mul(resid, resid), 0)
        critic.zero_grad()
        ad.backward(critic_loss)
        clip_gradients(critic.trainable(), cfg.clip_norm)
        critic_opt.step()
    except NonFiniteError as exc:
        raise TrainingDivergedError(
            f"iteration aborted: {exc}",
            snapshot={"weights": w.tolist(), "mean_gws": float("nan")}) from exc

    return {
        "mean_gws": float(gws.mean()),
        "critic_loss": float(critic_loss.data),
        "grad_norm": float(grad_norm),
    }


def train_subproblem(weights, actor: ActorParams, critic: CriticParams,
                     cfg, epochs: int, rng: np.random.Generator,
                     epoch_callback=None) -> TrainReport:
    """`epochs` epochs of T = D/B iterations on one weight vector; mutates the params.

    `epoch_callback(epoch, actor, critic, report)` runs after each epoch —
    the hook for per-epoch metrics. Deterministic for a fixed rng state.
    """
    actor_opt = Adam(actor.trainable(), cfg.lr_actor, cfg.beta1, cfg.beta2, cfg.eps)
    critic_opt = Adam(critic.trainable(), cfg.lr_critic, cfg.beta1, cfg.beta2, cfg.eps)
    report = TrainReport()
    iteration = 0
    for epoch in range(1, epochs + 1):
        for _ in range(cfg.dataset_size // cfg.batch_size):
            iteration += 1
            started = time.perf_counter()
            metrics = reinforce_iteration(weights, actor, critic, cfg, rng, actor_opt, critic_opt)
            report.rows.append(IterationMetrics(
                iteration=iteration,
                mean_gws=metrics["mean_gws"],
                critic_loss=metrics["critic_loss"],
                grad_norm=metrics["grad_norm"],
                seconds=time.perf_counter() - started,
            ))
        if epoch_callback is not None:
            epoch_callback(epoch, actor, critic, report)
    return report
