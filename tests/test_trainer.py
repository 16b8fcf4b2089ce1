import math

import numpy as np
import pytest

from oracles import enumerate_objectives
from paretotsp import autodiff as ad
from paretotsp import trainer as trainer_mod
from paretotsp.decomposition import RunConfig
from paretotsp.errors import ContractError, TrainingDivergedError
from paretotsp.instances import MotspInstance, evaluate_objectives
from paretotsp.model import (ActorParams, CriticParams, ModelConfig, rollout,
                             rollout_batch)
from paretotsp.trainer import (Adam, TrainReport, IterationMetrics, clip_gradients,
                               reinforce_iteration, sample_batch,
                               train_subproblem)

TINY = ModelConfig(d_h=8, n_heads=2, d_ff=16)


def tiny_run(**kw):
    """A run config whose model fields describe TINY."""
    return RunConfig(d_h=TINY.d_h, n_heads=TINY.n_heads, d_ff=TINY.d_ff, **kw)


def fresh_pair(seed=0, dtype=np.float64):
    rng = np.random.default_rng(seed)
    return (ActorParams.init(TINY, rng, dtype=dtype),
            CriticParams.init(rng, dtype=dtype))


# ---------------------------------------------------------------------------
# config


def test_config_validation():
    for bad in (dict(batch_size=1), dict(batch_size=3, dataset_size=100), dict(n_nodes=1),
                dict(epochs_first=-1), dict(epochs_rest=-1)):
        with pytest.raises(ContractError):
            tiny_run(**bad)


def test_config_iteration_count():
    """An epoch is dataset_size // batch_size iterations: 2500 by default."""
    assert RunConfig().dataset_size // RunConfig().batch_size == 2500
    actor, critic = fresh_pair(0)
    report = train_subproblem((0.5, 0.5), actor, critic,
                              tiny_run(n_nodes=4, batch_size=10, dataset_size=120), 1,
                              np.random.default_rng(0))
    assert len(report.rows) == 12


# ---------------------------------------------------------------------------
# optimizer


def test_adam_single_step_matches_textbook():
    p = ad.param(np.array([1.0, -2.0]))
    opt = Adam([p], lr=0.1)
    p.grad = np.array([0.5, -1.5])
    opt.step()

    m = 0.1 * np.array([0.5, -1.5])
    v = 0.001 * np.array([0.25, 2.25])
    mh, vh = m / 0.1, v / 0.001
    expected = np.array([1.0, -2.0]) - 0.1 * mh / (np.sqrt(vh) + 1e-8)
    np.testing.assert_allclose(p.data, expected, atol=1e-12)


def test_adam_two_steps_accumulate_moments():
    p = ad.param(np.array([0.0]))
    opt = Adam([p], lr=0.01)
    p.grad = np.array([1.0])
    opt.step()
    first = p.data.copy()
    p.grad = np.array([1.0])
    opt.step()
    assert opt.t == 2
    # both steps move downhill, and by different amounts
    assert first[0] < 0.0 and p.data[0] < first[0]
    assert abs((p.data[0] - first[0]) - first[0]) > 0.0


def test_adam_skips_missing_gradients():
    p = ad.param(np.array([3.0]))
    q = ad.param(np.array([4.0]))
    q.grad = np.array([1.0])
    opt = Adam([p, q], lr=0.1)
    opt.step()
    assert p.data[0] == 3.0
    assert q.data[0] != 4.0


# ---------------------------------------------------------------------------
# clipping


def test_clip_rescales_to_max_norm():
    p = ad.param(np.array([3.0]))
    q = ad.param(np.array([4.0]))
    p.grad, q.grad = np.array([3.0]), np.array([4.0])
    norm = clip_gradients([p, q], 2.0)
    assert abs(norm - 5.0) < 1e-12
    assert abs(ad.global_grad_norm([p, q]) - 2.0) < 1e-12


def test_clip_leaves_small_gradients_alone():
    p = ad.param(np.array([0.3]))
    p.grad = np.array([0.3])
    norm = clip_gradients([p], 2.0)
    assert norm == pytest.approx(0.3)
    assert p.grad[0] == 0.3


def test_clip_zero_and_missing():
    p = ad.param(np.array([1.0]))
    p.grad = np.array([0.0])
    q = ad.param(np.array([1.0]))          # grad None
    assert clip_gradients([p, q], 2.0) == 0.0


def test_clip_rejects_nonfinite():
    p = ad.param(np.array([1.0]))
    p.grad = np.array([float("inf")])
    with pytest.raises(TrainingDivergedError):
        clip_gradients([p], 2.0)


# ---------------------------------------------------------------------------
# batch sampling


def test_sample_batch_shape_range_determinism():
    cfg = tiny_run(n_nodes=6, batch_size=4, dataset_size=8)
    a = sample_batch(cfg, np.random.default_rng(5), 4)
    b = sample_batch(cfg, np.random.default_rng(5), 4)
    assert a.shape == (4, 6, 4)
    assert np.all((a >= 0.0) & (a < 1.0))
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# one REINFORCE iteration


def degenerate_batch(cfg, rng, d_x):
    # every node at the same point: all tours cost exactly zero
    return np.full((cfg.batch_size, cfg.n_nodes, d_x), 0.5)


def test_zero_signal_is_a_fixed_point(monkeypatch):
    """Zero cost and zero baseline: neither parameter set may move."""
    monkeypatch.setattr(trainer_mod, "sample_batch", degenerate_batch)
    actor, critic = fresh_pair(1)
    for p in critic.params.values():
        p.data = np.zeros_like(p.data)
    cfg = tiny_run(n_nodes=4, batch_size=4, dataset_size=8)
    before_a = {k: v.data.copy() for k, v in actor.params.items()}
    before_c = {k: v.data.copy() for k, v in critic.params.items()}

    actor_opt = Adam(actor.trainable(), cfg.lr_actor)
    critic_opt = Adam(critic.trainable(), cfg.lr_critic)
    metrics = reinforce_iteration((0.5, 0.5), actor, critic, cfg,
                                  np.random.default_rng(0), actor_opt, critic_opt)

    assert metrics["mean_gws"] == 0.0
    assert metrics["critic_loss"] == 0.0
    assert metrics["grad_norm"] == 0.0
    for k, v in before_a.items():
        np.testing.assert_array_equal(actor.params[k].data, v)
    for k, v in before_c.items():
        np.testing.assert_array_equal(critic.params[k].data, v)


def test_iteration_metrics_are_finite_and_positive():
    actor, critic = fresh_pair(2)
    cfg = tiny_run(n_nodes=5, batch_size=8, dataset_size=16)
    actor_opt = Adam(actor.trainable(), cfg.lr_actor)
    critic_opt = Adam(critic.trainable(), cfg.lr_critic)
    metrics = reinforce_iteration((0.3, 0.7), actor, critic, cfg,
                                  np.random.default_rng(3), actor_opt, critic_opt)
    assert metrics["mean_gws"] > 0.0
    assert metrics["critic_loss"] > 0.0
    assert metrics["grad_norm"] >= 0.0
    assert all(math.isfinite(v) for v in metrics.values())


def test_divergence_is_reported(monkeypatch):
    actor, critic = fresh_pair(3)
    actor.params["enc.init.W"].data[0, 0] = float("nan")
    cfg = tiny_run(n_nodes=4, batch_size=4, dataset_size=8)
    with pytest.raises(TrainingDivergedError) as err:
        reinforce_iteration((0.5, 0.5), actor, critic, cfg,
                            np.random.default_rng(0),
                            Adam(actor.trainable(), 1e-4),
                            Adam(critic.trainable(), 1e-4))
    assert "weights" in err.value.snapshot


def test_actor_gradient_invariant_to_common_cost_shift():
    """Adding one constant to every cost and to the baseline must not move
    the actor gradient.  Dyadic-rational values keep the float arithmetic
    exact, so the comparison can be bitwise."""
    g = np.array([1.25, -0.5, 3.0, 0.0625, -2.75, 0.5, 1.0, -0.125])
    b = np.array([0.5, 0.25, -1.5, 0.125, 0.75, -0.375, 2.0, 1.0])
    k = 5.53125
    assert np.array_equal(g - b, (g + k) - (b + k))

    feats = np.random.default_rng(21).random((8, 5, 4))
    grads = []
    for adv in (g - b, (g + k) - (b + k)):
        actor, _ = fresh_pair(22)
        tours, logp, _ = rollout_batch(feats, actor, mode="sample",
                                       rng=np.random.default_rng(23),
                                       bn_mode="train")
        loss = ad.mean_over_axis(ad.mul(logp, ad.constant(adv)), 0)
        actor.zero_grad()
        ad.backward(loss)
        grads.append({k_: p.grad.copy() for k_, p in actor.params.items()
                      if p.grad is not None})
    assert grads[0].keys() == grads[1].keys()
    for name in grads[0]:
        np.testing.assert_array_equal(grads[0][name], grads[1][name])


def test_policy_learns_to_prefer_the_cheapest_tour(monkeypatch):
    """On one fixed 4-node instance the greedy tour must reach the cheapest
    of the three tour classes within 200 iterations."""
    feats = np.random.default_rng(31).random((4, 4))
    w = np.array([0.5, 0.5])
    _, objs = enumerate_objectives(feats)
    best = (objs @ w).min()

    monkeypatch.setattr(trainer_mod, "sample_batch",
                        lambda cfg, rng, d_x: np.broadcast_to(feats, (16, 4, 4)).copy())
    actor, critic = fresh_pair(8)
    cfg = tiny_run(n_nodes=4, batch_size=16, dataset_size=32,
                      lr_actor=3e-3, lr_critic=3e-3)
    actor_opt = Adam(actor.trainable(), cfg.lr_actor)
    critic_opt = Adam(critic.trainable(), cfg.lr_critic)
    rng = np.random.default_rng(17)
    for _ in range(200):
        reinforce_iteration(w, actor, critic, cfg, rng, actor_opt, critic_opt)

    inst = MotspInstance(feats)
    tour, _ = rollout(inst, actor, mode="greedy")
    got = evaluate_objectives(inst, tour) @ w
    assert got == pytest.approx(best, abs=1e-9)


# ---------------------------------------------------------------------------
# full subproblem runs


def test_zero_epochs_changes_nothing():
    actor, critic = fresh_pair(4)
    before = {k: v.data.copy() for k, v in actor.params.items()}
    calls = []
    cfg = tiny_run(n_nodes=4, batch_size=4, dataset_size=8)
    report = train_subproblem((0.5, 0.5), actor, critic, cfg, 0, np.random.default_rng(0),
                              epoch_callback=lambda *a: calls.append(a))
    assert report.rows == []
    assert calls == []
    for k, v in before.items():
        np.testing.assert_array_equal(actor.params[k].data, v)


def test_epoch_callback_cadence():
    actor, critic = fresh_pair(5)
    cfg = tiny_run(n_nodes=4, batch_size=4, dataset_size=12)
    seen = []
    train_subproblem((0.5, 0.5), actor, critic, cfg, 2, np.random.default_rng(0),
                     epoch_callback=lambda e, a, c, r: seen.append((e, len(r.rows))))
    assert seen == [(1, 3), (2, 6)]


def test_training_is_deterministic():
    reports, finals = [], []
    for _ in range(2):
        actor, critic = fresh_pair(6)
        cfg = tiny_run(n_nodes=4, batch_size=8, dataset_size=80)
        reports.append(train_subproblem((0.4, 0.6), actor, critic, cfg, 1, np.random.default_rng(9)))
        finals.append({k: v.data.copy() for k, v in actor.params.items()})
    for a, b in zip(reports[0].rows, reports[1].rows):
        assert (a.iteration, a.mean_gws, a.critic_loss, a.grad_norm) == \
            (b.iteration, b.mean_gws, b.critic_loss, b.grad_norm)
    for k in finals[0]:
        np.testing.assert_array_equal(finals[0][k], finals[1][k])


def test_costs_improve_on_a_small_run():
    actor, critic = fresh_pair(7)
    cfg = tiny_run(n_nodes=8, batch_size=32, dataset_size=32 * 200,
                      lr_actor=3e-3, lr_critic=3e-3)
    report = train_subproblem((0.5, 0.5), actor, critic, cfg, 1, np.random.default_rng(11))
    gws = [r.mean_gws for r in report.rows]
    losses = [r.critic_loss for r in report.rows]
    assert np.mean(gws[-20:]) < 0.95 * np.mean(gws[:20])
    assert np.mean(losses[-20:]) < 0.2 * np.mean(losses[:20])


# ---------------------------------------------------------------------------
# metrics file


def test_report_round_trips_through_csv(tmp_path):
    report = TrainReport(rows=[
        IterationMetrics(1, 1.2345678901234567, 0.5, 2.0, 0.001),
        IterationMetrics(2, 1.0, 1.0 / 3.0, 0.125, 0.002),
    ])
    path = tmp_path / "metrics.csv"
    report.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,mean_gws,critic_loss,grad_norm,seconds"
    assert len(lines) == 3
    for row, line in zip(report.rows, lines[1:]):
        cells = line.split(",")
        assert int(cells[0]) == row.iteration
        assert float(cells[1]) == row.mean_gws
        assert float(cells[2]) == row.critic_loss
        assert float(cells[3]) == row.grad_norm
        assert float(cells[4]) == row.seconds
