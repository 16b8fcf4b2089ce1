import gc
import math
import weakref

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
from paretotsp.trainer import (Adam, IterationMetrics, clip_gradients,
                               reinforce_iteration, sample_batch,
                               train_subproblem, write_metrics)

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
    rows = train_subproblem((0.5, 0.5), actor, critic,
                            tiny_run(n_nodes=4, batch_size=10, dataset_size=120), 1,
                            np.random.default_rng(0))
    assert len(rows) == 12


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


def test_an_actor_after_backward_and_adam_is_freed_without_the_cycle_collector():
    """Nothing on the tape or in the optimizer points back at the actor, so
    refcounting alone frees it once the caller lets go."""
    actor, _ = fresh_pair()
    rng = np.random.default_rng(1)
    gc.disable()
    try:
        _, logp, _ = rollout_batch(rng.random((4, 5, 4)), actor, rng=rng,
                                   bn_mode="train")
        ad.backward(ad.mean_over_axis(logp, 0))
        Adam(actor.trainable(), lr=1e-3).step()
        data = weakref.ref(actor.params["dec.Wq"].data)
        del actor, logp
        assert data() is None
    finally:
        gc.enable()


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
    before_a = {k: v.data.copy() for k, v in actor.params.items() if v.requires_grad}
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


def test_divergence_is_reported(monkeypatch, diverge_on_call):
    actor, critic = fresh_pair(3)
    actor.params["enc.init.W"].data[0, 0] = float("nan")
    cfg = tiny_run(n_nodes=4, batch_size=4, dataset_size=8)
    with pytest.raises(TrainingDivergedError) as err:
        reinforce_iteration((0.5, 0.5), actor, critic, cfg,
                            np.random.default_rng(0),
                            Adam(actor.trainable(), 1e-4),
                            Adam(critic.trainable(), 1e-4))
    assert "weights" in err.value.snapshot

    # train_subproblem adds the failing iteration and the last finite metrics row
    diverge_on_call(3)
    actor, critic = fresh_pair(3)
    with pytest.raises(TrainingDivergedError) as err:
        train_subproblem((0.5, 0.5), actor, critic, cfg, 2, np.random.default_rng(0))
    snapshot = err.value.snapshot
    assert snapshot["iteration"] == 3
    last = snapshot["last_metrics"]
    assert last["iteration"] == 2
    assert all(math.isfinite(last[k]) for k in ("mean_gws", "critic_loss", "grad_norm"))


def test_a_nan_born_in_the_taped_train_mode_encoder_stops_training():
    """No op result on the tape is checked: a float32 feed-forward weight
    scaled by 1e38 overflows, batch norm turns the Inf into NaN, and the
    encoding check in the sampling loop stops the first iteration."""
    actor, critic = fresh_pair(3, dtype=np.float32)
    actor.params["enc.l1.ff.W1"].data = actor.params["enc.l1.ff.W1"].data * np.float32(1e38)
    cfg = tiny_run(n_nodes=4, batch_size=4, dataset_size=8)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDivergedError, match="'encode_batch'") as err:
            train_subproblem((0.5, 0.5), actor, critic, cfg, 1, np.random.default_rng(0))
    assert err.value.snapshot["iteration"] == 1
    assert err.value.snapshot["last_metrics"] is None


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
        tours, logp, _ = rollout_batch(feats, actor, rng=np.random.default_rng(23),
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
    tour, _ = rollout(inst, actor)
    got = evaluate_objectives(inst.features, tour[None])[0] @ w
    assert got == pytest.approx(best, abs=1e-9)


# ---------------------------------------------------------------------------
# full subproblem runs


def test_zero_epochs_changes_nothing(tmp_path):
    actor, critic = fresh_pair(4)
    before = {k: v.data.copy() for k, v in actor.params.items()}
    cfg = tiny_run(n_nodes=4, batch_size=4, dataset_size=8)
    rows = train_subproblem((0.5, 0.5), actor, critic, cfg, 0, np.random.default_rng(0),
                            metrics_path=tmp_path / "metrics.csv")
    assert rows == []
    assert (tmp_path / "metrics.csv").read_text() == "iteration,mean_gws,critic_loss,grad_norm,seconds\n"
    for k, v in before.items():
        np.testing.assert_array_equal(actor.params[k].data, v)


def test_metrics_file_rewritten_each_epoch(tmp_path, monkeypatch):
    """The header is written at once, then every row so far after each epoch."""
    actor, critic = fresh_pair(5)
    cfg = tiny_run(n_nodes=4, batch_size=4, dataset_size=12)
    path = tmp_path / "metrics.csv"
    seen = []

    def spy(p, rows):
        write_metrics(p, rows)
        seen.append(len(path.read_text().splitlines()) - 1)

    monkeypatch.setattr(trainer_mod, "write_metrics", spy)
    rows = train_subproblem((0.5, 0.5), actor, critic, cfg, 2, np.random.default_rng(0),
                            metrics_path=path)
    assert seen == [0, 3, 6]
    assert [r.iteration for r in rows] == [1, 2, 3, 4, 5, 6]


def test_training_is_deterministic():
    runs, finals = [], []
    for _ in range(2):
        actor, critic = fresh_pair(6)
        cfg = tiny_run(n_nodes=4, batch_size=8, dataset_size=80)
        runs.append(train_subproblem((0.4, 0.6), actor, critic, cfg, 1, np.random.default_rng(9)))
        finals.append({k: v.data.copy() for k, v in actor.params.items()})
    for a, b in zip(runs[0], runs[1]):
        assert (a.iteration, a.mean_gws, a.critic_loss, a.grad_norm) == \
            (b.iteration, b.mean_gws, b.critic_loss, b.grad_norm)
    for k in finals[0]:
        np.testing.assert_array_equal(finals[0][k], finals[1][k])


def test_costs_improve_on_a_small_run():
    actor, critic = fresh_pair(7)
    cfg = tiny_run(n_nodes=8, batch_size=32, dataset_size=32 * 200,
                      lr_actor=3e-3, lr_critic=3e-3)
    rows = train_subproblem((0.5, 0.5), actor, critic, cfg, 1, np.random.default_rng(11))
    gws = [r.mean_gws for r in rows]
    losses = [r.critic_loss for r in rows]
    assert np.mean(gws[-20:]) < 0.95 * np.mean(gws[:20])
    assert np.mean(losses[-20:]) < 0.2 * np.mean(losses[:20])


# ---------------------------------------------------------------------------
# metrics file


def test_report_round_trips_through_csv(tmp_path):
    rows = [
        IterationMetrics(1, 1.2345678901234567, 0.5, 2.0, 0.001),
        IterationMetrics(2, 1.0, 1.0 / 3.0, 0.125, 0.002),
    ]
    path = tmp_path / "metrics.csv"
    write_metrics(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,mean_gws,critic_loss,grad_norm,seconds"
    assert len(lines) == 3
    for row, line in zip(rows, lines[1:]):
        cells = line.split(",")
        assert int(cells[0]) == row.iteration
        assert float(cells[1]) == row.mean_gws
        assert float(cells[2]) == row.critic_loss
        assert float(cells[3]) == row.grad_norm
        assert float(cells[4]) == row.seconds
