"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single PASS/FAIL line with its measured numbers, so a
full run reads as a scorecard. The training-backed checks (4, 5, 7) use the
desk-scale configurations validated during development; thresholds are the
published ones.
"""

import time

import numpy as np
import pytest

from paretotsp import autodiff as ad
from paretotsp import decomposition as dec
from paretotsp.cli import main
from paretotsp.decomposition import RunConfig, checkpoint_name, run_schedule
from paretotsp.evaluation import (ArchiveEntry, ParetoArchive, approximate_pf,
                                  compute_hv_protocol, hypervolume_2d,
                                  pareto_filter_indices)
from paretotsp.instances import (MotspInstance, Tour, evaluate_objectives,
                                 tour_costs_batch)
from paretotsp.model import (ActorParams, CriticParams, ModelConfig,
                             critic_batch, rollout_batch)
from paretotsp.trainer import train_subproblem

from oracles import (check_gradients, enumerate_objectives, hv_grid,
                     pareto_brute, tour_objectives_slow)
from test_autodiff import FD_EPS, _op_cases

PIPE_CFG = ModelConfig(d_h=8, n_heads=2, d_ff=16)

DESK_DIMS = dict(d_h=16, n_heads=2, d_ff=64, batch_size=64,
                 dataset_size=32000, lr_actor=1e-3, lr_critic=1e-3)


def report(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"\n[{num}/8] {name}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# 1. gradients: every op and the full actor+critic pipeline vs central
#    finite differences


def _pipeline_error(seed: int) -> float:
    rng = np.random.default_rng(seed)
    feats = rng.random((2, 4, 4))
    actor = ActorParams.init(PIPE_CFG, rng, dtype=np.float64)
    critic = CriticParams.init(rng, dtype=np.float64)
    tours, _, _ = rollout_batch(feats, actor, mode="sample",
                                rng=np.random.default_rng(seed + 1), bn_mode="train")
    gws = tour_costs_batch(feats, tours) @ np.array([0.6, 0.4])
    adv = rng.standard_normal(2)

    actor_state = {k: v.copy() for k, v in actor.state_arrays().items()}
    critic_state = {k: v.copy() for k, v in critic.state_arrays().items()}
    a_names = sorted(actor.params)
    c_names = sorted(critic.params)
    picked_a = a_names[seed % len(a_names)]
    picked_c = c_names[seed % len(c_names)]

    def build(leaves):
        a2 = ActorParams.init(PIPE_CFG, np.random.default_rng(0), dtype=np.float64)
        a2.load_state(actor_state)
        c2 = CriticParams.init(np.random.default_rng(0), dtype=np.float64)
        c2.load_state(critic_state)
        a2.params[picked_a] = leaves[0]
        c2.params[picked_c] = leaves[1]
        # batch-norm scale/shift are read through the BN state, not the dict
        base, _, attr = picked_a.rpartition(".")
        if base in a2.bn:
            setattr(a2.bn[base], attr, leaves[0])
        _, logp, _ = rollout_batch(feats, a2, mode="sample", bn_mode="train",
                                   forced_tours=tours)
        actor_term = ad.mean_over_axis(ad.mul(logp, ad.constant(adv)), 0)
        resid = ad.add(critic_batch(feats, c2), ad.constant(-gws))
        critic_term = ad.mean_over_axis(ad.mul(resid, resid), 0)
        return ad.add(actor_term, critic_term)

    inputs = [actor.params[picked_a].data.copy(), critic.params[picked_c].data.copy()]
    return check_gradients(build, inputs, eps=FD_EPS, coords=4,
                           rng=np.random.default_rng(seed + 2))


def test_gradient_checks(capsys):
    started = time.perf_counter()
    worst_op = 0.0
    for seed in range(100):
        for _, build, inputs in _op_cases(np.random.default_rng(seed)):
            worst_op = max(worst_op, check_gradients(build, inputs, eps=FD_EPS))
    worst_pipe = max(_pipeline_error(seed) for seed in range(100))
    elapsed = time.perf_counter() - started
    ok = worst_op < 1e-4 and worst_pipe < 1e-3 and elapsed < 60.0
    report(capsys, 1, "gradient checks", ok,
           f"max op err {worst_op:.2e} < 1e-4, max pipeline err {worst_pipe:.2e} "
           f"< 1e-3, 100 seeds in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. rollout validity: permutations, exact masking, normalized distributions


def test_rollout_validity(capsys):
    total = 0
    worst_sum = 0.0
    rng = np.random.default_rng(7)
    actor = ActorParams.init(PIPE_CFG, rng, dtype=np.float64)
    for n, runs in ((2, 2000), (5, 4000), (20, 4000)):
        feats = rng.random((runs, n, 4))
        tours, _, probs = rollout_batch(feats, actor, mode="sample",
                                        rng=np.random.default_rng(n),
                                        want_step_probs=True)
        assert np.all(np.sort(tours, axis=1) == np.arange(n)), f"invalid tour at n={n}"
        for t, p in enumerate(probs):
            worst_sum = max(worst_sum, np.abs(p.sum(axis=1) - 1.0).max())
            if t > 0:
                visited = np.take_along_axis(p, tours[:, :t], axis=1)
                assert np.all(visited == 0.0), f"nonzero visited probability at n={n}"
        total += runs
    ok = total == 10_000 and worst_sum <= 1e-9
    report(capsys, 2, "rollout validity", ok,
           f"{total} rollouts over n in (2, 5, 20), all permutations, visited "
           f"probs exactly 0, max |sum-1| {worst_sum:.1e} <= 1e-9")


# ---------------------------------------------------------------------------
# 3. oracle agreement: pareto filter, hypervolume, tour objectives


def test_oracle_agreement(capsys):
    for seed in range(100):
        pts = np.random.default_rng(seed).random((200, 2))
        fast = pareto_filter_indices(pts)
        assert list(fast) == pareto_brute(pts), f"pareto mismatch at seed {seed}"

    worst_hv = 0.0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        pts = rng.uniform(0.0, 1.1, (rng.integers(1, 11), 2))
        worst_hv = max(worst_hv, abs(hypervolume_2d(pts) - hv_grid(pts, (1.2, 1.2))))

    worst_obj = 0.0
    for seed in range(20):
        feats = np.random.default_rng(2000 + seed).random((4, 4))
        inst = MotspInstance(feats)
        tours, objs = enumerate_objectives(feats)
        slow = np.array([tour_objectives_slow(feats, t) for t in tours])
        fast = np.array([evaluate_objectives(inst, Tour(tuple(t))) for t in tours])
        worst_obj = max(worst_obj, np.abs(fast - slow).max(),
                        np.abs(fast.min(axis=0) - slow.min(axis=0)).max(),
                        np.abs(fast.max(axis=0) - slow.max(axis=0)).max())

    ok = worst_hv < 1e-3 and worst_obj < 1e-12
    report(capsys, 3, "oracle agreement", ok,
           f"pareto filter exact on 100x200 points, hv vs grid {worst_hv:.2e} "
           f"< 1e-3, objective extremes vs enumeration {worst_obj:.1e}")


# ---------------------------------------------------------------------------
# 4. small-instance optimality: desk-trained models vs exhaustive enumeration


def test_small_instance_optimality(capsys, tmp_path):
    started = time.perf_counter()
    cfg = RunConfig(n_nodes=8, m_sub=5, epochs_first=1, epochs_rest=1,
                    seed=0, **DESK_DIMS)
    actors = run_schedule(cfg, tmp_path)
    weights = cfg.schedule().weights

    feats = np.random.default_rng(999).random((20, 8, 4))
    opts = np.array([[(enumerate_objectives(feats[b])[1] @ w).min() for w in weights]
                     for b in range(20)])
    gaps = np.zeros((20, 5))
    for i, actor in enumerate(actors):
        tours, _, _ = rollout_batch(feats, actor, mode="greedy")
        gaps[:, i] = (tour_costs_batch(feats, tours) @ weights[i]) / opts[:, i] - 1.0
    elapsed = time.perf_counter() - started

    ok = gaps.mean() <= 0.15 and elapsed <= 900.0 and gaps.max() <= 0.5
    report(capsys, 4, "small-instance optimality", ok,
           f"mean greedy gap {gaps.mean():.3f} <= 0.15 over 20 instances x 5 "
           f"subproblems (worst point {gaps.max():.3f}), {elapsed:.0f}s <= 900s")


# ---------------------------------------------------------------------------
# 5. training improvement: final-50 sampled cost < 0.8 x first-50


def test_training_improvement(capsys):
    rng = np.random.default_rng(np.random.SeedSequence([0, 0]))
    actor = ActorParams.init(ModelConfig(d_h=16, n_heads=2, d_ff=64), rng,
                             dtype=np.float32)
    critic = CriticParams.init(rng, dtype=np.float32)
    cfg = RunConfig(n_nodes=10, **DESK_DIMS)
    rep = train_subproblem((0.5, 0.5), actor, critic, cfg, 8,
                           rng=np.random.default_rng(np.random.SeedSequence([0, 1])))
    gws = [r.mean_gws for r in rep.rows]
    first, last = np.mean(gws[:50]), np.mean(gws[-50:])
    ok = last < 0.8 * first
    report(capsys, 5, "training improvement", ok,
           f"final-50 mean {last:.3f} vs first-50 {first:.3f}, "
           f"ratio {last / first:.3f} < 0.8 at n=10, lambda=(0.5, 0.5)")


# ---------------------------------------------------------------------------
# 6. parameter transfer: zero rest epochs copy checkpoints; subproblem i
#    starts from exactly i-1's final parameters


def test_parameter_transfer(capsys, tmp_path, monkeypatch):
    tiny = dict(d_h=8, n_heads=2, d_ff=16, n_nodes=4, batch_size=4,
                dataset_size=8, seed=2)
    frozen = RunConfig(m_sub=4, epochs_first=1, epochs_rest=0, **tiny)
    run_schedule(frozen, tmp_path / "frozen")
    first = (tmp_path / "frozen" / checkpoint_name(1)).read_bytes()
    copies_ok = all((tmp_path / "frozen" / checkpoint_name(i)).read_bytes() == first
                    for i in range(2, 5))

    starts = {}
    real = dec.train_subproblem

    def spy(weights, actor, critic, cfg, epochs, rng=None, epoch_callback=None):
        starts[len(starts) + 1] = dec.pack_models(actor, critic)
        return real(weights, actor, critic, cfg, epochs, rng=rng, epoch_callback=epoch_callback)

    monkeypatch.setattr(dec, "train_subproblem", spy)
    live = RunConfig(m_sub=3, epochs_first=1, epochs_rest=1, **tiny)
    run_schedule(live, tmp_path / "live")
    transfer_ok = True
    for i in (2, 3):
        final_prev = dec.read_checkpoint(tmp_path / "live" / checkpoint_name(i - 1))
        for k, v in starts[i].items():
            transfer_ok &= np.array_equal(np.asarray(v, dtype=np.float32), final_prev[k])

    ok = copies_ok and transfer_ok
    report(capsys, 6, "parameter transfer", ok,
           "zero rest epochs give 4 identical checkpoints; subproblems 2..3 "
           "start bitwise from their predecessor's final parameters")


# ---------------------------------------------------------------------------
# 7. hypervolume advantage: desk-trained front vs random-permutation front


def test_hypervolume_advantage(capsys, tmp_path):
    cfg = RunConfig(n_nodes=20, m_sub=10, epochs_first=5, epochs_rest=1,
                    seed=0, **DESK_DIMS)
    actors = run_schedule(cfg, tmp_path)

    test_rng = np.random.default_rng(4242)
    margins = []
    for k in range(5):
        inst = MotspInstance(test_rng.random((20, 4)))
        trained = approximate_pf(inst, actors)
        perm_rng = np.random.default_rng(10_000 + k)
        tours = [Tour(tuple(perm_rng.permutation(20))) for _ in range(10)]
        rows = np.array([evaluate_objectives(inst, t) for t in tours])
        keep = pareto_filter_indices(rows)
        random_front = ParetoArchive([ArchiveEntry(tours[i], rows[i], j + 1)
                                      for j, i in enumerate(keep)])
        hv_trained, hv_random = compute_hv_protocol([trained, random_front])
        margins.append(hv_trained - hv_random)

    ok = min(margins) >= 0.1
    report(capsys, 7, "hypervolume advantage", ok,
           f"trained front beats 10-permutation front on all 5 instances, "
           f"margins {min(margins):.3f}..{max(margins):.3f} >= 0.1, ref (1.2, 1.2)")


# ---------------------------------------------------------------------------
# 8. reproducibility: same manifest, two runs, identical artifacts


def test_reproducibility(capsys, tmp_path):
    config = tmp_path / "run.conf"
    config.write_text("d_h = 8\nn_heads = 2\nd_ff = 16\nn_nodes = 4\n"
                      "batch_size = 4\ndataset_size = 8\nm_sub = 2\n"
                      "epochs_first = 2\nepochs_rest = 1\nseed = 4\n")
    first, second = tmp_path / "one", tmp_path / "two"
    assert main(["train", "--config", str(config), "--out", str(first)]) == 0
    manifest = first / dec.MANIFEST_NAME
    assert main(["train", "--config", str(manifest), "--out", str(second)]) == 0

    ckpt_ok = all((first / checkpoint_name(i)).read_bytes() ==
                  (second / checkpoint_name(i)).read_bytes() for i in (1, 2))
    metrics_ok = True
    for i in (1, 2):
        rows_a = (first / dec.metrics_name(i)).read_text().splitlines()
        rows_b = (second / dec.metrics_name(i)).read_text().splitlines()
        metrics_ok &= [r.rsplit(",", 1)[0] for r in rows_a] == \
            [r.rsplit(",", 1)[0] for r in rows_b]

    ok = ckpt_ok and metrics_ok
    report(capsys, 8, "reproducibility", ok,
           "manifest rerun reproduces both checkpoints bitwise and all metric "
           "columns except wall-clock seconds")
