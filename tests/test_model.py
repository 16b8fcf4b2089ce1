import math
import tracemalloc

import numpy as np
import pytest

from paretotsp import autodiff as ad
from paretotsp import model, plain
from paretotsp.decomposition import RunConfig
from paretotsp.errors import ContractError, DimensionError, NonFiniteError
from paretotsp.instances import MotspInstance
from paretotsp.model import (_GROUP, DEFAULT_CRITIC_CHANNELS, ActorParams, CriticParams,
                             ModelConfig, _decode, _decode_step_batch, _sample_rows,
                             critic_batch, encode_batch, greedy_tours, rollout,
                             rollout_batch)

from oracles import (check_gradients, fuse_heads, per_head_actor_arrays,
                     per_head_decode_step, per_head_encode, random_instance,
                     sequential_rollout)

TINY = ModelConfig(d_h=8, n_heads=2, d_ff=16)
DESK = ModelConfig(d_h=16, n_heads=2, d_ff=64)


def tiny_actor(seed=0, cfg=TINY, dtype=np.float64):
    return ActorParams.init(cfg, np.random.default_rng(seed), dtype=dtype)


def encode_one(feats, actor):
    """The encoding of the one instance `feats` (n, 4)."""
    return encode_batch(feats[None], actor, "infer")


def prefix(*nodes):
    """The tour prefix `nodes` of a batch of one, as a (1, t) array."""
    return np.array([nodes], dtype=np.intp)


# ---------------------------------------------------------------------------
# config


def test_config_head_divisibility():
    with pytest.raises(ContractError):
        ModelConfig(d_h=10, n_heads=3)
    assert ModelConfig().d_k == 16         # 128 / 8


# ---------------------------------------------------------------------------
# encoder


def test_encode_shapes_at_paper_size():
    inst = random_instance(20, seed=0)
    actor = ActorParams.init(ModelConfig(), np.random.default_rng(0), dtype=np.float64)
    enc = encode_batch(inst.features[None], actor, "infer")
    assert enc.nodes2d.shape == (20, 128)
    assert enc.graph.shape == (1, 128)


def test_graph_embedding_is_mean_of_nodes():
    inst = random_instance(7, seed=1)
    enc = encode_batch(inst.features[None], tiny_actor(), "infer")
    np.testing.assert_allclose(enc.graph.data[0], enc.nodes2d.data.mean(axis=0), atol=1e-9)


def test_encode_permutation_equivariance():
    rng = np.random.default_rng(3)
    feats = rng.random((9, 4))
    perm = rng.permutation(9)
    actor = tiny_actor(5)
    a = encode_batch(feats[None], actor, "infer")
    b = encode_batch(feats[perm][None], actor, "infer")
    np.testing.assert_allclose(b.nodes2d.data, a.nodes2d.data[perm], atol=1e-9)
    np.testing.assert_allclose(b.graph.data, a.graph.data, atol=1e-9)


def test_encode_rejects_wrong_dx():
    actor = tiny_actor()
    with pytest.raises(DimensionError):
        encode_batch(np.random.default_rng(0).random((2, 5, 6)), actor, "infer")


def test_encode_batch_matches_single_instance():
    rng = np.random.default_rng(11)
    feats = rng.random((3, 6, 4))
    actor = tiny_actor(7)
    batch = encode_batch(feats, actor, "infer")
    nodes = batch.nodes2d.data.reshape(3, 6, TINY.d_h)
    heads = TINY.n_heads
    for b in range(3):
        single = encode_batch(feats[b][None], actor, "infer")
        np.testing.assert_allclose(nodes[b], single.nodes2d.data, atol=1e-12)
        np.testing.assert_allclose(batch.graph.data[b], single.graph.data[0], atol=1e-12)
        # the decoder's projections: H rows per instance for the glimpse, one for the pointer
        np.testing.assert_allclose(batch.keys_t.data[b * heads:(b + 1) * heads],
                                   single.keys_t.data, atol=1e-12)
        np.testing.assert_allclose(batch.values.data[b * heads:(b + 1) * heads],
                                   single.values.data, atol=1e-12)
        np.testing.assert_allclose(batch.final_keys_t.data[b], single.final_keys_t.data[0], atol=1e-12)


def test_encoder_matches_hand_computation():
    """Single head, d_h=4, n=3: step-by-step re-derivation with plain numpy."""
    cfg = ModelConfig(d_h=4, n_layers=1, n_heads=1, d_ff=6)
    rng = np.random.default_rng(99)
    actor = ActorParams.init(cfg, rng, dtype=np.float64)
    # freeze hand-set inference statistics
    for name in ("enc.l1.bn1", "enc.l1.bn2"):
        actor.params[f"{name}.running_mean"].data = rng.standard_normal(4) * 0.1
        actor.params[f"{name}.running_var"].data = rng.uniform(0.8, 1.2, 4)
    feats = rng.random((3, 4))

    p = {k: v.data for k, v in actor.params.items()}
    h0 = feats @ p["enc.init.W"].T + p["enc.init.b"]
    q = h0 @ p["enc.l1.Wq"].T
    k = h0 @ p["enc.l1.Wk"].T
    v = h0 @ p["enc.l1.Wv"].T
    u = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            u[i, j] = q[i] @ k[j] / math.sqrt(4)
    w = np.exp(u - u.max(axis=1, keepdims=True))
    w /= w.sum(axis=1, keepdims=True)
    mha = (w @ v) @ p["enc.l1.Wo"].T

    def bn_infer(x, name):
        return (p[f"{name}.scale"] * (x - p[f"{name}.running_mean"])
                / np.sqrt(p[f"{name}.running_var"] + 1e-5) + p[f"{name}.shift"])

    h1 = bn_infer(h0 + mha, "enc.l1.bn1")
    ff = np.maximum(h1 @ p["enc.l1.ff.W0"].T + p["enc.l1.ff.b0"], 0.0) \
        @ p["enc.l1.ff.W1"].T + p["enc.l1.ff.b1"]
    h2 = bn_infer(h1 + ff, "enc.l1.bn2")

    enc = encode_batch(feats[None], actor, "infer")
    np.testing.assert_allclose(enc.nodes2d.data, h2, atol=1e-9)
    np.testing.assert_allclose(enc.graph.data[0], h2.mean(axis=0), atol=1e-9)


# ---------------------------------------------------------------------------
# decoder


def test_decode_probabilities_masked_and_normalized():
    inst = random_instance(8, seed=4)
    actor = tiny_actor(2)
    enc = encode_one(inst.features, actor)
    probs = _decode_step_batch(enc, prefix(), actor.cfg, actor.params).data[0]
    assert abs(probs.sum() - 1.0) <= 1e-9
    probs = _decode_step_batch(enc, prefix(3, 6), actor.cfg, actor.params).data[0]
    assert probs[3] == 0.0 and probs[6] == 0.0
    assert np.all(probs >= 0.0)
    assert abs(probs.sum() - 1.0) <= 1e-9
    # exactly the placed nodes are masked
    assert np.flatnonzero(probs == 0.0).tolist() == [3, 6]


def test_decode_forced_last_choice():
    inst = random_instance(5, seed=6)
    actor = tiny_actor(3)
    probs = _decode_step_batch(encode_one(inst.features, actor), prefix(2, 0, 4, 1),
                               actor.cfg, actor.params).data[0]
    np.testing.assert_array_equal(probs, [0.0, 0.0, 0.0, 1.0, 0.0])


def test_decode_all_visited_rejected():
    inst = random_instance(3, seed=7)
    actor = tiny_actor(4)
    with pytest.raises(ContractError, match="every entry masked"):
        _decode_step_batch(encode_one(inst.features, actor), prefix(1, 0, 2), actor.cfg, actor.params)


def test_decode_logits_clipped_to_ten():
    rng = np.random.default_rng(13)
    feats = rng.random((4, 10, 4))
    actor = tiny_actor(8)
    # large pointer queries, so the unclipped logits would span far more than 2 * clip
    actor.params["dec.final.Wq"].data = actor.params["dec.final.Wq"].data * 300.0
    enc = encode_batch(feats, actor, "infer")
    for placed in (np.empty((4, 0), dtype=np.intp), rng.integers(0, 10, (4, 1))):
        probs = _decode_step_batch(enc, placed, actor.cfg, actor.params).data
        for b in range(4):
            # logits in [-clip, clip] bound the ratio of any two open nodes' probabilities
            p = probs[b][~np.isin(np.arange(10), placed[b])]
            assert np.log(p.max() / p.min()) <= 2 * model.CLIP


def test_decode_visit_twice_rejected():
    inst = random_instance(4, seed=8)
    actor = tiny_actor(5)
    enc = encode_one(inst.features, actor).untaped()
    with pytest.raises(ContractError, match="placed a node twice"):
        _decode(enc, actor.cfg, actor.state_arrays(), forced_tours=np.array([[2, 2, 0, 1]]))


class _ZeroDraws:
    """An rng stub whose uniform draws are all exactly 0.0."""

    def random(self, size):
        return np.zeros(size)


def test_sampling_never_picks_a_zero_probability_node():
    """A draw of exactly u = 0 takes the first node of nonzero probability,
    not a masked node 0; every other draw picks as before."""
    probs = np.array([[0.0, 0.5, 0.5], [0.0, 0.0, 1.0], [0.25, 0.75, 0.0]])
    assert _sample_rows(probs, _ZeroDraws()).tolist() == [1, 2, 0]
    tours, _, _ = rollout_batch(np.random.default_rng(5).random((3, 6, 4)), tiny_actor(5), rng=_ZeroDraws())
    assert (np.sort(tours, axis=1) == np.arange(6)).all()


# ---------------------------------------------------------------------------
# rollout


def test_rollout_valid_permutation_and_finite_logp():
    for seed in range(5):
        inst = random_instance(11, seed=seed)
        tour, logp = rollout(inst, tiny_actor(seed), seed=seed)
        assert tour.dtype == np.intp and sorted(tour.tolist()) == list(range(11))
        assert math.isfinite(logp)


def test_rollout_greedy_deterministic():
    inst = random_instance(9, seed=10)
    actor = tiny_actor(6)
    a, lp_a = rollout(inst, actor)
    b, lp_b = rollout(inst, actor)
    np.testing.assert_array_equal(a, b)
    assert lp_a == lp_b


def test_rollout_greedy_ties_take_lowest_index():
    # identical nodes make every step a tie among the unvisited
    feats = np.tile([0.3, 0.7, 0.4, 0.6], (5, 1))
    inst = MotspInstance(feats)
    tour, _ = rollout(inst, tiny_actor(9))
    assert tour.tolist() == [0, 1, 2, 3, 4]


def test_rollout_chain_rule_consistency():
    inst = random_instance(8, seed=12)
    actor = tiny_actor(12)
    tour, logp = rollout(inst, actor, seed=3)
    enc = encode_one(inst.features, actor)
    total = 0.0
    for t, node in enumerate(tour):
        probs = _decode_step_batch(enc, tour[None, :t], actor.cfg, actor.params).data[0]
        total += math.log(probs[node])
    assert abs(total - logp) < 1e-6


def test_rollout_forced_tours_replay():
    rng = np.random.default_rng(14)
    feats = rng.random((6, 7, 4))
    actor = tiny_actor(14)
    tours, logp, _ = rollout_batch(feats, actor, rng=np.random.default_rng(0))
    replayed, logp2, _ = rollout_batch(feats, actor, forced_tours=tours)
    np.testing.assert_array_equal(replayed, tours)
    np.testing.assert_allclose(logp2.data, logp.data, atol=1e-12)


def test_replay_returns_the_step_probabilities_of_the_replayed_tours():
    """Replay runs the same decode loop as sampling: its step probabilities
    are the sampling call's byte for byte, and the logs of the entries its
    tours pick sum to the scored log-probability."""
    feats = np.random.default_rng(16).random((6, 7, 4))
    actor = tiny_actor(16)
    tours, _, probs = rollout_batch(feats, actor, rng=np.random.default_rng(1))
    replayed, logp, replay_probs = rollout_batch(feats, actor, forced_tours=tours)
    np.testing.assert_array_equal(replayed, tours)
    assert len(replay_probs) == len(probs) == 7
    for got, want in zip(replay_probs, probs):
        assert got.dtype == want.dtype and got.shape == want.shape == (6, 7)
        assert got.tobytes() == want.tobytes()
    picked = np.stack([p[np.arange(6), tours[:, t]] for t, p in enumerate(replay_probs)], axis=1)
    np.testing.assert_allclose(np.log(picked).sum(axis=1), logp.data, rtol=0, atol=1e-12)


def test_rollout_first_step_frequencies_match_distribution():
    n, runs = 5, 10_000
    inst = random_instance(n, seed=20)
    actor = tiny_actor(20)
    probs = _decode_step_batch(encode_one(inst.features, actor), prefix(), actor.cfg, actor.params).data[0]
    feats = np.broadcast_to(inst.features, (runs, n, 4))
    tours, _, _ = rollout_batch(feats, actor, rng=np.random.default_rng(78))
    counts = np.bincount(tours[:, 0], minlength=n)
    freq = counts / runs
    sigma = np.sqrt(probs * (1.0 - probs) / runs)
    assert np.all(np.abs(freq - probs) <= 3.0 * sigma + 1e-12), (freq, probs)


def test_rollout_batch_matches_single_greedy():
    rng = np.random.default_rng(21)
    feats = rng.random((4, 6, 4))
    actor = tiny_actor(21)
    tours, logp, _ = rollout_batch(feats, actor)
    for b in range(4):
        tour, lp = rollout(MotspInstance(feats[b]), actor)
        np.testing.assert_array_equal(tours[b], tour)
        assert abs(lp - logp.data[b]) < 1e-12


def test_greedy_tours_every_row_equals_its_per_model_rollout():
    """Each row of the model-stacked decode, not only the front, is its
    actor's own greedy tour. The solve benchmark's seed-3 draw (n=100, full
    width) is used: actors 60 and 61 of it meet a step whose two best
    candidates lie about 1 ulp apart, so a stacked product that accumulates
    in another order than the per-model one flips a tour."""
    cfg = RunConfig(n_nodes=100, seed=3)
    rng = np.random.default_rng(np.random.SeedSequence([3, 0]))
    actors = []
    for _ in range(62):
        actors.append(ActorParams.init(cfg.model_config(), rng))
        CriticParams.init(rng)
    feats = np.random.default_rng(np.random.SeedSequence([3, 1])).random((100, 4))
    chosen = actors[60:62]
    tours = greedy_tours(feats, chosen)
    assert tours.shape == (2, 100)
    for row, actor in zip(tours, chosen):
        ref, _, _ = rollout_batch(feats[None], actor)
        np.testing.assert_array_equal(row, ref[0])


def test_greedy_tours_group_boundary_between_the_ulp_tie():
    """The seed-3 ulp-tie pair of the test above, with a decode group boundary
    between actors 60 and 61: every row is still its actor's own tour."""
    cfg = RunConfig(n_nodes=100, seed=3)
    rng = np.random.default_rng(np.random.SeedSequence([3, 0]))
    actors = []
    for _ in range(62):
        actors.append(ActorParams.init(cfg.model_config(), rng))
        CriticParams.init(rng)
    feats = np.random.default_rng(np.random.SeedSequence([3, 1])).random((100, 4))
    chosen = actors[61 - _GROUP:62]
    tours = greedy_tours(feats, chosen)
    assert tours.shape == (_GROUP + 1, 100)
    for row, actor in zip(tours, chosen):
        ref, _, _ = rollout_batch(feats[None], actor)
        np.testing.assert_array_equal(row, ref[0])


def test_greedy_tours_draws_a_generator_like_a_list():
    """2G+1 actors, each built as the generator is drawn, decode in three
    groups (the last of one actor) to the tours of the same actors as a list."""
    feats = np.random.default_rng(4).random((10, 4))
    built = []

    def draw():
        rng = np.random.default_rng(9)
        for _ in range(2 * _GROUP + 1):
            built.append(ActorParams.init(DESK, rng))
            yield built[-1]

    lazy = greedy_tours(feats, draw())
    np.testing.assert_array_equal(lazy, greedy_tours(feats, built))
    for row, actor in zip(lazy, built):
        ref, _, _ = rollout_batch(feats[None], actor)
        np.testing.assert_array_equal(row, ref[0])


def test_greedy_tours_memory_does_not_grow_with_the_actor_count():
    """Only one group of actors is held at a time: decoding 3G full-width
    actors at n=100, each built as it is drawn, peaks at most 1.25x as high
    as decoding G of them."""
    feats = np.random.default_rng(5).random((100, 4))

    def peak(count):
        rng = np.random.default_rng(6)
        actors = (ActorParams.init(ModelConfig(), rng) for _ in range(count))
        tracemalloc.start()
        try:
            greedy_tours(feats, actors)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, three = peak(_GROUP), peak(3 * _GROUP)
    assert three <= 1.25 * one, (one, three)


def test_greedy_tours_holds_one_group_once():
    """Each actor's encoding and kept decoder weights are written straight
    into its slot of the group buffers, not kept apart and then stacked:
    decoding G full-width actors at n=100, each built as it is drawn, peaks
    at most 1.5x as high as G actors' encodings and kept weights."""
    feats = np.random.default_rng(5).random((100, 4))
    rng = np.random.default_rng(6)
    first = ActorParams.init(ModelConfig(), rng)
    kept = sum(a.nbytes for a in encode_batch(feats[None], first, "infer", plain))
    kept += sum(p.data.nbytes for name, p in first.params.items()
                if name.startswith("dec.") and not name.endswith(("Wk", "Wv")))
    actors = (ActorParams.init(ModelConfig(), rng) for _ in range(_GROUP))
    tracemalloc.start()
    try:
        greedy_tours(feats, actors)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * _GROUP * kept, (peak / (_GROUP * kept), kept)


# ---------------------------------------------------------------------------
# the plain forward path against the tape

PLAIN_SHAPES = [(DESK, 8, 10), (DESK, 8, 20), (ModelConfig(), 4, 20)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("cfg,batch,n", PLAIN_SHAPES)
def test_plain_encoding_is_bitwise_the_taped_one(cfg, batch, n, dtype):
    actor = ActorParams.init(cfg, np.random.default_rng(n), dtype=dtype)
    for name, a in actor.params.items():        # running statistics away from (0, 1)
        if not a.requires_grad:
            a.data = np.full_like(a.data, 0.25 if name.endswith(".running_mean") else 1.5)
    feats = np.random.default_rng(n + 1).random((batch, n, 4))
    got = encode_batch(feats, actor, "infer", plain)
    want = encode_batch(feats, actor, "infer")
    for field in ("nodes2d", "graph", "keys_t", "values", "final_keys_t"):
        a, b = getattr(got, field), getattr(want, field).data
        assert type(a) is np.ndarray and a.dtype == dtype, field
        assert a.shape == b.shape and a.strides == b.strides, field
        assert a.tobytes() == b.tobytes(), field


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("cfg,batch,n", PLAIN_SHAPES)
def test_plain_decode_step_is_bitwise_the_taped_attend(cfg, batch, n, dtype):
    """The sampling loop's step (plain ops on the data of a train-mode taped
    encoding) against the taped step, which runs `_attend` with S=1."""
    actor = ActorParams.init(cfg, np.random.default_rng(n), dtype=dtype)
    feats = np.random.default_rng(n + 1).random((batch, n, 4))
    enc = encode_batch(feats, actor, "train")
    untaped = enc.untaped()
    weights = actor.state_arrays()
    order = np.argsort(np.random.default_rng(n + 2).random((batch, n)), axis=1)
    for t in range(n):
        got = _decode_step_batch(untaped, order[:, :t], actor.cfg, weights, plain)
        want = _decode_step_batch(enc, order[:, :t], actor.cfg, actor.params)
        assert type(got) is np.ndarray and got.tobytes() == want.data.tobytes(), t


def test_hidden_overflow_is_reported_on_both_tape_free_paths():
    """Pointer weights scaled by 1e30 overflow the float32 pointer logits to
    inf, which tanh would clip to a finite 1; the greedy solve and the
    sampling loop must both raise instead of decoding."""
    actor = ActorParams.init(DESK, np.random.default_rng(30))
    for name in ("dec.final.Wq", "dec.final.Wk"):
        actor.params[name].data = actor.params[name].data * np.float32(1e30)
    feats = np.random.default_rng(31).random((1, 10, 4))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError):
            greedy_tours(feats[0], [actor])
        with pytest.raises(NonFiniteError):
            rollout_batch(feats, actor, rng=np.random.default_rng(0))


def test_forced_tours_must_be_permutations():
    feats = np.random.default_rng(15).random((4, 5, 4))
    good = np.array([[0, 1, 2, 3, 4], [4, 3, 2, 1, 0], [2, 0, 4, 1, 3], [1, 2, 3, 4, 0]])
    for row, bad in ((2, [2, 0, 4, 2, 3]), (1, [4, 3, 2, 1, 5])):
        tours = good.copy()
        tours[row] = bad
        with pytest.raises(ContractError, match=f"forced_tours row {row} is not a permutation"):
            rollout_batch(feats, tiny_actor(15), forced_tours=tours)


# ---------------------------------------------------------------------------
# one-pass scoring against the sequential reference


PARITY_SHAPES = [(DESK, 64, 10), (DESK, 32, 20), (ModelConfig(), 8, 20)]


def _scored_and_sequential(cfg, batch, n, dtype, mode):
    """(tours, logp, grads) of `rollout_batch` and of the step-by-step
    reference, from one parameter state and one rng seed; the loss is the
    trainer's mean of advantage-weighted log-probabilities."""
    actor = ActorParams.init(cfg, np.random.default_rng(n), dtype=dtype)
    feats = np.random.default_rng(n + 1).random((batch, n, 4))
    advantage = ad.constant(np.random.default_rng(n + 2).standard_normal(batch), dtype=dtype)
    out = []
    for a, roll in ((actor.copy(), rollout_batch), (actor.copy(), sequential_rollout)):
        rng = np.random.default_rng(5) if mode == "sample" else None
        tours, logp = roll(feats, a, rng=rng, bn_mode="train")[:2]
        ad.backward(ad.mean_over_axis(ad.mul(logp, advantage), 0))
        out.append((tours, logp.data, {name: p.grad for name, p in a.params.items() if p.requires_grad}))
    return out


@pytest.mark.parametrize("mode", ["sample", "greedy"])
@pytest.mark.parametrize("cfg,batch,n", PARITY_SHAPES)
def test_scored_rollout_matches_the_sequential_reference_float64(cfg, batch, n, mode):
    (tours, logp, grads), (ref_tours, ref_logp, ref_grads) = \
        _scored_and_sequential(cfg, batch, n, np.float64, mode)
    np.testing.assert_array_equal(tours, ref_tours)
    np.testing.assert_allclose(logp, ref_logp, rtol=1e-9, atol=0)
    scale = max(np.abs(g).max() for g in ref_grads.values())
    assert grads.keys() == ref_grads.keys()
    for name, g in ref_grads.items():
        np.testing.assert_allclose(grads[name], g, rtol=1e-9, atol=1e-12 * scale, err_msg=name)


@pytest.mark.parametrize("cfg,batch,n", PARITY_SHAPES)
def test_scored_rollout_matches_the_sequential_reference_float32(cfg, batch, n):
    (tours, logp, _), (ref_tours, ref_logp, _) = \
        _scored_and_sequential(cfg, batch, n, np.float32, "sample")
    np.testing.assert_array_equal(tours, ref_tours)
    assert logp.dtype == np.float32
    np.testing.assert_allclose(logp, ref_logp, rtol=1e-6, atol=0)


# ---------------------------------------------------------------------------
# critic


def test_critic_zero_weights_give_zero():
    critic = CriticParams.init(np.random.default_rng(0), dtype=np.float64)
    for p in critic.params.values():
        p.data = np.zeros_like(p.data)
    assert critic_batch(random_instance(6, seed=0).features[None], critic).data[0] == 0.0


def test_critic_permutation_invariant():
    rng = np.random.default_rng(30)
    feats = rng.random((8, 4))
    critic = CriticParams.init(rng, dtype=np.float64)
    a = critic_batch(feats[None], critic).data[0]
    b = critic_batch(feats[rng.permutation(8)][None], critic).data[0]
    assert abs(a - b) < 1e-12


def test_critic_hand_computation_reduced_network():
    w = {"conv1.W": [[1.0, -1.0, 0.5, 2.0]], "conv1.b": [0.25],
         "conv2.W": [[-2.0]], "conv2.b": [1.0],
         "conv3.W": [[0.5]], "conv3.b": [-0.1],
         "conv4.W": [[3.0]], "conv4.b": [0.2]}
    critic = CriticParams.from_state(((4, 1), (1, 1), (1, 1), (1, 1)),
                                     {k: np.array(v) for k, v in w.items()}, np.float64)
    feats = np.array([[0.1, 0.2, 0.3, 0.4], [0.5, 0.6, 0.7, 0.8]])

    per_node = []
    for x in feats:
        s1 = max(1.0 * x[0] - 1.0 * x[1] + 0.5 * x[2] + 2.0 * x[3] + 0.25, 0.0)
        s2 = max(-2.0 * s1 + 1.0, 0.0)
        s3 = max(0.5 * s2 - 0.1, 0.0)
        per_node.append(3.0 * s3 + 0.2)
    expected = sum(per_node) / 2.0

    assert abs(critic_batch(feats[None], critic).data[0] - expected) < 1e-12


def test_critic_rejects_wrong_dx():
    critic = CriticParams.init(np.random.default_rng(1), dtype=np.float64)
    feats = np.random.default_rng(0).random((5, 2))
    with pytest.raises(DimensionError):
        critic_batch(feats[None], critic)


# ---------------------------------------------------------------------------
# gradients through the pipeline


def test_pipeline_gradient_matches_finite_differences():
    """d_h=8, n=4 fp64: full rollout loss vs central differences."""
    cfg = ModelConfig(d_h=8, n_heads=2, d_ff=16)
    rng = np.random.default_rng(50)
    feats = rng.random((3, 4, 4))
    base = ActorParams.init(cfg, rng, dtype=np.float64)
    critic = CriticParams.init(rng, dtype=np.float64)
    tours, _, _ = rollout_batch(feats, base, rng=np.random.default_rng(1), bn_mode="train")
    advantage = np.array([0.7, -0.3, 1.1])
    checked = ["enc.init.W", "enc.l1.Wq", "dec.final.Wk", "dec.v1"]

    worst = 0.0
    for name in checked:
        template = {k: v.data.copy() for k, v in base.params.items()}

        def build(leaves):
            actor = ActorParams.init(cfg, np.random.default_rng(0), dtype=np.float64)
            for key, val in template.items():
                actor.params[key].data = val.copy()
            actor.params[name] = leaves[0]
            _, logp, _ = rollout_batch(feats, actor, bn_mode="train", forced_tours=tours)
            from paretotsp.autodiff import constant, mean_over_axis, mul
            return mean_over_axis(mul(logp, constant(advantage)), 0)

        worst = max(worst, check_gradients(build, [template[name]], eps=1e-5))
    assert worst < 1e-3, worst


def test_critic_gradient_matches_finite_differences():
    rng = np.random.default_rng(51)
    feats = rng.random((2, 5, 4))
    target = rng.random(2)
    template = CriticParams.init(rng, dtype=np.float64)

    def build(leaves):
        critic = CriticParams.init(np.random.default_rng(0), dtype=np.float64)
        for (key, p), leaf in zip(critic.params.items(), leaves):
            critic.params[key] = leaf
        out = critic_batch(feats, critic)
        from paretotsp.autodiff import add, constant, mean_over_axis, mul
        resid = add(out, constant(-target))
        return mean_over_axis(mul(resid, resid), 0)

    inputs = [p.data.copy() for p in template.params.values()]
    assert check_gradients(build, inputs, eps=1e-5, coords=8) < 1e-4


# ---------------------------------------------------------------------------
# serialization / copies


def test_actor_state_round_trip():
    actor = tiny_actor(40)
    state = {k: v.copy() for k, v in actor.state_arrays().items()}
    other = ActorParams.from_state(TINY, state, np.float64)
    assert list(other.state_arrays()) == list(state)
    for k, v in actor.state_arrays().items():
        np.testing.assert_array_equal(other.state_arrays()[k], v)


def test_actor_load_rejects_wrong_names():
    actor = tiny_actor(42)
    state = actor.state_arrays()
    broken = dict(state)
    broken.pop("dec.v1")
    with pytest.raises(ContractError, match=r"missing=\['dec.v1'\]"):
        ActorParams.from_state(TINY, broken, np.float64)
    extra = dict(state)
    extra["bogus"] = np.zeros(3)
    with pytest.raises(ContractError, match=r"extra=\['bogus'\]"):
        ActorParams.from_state(TINY, extra, np.float64)
    critic_state = dict(CriticParams.init(np.random.default_rng(42)).state_arrays())
    critic_state["conv9.b"] = critic_state.pop("conv1.b")
    with pytest.raises(ContractError, match="CriticParams state mismatch"):
        CriticParams.from_state(DEFAULT_CRITIC_CHANNELS, critic_state)


def test_actor_load_rejects_wrong_shape():
    actor = tiny_actor(43)
    state = {k: v.copy() for k, v in actor.state_arrays().items()}
    state["dec.v1"] = np.zeros(3)
    with pytest.raises(DimensionError, match="dec.v1"):
        ActorParams.from_state(TINY, state, np.float64)


def test_copies_are_independent():
    actor = tiny_actor(44)
    dup = actor.copy()
    for k, v in actor.state_arrays().items():
        np.testing.assert_array_equal(dup.state_arrays()[k], v)
    dup.params["dec.v1"].data = dup.params["dec.v1"].data + 1.0
    assert not np.array_equal(actor.params["dec.v1"].data, dup.params["dec.v1"].data)

    critic = CriticParams.init(np.random.default_rng(0))
    cdup = critic.copy()
    cdup.params["conv1.W"].data = cdup.params["conv1.W"].data * 2.0
    assert not np.array_equal(critic.params["conv1.W"].data, cdup.params["conv1.W"].data)


STATS = (".running_mean", ".running_var")


def test_state_lists_the_weights_in_build_order_then_the_statistics():
    actor = ActorParams.init(ModelConfig(d_h=8, n_heads=2, d_ff=16, n_layers=2), np.random.default_rng(0))
    layer = [".Wq", ".Wk", ".Wv", ".Wo", ".bn1.scale", ".bn1.shift",
             ".ff.W0", ".ff.b0", ".ff.W1", ".ff.b1", ".bn2.scale", ".bn2.shift"]
    weights = (["enc.init.W", "enc.init.b"] + [f"enc.l{l}{s}" for l in (1, 2) for s in layer]
               + ["dec.v1", "dec.vf", "dec.Wq", "dec.Wk", "dec.Wv", "dec.Wo", "dec.final.Wq", "dec.final.Wk"])
    stats = [f"enc.l{l}.{bn}{s}" for l in (1, 2) for bn in ("bn1", "bn2") for s in STATS]
    assert list(actor.state_arrays()) == weights + stats


def test_trainable_excludes_exactly_the_running_statistics():
    actor = tiny_actor(46)
    want = [a for name, a in actor.params.items() if not name.endswith(STATS)]
    got = actor.trainable()
    assert len(got) == len(want) == len(actor.params) - 4
    assert all(a is b for a, b in zip(got, want))


def test_train_mode_on_a_copy_leaves_the_original_statistics():
    actor = tiny_actor(47)
    before = {k: v.copy() for k, v in actor.state_arrays().items()}
    dup = actor.copy()
    encode_batch(np.random.default_rng(48).random((4, 5, 4)), dup, "train")
    for name, arr in actor.state_arrays().items():
        np.testing.assert_array_equal(arr, before[name], err_msg=name)
        moved = not np.array_equal(dup.state_arrays()[name], arr)
        assert moved == name.endswith(STATS), name


def test_from_state_takes_exactly_inits_names_and_shapes_and_keeps_the_bytes():
    rng = np.random.default_rng(45)
    cfg = ModelConfig(d_h=16, n_heads=2, d_ff=64, n_layers=2)
    channels = ((4, 8), (8, 3), (3, 1))
    for cls, key, drawn in [(ActorParams, cfg, ActorParams.init(cfg, rng)),
                            (CriticParams, channels, CriticParams.init(rng, channels=channels))]:
        want = drawn.state_arrays()
        # Reversed, so the order the loaded arrays come in does not decide the store's.
        loaded = cls.from_state(key, dict(reversed([(k, v.copy()) for k, v in want.items()])))
        assert loaded.dtype == drawn.dtype and list(loaded.state_arrays()) == list(want)
        for name, arr in want.items():
            got = loaded.state_arrays()[name]
            assert got.dtype == arr.dtype and got.shape == arr.shape and got.tobytes() == arr.tobytes(), name
        assert [p.requires_grad for p in loaded.params.values()] == [p.requires_grad for p in drawn.params.values()]
        for name, arr in want.items():
            with pytest.raises(ContractError, match=rf"missing=\['{name}'\] extra=\[\]"):
                cls.from_state(key, {k: v for k, v in want.items() if k != name})
            with pytest.raises(DimensionError, match=name):
                cls.from_state(key, {**want, name: np.zeros(arr.shape + (1,))})


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_from_state_refuses_an_array_that_holds_nan_or_inf(bad):
    actor_state = {k: v.copy() for k, v in tiny_actor(49).state_arrays().items()}
    actor_state["enc.l1.bn2.running_var"][3] = bad
    with pytest.raises(NonFiniteError):
        ActorParams.from_state(TINY, actor_state, np.float64)
    critic_state = {k: v.copy() for k, v in CriticParams.init(np.random.default_rng(49)).state_arrays().items()}
    critic_state["conv2.W"][0, 0] = bad
    with pytest.raises(NonFiniteError):
        CriticParams.from_state(DEFAULT_CRITIC_CHANNELS, critic_state)


# ---------------------------------------------------------------------------
# fused attention against the per-head layout


def test_init_is_the_fused_v1_draw():
    cfg = ModelConfig(d_h=16, n_heads=4, d_ff=32, n_layers=2)
    for seed in range(3):
        fused = ActorParams.init(cfg, np.random.default_rng(seed), dtype=np.float64)
        heads = fuse_heads(per_head_actor_arrays(np.random.default_rng(seed), 4, 16, 4, 32, n_layers=2))
        got = fused.state_arrays()
        assert sorted(got) == sorted(heads)
        for name, arr in heads.items():
            np.testing.assert_array_equal(got[name], arr, err_msg=name)
    assert len(fused.trainable()) == 22 + 12   # 12 more arrays for the second encoder layer


def test_fused_model_matches_per_head_oracle():
    """H=2, so a wrong head split or merge would show; encoder plus decode steps."""
    cfg = ModelConfig(d_h=16, n_heads=2, d_ff=32)
    rng = np.random.default_rng(60)
    heads = per_head_actor_arrays(rng, 4, 16, 2, 32)
    for bn in ("enc.l1.bn1", "enc.l1.bn2"):
        heads[f"{bn}.running_mean"] = rng.standard_normal(16) * 0.1
        heads[f"{bn}.running_var"] = rng.uniform(0.8, 1.2, 16)
        heads[f"{bn}.scale"] = rng.uniform(0.5, 1.5, 16)
        heads[f"{bn}.shift"] = rng.standard_normal(16) * 0.1
    actor = ActorParams.from_state(cfg, fuse_heads(heads), np.float64)
    feats = rng.random((3, 7, 4))

    enc = encode_batch(feats, actor, "infer")
    picks = [np.array([2, 0, 6]), np.array([5, 3, 1]), np.array([0, 4, 2])]
    nodes2d = enc.nodes2d.data.reshape(3, 7, 16)
    oracle = [per_head_encode(feats[b], heads, 2) for b in range(3)]
    for b in range(3):
        np.testing.assert_allclose(nodes2d[b], oracle[b][0], rtol=0, atol=1e-6)
        np.testing.assert_allclose(enc.graph.data[b], oracle[b][1], rtol=0, atol=1e-6)
    for step in range(len(picks) + 1):
        placed = np.array(picks[:step], dtype=np.intp).reshape(step, 3).T
        probs = _decode_step_batch(enc, placed, actor.cfg, actor.params).data
        for b in range(3):
            chosen = [int(p[b]) for p in picks[:step]]
            visited = np.isin(np.arange(7), chosen)
            want = per_head_decode_step(oracle[b][0], oracle[b][1], heads, 2, visited,
                                        chosen[0] if chosen else None,
                                        chosen[-1] if chosen else None)
            np.testing.assert_allclose(probs[b], want, rtol=0, atol=1e-6)

