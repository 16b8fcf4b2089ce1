import json
from pathlib import Path

import numpy as np
import pytest

from paretotsp import decomposition
from paretotsp.decomposition import (MANIFEST_NAME, RunConfig,
                                     TrainedActors, checkpoint_name,
                                     config_hash, load_manifest, load_models,
                                     make_weights,
                                     metrics_name, pack_models,
                                     read_checkpoint, run_schedule,
                                     save_models, unpack_models,
                                     write_checkpoint, write_manifest)
from paretotsp.errors import ContractError, ParseError
from paretotsp.instances import MotspInstance
from paretotsp.model import ActorParams, CriticParams, rollout, rollout_batch

from oracles import fuse_heads, per_head_actor_arrays, per_head_greedy

TINY = dict(d_h=8, n_heads=2, d_ff=16, n_nodes=4, batch_size=4,
            dataset_size=8, m_sub=3, epochs_first=1, epochs_rest=1, seed=5)


# ---------------------------------------------------------------------------
# weight sweep


def test_make_weights_three():
    np.testing.assert_array_equal(
        make_weights(3), [[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]])


def test_make_weights_hundred():
    w = make_weights(100)
    assert w.shape == (100, 2)
    np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(np.diff(w[:, 0]), 1.0 / 99.0, atol=1e-15)
    assert w[0, 0] == 0.0 and w[-1, 0] == 1.0


def test_make_weights_rejects_bad_sizes():
    with pytest.raises(ContractError):
        make_weights(1)


def test_schedule_validation():
    """A run config builds its schedule on construction, so a bad one fails there."""
    for bad in (dict(m_sub=1), dict(epochs_first=-1), dict(epochs_rest=-1), dict(direction="up")):
        with pytest.raises(ContractError):
            RunConfig(**dict(TINY, **bad))


def test_schedule_budgets_and_direction():
    sched = RunConfig(m_sub=4, epochs_first=5, epochs_rest=1).schedule()
    assert sched.epochs == (5, 1, 1, 1)
    assert sched.weights[0, 0] == 0.0
    desc = RunConfig(m_sub=4, direction="desc").schedule()
    assert desc.weights[0, 0] == 1.0 and desc.weights[-1, 0] == 0.0
    np.testing.assert_array_equal(desc.weights, sched.weights[::-1])
    with pytest.raises(ContractError):
        RunConfig(m_sub=4, direction="up")


# ---------------------------------------------------------------------------
# config mapping and hash


def test_runconfig_round_trip():
    cfg = RunConfig(**TINY)
    assert RunConfig.from_mapping(cfg.to_mapping()) == cfg


def test_runconfig_rejects_unknown_or_bad_values():
    with pytest.raises(ContractError):
        RunConfig.from_mapping({"momentum": "0.9"})
    with pytest.raises(ContractError):
        RunConfig.from_mapping({"d_h": "eight"})


def test_config_hash_stability():
    mapping = RunConfig(**TINY).to_mapping()
    reordered = dict(reversed(list(mapping.items())))
    assert config_hash(mapping) == config_hash(reordered)
    changed = dict(mapping, seed="6")
    assert config_hash(changed) != config_hash(mapping)


# ---------------------------------------------------------------------------
# checkpoint files


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {
        "w": rng.standard_normal((2, 3)).astype(np.float32),
        "b": rng.standard_normal(4).astype(np.float32),
        "s": np.float32(1.5).reshape(()),
    }
    path = tmp_path / "m.ckpt"
    write_checkpoint(path, arrays)
    assert not path.with_name("m.ckpt.tmp").exists()
    back = read_checkpoint(path)
    assert set(back) == {"w", "b", "s"}
    for k in arrays:
        assert back[k].dtype == np.float32
        np.testing.assert_array_equal(back[k], arrays[k])


def test_checkpoint_quantizes_to_float32(tmp_path):
    x = np.array([1.0 / 3.0], dtype=np.float64)
    path = tmp_path / "m.ckpt"
    write_checkpoint(path, {"x": x})
    back = read_checkpoint(path)["x"]
    np.testing.assert_array_equal(back, x.astype(np.float32))


def test_checkpoint_empty(tmp_path):
    path = tmp_path / "m.ckpt"
    write_checkpoint(path, {})
    assert read_checkpoint(path) == {}


@pytest.mark.parametrize("mutate,fragment", [
    (lambda b: b"wrong v1\n" + b.split(b"\n", 1)[1], "header"),
    (lambda b: b.replace(b"paretotsp-ckpt v2\n", b"paretotsp-ckpt v1\n"), "bad checkpoint header"),
    (lambda b: b.replace(b"count=1", b"count=x"), "count"),
    (lambda b: b[:-2], "truncated"),
    (lambda b: b + b"\x00\x00", "trailing"),
])
def test_checkpoint_malformations(tmp_path, mutate, fragment):
    path = tmp_path / "m.ckpt"
    write_checkpoint(path, {"x": np.ones(3, dtype=np.float32)})
    path.write_bytes(mutate(path.read_bytes()))
    with pytest.raises(ParseError) as err:
        read_checkpoint(path)
    assert err.value.path == str(path)
    assert fragment in str(err.value)


def test_checkpoint_duplicate_name(tmp_path):
    path = tmp_path / "m.ckpt"
    body = b"paretotsp-ckpt v2\ncount=2\n" \
        + b"x 1\n" + np.float32(1).tobytes() \
        + b"x 1\n" + np.float32(2).tobytes()
    path.write_bytes(body)
    with pytest.raises(ParseError, match="duplicate array name 'x'"):
        read_checkpoint(path)


def test_checkpoint_rejects_non_finite_arrays(tmp_path):
    path = tmp_path / "m.ckpt"
    for bad in (np.nan, np.inf, -np.inf):
        write_checkpoint(path, {"ok": np.ones(2), "w": np.array([[1.0, bad]])})
        with pytest.raises(ParseError) as err:
            read_checkpoint(path)
        assert err.value.path == str(path)
        assert "'w'" in str(err.value) and "NaN or Inf" in str(err.value)


# ---------------------------------------------------------------------------
# model (de)serialization


def test_fused_checkpoint_decodes_like_the_per_head_oracle(tmp_path):
    """Per-head arrays, fused and saved, load into an actor that decodes like
    the per-head oracle, and round-trip bitwise."""
    cfg = RunConfig(**dict(TINY, d_h=16, d_ff=32, n_nodes=8))
    rng = np.random.default_rng(70)
    heads = per_head_actor_arrays(rng, 4, 16, 2, 32)
    arrays = {f"actor.{k}": v for k, v in fuse_heads(heads).items()}
    arrays.update({f"critic.{k}": v for k, v in CriticParams.init(rng).state_arrays().items()})
    path = tmp_path / "fused.ckpt"
    write_checkpoint(path, arrays)

    actor, critic = load_models(path, cfg)
    stored = {k: v.astype(np.float32) for k, v in heads.items()}   # what the file holds
    feats = rng.random((4, 8, 4))
    tours, logp, _ = rollout_batch(feats, actor, mode="greedy")
    for b in range(4):
        tour, lp = per_head_greedy(feats[b], stored, 2)
        assert list(tours[b]) == tour
        np.testing.assert_allclose(logp.data[b], lp, rtol=1e-6)

    again = tmp_path / "again.ckpt"
    save_models(again, actor, critic)
    reloaded, _ = load_models(again, cfg)
    for name, arr in actor.state_arrays().items():
        np.testing.assert_array_equal(reloaded.state_arrays()[name], arr)


def test_models_round_trip_bitwise(tmp_path):
    cfg = RunConfig(**TINY)
    rng = np.random.default_rng(3)
    actor = ActorParams.init(cfg.model_config(), rng)
    critic = CriticParams.init(rng)
    path = tmp_path / "pair.ckpt"
    save_models(path, actor, critic)
    actor2, critic2 = load_models(path, cfg)
    for k, v in actor.state_arrays().items():
        np.testing.assert_array_equal(actor2.state_arrays()[k], v)
    for k, v in critic.state_arrays().items():
        np.testing.assert_array_equal(critic2.state_arrays()[k], v)


def test_unpack_rejects_foreign_arrays():
    cfg = RunConfig(**TINY)
    rng = np.random.default_rng(3)
    arrays = pack_models(ActorParams.init(cfg.model_config(), rng),
                         CriticParams.init(rng))
    arrays["optimizer.m0"] = np.zeros(2, dtype=np.float32)
    with pytest.raises(ContractError):
        unpack_models(arrays, cfg)


def test_load_models_rejects_wrong_width(tmp_path):
    cfg = RunConfig(**TINY)
    rng = np.random.default_rng(3)
    path = tmp_path / "pair.ckpt"
    save_models(path, ActorParams.init(cfg.model_config(), rng), CriticParams.init(rng))
    wider = RunConfig(**dict(TINY, d_h=16))
    with pytest.raises(ContractError):
        load_models(path, wider)


# ---------------------------------------------------------------------------
# manifest


def test_manifest_round_trip(tmp_path):
    cfg = RunConfig(**TINY)
    write_manifest(tmp_path, cfg, [1, 2])
    back, completed = load_manifest(tmp_path)
    assert back == cfg
    assert completed == [1, 2]
    assert load_manifest(tmp_path / MANIFEST_NAME) == (cfg, [1, 2])


def test_manifest_detects_tampering(tmp_path):
    write_manifest(tmp_path, RunConfig(**TINY), [])
    path = tmp_path / MANIFEST_NAME
    doc = json.loads(path.read_text())
    doc["config"]["seed"] = "99"         # edit without rehashing
    path.write_text(json.dumps(doc))
    with pytest.raises(ContractError):
        load_manifest(tmp_path)


def test_manifest_rejects_bad_format_and_gaps(tmp_path):
    write_manifest(tmp_path, RunConfig(**TINY), [])
    path = tmp_path / MANIFEST_NAME
    doc = json.loads(path.read_text())

    bad = dict(doc, format="paretotsp-manifest v9")
    path.write_text(json.dumps(bad))
    with pytest.raises(ParseError):
        load_manifest(tmp_path)

    bad = dict(doc, completed=[1, 3])
    path.write_text(json.dumps(bad))
    with pytest.raises(ContractError):
        load_manifest(tmp_path)

    bad = dict(doc, prng="mt19937")
    path.write_text(json.dumps(bad))
    with pytest.raises(ContractError):
        load_manifest(tmp_path)


# ---------------------------------------------------------------------------
# the full schedule


def run_files(workdir, m_sub):
    names = [checkpoint_name(i) for i in range(1, m_sub + 1)]
    names += [metrics_name(i) for i in range(1, m_sub + 1)]
    return names


def test_run_schedule_produces_all_artifacts(tmp_path):
    cfg = RunConfig(**TINY)
    actors = run_schedule(cfg, tmp_path)
    assert len(actors) == 3
    for name in run_files(tmp_path, 3):
        assert (tmp_path / name).exists(), name
    assert (tmp_path / MANIFEST_NAME).exists()
    assert not list(tmp_path.glob("*.partial"))
    assert load_manifest(tmp_path)[1] == [1, 2, 3]
    # returned models are usable policies
    inst = MotspInstance(np.random.default_rng(0).random((4, 4)))
    tour, _ = rollout(inst, actors[0], mode="greedy")
    assert sorted(tour.order) == [0, 1, 2, 3]


def test_zero_rest_epochs_copies_checkpoints_bitwise(tmp_path):
    cfg = RunConfig(**dict(TINY, epochs_rest=0))
    run_schedule(cfg, tmp_path)
    first = (tmp_path / checkpoint_name(1)).read_bytes()
    for i in (2, 3):
        assert (tmp_path / checkpoint_name(i)).read_bytes() == first


def metrics_rows(workdir, i):
    """Subproblem i's metrics CSV lines without the wall-clock `seconds` column."""
    return [r.rsplit(",", 1)[0] for r in (workdir / metrics_name(i)).read_text().splitlines()]


def test_runs_are_bitwise_reproducible(tmp_path):
    cfg = RunConfig(**TINY)
    run_schedule(cfg, tmp_path / "a")
    run_schedule(cfg, tmp_path / "b")
    for i in (1, 2, 3):
        assert (tmp_path / "a" / checkpoint_name(i)).read_bytes() == \
            (tmp_path / "b" / checkpoint_name(i)).read_bytes()
        assert metrics_rows(tmp_path / "a", i) == metrics_rows(tmp_path / "b", i)


class Interrupted(Exception):
    pass


def test_interrupted_run_resumes_to_identical_results(tmp_path):
    cfg = RunConfig(**TINY)
    run_schedule(cfg, tmp_path / "full")

    def stop_at_three(i, m, weights, epochs):
        if i == 3:
            raise Interrupted

    with pytest.raises(Interrupted):
        run_schedule(cfg, tmp_path / "part", progress=stop_at_three)
    assert load_manifest(tmp_path / "part")[1] == [1, 2]
    assert not (tmp_path / "part" / checkpoint_name(3)).exists()

    run_schedule(cfg, tmp_path / "part", resume=True)
    for i in (1, 2, 3):
        assert (tmp_path / "part" / checkpoint_name(i)).read_bytes() == \
            (tmp_path / "full" / checkpoint_name(i)).read_bytes()


@pytest.mark.parametrize("k", [1, 2])
def test_crash_between_checkpoint_and_manifest_resumes_to_identical_results(tmp_path, monkeypatch, k):
    """A run that dies after subproblem k's checkpoint is renamed into place,
    before the manifest lists it, resumes to the uninterrupted run's files."""
    cfg = RunConfig(**TINY)
    run_schedule(cfg, tmp_path / "full")
    real_write_manifest = decomposition.write_manifest

    def crash_after_k(workdir, cfg, completed):
        if k in completed:
            assert (Path(workdir) / checkpoint_name(k)).exists()
            raise Interrupted
        real_write_manifest(workdir, cfg, completed)

    monkeypatch.setattr(decomposition, "write_manifest", crash_after_k)
    with pytest.raises(Interrupted):
        run_schedule(cfg, tmp_path / "part")
    monkeypatch.undo()
    assert load_manifest(tmp_path / "part")[1] == list(range(1, k))

    run_schedule(cfg, tmp_path / "part", resume=True)
    for name in (MANIFEST_NAME,) + tuple(checkpoint_name(i) for i in (1, 2, 3)):
        assert (tmp_path / "part" / name).read_bytes() == (tmp_path / "full" / name).read_bytes(), name
    for i in (1, 2, 3):
        assert metrics_rows(tmp_path / "part", i) == metrics_rows(tmp_path / "full", i)


def test_resume_rejects_config_drift(tmp_path):
    run_schedule(RunConfig(**TINY), tmp_path)
    with pytest.raises(ContractError):
        run_schedule(RunConfig(**dict(TINY, seed=6)), tmp_path, resume=True)


def test_resume_rejects_missing_listed_checkpoint(tmp_path):
    cfg = RunConfig(**TINY)
    run_schedule(cfg, tmp_path)
    (tmp_path / checkpoint_name(2)).unlink()
    with pytest.raises(ContractError):
        run_schedule(cfg, tmp_path, resume=True)


def test_trained_actors_reads_checkpoints_one_at_a_time(tmp_path):
    cfg = RunConfig(**TINY)
    rng = np.random.default_rng(8)
    saved = []
    for i in range(1, cfg.m_sub + 1):
        actor = ActorParams.init(cfg.model_config(), rng)
        save_models(tmp_path / checkpoint_name(i), actor, CriticParams.init(rng))
        saved.append(actor)
    write_manifest(tmp_path, cfg, list(range(1, cfg.m_sub + 1)))
    actors = TrainedActors(tmp_path)
    assert len(actors) == cfg.m_sub
    it = iter(actors)
    for want in saved[:2]:
        got = next(it)
        for k, v in want.state_arrays().items():
            np.testing.assert_array_equal(got.state_arrays()[k], v)
    # the last file is read only when iteration reaches it
    (tmp_path / checkpoint_name(cfg.m_sub)).unlink()
    with pytest.raises(FileNotFoundError):
        next(it)


def test_trained_actors_rejects_unfinished_runs(tmp_path):
    cfg = RunConfig(**TINY)
    write_manifest(tmp_path, cfg, [1])
    with pytest.raises(ContractError, match="1/3"):
        TrainedActors(tmp_path)
