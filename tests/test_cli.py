import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from paretotsp import evaluation as ev
from paretotsp.cli import CKPT_ROOT_ENV, main, parse_config_file
from paretotsp.decomposition import (MANIFEST_NAME, RunConfig, TrainedActors,
                                     checkpoint_name, config_hash, metrics_name,
                                     pack_models, read_checkpoint, save_models,
                                     write_checkpoint, write_manifest)
from paretotsp.errors import ContractError, ParseError
from paretotsp.instances import (MotspInstance, evaluate_objectives,
                                 load_native, load_tsplib_pair, save_native)
from paretotsp.model import ActorParams, CriticParams, greedy_tours

from oracles import pareto_brute, tour_objectives_slow

TINY_CONFIG = """\
# tiny smoke-test run
d_h = 8
n_heads = 2
d_ff = 16
n_nodes = 4
batch_size = 4
dataset_size = 8
m_sub = 2
epochs_first = 1
epochs_rest = 1
seed = 3
"""

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

TSPLIB_A = """\
NAME: ta
TYPE: TSP
COMMENT: first coordinate set
DIMENSION: 3
EDGE_WEIGHT_TYPE: EUC_2D
NODE_COORD_SECTION
1 0.0 0.0
2 30.0 40.0
3 60.0 0.0
EOF
"""

TSPLIB_B = """\
NAME: tb
TYPE: TSP
DIMENSION: 3
EDGE_WEIGHT_TYPE: EUC_2D
NODE_COORD_SECTION
1 10.0 10.0
2 20.0 10.0
3 20.0 50.0
EOF
"""


# Six nodes whose two coordinate sets have unequal axis spans, so min-max
# scaling changes how tour lengths compare.
TSPLIB6_A = [(0, 0), (70, 10), (30, 45), (95, 80), (10, 90), (55, 60)]
TSPLIB6_B = [(5, 5), (12, 300), (40, 120), (8, 210), (33, 30), (20, 260)]


def tsplib_text(name, points):
    lines = [f"NAME: {name}", "TYPE: TSP", f"DIMENSION: {len(points)}",
             "EDGE_WEIGHT_TYPE: EUC_2D", "NODE_COORD_SECTION"]
    lines += [f"{i} {x} {y}" for i, (x, y) in enumerate(points, start=1)]
    return "\n".join(lines + ["EOF"]) + "\n"


def untrained_run(workdir, m_sub, seed):
    """A complete run directory of m_sub freshly initialized tiny models."""
    cfg = RunConfig(d_h=8, n_heads=2, d_ff=16, n_nodes=6, m_sub=m_sub, seed=seed)
    rng = np.random.default_rng(seed)
    workdir.mkdir()
    for i in range(1, m_sub + 1):
        save_models(workdir / checkpoint_name(i), ActorParams.init(cfg.model_config(), rng),
                    CriticParams.init(rng))
    write_manifest(workdir, cfg, list(range(1, m_sub + 1)))
    return workdir


def write_legacy_manifest(workdir, edit=None):
    """Rewrite a run's manifest as older versions wrote it: the config also
    held ref1/ref2, and the hash covered them. `edit` changes the config
    afterwards without rehashing."""
    path = workdir / MANIFEST_NAME
    doc = json.loads(path.read_text())
    doc["config"].update(ref1="1.2", ref2="1.2")
    doc["config_hash"] = config_hash(doc["config"])
    doc["config"].update(edit or {})
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config = root / "run.conf"
    config.write_text(TINY_CONFIG)
    ckpt = root / "ckpt"
    assert main(["train", "--config", str(config), "--out", str(ckpt)]) == 0
    return {"root": root, "config": config, "ckpt": ckpt}


# ---------------------------------------------------------------------------
# config parsing


def test_parse_config_file(tmp_path):
    path = tmp_path / "c.conf"
    path.write_text("# comment\n\na = 1\nb = two words\n")
    assert parse_config_file(path) == {"a": "1", "b": "two words"}


@pytest.mark.parametrize("text,line", [
    ("a = 1\na = 2\n", 2),
    ("just words\n", 1),
    ("= 3\n", 1),
])
def test_parse_config_rejections(tmp_path, text, line):
    path = tmp_path / "c.conf"
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        parse_config_file(path)
    assert err.value.line_no == line


def test_parse_config_rejects_json_without_config(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"format": "other"}')
    with pytest.raises(ParseError):
        parse_config_file(path)


def test_shipped_profiles_parse_to_their_documented_runs(tmp_path):
    """desk.profile is README's desk row; full.profile and an empty file are
    both the built-in defaults, as full.profile's header promises."""
    desk = RunConfig.from_mapping(parse_config_file(CONFIGS / "desk.profile"))
    assert desk == RunConfig(n_nodes=10, m_sub=10, d_h=16, n_heads=2, d_ff=64, batch_size=64,
                             dataset_size=32000, epochs_first=8, epochs_rest=1,
                             lr_actor=1e-3, lr_critic=1e-3, seed=0)
    assert RunConfig.from_mapping(parse_config_file(CONFIGS / "full.profile")) == RunConfig()
    empty = tmp_path / "empty.profile"
    empty.write_text("")
    assert RunConfig.from_mapping(parse_config_file(empty)) == RunConfig()


# ---------------------------------------------------------------------------
# gen


def test_gen_writes_deterministic_instances(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["gen", "--n", "6", "--count", "3", "--seed", "7",
                     "--out", str(out)]) == 0
    files = sorted(p.name for p in a.glob("*.motsp"))
    assert files == [f"rand_n6_s7_{k}.motsp" for k in range(3)]
    for name in files:
        assert (a / name).read_bytes() == (b / name).read_bytes()
    inst = load_native(a / files[0])
    assert inst.features.shape == (6, 4)
    assert "wrote 3 instance file(s)" in capsys.readouterr().out


def test_gen_rejects_tiny_n(tmp_path, capsys):
    assert main(["gen", "--n", "1", "--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err
    # numpy refuses these shapes before it allocates anything
    for n in (10**20, 2**60):
        assert main(["gen", "--n", str(n), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "--n" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()


def test_gen_rejects_negative_seed(tmp_path, capsys):
    assert main(["gen", "--n", "4", "--seed", "-1", "--out", str(tmp_path / "out")]) == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# train


def test_train_produces_checkpoints(trained, capsys):
    ckpt = trained["ckpt"]
    assert (ckpt / MANIFEST_NAME).exists()
    assert (ckpt / checkpoint_name(1)).exists()
    assert (ckpt / checkpoint_name(2)).exists()


def test_train_progress_lines(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text(TINY_CONFIG)
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "w")]) == 0
    out = capsys.readouterr().out
    assert "subproblem 1/2  weights=(0.0000, 1.0000)  epochs=1" in out
    assert "subproblem 2/2  weights=(1.0000, 0.0000)  epochs=1" in out
    assert "trained 2 subproblem(s)" in out


def test_train_divergence_names_the_subproblem_and_iteration(tmp_path, capsys, diverge_on_call):
    config = tmp_path / "run.conf"
    config.write_text(TINY_CONFIG)
    diverge_on_call(3)              # two iterations per subproblem: subproblem 2, iteration 1
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "w")]) == 1
    err = capsys.readouterr().err
    assert "training diverged in subproblem 2, iteration 1: " in err
    assert "Traceback" not in err


def test_train_manifest_rerun_is_bitwise_identical(trained, tmp_path):
    manifest = trained["ckpt"] / MANIFEST_NAME
    redo = tmp_path / "redo"
    assert main(["train", "--config", str(manifest), "--out", str(redo)]) == 0
    for i in (1, 2):
        assert (redo / checkpoint_name(i)).read_bytes() == \
            (trained["ckpt"] / checkpoint_name(i)).read_bytes()


def test_train_workdir_from_environment(tmp_path, monkeypatch, capsys):
    config = tmp_path / "run.conf"
    config.write_text(TINY_CONFIG)
    monkeypatch.setenv(CKPT_ROOT_ENV, str(tmp_path / "envdir"))
    assert main(["train", "--config", str(config)]) == 0
    assert (tmp_path / "envdir" / MANIFEST_NAME).exists()

    monkeypatch.delenv(CKPT_ROOT_ENV)
    assert main(["train", "--config", str(config)]) == 2
    assert CKPT_ROOT_ENV in capsys.readouterr().err


def test_train_missing_config_is_io_error(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "nope.conf"),
                 "--out", str(tmp_path)]) == 1
    assert "i/o error" in capsys.readouterr().err


def _out_of_memory(*args, **kwargs):
    raise MemoryError("Unable to allocate 931. GiB for an array")


@pytest.mark.parametrize("command", ["train", "solve"])
def test_out_of_memory_exits_one_with_one_line(trained, tmp_path, monkeypatch, capsys, command):
    """A model or instance too large to allocate exits 1 with one line. The
    failure is faked: a host that overcommits memory would grant a real
    request and kill the process later."""
    monkeypatch.setattr("paretotsp.decomposition.run_schedule", _out_of_memory)
    monkeypatch.setattr("paretotsp.evaluation.approximate_pf", _out_of_memory)
    if command == "train":
        argv = ["train", "--config", str(trained["config"]), "--out", str(tmp_path / "w")]
    else:
        save_native(MotspInstance(np.random.default_rng(0).random((4, 4))), tmp_path / "i.motsp")
        argv = ["solve", "--ckpt", str(trained["ckpt"]), "--instance", str(tmp_path / "i.motsp"),
                "--out", str(tmp_path / "pf.csv")]
    assert main(argv) == 1
    assert capsys.readouterr().err == "out of memory: Unable to allocate 931. GiB for an array\n"


def test_legacy_manifest_with_ref_keys(trained, tmp_path, capsys):
    """A run whose manifest still records ref1/ref2 solves, reruns from the
    manifest, resumes, and keeps its config hash checked; new manifests lack
    the keys."""
    old = tmp_path / "old"
    shutil.copytree(trained["ckpt"], old)
    write_legacy_manifest(old)
    assert main(["gen", "--n", "4", "--seed", "2", "--out", str(tmp_path)]) == 0
    instance = str(tmp_path / "rand_n4_s2_0.motsp")
    assert main(["solve", "--ckpt", str(old), "--instance", instance,
                 "--out", str(tmp_path / "old.csv")]) == 0
    assert main(["solve", "--ckpt", str(trained["ckpt"]), "--instance", instance,
                 "--out", str(tmp_path / "new.csv")]) == 0
    assert (tmp_path / "old.csv").read_bytes() == (tmp_path / "new.csv").read_bytes()

    redo = tmp_path / "redo"
    assert main(["train", "--config", str(old / MANIFEST_NAME), "--out", str(redo)]) == 0
    for i in (1, 2):
        assert (redo / checkpoint_name(i)).read_bytes() == (old / checkpoint_name(i)).read_bytes()
    assert "ref1" not in json.loads((redo / MANIFEST_NAME).read_text())["config"]

    # interrupted after subproblem 1
    doc = json.loads((old / MANIFEST_NAME).read_text())
    (old / MANIFEST_NAME).write_text(json.dumps(dict(doc, completed=[1])))
    (old / checkpoint_name(2)).unlink()
    assert main(["train", "--config", str(trained["config"]), "--out", str(old), "--resume"]) == 0
    assert (old / checkpoint_name(2)).read_bytes() == (trained["ckpt"] / checkpoint_name(2)).read_bytes()
    resumed = json.loads((old / MANIFEST_NAME).read_text())
    assert resumed["completed"] == [1, 2]
    assert not {"ref1", "ref2"} & set(resumed["config"])
    capsys.readouterr()

    for k, edit in enumerate(({"ref1": "1.5"}, {"ref1": "\u00e9"}, {"seed": "4"})):
        edited = tmp_path / f"edited_{k}"
        shutil.copytree(trained["ckpt"], edited)
        write_legacy_manifest(edited, edit)
        assert main(["solve", "--ckpt", str(edited), "--instance", instance,
                     "--out", str(tmp_path / "edited.csv")]) == 2
        assert capsys.readouterr().err == (f"error: {edited / MANIFEST_NAME}: "
                                           "manifest config hash does not match its config\n")


def older_manifest_loads_reruns_and_resumes(trained, tmp_path, older):
    """A manifest that `older` rewrote as older versions wrote it loads, reruns
    and resumes; new manifests hold only the keys that loading reads."""
    old = tmp_path / "old"
    shutil.copytree(trained["ckpt"], old)
    manifest = old / MANIFEST_NAME
    doc = json.loads(manifest.read_text())
    assert set(doc) == {"format", "prng", "config", "config_hash", "completed"}
    older(doc)
    manifest.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    assert len(TrainedActors(old)) == 2

    redo = tmp_path / "redo"
    assert main(["train", "--config", str(manifest), "--out", str(redo)]) == 0
    for i in (1, 2):
        assert (redo / checkpoint_name(i)).read_bytes() == (old / checkpoint_name(i)).read_bytes()
    assert (redo / MANIFEST_NAME).read_bytes() == (trained["ckpt"] / MANIFEST_NAME).read_bytes()

    # interrupted after subproblem 1
    manifest.write_text(json.dumps(dict(doc, completed=[1])))
    (old / checkpoint_name(2)).unlink()
    assert main(["train", "--config", str(trained["config"]), "--out", str(old), "--resume"]) == 0
    assert (old / checkpoint_name(2)).read_bytes() == (trained["ckpt"] / checkpoint_name(2)).read_bytes()
    assert manifest.read_bytes() == (trained["ckpt"] / MANIFEST_NAME).read_bytes()


def test_manifest_with_weights_and_epochs(trained, tmp_path):
    """The weight schedule and epoch budgets, as older versions wrote them."""
    def older(doc):
        sched = RunConfig.from_mapping(doc["config"]).schedule()
        doc.update(weights=sched.weights.tolist(), epochs=list(sched.epochs))
    older_manifest_loads_reruns_and_resumes(trained, tmp_path, older)


def test_manifest_with_retired_d_x(trained, tmp_path):
    """The feature width, as older versions wrote it in the config and its hash."""
    def older(doc):
        doc["config"]["d_x"] = "4"
        doc["config_hash"] = config_hash(doc["config"])
    older_manifest_loads_reruns_and_resumes(trained, tmp_path, older)


def test_manifest_with_retired_training_settings(trained, tmp_path):
    """Adam's constants and the two clip bounds, as older versions wrote them
    in the config and its hash."""
    def older(doc):
        doc["config"].update(beta1="0.90000000000000002", beta2="0.999", eps="1e-08",
                             clip_norm="2", clip_logits="10")
        doc["config_hash"] = config_hash(doc["config"])
    older_manifest_loads_reruns_and_resumes(trained, tmp_path, older)


def test_train_config_file_with_retired_keys_at_their_values(trained, tmp_path):
    config = tmp_path / "run.conf"
    config.write_text(TINY_CONFIG + "beta1 = 0.9\nclip_logits = 10\n")
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
    for name in (checkpoint_name(1), checkpoint_name(2), MANIFEST_NAME):
        assert (tmp_path / "run" / name).read_bytes() == (trained["ckpt"] / name).read_bytes()


@pytest.mark.parametrize("breakage", [
    lambda doc: {k: v for k, v in doc.items() if k != "config"},
    lambda doc: dict(doc, config=sorted(doc["config"].items())),
    lambda doc: [doc],
    lambda doc: dict(doc, completed=[1, "two"]),
    lambda doc: dict(doc, completed=list(range(1, int(doc["config"]["m_sub"]) + 2))),
    lambda doc: dict(doc, completed=[2]),
    lambda doc: dict(doc, config=dict(doc["config"], bogus="3")),
    lambda doc: dict(doc, config=dict(doc["config"], n_heads="3")),     # d_h=8
    lambda doc: dict(doc, config=dict(doc["config"], seed=float("inf"))),
    lambda doc: dict(doc, config=dict(doc["config"], d_x="6")),
    lambda doc: dict(doc, config=dict(doc["config"], beta1="0.95")),
], ids=["no-config", "config-not-object", "document-not-object", "completed-not-integer",
        "completed-beyond-m_sub", "completed-not-contiguous", "unknown-config-key", "n_heads-not-dividing-d_h",
        "int-config-value-infinite", "retired-d_x-not-4", "retired-beta1-not-0.9"])
def test_malformed_manifest_exits_2_naming_the_file(trained, tmp_path, capsys, breakage):
    run = tmp_path / "run"
    shutil.copytree(trained["ckpt"], run)
    manifest = run / MANIFEST_NAME
    manifest.write_text(json.dumps(breakage(json.loads(manifest.read_text()))))
    broken = manifest.read_bytes()
    assert main(["gen", "--n", "4", "--seed", "2", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["solve", "--ckpt", str(run), "--instance", str(tmp_path / "rand_n4_s2_0.motsp"),
                 "--out", str(tmp_path / "pf.csv")]) == 2
    assert str(manifest) in capsys.readouterr().err
    assert main(["train", "--config", str(trained["config"]), "--out", str(run), "--resume"]) == 2
    assert str(manifest) in capsys.readouterr().err
    assert manifest.read_bytes() == broken


def test_train_config_from_manifest_needs_a_config_object(trained, tmp_path, capsys):
    doc = json.loads((trained["ckpt"] / MANIFEST_NAME).read_text())
    config = tmp_path / MANIFEST_NAME
    config.write_text(json.dumps(dict(doc, config=sorted(doc["config"].items()))))
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "run")]) == 2
    assert str(config) in capsys.readouterr().err


@pytest.mark.parametrize("key,value,shown", [
    ("n_heads", "0", "n_heads=0"), ("d_h", "0", "d_h=0"), ("seed", "-1", "seed must be >= 0, got -1"),
    ("d_x", "3", "got 3"), ("n_layers", "-1", "n_layers=-1"), ("clip_logits", "0", "got 0"),
    ("dataset_size", "0", "dataset_size=0"), ("lr_actor", "nan", "lr_actor=nan"),
    ("clip_norm", "-1", "got -1"), ("beta1", "1", "got 1"),
    ("batch_size", "1", "batch_size must be >= 2"), ("n_nodes", "1", "n_nodes must be >= 2"),
    ("dataset_size", "10", "dataset_size 10 must be divisible by batch_size 4"),
    ("epochs_rest", "-1", "epochs_rest must be >= 0"),
])
def test_train_bad_config_value_exits_2_before_the_work_directory(tmp_path, capsys, key, value, shown):
    config = tmp_path / "run.conf"
    config.write_text(TINY_CONFIG.replace(f"\n{key} = ", f"\n#{key} = ") + f"{key} = {value}\n")
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: ")
    assert shown in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("edit", [
    {"format": "paretotsp-manifest v9"},
    {"prng": "mt19937"},
    {"config_hash": "0" * 64},
], ids=["format", "prng", "config-hash"])
def test_train_config_rejects_a_tampered_manifest(trained, tmp_path, capsys, edit):
    manifest = tmp_path / MANIFEST_NAME
    manifest.write_text(json.dumps(dict(json.loads((trained["ckpt"] / MANIFEST_NAME).read_text()), **edit)))
    assert main(["train", "--config", str(manifest), "--out", str(tmp_path / "run")]) == 2
    assert str(manifest) in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("sizes,shape", [
    (dict(batch_size=10**20, dataset_size=10**20), "(100000000000000000000, 4, 4)"),
    (dict(n_nodes=10**20), "(4, 100000000000000000000, 4)"),
], ids=["batch_size", "n_nodes"])
def test_train_sizes_numpy_cannot_shape_exit_2_before_the_work_directory(tmp_path, capsys, sizes, shape):
    text = TINY_CONFIG
    for key, value in sizes.items():
        text = text.replace(f"\n{key} = ", f"\n#{key} = ") + f"{key} = {value}\n"
    config = tmp_path / "run.conf"
    config.write_text(text)
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == (f"error: {config}: batch_size and n_nodes too large: "
                                       f"numpy cannot shape a float64 array of {shape}\n")
    assert not (tmp_path / "run").exists()


def test_train_unknown_config_key(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text(TINY_CONFIG + "momentum = 0.9\n")
    assert main(["train", "--config", str(config), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {config}: unknown config key 'momentum'\n"


# ---------------------------------------------------------------------------
# solve


def test_solve_native_instance(trained, tmp_path, capsys):
    assert main(["gen", "--n", "4", "--seed", "2", "--out", str(tmp_path)]) == 0
    inst_path = tmp_path / "rand_n4_s2_0.motsp"
    out = tmp_path / "pf.csv"
    assert main(["solve", "--ckpt", str(trained["ckpt"]),
                 "--instance", str(inst_path), "--out", str(out)]) == 0
    assert "nondominated point(s) from 2 model(s)" in capsys.readouterr().out

    inst = load_native(inst_path)
    front = ev.read_pf_csv(out)
    assert 1 <= len(front) <= 2
    np.testing.assert_array_equal(front.objectives, evaluate_objectives(inst.features, front.tours))


def test_solve_tsplib_writes_unscaled_twin(trained, tmp_path):
    pa, pb = tmp_path / "a.tsp", tmp_path / "b.tsp"
    pa.write_text(TSPLIB_A)
    pb.write_text(TSPLIB_B)
    out = tmp_path / "pf.csv"
    assert main(["solve", "--ckpt", str(trained["ckpt"]),
                 "--tsplib", str(pa), str(pb), "--out", str(out)]) == 0
    unscaled = tmp_path / "pf_unscaled.csv"
    assert unscaled.exists()
    raw = ev.read_pf_csv(unscaled)
    # any 3-node tour walks the full triangle in both coordinate sets
    np.testing.assert_allclose(raw.objectives[0],
                               [50.0 + 50.0 + 60.0, 10.0 + 40.0 + np.hypot(10, 40)])


@pytest.mark.parametrize("seed", range(8))
def test_solve_tsplib_unscaled_rows_match_their_tours(tmp_path, seed):
    """Eight untrained models on an n=6 pair: every unscaled row is the raw
    length of its own tour, and the rows are the raw front of all eight
    greedy tours, including tours the scaled front drops."""
    ckpt = untrained_run(tmp_path / "ckpt", 8, seed)
    pa, pb = tmp_path / "a.tsp", tmp_path / "b.tsp"
    pa.write_text(tsplib_text("a", TSPLIB6_A))
    pb.write_text(tsplib_text("b", TSPLIB6_B))
    out = tmp_path / "pf.csv"
    assert main(["solve", "--ckpt", str(ckpt), "--tsplib", str(pa), str(pb),
                 "--out", str(out)]) == 0
    inst = load_tsplib_pair(pa, pb)
    tours = greedy_tours(inst.features, TrainedActors(ckpt))
    want = np.array([tour_objectives_slow(inst.raw_coords, t) for t in tours])
    keep = pareto_brute(want)
    raw = ev.read_pf_csv(tmp_path / "pf_unscaled.csv")
    assert raw.subproblems.tolist() == [j + 1 for j in keep]
    np.testing.assert_array_equal(raw.tours, tours[keep])
    np.testing.assert_allclose(raw.objectives, want[keep], rtol=0, atol=1e-9)


def test_solve_wants_exactly_one_input(trained, tmp_path, capsys):
    assert main(["solve", "--ckpt", str(trained["ckpt"]),
                 "--out", str(tmp_path / "pf.csv")]) == 2
    assert "exactly one" in capsys.readouterr().err


def test_solve_rejects_unfinished_checkpoints(tmp_path, capsys):
    cfg = RunConfig(d_h=8, n_heads=2, d_ff=16, n_nodes=4, batch_size=4,
                    dataset_size=8, m_sub=2, seed=3)
    write_manifest(tmp_path, cfg, [])
    assert main(["gen", "--n", "4", "--seed", "0", "--out", str(tmp_path)]) == 0
    assert main(["solve", "--ckpt", str(tmp_path),
                 "--instance", str(tmp_path / "rand_n4_s0_0.motsp"),
                 "--out", str(tmp_path / "pf.csv")]) == 2
    assert "0/2" in capsys.readouterr().err


def test_solve_rejects_a_missing_listed_checkpoint(trained, tmp_path, capsys):
    """A finished run without model_2.ckpt exits 2 before any checkpoint is
    read, with `train --resume`'s message, and writes no front."""
    run = tmp_path / "run"
    shutil.copytree(trained["ckpt"], run)
    (run / checkpoint_name(2)).unlink()
    assert main(["gen", "--n", "4", "--seed", "0", "--out", str(tmp_path)]) == 0
    assert main(["solve", "--ckpt", str(run), "--instance", str(tmp_path / "rand_n4_s0_0.motsp"),
                 "--out", str(tmp_path / "pf.csv")]) == 2
    assert capsys.readouterr().err == (f"error: manifest lists subproblem 2 complete but "
                                       f"{run / checkpoint_name(2)} is missing\n")
    assert not (tmp_path / "pf.csv").exists()


def test_solve_takes_a_run_directory_or_its_manifest(trained, tmp_path):
    assert main(["gen", "--n", "5", "--seed", "1", "--out", str(tmp_path)]) == 0
    instance = str(tmp_path / "rand_n5_s1_0.motsp")
    for name, ckpt in (("dir.csv", trained["ckpt"]), ("manifest.csv", trained["ckpt"] / MANIFEST_NAME)):
        assert main(["solve", "--ckpt", str(ckpt), "--instance", instance, "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "manifest.csv").read_bytes() == (tmp_path / "dir.csv").read_bytes()


def test_solve_names_a_missing_manifest_once(tmp_path, capsys):
    missing = tmp_path / "nowhere"
    assert main(["gen", "--n", "4", "--seed", "0", "--out", str(tmp_path)]) == 0
    assert main(["solve", "--ckpt", str(missing), "--instance", str(tmp_path / "rand_n4_s0_0.motsp"),
                 "--out", str(tmp_path / "pf.csv")]) == 2
    err = capsys.readouterr().err
    assert f"{missing / MANIFEST_NAME}: unreadable manifest" in err
    assert f"{MANIFEST_NAME}/{MANIFEST_NAME}" not in err


def test_solve_checks_instance_before_reading_checkpoints(tmp_path, capsys):
    cfg = RunConfig(d_h=8, n_heads=2, d_ff=16, n_nodes=4, batch_size=4,
                    dataset_size=8, m_sub=2, seed=3)
    # a complete manifest whose checkpoint files do not exist
    write_manifest(tmp_path, cfg, [1, 2])
    wide = tmp_path / "wide.motsp"
    wide.write_text("MOTSP v1 n=4 m=3 dx=6\n" + "0.1 0.2 0.3 0.4 0.5 0.6\n" * 4)
    assert main(["solve", "--ckpt", str(tmp_path), "--instance", str(wide),
                 "--out", str(tmp_path / "pf.csv")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {wide}:1: n=4 m=3 dx=6: need n >= 2 and two objectives")


@pytest.mark.parametrize("d_h,shown", [(16, "shape (16, 4) != (8, 4)"), (8, "missing=['dec.v1']")],
                         ids=["wider", "missing-array"])
def test_solve_names_a_checkpoint_that_does_not_fit_the_run(tmp_path, capsys, d_h, shown):
    """A wider model_2.ckpt, or one without `actor.dec.v1`, exits 2 naming it."""
    run = untrained_run(tmp_path / "run", 3, seed=0)
    cfg = RunConfig(d_h=d_h, n_heads=2, d_ff=16, n_nodes=6, m_sub=3)
    rng = np.random.default_rng(1)
    arrays = pack_models(ActorParams.init(cfg.model_config(), rng), CriticParams.init(rng))
    if d_h == 8:
        del arrays["actor.dec.v1"]
    write_checkpoint(run / checkpoint_name(2), arrays)
    save_native(MotspInstance(np.random.default_rng(0).random((6, 4))), tmp_path / "i.motsp")
    assert main(["solve", "--ckpt", str(run), "--instance", str(tmp_path / "i.motsp"),
                 "--out", str(tmp_path / "pf.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {run / checkpoint_name(2)}: "), err
    assert shown in err


def test_solve_rejects_non_finite_checkpoint(trained, tmp_path, capsys):
    ckpt = tmp_path / "ckpt"
    shutil.copytree(trained["ckpt"], ckpt)
    arrays = read_checkpoint(ckpt / checkpoint_name(2))
    arrays["actor.dec.Wq"][0, 0] = np.nan
    write_checkpoint(ckpt / checkpoint_name(2), arrays)
    assert main(["gen", "--n", "4", "--seed", "0", "--out", str(tmp_path)]) == 0
    assert main(["solve", "--ckpt", str(ckpt), "--instance", str(tmp_path / "rand_n4_s0_0.motsp"),
                 "--out", str(tmp_path / "pf.csv")]) == 2
    err = capsys.readouterr().err
    assert "model_2.ckpt" in err and "actor.dec.Wq" in err


@pytest.mark.parametrize("dims,fragment", [
    (b" 4294967296 4294967296", "truncated data"),
    (b" 0 100000000000000000000", "bad dimensions"),
    (b" 0" * 65, "bad dimensions"),
    (b" 0 9223372036854775807 2", "bad dimensions"),
], ids=["wraps-int64", "over-numpy-dimension", "65-dimensions", "over-numpy-size"])
def test_solve_rejects_a_checkpoint_shape_whose_size_overflows_int64(trained, tmp_path, capsys,
                                                                    dims, fragment):
    """2**32 x 2**32 elements wrap to 0 in int64; the reader must still see
    that the file is far too short for them. Zero-element shapes that numpy
    itself refuses fit in any file, and must fail as bad dimensions."""
    ckpt = tmp_path / "ckpt"
    shutil.copytree(trained["ckpt"], ckpt)
    path = ckpt / checkpoint_name(2)
    magic, count, first, rest = path.read_bytes().split(b"\n", 3)
    name = first.split(b" ")[0]
    path.write_bytes(b"\n".join([magic, count, name + dims, rest]))
    assert main(["gen", "--n", "4", "--seed", "0", "--out", str(tmp_path)]) == 0
    assert main(["solve", "--ckpt", str(ckpt), "--instance", str(tmp_path / "rand_n4_s0_0.motsp"),
                 "--out", str(tmp_path / "pf.csv")]) == 2
    err = capsys.readouterr().err
    assert "model_2.ckpt" in err and fragment in err and name.decode() in err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_solve_rejects_a_non_finite_instance_feature(trained, tmp_path, capsys, value):
    path = tmp_path / "bad.motsp"
    path.write_text("MOTSP v1 n=4 m=2 dx=4\n0.1 0.2 0.3 0.4\n"
                    f"0.5 {value} 0.7 0.8\n0.9 0.1 0.2 0.3\n0.4 0.5 0.6 0.7\n")
    assert main(["solve", "--ckpt", str(trained["ckpt"]), "--instance", str(path),
                 "--out", str(tmp_path / "pf.csv")]) == 2
    err = capsys.readouterr().err
    assert f"{path}:3" in err and "Traceback" not in err


@pytest.mark.parametrize("value", ["1e300", "1e20"])
def test_solve_rejects_a_feature_that_overflows_the_models(trained, tmp_path, capsys, value):
    path = tmp_path / "big.motsp"
    path.write_text("MOTSP v1 n=4 m=2 dx=4\n0.1 0.2 0.3 0.4\n"
                    f"0.5 {value} 0.7 0.8\n0.9 0.1 0.2 0.3\n0.4 0.5 0.6 0.7\n")
    assert main(["solve", "--ckpt", str(trained["ckpt"]), "--instance", str(path),
                 "--out", str(tmp_path / "pf.csv")]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "Traceback" not in err
    assert not (tmp_path / "pf.csv").exists()


@pytest.mark.parametrize("points", [
    [(0, 0), (float("inf"), 10), (20, 30)],
    [(-1e308, 0), (1e308, 10), (0, 30)],
    [(0, 0), (1e308, 0), (0, 1e308)],
], ids=["inf-coordinate", "span-overflow", "tour-length-overflow"])
def test_solve_rejects_non_finite_tsplib_coordinates(trained, tmp_path, capsys, points):
    pa, pb = tmp_path / "a.tsp", tmp_path / "b.tsp"
    pa.write_text(tsplib_text("a", points))
    pb.write_text(TSPLIB_B)
    assert main(["solve", "--ckpt", str(trained["ckpt"]), "--tsplib", str(pa), str(pb),
                 "--out", str(tmp_path / "pf.csv")]) == 2
    err = capsys.readouterr().err
    assert str(pa) in err and "Traceback" not in err
    assert not (tmp_path / "pf.csv").exists()


# ---------------------------------------------------------------------------
# eval


def write_front(path, rows):
    tours, objectives = zip(*rows)
    ev.write_pf_csv(path, ev.Front(tours, objectives, np.ones(len(rows))),
                    np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_eval_no_normalize_exact_value(tmp_path, capsys):
    pf = tmp_path / "front.csv"
    write_front(pf, [((0, 1, 2), (0.2, 0.2))])
    report = tmp_path / "hv.csv"
    assert main(["eval", "--pf", str(pf), "--no-normalize",
                 "--out", str(report)]) == 0
    assert "front: hv=1.000000 points=1" in capsys.readouterr().out
    lines = report.read_text().splitlines()
    assert lines[0] == "instance,method,hv,n_points"
    assert lines[1] == "-,front,1,1"


def test_eval_protocol_over_two_fronts(tmp_path, capsys):
    one, two = tmp_path / "one.csv", tmp_path / "two.csv"
    write_front(one, [((0, 1, 2), (1.0, 5.0)), ((1, 0, 2), (3.0, 3.0))])
    write_front(two, [((0, 2, 1), (2.0, 4.0)), ((2, 0, 1), (5.0, 1.0))])
    report = tmp_path / "hv.csv"
    assert main(["eval", "--pf", str(one), str(two), "--label", "demo",
                 "--out", str(report)]) == 0
    lines = report.read_text().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("demo,one,") and lines[2].startswith("demo,two,")
    hv_one = float(lines[1].split(",")[2])
    hv_two = float(lines[2].split(",")[2])
    assert 0.0 < hv_one <= 1.44 and 0.0 < hv_two <= 1.44


def test_eval_scores_a_one_point_front_from_solve(trained, tmp_path, capsys):
    # Every tour of a 3-node instance has the same length, so the front is one point.
    assert main(["gen", "--n", "3", "--seed", "0", "--out", str(tmp_path)]) == 0
    pf = tmp_path / "pf.csv"
    assert main(["solve", "--ckpt", str(trained["ckpt"]),
                 "--instance", str(tmp_path / "rand_n3_s0_0.motsp"), "--out", str(pf)]) == 0
    assert len(ev.read_pf_csv(pf)) == 1
    capsys.readouterr()
    assert main(["eval", "--pf", str(pf), "--out", str(tmp_path / "hv.csv")]) == 0
    assert "pf: hv=1.440000 points=1" in capsys.readouterr().out


@pytest.mark.parametrize("label, stem", [
    ("kroA100,kroB100", "front"),
    ('say "A"', "front"),
    ("two\nlines", "front"),
    ("kroA100\u00b7B", "front"),
    ("-", "one,two"),
], ids=["label-comma", "label-quote", "label-newline", "label-non-ascii", "stem-comma"])
def test_eval_rejects_a_field_the_report_cannot_hold(tmp_path, capsys, label, stem):
    """The HV report is unquoted ASCII CSV: a comma, double quote or line
    break in the label or a PF file's stem would add or split its fields,
    and a non-ASCII character cannot be written."""
    pf = tmp_path / f"{stem}.csv"
    write_front(pf, [((0, 1, 2), (1.0, 5.0)), ((1, 0, 2), (3.0, 3.0))])
    report = tmp_path / "hv.csv"
    assert main(["eval", "--pf", str(pf), "--label", label, "--out", str(report)]) == 2
    err = capsys.readouterr().err
    assert repr(label if stem == "front" else stem) in err and "Traceback" not in err
    assert not report.exists()


def test_eval_bad_ref(tmp_path, capsys):
    pf = tmp_path / "front.csv"
    write_front(pf, [((0, 1, 2), (0.2, 0.2))])
    assert main(["eval", "--pf", str(pf), "--ref", "1.2",
                 "--out", str(tmp_path / "hv.csv")]) == 2


@pytest.mark.parametrize("ref", ["nan,1.2", "inf,inf"])
def test_eval_rejects_a_non_finite_ref(tmp_path, capsys, ref):
    pf = tmp_path / "front.csv"
    write_front(pf, [((0, 1, 2), (1.0, 5.0)), ((1, 0, 2), (3.0, 3.0))])
    assert main(["eval", "--pf", str(pf), "--ref", ref, "--out", str(tmp_path / "hv.csv")]) == 2
    err = capsys.readouterr().err
    assert "--ref" in err and "Traceback" not in err
    assert not (tmp_path / "hv.csv").exists()


@pytest.mark.parametrize("flags", [["--no-normalize"], []], ids=["raw", "normalized"])
def test_eval_rejects_a_ref_whose_area_overflows(tmp_path, capsys, flags):
    pf = tmp_path / "front.csv"
    write_front(pf, [((0, 1, 2), (0.0, 1e308)), ((1, 0, 2), (1e308, 0.0))])
    with np.errstate(over="raise"):
        assert main(["eval", "--pf", str(pf), *flags, "--ref", "1.7e308,1.7e308",
                     "--out", str(tmp_path / "hv.csv")]) == 2
    err = capsys.readouterr().err
    assert "1.7e+308" in err and "Traceback" not in err
    assert not (tmp_path / "hv.csv").exists()


def test_eval_rejects_fronts_whose_objective_span_overflows(tmp_path, capsys):
    pf = tmp_path / "front.csv"
    write_front(pf, [((0, 1, 2), (-1e308, 1.0)), ((1, 0, 2), (1e308, 0.0))])
    assert main(["eval", "--pf", str(pf), "--out", str(tmp_path / "hv.csv")]) == 2
    err = capsys.readouterr().err
    assert "span" in err and "Traceback" not in err
    assert not (tmp_path / "hv.csv").exists()


@pytest.mark.parametrize("column", [3, 4], ids=["f1", "f2"])
def test_eval_rejects_a_non_finite_objective(tmp_path, capsys, column):
    pf = tmp_path / "front.csv"
    write_front(pf, [((0, 1, 2), (1.0, 5.0)), ((1, 0, 2), (3.0, 3.0))])
    lines = pf.read_text().splitlines()
    cells = lines[2].split(",")
    cells[column] = "nan"
    lines[2] = ",".join(cells)
    pf.write_text("\n".join(lines) + "\n")
    assert main(["eval", "--pf", str(pf), "--out", str(tmp_path / "hv.csv")]) == 2
    err = capsys.readouterr().err
    assert f"{pf}:3" in err and "Traceback" not in err
    assert not (tmp_path / "hv.csv").exists()


def test_eval_missing_front_file(tmp_path):
    assert main(["eval", "--pf", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path / "hv.csv")]) == 1


def test_eval_malformed_front(tmp_path, capsys):
    pf = tmp_path / "front.csv"
    pf.write_text("wrong,header\n")
    assert main(["eval", "--pf", str(pf), "--out", str(tmp_path / "hv.csv")]) == 2


# ---------------------------------------------------------------------------
# plot


def test_plot_blocks_and_legend(tmp_path, capsys):
    one, two = tmp_path / "one.csv", tmp_path / "two.csv"
    write_front(one, [((0, 1, 2), (1.0, 5.0)), ((1, 0, 2), (3.0, 3.0))])
    write_front(two, [((0, 2, 1), (2.0, 4.0))])
    out = tmp_path / "plot.dat"
    assert main(["plot", "--pf", str(one), str(two), "--out", str(out)]) == 0

    blocks = out.read_text().strip().split("\n\n")
    assert len(blocks) == 2
    pts = [[float(x) for x in line.split()] for line in blocks[0].splitlines()]
    np.testing.assert_array_equal(pts, [[1.0, 5.0], [3.0, 3.0]])
    legend = (tmp_path / "plot.dat.legend").read_text().splitlines()
    assert legend == ["0 one", "1 two"]


def test_plot_legend_names_a_non_ascii_front_file(tmp_path, capsys):
    pf = tmp_path / "fr\u20acnt.csv"
    write_front(pf, [((0, 1, 2), (1.0, 5.0)), ((1, 0, 2), (3.0, 3.0))])
    out = tmp_path / "plot.dat"
    assert main(["plot", "--pf", str(pf), "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8").split() == ["1", "5", "3", "3"]
    legend = (tmp_path / "plot.dat.legend").read_text(encoding="utf-8")
    assert legend.splitlines() == ["0 fr\u20acnt"]


# ---------------------------------------------------------------------------
# undecodable text input


def _spoil_line_2(path, byte):
    """Put `byte`, which no UTF-8 text holds there, at the start of line 2."""
    lines = path.read_bytes().split(b"\n")
    lines[1] = byte + lines[1]
    path.write_bytes(b"\n".join(lines))
    return path


def _bad_config(tmp_path):
    config = tmp_path / "run.conf"
    config.write_text(TINY_CONFIG)
    return ["train", "--config", str(config), "--out", str(tmp_path / "ckpt")], \
        _spoil_line_2(config, b"\xff")


def _bad_native(tmp_path):
    run = untrained_run(tmp_path / "run", 2, seed=4)
    save_native(MotspInstance(np.random.default_rng(4).random((6, 4))), tmp_path / "i.motsp")
    return ["solve", "--ckpt", str(run), "--instance", str(tmp_path / "i.motsp"),
            "--out", str(tmp_path / "pf.csv")], _spoil_line_2(tmp_path / "i.motsp", b"\xff")


def _bad_tsplib(tmp_path):
    run = untrained_run(tmp_path / "run", 2, seed=4)
    (tmp_path / "a.tsp").write_text(TSPLIB_A)
    (tmp_path / "b.tsp").write_text(TSPLIB_B)
    return ["solve", "--ckpt", str(run), "--tsplib", str(tmp_path / "a.tsp"), str(tmp_path / "b.tsp"),
            "--out", str(tmp_path / "pf.csv")], _spoil_line_2(tmp_path / "b.tsp", b"\xff")


def _bad_front(command):
    def build(tmp_path):
        pf = tmp_path / "front.csv"
        write_front(pf, [((0, 1, 2), (1.0, 5.0)), ((1, 0, 2), (3.0, 3.0))])
        return [command, "--pf", str(pf), "--out", str(tmp_path / "out")], _spoil_line_2(pf, b"\xe9")
    return build


def _bad_manifest(tmp_path):
    run = untrained_run(tmp_path / "run", 2, seed=4)
    save_native(MotspInstance(np.random.default_rng(4).random((6, 4))), tmp_path / "i.motsp")
    return ["solve", "--ckpt", str(run), "--instance", str(tmp_path / "i.motsp"),
            "--out", str(tmp_path / "pf.csv")], _spoil_line_2(run / MANIFEST_NAME, b"\xe9")


@pytest.mark.parametrize("build", [
    _bad_config, _bad_native, _bad_tsplib, _bad_front("eval"), _bad_front("plot"), _bad_manifest,
], ids=["train-config", "solve-native", "solve-tsplib", "eval-pf", "plot-pf", "solve-manifest"])
def test_undecodable_text_input_exits_2_naming_the_file_and_line(tmp_path, capsys, build):
    argv, bad = build(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{bad}:2: not UTF-8 text" in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# byte mutations of every input


MUTATION_CONFIG = TINY_CONFIG.replace("n_nodes = 4", "n_nodes = 5")

# Bytes that a mutation writes: mostly ones the formats give meaning to.
_MUTATION_BYTES = b"0123456789-+.,:= \n\teEinfaNx{}[]\"\xff\x00"


def _mutate(data: bytes, rng: np.random.Generator) -> bytes:
    """`data` after one to three random byte edits: a replaced byte, a
    deleted span, an inserted byte, or a truncation."""
    out = bytearray(data)
    for _ in range(rng.integers(1, 4)):
        edit, at = rng.integers(4), int(rng.integers(len(out) + 1))
        byte = _MUTATION_BYTES[rng.integers(len(_MUTATION_BYTES))]
        if edit == 0 and at < len(out):
            out[at] = byte
        elif edit == 1:
            del out[at:at + int(rng.integers(1, 9))]
        elif edit == 2:
            out.insert(at, byte)
        else:
            del out[at:]
    return bytes(out)


@pytest.fixture(scope="module")
def mutation_inputs(tmp_path_factory):
    """A finished two-model run (n=5, d_h=8) and one file of each input kind;
    returns {kind: (argv, the file that argv reads)}."""
    root = tmp_path_factory.mktemp("mutations")
    (root / "run.conf").write_text(MUTATION_CONFIG)
    cfg = RunConfig.from_mapping(parse_config_file(root / "run.conf"))
    run = root / "run"
    run.mkdir()
    rng = np.random.default_rng(11)
    for i in (1, 2):
        save_models(run / checkpoint_name(i), ActorParams.init(cfg.model_config(), rng), CriticParams.init(rng))
    write_manifest(run, cfg, [1, 2])
    save_native(MotspInstance(rng.random((5, 4))), root / "i.motsp")
    (root / "a.tsp").write_text(tsplib_text("ta", TSPLIB6_A[:5]))
    (root / "b.tsp").write_text(tsplib_text("tb", TSPLIB6_B[:5]))
    solve = ["solve", "--ckpt", str(run), "--out", str(root / "pf.csv")]
    assert main(solve + ["--instance", str(root / "i.motsp")]) == 0
    pf = root / "front.csv"
    shutil.copy(root / "pf.csv", pf)
    return {
        "config": (None, root / "run.conf"),
        "motsp": (solve + ["--instance", str(root / "i.motsp")], root / "i.motsp"),
        "tsplib": (solve + ["--tsplib", str(root / "a.tsp"), str(root / "b.tsp")], root / "b.tsp"),
        "pf-csv": (["eval", "--pf", str(pf), "--out", str(root / "hv.csv")], pf),
        "manifest": (solve + ["--instance", str(root / "i.motsp")], run / MANIFEST_NAME),
        "checkpoint": (solve + ["--instance", str(root / "i.motsp")], run / checkpoint_name(2)),
    }


@pytest.mark.parametrize("kind", ["config", "motsp", "tsplib", "pf-csv", "manifest", "checkpoint"])
def test_mutated_inputs_exit_0_or_2(mutation_inputs, kind):
    """Seeded byte mutations of each input either run or exit 2 with a
    message, never a traceback. A mutated config is only parsed, so that no
    mutation can start a paper-scale training run."""
    argv, target = mutation_inputs[kind]
    original = target.read_bytes()
    rng = np.random.default_rng(sum(kind.encode()))
    try:
        for case in range(100):
            target.write_bytes(_mutate(original, rng))
            if argv is None:
                try:
                    RunConfig.from_mapping(parse_config_file(target))
                except (ContractError, ParseError):
                    pass
            else:
                assert main(argv) in (0, 2), (case, target.read_bytes())
    finally:
        target.write_bytes(original)


# ---------------------------------------------------------------------------
# output files


def _writer_case(kind, root):
    """The argv of a command that writes the output `kind` under a new
    directory `root`, and that output's path. The inputs are seeded, so every
    root gets the same output bytes."""
    root.mkdir()
    if kind in ("checkpoint", "manifest", "metrics"):
        (root / "run.conf").write_text(TINY_CONFIG)
        name = {"checkpoint": checkpoint_name(1), "manifest": MANIFEST_NAME, "metrics": metrics_name(1)}[kind]
        return ["train", "--config", str(root / "run.conf"), "--out", str(root / "run")], root / "run" / name
    if kind == "instance":
        return ["gen", "--n", "4", "--out", str(root)], root / "rand_n4_s0_0.motsp"
    if kind == "front":
        untrained_run(root / "run", 2, seed=0)
        save_native(MotspInstance(np.random.default_rng(0).random((4, 4))), root / "i.motsp")
        return (["solve", "--ckpt", str(root / "run"), "--instance", str(root / "i.motsp"),
                 "--out", str(root / "pf.csv")], root / "pf.csv")
    write_front(root / "pf.csv", [((0, 1, 2), (1.0, 5.0)), ((1, 0, 2), (3.0, 3.0))])
    if kind == "report":
        return ["eval", "--pf", str(root / "pf.csv"), "--out", str(root / "hv.csv")], root / "hv.csv"
    return (["plot", "--pf", str(root / "pf.csv"), "--out", str(root / "plot.dat")],
            root / ("plot.dat" if kind == "plot" else "plot.dat.legend"))


def _without_seconds(kind, data: bytes) -> bytes:
    """A metrics file without its wall-clock last column; other outputs as they are."""
    if kind != "metrics":
        return data
    return b"\n".join(line.rpartition(b",")[0] for line in data.split(b"\n"))


@pytest.mark.parametrize("kind", ["checkpoint", "manifest", "metrics", "front", "report",
                                  "instance", "plot", "legend"])
def test_every_output_file_holds_its_old_or_all_its_new_bytes(tmp_path, capsys, monkeypatch, kind):
    """Each writer replaces its file whole and leaves no .tmp; a failed rename
    keeps the old bytes and exits 1; a symlink is written through and stays."""
    argv, target = _writer_case(kind, tmp_path / "reference")
    assert main(argv) == 0
    expected = _without_seconds(kind, target.read_bytes())

    argv, target = _writer_case(kind, tmp_path / "out")
    target.parent.mkdir(exist_ok=True)
    target.write_bytes(b"old\n")
    replace = os.replace

    def refuse_target(src, dst):
        if dst == os.path.realpath(target):
            raise OSError("rename refused")
        replace(src, dst)

    with monkeypatch.context() as patch:
        patch.setattr("paretotsp.errors.os.replace", refuse_target)
        assert main(argv) == 1
    assert capsys.readouterr().err == "i/o error: rename refused\n"
    assert target.read_bytes() == b"old\n"
    assert not list(target.parent.glob("*.tmp"))

    assert main(argv) == 0
    assert _without_seconds(kind, target.read_bytes()) == expected
    assert not list(target.parent.glob("*.tmp"))

    real = tmp_path / "real"
    real.write_bytes(b"old\n")
    target.unlink()
    target.symlink_to(real)
    assert main(argv) == 0
    assert target.is_symlink() and target.readlink() == real
    assert _without_seconds(kind, real.read_bytes()) == expected
    assert not list(target.parent.glob("*.tmp")) + list(tmp_path.glob("*.tmp"))


def test_eval_refuses_an_out_that_is_a_directory(tmp_path, capsys):
    write_front(tmp_path / "pf.csv", [((0, 1, 2), (1.0, 5.0))])
    out = tmp_path / "report"
    out.mkdir()
    before = sorted(tmp_path.rglob("*"))
    assert main(["eval", "--pf", str(tmp_path / "pf.csv"), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {out} exists and is not a regular file\n"
    assert sorted(tmp_path.rglob("*")) == before


# ---------------------------------------------------------------------------
# parser behaviour


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2
