import json
import shutil

import numpy as np
import pytest

from paretotsp import evaluation as ev
from paretotsp.cli import CKPT_ROOT_ENV, main, parse_config_file
from paretotsp.decomposition import (MANIFEST_NAME, RunConfig,
                                     checkpoint_name, config_hash,
                                     read_checkpoint, save_models,
                                     write_checkpoint, write_manifest)
from paretotsp.errors import ParseError
from paretotsp.instances import (MotspInstance, Tour, evaluate_objectives,
                                 load_native, load_tsplib_pair, save_native)
from paretotsp.model import ActorParams, CriticParams

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
    assert inst.n == 6 and inst.d_x == 4
    assert "wrote 3 instance file(s)" in capsys.readouterr().out


def test_gen_rejects_tiny_n(tmp_path, capsys):
    assert main(["gen", "--n", "1", "--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


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

    for edit in ({"ref1": "1.5"}, {"seed": "4"}):
        edited = tmp_path / f"edited_{next(iter(edit))}"
        shutil.copytree(trained["ckpt"], edited)
        write_legacy_manifest(edited, edit)
        assert main(["solve", "--ckpt", str(edited), "--instance", instance,
                     "--out", str(tmp_path / "edited.csv")]) == 2
        assert "hash" in capsys.readouterr().err


@pytest.mark.parametrize("breakage", [
    lambda doc: {k: v for k, v in doc.items() if k != "config"},
    lambda doc: dict(doc, config=sorted(doc["config"].items())),
    lambda doc: [doc],
    lambda doc: dict(doc, completed=[1, "two"]),
], ids=["no-config", "config-not-object", "document-not-object", "completed-not-integer"])
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
    ("d_x", "3", "got 3"), ("n_layers", "-1", "n_layers=-1"), ("clip_logits", "0", "clip=0.0"),
    ("dataset_size", "0", "dataset_size=0"), ("lr_actor", "nan", "lr_actor=nan"),
    ("clip_norm", "-1", "clip_norm=-1.0"), ("beta1", "1", "beta1=1.0"),
    ("batch_size", "1", "batch_size must be >= 2"), ("n_nodes", "1", "n_nodes must be >= 2"),
    ("dataset_size", "10", "dataset_size 10 must be divisible by batch_size 4"),
    ("epochs_rest", "-1", "epochs_rest must be >= 0"),
])
def test_train_bad_config_value_exits_2_before_the_work_directory(tmp_path, capsys, key, value, shown):
    config = tmp_path / "run.conf"
    config.write_text(TINY_CONFIG.replace(f"\n{key} = ", f"\n#{key} = ") + f"{key} = {value}\n")
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "run")]) == 2
    assert shown in capsys.readouterr().err
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


def test_train_unknown_config_key(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text(TINY_CONFIG + "momentum = 0.9\n")
    assert main(["train", "--config", str(config), "--out", str(tmp_path)]) == 2
    assert "momentum" in capsys.readouterr().err


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
    archive = ev.read_pf_csv(out)
    assert 1 <= len(archive) <= 2
    for entry in archive.entries:
        np.testing.assert_array_equal(
            entry.objectives, evaluate_objectives(inst, entry.tour))


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
    np.testing.assert_allclose(raw.points()[0],
                               [50.0 + 50.0 + 60.0, 10.0 + 40.0 + np.hypot(10, 40)])


@pytest.mark.parametrize("seed", range(4))
def test_solve_tsplib_unscaled_rows_match_their_tours(tmp_path, seed):
    """Eight untrained models on an n=6 pair: every unscaled row is the raw
    length of its own tour, and the rows are the raw front of the scaled one."""
    ckpt = untrained_run(tmp_path / "ckpt", 8, seed)
    pa, pb = tmp_path / "a.tsp", tmp_path / "b.tsp"
    pa.write_text(tsplib_text("a", TSPLIB6_A))
    pb.write_text(tsplib_text("b", TSPLIB6_B))
    out = tmp_path / "pf.csv"
    assert main(["solve", "--ckpt", str(ckpt), "--tsplib", str(pa), str(pb),
                 "--out", str(out)]) == 0
    raw_coords = load_tsplib_pair(pa, pb).raw_coords
    scaled = ev.read_pf_csv(out).entries
    want = np.array([tour_objectives_slow(raw_coords, e.tour.order) for e in scaled])
    raw = ev.read_pf_csv(tmp_path / "pf_unscaled.csv").entries
    assert [(e.subproblem, e.tour) for e in raw] == \
        [(scaled[j].subproblem, scaled[j].tour) for j in pareto_brute(want)]
    for e in raw:
        np.testing.assert_allclose(e.objectives, tour_objectives_slow(raw_coords, e.tour.order),
                                   rtol=0, atol=1e-9)


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


def test_solve_checks_instance_before_reading_checkpoints(tmp_path, capsys):
    cfg = RunConfig(d_h=8, n_heads=2, d_ff=16, n_nodes=4, batch_size=4,
                    dataset_size=8, m_sub=2, seed=3)
    # a complete manifest whose checkpoint files do not exist
    write_manifest(tmp_path, cfg, [1, 2])
    save_native(MotspInstance(np.random.default_rng(0).random((4, 6))), tmp_path / "wide.motsp")
    assert main(["solve", "--ckpt", str(tmp_path), "--instance", str(tmp_path / "wide.motsp"),
                 "--out", str(tmp_path / "pf.csv")]) == 2
    assert "d_x=6" in capsys.readouterr().err


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


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_solve_rejects_a_non_finite_instance_feature(trained, tmp_path, capsys, value):
    path = tmp_path / "bad.motsp"
    path.write_text("MOTSP v1 n=4 m=2 dx=4\n0.1 0.2 0.3 0.4\n"
                    f"0.5 {value} 0.7 0.8\n0.9 0.1 0.2 0.3\n0.4 0.5 0.6 0.7\n")
    assert main(["solve", "--ckpt", str(trained["ckpt"]), "--instance", str(path),
                 "--out", str(tmp_path / "pf.csv")]) == 2
    err = capsys.readouterr().err
    assert f"{path}:3" in err and "Traceback" not in err


@pytest.mark.parametrize("points", [
    [(0, 0), (float("inf"), 10), (20, 30)],
    [(-1e308, 0), (1e308, 10), (0, 30)],
], ids=["inf-coordinate", "span-overflow"])
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
    entries = [ev.ArchiveEntry(Tour(t), np.array(o, dtype=np.float64), 1)
               for t, o in rows]
    ev.write_pf_csv(path, ev.ParetoArchive(entries), np.array([[0.0, 1.0], [1.0, 0.0]]))


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


# ---------------------------------------------------------------------------
# parser behaviour


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2
