import importlib.util
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


def _load_ab():
    spec = importlib.util.spec_from_file_location("ab_tool", REPO / "tools" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _a_a_in_process(shape):
    """Two in-process blocks of this tree against itself: timed, with no failure, identical."""
    ab = _load_ab()
    line, tail = ab.summarize({}, ab.PER_CALL, *ab.in_process({"base": REPO, "change": REPO}, shape, blocks=2))
    assert (line["name"], line["blocks"]) == ("ms_per_call", 2)
    assert 0 <= line["change_won"] + line["ties"] <= 2
    assert line["base"]["median"] > 0 and line["change"]["median"] > 0
    assert tail["failed"] == {"base": [0, 0], "change": [0, 0]}
    assert tail["identical"] is True


def test_ab_of_a_tree_against_itself_ends_byte_identical():
    _a_a_in_process(dict(n_nodes=5, d_h=8, n_heads=2, d_ff=16, batch_size=4, iterations=2))


def test_ab_counts_the_tape_nodes_of_one_training_iteration():
    ab = _load_ab()
    assert ab.tape_nodes(REPO, dict(n_nodes=5, d_h=8, n_heads=2, d_ff=16, batch_size=4, iterations=2)) == 126


def test_ab_solve_of_a_tree_against_itself_is_byte_identical():
    _a_a_in_process(dict(m_sub=3, n_nodes=5, d_h=8, n_heads=2, d_ff=16, iterations=1))


def _run(rss, gws, failed=0):
    return {"peak_rss_mb": rss, "gws.mean": gws}, failed


GATED = [{"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
         {"name": "gws.mean", "unit": "length", "better": "lower", "bound": 0.25}]


def test_pairs_counts_wins_ties_and_quartiles_per_metric():
    ab = _load_ab()
    runs = {"base": [_run(64.0, 40.0), _run(64.4, 40.0), _run(64.2, 40.0)],
            "change": [_run(55.0, 40.0), _run(64.4, 40.0), _run(54.9, 40.0)]}
    outputs = {"base": ["aa"] * 3, "change": ["aa"] * 3}
    rss, gws, tail = ab.summarize({"workload": "solve-m100-n100", "seed": 1}, GATED, runs, outputs)
    assert (rss["workload"], rss["name"], rss["bound"]) == ("solve-m100-n100", "peak_rss_mb", 0.1)
    assert (rss["blocks"], rss["change_won"], rss["ties"]) == (3, 2, 1)
    assert rss["base"]["median"] == 64.2 and rss["change"]["median"] == 55.0
    assert abs(rss["base"]["q1"] - 64.1) < 1e-9 and abs(rss["base"]["q3"] - 64.3) < 1e-9
    assert (gws["change_won"], gws["ties"]) == (0, 3)
    assert tail["digests"] == {"base": ["aa"], "change": ["aa"]} and tail["identical"] is True
    assert tail["failed"] == {"base": [0, 0, 0], "change": [0, 0, 0]}


def test_pairs_reports_a_digest_mismatch_and_a_failed_run():
    ab = _load_ab()
    runs = {"base": [_run(64.0, 40.0), _run(64.1, 40.0)],
            "change": [_run(63.0, 41.0), ({}, None)]}
    rss, gws, tail = ab.summarize({"workload": "train-desk", "seed": 2}, GATED, runs,
                                  {"base": ["aa", "aa"], "change": ["bb", None]})
    assert (rss["blocks"], rss["change_won"], gws["change_won"]) == (1, 1, 0)
    assert rss["change"]["values"] == [63.0]
    assert tail["digests"] == {"base": ["aa"], "change": [None, "bb"]} and tail["identical"] is False
    assert tail["failed"] == {"base": [0, 0], "change": [0, None]}
    # runs that recorded no digest are not identical, even when no side recorded one
    assert ab.summarize({}, GATED, runs, {"base": [None, None], "change": [None, None]})[-1]["identical"] is False


def test_alternate_swaps_the_side_that_runs_first_every_block():
    ab = _load_ab()
    order = []

    class Side:
        def __init__(self, name):
            self.name = name

        def block(self):
            order.append(self.name)
            return {}, 0

        def outputs(self):
            return [self.name]

    runs, outputs = ab.alternate({"base": Side("base"), "change": Side("change")}, 3)
    assert order == ["base", "change", "change", "base", "base", "change"]
    assert runs == {"base": [({}, 0)] * 3, "change": [({}, 0)] * 3}
    assert outputs == {"base": ["base"], "change": ["change"]}


def test_pairs_refuses_a_tree_whose_src_is_a_symlink(tmp_path, capsys):
    ab = _load_ab()
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text("")
    (tmp_path / "src").symlink_to(REPO / "src")
    with pytest.raises(SystemExit) as exited:
        ab.main(["--base", str(tmp_path), "--change", str(REPO), "--workload", "train-desk", "--seed", "1"])
    assert exited.value.code == 2
    assert f"{tmp_path.resolve() / 'src'} is a symlink" in capsys.readouterr().err


@pytest.mark.parametrize("mode", [["--shape", "desk"], ["--workload", "train-desk", "--seed", "1"]],
                         ids=["shape", "workload"])
def test_ab_refuses_a_base_that_holds_no_package(tmp_path, capsys, mode):
    ab = _load_ab()
    with pytest.raises(SystemExit) as exited:
        ab.main(["--base", str(tmp_path), "--change", str(REPO), *mode])
    assert exited.value.code == 2
    assert f"{tmp_path.resolve()} holds no src/paretotsp" in capsys.readouterr().err


@pytest.mark.parametrize("mode", [["--shape", "desk"], ["--workload", "train-desk", "--seed", "1"]],
                         ids=["shape", "workload"])
def test_ab_reports_each_trees_src_line_count(tmp_path, capsys, monkeypatch, mode):
    """The last line counts each tree's `src/paretotsp/*.py` lines as `wc -l`
    does: newlines, a last line without one not counted, other files skipped."""
    ab = _load_ab()
    files = {"base": {"a.py": "x = 1\ny = 2\n", "b.py": "z = 3", "notes.txt": "1\n2\n"},
             "change": {"a.py": "x = 1\n\ny = 2\n"}}
    for side, canned in files.items():
        (tmp_path / side / "bench").mkdir(parents=True)
        (tmp_path / side / "bench" / "run.py").write_text("")
        (tmp_path / side / "src" / "paretotsp").mkdir(parents=True)
        for name, text in canned.items():
            (tmp_path / side / "src" / "paretotsp" / name).write_text(text)
    canned_runs = ({side: [({}, 0)] for side in files}, {side: ["same"] for side in files})
    monkeypatch.setattr(ab, "in_process", lambda *args: canned_runs)
    monkeypatch.setattr(ab, "alternate", lambda *args: canned_runs)
    nodes = {"base": 125, "change": 126}
    monkeypatch.setattr(ab, "tape_nodes", lambda tree, shape: nodes[tree.name])
    assert ab.main(["--base", str(tmp_path / "base"), "--change", str(tmp_path / "change"), *mode]) == 0
    tail = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert tail["identical"] is True
    assert tail["src_lines"] == {"base": 2, "change": 3}
    # a training shape also reports each tree's tape nodes; a workload does not
    assert tail.get("tape_nodes") == (nodes if "--shape" in mode else None)
