import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def _load_ab():
    spec = importlib.util.spec_from_file_location("ab_tool", REPO / "tools" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ab_of_a_tree_against_itself_ends_byte_identical():
    ab = _load_ab()
    shape = dict(n_nodes=5, d_h=8, n_heads=2, d_ff=16, batch_size=4, iterations=2)
    result = ab.run_ab(REPO / "src", REPO / "src", shape, blocks=2)
    assert result["identical"] is True
    assert 0 <= result["change_won"] <= 2
    assert result["base_ms"] > 0 and result["change_ms"] > 0


def test_ab_solve_of_a_tree_against_itself_is_byte_identical():
    ab = _load_ab()
    shape = dict(m_sub=3, n_nodes=5, d_h=8, n_heads=2, d_ff=16, iterations=1)
    result = ab.run_ab(REPO / "src", REPO / "src", shape, blocks=2)
    assert result["identical"] is True
    assert 0 <= result["change_won"] <= 2
    assert result["base_ms"] > 0 and result["change_ms"] > 0


def _load_pairs():
    spec = importlib.util.spec_from_file_location("pairs_tool", REPO / "tools" / "pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(rss, gws, digest, failed=0):
    return {"failed": failed, "metrics": {"peak_rss_mb": rss, "gws.mean": gws}, "digest": digest}


GATED = [{"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
         {"name": "gws.mean", "unit": "length", "better": "lower", "bound": 0.25}]


def test_pairs_counts_wins_ties_and_quartiles_per_metric():
    pairs = _load_pairs()
    runs = {"base": [_run(64.0, 40.0, "aa"), _run(64.4, 40.0, "aa"), _run(64.2, 40.0, "aa")],
            "change": [_run(55.0, 40.0, "aa"), _run(64.4, 40.0, "aa"), _run(54.9, 40.0, "aa")]}
    rss, gws, tail = pairs.summarize("solve-m100-n100", 1, runs, GATED)
    assert (rss["metric"], rss["pairs"], rss["change_won"], rss["ties"]) == ("peak_rss_mb", 3, 2, 1)
    assert rss["base"]["median"] == 64.2 and rss["change"]["median"] == 55.0
    assert abs(rss["base"]["q1"] - 64.1) < 1e-9 and abs(rss["base"]["q3"] - 64.3) < 1e-9
    assert rss["beyond_base_iqr"] is True and rss["median_delta"] < -0.14
    assert (gws["change_won"], gws["ties"], gws["beyond_base_iqr"]) == (0, 3, False)
    assert tail["digests"] == {"base": ["aa"], "change": ["aa"]} and tail["digests_match"] is True
    assert tail["failed"] == {"base": [0, 0, 0], "change": [0, 0, 0]}


def test_pairs_reports_a_digest_mismatch_and_a_failed_run():
    pairs = _load_pairs()
    broken = {"failed": None, "metrics": {}, "digest": None}
    runs = {"base": [_run(64.0, 40.0, "aa"), _run(64.1, 40.0, "aa")],
            "change": [_run(63.0, 41.0, "bb"), broken]}
    rss, gws, tail = pairs.summarize("train-desk", 2, runs, GATED)
    assert (rss["pairs"], rss["change_won"], gws["change_won"]) == (1, 1, 0)
    assert rss["change"]["values"] == [63.0]
    assert tail["digests"] == {"base": ["aa"], "change": ["bb"]} and tail["digests_match"] is False
    assert tail["failed"] == {"base": [0, 0], "change": [0, None]}


def test_pairs_refuses_a_tree_whose_src_is_a_symlink(tmp_path):
    pairs = _load_pairs()
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text("")
    (tmp_path / "src").symlink_to(REPO / "src")
    assert pairs.main(["--base", str(tmp_path), "--change", str(REPO),
                       "--workload", "train-desk", "--seed", "1"]) == 2
