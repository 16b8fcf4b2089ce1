import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paretotsp.errors import ContractError, DimensionError, ParseError
from paretotsp.evaluation import (PF_CSV_HEADER, Front, approximate_pf,
                                  compute_hv_protocol, hypervolume_2d,
                                  pareto_filter_indices, read_pf_csv,
                                  write_hv_report, write_pf_csv)
from paretotsp import decomposition as dec
from paretotsp.cli import main
from paretotsp.instances import evaluate_objectives, save_native
from paretotsp.model import _GROUP, ActorParams, CriticParams, ModelConfig, rollout

from oracles import hv_grid, pareto_brute, random_instance


# ---------------------------------------------------------------------------
# dominance


def test_dominates_basics():
    """Dominance as the Pareto filter applies it to pairs of points."""
    def kept(u, v):
        return pareto_filter_indices([u, v]).tolist()

    assert kept((1, 1), (2, 2)) == [0]              # better in both
    assert kept((1, 2), (2, 1)) == [0, 1]           # a trade-off
    assert kept((2, 1), (1, 2)) == [0, 1]
    assert kept((1.5, 2.5), (1.5, 2.5)) == [0]      # equal: a duplicate, not dominated
    assert kept((1, 3), (1, 2)) == [1]              # better in one, equal in the other
    assert kept((0.0, 1.0), (-0.0, 1.0)) == [0]     # 0 and -0 are one value: a duplicate


# ---------------------------------------------------------------------------
# pareto filter


def test_pareto_filter_example():
    pts = np.array([(1, 2), (2, 1), (2, 2)], dtype=np.float64)
    np.testing.assert_array_equal(pts[pareto_filter_indices(pts)], [(1, 2), (2, 1)])


def test_pareto_filter_single_point():
    pts = np.array([(3.0, 4.0)])
    np.testing.assert_array_equal(pts[pareto_filter_indices(pts)], [(3.0, 4.0)])


def test_pareto_filter_empty_rejected():
    """Only a nonempty, finite (k, 2) array is a front: a NaN would poison
    the sweep's running minimum."""
    for bad in (np.empty((0, 2)), np.zeros((3, 3)), [(1.0, 2.0), (np.nan, 0.5)]):
        with pytest.raises(ContractError):
            pareto_filter_indices(bad)


def test_pareto_filter_dedup_keeps_first():
    pts = [(2, 1), (1, 2), (2, 1), (1, 2)]
    idx = pareto_filter_indices(pts)
    np.testing.assert_array_equal(idx, [0, 1])


@pytest.mark.parametrize("seed", range(100))
def test_pareto_filter_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    pts = rng.random((200, 2))
    if seed % 3 == 0:                       # inject duplicates sometimes
        pts[::7] = pts[0]
    np.testing.assert_array_equal(pareto_filter_indices(pts), pareto_brute(pts))
    rounded = np.round(pts * 10) / 10       # ties in f1 and in f2
    np.testing.assert_array_equal(pareto_filter_indices(rounded), pareto_brute(rounded))


def test_pareto_filter_idempotent():
    rng = np.random.default_rng(123)
    pts = rng.random((50, 2))
    once = pts[pareto_filter_indices(pts)]
    twice = once[pareto_filter_indices(once)]
    np.testing.assert_array_equal(once, twice)


# ---------------------------------------------------------------------------
# hypervolume


def test_hv_single_origin_point():
    assert abs(hypervolume_2d([(0.0, 0.0)]) - 1.44) < 1e-12


def test_hv_three_point_example():
    pts = [(0.2, 0.8), (0.5, 0.5), (0.8, 0.2)]
    hv = hypervolume_2d(pts)
    assert abs(hv - 0.73) < 1e-12
    assert abs(hv - hv_grid(pts, (1.2, 1.2))) < 1e-3


def test_hv_dominated_point_contributes_zero():
    base = [(0.2, 0.8), (0.5, 0.5), (0.8, 0.2)]
    with_dominated = base + [(0.6, 0.6), (0.5, 0.5)]
    assert hypervolume_2d(with_dominated) == hypervolume_2d(base)


def test_hv_points_beyond_ref_dropped_with_warning(caplog):
    with caplog.at_level(logging.WARNING, logger="paretotsp.evaluation"):
        hv = hypervolume_2d([(0.5, 0.5), (1.3, 0.1), (0.2, 1.2)])
    assert abs(hv - 0.7 * 0.7) < 1e-12
    assert "dropping" in caplog.text


def test_hv_empty_effective_set(caplog):
    with caplog.at_level(logging.WARNING, logger="paretotsp.evaluation"):
        assert hypervolume_2d([(1.5, 1.5)]) == 0.0
    assert "HV = 0" in caplog.text


@pytest.mark.parametrize("seed", range(100))
def test_hv_matches_grid_oracle(seed):
    rng = np.random.default_rng(1000 + seed)
    k = rng.integers(1, 11)
    pts = rng.random((k, 2))
    assert abs(hypervolume_2d(pts) - hv_grid(pts, (1.2, 1.2))) < 1e-3


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_hv_monotone_in_new_nondominated_point(seed):
    rng = np.random.default_rng(seed)
    pts = rng.random((6, 2))
    before = hypervolume_2d(pts)
    extra = rng.random(2) * 0.5              # strong candidate point
    after = hypervolume_2d(np.vstack([pts, extra]))
    assert after >= before - 1e-12


def test_hv_removal_bounded_by_exclusive_contribution():
    rng = np.random.default_rng(77)
    pts = rng.random((12, 2))
    pts = pts[pareto_filter_indices(pts)]
    full = hypervolume_2d(pts)
    for i in range(pts.shape[0]):
        rest = np.delete(pts, i, axis=0)
        if rest.shape[0] == 0:
            continue
        drop = full - hypervolume_2d(rest)
        assert -1e-12 <= drop <= full + 1e-12


# ---------------------------------------------------------------------------
# fronts


def _front(*points, n=4):
    """A front of the given objective rows, each with the identity tour."""
    return Front(np.tile(np.arange(n), (len(points), 1)), points, np.ones(len(points)))


def _read_front(path, rows):
    path.write_text(PF_CSV_HEADER + "\n" + "".join(f"1,0,1,{f1},{f2},0-1-2-3\n" for f1, f2 in rows))
    return read_pf_csv(path)


def test_archive_rejects_dominated_entries(tmp_path):
    """A PF CSV, the front input from outside the program, is checked on reading."""
    path = tmp_path / "pf.csv"
    assert len(_read_front(path, [(1.0, 3.0), (3.0, 1.0)])) == 2
    for rows, line_no in [([(2.0, 2.0), (1.0, 1.0)], 2), ([(1.0, 3.0), (3.0, 1.0), (3.0, 3.0)], 4)]:
        with pytest.raises(ParseError, match="dominated") as err:
            _read_front(path, rows)
        assert (err.value.path, err.value.line_no) == (str(path), line_no)


def test_archive_rejects_duplicates(tmp_path):
    path = tmp_path / "pf.csv"
    with pytest.raises(ParseError, match="duplicated") as err:
        _read_front(path, [(1.0, 2.0), (2.0, 1.0), (1.0, 2.0)])
    assert (err.value.path, err.value.line_no) == (str(path), 4)


def test_front_nondominated_filters():
    tours = np.array([[0, 1, 2, 3], [1, 0, 2, 3], [2, 1, 0, 3], [3, 2, 1, 0]])
    rows = np.array([[1.0, 2.0], [2.0, 1.0], [2.0, 2.0], [1.0, 2.0]])
    front = Front(tours, rows, [1, 2, 3, 4]).nondominated()
    assert front.subproblems.tolist() == [1, 2]
    np.testing.assert_array_equal(front.tours, tours[:2])
    np.testing.assert_array_equal(front.objectives, [[1.0, 2.0], [2.0, 1.0]])


def test_front_rejects_mismatched_columns():
    with pytest.raises(DimensionError):
        Front(np.zeros((2, 4)), np.zeros((3, 2)), [1, 2])
    with pytest.raises(DimensionError):
        Front(np.zeros((2, 4)), np.zeros((2, 2)), [1, 2, 3])


def _tiny_actors(count, n_heads=2):
    cfg = ModelConfig(d_h=8, n_heads=n_heads, d_ff=16)
    return [ActorParams.init(cfg, np.random.default_rng(1000 + i), dtype=np.float64)
            for i in range(count)]


def test_approximate_pf_identical_models_collapse():
    inst = random_instance(6, seed=0)
    actor = _tiny_actors(1)[0]
    candidates = approximate_pf(inst, [actor] * 5)
    assert candidates.subproblems.tolist() == [1, 2, 3, 4, 5]
    front = candidates.nondominated()
    assert len(front) == 1
    assert front.subproblems.tolist() == [1]


def test_approximate_pf_size_bounded_and_order_invariant():
    inst = random_instance(7, seed=3)
    actors = _tiny_actors(4)
    fwd = approximate_pf(inst, actors).nondominated()
    rev = approximate_pf(inst, actors[::-1]).nondominated()
    assert len(fwd) <= 4 and len(rev) <= 4
    fwd_set = {tuple(row) for row in np.round(fwd.objectives, 12)}
    rev_set = {tuple(row) for row in np.round(rev.objectives, 12)}
    assert fwd_set == rev_set


def test_approximate_pf_needs_models():
    with pytest.raises(ContractError, match="needs at least one actor"):
        approximate_pf(random_instance(5, seed=1), [])
    with pytest.raises(ContractError, match="needs at least one actor"):
        approximate_pf(random_instance(5, seed=1), iter([]))


def _per_model_candidates(inst, actors) -> Front:
    """Reference: one tape-path greedy rollout per model, each scored alone."""
    tours = np.stack([rollout(inst, a)[0] for a in actors])
    rows = np.concatenate([evaluate_objectives(inst.features, t[None]) for t in tours])
    return Front(tours, rows, np.arange(1, len(actors) + 1))


def _assert_same_front(got: Front, want: Front):
    np.testing.assert_array_equal(got.subproblems, want.subproblems)
    np.testing.assert_array_equal(got.tours, want.tours)
    np.testing.assert_array_equal(got.objectives, want.objectives)


DESK_MODEL = ModelConfig(d_h=16, n_heads=2, d_ff=64)
FULL_MODEL = ModelConfig()


@pytest.mark.parametrize("cfg,n", [(DESK_MODEL, 10), (FULL_MODEL, 20)], ids=["desk", "full"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_approximate_pf_matches_per_model_rollouts(cfg, n, seed):
    rng = np.random.default_rng(seed)
    actors = [ActorParams.init(cfg, rng) for _ in range(6)]
    inst = random_instance(n, seed=50 + seed)
    got, want = approximate_pf(inst, actors), _per_model_candidates(inst, actors)
    _assert_same_front(got, want)
    _assert_same_front(got.nondominated(), want.nondominated())


def test_approximate_pf_repeated_actor_matches_per_model():
    inst = random_instance(10, seed=4)
    actor = ActorParams.init(DESK_MODEL, np.random.default_rng(7))
    _assert_same_front(approximate_pf(inst, [actor] * 5), _per_model_candidates(inst, [actor] * 5))


def test_approximate_pf_accepts_a_generator():
    inst = random_instance(10, seed=5)
    actors = [ActorParams.init(DESK_MODEL, np.random.default_rng(20 + i)) for i in range(4)]
    _assert_same_front(approximate_pf(inst, (a for a in actors)), _per_model_candidates(inst, actors))


def test_approximate_pf_rejects_mixed_configs():
    inst = random_instance(6, seed=0)
    mixed = [ActorParams.init(DESK_MODEL, np.random.default_rng(0)),
             ActorParams.init(ModelConfig(d_h=8, n_heads=2, d_ff=16), np.random.default_rng(1))]
    with pytest.raises(ContractError):
        approximate_pf(inst, mixed)


@pytest.mark.parametrize("odd", [
    lambda: ActorParams.init(ModelConfig(d_h=8, n_heads=2, d_ff=16), np.random.default_rng(1)),
    lambda: ActorParams.init(DESK_MODEL, np.random.default_rng(1), dtype=np.float64),
], ids=["config", "dtype"])
def test_approximate_pf_rejects_a_mixed_actor_opening_a_later_group(odd):
    """The config and dtype check spans decode groups: an odd actor that
    opens the second group is compared with the first group's actors."""
    inst = random_instance(6, seed=0)
    mixed = [ActorParams.init(DESK_MODEL, np.random.default_rng(0))] * _GROUP + [odd()]
    with pytest.raises(ContractError, match="one model config and dtype"):
        approximate_pf(inst, mixed)


def test_solve_csv_matches_per_model_reference(tmp_path):
    cfg = dec.RunConfig(d_h=16, n_heads=2, d_ff=64, n_nodes=10, m_sub=5, seed=9)
    rng = np.random.default_rng(9)
    actors = []
    for i in range(1, cfg.m_sub + 1):
        actor = ActorParams.init(cfg.model_config(), rng)
        dec.save_models(tmp_path / dec.checkpoint_name(i), actor, CriticParams.init(rng))
        actors.append(dec.load_models(tmp_path / dec.checkpoint_name(i), cfg)[0])
    dec.write_manifest(tmp_path, cfg, list(range(1, cfg.m_sub + 1)))
    inst = random_instance(10, seed=11)
    save_native(inst, tmp_path / "inst.motsp")
    assert main(["solve", "--ckpt", str(tmp_path), "--instance", str(tmp_path / "inst.motsp"),
                 "--out", str(tmp_path / "pf.csv")]) == 0
    write_pf_csv(tmp_path / "ref.csv", _per_model_candidates(inst, actors).nondominated(),
                 cfg.schedule().weights)
    assert (tmp_path / "pf.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


# ---------------------------------------------------------------------------
# HV protocol


def test_protocol_same_archive_twice_identical():
    front = _front((1.0, 3.0), (2.0, 2.0), (3.0, 1.0))
    hvs = compute_hv_protocol([front, front])
    assert hvs[0] == hvs[1] > 0.0


def test_protocol_dominating_archive_scores_higher():
    good = _front((1.0, 3.0), (2.0, 2.0), (3.0, 1.0))
    bad = _front((2.0, 4.0), (3.0, 3.0), (4.0, 2.0))
    hvs = compute_hv_protocol([good, bad])
    assert hvs[0] > hvs[1]


def test_protocol_one_point_fronts_score_the_ref_area():
    # Every point agrees on both objectives, so each span is taken as 1.
    single = _front((1.0, 1.0))
    assert compute_hv_protocol([single, single]) == pytest.approx([1.44, 1.44], abs=1e-12)
    # 1e20 + 1 rounds to 1e20, so the span must not be built as nadir = ideal + 1.
    assert compute_hv_protocol([_front((1e20, 3.0))]) == pytest.approx([1.44], abs=1e-12)


def test_protocol_normalizes_over_the_union():
    # Union bounds map (1, 5) to (0, 1) and (2, 3) to (1, 0); each front's
    # own bounds would make it a one-point front scoring 1.44.
    hvs = compute_hv_protocol([_front((1.0, 5.0)), _front((2.0, 3.0))])
    assert hvs == pytest.approx([0.24, 0.24], abs=1e-12)


# ---------------------------------------------------------------------------
# CSV formats


def test_pf_csv_round_trip(tmp_path):
    front = Front([[2, 0, 1, 3], [0, 3, 1, 2]], [[1.25, 3.5], [2.0, 2.0]], [1, 3])
    weights = np.array([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]])
    path = tmp_path / "pf.csv"
    write_pf_csv(path, front, weights)
    lines = path.read_text().splitlines()
    assert lines[0] == "subproblem,lambda1,lambda2,f1,f2,tour"
    assert lines[1].startswith("1,0,1,1.25,3.5,2-0-1-3")
    again = read_pf_csv(path)
    np.testing.assert_array_equal(again.objectives, front.objectives)
    np.testing.assert_array_equal(again.tours, front.tours)
    assert again.subproblems.tolist() == [1, 3]


@pytest.mark.parametrize("mutate, line_no", [
    (lambda lines: ["bogus,header"] + lines[1:], 1),
    (lambda lines: [lines[0], "1,0,1,2.5"], 2),
    (lambda lines: [lines[0], "1,0,1,x,2.0,0-1-2-3"], 2),
    (lambda lines: [lines[0], "1,0,1,1.0,2.0,0-1-3-4"], 2),
    (lambda lines: [lines[0], "1,0,1,1.0,2.0,0-1-2-2"], 2),
    (lambda lines: [lines[0]], 1),
    (lambda lines: lines + ["1,0,1,2.0,1.0,0-1-2"], 3),
    pytest.param(lambda lines: [lines[0], "1,0,1,0,2.0,0-1-2-3", "1,0,1,-0,2.0,1-0-2-3"], 3,
                 id="signed-zero-duplicate"),       # -0 and 0 are one value
    pytest.param(lambda lines: [lines[0], "100000000000000000000,0,1,1.0,2.0,0-1-2"], 2,
                 id="subproblem-overflows-intp"),
])
def test_pf_csv_malformed(tmp_path, mutate, line_no):
    path = tmp_path / "pf.csv"
    write_pf_csv(path, _front((1.0, 2.0)), np.array([[0.5, 0.5]]))
    path.write_text("\n".join(mutate(path.read_text().splitlines())) + "\n")
    with pytest.raises(ParseError) as err:
        read_pf_csv(path)
    assert err.value.line_no == line_no


def test_hv_report_format(tmp_path):
    path = tmp_path / "report.csv"
    write_hv_report(path, [("inst0", "trained", 0.7312345, 7),
                           ("inst0", "random", 0.25, 10)])
    lines = path.read_text().splitlines()
    assert lines[0] == "instance,method,hv,n_points"
    assert lines[1] == "inst0,trained,0.73123450000000001,7"
    assert lines[2] == "inst0,random,0.25,10"
