import os

import numpy as np
import pytest

from paretotsp.errors import ContractError, ParseError
from paretotsp.instances import (MotspInstance, evaluate_objectives,
                                 load_native, load_tsplib_pair, save_native,
                                 tour_costs_batch)

from oracles import enumerate_objectives, random_instance, tour_objectives_slow


# ---------------------------------------------------------------------------
# generation


def test_large_sample_mean_near_half():
    inst = random_instance(1000, seed=123)
    means = inst.features.mean(axis=0)
    assert np.all(np.abs(means - 0.5) < 0.02)


def test_features_immutable():
    inst = random_instance(4, seed=0)
    with pytest.raises(ValueError):
        inst.features[0, 0] = 9.0


# ---------------------------------------------------------------------------
# objectives


def test_two_node_tour_doubles_the_edge():
    inst = random_instance(2, seed=3)
    a, b = inst.features
    edge = np.hypot(a[0::2] - b[0::2], a[1::2] - b[1::2])      # one per objective
    for order in [(0, 1), (1, 0)]:
        obj = evaluate_objectives(inst.features, [order])[0]
        np.testing.assert_allclose(obj, 2.0 * edge, atol=1e-15)


def test_rotation_and_reversal_invariance():
    inst = random_instance(9, seed=11)
    base = list(np.random.default_rng(0).permutation(9))
    rotated = base[4:] + base[:4]
    reversed_ = base[::-1]
    ref, rot, rev = evaluate_objectives(inst.features, [base, rotated, reversed_])
    np.testing.assert_allclose(rot, ref, atol=1e-12)
    np.testing.assert_allclose(rev, ref, atol=1e-12)


def test_four_node_extremes_match_enumeration():
    for seed in range(20):
        inst = random_instance(4, seed=seed)
        tours, objs = enumerate_objectives(inst.features)
        ours = evaluate_objectives(inst.features, tours)
        np.testing.assert_allclose(ours, objs, atol=1e-12)
        # 4 nodes have exactly 3 distinct closed tours
        assert len({tuple(np.round(o, 12)) for o in objs}) <= 3
        np.testing.assert_allclose(ours.min(axis=0), objs.min(axis=0), atol=1e-12)
        np.testing.assert_allclose(ours.max(axis=0), objs.max(axis=0), atol=1e-12)


def test_objectives_match_pure_python_arithmetic():
    inst = random_instance(7, seed=2)
    order = [3, 1, 6, 0, 2, 5, 4]
    np.testing.assert_allclose(evaluate_objectives(inst.features, [order])[0],
                               tour_objectives_slow(inst.features, order), atol=1e-12)


def test_invalid_tours_rejected():
    inst = random_instance(5, seed=1)
    for bad in [(0, 1, 2, 3), (0, 1, 2, 3, 3), (0, 1, 2, 3, 5)]:
        with pytest.raises(ContractError):
            evaluate_objectives(inst.features, [bad])


def test_instance_refuses_six_wide_features():
    """Two objectives over one (x, y) slice each: an instance is 4 features wide."""
    with pytest.raises(ContractError, match=r"\(n>=2, 4\) feature matrix, got \(4, 6\)"):
        MotspInstance(np.random.default_rng(0).random((4, 6)))


def test_tour_costs_batch_matches_single():
    rng = np.random.default_rng(8)
    feats = rng.random((6, 9, 4))
    tours = np.stack([rng.permutation(9) for _ in range(6)])
    batch = tour_costs_batch(feats, tours)
    for b in range(6):
        inst = MotspInstance(feats[b])
        np.testing.assert_allclose(batch[b], evaluate_objectives(inst.features, tours[b:b + 1])[0],
                                   atol=1e-12)


# ---------------------------------------------------------------------------
# weighted sum


def test_unit_weight_argmin_equals_first_objective_argmin():
    inst = random_instance(6, seed=14)
    tours, objs = enumerate_objectives(inst.features)
    w = np.array([1.0, 0.0])
    scalar = objs @ w
    assert scalar.argmin() == objs[:, 0].argmin()


# ---------------------------------------------------------------------------
# native format


def test_native_round_trip_exact(tmp_path):
    inst = random_instance(5, seed=21)
    path = tmp_path / "five.motsp"
    save_native(inst, path)
    header = path.read_text().splitlines()[0]
    assert header == "MOTSP v1 n=5 m=2 dx=4"
    again = load_native(path)
    assert again.features.shape == (5, 4)
    np.testing.assert_array_equal(again.features, inst.features)
    assert again.name == "five"


@pytest.mark.parametrize("mutate, bad_line", [
    (lambda lines: ["MOTSP v2 n=3 m=2 dx=4"] + lines[1:], 1),
    (lambda lines: ["garbage"] + lines[1:], 1),
    (lambda lines: [lines[0]] + ["0.1 0.2 0.3"] + lines[2:], 2),
    (lambda lines: [lines[0], lines[1], "a b c d"] + lines[3:], 3),
    (lambda lines: lines[:-1], 3),
    (lambda lines: lines + ["0.5 0.5 0.5 0.5"], 5),
    pytest.param(lambda lines: ["MOTSP v1 n=3 m=-1 dx=-2"] + lines[1:], 1, id="negative-sizes"),
    # 3 rows of 1e12 features would be 22 TiB; only m=2 dx=4 is read
    pytest.param(lambda lines: ["MOTSP v1 n=3 m=500000000000 dx=1000000000000"] + lines[1:], 1,
                 id="huge-sizes"),
    pytest.param(lambda lines: ["MOTSP v1 n=3 m=3 dx=6"] + [line + " 0.5 0.5" for line in lines[1:]], 1,
                 id="three-objectives"),
    pytest.param(lambda lines: ["MOTSP v1 n=1 m=2 dx=4"] + lines[1:2], 1, id="one-node"),
])
def test_native_malformed_files(tmp_path, mutate, bad_line):
    inst = random_instance(3, seed=2)
    path = tmp_path / "inst.motsp"
    save_native(inst, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(mutate(lines)) + "\n")
    with pytest.raises(ParseError) as err:
        load_native(path)
    assert err.value.path == str(path)
    assert err.value.line_no == bad_line


# ---------------------------------------------------------------------------
# TSPLIB


TSPLIB_A = """NAME: toyA
TYPE: TSP
COMMENT: three nodes
DIMENSION: 3
EDGE_WEIGHT_TYPE: EUC_2D
NODE_COORD_SECTION
1 0.0 0.0
2 30.0 0.0
3 0.0 40.0
EOF
"""

TSPLIB_B = """NAME: toyB
TYPE: TSP
DIMENSION: 3
EDGE_WEIGHT_TYPE: EUC_2D
NODE_COORD_SECTION
1 10.0 10.0
2 10.0 50.0
3 90.0 10.0
EOF
"""


def _write_pair(tmp_path, a=TSPLIB_A, b=TSPLIB_B):
    pa, pb = tmp_path / "a.tsp", tmp_path / "b.tsp"
    pa.write_text(a)
    pb.write_text(b)
    return pa, pb


def test_tsplib_pair_loads(tmp_path):
    pa, pb = _write_pair(tmp_path)
    inst = load_tsplib_pair(pa, pb)
    assert inst.features.shape == (3, 4)
    assert inst.features.min() >= 0.0 and inst.features.max() <= 1.0
    # min-max scaling puts extreme coordinates at exactly 0 and 1
    np.testing.assert_array_equal(inst.features[0, :2], [0.0, 0.0])
    np.testing.assert_array_equal(inst.features[1, :2], [1.0, 0.0])
    assert inst.raw_coords is not None


def test_tsplib_raw_objectives_scale(tmp_path):
    pa, pb = _write_pair(tmp_path)
    inst = load_tsplib_pair(pa, pb)
    tour = [[0, 1, 2]]
    raw = evaluate_objectives(inst.raw_coords, tour)[0]
    # objective 1 on raw A coordinates: 30 + 50 + 40
    assert abs(raw[0] - 120.0) < 1e-9
    scaled = evaluate_objectives(inst.features, tour)[0]
    assert scaled[0] < raw[0]


def test_tsplib_native_round_trip(tmp_path):
    pa, pb = _write_pair(tmp_path)
    inst = load_tsplib_pair(pa, pb)
    path = tmp_path / "pair.motsp"
    save_native(inst, path)
    again = load_native(path)
    np.testing.assert_allclose(again.features, inst.features, atol=1e-12)


def test_tsplib_dimension_mismatch(tmp_path):
    bigger = TSPLIB_B.replace("DIMENSION: 3", "DIMENSION: 4").replace(
        "3 90.0 10.0", "3 90.0 10.0\n4 5.0 5.0")
    pa, pb = _write_pair(tmp_path, TSPLIB_A, bigger)
    with pytest.raises(ParseError):
        load_tsplib_pair(pa, pb)


@pytest.mark.parametrize("dimension", [-3, 0, 1])
def test_tsplib_dimension_below_two_names_its_line(tmp_path, dimension):
    """A DIMENSION too small for a tour, in both files and with as many
    coordinate lines as it states, is a ParseError on its own line."""
    def shrink(text):
        head, _, body = text.partition("NODE_COORD_SECTION\n")
        kept = body.splitlines()[:max(dimension, 0)]
        return (head.replace("DIMENSION: 3", f"DIMENSION: {dimension}")
                + "NODE_COORD_SECTION\n" + "\n".join(kept + ["EOF"]) + "\n")

    pa, pb = _write_pair(tmp_path, shrink(TSPLIB_A), shrink(TSPLIB_B))
    with pytest.raises(ParseError, match="DIMENSION must be >= 2") as err:
        load_tsplib_pair(pa, pb)
    assert (err.value.path, err.value.line_no) == (str(pa), 4)


@pytest.mark.parametrize("breaker", [
    lambda s: s.replace("EDGE_WEIGHT_TYPE: EUC_2D", "EDGE_WEIGHT_TYPE: GEO"),
    lambda s: s.replace("TYPE: TSP", "TYPE: ATSP"),
    lambda s: s.replace("NODE_COORD_SECTION\n", ""),
    lambda s: s.replace("2 30.0 0.0", "2 thirty 0.0"),
    lambda s: s.replace("NAME: toyA", "CAPACITY: 7"),
    lambda s: s.replace("2 30.0 0.0", "9 30.0 0.0"),
    lambda s: s.replace("DIMENSION: 3", "DIMENSION: 1000000000000000"),
])
def test_tsplib_malformed_rejected(tmp_path, breaker):
    pa, pb = _write_pair(tmp_path, breaker(TSPLIB_A), TSPLIB_B)
    with pytest.raises(ParseError) as err:
        load_tsplib_pair(pa, pb)
    assert err.value.path == str(pa)
    assert err.value.line_no is not None


def test_kroab100_pair_when_available():
    """Loads the classic kroA100/kroB100 benchmark pair if the files are
    supplied locally (they are not bundled); skipped otherwise."""
    root = os.environ.get("PARETOTSP_TSPLIB_DIR")
    if not root:
        pytest.skip("PARETOTSP_TSPLIB_DIR not set")
    pa = os.path.join(root, "kroA100.tsp")
    pb = os.path.join(root, "kroB100.tsp")
    if not (os.path.exists(pa) and os.path.exists(pb)):
        pytest.skip("kroA100.tsp / kroB100.tsp not found")
    inst = load_tsplib_pair(pa, pb)
    assert inst.features.shape == (100, 4)
    assert inst.features.min() == 0.0 and inst.features.max() == 1.0
    raw = tour_costs_batch(inst.raw_coords[None], np.arange(100)[None])[0]
    # no closed tour can beat the published optimum of kroA100 (21282)
    assert raw[0] >= 21282.0
    assert raw[1] > 0.0
