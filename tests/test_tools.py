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
