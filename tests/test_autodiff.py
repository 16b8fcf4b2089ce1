import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paretotsp import autodiff as ad
from paretotsp import plain
from paretotsp.errors import (ContractError, DimensionError,
                              NonFiniteError)
from paretotsp.instances import tour_costs_batch
from paretotsp.model import (ActorParams, CriticParams, ModelConfig,
                             critic_batch, rollout_batch)

from oracles import check_gradients, relative_error, sequential_backward

FD_EPS = 1e-5


def to_scalar(a: ad.Array) -> ad.Array:
    while a.shape != ():
        a = ad.mean_over_axis(a, 0)
    return a


# ---------------------------------------------------------------------------
# forward semantics


def test_matmul_identity_and_zero():
    b = np.array([[1.5, -2.0], [0.25, 3.0]])
    out = ad.matmul(ad.constant(np.eye(2)), ad.constant(b))
    np.testing.assert_array_equal(out.data, b)
    zero = ad.matmul(ad.constant(np.random.default_rng(0).random((3, 2))),
                     ad.constant(np.zeros((2, 4))))
    np.testing.assert_array_equal(zero.data, np.zeros((3, 4)))


def test_matmul_shape_error_names_both_shapes():
    a = ad.constant(np.zeros((3, 4)))
    b = ad.constant(np.zeros((5, 2)))
    with pytest.raises(DimensionError) as err:
        ad.matmul(a, b)
    assert "(3, 4)" in str(err.value) and "(5, 2)" in str(err.value)


def test_permute_rejects_axes_that_are_not_a_reordering():
    x = ad.constant(np.zeros((2, 3, 4)))
    assert ad.permute(x, (2, 0, 1)).shape == (4, 2, 3)
    for axes in [(0, 1), (0, 1, 1), (0, 1, 3)]:
        with pytest.raises(DimensionError):
            ad.permute(x, axes)


def test_relu_forward():
    out = ad.relu(ad.constant(np.array([-1.0, 0.0, 2.0])))
    np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_is_bitwise_the_where_formula(dtype):
    """Bytes equal `np.where(x > 0, x, 0.0)`, so ±0 and negative inputs give +0.0;
    the gradient passes only where x > 0."""
    x = np.random.default_rng(6).standard_normal((5, 8)).astype(dtype)
    x[0, :4] = [0.0, -0.0, np.finfo(dtype).smallest_subnormal, -np.finfo(dtype).smallest_subnormal]
    leaf = ad.param(x, dtype=dtype)
    out = ad.relu(leaf)
    assert out.dtype == dtype
    assert out.data.tobytes() == np.where(x > 0, x, 0.0).tobytes()
    assert not np.signbit(out.data).any()
    ad.backward(ad.mean_over_axis(ad.reshape(out, (40,)), 0))
    np.testing.assert_array_equal(leaf.grad, np.where(x > 0, dtype(1 / 40), dtype(0)))


def test_mean_of_identical_rows_is_that_row():
    row = np.array([0.3, -1.2, 4.5])
    x = ad.constant(np.tile(row, (5, 1)))
    np.testing.assert_allclose(ad.mean_over_axis(x, 0).data, row, rtol=0, atol=1e-15)


def test_forward_determinism_bitwise():
    rng = np.random.default_rng(42)
    a, b = rng.standard_normal((4, 4)), rng.standard_normal((4, 4))
    one = ad.tanh(ad.matmul(ad.constant(a), ad.constant(b))).data
    two = ad.tanh(ad.matmul(ad.constant(a), ad.constant(b))).data
    assert one.tobytes() == two.tobytes()


def test_non_finite_values_rejected():
    """Every way of building a leaf checks it."""
    for build in (lambda: ad.constant(np.array([1.0, np.nan])),
                  lambda: ad.constant(np.array([np.inf])),
                  lambda: ad.param(np.array([np.nan, 2.0])),
                  lambda: ad.Array(np.array([[0.5], [np.nan]]))):
        with pytest.raises(NonFiniteError, match="'leaf'"):
            build()


def test_op_results_are_not_checked_but_the_next_checked_kernel_is():
    """An op result may hold Inf; relu, tanh and softmax, which could turn it
    into a finite value, each reject it as their input."""
    big = ad.param(np.full((2, 3), 1e30), dtype=np.float32)
    with np.errstate(over="ignore"):
        product = ad.mul(big, big)
    assert np.isposinf(product.data).all()
    for op in (ad.relu, ad.tanh, ad.softmax):
        with pytest.raises(NonFiniteError, match=f"'{op.__name__}'"):
            op(product)


def test_log_rejects_nonpositive():
    with pytest.raises(ContractError):
        ad.log(ad.constant(np.array([1.0, 0.0])))
    with pytest.raises(ContractError):
        plain.log(np.array([2.0, -np.inf]))


def test_gather_rows_duplicate_indices_accumulate():
    leaf = ad.param(np.zeros((3, 2)))
    ad.backward(to_scalar(ad.reshape(ad.gather_rows(leaf, np.array([2, 0, 2, 2])), (8,))))
    np.testing.assert_array_equal(leaf.grad, [[1 / 8, 1 / 8], [0.0, 0.0], [3 / 8, 3 / 8]])


def test_gather_rows_out_of_range():
    x = ad.constant(np.zeros((3, 2)))
    with pytest.raises(ContractError, match="gather_rows index out of range"):
        ad.gather_rows(x, np.array([0, 3]))


# ---------------------------------------------------------------------------
# masked softmax


def test_masked_softmax_uniform_no_mask():
    probs = ad.masked_softmax(ad.constant(np.full((1, 4), 2.5)),
                              np.zeros((1, 4), dtype=bool))
    np.testing.assert_array_equal(probs.data, np.full((1, 4), 0.25))


def test_masked_softmax_single_feasible():
    probs = ad.masked_softmax(ad.constant(np.zeros((1, 2))),
                              np.array([[False, True]]))
    np.testing.assert_array_equal(probs.data, [[1.0, 0.0]])


def test_masked_softmax_all_masked():
    with pytest.raises(ContractError, match="every entry masked"):
        ad.masked_softmax(ad.constant(np.zeros((1, 3))), np.ones((1, 3), dtype=bool))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8), st.integers(0, 10**9), st.floats(1.0, 50.0))
def test_masked_softmax_probability_vector(n, seed, scale):
    rng = np.random.default_rng(seed)
    logits = rng.standard_normal((1, n)) * scale
    mask = rng.random((1, n)) < 0.4
    mask[0, rng.integers(n)] = False          # keep one feasible
    probs = ad.masked_softmax(ad.constant(logits), mask).data[0]
    assert np.all(probs >= 0.0)
    assert np.all(probs[mask[0]] == 0.0)
    assert abs(probs.sum() - 1.0) <= 1e-9


def test_masked_softmax_gradient_small():
    rng = np.random.default_rng(3)
    logits = rng.standard_normal((1, 6))
    mask = np.array([[False, True, False, False, True, False]])
    w = rng.standard_normal((1, 6))

    def build(leaves):
        return to_scalar(ad.mul(ad.masked_softmax(leaves[0], mask), ad.constant(w)))

    assert check_gradients(build, [logits], eps=FD_EPS) < 1e-6


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_softmax_kernels_are_bitwise_the_two_where_formula(dtype):
    """`softmax` equals `masked_softmax` with nothing masked, and both equal
    the formula that masks twice, before the max and after the exp; masked
    entries are exactly +0.0."""
    rng = np.random.default_rng(5)
    logits = (rng.standard_normal((3, 4, 9)) * 8.0).astype(dtype)
    mask = rng.random(logits.shape) < 0.5
    mask[..., 4] = False

    def two_where(mask):
        shifted = np.where(~mask, logits, -np.inf)
        ex = np.where(~mask, np.exp(shifted - shifted.max(axis=-1, keepdims=True)), 0.0)
        return ex / ex.sum(axis=-1, keepdims=True)

    nothing = np.zeros(logits.shape, dtype=bool)
    plain = ad.softmax(ad.constant(logits)).data
    assert plain.dtype == dtype
    assert plain.tobytes() == ad.masked_softmax(ad.constant(logits), nothing).data.tobytes()
    assert plain.tobytes() == two_where(nothing).tobytes()
    probs = ad.masked_softmax(ad.constant(logits), mask).data
    assert probs.dtype == dtype
    assert probs.tobytes() == two_where(mask).tobytes()
    assert np.all(probs[mask] == 0.0) and not np.signbit(probs[mask]).any()


# ---------------------------------------------------------------------------
# batch norm


def _bn_leaves(dim):
    """A fresh norm's scale, shift, running mean and running variance."""
    return (ad.param(np.ones(dim)), ad.param(np.zeros(dim)),
            ad.constant(np.zeros(dim)), ad.constant(np.ones(dim)))


def test_batch_norm_constant_column_zeros():
    x = ad.constant(np.tile([2.0, -1.0, 0.5], (4, 1)))
    out = ad.batch_norm(x, *_bn_leaves(3), "train")
    np.testing.assert_array_equal(out.data, np.zeros((4, 3)))


def test_batch_norm_identity_stats_infer():
    scale, shift, _, _ = _bn_leaves(2)
    mean = ad.constant(np.zeros(2))
    var = ad.constant(np.ones(2) - ad.BN_EPS)   # (x-0)/sqrt(var+eps) == x
    x = np.random.default_rng(0).standard_normal((5, 2))
    out = ad.batch_norm(ad.constant(x), scale, shift, mean, var, "infer")
    np.testing.assert_allclose(out.data, x, rtol=0, atol=1e-12)


def test_batch_norm_normalizes_batch():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((8, 4)) * 100.0 + 37.0
    out = ad.batch_norm(ad.constant(x), *_bn_leaves(4), "train").data
    assert np.all(np.abs(out.mean(axis=0)) < 1e-9)
    assert np.all(np.abs(out.var(axis=0) - 1.0) < 1e-6)


def test_batch_norm_batch_of_one_rejected():
    with pytest.raises(ContractError, match="at least 2 rows"):
        ad.batch_norm(ad.constant(np.ones((1, 3))), *_bn_leaves(3), "train")


def test_batch_norm_running_stats_ema():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((6, 3)) * 2.0 + 1.0
    scale, shift, mean, var = _bn_leaves(3)
    before_mean = mean.data.copy()
    before_var = var.data.copy()
    ad.batch_norm(ad.constant(x), scale, shift, mean, var, "train")
    np.testing.assert_allclose(mean.data,
                               0.9 * before_mean + 0.1 * x.mean(axis=0), atol=1e-12)
    np.testing.assert_allclose(var.data,
                               0.9 * before_var + 0.1 * x.var(axis=0, ddof=1), atol=1e-12)


# ---------------------------------------------------------------------------
# backward mechanics


def test_backward_sum_gives_ones():
    p = ad.param(np.array([1.0, 2.0, 3.0, 4.0]))
    loss = ad.scale(ad.mean_over_axis(p, 0), 4.0)
    ad.backward(loss)
    np.testing.assert_array_equal(p.grad, np.ones(4))


def test_backward_constant_loss_leaves_params_untouched():
    p = ad.param(np.ones(3))
    loss = to_scalar(ad.constant(np.array([5.0])))
    ad.backward(loss)
    assert p.grad is None


def test_backward_requires_scalar():
    p = ad.param(np.ones((2, 2)))
    with pytest.raises(ContractError):
        ad.backward(ad.relu(p))


def test_backward_of_a_sum_of_losses_of_two_dtypes_matches_one_backward_each():
    """add passes each input its gradient in that input's dtype, so a float32
    loss added to a float64 one gets the float32 seed its own backward uses."""
    x = np.array([0.1, 0.7, 1.3])
    summed = [ad.param(x, dtype=np.float32), ad.param(x, dtype=np.float64)]
    alone = [ad.param(x, dtype=np.float32), ad.param(x, dtype=np.float64)]
    ad.backward(ad.add(to_scalar(ad.mul(summed[0], summed[0])),
                       to_scalar(ad.mul(summed[1], summed[1]))))
    for p in alone:
        ad.backward(to_scalar(ad.mul(p, p)))
    assert [p.grad.tobytes() for p in summed] == [p.grad.tobytes() for p in alone]


def test_backward_accumulates_across_calls():
    p = ad.param(np.array([2.0, -1.0]))
    for _ in range(2):
        ad.backward(to_scalar(ad.mul(p, p)))
    np.testing.assert_allclose(p.grad, 2.0 * p.data, rtol=0, atol=1e-15)
    p.zero_grad()
    assert p.grad is None


def test_composite_matmul_relu_mean_gradient():
    rng = np.random.default_rng(17)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))
    # keep pre-activations away from the relu kink for clean differences
    a[np.abs(a) < 0.1] += 0.2

    def build(leaves):
        return to_scalar(ad.relu(ad.matmul(leaves[0], leaves[1])))

    assert check_gradients(build, [a, b], eps=FD_EPS) < 1e-5


@pytest.mark.parametrize("seed", range(5))
def test_backward_matches_the_sequential_sweep_bitwise(seed):
    """The freeing sweep runs the same closures in the same order as a sweep
    that keeps the graph, so every op's gradients agree to the byte, and so
    do a training iteration's actor and critic gradients."""
    grads = []
    for sweep in (ad.backward, sequential_backward):
        grads.append([])
        for name, build, inputs in _op_cases(np.random.default_rng(seed)):
            leaves = [ad.param(x, dtype=np.float64) for x in inputs]
            sweep(build(leaves))
            grads[-1].append((name, [leaf.grad.tobytes() for leaf in leaves]))
        for dtype in (np.float32, np.float64):
            loss, leaves = _iteration_loss(np.random.default_rng(seed), dtype)
            sweep(loss)
            grads[-1].append((dtype.__name__, [leaf.grad.tobytes() for leaf in leaves]))
    assert grads[0] == grads[1]


def _iteration_loss(rng, dtype):
    """`reinforce_iteration`'s one loss and its leaves: a d_h=8, H=2 actor's
    train-mode log-prob times a constant advantage, plus a critic's squared
    residual. The encoder fans one node array out to every gather, and the
    root joins two graphs that share no node."""
    actor = ActorParams.init(ModelConfig(d_h=8, n_heads=2, d_ff=16), rng, dtype=dtype)
    critic = CriticParams.init(rng, dtype=dtype)
    feats = rng.random((4, 6, 4))
    tours, logp, _ = rollout_batch(feats, actor, rng=rng, bn_mode="train")
    gws = tour_costs_batch(feats, tours) @ np.array([0.3, 0.7])
    baseline = critic_batch(feats, critic)
    advantage = ad.constant((gws - baseline.data).astype(dtype))
    resid = ad.add(baseline, ad.constant(-gws, dtype=dtype))
    loss = ad.add(ad.mean_over_axis(ad.mul(logp, advantage), 0),
                  ad.mean_over_axis(ad.mul(resid, resid), 0))
    return loss, actor.trainable() + critic.trainable()


def test_backward_frees_the_graph_and_refuses_a_second_sweep():
    p = ad.param(np.array([2.0, -1.0]))
    hidden = ad.mul(p, p)
    loss = to_scalar(hidden)
    ad.backward(loss)
    assert hidden._node._parents == () and loss._node._parents == ()
    with pytest.raises(ContractError, match="already consumed"):
        ad.backward(loss)
    np.testing.assert_array_equal(p.grad, [2.0, -1.0])


def test_the_tape_frees_intermediates_that_no_closure_reads():
    """add_bias reads neither input and relu reads only its output, so the
    data of a matmul under add_bias and of an add_bias under relu die with
    their Arrays; the gradients still match the sweep that keeps the graph."""
    rng = np.random.default_rng(3)
    inputs = [rng.standard_normal((4, 3)), rng.standard_normal((3, 5)), rng.standard_normal(5)]
    grads = []
    for sweep in (ad.backward, sequential_backward):
        x, w, b = (ad.param(v) for v in inputs)
        product = ad.matmul(x, w)
        biased = ad.add_bias(product, b)
        loss = to_scalar(ad.relu(biased))
        freed = [weakref.ref(product.data), weakref.ref(biased.data)]
        del product, biased
        assert [ref() for ref in freed] == [None, None]
        sweep(loss)
        grads.append([leaf.grad.tobytes() for leaf in (x, w, b)])
    assert grads[0] == grads[1]


# ---------------------------------------------------------------------------
# plain kernels


def test_plain_forward_builds_no_array_and_equals_the_taped_forward():
    p = ad.param(np.array([[1.0, -2.0], [3.0, 0.5]]))
    taped = ad.tanh(ad.relu(ad.matmul(p, ad.transpose_last2(p))))
    h = plain.tanh(plain.relu(plain.matmul(p.data, plain.transpose_last2(p.data))))
    assert type(h) is np.ndarray
    assert h.tobytes() == taped.data.tobytes()
    assert p.grad is None and p._node is None


def test_plain_kernels_reject_inputs_that_would_hide_a_non_finite_value():
    """relu, tanh and the softmaxes map some non-finite inputs to finite
    outputs, so each checks its input; NaN under a mask counts too."""
    hidden = np.array([[-np.inf, 1.0, 2.0]])
    with np.errstate(invalid="ignore"):
        for call in (lambda: plain.relu(hidden), lambda: plain.tanh(-hidden),
                     lambda: plain.softmax(-hidden),
                     lambda: plain.masked_softmax(np.array([[np.nan, 1.0, 2.0]]),
                                                  np.array([[True, False, False]]))):
            with pytest.raises(NonFiniteError):
                call()
    with pytest.raises(NonFiniteError, match="'encode_batch'"):
        plain.finite(np.array([1.0, np.nan]), "encode_batch")
    with pytest.raises(ContractError, match="every entry masked"):
        plain.masked_softmax(np.zeros((1, 3)), np.ones((1, 3), dtype=bool))
    np.testing.assert_array_equal(plain.relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])


# ---------------------------------------------------------------------------
# finite differences for every op, many seeds


def _op_cases(rng):
    """(name, build, inputs) triples exercising each differentiable op."""
    def safe(x, gap=0.08):
        x = x.copy()
        x[np.abs(x) < gap] += 2 * gap
        return x

    w34 = ad.constant(rng.standard_normal((3, 4)))
    w32 = ad.constant(rng.standard_normal((3, 2)))
    w234 = ad.constant(rng.standard_normal((2, 3, 4)))
    w43 = ad.constant(rng.standard_normal((4, 3)))
    w35 = ad.constant(rng.standard_normal((3, 5)))
    mask = rng.random((3, 5)) < 0.35
    mask[np.arange(3), rng.integers(0, 5, 3)] = False

    cases = [
        ("matmul", lambda v: to_scalar(ad.mul(ad.matmul(v[0], v[1]), w32)),
         [rng.standard_normal((3, 4)), rng.standard_normal((4, 2))]),
        ("bmm", lambda v: to_scalar(ad.mul(ad.bmm(v[0], v[1]), w234)),
         [rng.standard_normal((2, 3, 5)), rng.standard_normal((2, 5, 4))]),
        ("add", lambda v: to_scalar(ad.mul(ad.add(v[0], v[1]), w34)),
         [rng.standard_normal((3, 4)), rng.standard_normal((3, 4))]),
        ("add_bias", lambda v: to_scalar(ad.mul(ad.add_bias(v[0], v[1]), w34)),
         [rng.standard_normal((3, 4)), rng.standard_normal(4)]),
        ("mul", lambda v: to_scalar(ad.mul(ad.mul(v[0], v[1]), w34)),
         [rng.standard_normal((3, 4)), rng.standard_normal((3, 4))]),
        ("scale", lambda v: to_scalar(ad.mul(ad.scale(v[0], -1.7), w34)),
         [rng.standard_normal((3, 4))]),
        ("relu", lambda v: to_scalar(ad.mul(ad.relu(v[0]), w34)),
         [safe(rng.standard_normal((3, 4)))]),
        ("tanh", lambda v: to_scalar(ad.mul(ad.tanh(v[0]), w34)),
         [rng.standard_normal((3, 4))]),
        ("log", lambda v: to_scalar(ad.mul(ad.log(v[0]), w34)),
         [rng.uniform(0.5, 2.0, (3, 4))]),
        ("concat", lambda v: to_scalar(ad.mul(ad.concat([v[0], v[1]], axis=1), w34)),
         [rng.standard_normal((3, 1)), rng.standard_normal((3, 3))]),
        ("mean_over_axis", lambda v: to_scalar(ad.mul(ad.mean_over_axis(v[0], 1), w32)),
         [rng.standard_normal((3, 4, 2))]),
        ("reshape", lambda v: to_scalar(ad.mul(ad.reshape(v[0], (3, 4)), w34)),
         [rng.standard_normal((4, 3))]),
        ("transpose_last2", lambda v: to_scalar(ad.mul(ad.transpose_last2(v[0]), w43)),
         [rng.standard_normal((3, 4))]),
        ("gather_rows", lambda v: to_scalar(ad.mul(
            ad.gather_rows(v[0], np.array([0, 2, 2])), w34)),
         [rng.standard_normal((4, 4))]),
        ("masked_softmax", lambda v: to_scalar(ad.mul(
            ad.masked_softmax(v[0], mask), w35)),
         [rng.standard_normal((3, 5))]),
        ("softmax", lambda v: to_scalar(ad.mul(ad.softmax(v[0]), w234)),
         [rng.standard_normal((2, 3, 4))]),
    ]

    def bn_train(v):
        stats = ad.constant(np.zeros(3)), ad.constant(np.ones(3))
        return to_scalar(ad.mul(ad.batch_norm(v[0], v[1], v[2], *stats, "train"), w43))

    run_mean = rng.standard_normal(3)
    run_var = rng.uniform(0.5, 2.0, 3)

    def bn_infer(v):
        stats = ad.constant(run_mean), ad.constant(run_var)
        return to_scalar(ad.mul(ad.batch_norm(v[0], v[1], v[2], *stats, "infer"), w43))

    cases.append(("batch_norm_train", bn_train,
                  [rng.standard_normal((4, 3)), rng.uniform(0.5, 1.5, 3),
                   rng.standard_normal(3)]))
    cases.append(("batch_norm_infer", bn_infer,
                  [rng.standard_normal((4, 3)), rng.uniform(0.5, 1.5, 3),
                   rng.standard_normal(3)]))
    w2413 = ad.constant(rng.standard_normal((2, 4, 1, 3)))
    cases.append(("permute", lambda v: to_scalar(ad.mul(ad.permute(v[0], (0, 3, 2, 1)), w2413)),
                  [rng.standard_normal((2, 3, 1, 4))]))
    w214 = ad.constant(rng.standard_normal((2, 1, 4)))
    cases.append(("bmm_one_row", lambda v: to_scalar(ad.mul(ad.bmm(v[0], v[1]), w214)),
                  [rng.standard_normal((2, 1, 5)), rng.standard_normal((2, 5, 4))]))
    return cases


@pytest.mark.parametrize("seed", range(100))
def test_every_op_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    for name, build, inputs in _op_cases(rng):
        err = check_gradients(build, inputs, eps=FD_EPS)
        assert err < 1e-4, f"{name}: relative error {err:.3e} at seed {seed}"


def test_listed_ops_hit_tight_tolerance():
    rng = np.random.default_rng(12345)
    for name, build, inputs in _op_cases(rng):
        if name in ("relu", "batch_norm_train"):   # kink / variance coupling
            continue
        err = check_gradients(build, inputs, eps=FD_EPS)
        assert err < 1e-6, f"{name}: relative error {err:.3e}"
