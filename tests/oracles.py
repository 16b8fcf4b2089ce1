"""Independent reference implementations used to check the real code.

Everything here is deliberately slow and simple: pure-python loops, central
finite differences, grid counting, exhaustive enumeration. None of it shares
code with the package under test, except the sequential references at the
end, which keep earlier, simpler forms of package code to compare against.
"""

from __future__ import annotations

import itertools
import math
import re

import numpy as np

from paretotsp import autodiff as ad
from paretotsp.instances import MotspInstance
from paretotsp.model import _decode_step_batch, _sample_rows, encode_batch


def random_instance(n: int, seed: int) -> MotspInstance:
    """n nodes with uniform-[0,1)^4 features drawn from default_rng(seed)."""
    return MotspInstance(np.random.default_rng(seed).random((n, 4)), name=f"rand_n{n}_s{seed}")


# ---------------------------------------------------------------------------
# finite differences


def fd_gradient(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of scalar fn at x, coordinate by coordinate."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        h = eps * max(1.0, abs(orig))
        flat[i] = orig + h
        fp = fn(x)
        flat[i] = orig - h
        fm = fn(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return g


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    # the floor acts as an absolute tolerance: some gradients are structurally
    # zero (e.g. a bias feeding straight into batch norm), where central
    # differences return pure cancellation noise and a relative comparison
    # against an exact zero would be meaningless
    scale = max(np.max(np.abs(a), initial=0.0), np.max(np.abs(b), initial=0.0), 1e-5)
    return float(np.max(np.abs(a - b), initial=0.0) / scale)


def check_gradients(build, inputs: list[np.ndarray], eps: float = 1e-6,
                    coords: int | None = None, rng=None) -> float:
    """Max relative error between tape gradients and central differences.

    `build(arrays)` must construct a scalar Array from `param` leaves made of
    the given numpy values. When `coords` is set, only that many randomly
    chosen coordinates per input are finite-differenced.
    """
    leaves = [ad.param(x, dtype=np.float64) for x in inputs]
    loss = build(leaves)
    for leaf in leaves:
        leaf.zero_grad()
    ad.backward(loss)
    worst = 0.0
    for which, leaf in enumerate(leaves):
        base = [x.copy() for x in inputs]

        def scalar_at(xi):
            vals = [b.copy() for b in base]
            vals[which] = xi
            fresh = [ad.param(v, dtype=np.float64) for v in vals]
            return float(build(fresh).data)

        x0 = base[which]
        if coords is None or x0.size <= coords:
            fd = fd_gradient(lambda xi: scalar_at(xi), x0, eps)
            worst = max(worst, relative_error(leaf.grad, fd))
        else:
            picks = (rng or np.random.default_rng(0)).choice(x0.size, size=coords, replace=False)
            flat0 = x0.reshape(-1)
            for idx in picks:
                orig = flat0[idx]
                h = eps * max(1.0, abs(orig))
                flat0[idx] = orig + h
                fp = scalar_at(x0)
                flat0[idx] = orig - h
                fm = scalar_at(x0)
                flat0[idx] = orig
                fd_i = (fp - fm) / (2.0 * h)
                ad_i = leaf.grad.reshape(-1)[idx]
                worst = max(worst, relative_error(np.array([ad_i]), np.array([fd_i])))
    return worst


# ---------------------------------------------------------------------------
# Pareto / hypervolume


def pareto_brute(points: np.ndarray) -> list[int]:
    """First-occurrence indices of nondominated, deduplicated points (pure loops)."""
    pts = [tuple(float(v) for v in row) for row in np.asarray(points)]
    keep = []
    seen = set()
    for j, p in enumerate(pts):
        dominated = False
        for q in pts:
            if q == p:
                continue
            if all(qi <= pi for qi, pi in zip(q, p)) and any(qi < pi for qi, pi in zip(q, p)):
                dominated = True
                break
        if dominated or p in seen:
            continue
        seen.add(p)
        keep.append(j)
    return keep


def hv_grid(points: np.ndarray, ref, cells: int = 10_000) -> float:
    """Hypervolume by counting dominated grid-cell centers over [lo, ref]."""
    pts = np.asarray(points, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    pts = pts[np.all(pts < ref, axis=1)]
    if pts.shape[0] == 0:
        return 0.0
    lo = pts.min(axis=0)
    dx = (ref[0] - lo[0]) / cells
    dy = (ref[1] - lo[1]) / cells
    x_centers = lo[0] + (np.arange(cells) + 0.5) * dx
    y_centers = lo[1] + (np.arange(cells) + 0.5) * dy
    order = np.argsort(pts[:, 0], kind="stable")
    px = pts[order, 0]
    py_best = np.minimum.accumulate(pts[order, 1])
    # for each column, the lowest objective-2 among points with p_x <= x
    k = np.searchsorted(px, x_centers, side="right")
    covered = k > 0
    ymin = py_best[np.maximum(k - 1, 0)]
    per_col = np.where(covered, cells - np.searchsorted(y_centers, ymin, side="left"), 0)
    return float(per_col.sum()) * dx * dy


# ---------------------------------------------------------------------------
# exhaustive tour enumeration


def all_tours(n: int) -> np.ndarray:
    """Every closed tour once, as permutations starting at node 0."""
    rest = list(range(1, n))
    return np.array([(0,) + p for p in itertools.permutations(rest)], dtype=np.intp)


def tour_objectives_slow(features: np.ndarray, order) -> np.ndarray:
    """Closed-tour length per coordinate pair, with pure-python arithmetic."""
    feats = np.asarray(features, dtype=np.float64)
    n, d_x = feats.shape
    m = d_x // 2
    out = []
    for j in range(m):
        total = 0.0
        for t in range(len(order)):
            a = feats[order[t], 2 * j:2 * j + 2]
            b = feats[order[(t + 1) % len(order)], 2 * j:2 * j + 2]
            total += math.hypot(a[0] - b[0], a[1] - b[1])
        out.append(total)
    return np.array(out)


def enumerate_objectives(features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(tours, objectives) over the whole tour space, vectorized but independent."""
    feats = np.asarray(features, dtype=np.float64)
    n, d_x = feats.shape
    m = d_x // 2
    tours = all_tours(n)
    cost = np.zeros((m, n, n))
    for j in range(m):
        coords = feats[:, 2 * j:2 * j + 2]
        diff = coords[:, None, :] - coords[None, :, :]
        cost[j] = np.sqrt((diff ** 2).sum(axis=2))
    objs = np.zeros((tours.shape[0], m))
    nxt = np.roll(tours, -1, axis=1)
    for j in range(m):
        objs[:, j] = cost[j][tours, nxt].sum(axis=1)
    return tours, objs


def best_weighted_cost(features: np.ndarray, weights) -> float:
    """Exact optimum of the weighted-sum objective by exhaustive enumeration."""
    _, objs = enumerate_objectives(features)
    return float((objs @ np.asarray(weights, dtype=np.float64)).min())


# ---------------------------------------------------------------------------
# per-head attention actor


def per_head_actor_arrays(rng, d_x: int, d_h: int, n_heads: int, d_ff: int,
                          n_layers: int = 1) -> dict[str, np.ndarray]:
    """Actor arrays with one `<layer>.head<a>.W<p>` block per head, drawn
    uniform(±1/sqrt(d_h)) head by head; batch norms start at scale 1, shift 0,
    mean 0, var 1."""
    bound = 1.0 / math.sqrt(d_h)
    d_k = d_h // n_heads
    out: dict[str, np.ndarray] = {}

    def draw(name, *shape):
        out[name] = rng.uniform(-bound, bound, shape)

    def bn(name):
        out[f"{name}.scale"] = np.ones(d_h)
        out[f"{name}.shift"] = np.zeros(d_h)
        out[f"{name}.running_mean"] = np.zeros(d_h)
        out[f"{name}.running_var"] = np.ones(d_h)

    draw("enc.init.W", d_h, d_x)
    draw("enc.init.b", d_h)
    for l in range(1, n_layers + 1):
        for a in range(1, n_heads + 1):
            draw(f"enc.l{l}.head{a}.Wq", d_k, d_h)
            draw(f"enc.l{l}.head{a}.Wk", d_k, d_h)
            draw(f"enc.l{l}.head{a}.Wv", d_k, d_h)
            draw(f"enc.l{l}.head{a}.Wo", d_h, d_k)
        bn(f"enc.l{l}.bn1")
        draw(f"enc.l{l}.ff.W0", d_ff, d_h)
        draw(f"enc.l{l}.ff.b0", d_ff)
        draw(f"enc.l{l}.ff.W1", d_h, d_ff)
        draw(f"enc.l{l}.ff.b1", d_h)
        bn(f"enc.l{l}.bn2")
    draw("dec.v1", d_h)
    draw("dec.vf", d_h)
    for a in range(1, n_heads + 1):
        draw(f"dec.head{a}.Wq", d_k, 3 * d_h)
        draw(f"dec.head{a}.Wk", d_k, d_h)
        draw(f"dec.head{a}.Wv", d_k, d_h)
        draw(f"dec.head{a}.Wo", d_h, d_k)
    draw("dec.final.Wq", d_h, d_h)
    draw("dec.final.Wk", d_h, d_h)
    return out


def fuse_heads(arrays: dict) -> dict:
    """Per-head arrays in the fused layout of `ActorParams`: the blocks of a
    projection stacked in head order, by rows (Wq, Wk, Wv) or columns (Wo)."""
    out, heads = {}, {}
    for name, arr in arrays.items():
        m = re.fullmatch(r"(.+)\.head(\d+)\.(W[qkvo])", name)
        if m is None:
            out[name] = arr
        else:
            heads.setdefault(f"{m[1]}.{m[3]}", {})[int(m[2])] = arr
    for name, blocks in heads.items():
        out[name] = np.concatenate([blocks[a] for a in sorted(blocks)], axis=int(name.endswith("Wo")))
    return out


def _softmax_rows(u: np.ndarray) -> np.ndarray:
    e = np.exp(u - u.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def per_head_encode(features: np.ndarray, arrays: dict, n_heads: int,
                    n_layers: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """(n, d_h) node and (d_h,) graph embeddings of one instance in float64,
    one attention head at a time, batch norm on its running statistics."""
    A = {k: np.asarray(v, dtype=np.float64) for k, v in arrays.items()}

    def bn(x, name):
        return (A[f"{name}.scale"] * (x - A[f"{name}.running_mean"])
                / np.sqrt(A[f"{name}.running_var"] + 1e-5) + A[f"{name}.shift"])

    h = np.asarray(features, dtype=np.float64) @ A["enc.init.W"].T + A["enc.init.b"]
    for l in range(1, n_layers + 1):
        mha = np.zeros_like(h)
        for a in range(1, n_heads + 1):
            q = h @ A[f"enc.l{l}.head{a}.Wq"].T
            k = h @ A[f"enc.l{l}.head{a}.Wk"].T
            v = h @ A[f"enc.l{l}.head{a}.Wv"].T
            w = _softmax_rows(q @ k.T / math.sqrt(q.shape[1]))
            mha += (w @ v) @ A[f"enc.l{l}.head{a}.Wo"].T
        h = bn(h + mha, f"enc.l{l}.bn1")
        ff = np.maximum(h @ A[f"enc.l{l}.ff.W0"].T + A[f"enc.l{l}.ff.b0"], 0.0)
        h = bn(h + ff @ A[f"enc.l{l}.ff.W1"].T + A[f"enc.l{l}.ff.b1"], f"enc.l{l}.bn2")
    return h, h.mean(axis=0)


def per_head_decode_step(nodes: np.ndarray, graph: np.ndarray, arrays: dict, n_heads: int,
                         visited: np.ndarray, first=None, last=None, clip: float = 10.0) -> np.ndarray:
    """Next-node probabilities in float64; `first`/`last` None means the
    first step, which reads the learned placeholders dec.v1 / dec.vf."""
    A = {k: np.asarray(v, dtype=np.float64) for k, v in arrays.items()}
    f = A["dec.v1"] if first is None else nodes[first]
    g = A["dec.vf"] if last is None else nodes[last]
    context = np.concatenate([graph, f, g])
    glimpse = np.zeros(nodes.shape[1])
    for a in range(1, n_heads + 1):
        q = A[f"dec.head{a}.Wq"] @ context
        k = nodes @ A[f"dec.head{a}.Wk"].T
        v = nodes @ A[f"dec.head{a}.Wv"].T
        u = np.where(visited, -np.inf, k @ q / math.sqrt(q.shape[0]))
        glimpse += A[f"dec.head{a}.Wo"] @ (_softmax_rows(u) @ v)
    logits = clip * np.tanh((nodes @ A["dec.final.Wk"].T) @ (A["dec.final.Wq"] @ glimpse))
    return _softmax_rows(np.where(visited, -np.inf, logits))


def per_head_greedy(features: np.ndarray, arrays: dict, n_heads: int,
                    n_layers: int = 1) -> tuple[list[int], float]:
    """Greedy tour (ties to the lowest index) and its log-probability."""
    nodes, graph = per_head_encode(features, arrays, n_heads, n_layers)
    visited = np.zeros(nodes.shape[0], dtype=bool)
    tour, logp = [], 0.0
    for _ in range(nodes.shape[0]):
        probs = per_head_decode_step(nodes, graph, arrays, n_heads, visited,
                                     tour[0] if tour else None, tour[-1] if tour else None)
        node = int(np.argmax(probs))
        logp += math.log(probs[node])
        tour.append(node)
        visited[node] = True
    return tour, logp


# ---------------------------------------------------------------------------
# sequential references


def sequential_rollout(features: np.ndarray, actor, rng=None, bn_mode: str = "infer",
                       forced_tours=None) -> tuple[np.ndarray, ad.Array]:
    """(tours, log-prob Array) by the step-by-step decode on the tape: each of
    the n decoder steps chooses as `rollout_batch` does, gathers its chosen
    node's probability, takes the log and adds it to the running sum."""
    enc = encode_batch(np.asarray(features), actor, bn_mode)
    batch, n = enc.batch, enc.n
    tours = np.empty((batch, n), dtype=np.intp)
    rows = np.arange(batch)
    logp = None
    for t in range(n):
        probs = _decode_step_batch(enc, tours[:, :t], actor.cfg, actor.params)
        if forced_tours is not None:
            chosen = np.asarray(forced_tours)[:, t]
        elif rng is not None:
            chosen = _sample_rows(probs.data, rng)
        else:
            chosen = probs.data.argmax(axis=1).astype(np.intp)
        picked = ad.gather_rows(ad.reshape(probs, (batch * n, 1)), rows * n + chosen)
        lp = ad.log(ad.reshape(picked, (batch,)))
        logp = lp if logp is None else ad.add(logp, lp)
        tours[:, t] = chosen
    return tours, logp


def sequential_backward(loss: ad.Array) -> None:
    """`ad.backward` without freeing: walk the tape's node links from the
    loss, sort the reachable nodes once, newest first, and run every closure,
    leaving the graph intact."""
    root = ad._link(loss)
    reachable, seen, stack = [], set(), [root]
    while stack:
        node = stack.pop()
        if node is None or id(node) in seen:
            continue
        seen.add(id(node))
        reachable.append(node)
        if isinstance(node, ad._Node):
            stack.extend(node._parents)
    reachable.sort(key=lambda n: n._id, reverse=True)
    staged = {id(root): np.ones((), dtype=loss.dtype)}
    for node in reachable:
        g = staged.pop(id(node), None)
        if g is None:
            continue
        if isinstance(node, ad.Array):
            node.accumulate_grad(g)
            continue
        for parent, pg in zip(node._parents, node._backward(g)):
            if pg is None or parent is None:
                continue
            staged[id(parent)] = staged[id(parent)] + pg if id(parent) in staged else pg
