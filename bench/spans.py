"""In-memory span tracer for the benchmark's traced runs.

The tracer never edits the program. `install` replaces public functions of
the paretotsp modules with timing wrappers, at the name each caller looks
up (module attribute or class attribute), so every call made while a closed-
loop operation runs becomes one span: name, start, end, parent span and run
id. Spans live in flat arrays until the run ends. An untraced run never calls
`install`, so it runs the program's own functions.
"""

from __future__ import annotations

import functools
import os
from array import array
from time import perf_counter

import numpy as np

# The 17 tape ops of paretotsp.autodiff. `softmax` calls `masked_softmax`,
# so its spans contain a masked_softmax span.
AUTODIFF_OPS = (
    "matmul", "bmm", "add", "add_bias", "mul", "scale", "relu", "tanh", "log",
    "concat", "mean_over_axis", "reshape", "transpose_last2", "gather_rows",
    "masked_softmax", "softmax", "batch_norm",
)
LAYERS = ("autodiff", "model", "trainer", "instances", "decomposition", "evaluation", "cli")
ROOT = "bench.op"


class Tracer:
    """Spans as parallel arrays; index i is span i in start order."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")     # time covered by direct children
        self._stack: list[int] = []
        self.run_id = -1
        self.enabled = False
        self.arrays_created = 0
        self.counts: dict[str, float] = {}

    def name(self, text: str) -> int:
        if text not in self._name_ids:
            self._name_ids[text] = len(self.names)
            self.names.append(text)
        return self._name_ids[text]

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def begin(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(0.0)
        self.child.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        now = perf_counter()
        self.end[idx] = now
        self._stack.pop()
        parent = self.parent[idx]
        if parent >= 0:
            self.child[parent] += now - self.start[idx]

    def wrap(self, name: str, fn, after=None, arrays_key: str | None = None):
        """Span every call of fn.

        `after(args, kwargs, result)` records counts from a call that returned;
        `arrays_key` counts the Arrays the call created; an exception is
        counted under `<name>.raised.<type>`.
        """
        nid = self.name(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            arrays_before = self.arrays_created
            idx = self.begin(nid)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                self.count(f"{name}.raised.{type(exc).__name__}")
                raise
            finally:
                self.finish(idx)
                if arrays_key is not None:
                    self.count(arrays_key, self.arrays_created - arrays_before)
                    self.count(arrays_key + ".calls")
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.frombuffer(self.name_id, np.int32),
            parent=np.frombuffer(self.parent, np.int32), run=np.frombuffer(self.run, np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end))


# ---------------------------------------------------------------------------
# installing the wrappers


def _patch(tracer: Tracer, owner, attr: str, name: str, after=None, arrays_key=None) -> None:
    setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), after, arrays_key))


def _matmul_flops(a, b) -> float:
    """2*m*k*n per product: matmul is (m,k)@(k,n), bmm (B,m,k)@(B,k,n)."""
    batch = a.shape[0] if len(a.shape) == 3 else 1
    return 2.0 * batch * a.shape[-2] * a.shape[-1] * b.shape[-1]


def _install_autodiff(tracer: Tracer, ad) -> None:
    original_init = ad.Array.__init__
    init_nid = tracer.name("autodiff.array.init")

    def init(self, *args, **kwargs):
        if not tracer.enabled:
            return original_init(self, *args, **kwargs)
        tracer.arrays_created += 1
        idx = tracer.begin(init_nid)
        try:
            original_init(self, *args, **kwargs)
        finally:
            tracer.finish(idx)

    ad.Array.__init__ = init

    for op in AUTODIFF_OPS:
        bwd_nid = tracer.name(f"autodiff.op.{op}.bwd")
        flops = op in ("matmul", "bmm")

        def after(args, kwargs, out, op=op, bwd_nid=bwd_nid, flops=flops):
            # Forward flops are counted here; backward flops (two products of
            # the same size) only when the closure actually runs.
            fwd_flops = _matmul_flops(args[0], args[1]) if flops else 0.0
            if flops:
                tracer.count(f"autodiff.op.{op}.flops", fwd_flops)
            back = out._backward
            if back is None:
                return

            def timed_back(g):
                idx = tracer.begin(bwd_nid)
                try:
                    return back(g)
                finally:
                    tracer.finish(idx)
                    if flops:
                        tracer.count(f"autodiff.op.{op}.flops", 2.0 * fwd_flops)

            out._backward = timed_back

        _patch(tracer, ad, op, f"autodiff.op.{op}.fwd", after)
    _patch(tracer, ad, "backward", "autodiff.backward")


def _file_bytes(key: str, tracer: Tracer):
    def after(args, kwargs, out):
        tracer.count(key, os.path.getsize(args[0]))
    return after


def install(tracer: Tracer, ad, model, trainer, decomposition, evaluation, cli) -> None:
    """Wrap each layer's public functions where their callers look them up.

    The functions of paretotsp.instances are wrapped at their callers in
    trainer, evaluation and cli.
    """
    _install_autodiff(tracer, ad)

    def rollout_steps(args, kwargs, out):
        tracer.count("model.decode_steps", np.asarray(args[0]).shape[1])

    for owner in (model, trainer):
        _patch(tracer, owner, "rollout_batch", "model.rollout_batch", rollout_steps,
               arrays_key="rollout.arrays")
    _patch(tracer, model, "encode_batch", "model.encode_batch")
    _patch(tracer, model, "rollout", "model.rollout")
    _patch(tracer, trainer, "critic_batch", "model.critic_batch")
    _patch(tracer, model.ActorParams, "copy", "model.copy")
    _patch(tracer, model.CriticParams, "copy", "model.copy")

    _patch(tracer, trainer, "reinforce_iteration", "trainer.reinforce_iteration",
           arrays_key="iteration.arrays")
    _patch(tracer, trainer, "clip_gradients", "trainer.clip_gradients")
    _patch(tracer, trainer, "sample_batch", "trainer.sample_batch")
    _patch(tracer, trainer.Adam, "step", "trainer.adam_step")
    _patch(tracer, decomposition, "train_subproblem", "trainer.train_subproblem")

    _patch(tracer, trainer, "tour_costs_batch", "instances.tour_costs_batch")
    _patch(tracer, evaluation, "evaluate_objectives", "instances.evaluate_objectives")
    _patch(tracer, cli, "load_native", "instances.load_native")

    _patch(tracer, decomposition, "run_schedule", "decomposition.run_schedule")
    _patch(tracer, decomposition, "save_models", "decomposition.save_models",
           _file_bytes("decomposition.save_models.bytes", tracer))
    _patch(tracer, decomposition, "load_models", "decomposition.load_models",
           _file_bytes("decomposition.load_models.bytes", tracer))
    _patch(tracer, decomposition, "write_manifest", "decomposition.write_manifest")
    _patch(tracer, decomposition, "load_manifest", "decomposition.load_manifest")

    def front_yield(args, kwargs, archive):
        tracer.count("evaluation.front_points", len(archive))
        tracer.count("evaluation.front_rollouts", len(args[1]))

    _patch(tracer, evaluation, "approximate_pf", "evaluation.approximate_pf", front_yield)
    _patch(tracer, evaluation, "pareto_filter_indices", "evaluation.pareto_filter_indices")
    _patch(tracer, evaluation, "compute_hv_protocol", "evaluation.compute_hv_protocol")
    _patch(tracer, evaluation, "write_pf_csv", "evaluation.write_pf_csv")
    _patch(tracer, evaluation, "read_pf_csv", "evaluation.read_pf_csv")

    _patch(tracer, cli, "main", "cli.main")
    _patch(tracer, cli, "cmd_solve", "cli.solve")
    _patch(tracer, cli, "cmd_eval", "cli.eval")


# ---------------------------------------------------------------------------
# per-layer metrics


def per_layer_metrics(tracer: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures over all recorded spans, as {name: (value, unit)}.

    Times are milliseconds per closed-loop operation and inclusive of child
    spans, except where a name says `self`, and two the layer table defines
    per unit of work: autodiff.backward.ms (self time per training iteration)
    and model.decode_step.ms (per decode step).
    """
    nid = np.frombuffer(tracer.name_id, np.int32)
    start = np.frombuffer(tracer.start)
    dur = np.frombuffer(tracer.end) - start
    self_time = dur - np.frombuffer(tracer.child)
    k = len(tracer.names)
    calls = np.bincount(nid, minlength=k).astype(np.float64)
    total = np.bincount(nid, weights=dur, minlength=k)
    own = np.bincount(nid, weights=self_time, minlength=k)
    c = tracer.counts

    def get(table, name):
        i = tracer._name_ids.get(name)
        return float(table[i]) if i is not None else 0.0

    def ms_per_op(name):
        return get(total, name) * 1000.0 / ops

    def ratio(num, den):
        return num / den if den else 0.0

    out: dict[str, tuple[float, str]] = {}
    iterations = get(calls, "trainer.reinforce_iteration")
    out["autodiff.nodes_per_iter"] = (ratio(c.get("iteration.arrays", 0.0), iterations), "count")
    out["autodiff.nodes_per_rollout"] = (
        ratio(c.get("rollout.arrays", 0.0), c.get("rollout.arrays.calls", 0.0)), "count")
    out["autodiff.array.count"] = (get(calls, "autodiff.array.init") / ops, "count")
    out["autodiff.array.init_ms"] = (ms_per_op("autodiff.array.init"), "ms")
    out["autodiff.backward.ms"] = (ratio(get(own, "autodiff.backward") * 1000.0, iterations), "ms")
    for op in AUTODIFF_OPS:
        out[f"autodiff.op.{op}.calls"] = (get(calls, f"autodiff.op.{op}.fwd") / ops, "count")
        out[f"autodiff.op.{op}.fwd_ms"] = (ms_per_op(f"autodiff.op.{op}.fwd"), "ms")
        out[f"autodiff.op.{op}.bwd_ms"] = (ms_per_op(f"autodiff.op.{op}.bwd"), "ms")
        if op in ("matmul", "bmm"):
            out[f"autodiff.op.{op}.flops"] = (c.get(f"autodiff.op.{op}.flops", 0.0) / ops, "computed_flop")

    encode = get(total, "model.encode_batch")
    rollout = get(total, "model.rollout_batch")
    out["model.encode_batch.ms"] = (encode * 1000.0 / ops, "ms")
    out["model.decode_step.ms"] = (ratio((rollout - encode) * 1000.0, c.get("model.decode_steps", 0.0)), "ms")
    out["model.critic_batch.ms"] = (ms_per_op("model.critic_batch"), "ms")
    out["model.copy.ms"] = (ms_per_op("model.copy"), "ms")

    for fn in ("reinforce_iteration", "clip_gradients", "adam_step", "sample_batch"):
        out[f"trainer.{fn}.ms"] = (ms_per_op(f"trainer.{fn}"), "ms")
    out["trainer.diverged"] = (
        c.get("trainer.reinforce_iteration.raised.TrainingDivergedError", 0.0), "count")

    for fn in ("tour_costs_batch", "evaluate_objectives", "load_native"):
        out[f"instances.{fn}.ms"] = (ms_per_op(f"instances.{fn}"), "ms")

    for fn in ("save_models", "load_models"):
        out[f"decomposition.{fn}.ms"] = (ms_per_op(f"decomposition.{fn}"), "ms")
        out[f"decomposition.{fn}.calls"] = (get(calls, f"decomposition.{fn}") / ops, "count")
        out[f"decomposition.{fn}.bytes"] = (c.get(f"decomposition.{fn}.bytes", 0.0) / ops, "B")
    out["decomposition.write_manifest.ms"] = (ms_per_op("decomposition.write_manifest"), "ms")
    out["decomposition.load_manifest.ms"] = (ms_per_op("decomposition.load_manifest"), "ms")

    for fn in ("approximate_pf", "pareto_filter_indices", "compute_hv_protocol", "write_pf_csv", "read_pf_csv"):
        out[f"evaluation.{fn}.ms"] = (ms_per_op(f"evaluation.{fn}"), "ms")
    out["evaluation.front_yield"] = (
        ratio(c.get("evaluation.front_points", 0.0), c.get("evaluation.front_rollouts", 0.0)), "ratio")

    out["cli.solve.self_ms"] = (get(own, "cli.solve") * 1000.0 / ops, "ms")

    # Self times partition each root span, so the layer shares plus the
    # root's own share (benchmark code between layer calls) sum to one.
    wall = get(total, ROOT)
    layer_of = np.array([n.split(".", 1)[0] for n in tracer.names])
    for layer in LAYERS:
        out[f"{layer}.self_share"] = (ratio(float(own[layer_of == layer].sum()), wall), "share")
    out["trace.unaccounted_share"] = (ratio(get(own, ROOT), wall), "share")
    return out
