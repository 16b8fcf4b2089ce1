"""Interleaved A/B of two source trees: in-process blocks or benchmark process pairs.

    python3 tools/ab.py --base /path/to/parent --change . --shape desk|full|solve
    python3 tools/ab.py --base /path/to/parent --change . --workload solve-m100-n100 --seed 1

A tree is a root holding a real `src/paretotsp` and, for process pairs,
`bench/run.py`. A `--shape` block runs training iterations from the same
state in each tree's package, or solves of one fixture as bench's solve
workload builds it; its metric is ms per call. A `--workload` block is one
run of the tree's own `bench/run.py --trace 0` for BENCHMARK.json's
`run_seconds`, with its gated metrics. The side that runs first swaps every
block. One JSON line per metric gives each side's values, median, quartiles,
the blocks the change won and the ties; a last line, the failed operations
per block (None for a run that printed no result), each side's output
digests, and whether they are all identical. Uses numpy and the stdlib only.
"""

from __future__ import annotations

import os

if __name__ == "__main__":
    # Pinned before numpy loads OpenBLAS, as bench/run.py does: on a small
    # shared host, more BLAS threads make single iterations swing far more.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from functools import partial  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

# `desk` is acceptance 7's n=20 shape at bench train-desk's width; `full` is
# bench train-full's; `solve`, with its M actors in `m_sub`, is bench
# solve-m100-n100's. `iterations` is per block and side.
SHAPES = {
    "desk": dict(n_nodes=20, d_h=16, n_heads=2, d_ff=64, batch_size=64, iterations=40),
    "full": dict(n_nodes=20, d_h=128, n_heads=8, d_ff=512, batch_size=200, iterations=4),
    "solve": dict(m_sub=100, n_nodes=100, d_h=128, n_heads=8, d_ff=512, iterations=1),
}
PER_CALL = [{"name": "ms_per_call", "unit": "ms", "better": "lower"}]
WEIGHTS = (0.5, 0.5)
SEED = 0
BLOCKS = 12   # in-process blocks per side
PAIRS = 10    # bench runs per side
INSTANCE = "instance.motsp"


def check_tree(tree, needs: list[str]) -> Path:
    """The resolved tree root, once it holds every path in `needs` and a real `src/`."""
    tree = Path(tree).resolve()
    if (tree / "src").is_symlink():
        raise ValueError(f"{tree / 'src'} is a symlink, on which bench/run.py exits 2")
    for need in needs:
        if not (tree / need).exists():
            raise ValueError(f"{tree} holds no {need}")
    return tree


def load_tree(tree: Path, name: str):
    """The `paretotsp` package of `tree`, imported as `name`, afresh: the
    submodules of an earlier load under `name` are dropped first, or the new
    package's relative imports would pick them up."""
    for stale in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
        del sys.modules[stale]
    pkg = tree / "src" / "paretotsp"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def digest(named) -> str:
    """sha256 of (name, array) pairs: each name, dtype, shape and bytes."""
    h = hashlib.sha256()
    for name, a in named:
        h.update(f"{name} {a.dtype.str} {a.shape}\n".encode() + a.tobytes())
    return h.hexdigest()


def sizes(shape: dict) -> dict:
    return {k: v for k, v in shape.items() if k != "iterations"}


class InProcess:
    """A block of `iterations` calls of the side's `step`; its metric is ms per call."""

    def block(self) -> tuple[dict, int]:
        started = time.perf_counter()
        for _ in range(self.iterations):
            self.step()
        return {"ms_per_call": (time.perf_counter() - started) * 1000.0 / self.iterations}, 0


class Train(InProcess):
    """A training iteration on the side's own actor, critic, optimizers and rng."""

    def __init__(self, pkg, shape: dict):
        self.iterations = shape["iterations"]
        self.cfg = pkg.RunConfig(dataset_size=shape["batch_size"], **sizes(shape))
        init_rng = np.random.default_rng(np.random.SeedSequence([SEED, 0]))
        self.actor = pkg.ActorParams.init(self.cfg.model_config(), init_rng)
        self.critic = pkg.CriticParams.init(init_rng)
        self.opts = [pkg.Adam(params.trainable(), lr, self.cfg.beta1, self.cfg.beta2, self.cfg.eps)
                     for params, lr in ((self.actor, self.cfg.lr_actor), (self.critic, self.cfg.lr_critic))]
        self.rng = np.random.default_rng(np.random.SeedSequence([SEED, 1]))
        self.step = partial(pkg.trainer.reinforce_iteration, WEIGHTS, self.actor, self.critic,
                            self.cfg, self.rng, *self.opts)

    def outputs(self) -> list[str]:
        return [digest([*self.actor.state_arrays().items(), *self.critic.state_arrays().items()])]


def write_fixture(pkg, shape: dict, directory: Path) -> None:
    """bench's solve fixture, written by `pkg` into `directory`: M actors drawn
    from SEED with their checkpoints and manifest, and an n-node instance."""
    cfg = pkg.RunConfig(seed=SEED, **sizes(shape))
    rng = np.random.default_rng(np.random.SeedSequence([SEED, 0]))
    for i in range(1, cfg.m_sub + 1):
        pkg.save_models(directory / pkg.decomposition.checkpoint_name(i),
                        pkg.ActorParams.init(cfg.model_config(), rng), pkg.CriticParams.init(rng))
    pkg.decomposition.write_manifest(directory, cfg, list(range(1, cfg.m_sub + 1)))
    feats = np.random.default_rng(np.random.SeedSequence([SEED, 1])).random((cfg.n_nodes, 4))
    pkg.save_native(pkg.MotspInstance(feats, name="instance"), directory / INSTANCE)


class Solve(InProcess):
    """A solve of the fixture's instance under its actors, read afresh each time."""

    def __init__(self, pkg, fixture: Path, shape: dict):
        self.iterations = shape["iterations"]
        self.pkg, self.fixture = pkg, fixture
        self.inst = pkg.load_native(fixture / INSTANCE)
        self.fronts: list[str] = []

    def step(self) -> None:
        front = self.pkg.approximate_pf(self.inst, self.pkg.decomposition.TrainedActors(self.fixture))
        self.fronts.append(digest([("tours", front.tours), ("objectives", front.objectives),
                                   ("subproblems", front.subproblems)]))

    def outputs(self) -> list[str]:
        return self.fronts


class Bench:
    """A run of the tree's own bench/run.py per block, and its digest (None unless it recorded one)."""

    def __init__(self, tree: Path, workload: str, seed: int, seconds: float):
        self.run = [sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        self.tree, self.out = tree, tree / "bench" / "out" / f"{workload}-seed{seed}-trace0.json"
        self.digests: list[str | None] = []

    def block(self) -> tuple[dict, int | None]:
        started = time.time()
        proc = subprocess.run(self.run, cwd=self.tree, stdout=subprocess.PIPE, text=True, check=False)
        try:
            result = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            result = {}
        fresh = self.out.is_file() and self.out.stat().st_mtime >= started
        recorded = json.loads(self.out.read_text()).get("digest") if fresh else None
        self.digests.append(recorded if isinstance(recorded, str) else None)
        return {k: v["value"] for k, v in result.get("metrics", {}).items()}, result.get("failed")

    def outputs(self) -> list[str | None]:
        return self.digests


def alternate(sides: dict, blocks: int) -> tuple[dict, dict]:
    """Each side's (metrics, failed) per block, then its outputs; the first side swaps every block."""
    runs = {name: [] for name in sides}
    for k in range(blocks):
        for name in ("base", "change") if k % 2 == 0 else ("change", "base"):
            runs[name].append(sides[name].block())
            print(f"block {k + 1}/{blocks} {name}: {runs[name][-1]}", file=sys.stderr, flush=True)
    return runs, {name: side.outputs() for name, side in sides.items()}


def in_process(trees: dict, shape: dict, blocks: int) -> tuple[dict, dict]:
    pkgs = {side: load_tree(tree, f"ab_{side}_paretotsp") for side, tree in trees.items()}
    if "m_sub" not in shape:
        return alternate({side: Train(pkg, shape) for side, pkg in pkgs.items()}, blocks)
    with tempfile.TemporaryDirectory() as tmp:
        write_fixture(pkgs["base"], shape, Path(tmp))
        return alternate({side: Solve(pkg, Path(tmp), shape) for side, pkg in pkgs.items()}, blocks)


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75]).tolist() if values else (None,) * 3
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def summarize(header: dict, gated: list[dict], runs: dict, outputs: dict) -> list[dict]:
    """One line per gated metric, then one of failed operations, digests and their identity."""
    lines = []
    for metric in gated:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        pairs = [(b[name], c[name]) for (b, _), (c, _) in zip(runs["base"], runs["change"])
                 if name in b and name in c]
        sides = {side: quartiles([m[name] for m, _ in runs[side] if name in m]) for side in runs}
        lines.append({**header, **metric, **sides, "blocks": len(pairs),
                      "change_won": sum(sign * (c - b) < 0 for b, c in pairs),
                      "ties": sum(c == b for b, c in pairs)})
    every = outputs["base"] + outputs["change"]
    lines.append({**header, "blocks": len(runs["base"]),
                  "failed": {side: [failed for _, failed in side_runs] for side, side_runs in runs.items()},
                  "digests": {side: sorted(set(outs), key=str) for side, outs in outputs.items()},
                  "identical": None not in every and len(set(every)) == 1})
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the parent tree's root, holding src/")
    parser.add_argument("--change", required=True, help="the changed tree's root, holding src/")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--shape", choices=sorted(SHAPES), help="in-process blocks of this shape")
    mode.add_argument("--workload", help="process pairs of bench/run.py on this workload")
    parser.add_argument("--seed", type=int, default=1, help="the bench seed of --workload")
    args = parser.parse_args(argv)
    needs = ["src/paretotsp"] + (["bench/run.py"] if args.workload else [])
    try:
        trees = {side: check_tree(getattr(args, side), needs) for side in ("base", "change")}
    except ValueError as exc:
        parser.error(str(exc))
    if args.shape:
        header = {"shape": args.shape, "iterations_per_block": SHAPES[args.shape]["iterations"]}
        lines = summarize(header, PER_CALL, *in_process(trees, SHAPES[args.shape], BLOCKS))
    else:
        spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
        sides = {side: Bench(tree, args.workload, args.seed, spec["run_seconds"]) for side, tree in trees.items()}
        header = {"workload": args.workload, "seed": args.seed}
        lines = summarize(header, spec["end_to_end"], *alternate(sides, PAIRS))
    for line in lines:
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
