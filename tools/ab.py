"""Interleaved in-process A/B of a training iteration or a solve between two source trees.

    python3 tools/ab.py --base /path/to/parent/src --change src --shape desk
    python3 tools/ab.py --base /path/to/parent/src --change src --shape full
    python3 tools/ab.py --base /path/to/parent/src --change src --shape solve

Each tree's `paretotsp` package is loaded under its own name. For `desk` and
`full` each side builds the same actor, critic, Adam pair and rng, and a block
runs `trainer.reinforce_iteration`. For `solve` the base tree writes one
fixture into a temporary directory, as bench's solve workload builds it: M
full-width actors' checkpoints and manifest, and an n-node instance; a block
runs one `approximate_pf` of the instance under the fixture's
`TrainedActors`. Blocks alternate between the sides, the side that runs first
swapping every block, so drift on the host reaches both sides alike. One JSON
line goes to stdout: each side's median ms per iteration or solve, the blocks
whose total the change ran faster, and whether the outputs are byte-identical:
every actor and critic array at the end of training, or every block's tours,
objectives and subproblems of a solve. Uses numpy and the stdlib only.
"""

from __future__ import annotations

import os

if __name__ == "__main__":
    # Pinned before numpy loads OpenBLAS, as bench/run.py does: on a small
    # shared host, more BLAS threads make single iterations swing far more.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
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
WEIGHTS = (0.5, 0.5)
SEED = 0
BLOCKS = 12


def load_tree(src, name: str):
    """The `paretotsp` package under `src`, imported as `name`, afresh: the
    submodules of an earlier load under `name` are dropped first, or the new
    package's relative imports would pick them up."""
    for stale in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
        del sys.modules[stale]
    pkg = Path(src).resolve() / "paretotsp"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def sizes(shape: dict) -> dict:
    return {k: v for k, v in shape.items() if k != "iterations"}


class Side:
    """One tree's package; `step` is the work it times, `outputs` what must match."""

    def __init__(self):
        self.ms: list[float] = []

    def block(self, iterations: int) -> float:
        """Run `iterations` steps; returns their total seconds."""
        total = 0.0
        for _ in range(iterations):
            started = time.perf_counter()
            self.step()
            seconds = time.perf_counter() - started
            self.ms.append(seconds * 1000.0)
            total += seconds
        return total


class TrainSide(Side):
    """A training iteration on the side's own actor, critic, optimizers and rng."""

    def __init__(self, pkg, shape: dict):
        super().__init__()
        self.cfg = pkg.RunConfig(dataset_size=shape["batch_size"], **sizes(shape))
        init_rng = np.random.default_rng(np.random.SeedSequence([SEED, 0]))
        self.actor = pkg.ActorParams.init(self.cfg.model_config(), init_rng)
        self.critic = pkg.CriticParams.init(init_rng)
        self.opts = (pkg.Adam(self.actor.trainable(), self.cfg.lr_actor,
                              self.cfg.beta1, self.cfg.beta2, self.cfg.eps),
                     pkg.Adam(self.critic.trainable(), self.cfg.lr_critic,
                              self.cfg.beta1, self.cfg.beta2, self.cfg.eps))
        self.rng = np.random.default_rng(np.random.SeedSequence([SEED, 1]))
        self.iteration = pkg.trainer.reinforce_iteration

    def step(self) -> None:
        self.iteration(WEIGHTS, self.actor, self.critic, self.cfg, self.rng, *self.opts)

    def outputs(self) -> list[tuple]:
        state = list(self.actor.state_arrays().items()) + list(self.critic.state_arrays().items())
        return [(name, a.dtype.str, a.shape, a.tobytes()) for name, a in state]


INSTANCE = "instance.motsp"


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


class SolveSide(Side):
    """A solve of the fixture's instance under its actors, read afresh each time."""

    def __init__(self, pkg, fixture: Path):
        super().__init__()
        self.pkg, self.fixture = pkg, fixture
        self.inst = pkg.load_native(fixture / INSTANCE)
        self.fronts: list[tuple] = []

    def step(self) -> None:
        front = self.pkg.approximate_pf(self.inst, self.pkg.decomposition.TrainedActors(self.fixture))
        self.fronts.append((front.tours.tobytes(), front.objectives.tobytes(), front.subproblems.tobytes()))

    def outputs(self) -> list[tuple]:
        return self.fronts


def run_ab(base_src, change_src, shape: dict, blocks: int) -> dict:
    """Each side's median ms per step, the blocks the change won, and whether
    both sides' outputs are byte-identical."""
    base_pkg = load_tree(base_src, "ab_base_paretotsp")
    change_pkg = load_tree(change_src, "ab_change_paretotsp")
    if "m_sub" not in shape:
        return alternate(TrainSide(base_pkg, shape), TrainSide(change_pkg, shape), shape["iterations"], blocks)
    with tempfile.TemporaryDirectory() as tmp:
        fixture = Path(tmp)
        write_fixture(base_pkg, shape, fixture)
        return alternate(SolveSide(base_pkg, fixture), SolveSide(change_pkg, fixture), shape["iterations"], blocks)


def alternate(base: Side, change: Side, iterations: int, blocks: int) -> dict:
    won = 0
    for k in range(blocks):
        order = (base, change) if k % 2 == 0 else (change, base)
        seconds = {side: side.block(iterations) for side in order}
        won += seconds[change] < seconds[base]
    return {
        "base_ms": statistics.median(base.ms),
        "change_ms": statistics.median(change.ms),
        "change_won": won,
        "identical": base.outputs() == change.outputs(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the parent tree's src/ directory")
    parser.add_argument("--change", required=True, help="the changed tree's src/ directory")
    parser.add_argument("--shape", choices=sorted(SHAPES), default="desk")
    args = parser.parse_args(argv)
    result = run_ab(args.base, args.change, SHAPES[args.shape], BLOCKS)
    print(json.dumps({"shape": args.shape, "blocks": BLOCKS,
                      "iterations_per_block": SHAPES[args.shape]["iterations"], **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
