"""Interleaved in-process A/B of one training iteration between two source trees.

    python3 tools/ab.py --base /path/to/parent/src --change src --shape desk
    python3 tools/ab.py --base /path/to/parent/src --change src --shape full

Each tree's `paretotsp` package is loaded under its own name, and each side
builds the same actor, critic, Adam pair and rng. Blocks of
`trainer.reinforce_iteration` then alternate between the sides, the side that
runs first swapping every block, so drift on the host reaches both sides
alike. One JSON line goes to stdout: each side's median ms per iteration, the
blocks whose total the change ran faster, and whether every actor and critic
array is byte-identical at the end. Uses numpy and the stdlib only.
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
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

# `desk` is acceptance 7's n=20 shape at bench train-desk's width; `full` is
# bench train-full's. `iterations` is per block and side.
SHAPES = {
    "desk": dict(n_nodes=20, d_h=16, n_heads=2, d_ff=64, batch_size=64, iterations=40),
    "full": dict(n_nodes=20, d_h=128, n_heads=8, d_ff=512, batch_size=200, iterations=4),
}
WEIGHTS = (0.5, 0.5)
SEED = 0
BLOCKS = 12


def load_tree(src, name: str):
    """The `paretotsp` package under `src`, imported as `name`."""
    pkg = Path(src).resolve() / "paretotsp"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


class Side:
    """One tree's package with its own actor, critic, optimizers and rng."""

    def __init__(self, pkg, shape: dict):
        sizes = {k: v for k, v in shape.items() if k != "iterations"}
        self.cfg = pkg.RunConfig(dataset_size=shape["batch_size"], **sizes)
        init_rng = np.random.default_rng(np.random.SeedSequence([SEED, 0]))
        self.actor = pkg.ActorParams.init(self.cfg.model_config(), init_rng)
        self.critic = pkg.CriticParams.init(init_rng)
        self.opts = (pkg.Adam(self.actor.trainable(), self.cfg.lr_actor,
                              self.cfg.beta1, self.cfg.beta2, self.cfg.eps),
                     pkg.Adam(self.critic.trainable(), self.cfg.lr_critic,
                              self.cfg.beta1, self.cfg.beta2, self.cfg.eps))
        self.rng = np.random.default_rng(np.random.SeedSequence([SEED, 1]))
        self.iteration = pkg.trainer.reinforce_iteration
        self.ms: list[float] = []

    def block(self, iterations: int) -> float:
        """Run `iterations` iterations; returns their total seconds."""
        total = 0.0
        for _ in range(iterations):
            started = time.perf_counter()
            self.iteration(WEIGHTS, self.actor, self.critic, self.cfg, self.rng, *self.opts)
            seconds = time.perf_counter() - started
            self.ms.append(seconds * 1000.0)
            total += seconds
        return total

    def arrays(self) -> list[tuple]:
        state = list(self.actor.state_arrays().items()) + list(self.critic.state_arrays().items())
        return [(name, a.dtype.str, a.shape, a.tobytes()) for name, a in state]


def run_ab(base_src, change_src, shape: dict, blocks: int) -> dict:
    base = Side(load_tree(base_src, "ab_base_paretotsp"), shape)
    change = Side(load_tree(change_src, "ab_change_paretotsp"), shape)
    won = 0
    for k in range(blocks):
        order = (base, change) if k % 2 == 0 else (change, base)
        seconds = {side: side.block(shape["iterations"]) for side in order}
        won += seconds[change] < seconds[base]
    return {
        "base_ms": statistics.median(base.ms),
        "change_ms": statistics.median(change.ms),
        "change_won": won,
        "identical": base.arrays() == change.arrays(),
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
