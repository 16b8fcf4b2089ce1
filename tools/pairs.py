"""Alternating process pairs of the benchmark between two source trees.

    python3 tools/pairs.py --base /path/to/parent --change . --workload solve-m100-n100 --seed 1

Each tree's own `bench/run.py --trace 0` runs unchanged as a subprocess, for
the `run_seconds` of BENCHMARK.json, in PAIRS pairs of one run per side. The
side that runs first swaps every pair, so drift on the host reaches both
sides alike. For each gated (`end_to_end`) metric of BENCHMARK.json one JSON
line goes to stdout: each side's values, median and quartiles, and the pairs
the change won, a tie counting for neither side. A last line gives each
side's failed operations per run and the output digests that its runs left in
`<tree>/bench/out/<workload>-seed<seed>-trace0.json`. A tree is the directory
that holds `bench/` and `src/`; a symlinked `src/` is refused, because
`bench/run.py` exits 2 on one. Uses numpy and the stdlib only.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
PAIRS = 10


def check_tree(tree) -> Path:
    tree = Path(tree).resolve()
    if not (tree / "bench" / "run.py").is_file():
        raise ValueError(f"{tree} holds no bench/run.py")
    if (tree / "src").is_symlink():
        raise ValueError(f"{tree / 'src'} is a symlink, on which bench/run.py exits 2")
    return tree


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run of `tree`: its gated metrics, its failed operations
    (None when the run printed no result) and the digest it recorded."""
    started = time.time()
    proc = subprocess.run([sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, stdout=subprocess.PIPE, text=True, check=False)
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        result = {}
    out = tree / "bench" / "out" / f"{workload}-seed{seed}-trace0.json"
    fresh = out.is_file() and out.stat().st_mtime >= started
    return {"failed": result.get("failed"),
            "metrics": {k: v["value"] for k, v in result.get("metrics", {}).items()},
            "digest": json.loads(out.read_text()).get("digest") if fresh else None}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75]) if values else (None,) * 3
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def summarize(workload: str, seed: int, runs: dict[str, list[dict]], gated: list[dict]) -> list[dict]:
    """One object per gated metric, then one for failures and digests, from
    each side's runs listed pair by pair."""
    lines = []
    for metric in gated:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        pairs = [(b["metrics"][name], c["metrics"][name]) for b, c in zip(runs["base"], runs["change"])
                 if name in b["metrics"] and name in c["metrics"]]
        sides = {side: quartiles([r["metrics"][name] for r in runs[side] if name in r["metrics"]])
                 for side in ("base", "change")}
        line = {"workload": workload, "seed": seed, "metric": name, "unit": metric["unit"],
                "better": metric["better"], "bound": metric["bound"], **sides, "pairs": len(pairs),
                "change_won": sum(sign * (c - b) < 0 for b, c in pairs),
                "ties": sum(c == b for b, c in pairs)}
        if pairs:
            base, change = sides["base"], sides["change"]
            line["median_delta"] = (change["median"] - base["median"]) / base["median"]
            line["beyond_base_iqr"] = bool(abs(change["median"] - base["median"]) > base["q3"] - base["q1"])
        lines.append(line)
    digests = {}
    for side, side_runs in runs.items():
        found = set()
        for r in side_runs:
            found.update([r["digest"]] if isinstance(r["digest"], str) else r["digest"] or [])
        digests[side] = sorted(found)
    lines.append({"workload": workload, "seed": seed, "pairs": len(runs["base"]),
                  "failed": {side: [r["failed"] for r in side_runs] for side, side_runs in runs.items()},
                  "digests": digests,
                  "digests_match": len(digests["base"]) == 1 and digests["base"] == digests["change"]})
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the parent tree, holding bench/ and src/")
    parser.add_argument("--change", required=True, help="the changed tree, holding bench/ and src/")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    try:
        trees = {"base": check_tree(args.base), "change": check_tree(args.change)}
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    runs = {"base": [], "change": []}
    for k in range(PAIRS):
        for side in ("base", "change") if k % 2 == 0 else ("change", "base"):
            runs[side].append(run_once(trees[side], args.workload, args.seed, spec["run_seconds"]))
            print(f"pair {k + 1}/{PAIRS} {side}: {runs[side][-1]['metrics']}", file=sys.stderr, flush=True)
    for line in summarize(args.workload, args.seed, runs, spec["end_to_end"]):
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
