"""Command-line front end: gen, train, solve, eval, plot.

Exit codes: 0 success, 1 runtime failure (I/O, diverged training), 2 usage or
contract error (bad flags, malformed config/input files, incompatible
checkpoints). Training runs live in a checkpoint directory (flag --out, or
the PARETOTSP_CKPT_ROOT environment variable) and are resumable; every run
writes a manifest that reproduces it exactly when passed back to --config.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import decomposition as dec
from . import evaluation as ev
from .errors import ContractError, ParseError, TrainingDivergedError
from .instances import (MotspInstance, load_native, load_tsplib_pair,
                        save_native, tour_costs_batch)

CKPT_ROOT_ENV = "PARETOTSP_CKPT_ROOT"


def parse_config_file(path) -> dict[str, str]:
    """Flat key=value lines; blank lines and full-line # comments ignored."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    mapping: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        s = raw.strip()
        if not s or s.startswith("#"):
            continue
        if "=" not in s:
            raise ParseError(path, line_no, "expected key=value")
        key, _, value = s.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise ParseError(path, line_no, "empty key")
        if key in mapping:
            raise ParseError(path, line_no, f"duplicate key {key!r}")
        mapping[key] = value
    return mapping


def _parse_ref(text: str) -> tuple[float, float]:
    try:
        ref = tuple(float(part) for part in text.split(","))
    except ValueError:
        ref = ()
    if len(ref) != 2 or not np.isfinite(ref).all():
        raise ContractError(f"--ref wants two comma-separated finite reals, got {text!r}")
    return ref


def cmd_gen(args) -> int:
    if args.count < 1:
        raise ContractError(f"--count must be >= 1, got {args.count}")
    if args.n < 2:
        raise ContractError(f"--n must be >= 2, got {args.n}")
    if args.seed < 0:
        raise ContractError(f"--seed must be >= 0, got {args.seed}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for k in range(args.count):
        rng = np.random.default_rng(np.random.SeedSequence([args.seed, k]))
        name = f"rand_n{args.n}_s{args.seed}_{k}"
        inst = MotspInstance(rng.random((args.n, 4)), name=name)
        save_native(inst, out / f"{name}.motsp")
    print(f"wrote {args.count} instance file(s) under {out}")
    return 0


def _resolve_workdir(flag_value) -> Path:
    if flag_value:
        return Path(flag_value)
    root = os.environ.get(CKPT_ROOT_ENV)
    if not root:
        raise ContractError(f"no --out given and {CKPT_ROOT_ENV} is unset")
    return Path(root)


def cmd_train(args) -> int:
    with open(args.config, "rb") as fh:
        is_manifest = fh.read().lstrip().startswith(b"{")     # an earlier run's manifest.json
    if is_manifest:
        cfg, _ = dec.load_manifest(args.config)
    else:
        cfg = dec.RunConfig.from_mapping(parse_config_file(args.config))
    workdir = _resolve_workdir(args.out)
    started = time.perf_counter()

    def progress(i, total, weights, epochs):
        print(f"subproblem {i}/{total}  weights=({weights[0]:.4f}, {weights[1]:.4f})  "
              f"epochs={epochs}", flush=True)

    dec.run_schedule(cfg, workdir, resume=args.resume, progress=progress)
    print(f"trained {cfg.m_sub} subproblem(s) into {workdir} "
          f"in {time.perf_counter() - started:.1f}s")
    return 0


def cmd_solve(args) -> int:
    if bool(args.instance) == bool(args.tsplib):
        raise ContractError("give exactly one of --instance or --tsplib A B")
    workdir = _resolve_workdir(args.ckpt)
    actors = dec.TrainedActors(workdir)
    cfg = actors.cfg
    if args.instance:
        inst = load_native(args.instance)
    else:
        inst = load_tsplib_pair(args.tsplib[0], args.tsplib[1])
    if inst.d_x != cfg.d_x:
        raise ContractError(f"instance d_x={inst.d_x} incompatible with checkpoint d_x={cfg.d_x}")
    started = time.perf_counter()
    archive = ev.approximate_pf(inst, actors)
    elapsed = time.perf_counter() - started
    weights = cfg.schedule().weights
    ev.write_pf_csv(args.out, archive, weights)
    if inst.raw_coords is not None:
        # Min-max scaling stretches the two axes of a file differently, so a
        # point of the scaled front can be dominated on the raw coordinates.
        tours = [e.tour for e in archive.entries]
        coords = np.broadcast_to(inst.raw_coords, (len(tours),) + inst.raw_coords.shape)
        rows = tour_costs_batch(coords, np.array([t.order for t in tours], dtype=np.intp))
        raw = ev.ParetoArchive.from_candidates(tours, rows, [e.subproblem for e in archive.entries])
        out = Path(args.out)
        ev.write_pf_csv(out.with_name(out.stem + "_unscaled" + out.suffix), raw, weights)
    print(f"{len(archive)} nondominated point(s) from {len(actors)} model(s) "
          f"in {elapsed:.2f}s -> {args.out}")
    return 0


def cmd_eval(args) -> int:
    ref = _parse_ref(args.ref)
    archives = [ev.read_pf_csv(p) for p in args.pf]
    if args.no_normalize:
        hvs = [ev.hypervolume_2d(a.points(), ref) for a in archives]
    else:
        hvs = ev.compute_hv_protocol(archives, ref)
    rows = []
    for path, archive, hv in zip(args.pf, archives, hvs):
        method = Path(path).stem
        rows.append((args.label, method, hv, len(archive)))
        print(f"{method}: hv={hv:.6f} points={len(archive)}")
    ev.write_hv_report(args.out, rows)
    return 0


def cmd_plot(args) -> int:
    blocks = []
    legend = []
    for k, path in enumerate(args.pf):
        archive = ev.read_pf_csv(path)
        pts = archive.points()
        blocks.append("\n".join(f"{ev.format_float(p[0])} {ev.format_float(p[1])}" for p in pts))
        legend.append(f"{k} {Path(path).stem}")
    out = Path(args.out)
    with open(out, "w", encoding="ascii") as fh:
        fh.write("\n\n".join(blocks) + "\n")
    legend_path = out.with_name(out.name + ".legend")
    with open(legend_path, "w", encoding="ascii") as fh:
        fh.write("\n".join(legend) + "\n")
    print(f"wrote {len(blocks)} block(s) to {out} (legend: {legend_path})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paretotsp",
        description="Decomposition-trained attention models for bi-objective TSP")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate random instance files")
    p.add_argument("--n", type=int, required=True, help="nodes per instance (>= 2)")
    p.add_argument("--count", type=int, default=1, help="number of instances")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="run the full decomposition training schedule")
    p.add_argument("--config", required=True, help="key=value config file or a manifest.json")
    p.add_argument("--out", help=f"checkpoint directory (default ${CKPT_ROOT_ENV})")
    p.add_argument("--resume", action="store_true",
                   help="continue after the last completed subproblem")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("solve", help="approximate the Pareto front of one instance")
    p.add_argument("--ckpt", help=f"checkpoint directory (default ${CKPT_ROOT_ENV})")
    p.add_argument("--instance", help="native .motsp instance file")
    p.add_argument("--tsplib", nargs=2, metavar=("A", "B"),
                   help="two TSPLIB EUC_2D files forming the two objectives")
    p.add_argument("--out", required=True, help="PF CSV path")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("eval", help="hypervolume report over PF CSVs")
    p.add_argument("--pf", nargs="+", required=True, help="PF CSV file(s)")
    p.add_argument("--ref", default="1.2,1.2", help="reference point, e.g. 1.2,1.2")
    p.add_argument("--out", required=True, help="report CSV path")
    p.add_argument("--label", default="-", help="instance label for the report")
    p.add_argument("--no-normalize", action="store_true",
                   help="score the raw objective values (inputs already normalized)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("plot", help="emit gnuplot-ready blocks from PF CSVs")
    p.add_argument("--pf", nargs="+", required=True, help="PF CSV file(s)")
    p.add_argument("--out", required=True, help="plot data path")
    p.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ContractError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrainingDivergedError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
