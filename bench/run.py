"""Closed-loop benchmark of paretotsp training and Pareto solve.

    python3 bench/run.py --workload train-desk --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

One client in one process: each operation starts when the previous one has
ended. A training operation is one `decomposition.run_schedule`; a solve
operation is `paretotsp solve` then `paretotsp eval`, both through
`cli.main` in process. Every operation's outputs are checked; an operation
that raises or fails a check counts as failed. The seed sets the run config
seed, the generated instance and the solve fixture's weights.

`--trace 0` prints the end-to-end metrics. `--trace 1` spends half the time
untraced and half with every layer's public functions wrapped in spans (see
spans.py), and prints the per-layer metrics. The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}. The full result, with
metadata, checks and output digests, goes to bench/out/. `--workload all`
runs each workload in its own process and prints the metrics under the
names the README lists. See README.md for every metric and workload.
"""

from __future__ import annotations

import os

# Pinned before numpy loads OpenBLAS: on 2 shared CPUs, two BLAS threads make
# single iterations swing far more.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
OUT = BENCH_DIR / "out"
sys.path.insert(0, str(REPO / "src"))

try:
    import paretotsp
    from paretotsp import autodiff, cli, decomposition, evaluation, instances, model, trainer
except ImportError as exc:
    PROGRAM_IMPORT_ERROR: Exception | None = exc
else:
    PROGRAM_IMPORT_ERROR = None

import spans  # noqa: E402

# Training shapes. Desk: tiny arrays, so Python and tape bookkeeping dominate,
# and subproblems of 4 iterations keep checkpoint writes, the manifest,
# copy() and the final reload a visible share. Full: BLAS-bound bmm/matmul
# backward and Adam over the wide model; checkpoint I/O is negligible. One
# iteration per subproblem makes short operations, so a run holds enough of
# them for a steady 90th percentile.
TRAIN_SHAPES = {
    "train-desk": dict(n_nodes=10, m_sub=10, batch_size=64, dataset_size=256,
                       d_h=16, n_heads=2, d_ff=64, lr_actor=1e-3, lr_critic=1e-3,
                       epochs_first=2, epochs_rest=1),
    "train-full": dict(n_nodes=20, m_sub=2, batch_size=200, dataset_size=200,
                       d_h=128, n_heads=8, d_ff=512, lr_actor=1e-4, lr_critic=1e-4,
                       epochs_first=1, epochs_rest=1),
}
# Solve at the paper's kroAB100 scale: M=100 full-width actors, n=100 nodes.
SOLVE_M = 100
SOLVE_N = 100
STARTUPS = 5               # fresh-interpreter imports per run; setup_s takes their median
SOLVE_SETUPS = 5           # fixture builds per run; setup_s takes their median
MIN_OPS = 2                # a second operation under the same seed checks determinism
SOLVE_MIN_OPS = 3          # a solve call lasts most of a run; three make its p90 steadier than two
WORKLOADS = ("train-desk", "train-full", "solve-m100-n100")
HV_MAX = 1.2 * 1.2         # area under the default reference point
# The end-to-end metrics of BENCHMARK.json. The medians and the throughput are
# printed and stored as well, but the host's fast phases move them from run
# to run far more than the upper percentiles (README.md, "Steadiness").
GATED = ("setup_s", "op_s.p90", "step_ms.p90", "gws.mean", "peak_rss_mb")


class CheckFailed(Exception):
    """An output of the program is wrong."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def sha256_files(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def read_csv_rows(path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="ascii") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# workloads


class TrainWorkload:
    """One operation is a full `run_schedule` from scratch into a fresh directory."""

    min_ops = MIN_OPS

    def __init__(self, name: str, seed: int):
        self.name = name
        self.workdir = OUT / "work" / name
        self.config_path = OUT / "work" / f"{name}.profile"
        self.seed = seed

    def setup(self) -> float:
        started = time.perf_counter()
        self.config_path.parent.mkdir(parents=True, exist_ok=True)
        lines = [f"{k} = {v}" for k, v in TRAIN_SHAPES[self.name].items()] + [f"seed = {self.seed}"]
        self.config_path.write_text("\n".join(lines) + "\n", encoding="ascii")
        self.cfg = decomposition.RunConfig.from_mapping(cli.parse_config_file(self.config_path))
        return time.perf_counter() - started

    def prepare(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def run(self) -> dict:
        started = time.perf_counter()
        actors = decomposition.run_schedule(self.cfg, self.workdir)
        return {"op_s": time.perf_counter() - started, "actors": actors}

    def verify(self, out: dict) -> dict:
        cfg, m = self.cfg, self.cfg.m_sub
        check(len(out.pop("actors")) == m, "run_schedule returned one actor per subproblem")
        manifest_cfg, completed = decomposition.load_manifest(self.workdir)
        check(completed == list(range(1, m + 1)), f"manifest lists all {m} subproblems complete")
        check(manifest_cfg.to_mapping() == cfg.to_mapping(), "manifest holds the run config")
        ckpts = [self.workdir / decomposition.checkpoint_name(i) for i in range(1, m + 1)]
        for path in ckpts:
            decomposition.load_models(path, cfg)
        iters_ms, last_gws = [], []
        per_epoch = cfg.dataset_size // cfg.batch_size
        for i, epochs in enumerate(cfg.schedule().epochs, start=1):
            rows = read_csv_rows(self.workdir / decomposition.metrics_name(i))
            check(len(rows) == epochs * per_epoch, f"metrics_{i}.csv has one row per iteration")
            for r in rows:
                values = [float(r[k]) for k in ("mean_gws", "critic_loss", "grad_norm", "seconds")]
                check(all(np.isfinite(values)), f"metrics_{i}.csv values are finite")
                iters_ms.append(1000.0 * float(r["seconds"]))
            last_gws = [float(r["mean_gws"]) for r in rows[-per_epoch:]]
        out.update(iter_ms=iters_ms, final_gws=float(np.mean(last_gws)),
                   samples=len(iters_ms) * cfg.batch_size, digest=sha256_files(ckpts))
        return out


class SolveWorkload:
    """One operation is `paretotsp solve` (M=100 actors, n=100) then `paretotsp eval`."""

    min_ops = SOLVE_MIN_OPS

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.fixture = OUT / "work" / name
        self.instance = self.fixture / "instance.motsp"
        self.pf = self.fixture / "pf.csv"
        self.report = self.fixture / "hv.csv"

    def setup(self) -> float:
        times = [self._build_fixture() for _ in range(SOLVE_SETUPS)]
        return statistics.median(times)

    def _build_fixture(self) -> float:
        """Seeded actor weights, checkpoints, manifest and the instance file."""
        started = time.perf_counter()
        shutil.rmtree(self.fixture, ignore_errors=True)
        self.fixture.mkdir(parents=True)
        self.cfg = decomposition.RunConfig(n_nodes=SOLVE_N, m_sub=SOLVE_M, seed=self.seed)
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 0]))
        for i in range(1, SOLVE_M + 1):
            actor = model.ActorParams.init(self.cfg.model_config(), rng)
            critic = model.CriticParams.init(rng)
            decomposition.save_models(self.fixture / decomposition.checkpoint_name(i), actor, critic)
        decomposition.write_manifest(self.fixture, self.cfg, list(range(1, SOLVE_M + 1)))
        feats = np.random.default_rng(np.random.SeedSequence([self.seed, 1])).random((SOLVE_N, 4))
        instances.save_native(instances.MotspInstance(feats, name="instance"), self.instance)
        self.features = feats
        return time.perf_counter() - started

    def prepare(self) -> None:
        for p in (self.pf, self.report):
            p.unlink(missing_ok=True)

    def run(self) -> dict:
        log = io.StringIO()
        with contextlib.redirect_stdout(log):
            started = time.perf_counter()
            rc_solve = cli.main(["solve", "--ckpt", str(self.fixture), "--instance", str(self.instance),
                                 "--out", str(self.pf)])
            solved = time.perf_counter()
            rc_eval = cli.main(["eval", "--pf", str(self.pf), "--out", str(self.report),
                                "--label", "instance"])
            evaluated = time.perf_counter()
        return {"op_s": solved - started, "eval_s": evaluated - solved,
                "rc": (rc_solve, rc_eval), "log": log.getvalue()}

    def verify(self, out: dict) -> dict:
        log = out.pop("log")
        check(out["rc"] == (0, 0), f"solve and eval exit 0, got {out['rc']}: {log!r}")
        rows = read_csv_rows(self.pf)
        check(len(rows) >= 2, "the front has at least two points")
        feats = self.features
        pts = []
        for r in rows:
            tour = np.array([int(t) for t in r["tour"].split("-")])
            check(np.array_equal(np.sort(tour), np.arange(SOLVE_N)), "every tour is a permutation")
            s = int(r["subproblem"])
            check(1 <= s <= SOLVE_M, "subproblem index in 1..M")
            lam1 = (s - 1) / (SOLVE_M - 1)
            check(abs(float(r["lambda1"]) - lam1) <= 1e-12 and abs(float(r["lambda2"]) - (1 - lam1)) <= 1e-12,
                  "PF weights match the subproblem's weight vector")
            ordered = feats[tour]
            legs = ordered - np.roll(ordered, -1, axis=0)
            f = [np.hypot(legs[:, 2 * j], legs[:, 2 * j + 1]).sum() for j in range(2)]
            got = [float(r["f1"]), float(r["f2"])]
            check(all(abs(a - b) <= 1e-9 for a, b in zip(got, f)), "f1/f2 match the recomputed tour lengths")
            pts.append(got)
        pts = np.array(pts)
        le = np.all(pts[:, None, :] <= pts[None, :, :], axis=2)
        np.fill_diagonal(le, False)
        check(not le.any(), "the front is mutually nondominated and has no duplicates")
        report = read_csv_rows(self.report)
        check(len(report) == 1 and int(report[0]["n_points"]) == len(rows), "eval reports the front's size")
        hv = float(report[0]["hv"])
        check(0.0 < hv <= HV_MAX, f"hv {hv} lies in (0, {HV_MAX}]")
        check(abs(hv - own_hv(pts)) <= 1e-9, "hv matches an independent sweep")
        lam = np.array([[float(r["lambda1"]), float(r["lambda2"])] for r in rows])
        out.update(hv=hv, points=len(rows), gws=float(np.mean((lam * pts).sum(axis=1))),
                   digest=sha256_files([self.pf]))
        return out


def own_hv(pts: np.ndarray, ref=(1.2, 1.2)) -> float:
    """HV of a front normalized by its own bounds, as `paretotsp eval` defines it."""
    norm = (pts - pts.min(axis=0)) / (pts.max(axis=0) - pts.min(axis=0))
    norm = norm[np.argsort(norm[:, 0], kind="stable")]
    right = np.append(norm[1:, 0], ref[0])
    return float(np.sum((right - norm[:, 0]) * (ref[1] - norm[:, 1])))


def startup_s() -> float:
    """Median wall time of a fresh interpreter importing the CLI, which every program start pays."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    times = []
    for _ in range(STARTUPS):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import paretotsp.cli"], cwd=REPO, env=env, check=True)
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def make_workload(name: str, seed: int):
    return SolveWorkload(name, seed) if name.startswith("solve") else TrainWorkload(name, seed)


# ---------------------------------------------------------------------------
# closed loop


def closed_loop(wl, seconds: float, min_ops: int, tracer=None, first_run_id: int = 0) -> dict:
    """Run operations back to back for `seconds`, and at least `min_ops` times."""
    ok, failures = [], []
    started = time.perf_counter()
    root = tracer.name(spans.ROOT) if tracer is not None else None
    while len(ok) + len(failures) < min_ops or time.perf_counter() - started < seconds:
        wl.prepare()
        try:
            if tracer is None:
                out = wl.run()
            else:
                tracer.run_id = first_run_id + len(ok) + len(failures)
                tracer.enabled = True
                idx = tracer.begin(root)
                try:
                    out = wl.run()
                finally:
                    tracer.finish(idx)
                    tracer.enabled = False
            ok.append(wl.verify(out))
        except Exception as exc:  # an operation that fails is counted, and the loop goes on
            traceback.print_exc(file=sys.stderr)
            failures.append(f"{type(exc).__name__}: {exc}")
    return {"ok": ok, "failures": failures, "attempted": len(ok) + len(failures),
            "seconds": time.perf_counter() - started}


def pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def end_to_end(name: str, ok: list[dict], setup_s: float) -> dict[str, tuple[float, str]]:
    """End-to-end figures: one meaning per name, measured on every workload. GATED picks the metrics."""
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    op_s = [o["op_s"] for o in ok]
    if name.startswith("solve"):
        step_ms = [1000.0 * s / SOLVE_M for s in op_s]
        samples, quality = SOLVE_M * len(ok), [o["gws"] for o in ok]
    else:
        step_ms = [ms for o in ok for ms in o["iter_ms"]]
        samples, quality = sum(o["samples"] for o in ok), [o["final_gws"] for o in ok]
    return {
        "setup_s": (setup_s, "s"),
        "op_s.p50": (statistics.median(op_s), "s"),
        "op_s.p90": (pct(op_s, 90), "s"),
        "step_ms.p50": (pct(step_ms, 50), "ms"),
        "step_ms.p90": (pct(step_ms, 90), "ms"),
        "samples_per_s": (samples / sum(op_s), "1/s"),
        "gws.mean": (statistics.median(quality), "length"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def workload_names(name: str, e2e: dict, ok: list[dict], attempted: int, failed: int) -> dict:
    """The same figures under per-workload names (train.*, solve.*), with failed_ops and solve.hv."""
    out = {"setup_s": e2e["setup_s"], "peak_rss_mb": e2e["peak_rss_mb"],
           "failed_ops": (failed / attempted, "failed/attempted")}
    if name.startswith("solve"):
        out["solve.s.p50"] = e2e["op_s.p50"]
        out["solve.hv"] = (statistics.median(o["hv"] for o in ok), "hv")
        out["solve.eval_ms.p50"] = (1000.0 * statistics.median(o["eval_s"] for o in ok), "ms")
        out["solve.front_points"] = (float(ok[0]["points"]), "count")
    else:
        out["train.samples_per_s"] = e2e["samples_per_s"]
        out["train.wall_s"] = e2e["op_s.p50"]
        out["train.iter_ms.p50"] = e2e["step_ms.p50"]
        out["train.iter_ms.p90"] = e2e["step_ms.p90"]
        out["train.final_gws"] = e2e["gws.mean"]
        out["train.iterations"] = (float(sum(len(o["iter_ms"]) for o in ok)), "count")
    return out


# ---------------------------------------------------------------------------
# metadata


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    head = REPO / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = REPO / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = REPO / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    return None


def source_digest() -> str:
    """sha256 over the program's source files, so runs of the same code can be matched."""
    h = hashlib.sha256()
    for path in sorted((REPO / "src").rglob("*.py")):
        h.update(str(path.relative_to(REPO)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def workload_config(name: str) -> dict:
    """The inputs a workload gives the program, apart from the seed."""
    return TRAIN_SHAPES.get(name) or {"m_sub": SOLVE_M, "n_nodes": SOLVE_N}


def earlier_digests(workload: str, seed: int, source: str) -> set[str]:
    """Output digests recorded by earlier runs of the same source, workload, inputs and seed."""
    found = set()
    for path in OUT.glob(f"{workload}-seed{seed}-trace*.json"):
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        meta = doc.get("metadata", {})
        if (meta.get("source_sha256") == source and meta.get("workload_config") == workload_config(workload)
                and isinstance(doc.get("digest"), str)):
            found.add(doc["digest"])
    return found


def blas_info() -> dict:
    info = {"OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (TypeError, KeyError):
        pass
    # scipy-openblas wheels export their thread count under a prefixed name.
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                info["threads_reported_by_library"] = fn()
                return info
    return info


def metadata(args, runs: dict) -> dict:
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "paretotsp": getattr(paretotsp, "__version__", None),
        "blas": blas_info(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": args.workload,
        "workload_config": workload_config(args.workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "runs": runs,
    }


# ---------------------------------------------------------------------------
# entry points


def run_one(args) -> int:
    wl = make_workload(args.workload, args.seed)
    setup_s = startup_s() + wl.setup()
    if args.trace:
        # Half the time untraced, half traced, in one process: the two phases
        # give the tracing overhead under the same conditions.
        plain = closed_loop(wl, args.seconds / 2, 1)
        tracer = spans.Tracer()
        spans.install(tracer, autodiff, model, trainer, decomposition, evaluation, cli)
        phases = [plain, closed_loop(wl, args.seconds / 2, 1, tracer, first_run_id=plain["attempted"])]
    else:
        phases = [closed_loop(wl, args.seconds, wl.min_ops)]
    ok = [o for p in phases for o in p["ok"]]
    failures = [f for p in phases for f in p["failures"]]
    attempted = sum(p["attempted"] for p in phases)
    meta = metadata(args, {"ops": [p["attempted"] for p in phases], "measured_s": [p["seconds"] for p in phases]})
    # Every operation of this run, and every earlier run of the same source
    # under this seed, must produce bitwise-identical outputs.
    digests = sorted({o["digest"] for o in ok} | earlier_digests(args.workload, args.seed, meta["source_sha256"]))
    if len(digests) > 1:
        failures.append(f"outputs differ under one seed: {digests}")
    failed = min(attempted, len(failures))
    result = {"metadata": meta, "digest": digests[0] if len(digests) == 1 else digests, "failures": failures,
              "op_s": [[o["op_s"] for o in p["ok"]] for p in phases]}

    metrics = {}
    plain_ok = phases[0]["ok"]
    if plain_ok:
        figures = end_to_end(args.workload, plain_ok, setup_s)
        named = workload_names(args.workload, figures, plain_ok, attempted, failed)
        metrics = {k: figures[k] for k in GATED}
        result["end_to_end"] = as_json(figures)
        result["workload_names"] = as_json(named)
        for k, (v, u) in named.items():
            print(f"{args.workload}  {k} = {v:.6g} {u}")
    if args.trace:
        metrics = {}
        if phases[1]["ok"]:
            metrics = spans.per_layer_metrics(tracer, phases[1]["attempted"])
            if plain_ok:
                overhead = statistics.median(o["op_s"] for o in phases[1]["ok"]) / statistics.median(
                    o["op_s"] for o in plain_ok) - 1.0
                metrics["trace.overhead"] = (overhead, "share")
            result["per_layer"] = as_json(metrics)
        tracer.save(OUT / f"{args.workload}-seed{args.seed}.spans.npz")
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True) + "\n")
    correct = failed == 0 and bool(ok)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": as_json(metrics)}))
    return 0 if correct else 1


def as_json(metrics: dict[str, tuple[float, str]]) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = status or proc.returncode
        try:
            res = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            merged["correct"] = False
            continue
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{name}/{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if PROGRAM_IMPORT_ERROR is not None:
        print(f"error: cannot import paretotsp from {REPO / 'src'}: {PROGRAM_IMPORT_ERROR}", file=sys.stderr)
        return 2
    if not Path(paretotsp.__file__).resolve().is_relative_to(REPO / "src"):
        print(f"error: paretotsp imported from {paretotsp.__file__}, not from {REPO / 'src'}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
