"""Weight-vector decomposition and the parameter-transfer training schedule.

A bi-objective problem is split into M scalarized subproblems along the
uniform weight sweep λ_i = ((i-1)/(M-1), 1-(i-1)/(M-1)). Subproblem 1 trains
from fresh initialization for its own epoch budget; every later subproblem
continues training its predecessor's actor and critic, briefly. Each
subproblem's finished model is persisted as `model_<i>.ckpt` (named float32
little-endian arrays behind a `v2` header) next to a
`manifest.json` carrying the full run configuration, its hash, the seeds,
and the list of completed subproblems — enough to resume or to reproduce the
run bit for bit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractError, ParseError, TrainingDivergedError, format_float, read_text, write_file
from .instances import PRNG_NAME
from .model import DEFAULT_CRITIC_CHANNELS, ActorParams, CriticParams, ModelConfig
from .trainer import train_subproblem

CKPT_MAGIC = "paretotsp-ckpt"
CKPT_VERSION = "v2"
MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT = "paretotsp-manifest v1"
# Config keys of older manifests that nothing read. They are accepted and
# ignored on input; an older manifest's hash still covers them.
RETIRED_KEYS = ("ref1", "ref2")


def make_weights(m_sub: int) -> np.ndarray:
    """(M, 2) weight rows sweeping from (0, 1) to (1, 0), first coord ascending."""
    if m_sub < 2:
        raise ContractError(f"need at least 2 subproblems, got {m_sub}")
    lam1 = np.arange(m_sub, dtype=np.float64) / (m_sub - 1)
    return np.column_stack([lam1, 1.0 - lam1])


@dataclass(frozen=True)
class SubproblemSchedule:
    weights: np.ndarray          # (M, m), consecutive rows nearest neighbors
    epochs: tuple[int, ...]      # per-subproblem epoch budget


# ---------------------------------------------------------------------------
# run configuration


@dataclass(frozen=True)
class RunConfig:
    """Flat, hashable view of everything a training run depends on; checked on construction."""

    d_x: int = 4
    d_h: int = 128
    n_layers: int = 1
    n_heads: int = 8
    d_ff: int = 512
    clip_logits: float = 10.0
    n_nodes: int = 20
    batch_size: int = 200
    dataset_size: int = 500_000
    lr_actor: float = 1e-4
    lr_critic: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    clip_norm: float = 2.0
    m_sub: int = 100
    epochs_first: int = 5
    epochs_rest: int = 1
    direction: str = "asc"
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ContractError(f"seed must be >= 0, got {self.seed}")
        if self.d_x != DEFAULT_CRITIC_CHANNELS[0][0]:
            raise ContractError(f"d_x must be {DEFAULT_CRITIC_CHANNELS[0][0]}, the critic's input width, "
                                f"got {self.d_x}")
        self.model_config()
        if self.batch_size < 2:
            raise ContractError(f"batch_size must be >= 2 for batch norm, got {self.batch_size}")
        if self.dataset_size % self.batch_size != 0:
            raise ContractError(
                f"dataset_size {self.dataset_size} must be divisible by batch_size {self.batch_size}")
        if self.n_nodes < 2:
            raise ContractError(f"n_nodes must be >= 2, got {self.n_nodes}")
        if min(self.epochs_first, self.epochs_rest) < 0:
            raise ContractError(f"epochs_first and epochs_rest must be >= 0, "
                                f"got {self.epochs_first} and {self.epochs_rest}")
        positive = (self.dataset_size, self.lr_actor, self.lr_critic, self.eps, self.clip_norm)
        if not all(0 < v < math.inf for v in positive) or not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ContractError(f"need positive finite sizes, rates, eps and clip_norm, betas in [0, 1): {self}")
        # numpy refuses a float64 array of more than intp-max bytes before it allocates
        for keys, dims in (("m_sub", (self.m_sub, 2)),
                           ("batch_size and n_nodes", (self.batch_size, self.n_nodes, self.d_x))):
            if math.prod(dims) * 8 > np.iinfo(np.intp).max:
                raise ContractError(f"{keys} too large: numpy cannot shape a float64 array of {dims}")
        self.schedule()

    def model_config(self) -> ModelConfig:
        return ModelConfig(d_x=self.d_x, d_h=self.d_h, n_layers=self.n_layers,
                           n_heads=self.n_heads, d_ff=self.d_ff, clip=self.clip_logits)

    def schedule(self) -> SubproblemSchedule:
        if self.direction not in ("asc", "desc"):
            raise ContractError(f"direction must be 'asc' or 'desc', got {self.direction!r}")
        weights = make_weights(self.m_sub)
        if self.direction == "desc":
            weights = weights[::-1].copy()
        return SubproblemSchedule(weights, (self.epochs_first,) + (self.epochs_rest,) * (self.m_sub - 1))

    def to_mapping(self) -> dict[str, str]:
        return {k: format_float(v) if isinstance(v, float) else str(v) for k, v in dataclasses.asdict(self).items()}

    @classmethod
    def from_mapping(cls, mapping: dict[str, str]) -> "RunConfig":
        """`mapping`'s values, each converted by the type of its field's default."""
        defaults = {f.name: f.default for f in dataclasses.fields(cls)}
        kwargs = {}
        for key, raw in mapping.items():
            if key in RETIRED_KEYS:
                continue
            if key not in defaults:
                raise ContractError(f"unknown config key {key!r}")
            try:
                kwargs[key] = type(defaults[key])(raw)
            except (TypeError, ValueError, OverflowError) as exc:     # int() of a JSON Infinity overflows
                raise ContractError(f"config key {key!r}: {exc}") from exc
        return cls(**kwargs)


def config_hash(mapping: dict[str, str]) -> str:
    """sha256 of the sorted key=value lines; stable under key reordering."""
    text = "\n".join(f"{k}={v}" for k, v in sorted(mapping.items()))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# checkpoint files


def write_checkpoint(path, arrays: dict[str, np.ndarray]) -> None:
    """Named arrays as float32 little-endian blocks behind a text header."""
    chunks = [f"{CKPT_MAGIC} {CKPT_VERSION}\n".encode("ascii"),
              f"count={len(arrays)}\n".encode("ascii")]
    for name, arr in arrays.items():
        a = np.ascontiguousarray(np.asarray(arr, dtype="<f4"))
        dims = " ".join(str(d) for d in a.shape)
        chunks.append(f"{name} {dims}\n".encode("ascii") if dims else f"{name}\n".encode("ascii"))
        chunks.append(a.tobytes())
    write_file(path, b"".join(chunks))


def read_checkpoint(path) -> dict[str, np.ndarray]:
    """The named arrays of a checkpoint file.

    The header lines are read one at a time, and each array's bytes straight
    into its own array once its declared size is known to fit in the file, so
    the file is never held whole. Malformed files, files of another version,
    and arrays holding NaN or Inf raise ParseError naming the file.
    """
    path = Path(path)

    def fail(msg: str):
        raise ParseError(path, None, msg)

    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def read_line() -> str:
            line = fh.readline()
            if not line.endswith(b"\n"):
                fail("truncated header line")
            try:
                return line[:-1].decode("ascii")
            except UnicodeDecodeError:
                fail("non-ascii header line")

        header = read_line()
        if header != f"{CKPT_MAGIC} {CKPT_VERSION}":
            fail(f"bad checkpoint header {header!r}")
        count_line = read_line()
        if not count_line.startswith("count="):
            fail(f"expected count=<k>, got {count_line!r}")
        try:
            count = int(count_line[len("count="):])
        except ValueError:
            fail(f"bad array count in {count_line!r}")
        if count < 0:
            fail("negative array count")

        arrays: dict[str, np.ndarray] = {}
        for _ in range(count):
            tokens = read_line().split(" ")
            name = tokens[0]
            if not name or name in arrays:
                fail(f"bad or duplicate array name {name!r}")
            try:
                dims = tuple(int(t) for t in tokens[1:])
            except ValueError:
                fail(f"bad dimensions for array {name!r}")
            if any(d < 0 for d in dims):
                fail(f"negative dimension for array {name!r}")
            if fh.tell() + 4 * math.prod(dims) > size:     # Python ints: a huge shape cannot wrap
                fail(f"truncated data for array {name!r}")
            try:
                arrays[name] = np.empty(dims, dtype="<f4")
            except ValueError:                               # numpy refuses the shape itself
                fail(f"bad dimensions for array {name!r}")
            fh.readinto(arrays[name].reshape(-1).view(np.uint8))
            if not np.isfinite(arrays[name]).all():
                fail(f"array {name!r} holds NaN or Inf")
        if fh.tell() != size:
            fail(f"{size - fh.tell()} trailing bytes after the last array")
    return arrays


def pack_models(actor: ActorParams, critic: CriticParams) -> dict[str, np.ndarray]:
    out = {f"actor.{k}": v for k, v in actor.state_arrays().items()}
    out.update({f"critic.{k}": v for k, v in critic.state_arrays().items()})
    return out


def save_models(path, actor: ActorParams, critic: CriticParams) -> None:
    write_checkpoint(path, pack_models(actor, critic))


def load_models(path, cfg: RunConfig) -> tuple[ActorParams, CriticParams]:
    """The actor and critic of a checkpoint that holds cfg's models and nothing else."""
    arrays = read_checkpoint(path)
    actor = {k[len("actor."):]: v for k, v in arrays.items() if k.startswith("actor.")}
    critic = {k[len("critic."):]: v for k, v in arrays.items() if k.startswith("critic.")}
    try:
        if len(actor) + len(critic) != len(arrays):
            extra = [k for k in arrays if not k.startswith(("actor.", "critic."))]
            raise ContractError(f"checkpoint holds arrays outside actor./critic.: {extra}")
        return (ActorParams.from_state(cfg.model_config(), actor),
                CriticParams.from_state(DEFAULT_CRITIC_CHANNELS, critic))
    except ContractError as exc:     # arrays that do not fit cfg's model
        raise ContractError(f"{path}: {exc}") from exc


def checkpoint_name(i: int) -> str:
    return f"model_{i}.ckpt"


def metrics_name(i: int) -> str:
    return f"metrics_{i}.csv"


# ---------------------------------------------------------------------------
# manifest


def write_manifest(workdir, cfg: RunConfig, completed: list[int]) -> None:
    """Only the keys that `load_manifest` reads; `cfg.schedule()` gives each λ and epoch budget."""
    mapping = cfg.to_mapping()
    doc = {
        "format": MANIFEST_FORMAT,
        "prng": PRNG_NAME,
        "config": mapping,
        "config_hash": config_hash(mapping),
        "completed": sorted(completed),
    }
    write_file(Path(workdir) / MANIFEST_NAME, (json.dumps(doc, indent=1, sort_keys=True) + "\n").encode("ascii"))


def load_manifest(path) -> tuple[RunConfig, list[int]]:
    """The checked config and completed subproblems of a manifest file, or
    of the manifest in a run directory."""
    path = Path(path)
    if not path.is_file():
        path = path / MANIFEST_NAME
    try:
        doc = json.loads(read_text(path))
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(path, None, f"unreadable manifest: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(path, None, "manifest is not a JSON object")
    if doc.get("format") != MANIFEST_FORMAT:
        raise ParseError(path, None, f"unsupported manifest format {doc.get('format')!r}")
    try:    # a ParseError names the file itself; a ContractError gets it in front here
        if doc.get("prng") != PRNG_NAME:
            raise ContractError(f"manifest prng {doc.get('prng')!r} != {PRNG_NAME!r}")
        config = doc.get("config")
        if not isinstance(config, dict):
            raise ParseError(path, None, f"manifest config must be a JSON object, got {type(config).__name__}")
        cfg = RunConfig.from_mapping(config)
        retired = {k: str(v) for k, v in config.items() if k in RETIRED_KEYS}
        if config_hash({**cfg.to_mapping(), **retired}) != doc.get("config_hash"):
            raise ContractError("manifest config hash does not match its config")
        completed = doc.get("completed", [])
        if not isinstance(completed, list) or not all(type(i) is int for i in completed):
            raise ParseError(path, None, f"manifest completed must be a list of integers, got {completed!r}")
        completed = sorted(completed)
        if completed != list(range(1, len(completed) + 1)):
            raise ContractError(f"completed subproblems must be contiguous from 1, got {completed}")
        if len(completed) > cfg.m_sub:
            raise ContractError(f"manifest completes {len(completed)} subproblems of m_sub={cfg.m_sub}")
    except ContractError as exc:
        raise ContractError(f"{path}: {exc}") from exc
    return cfg, completed


class TrainedActors:
    """The M final actors of a finished run directory, in subproblem order.

    Construction reads only the manifest and fails unless all M subproblems
    are complete. Iterating reads each `model_<i>.ckpt` only when it reaches
    it, so a consumer that keeps only part of each actor never holds all M
    at once. Every new iteration reads the files again.
    """

    def __init__(self, workdir):
        self.workdir = Path(workdir)
        self.cfg, completed = load_manifest(self.workdir)
        if len(completed) != self.cfg.m_sub:
            raise ContractError(
                f"checkpoint directory {self.workdir} holds {len(completed)}/{self.cfg.m_sub} "
                "subproblems; finish training (or --resume) first")

    def __len__(self) -> int:
        return self.cfg.m_sub

    def __iter__(self):
        for i in range(1, self.cfg.m_sub + 1):
            actor, _ = load_models(self.workdir / checkpoint_name(i), self.cfg)
            yield actor


# ---------------------------------------------------------------------------
# schedule runner


def run_schedule(cfg: RunConfig, workdir, resume: bool = False,
                 progress=None) -> TrainedActors:
    """Train all M subproblems with neighborhood parameter transfer.

    One actor and critic, built fresh from stream [seed, 0] or, on a resume,
    loaded from the last completed checkpoint, train in place through every
    remaining subproblem, so subproblem i>1 starts from exactly i-1's final
    parameters. Subproblem i trains on its own stream [seed, i], so a
    resumed run retrains any unfinished subproblem from scratch and lands on
    identical checkpoints. Subproblem i's rows go to `metrics_<i>.csv`
    after each epoch. `progress(i, M, weights, epochs)`, if given, is called
    as subproblem i starts. Returns the finished run's `TrainedActors`,
    which reads the M final actors from their checkpoints, in schedule
    order, only when iterated. A `TrainingDivergedError` leaves with the
    failing `subproblem` in its snapshot, beside `train_subproblem`'s
    iteration and last metrics.
    """
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    sched = cfg.schedule()

    completed: list[int] = []
    if resume and (workdir / MANIFEST_NAME).exists():
        prev_cfg, completed = load_manifest(workdir)
        if config_hash(prev_cfg.to_mapping()) != config_hash(cfg.to_mapping()):
            raise ContractError(f"{workdir / MANIFEST_NAME}: resume config does not match the manifest")
        for i in completed:
            if not (ckpt := workdir / checkpoint_name(i)).exists():
                raise ContractError(f"manifest lists subproblem {i} complete but {ckpt} is missing")
    write_manifest(workdir, cfg, completed)

    if completed:
        actor, critic = load_models(workdir / checkpoint_name(completed[-1]), cfg)
    else:
        init_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0]))
        actor = ActorParams.init(cfg.model_config(), init_rng)
        critic = CriticParams.init(init_rng)

    for i in range(len(completed) + 1, cfg.m_sub + 1):
        weights = sched.weights[i - 1]
        epochs = sched.epochs[i - 1]
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, i]))
        if progress is not None:
            progress(i, cfg.m_sub, weights, epochs)
        try:
            train_subproblem(weights, actor, critic, cfg, epochs, rng,
                             metrics_path=workdir / metrics_name(i))
        except TrainingDivergedError as exc:
            exc.snapshot["subproblem"] = i
            raise
        save_models(workdir / checkpoint_name(i), actor, critic)
        completed.append(i)
        write_manifest(workdir, cfg, completed)

    return TrainedActors(workdir)
