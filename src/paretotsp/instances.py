"""Bi-objective Euclidean TSP instances: generation, file formats, objectives.

A node carries a 4-dim feature vector; objective j is the closed-tour length
under Euclidean distance on feature dims (2j, 2j+1). Generated instances draw
features uniformly from the unit square per slice; TSPLIB pairs take objective
1 from file A and objective 2 from file B, with coordinates min-max scaled to
[0,1]^2 per file so test instances match the training distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ParseError, format_float, read_text, write_file

PRNG_NAME = "numpy-pcg64"  # np.random.default_rng; recorded in manifests

NATIVE_MAGIC = "MOTSP"
NATIVE_VERSION = "v1"


@dataclass(frozen=True)
class MotspInstance:
    """n nodes with d_x = 2m features; costs are Euclidean per feature slice."""

    features: np.ndarray  # (n, d_x), read-only
    name: str = "instance"
    # present only for TSPLIB-backed instances
    raw_coords: np.ndarray | None = None          # (n, d_x) unscaled coordinates

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[0] < 2:
            raise ContractError(f"instance needs a (n>=2, d_x) feature matrix, got {feats.shape}")
        if feats.shape[1] % 2 != 0:
            raise ContractError("feature dimension must be 2 per objective")
        feats.setflags(write=False)
        object.__setattr__(self, "features", feats)
        if self.raw_coords is not None:
            raw = np.asarray(self.raw_coords, dtype=np.float64)
            raw.setflags(write=False)
            object.__setattr__(self, "raw_coords", raw)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d_x(self) -> int:
        return self.features.shape[1]

    @property
    def m(self) -> int:
        return self.d_x // 2


def tour_costs_batch(features: np.ndarray, tours: np.ndarray) -> np.ndarray:
    """Closed-tour cost per objective, including the return edge, for a batch:
    features (B,n,d_x), tours (B,n) -> (B,m)."""
    b, n, d_x = features.shape
    rows = np.arange(b)[:, None]
    ordered = features[rows, tours]            # (B, n, d_x)
    nxt = np.roll(ordered, -1, axis=1)
    m = d_x // 2
    out = np.empty((b, m))
    for j in range(m):
        seg = ordered[:, :, 2 * j:2 * j + 2] - nxt[:, :, 2 * j:2 * j + 2]
        out[:, j] = np.sqrt((seg ** 2).sum(axis=-1)).sum(axis=1)
    return out


def evaluate_objectives(coords: np.ndarray, tours) -> np.ndarray:
    """Closed-tour cost per objective of k tours on one instance:
    coords (n, d_x), tours (k, n) permutations of 0..n-1 -> (k, m)."""
    coords = np.asarray(coords, dtype=np.float64)
    tours = np.asarray(tours, dtype=np.intp)
    n = coords.shape[0]
    if tours.ndim != 2 or tours.shape[1] != n:
        raise ContractError(f"tours of shape {tours.shape} on an instance of {n} nodes")
    if not (np.sort(tours, axis=1) == np.arange(n)).all():
        raise ContractError(f"every tour must be a permutation of 0..{n - 1}")
    return tour_costs_batch(np.broadcast_to(coords, (len(tours),) + coords.shape), tours)


# ---------------------------------------------------------------------------
# native instance format


def save_native(inst: MotspInstance, path) -> None:
    lines = [f"{NATIVE_MAGIC} {NATIVE_VERSION} n={inst.n} m={inst.m} dx={inst.d_x}"]
    for row in inst.features:
        lines.append(" ".join(map(format_float, row)))
    write_file(path, ("\n".join(lines) + "\n").encode("ascii"))


def load_native(path) -> MotspInstance:
    lines = read_text(path).splitlines()
    if not lines:
        raise ParseError(path, 1, "empty file")
    head = lines[0].split()
    if len(head) != 5 or head[0] != NATIVE_MAGIC or head[1] != NATIVE_VERSION:
        raise ParseError(path, 1, f"expected '{NATIVE_MAGIC} {NATIVE_VERSION} n=<n> m=<m> dx=<dx>' header")
    try:
        fields = dict(kv.split("=") for kv in head[2:])
        n, m, dx = int(fields["n"]), int(fields["m"]), int(fields["dx"])
    except (ValueError, KeyError) as exc:
        raise ParseError(path, 1, f"bad header fields: {exc}") from exc
    if min(n, m) < 1:
        raise ParseError(path, 1, f"n={n} and m={m} must be positive")
    if dx != 2 * m:
        raise ParseError(path, 1, f"dx={dx} inconsistent with m={m}")
    if len(lines) < 1 + n:
        raise ParseError(path, len(lines), f"expected {n} feature lines, found {len(lines) - 1}")
    trailing = [k for k, line in enumerate(lines[1 + n:], start=2 + n) if line.strip()]
    if trailing:
        raise ParseError(path, trailing[0], f"unexpected content after {n} feature lines")
    rows = []   # each row's width is checked before the array is allocated
    for line_no, line in enumerate(lines[1:1 + n], start=2):
        parts = line.split()
        if len(parts) != dx:
            raise ParseError(path, line_no, f"expected {dx} features, found {len(parts)}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise ParseError(path, line_no, f"bad feature value: {exc}") from exc
        if not np.isfinite(rows[-1]).all():
            raise ParseError(path, line_no, "feature values must be finite")
    feats = np.array(rows, dtype=np.float64)
    name = str(path).rsplit("/", 1)[-1]
    if name.endswith(".motsp"):
        name = name[:-6]
    return MotspInstance(feats, name=name)


# ---------------------------------------------------------------------------
# TSPLIB


_TSPLIB_KEYS = ("NAME", "TYPE", "COMMENT", "DIMENSION", "EDGE_WEIGHT_TYPE")


def _parse_tsplib(path) -> np.ndarray:
    """Read one EUC_2D TSPLIB file; returns (n, 2) raw coordinates."""
    dimension = None
    coords = None
    lines = read_text(path).splitlines()
    i = 0
    while i < len(lines):
        line = lines[i].strip()
        i += 1
        if not line:
            continue
        if line == "EOF":
            break
        if line == "NODE_COORD_SECTION":
            if dimension is None:
                raise ParseError(path, i, "NODE_COORD_SECTION before DIMENSION")
            if len(lines) - i < dimension:      # checked before allocating for them
                raise ParseError(path, len(lines), f"expected {dimension} coordinate lines")
            coords = np.empty((dimension, 2))
            filled = np.zeros(dimension, dtype=bool)
            for k in range(dimension):
                parts = lines[i].split()
                i += 1
                if len(parts) != 3:
                    raise ParseError(path, i, "expected '<index> <x> <y>'")
                try:
                    idx = int(parts[0]) - 1
                    x, y = float(parts[1]), float(parts[2])
                except ValueError as exc:
                    raise ParseError(path, i, f"bad coordinate line: {exc}") from exc
                if not 0 <= idx < dimension:
                    raise ParseError(path, i, f"node index {idx + 1} outside 1..{dimension}")
                coords[idx] = (x, y)
                filled[idx] = True
            if not filled.all():
                raise ParseError(path, i, "duplicate node indices in NODE_COORD_SECTION")
            continue
        if ":" in line:
            key, _, value = line.partition(":")
            key, value = key.strip(), value.strip()
            if key not in _TSPLIB_KEYS:
                raise ParseError(path, i, f"unsupported TSPLIB keyword {key!r}")
            if key == "TYPE" and value != "TSP":
                raise ParseError(path, i, f"unsupported TYPE {value!r}, only TSP")
            if key == "EDGE_WEIGHT_TYPE" and value != "EUC_2D":
                raise ParseError(path, i, f"unsupported EDGE_WEIGHT_TYPE {value!r}, only EUC_2D")
            if key == "DIMENSION":
                try:
                    dimension = int(value)
                except ValueError as exc:
                    raise ParseError(path, i, f"bad DIMENSION: {exc}") from exc
                if dimension < 2:
                    raise ParseError(path, i, f"DIMENSION must be >= 2, got {dimension}")
            continue
        raise ParseError(path, i, f"unrecognized line {line!r}")
    if coords is None:
        raise ParseError(path, len(lines), "missing NODE_COORD_SECTION")
    return coords


def _minmax_scale(path, coords: np.ndarray):
    lo = coords.min(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        span = coords.max(axis=0) - lo
        # No edge is longer than the diagonal, so a raw tour length (as
        # tour_costs_batch sums it) stays below n times the diagonal.
        longest_tour = len(coords) * np.sqrt((span ** 2).sum())
    if not np.isfinite(longest_tour):
        raise ParseError(path, None, "coordinates, their spans and a tour's length must be finite")
    return (coords - lo) / np.where(span == 0, 1.0, span)


def load_tsplib_pair(file_a, file_b) -> MotspInstance:
    """Objective 1 from file A, objective 2 from file B; costs on scaled coords."""
    coords_a = _parse_tsplib(file_a)
    coords_b = _parse_tsplib(file_b)
    if coords_a.shape[0] != coords_b.shape[0]:
        raise ParseError(file_b, 1, f"DIMENSION mismatch: {coords_a.shape[0]} vs {coords_b.shape[0]}")
    feats = np.concatenate([_minmax_scale(file_a, coords_a), _minmax_scale(file_b, coords_b)], axis=1)
    raw = np.concatenate([coords_a, coords_b], axis=1)
    name_a = str(file_a).rsplit("/", 1)[-1].rsplit(".", 1)[0]
    name_b = str(file_b).rsplit("/", 1)[-1].rsplit(".", 1)[0]
    return MotspInstance(feats, name=f"{name_a}+{name_b}", raw_coords=raw)
