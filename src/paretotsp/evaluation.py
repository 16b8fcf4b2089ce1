"""Pareto tools: filtering, normalization, 2-D hypervolume, and
assembly of an approximate Pareto front from a family of trained models.

All objectives are minimized. Hypervolume is the exact area dominated by a
normalized front and bounded by a reference point, computed with the
sort-by-first-objective sweep. Fronts compared against each other are
normalized with shared ideal/nadir bounds taken over their union so the
scores are comparable.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DimensionError, ParseError
from .instances import MotspInstance, Tour, evaluate_objectives

log = logging.getLogger(__name__)

DEFAULT_REF_POINT = (1.2, 1.2)


def pareto_filter_indices(points) -> np.ndarray:
    """Indices of the nondominated points, in first-occurrence order.

    Exact duplicates keep only their first occurrence.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ContractError(f"need a nonempty (k, m) array of points, got shape {pts.shape}")
    # le[i, j]: point i <= point j in every objective
    le = np.all(pts[:, None, :] <= pts[None, :, :], axis=2)
    lt = np.any(pts[:, None, :] < pts[None, :, :], axis=2)
    dominated = np.any(le & lt, axis=0)
    keep = []
    seen = set()
    for j in range(pts.shape[0]):
        if dominated[j]:
            continue
        key = pts[j].tobytes()
        if key in seen:
            continue
        seen.add(key)
        keep.append(j)
    return np.asarray(keep, dtype=np.intp)


def normalize(points, ideal, nadir) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    ideal = np.asarray(ideal, dtype=np.float64)
    nadir = np.asarray(nadir, dtype=np.float64)
    if np.any(nadir <= ideal):
        raise ContractError(f"degenerate bounds: nadir {nadir} must exceed ideal {ideal} per objective")
    return (pts - ideal) / (nadir - ideal)


def hypervolume_2d(points, ref=DEFAULT_REF_POINT) -> float:
    """Exact area dominated by `points` and bounded above by `ref`.

    Points with any coordinate at or beyond the reference point contribute
    nothing and are dropped with a warning; dominated points contribute 0.
    """
    pts = np.asarray(points, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or ref.shape != (2,):
        raise DimensionError(f"hypervolume_2d wants (k, 2) points and a 2-vector ref, got {pts.shape}")
    inside = np.all(pts < ref, axis=1)
    if not inside.all():
        log.warning("hypervolume_2d: dropping %d point(s) at or beyond the reference %s",
                    int((~inside).sum()), ref.tolist())
    pts = pts[inside]
    if pts.shape[0] == 0:
        log.warning("hypervolume_2d: no points inside the reference; HV = 0")
        return 0.0
    front = pts[pareto_filter_indices(pts)]
    order = np.argsort(front[:, 0], kind="stable")
    xs = front[order, 0]
    ys = front[order, 1]
    next_x = np.append(xs[1:], ref[0])
    return float(np.sum((next_x - xs) * (ref[1] - ys)))


@dataclass(frozen=True)
class ArchiveEntry:
    tour: Tour
    objectives: np.ndarray
    subproblem: int


@dataclass
class ParetoArchive:
    """Mutually nondominated solutions (as `from_candidates` and `read_pf_csv`
    build them) with their source subproblem index."""

    entries: list[ArchiveEntry] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)

    def points(self) -> np.ndarray:
        if not self.entries:
            return np.empty((0, 2), dtype=np.float64)
        return np.stack([e.objectives for e in self.entries])

    @classmethod
    def from_candidates(cls, tours, objective_rows, subproblems) -> "ParetoArchive":
        pts = np.asarray(objective_rows, dtype=np.float64)
        keep = pareto_filter_indices(pts)
        entries = [ArchiveEntry(tours[j], pts[j].copy(), int(subproblems[j])) for j in keep]
        return cls(entries)


def approximate_pf(inst: MotspInstance, models) -> ParetoArchive:
    """Greedy rollout of every model on `inst`, kept if nondominated.

    `models` is any iterable of actors; they decode in groups of stacked
    models (`model.greedy_tours`), and each group is released once decoded.
    The archive records which model produced each survivor, as a 1-based
    position matching the subproblem numbering of checkpoints.
    """
    from .model import greedy_tours

    tours = [Tour(order) for order in greedy_tours(inst.features, models)]
    rows = np.stack([evaluate_objectives(inst, tour) for tour in tours])
    return ParetoArchive.from_candidates(tours, rows, list(range(1, len(tours) + 1)))


def union_bounds(archives) -> tuple[np.ndarray, np.ndarray]:
    """Per-objective ideal/nadir over every point of every archive."""
    all_pts = [a.points() for a in archives if len(a)]
    if not all_pts:
        raise ContractError("no archive points to take bounds over")
    stacked = np.concatenate(all_pts, axis=0)
    return stacked.min(axis=0), stacked.max(axis=0)


def compute_hv_protocol(archives, ref=DEFAULT_REF_POINT) -> list[float]:
    """HV of each archive under the ideal/nadir bounds of the union of the
    archives and a common ref."""
    if not archives:
        raise ContractError("compute_hv_protocol needs at least one archive")
    ideal, nadir = union_bounds(archives)
    out = []
    for archive in archives:
        if not len(archive):
            out.append(0.0)
            continue
        out.append(hypervolume_2d(normalize(archive.points(), ideal, nadir), ref))
    return out


# ---------------------------------------------------------------------------
# exports


def format_float(x: float) -> str:
    return format(float(x), ".17g")


PF_CSV_HEADER = "subproblem,lambda1,lambda2,f1,f2,tour"


def write_pf_csv(path, archive: ParetoArchive, weights) -> None:
    """One row per archive entry: 1-based source subproblem, its weights,
    objectives, and the tour as dash-separated 0-based node indices."""
    lines = [PF_CSV_HEADER]
    for e in archive.entries:
        lam = weights[e.subproblem - 1]
        tour_txt = "-".join(str(i) for i in e.tour.order)
        lines.append(",".join([
            str(e.subproblem),
            format_float(lam[0]), format_float(lam[1]),
            format_float(e.objectives[0]), format_float(e.objectives[1]),
            tour_txt,
        ]))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def write_hv_report(path, rows) -> None:
    """Rows of (instance, method, hv, n_points)."""
    lines = ["instance,method,hv,n_points"]
    for instance, method, hv, n_points in rows:
        lines.append(f"{instance},{method},{format_float(hv)},{int(n_points)}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_pf_csv(path) -> ParetoArchive:
    """Parse a PF CSV back into an archive; malformed rows, and rows that
    another row dominates or duplicates, name their line."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != PF_CSV_HEADER:
        raise ParseError(path, 1, f"expected header {PF_CSV_HEADER!r}")
    entries, line_nos = [], []
    for line_no, raw in enumerate(lines[1:], start=2):
        s = raw.strip()
        if not s:
            continue
        parts = s.split(",")
        if len(parts) != 6:
            raise ParseError(path, line_no,
                             f"expected 6 comma-separated fields, got {len(parts)}")
        try:
            subproblem = int(parts[0])
            f1, f2 = float(parts[3]), float(parts[4])
            order = tuple(int(t) for t in parts[5].split("-"))
        except ValueError as exc:
            raise ParseError(path, line_no, str(exc)) from exc
        try:
            tour = Tour(order)
        except ContractError as exc:
            raise ParseError(path, line_no, f"bad tour column: {exc}") from exc
        entries.append(ArchiveEntry(tour, np.array([f1, f2], dtype=np.float64), subproblem))
        line_nos.append(line_no)
    if not entries:
        raise ParseError(path, len(lines), "no data rows")
    archive = ParetoArchive(entries)
    kept = pareto_filter_indices(archive.points())
    if len(kept) != len(entries):
        first = np.setdiff1d(np.arange(len(entries)), kept)[0]
        raise ParseError(path, line_nos[first], "row is dominated or duplicated by another row")
    return archive
