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
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError, ParseError, format_float, read_text, write_file
from .instances import MotspInstance, evaluate_objectives
from .model import greedy_tours

log = logging.getLogger(__name__)

DEFAULT_REF_POINT = (1.2, 1.2)


def _sweep(pts: np.ndarray) -> np.ndarray:
    """Indices of the nondominated rows of (k, 2) points without NaN, by
    ascending f1 (Kung et al.'s sweep): after a stable sort by f1 then f2, a
    row is kept when its f2 is below every f2 before it, so exact duplicates
    keep their first row."""
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    f2 = pts[order, 1]
    keep = np.append(True, f2[1:] < np.minimum.accumulate(f2)[:-1])
    return order[keep]


def pareto_filter_indices(points) -> np.ndarray:
    """Indices of the nondominated points of a nonempty, finite (k, 2)
    array, in first-occurrence order. Exact duplicates (0 and -0 are equal)
    keep only their first occurrence."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] == 0 or pts.shape[1] != 2 or not np.isfinite(pts).all():
        raise ContractError(f"need a nonempty, finite (k, 2) array of points, got shape {pts.shape}")
    return np.sort(_sweep(pts))


def hypervolume_2d(points, ref=DEFAULT_REF_POINT) -> float:
    """Exact area dominated by `points` and bounded above by `ref`.

    Points with any coordinate at or beyond the reference point contribute
    nothing and are dropped with a warning; dominated points contribute 0.
    An area too large for a float raises ContractError naming the reference.
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
    xs, ys = pts[_sweep(pts)].T
    next_x = np.append(xs[1:], ref[0])
    with np.errstate(over="ignore"):
        area = float(np.sum((next_x - xs) * (ref[1] - ys)))
    if not np.isfinite(area):
        raise ContractError(f"hypervolume under the reference {ref.tolist()} overflows a float")
    return area


@dataclass(frozen=True, eq=False)
class Front:
    """One row per tour: the tour (k, n), its objectives (k, 2) and the
    1-based subproblem whose model produced it (k,). A solve's candidate
    table holds every model's tour; `nondominated()` filters it to a front."""

    tours: np.ndarray
    objectives: np.ndarray
    subproblems: np.ndarray

    def __post_init__(self):
        for name, dtype in (("tours", np.intp), ("objectives", np.float64), ("subproblems", np.intp)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        k = len(self.subproblems)
        if self.tours.ndim != 2 or len(self.tours) != k or self.objectives.shape != (k, 2):
            raise DimensionError(f"a front wants (k, n) tours, (k, 2) objectives and k subproblems, got "
                                 f"{self.tours.shape}, {self.objectives.shape} and {self.subproblems.shape}")

    def __len__(self) -> int:
        return len(self.subproblems)

    def nondominated(self) -> "Front":
        """The nondominated rows, in first-occurrence order; exact duplicates
        keep their first row."""
        keep = pareto_filter_indices(self.objectives)
        return Front(self.tours[keep], self.objectives[keep], self.subproblems[keep])


def approximate_pf(inst: MotspInstance, models) -> Front:
    """Greedy rollout of every model on `inst`: the candidate table, one row
    per model in model order.

    `models` is any iterable of actors; they decode in groups of stacked
    models (`model.greedy_tours`), and each group is released once decoded.
    Row i's subproblem is i + 1, matching the numbering of checkpoints. Call
    `.nondominated()` on the result for the approximate Pareto front.
    """
    tours = greedy_tours(inst.features, models)
    return Front(tours, evaluate_objectives(inst.features, tours), np.arange(1, len(tours) + 1))


def compute_hv_protocol(fronts, ref=DEFAULT_REF_POINT) -> list[float]:
    """HV of each front under the ideal/nadir bounds of the union of the
    fronts and a common ref. An objective on which every point agrees gets a
    span of 1, so a one-point front scores the ref's area."""
    if not fronts:
        raise ContractError("compute_hv_protocol needs at least one front")
    pts = np.concatenate([np.empty((0, 2))] + [f.objectives for f in fronts])
    if not len(pts):
        raise ContractError("no front points to take bounds over")
    ideal, nadir = pts.min(axis=0), pts.max(axis=0)
    with np.errstate(over="ignore"):
        span = np.where(nadir > ideal, nadir - ideal, 1.0)
    if not np.isfinite(span).all():
        raise ContractError(f"the objective span {span.tolist()} of the fronts overflows a float")
    return [hypervolume_2d((f.objectives - ideal) / span, ref) if len(f) else 0.0 for f in fronts]


# ---------------------------------------------------------------------------
# exports


PF_CSV_HEADER = "subproblem,lambda1,lambda2,f1,f2,tour"


def write_pf_csv(path, front: Front, weights) -> None:
    """One row per front row: 1-based source subproblem, its weights,
    objectives, and the tour as dash-separated 0-based node indices."""
    lines = [PF_CSV_HEADER]
    for sub, (f1, f2), tour in zip(front.subproblems, front.objectives, front.tours):
        lam = weights[sub - 1]
        lines.append(",".join([str(sub), format_float(lam[0]), format_float(lam[1]),
                               format_float(f1), format_float(f2), "-".join(map(str, tour.tolist()))]))
    write_file(path, ("\n".join(lines) + "\n").encode("ascii"))


def write_hv_report(path, rows) -> None:
    """Rows of (instance, method, hv, n_points). The CSV is unquoted ASCII,
    so an instance or method holding a comma, a double quote, a line break
    or a non-ASCII character is refused."""
    lines = ["instance,method,hv,n_points"]
    for instance, method, hv, n_points in rows:
        for text in (instance, method):
            if not text.isascii() or any(c in text for c in ',"\r\n'):
                raise ContractError(f"report field {text!r} holds a comma, a double quote, "
                                    "a line break or a non-ASCII character")
        lines.append(f"{instance},{method},{format_float(hv)},{int(n_points)}")
    write_file(path, ("\n".join(lines) + "\n").encode("ascii"))


def read_pf_csv(path) -> Front:
    """Parse a PF CSV back into a front; malformed rows, tours that are not
    permutations or differ in length from the first row's, and rows that
    another row dominates or duplicates, name their line."""
    lines = read_text(path).splitlines()
    if not lines or lines[0].strip() != PF_CSV_HEADER:
        raise ParseError(path, 1, f"expected header {PF_CSV_HEADER!r}")
    subproblems, objectives, tours, line_nos = [], [], [], []
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
            tour = [int(t) for t in parts[5].split("-")]
        except ValueError as exc:
            raise ParseError(path, line_no, str(exc)) from exc
        if not np.isfinite([f1, f2]).all():
            raise ParseError(path, line_no, "objective values must be finite")
        if not np.iinfo(np.intp).min <= subproblem <= np.iinfo(np.intp).max:
            raise ParseError(path, line_no, f"subproblem {subproblem} does not fit a {np.dtype(np.intp)}")
        if sorted(tour) != list(range(len(tour))):
            raise ParseError(path, line_no, f"bad tour column: not a permutation of 0..{len(tour) - 1}")
        if tours and len(tour) != len(tours[0]):
            raise ParseError(path, line_no,
                             f"tour of {len(tour)} nodes, but the first row's has {len(tours[0])}")
        subproblems.append(subproblem)
        objectives.append((f1, f2))
        tours.append(tour)
        line_nos.append(line_no)
    if not tours:
        raise ParseError(path, len(lines), "no data rows")
    front = Front(tours, objectives, subproblems)
    kept = pareto_filter_indices(front.objectives)
    if len(kept) != len(front):
        first = np.setdiff1d(np.arange(len(front)), kept)[0]
        raise ParseError(path, line_nos[first], "row is dominated or duplicated by another row")
    return front
