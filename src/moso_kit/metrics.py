"""Pareto front extraction and hypervolume metrics (minimization)."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

MC_SAMPLES = 1_000_000


def nondominated_filter(points) -> np.ndarray:
    """Indices (ascending) of the nondominated points.

    Exact duplicate objective vectors keep only their first occurrence.
    Implemented as a lexicographic sweep with an incremental archive: a
    point later in lexicographic order can never dominate an earlier one,
    so each point is tested against the points kept so far, as one block.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("expected a 2-d array of objective vectors")
    n = len(pts)
    if n == 0:
        return np.empty(0, dtype=int)
    order = np.lexsort(pts.T[::-1])  # primary key = first objective; stable
    kept: list[int] = []
    seen: set[bytes] = set()
    archive = np.empty_like(pts)
    for i in order:
        p = pts[i]
        key = p.tobytes()
        if key in seen:
            continue
        seen.add(key)
        a = archive[:len(kept)]
        if ((a <= p).all(axis=1) & (a < p).any(axis=1)).any():
            continue
        archive[len(kept)] = p
        kept.append(i)
    return np.array(sorted(kept), dtype=int)


def _hv_2d(pts: np.ndarray, ref: np.ndarray) -> float:
    """Staircase sum over a 2-d set (need not be pre-filtered)."""
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    total = 0.0
    best = ref[1]
    for i in order:
        f1, f2 = pts[i]
        if f2 < best:
            total += (ref[0] - f1) * (best - f2)
            best = f2
    return total


def _insert_front(front: list[np.ndarray], p: np.ndarray) -> None:
    """Keep ``front`` mutually nondominated after inserting ``p``."""
    for a in front:
        if (a <= p).all():
            return
    front[:] = [a for a in front if not (p <= a).all()]
    front.append(p)


def _hv_sweep(pts: np.ndarray, ref: np.ndarray) -> float:
    o = ref.size
    if len(pts) == 0:
        return 0.0
    if o == 1:
        return float(ref[0] - pts[:, 0].min())
    if o == 2:
        return _hv_2d(pts, ref)
    # Slice along the last objective: between consecutive values the
    # dominated cross-section is fixed, so recurse one dimension down.
    order = np.argsort(pts[:, -1], kind="stable")
    pts = pts[order]
    total = 0.0
    front: list[np.ndarray] = []
    for i in range(len(pts)):
        _insert_front(front, pts[i, :-1])
        z_lo = pts[i, -1]
        z_hi = pts[i + 1, -1] if i + 1 < len(pts) else ref[-1]
        if z_hi > z_lo:
            total += (z_hi - z_lo) * _hv_sweep(np.asarray(front), ref[:-1])
    return total


def _hv_monte_carlo(pts: np.ndarray, ref: np.ndarray, seed: int, n_samples: int) -> float:
    lo = pts.min(axis=0)
    box = np.prod(ref - lo)
    if box <= 0:
        return 0.0
    rng = np.random.default_rng(seed)
    hit = 0
    done = 0
    chunk = 100_000
    while done < n_samples:
        k = min(chunk, n_samples - done)
        u = lo + rng.random((k, ref.size)) * (ref - lo)
        covered = np.zeros(k, dtype=bool)
        for p in pts:
            covered |= (u >= p).all(axis=1)
        hit += int(covered.sum())
        done += k
    return box * hit / n_samples


def hypervolume(points, ref, mc_seed: int = 0, mc_samples: int = MC_SAMPLES) -> float:
    """Volume dominated by ``points`` up to the reference point.

    Points with any coordinate beyond ``ref`` are dropped with a warning.
    Exact dimension-sweep recursion for up to 4 objectives; a seeded
    Monte Carlo estimate beyond that.  Empty inputs give 0.0.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    ref = np.asarray(ref, dtype=float)
    if pts.size == 0:
        return 0.0
    if pts.shape[1] != ref.size:
        raise ValueError("points and reference point disagree on dimension")
    inside = (pts <= ref).all(axis=1)
    if not inside.all():
        logger.warning("%d point(s) beyond the reference point dropped", int((~inside).sum()))
        pts = pts[inside]
    if len(pts) == 0:
        return 0.0
    pts = pts[nondominated_filter(pts)]
    if ref.size > 4:
        return _hv_monte_carlo(pts, ref, mc_seed, mc_samples)
    return _hv_sweep(pts, ref)


def pct_hv_improvement(hv: float, hv_initial: float, mode: str = "relative_to_initial",
                       hv_max: float | None = None) -> float:
    """Hypervolume improvement over a baseline, as a percentage.

    ``relative_to_initial``: 100 * (hv - hv_initial) / hv_initial.
    ``relative_to_gap``: 100 * (hv - hv_initial) / (hv_max - hv_initial).
    """
    if mode == "relative_to_initial":
        if hv_initial == 0:
            raise ValueError("hv_initial must be nonzero for relative_to_initial")
        return 100.0 * (hv - hv_initial) / hv_initial
    if mode == "relative_to_gap":
        if hv_max is None:
            raise ValueError("relative_to_gap needs hv_max")
        if hv_max <= hv_initial:
            raise ValueError("hv_max must exceed hv_initial")
        return 100.0 * (hv - hv_initial) / (hv_max - hv_initial)
    raise ValueError(f"unknown mode {mode!r}")


@dataclass
class ParetoArchive:
    """Feasible nondominated designs with their objective vectors."""

    designs: list
    objectives: np.ndarray

    def __len__(self) -> int:
        return len(self.designs)

    @classmethod
    def from_records(cls, records) -> "ParetoArchive":
        feasible = [r for r in records if r.feasible]
        if not feasible:
            return cls([], np.empty((0, 0)))
        objs = np.vstack([r.objectives for r in feasible])
        keep = nondominated_filter(objs)
        return cls([feasible[i].design for i in keep], objs[keep])
