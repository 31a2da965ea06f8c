"""Pareto front extraction and hypervolume metrics (minimization)."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

logger = logging.getLogger(__name__)

MC_SAMPLES = 1_000_000


def insertion_mask(front: np.ndarray, p: np.ndarray):
    """Weak-dominance insertion of ``p`` into the mutually nondominated ``front``.

    None when some row is ``<= p`` everywhere: ``p`` is dominated or
    repeats a row (``-0.0`` equals ``0.0``).  Otherwise the mask of rows
    that ``p`` does not dominate, the rows to keep before appending ``p``.
    """
    if (front <= p).all(axis=1).any():
        return None
    return ~(p <= front).all(axis=1)


def nondominated_filter(points) -> np.ndarray:
    """Indices (ascending) of the nondominated points.

    Points enter one front in index order through ``insertion_mask``: of
    equal vectors (``-0.0`` equals ``0.0``) only the first is kept.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("expected a 2-d array of objective vectors")
    front, kept = pts[:0], np.empty(0, dtype=int)
    for i, p in enumerate(pts):
        keep = insertion_mask(front, p)
        if keep is not None:
            front, kept = np.vstack([front[keep], p]), np.append(kept[keep], i)
    return kept


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
    pts = pts[np.argsort(pts[:, -1], kind="stable")]
    z = np.append(pts[:, -1], ref[-1])
    total, front = 0.0, pts[:0, :-1]
    for i, p in enumerate(pts[:, :-1]):
        keep = insertion_mask(front, p)
        if keep is not None:
            front = np.vstack([front[keep], p])
        if z[i + 1] > z[i]:
            total += (z[i + 1] - z[i]) * _hv_sweep(front, ref[:-1])
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


def hypervolume(points, ref) -> float:
    """Volume dominated by ``points`` up to the reference point.

    Points with any coordinate beyond ``ref`` are dropped with a warning.
    Exact dimension-sweep recursion for up to 4 objectives; beyond that a
    Monte Carlo estimate from ``MC_SAMPLES`` points drawn at seed 0.
    Empty inputs give 0.0.
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
    return _front_hypervolume(pts[nondominated_filter(pts)], ref)


def _front_hypervolume(front: np.ndarray, ref: np.ndarray) -> float:
    """``hypervolume`` of a front already inside ``ref`` and mutually nondominated."""
    if len(front) == 0:
        return 0.0
    if ref.size > 4:
        return _hv_monte_carlo(front, ref, 0, MC_SAMPLES)
    return _hv_sweep(front, ref)


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
    """Feasible nondominated designs with their objective vectors, in record order."""

    designs: list = field(default_factory=list)
    objectives: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    seen: int = 0  # leading records that ``update`` has consumed

    def __len__(self) -> int:
        return len(self.designs)

    def update(self, records) -> "ParetoArchive":
        """Insert the feasible records after the first ``seen`` of ``records``."""
        for rec in records[self.seen:]:
            front = self.objectives.reshape(-1, rec.objectives.size)  # (0, 0) while empty
            keep = insertion_mask(front, rec.objectives) if rec.feasible else None
            if keep is not None:
                self.objectives = np.vstack([front[keep], rec.objectives])
                self.designs = [d for d, k in zip(self.designs, keep) if k] + [rec.design]
        self.seen = len(records)
        return self

    @classmethod
    def from_records(cls, records) -> "ParetoArchive":
        return cls().update(records)
