"""Latent-space encoding of mixed design spaces.

Every design point maps into the unit cube [0,1]**latent_dim where the
search, surrogates, and inner solves operate.  Numeric variables rescale
to one coordinate each.  All categorical variables are encoded jointly:
their Cartesian product of K combinations occupies a (K-1)-dimensional
block whose vertices are the origin (combination 0) and the unit
coordinate vectors (combinations 1..K-1).  Extraction snaps that block
to the nearest vertex.

Latent layout: non-categorical variables in declaration order (custom
variables occupy their declared width), followed by the joint
categorical block.  ``pairwise_distances`` gives the Euclidean
distances between latent points.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .problem import DesignVariable

logger = logging.getLogger(__name__)

#: Coordinates may stray this far outside [0,1] before extraction warns.
CLAMP_TOL = 1e-9


@dataclass(frozen=True)
class EmbeddingPlan:
    """Precomputed layout of the latent cube for one variable tuple."""

    variables: tuple
    latent_dim: int
    #: (variable index, latent offset, width) for non-categorical variables
    numeric_slots: tuple
    #: indices into ``variables`` of the categorical variables, in order
    categorical_indices: tuple
    #: number of levels of each categorical variable
    level_counts: tuple
    #: offset of the joint categorical block (width = combo_count - 1)
    categorical_offset: int
    #: K, the size of the categorical Cartesian product (0 if none)
    combo_count: int


def build_plan(variables) -> EmbeddingPlan:
    numeric = []
    cat_idx = []
    counts = []
    offset = 0
    for i, v in enumerate(variables):
        if v.kind == "categorical":
            cat_idx.append(i)
            counts.append(len(v.levels))
        elif v.kind == "custom":
            numeric.append((i, offset, v.embedder.width))
            offset += v.embedder.width
        else:
            numeric.append((i, offset, 1))
            offset += 1
    combos = int(np.prod(counts)) if counts else 0
    width = max(combos - 1, 0)
    return EmbeddingPlan(
        variables=tuple(variables),
        latent_dim=offset + width,
        numeric_slots=tuple(numeric),
        categorical_indices=tuple(cat_idx),
        level_counts=tuple(counts),
        categorical_offset=offset,
        combo_count=combos,
    )


def _combo_index(plan: EmbeddingPlan, x: Mapping) -> int:
    """Row-major combination index over categorical variables in order."""
    j = 0
    for vi, count in zip(plan.categorical_indices, plan.level_counts):
        v = plan.variables[vi]
        value = x[v.name]
        try:
            level = v.levels.index(value)
        except ValueError:
            raise ValueError(f"variable {v.name!r}: unknown level {value!r}") from None
        j = j * count + level
    return j


def _decode_combo(plan: EmbeddingPlan, j: int) -> dict:
    out = {}
    for vi, count in zip(reversed(plan.categorical_indices), reversed(plan.level_counts)):
        v = plan.variables[vi]
        out[v.name] = v.levels[j % count]
        j //= count
    return out


def embed(plan: EmbeddingPlan, x: Mapping) -> np.ndarray:
    """Map a legal design point into the latent cube."""
    z = np.zeros(plan.latent_dim)
    for vi, offset, width in plan.numeric_slots:
        v = plan.variables[vi]
        value = x[v.name]
        if v.kind == "custom":
            block = np.asarray(v.embedder.to_latent(value), dtype=float)
            if block.shape != (width,):
                raise ValueError(f"variable {v.name!r}: embedder returned shape {block.shape}")
            if (block < -CLAMP_TOL).any() or (block > 1 + CLAMP_TOL).any():
                raise ValueError(f"variable {v.name!r}: embedder left [0,1]")
            z[offset:offset + width] = block
        else:
            if not v.lower <= value <= v.upper:
                raise ValueError(f"variable {v.name!r}: value {value!r} outside bounds")
            z[offset] = (value - v.lower) / (v.upper - v.lower)
    if plan.combo_count:
        j = _combo_index(plan, x)
        if j > 0:
            z[plan.categorical_offset + j - 1] = 1.0
    return z


def _round_half_away(value: float) -> int:
    return int(math.floor(value + 0.5)) if value >= 0 else int(math.ceil(value - 0.5))


def extract(plan: EmbeddingPlan, z: np.ndarray) -> dict:
    """Map latent coordinates back to a legal design point.

    Coordinates outside [0,1] by more than CLAMP_TOL are clamped with a
    warning; integer coordinates round half away from zero and clamp to
    their bounds; the categorical block snaps to the nearest vertex with
    ties broken toward the lowest combination index.
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (plan.latent_dim,):
        raise ValueError(f"expected latent shape ({plan.latent_dim},), got {z.shape}")
    # Runs once per subproblem evaluation: clamp and scale on Python floats,
    # the same arithmetic as on numpy scalars at a fraction of the overhead.
    given = z.tolist()
    zs = [min(max(c, 0.0), 1.0) for c in given]
    if zs != given and ((z < -CLAMP_TOL).any() or (z > 1 + CLAMP_TOL).any()):
        logger.warning("latent point outside the unit cube clamped (max excursion %.3g)",
                       float(np.maximum(z - 1, -z).max()))

    x: dict = {}
    for vi, offset, width in plan.numeric_slots:
        v = plan.variables[vi]
        if v.kind == "custom":
            x[v.name] = v.embedder.from_latent(np.array(zs[offset:offset + width]))
        elif v.kind == "integer":
            raw = v.lower + zs[offset] * (v.upper - v.lower)
            x[v.name] = int(min(max(_round_half_away(raw), v.lower), v.upper))
        else:
            # lower + 1.0*(upper-lower) can overshoot upper by float dust,
            # which a strict re-embed would then reject.
            raw = v.lower + zs[offset] * (v.upper - v.lower)
            x[v.name] = float(min(max(raw, v.lower), v.upper))
    if plan.combo_count:
        block = np.array(zs[plan.categorical_offset:])
        # Squared distances to the simplex vertices: the origin, then e_j.
        base = float(block @ block)
        dists = np.concatenate(([base], base - 2.0 * block + 1.0))
        j = int(np.argmin(dists))
        x.update(_decode_combo(plan, j))
    return x


def pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances (A, B) between the rows of ``a`` and the rows of ``b``.

    Each distance sums the squared coordinate differences in coordinate
    order and then takes the square root: the order of scipy's ``cdist``,
    whose bits it gives, and the same bits whichever point comes first.
    The sums are built in the result by whole-block passes.  A distance
    that overflows is inf, as in ``cdist``.
    """
    a_t = np.ascontiguousarray(np.asarray(a, dtype=float).T)
    b_t = np.ascontiguousarray(np.asarray(b, dtype=float).T)
    out = np.empty((a_t.shape[1], b_t.shape[1]))
    if not len(a_t):
        out.fill(0.0)
    diff = np.empty(out.shape) if len(a_t) > 1 else None
    with np.errstate(over="ignore"):  # an inf distance, as cdist gives it
        for k, (ak, bk) in enumerate(zip(a_t, b_t)):
            square = diff if k else out
            np.subtract.outer(ak, bk, out=square)
            np.square(square, out=square)
            if k:
                out += square
    return np.sqrt(out, out=out)
