"""Scalarizations that turn the multiobjective problem into inner solves.

Each acquisition slot is refreshed once per iteration into a concrete
``ScalarizationState`` and then drives one surrogate subproblem.  Three
kinds are supported:

* ``fixed_weight``: a constant nonnegative weight vector.
* ``random_weight``: fresh weights uniform on the simplex each
  iteration (normalized unit-rate exponential draws).
* ``random_epsilon_constraint``: minimize one randomly chosen objective
  subject to the others staying below an anchor drawn from the feasible
  archive, enforced by a one-sided penalty with slope ``RHO``.  The
  anchor interpolates between two independently chosen archive points,
  so roughly half the draws sit on a known solution and the rest sit in
  the gaps between known solutions, pulling new solves into unexplored
  stretches of the tradeoff surface instead of re-converging onto
  already archived points.

The penalty is the softplus ``w_j * log(1 + exp((f_j - eps_j) / w_j))``,
a hinge ``max(f_j - eps_j, 0)`` smoothed over a width ``w_j`` of
``WIDTH_FRACTION`` of objective j's spread over the archive, so it
scales with the objectives.  The inner solve is a quasi-Newton method,
and at the kink of an exact hinge its steps fail the line search until
they are tiny; the smooth penalty has a gradient everywhere.
``stack_states`` lays states out as one ``(S, 4, o)`` table, which
``scalarize_stack`` and its gradient score rows under in one array
pass; ``scalarize`` goes through them too, and the start selection
scores every slot's state against every record in one pass.  The
gradient's logistic function (the softplus' derivative) is computed
with libm's ``exp`` (``_expit``), which gives the bits of
``scipy.special.expit`` without importing ``scipy.special``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problem import AcquisitionSpec, EvaluationDatabase

#: Slope of the epsilon-constraint violation penalty.
RHO = 100.0
#: Width of the smoothed penalty, as a fraction of each objective's archive spread.
WIDTH_FRACTION = 0.01
#: Width for an objective whose archive values do not spread, such as a single point.
FALLBACK_WIDTH = 0.01


@dataclass(frozen=True)
class ScalarizationState:
    """A concrete scalarization for one iteration of one acquisition.

    ``widths`` are the epsilon kind's per-objective penalty widths;
    ``refresh`` sets them from the archive, and None stands for
    ``FALLBACK_WIDTH`` on every objective.
    """

    kind: str
    weights: np.ndarray | None = None
    target: int | None = None
    epsilons: np.ndarray | None = None
    widths: np.ndarray | None = None

    def __post_init__(self):
        if self.widths is not None:
            widths = np.asarray(self.widths, dtype=float)
            if not (np.isfinite(widths) & (widths > 0.0)).all():
                raise ValueError("penalty widths must be finite and > 0")


def refresh(spec: AcquisitionSpec, archive, rng: np.random.Generator,
            n_objectives: int) -> ScalarizationState:
    """Draw this iteration's scalarization for one acquisition slot."""
    if spec.kind == "fixed_weight":
        return ScalarizationState("fixed_weight", weights=np.asarray(spec.weights, dtype=float))
    if spec.kind == "random_weight":
        return _random_weights(rng, n_objectives)
    if spec.kind == "random_epsilon_constraint":
        if len(archive) == 0:
            # Nothing feasible yet to anchor the constraints on.
            return _random_weights(rng, n_objectives)
        first = archive.objectives[rng.integers(len(archive))]
        second = archive.objectives[rng.integers(len(archive))]
        mix = rng.uniform()
        anchor = mix * first + (1.0 - mix) * second
        target = int(rng.integers(n_objectives))
        # A spread that overflows is taken over the scaled objectives; a
        # width that is not > 0 (no spread, or one that underflows) falls back.
        widths = WIDTH_FRACTION * np.ptp(archive.objectives, axis=0)
        widths = np.where(np.isfinite(widths), widths,
                          np.ptp(WIDTH_FRACTION * archive.objectives, axis=0))
        return ScalarizationState("random_epsilon_constraint", target=target, epsilons=anchor,
                                  widths=np.where(widths > 0.0, widths, FALLBACK_WIDTH))
    raise ValueError(f"unknown acquisition kind {spec.kind!r}")


def _random_weights(rng, n_objectives):
    e = rng.exponential(1.0, n_objectives)
    return ScalarizationState("random_weight", weights=e / e.sum())


def scalarize(state: ScalarizationState, f: np.ndarray) -> float:
    """Collapse an objective vector to a scalar.

    Weight kinds give ``w.f``; the epsilon-constraint kind gives
    ``f[t] + RHO * sum_j w_j * log(1 + exp((f[j] - eps[j]) / w_j))``
    over the non-target objectives, with ``w`` the state's widths: a
    hinge ``max(f[j] - eps[j], 0)`` smoothed over about ``w_j``.
    """
    f = np.asarray(f, dtype=float)
    return float(scalarize_stack(stack_states([state], len(f)), np.zeros(1, dtype=np.intp),
                                 f[None])[0])


def stack_states(states, n_objectives: int) -> np.ndarray:
    """The states as one table (S, 4, o), so rows of different slots scalarize in one pass.

    Every kind is a linear form plus a smoothed epsilon penalty,
    ``w @ f + RHO * p @ (c * softplus((f - eps) / c))`` with
    ``softplus(u) = log(1 + exp(u))``: the weight kinds have ``p = 0``
    (and ``c = 1``, which then counts for nothing); the
    epsilon-constraint kind has for ``w`` the unit vector of its target,
    for ``p`` ones on the other objectives and for ``c`` its widths.
    ``table[i]`` holds the rows ``(w, eps, p, c)`` of ``states[i]``.
    """
    table = np.zeros((len(states), 4, n_objectives))
    table[:, 3] = 1.0
    for row, state in zip(table, states):
        if state.weights is not None:
            row[0] = state.weights
        else:
            row[0, state.target] = 1.0
            row[1] = state.epsilons
            row[2] = 1.0
            row[2, state.target] = 0.0
            row[3] = FALLBACK_WIDTH if state.widths is None else state.widths
    return table


def scalarize_stack(table: np.ndarray, slots: np.ndarray, objs: np.ndarray) -> np.ndarray:
    """``scalarize`` of each row ``objs[r]`` under state ``slots[r]`` of ``table``.

    One array pass over all rows.  ``vecdot`` takes the same dot product
    per row as ``w @ f`` does for one vector (a ``(B, o) @ (o,)`` product
    rounds differently).
    """
    w, eps, p, c = table[slots].transpose(1, 0, 2)
    return np.vecdot(objs, w) + RHO * np.vecdot(c * np.logaddexp(0.0, (objs - eps) / c), p)


def scalarize_stack_gradient(table: np.ndarray, slots: np.ndarray,
                             objs: np.ndarray) -> np.ndarray:
    """d(scalarize)/df at each row ``objs[r]`` under state ``slots[r]`` of ``table``: (B, o)."""
    w, eps, p, c = table[slots].transpose(1, 0, 2)
    t = (objs - eps) / c
    return w + RHO * (np.fromiter(map(_expit, t.ravel().tolist()), float, t.size)
                      .reshape(t.shape) * p)


def _expit(x: float) -> float:
    """The logistic function ``1 / (1 + exp(-x))``, with libm's ``exp``.

    These are the bits of ``scipy.special.expit``; numpy's own ``exp``
    differs from libm's in the last bit for some arguments.  An ``exp``
    that overflows gives 0.0, as ``1 / (1 + inf)`` does.
    """
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:
        return 0.0


def select_start(states, database: EvaluationDatabase, penalty_lambda: float) -> list[int]:
    """Index of the evaluated record to center each state's solve on, one per state.

    The best feasible record under the state's scalarization; with
    nothing feasible, the best scalarized-plus-penalized-violation
    record.  Ties go to the earliest record.  Every state scores every
    record in one ``scalarize_stack`` pass.
    """
    if len(database) == 0:
        raise ValueError("cannot select a start point from an empty database")
    objs, feas = database.objective_matrix(), database.feasible_mask()
    rows = np.flatnonzero(feas) if feas.any() else np.arange(len(objs))
    scores = scalarize_stack(stack_states(states, objs.shape[1]),
                             np.arange(len(states)).repeat(len(rows)),
                             np.tile(objs[rows], (len(states), 1))).reshape(-1, len(rows))
    if not feas.any():
        scores += penalty_lambda * np.maximum(database.constraint_matrix(), 0.0).sum(axis=1)
    return rows[np.argmin(scores, axis=1)].tolist()
