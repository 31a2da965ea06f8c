"""Scalarizations that turn the multiobjective problem into inner solves.

Each acquisition slot is refreshed once per iteration into a concrete
``ScalarizationState`` and then drives one surrogate subproblem.  Three
kinds are supported:

* ``fixed_weight``: a constant nonnegative weight vector.
* ``random_weight``: fresh weights uniform on the simplex each
  iteration (normalized unit-rate exponential draws).
* ``random_epsilon_constraint``: minimize one randomly chosen objective
  subject to the others staying below an anchor drawn from the feasible
  archive, enforced by a one-sided penalty with slope ``rho``.  The
  anchor interpolates between two independently chosen archive points,
  so roughly half the draws sit on a known solution and the rest sit in
  the gaps between known solutions, pulling new solves into unexplored
  stretches of the tradeoff surface instead of re-converging onto
  already archived points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problem import AcquisitionSpec, EvaluationDatabase

#: Slope of the epsilon-constraint violation penalty.
RHO = 100.0


@dataclass(frozen=True)
class ScalarizationState:
    """A concrete scalarization for one iteration of one acquisition."""

    kind: str
    weights: np.ndarray | None = None
    target: int | None = None
    epsilons: np.ndarray | None = None
    kappa: float = 0.0


def refresh(spec: AcquisitionSpec, archive, rng: np.random.Generator,
            n_objectives: int, kappa: float = 0.0) -> ScalarizationState:
    """Draw this iteration's scalarization for one acquisition slot."""
    if spec.kind == "fixed_weight":
        return ScalarizationState("fixed_weight",
                                  weights=np.asarray(spec.weights, dtype=float),
                                  kappa=kappa)
    if spec.kind == "random_weight":
        return _random_weights(rng, n_objectives, kappa)
    if spec.kind == "random_epsilon_constraint":
        if len(archive) == 0:
            # Nothing feasible yet to anchor the constraints on.
            return _random_weights(rng, n_objectives, kappa)
        first = archive.objectives[rng.integers(len(archive))]
        second = archive.objectives[rng.integers(len(archive))]
        mix = rng.uniform()
        anchor = mix * first + (1.0 - mix) * second
        target = int(rng.integers(n_objectives))
        return ScalarizationState("random_epsilon_constraint",
                                  target=target,
                                  epsilons=anchor,
                                  kappa=kappa)
    raise ValueError(f"unknown acquisition kind {spec.kind!r}")


def _random_weights(rng, n_objectives, kappa):
    e = rng.exponential(1.0, n_objectives)
    return ScalarizationState("random_weight", weights=e / e.sum(), kappa=kappa)


def scalarize(state: ScalarizationState, f: np.ndarray, sigma: np.ndarray | None = None) -> float:
    """Collapse an objective vector (and optional uncertainties) to a scalar.

    Weight kinds give ``w.f - kappa * w.sigma``; the epsilon-constraint
    kind gives ``f[t] + RHO * sum_j max(f[j] - eps[j], 0)`` over the
    non-target objectives.
    """
    f = np.asarray(f, dtype=float)
    value = float(scalarize_rows(state, f[None])[0])
    if state.weights is not None and state.kappa != 0.0 and sigma is not None:
        value -= state.kappa * float(state.weights @ sigma)
    return value


def scalarize_gradient(state: ScalarizationState, f: np.ndarray) -> np.ndarray:
    """d(scalarize)/df at ``f`` (subgradient at the penalty kinks)."""
    f = np.asarray(f, dtype=float)
    return scalarize_stack_gradient(stack_states([state], len(f)), np.zeros(1, dtype=np.intp),
                                    f[None])[0]


def scalarize_rows(state: ScalarizationState, objs: np.ndarray) -> np.ndarray:
    """``scalarize`` of each row of ``objs`` (uncertainty zero): one state's ``scalarize_stack``."""
    objs = np.asarray(objs, dtype=float)
    return scalarize_stack(stack_states([state], objs.shape[1]),
                           np.zeros(len(objs), dtype=np.intp), objs)


@dataclass(frozen=True)
class ScalarizationStack:
    """States as one array, so rows of different slots scalarize in one pass.

    Every kind is a linear form plus an epsilon penalty,
    ``w @ f + RHO * p @ max(f - eps, 0)``: the weight kinds have ``p = 0``;
    the epsilon-constraint kind has for ``w`` the unit vector of its
    target and for ``p`` ones on the other objectives.  ``table[i]``
    holds the rows ``(w, eps, p)`` of ``states[i]``.
    """

    table: np.ndarray


def stack_states(states, n_objectives: int) -> ScalarizationStack:
    """The ``ScalarizationStack`` of ``states``, in order."""
    table = np.zeros((len(states), 3, n_objectives))
    for row, state in zip(table, states):
        if state.weights is not None:
            row[0] = state.weights
        else:
            row[0, state.target] = 1.0
            row[1] = state.epsilons
            row[2] = 1.0
            row[2, state.target] = 0.0
    return ScalarizationStack(table)


def scalarize_stack(stack: ScalarizationStack, slots: np.ndarray, objs: np.ndarray) -> np.ndarray:
    """``scalarize`` (uncertainty zero) of each row ``objs[r]`` under state ``slots[r]``.

    One array pass over all rows.  ``vecdot`` takes the same dot product
    per row as ``w @ f`` does for one vector (a ``(B, o) @ (o,)`` product
    rounds differently).
    """
    w, eps, p = stack.table[slots].transpose(1, 0, 2)
    return np.vecdot(objs, w) + RHO * np.vecdot(np.maximum(objs - eps, 0.0), p)


def scalarize_stack_gradient(stack: ScalarizationStack, slots: np.ndarray,
                             objs: np.ndarray) -> np.ndarray:
    """``scalarize_gradient`` at each row ``objs[r]`` under state ``slots[r]``: (B, o)."""
    w, eps, p = stack.table[slots].transpose(1, 0, 2)
    return w + RHO * ((objs > eps) * p)


def select_start(state: ScalarizationState, database: EvaluationDatabase,
                 penalty_lambda: float) -> int:
    """Index of the evaluated record to center this acquisition's solve on.

    The best feasible record under the scalarization (uncertainty zero);
    with nothing feasible, the best scalarized-plus-penalized-violation
    record.  Ties go to the earliest record.
    """
    if len(database) == 0:
        raise ValueError("cannot select a start point from an empty database")
    scores = scalarize_rows(state, database.objective_matrix())
    feas = database.feasible_mask()
    if feas.any():
        idx = np.flatnonzero(feas)
        return int(idx[np.argmin(scores[idx])])
    viol = np.maximum(database.constraint_matrix(), 0.0).sum(axis=1)
    return int(np.argmin(scores + penalty_lambda * viol))
