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
    if state.weights is not None:
        value = float(state.weights @ f)
        if state.kappa != 0.0 and sigma is not None:
            value -= state.kappa * float(state.weights @ sigma)
        return value
    over = np.maximum(f - state.epsilons, 0.0)
    over[state.target] = 0.0
    return float(f[state.target] + RHO * over.sum())


def scalarize_gradient(state: ScalarizationState, f: np.ndarray) -> np.ndarray:
    """d(scalarize)/df at ``f`` (subgradient at the penalty kinks)."""
    if state.weights is not None:
        return state.weights.copy()
    g = np.zeros(len(f))
    g[state.target] = 1.0
    active = f > state.epsilons
    active[state.target] = False
    g[active] += RHO
    return g


def scalarize_rows(state: ScalarizationState, objs: np.ndarray) -> np.ndarray:
    """``scalarize`` of each row of ``objs`` (uncertainty zero), bitwise.

    Both kinds run as one array pass.  The weight kinds take ``vecdot``,
    the same dot product per row as ``w @ f`` (a ``(B, o) @ (o,)``
    product rounds differently); the epsilon-constraint kind's row sums
    match the per-vector sums exactly.
    """
    if state.weights is not None:
        return np.vecdot(objs, state.weights)
    over = np.maximum(objs - state.epsilons, 0.0)
    over[:, state.target] = 0.0
    return objs[:, state.target] + RHO * over.sum(axis=1)


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
