"""Inner solver for the penalized scalarized surrogate subproblem.

Each acquisition minimizes, over a trust-region box inside the latent
cube,

    scalarize(F(extract(z), S_hat(z)) + lam * total_violation(z))

where S_hat stacks the per-simulation surrogate predictions and the
total constraint violation is added to every objective.  Gradients flow
through the surrogate Jacobians and the objective/constraint gradients,
with a forward finite-difference fallback on the latent cube for
anything that does not supply one.  The solve itself is a projected
BFGS with Armijo backtracking.  It stops once an accepted step lowers
the value by no more than ``decrease_factor`` relative to the new value,
the relative-reduction test of L-BFGS-B: near the kink of an
epsilon-constraint scalarization the steps otherwise keep shrinking and
each costs up to 40 line-search trials.

The backtracking trials ``alpha = 2**-j`` are evaluated in blocks by
``SubproblemEvaluator.value_rows``: one surrogate prediction for the
whole block, the terms per row, then the penalty and the scalarization
over the rows as arrays.  The first block of an iteration holds as many
trials as the previous iteration needed, later blocks ``TRIAL_BLOCK``.
The first trial in sequence order that passes is accepted, so blocks
change which points are evaluated, not which one is taken.  ``value`` is
the one-row case of ``value_rows``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import embedding
from .acquisition import ScalarizationState, scalarize, scalarize_gradient, scalarize_rows
from .problem import Moop
from .surrogate import TrustRegion

#: Backtracking trials per BFGS iteration, at most.
MAX_TRIALS = 40
#: Trials per line-search block after the first.
TRIAL_BLOCK = 4


@dataclass(frozen=True)
class OptimizerConfig:
    max_iterations: int = 100
    armijo_c: float = 1e-4
    grad_tol: float = 1e-8
    #: relative decrease needed to return a candidate instead of
    #: requesting a model-improvement step; an accepted step that
    #: decreases the value by no more than this also ends the iterations
    decrease_factor: float = 1e-8
    fd_step: float = 1e-6
    kappa: float = 0.0


@dataclass
class SolveOutcome:
    candidate: np.ndarray | None
    value: float
    start_value: float
    iterations: int


class SubproblemEvaluator:
    """Penalized scalarized surrogate landscape over the latent box."""

    def __init__(self, moop: Moop, state: ScalarizationState, surrogates,
                 lam: float, config: OptimizerConfig = OptimizerConfig()):
        self.moop = moop
        self.plan = moop.plan
        self.state = state
        self.surrogates = tuple(surrogates)
        self.lam = lam
        self.config = config
        # Latent coordinates that extract differentiably: continuous slots.
        self._chain = [
            (self.plan.variables[vi].name, offset,
             self.plan.variables[vi].upper - self.plan.variables[vi].lower,
             self.plan.variables[vi].lower)
            for vi, offset, width in self.plan.numeric_slots
            if self.plan.variables[vi].kind == "continuous"
        ]
        self.terms = moop.objectives + moop.constraints
        # Extraction runs at every trial point, so skip it when no term
        # declares that it reads the design.
        self._reads_design = any(spec.reads_design for spec in self.terms)

    def _predict(self, z):
        if not self.surrogates:
            return np.empty(0)
        return np.concatenate([s.evaluate(z) for s in self.surrogates])

    def _predict_jacobian(self, z):
        if not self.surrogates:
            return np.empty((0, len(z)))
        return np.vstack([s.gradient(z) for s in self.surrogates])

    def _smooth_design(self, z, base):
        """Extraction with only the continuous coordinates live.

        Integer, categorical, and custom values stay frozen at ``base``
        so finite differences never step across a snapping boundary;
        their relaxed derivative is zero anyway.
        """
        x = dict(base)
        for name, offset, span, lower in self._chain:
            x[name] = float(lower + np.clip(z[offset], 0.0, 1.0) * span)
        return x

    def _penalize(self, t):
        """Objective rows plus ``lam`` times each row's total constraint violation."""
        o = self.moop.o
        if not self.moop.p:
            return t[:, :o]
        return t[:, :o] + self.lam * np.maximum(t[:, o:], 0.0).sum(axis=1, keepdims=True)

    def _design(self, z):
        return embedding.extract(self.plan, z) if self._reads_design else {}

    def _bonus(self):
        return self.state.kappa != 0.0 and self.state.weights is not None

    def value_rows(self, points: np.ndarray) -> np.ndarray:
        """``value`` at each latent row of ``points`` (B, l), from one block prediction."""
        points = np.asarray(points, dtype=float)
        if self.surrogates:
            preds = np.hstack([s.evaluate_rows(points) for s in self.surrogates])
        else:
            preds = np.empty((len(points), 0))
        t = np.array([[spec.func(x, s) for spec in self.terms]
                      for x, s in zip(map(self._design, points), preds)], dtype=float)
        f = self._penalize(t)
        if self._bonus():
            return np.array([scalarize(self.state, fv, self._sigma(self._uncertainty(z)))
                             for z, fv in zip(points, f)])
        return scalarize_rows(self.state, f)

    def value(self, z: np.ndarray) -> float:
        return float(self.value_rows(np.asarray(z, dtype=float)[None])[0])

    def _uncertainty(self, z):
        if not self.surrogates:
            return np.empty(0)
        return np.concatenate([s.uncertainty(z) for s in self.surrogates])

    def _sigma(self, u):
        # Uncertainty enters the scalarization per objective; objectives
        # see the sim-output uncertainties only through their own reads,
        # so expose a conservative uniform proxy: the max output spread.
        return np.full(self.moop.o, float(u.max()) if u.size else 0.0)

    def _sigma_jacobian(self, z, u):
        if u.size == 0:
            return np.zeros((self.moop.o, len(z)))
        grads = np.vstack([s.uncertainty_gradient(z) for s in self.surrogates])
        row = grads[int(np.argmax(u))]
        return np.tile(row, (self.moop.o, 1))

    def value_and_grad(self, z: np.ndarray) -> tuple[float, np.ndarray]:
        dim = len(z)
        x = self._design(z)
        s = self._predict(z)
        js = self._predict_jacobian(z)

        # One row per term; an inactive constraint keeps a zero row.
        o = self.moop.o
        t = np.empty(len(self.terms))
        jac = np.zeros((len(self.terms), dim))
        fd_rows = []
        for j, spec in enumerate(self.terms):
            t[j] = spec.func(x, s)
            if j >= o and t[j] <= 0.0:
                continue
            if spec.grad is None:
                fd_rows.append(j)
                continue
            dx, ds = spec.grad(x, s)
            jac[j] = np.asarray(ds, dtype=float) @ js
            for name, offset, span, lower in self._chain:
                partial = dx.get(name)
                if partial:
                    jac[j, offset] += partial * span
        if fd_rows:
            self._fd_fill(z, x, t, jac, fd_rows)

        f_pen = self._penalize(t[None])
        df_pen = jac[:o] + self.lam * jac[o:].sum(axis=0)
        grad = scalarize_gradient(self.state, f_pen[0]) @ df_pen
        if not self._bonus():
            return float(scalarize_rows(self.state, f_pen)[0]), grad
        u = self._uncertainty(z)
        grad -= self.state.kappa * (self.state.weights @ self._sigma_jacobian(z, u))
        return scalarize(self.state, f_pen[0], self._sigma(u)), grad

    def _fd_fill(self, z, x, t, jac, rows):
        """Forward differences on the latent cube for the gradless ``rows``."""
        h = self.config.fd_step
        for i in range(len(z)):
            step = h if z[i] + h <= 1.0 else -h
            z2 = z.copy()
            z2[i] += step
            x2 = self._smooth_design(z2, x)
            s2 = self._predict(z2)
            for j in rows:
                jac[j, i] = (self.terms[j].func(x2, s2) - t[j]) / step


def _line_search(ev, z, f, g, d, lo, hi, armijo_c, first_block):
    """Armijo backtracking along ``alpha = 2**-j`` for ``j < MAX_TRIALS``, in blocks.

    Returns ``(z_new, f_new, j + 1)`` for the first trial ``j`` in
    sequence order that passes, or None once a trial no longer moves
    ``z`` or every trial fails.  The first block holds ``first_block``
    trials, later ones ``TRIAL_BLOCK``.
    """
    j, size = 0, first_block
    while j < MAX_TRIALS:
        alphas = 0.5 ** np.arange(j, min(j + size, MAX_TRIALS))
        # np.minimum/np.maximum give np.clip's values at less overhead.
        trials = np.minimum(np.maximum(z + alphas[:, None] * d, lo), hi)
        steps = trials - z
        moved = steps.any(axis=1)
        n = len(alphas) if moved.all() else int(moved.argmin())
        if n:
            values = ev.value_rows(trials[:n])
            passed = values <= f + armijo_c * (steps[:n] @ g)
            if passed.any():
                i = int(passed.argmax())
                return trials[i], float(values[i]), j + i + 1
        if n < len(alphas):
            return None
        j, size = j + n, TRIAL_BLOCK
    return None


def solve(moop: Moop, state: ScalarizationState, surrogates, z_start, region: TrustRegion,
          lam: float, config: OptimizerConfig = OptimizerConfig()) -> SolveOutcome:
    """Projected BFGS over the trust-region box.

    Iterates until the projected gradient vanishes, the line search
    fails, ``max_iterations`` is reached, or an accepted step lowers the
    value by at most ``decrease_factor * max(1, |new value|)``.  Returns
    a candidate when the final value improves on the start by at least
    ``decrease_factor * max(1, |start|)``; otherwise the candidate is
    None and a model-improvement point should be generated instead.
    """
    ev = SubproblemEvaluator(moop, state, surrogates, lam, config)
    lo, hi = region.bounds()
    z = np.clip(np.asarray(z_start, dtype=float), lo, hi)
    f, g = ev.value_and_grad(z)
    f_start = f
    h_inv = np.eye(len(z))
    iterations = 0
    first_block = TRIAL_BLOCK

    for _ in range(config.max_iterations):
        pg = z - np.clip(z - g, lo, hi)
        if np.linalg.norm(pg) <= config.grad_tol:
            break
        iterations += 1
        d = -(h_inv @ g)
        if d @ g >= 0.0:
            h_inv = np.eye(len(z))
            d = -g

        accepted = _line_search(ev, z, f, g, d, lo, hi, config.armijo_c, first_block)
        if accepted is None:
            break
        z_new, f_new, first_block = accepted
        if f - f_new <= config.decrease_factor * max(1.0, abs(f_new)):
            z, f = z_new, f_new
            break
        g_new = ev.value_and_grad(z_new)[1]
        step = z_new - z
        y = g_new - g
        sy = step @ y
        if sy > 1e-12:
            rho = 1.0 / sy
            outer = np.outer(step, y)
            h_inv = ((np.eye(len(z)) - rho * outer) @ h_inv @ (np.eye(len(z)) - rho * outer.T)
                     + rho * np.outer(step, step))
        z, f, g = z_new, f_new, g_new

    improved = f <= f_start - config.decrease_factor * max(1.0, abs(f_start))
    return SolveOutcome(
        candidate=z if improved else None,
        value=f,
        start_value=f_start,
        iterations=iterations,
    )
