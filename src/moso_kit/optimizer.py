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

The backtracking trials ``alpha = 2**-j`` are evaluated in blocks: one
surrogate prediction for the whole block, each term's row form (or its
``func`` per row), then the penalty and the scalarization over the rows
as arrays.  The first block of an iteration holds as many trials as the
previous iteration needed, later blocks ``TRIAL_BLOCK``.  The first
trial in sequence order that passes is accepted, so blocks change which
points are evaluated, not which one is taken.

Each slot's BFGS runs as a generator (``_bfgs``) that yields its
requests: a block of trial rows, or one point that needs the value and
the gradient.  ``solve_batch`` drives the slots that share one set of
surrogates in lockstep and answers each round's requests together
(``_answer``): one prediction of the stacked rows, one Jacobian call for
the stacked gradient points, one call of each term's row form and one
penalty, then each slot's scalarization of its own rows.  Term gradients
and the chain rule stay per slot.  ``solve`` is the one-slot case, and
``value``, ``value_rows`` and ``value_and_grad`` answer one request of
one slot, so there is one BFGS, one line search and one evaluation path.
A stacked row rounds by the rows it shares a matrix product with, so
lockstep changes the last bits of the values, not the logic.
``check_config`` rejects an ``OptimizerConfig`` that would make every
inner solve degenerate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import embedding
from .acquisition import ScalarizationState, scalarize, scalarize_gradient, scalarize_rows
from .problem import Moop, ValidationError
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


def _real(value) -> bool:
    """True for a finite int or float that is not a bool."""
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, (bool, np.bool_)) and bool(np.isfinite(value)))


def check_config(config: OptimizerConfig) -> OptimizerConfig:
    """``config`` when every field is usable, else a ValidationError naming the first bad one."""
    bad = None
    if (not isinstance(config.max_iterations, (int, np.integer))
            or isinstance(config.max_iterations, bool) or config.max_iterations < 0):
        bad = "max_iterations must be an integer >= 0"
    elif not (_real(config.armijo_c) and 0.0 < config.armijo_c < 1.0):
        bad = "armijo_c must be in (0, 1)"
    elif not (_real(config.grad_tol) and config.grad_tol >= 0.0):
        bad = "grad_tol must be finite and >= 0"
    elif not (_real(config.decrease_factor) and config.decrease_factor >= 0.0):
        bad = "decrease_factor must be finite and >= 0"
    elif not (_real(config.fd_step) and 0.0 < config.fd_step < 0.5):
        bad = "fd_step must be in (0, 0.5)"
    elif not _real(config.kappa):
        bad = "kappa must be finite"
    if bad is not None:
        raise ValidationError(f"optimizer config: {bad}")
    return config


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

    def _predict_rows(self, points):
        if not self.surrogates:
            return np.empty((len(points), 0))
        return np.hstack([s.evaluate_rows(points) for s in self.surrogates])

    def _jacobian_rows(self, points):
        if not self.surrogates:
            return np.empty((len(points), 0, points.shape[1]))
        return np.concatenate([s.gradient_rows(points) for s in self.surrogates], axis=1)

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

    def _terms(self, points, preds):
        """Designs and term values (B, terms) at the rows of ``points``.

        A term's row form covers the block in one call; a term without
        one runs ``func`` per row on the extracted design.
        """
        if self._reads_design:
            designs = [embedding.extract(self.plan, z) for z in points]
        else:
            designs = [{}] * len(points)
        t = np.empty((len(points), len(self.terms)))
        for j, spec in enumerate(self.terms):
            if spec.rows is not None:
                t[:, j] = spec.rows(preds)
            else:
                t[:, j] = [spec.func(x, s) for x, s in zip(designs, preds)]
        return designs, t

    def _penalize(self, t):
        """Objective rows plus ``lam`` times each row's total constraint violation."""
        o = self.moop.o
        if not self.moop.p:
            return t[:, :o]
        return t[:, :o] + self.lam * np.maximum(t[:, o:], 0.0).sum(axis=1, keepdims=True)

    def _bonus(self):
        return self.state.kappa != 0.0 and self.state.weights is not None

    def _scalarize(self, points, f):
        """This slot's scalarization of the penalized objective rows ``f``."""
        if self._bonus():
            return np.array([scalarize(self.state, fv, self._sigma(self._uncertainty(z)))
                             for z, fv in zip(points, f)])
        return scalarize_rows(self.state, f)

    def value_rows(self, points: np.ndarray) -> np.ndarray:
        """``value`` at each latent row of ``points`` (B, l), from one block prediction."""
        return _answer([self], [np.asarray(points, dtype=float)])[0]

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
        return _answer([self], [np.asarray(z, dtype=float)])[0]

    def _value_and_grad(self, z, x, s, t, f_pen, js):
        """Value and gradient at ``z``.

        ``x`` is the design at ``z``, ``s`` the prediction, ``t`` the term
        values, ``f_pen`` the penalized objectives (1, o) and ``js`` the
        prediction Jacobian, all as ``_answer`` computed them.
        """
        # One row per term; an inactive constraint keeps a zero row.
        o = self.moop.o
        jac = np.zeros((len(self.terms), len(z)))
        fd_rows = []
        for j, spec in enumerate(self.terms):
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
            self._fd_fill(z, x, jac, fd_rows)

        df_pen = jac[:o] + self.lam * jac[o:].sum(axis=0)
        grad = scalarize_gradient(self.state, f_pen[0]) @ df_pen
        if not self._bonus():
            return float(scalarize_rows(self.state, f_pen)[0]), grad
        u = self._uncertainty(z)
        grad -= self.state.kappa * (self.state.weights @ self._sigma_jacobian(z, u))
        return scalarize(self.state, f_pen[0], self._sigma(u)), grad

    def _fd_fill(self, z, x, jac, rows):
        """Forward differences on the latent cube for the gradless ``rows``.

        The base values come from a one-point prediction at ``z`` like the
        stepped ones, not from the stacked block: a row's rounding depends
        on the rows it shares a block with, and a difference over ``h``
        magnifies it.
        """
        h = self.config.fd_step
        s = self._predict(z)
        t = {j: self.terms[j].func(x, s) for j in rows}
        for i in range(len(z)):
            step = h if z[i] + h <= 1.0 else -h
            z2 = z.copy()
            z2[i] += step
            x2 = self._smooth_design(z2, x)
            s2 = self._predict(z2)
            for j in rows:
                jac[j, i] = (self.terms[j].func(x2, s2) - t[j]) / step


def _answer(evs, requests):
    """Answer one request per evaluator from one prediction of all their rows.

    A request is a block of latent rows (B, l), answered with their
    values, or one gradient point (l,), answered with ``(value,
    gradient)``.  The evaluators share the problem, the surrogates and
    ``lam``, so the rows of every request are stacked for one surrogate
    prediction, one Jacobian of the gradient points, one call of each
    term's row form and one penalty; each slot then scalarizes its own
    rows, and term gradients and the chain rule run per gradient point.
    """
    ev = evs[0]
    blocks = [r if r.ndim == 2 else r[None] for r in requests]
    points = blocks[0] if len(blocks) == 1 else np.vstack(blocks)
    preds = ev._predict_rows(points)
    designs, t = ev._terms(points, preds)
    f = ev._penalize(t)
    gradient_points = [r for r in requests if r.ndim == 1]
    if gradient_points:
        js = iter(ev._jacobian_rows(np.array(gradient_points)))
    answers, at = [], 0
    for e, r, block in zip(evs, requests, blocks):
        rows = slice(at, at + len(block))
        if r.ndim == 2:
            answers.append(e._scalarize(block, f[rows]))
        else:
            answers.append(e._value_and_grad(r, designs[at], preds[at], t[at], f[rows], next(js)))
        at += len(block)
    return answers


def _line_search(z, f, g, d, lo, hi, armijo_c, first_block):
    """Armijo backtracking along ``alpha = 2**-j`` for ``j < MAX_TRIALS``, in blocks.

    A generator: it yields each block of trial rows and is sent their
    values.  Returns ``(z_new, f_new, j + 1)`` for the first trial ``j``
    in sequence order that passes, or None once a trial no longer moves
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
            values = yield trials[:n]
            passed = values <= f + armijo_c * (steps[:n] @ g)
            if passed.any():
                i = int(passed.argmax())
                return trials[i], float(values[i]), j + i + 1
        if n < len(alphas):
            return None
        j, size = j + n, TRIAL_BLOCK
    return None


def _bfgs(z_start, region: TrustRegion, config: OptimizerConfig):
    """One slot's projected BFGS as a generator of evaluation requests.

    Yields a gradient point, to be sent its ``(value, gradient)``, or a
    block of line-search trials, to be sent their values (see
    ``_answer``), and returns the ``SolveOutcome``.
    """
    lo, hi = region.bounds()
    z = np.clip(np.asarray(z_start, dtype=float), lo, hi)
    f, g = yield z
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

        accepted = yield from _line_search(z, f, g, d, lo, hi, config.armijo_c, first_block)
        if accepted is None:
            break
        z_new, f_new, first_block = accepted
        if f - f_new <= config.decrease_factor * max(1.0, abs(f_new)):
            z, f = z_new, f_new
            break
        g_new = (yield z_new)[1]
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


def solve_batch(moop: Moop, states, surrogates, starts, regions, lam: float,
                config: OptimizerConfig = OptimizerConfig()) -> list[SolveOutcome]:
    """``solve`` for several slots that share ``surrogates``, in lockstep.

    Slot i minimizes under ``states[i]`` from ``starts[i]`` inside
    ``regions[i]``.  Each round advances every unfinished slot to its
    next request and answers all of them together (``_answer``).
    Returns one outcome per slot, in order.
    """
    evs = [SubproblemEvaluator(moop, state, surrogates, lam, config) for state in states]
    runs = [_bfgs(z, region, config) for z, region in zip(starts, regions)]
    requests = [next(run) for run in runs]
    outcomes = [None] * len(runs)
    live = list(range(len(runs)))
    while live:
        answers = _answer([evs[i] for i in live], [requests[i] for i in live])
        still = []
        for i, answer in zip(live, answers):
            try:
                requests[i] = runs[i].send(answer)
                still.append(i)
            except StopIteration as done:
                outcomes[i] = done.value
        live = still
    return outcomes


def solve(moop: Moop, state: ScalarizationState, surrogates, z_start, region: TrustRegion,
          lam: float, config: OptimizerConfig = OptimizerConfig()) -> SolveOutcome:
    """Projected BFGS over the trust-region box.

    Iterates until the projected gradient vanishes, the line search
    fails, ``max_iterations`` is reached, or an accepted step lowers the
    value by at most ``decrease_factor * max(1, |new value|)``.  Returns
    a candidate when the final value improves on the start by at least
    ``decrease_factor * max(1, |start|)``; otherwise the candidate is
    None and a model-improvement point should be generated instead.
    This is the one-slot case of ``solve_batch``.
    """
    return solve_batch(moop, [state], surrogates, [z_start], [region], lam, config)[0]
