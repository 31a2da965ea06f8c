"""Inner solver for the penalized scalarized surrogate subproblem.

Each acquisition minimizes, over a trust-region box inside the latent
cube,

    scalarize(F(extract(z), S_hat(z)) + lam * total_violation(z))

where S_hat stacks the per-simulation surrogate predictions and the
total constraint violation is added to every objective.  Gradients flow
through the surrogates and the objective/constraint gradients, with a
forward finite-difference fallback on the latent cube for anything that
does not supply one.  The solve itself is a projected BFGS with Armijo
backtracking.  It stops once an accepted step stops paying: when it
lowers the value by no more than ``DECREASE_FACTOR`` relative to the
new value (the relative-reduction test of L-BFGS-B), or by no more than
``MIN_PROGRESS`` of the slot's total decrease so far.  The second test
does not depend on the scale of the values, and ends a solve whose
steps each buy less than a thousandth of what it has already gained.

``solve_batch`` solves every slot of an iteration at once, with array
state: the slots' points, values, gradients, inverse Hessians and boxes
sit in stacked arrays, and a slot that finishes leaves them.  A line
search computes all ``MAX_TRIALS`` backtracking trials
``alpha = 2**-j`` of every slot, their steps and their Armijo bounds
once, then evaluates them in blocks, as sub-rounds over the slots still
searching (``_line_search``).  A slot's first block holds one trial
more than its previous iteration needed, later blocks ``TRIAL_BLOCK``,
and the first trial in sequence order that passes is accepted, so
blocks change which points are evaluated, not which one is taken.

One ``_Stack`` holds every slot of the batch.  Each slot has its own
scalarization and its own models: a local refit, or the global ones.
A sub-round predicts its rows with one ``evaluate_rows`` per model,
calls each term's row form (or its ``func`` per row) once, adds the
penalty, and scalarizes every row in one array pass over the stacked
states (``acquisition.scalarize_stack``).  Gradients are vector-Jacobian
products: the scalarization's weight on each term times the term's
output gradient gives one weight row per slot, and one
``RbfSurrogate.vjp_rows`` per model contracts them, so no Jacobian is
formed.  Term ``grad``s, the design chain rule and finite differences
run per row; a finite difference predicts one row at a time with its
slot's models.  ``solve`` is the one-slot case, and
``SubproblemEvaluator``, the one-slot stack, evaluates one slot
through the same code, so there is one BFGS, one line search and one
evaluation path.  A stacked row rounds by the rows it shares a matrix
product with, so stacking changes the last bits of the values, not the
logic.

The inner solve has no settings.  Its constants below are module
attributes read at call time, and are part of the search: a resumed
run solves with the same ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import embedding
from .acquisition import (
    ScalarizationState,
    scalarize_stack,
    scalarize_stack_gradient,
    stack_states,
)
from .problem import Moop
from .surrogate import TrustRegion

#: Backtracking trials per BFGS iteration, at most.
MAX_TRIALS = 40
#: Trials per line-search block after the first.
TRIAL_BLOCK = 8
#: An accepted step that lowers a slot's value by no more than this
#: fraction of its total decrease so far ends the slot's solve.
MIN_PROGRESS = 1e-3
#: BFGS iterations per slot's solve, at most.
MAX_ITERATIONS = 100
#: Sufficient-decrease constant of the Armijo line search.
ARMIJO_C = 1e-4
#: A projected gradient no longer than this ends a slot's solve.
GRAD_TOL = 1e-8
#: Relative decrease needed to return a candidate instead of requesting
#: a model-improvement step; an accepted step that decreases the value
#: by no more than this also ends the iterations.
DECREASE_FACTOR = 1e-8
#: Forward-difference step on the latent cube, for terms without a gradient.
FD_STEP = 1e-6


@dataclass
class SolveOutcome:
    candidate: np.ndarray | None
    value: float
    start_value: float
    iterations: int


class _Stack:
    """The slots of one batch, evaluated over latent rows tagged by slot.

    Slot i scores under ``states[i]`` with the models ``surrogates[i]``.
    The slots share the problem and ``lam``, and slots that share a model
    object have their rows predicted together.
    """

    def __init__(self, moop: Moop, states, surrogates, lam: float):
        self.moop, self.lam = moop, lam
        self.plan, self.terms = moop.plan, moop.objectives + moop.constraints
        # Extraction runs at every trial point, so skip it when every term
        # has a row form: such a term reads only the outputs.
        self._needs_design = any(spec.rows is None for spec in self.terms)
        # Latent coordinates that extract differentiably: continuous slots.
        self._chain = [
            (self.plan.variables[vi].name, offset,
             self.plan.variables[vi].upper - self.plan.variables[vi].lower,
             self.plan.variables[vi].lower)
            for vi, offset, width in self.plan.numeric_slots
            if self.plan.variables[vi].kind == "continuous"
        ]
        self.scalarization = stack_states(states, moop.o)
        # Per model position: its output columns, the distinct models
        # there, and the index of each slot's model among them.
        self._models, at = [], 0
        for k, first in enumerate(surrogates[0]):
            models, label, index = [], np.empty(len(surrogates), dtype=np.intp), {}
            for i, slot_models in enumerate(surrogates):
                label[i] = index.setdefault(id(slot_models[k]), len(index))
                if label[i] == len(models):
                    models.append(slot_models[k])
            self._models.append((slice(at, at + first.output_dim), models, label))
            at += first.output_dim
        self._outputs = at
        # The one model every row is predicted with, if there is one.
        self._single = (self._models[0][1][0]
                        if len(self._models) == 1 and len(self._models[0][1]) == 1 else None)

    def _groups(self, slots):
        """``(columns, model, rows)`` for each model that some row of ``slots`` uses."""
        for cols, models, label in self._models:
            at = label[slots]
            for g in np.flatnonzero(np.bincount(at, minlength=len(models))):
                yield cols, models[g], at == g

    def _predict(self, slots, points):
        """Each row's prediction (B, m) by its slot's models, one block per model."""
        if self._single is not None:
            return self._single.evaluate_rows(points)
        preds = np.empty((len(points), self._outputs))
        for cols, model, rows in self._groups(slots):
            preds[rows, cols] = model.evaluate_rows(points[rows])
        return preds

    def _vjp(self, slots, points, weights):
        """Sum over the models of each row's ``weights @ Jacobian`` (B, l)."""
        if self._single is not None:
            return self._single.vjp_rows(points, weights)
        grad = np.zeros(points.shape)
        for cols, model, rows in self._groups(slots):
            grad[rows] += model.vjp_rows(points[rows], weights[rows, cols])
        return grad

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
        if self._needs_design:
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

    def _term_gradient(self, slot, z, x, s, w, ds, dz):
        """Fill in the gradients of the terms at slot ``slot``'s row ``z`` that ``w`` weighs.

        ``x`` is the design at ``z`` and ``s`` the prediction; ``w`` is
        each term's weight, and a term of weight zero is skipped.  Row j
        of ``ds`` (terms, m) receives term j's output partials, for the
        surrogates' vector-Jacobian products; ``dz`` (l,) accumulates the
        weighted design partials through the chain rule, plus the finite
        differences of the gradless terms.
        """
        fd_rows = []
        for j, (spec, weight) in enumerate(zip(self.terms, w)):
            if weight == 0.0:
                continue
            if spec.grad is None:
                fd_rows.append(j)
                continue
            dx, ds[j] = spec.grad(x, s)
            if dx:
                for name, offset, span, lower in self._chain:
                    partial = dx.get(name)
                    if partial:
                        dz[offset] += weight * partial * span
        if fd_rows:
            dz += np.asarray(w)[fd_rows] @ self._fd_rows(slot, z, x, fd_rows)

    def _fd_rows(self, slot, z, x, rows):
        """Forward differences (len(rows), l) on the latent cube for the gradless ``rows``.

        The base values come from a one-row prediction at ``z`` by the
        slot's models, like the stepped ones, not from the stacked block:
        a row's rounding depends on the rows it shares a block with, and a
        difference over ``h`` magnifies it.
        """
        h, slot = FD_STEP, np.array([slot])
        s = self._predict(slot, z[None])[0]
        base = [self.terms[j].func(x, s) for j in rows]
        jac = np.empty((len(rows), len(z)))
        for i in range(len(z)):
            step = h if z[i] + h <= 1.0 else -h
            z2 = z.copy()
            z2[i] += step
            x2 = self._smooth_design(z2, x)
            s2 = self._predict(slot, z2[None])[0]
            for r, j in enumerate(rows):
                jac[r, i] = (self.terms[j].func(x2, s2) - base[r]) / step
        return jac

    def values(self, slots, points):
        """The value at each latent row ``points[r]`` of slot ``slots[r]``."""
        preds = self._predict(slots, points)
        return scalarize_stack(self.scalarization, slots,
                               self._penalize(self._terms(points, preds)[1]))

    def values_and_grads(self, slots, points):
        """Values (B,) and gradients (B, l) at the rows ``points[r]`` of slots ``slots[r]``."""
        preds = self._predict(slots, points)
        designs, t = self._terms(points, preds)
        f = self._penalize(t)
        values = scalarize_stack(self.scalarization, slots, f)
        # The value's weight on each term: its objective's, and on an
        # active constraint lam times their sum, as the violation enters
        # every objective.
        w = np.zeros(t.shape)
        o = self.moop.o
        w[:, :o] = scalarize_stack_gradient(self.scalarization, slots, f)
        if self.moop.p:
            w[:, o:] = np.where(t[:, o:] > 0.0, self.lam * w[:, :o].sum(axis=1)[:, None], 0.0)
        ds, grads = np.zeros((*t.shape, self._outputs)), np.zeros(points.shape)
        for r, (slot, weights) in enumerate(zip(slots, w.tolist())):
            self._term_gradient(slot, points[r], designs[r], preds[r], weights, ds[r], grads[r])
        grads += self._vjp(slots, points, np.matmul(w[:, None], ds)[:, 0])
        return values, grads


class SubproblemEvaluator(_Stack):
    """Penalized scalarized surrogate landscape over the latent box, for one slot."""

    def __init__(self, moop: Moop, state: ScalarizationState, surrogates, lam: float):
        super().__init__(moop, [state], [surrogates], lam)

    def value(self, z: np.ndarray) -> float:
        return float(self.values(np.zeros(1, dtype=np.intp), np.asarray(z, dtype=float)[None])[0])

    def value_and_grad(self, z: np.ndarray) -> tuple[float, np.ndarray]:
        values, grads = self.values_and_grads(np.zeros(1, dtype=np.intp),
                                              np.asarray(z, dtype=float)[None])
        return float(values[0]), grads[0]


def _line_search(stack, slots, z, f, g, d, lo, hi, first_block):
    """Armijo backtracking along ``alpha = 2**-j`` for ``j < MAX_TRIALS``, for every row.

    Row i searches from ``z[i]`` (value ``f[i]``, gradient ``g[i]``)
    along ``d[i]`` inside ``[lo[i], hi[i]]`` for slot ``slots[i]``.  The
    trials and their Armijo bounds are computed once; each sub-round
    evaluates the next window of every row still searching in one
    ``stack.values`` call: ``first_block[i]`` trials first, then
    ``TRIAL_BLOCK``.  A row accepts its first trial in sequence order
    that passes, and fails at its first trial that does not move its
    point or once every trial fails.  Returns ``(accepted, z_new, f_new,
    count)``, with ``count`` the accepted trial's ``j + 1``.
    """
    k = np.arange(MAX_TRIALS)
    # np.minimum/np.maximum give np.clip's values at less overhead.
    trials = np.minimum(np.maximum(z[:, None] + (0.5 ** k)[:, None] * d[:, None],
                                   lo[:, None]), hi[:, None])
    steps = trials - z[:, None]
    moving = steps.any(axis=2)
    n_moving = np.where(moving.all(axis=1), MAX_TRIALS, moving.argmin(axis=1))
    bounds = f[:, None] + ARMIJO_C * np.vecdot(steps, g[:, None])
    values = np.full(moving.shape, np.nan)
    z_new, f_new, count = z.copy(), f.copy(), np.zeros(len(z), dtype=int)
    # Row i's window is [begin[i], end[i]); an empty one has stopped.
    begin, end = np.zeros(len(z), dtype=int), np.minimum(first_block, n_moving)
    while (end > begin).any():
        window = (k >= begin[:, None]) & (k < end[:, None])
        values[window] = stack.values(slots.repeat(end - begin), trials[window])
        passed = window & (values <= bounds)
        hit = passed.any(axis=1)
        at = passed.argmax(axis=1)[hit]
        z_new[hit], f_new[hit], count[hit] = trials[hit, at], values[hit, at], at + 1
        go_on = (end > begin) & ~hit
        begin, end = end, np.where(go_on, np.minimum(end + TRIAL_BLOCK, n_moving), end)
    return count > 0, z_new, f_new, count


def solve_batch(moop: Moop, states, surrogates, starts, regions, lam: float) -> list[SolveOutcome]:
    """``solve`` for several slots at once, with their BFGS state in stacked arrays.

    Slot i minimizes under ``states[i]``, with the models
    ``surrogates[i]``, from ``starts[i]`` inside ``regions[i]``.  Every
    BFGS iteration advances all unfinished slots together: one gradient
    evaluation of their points, one line search of sub-rounds over them
    (``_line_search``), and stacked inverse-Hessian updates.  Returns one
    outcome per slot, in order.
    """
    if not len(states):
        return []
    stack = _Stack(moop, states, surrogates, lam)
    lo, hi = (np.array(b) for b in zip(*(region.bounds() for region in regions)))
    z = np.clip(np.asarray(starts, dtype=float), lo, hi)
    n_slots, dim = z.shape
    # The working arrays hold the unfinished slots, ``slots`` naming each row's.
    slots = np.arange(n_slots)
    f, g = stack.values_and_grads(slots, z)
    f_start = f.copy()
    h_inv = np.tile(np.eye(dim), (n_slots, 1, 1))
    first_block = np.full(n_slots, TRIAL_BLOCK)
    iterations = np.zeros(n_slots, dtype=int)
    final_z, final_f = np.empty_like(z), np.empty_like(f)

    def retire(live, done):
        """Record the rows ``done`` of the working arrays as final; the rest, compacted."""
        if not done.any():
            return live
        final_z[live[0][done]], final_f[live[0][done]] = live[1][done], live[2][done]
        return tuple(a[~done] for a in live)

    live = slots, z, f, g, h_inv, lo, hi, first_block
    for _ in range(MAX_ITERATIONS):
        slots, z, f, g, h_inv, lo, hi, first_block = live
        pg = z - np.clip(z - g, lo, hi)
        live = retire(live, np.sqrt(np.vecdot(pg, pg)) <= GRAD_TOL)
        slots, z, f, g, h_inv, lo, hi, first_block = live
        if not slots.size:
            break
        iterations[slots] += 1
        d = -np.matmul(h_inv, g[:, :, None])[:, :, 0]
        uphill = np.vecdot(d, g) >= 0.0
        if uphill.any():
            h_inv[uphill] = np.eye(dim)
            d[uphill] = -g[uphill]

        accepted, z_new, f_new, count = _line_search(stack, slots, z, f, g, d, lo, hi,
                                                     first_block)
        first_block[accepted] = count[accepted] + 1
        gain = f - f_new
        small = accepted & ((gain <= DECREASE_FACTOR * np.maximum(1.0, np.abs(f_new)))
                            | (gain <= MIN_PROGRESS * (f_start[slots] - f_new)))
        z[small], f[small] = z_new[small], f_new[small]
        moving = accepted & ~small
        go = np.flatnonzero(moving)
        if go.size:
            g_new = stack.values_and_grads(slots[go], z_new[go])[1]
            step, y = z_new[go] - z[go], g_new - g[go]
            sy = np.vecdot(step, y)
            curved = sy > 1e-12
            if curved.any():
                rho = (1.0 / sy[curved])[:, None, None]
                s, y = step[curved], y[curved]
                a = np.eye(dim) - rho * (s[:, :, None] * y[:, None, :])
                h_inv[go[curved]] = (a @ h_inv[go[curved]] @ a.transpose(0, 2, 1)
                                     + rho * (s[:, :, None] * s[:, None, :]))
            z[go], f[go], g[go] = z_new[go], f_new[go], g_new
        live = retire(live, ~moving)
    retire(live, np.ones(len(live[0]), dtype=bool))

    improved = final_f <= f_start - DECREASE_FACTOR * np.maximum(1.0, np.abs(f_start))
    return [SolveOutcome(candidate=final_z[i].copy() if improved[i] else None,
                         value=float(final_f[i]), start_value=float(f_start[i]),
                         iterations=int(iterations[i]))
            for i in range(n_slots)]


def solve(moop: Moop, state: ScalarizationState, surrogates, z_start, region: TrustRegion,
          lam: float) -> SolveOutcome:
    """Projected BFGS over the trust-region box.

    Iterates until the projected gradient vanishes, the line search
    fails, ``MAX_ITERATIONS`` is reached, or an accepted step lowers the
    value by at most ``DECREASE_FACTOR * max(1, |new value|)`` or by at
    most ``MIN_PROGRESS`` times the decrease from the start.  Returns
    a candidate when the final value improves on the start by at least
    ``DECREASE_FACTOR * max(1, |start|)``; otherwise the candidate is
    None and a model-improvement point should be generated instead.
    This is the one-slot case of ``solve_batch``.
    """
    return solve_batch(moop, [state], [surrogates], [z_start], [region], lam)[0]
