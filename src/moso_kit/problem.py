"""Problem definitions for multiobjective simulation optimization.

A problem couples a box-bounded mixed design space with one or more
expensive simulations and cheap algebraic objectives/constraints that
read both the design point and the simulation outputs.  Objectives and
constraints are one kind of term: an objective is minimized, a constraint
is satisfied when its value is nonpositive.
"""

from __future__ import annotations

import functools
import logging
import numbers
import warnings
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Mapping

import numpy as np

from . import embedding

logger = logging.getLogger(__name__)

#: A named point in the user's design space, e.g. {"T": 80.0, "solvent": "S1"}.
DesignPoint = dict

#: Constraint values at or below this count as satisfied; the penalty
#: escalation trigger uses the same slack.
FEASIBILITY_TOL = 1e-8

VARIABLE_KINDS = ("continuous", "integer", "categorical", "custom")
ACQUISITION_KINDS = ("fixed_weight", "random_weight", "random_epsilon_constraint")


class MosoError(Exception):
    """Base class for errors raised by this package."""


class ValidationError(MosoError):
    """A problem definition is malformed."""


class EvaluationError(MosoError):
    """An objective, constraint, or simulation produced an unusable value."""


class DuplicatePointError(MosoError):
    """A record with the same latent coordinates is already stored."""


@dataclass(frozen=True)
class CustomEmbedder:
    """User-supplied latent encoding for one variable.

    ``to_latent`` must map every legal value into [0,1]**width and
    ``from_latent`` must invert it; the framework checks the range at
    embed time and leaves the round trip to the supplier.
    """

    width: int
    to_latent: Callable[[Any], np.ndarray]
    from_latent: Callable[[np.ndarray], Any]


@dataclass(frozen=True)
class DesignVariable:
    """One design dimension: continuous, integer, categorical, or custom."""

    name: str
    kind: str
    lower: float | None = None
    upper: float | None = None
    levels: tuple[str, ...] | None = None
    embedder: CustomEmbedder | None = None


@dataclass(frozen=True)
class SimulationSpec:
    """An expensive vector-valued black box evaluated at design points.

    ``local`` refits the simulation's model on the data near each
    trust-region center; a global model is used as-is inside the region
    otherwise.
    """

    name: str
    output_dim: int
    evaluator: Callable[[DesignPoint], np.ndarray]
    local: bool = True


@dataclass(frozen=True)
class ObjectiveSpec:
    """A scalar term of (design point, concatenated sim outputs).

    Listed under ``objectives`` a term is minimized; listed under
    ``constraints`` it is satisfied when its value is <= 0.

    ``grad``, when given, returns ``(dx, ds)`` where ``dx`` maps
    continuous-variable names to partials and ``ds`` is the partial with
    respect to the simulation output vector.  Missing grads fall back to
    forward finite differences on the latent cube inside the optimizer.

    ``rows``, when given, is the row form of ``func`` for a term that
    reads only the simulation outputs: it maps a block of output rows
    (B, m) to the B term values at once, and the inner solve calls it
    instead of ``func`` once per row.  A term with ``rows`` is taken to
    read only the outputs in ``grad`` too: when every term of a problem
    has one, the inner solve passes an empty dict instead of extracting
    the design at every trial point.  The built-in sim-output forms
    (``identity_*``, ``sum_of_squares_*``, ``linear_objective``) supply
    one; ``variable_objective`` does not.  Replacing ``func`` on a term
    that has ``rows`` must replace ``rows`` too.
    """

    name: str
    func: Callable[[DesignPoint, np.ndarray], float]
    grad: Callable[[DesignPoint, np.ndarray], tuple[dict, np.ndarray]] | None = None
    rows: Callable[[np.ndarray], np.ndarray] | None = None


#: A constraint is an objective-shaped term listed under ``constraints``.
ConstraintSpec = ObjectiveSpec


@dataclass(frozen=True)
class AcquisitionSpec:
    """One scalarization slot in the per-iteration batch."""

    kind: str
    weights: tuple[float, ...] | None = None


@dataclass
class MoopDefinition:
    """Mutable builder for a multiobjective simulation-optimization problem.

    ``q0`` is the size of the joint space-filling design that the first
    iteration evaluates.
    """

    variables: list = field(default_factory=list)
    simulations: list = field(default_factory=list)
    objectives: list = field(default_factory=list)
    constraints: list = field(default_factory=list)
    acquisitions: list = field(default_factory=list)
    q0: int = 100
    rng_seed: int = 0


@dataclass(frozen=True)
class Moop:
    """A validated, immutable problem with cached dimensions."""

    variables: tuple
    simulations: tuple
    objectives: tuple
    constraints: tuple
    acquisitions: tuple
    q0: int
    rng_seed: int
    plan: embedding.EmbeddingPlan

    @property
    def n(self) -> int:
        """Number of design variables."""
        return len(self.variables)

    @property
    def m(self) -> int:
        """Total simulation output dimension."""
        return sum(s.output_dim for s in self.simulations)

    @property
    def o(self) -> int:
        return len(self.objectives)

    @property
    def p(self) -> int:
        return len(self.constraints)

    @property
    def q(self) -> int:
        """Per-iteration batch size (number of acquisitions)."""
        return len(self.acquisitions)

    @property
    def latent_dim(self) -> int:
        return self.plan.latent_dim


def _check_unique(names, what):
    seen = set()
    for n in names:
        if n in seen:
            raise ValidationError(f"duplicate {what} name: {n!r}")
        seen.add(n)


def _check_variable(v: DesignVariable) -> None:
    if v.kind not in VARIABLE_KINDS:
        raise ValidationError(f"variable {v.name!r}: unknown kind {v.kind!r}")
    if v.kind in ("continuous", "integer"):
        if v.lower is None or v.upper is None:
            raise ValidationError(f"variable {v.name!r}: bounds are required")
        if not (np.isfinite(v.lower) and np.isfinite(v.upper)):
            raise ValidationError(f"variable {v.name!r}: bounds must be finite")
        if not v.lower < v.upper:
            raise ValidationError(f"variable {v.name!r}: lower must be < upper")
        if v.kind == "integer" and (v.lower != int(v.lower) or v.upper != int(v.upper)):
            raise ValidationError(f"variable {v.name!r}: integer bounds must be integral")
    elif v.kind == "categorical":
        if not v.levels or len(v.levels) < 2:
            raise ValidationError(f"variable {v.name!r}: needs at least two levels")
        if len(set(v.levels)) != len(v.levels):
            raise ValidationError(f"variable {v.name!r}: duplicate category levels")
    elif v.kind == "custom":
        if v.embedder is None or v.embedder.width < 1:
            raise ValidationError(f"variable {v.name!r}: custom kind needs an embedder")


def validate(defn) -> Moop:
    """Check a definition and return an immutable problem with cached dims.

    Idempotent: validated problems pass through unchanged.
    """
    if isinstance(defn, Moop):
        return defn

    if not defn.objectives:
        raise ValidationError("at least one objective is required")
    if not defn.variables:
        raise ValidationError("at least one design variable is required")
    if not defn.acquisitions:
        raise ValidationError("at least one acquisition is required")
    q0 = defn.q0
    if not (isinstance(q0, numbers.Integral) and not isinstance(q0, bool) and q0 >= 1):
        raise ValidationError(f"q0 must be a positive integer, got {q0!r}")

    _check_unique([v.name for v in defn.variables], "variable")
    _check_unique([s.name for s in defn.simulations], "simulation")
    _check_unique([f.name for f in defn.objectives], "objective")
    _check_unique([g.name for g in defn.constraints], "constraint")

    for v in defn.variables:
        _check_variable(v)

    for s in defn.simulations:
        if not callable(s.evaluator):
            raise ValidationError(f"simulation {s.name!r}: evaluator is not callable")
        if s.output_dim < 1:
            raise ValidationError(f"simulation {s.name!r}: output_dim must be >= 1")
    if not defn.simulations:
        warnings.warn("no simulations declared; objectives are treated as purely algebraic")

    for f in list(defn.objectives) + list(defn.constraints):
        if not callable(f.func):
            raise ValidationError(f"{f.name!r}: func is not callable")
        if f.grad is not None and not callable(f.grad):
            raise ValidationError(f"{f.name!r}: grad is not callable")

    o = len(defn.objectives)
    for i, a in enumerate(defn.acquisitions):
        if a.kind not in ACQUISITION_KINDS:
            raise ValidationError(f"acquisition {i}: unknown kind {a.kind!r}")
        if a.kind == "fixed_weight":
            if a.weights is None or len(a.weights) != o:
                raise ValidationError(f"acquisition {i}: needs {o} weights")
            w = np.asarray(a.weights, dtype=float)
            if not np.isfinite(w).all() or (w < 0).any() or w.sum() <= 0:
                raise ValidationError(
                    f"acquisition {i}: weights must be finite, nonnegative and not all zero")

    plan = embedding.build_plan(tuple(defn.variables))
    return Moop(
        variables=tuple(defn.variables),
        simulations=tuple(defn.simulations),
        objectives=tuple(defn.objectives),
        constraints=tuple(defn.constraints),
        acquisitions=tuple(defn.acquisitions),
        q0=int(q0),
        rng_seed=defn.rng_seed,
        plan=plan,
    )


def _eval_terms(specs, kind: str, x: DesignPoint, s: np.ndarray) -> np.ndarray:
    out = np.empty(len(specs))
    for j, spec in enumerate(specs):
        out[j] = spec.func(x, s)
        if not np.isfinite(out[j]):
            raise EvaluationError(f"{kind} {j} ({spec.name!r}) returned a non-finite value")
    return out


def eval_objectives(moop: Moop, x: DesignPoint, s: np.ndarray) -> np.ndarray:
    """Evaluate all objectives at a design point and sim-output vector."""
    return _eval_terms(moop.objectives, "objective", x, s)


def eval_constraints(moop: Moop, x: DesignPoint, s: np.ndarray) -> np.ndarray:
    """Evaluate all constraints; values <= 0 are satisfied."""
    return _eval_terms(moop.constraints, "constraint", x, s)


@dataclass
class EvalRecord:
    """One completed evaluation: design, per-sim outputs, objective data."""

    design: DesignPoint
    latent: np.ndarray
    sim_outputs: tuple
    objectives: np.ndarray
    constraints: np.ndarray
    iteration: int
    feasible: bool

    @functools.cached_property
    def float_text(self) -> tuple:
        """Each simulation's outputs, then the objectives, then the constraints as text.

        Each entry joins its values' shortest round-trip text (``repr``)
        with commas; a field with no values is ``""``.  The text is made
        at first use and kept: the checkpoint journal line and the
        ``database.csv`` row are both built from it, so each value is
        formatted once; a record restored from a checkpoint takes it from
        its journal line.  Stored values are finite, and for a finite float
        JSON and ``csv.writer`` write this same text.
        """
        return tuple(",".join(map(float.__repr__, a.tolist()))
                     for a in (*self.sim_outputs, self.objectives, self.constraints))


def latent_key(z: np.ndarray) -> bytes:
    """Uniqueness key for latent coordinates (quantized at 1e-12)."""
    return np.round(np.asarray(z, dtype=float), 12).tobytes()


class EvaluationDatabase:
    """Append-only store of evaluations with a latent-coordinate unique index.

    Each field (latent point, objectives, constraints, each simulation's
    outputs) is one array with a row per record that doubles when full;
    the first record fixes the widths.  Record fields and ``*_matrix``
    results are read-only views of those rows, so each value is stored
    once.  Every stored value is finite.  The latent points' pairwise
    distances are kept too (``latent_distances``).  Mutations, and
    ``latent_distances``, which extends the kept matrix, must happen on
    the control thread; other reads are safe anywhere.
    """

    def __init__(self, plan: embedding.EmbeddingPlan):
        self.plan = plan
        self.records: list[EvalRecord] = []
        self._index: dict[bytes, int] = {}
        self._fields: list[np.ndarray] = []  # latent, objectives, constraints, *outputs
        self._distances = np.empty((0, 0))
        self._distance_rows = 0  # records whose distances are computed

    def __len__(self) -> int:
        return len(self.records)

    def has_key(self, key: bytes) -> bool:
        return key in self._index

    def add(self, design: DesignPoint, sim_outputs, objectives, constraints, iteration: int) -> EvalRecord:
        z = embedding.embed(self.plan, design)
        key = latent_key(z)
        if key in self._index:
            raise DuplicatePointError(f"latent coordinates already stored (record {self._index[key]})")
        rows = [np.asarray(r, dtype=float) for r in (z, objectives, constraints, *sim_outputs)]
        shapes = [f.shape[1:] for f in self._fields] or [(r.size,) for r in rows]
        if [r.shape for r in rows] != shapes:
            raise ValueError(f"row shapes {[r.shape for r in rows]} differ from {shapes}")
        if not all(np.isfinite(r).all() for r in rows[1:]):
            raise ValueError("simulation outputs, objectives and constraints must be finite")
        n = len(self.records)
        if not self._fields or n == len(self._fields[0]):
            capacity = max(64, 2 * n)
            old, self._fields = self._fields, [np.empty((capacity, *sh)) for sh in shapes]
            for f, o in zip(self._fields, old):
                f[:n] = o
            for i, rec in enumerate(self.records):
                vars(rec).update(self._row_views(i))
        for f, r in zip(self._fields, rows):
            f[n] = r
        rec = EvalRecord(
            # numpy scalars (e.g. from a custom from_latent) become Python
            # values so records serialize to JSON checkpoints.
            design={k: v.item() if isinstance(v, np.generic) else v for k, v in design.items()},
            iteration=iteration,
            feasible=bool((rows[2] <= FEASIBILITY_TOL).all()),
            **self._row_views(n),
        )
        self._index[key] = n
        self.records.append(rec)
        return rec

    def _row_views(self, i: int) -> dict:
        latent, objectives, constraints, *outputs = (_readonly(f[i]) for f in self._fields)
        return dict(latent=latent, objectives=objectives, constraints=constraints,
                    sim_outputs=tuple(outputs))

    def _rows(self, field: int, empty_width: int = 0) -> np.ndarray:
        if not self._fields:
            return np.empty((0, empty_width))
        return _readonly(self._fields[field][:len(self.records)])

    def latent_matrix(self) -> np.ndarray:
        return self._rows(0, self.plan.latent_dim)

    def objective_matrix(self) -> np.ndarray:
        return self._rows(1)

    def constraint_matrix(self) -> np.ndarray:
        return self._rows(2)

    def outputs_matrix(self, sim_index: int) -> np.ndarray:
        return self._rows(3 + sim_index)

    def feasible_mask(self) -> np.ndarray:
        return (self.constraint_matrix() <= FEASIBILITY_TOL).all(axis=1)

    def latent_distances(self) -> np.ndarray:
        """The (N, N) ``embedding.pairwise_distances`` of the records' latent points.

        A read-only view that later calls leave as it is.  A call computes
        only the rows of the records added since the last one; the matrix
        is built at the first call and grows to the capacity of the fields.
        It writes the kept matrix, so like ``add`` it runs on the control thread.
        """
        old, n = self._distance_rows, len(self.records)
        if n > len(self._distances):
            capacity = len(self._fields[0])
            grown = np.empty((capacity, capacity))
            grown[:old, :old] = self._distances[:old, :old]
            self._distances = grown
        latents = self.latent_matrix()
        # Built in a contiguous block: numpy's passes over a strided one are slower.
        new = embedding.pairwise_distances(latents[old:], latents)
        self._distances[old:n, :n] = new
        self._distances[:old, old:n] = new[:, :old].T
        self._distance_rows = n
        return _readonly(self._distances[:n, :n])


def _readonly(view: np.ndarray) -> np.ndarray:
    view.flags.writeable = False
    return view


# ---------------------------------------------------------------------------
# Built-in objective/constraint forms.  These give the CLI its vocabulary and
# carry analytic gradients so structured problems get exact chain rules.  A
# constraint form is its objective form minus a cap.

def identity_objective(name: str, index: int, scale: float = 1.0) -> ObjectiveSpec:
    """F = scale * s[index]."""

    def func(x, s):
        return scale * s[index]

    def rows(preds):
        return scale * preds[:, index]

    def grad(x, s):
        ds = np.zeros(len(s))
        ds[index] = scale
        return {}, ds

    return ObjectiveSpec(name, func, grad, rows=rows)


def sum_of_squares_objective(name: str, indices) -> ObjectiveSpec:
    """F = sum(s[i]**2 for i in indices)."""
    idx = np.asarray(indices, dtype=int)

    def func(x, s):
        v = s[idx]
        return float(v @ v)

    def rows(preds):
        v = preds[:, idx]
        return np.vecdot(v, v)

    def grad(x, s):
        ds = np.zeros(len(s))
        ds[idx] = 2.0 * s[idx]
        return {}, ds

    return ObjectiveSpec(name, func, grad, rows=rows)


def variable_objective(name: str, variable: str, scale: float = 1.0) -> ObjectiveSpec:
    """F = scale * x[variable] (design-value passthrough, no simulation)."""

    def func(x, s):
        return scale * x[variable]

    def grad(x, s):
        return {variable: scale}, np.zeros(len(s))

    return ObjectiveSpec(name, func, grad)


def linear_objective(name: str, coeffs, const: float = 0.0) -> ObjectiveSpec:
    """F = coeffs . s + const."""
    c = np.asarray(coeffs, dtype=float)

    def func(x, s):
        return float(c @ s) + const

    def rows(preds):
        return np.vecdot(preds, c) + const

    def grad(x, s):
        return {}, c.copy()

    return ObjectiveSpec(name, func, grad, rows=rows)


def _capped(spec: ObjectiveSpec, cap: float) -> ConstraintSpec:
    """The constraint ``spec - cap <= 0``; ``grad`` carries over."""
    func, rows = spec.func, spec.rows
    return replace(spec, func=lambda x, s: func(x, s) - cap,
                   rows=None if rows is None else lambda preds: rows(preds) - cap)


def sum_of_squares_constraint(name: str, indices, cap: float) -> ConstraintSpec:
    """G = sum(s[i]**2 for i in indices) - cap, satisfied when <= 0."""
    return _capped(sum_of_squares_objective(name, indices), cap)


def identity_constraint(name: str, index: int, cap: float, scale: float = 1.0) -> ConstraintSpec:
    """G = scale * s[index] - cap, satisfied when <= 0."""
    return _capped(identity_objective(name, index, scale), cap)
