"""Command line interface: run problems, recompute metrics, benchmark scaling.

A run is described by a JSON config document::

    {
      "seed": 0,
      "budget": 1000,
      "search": {"q0": 200},
      "variables": [
        {"name": "x", "kind": "continuous", "lower": 0.0, "upper": 1.0, "count": 10},
        {"name": "solvent", "kind": "categorical", "levels": ["S1", "S2"]},
        {"name": "stages", "kind": "integer", "lower": 1, "upper": 5}
      ],
      "simulations": [
        {"name": "sim", "testbed": "dtlz2", "options": {"n_objectives": 3},
         "delay": [1.0, 3.0], "local": false}
      ],
      "objectives": [
        {"name": "f1", "form": "identity", "index": 0, "scale": 1.0},
        {"name": "loss", "form": "sum_of_squares", "indices": [0, 1]},
        {"name": "time", "form": "variable", "variable": "reaction_time"},
        {"name": "mix", "form": "linear", "coeffs": [1, -1], "const": 0.0}
      ],
      "constraints": [
        {"name": "cap", "form": "sum_of_squares", "indices": [0, 1], "cap": 160.0},
        {"name": "lim", "form": "identity", "index": 0, "cap": 1.0}
      ],
      "acquisitions": [
        {"kind": "fixed_weight", "weights": [0.34, 0.33, 0.33]},
        {"kind": "random_epsilon_constraint", "count": 15}
      ],
      "metrics": {"ref": [1.0, 1.0, 1.0]}
    }

The ``search`` section's ``q0``, a positive integer (default 100), is
the size of the initial design.  ``count``, a positive integer, expands
a variable entry into name1..nameN and an acquisition entry into N
slots.  Simulation
evaluators come from the built-in testbed registry; ``delay`` wraps them
in a uniform random sleep of ``[lower, upper]`` seconds, two finite
numbers with ``0 <= lower <= upper``, and ``local``, a boolean (default
true), refits the simulation's model near each trust-region center.  A
``penalty`` section or a ``q0`` inside a simulation entry is a config
error: the penalty schedule is fixed and the ``search`` section holds
the only initial-design size.  ``metrics.ref`` fixes the hypervolume
reference point, one finite number per objective, and is checked before
the run starts; without it the feasible nadir of the finished run is
used, and the hypervolume is nan when no record is feasible.  A
constraint is an ``identity`` or ``sum_of_squares`` form minus ``cap``.
Term references (output indices, ``coeffs``, ``variable``) are checked
against the simulation outputs and numeric variables at load, and
``scale``, ``const`` and ``cap`` must be finite numbers.  The ``dtlz2``
testbed takes no categorical variable.  Exit
codes: 0 on success, 2 for config problems (a budget below the initial
design among them), 3 for runtime failures.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import math
import sys
import time
from pathlib import Path

import click
import numpy as np

from . import __version__, _blas, testbed
# ``hypervolume`` is not called here since hv_trajectory keeps its own front,
# but perfbench/recorder.py times it under this name.
from .metrics import _front_hypervolume, hypervolume, insertion_mask, pct_hv_improvement
from .orchestrator import MoopSolver
from .problem import (
    AcquisitionSpec,
    DesignVariable,
    MoopDefinition,
    MosoError,
    SimulationSpec,
    ValidationError,
    _capped,
    identity_objective,
    linear_objective,
    sum_of_squares_objective,
    validate,
    variable_objective,
)


logger = logging.getLogger(__name__)


class ConfigError(MosoError):
    """The config document cannot be turned into a problem."""


TESTBED_REGISTRY = {
    "dtlz2": None,  # special-cased: needs the variable list and options
    "synthetic_residuals": testbed.synthetic_residuals,
    "residual_class_sums": testbed.residual_class_sums,
    "cfr_analog": testbed.cfr_analog,
    "cfr_analog_with_time": testbed.cfr_analog_with_time,
}

TESTBED_OUTPUT_DIMS = {
    "synthetic_residuals": testbed.N_RESIDUALS,
    "residual_class_sums": 3,
    "cfr_analog": 2,
    "cfr_analog_with_time": 3,
}


def _require(cfg, key, where):
    if key not in cfg:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return cfg[key]


def _build_variables(entries):
    out = []
    for entry in entries:
        name = _require(entry, "name", "variable")
        kind = _require(entry, "kind", f"variable {name!r}")
        count = _count(entry, f"variable {name!r}")
        names = [name] if count is None else [f"{name}{i + 1}" for i in range(count)]
        for nm in names:
            if kind == "categorical":
                out.append(DesignVariable(nm, kind, levels=tuple(_require(entry, "levels", nm))))
            else:
                out.append(DesignVariable(nm, kind,
                                          lower=_require(entry, "lower", nm),
                                          upper=_require(entry, "upper", nm)))
    return out


def _build_simulations(entries, variables, seed):
    sims = []
    var_names = [v.name for v in variables]
    for i, entry in enumerate(entries):
        name = _require(entry, "name", f"simulation {i}")
        key = _require(entry, "testbed", f"simulation {name!r}")
        if key not in TESTBED_REGISTRY:
            raise ConfigError(f"simulation {name!r}: unknown testbed entry {key!r}")
        if "q0" in entry:
            raise ConfigError(f"simulation {name!r}: q0 is set once for the problem, "
                              "in the search section")
        local = entry.get("local", True)
        if not isinstance(local, bool):
            raise ConfigError(f"simulation {name!r}: local must be true or false, got {local!r}")
        options = entry.get("options", {})
        if key == "dtlz2":
            categorical = [v.name for v in variables if v.kind == "categorical"]
            if categorical:
                raise ConfigError(f"simulation {name!r}: dtlz2 reads every variable as a number, "
                                  f"but {categorical[0]!r} is categorical")
            o = options.get("n_objectives", 3)
            evaluator = testbed.dtlz2_evaluator(var_names, o)
            output_dim = o
        else:
            evaluator = TESTBED_REGISTRY[key]
            output_dim = TESTBED_OUTPUT_DIMS[key]
        delay = entry.get("delay")
        if delay is not None:
            evaluator = testbed.delay_wrapper(
                evaluator, *_delay_range(delay, f"simulation {name!r}"),
                np.random.default_rng(np.random.SeedSequence([seed, 1000 + i])))
        sims.append(SimulationSpec(name, output_dim, evaluator, local=local))
    return sims


def _finite_numbers(value, count) -> bool:
    """Whether a config value is a list of ``count`` finite numbers."""
    return (isinstance(value, list) and len(value) == count
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
                    for v in value))


def _delay_range(delay, where):
    """``delay`` as (lower, upper) seconds: two finite numbers, 0 <= lower <= upper."""
    if _finite_numbers(delay, 2) and 0.0 <= delay[0] <= delay[1]:
        return float(delay[0]), float(delay[1])
    raise ConfigError(f"{where}: delay must be [lower, upper] seconds "
                      f"with 0 <= lower <= upper, got {delay!r}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _count(entry, where):
    """``entry["count"]``, a positive integer, or None when it is not given."""
    count = entry.get("count")
    if count is None or (_is_int(count) and count >= 1):
        return count
    raise ConfigError(f"{where}: count must be a positive integer, got {count!r}")


def _output_index(value, m, where):
    if _is_int(value) and 0 <= value < m:
        return value
    raise ConfigError(f"{where}: output index must be an integer in [0, {m}), got {value!r}")


def _finite_number(entry, key, where, default=None):
    """``entry[key]`` (or ``default`` when given and the key is absent), a finite number."""
    value = entry.get(key, default) if default is not None else _require(entry, key, where)
    if _finite_numbers([value], 1):
        return value
    raise ConfigError(f"{where}: {key} must be a finite number, got {value!r}")


def _build_terms(entries, constraint: bool, m: int, variables):
    """Objective forms, capped for a constraint, over ``m`` sim outputs and ``variables``."""
    kind = "constraint" if constraint else "objective"
    numeric = {v.name for v in variables if v.kind in ("continuous", "integer")}
    out = []
    for i, entry in enumerate(entries):
        name = _require(entry, "name", f"term {i}")
        form = _require(entry, "form", name)
        where = f"{kind} {name!r}"
        if form == "identity":
            spec = identity_objective(name, _output_index(_require(entry, "index", name), m, where),
                                      scale=_finite_number(entry, "scale", where, 1.0))
        elif form == "sum_of_squares":
            spec = sum_of_squares_objective(
                name, [_output_index(j, m, where) for j in _require(entry, "indices", name)])
        elif form == "variable" and not constraint:
            variable = _require(entry, "variable", name)
            if variable not in numeric:
                raise ConfigError(f"{where}: no continuous or integer variable {variable!r}")
            spec = variable_objective(name, variable, scale=_finite_number(entry, "scale", where, 1.0))
        elif form == "linear" and not constraint:
            coeffs = _require(entry, "coeffs", name)
            if not _finite_numbers(coeffs, m):
                raise ConfigError(f"{where}: coeffs must be {m} finite numbers, got {coeffs!r}")
            spec = linear_objective(name, coeffs, const=_finite_number(entry, "const", where, 0.0))
        else:
            raise ConfigError(f"{where}: unknown form {form!r}")
        out.append(_capped(spec, _finite_number(entry, "cap", where)) if constraint else spec)
    return out


def _build_acquisitions(entries):
    out = []
    for i, entry in enumerate(entries):
        kind = _require(entry, "kind", f"acquisition {i}")
        for _ in range(_count(entry, f"acquisition {i}") or 1):
            weights = entry.get("weights")
            out.append(AcquisitionSpec(kind, weights=tuple(weights) if weights else None))
    return out


def load_config(path, seed_override=None):
    """Parse and validate a JSON config; returns (Moop, config dict)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
        cfg = json.loads(text)
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")

    seed = seed_override if seed_override is not None else cfg.get("seed", 0)
    if not (_is_int(seed) and seed >= 0):
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
    if "penalty" in cfg:
        raise ConfigError("penalty: the constraint penalty schedule is fixed")
    try:
        variables = _build_variables(_require(cfg, "variables", "config"))
        sims = _build_simulations(_require(cfg, "simulations", "config"), variables, seed)
        m = sum(s.output_dim for s in sims)
        defn = MoopDefinition(
            variables=variables,
            simulations=sims,
            objectives=_build_terms(_require(cfg, "objectives", "config"), False, m, variables),
            constraints=_build_terms(cfg.get("constraints", []), True, m, variables),
            acquisitions=_build_acquisitions(_require(cfg, "acquisitions", "config")),
            q0=cfg.get("search", {}).get("q0", 100),
            rng_seed=seed,
        )
        moop = validate(defn)
        ref = cfg.get("metrics", {}).get("ref")
        if ref is not None and not _finite_numbers(ref, moop.o):
            raise ConfigError(f"metrics.ref must be {moop.o} finite numbers, got {ref!r}")
    except (ValidationError, ConfigError):
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as err:
        raise ConfigError(f"malformed config: {err}") from err
    return moop, cfg


# ---------------------------------------------------------------------------
# Output files

def write_database_csv(path, moop, records) -> None:
    """One CSV row per record: iteration, design, outputs, objectives, constraints, feasible.

    The iteration and the design values go through ``csv.writer``, so
    categorical levels are quoted as it quotes them.  The floats are each
    record's ``float_text``, the shortest round-trip text that the
    checkpoint journal holds too; for the finite values a database
    stores, ``csv.writer`` would write the same text.
    """
    header = (["iteration"]
              + [f"var_{v.name}" for v in moop.variables]
              + [f"sim_{s.name}_{j}" for s in moop.simulations for j in range(s.output_dim)]
              + [f"obj_{f.name}" for f in moop.objectives]
              + [f"con_{g.name}" for g in moop.constraints]
              + ["feasible"])
    head = io.StringIO()
    prefix = csv.writer(head)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        for rec in records:
            prefix.writerow([rec.iteration] + [rec.design[v.name] for v in moop.variables])
            # The prefix's "\r\n" terminator is cut; an empty field
            # (no constraints) adds no column.
            fields = (head.getvalue()[:-2], *rec.float_text, "1" if rec.feasible else "0")
            fh.write(",".join(filter(None, fields)) + "\r\n")
            head.seek(0)
            head.truncate()


def write_pareto_csv(path, moop, archive) -> None:
    header = ([f"var_{v.name}" for v in moop.variables]
              + [f"obj_{f.name}" for f in moop.objectives])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for design, objs in zip(archive.designs, archive.objectives.tolist()):
            writer.writerow([design[v.name] for v in moop.variables] + objs)


def hv_trajectory(objectives, feasible, iterations, ref):
    """Per-iteration hypervolume of the feasible nondominated prefix (nan without ``ref``).

    Records enter one kept front in stable iteration order.  Records beyond
    ``ref``, which cannot dominate one inside it, are dropped with one warning.
    """
    iterations = np.asarray(iterations)
    order = np.argsort(iterations, kind="stable")
    enters = np.asarray(feasible, dtype=bool)
    if ref is not None:
        ref = np.asarray(ref, dtype=float)
        beyond = enters & ~(objectives <= ref).all(axis=1)
        if beyond.any():
            logger.warning("%d feasible point(s) beyond the reference point dropped",
                           int(beyond.sum()))
        enters = enters & ~beyond
    front, rows = objectives[:0], []
    for n, i in enumerate(order, start=1):
        keep = insertion_mask(front, objectives[i]) if enters[i] else None
        if keep is not None:
            front = np.vstack([front[keep], objectives[i]])
        if n == len(order) or iterations[order[n]] != iterations[i]:
            hv = math.nan if ref is None else float(_front_hypervolume(front, ref))
            rows.append((int(iterations[i]), n, hv))
    return rows


def _reference_point(cfg, objectives, feasible):
    ref_cfg = cfg.get("metrics", {}).get("ref")
    if ref_cfg is not None:
        return np.asarray(ref_cfg, dtype=float)
    feas = objectives[feasible]
    if len(feas) == 0:
        return None
    return feas.max(axis=0)


def write_metrics_csv(path, moop, database, ref) -> None:
    """Hypervolume and best feasible fixed-weight score after each iteration."""
    objectives, feasible = database.objective_matrix(), database.feasible_mask()
    iterations = [r.iteration for r in database.records]
    order = np.argsort(iterations, kind="stable")
    fixed = [(i, np.asarray(a.weights, dtype=float))
             for i, a in enumerate(moop.acquisitions) if a.kind == "fixed_weight"]
    # Running minima in iteration order, one row per weight: the trajectory
    # row that covers ``evals`` evaluations reads column ``evals - 1``.
    best = np.minimum.accumulate(np.array(
        [[float(w @ objectives[i]) if feasible[i] else np.inf for i in order] for _, w in fixed]
    ).reshape(len(fixed), len(order)), axis=1)
    best[best == np.inf] = np.nan
    header = ["iteration", "evaluations", "hypervolume"]
    header += [f"best_fixed_{i}" for i, _ in fixed]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k, evals, hv in hv_trajectory(objectives, feasible, iterations, ref):
            writer.writerow([k, evals, hv] + best[:, evals - 1].tolist())


# ---------------------------------------------------------------------------
# Commands

@click.group()
@click.version_option(__version__)
def main() -> None:
    """Multiobjective simulation optimization toolkit."""


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(), help="JSON problem config.")
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--budget", type=int, default=None, help="Total evaluation budget.")
@click.option("--workers", type=int, default=1, show_default=True, help="Parallel simulation workers.")
@click.option("--checkpoint", "checkpoint_path", type=click.Path(), default=None,
              help="Checkpoint state file, written after every iteration next to an "
                   "append-only record journal (FILE.records); resumes from it when it "
                   "already exists.")
@click.option("--out", "out_dir", type=click.Path(), default=".", show_default=True,
              help="Directory for database.csv, pareto.csv, metrics.csv, run_meta.json.")
def run(config_path, seed, budget, workers, checkpoint_path, out_dir) -> None:
    """Run one optimization described by a config document."""
    try:
        moop, cfg = load_config(config_path, seed_override=seed)
        if budget is None:
            budget = cfg.get("budget")
        if not _is_int(budget):
            raise ConfigError(f"budget must be an integer via --budget or the config, got {budget!r}")
        if workers < 1:
            raise ConfigError("workers must be >= 1")
    except (ConfigError, ValidationError) as err:
        click.echo(f"config error: {err}", err=True)
        sys.exit(2)

    started = time.perf_counter()
    try:
        if checkpoint_path and Path(checkpoint_path).exists():
            solver = MoopSolver.checkpoint_load(checkpoint_path, moop, workers=workers)
        else:
            solver = MoopSolver(moop, workers=workers, checkpoint_path=checkpoint_path)
        result = solver.solve(budget)

        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        db = result.database
        ref = _reference_point(cfg, db.objective_matrix(), db.feasible_mask())
        write_database_csv(out / "database.csv", moop, db.records)
        write_pareto_csv(out / "pareto.csv", moop, result.archive)
        write_metrics_csv(out / "metrics.csv", moop, db, ref)
        meta = {
            "blas_threads": _blas.thread_count(),
            "budget": budget,
            "config_sha256": hashlib.sha256(Path(config_path).read_bytes()).hexdigest(),
            "evaluations": result.evaluations,
            "iterations": result.iterations,
            "reference_point": None if ref is None else ref.tolist(),
            "seed": moop.rng_seed,
            "version": __version__,
            "walltime_s": time.perf_counter() - started,
            "workers": workers,
        }
        (out / "run_meta.json").write_text(json.dumps(meta, sort_keys=True, indent=1),
                                           encoding="utf-8")
    except ValidationError as err:  # a budget below the initial design
        click.echo(f"config error: {err}", err=True)
        sys.exit(2)
    except Exception as err:  # noqa: BLE001 - boundary: map everything to exit 3
        click.echo(f"runtime error: {err}", err=True)
        sys.exit(3)
    click.echo(f"done: {result.evaluations} evaluations, "
               f"{len(result.archive)} nondominated points")


@main.command()
@click.option("--db", "db_path", required=True, type=click.Path(), help="database.csv from a run.")
@click.option("--ref", "ref_text", default=None, help="Reference point, e.g. '1,1,1'.")
@click.option("--mode", type=click.Choice(["raw", "relative_to_initial", "relative_to_gap"]),
              default="raw", show_default=True)
@click.option("--hv-max", type=float, default=None, help="Ceiling for relative_to_gap.")
def metrics(db_path, ref_text, mode, hv_max) -> None:
    """Recompute the hypervolume trajectory from a run database."""
    try:
        objectives, feasible, iterations = _read_database(db_path)
        if ref_text is not None:
            ref = [float(v) for v in ref_text.split(",")]
            if not _finite_numbers(ref, objectives.shape[1]):
                raise ConfigError(f"--ref must be {objectives.shape[1]} finite numbers")
        else:
            feas = objectives[np.asarray(feasible, dtype=bool)]
            if len(feas) == 0:
                raise ConfigError("no feasible rows and no --ref given")
            ref = feas.max(axis=0)
        if mode == "relative_to_gap" and hv_max is None:
            raise ConfigError("relative_to_gap needs --hv-max")
    except Exception as err:  # noqa: BLE001 - every failure here is a config error
        click.echo(f"config error: {err}", err=True)
        sys.exit(2)

    try:
        traj = hv_trajectory(objectives, feasible, iterations, ref)
        out = io.StringIO()
        writer = csv.writer(out)
        header = ["iteration", "evaluations", "hypervolume"]
        if mode != "raw":
            header.append("pct_improvement")
        writer.writerow(header)
        hv0 = traj[0][2] if traj else 0.0
        for k, evals, hv in traj:
            row = [k, evals, hv]
            if mode != "raw":
                row.append(float(pct_hv_improvement(hv, hv0, mode=mode, hv_max=hv_max)))
            writer.writerow(row)
        click.echo(out.getvalue(), nl=False)
    except Exception as err:  # noqa: BLE001
        click.echo(f"runtime error: {err}", err=True)
        sys.exit(3)


def _read_database(path):
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
    except (OSError, StopIteration) as err:
        raise ConfigError(f"cannot read database: {err}") from err
    try:
        obj_cols = [i for i, h in enumerate(header) if h.startswith("obj_")]
        it_col = header.index("iteration")
        feas_col = header.index("feasible")
        if not obj_cols:
            raise ConfigError("no obj_* columns in database")
        objectives = np.array([[float(r[i]) for i in obj_cols] for r in rows])
        feasible = [r[feas_col] in ("1", "true", "True") for r in rows]
        iterations = [int(r[it_col]) for r in rows]
    except (ValueError, IndexError) as err:
        raise ConfigError(f"malformed database: {err}") from err
    return objectives, feasible, iterations


@main.command("bench-scaling")
@click.option("--workers-list", default="1,2,4,8", show_default=True,
              help="Comma-separated worker counts.")
@click.option("--sim-delay", default="0.05,0.15", show_default=True,
              help="Uniform sleep range per simulation, seconds.")
@click.option("--budget", type=int, default=160, show_default=True)
def bench_scaling(workers_list, sim_delay, budget) -> None:
    """Walltime of one fixed delayed problem across worker counts."""
    try:
        counts = [int(v) for v in workers_list.split(",")]
        t_min, t_max = _delay_range([float(v) for v in sim_delay.split(",")], "--sim-delay")
        if not counts or any(c < 1 for c in counts):
            raise ValueError("bad workers count")
    except (ValueError, ConfigError) as err:
        click.echo(f"config error: {err}", err=True)
        sys.exit(2)

    try:
        for i, w in enumerate(counts):
            defn = testbed.dtlz2_moop(q0=16, batch=8, delay=(t_min, t_max))
            solver = MoopSolver(defn, workers=w)
            started = time.perf_counter()
            result = solver.solve(budget)
            elapsed = time.perf_counter() - started
            if i == 0:  # after the first solve, so that a config error prints no header
                click.echo("workers,walltime_s,evaluations")
            click.echo(f"{w},{elapsed:.3f},{result.evaluations}")
    except ValidationError as err:  # a budget below the initial design
        click.echo(f"config error: {err}", err=True)
        sys.exit(2)
    except Exception as err:  # noqa: BLE001
        click.echo(f"runtime error: {err}", err=True)
        sys.exit(3)


if __name__ == "__main__":
    main()
