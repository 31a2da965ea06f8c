"""Batch iteration loop: search, fit, solve, evaluate, merge, repeat.

Iteration 0 evaluates a space-filling design of the problem's ``q0``
points over the latent cube.  Every later iteration refits the
surrogates, refreshes each acquisition, selects every slot's start
record in one pass (``acquisition.select_start``), then solves each
penalized subproblem inside a trust region around its start, swaps
duplicates for model-improvement points, and sends the resulting batch
to a worker pool.  Every point, whether from the initial design, a
solve or an improvement draw, is proposed by one step
(``MoopSolver._propose``): it is extracted, embedded and keyed once,
and joins the batch unless the database or the batch holds its key.
Slots that share a start share one trust region and one
localization (``set_center``), so they get the same model objects: a
local refit, or the global models.  All q slots of an iteration are
solved by one ``optimizer.solve_batch``, which predicts the rows of
each model together, so a global kernel system is factored only when
some slot predicts with it; every refit of the iteration is alive until
the batch returns.  The outcomes become batch points in slot order, and
each slot draws from its own RNG stream, so the draws are those of
slots run one after another.  The database keeps its latent distances
(``EvaluationDatabase.latent_distances``): an iteration computes only
its new records' rows, every model reads them from there, and a problem
without simulations never builds them.  The inner solve has
no settings and the constraint penalty follows a fixed schedule
(``PENALTY_*``), so the problem, the seed and the streams fix every
solve.  Results merge in
batch order so runs are reproducible for any worker count, and the
whole solver state (database, penalty, RNG streams) round-trips
through checkpoints: a small JSON state file plus an append-only
journal of one JSON line per record.  A journal line's floats are the
record's ``float_text``, which ``database.csv`` shares, so each stored
value is formatted once per run, and a resumed run takes each restored
record's text from its line; the design goes through ``json.dumps`` and
must be JSON-encodable.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import acquisition as acq
from . import _blas, embedding, optimizer
from .metrics import ParetoArchive
from .problem import (
    EvaluationDatabase,
    DuplicatePointError,
    EvaluationError,
    Moop,
    MosoError,
    ValidationError,
    _integer_at_least,
    eval_constraints,
    eval_objectives,
    latent_key,
    validate,
)
from .search import lhs_search
from .surrogate import RbfSurrogate, TrustRegion, trust_region

logger = logging.getLogger(__name__)

CHECKPOINT_VERSION = 2

#: The constraint penalty multiplier starts at PENALTY_INITIAL and grows
#: by PENALTY_GROWTH, up to PENALTY_CAP, after each iteration whose
#: proposed points all came back infeasible.  Read at call time.
PENALTY_INITIAL = 1.0
PENALTY_GROWTH = 2.0
PENALTY_CAP = 1e8


class CheckpointError(MosoError):
    """A checkpoint file is unreadable or does not match the problem."""


@dataclass(frozen=True)
class BatchPoint:
    design: dict
    latent: np.ndarray
    origin: str  # "search", "acquisition:<i>", or "improve:<i>"

    @property
    def optimizer_proposed(self) -> bool:
        return self.origin.startswith("acquisition:")


@dataclass
class CandidateBatch:
    iteration: int
    points: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.points)


@dataclass
class SolveResult:
    database: EvaluationDatabase
    archive: ParetoArchive
    iterations: int
    evaluations: int


def problem_fingerprint(moop: Moop) -> str:
    """Stable digest of the problem structure, for checkpoint matching."""
    desc = {
        "variables": [[v.name, v.kind, v.lower, v.upper, list(v.levels or [])]
                      for v in moop.variables],
        "simulations": [[s.name, s.output_dim, moop.q0, s.local] for s in moop.simulations],
        "objectives": [f.name for f in moop.objectives],
        "constraints": [g.name for g in moop.constraints],
        "acquisitions": [[a.kind, list(a.weights or [])] for a in moop.acquisitions],
        "penalty": [PENALTY_INITIAL, PENALTY_GROWTH, PENALTY_CAP],
        "seed": moop.rng_seed,
    }
    # A numpy scalar (a bound, a weight) is written as the Python number
    # it holds, so it does not change the digest.
    blob = json.dumps(desc, sort_keys=True, default=_python_number).encode()
    return hashlib.sha256(blob).hexdigest()


def _python_number(value):
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


class MoopSolver:
    """Drives one problem from initial design to exhausted budget."""

    def __init__(self, moop, workers: int = 1, checkpoint_path=None):
        self.moop = validate(moop)
        if not _integer_at_least(workers, 1):
            raise ValidationError(f"workers must be a positive integer, got {workers!r}")
        self.workers = workers
        self.checkpoint_path = checkpoint_path
        self.database = EvaluationDatabase(self.moop.plan)
        self.archive = ParetoArchive()  # of the database, as of the last ``iterate`` or ``solve``
        self.penalty = PENALTY_INITIAL
        self.iteration = 0
        self.evaluations = 0  # attempts, including skipped points
        seq = np.random.SeedSequence(self.moop.rng_seed)
        children = seq.spawn(1 + self.moop.q)
        self._search_rng = np.random.default_rng(children[0])
        self._acq_rngs = [np.random.default_rng(c) for c in children[1:]]
        # (path, records, byte offset, running sha256) of the journal as of
        # the last save or load, so a save appends without reading it.
        self._journal = None

    # -- iteration ---------------------------------------------------------

    def iterate(self, k: int) -> CandidateBatch:
        """Propose the next batch of design points (does not evaluate)."""
        batch, keys = CandidateBatch(iteration=k), set()
        if k == 0:
            # Samples that snap to one design (integer or categorical
            # variables) are proposed once.
            for z in lhs_search(self.moop.q0, self.moop.latent_dim, self._search_rng):
                self._propose(batch, keys, z, "search")
            return batch

        if len(self.database) == 0:
            raise MosoError("no evaluations available to build surrogates from")

        latents = self.database.latent_matrix()
        models = [RbfSurrogate.fit(latents, self.database.outputs_matrix(i),
                                   self.database.latent_distances())
                  for i in range(len(self.moop.simulations))]
        archive = self.archive.update(self.database.records)
        cube = TrustRegion(center=np.full(self.moop.latent_dim, 0.5), radius=0.5)

        # Every slot refreshes, drawing from its own RNG stream, and then
        # every slot's start is picked in one pass.
        states = [acq.refresh(spec, archive, self._acq_rngs[i], self.moop.o)
                  for i, spec in enumerate(self.moop.acquisitions)]
        starts = acq.select_start(states, self.database, self.penalty)
        # One region and one localization per distinct start, in order of
        # first occurrence, shared by every slot with that start; all
        # slots are solved in one batch.
        localized = dict.fromkeys(starts)
        for start in localized:
            region = trust_region(self.database.records[start].latent, latents, self.moop.n)
            localized[start] = region, [model.set_center(region, local=sim.local)
                                        for sim, model in zip(self.moop.simulations, models)]
        regions = [localized[start][0] for start in starts]
        outcomes = optimizer.solve_batch(
            self.moop, states, [localized[start][1] for start in starts],
            [region.center for region in regions], regions, self.penalty)

        for i, (outcome, region) in enumerate(zip(outcomes, regions)):
            if (outcome.candidate is not None and self._propose(
                    batch, keys, outcome.candidate, f"acquisition:{i}") is not None):
                continue
            # A solve that converged onto an already-known point has
            # exhausted its region; refine the model globally instead.
            # A solve that could not make sufficient decrease still needs
            # better local data, so it refines within its region.
            # ``improve`` reads only the region and the data, so it needs
            # no model, and a problem without simulations gets
            # improvement points too.
            existing = np.vstack([latents, *(np.round(p.latent, 12) for p in batch.points)])
            if RbfSurrogate.improve(
                    None, cube if outcome.candidate is not None else region, existing,
                    self._acq_rngs[i],
                    lambda z: self._propose(batch, keys, z, f"improve:{i}")) is None:
                logger.warning("acquisition %d: could not find an unevaluated point; "
                               "dropped", i)
        return batch

    def _propose(self, batch, keys, z, origin):
        """Append the point ``z`` extracts to ``batch`` and return it, or None if known.

        Known means its latent key is in the database or in ``keys``, those of ``batch``.
        """
        design = embedding.extract(self.moop.plan, z)
        latent = embedding.embed(self.moop.plan, design)
        key = latent_key(latent)
        if self.database.has_key(key) or key in keys:
            return None
        keys.add(key)
        point = BatchPoint(design, latent, origin)
        batch.points.append(point)
        return point

    # -- evaluation --------------------------------------------------------

    def _run_simulations(self, design):
        """Every simulation's outputs at one design, or the exception raised."""
        try:
            return [np.atleast_1d(np.asarray(s.evaluator(design), dtype=float))
                    for s in self.moop.simulations]
        except Exception as err:  # noqa: BLE001 - user code may raise anything
            return err

    def evaluate_batch(self, batch: CandidateBatch) -> list:
        """Evaluate a batch through the worker pool and merge the results.

        Returns one record (or None for a skipped point) per batch entry,
        in batch order regardless of completion order.  Failed or
        non-finite evaluations are skipped with a warning; every point
        still counts against the budget.  With one worker the simulations
        run on the calling thread.
        """
        designs = [p.design for p in batch.points]
        if self.workers == 1 or len(designs) <= 1:
            raw = [self._run_simulations(d) for d in designs]
        else:
            with ThreadPoolExecutor(max_workers=self.workers) as pool:
                raw = list(pool.map(self._run_simulations, designs))

        results = []
        for point, outputs in zip(batch.points, raw):
            self.evaluations += 1
            results.append(self._merge_one(point, outputs, batch.iteration))
        return results

    def _merge_one(self, point, outputs, iteration):
        if isinstance(outputs, Exception):
            logger.warning("simulation failed at %s: %s; point skipped", point.design, outputs)
            return None
        for sim, out in zip(self.moop.simulations, outputs):
            if out.shape != (sim.output_dim,):
                logger.warning("simulation %r returned shape %s, expected (%d,); point skipped",
                               sim.name, out.shape, sim.output_dim)
                return None
            if not np.isfinite(out).all():
                logger.warning("simulation %r returned non-finite values; point skipped", sim.name)
                return None
        s = np.concatenate(outputs) if outputs else np.empty(0)
        try:
            f = eval_objectives(self.moop, point.design, s)
            g = eval_constraints(self.moop, point.design, s)
        except EvaluationError as err:
            logger.warning("%s; point skipped", err)
            return None
        try:
            return self.database.add(point.design, outputs, f, g, iteration)
        except DuplicatePointError:
            logger.warning("duplicate design point skipped at iteration %d", iteration)
            return None

    # -- penalty -----------------------------------------------------------

    def update_penalty(self, batch: CandidateBatch, results) -> float:
        """Escalate the penalty when every proposed point came back infeasible."""
        proposed = [r for p, r in zip(batch.points, results)
                    if p.optimizer_proposed and r is not None]
        if proposed and all(not r.feasible for r in proposed):
            self.penalty = min(self.penalty * PENALTY_GROWTH, PENALTY_CAP)
        return self.penalty

    # -- outer loop --------------------------------------------------------

    def _next_batch_size(self) -> int:
        return self.moop.q0 if self.iteration == 0 else self.moop.q

    def solve(self, budget: int) -> SolveResult:
        """Run iterations until the next batch would exceed the integer ``budget``.

        The budget counts evaluation attempts: one per point proposed, at
        most q0 in the initial design.  The run stops early when an
        iteration proposes no point at all (the design space is
        exhausted).  The result's archive is a copy of the one the solver
        keeps, brought up to date with the last batch.
        """
        if not _integer_at_least(budget, -math.inf):
            raise ValidationError(f"budget must be an integer, got {budget!r}")
        if budget < self.moop.q0:
            raise ValidationError(f"budget {budget} cannot cover the initial design "
                                  f"of {self.moop.q0} points")
        while self.evaluations + self._next_batch_size() <= budget:
            batch = self.iterate(self.iteration)
            if not batch.points:
                logger.warning("iteration %d proposed no unevaluated point; stopping at "
                               "%d of %d evaluations", self.iteration, self.evaluations, budget)
                break
            results = self.evaluate_batch(batch)
            if self.iteration > 0:
                self.update_penalty(batch, results)
            self.iteration += 1
            if self.checkpoint_path:
                self.checkpoint_save(self.checkpoint_path)
        return SolveResult(
            database=self.database,
            archive=replace(self.archive.update(self.database.records)),
            iterations=self.iteration,
            evaluations=self.evaluations,
        )

    # -- checkpoints ---------------------------------------------------------

    def checkpoint_save(self, path) -> None:
        """Append new records to the journal, then atomically replace the state file.

        The journal (``journal_path(path)``) holds one compact JSON line per
        record.  The state file at ``path`` holds everything else plus how
        many journal lines are valid and their sha256, so a crash between
        the two writes leaves a journal tail that the next load ignores and
        the next save truncates.  The first save to a path rewrites the
        journal, since whatever is there belongs to another run.  The new
        lines are encoded before either file is opened, so a design value
        that JSON cannot encode raises CheckpointError and leaves both
        files as they were.
        """
        path = os.fspath(path)
        records = self.database.records
        if self._journal is not None and self._journal[0] == path:
            _, count, offset, digest = self._journal
            mode = "r+b"
        else:
            count, offset, digest, mode = 0, 0, hashlib.sha256(), "wb"
        lines = [_record_line(rec) for rec in records[count:]]
        digest = digest.copy()
        with open(journal_path(path), mode) as fh:
            fh.seek(offset)
            fh.truncate()
            for line in lines:
                digest.update(line)
                fh.write(line)
            fh.flush()
            os.fsync(fh.fileno())
            offset = fh.tell()
        state = {
            "version": CHECKPOINT_VERSION,
            "problem": problem_fingerprint(self.moop),
            "iteration": self.iteration,
            "evaluations": self.evaluations,
            "penalty": self.penalty,
            "blas_threads": _blas.thread_count(),
            "rng": {
                "search": self._search_rng.bit_generator.state,
                "acquisitions": [r.bit_generator.state for r in self._acq_rngs],
            },
            "records": {"count": len(records), "sha256": digest.hexdigest()},
        }
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(state, fh, sort_keys=True, indent=1)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        self._journal = (path, len(records), offset, digest)

    @classmethod
    def checkpoint_load(cls, path, moop, workers: int = 1) -> "MoopSolver":
        """Rebuild a solver mid-run from a checkpoint of the same problem.

        Replays the first ``count`` journal lines the state file names and
        checks their sha256; later lines are a torn tail and are ignored.
        Every record's objectives and constraints are recomputed from its
        design and simulation outputs; a mismatch means the problem was
        edited since the save and raises CheckpointError.  The solver goes
        on checkpointing to ``path``.
        """
        path = os.fspath(path)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                state = json.load(fh)
        except (OSError, ValueError) as err:
            raise CheckpointError(f"unreadable checkpoint {path}: {err}") from err
        try:
            version = state["version"]
            if version != CHECKPOINT_VERSION:
                raise CheckpointError(f"unsupported checkpoint version {version}")
            solver = cls(moop, workers=workers, checkpoint_path=path)
            if state["problem"] != problem_fingerprint(solver.moop):
                raise CheckpointError("checkpoint was written for a different problem")
            solver.iteration = _count(state["iteration"], "iteration")
            solver.evaluations = _count(state["evaluations"], "evaluations")
            penalty = state["penalty"]
            if type(penalty) not in (int, float) or not math.isfinite(penalty):
                raise CheckpointError(f"penalty must be a finite number, not {penalty!r}")
            solver.penalty = float(penalty)
            solver._search_rng.bit_generator.state = state["rng"]["search"]
            if len(state["rng"]["acquisitions"]) != len(solver._acq_rngs):
                raise CheckpointError("checkpoint has the wrong number of acquisition RNG states")
            for rng, st in zip(solver._acq_rngs, state["rng"]["acquisitions"]):
                rng.bit_generator.state = st
            threads = _blas.thread_count()
            if state["blas_threads"] != threads:
                logger.warning("checkpoint %s was written with %s BLAS threads, resuming with %s; "
                               "the run may not repeat bitwise", path, state["blas_threads"],
                               threads)
            count = _count(state["records"]["count"], "record count")
            digest = hashlib.sha256()
            with open(journal_path(path), "rb") as fh:
                for n in range(count):
                    line = fh.readline()
                    if not line.endswith(b"\n"):
                        raise CheckpointError(f"journal {journal_path(path)} holds {n} of "
                                              f"{count} records")
                    digest.update(line)
                    solver._restore_record(line, n, path)
                offset = fh.tell()
            if digest.hexdigest() != state["records"]["sha256"]:
                raise CheckpointError(f"journal {journal_path(path)} does not match the "
                                      "digest in the state file")
        except (OSError, KeyError, TypeError, IndexError, ValueError, DuplicatePointError) as err:
            raise CheckpointError(f"corrupt checkpoint {path}: {err}") from err
        solver._journal = (path, count, offset, digest)
        return solver

    def _restore_record(self, line, n, path) -> None:
        rec = json.loads(line)
        x = rec["design"]
        s = [np.asarray(o, dtype=float) for o in rec["outputs"]]
        f = np.asarray(rec["objectives"], dtype=float)
        g = np.asarray(rec["constraints"], dtype=float)
        # The fingerprint covers names only; recomputing the terms
        # catches edited caps, scales, coefficients and forms.
        flat = np.concatenate(s) if s else np.empty(0)
        try:
            same = (np.array_equal(eval_objectives(self.moop, x, flat), f)
                    and np.array_equal(eval_constraints(self.moop, x, flat), g))
        except EvaluationError:
            same = False
        if not same:
            raise CheckpointError(f"record {n} of {path} does not match the problem's "
                                  "objectives or constraints")
        record = self.database.add(x, s, f, g, rec["iteration"])
        # The line holds the record's float text; it is kept when it
        # rebuilds the line exactly, so the run's database.csv reuses it.
        text = _line_float_text(line)
        if text is not None:
            vars(record)["float_text"] = text
            if _record_line(record) != line:
                del vars(record)["float_text"]


def journal_path(path) -> str:
    """The record journal that belongs to the checkpoint state file ``path``."""
    return f"{os.fspath(path)}.records"


def _record_line(rec) -> bytes:
    """One record as a compact, key-sorted, newline-terminated JSON journal line.

    The lists are the record's ``float_text``; only the design goes
    through ``json.dumps``.
    """
    *outputs, objectives, constraints = rec.float_text
    try:
        design = json.dumps(rec.design, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as err:
        name, value = next((k, v) for k, v in rec.design.items() if not _encodable(v))
        raise CheckpointError(f"variable {name!r}: a value of type {type(value).__name__} "
                              f"cannot be written to a checkpoint ({err})") from err
    return (f'{{"constraints":[{constraints}],"design":{design},"iteration":{rec.iteration},'
            f'"objectives":[{objectives}],"outputs":[{",".join(f"[{o}]" for o in outputs)}]}}'
            "\n").encode()


def _line_float_text(line: bytes):
    """The ``float_text`` that ``_record_line`` wrote into ``line``, or None.

    The constraints come first in the key-sorted line, and the objectives
    and outputs last, after the design, which may hold any string.
    """
    text = line.decode()
    head, tail = '{"constraints":[', text.rfind('"objectives":[')
    end = text.find("]")
    if not text.startswith(head) or tail < 0 or end < 0 or not text.endswith("]}\n"):
        return None
    objectives, _, outputs = text[tail + len('"objectives":['):-3].partition('],"outputs":[')
    return (*(outputs[1:-1].split("],[") if outputs else ()), objectives,
            text[len(head):end])


def _encodable(value) -> bool:
    try:
        json.dumps(value)
    except (TypeError, ValueError):
        return False
    return True


def _count(value, name) -> int:
    if not _integer_at_least(value, 0):
        raise CheckpointError(f"{name} must be a non-negative integer, not {value!r}")
    return value
