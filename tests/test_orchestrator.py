"""Solver loop tests: budgets, dedup, batch merging, penalties, checkpoints."""

import functools
import hashlib
import json
import logging
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from moso_kit import _blas, acquisition, embedding, optimizer, orchestrator, testbed
from moso_kit.embedding import embed
from moso_kit.metrics import ParetoArchive
from moso_kit.orchestrator import (
    BatchPoint,
    CandidateBatch,
    CheckpointError,
    MoopSolver,
    journal_path,
)
from moso_kit.surrogate import RbfSurrogate
from moso_kit.problem import (
    AcquisitionSpec,
    CustomEmbedder,
    DesignVariable,
    EvalRecord,
    MoopDefinition,
    ObjectiveSpec,
    SimulationSpec,
    ValidationError,
    identity_objective,
    latent_key,
    sum_of_squares_constraint,
    sum_of_squares_objective,
    validate,
    variable_objective,
)

from helpers import brute_force_nondominated


def bowl_moop(q0=8, seed=0, acquisitions=None, constraints=(), evaluator=None):
    """Two smooth single-minimum objectives over one continuous variable."""

    def default_eval(design):
        x = design["x"]
        return np.array([x - 0.3, x - 0.8])

    return MoopDefinition(
        variables=[DesignVariable("x", "continuous", 0.0, 1.0)],
        simulations=[SimulationSpec("shift", 2, evaluator or default_eval, local=True)],
        objectives=[sum_of_squares_objective("near_low", [0]),
                    sum_of_squares_objective("near_high", [1])],
        constraints=list(constraints),
        acquisitions=acquisitions or [
            AcquisitionSpec("fixed_weight", weights=(0.5, 0.5)),
            AcquisitionSpec("random_weight"),
            AcquisitionSpec("random_epsilon_constraint"),
        ],
        q0=q0,
        rng_seed=seed,
    )


def test_initial_iteration_is_search_batch():
    solver = MoopSolver(bowl_moop(q0=8))
    batch = solver.iterate(0)
    assert len(batch) == 8
    assert all(p.origin == "search" for p in batch.points)
    keys = {latent_key(p.latent) for p in batch.points}
    assert len(keys) == 8


def test_initial_design_depends_only_on_seed():
    a = MoopSolver(bowl_moop(seed=5)).iterate(0)
    b = MoopSolver(bowl_moop(seed=5)).iterate(0)
    c = MoopSolver(bowl_moop(seed=6)).iterate(0)
    za = np.vstack([p.latent for p in a.points])
    zb = np.vstack([p.latent for p in b.points])
    zc = np.vstack([p.latent for p in c.points])
    assert np.array_equal(za, zb)
    assert not np.array_equal(za, zc)


def test_initial_design_simulates_each_snapped_design_once(caplog):
    # Twelve Latin hypercube samples over 4 x 4 integer levels snap to
    # fewer than twelve designs.
    calls = []

    def simulate(design):
        calls.append((design["i"], design["j"]))
        return np.array([design["i"] - 1.0, design["j"] - 2.0])

    defn = bowl_moop(q0=12, evaluator=simulate)
    defn.variables = [DesignVariable("i", "integer", 0, 3), DesignVariable("j", "integer", 0, 3)]
    assert len(MoopSolver(defn).iterate(0)) < 12
    with caplog.at_level("WARNING"):
        result = MoopSolver(defn).solve(12)
    assert len(calls) == len(set(calls)) == result.evaluations == len(result.database)
    assert not any("duplicate design point" in r.message for r in caplog.records)


def test_budget_is_initial_plus_batch_per_iteration():
    solver = MoopSolver(bowl_moop(q0=8))
    result = solver.solve(20)
    # 8 + 3k <= 20 admits k = 4 acquisition iterations.
    assert result.iterations == 5
    assert result.evaluations == 8 + 3 * 4
    assert len(result.database) == result.evaluations

    # One more unit of budget cannot fit another batch of 3.
    other = MoopSolver(bowl_moop(q0=8)).solve(22)
    assert other.evaluations == 20


def test_budget_below_initial_design_rejected():
    solver = MoopSolver(bowl_moop(q0=8))
    with pytest.raises(ValidationError):
        solver.solve(7)


def test_database_never_contains_duplicate_latents():
    result = MoopSolver(bowl_moop(q0=10, seed=2)).solve(31)
    keys = {latent_key(r.latent) for r in result.database.records}
    assert len(keys) == len(result.database.records)


def test_solver_requires_data_before_acquisition_iterations():
    solver = MoopSolver(bowl_moop())
    with pytest.raises(Exception):
        solver.iterate(1)


def test_repeated_acquisition_swapped_for_improvement_point():
    # Two identical deterministic scalarizations solve to the same point;
    # the second must come back as a model-improvement point instead.
    moop = bowl_moop(q0=6, seed=1, acquisitions=[
        AcquisitionSpec("fixed_weight", weights=(1.0, 0.0)),
        AcquisitionSpec("fixed_weight", weights=(1.0, 0.0)),
    ])
    solver = MoopSolver(moop)
    solver.evaluate_batch(solver.iterate(0))
    batch = solver.iterate(1)
    assert len(batch) == 2
    origins = [p.origin for p in batch.points]
    assert origins[0] in ("acquisition:0", "improve:0")
    assert origins[1] == "improve:1"
    keys = {latent_key(p.latent) for p in batch.points}
    assert len(keys) == 2
    for p in batch.points:
        assert not solver.database.has_key(latent_key(p.latent))


def test_stalled_solve_yields_improvement_inside_local_region(monkeypatch):
    # A subproblem solve that cannot make sufficient decrease falls back
    # to refining the model near its start record.  Allowing the solver
    # zero descent iterations forces that outcome deterministically.
    monkeypatch.setattr(optimizer, "MAX_ITERATIONS", 0)
    moop = bowl_moop(q0=5, seed=4,
                     evaluator=lambda d: np.array([0.25, 0.25]),
                     acquisitions=[AcquisitionSpec("fixed_weight",
                                                   weights=(0.5, 0.5))])
    solver = MoopSolver(moop)
    solver.evaluate_batch(solver.iterate(0))
    batch = solver.iterate(1)
    assert len(batch) == 1
    assert batch.points[0].origin == "improve:0"

    from moso_kit.surrogate import trust_region

    # All records tie, so the start is the earliest one.
    center = solver.database.records[0].latent
    latents = solver.database.latent_matrix()
    region = trust_region(center, latents, 1)
    gap = np.abs(batch.points[0].latent - center).max()
    assert gap <= region.radius + 1e-12


def algebraic_moop():
    """Objectives that read only the design, so the problem needs no simulation."""
    return MoopDefinition(
        variables=[DesignVariable("a", "continuous", 0.0, 1.0),
                   DesignVariable("b", "continuous", 0.0, 1.0)],
        objectives=[variable_objective("fa", "a"),
                    ObjectiveSpec("fb", lambda x, s: (1.0 - x["a"]) ** 2 + x["b"])],
        acquisitions=[AcquisitionSpec("fixed_weight", weights=(0.5, 0.5)),
                      AcquisitionSpec("random_epsilon_constraint")],
        q0=10,
    )


def test_problem_without_simulations_is_solved(caplog):
    # The problem's q0 sizes the initial design.
    with pytest.warns(UserWarning, match="no simulations"):
        solver = MoopSolver(algebraic_moop())
    with caplog.at_level(logging.WARNING):
        result = solver.solve(30)
    # A slot whose solve returns no new point gets an improvement point
    # with no model to draw it from, so no slot of an iteration is dropped.
    assert not [r for r in caplog.records if "dropped" in r.getMessage()]
    assert result.evaluations == len(result.database) == 30
    assert np.bincount([r.iteration for r in result.database.records]).tolist() == [10] + [2] * 10
    assert all(r.sim_outputs == () for r in result.database.records)
    assert_archive_is_a_rebuild(result.archive, result.database.records)


def test_latent_distances_are_computed_once_per_record_and_never_without_simulations(
        monkeypatch):
    computed, pairwise = [], embedding.pairwise_distances

    def spy(a, b):
        computed.append(len(a))
        return pairwise(a, b)

    monkeypatch.setattr(embedding, "pairwise_distances", spy)
    with pytest.warns(UserWarning, match="no simulations"):
        assert len(MoopSolver(algebraic_moop()).solve(30).database) == 30
    assert computed == []
    # Each fit computes the rows of the records evaluated since the last
    # one; the last batch is never fitted.
    database = MoopSolver(bowl_moop(q0=8)).solve(20).database
    per_iteration = np.bincount([r.iteration for r in database.records]).tolist()
    assert computed == per_iteration[:-1] == [8, 3, 3, 3]


def test_solve_stops_when_an_iteration_proposes_nothing(caplog):
    # Four integer levels are all spent by the initial design, so every
    # later slot is dropped; the run must stop instead of spinning.
    moop = MoopDefinition(
        variables=[DesignVariable("k", "integer", 0, 3)],
        simulations=[SimulationSpec("id", 1, lambda d: np.array([float(d["k"])]), local=True)],
        objectives=[identity_objective("up", 0), identity_objective("down", 0, scale=-1.0)],
        acquisitions=[AcquisitionSpec("random_weight"), AcquisitionSpec("random_weight")],
        q0=4,
    )
    solver = MoopSolver(moop)
    proposals = []
    iterate = solver.iterate

    def guarded(k):
        proposals.append(k)
        if len(proposals) > 20:
            raise RuntimeError("solve kept iterating without spending budget")
        return iterate(k)

    solver.iterate = guarded
    with caplog.at_level("WARNING"):
        result = solver.solve(8)
    assert proposals == [0, 1]
    assert result.evaluations == len(result.database) == 4
    assert result.iterations == 1
    assert any("proposed no unevaluated point" in r.message for r in caplog.records)


@pytest.mark.blas_threads
def test_worker_count_does_not_change_results():
    def run(workers):
        moop = testbed.dtlz2_moop(n=4, o=2, q0=12, batch=4, seed=3)
        return MoopSolver(moop, workers=workers).solve(28)

    serial = run(1)
    pooled = run(8)
    assert serial.evaluations == pooled.evaluations
    assert len(serial.database) == len(pooled.database)
    for a, b in zip(serial.database.records, pooled.database.records):
        assert a.design == b.design
        assert np.array_equal(a.objectives, b.objectives)
        assert all(np.array_equal(u, v)
                   for u, v in zip(a.sim_outputs, b.sim_outputs))
    assert np.array_equal(serial.archive.objectives, pooled.archive.objectives)


def test_results_merge_in_batch_order_not_completion_order():
    # Later submissions finish first; the database order must still
    # follow the batch.
    def slow_eval(design):
        x = design["x"]
        time.sleep(0.3 * (1.0 - x))
        return np.array([x, x])

    moop = bowl_moop(evaluator=slow_eval)
    solver = MoopSolver(moop, workers=4)
    plan = solver.moop.plan
    xs = [0.05, 0.35, 0.65, 0.95]
    batch = CandidateBatch(iteration=0, points=[
        BatchPoint(design={"x": x}, latent=embed(plan, {"x": x}),
                   origin="search")
        for x in xs
    ])
    results = solver.evaluate_batch(batch)
    assert [r.design["x"] for r in results] == xs
    assert [r.design["x"] for r in solver.database.records] == xs


def test_failed_and_non_finite_evaluations_skip_but_count(caplog):
    def flaky(design):
        x = design["x"]
        if x < 0.2:
            return np.array([np.nan, 0.0])
        if x > 0.8:
            raise RuntimeError("detector saturated")
        return np.array([x, x])

    solver = MoopSolver(bowl_moop(evaluator=flaky))
    plan = solver.moop.plan
    batch = CandidateBatch(iteration=0, points=[
        BatchPoint({"x": x}, embed(plan, {"x": x}), "search")
        for x in (0.1, 0.5, 0.9)
    ])
    with caplog.at_level("WARNING"):
        results = solver.evaluate_batch(batch)
    assert results[0] is None
    assert results[1] is not None
    assert results[2] is None
    assert solver.evaluations == 3
    assert len(solver.database) == 1
    skipped = [r for r in caplog.records if "skipped" in r.message]
    assert len(skipped) == 2


def test_failures_still_consume_budget_in_full_runs():
    def flaky(design):
        x = design["x"]
        if x > 0.75:
            raise RuntimeError("no convergence")
        return np.array([x - 0.3, x - 0.8])

    solver = MoopSolver(bowl_moop(q0=8, seed=9, evaluator=flaky))
    result = solver.solve(17)
    assert result.evaluations == 17
    assert len(result.database) < 17


def test_wrong_output_shape_skips_point(caplog):
    solver = MoopSolver(bowl_moop(evaluator=lambda d: np.array([1.0])))
    plan = solver.moop.plan
    batch = CandidateBatch(iteration=0, points=[
        BatchPoint({"x": 0.5}, embed(plan, {"x": 0.5}), "search")])
    with caplog.at_level("WARNING"):
        results = solver.evaluate_batch(batch)
    assert results == [None]
    assert len(solver.database) == 0


def penalty_probe(monkeypatch):
    monkeypatch.setattr(orchestrator, "PENALTY_GROWTH", 4.0)
    monkeypatch.setattr(orchestrator, "PENALTY_CAP", 8.0)
    solver = MoopSolver(bowl_moop())
    z = np.array([0.5])
    acq_point = BatchPoint({"x": 0.5}, z, "acquisition:0")
    imp_point = BatchPoint({"x": 0.5}, z, "improve:0")
    return solver, acq_point, imp_point


def test_penalty_escalates_when_every_proposed_point_is_infeasible(monkeypatch):
    solver, acq, _ = penalty_probe(monkeypatch)
    batch = CandidateBatch(1, [acq, acq])
    bad = SimpleNamespace(feasible=False)
    assert solver.update_penalty(batch, [bad, bad]) == 4.0
    assert solver.update_penalty(batch, [bad, bad]) == 8.0
    # Capped thereafter.
    assert solver.update_penalty(batch, [bad, bad]) == 8.0


def test_penalty_unchanged_when_any_proposed_point_is_feasible(monkeypatch):
    solver, acq, _ = penalty_probe(monkeypatch)
    batch = CandidateBatch(1, [acq, acq])
    results = [SimpleNamespace(feasible=False), SimpleNamespace(feasible=True)]
    assert solver.update_penalty(batch, results) == 1.0


def test_penalty_ignores_improvement_and_skipped_points(monkeypatch):
    solver, acq, imp = penalty_probe(monkeypatch)
    # Improvement points never trigger escalation.
    batch = CandidateBatch(1, [imp])
    assert solver.update_penalty(batch, [SimpleNamespace(feasible=False)]) == 1.0
    # A proposed point whose evaluation was skipped does not count either.
    batch = CandidateBatch(1, [acq])
    assert solver.update_penalty(batch, [None]) == 1.0


def test_penalty_escalates_during_solve_on_infeasible_problem():
    moop = bowl_moop(
        q0=6,
        constraints=[sum_of_squares_constraint("impossible", [0], cap=-1.0)],
    )
    solver = MoopSolver(moop)
    solver.solve(15)
    assert solver.penalty > 1.0


def test_penalty_constant_on_unconstrained_problem():
    solver = MoopSolver(bowl_moop(q0=6))
    solver.solve(18)
    assert solver.penalty == 1.0


def test_archive_is_nondominated_filter_of_feasible_records():
    # (x - 0.8)^2 > 0.36 rules out x < 0.2, so at least two points of any
    # ten-stratum space-filling design start out infeasible.
    moop = bowl_moop(
        q0=10, seed=8,
        constraints=[sum_of_squares_constraint("not_too_low", [1], cap=0.36)])
    result = MoopSolver(moop).solve(25)
    feasible = [r for r in result.database.records if r.feasible]
    assert feasible and len(feasible) < len(result.database)
    objs = np.vstack([r.objectives for r in feasible])
    keep = brute_force_nondominated(objs)
    expected = objs[keep]
    got = result.archive.objectives
    assert got.shape == expected.shape
    order_a = np.lexsort(expected.T)
    order_b = np.lexsort(got.T)
    assert np.array_equal(expected[order_a], got[order_b])


def test_archive_empty_when_nothing_is_feasible():
    moop = bowl_moop(
        q0=6,
        constraints=[sum_of_squares_constraint("impossible", [0], cap=-1.0)])
    result = MoopSolver(moop).solve(12)
    assert len(result.archive) == 0


def assert_archive_is_a_rebuild(archive, records):
    want = ParetoArchive.from_records(records)
    assert archive.seen == want.seen == len(records)
    assert archive.designs == want.designs
    assert np.array_equal(archive.objectives, want.objectives)


class ArchiveChecked(MoopSolver):
    """Asserts after every proposal that the kept archive is a fresh rebuild's equal."""

    checked = 0

    def iterate(self, k):
        batch = super().iterate(k)
        if k > 0:
            assert_archive_is_a_rebuild(self.archive, self.database.records)
            self.checked += 1
        return batch


def test_kept_archive_matches_a_rebuild_after_every_iteration_and_resume(tmp_path):
    # Infeasible records (x < 0.2) go in between feasible ones.
    def moop():
        return bowl_moop(q0=10, seed=8, constraints=[
            sum_of_squares_constraint("not_too_low", [1], cap=0.36)])

    path = tmp_path / "state.json"
    solver = ArchiveChecked(moop())
    straight = solver.solve(31)
    assert solver.checked == 7
    assert any(not r.feasible for r in straight.database.records)
    first = ArchiveChecked(moop(), checkpoint_path=str(path))
    first.solve(19)
    resumed = ArchiveChecked.checkpoint_load(str(path), moop())
    assert len(resumed.archive) == 0 and resumed.archive.seen == 0
    assert_same_run(straight, resumed.solve(31))
    assert (first.checked, resumed.checked) == (3, 4)


def test_result_archive_is_a_snapshot_of_the_kept_one(tmp_path):
    # Infeasible records (x < 0.2) go in between feasible ones.
    def moop():
        return bowl_moop(q0=10, seed=8, constraints=[
            sum_of_squares_constraint("not_too_low", [1], cap=0.36)])

    path = tmp_path / "state.json"
    solver = MoopSolver(moop(), checkpoint_path=str(path))
    first = solver.solve(19)
    records = list(first.database.records)
    assert_archive_is_a_rebuild(first.archive, records)
    # A resumed solver whose budget is spent runs no iteration, and still
    # returns the whole archive.
    resumed = MoopSolver.checkpoint_load(str(path), moop())
    assert len(resumed.archive) == 0
    spent = resumed.solve(19)
    assert spent.iterations == first.iterations
    assert_archive_is_a_rebuild(spent.archive, spent.database.records)
    # A later solve of the same solver leaves the first result's archive as it was.
    second = solver.solve(31)
    assert len(second.database) > len(records)
    assert_archive_is_a_rebuild(second.archive, second.database.records)
    assert_archive_is_a_rebuild(first.archive, records)


@pytest.mark.parametrize("scale", [1.5e308, 1e-322])
def test_objectives_whose_archive_spread_overflows_or_underflows_are_solved(scale):
    # Identity objectives in [-scale, scale]: their spread overflows to
    # inf at 1.5e308, and a hundredth of it rounds to zero at 1e-322.
    moop = MoopDefinition(
        variables=[DesignVariable("x", "continuous", 0.0, 1.0)],
        simulations=[SimulationSpec("pair", 2,
                                    lambda d: np.array([2.0 * d["x"] - 1.0, 1.0 - 2.0 * d["x"]]),
                                    local=True)],
        objectives=[identity_objective("f1", 0, scale), identity_objective("f2", 1, scale)],
        acquisitions=[AcquisitionSpec("random_epsilon_constraint")] * 2,
        q0=8,
    )
    with np.errstate(all="ignore"):
        result = MoopSolver(moop).solve(20)
    assert result.evaluations == 20
    assert len(result.archive) > 1


def dtlz2_small():
    return testbed.dtlz2_moop(n=3, o=2, q0=10, batch=3, seed=7)


CHECKPOINT_CONFIGS = [
    ("dtlz2", dtlz2_small, 16, 22),
    ("reactor", lambda: testbed.cfr_moop(structured=True, q0=10, batch=3,
                                         seed=11), 16, 22),
    ("calibration", lambda: testbed.residuals_moop(structured=True, q0=8,
                                                   batch=2, seed=13), 12, 16),
]


@pytest.mark.parametrize("label,make,pause,budget",
                         CHECKPOINT_CONFIGS, ids=[c[0] for c in CHECKPOINT_CONFIGS])
def test_checkpoint_resume_matches_uninterrupted_run(tmp_path, label, make,
                                                     pause, budget):
    straight = MoopSolver(make()).solve(budget)

    path = tmp_path / "state.json"
    first = MoopSolver(make(), checkpoint_path=str(path))
    first.solve(pause)
    assert path.exists()

    resumed = MoopSolver.checkpoint_load(str(path), make())
    assert_same_run(straight, resumed.solve(budget))


def assert_same_run(straight, result):
    assert result.evaluations == straight.evaluations
    assert result.iterations == straight.iterations
    assert len(result.database) == len(straight.database)
    for a, b in zip(straight.database.records, result.database.records):
        assert a.design == b.design
        assert np.array_equal(a.objectives, b.objectives)
        assert np.array_equal(a.constraints, b.constraints)
        assert all(np.array_equal(u, v)
                   for u, v in zip(a.sim_outputs, b.sim_outputs))
        assert a.iteration == b.iteration
    assert np.array_equal(straight.archive.objectives,
                          result.archive.objectives)


def journal_lines(path):
    return Path(journal_path(path)).read_bytes().splitlines(keepends=True)


def edit_state(path, **fields):
    state = json.loads(path.read_text())
    state.update(fields)
    path.write_text(json.dumps(state))


def custom_level_moop():
    """A continuous variable plus a custom one whose values are numpy ints."""
    level = CustomEmbedder(width=1, to_latent=lambda v: np.array([v / 8.0]),
                           from_latent=lambda z: np.int64(np.rint(8.0 * z[0])))
    return MoopDefinition(
        variables=[DesignVariable("x", "continuous", 0.0, 1.0),
                   DesignVariable("level", "custom", embedder=level)],
        simulations=[SimulationSpec("shift", 2,
                                    lambda d: np.array([d["x"] - 0.3, d["level"] / 8.0 - 0.8]),
                                    local=True)],
        objectives=[sum_of_squares_objective("near_low", [0]),
                    sum_of_squares_objective("near_high", [1])],
        acquisitions=[AcquisitionSpec("random_weight"), AcquisitionSpec("random_weight")],
        q0=6,
        rng_seed=3,
    )


def test_checkpoint_resume_with_numpy_valued_custom_variable(tmp_path):
    straight = MoopSolver(custom_level_moop()).solve(14)

    path = tmp_path / "state.json"
    MoopSolver(custom_level_moop(), checkpoint_path=str(path)).solve(10)
    result = MoopSolver.checkpoint_load(str(path), custom_level_moop()).solve(14)

    assert result.evaluations == straight.evaluations == 14
    assert [r.design for r in result.database.records] == \
        [r.design for r in straight.database.records]
    assert all(type(r.design["level"]) is int for r in result.database.records)
    assert np.array_equal(result.database.objective_matrix(),
                          straight.database.objective_matrix())


def array_level_moop(arrays):
    """A custom variable whose values become 1-element arrays once ``arrays`` is non-empty."""
    level = CustomEmbedder(
        width=1, to_latent=lambda v: np.ravel(v) / 8.0,
        from_latent=lambda z: np.array([8.0 * z[0]]) if arrays else 8.0 * z[0])
    return MoopDefinition(
        variables=[DesignVariable("x", "continuous", 0.0, 1.0),
                   DesignVariable("level", "custom", embedder=level)],
        simulations=[SimulationSpec(
            "shift", 2, lambda d: np.array([d["x"] - 0.3, float(np.ravel(d["level"])[0]) / 8.0]),
            local=True)],
        objectives=[sum_of_squares_objective("near_low", [0]),
                    sum_of_squares_objective("near_high", [1])],
        acquisitions=[AcquisitionSpec("random_weight"), AcquisitionSpec("random_weight")],
        q0=6,
        rng_seed=3,
    )


def test_checkpoint_save_names_a_design_value_json_cannot_encode(tmp_path):
    arrays = []
    path = tmp_path / "state.json"
    solver = MoopSolver(array_level_moop(arrays), checkpoint_path=str(path))
    solver.solve(8)
    saved = path.read_bytes(), Path(journal_path(path)).read_bytes()

    arrays.append(True)
    with pytest.raises(CheckpointError, match="variable 'level': a value of type ndarray"):
        solver.solve(10)
    assert (path.read_bytes(), Path(journal_path(path)).read_bytes()) == saved
    # The first save to a new path writes nothing either.
    fresh = tmp_path / "fresh.json"
    with pytest.raises(CheckpointError, match="variable 'level'"):
        MoopSolver(array_level_moop(arrays), checkpoint_path=str(fresh)).solve(6)
    assert not fresh.exists() and not Path(journal_path(fresh)).exists()

    arrays.clear()
    resumed = MoopSolver.checkpoint_load(str(path), array_level_moop(arrays)).solve(10)
    assert resumed.evaluations == 10


def test_a_run_without_checkpoints_formats_no_record():
    result = MoopSolver(bowl_moop(q0=6)).solve(12)
    assert not any("float_text" in vars(r) for r in result.database.records)


def journal_lookalike_moop():
    """Two simulations, a constraint, and design values that look like journal fields."""
    listed = CustomEmbedder(width=1, to_latent=lambda v: np.array([v[0]]),
                            from_latent=lambda z: [float(z[0])])
    return MoopDefinition(
        variables=[DesignVariable("x", "continuous", 0.0, 1.0),
                   DesignVariable("objectives", "custom", embedder=listed),
                   DesignVariable("level", "categorical", levels=('],"outputs":[[', "plain"))],
        simulations=[
            SimulationSpec("shift", 2, lambda d: np.array([d["x"] - 0.3,
                                                           d["objectives"][0] - 0.8]), local=True),
            SimulationSpec("tilt", 1, lambda d: np.array([d["x"] + (d["level"] == "plain")]),
                           local=False)],
        objectives=[sum_of_squares_objective("near_low", [0]),
                    sum_of_squares_objective("near_high", [1])],
        constraints=[sum_of_squares_constraint("cap", [2], cap=1.5)],
        acquisitions=[AcquisitionSpec("random_weight"), AcquisitionSpec("random_weight")],
        q0=6,
        rng_seed=5,
    )


def count_formatting(monkeypatch):
    """The records whose float text is made from their values from now on."""
    formatted, make = [], EvalRecord.float_text.func

    def counted(record):
        formatted.append(record)
        return make(record)

    text = functools.cached_property(counted)
    text.__set_name__(EvalRecord, "float_text")
    monkeypatch.setattr(EvalRecord, "float_text", text)
    return formatted


@pytest.mark.blas_threads
@pytest.mark.parametrize("make", [journal_lookalike_moop, lambda: bowl_moop(q0=6)],
                         ids=["lookalike", "bowl"])
def test_restored_records_carry_the_journal_text(tmp_path, make, monkeypatch):
    path = tmp_path / "state.json"
    saved = MoopSolver(make(), checkpoint_path=str(path)).solve(12).database.records
    formatted = count_formatting(monkeypatch)
    restored = MoopSolver.checkpoint_load(str(path), make()).database.records
    assert formatted == []
    assert len(restored) == len(saved) == 12
    for record, original in zip(restored, saved):
        assert vars(record)["float_text"] == original.float_text
        assert original.float_text == EvalRecord.float_text.func(record)
        assert orchestrator._record_line(record) == orchestrator._record_line(original)


def test_restored_text_is_kept_only_when_it_rebuilds_the_line(tmp_path, monkeypatch):
    path = tmp_path / "state.json"
    MoopSolver(bowl_moop(q0=6), checkpoint_path=str(path)).solve(9)
    lines = journal_lines(path)
    written = lines[2]
    # A line that loads to the same record but is not the one
    # ``_record_line`` writes (a space after the design's colon).
    lines[2] = lines[2].replace(b'"design":{"x":', b'"design":{"x": ')
    Path(journal_path(path)).write_bytes(b"".join(lines))
    edit_state(path, records={"count": 9, "sha256": hashlib.sha256(b"".join(lines)).hexdigest()})

    formatted = count_formatting(monkeypatch)
    restored = MoopSolver.checkpoint_load(str(path), bowl_moop(q0=6)).database.records
    assert ["float_text" in vars(r) for r in restored] == [i != 2 for i in range(9)]
    assert lines[2] != written and orchestrator._record_line(restored[2]) == written
    assert formatted == [restored[2]]


def test_checkpoint_rejects_problem_with_edited_terms(tmp_path):
    def capped(cap):
        return bowl_moop(q0=6, constraints=[sum_of_squares_constraint("cap", [0], cap=cap)])

    path = tmp_path / "state.json"
    MoopSolver(capped(10.0), checkpoint_path=str(path)).solve(9)
    assert len(MoopSolver.checkpoint_load(str(path), capped(10.0)).database) == 9
    with pytest.raises(CheckpointError, match="does not match"):
        MoopSolver.checkpoint_load(str(path), capped(-5.0))


def test_checkpoint_restores_counters_and_penalty(tmp_path, monkeypatch):
    monkeypatch.setattr(orchestrator, "PENALTY_GROWTH", 3.0)
    moop = bowl_moop(
        q0=6,
        constraints=[sum_of_squares_constraint("impossible", [0], cap=-1.0)])
    path = tmp_path / "state.json"
    solver = MoopSolver(moop, checkpoint_path=str(path))
    solver.solve(12)

    resumed = MoopSolver.checkpoint_load(str(path), bowl_moop(
        q0=6,
        constraints=[sum_of_squares_constraint("impossible", [0], cap=-1.0)]))
    assert resumed.evaluations == solver.evaluations
    assert resumed.iteration == solver.iteration
    assert resumed.penalty == solver.penalty


def test_checkpoint_rejects_other_problem(tmp_path):
    path = tmp_path / "state.json"
    MoopSolver(bowl_moop(q0=6), checkpoint_path=str(path)).solve(6)
    other = testbed.dtlz2_moop(n=3, o=2, q0=10, batch=3, seed=7)
    with pytest.raises(CheckpointError):
        MoopSolver.checkpoint_load(str(path), other)


def test_checkpoint_rejects_garbage_and_bad_versions(tmp_path):
    path = tmp_path / "state.json"
    path.write_text("definitely not json {")
    with pytest.raises(CheckpointError):
        MoopSolver.checkpoint_load(str(path), bowl_moop(q0=6))

    good = tmp_path / "good.json"
    MoopSolver(bowl_moop(q0=6), checkpoint_path=str(good)).solve(6)
    for version in (1, 99):
        edit_state(good, version=version)
        with pytest.raises(CheckpointError, match=f"unsupported checkpoint version {version}"):
            MoopSolver.checkpoint_load(str(good), bowl_moop(q0=6))


def test_checkpoint_resume_ignores_then_drops_a_torn_journal_tail(tmp_path):
    straight = MoopSolver(dtlz2_small()).solve(22)

    path = tmp_path / "state.json"
    first = MoopSolver(dtlz2_small(), checkpoint_path=str(path))
    first.solve(13)
    saved, count = path.read_bytes(), len(first.database)
    first.solve(16)
    # A crash between the journal append and the state replace, in the
    # middle of the next append: the state names fewer lines than exist.
    path.write_bytes(saved)
    with open(journal_path(path), "ab") as fh:
        fh.write(journal_lines(path)[-1][:40])

    resumed = MoopSolver.checkpoint_load(str(path), dtlz2_small())
    assert len(resumed.database) == count
    result = resumed.solve(22)
    assert_same_run(straight, result)
    assert len(journal_lines(path)) == len(result.database)
    reloaded = MoopSolver.checkpoint_load(str(path), dtlz2_small())
    assert np.array_equal(reloaded.database.objective_matrix(),
                          result.database.objective_matrix())


def test_first_save_replaces_a_stale_journal(tmp_path):
    path = tmp_path / "state.json"
    MoopSolver(bowl_moop(q0=6, seed=1), checkpoint_path=str(path)).solve(12)
    path.unlink()

    result = MoopSolver(bowl_moop(q0=6), checkpoint_path=str(path)).solve(9)
    assert len(journal_lines(path)) == len(result.database)
    reloaded = MoopSolver.checkpoint_load(str(path), bowl_moop(q0=6))
    assert ([r.design for r in reloaded.database.records]
            == [r.design for r in result.database.records])


@pytest.mark.parametrize("damage,message", [
    ("reordered", "does not match the digest"),
    ("short", "holds 7 of 9 records"),
    ("missing", "corrupt checkpoint"),
], ids=["reordered", "short", "missing"])
def test_checkpoint_rejects_a_damaged_journal(tmp_path, damage, message):
    path = tmp_path / "state.json"
    MoopSolver(bowl_moop(q0=6), checkpoint_path=str(path)).solve(9)
    journal = Path(journal_path(path))
    lines = journal_lines(path)
    assert len(lines) == 9
    if damage == "reordered":
        journal.write_bytes(b"".join([lines[1], lines[0], *lines[2:]]))
    elif damage == "short":
        journal.write_bytes(b"".join(lines[:7]) + lines[7][:20])
    else:
        journal.unlink()
    with pytest.raises(CheckpointError, match=message):
        MoopSolver.checkpoint_load(str(path), bowl_moop(q0=6))


def test_load_with_another_checkpoint_path_writes_a_whole_journal(tmp_path):
    path, other = tmp_path / "state.json", tmp_path / "other.json"
    MoopSolver(bowl_moop(q0=6), checkpoint_path=str(path)).solve(9)

    resumed = MoopSolver.checkpoint_load(str(path), bowl_moop(q0=6))
    assert resumed.checkpoint_path == str(path)
    resumed.checkpoint_path = str(other)
    result = resumed.solve(12)
    assert len(journal_lines(other)) == len(result.database)
    reloaded = MoopSolver.checkpoint_load(str(other), bowl_moop(q0=6))
    assert np.array_equal(reloaded.database.objective_matrix(),
                          result.database.objective_matrix())


MT19937_STATE = {"bit_generator": "MT19937", "state": {"key": [0] * 624, "pos": 0}}


@pytest.mark.parametrize("field,value,message", [
    ("penalty", "x", "penalty"), ("penalty", float("inf"), "penalty"), ("penalty", None, "penalty"),
    ("iteration", -1, "iteration"), ("iteration", 2.0, "iteration"),
    ("evaluations", "9", "evaluations"), ("evaluations", True, "evaluations"),
    ("rng", {"search": MT19937_STATE, "acquisitions": []}, "PCG64"),
])
def test_checkpoint_rejects_corrupt_state_fields(tmp_path, field, value, message):
    path = tmp_path / "state.json"
    MoopSolver(bowl_moop(q0=6), checkpoint_path=str(path)).solve(9)
    edit_state(path, **{field: value})
    with pytest.raises(CheckpointError, match=message):
        MoopSolver.checkpoint_load(str(path), bowl_moop(q0=6))


@pytest.mark.parametrize("streams", [1, 4])
def test_checkpoint_rejects_a_wrong_number_of_acquisition_streams(tmp_path, streams):
    path = tmp_path / "state.json"
    MoopSolver(bowl_moop(q0=6), checkpoint_path=str(path)).solve(9)
    rng = json.loads(path.read_text())["rng"]
    saved = rng["acquisitions"]
    assert len(saved) == 3
    rng["acquisitions"] = (saved * 2)[:streams]  # the search state stays valid
    edit_state(path, rng=rng)
    with pytest.raises(CheckpointError, match="number of acquisition RNG states"):
        MoopSolver.checkpoint_load(str(path), bowl_moop(q0=6))


def test_checkpoint_rejects_non_numeric_outputs(tmp_path):
    path = tmp_path / "state.json"
    MoopSolver(bowl_moop(q0=6), checkpoint_path=str(path)).solve(9)
    lines = journal_lines(path)
    rec = json.loads(lines[0])
    rec["outputs"] = [["near", "far"]]
    lines[0] = (json.dumps(rec) + "\n").encode()
    blob = b"".join(lines)
    Path(journal_path(path)).write_bytes(blob)
    # The digest matches, so only the outputs themselves are wrong.
    edit_state(path, records={"count": len(lines), "sha256": hashlib.sha256(blob).hexdigest()})
    with pytest.raises(CheckpointError, match="could not convert"):
        MoopSolver.checkpoint_load(str(path), bowl_moop(q0=6))


def test_checkpoint_records_blas_threads_and_warns_on_a_change(tmp_path, caplog):
    path = tmp_path / "state.json"
    MoopSolver(bowl_moop(q0=6), checkpoint_path=str(path)).solve(6)
    threads = json.loads(path.read_text())["blas_threads"]
    assert threads == _blas.thread_count()
    with caplog.at_level("WARNING"):
        MoopSolver.checkpoint_load(str(path), bowl_moop(q0=6))
    assert not any("BLAS threads" in r.message for r in caplog.records)

    edit_state(path, blas_threads=(threads or 0) + 3)
    with caplog.at_level("WARNING"):
        MoopSolver.checkpoint_load(str(path), bowl_moop(q0=6))
    assert any(f"with {(threads or 0) + 3} BLAS threads" in r.message for r in caplog.records)


def test_missing_checkpoint_raises(tmp_path):
    with pytest.raises(CheckpointError):
        MoopSolver.checkpoint_load(str(tmp_path / "absent.json"), bowl_moop())


def test_workers_must_be_positive():
    with pytest.raises(ValidationError):
        MoopSolver(bowl_moop(), workers=0)


def local_dtlz2():
    """A local-refit DTLZ2 problem whose iterations mix refit and global
    slots, and whose slots share starts, refits included."""
    return testbed.dtlz2_moop(n=3, o=2, q0=6, batch=4, seed=5, local=True)


def test_every_slot_of_an_iteration_is_solved_in_one_batch(monkeypatch):
    batches, localized, starts, mixed, shared_refits = [], [], [], [], []
    iterate, select_start = MoopSolver.iterate, acquisition.select_start
    set_center, solve_batch = RbfSurrogate.set_center, optimizer.solve_batch

    def spy_iterate(solver, k):
        for log in (batches, localized, starts):
            log.clear()
        batch = iterate(solver, k)
        if k == 0:
            return batch
        # One batch covers all q slots.
        assert len(batches) == 1 and len(batches[0]) == solver.moop.q
        slot_models = batches[0]
        # One localization per distinct start, in slot order.
        assert [center for center, _, _ in localized] == list(dict.fromkeys(starts))
        by_start = {center: local for center, _, local in localized}
        for models, start in zip(slot_models, starts):
            # A slot gets its start's models: the same objects for every
            # slot with that start.
            assert len(models) == 1 and models[0] is by_start[start]
        refit = [m is not g for _, g, m in localized]
        if any(refit) and not all(refit):
            mixed.append(k)
        if any(r and starts.count(c) > 1 for r, (c, _, _) in zip(refit, localized)):
            shared_refits.append(k)
        return batch

    def spy_select_start(states, database, lam):
        picked = select_start(states, database, lam)
        starts.extend(latent_key(database.records[i].latent) for i in picked)
        return picked

    def spy_set_center(model, region, local=True):
        local_model = set_center(model, region, local)
        localized.append((latent_key(region.center), model, local_model))
        return local_model

    def spy_solve_batch(moop, states, surrogates, *args):
        batches.append([list(models) for models in surrogates])
        return solve_batch(moop, states, surrogates, *args)

    def solve(*args, **kwargs):
        raise AssertionError("iterate called optimizer.solve")

    monkeypatch.setattr(MoopSolver, "iterate", spy_iterate)
    monkeypatch.setattr(acquisition, "select_start", spy_select_start)
    monkeypatch.setattr(RbfSurrogate, "set_center", spy_set_center)
    monkeypatch.setattr(optimizer, "solve_batch", spy_solve_batch)
    monkeypatch.setattr(optimizer, "solve", solve)
    MoopSolver(local_dtlz2()).solve(6 + 4 * 4)
    # Batches mixed refit and global slots, and slots shared a refit.
    assert mixed and shared_refits


@pytest.mark.blas_threads
def test_iteration_builds_only_the_surrogates_it_predicts_with(monkeypatch):
    built, globals_, centers, refitted, starts, all_refit = [], [], [], [], [], []
    iterate, select_start = MoopSolver.iterate, acquisition.select_start
    build, set_center = RbfSurrogate._build, RbfSurrogate.set_center

    def spy_iterate(solver, k):
        for log in (built, globals_, centers, refitted, starts):
            log.clear()
        batch = iterate(solver, k)
        if k == 0:
            return batch
        # One region and one localization per distinct start.
        assert centers == list(dict.fromkeys(starts))
        refit_only = all(refitted)
        if refit_only:
            all_refit.append(k)
        # The global system is built only when a slot predicts with it.
        assert sum(m is globals_[0] for m in built) == (0 if refit_only else 1)
        return batch

    def spy_select_start(states, database, lam):
        picked = select_start(states, database, lam)
        starts.extend(latent_key(database.records[i].latent) for i in picked)
        return picked

    def spy_build(model):
        built.append(model)
        return build(model)

    def spy_set_center(model, region, local=True):
        globals_.append(model)
        local_model = set_center(model, region, local)
        centers.append(latent_key(region.center))
        refitted.append(local_model is not model)
        return local_model

    monkeypatch.setattr(MoopSolver, "iterate", spy_iterate)
    monkeypatch.setattr(acquisition, "select_start", spy_select_start)
    monkeypatch.setattr(RbfSurrogate, "_build", spy_build)
    monkeypatch.setattr(RbfSurrogate, "set_center", spy_set_center)
    deferred = MoopSolver(local_dtlz2()).solve(6 + 4 * 6).database
    monkeypatch.undo()
    assert all_refit

    # The same run with every model built at its fit, starts shared as above.
    fit = RbfSurrogate.fit

    def eager_fit(cls, *args, **kwargs):
        model = fit(*args, **kwargs)
        model._build()
        return model

    monkeypatch.setattr(RbfSurrogate, "fit", classmethod(eager_fit))
    eager = MoopSolver(local_dtlz2()).solve(6 + 4 * 6).database
    assert len(eager) == len(deferred)
    for a, b in zip(eager.records, deferred.records):
        assert a.design == b.design
        assert a.iteration == b.iteration
        for x, y in zip(a.sim_outputs, b.sim_outputs):
            assert x.tobytes() == y.tobytes()

    # The same iterations with every slot on models of its own, as if no
    # two slots shared a start.  Each slot's rows are then predicted in
    # matrix products of their own, which round differently from the
    # shared ones, so the outcomes agree to a tolerance.
    solve_batch, compared = optimizer.solve_batch, []

    def with_own_models(moop, states, surrogates, *args):
        together = solve_batch(moop, states, surrogates, *args)
        own = [[RbfSurrogate.fit(m.centers, m.values) for m in models] for models in surrogates]
        compared.extend(zip(solve_batch(moop, states, own, *args), together))
        return together

    monkeypatch.undo()
    monkeypatch.setattr(optimizer, "solve_batch", with_own_models)
    MoopSolver(local_dtlz2()).solve(6 + 4 * 6)
    assert len(compared) == 4 * 6
    for got, want in compared:
        assert got.iterations == want.iterations
        assert (got.candidate is None) == (want.candidate is None)
        assert got.value == pytest.approx(want.value, rel=1e-9, abs=1e-12)
        assert got.start_value == pytest.approx(want.start_value, rel=1e-9, abs=1e-12)
        if want.candidate is not None:
            np.testing.assert_allclose(got.candidate, want.candidate, rtol=1e-9, atol=1e-12)
