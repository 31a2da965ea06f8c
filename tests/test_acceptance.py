"""End-to-end acceptance gate: one test per shipped performance guarantee.

Run with ``pytest tests/test_acceptance.py -v`` to get a pass/fail line
per guarantee.  These tests run real solves at realistic budgets, so the
module takes several minutes; everything is seeded and deterministic.
"""

import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from moso_kit import orchestrator, testbed
from moso_kit.metrics import hypervolume, pct_hv_improvement
from moso_kit.orchestrator import MoopSolver

import test_embedding
import test_metrics
import test_orchestrator
import test_search
import test_surrogate

SPHERE_OCTANT_VOLUME = np.pi / 6.0


# -- DTLZ2 hypervolume benchmark ---------------------------------------------

@pytest.fixture(scope="module")
def dtlz2_benchmark():
    """Five seeded full-budget runs of the 10-var, 3-objective benchmark."""
    runs = []
    for seed in range(5):
        defn = testbed.dtlz2_moop(n=10, o=3, q0=200, batch=16, seed=seed)
        started = time.perf_counter()
        result = MoopSolver(defn).solve(1000)
        walltime = time.perf_counter() - started
        assert result.evaluations == 1000
        runs.append((result, walltime))
    return runs


def test_dtlz2_hypervolume_benchmark(dtlz2_benchmark):
    ref = np.ones(3)
    hvs = np.array([hypervolume(result.database.objective_matrix(), ref)
                    for result, _ in dtlz2_benchmark])
    total = sum(walltime for _, walltime in dtlz2_benchmark)
    print(f"\ndtlz2 benchmark: hv per seed {np.round(hvs, 4)}, "
          f"mean {hvs.mean():.4f}, total {total:.0f}s")
    assert hvs.mean() >= 0.30
    assert np.all(hvs > 0.28)
    assert total <= 600.0


def test_hypervolume_stays_below_front_ceiling(dtlz2_benchmark):
    # The true front is the unit sphere octant; no computed value may
    # exceed the dominated volume of the exact front.
    ceiling = 1.0 - SPHERE_OCTANT_VOLUME + 1e-3
    ref = np.ones(3)
    for result, _ in dtlz2_benchmark:
        assert hypervolume(result.database.objective_matrix(), ref) <= ceiling

    # Every per-iteration prefix of one run obeys the ceiling too.
    records = dtlz2_benchmark[0][0].database.records
    objs = np.vstack([r.objectives for r in records])
    iters = np.array([r.iteration for r in records])
    for k in np.unique(iters):
        assert hypervolume(objs[iters <= k], ref) <= ceiling


# -- parallel scaling ----------------------------------------------------------

def test_parallel_scaling_speedup():
    def walltime(workers):
        defn = testbed.dtlz2_moop(n=4, o=2, q0=40, batch=8, seed=0,
                                  delay=(0.05, 0.15))
        solver = MoopSolver(defn, workers=workers)
        started = time.perf_counter()
        result = solver.solve(160)
        assert result.evaluations == 160
        return time.perf_counter() - started

    times = {w: walltime(w) for w in (1, 2, 4, 8)}
    print(f"\nscaling walltimes: " +
          ", ".join(f"{w} workers {t:.2f}s" for w, t in times.items()))
    assert times[8] <= 0.30 * times[1]
    assert times[2] <= times[1]
    assert times[4] <= times[2]
    assert times[8] <= times[4]


# -- structure exploitation: calibration problem ------------------------------

CHECKPOINTS = list(range(200, 1001, 100))


def run_calibration(structured, seed):
    defn = testbed.residuals_moop(structured=structured, q0=200, batch=10,
                                  seed=seed)
    solver = MoopSolver(defn)
    ref = np.array(testbed.CLASS_CAPS, dtype=float)
    best = np.inf
    chi_at, hv_at = {}, {}
    k = 0
    while solver.evaluations + (200 if k == 0 else 10) <= 1000:
        batch = solver.iterate(k)
        results = solver.evaluate_batch(batch)
        if k > 0:
            solver.update_penalty(batch, results)
        solver.iteration = k = k + 1
        for rec in results:
            if rec is not None:
                best = min(best, float(rec.objectives.sum()))
        if solver.evaluations in CHECKPOINTS:
            feasible = [r for r in solver.database.records if r.feasible]
            objs = np.vstack([r.objectives for r in feasible])
            chi_at[solver.evaluations] = best
            hv_at[solver.evaluations] = hypervolume(objs, ref)
    return chi_at, hv_at


@pytest.fixture(scope="module")
def calibration_runs():
    return {structured: [run_calibration(structured, seed) for seed in range(5)]
            for structured in (True, False)}


def test_structured_calibration_beats_blackbox_chi(calibration_runs):
    structured_500 = np.median([chi[500] for chi, _ in calibration_runs[True]])
    blackbox_1000 = np.median([chi[1000] for chi, _ in calibration_runs[False]])
    print(f"\ncalibration: structured chi at 500 evals {structured_500:.3f}, "
          f"black-box chi at 1000 evals {blackbox_1000:.3f}")
    assert structured_500 <= blackbox_1000


def test_structured_calibration_dominates_hv_trajectory(calibration_runs):
    def median_pct(runs, checkpoint):
        return np.median([
            pct_hv_improvement(hv[checkpoint], hv[200]) for _, hv in runs])

    for checkpoint in range(400, 1001, 100):
        structured = median_pct(calibration_runs[True], checkpoint)
        blackbox = median_pct(calibration_runs[False], checkpoint)
        assert structured >= blackbox, (checkpoint, structured, blackbox)


# -- structure exploitation: reactor problem -----------------------------------

def test_structured_reactor_reaches_fast_high_purity():
    purity_floor = 0.75 * testbed.cfr_product_max()

    def min_time(structured, seed):
        defn = testbed.cfr_moop(structured=structured, q0=50, batch=3,
                                seed=seed)
        result = MoopSolver(defn).solve(50 + 3 * 30)
        assert result.iterations == 31
        times = [r.design["reaction_time"] for r in result.database.records
                 if -r.objectives[0] >= purity_floor]
        return min(times) if times else np.inf

    medians = {}
    for structured in (True, False):
        medians[structured] = np.median(
            [min_time(structured, seed) for seed in range(5)])
    print(f"\nreactor: structured median fastest high-purity time "
          f"{medians[True]:.1f}s, black-box {medians[False]:.1f}s")
    assert medians[True] <= medians[False]


# -- property suites -----------------------------------------------------------

def test_embedding_property_suite():
    test_embedding.test_round_trip_and_exclusivity_randomized()


def test_space_filling_property_suite():
    test_search.test_one_point_per_stratum_every_dimension()


def test_surrogate_property_suite():
    test_surrogate.test_interpolation_at_centers()
    test_surrogate.test_gradient_matches_finite_differences()


def test_nondominated_filter_property_suite():
    test_metrics.test_filter_matches_brute_force_randomized()


def test_hypervolume_property_suite():
    test_metrics.test_hv_two_point_inclusion_exclusion_randomized()
    test_metrics.test_hv_sweep_within_3_sigma_of_monte_carlo()


def test_penalty_property_suite(monkeypatch):
    monkeypatch.setattr(orchestrator, "PENALTY_GROWTH", 3.0)
    monkeypatch.setattr(orchestrator, "PENALTY_CAP", 50.0)
    solver = MoopSolver(test_orchestrator.bowl_moop())
    point = orchestrator.BatchPoint({"x": 0.5}, np.array([0.5]), "acquisition:0")
    batch, infeasible = orchestrator.CandidateBatch(1, [point]), SimpleNamespace(feasible=False)
    seen = [solver.penalty]
    for _ in range(10):
        seen.append(solver.update_penalty(batch, [infeasible]))
    assert all(b >= a for a, b in zip(seen, seen[1:]))
    assert max(seen) == 50.0
    assert seen[-1] == 50.0


def test_checkpoint_property_suite():
    for label, make, pause, budget in test_orchestrator.CHECKPOINT_CONFIGS:
        with tempfile.TemporaryDirectory() as tmp:
            test_orchestrator.test_checkpoint_resume_matches_uninterrupted_run(
                Path(tmp), label, make, pause, budget)


def test_budget_property_suite():
    for q0, q, budget in [(8, 3, 8), (8, 3, 20), (8, 3, 23), (10, 3, 35)]:
        moop = test_orchestrator.bowl_moop(q0=q0)
        result = MoopSolver(moop).solve(budget)
        assert result.evaluations == q0 + q * ((budget - q0) // q)

    defn = testbed.dtlz2_moop(n=3, o=2, q0=12, batch=4, seed=0)
    assert MoopSolver(defn).solve(28).evaluations == 28
