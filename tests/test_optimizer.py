"""Inner projected-BFGS solves of the scalarized surrogate subproblem."""

import collections
import dataclasses

import numpy as np
import pytest

from moso_kit import embedding, optimizer
from moso_kit.acquisition import (
    RHO,
    ScalarizationState,
    refresh,
    scalarize_stack,
    select_start,
    stack_states,
)
from moso_kit.metrics import ParetoArchive, nondominated_filter
from moso_kit.optimizer import SubproblemEvaluator, solve, solve_batch
from moso_kit.orchestrator import MoopSolver
from moso_kit.problem import (
    AcquisitionSpec,
    DesignVariable,
    MoopDefinition,
    ObjectiveSpec,
    SimulationSpec,
    identity_constraint,
    identity_objective,
    linear_objective,
    sum_of_squares_constraint,
    validate,
    variable_objective,
)
from moso_kit.surrogate import RbfSurrogate, TrustRegion

from test_acquisition import make_database


def weighted(*w):
    return ScalarizationState("fixed_weight", weights=np.array(w, dtype=float))


def make_moop(n_vars=1, sim_dim=0, objectives=None, constraints=None):
    variables = [DesignVariable(f"x{i + 1}", "continuous", 0.0, 1.0)
                 for i in range(n_vars)]
    sims = []
    if sim_dim:
        sims = [SimulationSpec("sim", sim_dim, lambda d: np.zeros(sim_dim))]
    return validate(MoopDefinition(
        variables=variables,
        simulations=sims,
        objectives=objectives or [identity_objective("f1", 0)],
        constraints=constraints or [],
        acquisitions=[AcquisitionSpec("random_weight")],
    ))


def quadratic_objective(minimum):
    """Analytic bowl centered at ``minimum`` over the named variables."""
    names = [f"x{i + 1}" for i in range(len(minimum))]

    def func(x, s):
        return sum((x[k] - m) ** 2 for k, m in zip(names, minimum))

    def grad(x, s):
        return {k: 2.0 * (x[k] - m) for k, m in zip(names, minimum)}, np.zeros(len(s))

    return ObjectiveSpec("bowl", func, grad)


def test_value_at_one_point_surrogate_datum():
    moop = make_moop(sim_dim=1)
    z = np.array([0.5])
    model = RbfSurrogate.fit(z[None, :], np.array([[2.0]]))
    value, grad = SubproblemEvaluator(moop, weighted(1.0), [model], lam=1.0).value_and_grad(z)
    assert value == pytest.approx(2.0)
    assert np.allclose(grad, 0.0, atol=1e-12)


def test_value_adds_penalized_violation_to_every_objective():
    moop = make_moop(
        sim_dim=2,
        objectives=[identity_objective("f1", 0), identity_objective("f2", 1)],
        constraints=[identity_constraint("g1", 0, 0.5)],
    )
    z = np.array([0.5])
    model = RbfSurrogate.fit(z[None, :], np.array([[1.0, 2.0]]))
    value, _ = SubproblemEvaluator(moop, weighted(0.5, 0.5), [model], lam=2.0).value_and_grad(z)
    # violation 1.0 - 0.5 = 0.5, objectives become (2, 3)
    assert value == pytest.approx(2.5)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    moop = make_moop(
        n_vars=3,
        sim_dim=2,
        objectives=[identity_objective("f1", 0), identity_objective("f2", 1)],
        constraints=[identity_constraint("g1", 1, -10.0)],  # always violated
    )
    pts = rng.uniform(0.0, 1.0, (20, 3))
    vals = np.column_stack([np.sin(3 * pts[:, 0]) + pts[:, 1] ** 2,
                            np.cos(2 * pts[:, 2]) * pts[:, 0]])
    model = RbfSurrogate.fit(pts, vals)
    state = weighted(0.3, 0.7)
    ev = SubproblemEvaluator(moop, state, [model], lam=3.0)
    h = 1e-6
    for _ in range(10):
        z = rng.uniform(0.2, 0.8, 3)
        _, grad = ev.value_and_grad(z)
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd = (ev.value(z + e) - ev.value(z - e)) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-6)


def test_solve_reaches_interior_minimum():
    moop = make_moop(objectives=[quadratic_objective([0.7])])
    region = TrustRegion(center=np.array([0.4]), radius=0.5)
    outcome = solve(moop, weighted(1.0), [], np.array([0.1]), region, lam=1.0)
    assert outcome.candidate is not None
    assert outcome.candidate[0] == pytest.approx(0.7, abs=1e-6)


def test_solve_stops_on_nearest_region_face():
    moop = make_moop(n_vars=2, objectives=[quadratic_objective([0.7, 0.2])])
    region = TrustRegion(center=np.array([0.2, 0.2]), radius=0.2)
    outcome = solve(moop, weighted(1.0), [], np.array([0.1, 0.15]), region, lam=1.0)
    assert outcome.candidate is not None
    assert outcome.candidate[0] == pytest.approx(0.4, abs=1e-6)
    assert outcome.candidate[1] == pytest.approx(0.2, abs=1e-6)


def test_solve_constant_landscape_requests_improvement():
    flat = ObjectiveSpec("flat", lambda x, s: 3.14, lambda x, s: ({}, np.empty(0)))
    moop = make_moop(objectives=[flat])
    region = TrustRegion(center=np.array([0.5]), radius=0.5)
    outcome = solve(moop, weighted(1.0), [], np.array([0.5]), region, lam=1.0)
    assert outcome.candidate is None
    assert outcome.value == pytest.approx(outcome.start_value)


def test_candidates_stay_inside_region_and_cube():
    rng = np.random.default_rng(12)
    for _ in range(25):
        dim = int(rng.integers(1, 4))
        target = rng.uniform(-0.3, 1.3, dim)
        moop = make_moop(n_vars=dim, objectives=[quadratic_objective(target)])
        center = rng.uniform(0.0, 1.0, dim)
        region = TrustRegion(center=center, radius=float(rng.uniform(0.05, 0.6)))
        lo, hi = region.bounds()
        z0 = rng.uniform(lo, hi)
        outcome = solve(moop, weighted(1.0), [], z0, region, lam=1.0)
        if outcome.candidate is None:
            continue
        assert np.all(outcome.candidate >= lo - 1e-12)
        assert np.all(outcome.candidate <= hi + 1e-12)


def test_candidate_never_worse_than_start():
    rng = np.random.default_rng(13)
    moop = make_moop(
        n_vars=2,
        sim_dim=1,
        objectives=[identity_objective("f1", 0)],
    )
    pts = rng.uniform(0.0, 1.0, (15, 2))
    vals = (np.sin(5 * pts[:, 0]) * np.cos(3 * pts[:, 1]))[:, None]
    model = RbfSurrogate.fit(pts, vals)
    ev = SubproblemEvaluator(moop, weighted(1.0), [model], lam=1.0)
    for _ in range(10):
        center = rng.uniform(0.2, 0.8, 2)
        region = TrustRegion(center=center, radius=0.3)
        outcome = solve(moop, weighted(1.0), [model], center, region, lam=1.0)
        if outcome.candidate is not None:
            assert ev.value(outcome.candidate) <= ev.value(center) + 1e-12


def test_penalty_scales_infeasible_value():
    moop = make_moop(
        sim_dim=1,
        constraints=[identity_constraint("g1", 0, -1.0)],
    )
    z = np.array([0.5])
    model = RbfSurrogate.fit(z[None, :], np.array([[1.0]]))  # violation 2.0
    values = [SubproblemEvaluator(moop, weighted(1.0), [model], lam=lam).value(z)
              for lam in (1.0, 10.0, 100.0)]
    assert values[0] < values[1] < values[2]
    assert values[1] == pytest.approx(1.0 + 10.0 * 2.0)


def test_iteration_budget_respected(monkeypatch):
    # A needle the line search cannot finish in one step keeps iterating;
    # the loop must still stop at the cap.
    moop = make_moop(objectives=[quadratic_objective([0.9])])
    monkeypatch.setattr(optimizer, "MAX_ITERATIONS", 3)
    region = TrustRegion(center=np.array([0.5]), radius=0.5)
    outcome = solve(moop, weighted(1.0), [], np.array([0.0]), region, lam=1.0)
    assert outcome.iterations <= 3


def counted_objective(name, func, grad, calls):
    def counted(x, s):
        calls[0] += 1
        return func(x, s)

    return ObjectiveSpec(name, counted, grad)


# The optimum of the smoothed penalty below, x1 = 0.6 + w log(RHO - 1) at w = 0.01.
SMOOTH_OPTIMUM = (0.6 + 0.01 * np.log(99.0), 0.5)


@pytest.mark.parametrize("start, expected", [
    ((0.9, 0.2), SMOOTH_OPTIMUM),
    ((0.95, 0.9), SMOOTH_OPTIMUM),
    ((0.7, 0.7), SMOOTH_OPTIMUM),
])
def test_solve_stops_crawling_along_an_epsilon_kink(start, expected):
    # Every point of the curve f2 = eps, x1 = 0.6 + (x2 - 0.5)**2 is a
    # kink of the exact hinge, where a solve used to stop crawling at its
    # start's x2.  The smoothed penalty has a gradient along the curve,
    # and its optimum has sigmoid(u / w) = 1 / RHO.  The solve stops once
    # a step gains less than MIN_PROGRESS of its decrease so far (about
    # 2.5e-4 here), so it ends within a few such gains of the optimal
    # value, and the flat x2 settles only to about 2e-2.
    calls = [0]
    f1 = counted_objective("f1", lambda x, s: x["x1"],
                           lambda x, s: ({"x1": 1.0}, np.empty(0)), calls)
    f2 = counted_objective(
        "f2", lambda x, s: 1.0 - x["x1"] + (x["x2"] - 0.5) ** 2,
        lambda x, s: ({"x1": -1.0, "x2": 2.0 * (x["x2"] - 0.5)}, np.empty(0)), calls)
    moop = make_moop(n_vars=2, objectives=[f1, f2])
    w = 0.01
    state = ScalarizationState("random_epsilon_constraint", target=0,
                               epsilons=np.array([0.0, 0.4]), widths=np.array([w, w]))
    region = TrustRegion(center=np.array([0.5, 0.5]), radius=0.5)
    outcome = solve(moop, state, [], np.array(start), region, lam=1.0)
    best = expected[0] + RHO * w * np.log(RHO / (RHO - 1.0))
    assert outcome.candidate is not None
    np.testing.assert_allclose(outcome.candidate, expected, rtol=0.0, atol=2e-2)
    assert best <= outcome.value <= best + 2e-3 * (outcome.start_value - best)
    assert calls[0] < 300


def test_min_progress_ends_a_slot_whose_steps_stop_paying(monkeypatch):
    # Two slots on a quartic, whose BFGS steps shrink slowly: each slot
    # goes on while its steps gain more than MIN_PROGRESS of its decrease
    # so far and ends at the first that does not, well before the
    # relative-reduction test of DECREASE_FACTOR would end it.
    quartic = ObjectiveSpec("quartic", lambda x, s: (x["x1"] - 0.5) ** 4,
                            lambda x, s: ({"x1": 4.0 * (x["x1"] - 0.5) ** 3}, np.empty(0)))
    moop = make_moop(n_vars=1, objectives=[quartic])
    region = TrustRegion(center=np.array([0.5]), radius=0.5)
    starts = [np.array([0.95]), np.array([0.1])]
    line_search, steps = optimizer._line_search, []

    def recorded(stack, slots, z, f, *args):
        accepted, z_new, f_new, count = line_search(stack, slots, z, f, *args)
        steps.append((slots.copy(), f.copy(), accepted.copy(), f_new.copy()))
        return accepted, z_new, f_new, count

    monkeypatch.setattr(optimizer, "_line_search", recorded)
    outcomes = solve_batch(moop, [weighted(1.0)] * 2, [[], []], starts, [region] * 2, lam=1.0)
    for i, outcome in enumerate(outcomes):
        rows = [(f[slots == i][0], accepted[slots == i][0], f_new[slots == i][0])
                for slots, f, accepted, f_new in steps if i in slots]
        assert len(rows) == outcome.iterations and all(accepted for _, accepted, _ in rows)
        *going, (f, _, f_last) = rows
        for f_old, _, f_new in going:
            assert f_old - f_new > optimizer.MIN_PROGRESS * (outcome.start_value - f_new)
        assert (optimizer.DECREASE_FACTOR * max(1.0, abs(f_last)) < f - f_last
                <= optimizer.MIN_PROGRESS * (outcome.start_value - f_last))
        assert outcome.value == f_last and outcome.candidate is not None
    # The first slot ended while the other went on in the working arrays.
    assert outcomes[0].iterations < outcomes[1].iterations

    monkeypatch.setattr(optimizer, "MIN_PROGRESS", 0.0)
    steps.clear()
    without = solve_batch(moop, [weighted(1.0)] * 2, [[], []], starts, [region] * 2, lam=1.0)
    for got, longer in zip(outcomes, without):
        assert longer.iterations > got.iterations and longer.value < got.value


def test_scaling_the_objectives_by_a_power_of_two_keeps_start_and_candidate():
    # The penalty widths follow the archive's spread, so scaling every
    # objective by 2**k (exact in floating point) scales every score by
    # 2**k exactly: select_start picks the same record.  The solve's path
    # is not scale-free (BFGS starts from the identity, the line search
    # from alpha = 1, and DECREASE_FACTOR compares with max(1, |f|)), but
    # it stops within MIN_PROGRESS of the same optimum: candidates agree
    # to 1e-2 of the cube, where an absolute width of 0.01 moves them by
    # up to 0.4.
    def problem(c):
        def bowl(name, center):
            return ObjectiveSpec(
                name, lambda x, s: c * ((x["x1"] - center[0]) ** 2 + (x["x2"] - center[1]) ** 2),
                lambda x, s: ({"x1": c * 2.0 * (x["x1"] - center[0]),
                               "x2": c * 2.0 * (x["x2"] - center[1])}, np.empty(0)))

        return make_moop(n_vars=2, objectives=[bowl("f1", (0.2, 0.3)), bowl("f2", (0.8, 0.7))])

    rng = np.random.default_rng(0)
    points = rng.random((30, 2))
    objs = np.column_stack([((points - (0.2, 0.3)) ** 2).sum(axis=1),
                            ((points - (0.8, 0.7)) ** 2).sum(axis=1)])
    front = objs[nondominated_filter(objs)]
    region = TrustRegion(center=np.array([0.5, 0.5]), radius=0.5)
    spec = AcquisitionSpec("random_epsilon_constraint")

    def solves(c):
        archive = ParetoArchive(designs=[{}] * len(front), objectives=c * front)
        database = make_database(c * objs)
        draws = np.random.default_rng(1)
        states = [refresh(spec, archive, draws, 2) for _ in range(10)]
        for state, start in zip(states, select_start(states, database, 1.0)):
            scores = scalarize_stack(stack_states([state], 2), np.zeros(len(objs), dtype=np.intp),
                                     c * objs)
            yield (state, scores, start,
                   solve(problem(c), state, [], points[start], region, lam=1.0).candidate)

    for k in (-6, 6):
        for (state, scores, start, candidate), (scaled, scaled_scores, scaled_start,
                                                scaled_candidate) in zip(solves(1.0),
                                                                         solves(2.0 ** k)):
            np.testing.assert_array_equal(scaled.widths, 2.0 ** k * state.widths)
            np.testing.assert_array_equal(scaled_scores, 2.0 ** k * scores)
            assert scaled_start == start
            np.testing.assert_allclose(scaled_candidate, candidate, rtol=0.0, atol=1e-2)


def count_calls(monkeypatch, owner, name):
    """Replace ``owner.name`` with a wrapper that counts its calls."""
    calls = [0]
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_epsilon_constraint_value_skips_the_unused_uncertainty(monkeypatch):
    moop = make_moop(
        sim_dim=2,
        objectives=[identity_objective("f1", 0), identity_objective("f2", 1)],
    )
    pts = np.array([[0.2], [0.8]])
    model = RbfSurrogate.fit(pts, np.array([[1.0, 3.0], [2.0, 0.5]]))
    state = ScalarizationState("random_epsilon_constraint", target=0,
                               epsilons=np.array([0.0, 1.0]))
    ev = SubproblemEvaluator(moop, state, [model], lam=1.0)
    calls = count_calls(monkeypatch, RbfSurrogate, "uncertainty")
    z = np.array([0.5])
    value = ev.value(z)
    assert value == ev.value_and_grad(z)[0]
    assert calls[0] == 0


def test_sim_output_only_problem_skips_design_extraction(monkeypatch):
    moop = make_moop(
        n_vars=2,
        sim_dim=2,
        objectives=[identity_objective("f1", 0), linear_objective("f2", [1.0, -1.0])],
        constraints=[sum_of_squares_constraint("g1", [0, 1], 1.0)],
    )
    pts = np.array([[0.2, 0.3], [0.8, 0.6], [0.5, 0.9]])
    model = RbfSurrogate.fit(pts, np.array([[1.0, 3.0], [2.0, 0.5], [0.0, 1.0]]))
    ev = SubproblemEvaluator(moop, weighted(0.5, 0.5), [model], lam=1.0)
    calls = count_calls(monkeypatch, embedding, "extract")
    z = np.array([0.4, 0.5])
    ev.value(z)
    ev.value_and_grad(z)
    assert calls[0] == 0


@pytest.mark.parametrize("reader", ["variable_objective", "undeclared_custom"])
def test_design_reading_terms_receive_the_extracted_design(reader):
    variables = [DesignVariable("x1", "continuous", 0.0, 2.0),
                 DesignVariable("k", "integer", 0, 4),
                 DesignVariable("c", "categorical", levels=("a", "b", "c"))]
    seen = []

    def recording(func):
        def record(x, s):
            seen.append(dict(x))
            return func(x, s)
        return record

    if reader == "variable_objective":
        term = variable_objective("time", "x1")
        term = dataclasses.replace(term, func=recording(term.func))
    else:
        term = ObjectiveSpec("custom", recording(lambda x, s: x["x1"]))
    moop = validate(MoopDefinition(
        variables=variables,
        simulations=[SimulationSpec("sim", 1, lambda d: np.zeros(1))],
        objectives=[identity_objective("f1", 0), term],
        acquisitions=[AcquisitionSpec("random_weight")],
    ))
    model = RbfSurrogate.fit(np.array([[0.1, 0.2, 0.0, 1.0], [0.7, 0.9, 1.0, 0.0]]),
                             np.array([[1.0], [2.0]]))
    ev = SubproblemEvaluator(moop, weighted(0.5, 0.5), [model], lam=1.0)
    z = np.array([0.3, 0.6, 0.2, 0.7])
    want = embedding.extract(moop.plan, z)
    ev.value(z)
    ev.value_and_grad(z)
    assert seen[0] == want and seen[1] == want


def active_constraint_landscape():
    """Three simulation outputs over three variables, fitted by one global model."""
    rng = np.random.default_rng(23)
    pts = rng.uniform(0.0, 1.0, (25, 3))
    vals = np.column_stack([np.sin(3 * pts[:, 0]) + pts[:, 1] ** 2,
                            np.cos(2 * pts[:, 2]) * pts[:, 0],
                            pts[:, 1] * pts[:, 2]])
    return rng, RbfSurrogate.fit(pts, vals)


def test_value_and_grad_value_is_value_with_every_constraint_active():
    moop = make_moop(
        n_vars=3,
        sim_dim=3,
        objectives=[identity_objective("f1", 0), identity_objective("f2", 1)],
        constraints=[identity_constraint("g1", 0, -10.0),
                     sum_of_squares_constraint("g2", [1, 2], -3.0),
                     identity_constraint("g3", 2, -7.5, scale=0.3)],
    )
    rng, model = active_constraint_landscape()
    states = [weighted(0.3, 0.7),
              ScalarizationState("random_epsilon_constraint", target=1,
                                 epsilons=np.array([0.2, 0.0]))]
    for state in states:
        ev = SubproblemEvaluator(moop, state, [model], lam=1.7)
        for _ in range(20):
            z = rng.uniform(0.0, 1.0, 3)
            s = model.evaluate(z)
            assert (np.array([spec.func({}, s) for spec in moop.constraints]) > 0).all()
            assert ev.value_and_grad(z)[0] == ev.value(z)


def test_gradless_terms_match_central_differences():
    # Gradless terms, one of each kind, next to built-in constraints; the
    # constraints "off" stay inactive and the others active near every z.
    moop = make_moop(
        n_vars=3,
        sim_dim=3,
        objectives=[identity_objective("f1", 0),
                    ObjectiveSpec("f2", lambda x, s: s[1] ** 2 + 0.5 * x["x2"])],
        constraints=[identity_constraint("on", 0, -10.0),
                     ObjectiveSpec("fd_on", lambda x, s: s[2] * x["x1"] + 5.0),
                     sum_of_squares_constraint("off", [1], 100.0),
                     ObjectiveSpec("fd_off", lambda x, s: s[0] - x["x3"] - 20.0)],
    )
    rng, model = active_constraint_landscape()
    ev = SubproblemEvaluator(moop, weighted(0.4, 0.6), [model], lam=2.5)
    h = 1e-6
    for _ in range(10):
        z = rng.uniform(0.2, 0.8, 3)
        _, grad = ev.value_and_grad(z)
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd = (ev.value(z + e) - ev.value(z - e)) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-5)


def test_value_is_the_one_row_case_of_values():
    moop = make_moop(
        n_vars=3,
        sim_dim=3,
        objectives=[identity_objective("f1", 0), identity_objective("f2", 1)],
        constraints=[identity_constraint("g1", 0, 0.2),
                     sum_of_squares_constraint("g2", [1, 2], 0.5)],
    )
    rng, model = active_constraint_landscape()
    states = [weighted(0.3, 0.7),
              ScalarizationState("random_epsilon_constraint", target=1,
                                 epsilons=np.array([0.2, 0.0]))]
    for state in states:
        ev = SubproblemEvaluator(moop, state, [model], lam=1.7)
        block = rng.uniform(0.0, 1.0, (9, 3))
        values = ev.values(np.zeros(len(block), dtype=np.intp), block)
        for z, v in zip(block, values):
            one = ev.values(np.zeros(1, dtype=np.intp), z[None])[0]
            assert ev.value(z) == one == ev.value_and_grad(z)[0]
            assert v == pytest.approx(ev.value(z), rel=1e-12, abs=1e-12)


def sequential_line_search(ev, z, f, g, d, lo, hi):
    """Index of the first trial ``alpha = 2**-j`` that passes, one ``value`` at a time."""
    alpha = 1.0
    for j in range(optimizer.MAX_TRIALS):
        z_new = np.clip(z + alpha * d, lo, hi)
        step = z_new - z
        if not step.any():
            return None
        if ev.value(z_new) <= f + optimizer.ARMIJO_C * (g @ step):
            return j
        alpha *= 0.5
    return None


def random_line_search_problems(rng):
    for _ in range(6):
        dim = int(rng.integers(1, 5))
        yield make_moop(n_vars=dim, objectives=[quadratic_objective(rng.uniform(-0.2, 1.2, dim))]), \
            weighted(1.0), []
    f1 = ObjectiveSpec("f1", lambda x, s: x["x1"], lambda x, s: ({"x1": 1.0}, np.empty(0)))
    f2 = ObjectiveSpec("f2", lambda x, s: 1.0 - x["x1"] + (x["x2"] - 0.5) ** 2,
                       lambda x, s: ({"x1": -1.0, "x2": 2.0 * (x["x2"] - 0.5)}, np.empty(0)))
    for _ in range(6):
        state = ScalarizationState("random_epsilon_constraint", target=int(rng.integers(2)),
                                   epsilons=rng.uniform(0.2, 0.8, 2))
        yield make_moop(n_vars=2, objectives=[f1, f2]), state, []
    moop = make_moop(n_vars=3, sim_dim=3,
                     objectives=[identity_objective("f1", 0), identity_objective("f2", 1)])
    _, model = active_constraint_landscape()
    for _ in range(4):
        yield moop, weighted(*rng.dirichlet([1.0, 1.0])), [model]
    # A steep bowl, whose first step passes only at alpha <= 2**-8, and a
    # term whose declared gradient has the wrong sign, so that every trial
    # along its direction goes uphill and the search fails.
    steep = ObjectiveSpec("steep", lambda x, s: 1e4 * (x["x1"] - 0.5) ** 2,
                          lambda x, s: ({"x1": 2e4 * (x["x1"] - 0.5)}, np.empty(0)))
    uphill = ObjectiveSpec("uphill", lambda x, s: x["x1"],
                           lambda x, s: ({"x1": -1.0}, np.empty(0)))
    moop = make_moop(n_vars=1, objectives=[steep, uphill])
    for w in ((1.0, 0.0), (0.0, 1.0)):
        yield moop, weighted(*w), []


def checked_line_search(monkeypatch, evaluators):
    """Patch ``optimizer._line_search`` to check every row's search against the sequential one.

    ``evaluators`` maps a region's ``(lo, hi)`` bytes to the slot's
    evaluator.  Returns the list of sequential outcomes, one per search.
    """
    block_search = optimizer._line_search
    searches = []

    def checked(stack, slots, z, f, g, d, lo, hi, first_block):
        values, rows = stack.values, collections.Counter()

        def counted(row_slots, points):
            rows.update(row_slots.tolist())
            return values(row_slots, points)

        stack.values = counted
        try:
            accepted, z_new, f_new, count = block_search(stack, slots, z, f, g, d, lo, hi,
                                                         first_block)
        finally:
            del stack.values
        for i in range(len(z)):
            assert rows[slots[i]] <= optimizer.MAX_TRIALS
            ev = evaluators[lo[i].tobytes(), hi[i].tobytes()]
            want = sequential_line_search(ev, z[i], f[i], g[i], d[i], lo[i], hi[i])
            assert (count[i] - 1 if accepted[i] else None) == want
            if want is not None:
                np.testing.assert_array_equal(
                    z_new[i], np.clip(z[i] + 0.5 ** want * d[i], lo[i], hi[i]))
                assert f_new[i] == pytest.approx(ev.value(z_new[i]), rel=1e-12, abs=1e-12)
            searches.append(want)
        return accepted, z_new, f_new, count

    monkeypatch.setattr(optimizer, "_line_search", checked)
    return searches


def test_block_line_search_accepts_the_sequential_trial(monkeypatch):
    rng = np.random.default_rng(31)
    evaluators = {}
    searches = checked_line_search(monkeypatch, evaluators)

    def region_for(dim):
        region = TrustRegion(center=rng.uniform(0.2, 0.8, dim), radius=float(rng.uniform(0.1, 0.5)))
        return region, rng.uniform(*region.bounds())

    def register(moop, state, surrogates, region):
        evaluators[tuple(b.tobytes() for b in region.bounds())] = \
            SubproblemEvaluator(moop, state, surrogates, lam=1.0)

    for moop, state, surrogates in random_line_search_problems(rng):
        region, start = region_for(len(moop.variables))
        register(moop, state, surrogates, region)
        solve(moop, state, surrogates, start, region, lam=1.0)
    # Both outcomes and trials beyond the first block were exercised.
    assert None in searches and max(s for s in searches if s is not None) >= optimizer.TRIAL_BLOCK

    # The same checks with the slots of one problem searching in lockstep.
    # A surrogate prediction rounds by the rows it shares a block with, so
    # a stacked trial near the noise floor may pass where its one-row value
    # fails; test_solve_batch_matches_a_solve_per_slot covers surrogates.
    single = len(searches)
    by_terms = {}
    for moop, state, surrogates in random_line_search_problems(rng):
        if not surrogates:
            by_terms.setdefault(moop.objectives, (moop, surrogates, []))[2].append(state)
    for moop, surrogates, states in by_terms.values():
        regions, starts = zip(*(region_for(len(moop.variables)) for _ in states))
        for state, region in zip(states, regions):
            register(moop, state, surrogates, region)
        solve_batch(moop, states, [surrogates] * len(states), starts, regions, lam=1.0)
    assert max(len(states) for _, _, states in by_terms.values()) > 1
    lockstep = searches[single:]
    assert None in lockstep and max(s for s in lockstep if s is not None) >= optimizer.TRIAL_BLOCK


def lockstep_slots(rng):
    """A problem and (state, start, region) slots of every scalarization kind.

    Its terms include active and inactive constraints, gradless terms and
    terms that read the design.  The fixed weights are scaled down, as a
    problem may declare them: their first step stays inside the region,
    so those slots take several BFGS iterations where the others mostly
    stop at a corner after one.
    """
    moop = make_moop(
        n_vars=3,
        sim_dim=3,
        objectives=[identity_objective("f1", 0),
                    ObjectiveSpec("f2", lambda x, s: s[1] ** 2 + 0.5 * x["x2"])],
        constraints=[identity_constraint("on", 0, -10.0),
                     sum_of_squares_constraint("off", [1], 100.0),
                     ObjectiveSpec("fd_on", lambda x, s: s[2] * x["x1"] + 5.0),
                     variable_objective("x3_cap", "x3", scale=0.5)],
    )
    _, model = active_constraint_landscape()
    slots = []
    for i in range(12):
        kind = i % 4
        if kind == 0:
            state = weighted(*(rng.dirichlet([1.0, 1.0]) * rng.uniform(0.05, 0.3)))
        elif kind == 1:
            state = ScalarizationState("random_weight", weights=rng.dirichlet([1.0, 1.0]))
        else:
            state = ScalarizationState("random_epsilon_constraint", target=kind - 2,
                                       epsilons=rng.uniform(0.0, 1.0, 2))
        region = TrustRegion(center=rng.uniform(0.1, 0.9, 3), radius=float(rng.uniform(0.05, 0.5)))
        slots.append((state, rng.uniform(*region.bounds()), region))
    return moop, [model], slots


@pytest.mark.blas_threads
@pytest.mark.parametrize("seed", range(30))
def test_solve_batch_matches_a_solve_per_slot(seed):
    moop, (model,), slots = lockstep_slots(np.random.default_rng(seed))
    # Every other slot predicts with a local refit of the global model.
    refit = model.set_center(TrustRegion(center=np.full(3, 0.5), radius=0.3))
    assert refit is not model
    models = [[model] if i % 2 else [refit] for i in range(len(slots))]
    states, starts, regions = zip(*slots)
    together = solve_batch(moop, states, models, starts, regions, lam=1.7)
    assert len(together) == len(slots)
    for (state, start, region), surrogates, got in zip(slots, models, together):
        want = solve(moop, state, surrogates, start, region, lam=1.7)
        assert got.iterations == want.iterations
        assert (got.candidate is None) == (want.candidate is None)
        assert got.value == pytest.approx(want.value, rel=1e-9, abs=1e-12)
        assert got.start_value == pytest.approx(want.start_value, rel=1e-9, abs=1e-12)
        if want.candidate is not None:
            # Absolute on the unit cube: stacked rounding, amplified by the
            # BFGS iterations, can move a small coordinate along a flat
            # direction by more than 1e-9 of itself.
            np.testing.assert_allclose(got.candidate, want.candidate, rtol=0.0, atol=1e-9)
    # Slots finished at different iterations, so finished slots left the
    # working arrays while others went on.
    assert len({got.iterations for got in together}) > 1

    # Each candidate is a fresh array: writing to one changes nothing else.
    candidates = [got.candidate for got in together if got.candidate is not None]
    assert len(candidates) > 1
    kept = [c.copy() for c in candidates]
    for c in candidates:
        assert c.flags.owndata
        assert not any(np.shares_memory(c, other) for other in (*starts, *candidates)
                       if other is not c)
    candidates[0][:] = np.nan
    for c, k in zip(candidates[1:], kept[1:]):
        np.testing.assert_array_equal(c, k)


def two_simulation_moop(seed=0):
    """A 2+1-output problem: a local-refit simulation next to a global one.

    Its gradless term reads both simulations and the design, so its
    finite differences predict with both of a slot's models.
    """
    def wave(d):
        return np.array([np.sin(3.0 * d["x1"]) + d["x2"] ** 2, np.cos(2.0 * d["x3"]) * d["x1"]])

    def ramp(d):
        return np.array([d["x1"] * d["x3"] + 0.5 * d["x2"]])

    return MoopDefinition(
        variables=[DesignVariable("x1", "continuous", 0.0, 1.0),
                   DesignVariable("x2", "continuous", -1.0, 2.0),
                   DesignVariable("x3", "continuous", 0.0, 1.0)],
        simulations=[SimulationSpec("wave", 2, wave, local=True),
                     SimulationSpec("ramp", 1, ramp, local=False)],
        objectives=[identity_objective("f1", 0),
                    ObjectiveSpec("mix", lambda x, s: s[1] * s[2] + 0.3 * x["x2"])],
        constraints=[sum_of_squares_constraint("cap", [0, 2], 2.0)],
        acquisitions=[AcquisitionSpec("fixed_weight", weights=(0.2, 0.1)),
                      AcquisitionSpec("random_weight"),
                      AcquisitionSpec("random_epsilon_constraint"),
                      AcquisitionSpec("random_epsilon_constraint")],
        q0=12,
        rng_seed=seed,
    )


#: The initial design plus six batches of the two-simulation problem.
TWO_SIM_BUDGET = 12 + 4 * 6


@pytest.mark.blas_threads
def test_two_simulation_slots_predict_and_solve_as_one_slot_each():
    # Every slot predicts with a local refit of "wave" and the one global
    # "ramp" model, so the stack has two model positions: slots differ in
    # the first and share the second.
    moop = validate(two_simulation_moop())
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.0, 1.0, (30, 3))
    designs = [embedding.extract(moop.plan, z) for z in pts]
    wave, ramp = (RbfSurrogate.fit(pts, np.array([sim.evaluator(d) for d in designs]))
                  for sim in moop.simulations)
    states = [weighted(0.2, 0.1), ScalarizationState("random_weight", weights=np.array([0.6, 0.4])),
              ScalarizationState("random_epsilon_constraint", target=0, epsilons=np.array([0.0, 0.3])),
              ScalarizationState("random_epsilon_constraint", target=1, epsilons=np.array([0.5, 0.0]))]
    regions = [TrustRegion(center=np.array(c), radius=r) for c, r in (
        ([0.3, 0.6, 0.4], 0.25), ([0.7, 0.3, 0.6], 0.3), ([0.5, 0.5, 0.5], 0.2))]
    models = [[wave.set_center(region), ramp.set_center(region, local=False)]
              for region in regions]
    assert all(refit is not wave and model is ramp for refit, model in models)
    # The last two slots share a start, hence a region and a refit.
    regions.append(regions[-1])
    models.append(models[-1])

    stack = optimizer._Stack(moop, states, models, 1.3)
    assert [len(distinct) for _, distinct, _ in stack._models] == [3, 1]
    for i, slot_models in enumerate(models):
        for z in rng.uniform(0.0, 1.0, (5, 3)):
            np.testing.assert_array_equal(stack._predict(np.array([i]), z[None])[0],
                                          np.concatenate([m.evaluate(z) for m in slot_models]))

    starts = [rng.uniform(*region.bounds()) for region in regions]
    together = solve_batch(moop, states, models, starts, regions, lam=1.3)
    for state, surrogates, start, region, got in zip(states, models, starts, regions, together):
        want = solve(moop, state, surrogates, start, region, lam=1.3)
        assert got.iterations == want.iterations
        assert (got.candidate is None) == (want.candidate is None)
        assert got.value == pytest.approx(want.value, rel=1e-9, abs=1e-12)
        assert got.start_value == pytest.approx(want.start_value, rel=1e-9, abs=1e-12)
        if want.candidate is not None:
            np.testing.assert_allclose(got.candidate, want.candidate, rtol=1e-9, atol=1e-12)
    assert any(got.candidate is not None for got in together)

    def run():
        return MoopSolver(two_simulation_moop(seed=2)).solve(TWO_SIM_BUDGET).database.records

    first, second = run(), run()
    assert len(first) == len(second) == TWO_SIM_BUDGET
    for a, b in zip(first, second):
        assert a.design == b.design and a.iteration == b.iteration
        for u, v in zip(a.sim_outputs, b.sim_outputs):
            np.testing.assert_array_equal(u, v)
        np.testing.assert_array_equal(a.objectives, b.objectives)
        np.testing.assert_array_equal(a.constraints, b.constraints)
