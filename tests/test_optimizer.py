"""Inner projected-BFGS solves of the scalarized surrogate subproblem."""

import dataclasses

import numpy as np
import pytest

from moso_kit import embedding, optimizer
from moso_kit.acquisition import ScalarizationState
from moso_kit.optimizer import (
    OptimizerConfig,
    SubproblemEvaluator,
    solve,
)
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


def test_iteration_budget_respected():
    # A needle the line search cannot finish in one step keeps iterating;
    # the loop must still stop at the configured cap.
    moop = make_moop(objectives=[quadratic_objective([0.9])])
    config = OptimizerConfig(max_iterations=3)
    region = TrustRegion(center=np.array([0.5]), radius=0.5)
    outcome = solve(moop, weighted(1.0), [], np.array([0.0]), region, lam=1.0,
                    config=config)
    assert outcome.iterations <= 3


def test_uncertainty_bonus_changes_value():
    moop = make_moop(sim_dim=1)
    pts = np.array([[0.2], [0.8]])
    model = RbfSurrogate.fit(pts, np.array([[1.0], [3.0]]))
    z = np.array([0.5])
    plain = ScalarizationState("fixed_weight", weights=np.array([1.0]))
    bonus = ScalarizationState("fixed_weight", weights=np.array([1.0]), kappa=5.0)
    v0, _ = SubproblemEvaluator(moop, plain, [model], lam=1.0).value_and_grad(z)
    v1, _ = SubproblemEvaluator(moop, bonus, [model], lam=1.0,
                                config=OptimizerConfig(kappa=5.0)).value_and_grad(z)
    assert v1 < v0


def counted_objective(name, func, grad, calls):
    def counted(x, s):
        calls[0] += 1
        return func(x, s)

    return ObjectiveSpec(name, counted, grad)


@pytest.mark.parametrize("start, expected", [
    ((0.9, 0.2), (0.69, 0.2)),
    ((0.95, 0.9), (0.76, 0.9)),
    ((0.7, 0.7), (0.64, 0.7)),
])
def test_solve_stops_crawling_along_an_epsilon_kink(start, expected):
    # The optimum sits on the kink f2 = eps where the RHO penalty switches
    # on; the BFGS model cannot update there and its steps keep shrinking.
    calls = [0]
    f1 = counted_objective("f1", lambda x, s: x["x1"],
                           lambda x, s: ({"x1": 1.0}, np.empty(0)), calls)
    f2 = counted_objective(
        "f2", lambda x, s: 1.0 - x["x1"] + (x["x2"] - 0.5) ** 2,
        lambda x, s: ({"x1": -1.0, "x2": 2.0 * (x["x2"] - 0.5)}, np.empty(0)), calls)
    moop = make_moop(n_vars=2, objectives=[f1, f2])
    state = ScalarizationState("random_epsilon_constraint", target=0,
                               epsilons=np.array([0.0, 0.4]))
    region = TrustRegion(center=np.array([0.5, 0.5]), radius=0.5)
    outcome = solve(moop, state, [], np.array(start), region, lam=1.0)
    assert outcome.candidate is not None
    np.testing.assert_allclose(outcome.candidate, expected, rtol=0.0, atol=1e-6)
    assert calls[0] < 600


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
                               epsilons=np.array([0.0, 1.0]), kappa=2.0)
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


def test_uncertainty_bonus_gradient_computes_each_uncertainty_once(monkeypatch):
    moop = make_moop(
        n_vars=2,
        sim_dim=2,
        objectives=[identity_objective("f1", 0), identity_objective("f2", 1)],
    )
    rng = np.random.default_rng(14)
    pts = rng.uniform(0.0, 1.0, (8, 2))
    models = [RbfSurrogate.fit(pts, np.sin(3 * pts[:, :1])),
              RbfSurrogate.fit(pts, (pts[:, 1:] - 0.5) ** 2)]
    w = np.array([0.3, 0.7])
    kappa = 5.0
    state = ScalarizationState("fixed_weight", weights=w, kappa=kappa)
    ev = SubproblemEvaluator(moop, state, models, lam=1.0, config=OptimizerConfig(kappa=kappa))
    z = np.array([0.35, 0.6])

    # The value and gradient the terms define, in the evaluator's order.
    f = np.concatenate([m.evaluate(z) for m in models])
    u = np.concatenate([m.uncertainty(z) for m in models])
    sigma = np.full(2, float(u.max()))
    value = float(w @ f) - kappa * float(w @ sigma)
    row = np.vstack([m.uncertainty_gradient(z) for m in models])[int(np.argmax(u))]
    grad = w @ np.vstack([m.gradient(z) for m in models])
    grad -= kappa * (w @ np.tile(row, (2, 1)))

    calls = count_calls(monkeypatch, RbfSurrogate, "uncertainty")
    got_value, got_grad = ev.value_and_grad(z)
    assert calls[0] == len(models)
    assert got_value == value
    np.testing.assert_array_equal(got_grad, grad)


def test_uncertainty_bonus_without_simulations_is_zero():
    moop = make_moop(n_vars=2, objectives=[quadratic_objective([0.7, 0.2])])
    state = ScalarizationState("fixed_weight", weights=np.array([1.0]), kappa=2.0)
    ev = SubproblemEvaluator(moop, state, [], lam=1.0, config=OptimizerConfig(kappa=2.0))
    z = np.array([0.3, 0.6])
    value, grad = ev.value_and_grad(z)
    plain_value, plain_grad = SubproblemEvaluator(moop, weighted(1.0), [], lam=1.0).value_and_grad(z)
    assert ev.value(z) == value == plain_value
    np.testing.assert_array_equal(grad, plain_grad)


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
                                 epsilons=np.array([0.2, 0.0]), kappa=0.0)]
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


def test_value_is_the_one_row_case_of_value_rows():
    moop = make_moop(
        n_vars=3,
        sim_dim=3,
        objectives=[identity_objective("f1", 0), identity_objective("f2", 1)],
        constraints=[identity_constraint("g1", 0, 0.2),
                     sum_of_squares_constraint("g2", [1, 2], 0.5)],
    )
    rng, model = active_constraint_landscape()
    states = [(weighted(0.3, 0.7), OptimizerConfig()),
              (ScalarizationState("random_epsilon_constraint", target=1,
                                  epsilons=np.array([0.2, 0.0])), OptimizerConfig()),
              (ScalarizationState("fixed_weight", weights=np.array([0.6, 0.4]), kappa=2.0),
               OptimizerConfig(kappa=2.0))]
    for state, config in states:
        ev = SubproblemEvaluator(moop, state, [model], lam=1.7, config=config)
        block = rng.uniform(0.0, 1.0, (9, 3))
        values = ev.value_rows(block)
        for z, v in zip(block, values):
            assert ev.value(z) == ev.value_rows(z[None])[0] == ev.value_and_grad(z)[0]
            assert v == pytest.approx(ev.value(z), rel=1e-12, abs=1e-12)


def sequential_line_search(ev, z, f, g, d, lo, hi, armijo_c):
    """Index of the first trial ``alpha = 2**-j`` that passes, one ``value`` at a time."""
    alpha = 1.0
    for j in range(optimizer.MAX_TRIALS):
        z_new = np.clip(z + alpha * d, lo, hi)
        step = z_new - z
        if not step.any():
            return None
        if ev.value(z_new) <= f + armijo_c * (g @ step):
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


def test_block_line_search_accepts_the_sequential_trial(monkeypatch):
    rng = np.random.default_rng(31)
    block_search = optimizer._line_search
    searches, rows = [], []

    def checked(ev, z, f, g, d, lo, hi, armijo_c, first_block):
        rows.clear()
        accepted = block_search(ev, z, f, g, d, lo, hi, armijo_c, first_block)
        assert sum(rows) <= optimizer.MAX_TRIALS
        want = sequential_line_search(ev, z, f, g, d, lo, hi, armijo_c)
        assert (None if accepted is None else accepted[2] - 1) == want
        searches.append(want)
        return accepted

    counted = SubproblemEvaluator.value_rows
    monkeypatch.setattr(SubproblemEvaluator, "value_rows",
                        lambda ev, points: rows.append(len(points)) or counted(ev, points))
    monkeypatch.setattr(optimizer, "_line_search", checked)
    for moop, state, surrogates in random_line_search_problems(rng):
        dim = len(moop.variables)
        region = TrustRegion(center=rng.uniform(0.2, 0.8, dim), radius=float(rng.uniform(0.1, 0.5)))
        solve(moop, state, surrogates, rng.uniform(*region.bounds()), region, lam=1.0)
    # Both outcomes and trials beyond the first block were exercised.
    assert None in searches and max(s for s in searches if s is not None) >= optimizer.TRIAL_BLOCK
