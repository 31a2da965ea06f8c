"""Scalarization refresh, evaluation, and start-point selection."""

import numpy as np
import pytest
from scipy.special import expit

from moso_kit.acquisition import (
    FALLBACK_WIDTH,
    RHO,
    WIDTH_FRACTION,
    ScalarizationState,
    _expit,
    refresh,
    scalarize,
    scalarize_stack,
    scalarize_stack_gradient,
    select_start,
    stack_states,
)
from moso_kit.embedding import build_plan
from moso_kit.metrics import ParetoArchive
from moso_kit.problem import AcquisitionSpec, DesignVariable, EvaluationDatabase


def make_database(objective_rows, violations=None):
    """Database with one continuous variable and the given objectives."""
    plan = build_plan([DesignVariable("x", "continuous", 0.0, 1.0)])
    db = EvaluationDatabase(plan)
    n = len(objective_rows)
    for i, row in enumerate(objective_rows):
        g = np.empty(0) if violations is None else np.array([violations[i]])
        db.add({"x": (i + 1) / (n + 1)}, [np.asarray(row, dtype=float)],
               np.asarray(row, dtype=float), g, 0)
    return db


def two_point_archive():
    return ParetoArchive(designs=[{"x": 0.25}, {"x": 0.75}],
                         objectives=np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_fixed_weight_passes_through():
    spec = AcquisitionSpec("fixed_weight", weights=(0.5, 0.5))
    state = refresh(spec, two_point_archive(), np.random.default_rng(0), 2)
    assert state.kind == "fixed_weight"
    assert np.array_equal(state.weights, [0.5, 0.5])


def test_random_weights_live_on_the_simplex():
    spec = AcquisitionSpec("random_weight")
    rng = np.random.default_rng(1)
    for _ in range(200):
        state = refresh(spec, two_point_archive(), rng, 4)
        assert state.weights.shape == (4,)
        assert np.all(state.weights >= 0.0)
        assert state.weights.sum() == pytest.approx(1.0)


def test_epsilon_anchors_interpolate_the_archive():
    # Anchors live on segments between archive points: here every anchor
    # has coordinates in [1, 2] summing to 3.  Draws where both segment
    # ends coincide reproduce the archive points themselves, and both
    # archive points and both targets must show up over many draws.
    spec = AcquisitionSpec("random_epsilon_constraint")
    rng = np.random.default_rng(2)
    archive = two_point_archive()
    exact = set()
    targets = set()
    interpolated = 0
    for _ in range(200):
        state = refresh(spec, archive, rng, 2)
        assert state.kind == "random_epsilon_constraint"
        assert state.target in (0, 1)
        eps = state.epsilons
        assert eps.sum() == pytest.approx(3.0)
        assert np.all(eps >= 1.0 - 1e-12) and np.all(eps <= 2.0 + 1e-12)
        targets.add(state.target)
        if tuple(eps) in {(1.0, 2.0), (2.0, 1.0)}:
            exact.add(tuple(eps))
        else:
            interpolated += 1
    assert exact == {(1.0, 2.0), (2.0, 1.0)}
    assert interpolated > 0
    assert targets == {0, 1}


def test_epsilon_anchor_sets_nontarget_bound():
    spec = AcquisitionSpec("random_epsilon_constraint")
    rng = np.random.default_rng(3)
    archive = two_point_archive()
    while True:
        state = refresh(spec, archive, rng, 2)
        if state.target == 0 and state.epsilons[0] == 2.0:
            break
    assert state.epsilons[1] == 1.0


def test_epsilon_single_point_archive_uses_that_point():
    spec = AcquisitionSpec("random_epsilon_constraint")
    rng = np.random.default_rng(7)
    lone = ParetoArchive(designs=[{"x": 0.5}],
                         objectives=np.array([[3.0, 4.0]]))
    for _ in range(20):
        state = refresh(spec, lone, rng, 2)
        assert np.array_equal(state.epsilons, [3.0, 4.0])
        # One point has no spread to take the penalty width from.
        assert np.array_equal(state.widths, [FALLBACK_WIDTH, FALLBACK_WIDTH])


def test_epsilon_widths_are_a_fraction_of_the_archive_spread():
    spec = AcquisitionSpec("random_epsilon_constraint")
    archive = ParetoArchive(designs=[{"x": 0.1}, {"x": 0.5}, {"x": 0.9}],
                            objectives=np.array([[1.0, 40.0, 2.0],
                                                 [3.0, 10.0, 2.0],
                                                 [2.0, 20.0, 2.0]]))
    state = refresh(spec, archive, np.random.default_rng(9), 3)
    # The third objective does not spread, so its width falls back.
    assert np.array_equal(state.widths,
                          [WIDTH_FRACTION * 2.0, WIDTH_FRACTION * 30.0, FALLBACK_WIDTH])


@pytest.mark.parametrize("objectives, want", [
    # The spread of 3e308 overflows; that of the scaled objectives does not.
    ([[1.5e308, -1.5e308], [-1.5e308, 1.5e308]], [2.0 * WIDTH_FRACTION * 1.5e308] * 2),
    # A spread of 1e-322 is finite, but its fraction rounds to zero.
    ([[0.0, 1e-322], [1e-322, 0.0]], [FALLBACK_WIDTH] * 2),
])
def test_epsilon_widths_of_a_spread_that_overflows_or_underflows(objectives, want):
    archive = ParetoArchive(designs=[{"x": 0.25}, {"x": 0.75}], objectives=np.array(objectives))
    with np.errstate(over="ignore"):
        state = refresh(AcquisitionSpec("random_epsilon_constraint"), archive,
                        np.random.default_rng(0), 2)
    np.testing.assert_allclose(state.widths, want, rtol=1e-15)


def test_epsilon_with_empty_archive_falls_back_to_random_weights():
    spec = AcquisitionSpec("random_epsilon_constraint")
    empty = ParetoArchive(designs=[], objectives=np.empty((0, 0)))
    state = refresh(spec, empty, np.random.default_rng(4), 3)
    assert state.kind == "random_weight"
    assert state.weights.sum() == pytest.approx(1.0)


def test_scalarize_weighted_sum():
    state = ScalarizationState("fixed_weight", weights=np.array([0.5, 0.5]))
    assert scalarize(state, np.array([1.0, 3.0])) == pytest.approx(2.0)


def test_scalarize_epsilon_penalty_values():
    # The penalty is the softplus w * log(1 + exp(u / w)) of the excess
    # u = f - eps: the hinge far from the anchor, w log 2 on it.  The
    # target's own width counts for nothing.
    state = ScalarizationState("random_epsilon_constraint", target=0,
                               epsilons=np.array([9.9, 1.0]), widths=np.array([7.0, 0.01]))
    assert scalarize(state, np.array([0.5, 1.4])) == pytest.approx(40.5, rel=1e-15)
    assert scalarize(state, np.array([0.5, 0.9])) == pytest.approx(
        0.5 + RHO * 0.01 * np.log1p(np.exp(-10.0)), rel=1e-15)
    assert scalarize(state, np.array([0.5, 1.0])) == pytest.approx(
        0.5 + RHO * 0.01 * np.log(2.0), rel=1e-15)
    # A state built without widths takes FALLBACK_WIDTH on every objective.
    bare = ScalarizationState("random_epsilon_constraint", target=0,
                              epsilons=np.array([9.9, 1.0]))
    assert scalarize(bare, np.array([0.5, 1.0])) == pytest.approx(
        0.5 + RHO * FALLBACK_WIDTH * np.log(2.0), rel=1e-15)


@pytest.mark.parametrize("widths", [[0.01, 0.0], [-1.0, 1.0], [0.01, np.nan], [np.inf, 1.0]])
def test_penalty_widths_must_be_finite_and_positive(widths):
    # A zero width would divide by zero and make every score nan.
    with pytest.raises(ValueError, match="widths"):
        ScalarizationState("random_epsilon_constraint", target=0,
                           epsilons=np.array([0.0, 1.0]), widths=np.array(widths))


def test_weight_scalarizations_are_monotone_in_objectives():
    rng = np.random.default_rng(5)
    for _ in range(200):
        o = int(rng.integers(1, 5))
        w = rng.exponential(1.0, o)
        state = ScalarizationState("random_weight", weights=w / w.sum())
        f = rng.normal(0.0, 2.0, o)
        worse = f + rng.uniform(0.0, 1.0, o)
        assert scalarize(state, f) <= scalarize(state, worse) + 1e-12


def test_scalarize_gradient_weight_kind_is_the_weights():
    state = ScalarizationState("fixed_weight", weights=np.array([0.3, 0.7]))
    grad = scalarize_stack_gradient(stack_states([state], 2), np.zeros(1, dtype=np.intp),
                                    np.array([[1.0, 2.0]]))
    assert np.array_equal(grad, [[0.3, 0.7]])


def test_scalarize_gradient_epsilon_matches_finite_differences():
    # Several states in one stack, widths of different scales, and rows
    # on the anchor itself (f_j = eps_j), where the hinge had its kink.
    states = [ScalarizationState("random_epsilon_constraint", target=1,
                                 epsilons=np.array([0.6, 0.0, 1.2]),
                                 widths=np.array([0.01, 0.5, 0.003])),
              ScalarizationState("random_epsilon_constraint", target=0,
                                 epsilons=np.array([0.0, 1.0, 0.4])),
              ScalarizationState("random_weight", weights=np.array([0.2, 0.3, 0.5]))]
    stack = stack_states(states, 3)
    rng = np.random.default_rng(6)
    slots = np.repeat(np.arange(3), 20)
    objs = rng.uniform(0.0, 2.0, (60, 3))
    for i in range(0, 60, 2):
        j = rng.integers(3)
        objs[i, j] = stack[slots[i], 1, j]
    h = 1e-6
    grads = scalarize_stack_gradient(stack, slots, objs)
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        fd = (scalarize_stack(stack, slots, objs + e) - scalarize_stack(stack, slots, objs - e)) / (2 * h)
        np.testing.assert_allclose(grads[:, j], fd, rtol=1e-6, atol=1e-5)
    one = np.zeros(1, dtype=np.intp)
    for state, f, grad in zip([states[s] for s in slots], objs, grads):
        np.testing.assert_array_equal(
            scalarize_stack_gradient(stack_states([state], 3), one, f[None])[0], grad)


@pytest.mark.blas_threads
def test_expit_is_scipy_special_expit_bit_for_bit():
    rng = np.random.default_rng(31)
    near = np.array([709.78, 745.0, 745.2, 746.0, 1e308, np.inf, 0.0, 5e-324, 36.0, 37.0])
    x = np.concatenate([rng.normal(0.0, 3.0, 20000), rng.normal(0.0, 40.0, 20000),
                        rng.normal(0.0, 800.0, 5000), near, -near,
                        np.nextafter(near, np.inf), np.nextafter(near, -np.inf),
                        np.nextafter(-near, np.inf), np.nextafter(-near, -np.inf)])
    got = np.array([_expit(v) for v in x.tolist()])
    np.testing.assert_array_equal(got.view(np.int64), expit(x).view(np.int64))
    assert np.isnan(_expit(float("nan")))


@pytest.mark.blas_threads
def test_scalarize_gradient_is_the_one_of_scipy_special_expit():
    rng = np.random.default_rng(32)
    states = [ScalarizationState("random_epsilon_constraint", target=t,
                                 epsilons=rng.normal(size=3), widths=10.0 ** rng.uniform(-4, 1, 3))
              for t in range(3)] + [ScalarizationState("random_weight", weights=np.ones(3) / 3)]
    table = stack_states(states, 3)
    slots = rng.integers(len(states), size=500)
    objs = rng.normal(size=(500, 3)) * 10.0 ** rng.integers(-3, 3, (500, 1))
    w, eps, p, c = table[slots].transpose(1, 0, 2)
    want = w + RHO * (expit((objs - eps) / c) * p)
    np.testing.assert_array_equal(scalarize_stack_gradient(table, slots, objs), want)


def test_select_start_weighted_examples():
    db = make_database([[1.0, 2.0], [2.0, 1.0]])
    first = ScalarizationState("fixed_weight", weights=np.array([1.0, 0.0]))
    second = ScalarizationState("fixed_weight", weights=np.array([0.0, 1.0]))
    assert select_start([first, second], db, 1.0) == [0, 1]
    assert select_start([second, first, second], db, 1.0) == [1, 0, 1]
    assert select_start([], db, 1.0) == []


def test_select_start_epsilon_example():
    db = make_database([[1.0, 2.0], [2.0, 1.0]])
    state = ScalarizationState("random_epsilon_constraint", target=0,
                               epsilons=np.array([9.9, 1.0]), widths=np.array([0.01, 0.01]))
    assert select_start([state], db, 1.0) == [1]


def test_select_start_tie_goes_to_earliest():
    db = make_database([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
    state = ScalarizationState("fixed_weight", weights=np.array([0.5, 0.5]))
    assert select_start([state, state], db, 1.0) == [0, 0]


def test_select_start_prefers_feasible_over_better_infeasible():
    db = make_database([[0.0, 0.0], [9.0, 9.0]], violations=[10.0, 0.0])
    state = ScalarizationState("fixed_weight", weights=np.array([0.5, 0.5]))
    assert select_start([state], db, 1.0) == [1]


def test_select_start_all_infeasible_uses_penalized_score():
    db = make_database([[0.0, 0.0], [5.0, 5.0]], violations=[10.0, 0.001])
    state = ScalarizationState("fixed_weight", weights=np.array([0.5, 0.5]))
    assert select_start([state], db, 1.0) == [1]
    assert select_start([state], db, 0.01) == [0]


def test_select_start_empty_database_raises():
    db = make_database([])
    state = ScalarizationState("fixed_weight", weights=np.array([1.0]))
    with pytest.raises(ValueError):
        select_start([state], db, 1.0)


@pytest.mark.blas_threads
def test_select_start_matches_brute_force():
    # The one pass over every state and record gives, bit for bit, the
    # scores of ``scalarize`` on each state and record alone, and picks for
    # each state the record that scoring it alone picks.
    rng = np.random.default_rng(7)
    all_infeasible = tied = 0
    for trial in range(100):
        n = int(rng.integers(1, 100))
        o = int(rng.integers(1, 5))
        # Every third database has no feasible record.
        infeasible = rng.random(n) < (1.0 if trial % 3 == 0 else 0.3)
        viol = np.where(infeasible, rng.uniform(0.1, 5.0, n), 0.0)
        if trial % 2 == 0:
            # Records that repeat a few objective rows, so that scores tie.
            objs = np.round(rng.uniform(0.0, 3.0, (4, o)), 1)[rng.integers(4, size=n)]
        else:
            # Continuous values, so that a change in summation order shows.
            objs = rng.uniform(0.0, 3.0, (n, o))
        states = []
        for _ in range(int(rng.integers(1, 6))):
            if o == 1 or rng.random() < 0.5:
                w = rng.exponential(1.0, o)
                states.append(ScalarizationState("random_weight", weights=w / w.sum()))
            else:
                mix = rng.uniform()
                states.append(ScalarizationState(
                    "random_epsilon_constraint", target=int(rng.integers(o)),
                    epsilons=mix * objs[rng.integers(n)] + (1.0 - mix) * objs[rng.integers(n)],
                    widths=rng.uniform(0.01, 1.0, o)))
        db = make_database(objs, violations=viol)
        lam = float(rng.uniform(0.1, 100.0))

        stacked = scalarize_stack(stack_states(states, o), np.arange(len(states)).repeat(n),
                                  np.tile(db.objective_matrix(), (len(states), 1)))
        expect = []
        for state, row in zip(states, stacked.reshape(len(states), n)):
            scores = np.array([scalarize(state, fv) for fv in objs])
            assert np.array_equal(row, scores)
            if infeasible.all():
                scores = scores + lam * viol
            else:
                scores[infeasible] = np.inf
            expect.append(int(np.argmin(scores)))
            tied += np.count_nonzero(scores == scores.min()) > 1
        all_infeasible += infeasible.all()
        assert select_start(states, db, lam) == expect
    assert all_infeasible and tied


def test_refresh_rejects_unknown_kind():
    bogus = AcquisitionSpec.__new__(AcquisitionSpec)
    object.__setattr__(bogus, "kind", "mystery")
    object.__setattr__(bogus, "weights", None)
    with pytest.raises(ValueError):
        refresh(bogus, two_point_archive(), np.random.default_rng(8), 2)
