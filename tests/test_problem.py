"""Problem definitions, validation, evaluation, and the record store."""

import numpy as np
import pytest

from moso_kit.embedding import build_plan, embed
from moso_kit.orchestrator import problem_fingerprint
from moso_kit.problem import (
    AcquisitionSpec,
    ConstraintSpec,
    DesignVariable,
    DuplicatePointError,
    EvaluationDatabase,
    EvaluationError,
    MoopDefinition,
    _capped,
    ObjectiveSpec,
    SimulationSpec,
    ValidationError,
    eval_constraints,
    eval_objectives,
    identity_constraint,
    identity_objective,
    latent_key,
    linear_objective,
    sum_of_squares_constraint,
    sum_of_squares_objective,
    validate,
    variable_objective,
)

BOUNDS_13 = [
    (0.146, 0.167), (-16.21, -15.50), (137.2, 234.4), (19.5, 37.0),
    (2.20, 69.6), (0.0, 100.0), (0.418, 0.706), (0.0, 0.516),
    (0.076, 0.216), (-0.892, 0.982), (-4.62, -4.38), (3.94, 4.27),
    (-0.96, 3.66),
]


def calibration_definition():
    idx = [np.arange(0, 66), np.arange(66, 132), np.arange(132, 198)]
    return MoopDefinition(
        variables=[DesignVariable(f"x{i + 1}", "continuous", lo, hi)
                   for i, (lo, hi) in enumerate(BOUNDS_13)],
        simulations=[SimulationSpec("residuals", 198, lambda d: np.zeros(198))],
        objectives=[sum_of_squares_objective(f"class{j + 1}", idx[j]) for j in range(3)],
        constraints=[sum_of_squares_constraint(f"cap{j + 1}", idx[j], 100.0)
                     for j in range(3)],
        acquisitions=[AcquisitionSpec("random_weight")],
    )


def small_moop(objectives, constraints=(), sim_dim=3):
    return validate(MoopDefinition(
        variables=[DesignVariable("x1", "continuous", 0.0, 1.0),
                   DesignVariable("RT", "continuous", 60.0, 300.0)],
        simulations=[SimulationSpec("sim", sim_dim, lambda d: np.zeros(sim_dim))],
        objectives=list(objectives),
        constraints=list(constraints),
        acquisitions=[AcquisitionSpec("random_weight")],
    ))


def test_validate_caches_dimensions():
    moop = validate(calibration_definition())
    assert (moop.n, moop.m, moop.o, moop.p, moop.q) == (13, 198, 3, 3, 1)
    assert moop.latent_dim == 13


def test_validate_is_idempotent():
    moop = validate(calibration_definition())
    assert validate(moop) is moop


def test_validate_requires_objectives():
    defn = calibration_definition()
    defn.objectives = []
    with pytest.raises(ValidationError, match="objective"):
        validate(defn)


def test_validate_rejects_degenerate_bounds():
    defn = calibration_definition()
    defn.variables[0] = DesignVariable("x1", "continuous", 1.0, 1.0)
    with pytest.raises(ValidationError, match="lower"):
        validate(defn)


def test_validate_rejects_duplicate_names():
    defn = calibration_definition()
    defn.variables[1] = DesignVariable("x1", "continuous", 0.0, 1.0)
    with pytest.raises(ValidationError, match="duplicate"):
        validate(defn)


def test_validate_rejects_single_level_categorical():
    defn = calibration_definition()
    defn.variables.append(DesignVariable("solvent", "categorical", levels=("S1",)))
    with pytest.raises(ValidationError, match="two levels"):
        validate(defn)


INF, NAN = float("inf"), float("nan")


@pytest.mark.parametrize("q0", [True, 2.5, 0, -3, "10", None])
def test_validate_requires_a_positive_integer_q0(q0):
    defn = calibration_definition()
    defn.q0 = q0
    with pytest.raises(ValidationError, match="q0 must be a positive integer"):
        validate(defn)


def test_validate_stores_a_numpy_integer_q0_as_int():
    # The fingerprint serializes q0 to JSON, which takes no numpy integer.
    defn, plain = calibration_definition(), calibration_definition()
    defn.q0, plain.q0 = np.int64(7), 7
    moop = validate(defn)
    assert type(moop.q0) is int
    assert problem_fingerprint(moop) == problem_fingerprint(validate(plain))


@pytest.mark.parametrize("weights", [(NAN, 1.0), (INF, 1.0), (1.0, INF)])
def test_validate_rejects_non_finite_fixed_weights(weights):
    defn = calibration_definition()
    defn.objectives = defn.objectives[:2]
    defn.acquisitions = [AcquisitionSpec("fixed_weight", weights=weights)]
    with pytest.raises(ValidationError, match="weights must be finite"):
        validate(defn)


def test_sum_of_squares_objective_value():
    moop = small_moop([sum_of_squares_objective("chi", [0, 1])], sim_dim=2)
    out = eval_objectives(moop, {"x1": 0.5, "RT": 100.0}, np.array([1.0, 2.0]))
    assert out == pytest.approx([5.0])


def test_identity_objectives_pass_outputs_through():
    moop = small_moop([identity_objective(f"f{j}", j) for j in range(3)])
    s = np.array([0.3, 0.7, 0.1])
    assert np.array_equal(eval_objectives(moop, {"x1": 0.0, "RT": 60.0}, s), s)


def test_variable_objective_reads_the_design_point():
    moop = small_moop([variable_objective("time", "RT")])
    out = eval_objectives(moop, {"x1": 0.2, "RT": 60.0}, np.zeros(3))
    assert out == pytest.approx([60.0])


def test_eval_constraints_empty_is_feasible():
    moop = small_moop([identity_objective("f", 0)])
    g = eval_constraints(moop, {"x1": 0.1, "RT": 70.0}, np.zeros(3))
    assert g.shape == (0,)


def test_identity_constraint_feasible_example():
    moop = small_moop([identity_objective("f", 0)],
                      constraints=[identity_constraint("g1", 0, 10.0)])
    g = eval_constraints(moop, {"x1": 0.1, "RT": 70.0}, np.array([4.0, 0.0, 0.0]))
    assert g == pytest.approx([-6.0])


def test_sum_of_squares_cap_infeasible_example():
    moop = small_moop([identity_objective("f", 0)],
                      constraints=[sum_of_squares_constraint("cap", [0, 1, 2], 20.0)],
                      sim_dim=3)
    g = eval_constraints(moop, {"x1": 0.1, "RT": 70.0}, np.array([3.0, 4.0, 0.0]))
    assert g == pytest.approx([5.0])


def test_constraint_forms_are_capped_objective_forms():
    assert ConstraintSpec is ObjectiveSpec
    rng = np.random.default_rng(8)
    for _ in range(50):
        s = rng.normal(0.0, 10.0, 7)
        i, scale, cap = int(rng.integers(7)), float(rng.normal()), float(rng.normal(0.0, 5.0))
        idx = rng.choice(7, size=int(rng.integers(1, 8)), replace=False)
        v = s[idx]
        pairs = [
            (identity_constraint("g", i, cap, scale=scale), identity_objective("g", i, scale=scale),
             scale * s[i] - cap),
            (sum_of_squares_constraint("g", idx, cap), sum_of_squares_objective("g", idx),
             float(v @ v) - cap),
        ]
        for constraint, objective, want in pairs:
            got = constraint.func({}, s)
            assert got == want and type(got) is type(want)
            (cdx, cds), (odx, ods) = constraint.grad({}, s), objective.grad({}, s)
            assert cdx == odx == {}
            assert np.array_equal(cds, ods)
            assert constraint.rows is not None and objective.rows is not None


@pytest.mark.parametrize("rows", [1, 3, 40])
def test_row_forms_match_per_row_func(rows):
    rng = np.random.default_rng(rows)
    m = 198
    idx = rng.choice(m, size=66, replace=False)
    coeffs = rng.normal(0.0, 1.0, m)
    cap, scale = float(rng.normal(0.0, 5.0)), float(rng.normal())
    exact = [identity_objective("f", 7, scale=scale),
             identity_constraint("g", 7, cap, scale=scale),
             linear_objective("f", coeffs, const=0.25),
             _capped(linear_objective("f", coeffs, const=0.25), cap)]
    squares = [sum_of_squares_objective("f", idx), sum_of_squares_constraint("g", idx, cap)]
    # A block at an odd offset inside a larger array, as the inner solve slices it.
    preds = rng.normal(0.0, 3.0, (rows + 1, m))[1:]
    for specs, maxulp in ((exact, 0), (squares, 8)):
        for spec in specs:
            got = spec.rows(preds)
            want = np.array([spec.func({}, s) for s in preds])
            assert got.shape == (rows,)
            # A sum of squares rounds by the memory alignment of its row.
            np.testing.assert_array_max_ulp(got, want, maxulp=maxulp)


def test_terms_that_read_the_design_have_no_row_form():
    assert variable_objective("t", "x").rows is None
    assert ObjectiveSpec("custom", lambda x, s: 0.0).rows is None
    assert _capped(ObjectiveSpec("custom", lambda x, s: 0.0), 1.0).rows is None


def test_eval_constraints_flags_non_finite_with_index():
    moop = small_moop([identity_objective("f", 0)],
                      constraints=[identity_constraint("ok", 0, 1.0),
                                   identity_constraint("bad", 1, -np.inf)])
    with pytest.raises(EvaluationError, match=r"constraint 1 \('bad'\)"):
        eval_constraints(moop, {"x1": 0.0, "RT": 60.0}, np.ones(3))


def test_eval_objectives_flags_non_finite_with_index():
    bad = linear_objective("bad", [np.inf, 0.0, 0.0])
    moop = small_moop([identity_objective("ok", 0), bad])
    with pytest.raises(EvaluationError, match="objective 1"):
        eval_objectives(moop, {"x1": 0.0, "RT": 60.0}, np.ones(3))


def test_builder_gradients_match_finite_differences():
    rng = np.random.default_rng(21)
    specs = [
        sum_of_squares_objective("sos", [0, 2, 5]),
        linear_objective("lin", rng.normal(size=6), const=1.5),
        identity_objective("ident", 3, scale=-2.0),
        sum_of_squares_constraint("cap", [1, 4], 3.0),
        identity_constraint("icap", 2, 1.0, scale=0.7),
    ]
    h = 1e-6
    for spec in specs:
        for _ in range(20):
            s = rng.normal(0.0, 1.0, 6)
            _, ds = spec.grad({}, s)
            for i in range(6):
                e = np.zeros(6)
                e[i] = h
                fd = (spec.func({}, s + e) - spec.func({}, s - e)) / (2 * h)
                assert ds[i] == pytest.approx(fd, rel=1e-4, abs=1e-6)


def test_variable_objective_gradient_names_the_variable():
    spec = variable_objective("time", "RT", scale=2.0)
    dx, ds = spec.grad({"RT": 80.0}, np.zeros(3))
    assert dx == {"RT": 2.0}
    assert np.array_equal(ds, np.zeros(3))


def make_database():
    plan = build_plan([DesignVariable("x1", "continuous", 0.0, 1.0),
                       DesignVariable("RT", "continuous", 60.0, 300.0)])
    return EvaluationDatabase(plan)


def test_database_rejects_duplicate_latent_points():
    db = make_database()
    db.add({"x1": 0.5, "RT": 100.0}, [np.array([1.0])], np.array([1.0]),
           np.empty(0), 0)
    with pytest.raises(DuplicatePointError):
        db.add({"x1": 0.5, "RT": 100.0}, [np.array([2.0])], np.array([2.0]),
               np.empty(0), 1)
    assert len(db) == 1


def test_database_matrices_round_trip():
    db = make_database()
    rows = [(0.25, 80.0, 1.0), (0.5, 120.0, -0.5), (0.75, 240.0, 2.0)]
    for x1, rt, v in rows:
        db.add({"x1": x1, "RT": rt}, [np.array([v, 2 * v])],
               np.array([v]), np.array([v - 1.0]), 0)
    assert db.latent_matrix().shape == (3, 2)
    assert np.array_equal(db.outputs_matrix(0)[:, 1], [2.0, -1.0, 4.0])
    assert np.array_equal(db.objective_matrix()[:, 0], [1.0, -0.5, 2.0])
    assert np.array_equal(db.constraint_matrix()[:, 0], [0.0, -1.5, 1.0])
    assert np.array_equal(db.feasible_mask(), [True, True, False])
    for p in (0, 2):
        check_rows_after_growth(p)


def check_rows_after_growth(p):
    # Far past the first growth of the field arrays: every record's
    # fields still equal the matrix rows, and nothing can be written.
    db = make_database()
    rng = np.random.default_rng(5)
    added = []
    for k in range(300):
        design = {"x1": float(rng.uniform()), "RT": float(rng.uniform(60.0, 300.0))}
        s = [rng.normal(size=3), rng.normal(size=1)]
        f = rng.normal(size=2)
        g = rng.normal(size=p)
        rec = db.add(design, s, f, g, k // 16)
        added.append((s, f, g))
        assert rec is db.records[-1]
    matrices = (db.latent_matrix(), db.outputs_matrix(0), db.outputs_matrix(1),
                db.objective_matrix(), db.constraint_matrix())
    assert [m.shape for m in matrices] == [(300, 2), (300, 3), (300, 1), (300, 2), (300, p)]
    for i, (rec, (s, f, g)) in enumerate(zip(db.records, added)):
        assert np.array_equal(rec.latent, matrices[0][i])
        assert np.array_equal(rec.sim_outputs[0], matrices[1][i])
        assert np.array_equal(rec.sim_outputs[1], matrices[2][i])
        assert np.array_equal(rec.objectives, matrices[3][i])
        assert np.array_equal(rec.constraints, matrices[4][i])
        assert np.array_equal(rec.sim_outputs[0], s[0]) and np.array_equal(rec.objectives, f)
        assert np.array_equal(rec.constraints, g)
        assert rec.feasible == bool(g.size == 0 or g.max() <= 1e-8)
    assert np.array_equal(db.feasible_mask(), [r.feasible for r in db.records])
    for m in matrices:
        with pytest.raises(ValueError):
            m[0] = 0.0
    with pytest.raises(ValueError):
        db.records[0].objectives[0] = 0.0


@pytest.mark.parametrize("field", ["output", "objective", "constraint", "sim_count", "2d"])
def test_database_rejects_a_row_of_the_wrong_width(field):
    db = make_database()
    row = {"output": [np.array([1.0, 2.0])], "objective": np.array([1.0]),
           "constraint": np.array([0.0])}
    db.add({"x1": 0.1, "RT": 100.0}, row["output"], row["objective"], row["constraint"], 0)
    bad = dict(row)
    if field == "output":
        bad["output"] = [np.array([1.0])]
    elif field == "objective":
        bad["objective"] = np.array([1.0, 2.0])
    elif field == "constraint":
        bad["constraint"] = np.empty(0)
    elif field == "sim_count":
        bad["output"] = row["output"] * 2
    else:
        bad["objective"] = np.array([[1.0]])
    with pytest.raises(ValueError):
        db.add({"x1": 0.2, "RT": 100.0}, bad["output"], bad["objective"], bad["constraint"], 1)
    assert len(db) == 1
    assert not db.has_key(latent_key(embed(db.plan, {"x1": 0.2, "RT": 100.0})))
    db.add({"x1": 0.2, "RT": 100.0}, row["output"], row["objective"], row["constraint"], 1)
    assert db.objective_matrix().shape == (2, 1)


def test_stored_objectives_recompute_bitwise():
    moop = validate(calibration_definition())
    db = EvaluationDatabase(moop.plan)
    rng = np.random.default_rng(22)
    for k in range(10):
        x = {v.name: float(rng.uniform(v.lower, v.upper)) for v in moop.variables}
        s = rng.normal(0.0, 1.0, 198)
        f = eval_objectives(moop, x, s)
        g = eval_constraints(moop, x, s)
        rec = db.add(x, [s], f, g, k)
        assert np.array_equal(eval_objectives(moop, rec.design, rec.sim_outputs[0]),
                              rec.objectives)
        assert np.array_equal(eval_constraints(moop, rec.design, rec.sim_outputs[0]),
                              rec.constraints)


def test_fingerprint_distinguishes_problems():
    a = validate(calibration_definition())
    defn = calibration_definition()
    defn.variables[0] = DesignVariable("x1", "continuous", 0.146, 0.2)
    b = validate(defn)
    assert problem_fingerprint(a) == problem_fingerprint(a)
    assert problem_fingerprint(a) != problem_fingerprint(b)


def test_purely_algebraic_problem_warns_but_validates():
    defn = MoopDefinition(
        variables=[DesignVariable("x1", "continuous", 0.0, 1.0)],
        objectives=[variable_objective("f", "x1")],
        acquisitions=[AcquisitionSpec("random_weight")],
    )
    with pytest.warns(UserWarning, match="algebraic"):
        moop = validate(defn)
    assert moop.m == 0
