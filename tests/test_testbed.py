"""Benchmark problem tests: formulas, determinism, wiring equivalence."""

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from moso_kit import testbed
from moso_kit.problem import eval_constraints, eval_objectives, validate


# -- dtlz2 ------------------------------------------------------------------

def test_dtlz2_extreme_points():
    mid = [0.5] * 8
    assert np.allclose(testbed.dtlz2(np.array([0.0, 0.0] + mid)), [1, 0, 0])
    assert np.allclose(testbed.dtlz2(np.array([0.0, 1.0] + mid)), [0, 1, 0])
    assert np.allclose(testbed.dtlz2(np.array([1.0, 0.3] + mid)), [0, 0, 1])


def test_dtlz2_frozen_value():
    # Oracle: direct trigonometric evaluation at x = (0.4, 0.7, 0.6, 0.3),
    # where g = 0.04 + 0.01 = 0.05.
    f = testbed.dtlz2(np.array([0.4, 0.7, 0.6, 0.3]))
    assert f == pytest.approx([0.38565033105277197,
                               0.7568813911757094,
                               0.6171745149070968], rel=1e-13)


def test_dtlz2_two_objective_case():
    f = testbed.dtlz2(np.array([0.25, 0.5, 0.5, 0.9]), n_objectives=2)
    assert f == pytest.approx([1.0717002577130927, 0.4439127815435042],
                              rel=1e-13)


def test_dtlz2_norm_identity():
    # ||f|| = 1 + g for every input, so no point beats the unit sphere.
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = rng.uniform(0, 1, 10)
        f = testbed.dtlz2(x)
        g = float(((x[2:] - 0.5) ** 2).sum())
        assert np.linalg.norm(f) == pytest.approx(1.0 + g, rel=1e-12)
        assert np.all(f >= 0.0)


@pytest.mark.parametrize("o", [4, 0, 2.5, True])
def test_dtlz2_moop_rejects_an_objective_count_dtlz2_cannot_sweep(o):
    # dtlz2_moop(n=2, o=4) used to validate, then fail every simulation
    # with IndexError while the solve returned normally.
    with pytest.raises(ValueError, match=r"n_objectives must be an integer in \[1, 3\]"):
        testbed.dtlz2_moop(n=2, o=o, q0=4, batch=2)
    assert validate(testbed.dtlz2_moop(n=2, o=3, q0=4, batch=2)).m == 3


# -- delay wrapper ----------------------------------------------------------

def test_delay_wrapper_sleeps_and_preserves_values():
    calls = []

    def fn(x):
        calls.append(x)
        return np.array([x["v"] * 2.0])

    wrapped = testbed.delay_wrapper(fn, 0.05, 0.1, np.random.default_rng(0))
    t0 = time.perf_counter()
    out = wrapped({"v": 3.0})
    elapsed = time.perf_counter() - t0
    assert np.array_equal(out, [6.0])
    assert calls == [{"v": 3.0}]
    assert 0.05 <= elapsed <= 0.6


@pytest.mark.parametrize("t_min, t_max", [
    (-0.01, 0.0), (0.05, 0.0), (float("nan"), 0.1), (0.0, float("inf")), ("0", 0.1),
    (0.0, None), (True, 1.0),
])
def test_delay_wrapper_rejects_a_range_that_is_not_two_ordered_finite_seconds(t_min, t_max):
    # dtlz2_moop(delay=(-0.01, 0.0)) ran the whole initial design, failed
    # every simulation on a negative sleep and then raised "no evaluations
    # available"; (0.05, 0.0) drew from the swapped range.
    with pytest.raises(ValueError, match="delay must be"):
        testbed.delay_wrapper(lambda x: x, t_min, t_max, np.random.default_rng(0))
    with pytest.raises(ValueError, match="delay must be"):
        testbed.dtlz2_moop(q0=4, batch=2, delay=(t_min, t_max))


def test_delay_wrapper_is_thread_safe():
    wrapped = testbed.delay_wrapper(lambda x: np.array([x["v"]]),
                                    0.01, 0.02, np.random.default_rng(1))
    with ThreadPoolExecutor(max_workers=8) as pool:
        futures = [pool.submit(wrapped, {"v": float(i)}) for i in range(16)]
        results = [f.result()[0] for f in futures]
    assert results == [float(i) for i in range(16)]


# -- synthetic residual calibration -----------------------------------------

def unit_mid_design():
    return {name: (lo + hi) / 2.0
            for name, (lo, hi) in zip([f"x{i+1}" for i in range(13)],
                                      testbed.PARAM_BOUNDS)}


def random_residual_design(rng):
    return {name: float(rng.uniform(lo, hi))
            for name, (lo, hi) in zip([f"x{i+1}" for i in range(13)],
                                      testbed.PARAM_BOUNDS)}


def test_residuals_shape_and_determinism():
    d = unit_mid_design()
    r1 = testbed.synthetic_residuals(d)
    r2 = testbed.synthetic_residuals(dict(d))
    assert r1.shape == (198,)
    assert np.isfinite(r1).all()
    assert np.array_equal(r1, r2)
    other = random_residual_design(np.random.default_rng(5))
    assert not np.array_equal(r1, testbed.synthetic_residuals(other))


def test_class_sums_match_slices():
    rng = np.random.default_rng(3)
    r = rng.normal(size=198)
    sums = testbed.class_sums(r)
    expected = [float((r[0:66] ** 2).sum()),
                float((r[66:132] ** 2).sum()),
                float((r[132:198] ** 2).sum())]
    assert sums == pytest.approx(expected, rel=1e-12)
    assert np.all(sums >= 0)


def test_blackbox_outputs_equal_structured_class_sums():
    rng = np.random.default_rng(4)
    for _ in range(10):
        d = random_residual_design(rng)
        direct = testbed.residual_class_sums(d)
        via_residuals = testbed.class_sums(testbed.synthetic_residuals(d))
        assert direct == pytest.approx(via_residuals, rel=1e-12)


def test_residual_wirings_agree_on_objectives_and_feasibility():
    structured = validate(testbed.residuals_moop(structured=True))
    blackbox = validate(testbed.residuals_moop(structured=False))
    rng = np.random.default_rng(6)
    for _ in range(5):
        d = random_residual_design(rng)
        s_struct = testbed.synthetic_residuals(d)
        s_black = testbed.residual_class_sums(d)
        f_struct = eval_objectives(structured, d, s_struct)
        f_black = eval_objectives(blackbox, d, s_black)
        assert f_struct == pytest.approx(f_black, rel=1e-12)
        g_struct = eval_constraints(structured, d, s_struct)
        g_black = eval_constraints(blackbox, d, s_black)
        assert np.sign(g_struct) == pytest.approx(np.sign(g_black))


def test_class_caps_leave_room_for_random_designs():
    # The caps are calibrated loose: typical box points are feasible.
    rng = np.random.default_rng(7)
    for _ in range(20):
        sums = testbed.residual_class_sums(random_residual_design(rng))
        assert np.all(sums <= testbed.CLASS_CAPS)


# -- reactor analog ----------------------------------------------------------

def reactor_design(T=100.0, RT=200.0, EQR=1.1, solvent="S1", base="B1"):
    return {"temperature": T, "reaction_time": RT, "equivalence_ratio": EQR,
            "solvent": solvent, "base": base}


def test_reactor_outputs_are_nonnegative_and_bounded():
    rng = np.random.default_rng(8)
    for _ in range(50):
        d = reactor_design(
            T=float(rng.uniform(*testbed.TEMPERATURE_RANGE)),
            RT=float(rng.uniform(*testbed.REACTION_TIME_RANGE)),
            EQR=float(rng.uniform(*testbed.EQUIV_RATIO_RANGE)),
            solvent=str(rng.choice(["S1", "S2"])),
            base=str(rng.choice(["B1", "B2"])))
        product, byproduct = testbed.cfr_analog(d)
        assert 0.0 <= product <= 1.0
        assert 0.0 <= byproduct <= 0.5


def test_reactor_product_increases_with_reaction_time():
    times = np.linspace(60.0, 300.0, 25)
    products = [testbed.cfr_analog(reactor_design(RT=float(rt)))[0]
                for rt in times]
    assert np.all(np.diff(products) > 0)


def test_reactor_gains_depend_on_category_pair():
    base_design = reactor_design()
    seen = set()
    for solvent in ("S1", "S2"):
        for base in ("B1", "B2"):
            d = dict(base_design, solvent=solvent, base=base)
            seen.add(tuple(np.round(testbed.cfr_analog(d), 12)))
    assert len(seen) == 4


def test_reactor_time_output_is_the_design_time():
    d = reactor_design(RT=137.5)
    full = testbed.cfr_analog_with_time(d)
    assert full.shape == (3,)
    assert full[2] == 137.5
    assert np.array_equal(full[:2], testbed.cfr_analog(d))


def test_reactor_product_max_dominates_samples():
    best = testbed.cfr_product_max()
    assert 0.0 < best < 1.0
    rng = np.random.default_rng(9)
    for _ in range(200):
        d = reactor_design(
            T=float(rng.uniform(*testbed.TEMPERATURE_RANGE)),
            RT=float(rng.uniform(*testbed.REACTION_TIME_RANGE)),
            EQR=float(rng.uniform(*testbed.EQUIV_RATIO_RANGE)),
            solvent=str(rng.choice(["S1", "S2"])),
            base=str(rng.choice(["B1", "B2"])))
        assert testbed.cfr_analog(d)[0] <= best + 1e-12


def test_reactor_wirings_agree_on_objectives():
    structured = validate(testbed.cfr_moop(structured=True))
    blackbox = validate(testbed.cfr_moop(structured=False))
    d = reactor_design(T=120.0, RT=90.0, EQR=0.95, solvent="S2", base="B2")
    f_struct = eval_objectives(structured, d, testbed.cfr_analog(d))
    f_black = eval_objectives(blackbox, d, testbed.cfr_analog_with_time(d))
    assert f_struct == pytest.approx(f_black, rel=1e-12)
    # Product enters negated so that every objective minimizes.
    assert f_struct[0] < 0


# -- problem wiring ----------------------------------------------------------

@pytest.mark.parametrize("make,expect_vars,expect_batch", [
    (lambda: testbed.dtlz2_moop(n=6, o=2, q0=30, batch=5, seed=1), 6, 5),
    (lambda: testbed.residuals_moop(q0=40, batch=4, seed=2), 13, 4),
    (lambda: testbed.cfr_moop(q0=20, batch=3, seed=3), 5, 3),
])
def test_problem_factories_validate(make, expect_vars, expect_batch):
    moop = validate(make())
    assert len(moop.variables) == expect_vars
    assert len(moop.acquisitions) == expect_batch
    assert moop.q0 == {6: 30, 13: 40, 5: 20}[expect_vars]


def test_dtlz2_moop_delay_option():
    moop = validate(testbed.dtlz2_moop(n=3, o=2, q0=5, batch=2, seed=0,
                                       delay=(0.01, 0.02)))
    d = {f"x{i+1}": 0.5 for i in range(3)}
    t0 = time.perf_counter()
    out = moop.simulations[0].evaluator(d)
    elapsed = time.perf_counter() - t0
    assert elapsed >= 0.01
    assert np.allclose(out, testbed.dtlz2(np.full(3, 0.5), 2))
