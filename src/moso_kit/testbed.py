"""Benchmark problems: analytic test functions and their problem wirings.

Three families:

* ``dtlz2``: the classic concave-front benchmark on [0,1]**n.
* ``synthetic_residuals``: a 13-input, 198-output calibration-style
  problem whose objectives are per-class sums of squared residuals.
  Both a structured wiring (model the residuals, compute the sums
  algebraically) and a black-box wiring (model the pre-summed classes)
  are provided; they produce identical objective values at equal inputs.
* ``cfr_analog``: a small chemistry-flavored problem mixing continuous
  and categorical variables whose third objective (reaction time) is a
  plain design-variable passthrough in the structured wiring and one
  more simulation output in the black-box wiring.
"""

from __future__ import annotations

import functools
import threading
import time

import numpy as np

from .problem import (
    AcquisitionSpec,
    DesignVariable,
    MoopDefinition,
    SimulationSpec,
    _finite_real,
    _integer_at_least,
    identity_constraint,
    identity_objective,
    sum_of_squares_constraint,
    sum_of_squares_objective,
    variable_objective,
)

# ---------------------------------------------------------------------------
# DTLZ2

def dtlz2(x, n_objectives: int = 3) -> np.ndarray:
    """Concave-front benchmark; the front is the unit sphere octant.

    The tail variables x[o-1:] pull every objective up through
    g = sum((x_i - 0.5)**2); the head variables sweep the front.
    """
    x = np.asarray(x, dtype=float)
    o = n_objectives
    g = float(((x[o - 1:] - 0.5) ** 2).sum())
    cos = np.cos(x[:o - 1] * (np.pi / 2))
    sin = np.sin(x[:o - 1] * (np.pi / 2))
    f = np.empty(o)
    f[0] = (1 + g) * cos.prod()
    for k in range(2, o + 1):
        f[k - 1] = (1 + g) * sin[o - k] * cos[:o - k].prod()
    return f


def delay_wrapper(fn, t_min: float, t_max: float, rng: np.random.Generator):
    """Add a uniform random sleep before each call (thread-safe draws).

    ``t_min`` and ``t_max`` are finite seconds, ``0 <= t_min <= t_max``; ValueError otherwise.
    """
    if not (_finite_real(t_min) and _finite_real(t_max) and 0 <= t_min <= t_max):
        raise ValueError(f"delay must be [lower, upper] seconds with 0 <= lower <= upper, "
                         f"got {[t_min, t_max]!r}")
    lock = threading.Lock()

    def wrapped(x):
        with lock:
            pause = rng.uniform(t_min, t_max)
        time.sleep(pause)
        return fn(x)

    return wrapped


def dtlz2_evaluator(names, o: int):
    """Simulation evaluator: dtlz2 of the design values named by ``names``, in order.

    dtlz2 sweeps its front with the first ``o - 1`` values, so ``o`` must
    be an integer from 1 to ``len(names) + 1``; ValueError otherwise.
    """
    if not (_integer_at_least(o, 1) and o <= len(names) + 1):
        raise ValueError(f"n_objectives must be an integer in [1, {len(names) + 1}], "
                         f"got {o!r}")
    return lambda design: dtlz2(np.array([design[k] for k in names]), o)


def _standard_acquisitions(batch: int, n_objectives: int) -> list:
    """One uniform fixed weighting plus epsilon-constraint explorers."""
    uniform = tuple(1.0 / n_objectives for _ in range(n_objectives))
    out = [AcquisitionSpec("fixed_weight", weights=uniform)]
    out += [AcquisitionSpec("random_epsilon_constraint") for _ in range(batch - 1)]
    return out


def dtlz2_moop(n: int = 10, o: int = 3, q0: int = 200, batch: int = 16,
               seed: int = 0, delay=None, local: bool = False) -> MoopDefinition:
    """Problem wiring for dtlz2; ``delay=(t_min, t_max)`` adds fake cost."""
    names = [f"x{i + 1}" for i in range(n)]
    evaluator = dtlz2_evaluator(names, o)
    if delay is not None:
        evaluator = delay_wrapper(evaluator, delay[0], delay[1], np.random.default_rng(seed))
    return MoopDefinition(
        variables=[DesignVariable(k, "continuous", 0.0, 1.0) for k in names],
        simulations=[SimulationSpec("dtlz2", o, evaluator, local=local)],
        objectives=[identity_objective(f"f{j + 1}", j) for j in range(o)],
        acquisitions=_standard_acquisitions(batch, o),
        q0=q0,
        rng_seed=seed,
    )


# ---------------------------------------------------------------------------
# Synthetic residual calibration problem.
#
# The coefficient seed is the dataset identity: changing it changes the
# problem.  Residual i is a low-frequency sinusoid plus a shallow bowl,
#     R_i(u) = sin(a_i . u + b_i) + 0.1 * (||u - c_i||^2 - d_i),
# on the unit cube, where u is the design point rescaled by its bounds.

RESIDUAL_SEED = 230752
N_PARAMS = 13
N_RESIDUALS = 198

#: Box bounds for the 13 calibration parameters.
PARAM_BOUNDS = (
    (0.146, 0.167), (-16.21, -15.50), (137.2, 234.4), (19.5, 37.0),
    (2.20, 69.6), (0.0, 100.0), (0.418, 0.706), (0.0, 0.516),
    (0.076, 0.216), (-0.892, 0.982), (-4.62, -4.38), (3.94, 4.27),
    (-0.96, 3.66),
)

#: Fixed 3-way partition of the residual indices.
CLASS_SLICES = (slice(0, 66), slice(66, 132), slice(132, 198))

#: Per-class caps on the sum of squared residuals (the constraint is
#: class_sum <= cap); calibrated to roughly 10x the best class sums
#: reachable in the box.  See tests for the feasibility sanity check.
CLASS_CAPS = (160.0, 160.0, 160.0)


@functools.lru_cache(maxsize=1)
def _residual_coefficients():
    rng = np.random.default_rng(RESIDUAL_SEED)
    a = rng.normal(0.0, 0.8, (N_RESIDUALS, N_PARAMS))
    b = rng.uniform(0.0, 2.0 * np.pi, N_RESIDUALS)
    c = rng.uniform(0.0, 1.0, (N_RESIDUALS, N_PARAMS))
    d = rng.uniform(0.5, 1.5, N_RESIDUALS)
    return a, b, c, d


def _param_names():
    return [f"x{i + 1}" for i in range(N_PARAMS)]


def _to_unit(design) -> np.ndarray:
    u = np.empty(N_PARAMS)
    for i, (name, (lo, hi)) in enumerate(zip(_param_names(), PARAM_BOUNDS)):
        u[i] = (design[name] - lo) / (hi - lo)
    return u


def synthetic_residuals(design) -> np.ndarray:
    """All 198 residuals at one design point."""
    a, b, c, d = _residual_coefficients()
    u = _to_unit(design)
    quad = ((u[None, :] - c) ** 2).sum(axis=1) - d
    return np.sin(a @ u + b) + 0.1 * quad


def class_sums(residuals: np.ndarray) -> np.ndarray:
    """Per-class sums of squared residuals (the three objectives)."""
    return np.array([float(residuals[sl] @ residuals[sl]) for sl in CLASS_SLICES])


def residual_class_sums(design) -> np.ndarray:
    """Black-box variant: the three class sums as the simulation output."""
    return class_sums(synthetic_residuals(design))


def residuals_moop(structured: bool = True, q0: int = 200, batch: int = 10,
                   seed: int = 0) -> MoopDefinition:
    """Calibration problem in structured or pre-summed black-box form."""
    variables = [DesignVariable(name, "continuous", lo, hi)
                 for name, (lo, hi) in zip(_param_names(), PARAM_BOUNDS)]
    if structured:
        sims = [SimulationSpec("residuals", N_RESIDUALS, synthetic_residuals)]
        idx = [np.arange(sl.start, sl.stop) for sl in CLASS_SLICES]
        objectives = [sum_of_squares_objective(f"class{j + 1}", idx[j]) for j in range(3)]
        constraints = [sum_of_squares_constraint(f"class{j + 1}_cap", idx[j], CLASS_CAPS[j])
                       for j in range(3)]
    else:
        sims = [SimulationSpec("residual_classes", 3, residual_class_sums)]
        objectives = [identity_objective(f"class{j + 1}", j) for j in range(3)]
        constraints = [identity_constraint(f"class{j + 1}_cap", j, CLASS_CAPS[j])
                       for j in range(3)]
    return MoopDefinition(
        variables=variables,
        simulations=sims,
        objectives=objectives,
        constraints=constraints,
        acquisitions=_standard_acquisitions(batch, 3),
        q0=q0,
        rng_seed=seed,
    )


# ---------------------------------------------------------------------------
# Continuous-flow-reactor analog.
#
# product   = A(cat) * s(T) * (1 - exp(-RT / tau(T))) * q(EQR)
# byproduct = B(cat) * r(T) * RT / 300
#
# s peaks inside the temperature range, tau shrinks with temperature
# (faster conversion when hot), r grows with temperature (the side
# reaction switches on), and q prefers a mild excess of reagent.  The
# gains are per (solvent, base) pairing.  Product is strictly increasing
# in reaction time; its temperature optimum is interior.

CFR_GAINS = {
    ("S1", "B1"): (0.90, 0.30),
    ("S1", "B2"): (0.75, 0.50),
    ("S2", "B1"): (1.00, 0.25),
    ("S2", "B2"): (0.60, 0.45),
}

TEMPERATURE_RANGE = (35.0, 150.0)
REACTION_TIME_RANGE = (60.0, 300.0)
EQUIV_RATIO_RANGE = (0.8, 1.5)


def _cfr_product_byproduct(T: float, RT: float, EQR: float, solvent: str, base: str):
    gain_p, gain_b = CFR_GAINS[(solvent, base)]
    s = np.exp(-(((T - 105.0) / 45.0) ** 2))
    tau = 40.0 + 160.0 * (150.0 - T) / 115.0
    q = np.exp(-2.0 * (EQR - 1.1) ** 2)
    r = 1.0 / (1.0 + np.exp(-(T - 100.0) / 15.0))
    product = gain_p * s * (1.0 - np.exp(-RT / tau)) * q
    byproduct = gain_b * r * RT / 300.0
    return float(product), float(byproduct)


def cfr_analog(design) -> np.ndarray:
    """Two-output reactor simulation: (product, byproduct)."""
    p, b = _cfr_product_byproduct(design["temperature"], design["reaction_time"],
                                  design["equivalence_ratio"], design["solvent"],
                                  design["base"])
    return np.array([p, b])


def cfr_analog_with_time(design) -> np.ndarray:
    """Black-box variant that also reports reaction time as an output."""
    p, b = _cfr_product_byproduct(design["temperature"], design["reaction_time"],
                                  design["equivalence_ratio"], design["solvent"],
                                  design["base"])
    return np.array([p, b, float(design["reaction_time"])])


@functools.lru_cache(maxsize=1)
def cfr_product_max() -> float:
    """Global maximum of the product surface (dense deterministic scan)."""
    best = 0.0
    temps = np.linspace(*TEMPERATURE_RANGE, 4001)
    for combo in CFR_GAINS:
        for T in temps:
            p, _ = _cfr_product_byproduct(float(T), REACTION_TIME_RANGE[1], 1.1, *combo)
            best = max(best, p)
    return best


def cfr_moop(structured: bool = True, q0: int = 50, batch: int = 3,
             seed: int = 0) -> MoopDefinition:
    """Reactor problem: maximize product, minimize byproduct and time."""
    variables = [
        DesignVariable("temperature", "continuous", *TEMPERATURE_RANGE),
        DesignVariable("reaction_time", "continuous", *REACTION_TIME_RANGE),
        DesignVariable("equivalence_ratio", "continuous", *EQUIV_RATIO_RANGE),
        DesignVariable("solvent", "categorical", levels=("S1", "S2")),
        DesignVariable("base", "categorical", levels=("B1", "B2")),
    ]
    if structured:
        sims = [SimulationSpec("reactor", 2, cfr_analog)]
        objectives = [
            identity_objective("neg_product", 0, scale=-1.0),
            identity_objective("byproduct", 1),
            variable_objective("time", "reaction_time"),
        ]
    else:
        sims = [SimulationSpec("reactor_full", 3, cfr_analog_with_time)]
        objectives = [
            identity_objective("neg_product", 0, scale=-1.0),
            identity_objective("byproduct", 1),
            identity_objective("time", 2),
        ]
    return MoopDefinition(
        variables=variables,
        simulations=sims,
        objectives=objectives,
        acquisitions=_standard_acquisitions(batch, 3),
        q0=q0,
        rng_seed=seed,
    )
