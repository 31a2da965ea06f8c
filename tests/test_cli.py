"""Command-line interface tests: configs, outputs, exit codes, resume."""

import csv
import hashlib
import io
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import moso_kit
from moso_kit import _blas, testbed
from moso_kit.cli import hv_trajectory, load_config, main, write_database_csv, write_metrics_csv
from moso_kit.metrics import hypervolume
from moso_kit.orchestrator import _record_line, problem_fingerprint
from moso_kit.problem import (
    AcquisitionSpec,
    DesignVariable,
    EvaluationDatabase,
    MoopDefinition,
    SimulationSpec,
    identity_objective,
    validate,
)

from helpers import random_design

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def small_config(with_fixed=True, budget=24):
    acquisitions = [{"kind": "random_epsilon_constraint", "count": 2}]
    if with_fixed:
        acquisitions.insert(0, {"kind": "fixed_weight", "weights": [0.5, 0.5]})
    else:
        acquisitions = [{"kind": "random_epsilon_constraint", "count": 3}]
    return {
        "seed": 0,
        "budget": budget,
        "search": {"q0": 12},
        "variables": [
            {"name": "x", "kind": "continuous", "lower": 0.0, "upper": 1.0,
             "count": 4},
        ],
        "simulations": [
            {"name": "sim", "testbed": "dtlz2", "options": {"n_objectives": 2}},
        ],
        "objectives": [
            {"name": "f1", "form": "identity", "index": 0},
            {"name": "f2", "form": "identity", "index": 1},
        ],
        "acquisitions": acquisitions,
        "metrics": {"ref": [2.0, 2.0]},
    }


def write_config(tmp_path, cfg, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def run_cli(args):
    return CliRunner().invoke(main, args, catch_exceptions=False)


def test_run_writes_all_artifacts(tmp_path):
    cfg_path = write_config(tmp_path, small_config())
    out = tmp_path / "out"
    result = run_cli(["run", "--config", str(cfg_path), "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert "done: 24 evaluations" in result.output

    rows = read_csv(out / "database.csv")
    assert len(rows) - 1 == 24
    header = rows[0]
    assert header[0] == "iteration"
    assert "var_x1" in header and "var_x4" in header
    assert "obj_f1" in header and "feasible" in header

    pareto = read_csv(out / "pareto.csv")
    assert len(pareto) >= 2

    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["budget"] == 24
    assert meta["evaluations"] == 24
    assert meta["seed"] == 0
    assert meta["workers"] == 1
    assert meta["blas_threads"] == _blas.thread_count()
    assert meta["config_sha256"] == hashlib.sha256(cfg_path.read_bytes()).hexdigest()


@pytest.mark.blas_threads
def test_run_is_deterministic_for_a_seed(tmp_path):
    cfg_path = write_config(tmp_path, small_config())
    for sub in ("a", "b"):
        result = run_cli(["run", "--config", str(cfg_path),
                          "--out", str(tmp_path / sub)])
        assert result.exit_code == 0, result.output
    assert ((tmp_path / "a" / "database.csv").read_bytes()
            == (tmp_path / "b" / "database.csv").read_bytes())

    result = run_cli(["run", "--config", str(cfg_path), "--seed", "9",
                      "--out", str(tmp_path / "c")])
    assert result.exit_code == 0
    assert ((tmp_path / "a" / "database.csv").read_bytes()
            != (tmp_path / "c" / "database.csv").read_bytes())
    meta = json.loads((tmp_path / "c" / "run_meta.json").read_text())
    assert meta["seed"] == 9


@pytest.mark.blas_threads
def test_checkpointed_rerun_matches_uninterrupted_outputs(tmp_path):
    cfg_path = write_config(tmp_path, small_config())
    straight = tmp_path / "straight"
    result = run_cli(["run", "--config", str(cfg_path), "--out", str(straight)])
    assert result.exit_code == 0

    ck = tmp_path / "state.json"
    partial = tmp_path / "partial"
    result = run_cli(["run", "--config", str(cfg_path), "--budget", "15",
                      "--checkpoint", str(ck), "--out", str(partial)])
    assert result.exit_code == 0
    assert len(read_csv(partial / "database.csv")) - 1 == 15

    resumed = tmp_path / "resumed"
    result = run_cli(["run", "--config", str(cfg_path), "--budget", "24",
                      "--checkpoint", str(ck), "--out", str(resumed)])
    assert result.exit_code == 0
    for name in ("database.csv", "pareto.csv", "metrics.csv"):
        assert ((straight / name).read_bytes()
                == (resumed / name).read_bytes()), name


SCIPY_SUBMODULES = ("scipy.linalg", "scipy.special", "scipy.spatial")

LOADED_AFTER_A_RUN = """
import json, sys
import moso_kit.cli
loaded = {"import": [m for m in sys.modules if m.startswith(SUBMODULES)]}
import numpy as np
from moso_kit import MoopSolver, RbfSurrogate, testbed
MoopSolver(testbed.dtlz2_moop(n=3, o=2, q0=10, batch=3, seed=1, local=True)).solve(22)
model = RbfSurrogate.fit(np.random.default_rng(0).random((30, 2)), np.ones((30, 1)))
model.uncertainty(np.full(2, 0.5))
for budget in (15, 24):
    moso_kit.cli.main(["run", "--config", CONFIG, "--budget", str(budget), "--checkpoint",
                       CHECKPOINT, "--out", OUT], standalone_mode=False)
loaded["run"] = [m for m in sys.modules if m.startswith(SUBMODULES)]
print(json.dumps(loaded))
"""


def test_the_package_and_whole_runs_load_no_scipy_submodule(tmp_path):
    if _blas._potrf is None:
        pytest.skip("scipy's bundled OpenBLAS is not found, so scipy.linalg factors the "
                    "kernel systems")
    cfg_path = write_config(tmp_path, small_config())
    prelude = (f"SUBMODULES = {SCIPY_SUBMODULES!r}\nCONFIG = {str(cfg_path)!r}\n"
               f"CHECKPOINT = {str(tmp_path / 'state.json')!r}\nOUT = {str(tmp_path / 'out')!r}\n")
    src = str(Path(moso_kit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", prelude + LOADED_AFTER_A_RUN], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded == {"import": [], "run": []}
    assert len(read_csv(tmp_path / "out" / "database.csv")) - 1 == 24


def test_config_errors_exit_2(tmp_path):
    bad_json = tmp_path / "broken.json"
    bad_json.write_text("{not json", encoding="utf-8")
    assert run_cli(["run", "--config", str(bad_json)]).exit_code == 2

    missing = small_config()
    del missing["budget"]
    path = write_config(tmp_path, missing, "nobudget.json")
    result = run_cli(["run", "--config", str(path)])
    assert result.exit_code == 2
    assert "budget" in result.output

    unknown_sim = small_config()
    unknown_sim["simulations"][0]["testbed"] = "warp_drive"
    path = write_config(tmp_path, unknown_sim, "unknownsim.json")
    assert run_cli(["run", "--config", str(path)]).exit_code == 2

    unknown_form = small_config()
    unknown_form["objectives"][0]["form"] = "cubic"
    path = write_config(tmp_path, unknown_form, "unknownform.json")
    assert run_cli(["run", "--config", str(path)]).exit_code == 2

    path = write_config(tmp_path, small_config(), "workers.json")
    assert run_cli(["run", "--config", str(path), "--workers", "0"]).exit_code == 2

    # A section that is not an object, e.g. "metrics": [2, 2].
    for key, value in (("metrics", [2.0, 2.0]), ("search", 12), ("penalty", 1.0)):
        cfg = small_config()
        cfg[key] = value
        path = write_config(tmp_path, cfg, f"{key}.json")
        assert run_cli(["run", "--config", str(path)]).exit_code == 2


@pytest.mark.parametrize("delay", [
    [0.0], [-1.0, 0.0], [0.2, 0.1], [0.0, "0.1"], [0.0, float("inf")],
    [float("nan"), 0.1], 0.1,
], ids=["short", "negative", "reversed", "string", "infinite", "nan", "scalar"])
def test_bad_simulation_delay_is_a_config_error(tmp_path, delay):
    cfg = small_config()
    cfg["simulations"][0]["delay"] = delay
    path = write_config(tmp_path, cfg)
    result = run_cli(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert "config error" in result.output


@pytest.mark.parametrize("penalty", [{}, {"growth": 2.0}, {"cap": float("inf")}],
                         ids=["empty", "growth", "infinite-cap"])
def test_penalty_section_is_a_config_error(tmp_path, penalty):
    # The penalty schedule is fixed; a section that used to set it must not
    # be dropped silently.
    cfg = small_config()
    cfg["penalty"] = penalty
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    result = run_cli(["run", "--config", str(path), "--out", str(out)])
    assert result.exit_code == 2
    assert "penalty" in result.output
    assert not out.exists()


def test_simulation_q0_is_a_config_error(tmp_path):
    cfg = small_config()
    cfg["simulations"][0]["q0"] = 20
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    result = run_cli(["run", "--config", str(path), "--out", str(out)])
    assert result.exit_code == 2
    assert "q0" in result.output
    assert not out.exists()


@pytest.mark.parametrize("q0", [True, 2.5], ids=["bool", "float"])
def test_bad_search_q0_is_a_config_error(tmp_path, q0):
    cfg = small_config()
    cfg["search"]["q0"] = q0
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    result = run_cli(["run", "--config", str(path), "--out", str(out)])
    assert result.exit_code == 2
    assert "q0 must be a positive integer" in result.output
    assert not out.exists()


@pytest.mark.parametrize("local", ["no", 0, None], ids=["string", "int", "null"])
def test_non_boolean_local_is_a_config_error(tmp_path, local):
    cfg = small_config()
    cfg["simulations"][0]["local"] = local
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    result = run_cli(["run", "--config", str(path), "--out", str(out)])
    assert result.exit_code == 2
    assert "local must be true or false" in result.output
    assert not out.exists()


def test_default_q0_and_local(tmp_path):
    cfg = small_config()
    del cfg["search"]
    moop, _ = load_config(write_config(tmp_path, cfg))
    assert moop.q0 == 100
    assert moop.simulations[0].local is True
    cfg["simulations"][0]["local"] = False
    moop, _ = load_config(write_config(tmp_path, cfg))
    assert moop.simulations[0].local is False


def test_run_without_simulations(tmp_path):
    # Objectives that read only the design need no simulation.
    cfg = small_config()
    cfg["simulations"] = []
    cfg["objectives"] = [{"name": "f1", "form": "variable", "variable": "x1"},
                         {"name": "f2", "form": "variable", "variable": "x2", "scale": -1.0}]
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    with pytest.warns(UserWarning, match="no simulations"):
        result = run_cli(["run", "--config", str(path), "--out", str(out)])
    assert result.exit_code == 0, result.output
    rows = read_csv(out / "database.csv")
    assert rows[0] == ["iteration", "var_x1", "var_x2", "var_x3", "var_x4",
                       "obj_f1", "obj_f2", "feasible"]
    assert len(rows) - 1 > 12  # more than the initial design


#: The first 12 hex digits of each shipped problem's fingerprint.  A
#: checkpoint is resumed only when the fingerprint matches, so a change
#: here orphans every checkpoint written before it.
PINNED_FINGERPRINTS = [
    (lambda: load_config(CONFIGS / "dtlz2.json")[0], "5457dd8bb9ea"),
    (lambda: load_config(CONFIGS / "calibration.json")[0], "f7f62b4e9fac"),
    (lambda: load_config(CONFIGS / "reactor.json")[0], "1de7b668a2bb"),
    (lambda: validate(testbed.dtlz2_moop()), "abd7c1a81713"),
    (lambda: validate(testbed.dtlz2_moop(q0=16, batch=8)), "073d53fad5a0"),
]


@pytest.mark.parametrize("make,prefix", PINNED_FINGERPRINTS,
                         ids=["dtlz2.json", "calibration.json", "reactor.json",
                              "dtlz2_moop", "dtlz2_moop-q0-16"])
def test_problem_fingerprints_are_pinned(make, prefix):
    assert problem_fingerprint(make())[:12] == prefix


@pytest.mark.parametrize("ref", [[2.0], [2.0, 2.0, 2.0], ["a", 2.0], [True, 2.0],
                                 [float("nan"), 2.0], [2.0, float("inf")], 2.0],
                         ids=["short", "long", "string", "bool", "nan", "infinite", "scalar"])
def test_bad_metrics_reference_is_a_config_error(tmp_path, ref):
    cfg = small_config()
    cfg["metrics"]["ref"] = ref
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    result = run_cli(["run", "--config", str(path), "--out", str(out)])
    assert result.exit_code == 2
    assert "metrics.ref" in result.output
    assert not out.exists()  # rejected before the solve


def _set_objective(cfg, key, value):
    cfg["objectives"][0] = {"name": "f1", "form": key, **value}


@pytest.mark.parametrize("edit", [
    lambda cfg: _set_objective(cfg, "identity", {"index": 7}),
    lambda cfg: _set_objective(cfg, "identity", {"index": True}),
    lambda cfg: _set_objective(cfg, "identity", {"index": 1.0}),
    lambda cfg: _set_objective(cfg, "sum_of_squares", {"indices": [0, 9]}),
    lambda cfg: _set_objective(cfg, "sum_of_squares", {"indices": [-1]}),
    lambda cfg: _set_objective(cfg, "sum_of_squares", {"indices": 1}),
    lambda cfg: _set_objective(cfg, "linear", {"coeffs": [1.0, 2.0, 3.0]}),
    lambda cfg: _set_objective(cfg, "linear", {"coeffs": [1.0, "2"]}),
    lambda cfg: _set_objective(cfg, "variable", {"variable": "warp"}),
    lambda cfg: (cfg["variables"].append({"name": "solvent", "kind": "categorical",
                                          "levels": ["S1", "S2"]}),
                 _set_objective(cfg, "variable", {"variable": "solvent"})),
    lambda cfg: cfg.update(constraints=[{"name": "g", "form": "identity", "index": 5,
                                         "cap": 1.0}]),
], ids=["index_out_of_range", "index_bool", "index_float", "indices_out_of_range",
        "indices_negative", "indices_not_a_list", "coeffs_length", "coeffs_string",
        "unknown_variable", "categorical_variable", "constraint_index"])
def test_bad_term_reference_is_a_config_error(tmp_path, edit):
    cfg = small_config()
    edit(cfg)
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    result = run_cli(["run", "--config", str(path), "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "config error" in result.output
    assert not out.exists()  # rejected before the initial design runs


@pytest.mark.parametrize("term, key, value", [
    ("constraint", "cap", "0.5"), ("constraint", "cap", float("nan")), ("constraint", "cap", True),
    ("identity", "scale", "2"), ("identity", "scale", float("inf")), ("identity", "scale", False),
    ("variable", "scale", [1.0]), ("linear", "const", "0"), ("linear", "const", None),
])
def test_non_numeric_term_constant_is_a_config_error(tmp_path, term, key, value):
    cfg = small_config()
    if term == "constraint":
        cfg["constraints"] = [{"name": "g", "form": "identity", "index": 0, key: value}]
    elif term == "identity":
        _set_objective(cfg, "identity", {"index": 0, key: value})
    elif term == "variable":
        _set_objective(cfg, "variable", {"variable": "x1", key: value})
    else:
        _set_objective(cfg, "linear", {"coeffs": [1.0, 1.0], key: value})
    out = tmp_path / "out"
    result = run_cli(["run", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert f"{key} must be a finite number" in result.output
    assert not out.exists()  # rejected before the initial design runs


def test_categorical_variable_under_dtlz2_is_a_config_error(tmp_path):
    cfg = small_config()
    cfg["variables"].append({"name": "solvent", "kind": "categorical", "levels": ["S1", "S2"]})
    out = tmp_path / "out"
    result = run_cli(["run", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "'solvent' is categorical" in result.output
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("budget", "24"), ("budget", 24.5), ("budget", True),
    ("seed", "abc"), ("seed", 1.5), ("seed", -3), ("seed", None),
])
def test_seed_and_budget_types_are_config_errors(tmp_path, key, value):
    cfg = small_config()
    cfg[key] = value
    out = tmp_path / "out"
    result = run_cli(["run", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert key in result.output
    assert not out.exists()


def test_a_budget_below_the_initial_design_is_a_config_error(tmp_path):
    path, out = write_config(tmp_path, small_config()), tmp_path / "out"
    for checkpoint in ([], ["--checkpoint", str(tmp_path / "state.json")]):
        result = run_cli(["run", "--config", str(path), "--budget", "11", "--out", str(out),
                          *checkpoint])
        assert result.exit_code == 2, result.output
        assert ("config error: budget 11 cannot cover the initial design of 12 points"
                in result.output)
        assert not out.exists() and not (tmp_path / "state.json").exists()
    result = run_cli(["bench-scaling", "--workers-list", "1", "--budget", "5"])
    assert result.exit_code == 2, result.output
    assert "config error: budget 5 cannot cover the initial design of 16 points" in result.output
    assert result.stdout == ""


@pytest.mark.parametrize("section", ["variables", "acquisitions"])
@pytest.mark.parametrize("count", [0, -3, True, 2.0, "2"])
def test_count_must_be_a_positive_integer(tmp_path, section, count):
    cfg = small_config()
    cfg[section][-1]["count"] = count
    out = tmp_path / "out"
    result = run_cli(["run", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "count must be a positive integer" in result.output
    assert not out.exists()


def test_negative_seed_option_is_a_config_error(tmp_path):
    path = write_config(tmp_path, small_config())
    result = run_cli(["run", "--config", str(path), "--seed", "-3",
                      "--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert "seed" in result.output


#: The testbed wiring that each shipped config spells out.
CONFIG_WIRINGS = {
    "calibration.json": lambda: testbed.residuals_moop(structured=True),
    "dtlz2.json": lambda: testbed.dtlz2_moop(),
    "reactor.json": lambda: testbed.cfr_moop(structured=True),
}


def test_every_shipped_config_has_a_wiring():
    assert sorted(p.name for p in CONFIGS.glob("*.json")) == sorted(CONFIG_WIRINGS)


@pytest.mark.parametrize("name", sorted(CONFIG_WIRINGS))
def test_shipped_config_terms_match_testbed_wiring_bitwise(name):
    moop, _ = load_config(CONFIGS / name)
    wired = validate(CONFIG_WIRINGS[name]())
    assert moop.variables == wired.variables and moop.m == wired.m
    assert (moop.o, moop.p) == (wired.o, wired.p)
    rng = np.random.default_rng(6)
    for _ in range(5):
        x = random_design(rng, moop.variables)
        s = rng.normal(0.0, 3.0, moop.m)
        for got, want in zip(moop.objectives + moop.constraints,
                             wired.objectives + wired.constraints):
            assert (got.name, got.rows is None) == (want.name, want.rows is None)
            assert got.func(x, s) == want.func(x, s)
            (gdx, gds), (wdx, wds) = got.grad(x, s), want.grad(x, s)
            assert gdx == wdx
            np.testing.assert_array_equal(gds, wds)


def per_prefix_hv_trajectory(objectives, feasible, iterations, ref):
    """Reference: filter and measure every iteration's prefix from scratch."""
    rows = []
    for k in sorted(set(iterations)):
        prefix = [i for i, it in enumerate(iterations) if it <= k]
        mask = [i for i in prefix if feasible[i]]
        rows.append((k, len(prefix), float(hypervolume(objectives[mask], ref)) if mask else 0.0))
    return rows


def test_hv_trajectory_matches_per_prefix_reference_bitwise():
    rng = np.random.default_rng(17)
    ref = np.ones(3)
    for trial in range(30):
        n = int(rng.integers(1, 90))
        objectives = rng.uniform(0.0, 1.3, size=(n, 3))  # some beyond ref
        grid = rng.random(n) < 0.3
        objectives[grid] = rng.integers(0, 4, size=(int(grid.sum()), 3)) / 3.0  # ties
        repeats = rng.integers(0, n, n // 6)
        objectives[rng.integers(0, n, n // 6)] = objectives[repeats]
        feasible = rng.random(n) < 0.8
        iterations = rng.integers(0, 6, n).tolist()  # unsorted
        got = hv_trajectory(objectives, feasible, iterations, ref)
        assert got == per_prefix_hv_trajectory(objectives, feasible, iterations, ref), trial


def test_hv_trajectory_warns_once_about_points_beyond_the_reference(caplog):
    objectives = np.array([[0.5, 0.5], [1.5, 0.2], [0.2, 0.9], [0.1, 2.0], [0.3, 0.3]])
    feasible = np.array([True, True, True, True, False])
    with caplog.at_level(logging.WARNING):
        rows = hv_trajectory(objectives, feasible, [0, 1, 2, 3, 4], np.ones(2))
    warnings = [r for r in caplog.records if r.levelno >= logging.WARNING]
    assert len(warnings) == 1
    assert "2 feasible point(s) beyond" in warnings[0].getMessage()
    assert [hv for _, _, hv in rows] == [0.25, 0.25, 0.28, 0.28, 0.28]


def test_metrics_csv_without_a_reference_point(tmp_path):
    moop, _ = load_config(write_config(tmp_path, small_config()))
    db = EvaluationDatabase(moop.plan)
    for k, (x, it) in enumerate([(0.1, 0), (0.2, 0), (0.3, 1), (0.4, 1), (0.5, 2)]):
        design = {v.name: x for v in moop.variables}
        f = np.array([x, 1.0 - x * k])
        db.add(design, [f], f, np.empty(0), it)
    traj = hv_trajectory(db.objective_matrix(), db.feasible_mask(),
                         [r.iteration for r in db.records], None)
    assert [(k, n) for k, n, _ in traj] == [(0, 2), (1, 4), (2, 5)]
    assert all(np.isnan(hv) for _, _, hv in traj)

    write_metrics_csv(tmp_path / "metrics.csv", moop, db, None)
    rows = read_csv(tmp_path / "metrics.csv")
    assert rows[0] == ["iteration", "evaluations", "hypervolume", "best_fixed_0"]
    w = np.array([0.5, 0.5])
    best = [min(float(w @ r.objectives) for r in db.records[:n]) for _, n, _ in traj]
    assert best == sorted(best, reverse=True) and len(set(best)) == 3
    assert rows[1:] == [[str(k), str(n), "nan", repr(b)] for (k, n, _), b in zip(traj, best)]


def test_runtime_errors_exit_3(tmp_path):
    # An unreadable checkpoint is found when the run starts.
    path, state = write_config(tmp_path, small_config()), tmp_path / "state.json"
    state.write_text("not json", encoding="utf-8")
    result = run_cli(["run", "--config", str(path), "--checkpoint", str(state), "--out",
                      str(tmp_path / "out")])
    assert result.exit_code == 3
    assert "runtime error: unreadable checkpoint" in result.output


def write_database(tmp_path, rows, n_obj=3):
    path = tmp_path / "database.csv"
    header = ["iteration"] + [f"obj_f{j}" for j in range(n_obj)] + ["feasible"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def test_metrics_single_point_value(tmp_path):
    db = write_database(tmp_path, [[0, 0.5, 0.5, 0.5, 1]])
    result = run_cli(["metrics", "--db", str(db), "--ref", "1,1,1"])
    assert result.exit_code == 0, result.output
    rows = list(csv.reader(result.output.splitlines()))
    assert rows[0] == ["iteration", "evaluations", "hypervolume"]
    assert rows[1] == ["0", "1", "0.125"]


def test_metrics_with_no_feasible_rows(tmp_path):
    db = write_database(tmp_path, [[0, 0.5, 0.5, 0.5, 0]])
    result = run_cli(["metrics", "--db", str(db), "--ref", "1,1,1"])
    assert result.exit_code == 0
    rows = list(csv.reader(result.output.splitlines()))
    assert rows[1][2] == "0.0"

    # Without a reference point there is nothing to measure against.
    assert run_cli(["metrics", "--db", str(db)]).exit_code == 2


@pytest.mark.parametrize("ref", ["1,1", "nan,1,1", "inf,1,1"])
def test_metrics_ref_arity_checked(tmp_path, ref):
    db = write_database(tmp_path, [[0, 0.5, 0.5, 0.5, 1]])
    result = run_cli(["metrics", "--db", str(db), "--ref", ref])
    assert result.exit_code == 2
    assert "--ref" in result.output


def test_metrics_missing_database_exits_2(tmp_path):
    assert run_cli(["metrics", "--db", str(tmp_path / "nope.csv")]).exit_code == 2


def test_metrics_recompute_matches_run_output_bitwise(tmp_path):
    cfg = small_config(with_fixed=False)
    cfg["metrics"] = {"ref": [1.5, 1.5]}
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert run_cli(["run", "--config", str(cfg_path),
                    "--out", str(out)]).exit_code == 0

    result = run_cli(["metrics", "--db", str(out / "database.csv"),
                      "--ref", "1.5,1.5"])
    assert result.exit_code == 0
    assert result.output == (out / "metrics.csv").read_text()

    hv = [float(r[2]) for r in list(csv.reader(result.output.splitlines()))[1:]]
    assert all(b >= a - 1e-15 for a, b in zip(hv, hv[1:]))


def test_metrics_relative_mode(tmp_path):
    db = write_database(tmp_path, [[0, 0.5, 0.5, 0.5, 1],
                                   [1, 0.25, 0.25, 0.25, 1]])
    result = run_cli(["metrics", "--db", str(db), "--ref", "1,1,1",
                      "--mode", "relative_to_initial"])
    assert result.exit_code == 0
    rows = list(csv.reader(result.output.splitlines()))
    assert rows[0][-1] == "pct_improvement"
    assert float(rows[1][-1]) == pytest.approx(0.0)
    # hv grows from 0.125 to 0.421875: +237.5%.
    assert float(rows[2][-1]) == pytest.approx(237.5)

    gap = run_cli(["metrics", "--db", str(db), "--ref", "1,1,1",
                   "--mode", "relative_to_gap", "--hv-max", "1.0"])
    assert gap.exit_code == 0
    rows = list(csv.reader(gap.output.splitlines()))
    assert float(rows[2][-1]) == pytest.approx(100 * (0.421875 - 0.125) / 0.875)

    assert run_cli(["metrics", "--db", str(db), "--ref", "1,1,1",
                    "--mode", "relative_to_gap"]).exit_code == 2


def test_bench_scaling_validates_arguments():
    assert run_cli(["bench-scaling", "--workers-list", "0"]).exit_code == 2
    assert run_cli(["bench-scaling", "--sim-delay", "0.2,0.1"]).exit_code == 2


def test_bench_scaling_reports_walltimes():
    result = run_cli(["bench-scaling", "--workers-list", "1",
                      "--sim-delay", "0.0,0.001", "--budget", "24"])
    assert result.exit_code == 0, result.output
    lines = result.output.strip().splitlines()
    assert lines[0] == "workers,walltime_s,evaluations"
    first = lines[1].split(",")
    assert first[0] == "1"
    assert first[2] == "24"


def test_version_flag():
    result = run_cli(["--version"])
    assert result.exit_code == 0


# ---------------------------------------------------------------------------
# Record text: the journal line and the database.csv row share one
# formatting pass.  These are the writers that formatted each file on its
# own, kept as references.

def reference_record_line(rec):
    return (json.dumps({
        "design": rec.design,
        "outputs": [o.tolist() for o in rec.sim_outputs],
        "objectives": rec.objectives.tolist(),
        "constraints": rec.constraints.tolist(),
        "iteration": rec.iteration,
    }, sort_keys=True, separators=(",", ":")) + "\n").encode()


def reference_database_csv(moop, records):
    header = (["iteration"]
              + [f"var_{v.name}" for v in moop.variables]
              + [f"sim_{s.name}_{j}" for s in moop.simulations for j in range(s.output_dim)]
              + [f"obj_{f.name}" for f in moop.objectives]
              + [f"con_{g.name}" for g in moop.constraints]
              + ["feasible"])
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for rec in records:
        row = [rec.iteration] + [rec.design[v.name] for v in moop.variables]
        for out in rec.sim_outputs:
            row += out.tolist()
        row += rec.objectives.tolist() + rec.constraints.tolist()
        row.append(int(rec.feasible))
        writer.writerow(row)
    return buf.getvalue().encode()


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
               2.225073858507201e-308, 1e16, -1e16, 1e-7, 3.0, 0.1, 1 / 3, 1e22,
               9007199254740993.0, sys.float_info.max, -sys.float_info.max]
LEVELS = ("plain", "a,b", 'say "hi"', "two\nlines", " padded ")


def formatter_moop(n_constraints):
    variables = [DesignVariable("x", "continuous", 0.0, 1.0),
                 DesignVariable("k", "integer", 0, 9),
                 DesignVariable("level", "categorical", levels=LEVELS)]
    return validate(MoopDefinition(
        variables=variables,
        simulations=[SimulationSpec("wide", 4, lambda d: np.zeros(4)),
                     SimulationSpec("one", 1, lambda d: np.zeros(1))],
        objectives=[identity_objective("f1", 0), identity_objective("f2", 4)],
        constraints=[identity_objective(f"g{j}", j) for j in range(n_constraints)],
        acquisitions=[AcquisitionSpec("random_weight")],
    ))


@pytest.mark.parametrize("n_constraints", [0, 2])
def test_record_text_matches_the_json_and_csv_writers(tmp_path, n_constraints):
    # One record per edge value, in every field, then random float64 bit
    # patterns (the finite ones).
    moop = formatter_moop(n_constraints)
    rng = np.random.default_rng(7 + n_constraints)
    width = 4 + 1 + 2 + n_constraints
    bits = rng.integers(0, 2**64, size=400 * width, dtype=np.uint64).view(np.float64)
    rows = [np.full(width, v) for v in EDGE_FLOATS]
    rows += list(np.where(np.isfinite(bits), bits, 1.5).reshape(400, width))
    db = EvaluationDatabase(moop.plan)
    for n, values in enumerate(rows):
        design = {"x": float(rng.uniform()), "k": int(rng.integers(10)),
                  "level": LEVELS[n % len(LEVELS)]}
        db.add(design, [values[:4], values[4:5]], values[5:7], values[7:], int(rng.integers(5)))

    for rec in db.records:
        assert _record_line(rec) == reference_record_line(rec)
    write_database_csv(tmp_path / "database.csv", moop, db.records)
    assert (tmp_path / "database.csv").read_bytes() == reference_database_csv(moop, db.records)
