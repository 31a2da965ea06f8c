"""The benchmark workloads: how each is built, run for one round and checked.

Every workload runs moso-kit through its public API or its CLI with
inputs derived from the workload seed alone.  One round is one complete
solve at the workload's fixed budget.  Round r of a run with seed s
solves problem instance ``s * instances + r % instances``, so a run
covers ``instances`` instances and its medians average over them.  A
round that repeats an instance must store the same database.

* ``dtlz2-global``: the acceptance-gate problem with one global RBF
  model; cheap simulations, so time goes to proposals (optimizer,
  surrogate evaluation, embedding, Pareto filtering).
* ``calibration-ckpt``: the 13-parameter, 198-residual calibration
  config through ``moso-kit run --checkpoint``; local refits of a
  198-output model load the surrogate layer, and the per-iteration JSON
  checkpoint plus the CSV artifacts load the write path.
* ``reactor-delayed``: the mixed continuous/categorical reactor problem
  on a two-thread pool, with a simulation that sleeps and fails by a
  digest of the design, so time goes to evaluation.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from moso_kit import cli, testbed
from moso_kit.metrics import hypervolume
from moso_kit.orchestrator import MoopSolver

perf = time.perf_counter

HERE = Path(__file__).resolve().parent

#: Hypervolume ceiling of DTLZ2 at ref (1,1,1): the unit cube minus the
#: sphere octant that is the true front.
DTLZ2_HV_CEILING = 1.0 - math.pi / 6.0

TAIL_LADDER = (99, 95, 90, 75, 50)


@dataclass
class Round:
    """Outcome of one timed solve."""

    seed: int                  # instance seed
    run_s: float
    evaluations: int
    objectives: np.ndarray     # every stored record, in database order
    feasible: np.ndarray
    archive: np.ndarray        # objective rows of the returned Pareto archive
    digest: str                # sha256 of the stored database
    artifact_bytes: int = 0


def expected_evaluations(budget: int, q0: int, q: int) -> int:
    return q0 + q * ((budget - q0) // q)


def records_digest(records) -> str:
    """sha256 of every stored record, in order (stable across processes)."""
    h = hashlib.sha256()
    for r in records:
        h.update(json.dumps([r.iteration, r.design, [o.tolist() for o in r.sim_outputs],
                             r.objectives.tolist(), r.constraints.tolist()],
                            sort_keys=True).encode())
    return h.hexdigest()


def _with_simulations(defn, wrap):
    defn.simulations = [dataclasses.replace(s, evaluator=wrap(s.evaluator))
                        for s in defn.simulations]
    return defn


def _api_round(seed: int, solver: MoopSolver, budget: int) -> Round:
    started = perf()
    result = solver.solve(budget)
    run_s = perf() - started
    db = result.database
    return Round(seed=seed, run_s=run_s, evaluations=result.evaluations,
                 objectives=db.objective_matrix(), feasible=db.feasible_mask(),
                 archive=result.archive.objectives, digest=records_digest(db.records))


class Workload:
    name = ""
    budget = 0
    q0 = 0
    q = 0
    workers = 1
    ref: tuple = ()
    #: (name, layer) of the span around one traced round
    root = ("bench.round", "bench")
    #: problem instances per run; every run makes at least one round of each
    instances = 5

    @property
    def tail_pct(self) -> int:
        """Highest percentile with ten proposals beyond it in one round per instance.

        Fixed per workload, so a faster program that fits more rounds in
        a run reports the same percentile.
        """
        n = self.instances * ((self.budget - self.q0) // self.q)
        return next((p for p in TAIL_LADDER if n * (100 - p) >= 1000), 50)

    def instance(self, seed: int, r: int) -> int:
        """Problem-instance seed of round ``r`` of a run with ``seed``."""
        return seed * self.instances + r % self.instances

    def make_solver(self, seed, work, recorder) -> MoopSolver:
        """Problem or config build plus solver construction (the set-up)."""
        raise NotImplementedError

    def warm_up(self, seed, work, recorder) -> None:
        """One short untimed solve, so lazy imports and caches are filled."""
        self.make_solver(seed, work, recorder).solve(self.q0 + self.q)

    def run_round(self, seed, work, recorder) -> Round:
        return _api_round(seed, self.make_solver(seed, work, recorder), self.budget)

    def gates(self, rounds, work) -> list:
        """Workload-specific correctness gates: (name, ok, detail)."""
        return []


class Dtlz2Global(Workload):
    name = "dtlz2-global"
    budget = 328
    q0 = 200
    q = 16
    ref = (1.0, 1.0, 1.0)

    def make_solver(self, seed, work, recorder):
        defn = testbed.dtlz2_moop(n=10, o=3, q0=self.q0, batch=self.q, seed=seed, local=False)
        return MoopSolver(_with_simulations(defn, recorder.simulation), workers=self.workers)

    def gates(self, rounds, work):
        hv = max(final_hv(self, r) for r in rounds)
        return [("hv_below_dtlz2_ceiling", hv <= DTLZ2_HV_CEILING + 1e-3,
                 f"max hv {hv:.6f} <= {DTLZ2_HV_CEILING + 1e-3:.6f}")]


class CalibrationCkpt(Workload):
    name = "calibration-ckpt"
    #: frozen copy of the shipped configs/calibration.json
    config = HERE / "calibration.json"
    root = ("cli.run", "cli")
    budget = 400
    q0 = 200
    q = 10
    ref = (160.0, 160.0, 160.0)

    def _paths(self, work):
        return work / "checkpoint.json", work / "out"

    def make_solver(self, seed, work, recorder):
        moop, _ = cli.load_config(self.config, seed_override=seed)
        return MoopSolver(moop, workers=self.workers, checkpoint_path=self._paths(work)[0])

    def _run_cli(self, seed, work, recorder, budget):
        ckpt, out = self._paths(work)
        ckpt.unlink(missing_ok=True)
        shutil.rmtree(out, ignore_errors=True)
        args = ["run", "--config", str(self.config), "--seed", str(seed),
                "--budget", str(budget), "--workers", str(self.workers),
                "--checkpoint", str(ckpt), "--out", str(out)]
        registry = cli.TESTBED_REGISTRY
        original = registry["synthetic_residuals"]
        registry["synthetic_residuals"] = recorder.simulation(original)
        echoed = io.StringIO()
        try:
            with contextlib.redirect_stdout(echoed):
                started = perf()
                try:
                    cli.main(args, standalone_mode=False)
                    code = 0
                except SystemExit as exit_:
                    code = exit_.code
                run_s = perf() - started
        finally:
            registry["synthetic_residuals"] = original
        if code not in (0, None) or not echoed.getvalue().startswith("done:"):
            raise RuntimeError(f"moso-kit run exited {code}: {echoed.getvalue()!r}")
        return run_s, out

    def warm_up(self, seed, work, recorder):
        self._run_cli(seed, work, recorder, self.q0 + self.q)

    def run_round(self, seed, work, recorder):
        run_s, out = self._run_cli(seed, work, recorder, self.budget)
        db = read_csv(out / "database.csv")
        pareto = read_csv(out / "pareto.csv")
        meta = json.loads((out / "run_meta.json").read_text(encoding="utf-8"))
        return Round(seed=seed, run_s=run_s, evaluations=meta["evaluations"],
                     objectives=db["obj"], feasible=db["feasible"], archive=pareto["obj"],
                     digest=hashlib.sha256((out / "database.csv").read_bytes()).hexdigest(),
                     artifact_bytes=sum(p.stat().st_size for p in out.iterdir()))

    def gates(self, rounds, work):
        ckpt, _ = self._paths(work)
        last = rounds[-1]
        moop, _ = cli.load_config(self.config, seed_override=last.seed)
        started = perf()
        solver = MoopSolver.checkpoint_load(ckpt, moop)
        self.checkpoint_load_s = perf() - started
        same = solver.database.objective_matrix().tobytes() == last.objectives.tobytes()
        return [
            ("checkpoint_reloads_identical_records",
             same and solver.evaluations == last.evaluations,
             f"{len(solver.database)} records, {solver.evaluations} evaluations"),
            ("checkpoint_size_positive", ckpt.stat().st_size > 0, f"{ckpt.stat().st_size} bytes"),
        ]


class KeyedCost:
    """Simulation wrapper whose sleep and failure depend on the design only.

    Both come from a sha256 of the instance seed and the design, so the
    set of failing designs and the total sleep repeat exactly for any
    worker count and completion order.
    """

    SLEEP_RANGE = (0.05, 0.15)
    FAIL_RATE = 0.04

    def __init__(self, fn, seed: int, delayed: bool):
        self.fn = fn
        self.seed = seed
        self.delayed = delayed

    def draws(self, design) -> tuple[float, bool]:
        blob = json.dumps([self.seed, design], sort_keys=True).encode()
        d = hashlib.sha256(blob).digest()
        u_sleep = int.from_bytes(d[:8], "big") / 2.0 ** 64
        u_fail = int.from_bytes(d[8:16], "big") / 2.0 ** 64
        lo, hi = self.SLEEP_RANGE
        return lo + (hi - lo) * u_sleep, u_fail < self.FAIL_RATE

    def __call__(self, design):
        pause, fail = self.draws(design)
        if self.delayed:
            time.sleep(pause)
        if fail:
            raise RuntimeError("injected simulation failure")
        return self.fn(design)


class ReactorDelayed(Workload):
    # Runs by name but is not listed in BENCHMARK.json: its ~60 ms
    # proposals spread more than the largest allowed bound across seeds
    # on the shared machine the bounds were set on.
    name = "reactor-delayed"
    budget = 90
    q0 = 50
    q = 4
    workers = 2
    #: (-product, byproduct, reaction time); byproduct never exceeds 0.5
    ref = (0.0, 0.5, 300.0)

    def make_solver(self, seed, work, recorder, delayed=True, workers=None):
        defn = testbed.cfr_moop(structured=True, q0=self.q0, batch=self.q, seed=seed)
        defn = _with_simulations(
            defn, lambda fn: recorder.simulation(KeyedCost(fn, seed, delayed)))
        return MoopSolver(defn, workers=workers or self.workers)

    def warm_up(self, seed, work, recorder):
        # The undelayed single-worker reference doubles as the warm-up.
        self.reference = _api_round(
            seed, self.make_solver(seed, work, recorder, delayed=False, workers=1), self.budget)

    def gates(self, rounds, work):
        ref = self.reference
        rnd = next(r for r in rounds if r.seed == ref.seed)
        return [("database_matches_1_worker_undelayed_run", rnd.digest == ref.digest,
                 f"instance {ref.seed}: sha256 {rnd.digest[:16]} vs {ref.digest[:16]}")]


WORKLOADS = {w.name: w for w in (Dtlz2Global(), CalibrationCkpt(), ReactorDelayed())}


def read_csv(path) -> dict:
    """Objective columns and feasibility flags of a CLI output CSV."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    cols = [i for i, h in enumerate(header) if h.startswith("obj_")]
    out = {"obj": np.array([[float(r[i]) for i in cols] for r in body], dtype=float)
           .reshape(len(body), len(cols))}
    if "feasible" in header:
        j = header.index("feasible")
        out["feasible"] = np.array([r[j] == "1" for r in body], dtype=bool)
    return out


def final_hv(workload: Workload, rnd: Round) -> float:
    """Hypervolume of the feasible records at the workload's ref point."""
    feas = rnd.objectives[rnd.feasible]
    return hypervolume(feas, np.asarray(workload.ref)) if len(feas) else 0.0


def instances(rounds) -> dict:
    """First round of each distinct instance seed, in order."""
    out = {}
    for r in rounds:
        out.setdefault(r.seed, r)
    return out


def common_gates(workload: Workload, rounds) -> list:
    """Gates every workload must pass: budget accounting, archive, determinism."""
    want = expected_evaluations(workload.budget, workload.q0, workload.q)
    evals = sorted({r.evaluations for r in rounds})
    firsts = instances(rounds)
    repeats = [r for r in rounds if r.digest != firsts[r.seed].digest]
    out = [("evaluations_match_budget", evals == [want], f"{evals} == [{want}]"),
           ("repeated_instances_repeat_database", not repeats,
            f"{len(rounds)} rounds over {len(firsts)} instances, {len(repeats)} differ")]
    for seed, rnd in firsts.items():
        arc = rnd.archive
        feas = rnd.objectives[rnd.feasible]
        feasible_rows = {row.tobytes() for row in feas}
        le = (arc[:, None, :] <= arc[None, :, :]).all(axis=2)
        lt = (arc[:, None, :] < arc[None, :, :]).any(axis=2)
        covered = (arc[None, :, :] <= feas[:, None, :]).all(axis=2).any(axis=1)
        hv = final_hv(workload, rnd)
        out += [
            (f"archive_points_are_feasible_records[{seed}]",
             len(arc) > 0 and all(row.tobytes() in feasible_rows for row in arc),
             f"{len(arc)} archive points"),
            (f"archive_mutually_nondominated[{seed}]", not (le & lt).any(),
             "brute-force pairwise check"),
            (f"archive_covers_feasible_records[{seed}]", bool(covered.all()),
             f"{int(covered.sum())}/{len(feas)} feasible records weakly dominated"),
            (f"hv_positive[{seed}]", hv > 0.0, f"hv {hv:.6g}"),
        ]
    return out
