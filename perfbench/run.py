"""moso-kit benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a moso-kit checkout; it imports the package from
``src/`` and writes only under ``.perfbench_work/`` (removed on exit) and
``.perfbench_out/`` (span dumps).  It times ``setup_s`` in fresh
interpreters between rounds, makes one untimed warm-up solve, then repeats full solves
("rounds") at the workload's budget, cycling over a few problem instances
derived from the seed, until the next round would end after ``--seconds``
(at least one round per instance), and checks every output.  The last stdout
line is one JSON object: ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of wrapped rounds plus the tracing
overhead.  The exit code is 1 when any correctness gate fails.
"""

import os
import sys

# Pinned before numpy loads: the BLAS thread count changes floating-point
# summation order, hence the search path and the hypervolume reached.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END = (
    ("run_s", "s"), ("propose_ms.p50", "ms"), ("propose_ms.tail", "ms"),
    ("hv_final", "volume"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("optimizer.solve.calls", "count"), ("optimizer.solve.busy_s", "s"),
    ("optimizer.bfgs_iters", "count"), ("optimizer.value_calls", "count"),
    ("optimizer.candidate_ratio", "ratio"),
    ("surrogate.predict.calls", "count"), ("surrogate.kernel_entries", "count"),
    ("surrogate.fit.calls", "count"), ("surrogate.fit.busy_s", "s"),
    ("surrogate.fit.points_mean", "count"), ("surrogate.set_center.busy_s", "s"),
    ("surrogate.improve.busy_s", "s"),
    ("embedding.extract.calls", "count"), ("embedding.extract.busy_s", "s"),
    ("embedding.embed.calls", "count"),
    ("metrics.archive.busy_s", "s"), ("metrics.archive.size", "count"),
    ("metrics.hypervolume.busy_s", "s"),
    ("acquisition.refresh.busy_s", "s"), ("acquisition.select_start.busy_s", "s"),
    ("problem.eval_terms.busy_s", "s"), ("problem.db_add.busy_s", "s"),
    ("orchestrator.checkpoint_save.busy_s", "s"), ("orchestrator.checkpoint.bytes", "bytes"),
    ("orchestrator.checkpoint_load.busy_s", "s"),
    ("cli.load_config.busy_s", "s"), ("cli.write_artifacts.busy_s", "s"),
    ("cli.artifact_bytes", "bytes"),
    ("orchestrator.evaluate_batch.busy_s", "s"), ("orchestrator.sim_queue_wait_s", "s"),
    ("sim.calls", "count"), ("sim.busy_s", "s"), ("sim.failed", "count"),
    ("orchestrator.iterate.self_s", "s"), ("orchestrator.acq_yield", "ratio"),
    ("orchestrator.improve_points", "count"), ("orchestrator.dropped_points", "count"),
    ("search.lhs.busy_s", "s"),
    ("failed_frac", "ratio"), ("parallel_eff", "ratio"),
    ("trace.overhead_s", "s"), ("trace.spans", "count"),
)

#: The package's modules, the simulations ("testbed") and the benchmark's
#: own code around a round ("bench"); each gets a self-time metric.
LAYERS = ("orchestrator", "surrogate", "optimizer", "acquisition", "metrics",
          "embedding", "search", "problem", "cli", "testbed", "bench")
PER_LAYER += tuple((f"layer.{layer}.self_s", "s") for layer in LAYERS)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "blas_threads": {v: os.environ[v] for v in THREAD_VARS[:2]},
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "python": sys.version.split()[0]}


def time_setup(name, seed, work) -> float:
    """Seconds to a constructed solver, in a fresh interpreter."""
    proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), name, str(seed),
                           str(work)], capture_output=True, text=True, timeout=120,
                          cwd=ROOT, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def percentile(values, pct) -> float:
    import numpy
    return float(numpy.percentile(values, pct))


def run_rounds(workload, seed, work, seconds, traced):
    """Rounds until the next would end after ``seconds``, and set-up times.

    One set-up probe runs before each round, so the probes see the same
    spread of machine load as the rounds.

    An untraced run makes at least one round per instance.  A traced run
    solves each instance twice in a row, untraced then traced, so the
    pair gives the tracing overhead; it makes at least one pair.
    """
    from recorder import Recorder
    rounds, setup = [], []
    need = 2 if traced else workload.instances
    started = time.perf_counter()
    while True:
        r = len(rounds)
        setup.append(time_setup(workload.name, workload.instance(seed, 0), work))
        rec = Recorder(traced=traced and r % 2 == 1)
        with rec.installed(), rec.span(*workload.root):
            rnd = workload.run_round(workload.instance(seed, r // 2 if traced else r), work, rec)
        rounds.append((rnd, rec))
        elapsed = time.perf_counter() - started
        if (len(rounds) >= need and not (traced and len(rounds) % 2)
                and elapsed + rnd.run_s > seconds):
            return rounds, setup


def end_to_end(workload, rounds, setup):
    from workloads import final_hv, instances
    samples = [s for _, rec in rounds for s in rec.propose_s]
    firsts = instances([r for r, _ in rounds]).values()
    return {
        "run_s": statistics.median(r.run_s for r, _ in rounds),
        "propose_ms.p50": 1e3 * percentile(samples, 50),
        "propose_ms.tail": 1e3 * percentile(samples, workload.tail_pct),
        "hv_final": statistics.fmean(final_hv(workload, r) for r in firsts),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, {
        "propose_samples": len(samples),
        "failed_frac": statistics.fmean((r.evaluations - len(r.objectives)) / r.evaluations
                                        for r in firsts),
        "parallel_eff": statistics.median(rec.sim_busy_s / (workload.workers * r.run_s)
                                          for r, rec in rounds),
    }


def per_layer(workload, rounds):
    """Per-round means of the traced rounds' counters."""
    from recorder import KERNEL_CALLS
    traced = rounds[1::2]
    n = len(traced)

    def mean(fn):
        return sum(fn(r, rec) for r, rec in traced) / n

    def busy(name):
        return mean(lambda r, rec: rec.busy[name])

    def calls(*names):
        return mean(lambda r, rec: sum(rec.calls[x] for x in names))

    def ratio(num, den):
        d = den()
        return num() / d if d else 0.0

    out = {
        "optimizer.solve.calls": calls("optimizer.solve"),
        "optimizer.solve.busy_s": busy("optimizer.solve"),
        "optimizer.bfgs_iters": mean(lambda r, rec: rec.counts["bfgs_iters"]),
        "optimizer.value_calls": calls("optimizer.value", "optimizer.value_and_grad"),
        "optimizer.candidate_ratio": ratio(lambda: mean(lambda r, rec: rec.counts["candidates"]),
                                           lambda: calls("optimizer.solve")),
        "surrogate.predict.calls": calls(*KERNEL_CALLS),
        "surrogate.kernel_entries": mean(lambda r, rec: rec.counts["kernel_entries"]),
        "surrogate.fit.calls": calls("surrogate.fit"),
        "surrogate.fit.busy_s": busy("surrogate.fit"),
        "surrogate.fit.points_mean": ratio(lambda: mean(lambda r, rec: rec.counts["fit_points"]),
                                           lambda: calls("surrogate.fit")),
        "surrogate.set_center.busy_s": busy("surrogate.set_center"),
        "surrogate.improve.busy_s": busy("surrogate.improve"),
        "embedding.extract.calls": calls("embedding.extract"),
        "embedding.extract.busy_s": busy("embedding.extract"),
        "embedding.embed.calls": calls("embedding.embed"),
        "metrics.archive.busy_s": busy("metrics.archive"),
        "metrics.archive.size": ratio(lambda: mean(lambda r, rec: rec.counts["archive_size"]),
                                      lambda: calls("metrics.archive")),
        "metrics.hypervolume.busy_s": busy("metrics.hypervolume"),
        "acquisition.refresh.busy_s": busy("acquisition.refresh"),
        "acquisition.select_start.busy_s": busy("acquisition.select_start"),
        "problem.eval_terms.busy_s": busy("problem.eval_terms"),
        "problem.db_add.busy_s": busy("problem.db_add"),
        "orchestrator.checkpoint_save.busy_s": busy("orchestrator.checkpoint_save"),
        "orchestrator.checkpoint.bytes": mean(lambda r, rec: rec.counts["checkpoint_bytes"]),
        "orchestrator.checkpoint_load.busy_s": getattr(workload, "checkpoint_load_s", 0.0),
        "cli.load_config.busy_s": busy("cli.load_config"),
        "cli.write_artifacts.busy_s": busy("cli.write_artifacts"),
        "cli.artifact_bytes": mean(lambda r, rec: r.artifact_bytes),
        "orchestrator.evaluate_batch.busy_s": busy("orchestrator.evaluate_batch"),
        "orchestrator.sim_queue_wait_s": mean(lambda r, rec: rec.sim_queue_wait_s),
        "sim.calls": mean(lambda r, rec: rec.sim_calls),
        "sim.busy_s": mean(lambda r, rec: rec.sim_busy_s),
        "sim.failed": mean(lambda r, rec: rec.sim_failed),
        "orchestrator.iterate.self_s": mean(lambda r, rec: rec.self_s["orchestrator.iterate"]),
        "orchestrator.acq_yield": ratio(lambda: mean(lambda r, rec: rec.counts["acq_points"]),
                                        lambda: mean(lambda r, rec: rec.counts["acq_slots"])),
        "orchestrator.improve_points": mean(lambda r, rec: rec.counts["improve_points"]),
        "orchestrator.dropped_points": mean(lambda r, rec: rec.counts["dropped_points"]),
        "search.lhs.busy_s": busy("search.lhs"),
        "failed_frac": mean(lambda r, rec: (r.evaluations - len(r.objectives)) / r.evaluations),
        "parallel_eff": mean(lambda r, rec: rec.sim_busy_s / (workload.workers * r.run_s)),
        "trace.overhead_s": statistics.median(t.run_s - u.run_s for (u, _), (t, _)
                                              in zip(rounds[0::2], traced)),
        "trace.spans": mean(lambda r, rec: len(rec.spans)),
    }
    layers = {f"layer.{layer}.self_s": mean(lambda r, rec: rec.layer_self[layer])
              for layer in LAYERS}
    return out, layers


def run(args) -> int:
    from workloads import WORKLOADS, common_gates
    from recorder import Recorder
    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        print("environment", json.dumps(environment(), sort_keys=True))
        workload.warm_up(workload.instance(args.seed, 0), work, Recorder(traced=False))
        traced = bool(args.trace)
        rounds, setup = run_rounds(workload, args.seed, work, args.seconds, traced)
        results = [r for r, _ in rounds]
        gates = common_gates(workload, results) + workload.gates(results, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(not ok for _, ok, _ in gates)
    for name, ok, detail in gates:
        print(f"gate {'PASS' if ok else 'FAIL'} {name}: {detail}")
    e2e, extra = end_to_end(workload, rounds[0::2] if traced else rounds, setup)
    units = dict(END_TO_END + PER_LAYER)
    print(f"workload {workload.name} seed {args.seed}: {len(rounds)} rounds at budget "
          f"{workload.budget} over instances {[r.seed for r in results]}, "
          f"{workload.workers} worker(s), ref {workload.ref}")
    for name, value in e2e.items():
        print(f"  {name:<18} {value:14.6g} {units[name]}")
    print(f"  round run_s: {' '.join(f'{r.run_s:.3f}' for r in results)}")
    print(f"  propose_ms.tail is p{workload.tail_pct} of {extra['propose_samples']} samples")
    print(f"  failed_frac        {extra['failed_frac']:14.6g} ratio")
    print(f"  parallel_eff       {extra['parallel_eff']:14.6g} ratio")
    if traced:
        metrics, layers = per_layer(workload, rounds)
        dump = ROOT / ".perfbench_out" / f"trace-{workload.name}-seed{args.seed}.json"
        dump.parent.mkdir(exist_ok=True)
        with open(dump, "w", encoding="utf-8") as fh:
            json.dump([rec.spans for _, rec in rounds[1::2]], fh)
        wall = statistics.median(r.run_s for r, _ in rounds[1::2])
        print(f"self time by layer, per traced round (traced run_s {wall:.3f} s; spans in {dump.name}):")
        for key, value in sorted(layers.items(), key=lambda kv: -kv[1]):
            print(f"  {key[6:-7]:<13} {value:10.4f} s {100 * value / wall:6.1f}%")
        metrics.update(layers)
        for name, value in metrics.items():
            print(f"  {name:<38} {value:14.6g} {units[name]}")
        reported = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    else:
        reported = {k: {"value": v, "unit": units[k]} for k, v in e2e.items()}
    # A failed gate marks every round of the run as failed.
    print(json.dumps({"correct": failed == 0, "attempted": len(rounds),
                      "failed": len(rounds) if failed else 0,
                      "metrics": reported}))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "moso_kit" / "__init__.py").is_file():
        print(f"no moso-kit sources under {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    # Expected simulation failures and clamped points log warnings per
    # event; the gates check their outcome instead.
    logging.getLogger("moso_kit").setLevel(logging.ERROR)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
