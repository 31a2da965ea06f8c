"""Timing wrappers installed from outside on moso-kit's public names.

No program source is edited: ``Recorder.installed()`` swaps module
attributes and class methods for wrappers and restores them on exit.

Untraced runs (``traced=False``) wrap only ``MoopSolver.iterate``, whose
per-call duration is the proposal latency, and the benchmark-owned
simulation wrapper, whose busy time gives the parallel efficiency.

Traced runs wrap every name in ``SPANS`` and ``AGGREGATED``.  A span
records its name, layer, start, end, parent span and iteration id and
stays in memory; the benchmark writes the spans out when the run ends.
High-frequency calls (extract, surrogate evaluate and gradient,
subproblem value) are not spans: each adds one to a call count and its
duration to a summed time on the nearest enclosing span.  Self time is a call's duration minus the time its children cover;
simulations running on pool threads count as children of the
``evaluate_batch`` span that submitted them, by the union of their
intervals.
"""

from __future__ import annotations

import contextlib
import functools
import os
import threading
import time
from collections import defaultdict

from moso_kit import acquisition, cli, embedding, optimizer, orchestrator
from moso_kit.metrics import ParetoArchive
from moso_kit.optimizer import SubproblemEvaluator
from moso_kit.orchestrator import MoopSolver
from moso_kit.problem import EvaluationDatabase
from moso_kit.surrogate import RbfSurrogate

perf = time.perf_counter

#: (owner, attribute, span name, layer): one span per call.  Traced runs
#: also make spans of ``MoopSolver.iterate`` and ``evaluate_batch``,
#: whose wrappers do more than time the call.
SPANS = (
    (MoopSolver, "solve", "orchestrator.solve", "orchestrator"),
    (MoopSolver, "checkpoint_save", "orchestrator.checkpoint_save", "orchestrator"),
    (orchestrator, "lhs_search", "search.lhs", "search"),
    (orchestrator, "eval_objectives", "problem.eval_terms", "problem"),
    (orchestrator, "eval_constraints", "problem.eval_terms", "problem"),
    (EvaluationDatabase, "add", "problem.db_add", "problem"),
    (acquisition, "refresh", "acquisition.refresh", "acquisition"),
    (acquisition, "select_start", "acquisition.select_start", "acquisition"),
    (optimizer, "solve", "optimizer.solve", "optimizer"),
    (RbfSurrogate, "fit", "surrogate.fit", "surrogate"),
    (RbfSurrogate, "set_center", "surrogate.set_center", "surrogate"),
    (RbfSurrogate, "improve", "surrogate.improve", "surrogate"),
    (ParetoArchive, "from_records", "metrics.archive", "metrics"),
    (cli, "hypervolume", "metrics.hypervolume", "metrics"),
    (cli, "load_config", "cli.load_config", "cli"),
    (cli, "write_database_csv", "cli.write_artifacts", "cli"),
    (cli, "write_pareto_csv", "cli.write_artifacts", "cli"),
    (cli, "write_metrics_csv", "cli.write_artifacts", "cli"),
)

#: High-frequency calls, aggregated onto the enclosing span.
AGGREGATED = (
    (SubproblemEvaluator, "value", "optimizer.value", "optimizer"),
    (SubproblemEvaluator, "value_and_grad", "optimizer.value_and_grad", "optimizer"),
    (embedding, "extract", "embedding.extract", "embedding"),
    (embedding, "embed", "embedding.embed", "embedding"),
    (RbfSurrogate, "evaluate", "surrogate.evaluate", "surrogate"),
    (RbfSurrogate, "gradient", "surrogate.gradient", "surrogate"),
    (RbfSurrogate, "uncertainty", "surrogate.uncertainty", "surrogate"),
    (RbfSurrogate, "uncertainty_gradient", "surrogate.uncertainty_gradient", "surrogate"),
)

KERNEL_CALLS = ("surrogate.evaluate", "surrogate.gradient", "surrogate.uncertainty",
                "surrogate.uncertainty_gradient")


class _Frame:
    __slots__ = ("name", "layer", "start", "child", "span", "owner", "pooled")

    def __init__(self, name, layer, start, span, owner):
        self.name = name
        self.layer = layer
        self.start = start
        self.child = 0.0
        self.span = span      # span record, None for aggregated calls
        self.owner = owner    # nearest frame that has a span record
        self.pooled = None    # intervals of pool-thread children


def _covered(intervals, lo, hi) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


class Recorder:
    """Collects proposal latencies, simulation meters and (traced) spans."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.propose_s: list[float] = []
        self.sim_calls = 0
        self.sim_failed = 0
        self.sim_busy_s = 0.0
        self.sim_queue_wait_s = 0.0
        self.spans: list[dict] = []
        self.layer_self = defaultdict(float)
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.counts = defaultdict(float)
        self.iteration = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._batch = None     # (frame, start) of the open evaluate_batch
        self._origin = perf()

    # -- frames ------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name, layer, record: bool) -> _Frame:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is None and self._batch is not None:
            parent = self._batch[0]   # a simulation on a pool thread
        start = perf()
        span = None
        if record:
            span = {"name": name, "layer": layer, "start": start - self._origin, "end": None,
                    "parent": parent.owner.span["id"] if parent else None,
                    "iteration": self.iteration, "self": None, "agg": {}}
            with self._lock:
                span["id"] = len(self.spans)
                self.spans.append(span)
        frame = _Frame(name, layer, start, span, None)
        frame.owner = frame if record else (parent.owner if parent else None)
        stack.append(frame)
        return frame

    def _close(self, frame: _Frame) -> None:
        end = perf()
        stack = self._stack()
        stack.pop()
        dur = end - frame.start
        if frame.pooled:
            frame.child += _covered(frame.pooled, frame.start, end)
        own = dur - frame.child
        with self._lock:
            self.layer_self[frame.layer] += own
            self.self_s[frame.name] += own
            self.calls[frame.name] += 1
            self.busy[frame.name] += dur
            if stack:
                stack[-1].child += dur
            elif self._batch is not None and frame is not self._batch[0]:
                self._batch[0].pooled.append((frame.start, end))
            if frame.span is not None:
                frame.span["end"] = end - self._origin
                frame.span["self"] = own
            elif frame.owner is not None:
                agg = frame.owner.span["agg"].setdefault(frame.name, [0, 0.0])
                agg[0] += 1
                agg[1] += dur

    def _wrap(self, fn, name, layer, record, after=None):
        rec = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            frame = rec._open(name, layer, record)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec._close(frame)
            if after is not None:
                after(args, result)
            return result

        return wrapped

    @contextlib.contextmanager
    def span(self, name, layer):
        """Span around benchmark code, such as one timed round."""
        frame = self._open(name, layer, True)
        try:
            yield
        finally:
            self._close(frame)

    # -- simulations ---------------------------------------------------------

    def simulation(self, fn):
        """Meter a simulation callable: calls, failures, busy and queue time."""
        rec = self

        def simulate(design):
            frame = rec._open("sim", "testbed", True) if rec.traced else None
            start = perf()
            batch = rec._batch
            try:
                return fn(design)
            except Exception:
                with rec._lock:
                    rec.sim_failed += 1
                raise
            finally:
                end = perf()
                if frame is not None:
                    rec._close(frame)
                with rec._lock:
                    rec.sim_calls += 1
                    rec.sim_busy_s += end - start
                    if batch is not None:
                        rec.sim_queue_wait_s += start - batch[1]

        return simulate

    # -- hooks ---------------------------------------------------------------

    def _iterate(self, fn):
        rec = self

        @functools.wraps(fn)
        def iterate(solver, k):
            rec.iteration = k
            frame = rec._open("orchestrator.iterate", "orchestrator", True) if rec.traced else None
            start = perf()
            try:
                batch = fn(solver, k)
            finally:
                dur = perf() - start
                if frame is not None:
                    rec._close(frame)
            if k >= 1:
                rec.propose_s.append(dur)
                origins = [p.origin for p in batch.points]
                rec.counts["acq_slots"] += solver.moop.q
                rec.counts["acq_points"] += sum(o.startswith("acquisition:") for o in origins)
                rec.counts["improve_points"] += sum(o.startswith("improve:") for o in origins)
                rec.counts["dropped_points"] += solver.moop.q - len(origins)
            return batch

        return iterate

    def _evaluate_batch(self, fn):
        rec = self

        @functools.wraps(fn)
        def evaluate_batch(solver, batch):
            frame = rec._open("orchestrator.evaluate_batch", "orchestrator", True)
            frame.pooled = []
            rec._batch = (frame, frame.start)
            try:
                return fn(solver, batch)
            finally:
                rec._batch = None
                rec._close(frame)

        return evaluate_batch

    def _after(self, name):
        counts = self.counts
        if name == "optimizer.solve":
            def after(args, outcome):
                counts["bfgs_iters"] += outcome.iterations
                counts["candidates"] += outcome.candidate is not None
        elif name == "surrogate.fit":
            def after(args, model):
                counts["fit_points"] += model.n_points
        elif name == "metrics.archive":
            def after(args, archive):
                counts["archive_size"] += len(archive)
        elif name == "orchestrator.checkpoint_save":
            def after(args, result):
                counts["checkpoint_bytes"] += os.path.getsize(args[1])
        elif name in KERNEL_CALLS:
            def after(args, result):
                counts["kernel_entries"] += args[0].n_points
        else:
            after = None
        return after

    @contextlib.contextmanager
    def installed(self):
        """Install the wrappers for the duration of the block."""
        saved = []

        def patch(owner, attr, make):
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(make(raw.__func__)))
            else:
                setattr(owner, attr, make(raw))

        try:
            patch(MoopSolver, "iterate", self._iterate)
            if self.traced:
                patch(MoopSolver, "evaluate_batch", self._evaluate_batch)
                for owner, attr, name, layer in SPANS:
                    patch(owner, attr, lambda fn, n=name, l=layer:
                          self._wrap(fn, n, l, True, self._after(n)))
                for owner, attr, name, layer in AGGREGATED:
                    patch(owner, attr, lambda fn, n=name, l=layer:
                          self._wrap(fn, n, l, False, self._after(n)))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)
            self.iteration = None
