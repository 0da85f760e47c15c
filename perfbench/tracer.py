"""Span tracer for the traced benchmark run.

The tracer replaces module attributes of safe_lsoc with timing wrappers
while a traced round runs, and puts them back afterwards.  Wrapped are the
names the runners and the scenario closures look up at call time, so the
program's own code is untouched: the harness calls rollout_batch through its
module globals, the scenario cost closures call running_cost_coop and
final_cost through theirs, and uav_drift is captured when the runner builds
its dynamics.  An entry point that no longer exists is reported as missing.

Spans are kept in memory, each linked to the span that was open in the same
thread when it started, and reduced to per-layer metrics when the round
ends.  A span's self time is its duration minus the durations of its
children.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps

import numpy as np

# (module, attribute, span name).  A dotted attribute wraps a class method.
ENTRY_POINTS = (
    ("safe_lsoc.harness", "rollout_batch", "lsoc.rollout"),
    ("safe_lsoc.harness", "estimate_optimal_control", "lsoc.estimate"),
    ("safe_lsoc.lsoc", "UnionDomain.boundary_mask", "lsoc.boundary"),
    ("safe_lsoc.lsoc", "UnionDomain.clamp_exit", "lsoc.boundary"),
    ("safe_lsoc.harness", "constraint_coeffs", "zcbf.coeffs"),
    ("safe_lsoc.harness", "lower_degree_terms", "zcbf.coeffs"),
    ("safe_lsoc.harness", "safety_filter", "zcbf.filter"),
    ("safe_lsoc.harness", "assemble_joint", "mas"),
    ("safe_lsoc.harness", "extract_local_control", "mas"),
    ("safe_lsoc.harness", "composition_weights", "compose.weights"),
    ("safe_lsoc.harness", "state_weights", "compose.weights"),
    ("safe_lsoc.harness", "composite_control", "compose.weights"),
    ("safe_lsoc.harness", "composite_final_cost", "compose.weights"),
    ("safe_lsoc.harness", "em_step", "sde.em_step"),
    ("safe_lsoc.sde", "NoiseStream.generator", "sde.stream_setup"),
    ("safe_lsoc.scenarios", "running_cost_coop", "scenarios.running_cost"),
    ("safe_lsoc.scenarios", "final_cost", "scenarios.final_cost"),
    ("safe_lsoc.scenarios", "uav_drift", "scenarios.drift"),
    ("safe_lsoc.harness", "compute_metrics", "harness.metrics"),
    ("safe_lsoc.harness", "write_trajectories_csv", "harness.export"),
    ("safe_lsoc.harness", "write_metrics_json", "harness.export"),
    ("safe_lsoc", "export_run", "harness.export"),
)

# Spans for the benchmark's own round and for each runner call.
BATCH = "harness.batch"
RUN = "harness.run"

_INHERITED = object()


class _TimedGenerator:
    """Proxy of a numpy Generator whose normal draws are spans."""

    def __init__(self, gen, tracer: "Tracer"):
        self._gen = gen
        self._tracer = tracer

    def normal(self, *args, **kwargs):
        with self._tracer.span("sde.noise_draw"):
            out = self._gen.normal(*args, **kwargs)
        self._tracer.count("sde.noise_bytes", np.asarray(out).nbytes)
        return out

    def __getattr__(self, name):
        return getattr(self._gen, name)


class Tracer:
    """Parent-linked spans and counters, recorded while patches are installed."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.span_threads: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.joint_dims: list[int] = []
        self.missing: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # Recording ---------------------------------------------------------------

    def begin(self, name: str) -> int:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(stack[-1] if stack else -1)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self.span_threads.append(threading.get_ident())
        stack.append(idx)
        self.starts[idx] = time.perf_counter()
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._local.stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def count(self, key: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[key] += amount

    # Patching ----------------------------------------------------------------

    def wrap(self, fn, name: str, attr: str | None = None):
        """fn with every call recorded as a span called name."""
        tracer = self
        attr = attr or name

        @wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            tracer._observe(attr, args, out)
            return out

        return wrapper

    def _observe(self, attr: str, args: tuple, out) -> None:
        """Counters that need a call's arguments or result."""
        self.count(f"calls.{attr}")
        if attr == "assemble_joint":
            with self._lock:
                self.joint_dims.append(int(np.asarray(out).shape[-1]))
        elif attr == "safety_filter":
            if not np.array_equal(np.asarray(out), np.asarray(args[0])):
                self.count("projections")

    def install(self, modules: dict) -> None:
        """Patch every entry point; record the ones that cannot be found."""
        for mod_name, attr, name in ENTRY_POINTS:
            owner = modules.get(mod_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None) if owner is not None else None
            if not callable(fn):
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapped = self.wrap(fn, name, leaf)
            if leaf == "generator":
                wrapped = self._wrap_generator(wrapped)
            elif leaf == "composite_final_cost":
                wrapped = self._wrap_factory(wrapped, "compose.weights")
            self._patches.append((owner, leaf, vars(owner).get(leaf, _INHERITED)))
            setattr(owner, leaf, wrapped)

    def _wrap_generator(self, method):
        tracer = self

        @wraps(method)
        def generator(*args, **kwargs):
            return _TimedGenerator(method(*args, **kwargs), tracer)

        return generator

    def _wrap_factory(self, factory, name: str):
        """The closure a factory returns is a span too (composite final cost)."""
        tracer = self

        @wraps(factory)
        def make(*args, **kwargs):
            return tracer.wrap(factory(*args, **kwargs), name, "composite_phi")

        return make

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._patches):
            if original is _INHERITED:
                delattr(owner, leaf)
            else:
                setattr(owner, leaf, original)
        self._patches.clear()

    # Reduction ---------------------------------------------------------------

    def _self_times(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Durations, parent indices and self times of every span."""
        dur = np.array(self.ends) - np.array(self.starts)
        parents = np.array(self.parents, dtype=int)
        child = np.zeros(len(dur))
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        return dur, parents, dur - child

    def nesting_error(self, wall: float) -> str | None:
        """Spans nest within each thread: no self time is negative, the self
        times of the batch span's thread add up to the wall time of the
        traced round, and every span of another thread sits in a runner call
        made while the batch was open.  None when all of that holds."""
        _, parents, self_t = self._self_times()
        if float(np.min(self_t)) < -1e-6:
            i = int(np.argmin(self_t))
            return f"span {self.names[i]} has self time {self_t[i]:.6f} s"
        batch = self.names.index(BATCH)
        home = np.array(self.span_threads) == self.span_threads[batch]
        total = float(np.sum(self_t[home]))
        if abs(total / wall - 1.0) > 1e-4:
            return f"self times sum to {total:.6f} s of a {wall:.6f} s traced round"
        t0, t1 = self.starts[batch], self.ends[batch]
        for i in np.flatnonzero(~home & (parents < 0)):
            if self.names[i] != RUN or not t0 <= self.starts[i] <= self.ends[i] <= t1:
                return f"span {self.names[i]} on a worker thread is outside any runner call"
        return None

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded since construction."""
        dur, parents, self_t = self._self_times()

        by_self: dict[str, float] = defaultdict(float)
        by_incl: dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            by_self[name] += self_t[i]
            by_incl[name] += dur[i]

        # Terminal-cost evaluations outside any rollout re-score a shared
        # batch once per component (composite runs only).
        rescore = 0.0
        for i, name in enumerate(self.names):
            if name != "scenarios.final_cost":
                continue
            p = parents[i]
            while p >= 0 and self.names[p] not in ("lsoc.rollout", RUN):
                p = parents[p]
            if p >= 0 and self.names[p] == RUN:
                rescore += dur[i]

        c = self.counters
        filter_calls = c["calls.safety_filter"]
        return {
            "scenarios.running_cost_s": by_self["scenarios.running_cost"],
            "scenarios.running_cost_calls": c["calls.running_cost_coop"],
            "scenarios.final_cost_s": by_self["scenarios.final_cost"],
            "scenarios.drift_s": by_self["scenarios.drift"],
            "scenarios.drift_calls": c["calls.uav_drift"],
            "sde.noise_draw_s": by_self["sde.noise_draw"],
            "sde.stream_setup_s": by_self["sde.stream_setup"],
            "sde.noise_bytes": c["sde.noise_bytes"],
            "sde.em_step_s": by_self["sde.em_step"],
            "lsoc.rollout_s": by_incl["lsoc.rollout"],
            "lsoc.rollout_self_s": by_self["lsoc.rollout"],
            "lsoc.rollout_calls": c["calls.rollout_batch"],
            "lsoc.boundary_s": by_self["lsoc.boundary"],
            "lsoc.estimate_s": by_self["lsoc.estimate"],
            "lsoc.estimate_calls": c["calls.estimate_optimal_control"],
            "mas.s": by_self["mas"],
            "mas.joint_dim_mean": (
                float(np.mean(self.joint_dims)) if self.joint_dims else 0.0
            ),
            "zcbf.coeffs_s": by_incl["zcbf.coeffs"],
            "zcbf.coeffs_calls": c["calls.constraint_coeffs"],
            "zcbf.filter_s": by_self["zcbf.filter"],
            "zcbf.filter_calls": filter_calls,
            "zcbf.projections": c["projections"],
            "zcbf.active_ratio": c["projections"] / filter_calls if filter_calls else 0.0,
            "compose.weights_s": by_self["compose.weights"],
            "compose.rescore_s": rescore,
            "harness.loop_self_s": by_self[RUN] + by_self[BATCH],
            "harness.export_s": by_self["harness.export"],
            "harness.metrics_s": by_self["harness.metrics"],
            "trace.missing_entry_points": float(len(self.missing)),
        }
