"""Self-tests of the span tracer, without running the program.

    python3 -m pytest perfbench/test_tracer.py
"""

from __future__ import annotations

import sys
import threading
import time
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import BATCH, RUN, Tracer  # noqa: E402


def _fake_modules():
    def final_cost(x):
        time.sleep(0.002)
        return x

    scenarios = types.SimpleNamespace(final_cost=final_cost)

    def rollout_batch(x):
        # Looked up at call time, as the program's closures do.
        time.sleep(0.001)
        return scenarios.final_cost(x)

    harness = types.SimpleNamespace(rollout_batch=rollout_batch)
    return {"safe_lsoc.harness": harness, "safe_lsoc.scenarios": scenarios}


def test_renamed_entry_points_are_missing_not_errors():
    modules = _fake_modules()
    tracer = Tracer()
    tracer.install(modules)
    try:
        assert "safe_lsoc.harness.safety_filter" in tracer.missing
        assert "safe_lsoc.lsoc.UnionDomain.boundary_mask" in tracer.missing
        assert "safe_lsoc.harness.rollout_batch" not in tracer.missing
    finally:
        tracer.uninstall()
    assert modules["safe_lsoc.harness"].rollout_batch.__name__ == "rollout_batch"
    assert not hasattr(modules["safe_lsoc.harness"].rollout_batch, "__wrapped__")


def test_self_times_nest_and_sum_to_wall():
    modules = _fake_modules()
    tracer = Tracer()
    tracer.install(modules)
    try:
        with tracer.span(BATCH):
            for _ in range(3):
                modules["safe_lsoc.harness"].rollout_batch(1.0)
    finally:
        tracer.uninstall()
    layer = tracer.metrics()
    assert layer["lsoc.rollout_calls"] == 3
    # The final_cost calls sit inside the rollout: inclusive time covers
    # them, self time does not, and none of them is a re-scoring.
    assert layer["lsoc.rollout_s"] >= layer["lsoc.rollout_self_s"] + layer["scenarios.final_cost_s"] - 1e-9
    assert layer["scenarios.final_cost_s"] >= 3 * 0.002
    assert layer["compose.rescore_s"] == 0.0
    wall = tracer.ends[0] - tracer.starts[0]
    assert tracer.nesting_error(wall) is None
    assert tracer.nesting_error(2 * wall) is not None


def _threaded_round(tracer: Tracer, worker) -> float:
    """A batch span on this thread whose work runs on two worker threads."""
    with tracer.span(BATCH):
        threads = [threading.Thread(target=worker) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    return tracer.ends[0] - tracer.starts[0]


def test_spans_on_worker_threads_nest_per_thread():
    modules = _fake_modules()
    tracer = Tracer()
    tracer.install(modules)
    try:
        run = tracer.wrap(lambda: modules["safe_lsoc.harness"].rollout_batch(1.0), RUN)
        wall = _threaded_round(tracer, run)
    finally:
        tracer.uninstall()
    assert len(set(tracer.span_threads)) == 3
    assert tracer.nesting_error(wall) is None
    assert tracer.metrics()["lsoc.rollout_calls"] == 2


def test_worker_span_outside_a_runner_call_is_an_error():
    modules = _fake_modules()
    tracer = Tracer()
    tracer.install(modules)
    try:
        wall = _threaded_round(tracer, lambda: modules["safe_lsoc.harness"].rollout_batch(1.0))
    finally:
        tracer.uninstall()
    assert "outside any runner call" in tracer.nesting_error(wall)


def test_exception_closes_span():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    wrapped = tracer.wrap(boom, "lsoc.rollout")
    with pytest.raises(ValueError):
        wrapped()
    assert tracer.ends[0] >= tracer.starts[0] > 0.0
    assert tracer._local.stack == []
