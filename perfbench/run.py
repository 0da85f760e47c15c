"""Closed-loop benchmark of safe-lsoc.

Run from the root of a checkout:

    python3 perfbench/run.py --workload solo_filtered --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all

The workload is driven through the library calls the run and compose
commands make: load_scenario, run_seeds with run_task or
run_generalization, then export_run on every result.  Rounds of the same
runs repeat until the next round would overrun --seconds.  Every run's
output is checked against computations of the benchmark's own (checks.py).

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a traced round (tracer.py) together with the overhead of tracing.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the metric names and units are those listed
in BENCHMARK.json at the checkout root.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from checks import (
    RunOutput,
    ScenarioFacts,
    check_run,
    read_trajectory_csv,
    terminal_errors,
)
from tracer import BATCH, RUN, Tracer
from workloads import WORKLOADS, Workload, timed

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
PROBE_TIMEOUT_S = 120
WORKLOAD_TIMEOUT_S = 170
MAX_ERRORS_SHOWN = 5


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class RunRecord:
    wall: float
    agent_steps: int
    terminal_errors: np.ndarray
    csv_digest: str
    csv_bytes: int
    ess: np.ndarray  # every agent-step's effective sample size


@dataclass
class Round:
    batch_wall: float = 0.0
    runs: list[RunRecord] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    check_failures: int = 0
    agent_steps: int = 0  # of every run that returned, failed checks or not


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def declared_metrics(root: Path, trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


# Set-up ----------------------------------------------------------------------


def measure_setup(root: Path, src: Path, scenario: str) -> list[dict]:
    """Import plus load_scenario in fresh interpreters, SETUP_REPEATS times."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH", "")) if p
    )
    probes = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), scenario],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr.strip()}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        if not Path(probe["package"]).resolve().is_relative_to(src.resolve()):
            raise BenchError(f"set-up probe imported safe_lsoc from {probe['package']}")
        probes.append(probe)
    return probes


def import_program(src: Path) -> dict:
    """Import safe_lsoc from the checkout; module name -> module."""
    sys.path.insert(0, str(src))
    try:
        lib = importlib.import_module("safe_lsoc")
    except ImportError as exc:
        raise BenchError(f"cannot import safe_lsoc from {src}: {exc}") from exc
    if not Path(lib.__file__).resolve().is_relative_to(src.resolve()):
        raise BenchError(f"safe_lsoc was imported from {lib.__file__}, not {src}")
    modules = {"safe_lsoc": lib}
    for name in ("harness", "lsoc", "sde", "scenarios"):
        try:
            modules[f"safe_lsoc.{name}"] = importlib.import_module(f"safe_lsoc.{name}")
        except ImportError:
            pass  # the tracer reports its entry points as missing
    return modules


# Rounds ----------------------------------------------------------------------


def run_round(
    lib,
    sc,
    wl: Workload,
    facts: ScenarioFacts,
    groups: list[list[int]],
    runner,
    out_dir: Path,
    tracer: Tracer | None = None,
) -> Round:
    """One batch as the commands execute it, then the checks on every run."""
    rnd = Round()
    done = []
    batch = tracer.begin(BATCH) if tracer else None
    t0 = time.perf_counter()
    try:
        for group in groups:
            rnd.attempted += len(group)
            try:
                results = lib.run_seeds(sc, group, mode=wl.mode, runner=runner)
                for res in results:
                    lib.export_run(res, sc, out_dir)
                done.extend(results)
            except Exception:
                traceback.print_exc()
                rnd.failed += len(group)
    finally:
        rnd.batch_wall = time.perf_counter() - t0
        if tracer:
            tracer.end(batch)

    for res in done:
        stem = out_dir / f"{res.scenario}_{res.mode}_seed{res.seed}"
        csv_path = Path(f"{stem}_trajectories.csv")
        tracks = read_trajectory_csv(csv_path)
        out = RunOutput(
            mode=wl.mode,
            tracks=tracks,
            metrics=json.loads(Path(f"{stem}_metrics.json").read_text()),
            raw_controls=[np.asarray(a.raw_controls) for a in res.agents],
            ess=[np.asarray(a.ess) for a in res.agents],
            weights=[a.component_weights for a in res.agents],
        )
        steps = sum(len(t.controls) for t in tracks)
        rnd.agent_steps += steps
        errors = check_run(facts, out)
        if res.halted_infeasible:
            errors.append(f"run halted infeasible at agent {res.infeasible_agent}")
        if errors:
            rnd.failed += 1
            if not res.halted_infeasible:
                rnd.check_failures += 1
            print(f"seed {res.seed}: {len(errors)} check failure(s)", file=sys.stderr)
            for e in errors[:MAX_ERRORS_SHOWN]:
                print(f"  {e}", file=sys.stderr)
            continue
        rnd.runs.append(
            RunRecord(
                wall=res.bench_wall_s,
                agent_steps=steps,
                terminal_errors=terminal_errors(facts, tracks),
                csv_digest=hashlib.sha256(csv_path.read_bytes()).hexdigest(),
                csv_bytes=csv_path.stat().st_size,
                ess=np.concatenate(out.ess),
            )
        )
    for path in out_dir.iterdir():
        path.unlink()
    return rnd


def repeat_rounds(seconds: float, step) -> list:
    """Call step() until the next call would end after `seconds`; at least once."""
    start = time.perf_counter()
    outcomes = []
    while True:
        t0 = time.perf_counter()
        outcomes.append(step())
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return outcomes


# Metrics ---------------------------------------------------------------------


def end_to_end(rounds: list[Round], setup: list[dict]) -> dict[str, float]:
    runs = [r for rnd in rounds for r in rnd.runs]
    if not runs:
        raise BenchError("no run completed")
    return {
        "setup_s": statistics.median(p["import_s"] + p["load_s"] for p in setup),
        "run_wall_s": statistics.median(r.wall for r in runs),
        "agent_step_ms": statistics.median(1000.0 * r.wall / r.agent_steps for r in runs),
        "agent_steps_per_s": sum(rnd.agent_steps for rnd in rounds)
        / sum(rnd.batch_wall for rnd in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "terminal_error": float(np.median(np.concatenate([r.terminal_errors for r in runs]))),
    }


def per_layer(pairs: list[tuple[Round, Round, dict]], setup: list[dict]) -> dict[str, float]:
    """Median over traced rounds of each per-layer metric."""
    values: dict[str, list[float]] = {}
    for plain, traced, layer in pairs:
        layer = dict(layer)
        layer["trace.overhead_ratio"] = traced.batch_wall / plain.batch_wall
        for k, v in layer.items():
            values.setdefault(k, []).append(v)
    out = {k: float(statistics.median(v)) for k, v in values.items()}
    out["init.import_s"] = statistics.median(p["import_s"] for p in setup)
    out["scenarios.load_s"] = statistics.median(p["load_s"] for p in setup)
    return out


# Driver ----------------------------------------------------------------------


def bench_workload(args: argparse.Namespace, root: Path) -> dict:
    src = root / "src"
    wl = WORKLOADS[args.workload]
    facts = ScenarioFacts.from_json(src / "safe_lsoc" / "data" / f"{wl.scenario}.json")
    units = declared_metrics(root, bool(args.trace))
    setup = measure_setup(root, src, wl.scenario)
    modules = import_program(src)
    lib = modules["safe_lsoc"]
    sc = lib.load_scenario(lib.bundled_scenario_path(wl.scenario), name=wl.scenario)
    groups = wl.seed_groups(args.seed)
    runner_fn = getattr(lib, wl.runner)

    out_dir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
    try:
        def plain_round() -> Round:
            return run_round(lib, sc, wl, facts, groups, timed(runner_fn), out_dir)

        def traced_pair() -> tuple[Round, Round, dict]:
            plain = plain_round()
            tracer = Tracer()
            tracer.install(modules)
            try:
                traced = run_round(
                    lib, sc, wl, facts, groups,
                    timed(tracer.wrap(runner_fn, RUN)), out_dir, tracer,
                )
            finally:
                tracer.uninstall()
            if tracer.missing:
                print(f"missing entry points: {', '.join(tracer.missing)}", file=sys.stderr)
            if [r.csv_digest for r in plain.runs] != [r.csv_digest for r in traced.runs]:
                print("traced and untraced CSV bytes differ", file=sys.stderr)
                traced.check_failures += 1
            nesting = tracer.nesting_error(traced.batch_wall)
            if nesting:
                print(nesting, file=sys.stderr)
                traced.check_failures += 1
            layer = tracer.metrics()
            layer.update(
                {
                    "lsoc.ess_ratio": float(np.mean(np.concatenate([r.ess for r in traced.runs])))
                    / facts.rollouts,
                    "harness.agent_steps": float(traced.agent_steps),
                    "harness.csv_bytes": float(sum(r.csv_bytes for r in traced.runs)),
                }
            )
            return plain, traced, layer

        if args.trace:
            pairs = repeat_rounds(args.seconds, traced_pair)
            rounds = [rnd for plain, traced, _ in pairs for rnd in (plain, traced)]
            metrics = per_layer(pairs, setup)
        else:
            rounds = repeat_rounds(args.seconds, plain_round)
            metrics = end_to_end(rounds, setup)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    unknown = sorted(set(units) - set(metrics))
    if unknown:
        raise BenchError(f"BENCHMARK.json names metrics this run does not produce: {unknown}")
    return {
        "correct": all(rnd.check_failures == 0 for rnd in rounds),
        "attempted": sum(rnd.attempted for rnd in rounds),
        "failed": sum(rnd.failed for rnd in rounds),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def bench_all(args: argparse.Namespace, root: Path) -> dict:
    """Every workload in turn, each in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            cwd=root,
            stdout=subprocess.PIPE,
            text=True,
            timeout=WORKLOAD_TIMEOUT_S + 60,
        )
        if proc.returncode != 0:
            raise BenchError(f"workload {name} exited with {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    return combined


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "safe_lsoc" / "__init__.py").is_file():
        print(
            "perfbench: src/safe_lsoc not found; run from the root of a safe-lsoc checkout",
            file=sys.stderr,
        )
        return 2
    # The program's defaults are what is measured.
    os.environ.pop("SAFE_LSOC_THREADS", None)
    # Leave through the finally blocks, which remove the export directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if args.workload == "all":
            result = bench_all(args, root)
        else:
            result = bench_workload(args, root)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload != "all":
        for name, m in result["metrics"].items():
            print(f"{name:30s} {m['value']:.6g} {m['unit']}")
        print(f"{'runs attempted':30s} {result['attempted']}")
        print(f"{'runs failed':30s} {result['failed']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
