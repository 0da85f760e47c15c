"""Closed-loop engine, metrics, and deterministic result export.

One engine drives every run.  Each agent draws one rollout batch per control
step over its factorial subsystem, scores it once per component terminal
cost, mixes the component controls with task-similarity and desirability
weights, and, in filtered mode, projects the mix onto the barrier
constraints.  run_task is the one-component case aimed at the agents' own
targets; run_generalization mixes the solved components of a composite
scenario toward its new targets.  Exported CSV files are byte-deterministic
for a given scenario and seed; wall-clock time lives only in metrics.json.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .compose import composite_control, state_weights
from .lsoc import estimate_optimal_control
from .mas import assemble_joint, build_subsystems
from .scenarios import (
    UAV_DIM,
    UAV_INPUTS,
    Scenario,
    ScenarioError,
    disc_barriers,
    obstacle_discs,
    subsystem_composition_weights,
    subsystem_final_cost,
    subsystem_rollouts,
    validate_physics,
)
from .sde import (
    EXIT_INFEASIBLE,
    EXIT_MAX_TIME,
    EXIT_TARGET,
    KIND_ROLLOUT,
    KIND_SIM,
    NoiseStream,
    SafetyInfeasible,
    em_step,
)
from .zcbf import safety_filter

__all__ = [
    "AgentRecord",
    "RunResult",
    "SweepRow",
    "run_task",
    "run_generalization",
    "run_seeds",
    "margin_sweep",
    "compute_metrics",
    "write_trajectories_csv",
    "write_metrics_json",
    "write_sweep_csv",
    "export_run",
    "metrics_from_trajectory_csv",
]

MODE_BASELINE = "baseline"
MODE_FILTERED = "filtered"


@dataclass
class AgentRecord:
    """Everything recorded for one agent during a closed-loop run."""

    times: np.ndarray  # (T+1,)
    states: np.ndarray  # (T+1, 4) x, y, v, phi
    controls: np.ndarray  # (T, P) applied controls
    exit_reason: str  # target_reached / max_time / safety_infeasible
    raw_controls: np.ndarray  # (T, P) mix of the component estimates
    ess: np.ndarray  # (T,) effective sample size per control step
    h_values: np.ndarray  # (T+1, n_obstacles, levels) barrier chain values
    component_weights: np.ndarray | None = None  # (T, F) in composite runs


@dataclass
class RunResult:
    scenario: str
    mode: str
    seed: int
    agents: list[AgentRecord]
    task_targets: np.ndarray  # (n_agents, 2) targets the run steered toward
    infeasible_agent: int | None = None
    # Obstacle ids of a minimal empty subset of the halting agent's half-spaces.
    infeasible_constraints: tuple[int, ...] | None = None
    wall_time: float = 0.0

    @property
    def halted_infeasible(self) -> bool:
        return self.infeasible_agent is not None


def run_task(sc: Scenario, seed: int, mode: str = MODE_FILTERED) -> RunResult:
    """Run every agent toward its own target under one noise seed.

    The task is the one-component case of the closed loop: controls come
    from per-agent sampled estimates over the agent's factorial subsystem,
    and in filtered mode each control is projected onto the barrier
    constraints before being applied.
    """
    return _run_closed_loop(sc, seed, mode, "run_task", "single")


def run_generalization(
    sc: Scenario, seed: int, mode: str = MODE_FILTERED
) -> RunResult:
    """Steer toward a new target by mixing the component-task controllers."""
    return _run_closed_loop(sc, seed, mode, "run_generalization", "composite")


def _run_closed_loop(
    sc: Scenario, seed: int, mode: str, runner: str, task_mode: str
) -> RunResult:
    """Drive every agent toward the run's targets with a mix of component controls.

    The targets and components come from sc.task_view().  Each agent draws
    one rollout batch per step, and every component scores the batch with
    its own terminal cost; the batch integrates on a helper thread while
    this thread draws the next batch's noise (see _integrator).  The raw
    control is the mix of the unfiltered component estimates under the
    kernel and desirability weights (a lone component's weight is 1); in
    filtered mode the applied control is its projection onto the barrier
    half-spaces, one filter call per agent-step.  An empty intersection
    halts every unfinished agent.  Component weights are recorded for
    composite scenarios only.  runner names the public runner, which takes
    scenarios of task_mode only.
    """
    if sc.task.mode != task_mode:
        raise ScenarioError(f"{runner} requires a scenario with task.mode {task_mode}")
    if mode not in (MODE_BASELINE, MODE_FILTERED):
        raise ValueError(f"mode must be '{MODE_BASELINE}' or '{MODE_FILTERED}'")
    t0 = time.perf_counter()
    targets, components = sc.task_view()
    lam = sc.pi.temperature
    dt = sc.sim.dt
    (xlo, xhi), (ylo, yhi) = sc.sim.domain
    filtered = mode == MODE_FILTERED
    composite = sc.task.mode == "composite"
    base = NoiseStream(seed)
    dyn = sc.agent_dynamics()
    subsystems = build_subsystems(sc.graph)
    discs = obstacle_discs(sc.obstacles)
    n, max_steps = sc.n_agents, sc.sim.max_steps

    # Step-major records: row k is control step k.  An agent acts at every
    # step until it finishes, so agent i owns rows [0, steps[i]) of the
    # controls and rows [0, steps[i]] of the states and barrier values.
    x = np.array([a.start for a in sc.agents], dtype=float)
    states = np.empty((max_steps + 1, n, UAV_DIM))
    h = np.empty((max_steps + 1, n, len(discs), 2))
    raw = np.empty((max_steps, n, UAV_INPUTS))
    applied = np.empty((max_steps, n, UAV_INPUTS))
    ess = np.empty((max_steps, n))
    weights = np.empty((max_steps, n, len(components)))
    steps = np.zeros(n, dtype=int)
    states[0] = x
    # A (n, n_obs, 2) and b (n, n_obs): every disc's half-spaces at x.
    h[0], a_all, b_all = disc_barriers(x, discs, dyn.noise_cov)
    sim_gens = [base.child(KIND_SIM, i, 0).generator() for i in range(n)]
    infeasible_agent = infeasible_constraints = None

    def reached(i: int) -> bool:
        return float(np.linalg.norm(x[i][:2] - targets[i])) <= sc.sim.target_radius

    finished = [EXIT_TARGET if reached(i) else None for i in range(n)]

    # Per subsystem: the rollout sampler for the run's targets, one terminal
    # cost per component, and the task-similarity weights of the components.
    samplers = [subsystem_rollouts(sc, sub, targets) for sub in subsystems]
    comp_final = [
        [subsystem_final_cost(sc, sub, comp) for comp in components]
        for sub in subsystems
    ]
    mix_weights = [subsystem_composition_weights(sc, sub) for sub in subsystems]

    # While an agent-step's batch integrates, this thread draws the noise of
    # the next agent-step in loop order: the next active agent, or the first
    # active agent of step k + 1.  Noise drawn for a key that does not come
    # next after all (an agent finished, or the run halted) is dropped.  Each
    # stream is keyed by (seed, agent, step), so no byte depends on which
    # thread computes what, or when.
    next_stream = next_dw = None
    try:
        with _integrator() as start:
            for k in range(max_steps):
                active = [i for i, f in enumerate(finished) if f is None]
                if not active:
                    break
                # All active agents estimate from the same states, then each moves.
                for slot, i in enumerate(active):
                    stream = base.child(KIND_ROLLOUT, i, k)
                    dw = next_dw if stream == next_stream else samplers[i].draw(stream)
                    joint = assemble_joint(subsystems[i], x)
                    integrated = start(samplers[i].integrate, joint, dw)
                    if slot + 1 < len(active):
                        nk, ni = k, active[slot + 1]
                    else:
                        nk, ni = k + 1, active[0]
                    next_stream = next_dw = None
                    if nk < max_steps:
                        next_stream = base.child(KIND_ROLLOUT, ni, nk)
                        next_dw = samplers[ni].draw(next_stream)
                    batch = integrated()
                    ests = [
                        estimate_optimal_control(batch, phi, lam)
                        for phi in comp_final[i]
                    ]
                    w = state_weights(
                        mix_weights[i], [est.log_desirability for est in ests]
                    )
                    # Block 0 is the central agent, the only block it applies.
                    u = raw[k, i] = composite_control(
                        w, [est.control[:UAV_INPUTS] for est in ests]
                    )
                    if filtered:
                        u = safety_filter(u, a_all[i], b_all[i])
                    applied[k, i] = u
                    ess[k, i] = min(est.effective_sample_size for est in ests)
                    weights[k, i] = w
                for i in active:
                    dw = sim_gens[i].normal(0.0, np.sqrt(dt), size=UAV_INPUTS)
                    x[i] = em_step(dyn, x[i], applied[k, i], dt, dw)
                    states[k + 1, i] = x[i]
                    steps[i] += 1
                    if reached(i):
                        finished[i] = EXIT_TARGET
                    elif not (xlo < x[i][0] < xhi and ylo < x[i][1] < yhi):
                        # Leaving the arena is a failed run; recorded as a
                        # timeout since the exit-reason vocabulary is fixed.
                        finished[i] = EXIT_MAX_TIME
                # A finished agent's rows past its last step are never read.
                h[k + 1], a_all, b_all = disc_barriers(x, discs, dyn.noise_cov)
    except SafetyInfeasible as exc:
        # Only the filter raises it, for agent i at step k: every unfinished
        # agent halts with the controls of steps [0, k).
        infeasible_agent = i
        infeasible_constraints = tuple(int(j) for j in exc.constraint_ids)
        finished = [f or EXIT_INFEASIBLE for f in finished]

    records = [
        AgentRecord(
            times=np.arange(t + 1) * dt,
            states=states[: t + 1, i],
            controls=applied[:t, i],
            exit_reason=finished[i] or EXIT_MAX_TIME,
            raw_controls=raw[:t, i],
            ess=ess[:t, i],
            h_values=h[: t + 1, i],
            component_weights=weights[:t, i] if composite else None,
        )
        for i, t in enumerate(steps)
    ]
    return RunResult(
        scenario=sc.name,
        mode=mode,
        seed=seed,
        agents=records,
        task_targets=targets,
        infeasible_agent=infeasible_agent,
        infeasible_constraints=infeasible_constraints,
        wall_time=time.perf_counter() - t0,
    )


def run_seeds(
    sc: Scenario,
    seeds: Sequence[int],
    mode: str = MODE_FILTERED,
    runner: Callable[..., RunResult] = run_task,
) -> list[RunResult]:
    """Run the seeds in one pool of worker processes; results in seed order.

    One worker per seed, up to the CPUs this process may run on (so
    `taskset` limits it), and each worker's runs use its share of those
    CPUs.  One seed or one usable CPU runs in this process.  The workers
    are forked, so sc and runner reach them without pickling; where fork
    is unavailable the seeds run here one after another.  A run's bytes do
    not depend on the process that runs it.  A seed's exception is
    re-raised with its type and a note naming the seed, the seeds not yet
    started are cancelled, and no worker outlives the call.
    """
    seeds = list(seeds)
    cpus = _usable_cpus()
    workers = min(cpus, len(seeds))
    if workers > 1:
        # Imported here: the pool costs a fifth of the package's import time.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # The pool forks a process whose BLAS threads may be running;
        # Python 3.12+ warns about that (DeprecationWarning) at each fork.
        if "fork" in multiprocessing.get_all_start_methods():
            pool = ProcessPoolExecutor(
                workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_set_job,
                initargs=(sc, mode, runner, cpus // workers),
            )
            try:
                futures = [pool.submit(_run_job, s) for s in seeds]
                return [_result(f, s) for f, s in zip(futures, seeds)]
            finally:
                pool.shutdown(wait=True, cancel_futures=True)
    return [runner(sc, s, mode=mode) for s in seeds]


@contextlib.contextmanager
def _integrator():
    """Yield start(fn, *args), which returns a call that gives fn(*args).

    fn runs on one helper thread, so the caller can work while it runs; the
    thread is joined when the block exits, however it exits.  With one CPU
    for the run, as with one usable CPU or in a pool worker of run_seeds
    whose pool fills every CPU, fn runs at once in this thread.
    """
    if _run_cpus() == 1:
        def start(fn, *args):
            out = fn(*args)
            return lambda: out

        yield start
        return
    # Imported here, as run_seeds imports its pool: importing the package
    # stays as fast as before.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(1, thread_name_prefix="safe-lsoc-rollouts") as pool:
        yield lambda fn, *args: pool.submit(fn, *args).result


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# The (sc, mode, runner, cpus) of a worker process, set once when it
# starts; cpus is the worker's share of the usable CPUs.
_job: tuple | None = None


def _set_job(
    sc: Scenario, mode: str, runner: Callable[..., RunResult], cpus: int
) -> None:
    global _job
    _job = (sc, mode, runner, cpus)


def _run_job(seed: int) -> RunResult:
    sc, mode, runner, _ = _job
    return runner(sc, seed, mode=mode)


def _run_cpus() -> int:
    """CPUs one run may use: every usable one, or its pool worker's share."""
    return _job[3] if _job is not None else _usable_cpus()


def _result(future, seed: int) -> RunResult:
    try:
        return future.result()
    except Exception as exc:
        # BaseException.add_note, without needing Python 3.11.
        exc.__notes__ = [*getattr(exc, "__notes__", []), f"seed {seed}"]
        raise


# Metrics ---------------------------------------------------------------------


def compute_metrics(result: RunResult, sc: Scenario) -> dict:
    """Run summary; position-derived entries are recomputable from the CSV."""
    n_obs = len(sc.obstacles)
    terminal_errors = []
    reached = []
    steps = []
    for i, rec in enumerate(result.agents):
        final_pos = rec.states[-1][:2]
        terminal_errors.append(
            float(np.linalg.norm(final_pos - result.task_targets[i]))
        )
        reached.append(rec.exit_reason == EXIT_TARGET)
        steps.append(len(rec.controls))

    min_center_distance = []
    for j in range(n_obs):
        center = np.asarray(sc.obstacles[j].center)
        dmin = np.inf
        for rec in result.agents:
            d = np.linalg.norm(rec.states[:, :2] - center, axis=1)
            dmin = min(dmin, float(d.min()))
        min_center_distance.append(dmin)

    violations = 0
    activations = 0
    for rec in result.agents:
        violations += int(np.sum(np.any(rec.h_values[:, :, 0] < 0.0, axis=1)))
        diff = np.max(np.abs(rec.raw_controls - rec.controls), axis=1)
        activations += int(np.sum(diff > 1e-12))

    pair_distances = {}
    for (i, j) in sc.costs.coop_pairs:
        pair_distances[f"{i}-{j}"] = _pair_mean_distance(result, i, j)

    metrics = {
        "scenario": result.scenario,
        "mode": result.mode,
        "seed": result.seed,
        "exit_reasons": [r.exit_reason for r in result.agents],
        "reached": reached,
        "steps": steps,
        "terminal_position_error": terminal_errors,
        "min_center_distance": min_center_distance,
        "safety_violation_count": violations,
        "filter_activation_count": activations,
        "pair_mean_distance": pair_distances,
        "pair_initial_distance": {
            f"{i}-{j}": float(
                np.linalg.norm(sc.agents[i].start[:2] - sc.agents[j].start[:2])
            )
            for (i, j) in sc.costs.coop_pairs
        },
        "mean_ess": [
            float(r.ess.mean()) if r.ess.size else 0.0 for r in result.agents
        ],
        "min_ess": [
            float(r.ess.min()) if r.ess.size else 0.0 for r in result.agents
        ],
        "infeasible_agent": result.infeasible_agent,
        "infeasible_constraints": (
            None if result.infeasible_constraints is None
            else list(result.infeasible_constraints)
        ),
        "wall_time_s": result.wall_time,
    }
    return metrics


def _pair_mean_distance(result: RunResult, i: int, j: int) -> float:
    """Mean distance over the run; a finished agent holds its last state."""
    si = result.agents[i].states[:, :2]
    sj = result.agents[j].states[:, :2]
    t_max = max(len(si), len(sj))
    xi = np.vstack([si, np.repeat(si[-1:], t_max - len(si), axis=0)])
    xj = np.vstack([sj, np.repeat(sj[-1:], t_max - len(sj), axis=0)])
    return float(np.linalg.norm(xi - xj, axis=1).mean())


# Export ----------------------------------------------------------------------


def _fmt(v: float) -> str:
    return repr(float(v))


def trajectory_header(n_obstacles: int) -> list[str]:
    """Columns of the trajectory CSV; each disc has the levels h0 and h1."""
    cols = ["t", "agent", "x", "y", "v", "phi", "u1", "u2"]
    for j in range(n_obstacles):
        cols += [f"h0_obs{j}", f"h1_obs{j}"]
    return cols


def write_trajectories_csv(result: RunResult, path: str | Path) -> Path:
    """Byte-deterministic trajectory table, time-major then agent order."""
    path = Path(path)
    n_obs = result.agents[0].h_values.shape[1] if result.agents else 0
    header = trajectory_header(n_obs)
    t_max = max((len(rec.times) for rec in result.agents), default=0)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for t_idx in range(t_max):
            for agent, rec in enumerate(result.agents):
                if t_idx >= len(rec.times):
                    continue
                row = [_fmt(rec.times[t_idx]), str(agent)]
                row.extend(_fmt(v) for v in rec.states[t_idx])
                if t_idx < len(rec.controls):
                    row.extend(_fmt(v) for v in rec.controls[t_idx])
                else:
                    row.extend(["", ""])
                if n_obs:
                    row.extend(_fmt(v) for v in rec.h_values[t_idx].ravel())
                writer.writerow(row)
    return path


def write_metrics_json(metrics: dict, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(metrics, indent=2, sort_keys=True) + "\n")
    return path


def export_run(result: RunResult, sc: Scenario, out_dir: str | Path) -> dict:
    """Write trajectories.csv and metrics.json under out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{result.scenario}_{result.mode}_seed{result.seed}"
    write_trajectories_csv(result, out / f"{stem}_trajectories.csv")
    metrics = compute_metrics(result, sc)
    write_metrics_json(metrics, out / f"{stem}_metrics.json")
    return metrics


def metrics_from_trajectory_csv(path: str | Path, sc: Scenario) -> dict:
    """Export oracle: the position-derived metrics, recomputed from the CSV."""
    rows_by_agent: dict[int, list[dict]] = {}
    with Path(path).open(newline="") as fh:
        for row in csv.DictReader(fh):
            rows_by_agent.setdefault(int(row["agent"]), []).append(row)
    n_obs = len(sc.obstacles)
    terminal_errors = []
    min_center = [np.inf] * n_obs
    violations = 0
    targets, _ = sc.task_view()
    for agent in sorted(rows_by_agent):
        rows = rows_by_agent[agent]
        pos = np.array([[float(r["x"]), float(r["y"])] for r in rows])
        terminal_errors.append(
            float(np.linalg.norm(pos[-1] - targets[agent]))
        )
        for j in range(n_obs):
            center = np.asarray(sc.obstacles[j].center)
            min_center[j] = min(
                min_center[j],
                float(np.linalg.norm(pos - center, axis=1).min(initial=np.inf)),
            )
        if n_obs:
            h0 = np.array(
                [[float(r[f"h0_obs{j}"]) for j in range(n_obs)] for r in rows]
            )
            violations += int(np.sum(np.any(h0 < 0.0, axis=1)))
    return {
        "terminal_position_error": terminal_errors,
        "min_center_distance": [float(v) for v in min_center],
        "safety_violation_count": violations,
    }


# Margin sweep ----------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    margin: float
    seed: int
    mode: str
    obstacle: int
    min_center_distance: float
    threshold: float

    @property
    def cleared(self) -> bool:
        return self.min_center_distance >= self.threshold - 0.1


def margin_sweep(
    sc: Scenario,
    margins: Sequence[float],
    seeds: Sequence[int] | None = None,
) -> list[SweepRow]:
    """Re-run the scenario at each commanded margin, both control modes.

    Every margin's obstacles are validated before the first run; the error
    of an invalid one names the margin.
    """
    if sc.task.mode != "single":
        raise ScenarioError("margin sweep requires a single-task scenario")
    seeds = list(seeds if seeds is not None else sc.sim.seeds)
    variants = []
    for margin in map(float, margins):
        obstacles = tuple(
            dataclasses.replace(ob, margin=margin) for ob in sc.obstacles
        )
        sc_m = dataclasses.replace(sc, obstacles=obstacles)
        try:
            validate_physics(sc_m)
        except ScenarioError as exc:
            raise ScenarioError(f"--margins {margin}: {exc}") from exc
        variants.append((margin, sc_m))
    rows = []
    for margin, sc_m in variants:
        for mode in (MODE_BASELINE, MODE_FILTERED):
            for res in run_seeds(sc_m, seeds, mode=mode):
                metrics = compute_metrics(res, sc_m)
                for j, ob in enumerate(sc_m.obstacles):
                    rows.append(
                        SweepRow(
                            margin=margin,
                            seed=res.seed,
                            mode=mode,
                            obstacle=j,
                            min_center_distance=metrics["min_center_distance"][j],
                            threshold=ob.radius + margin,
                        )
                    )
    return rows


def write_sweep_csv(rows: Sequence[SweepRow], path: str | Path) -> Path:
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["margin", "seed", "mode", "obstacle",
             "min_center_distance", "threshold", "cleared"]
        )
        for row in rows:
            writer.writerow(
                [
                    _fmt(row.margin),
                    str(row.seed),
                    row.mode,
                    str(row.obstacle),
                    _fmt(row.min_center_distance),
                    _fmt(row.threshold),
                    str(int(row.cleared)),
                ]
            )
    return path
