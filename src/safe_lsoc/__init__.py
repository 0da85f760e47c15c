"""Sampled stochastic optimal control with barrier-certified safety filtering.

The pieces fit together in one pipeline: passive-dynamics Monte Carlo
rollouts estimate the desirability function and the optimal control of a
first-exit problem (lsoc), a chain of barrier functions turns state
constraints into half-space conditions on the control (zcbf), a small exact
projection reconciles the two (safety_filter), and solved tasks can be
reused for new targets by mixing their controllers with similarity and
desirability weights (compose).  Multi-vehicle problems factor into
overlapping subsystems so each agent solves a small joint problem (mas).

The package needs numpy only.  The oracles that need scipy, safe_lsoc.hjb
(the grid PDE solve) and safe_lsoc.selfcheck, are imported by module name
and are not re-exported here.
"""

from .compose import (
    CompositionWeights,
    composite_control,
    composite_final_cost,
    composition_weights,
    state_weights,
)
from .harness import (
    AgentRecord,
    RunResult,
    SweepRow,
    compute_metrics,
    export_run,
    margin_sweep,
    metrics_from_trajectory_csv,
    run_generalization,
    run_seeds,
    run_task,
    write_metrics_json,
    write_sweep_csv,
    write_trajectories_csv,
)
from .lsoc import (
    BallBoundary,
    BoxBoundary,
    ControlEstimate,
    FirstExitDomain,
    LsocProblem,
    RolloutBatch,
    UnionDomain,
    estimate_optimal_control,
    rollout_batch,
)
from .mas import (
    AgentGraph,
    FactorialSubsystem,
    assemble_joint,
    build_subsystems,
    joint_dynamics,
)
from .scenarios import (
    Obstacle,
    Scenario,
    ScenarioError,
    bundled_scenario_path,
    disc_barriers,
    final_cost,
    list_bundled_scenarios,
    load_scenario,
    obstacle_discs,
    running_cost_coop,
    uav_dynamics,
    uav_drift,
)
from .sde import (
    EXIT_INFEASIBLE,
    EXIT_MAX_TIME,
    EXIT_TARGET,
    ControlAffineDynamics,
    NoiseStream,
    SafetyInfeasible,
    SimulationError,
    Trajectory,
    em_step,
)
from .zcbf import (
    BarrierFunction,
    constraint_coeffs,
    detect_relative_degree,
    safety_filter,
)

__version__ = "0.1.0"

__all__ = [
    "AgentGraph",
    "AgentRecord",
    "BallBoundary",
    "BarrierFunction",
    "BoxBoundary",
    "CompositionWeights",
    "ControlAffineDynamics",
    "ControlEstimate",
    "EXIT_INFEASIBLE",
    "EXIT_MAX_TIME",
    "EXIT_TARGET",
    "FactorialSubsystem",
    "FirstExitDomain",
    "LsocProblem",
    "NoiseStream",
    "Obstacle",
    "RolloutBatch",
    "RunResult",
    "SafetyInfeasible",
    "Scenario",
    "ScenarioError",
    "SimulationError",
    "SweepRow",
    "Trajectory",
    "UnionDomain",
    "assemble_joint",
    "build_subsystems",
    "bundled_scenario_path",
    "composite_control",
    "composite_final_cost",
    "composition_weights",
    "compute_metrics",
    "constraint_coeffs",
    "detect_relative_degree",
    "disc_barriers",
    "em_step",
    "estimate_optimal_control",
    "export_run",
    "final_cost",
    "joint_dynamics",
    "list_bundled_scenarios",
    "load_scenario",
    "margin_sweep",
    "metrics_from_trajectory_csv",
    "obstacle_discs",
    "rollout_batch",
    "run_generalization",
    "run_seeds",
    "run_task",
    "running_cost_coop",
    "safety_filter",
    "state_weights",
    "uav_drift",
    "uav_dynamics",
    "write_metrics_json",
    "write_sweep_csv",
    "write_trajectories_csv",
]
