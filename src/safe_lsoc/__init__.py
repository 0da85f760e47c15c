"""Sampled stochastic optimal control with barrier-certified safety filtering.

The pieces fit together in one pipeline: passive-dynamics Monte Carlo
rollouts estimate the desirability function and the optimal control of a
first-exit problem (lsoc), a chain of barrier functions turns state
constraints into half-space conditions on the control (zcbf), a small exact
projection reconciles the two (safety_filter), and solved tasks can be
reused for new targets by mixing their controllers with similarity and
desirability weights (compose).  Multi-vehicle problems factor into
overlapping subsystems so each agent solves a small joint problem (mas).

The package namespace holds the run path only: load a scenario, run it,
summarize and export the result.  Everything else, the oracles included,
is imported from its module (safe_lsoc.harness, safe_lsoc.scenarios,
safe_lsoc.hjb, ...).  The run path needs numpy only; scipy serves the
oracles safe_lsoc.hjb and safe_lsoc.selfcheck.
"""

from .harness import (
    compute_metrics,
    export_run,
    run_generalization,
    run_seeds,
    run_task,
)
from .scenarios import ScenarioError, bundled_scenario_path, load_scenario

__version__ = "0.1.0"

__all__ = [
    "ScenarioError",
    "bundled_scenario_path",
    "compute_metrics",
    "export_run",
    "load_scenario",
    "run_generalization",
    "run_seeds",
    "run_task",
]
