"""The benchmark's workloads and how their scenario seeds are derived."""

from __future__ import annotations

import time
from dataclasses import dataclass

# Scenario seeds of workload seed s start at SEED_STRIDE * s, so different
# workload seeds never share a closed-loop run.
SEED_STRIDE = 1000


@dataclass(frozen=True)
class Workload:
    """One bundled scenario driven the way the run or compose command does.

    A round is `calls` calls of run_seeds, each handed `seeds_per_call`
    seeds, followed by export_run on every result.  Every round of a
    benchmark run repeats the same seeds, so a faster program measures the
    same runs more often rather than different runs.
    """

    name: str
    scenario: str
    mode: str
    runner: str  # run_task or run_generalization
    seeds_per_call: int
    calls: int

    def seed_groups(self, seed: int) -> list[list[int]]:
        """Scenario seeds of one round, one list per run_seeds call."""
        base = SEED_STRIDE * seed
        n = self.seeds_per_call
        return [[base + c * n + k for k in range(n)] for c in range(self.calls)]


def timed(runner):
    """Runner handed to run_seeds; stamps each result with its wall time."""

    def run(sc, seed, **kwargs):
        t0 = time.perf_counter()
        result = runner(sc, seed, **kwargs)
        result.bench_wall_s = time.perf_counter() - t0
        return result

    return run


# solo_filtered: one 4-dim agent, so rollouts are at their smallest and the
# barrier layer has its largest share; four seeds per run_seeds call leave
# room for seed-level parallelism, and one agent leaves cross-agent batching
# nothing to fuse.
# team_filtered: three agents on overlapping 8-12-dim joint rollouts with
# pair costs, so rollouts dominate and a cross-agent kernel has work; one seed
# per call leaves seed parallelism nothing to do.
# compose_baseline: five agents re-scoring every batch once per component in
# baseline mode, which exercises compose and never enters the barrier layer.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="solo_filtered",
            scenario="single_uav",
            mode="filtered",
            runner="run_task",
            seeds_per_call=4,
            calls=1,
        ),
        Workload(
            name="team_filtered",
            scenario="three_uav_team",
            mode="filtered",
            runner="run_task",
            seeds_per_call=1,
            calls=3,
        ),
        Workload(
            name="compose_baseline",
            scenario="five_uav_composition",
            mode="baseline",
            runner="run_generalization",
            seeds_per_call=1,
            calls=3,
        ),
    )
}
