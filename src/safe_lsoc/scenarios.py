"""UAV model, cost definitions, and validated scenario files.

State per vehicle is (x, y, v, phi): planar position, forward speed, heading.
Controls are (acceleration, turn rate); noise enters the same two channels.
Scenario JSON files describe agents, their communication graph, obstacles,
cost and sampling parameters, and the task (plain or composite); loading
validates the schema strictly and rejects physically inconsistent setups.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .compose import CompositionWeights, composition_weights
from .lsoc import (
    BallBoundary,
    BoxBoundary,
    FirstExitDomain,
    LsocProblem,
    RolloutBatch,
    UnionDomain,
)
from .mas import AgentGraph, FactorialSubsystem, build_subsystems, joint_dynamics
from .sde import ControlAffineDynamics, NoiseStream

__all__ = [
    "Obstacle",
    "Scenario",
    "ScenarioError",
    "uav_drift",
    "uav_dynamics",
    "obstacle_discs",
    "disc_barriers",
    "running_cost_coop",
    "final_cost",
    "load_scenario",
    "validate_physics",
    "bundled_scenario_path",
    "list_bundled_scenarios",
]

UAV_DIM = 4
UAV_INPUTS = 2


def uav_drift(x: np.ndarray) -> np.ndarray:
    """Passive kinematics (v cos phi, v sin phi, 0, 0); vectorized."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    v, phi = x[..., 2], x[..., 3]
    out[..., 0] = v * np.cos(phi)
    out[..., 1] = v * np.sin(phi)
    return out


_UAV_B = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def uav_dynamics(sigma: float = 0.05, nu: float = 0.025) -> ControlAffineDynamics:
    """Single-vehicle dynamics; controls and noise act on (v, phi) only."""
    if sigma <= 0 or nu <= 0:
        raise ValueError("noise levels must be positive")
    return ControlAffineDynamics(
        state_dim=UAV_DIM,
        input_dim=UAV_INPUTS,
        drift=uav_drift,
        control_matrix=_UAV_B,
        noise_cov=np.diag([sigma, nu]),
    )


@dataclass(frozen=True)
class Obstacle:
    """Disc keep-out region with a commanded safety margin and soft cost."""

    center: tuple[float, float]
    radius: float
    margin: float
    soft_cost: float = 160.0

    def __post_init__(self) -> None:
        # The comparisons are false for NaN, so NaN fails each test.
        if not 0 < self.radius < math.inf:
            raise ValueError("obstacle radius must be positive and finite")
        if not 0 <= self.margin < math.inf:
            raise ValueError("obstacle margin must be non-negative and finite")
        if not 0 <= self.soft_cost < math.inf:
            raise ValueError("obstacle soft cost must be non-negative and finite")

    @property
    def keepout_radius(self) -> float:
        return self.radius + self.margin

    def contains(self, pos: np.ndarray) -> np.ndarray:
        """Inside the physical disc (soft-cost region), margin excluded."""
        pos = np.asarray(pos, dtype=float)
        d = pos - np.asarray(self.center)
        return np.einsum("...i,...i->...", d, d) < self.radius**2


def obstacle_discs(obstacles: Sequence[Obstacle]) -> np.ndarray:
    """(n_obs, 3) table of cx, cy, (radius + margin)^2 for disc_barriers."""
    return np.array(
        [[ob.center[0], ob.center[1], ob.keepout_radius**2] for ob in obstacles],
        dtype=float,
    ).reshape(-1, 3)


def disc_barriers(
    x: np.ndarray, discs: np.ndarray, noise_cov: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form barrier chain of every keep-out disc at stacked vehicle states.

    Under the unicycle a disc has relative degree 1.  With dx = x - cx,
    dy = y - cy, r = dx cos(phi) + dy sin(phi),
    k = 2 (dy cos(phi) - dx sin(phi)) and S_v, S_phi the rows of the noise
    matrix:

        h0 = dx^2 + dy^2 - rho^2,   h1 = h0 + 2 v r,
        a  = (2 r, v k),
        b  = -h1 - (2 v^2 + 2 v r) - (k S_v.S_phi - v r |S_phi|^2).

    For states x (..., 4) it returns h (..., n_obs, 2) with the levels h0,
    h1, and the top-level half-spaces a . u >= b as A (..., n_obs, 2) and
    b (..., n_obs).  These are the values the finite-difference chain of
    zcbf (chain_lift and constraint_coeffs) approximates; the position rows
    of B are zero, so no lower level couples to the control.
    """
    px, py, v, phi = (x[..., j, None] for j in range(UAV_DIM))
    c, s = np.cos(phi), np.sin(phi)
    dx = px - discs[:, 0]
    dy = py - discs[:, 1]
    h0 = dx * dx + dy * dy - discs[:, 2]
    r = dx * c + dy * s
    h1 = h0 + 2.0 * v * r
    k = 2.0 * (dy * c - dx * s)
    s_v, s_phi = np.asarray(noise_cov, dtype=float)
    trace = k * float(s_v @ s_phi) - v * r * float(s_phi @ s_phi)
    a = np.stack([2.0 * r, v * k], axis=-1)
    b = -h1 - (2.0 * v * v + 2.0 * v * r) - trace
    return np.stack([h0, h1], axis=-1), a, b


def _obstacle_penalty(
    pos: np.ndarray, obstacles: Sequence[Obstacle]
) -> np.ndarray:
    pen = np.zeros(np.asarray(pos).shape[:-1])
    for ob in obstacles:
        pen = pen + ob.soft_cost * ob.contains(pos)
    return pen


def running_cost_coop(
    joint_states: np.ndarray,
    member_targets: np.ndarray,
    d_max: float,
    pair_blocks: Sequence[tuple[int, float]],
    goal_weight: float,
    pair_weight: float,
    obstacles: Sequence[Obstacle] = (),
) -> np.ndarray:
    """Joint running cost for one subsystem, central agent in block 0.

    q = clamp(gw (||p_0 - t_0|| - d_max)
              + pw sum_j (||p_0 - p_j|| - d_0j), 0) + obstacle penalty(p_0).
    pair_blocks lists (member block index, initial pair distance) for the
    cooperation partners of the central agent.
    """
    joint_states = np.asarray(joint_states, dtype=float)
    pos0 = joint_states[..., 0:2]
    target0 = np.asarray(member_targets, dtype=float)[0]
    q = goal_weight * (np.linalg.norm(pos0 - target0, axis=-1) - d_max)
    for block, d_pair in pair_blocks:
        pos_j = joint_states[..., UAV_DIM * block : UAV_DIM * block + 2]
        q = q + pair_weight * (
            np.linalg.norm(pos0 - pos_j, axis=-1) - d_pair
        )
    q = np.maximum(q, 0.0)
    return q + _obstacle_penalty(pos0, obstacles)


def final_cost(
    states: np.ndarray,
    target: np.ndarray,
    c: float = 0.0,
    d: float = 2.0,
    alpha: float = 0.0,
) -> np.ndarray:
    """phi = (d/2) (|x - tx| + |y - ty| + c) + alpha on the position pair."""
    states = np.asarray(states, dtype=float)
    target = np.asarray(target, dtype=float)
    l1 = np.sum(np.abs(states[..., :2] - target), axis=-1)
    return (d / 2.0) * (l1 + c) + alpha


class ScenarioError(ValueError):
    """Scenario file failed schema or physical validation."""


@dataclass(frozen=True)
class AgentSpec:
    start: np.ndarray
    target: np.ndarray


# Only load_scenario builds these three; it holds their defaults.
@dataclass(frozen=True)
class CostParams:
    goal_weight: float
    pair_weight: float
    coop_pairs: tuple[tuple[int, int], ...]
    final_c: float
    final_d: float
    final_alpha: float


@dataclass(frozen=True)
class PiParams:
    rollouts: int
    horizon_steps: int
    temperature: float
    sigma: float
    nu: float


@dataclass(frozen=True)
class SimParams:
    dt: float
    max_time: float
    seeds: tuple[int, ...]
    target_radius: float
    domain: tuple[tuple[float, float], tuple[float, float]]

    @property
    def max_steps(self) -> int:
        """Control steps in a run that never finishes early."""
        return int(round(self.max_time / self.dt))


@dataclass(frozen=True)
class ComponentSpec:
    targets: np.ndarray  # (n_agents, 2)
    final_c: float
    final_d: float
    final_alpha: float


@dataclass(frozen=True)
class TaskSpec:
    mode: str  # "single" or "composite"
    components: tuple[ComponentSpec, ...] = ()
    new_targets: np.ndarray | None = None  # (n_agents, 2)
    kernel_width: float = 0.02


@dataclass(frozen=True)
class Scenario:
    """Fully validated scenario ready for the runners."""

    name: str
    agents: tuple[AgentSpec, ...]
    graph: AgentGraph
    obstacles: tuple[Obstacle, ...]
    costs: CostParams
    pi: PiParams
    sim: SimParams
    task: TaskSpec

    @property
    def n_agents(self) -> int:
        return len(self.agents)

    def agent_dynamics(self) -> ControlAffineDynamics:
        return uav_dynamics(self.pi.sigma, self.pi.nu)

    def task_view(self) -> tuple[np.ndarray, tuple[ComponentSpec, ...]]:
        """The (n_agents, 2) targets a run steers toward, and its components.

        A plain task is the one-component case: the agents' own targets under
        the costs.final terminal cost.  The view is derived on each call, so
        a scenario rebuilt with dataclasses.replace stays consistent.
        """
        if self.task.mode == "composite":
            return self.task.new_targets, self.task.components
        targets = np.stack([a.target for a in self.agents])
        c = self.costs
        return targets, (ComponentSpec(targets, c.final_c, c.final_d, c.final_alpha),)


def _require_keys(
    obj: dict, path: str, required: Sequence[str], optional: Sequence[str] = ()
) -> None:
    if not isinstance(obj, dict):
        raise ScenarioError(f"{path}: expected an object")
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise ScenarioError(f"{path}: unknown keys {sorted(unknown)}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise ScenarioError(f"{path}: missing required keys {missing}")


def _float_array(value, path: str) -> np.ndarray:
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{path}: expected numbers") from exc


def _as_floats(value, path: str, length: int) -> np.ndarray:
    arr = _float_array(value, path)
    if arr.shape != (length,) or not np.all(np.isfinite(arr)):
        raise ScenarioError(f"{path}: expected {length} finite numbers")
    return arr


def _number(value, path: str) -> float:
    try:
        v = float(value)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{path}: expected a number") from exc
    if not math.isfinite(v):
        raise ScenarioError(f"{path}: must be finite")
    return v


def _positive(value, path: str) -> float:
    v = _number(value, path)
    if v <= 0:
        raise ScenarioError(f"{path}: must be a positive number")
    return v


def _integer(value, path: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ScenarioError(f"{path}: expected an integer >= {minimum}")
    return value


def _list(value, path: str) -> list:
    if not isinstance(value, list):
        raise ScenarioError(f"{path}: expected a list")
    return value


def _parse_component(
    entry: dict, index: int, n_agents: int, defaults: CostParams
) -> ComponentSpec:
    path = f"task.components[{index}]"
    # "id" is a free-form label for the reader; nothing stores it.
    _require_keys(entry, path, ["targets"], ["id", "final"])
    targets = _parse_targets(entry["targets"], f"{path}.targets", n_agents)
    c, d, alpha = defaults.final_c, defaults.final_d, defaults.final_alpha
    if "final" in entry:
        fin = entry["final"]
        _require_keys(fin, f"{path}.final", [], ["c", "d", "alpha"])
        c = _number(fin.get("c", c), f"{path}.final.c")
        d = _positive(fin.get("d", d), f"{path}.final.d")
        alpha = _number(fin.get("alpha", alpha), f"{path}.final.alpha")
    return ComponentSpec(targets=targets, final_c=c, final_d=d, final_alpha=alpha)


def _parse_targets(value, path: str, n_agents: int) -> np.ndarray:
    """Accept one [x, y] broadcast to all agents, or one pair per agent."""
    arr = _float_array(value, path)
    if arr.shape == (2,):
        arr = np.tile(arr, (n_agents, 1))
    if arr.shape != (n_agents, 2) or not np.all(np.isfinite(arr)):
        raise ScenarioError(
            f"{path}: expected [x, y] or one [x, y] per agent ({n_agents})"
        )
    return arr


def load_scenario(path: str | Path, name: str | None = None) -> Scenario:
    """Parse and validate a scenario file; raise ScenarioError on any defect."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    _require_keys(
        raw, "scenario", ["agents", "obstacles", "sim", "task"],
        ["edges", "costs", "pi"],
    )

    # Agents.
    if not isinstance(raw["agents"], list) or not raw["agents"]:
        raise ScenarioError("agents: expected a non-empty list")
    agents = []
    for i, entry in enumerate(raw["agents"]):
        apath = f"agents[{i}]"
        _require_keys(entry, apath, ["start", "target"])
        agents.append(
            AgentSpec(
                start=_as_floats(entry["start"], f"{apath}.start", UAV_DIM),
                target=_as_floats(entry["target"], f"{apath}.target", 2),
            )
        )
    n_agents = len(agents)

    try:
        graph = AgentGraph.from_edge_list(n_agents, raw.get("edges", []))
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"edges: {exc}") from exc

    obstacles = []
    for j, entry in enumerate(_list(raw["obstacles"], "obstacles")):
        opath = f"obstacles[{j}]"
        _require_keys(entry, opath, ["center", "radius", "margin"], ["soft_cost"])
        center = _as_floats(entry["center"], f"{opath}.center", 2)
        radius = _positive(entry["radius"], f"{opath}.radius")
        margin = _number(entry["margin"], f"{opath}.margin")
        soft_cost = _number(entry.get("soft_cost", 160.0), f"{opath}.soft_cost")
        try:
            obstacles.append(Obstacle(tuple(center), radius, margin, soft_cost))
        except ValueError as exc:
            raise ScenarioError(f"{opath}: {exc}") from exc

    costs_raw = raw.get("costs", {})
    _require_keys(
        costs_raw, "costs", [],
        ["goal_weight", "pair_weight", "coop_pairs", "final"],
    )
    fin = costs_raw.get("final", {})
    _require_keys(fin, "costs.final", [], ["c", "d", "alpha"])
    coop_pairs = []
    pairs = _list(costs_raw.get("coop_pairs", []), "costs.coop_pairs")
    for k, pair in enumerate(pairs):
        ppath = f"costs.coop_pairs[{k}]"
        if not isinstance(pair, list) or len(pair) != 2:
            raise ScenarioError(f"{ppath}: expected [i, j]")
        i, j = (_integer(a, ppath, 0) for a in pair)
        if frozenset((i, j)) not in graph.edges:
            raise ScenarioError(
                f"{ppath}: cooperation pair ({i}, {j}) is not a graph edge"
            )
        coop_pairs.append((min(i, j), max(i, j)))
    costs = CostParams(
        goal_weight=_number(costs_raw.get("goal_weight", 1.0), "costs.goal_weight"),
        pair_weight=_number(costs_raw.get("pair_weight", 0.0), "costs.pair_weight"),
        coop_pairs=tuple(sorted(set(coop_pairs))),
        final_c=_number(fin.get("c", 0.0), "costs.final.c"),
        final_d=_positive(fin.get("d", 2.0), "costs.final.d"),
        final_alpha=_number(fin.get("alpha", 0.0), "costs.final.alpha"),
    )

    pi_raw = raw.get("pi", {})
    _require_keys(
        pi_raw, "pi", [],
        ["rollouts", "horizon_steps", "temperature", "sigma", "nu"],
    )
    pi = PiParams(
        rollouts=_integer(pi_raw.get("rollouts", 2000), "pi.rollouts", 1),
        horizon_steps=_integer(
            pi_raw.get("horizon_steps", 60), "pi.horizon_steps", 1
        ),
        temperature=_positive(pi_raw.get("temperature", 1.0), "pi.temperature"),
        sigma=_positive(pi_raw.get("sigma", 0.05), "pi.sigma"),
        nu=_positive(pi_raw.get("nu", 0.025), "pi.nu"),
    )

    sim_raw = raw["sim"]
    _require_keys(
        sim_raw, "sim", ["dt", "max_time", "seeds"],
        ["target_radius", "domain"],
    )
    seeds = _list(sim_raw["seeds"], "sim.seeds")
    if not seeds:
        raise ScenarioError("sim.seeds: expected a non-empty list")
    domain_raw = sim_raw.get("domain", [[-5.0, 45.0], [-5.0, 40.0]])
    try:
        (xlo, xhi), (ylo, yhi) = domain_raw
    except (TypeError, ValueError) as exc:
        raise ScenarioError("sim.domain: expected [[xlo, xhi], [ylo, yhi]]") from exc
    xlo, xhi, ylo, yhi = (
        _number(v, f"sim.domain[{k // 2}][{k % 2}]")
        for k, v in enumerate((xlo, xhi, ylo, yhi))
    )
    if xlo >= xhi or ylo >= yhi:
        raise ScenarioError("sim.domain: box must have positive extent")
    sim = SimParams(
        dt=_positive(sim_raw["dt"], "sim.dt"),
        max_time=_positive(sim_raw["max_time"], "sim.max_time"),
        seeds=tuple(
            _integer(s, f"sim.seeds[{k}]", 0) for k, s in enumerate(seeds)
        ),
        target_radius=_positive(sim_raw.get("target_radius", 1.0), "sim.target_radius"),
        domain=((xlo, xhi), (ylo, yhi)),
    )
    if sim.max_steps < 1:
        raise ScenarioError(
            f"sim.max_time: {sim.max_time} rounds to no control step of "
            f"sim.dt {sim.dt}"
        )
    for k, s in enumerate(sim.seeds):
        if s in sim.seeds[:k]:
            raise ScenarioError(f"sim.seeds[{k}]: duplicate seed {s}")

    task_raw = raw["task"]
    _require_keys(
        task_raw, "task", ["mode"],
        ["components", "new_target", "kernel_width"],
    )
    mode = task_raw["mode"]
    if mode not in ("single", "composite"):
        raise ScenarioError(f"task.mode: expected 'single' or 'composite', got {mode!r}")
    if mode == "single":
        for key in ("components", "new_target", "kernel_width"):
            if key in task_raw:
                raise ScenarioError(f"task.{key}: only valid in composite mode")
        task = TaskSpec(mode="single")
    else:
        if "components" not in task_raw or "new_target" not in task_raw:
            raise ScenarioError(
                "task: composite mode requires components and new_target"
            )
        entries = _list(task_raw["components"], "task.components")
        comps = tuple(
            _parse_component(entry, f, n_agents, costs)
            for f, entry in enumerate(entries)
        )
        if not comps:
            raise ScenarioError("task.components: need at least one component")
        new_targets = _parse_targets(
            task_raw["new_target"], "task.new_target", n_agents
        )
        task = TaskSpec(
            mode="composite",
            components=comps,
            new_targets=new_targets,
            kernel_width=_positive(
                task_raw.get("kernel_width", 0.02), "task.kernel_width"
            ),
        )

    scenario = Scenario(
        name=name or path.stem,
        agents=tuple(agents),
        graph=graph,
        obstacles=tuple(obstacles),
        costs=costs,
        pi=pi,
        sim=sim,
        task=task,
    )
    validate_physics(scenario)
    return scenario


def validate_physics(sc: Scenario) -> None:
    """Reject setups the solver cannot honestly run."""
    (xlo, xhi), (ylo, yhi) = sc.sim.domain
    targets, components = sc.task_view()
    all_targets = [a.target for a in sc.agents]
    all_targets.extend(t for comp in components for t in comp.targets)
    all_targets.extend(targets)
    for i, a in enumerate(sc.agents):
        px, py = a.start[0], a.start[1]
        if not (xlo < px < xhi and ylo < py < yhi):
            raise ScenarioError(f"agents[{i}].start: outside the domain box")
        if np.linalg.norm(a.start[:2] - targets[i]) <= sc.sim.target_radius:
            raise ScenarioError(
                f"agents[{i}].start: within sim.target_radius of its target"
            )
    for t in all_targets:
        if not (xlo < t[0] < xhi and ylo < t[1] < yhi):
            raise ScenarioError("target outside the domain box")
        for j, ob in enumerate(sc.obstacles):
            if np.linalg.norm(np.asarray(t) - np.asarray(ob.center)) <= ob.keepout_radius:
                raise ScenarioError(
                    f"target {tuple(t)} lies inside obstacle {j}'s keep-out disc"
                )

    discs = obstacle_discs(sc.obstacles)
    starts = np.array([a.start for a in sc.agents])
    h = disc_barriers(starts, discs, sc.agent_dynamics().noise_cov)[0]
    unsafe = np.argwhere(np.any(h < 0.0, axis=2).T)  # rows (obstacle, agent)
    if len(unsafe):
        j, i = unsafe[0]
        raise ScenarioError(f"agents[{i}] starts outside the safe set of obstacle {j}")
    for sub in build_subsystems(sc.graph):
        subsystem_composition_weights(sc, sub)


# Scenario -> solver plumbing ------------------------------------------------


def subsystem_domain(sc: Scenario, target: np.ndarray) -> FirstExitDomain:
    """Exit set for one subsystem: central target ball or arena box exit."""
    (xlo, xhi), (ylo, yhi) = sc.sim.domain
    return UnionDomain(
        parts=[
            BallBoundary(
                dims=(0, 1),
                center=np.asarray(target, dtype=float),
                radius=sc.sim.target_radius,
            ),
            BoxBoundary(dims=(0, 1), lower=np.array([xlo, ylo]), upper=np.array([xhi, yhi])),
        ]
    )


def subsystem_cost_terms(
    sc: Scenario,
    sub: FactorialSubsystem,
    targets: np.ndarray,
) -> tuple[np.ndarray, float, list[tuple[int, float]], float]:
    """Member targets, d_max, pair blocks and goal weight of one subsystem.

    d_max is the central agent's start distance to its target; pair_blocks
    lists (member block, start distance) for the central agent's cooperation
    partners inside the subsystem.  Agents in no cooperation pair weight
    their goal term at 1; cooperating agents use costs.goal_weight.
    """
    central = sub.central
    member_targets = np.asarray(targets, dtype=float)[list(sub.members)]
    d_max = float(np.linalg.norm(sc.agents[central].start[:2] - member_targets[0]))
    pair_blocks = []
    for (i, j) in sc.costs.coop_pairs:
        if central == i and j in sub.members:
            other = j
        elif central == j and i in sub.members:
            other = i
        else:
            continue
        d_pair = float(
            np.linalg.norm(sc.agents[central].start[:2] - sc.agents[other].start[:2])
        )
        pair_blocks.append((sub.block(other), d_pair))
    goal_weight = sc.costs.goal_weight if pair_blocks else 1.0
    return member_targets, d_max, pair_blocks, goal_weight


def subsystem_running_cost(
    sc: Scenario,
    sub: FactorialSubsystem,
    targets: np.ndarray,
):
    """Running-cost closure for one subsystem against the given agent targets.

    targets is the full (n_agents, 2) per-agent target array; the terms come
    from subsystem_cost_terms.
    """
    member_targets, d_max, pair_blocks, goal_weight = subsystem_cost_terms(
        sc, sub, targets
    )
    obstacles = sc.obstacles

    def q(x: np.ndarray) -> np.ndarray:
        return running_cost_coop(
            x,
            member_targets,
            d_max,
            pair_blocks,
            goal_weight,
            sc.costs.pair_weight,
            obstacles,
        )

    return q


def subsystem_final_cost(sc: Scenario, sub: FactorialSubsystem, comp: ComponentSpec):
    """Sum of per-member final costs of one component task."""
    member_targets = comp.targets[list(sub.members)]
    c, d, alpha = comp.final_c, comp.final_d, comp.final_alpha

    def phi(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        total = np.zeros(x.shape[:-1])
        for k in range(len(member_targets)):
            block = x[..., UAV_DIM * k : UAV_DIM * (k + 1)]
            total = total + final_cost(block, member_targets[k], c, d, alpha)
        return total

    return phi


def subsystem_composition_weights(
    sc: Scenario, sub: FactorialSubsystem
) -> CompositionWeights:
    """Kernel weights of the components around the run's targets.

    The distance is taken over the members' target positions, with the
    kernel task.kernel_width * I.  A plain task's one component sits on the
    run's targets and gets weight 1.
    """
    members = list(sub.members)
    targets, components = sc.task_view()
    new = targets[members].ravel()
    try:
        return composition_weights(
            [comp.targets[members].ravel() for comp in components],
            new,
            sc.task.kernel_width * np.eye(new.size),
        )
    except ValueError as exc:
        raise ScenarioError(
            f"task.kernel_width: agent {sub.central}: {exc}"
        ) from exc


def subsystem_problem(
    sc: Scenario,
    sub: FactorialSubsystem,
    targets: np.ndarray,
    final_cost: Callable[[np.ndarray], np.ndarray],
) -> LsocProblem:
    """First-exit problem one agent solves over its factorial subsystem.

    final_cost is the terminal cost the rollouts are scored with, as built
    by subsystem_final_cost.
    """
    targets = np.asarray(targets, dtype=float)
    return LsocProblem(
        dynamics=joint_dynamics(sc.agent_dynamics(), sub.size),
        running_cost=subsystem_running_cost(sc, sub, targets),
        final_cost=final_cost,
        domain=subsystem_domain(sc, targets[sub.central]),
        lam=sc.pi.temperature,
    )


def subsystem_rollouts(
    sc: Scenario,
    sub: FactorialSubsystem,
    targets: np.ndarray,
    final_cost: Callable[[np.ndarray], np.ndarray],
) -> Callable[[np.ndarray, NoiseStream], RolloutBatch]:
    """Rollout sampler of one subsystem; the closed loop's only sampler.

    The returned sample(x0, stream) computes what rollout_batch on
    subsystem_problem(sc, sub, targets, final_cost) computes with the run's
    dt, horizon and rollout count, bit for bit, for the stacked unicycles
    the schema describes.  It checks no input: the loader and em_step
    guarantee them, and rollout_batch is the checked oracle.  The state is
    one (4, n_members, K) array of x, y, v, phi rows.  The input and noise
    matrices only add sigma * dw to v and phi, distances are
    sqrt(dx*dx + dy*dy) as np.linalg.norm forms them, and disc penalties
    add in obstacle order.  A path stops at the target ball or the arena
    box of the central agent; a stopped path keeps its state, and a box
    exit is clipped onto the box.
    """
    member_targets, d_max, pair_blocks, goal_weight = subsystem_cost_terms(
        sc, sub, targets
    )
    target = member_targets[0].reshape(2, 1)
    pair_weight = sc.costs.pair_weight
    ball_r2 = sc.sim.target_radius**2
    lower, upper = np.array(sc.sim.domain, dtype=float).T.reshape(2, 2, 1)
    obstacles = sc.obstacles
    centers = np.array([ob.center for ob in obstacles], dtype=float).reshape(-1, 2, 1)
    radii2 = np.array([ob.radius**2 for ob in obstacles]).reshape(-1, 1)
    soft_costs = np.array([ob.soft_cost for ob in obstacles]).reshape(-1, 1)
    n = sub.size
    dt, horizon, n_rollouts = sc.sim.dt, sc.pi.horizon_steps, sc.pi.rollouts
    member_noise = sc.agent_dynamics().noise_cov
    noise_scale = np.diag(member_noise).reshape(2, 1, 1)
    noise_cov = np.kron(np.eye(n), member_noise)

    def goal_d2(pos: np.ndarray) -> np.ndarray:
        g = pos - target
        g *= g
        return g[0] + g[1]

    def exits(pos: np.ndarray, d2: np.ndarray) -> np.ndarray:
        out = (pos <= lower) | (pos >= upper)
        return (d2 <= ball_r2) | out[0] | out[1]

    def sample(x0: np.ndarray, stream: NoiseStream) -> RolloutBatch:
        start = np.asarray(x0, dtype=float).reshape(n, UAV_DIM).T[:, :, None]
        dw = stream.generator().normal(
            0.0, np.sqrt(dt), size=(horizon, n_rollouts, 2 * n)
        )
        state = np.repeat(start, n_rollouts, axis=2)
        pos, v_phi = state[0:2], state[2:4]  # (x, y) and (v, phi) rows
        pos0 = state[0:2, 0]  # the central agent's position, a view
        d2 = goal_d2(pos0)
        alive = np.ones(n_rollouts, dtype=bool)
        mask = True  # where= of the in-place updates: the running paths
        running = np.zeros(n_rollouts)
        exit_steps = np.full(n_rollouts, horizon, dtype=int)
        trig = np.empty((2, n, n_rollouts))
        noise = np.empty((2, n, n_rollouts))
        # In-place operations keep rollout_batch's operand order, so each
        # value is rounded exactly as there.
        for t in range(horizon):
            q = np.sqrt(d2)
            q -= d_max
            q *= goal_weight
            for block, d_pair in pair_blocks:
                e = pos0 - pos[:, block]
                e *= e
                e = e[0] + e[1]
                np.sqrt(e, out=e)
                e -= d_pair
                e *= pair_weight
                q += e
            np.maximum(q, 0.0, out=q)
            if len(centers):
                o = pos0 - centers
                o *= o
                terms = np.where(o[:, 0] + o[:, 1] < radii2, soft_costs, 0.0)
                pen = terms[0]
                for term in terms[1:]:
                    pen = pen + term
                q += pen
            q *= dt
            np.add(running, q, out=running, where=mask)
            np.cos(v_phi[1], out=trig[0])
            np.sin(v_phi[1], out=trig[1])
            trig *= v_phi[0]
            trig *= dt
            np.add(pos, trig, out=pos, where=mask)
            np.multiply(noise_scale, dw[t].reshape(n_rollouts, n, 2).T, out=noise)
            np.add(v_phi, noise, out=v_phi, where=mask)
            d2 = goal_d2(pos0)
            hit = exits(pos0, d2)
            hit &= alive
            if np.any(hit):
                exit_steps[hit] = t + 1
                alive &= ~hit
                mask = alive
                if not np.any(alive):
                    break
        # A stopped path still holds its exit state; a box exit is clipped.
        clip = ~alive & (d2 > ball_r2)
        pos0[:, clip] = np.clip(pos0[:, clip], lower, upper)
        exit_states = state.transpose(2, 1, 0).reshape(n_rollouts, n * UAV_DIM)
        return RolloutBatch(
            dt=dt,
            noise_cov=noise_cov,
            dw0=dw[0],
            exit_states=exit_states,
            exit_steps=exit_steps,
            running_costs=running,
            path_costs=running + np.asarray(final_cost(exit_states), dtype=float),
        )

    return sample


def bundled_scenario_path(name: str) -> Path:
    """Path of a scenario shipped inside the package."""
    base = resources.files("safe_lsoc").joinpath("data")
    candidate = base.joinpath(f"{name}.json")
    if not candidate.is_file():
        raise ScenarioError(
            f"no bundled scenario {name!r}; available: {list_bundled_scenarios()}"
        )
    return Path(str(candidate))


def list_bundled_scenarios() -> list[str]:
    base = resources.files("safe_lsoc").joinpath("data")
    return sorted(p.name[:-5] for p in base.iterdir() if p.name.endswith(".json"))
