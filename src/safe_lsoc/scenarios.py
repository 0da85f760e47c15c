"""UAV model, cost definitions, and validated scenario files.

State per vehicle is (x, y, v, phi): planar position, forward speed, heading.
Controls are (acceleration, turn rate); noise enters the same two channels.
Scenario JSON files describe agents, their communication graph, obstacles,
cost and sampling parameters, and the task (plain or composite); loading
validates the schema strictly and rejects physically inconsistent setups.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .compose import CompositionWeights, composition_weights
from .lsoc import (
    BallBoundary,
    BoxBoundary,
    LsocProblem,
    RolloutBatch,
    UnionDomain,
)
from .mas import AgentGraph, FactorialSubsystem, build_subsystems, joint_dynamics
from .sde import MAX_AGENTS, MAX_STEPS, ControlAffineDynamics, NoiseStream

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
    "parse_seeds",
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
    pen = np.zeros(pos0.shape[:-1])
    for ob in obstacles:
        pen = pen + ob.soft_cost * ob.contains(pos0)
    return q + pen


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


@dataclass(frozen=True)
class FinalCost:
    """Parameters c, d, alpha of final_cost."""

    c: float = 0.0
    d: float = 2.0
    alpha: float = 0.0


@dataclass(frozen=True)
class CostParams:
    goal_weight: float = 1.0
    pair_weight: float = 0.0
    coop_pairs: tuple[tuple[int, int], ...] = ()
    final: FinalCost = FinalCost()


@dataclass(frozen=True)
class PiParams:
    rollouts: int = 2000
    horizon_steps: int = 60
    temperature: float = 1.0
    sigma: float = 0.05
    nu: float = 0.025


@dataclass(frozen=True)
class SimParams:
    dt: float
    max_time: float
    seeds: tuple[int, ...]
    target_radius: float = 1.0
    domain: tuple[tuple[float, float], tuple[float, float]] = (
        (-5.0, 45.0), (-5.0, 40.0)
    )

    @property
    def max_steps(self) -> int:
        """Control steps in a run that never finishes early."""
        return int(round(self.max_time / self.dt))


@dataclass(frozen=True)
class ComponentSpec:
    targets: np.ndarray  # (n_agents, 2)
    final: FinalCost


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
        return targets, (ComponentSpec(targets, self.costs.final),)


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


def _read(cls, obj, path: str, rules: dict[str, Callable]):
    """Read the JSON object obj into the schema dataclass cls.

    The fields without a default are required; a key left out keeps its
    field's default.  rules[key] parses the value of key with the path
    "{path}.{key}", and a range error of cls itself is reported under path.
    """
    fields = dataclasses.fields(cls)
    names = [f.name for f in fields]
    required = [f.name for f in fields if f.default is dataclasses.MISSING]
    _require_keys(obj, path, required, names)
    values = {k: rules[k](obj[k], f"{path}.{k}") for k in names if k in obj}
    try:
        return cls(**values)
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _number(value, path: str) -> float:
    """The one number rule: a finite JSON int or float, never a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{path}: expected a number")
    try:
        v = float(value)
    except OverflowError:  # an integer beyond the float range
        v = math.inf
    if not math.isfinite(v):
        raise ScenarioError(f"{path}: must be finite")
    return v


def _numbers(value, path: str, length: int) -> np.ndarray:
    if not isinstance(value, list) or len(value) != length:
        raise ScenarioError(f"{path}: expected {length} finite numbers")
    return np.array([_number(v, f"{path}[{k}]") for k, v in enumerate(value)])


def _positive(value, path: str) -> float:
    v = _number(value, path)
    if v <= 0:
        raise ScenarioError(f"{path}: must be a positive number")
    return v


def _integer(value, path: str, minimum: int = 0) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ScenarioError(f"{path}: expected an integer >= {minimum}")
    return value


def _list(value, path: str) -> list:
    if not isinstance(value, list):
        raise ScenarioError(f"{path}: expected a list")
    return value


def _agent_pair(value, path: str) -> tuple[int, int]:
    if not isinstance(value, list) or len(value) != 2:
        raise ScenarioError(f"{path}: expected [i, j]")
    return _integer(value[0], path), _integer(value[1], path)


def parse_seeds(values, path: str) -> tuple[int, ...]:
    """The rule of every seed list: a non-empty list of distinct integers >= 0."""
    if not _list(values, path):
        raise ScenarioError(f"{path}: expected a non-empty list")
    seeds = tuple(_integer(s, f"{path}[{k}]") for k, s in enumerate(values))
    for k, s in enumerate(seeds):
        if s in seeds[:k]:
            raise ScenarioError(f"{path}[{k}]: duplicate seed {s}")
    return seeds


def _parse_domain(value, path: str) -> tuple[tuple[float, float], ...]:
    if not isinstance(value, list) or len(value) != 2:
        raise ScenarioError(f"{path}: expected [[xlo, xhi], [ylo, yhi]]")
    (xlo, xhi), (ylo, yhi) = (
        _numbers(row, f"{path}[{k}]", 2).tolist() for k, row in enumerate(value)
    )
    if xlo >= xhi or ylo >= yhi:
        raise ScenarioError(f"{path}: box must have positive extent")
    return (xlo, xhi), (ylo, yhi)


def _parse_targets(value, path: str, n_agents: int) -> np.ndarray:
    """Accept one [x, y] broadcast to all agents, or one pair per agent."""
    if not (_list(value, path) and isinstance(value[0], list)):
        return np.tile(_numbers(value, path, 2), (n_agents, 1))
    if len(value) != n_agents:
        raise ScenarioError(
            f"{path}: expected [x, y] or one [x, y] per agent ({n_agents})"
        )
    return np.array([_numbers(t, f"{path}[{i}]", 2) for i, t in enumerate(value)])


_AGENT_RULES = {
    "start": lambda v, path: _numbers(v, path, UAV_DIM),
    "target": lambda v, path: _numbers(v, path, 2),
}
_OBSTACLE_RULES = {
    "center": lambda v, path: tuple(_numbers(v, path, 2)),
    "radius": _number,
    "margin": _number,
    "soft_cost": _number,
}
_FINAL_RULES = {"c": _number, "d": _positive, "alpha": _number}
_PI_RULES = {
    "rollouts": lambda v, path: _integer(v, path, 1),
    "horizon_steps": lambda v, path: _integer(v, path, 1),
    "temperature": _positive,
    "sigma": _positive,
    "nu": _positive,
}
_SIM_RULES = {
    "dt": _positive,
    "max_time": _positive,
    "seeds": parse_seeds,
    "target_radius": _positive,
    "domain": _parse_domain,
}


def _parse_component(
    entry: dict, path: str, n_agents: int, shared: FinalCost
) -> ComponentSpec:
    # "id" is a free-form label for the reader; nothing stores it.
    _require_keys(entry, path, ["targets"], ["id", "final"])
    targets = _parse_targets(entry["targets"], f"{path}.targets", n_agents)
    if "final" in entry:
        return ComponentSpec(
            targets, _read(FinalCost, entry["final"], f"{path}.final", _FINAL_RULES)
        )
    return ComponentSpec(targets, shared)


def _parse_task(raw, n_agents: int, shared: FinalCost) -> TaskSpec:
    _require_keys(raw, "task", ["mode"], ["components", "new_target", "kernel_width"])
    mode = raw["mode"]
    if mode not in ("single", "composite"):
        raise ScenarioError(
            f"task.mode: expected 'single' or 'composite', got {mode!r}"
        )
    if mode == "single":
        for key in ("components", "new_target", "kernel_width"):
            if key in raw:
                raise ScenarioError(f"task.{key}: only valid in composite mode")
        return TaskSpec(mode="single")
    if "components" not in raw or "new_target" not in raw:
        raise ScenarioError("task: composite mode requires components and new_target")
    comps = tuple(
        _parse_component(entry, f"task.components[{f}]", n_agents, shared)
        for f, entry in enumerate(_list(raw["components"], "task.components"))
    )
    if not comps:
        raise ScenarioError("task.components: need at least one component")
    kernel_width = TaskSpec.kernel_width
    if "kernel_width" in raw:
        kernel_width = _positive(raw["kernel_width"], "task.kernel_width")
    new_targets = _parse_targets(raw["new_target"], "task.new_target", n_agents)
    return TaskSpec("composite", comps, new_targets, kernel_width)


def _parse_coop_pairs(value, path: str, graph: AgentGraph) -> tuple:
    pairs = set()
    for k, pair in enumerate(_list(value, path)):
        i, j = _agent_pair(pair, f"{path}[{k}]")
        if frozenset((i, j)) not in graph.edges:
            raise ScenarioError(
                f"{path}[{k}]: cooperation pair ({i}, {j}) is not a graph edge"
            )
        pairs.add((min(i, j), max(i, j)))
    return tuple(sorted(pairs))


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

    if not isinstance(raw["agents"], list) or not raw["agents"]:
        raise ScenarioError("agents: expected a non-empty list")
    if len(raw["agents"]) > MAX_AGENTS:
        raise ScenarioError(
            f"agents: {len(raw['agents'])} agents; the noise streams address "
            f"at most {MAX_AGENTS}"
        )
    agents = tuple(
        _read(AgentSpec, entry, f"agents[{i}]", _AGENT_RULES)
        for i, entry in enumerate(raw["agents"])
    )
    edges = [
        _agent_pair(e, f"edges[{k}]")
        for k, e in enumerate(_list(raw.get("edges", []), "edges"))
    ]
    try:
        graph = AgentGraph.from_edge_list(len(agents), edges)
    except ValueError as exc:
        raise ScenarioError(f"edges: {exc}") from exc
    obstacles = tuple(
        _read(Obstacle, entry, f"obstacles[{j}]", _OBSTACLE_RULES)
        for j, entry in enumerate(_list(raw["obstacles"], "obstacles"))
    )
    costs = _read(CostParams, raw.get("costs", {}), "costs", {
        "goal_weight": _number,
        "pair_weight": _number,
        "coop_pairs": lambda v, path: _parse_coop_pairs(v, path, graph),
        "final": lambda v, path: _read(FinalCost, v, path, _FINAL_RULES),
    })
    pi = _read(PiParams, raw.get("pi", {}), "pi", _PI_RULES)
    sim = _read(SimParams, raw["sim"], "sim", _SIM_RULES)
    # The ratio test comes first: an infinite ratio has no step count.
    if not sim.max_time / sim.dt < MAX_STEPS or sim.max_steps >= MAX_STEPS:
        raise ScenarioError(
            f"sim.max_time: {sim.max_time} over sim.dt {sim.dt} is {MAX_STEPS} "
            "control steps or more; the noise streams address fewer"
        )
    if sim.max_steps < 1:
        raise ScenarioError(
            f"sim.max_time: {sim.max_time} rounds to no control step of "
            f"sim.dt {sim.dt}"
        )

    scenario = Scenario(
        name=name or path.stem,
        agents=agents,
        graph=graph,
        obstacles=obstacles,
        costs=costs,
        pi=pi,
        sim=sim,
        task=_parse_task(raw["task"], len(agents), costs.final),
    )
    validate_physics(scenario)
    return scenario


def validate_physics(sc: Scenario) -> None:
    """Reject setups the solver cannot honestly run."""
    (xlo, xhi), (ylo, yhi) = sc.sim.domain

    def in_box(path: str, point: np.ndarray) -> None:
        if not (xlo < point[0] < xhi and ylo < point[1] < yhi):
            raise ScenarioError(f"{path}: outside the domain box")

    targets, components = sc.task_view()
    for i, a in enumerate(sc.agents):
        in_box(f"agents[{i}].start", a.start)
        if np.linalg.norm(a.start[:2] - targets[i]) <= sc.sim.target_radius:
            raise ScenarioError(
                f"agents[{i}].start: within sim.target_radius of its target"
            )
    # Each target point once: a plain task's run targets are the agents' own.
    points = [(f"agents[{i}].target", a.target) for i, a in enumerate(sc.agents)]
    if sc.task.mode == "composite":
        points += [
            (f"task.components[{f}].targets (agent {i})", t)
            for f, comp in enumerate(components)
            for i, t in enumerate(comp.targets)
        ]
        points += [(f"task.new_target (agent {i})", t) for i, t in enumerate(targets)]
    for path, t in points:
        in_box(path, t)
        for j, ob in enumerate(sc.obstacles):
            if np.linalg.norm(t - np.asarray(ob.center)) <= ob.keepout_radius:
                raise ScenarioError(
                    f"{path}: ({float(t[0])}, {float(t[1])}) lies inside "
                    f"obstacle {j}'s keep-out disc"
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


def subsystem_final_cost(sc: Scenario, sub: FactorialSubsystem, comp: ComponentSpec):
    """Sum of per-member final costs of one component task."""
    member_targets = comp.targets[list(sub.members)]
    c, d, alpha = comp.final.c, comp.final.d, comp.final.alpha

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
    sc: Scenario, sub: FactorialSubsystem, targets: np.ndarray
) -> LsocProblem:
    """First-exit problem one agent solves over its factorial subsystem.

    The running cost is running_cost_coop with the terms of
    subsystem_cost_terms; every component shares it, each with the terminal
    cost subsystem_final_cost builds.  The exit set is the central agent's
    target ball (parts[0]) or leaving the arena box.
    """
    terms = subsystem_cost_terms(sc, sub, targets)
    (xlo, xhi), (ylo, yhi) = sc.sim.domain
    return LsocProblem(
        dynamics=joint_dynamics(sc.agent_dynamics(), sub.size),
        running_cost=lambda x: running_cost_coop(
            x, *terms, sc.costs.pair_weight, sc.obstacles
        ),
        domain=UnionDomain([
            BallBoundary((0, 1), terms[0][0], sc.sim.target_radius),
            BoxBoundary((0, 1), np.array([xlo, ylo]), np.array([xhi, yhi])),
        ]),
        lam=sc.pi.temperature,
    )


class RolloutSampler(NamedTuple):
    """The two stages of a subsystem's rollout batch.

    draw(stream) returns the batch's noise, a (horizon, K, 2 * n_members)
    array; integrate(x0, dw) runs the horizon from the joint state x0 on
    that noise.  The stages share no state, so a caller may draw one
    batch's noise while another batch integrates.
    """

    draw: Callable[[NoiseStream], np.ndarray]
    integrate: Callable[[np.ndarray, np.ndarray], RolloutBatch]

    def sample(self, x0: np.ndarray, stream: NoiseStream) -> RolloutBatch:
        return self.integrate(x0, self.draw(stream))


def subsystem_rollouts(
    sc: Scenario, sub: FactorialSubsystem, targets: np.ndarray
) -> RolloutSampler:
    """Rollout sampler of one subsystem; the closed loop's only sampler.

    The returned sample(x0, stream) computes what rollout_batch on
    subsystem_problem(sc, sub, targets) computes with the run's dt, horizon
    and rollout count, bit for bit, for the stacked unicycles the schema
    describes.  It checks no input: the loader and em_step guarantee them,
    and rollout_batch is the checked oracle.  The state is one
    (4, n_members, K) array of x, y, v, phi rows.  The input and noise
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

    def draw(stream: NoiseStream) -> np.ndarray:
        return stream.generator().normal(
            0.0, np.sqrt(dt), size=(horizon, n_rollouts, 2 * n)
        )

    def integrate(x0: np.ndarray, dw: np.ndarray) -> RolloutBatch:
        start = np.asarray(x0, dtype=float).reshape(n, UAV_DIM).T[:, :, None]
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
        )

    return RolloutSampler(draw, integrate)


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
