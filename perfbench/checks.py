"""Output checks computed apart from the program.

Every check reads the scenario JSON file, the exported trajectory CSV and
metrics JSON, and the per-step records a RunResult carries (raw controls,
effective sample sizes, component weights).  None of them calls into
safe_lsoc: the barrier half-spaces, the projection and the kinematics are
recomputed here from their closed forms, so a program change that breaks
any of them shows as a failed run.

Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np

EXIT_TARGET = "target_reached"
EXIT_MAX_TIME = "max_time"
EXIT_INFEASIBLE = "safety_infeasible"

# The program builds its half-spaces by finite differences; they agree with
# the closed form to about 1e-8 absolute on a and 3e-8 relative on b, so
# 1e-6 of the constraint's own scale leaves a wide margin over that error
# while a control moved off its half-space by any visible amount still fails.
# Observed violations on the bundled scenarios stay below 10% of it.
HALF_SPACE_RTOL = 1e-6
# Projection of the raw control: same finite-difference error, amplified by
# 1/|a| where the constraint normal is short.  Observed errors on the bundled
# scenarios stay below 2% of this tolerance.
PROJECTION_RTOL = 1e-7
# Values the program computes with the same formula as this file: they may
# differ only by rounding.
ROUND_TOL = 1e-9
# Sampler outputs are normalised sums; a weight row sums to 1 up to rounding.
SUM_TOL = 1e-9
# Implied standard-normal increments of v and phi: sample mean and standard
# deviation must lie within this many standard errors of N(0, 1).
NOISE_SIGMAS = 6.0
NOISE_MIN_STEPS = 20


@dataclass(frozen=True)
class ScenarioFacts:
    """What the checks need from a scenario file, read without the program."""

    obstacles: np.ndarray  # (n_obs, 3): cx, cy, radius + margin
    targets: np.ndarray  # (n_agents, 2) targets the run steers toward
    target_radius: float
    domain: tuple[tuple[float, float], tuple[float, float]]
    dt: float
    max_steps: int
    sigma: float
    nu: float
    rollouts: int
    composite: bool

    @classmethod
    def from_json(cls, path: str | Path) -> "ScenarioFacts":
        raw = json.loads(Path(path).read_text())
        n_agents = len(raw["agents"])
        composite = raw["task"]["mode"] == "composite"
        if composite:
            targets = np.asarray(raw["task"]["new_target"], dtype=float)
            if targets.shape == (2,):
                targets = np.tile(targets, (n_agents, 1))
        else:
            targets = np.array([a["target"] for a in raw["agents"]], dtype=float)
        obstacles = np.array(
            [
                [o["center"][0], o["center"][1], o["radius"] + o["margin"]]
                for o in raw["obstacles"]
            ],
            dtype=float,
        ).reshape(-1, 3)
        sim, pi = raw["sim"], raw.get("pi", {})
        (xlo, xhi), (ylo, yhi) = sim.get("domain", [[-5.0, 45.0], [-5.0, 40.0]])
        return cls(
            obstacles=obstacles,
            targets=targets,
            target_radius=float(sim.get("target_radius", 1.0)),
            domain=((float(xlo), float(xhi)), (float(ylo), float(yhi))),
            dt=float(sim["dt"]),
            max_steps=int(round(sim["max_time"] / sim["dt"])),
            sigma=float(pi.get("sigma", 0.05)),
            nu=float(pi.get("nu", 0.025)),
            rollouts=int(pi.get("rollouts", 2000)),
            composite=composite,
        )


@dataclass
class AgentTrack:
    """One agent's rows of the trajectory CSV."""

    states: np.ndarray  # (T+1, 4): x, y, v, phi
    controls: np.ndarray  # (T, 2) applied controls
    h: dict[str, np.ndarray]  # column name -> (T+1,) barrier values


def read_trajectory_csv(path: str | Path) -> list[AgentTrack]:
    """Split the time-major CSV into one track per agent."""
    rows: dict[int, list[dict]] = {}
    with Path(path).open(newline="") as fh:
        for row in csv.DictReader(fh):
            rows.setdefault(int(row["agent"]), []).append(row)
    tracks = []
    for agent in range(len(rows)):
        agent_rows = rows[agent]
        states = np.array(
            [[float(r[k]) for k in ("x", "y", "v", "phi")] for r in agent_rows]
        )
        controls = np.array(
            [[float(r["u1"]), float(r["u2"])] for r in agent_rows if r["u1"] != ""]
        ).reshape(-1, 2)
        h_cols = [k for k in agent_rows[0] if k.startswith("h")]
        h = {k: np.array([float(r[k]) for r in agent_rows]) for k in h_cols}
        tracks.append(AgentTrack(states=states, controls=controls, h=h))
    return tracks


@dataclass
class RunOutput:
    """Everything one closed-loop run left behind, as the checks see it."""

    mode: str
    tracks: list[AgentTrack]
    metrics: dict  # the exported metrics JSON
    raw_controls: list[np.ndarray]  # per agent, (T, 2)
    ess: list[np.ndarray]  # per agent, (T,)
    weights: list[np.ndarray | None]  # per agent, (T, F) in composite runs

    @property
    def filtered(self) -> bool:
        return self.mode == "filtered"


def barrier_h0(facts: ScenarioFacts, states: np.ndarray) -> np.ndarray:
    """(T, n_obs) disc barrier (x-cx)^2 + (y-cy)^2 - (r+m)^2."""
    d = states[:, None, :2] - facts.obstacles[None, :, :2]
    return np.sum(d * d, axis=-1) - facts.obstacles[None, :, 2] ** 2


def half_spaces(facts: ScenarioFacts, state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form disc-chain half-spaces a . u >= b at one state.

    Returns (A, b) with one row per obstacle:
    a = (2r, 2v(dy cos phi - dx sin phi)), b = -h1 - (2v^2 + 2vr) + nu^2 v r,
    r = dx cos phi + dy sin phi and h1 = h0 + 2vr.
    """
    x, y, v, phi = state
    c, s = math.cos(phi), math.sin(phi)
    dx = x - facts.obstacles[:, 0]
    dy = y - facts.obstacles[:, 1]
    h0 = dx * dx + dy * dy - facts.obstacles[:, 2] ** 2
    r = dx * c + dy * s
    h1 = h0 + 2.0 * v * r
    a = np.stack([2.0 * r, 2.0 * v * (dy * c - dx * s)], axis=1)
    b = -h1 - (2.0 * v * v + 2.0 * v * r) + facts.nu**2 * v * r
    return a, b


def _half_space_tol(a: np.ndarray, b: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per-constraint slack allowed for the finite-difference coefficients."""
    return HALF_SPACE_RTOL * (1.0 + np.abs(b) + np.linalg.norm(a, axis=1) * np.linalg.norm(u))


def project(u: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """Euclidean projection of u onto {w : a w >= b} by active-set enumeration.

    Every subset of at most dim(u) constraints is solved as an equality
    system; the nearest candidate that is feasible and has non-negative
    multipliers is the projection.  None when no candidate is feasible.
    """
    best, best_dist = None, np.inf
    m, p = a.shape
    slack = 1e-12 * (1.0 + np.abs(b))
    for size in range(1, min(p, m) + 1):
        for subset in combinations(range(m), size):
            a_s = a[list(subset)]
            try:
                mu = np.linalg.solve(a_s @ a_s.T, b[list(subset)] - a_s @ u)
            except np.linalg.LinAlgError:
                continue
            if np.any(mu < 0.0):
                continue
            w = u + a_s.T @ mu
            if np.all(a @ w - b >= -slack):
                d = float(np.linalg.norm(w - u))
                if d < best_dist:
                    best, best_dist = w, d
    return best


def inside_discs(facts: ScenarioFacts, states: np.ndarray) -> np.ndarray:
    """(T,) True where a state lies inside some keep-out disc (h0 < 0)."""
    return np.any(barrier_h0(facts, states) < 0.0, axis=1)


def check_safety(facts: ScenarioFacts, out: RunOutput) -> list[str]:
    """No state of a filtered run lies inside a keep-out disc, and the CSV's
    h0/h1 columns match the closed-form barrier values."""
    errors = []
    if out.filtered:
        for i, track in enumerate(out.tracks):
            inside = np.flatnonzero(inside_discs(facts, track.states))
            if inside.size:
                errors.append(
                    f"agent {i}: {inside.size} state(s) inside a keep-out disc, "
                    f"the first at row {inside[0]}"
                )
    for i, track in enumerate(out.tracks):
        h0 = barrier_h0(facts, track.states)
        x, y, v, phi = track.states.T
        for j, (cx, cy, _) in enumerate(facts.obstacles):
            r = (x - cx) * np.cos(phi) + (y - cy) * np.sin(phi)
            expect = {f"h0_obs{j}": h0[:, j], f"h1_obs{j}": h0[:, j] + 2.0 * v * r}
            for col, want in expect.items():
                got = track.h.get(col)
                if got is None:
                    errors.append(f"agent {i}: CSV lacks column {col}")
                    continue
                bad = np.abs(got - want) > ROUND_TOL * (1.0 + np.abs(want))
                if np.any(bad):
                    t = int(np.argmax(bad))
                    errors.append(
                        f"agent {i}: {col} row {t} is {got[t]!r}, closed form "
                        f"gives {want[t]!r}"
                    )
    return errors


def check_half_space(facts: ScenarioFacts, out: RunOutput) -> list[str]:
    """Each applied control of a filtered run satisfies every half-space."""
    if not out.filtered or len(facts.obstacles) == 0:
        return []
    errors = []
    for i, track in enumerate(out.tracks):
        for t, u in enumerate(track.controls):
            a, b = half_spaces(facts, track.states[t])
            tol = _half_space_tol(a, b, u)
            slack = a @ u - b
            if np.any(slack < -tol):
                j = int(np.argmin(slack + tol))
                errors.append(
                    f"agent {i} step {t}: applied control {u.tolist()} violates "
                    f"obstacle {j}'s half-space by {-slack[j]:.3e}"
                )
    return errors


def check_projection(facts: ScenarioFacts, out: RunOutput) -> list[str]:
    """Applied control = raw control where feasible, else its projection.

    In baseline mode the applied control is the raw control, bit for bit.
    """
    errors = []
    for i, track in enumerate(out.tracks):
        raw = out.raw_controls[i]
        if raw.shape != track.controls.shape:
            errors.append(
                f"agent {i}: {len(raw)} raw controls for {len(track.controls)} steps"
            )
            continue
        for t, (u, w) in enumerate(zip(track.controls, raw)):
            unchanged = bool(np.array_equal(u, w))
            if not out.filtered or len(facts.obstacles) == 0:
                if not unchanged:
                    errors.append(f"agent {i} step {t}: unfiltered control changed")
                continue
            a, b = half_spaces(facts, track.states[t])
            tol = _half_space_tol(a, b, w)
            slack = a @ w - b
            if np.all(slack > tol):
                if not unchanged:
                    errors.append(
                        f"agent {i} step {t}: feasible raw control {w.tolist()} "
                        f"was changed to {u.tolist()}"
                    )
                continue
            proj = project(w, a, b)
            if proj is None:
                errors.append(f"agent {i} step {t}: half-spaces have no common point")
                continue
            a_norm = max(float(np.min(np.linalg.norm(a, axis=1))), 1e-3)
            ptol = PROJECTION_RTOL * (1.0 + float(np.max(np.abs(b))) + np.linalg.norm(w)) / a_norm
            near = float(np.linalg.norm(u - proj)) <= ptol
            if not near and not (unchanged and np.all(slack >= -tol)):
                errors.append(
                    f"agent {i} step {t}: applied {u.tolist()}, projection of "
                    f"raw {w.tolist()} is {proj.tolist()}"
                )
    return errors


def check_kinematics(facts: ScenarioFacts, out: RunOutput) -> list[str]:
    """Positions follow v cos(phi) dt, v sin(phi) dt; noise only in v and phi."""
    errors = []
    dt = facts.dt
    for i, track in enumerate(out.tracks):
        s, u = track.states, track.controls
        if len(s) != len(u) + 1:
            errors.append(f"agent {i}: {len(s)} states for {len(u)} controls")
            continue
        step = np.stack(
            [s[:-1, 2] * np.cos(s[:-1, 3]) * dt, s[:-1, 2] * np.sin(s[:-1, 3]) * dt],
            axis=1,
        )
        moved = s[1:, :2] - s[:-1, :2]
        bad = np.abs(moved - step) > ROUND_TOL * (1.0 + np.abs(s[1:, :2]))
        if np.any(bad):
            t = int(np.argwhere(bad)[0][0])
            errors.append(
                f"agent {i} step {t}: position moved by {moved[t].tolist()}, "
                f"kinematics give {step[t].tolist()}"
            )
        n = len(u)
        if n < NOISE_MIN_STEPS:
            continue
        for k, (name, scale) in enumerate((("v", facts.sigma), ("phi", facts.nu))):
            z = (s[1:, 2 + k] - s[:-1, 2 + k] - u[:, k] * dt) / (scale * math.sqrt(dt))
            mean, std = float(np.mean(z)), float(np.std(z))
            if abs(mean) > NOISE_SIGMAS / math.sqrt(n) or abs(std - 1.0) > NOISE_SIGMAS / math.sqrt(2 * n):
                errors.append(
                    f"agent {i}: implied {name} noise has mean {mean:.3f} and "
                    f"std {std:.3f} over {n} steps, expected N(0, 1)"
                )
    return errors


def check_exit(facts: ScenarioFacts, out: RunOutput) -> list[str]:
    """Exit reasons agree with the positions.

    target_reached: the final position is in the target ball and no earlier
    one is.  A run that stops before max_time without reaching the target
    must end outside the arena; today that stop is spelled max_time, and any
    other arena-exit spelling is accepted.
    """
    errors = []
    reasons = out.metrics.get("exit_reasons", [])
    if len(reasons) != len(out.tracks):
        return [f"{len(reasons)} exit reasons for {len(out.tracks)} agents"]
    (xlo, xhi), (ylo, yhi) = facts.domain
    for i, (track, reason) in enumerate(zip(out.tracks, reasons)):
        pos = track.states[:, :2]
        dist = np.linalg.norm(pos - facts.targets[i], axis=1)
        inside = dist <= facts.target_radius
        in_arena = (xlo < pos[:, 0]) & (pos[:, 0] < xhi) & (ylo < pos[:, 1]) & (pos[:, 1] < yhi)
        steps = len(track.controls)
        if reason == EXIT_TARGET:
            if not inside[-1]:
                errors.append(
                    f"agent {i}: target_reached at distance {dist[-1]:.4f} > "
                    f"{facts.target_radius}"
                )
            if np.any(inside[:-1]):
                errors.append(f"agent {i}: inside the target ball before its last row")
            continue
        if reason == EXIT_INFEASIBLE:
            errors.append(f"agent {i}: run halted as safety-infeasible")
            continue
        if np.any(inside):
            errors.append(f"agent {i}: reached the target ball but exit is {reason}")
        if steps > facts.max_steps:
            errors.append(f"agent {i}: {steps} steps exceed max_time")
        elif steps < facts.max_steps and in_arena[-1]:
            errors.append(
                f"agent {i}: stopped after {steps} of {facts.max_steps} steps "
                f"inside the arena with exit {reason}"
            )
        elif steps == facts.max_steps and reason != EXIT_MAX_TIME and in_arena[-1]:
            errors.append(f"agent {i}: ran to max_time but exit is {reason}")
        if np.any(~in_arena[:-1]):
            errors.append(f"agent {i}: left the arena before its last row")
    return errors


def check_sampler(facts: ScenarioFacts, out: RunOutput) -> list[str]:
    """ESS in [1, rollouts]; composite weights non-negative and summing to 1."""
    errors = []
    for i, track in enumerate(out.tracks):
        ess = out.ess[i]
        if len(ess) != len(track.controls):
            errors.append(f"agent {i}: {len(ess)} ESS values for {len(track.controls)} steps")
        elif np.any((ess < 1.0 - SUM_TOL) | (ess > facts.rollouts * (1.0 + SUM_TOL))):
            errors.append(
                f"agent {i}: ESS outside [1, {facts.rollouts}]: "
                f"min {ess.min():.4f}, max {ess.max():.4f}"
            )
        w = out.weights[i]
        if not facts.composite:
            if w is not None:
                errors.append(f"agent {i}: component weights in a single-task run")
            continue
        if w is None or len(w) != len(track.controls):
            errors.append(f"agent {i}: composite run without one weight row per step")
            continue
        if np.any(w < 0.0):
            errors.append(f"agent {i}: negative component weight {w.min()!r}")
        sums = w.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > SUM_TOL):
            t = int(np.argmax(np.abs(sums - 1.0)))
            errors.append(f"agent {i} step {t}: component weights sum to {sums[t]!r}")
    return errors


def check_metrics_json(facts: ScenarioFacts, out: RunOutput) -> list[str]:
    """The exported metrics agree with what the CSV and records show."""
    errors = []
    m = out.metrics
    errs = terminal_errors(facts, out.tracks)
    got = m.get("terminal_position_error", [])
    if len(got) != len(errs) or np.any(
        np.abs(np.asarray(got) - errs) > ROUND_TOL * (1.0 + errs)
    ):
        errors.append(f"terminal_position_error {got} differs from the CSV's {errs.tolist()}")
    steps = [len(t.controls) for t in out.tracks]
    if m.get("steps") != steps:
        errors.append(f"steps {m.get('steps')} differ from the CSV's {steps}")
    reached = [r == EXIT_TARGET for r in m.get("exit_reasons", [])]
    if m.get("reached") != reached:
        errors.append("reached flags disagree with exit_reasons")
    violations = sum(int(np.sum(inside_discs(facts, t.states))) for t in out.tracks)
    if m.get("safety_violation_count") != violations:
        errors.append(
            f"safety_violation_count {m.get('safety_violation_count')} but the "
            f"CSV shows {violations}"
        )
    mean_ess = [float(e.mean()) if e.size else 0.0 for e in out.ess]
    got_ess = m.get("mean_ess", [])
    if len(got_ess) != len(mean_ess) or not np.allclose(got_ess, mean_ess, rtol=SUM_TOL, atol=0.0):
        errors.append(f"mean_ess {got_ess} differs from the records' {mean_ess}")
    return errors


CHECKS = (
    check_safety,
    check_half_space,
    check_projection,
    check_kinematics,
    check_exit,
    check_sampler,
    check_metrics_json,
)


def check_run(facts: ScenarioFacts, out: RunOutput) -> list[str]:
    """Every check on one run; failure messages name the check."""
    errors = []
    for check in CHECKS:
        errors.extend(f"{check.__name__}: {e}" for e in check(facts, out))
    return errors


def terminal_errors(facts: ScenarioFacts, tracks: list[AgentTrack]) -> np.ndarray:
    """Distance from each agent's final position to its task target."""
    return np.array(
        [float(np.linalg.norm(t.states[-1, :2] - facts.targets[i])) for i, t in enumerate(tracks)]
    )
