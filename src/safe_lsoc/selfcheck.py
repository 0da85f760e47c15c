"""Oracle self-checks for the core numerics.

Each check rebuilds a reference answer by independent means (analytic
halfspace projection, dense grid search, finite-difference PDE solve,
hand-derived chain algebra, the generic rollout integrator) and compares
the production code against it.
The CLI validate subcommand runs fast variants; the acceptance tests run
the same functions at full scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .lsoc import (
    BoxBoundary,
    LsocProblem,
    estimate_optimal_control,
    rollout_batch,
)
from .hjb import GridSpec, grid_hjb_oracle
from .mas import assemble_joint, build_subsystems
from .scenarios import (
    Obstacle,
    bundled_scenario_path,
    disc_barriers,
    list_bundled_scenarios,
    load_scenario,
    obstacle_discs,
    subsystem_problem,
    subsystem_rollouts,
    uav_dynamics,
)
from .sde import ControlAffineDynamics, NoiseStream, SafetyInfeasible
from .zcbf import (
    BarrierFunction,
    chain_lift,
    constraint_coeffs,
    detect_relative_degree,
    safety_filter,
)

__all__ = [
    "CheckResult",
    "filter_projection_check",
    "pi_oracle_check",
    "chain_closed_form_check",
    "rollout_kernel_check",
    "run_all_checks",
]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    stats: dict[str, float] = field(default_factory=dict)

    def __str__(self) -> str:
        flag = "ok" if self.passed else "FAIL"
        return f"[{flag}] {self.name}: {self.detail}"


# QP filter vs analytic projection and grid search ------------------------------


def _random_constraints(
    rng: np.random.Generator, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """n halfspaces A u >= b sharing a strictly feasible witness point."""
    witness = rng.uniform(-1.5, 1.5, size=2)
    a_mat = np.empty((n, 2))
    b_vec = np.empty(n)
    for j in range(n):
        ang = rng.uniform(0.0, 2.0 * np.pi)
        scale = rng.uniform(0.3, 2.0)
        a_mat[j] = scale * np.array([np.cos(ang), np.sin(ang)])
        b_vec[j] = float(a_mat[j] @ witness) - rng.uniform(0.0, 1.5)
    return a_mat, b_vec, witness


def _grid_projection(
    u: np.ndarray, a_mat: np.ndarray, b_vec: np.ndarray, step: float, radius: float
) -> tuple[np.ndarray, float] | None:
    """Best feasible grid point around u, or None when the grid has none."""
    ax = np.arange(u[0] - radius, u[0] + radius + step, step)
    ay = np.arange(u[1] - radius, u[1] + radius + step, step)
    xx, yy = np.meshgrid(ax, ay, indexing="ij")
    pts = np.stack([xx.ravel(), yy.ravel()], axis=-1)
    feasible = np.ones(pts.shape[0], dtype=bool)
    for a, b in zip(a_mat, b_vec):
        feasible &= pts @ a >= b - 1e-12
    if not np.any(feasible):
        return None
    pts = pts[feasible]
    d = np.linalg.norm(pts - u, axis=1)
    k = int(np.argmin(d))
    return pts[k], float(d[k])


def filter_projection_check(n_single: int = 600, n_multi: int = 400) -> CheckResult:
    """Filter output vs analytic projection (1 constraint) and grid search.

    Single-constraint instances have the closed form u + a (b - a.u)/|a|^2;
    multi-constraint instances are checked against a dense feasible grid:
    the filter must be feasible and its deviation no worse than the best
    grid point, which itself is within one grid cell of the optimum.
    """
    grid_step = 0.01
    rng = np.random.default_rng(20260819)
    max_single_err = 0.0
    max_residual = 0.0
    max_grid_gap = -np.inf
    infeasible_checked = 0

    for _ in range(n_single):
        u = rng.uniform(-2.0, 2.0, size=2)
        a_mat, b_vec, _ = _random_constraints(rng, 1)
        out = safety_filter(u, a_mat, b_vec)
        a, b = a_mat[0], b_vec[0]
        if a @ u >= b:
            expected = u
        else:
            expected = u + a * (b - a @ u) / float(a @ a)
        max_single_err = max(max_single_err, float(np.max(np.abs(out - expected))))
        max_residual = max(max_residual, float(b - a @ out))

    for _ in range(n_multi):
        u = rng.uniform(-2.0, 2.0, size=2)
        a_mat, b_vec, witness = _random_constraints(rng, int(rng.integers(2, 4)))
        out = safety_filter(u, a_mat, b_vec)
        max_residual = max(
            max_residual, max(float(b - a @ out) for a, b in zip(a_mat, b_vec))
        )
        # The projection lies within |witness - u| of u, so a grid box of
        # that radius (plus a cell) always contains it.
        radius = float(np.linalg.norm(witness - u)) + 2.0 * grid_step
        ref = _grid_projection(u, a_mat, b_vec, grid_step, radius=radius)
        if ref is None:
            continue
        _, grid_dist = ref
        gap = float(np.linalg.norm(out - u)) - grid_dist
        max_grid_gap = max(max_grid_gap, gap)

    # Antiparallel halfspaces with disjoint interiors must raise, not return.
    for _ in range(20):
        ang = rng.uniform(0.0, 2.0 * np.pi)
        a = np.array([np.cos(ang), np.sin(ang)])
        lo = rng.uniform(0.5, 2.0)
        hi = lo - rng.uniform(0.1, 2.0)
        # a.u >= lo together with a.u <= hi < lo is empty.
        try:
            safety_filter(
                rng.uniform(-2.0, 2.0, size=2), np.stack([a, -a]), np.array([lo, -hi])
            )
        except SafetyInfeasible:
            infeasible_checked += 1

    passed = (
        max_single_err <= 1e-9
        and max_residual <= 1e-9
        and max_grid_gap <= 1e-9
        and infeasible_checked == 20
    )
    return CheckResult(
        name="filter_projection",
        passed=passed,
        detail=(
            f"single err {max_single_err:.2e}, residual {max_residual:.2e}, "
            f"gap to grid best {max_grid_gap:.2e}, "
            f"{infeasible_checked}/20 infeasible raised"
        ),
    )


# PI estimator vs grid PDE solve -------------------------------------------------


def _toy_problem_1d() -> tuple[LsocProblem, Callable, GridSpec]:
    dyn = ControlAffineDynamics(
        state_dim=1,
        input_dim=1,
        drift=lambda x: np.zeros_like(np.atleast_2d(x)),
        control_matrix=np.array([[1.0]]),
        noise_cov=np.array([[0.6]]),
    )
    problem = LsocProblem(
        dynamics=dyn,
        running_cost=lambda x: np.full(np.atleast_2d(x).shape[0], 0.8),
        domain=BoxBoundary((0,), np.array([-1.0]), np.array([1.0])),
        lam=0.8,
    )

    def final(x: np.ndarray) -> np.ndarray:
        return np.where(np.atleast_2d(x)[..., 0] < 0.0, 0.6, 0.1)

    return problem, final, GridSpec(lower=(-1.0,), upper=(1.0,), shape=(401,))


def _toy_problem_2d() -> tuple[LsocProblem, Callable, GridSpec]:
    def drift(x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        return np.broadcast_to(np.array([0.2, -0.1]), x.shape)

    def final(x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        return np.where(
            x[..., 0] >= 1.0, 0.1, np.where(x[..., 1] >= 1.0, 0.4, 0.7)
        )

    dyn = ControlAffineDynamics(
        state_dim=2,
        input_dim=2,
        drift=drift,
        control_matrix=np.eye(2),
        noise_cov=np.diag([0.5, 0.7]),
    )
    problem = LsocProblem(
        dynamics=dyn,
        running_cost=lambda x: np.full(np.atleast_2d(x).shape[0], 0.6),
        domain=BoxBoundary((0, 1), np.array([-1.0, -1.0]), np.array([1.0, 1.0])),
        lam=1.0,
    )
    return problem, final, GridSpec(
        lower=(-1.0, -1.0), upper=(1.0, 1.0), shape=(161, 161)
    )


def _grid_control(problem: LsocProblem, sol, x: np.ndarray) -> np.ndarray:
    """u = sigma sigma^T B^T grad(Z)/Z from the grid solution."""
    z = sol.z_at(x)
    g = sol.gradient_at(x)
    gram = problem.dynamics.noise_cov @ problem.dynamics.noise_cov.T
    return gram @ problem.dynamics.control_matrix.T @ np.atleast_1d(g) / z


def pi_oracle_check(
    k_rollouts: int = 10_000,
    n_probe: int = 20,
    z_probes: int = 5,
    horizon: int = 1200,
) -> CheckResult:
    """Monte-Carlo desirability and control vs the finite-difference solve.

    Z is compared at z_probes interior states per dimension (relative error
    gate 0.10 at 10^4 rollouts); control direction must match the grid's
    sign at n_probe states with decisive controls. Z is exp of the
    log_desirability of estimate_optimal_control, the value the composite
    weights read. The two probes want opposite step sizes: discrete exit
    detection overshoots the boundary by O(sqrt(dt)) and biases Z low, while
    the control estimate's variance grows like 1/dt, so Z probes integrate
    at z_dt and sign probes at dt.
    """
    dims, dt, z_dt, seed = (1, 2), 0.01, 0.002, 7
    rng = np.random.default_rng(seed)
    worst_rel = 0.0
    sign_hits = 0
    sign_total = 0
    builders = {1: _toy_problem_1d, 2: _toy_problem_2d}
    z_horizon = int(round(horizon * dt / z_dt))

    for dim in dims:
        problem, final, spec = builders[dim]()
        sol = grid_hjb_oracle(problem, final, spec)

        # Decisive probes only: the control estimate has Monte-Carlo noise of
        # order sigma/sqrt(dt * ESS), so near-zero reference controls cannot
        # carry sign information at any sane rollout count.
        candidates = rng.uniform(-0.9, 0.9, size=(4000, dim))
        probes = []
        for x in candidates:
            u_ref = _grid_control(problem, sol, x)
            if np.all(np.abs(u_ref) >= 0.25):
                probes.append((x, u_ref))
            if len(probes) == n_probe:
                break

        for j, (x, u_ref) in enumerate(probes):
            stream = NoiseStream(seed).child(3, dim, j)
            batch = rollout_batch(problem, x, dt, horizon, k_rollouts, stream)
            est = estimate_optimal_control(batch, final, problem.lam)
            sign_total += dim
            sign_hits += int(np.sum(np.sign(est.control) == np.sign(u_ref)))
            if j < z_probes:
                z_stream = NoiseStream(seed).child(4, dim, j)
                z_batch = rollout_batch(
                    problem, x, z_dt, z_horizon, k_rollouts, z_stream
                )
                z_est = estimate_optimal_control(z_batch, final, problem.lam)
                z_pi = float(np.exp(z_est.log_desirability))
                z_ref = sol.z_at(x)
                worst_rel = max(worst_rel, abs(z_pi - z_ref) / abs(z_ref))

    expected_total = n_probe * sum(dims)
    passed = (
        worst_rel <= 0.10
        and sign_hits == sign_total
        and sign_total == expected_total
    )
    return CheckResult(
        name="pi_vs_grid_hjb",
        passed=passed,
        detail=(
            f"worst |Z_mc - Z_grid|/Z_grid {worst_rel:.3f}, "
            f"control signs {sign_hits}/{sign_total} "
            f"(expected {expected_total})"
        ),
    )


# Barrier chain vs hand-derived algebra ------------------------------------------


def chain_closed_form_check(n_states: int = 100, grad_states: int = 10) -> CheckResult:
    """Lifted barrier vs the hand-derived lift for a disc under the vehicle.

    For h0 = (x-cx)^2 + (y-cy)^2 - rho^2 the lift is
    h1 = 2 (x-cx) v cos(phi) + 2 (y-cy) v sin(phi) + h0 (the diffusion trace
    vanishes because the position rows of B are zero), with gradient
    (2 v cos(phi) + 2 (x-cx), 2 v sin(phi) + 2 (y-cy),
     2 (x-cx) cos(phi) + 2 (y-cy) sin(phi),
     -2 (x-cx) v sin(phi) + 2 (y-cy) v cos(phi)).

    The closed-loop half-spaces come from the production closed form
    disc_barriers; each state also compares its (a, b) with the
    finite-difference constraint_coeffs of the lift.
    """
    rng = np.random.default_rng(11)
    dyn = uav_dynamics(0.05, 0.025)
    obstacle = Obstacle(center=(20.0, 15.0), radius=3.0, margin=1.0)
    level0 = BarrierFunction.circle(obstacle.center, obstacle.radius, obstacle.margin)
    level1 = chain_lift(level0, dyn)
    cx, cy = obstacle.center
    rho2 = obstacle.keepout_radius**2
    discs = obstacle_discs([obstacle])

    states = np.stack(
        [
            rng.uniform(-5.0, 45.0, size=n_states),
            rng.uniform(-5.0, 40.0, size=n_states),
            rng.uniform(0.5, 3.0, size=n_states),
            rng.uniform(-np.pi, np.pi, size=n_states),
        ],
        axis=-1,
    )

    max_value_err = 0.0
    max_grad_err = 0.0
    max_halfspace_err = 0.0
    for k, x in enumerate(states):
        _, a_prod, b_prod = disc_barriers(x, discs, dyn.noise_cov)
        a_ref, b_ref = constraint_coeffs(level1, dyn, x)
        a_err = float(np.max(np.abs(a_prod[0] - a_ref)))
        b_err = abs(float(b_prod[0]) - b_ref)
        max_halfspace_err = max(
            max_halfspace_err,
            a_err / max(1.0, float(np.max(np.abs(a_ref)))),
            b_err / max(1.0, abs(b_ref)),
        )
        dx, dy, v, phi = x[0] - cx, x[1] - cy, x[2], x[3]
        h0 = dx**2 + dy**2 - rho2
        h1 = 2.0 * dx * v * np.cos(phi) + 2.0 * dy * v * np.sin(phi) + h0
        got = level1.value(x)
        max_value_err = max(max_value_err, abs(got - h1))
        if k < grad_states:
            g_ref = np.array(
                [
                    2.0 * v * np.cos(phi) + 2.0 * dx,
                    2.0 * v * np.sin(phi) + 2.0 * dy,
                    2.0 * dx * np.cos(phi) + 2.0 * dy * np.sin(phi),
                    -2.0 * dx * v * np.sin(phi) + 2.0 * dy * v * np.cos(phi),
                ]
            )
            g = level1.gradient(x)
            scale = max(1.0, float(np.max(np.abs(g_ref))))
            max_grad_err = max(max_grad_err, float(np.max(np.abs(g - g_ref))) / scale)
            g0 = level0.gradient(x)
            g0_ref = np.array([2.0 * dx, 2.0 * dy, 0.0, 0.0])
            scale0 = max(1.0, float(np.max(np.abs(g0_ref))))
            max_grad_err = max(
                max_grad_err, float(np.max(np.abs(g0 - g0_ref))) / scale0
            )

    degree = detect_relative_degree(level0, dyn, states[: max(4, grad_states)])

    passed = (
        max_value_err <= 1e-8
        and max_grad_err <= 1e-5
        and degree == 1
        and max_halfspace_err <= 1e-6
    )
    return CheckResult(
        name="chain_closed_form",
        passed=passed,
        detail=(
            f"lift err {max_value_err:.2e}, grad err {max_grad_err:.2e}, "
            f"relative degree {degree}, "
            f"production half-space err {max_halfspace_err:.2e}"
        ),
    )


# Rollout kernel vs the generic rollout_batch ------------------------------------

BATCH_ARRAYS = ("dw0", "exit_states", "exit_steps", "running_costs")


def _exit_starts(sc, sub, targets, rng, n_starts: int) -> list[np.ndarray]:
    """The joint start plus starts whose central agent can exit early.

    Even starts put the central agent just outside its target ball facing
    it; odd starts put it just inside an arena edge facing out.  Half of
    them move at 2.5, so every path exits; the other half start at rest a
    few thousandths away, so the speed noise decides whether and when each
    path exits.  The other members are moved by a few length units.
    """
    (xlo, xhi), (ylo, yhi) = sc.sim.domain
    joint = assemble_joint(sub, [a.start for a in sc.agents])
    starts = [joint]
    for k in range(n_starts):
        x = joint.reshape(sub.size, 4).copy()
        x[:, :2] += rng.normal(0.0, 2.0, size=(sub.size, 2))
        moving = (k // 2) % 2 == 0
        gap = rng.uniform(0.05, 1.0) if moving else rng.uniform(5e-4, 5e-3)
        x[0, 2] = 2.5 if moving else 0.0
        if k % 2 == 0:
            ang = rng.uniform(0.0, 2.0 * np.pi)
            dist = sc.sim.target_radius + gap
            x[0, :2] = targets[sub.central] + dist * np.array([np.cos(ang), np.sin(ang)])
            x[0, 3] = ang + np.pi
        else:
            edge = int(rng.integers(4))
            x[0, :2] = np.clip(x[0, :2], [xlo + 1.0, ylo + 1.0], [xhi - 1.0, yhi - 1.0])
            x[0, edge // 2] = (xhi, xlo, yhi, ylo)[edge] + (-gap, gap)[edge % 2]
            x[0, 3] = (0.0, np.pi, 0.5 * np.pi, -0.5 * np.pi)[edge]
        starts.append(x.ravel())
    return starts


def rollout_kernel_check(n_starts: int = 8) -> CheckResult:
    """Run-path rollout kernel vs the generic rollout_batch, array by array.

    For every subsystem of every bundled scenario, subsystem_rollouts and
    rollout_batch on subsystem_problem draw from the same stream at the
    joint start and at n_starts starts that reach the target ball or the
    arena box within the horizon (see _exit_starts).  The kernel's batch
    goes through the draw and integrate stages the closed loop runs.  Passes
    when all four batch arrays are equal bit for bit, the batches cover
    subsystems of one, two and three members, both exits occur, and some
    batch stops part of its paths early while the rest run on.
    """
    seed = 13
    rng = np.random.default_rng(seed)
    stats = {f"max_diff_{attr}": 0.0 for attr in BATCH_ARRAYS}
    stats.update(ball_exits=0.0, box_exits=0.0, mixed_batches=0.0)
    batches: dict[int, int] = {}  # subsystem size -> batches compared
    equal = True
    for name in list_bundled_scenarios():
        sc = load_scenario(bundled_scenario_path(name), name=name)
        targets, _ = sc.task_view()
        dt, horizon, k_rollouts = sc.sim.dt, sc.pi.horizon_steps, sc.pi.rollouts
        for sub in build_subsystems(sc.graph):
            kernel = subsystem_rollouts(sc, sub, targets)
            problem = subsystem_problem(sc, sub, targets)
            ball = problem.domain.parts[0]
            for k, x0 in enumerate(_exit_starts(sc, sub, targets, rng, n_starts)):
                fresh = partial(NoiseStream(seed).child, 5, sub.central, k)
                got = kernel.sample(x0, fresh())
                want = rollout_batch(problem, x0, dt, horizon, k_rollouts, fresh())
                for attr in BATCH_ARRAYS:
                    a, b = getattr(got, attr), getattr(want, attr)
                    equal = equal and np.array_equal(a, b)
                    key = f"max_diff_{attr}"
                    stats[key] = max(stats[key], float(np.max(np.abs(a - b))))
                exited = want.exit_steps < horizon
                in_ball = ball.boundary_mask(want.exit_states)
                stats["ball_exits"] += int(np.sum(exited & in_ball))
                stats["box_exits"] += int(np.sum(exited & ~in_ball))
                stats["mixed_batches"] += int(0 < np.sum(exited) < k_rollouts)
                batches[sub.size] = batches.get(sub.size, 0) + 1

    stats.update({f"size{n}_batches": float(c) for n, c in batches.items()})
    passed = (
        equal
        and {1, 2, 3} <= set(batches)
        and stats["ball_exits"] > 0
        and stats["box_exits"] > 0
        and stats["mixed_batches"] > 0
    )
    largest = max(stats[f"max_diff_{attr}"] for attr in BATCH_ARRAYS)
    return CheckResult(
        name="rollout_kernel",
        passed=passed,
        detail=(
            f"largest difference {largest:.2e} over {sum(batches.values())} "
            f"batches (subsystem sizes {sorted(batches)}), "
            f"{stats['ball_exits']:.0f} target-ball "
            f"and {stats['box_exits']:.0f} arena-box exits, "
            f"{stats['mixed_batches']:.0f} batches with both exited and "
            "running paths"
        ),
        stats=stats,
    )


def run_all_checks(fast: bool = True) -> list[CheckResult]:
    """The validate suite; fast trims sample counts to a few seconds."""
    if fast:
        return [
            filter_projection_check(n_single=150, n_multi=12),
            pi_oracle_check(k_rollouts=3000, n_probe=4, z_probes=2,
                            horizon=800),
            chain_closed_form_check(n_states=40, grad_states=5),
            rollout_kernel_check(n_starts=4),
        ]
    return [
        filter_projection_check(),
        pi_oracle_check(),
        chain_closed_form_check(),
        rollout_kernel_check(),
    ]
