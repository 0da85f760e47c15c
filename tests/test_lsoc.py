"""First-exit domains, rollout batches, desirability and control estimates."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safe_lsoc.hjb import GridSpec, grid_hjb_oracle
from safe_lsoc.lsoc import (
    BallBoundary,
    BoxBoundary,
    LsocProblem,
    RolloutBatch,
    UnionDomain,
    estimate_optimal_control,
    rollout_batch,
)
from safe_lsoc.sde import ControlAffineDynamics, NoiseStream
from safe_lsoc.selfcheck import _toy_problem_2d


def line_problem(sigma: float = 0.5, q: float = 1.0, lam: float = 1.0) -> LsocProblem:
    dyn = ControlAffineDynamics(
        state_dim=1,
        input_dim=1,
        drift=lambda x: np.zeros_like(np.atleast_2d(x)),
        control_matrix=np.array([[1.0]]),
        noise_cov=np.array([[sigma]]),
    )
    return LsocProblem(
        dynamics=dyn,
        running_cost=lambda x: np.full(np.atleast_2d(x).shape[0], q),
        domain=BoxBoundary((0,), np.array([-1.0]), np.array([1.0])),
        lam=lam,
    )


def no_final_cost(x):
    return np.zeros(np.atleast_2d(x).shape[0])


def synthetic_batch(running_costs, dw0=None, dt=0.01, sigma=0.6) -> RolloutBatch:
    """Batch with prescribed costs; enough structure for the estimators."""
    s = np.asarray(running_costs, dtype=float)
    k = s.shape[0]
    if dw0 is None:
        dw0 = np.random.default_rng(0).normal(0.0, np.sqrt(dt), size=(k, 1))
    return RolloutBatch(
        dt=dt,
        noise_cov=np.array([[sigma]]),
        dw0=np.asarray(dw0, dtype=float),
        exit_states=np.zeros((k, 1)),
        exit_steps=np.full(k, 10),
        running_costs=s,
    )


def one_draw_rollouts(problem, x0, dt, horizon, n_rollouts, stream) -> RolloutBatch:
    """rollout_batch as it was: one (horizon, K, P) draw and an alive mask.

    Every path, exited or not, is carried through every step, and the
    paths that never exit are copied out at the end.  Kept as the reference
    that the per-step draw over running paths must equal bit for bit.
    """
    x0 = np.asarray(x0, dtype=float)
    dyn = problem.dynamics
    m, p = dyn.state_dim, dyn.input_dim
    gen = stream.generator()
    dw = gen.normal(0.0, np.sqrt(dt), size=(horizon, n_rollouts, p))

    states = np.broadcast_to(x0, (n_rollouts, m)).copy()
    alive = np.ones(n_rollouts, dtype=bool)
    running = np.zeros(n_rollouts)
    exit_states = np.zeros((n_rollouts, m))
    exit_steps = np.full(n_rollouts, horizon, dtype=int)

    sigma = dyn.noise_cov
    b_t = dyn.control_matrix.T
    for t in range(horizon):
        q = np.asarray(problem.running_cost(states), dtype=float)
        running[alive] += q[alive] * dt
        step = dyn.drift(states) * dt + (dw[t] @ sigma.T) @ b_t
        new_states = np.where(alive[:, None], states + step, states)
        hit = problem.domain.boundary_mask(new_states) & alive
        if np.any(hit):
            exit_states[hit] = problem.domain.clamp_exit(new_states[hit])
            exit_steps[hit] = t + 1
            alive &= ~hit
        states = new_states
        if not np.any(alive):
            break
    if np.any(alive):
        exit_states[alive] = states[alive]

    return RolloutBatch(
        dt=dt,
        noise_cov=sigma,
        dw0=dw[0],
        exit_states=exit_states,
        exit_steps=exit_steps,
        running_costs=running,
    )


def ball_box_problem() -> LsocProblem:
    """The 2-D toy with a target ball inside its box: ball exits keep their state."""
    toy = _toy_problem_2d()[0]
    domain = UnionDomain([
        BallBoundary((0, 1), np.array([0.4, -0.2]), 0.25),
        toy.domain,
    ])
    return LsocProblem(toy.dynamics, toy.running_cost, domain, toy.lam)


class TestDomains:
    def test_box_mask_and_clamp(self):
        box = BoxBoundary((0, 2), np.array([-1.0, 0.0]), np.array([1.0, 5.0]))
        inside = np.array([0.0, 99.0, 2.5])
        outside = np.array([1.5, 99.0, 2.5])
        assert not box.boundary_mask(inside)
        assert box.boundary_mask(outside)
        np.testing.assert_allclose(box.clamp_exit(outside), [1.0, 99.0, 2.5])

    def test_box_batch_mask(self):
        box = BoxBoundary((0,), np.array([-1.0]), np.array([1.0]))
        pts = np.array([[-2.0], [0.0], [1.0]])
        np.testing.assert_array_equal(box.boundary_mask(pts), [True, False, True])

    def test_box_extent_validation(self):
        with pytest.raises(ValueError):
            BoxBoundary((0,), np.array([1.0]), np.array([1.0]))

    def test_ball_mask(self):
        ball = BallBoundary((0, 1), np.array([2.0, 3.0]), 0.5)
        assert ball.boundary_mask(np.array([2.1, 3.0, 77.0]))
        assert not ball.boundary_mask(np.array([2.6, 3.0, 77.0]))

    def test_ball_radius_validation(self):
        with pytest.raises(ValueError):
            BallBoundary((0,), np.array([0.0]), 0.0)

    def test_union_clamp_claim_order(self):
        ball = BallBoundary((0,), np.array([2.0]), 0.5)
        box = BoxBoundary((0,), np.array([-1.0]), np.array([1.0]))
        x = np.array([2.0])
        # Ball fires first and has no clamp; reversed order clamps to the box.
        np.testing.assert_allclose(UnionDomain([ball, box]).clamp_exit(x), [2.0])
        np.testing.assert_allclose(UnionDomain([box, ball]).clamp_exit(x), [1.0])


class TestProblemSetup:
    def test_nonpositive_lambda_rejected(self):
        dyn = line_problem().dynamics
        with pytest.raises(ValueError):
            LsocProblem(
                dynamics=dyn,
                running_cost=lambda x: np.zeros(1),
                domain=BoxBoundary((0,), np.array([-1.0]), np.array([1.0])),
                lam=0.0,
            )


class TestRolloutBatch:
    def test_deterministic_given_stream(self):
        p = line_problem()
        a = rollout_batch(p, np.zeros(1), 0.02, 40, 64, NoiseStream(3, 5))
        b = rollout_batch(p, np.zeros(1), 0.02, 40, 64, NoiseStream(3, 5))
        np.testing.assert_array_equal(a.running_costs, b.running_costs)
        np.testing.assert_array_equal(a.dw0, b.dw0)
        np.testing.assert_array_equal(a.exit_states, b.exit_states)

    def test_costs_finite_and_shared_setup(self):
        p = line_problem()
        batch = rollout_batch(p, np.zeros(1), 0.02, 40, 64, NoiseStream(3))
        assert np.all(np.isfinite(batch.running_costs))
        assert batch.n_rollouts == 64
        assert batch.dt == 0.02

    def test_start_on_boundary_rejected(self):
        p = line_problem()
        with pytest.raises(ValueError):
            rollout_batch(p, np.array([1.0]), 0.02, 10, 8, NoiseStream(0))

    def test_paths_frozen_after_exit(self):
        # A rollout that exits before the horizon keeps its exit data when
        # the same stream is integrated for twice as many steps.
        p = line_problem()
        x0 = np.array([0.9])
        short = rollout_batch(p, x0, 0.02, 30, 32, NoiseStream(1))
        long = rollout_batch(p, x0, 0.02, 60, 32, NoiseStream(1))
        exited = short.exit_steps < 30
        assert np.any(exited)
        np.testing.assert_array_equal(
            short.exit_steps[exited], long.exit_steps[exited]
        )
        np.testing.assert_array_equal(
            short.exit_states[exited], long.exit_states[exited]
        )
        np.testing.assert_array_equal(
            short.running_costs[exited], long.running_costs[exited]
        )

    def test_exit_states_clamped_to_box(self):
        p = line_problem()
        batch = rollout_batch(p, np.array([0.95]), 0.05, 50, 64, NoiseStream(2))
        exited = batch.exit_steps < 50
        assert np.all(np.abs(batch.exit_states[exited, 0]) <= 1.0)

    @pytest.mark.parametrize("bad", [{"dt": 0.0}, {"horizon": 0}, {"n_rollouts": 0}])
    def test_argument_validation(self, bad):
        p = line_problem()
        args = {"dt": 0.01, "horizon": 5, "n_rollouts": 4}
        args.update(bad)
        with pytest.raises(ValueError):
            rollout_batch(
                p, np.zeros(1), args["dt"], args["horizon"], args["n_rollouts"],
                NoiseStream(0),
            )


class TestPerStepDraw:
    # (problem, x0, dt, horizon, K): paths alive at the horizon, clamped box
    # exits, unclamped ball exits beside box exits, and a horizon that
    # outlasts every path, so the loop breaks early.
    CASES = {
        "line_alive_at_horizon": (line_problem, [0.0], 0.02, 40, 256),
        "toy_2d_box_clamped": (lambda: _toy_problem_2d()[0], [0.5, 0.6], 0.01, 150, 400),
        "ball_and_box": (ball_box_problem, [0.0, 0.0], 0.01, 200, 400),
        "all_exit_early": (line_problem, [0.9], 0.02, 2000, 64),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_equals_the_one_draw_integrator(self, case):
        make, x0, dt, horizon, k = self.CASES[case]
        problem = make()
        got = rollout_batch(problem, np.array(x0), dt, horizon, k, NoiseStream(7, 2))
        want = one_draw_rollouts(problem, np.array(x0), dt, horizon, k, NoiseStream(7, 2))
        assert got.dt == want.dt
        for attr in ("noise_cov", "dw0", "exit_states", "exit_steps", "running_costs"):
            a, b = getattr(got, attr), getattr(want, attr)
            assert a.dtype == b.dtype and a.shape == b.shape, attr
            assert np.array_equal(a, b), attr

        exited = got.exit_steps < horizon
        if case == "all_exit_early":
            assert np.all(exited)
        else:
            assert 0 < np.sum(exited) < k
        if case == "toy_2d_box_clamped":
            assert np.all(np.abs(got.exit_states) <= 1.0)
            assert np.all(np.max(np.abs(got.exit_states[exited]), axis=1) == 1.0)
        if case == "ball_and_box":
            ball = problem.domain.parts[0]
            in_ball = ball.boundary_mask(got.exit_states) & exited
            d = np.linalg.norm(got.exit_states[in_ball] - ball.center, axis=1)
            assert np.any(in_ball) and np.any(exited & ~in_ball)
            assert np.all(d < ball.radius)  # not moved onto the sphere

    def test_peak_memory_is_not_horizon_sized(self):
        # Every path runs the whole horizon.
        p = line_problem(sigma=0.01)
        horizon, k = 3000, 1000
        noise_bytes = horizon * k * 8  # the (horizon, K, 1) draw, 24 MB
        tracemalloc.start()
        try:
            batch = rollout_batch(p, np.zeros(1), 1e-3, horizon, k, NoiseStream(4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(batch.exit_steps == horizon)
        assert peak < noise_bytes / 8, f"peak {peak / 1e6:.1f} MB"


def desirability(batch: RolloutBatch, lam: float) -> float:
    """Z as the closed loop reads it: exp of the estimate's log Z."""
    est = estimate_optimal_control(batch, no_final_cost, lam)
    return float(np.exp(est.log_desirability))


class TestDesirability:
    @given(
        costs=st.lists(
            st.floats(0.0, 50.0, allow_nan=False), min_size=2, max_size=40
        ),
        lam=st.floats(0.1, 5.0),
    )
    @settings(max_examples=80)
    def test_mean_of_exponentials_is_bracketed(self, costs, lam):
        batch = synthetic_batch(costs)
        z = desirability(batch, lam)
        lo = np.exp(-max(costs) / lam)
        hi = np.exp(-min(costs) / lam)
        assert lo * (1 - 1e-12) <= z <= hi * (1 + 1e-12)
        assert z > 0

    @given(
        costs=st.lists(
            st.floats(0.0, 30.0, allow_nan=False), min_size=2, max_size=40
        ),
        shift=st.floats(-5.0, 5.0),
        lam=st.floats(0.2, 3.0),
    )
    @settings(max_examples=80)
    def test_cost_shift_scales_z_and_preserves_control(self, costs, shift, lam):
        base = synthetic_batch(costs)
        shifted = synthetic_batch(np.asarray(costs) + shift, dw0=base.dw0)
        z0 = desirability(base, lam)
        z1 = desirability(shifted, lam)
        np.testing.assert_allclose(z1, z0 * np.exp(-shift / lam), rtol=1e-9)
        est0 = estimate_optimal_control(base, no_final_cost, lam)
        est1 = estimate_optimal_control(shifted, no_final_cost, lam)
        np.testing.assert_allclose(
            est1.log_desirability, est0.log_desirability - shift / lam,
            rtol=1e-9, atol=1e-9,
        )
        np.testing.assert_allclose(est1.control, est0.control, rtol=1e-9, atol=1e-12)

    def test_log_desirability_finite_when_every_weight_underflows(self):
        costs = [1e6, 2e6]
        batch = synthetic_batch(costs)
        assert np.all(np.exp(-np.asarray(costs)) == 0.0)
        est = estimate_optimal_control(batch, no_final_cost, 1.0)
        assert np.isfinite(est.log_desirability)
        # The dominant path carries it: log Z = -S_min + log(1/K) + O(e^-1e6).
        assert est.log_desirability == pytest.approx(-1e6 + np.log(0.5))
        assert np.all(np.isfinite(est.control))

    def test_nonpositive_lambda_rejected(self):
        with pytest.raises(ValueError):
            estimate_optimal_control(synthetic_batch([1.0]), no_final_cost, 0.0)


class TestControlEstimate:
    def test_hand_computed_two_rollouts(self):
        batch = synthetic_batch(
            [1.0, 1.0], dw0=np.array([[0.2], [-0.4]]), dt=0.1, sigma=0.5
        )
        est = estimate_optimal_control(batch, no_final_cost, 2.0)
        np.testing.assert_allclose(est.control, [0.5 * (-0.1) / 0.1])
        np.testing.assert_allclose(est.effective_sample_size, 2.0)

    def test_ess_uniform_equals_k(self):
        batch = synthetic_batch(np.full(50, 3.0))
        est = estimate_optimal_control(batch, no_final_cost, 1.0)
        np.testing.assert_allclose(est.effective_sample_size, 50.0, rtol=1e-12)

    def test_ess_collapse_flags_degenerate(self):
        batch = synthetic_batch([0.0, 1000.0, 1000.0])
        est = estimate_optimal_control(batch, no_final_cost, 1.0)
        np.testing.assert_allclose(est.effective_sample_size, 1.0, rtol=1e-9)
        assert est.effective_sample_size < 2.0


class TestGridOracle:
    def test_first_order_convergence_against_analytic(self):
        # Constant-coefficient problem with drift: the upwind solve should
        # halve its error when the mesh halves.
        g, sigma, q, lam = 0.3, 0.5, 0.6, 1.0
        phi_lo, phi_hi = 0.5, 0.1
        dyn = ControlAffineDynamics(
            state_dim=1,
            input_dim=1,
            drift=lambda x: np.full_like(np.atleast_2d(x), g),
            control_matrix=np.array([[1.0]]),
            noise_cov=np.array([[sigma]]),
        )
        problem = LsocProblem(
            dynamics=dyn,
            running_cost=lambda x: np.full(np.atleast_2d(x).shape[0], q),
            domain=BoxBoundary((0,), np.array([-1.0]), np.array([1.0])),
            lam=lam,
        )

        # 0 = g Z' + sigma^2/2 Z'' - q/lam Z with Dirichlet data.
        half_var = 0.5 * sigma**2
        roots = np.roots([half_var, g, -q / lam])
        k1, k2 = roots
        za, zb = np.exp(-phi_lo / lam), np.exp(-phi_hi / lam)
        mat = np.array(
            [[np.exp(-k1), np.exp(-k2)], [np.exp(k1), np.exp(k2)]]
        )
        coef = np.linalg.solve(mat, np.array([za, zb]))

        def z_exact(x):
            return coef[0] * np.exp(k1 * x) + coef[1] * np.exp(k2 * x)

        errs = []
        for shape in (51, 101, 201):
            sol = grid_hjb_oracle(
                problem,
                lambda x: np.where(np.atleast_2d(x)[..., 0] < 0.0, phi_lo, phi_hi),
                GridSpec(lower=(-1.0,), upper=(1.0,), shape=(shape,)),
            )
            nodes = np.linspace(-1.0, 1.0, shape)
            errs.append(float(np.max(np.abs(sol.z - z_exact(nodes)))))
        assert errs[0] > errs[1] > errs[2]
        for coarse, fine in zip(errs, errs[1:]):
            assert 1.4 <= coarse / fine <= 3.2

    def test_gradient_consistent_with_field(self):
        problem = line_problem(sigma=0.5, q=0.8, lam=1.0)
        spec = GridSpec(lower=(-1.0,), upper=(1.0,), shape=(401,))
        sol = grid_hjb_oracle(problem, no_final_cost, spec)
        x = np.array([0.3])
        h = 1e-4
        fd = (sol.z_at(x + h) - sol.z_at(x - h)) / (2 * h)
        np.testing.assert_allclose(sol.gradient_at(x), fd, rtol=1e-3)

    def test_cross_diffusion_rejected(self):
        # The upwind scheme is an M-matrix for diagonal diffusion only.
        dyn = ControlAffineDynamics(
            state_dim=2,
            input_dim=2,
            drift=lambda x: np.zeros_like(np.atleast_2d(x)),
            control_matrix=np.eye(2),
            noise_cov=np.array([[0.5, 0.2], [0.0, 0.5]]),
        )
        problem = LsocProblem(
            dynamics=dyn,
            running_cost=lambda x: np.ones(np.atleast_2d(x).shape[0]),
            domain=BoxBoundary((0, 1), np.array([-1.0, -1.0]), np.array([1.0, 1.0])),
        )
        spec = GridSpec(lower=(-1.0, -1.0), upper=(1.0, 1.0), shape=(11, 11))
        with pytest.raises(ValueError, match="diagonal"):
            grid_hjb_oracle(problem, no_final_cost, spec)
