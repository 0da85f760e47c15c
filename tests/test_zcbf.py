"""Barrier chains and the minimum-deviation control filter."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from safe_lsoc.scenarios import uav_dynamics
from safe_lsoc.sde import ControlAffineDynamics, SafetyInfeasible
from safe_lsoc.zcbf import (
    BarrierFunction,
    chain_lift,
    constraint_coeffs,
    detect_relative_degree,
    safety_filter,
)


def double_integrator(s: float = 0.4) -> ControlAffineDynamics:
    return ControlAffineDynamics(
        state_dim=2,
        input_dim=1,
        drift=lambda x: np.stack(
            [np.asarray(x)[..., 1], np.zeros_like(np.asarray(x)[..., 1])],
            axis=-1,
        ),
        control_matrix=np.array([[0.0], [1.0]]),
        noise_cov=np.array([[s]]),
    )


SAMPLE_UAV_STATES = np.array(
    [
        [3.0, 4.0, 2.0, 0.3],
        [-1.0, 2.0, 1.5, -2.0],
        [10.0, -3.0, 0.7, 1.1],
        [0.5, 0.5, 2.5, 3.0],
    ]
)


class TestBarrierFunction:
    def test_circle_analytic_values(self):
        h = BarrierFunction.circle((1.0, 2.0), 3.0, margin=0.5)
        x = np.array([5.0, 2.0, 9.0, 9.0])
        assert h.value(x) == pytest.approx(16.0 - 12.25)
        np.testing.assert_allclose(h.gradient(x), [8.0, 0.0, 0.0, 0.0])
        hess = h.hessian(x)
        np.testing.assert_allclose(np.diag(hess), [2.0, 2.0, 0.0, 0.0])

    @pytest.mark.parametrize("dim", [4, 6])
    def test_circle_derivatives_sized_to_the_state(self, dim):
        h = BarrierFunction.circle((0.5, 1.0), 3.0)
        x = np.arange(1.0, dim + 1.0)
        rest = [0.0] * (dim - 2)
        np.testing.assert_array_equal(h.gradient(x), [1.0, 2.0] + rest)
        hess = h.hessian(x)
        np.testing.assert_array_equal(hess, np.diag([2.0, 2.0] + rest))

    def test_from_value_matches_analytic_derivatives(self):
        analytic = BarrierFunction.circle((1.0, -2.0), 2.0)
        fd = BarrierFunction.from_value(analytic.value)
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.uniform(-5.0, 5.0, size=4)
            g_ref = analytic.gradient(x)
            scale = max(1.0, float(np.max(np.abs(g_ref))))
            assert np.max(np.abs(fd.gradient(x) - g_ref)) / scale < 1e-5
            assert np.max(np.abs(fd.hessian(x) - analytic.hessian(x))) < 1e-3


class TestChain:
    def test_lift_matches_hand_formula_for_uav(self):
        dyn = uav_dynamics()
        h0 = BarrierFunction.circle((2.0, 1.0), 1.5)
        h1 = chain_lift(h0, dyn)
        for x in SAMPLE_UAV_STATES:
            dx, dy, v, phi = x[0] - 2.0, x[1] - 1.0, x[2], x[3]
            expected = (
                2.0 * dx * v * np.cos(phi)
                + 2.0 * dy * v * np.sin(phi)
                + (dx**2 + dy**2 - 1.5**2)
            )
            assert h1.value(x) == pytest.approx(expected, abs=1e-9)

    def test_relative_degree_uav_is_one(self):
        dyn = uav_dynamics()
        h0 = BarrierFunction.circle((2.0, 1.0), 1.5)
        assert detect_relative_degree(h0, dyn, SAMPLE_UAV_STATES) == 1

    def test_relative_degree_zero_for_direct_coupling(self):
        dyn = uav_dynamics()
        h_v = BarrierFunction.from_value(lambda x: 3.0 - float(x[2]))
        assert detect_relative_degree(h_v, dyn, SAMPLE_UAV_STATES) == 0

    def test_uncontrollable_chain_rejected(self):
        dead = ControlAffineDynamics(
            state_dim=2,
            input_dim=1,
            drift=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            control_matrix=np.zeros((2, 1)),
            noise_cov=np.array([[0.1]]),
        )
        h0 = BarrierFunction.from_value(lambda x: float(x[0]))
        with pytest.raises(ValueError, match="uncontrollable"):
            detect_relative_degree(h0, dead, np.array([[0.3, 0.4]]))

    def test_lift_levels_and_decoupling(self):
        dyn = uav_dynamics()
        h0 = BarrierFunction.circle((2.0, 1.0), 1.5)
        assert detect_relative_degree(h0, dyn, SAMPLE_UAV_STATES) == 1
        h1 = chain_lift(h0, dyn)
        b = dyn.control_matrix
        for x in SAMPLE_UAV_STATES:
            # Below the top level the control must not appear.
            np.testing.assert_allclose(h0.gradient(x) @ b, 0.0)
            assert np.max(np.abs(h1.gradient(x) @ b)) > 1e-6


class TestConstraintCoeffs:
    def test_double_integrator_hand_formula(self):
        # h0 = p lifts to h1 = v + p (affine levels kill the trace), so the
        # halfspace is u >= -p - 2v.
        dyn = double_integrator()
        h0 = BarrierFunction.from_value(lambda x: float(x[0]))
        states = np.array([[0.5, 1.0], [2.0, -1.0]])
        assert detect_relative_degree(h0, dyn, states) == 1
        h1 = chain_lift(h0, dyn)
        for p, v in ((0.5, 1.0), (-2.0, 0.3)):
            a, b = constraint_coeffs(h1, dyn, np.array([p, v]))
            np.testing.assert_allclose(a, [1.0], atol=1e-8)
            # The trace term carries finite-difference hessian noise ~1e-6.
            assert b == pytest.approx(-p - 2 * v, abs=5e-6)


def constraint_set(draw_angles, draw_offsets, witness):
    a_mat = np.array([[np.cos(ang), np.sin(ang)] for ang in draw_angles])
    b_vec = a_mat @ witness - np.asarray(draw_offsets[: len(draw_angles)])
    return a_mat, b_vec


feasible_case = st.builds(
    lambda wx, wy, ux, uy, angles, offsets: (
        np.array([ux, uy]),
        *constraint_set(angles, offsets, np.array([wx, wy])),
        np.array([wx, wy]),
    ),
    st.floats(-3.0, 3.0),
    st.floats(-3.0, 3.0),
    st.floats(-4.0, 4.0),
    st.floats(-4.0, 4.0),
    st.lists(st.floats(0.0, 2 * np.pi), min_size=1, max_size=4),
    st.lists(st.floats(0.0, 2.0), min_size=4, max_size=4),
)


def linprog_slack(a_mat, b_vec) -> float:
    """Independent verdict on {u : A u >= b} by linear programming.

    The largest t <= 1 such that some u has a_j . u >= b_j + t |a_j| for
    every row: positive when the set has interior, negative when it is empty.
    """
    p = a_mat.shape[1]
    norms = np.linalg.norm(a_mat, axis=1)
    res = linprog(
        np.r_[np.zeros(p), -1.0],
        A_ub=np.hstack([-a_mat, norms[:, None]]),
        b_ub=-b_vec,
        bounds=[(None, None)] * p + [(None, 1.0)],
        method="highs",
    )
    assert res.status == 0, res.message
    return -res.fun


def subsets(ids):
    return [list(c) for r in range(1, len(ids) + 1) for c in combinations(ids, r)]


@st.composite
def infeasible_case(draw):
    """2-4 half-spaces in 2-D around an empty core of 2 or 3 rows.

    The core is made empty by a Farkas multiplier y >= 0: its last normal is
    -(sum y_j a_j) / y_c, so y^T A = 0, and its last offset is shifted until
    y^T b > 0.  A core of 2 is an antiparallel pair.  The other rows are
    free.  Apart from exactly antiparallel pairs, no two normals are within
    about 8 degrees of (anti)parallel; the far corner of such a pair has its
    own test (test_far_corner_of_near_antiparallel_pair).  Every
    subset's verdict is kept clear of the boundary (|slack| > 1e-6), and
    normal entries below 1e-6 are excluded: HiGHS drops matrix entries under
    1e-9, which can turn an antiparallel pair into a crossing one.
    """

    def normal():
        ang = draw(st.floats(0.0, 2 * np.pi))
        return draw(st.floats(0.3, 2.0)) * np.array([np.cos(ang), np.sin(ang)])

    c = draw(st.integers(2, 3))
    k = c + draw(st.integers(0, 4 - c))
    y = np.array([draw(st.floats(0.2, 2.0)) for _ in range(c)])
    a_mat = np.array([normal() for _ in range(k)])
    a_mat[c - 1] = -(y[:-1] @ a_mat[: c - 1]) / y[-1]
    assume(np.linalg.norm(a_mat[c - 1]) > 0.05)
    assume(np.all((np.abs(a_mat) > 1e-6) | (a_mat == 0.0)))
    unit = a_mat / np.linalg.norm(a_mat, axis=1, keepdims=True)
    cos = np.abs(unit @ unit.T)[np.triu_indices(k, 1)]
    assume(np.all((cos <= 0.99) | (cos >= 1.0 - 1e-12)))
    b_vec = np.array([draw(st.floats(-2.0, 2.0)) for _ in range(k)])
    gap = draw(st.floats(0.1, 2.0))
    b_vec[c - 1] = (gap - y[:-1] @ b_vec[: c - 1]) / y[-1]
    order = draw(st.permutations(range(k)))
    a_mat, b_vec = a_mat[order], b_vec[order]
    slack = {tuple(ids): linprog_slack(a_mat[ids], b_vec[ids]) for ids in subsets(range(k))}
    assume(all(abs(t) > 1e-6 for t in slack.values()))
    return a_mat, b_vec, slack


class TestSafetyFilter:
    @given(case=feasible_case)
    @settings(max_examples=200)
    def test_output_feasible_and_no_worse_than_witness(self, case):
        u, a_mat, b_vec, witness = case
        out = safety_filter(u, a_mat, b_vec)
        assert np.all(a_mat @ out - b_vec >= -1e-9)
        assert np.linalg.norm(out - u) <= np.linalg.norm(witness - u) + 1e-9

    @given(case=feasible_case)
    @settings(max_examples=100)
    def test_idempotent(self, case):
        u, a_mat, b_vec, _ = case
        once = safety_filter(u, a_mat, b_vec)
        twice = safety_filter(once, a_mat, b_vec)
        np.testing.assert_array_equal(once, twice)

    def test_feasible_input_passes_through(self):
        u = np.array([0.5, 9.0])
        out = safety_filter(u, np.array([[1.0, 0.0]]), np.array([-1.0]))
        np.testing.assert_array_equal(out, u)

    def test_single_halfspace_projection(self):
        out = safety_filter(
            np.array([3.0, 0.0]), np.array([[0.0, 2.0]]), np.array([2.0])
        )
        np.testing.assert_allclose(out, [3.0, 1.0], atol=1e-12)

    def test_empty_constraints_identity(self):
        u = np.array([0.1, -0.2])
        np.testing.assert_array_equal(
            safety_filter(u, np.zeros((0, 2)), np.zeros(0)), u
        )

    def test_infeasible_raises_with_conflict_ids(self):
        # u_x <= 0 against u_x >= 1.
        a_mat = np.array([[1.0, 0.0], [-1.0, 0.0]])
        with pytest.raises(SafetyInfeasible) as err:
            safety_filter(np.zeros(2), a_mat, np.array([1.0, 0.0]))
        assert set(err.value.constraint_ids) == {0, 1}

    def test_zero_normal_dropped_or_fatal(self):
        u = np.array([0.3, 0.3])
        zero = np.zeros((1, 2))
        np.testing.assert_array_equal(safety_filter(u, zero, np.array([-1.0])), u)
        with pytest.raises(SafetyInfeasible):
            safety_filter(u, zero, np.array([1.0]))
        # Only the zero normal with a positive offset is named.
        with pytest.raises(SafetyInfeasible) as err:
            safety_filter(u, np.zeros((2, 2)), np.array([-1.0, 1.0]))
        assert err.value.constraint_ids == (1,)

    def test_conflict_ids_index_caller_rows_after_zero_normal_drop(self):
        # Row 0 is a dropped zero normal; the conflict is rows 1 and 2.
        a_mat = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
        b_vec = np.array([-1.0, 1.0, 0.0])
        with pytest.raises(SafetyInfeasible) as err:
            safety_filter(np.zeros(2), a_mat, b_vec)
        assert err.value.constraint_ids == (1, 2)

    @given(case=infeasible_case())
    @settings(max_examples=200, deadline=None)
    def test_certificate_is_minimal_infeasible_subset(self, case):
        a_mat, b_vec, slack = case
        assert slack[tuple(range(len(b_vec)))] < 0.0
        with pytest.raises(SafetyInfeasible) as err:
            safety_filter(np.zeros(2), a_mat, b_vec)
        ids = tuple(sorted(err.value.constraint_ids))
        assert len(set(ids)) == len(ids) >= 2
        assert slack[ids] < 0.0
        for rest in combinations(ids, len(ids) - 1):
            assert slack[rest] > 0.0

    def test_far_corner_of_near_antiparallel_pair(self):
        # Two non-parallel half-planes always meet; this pair meets near
        # (320, -2152).  Through the Gram matrix that corner's residual came
        # out at -1.03e-9 and the set was called empty; the vertex is now
        # solved from the pair itself.
        a_mat = np.array([[-0.98914601, -0.14693591], [1.13019494, 0.16742384]])
        b_vec = np.array([0.0, 1.0])
        assert linprog_slack(a_mat, b_vec) > 0.0
        out = safety_filter(np.zeros(2), a_mat, b_vec)
        assert np.all(a_mat @ out - b_vec >= -1e-9)

    @pytest.mark.parametrize(
        "pair",
        [
            [[-0.9519033, -0.3063986], [0.95190293, 0.30639975]],
            [[-0.71343558, -0.70072082], [0.71328574, 0.70087335]],
        ],
    )
    def test_vertex_of_near_antiparallel_pair(self, pair):
        # The pair is 0.0001-0.0002 rad from antiparallel and meets at the
        # origin, the nearest feasible point to u.  Through the Gram matrix
        # that vertex missed its half-spaces by more than 1e-9, and the set
        # was called empty.
        a_mat = np.array([[1.0, 0.0], *pair])
        b_vec = np.zeros(3)
        u = np.array([0.0, -1.0])
        out = safety_filter(u, a_mat, b_vec)
        assert np.all(a_mat @ out - b_vec >= -1e-9)
        assert np.linalg.norm(out - u) <= 1.0 + 1e-9

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            safety_filter(np.zeros(3), np.zeros((1, 2)), np.zeros(1))
        with pytest.raises(ValueError):
            safety_filter(np.zeros(2), np.zeros((2, 2)), np.zeros(1))
        with pytest.raises(ValueError):
            safety_filter(np.zeros(2), np.zeros(2), np.zeros(1))

    def test_nonfinite_control_rejected(self):
        with pytest.raises(ValueError):
            safety_filter(
                np.array([np.nan, 0.0]), np.array([[1.0, 0.0]]), np.array([0.0])
            )

    def test_two_active_constraints_corner(self):
        # Both halfspaces violated; the projection lands on their corner.
        a_mat = np.array([[1.0, 0.0], [0.0, 1.0]])
        out = safety_filter(np.array([0.0, 0.0]), a_mat, np.array([1.0, 2.0]))
        np.testing.assert_allclose(out, [1.0, 2.0], atol=1e-12)
