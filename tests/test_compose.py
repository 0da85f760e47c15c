"""Weight algebra for blending solved component controllers."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from safe_lsoc.compose import (
    composite_control,
    composite_final_cost,
    composition_weights,
    state_weights,
)
from safe_lsoc.harness import run_generalization
from safe_lsoc.lsoc import estimate_optimal_control
from safe_lsoc.mas import assemble_joint, build_subsystems
from safe_lsoc.scenarios import (
    UAV_INPUTS,
    subsystem_composition_weights,
    subsystem_final_cost,
    subsystem_rollouts,
)
from safe_lsoc.sde import KIND_ROLLOUT, NoiseStream

from conftest import corridor_composite_dict


def hull_distance(point: np.ndarray, vertices: np.ndarray) -> float:
    """Distance from point to the convex hull of vertex rows.

    Solved as nonnegative least squares on [V^T; 1] a = [p; 1] with the
    sum-to-one row weighted hard; membership gives a tiny residual.
    """
    big = 1e6
    a_mat = np.vstack([vertices.T, big * np.ones(vertices.shape[0])])
    b_vec = np.concatenate([point, [big]])
    coeff, _ = scipy.optimize.nnls(a_mat, b_vec)
    return float(np.linalg.norm(vertices.T @ coeff - point))


targets_strategy = st.lists(
    st.tuples(st.floats(-40.0, 40.0), st.floats(-40.0, 40.0)),
    min_size=1,
    max_size=5,
)


def make_weights(targets, new_target, width=0.02):
    kernel = np.diag([width, width])
    return composition_weights(
        [np.asarray(t, dtype=float) for t in targets],
        np.asarray(new_target, dtype=float),
        kernel,
    )


class TestCompositionWeights:
    @given(targets=targets_strategy, nx=st.floats(-40.0, 40.0), ny=st.floats(-40.0, 40.0))
    @settings(max_examples=150)
    def test_normalized_and_bounded(self, targets, nx, ny):
        w = make_weights(targets, (nx, ny))
        assert abs(float(np.sum(w.normalized)) - 1.0) <= 1e-12
        assert np.all(w.normalized >= 0.0)
        assert np.all(np.isfinite(w.log_normalized) & (w.log_normalized <= 0.0))
        np.testing.assert_allclose(
            np.exp(w.log_normalized), w.normalized, rtol=1e-12, atol=0.0
        )

    def test_exact_target_match_gets_unit_raw_weight(self):
        # Raw weights are [1, exp(-0.5 * 0.02 * 14^2)] = [1, exp(-1.96)].
        w = make_weights([(35.0, 28.0), (35.0, 14.0)], (35.0, 28.0))
        assert w.log_normalized[0] == pytest.approx(-np.log1p(np.exp(-1.96)))
        assert w.log_normalized[1] - w.log_normalized[0] == pytest.approx(-1.96)
        assert w.normalized[0] > w.normalized[1]

    def test_far_targets_keep_ratios_in_log_domain(self):
        # Raw weights land in the subnormal range (one underflows to zero);
        # normalization must resolve the ratio in the log domain instead of
        # dividing vanishing floats.
        w = make_weights([(0.0, 38.5), (0.0, 42.0)], (0.0, 0.0), width=1.0)
        gap = 0.5 * (42.0**2 - 38.5**2)
        assert w.log_normalized[1] - w.log_normalized[0] == pytest.approx(-gap)
        assert abs(float(np.sum(w.normalized)) - 1.0) <= 1e-12
        assert w.normalized[0] > 0.99
        # A normalized weight that underflows keeps a finite log.
        w = make_weights([(0.0, 0.0), (0.0, 50.0)], (0.0, 0.0), width=1.0)
        assert w.normalized[1] == 0.0
        assert w.log_normalized[1] == -1250.0

    def test_total_underflow_rejected(self):
        with pytest.raises(ValueError, match="kernel support"):
            make_weights([(1e9, 1e9)], (0.0, 0.0), width=1.0)

    def test_kernel_validation(self):
        t = [np.zeros(2)]
        with pytest.raises(ValueError):
            composition_weights(t, np.zeros(2), np.array([[1.0, 0.1], [0.1, 1.0]]))
        with pytest.raises(ValueError):
            composition_weights(t, np.zeros(2), np.diag([1.0, 0.0]))
        with pytest.raises(ValueError):
            composition_weights(t, np.zeros(3), np.diag([1.0, 1.0]))
        with pytest.raises(ValueError):
            composition_weights([], np.zeros(2), np.diag([1.0, 1.0]))


class TestStateWeights:
    @given(
        targets=targets_strategy,
        log_z=st.lists(st.floats(-500.0, 5.0), min_size=5, max_size=5),
    )
    @settings(max_examples=150)
    def test_convex_coefficients(self, targets, log_z):
        w = make_weights(targets, (0.0, 0.0))
        lz = np.asarray(log_z[: len(targets)])
        sw = state_weights(w, lz)
        assert abs(float(np.sum(sw)) - 1.0) <= 1e-12
        assert np.all(sw >= 0.0) and np.all(sw <= 1.0)

    @given(
        log_z=st.lists(st.floats(-200.0, 5.0), min_size=3, max_size=3),
        shift=st.floats(-300.0, 300.0),
    )
    @settings(max_examples=100)
    def test_z_scaling_invariance(self, log_z, shift):
        # Scaling every Z by a common factor shifts every log by the same
        # constant and must leave the mixture weights bitwise unchanged.
        w = make_weights([(0.0, 0.0), (3.0, 0.0), (0.0, 3.0)], (1.0, 1.0))
        base = state_weights(w, np.asarray(log_z))
        scaled = state_weights(w, np.asarray(log_z) + shift)
        np.testing.assert_allclose(scaled, base, rtol=1e-11, atol=0.0)

    def test_permutation_equivariance(self):
        targets = [(0.0, 0.0), (6.0, 0.0), (0.0, 9.0)]
        log_z = np.array([-4.0, -1.0, -9.0])
        perm = [2, 0, 1]
        w = make_weights(targets, (1.0, 2.0))
        w_p = make_weights([targets[i] for i in perm], (1.0, 2.0))
        sw = state_weights(w, log_z)
        sw_p = state_weights(w_p, log_z[perm])
        np.testing.assert_allclose(sw_p, sw[perm], rtol=1e-12, atol=1e-15)

    def test_underflowed_z_still_mixes(self):
        w = make_weights([(0.0, 0.0), (5.0, 0.0)], (2.5, 0.0))
        sw = state_weights(w, np.array([-2000.0, -2000.0]))
        assert abs(float(np.sum(sw)) - 1.0) <= 1e-12

    def test_shape_and_nan_validation(self):
        w = make_weights([(0.0, 0.0), (5.0, 0.0)], (2.5, 0.0))
        with pytest.raises(ValueError):
            state_weights(w, np.array([-1.0]))
        with pytest.raises(ValueError):
            state_weights(w, np.array([np.nan, 0.0]))
        with pytest.raises(ValueError):
            state_weights(w, np.array([-np.inf, -np.inf]))


class TestCompositeControl:
    @given(
        weights_raw=st.lists(st.floats(0.01, 1.0), min_size=2, max_size=4),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=150)
    def test_mixture_stays_in_convex_hull(self, weights_raw, seed):
        w = np.asarray(weights_raw)
        w = w / w.sum()
        controls = np.random.default_rng(seed).normal(size=(w.shape[0], 2))
        u = composite_control(w, list(controls))
        assert hull_distance(u, controls) <= 1e-9

    def test_exact_convex_combination(self):
        u = composite_control(
            np.array([0.25, 0.75]), [np.array([1.0, 0.0]), np.array([0.0, 4.0])]
        )
        np.testing.assert_allclose(u, [0.25, 3.0])

    def test_invalid_weights_rejected(self):
        controls = [np.zeros(2), np.zeros(2)]
        with pytest.raises(ValueError):
            composite_control(np.array([0.6, 0.6]), controls)
        with pytest.raises(ValueError):
            composite_control(np.array([1.2, -0.2]), controls)
        with pytest.raises(ValueError):
            composite_control(np.array([1.0]), controls)

    def test_single_component_identity(self):
        u = np.array([0.3, -0.8])
        np.testing.assert_array_equal(
            composite_control(np.array([1.0]), [u]), u
        )


class TestCompositeFinalCost:
    def phis(self):
        t1, t2 = np.array([2.0, 0.0]), np.array([-1.0, 1.0])
        f1 = lambda x: np.abs(np.atleast_2d(x)[..., 0] - t1[0]) + np.abs(
            np.atleast_2d(x)[..., 1] - t1[1]
        )
        f2 = lambda x: np.abs(np.atleast_2d(x)[..., 0] - t2[0]) + np.abs(
            np.atleast_2d(x)[..., 1] - t2[1]
        )
        return [f1, f2], [t1, t2]

    def test_desirability_identity(self):
        costs, targets = self.phis()
        lam = 0.7
        w = make_weights(targets, (0.5, 0.5), width=0.5)
        phi = composite_final_cost(costs, w, lam=lam)
        x = np.random.default_rng(1).normal(size=(20, 2))
        lhs = np.exp(-phi(x) / lam)
        rhs = sum(
            w.normalized[f] * np.exp(-np.asarray(c(x)) / lam)
            for f, c in enumerate(costs)
        )
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_log_sum_exp_bracketing(self):
        costs, targets = self.phis()
        lam = 0.7
        w = make_weights(targets, (0.5, 0.5), width=0.5)
        phi = composite_final_cost(costs, w, lam=lam)
        xs = np.random.default_rng(2).normal(size=(50, 2))
        vals = np.stack([np.asarray(c(xs)) for c in costs], axis=0)
        argmin = np.argmin(vals, axis=0)
        lower = np.min(vals, axis=0)
        upper = lower - lam * np.log(w.normalized[argmin])
        got = np.asarray(phi(xs))
        assert np.all(lower - 1e-9 <= got)
        assert np.all(got <= upper + 1e-9)

    def test_single_component_reduces_to_component(self):
        costs, targets = self.phis()
        w = make_weights(targets[:1], tuple(targets[0]), width=0.5)
        phi = composite_final_cost(costs[:1], w, lam=0.8)
        x = np.array([[0.3, -0.6]])
        np.testing.assert_allclose(phi(x), costs[0](x), rtol=1e-14)

    def test_validation(self):
        costs, targets = self.phis()
        w = make_weights(targets, (0.0, 0.0), width=0.5)
        with pytest.raises(ValueError):
            composite_final_cost(costs[:1], w)
        with pytest.raises(ValueError):
            composite_final_cost(costs, w, lam=0.0)


class TestExactComposition:
    """The mixed control is the direct estimate under the composite final cost."""

    @pytest.mark.parametrize(
        "name, mode",
        [
            # A baseline run's id is the bare scenario name.
            pytest.param(
                name, mode, id=name if mode == "baseline" else f"{name}-{mode}"
            )
            for name in ("two_target_composition", "five_uav_composition", "corridor")
            for mode in ("baseline", "filtered")
        ],
    )
    def test_mixed_control_equals_estimate_under_composite_final_cost(
        self, bundled, write_scenario, name, mode
    ):
        # Under phi = -lam log sum_f w_f exp(-phi_f / lam) the desirability is
        # the weighted sum of the component ones, so every raw control equals
        # the estimate on its batch re-scored by phi (Todorov, NIPS 2009).  In
        # filtered mode too: the filter acts on the mix, and on the corridor
        # it binds.
        if name == "corridor":
            sc = write_scenario(corridor_composite_dict(), name)
        else:
            sc = bundled(name)
        res = run_generalization(sc, seed=0, mode=mode)
        targets, components = sc.task_view()
        lam = sc.pi.temperature
        worst, steps = 0.0, 0
        for sub in build_subsystems(sc.graph):
            finals = [subsystem_final_cost(sc, sub, comp) for comp in components]
            phi = composite_final_cost(
                finals, subsystem_composition_weights(sc, sub), lam
            )
            sample = subsystem_rollouts(sc, sub, targets).sample
            i = sub.central
            for k, u_mix in enumerate(res.agents[i].raw_controls):
                # A finished agent holds its last state.
                states = [
                    rec.states[min(k, len(rec.states) - 1)]
                    for rec in res.agents
                ]
                batch = sample(
                    assemble_joint(sub, states),
                    NoiseStream(0).child(KIND_ROLLOUT, i, k),
                )
                u = estimate_optimal_control(batch, phi, lam).control[:UAV_INPUTS]
                worst = max(
                    worst, float(np.linalg.norm(u_mix - u) / np.linalg.norm(u))
                )
                steps += 1
        assert steps == sum(len(rec.raw_controls) for rec in res.agents)
        assert worst <= 1e-12
