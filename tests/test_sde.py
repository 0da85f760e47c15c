"""Dynamics container, noise streams, and the Euler-Maruyama step."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from safe_lsoc.sde import (
    KIND_SIM,
    ControlAffineDynamics,
    NoiseStream,
    SimulationError,
    derive_stream_id,
    em_step,
)
from safe_lsoc.scenarios import UAV_INPUTS, uav_dynamics


def double_integrator() -> ControlAffineDynamics:
    return ControlAffineDynamics(
        state_dim=2,
        input_dim=1,
        drift=lambda x: np.stack(
            [np.asarray(x)[..., 1], np.zeros_like(np.asarray(x)[..., 1])],
            axis=-1,
        ),
        control_matrix=np.array([[0.0], [1.0]]),
        noise_cov=np.array([[0.3]]),
    )


class TestStreamIds:
    def test_packing_is_injective(self):
        seen = set()
        for kind in (1, 2, 3):
            for agent in (0, 1, 17):
                for step in (0, 5, 1000):
                    seen.add(derive_stream_id(kind, agent, step))
        assert len(seen) == 27

    @pytest.mark.parametrize(
        "kind,agent,step", [(-1, 0, 0), (16, 0, 0), (0, -1, 0), (0, 2**14, 0), (0, 0, -1)]
    )
    def test_out_of_range_rejected(self, kind, agent, step):
        with pytest.raises(ValueError):
            derive_stream_id(kind, agent, step)


class TestNoiseStream:
    def test_same_ids_reproduce(self):
        a = NoiseStream(42, 7).generator().normal(size=100)
        b = NoiseStream(42, 7).generator().normal(size=100)
        np.testing.assert_array_equal(a, b)
        # A stream is a key: each generator() call starts it afresh.
        s = NoiseStream(42, 7)
        np.testing.assert_array_equal(s.generator().normal(size=100), a)
        np.testing.assert_array_equal(s.generator().normal(size=100), a)

    def test_distinct_stream_ids_differ(self):
        a = NoiseStream(42, 7).generator().normal(size=100)
        b = NoiseStream(42, 8).generator().normal(size=100)
        assert np.max(np.abs(a - b)) > 1e-6

    def test_child_matches_derived_id(self):
        child = NoiseStream(3).child(2, 4, 99)
        assert child.stream_id == derive_stream_id(2, 4, 99)
        assert child.seed == 3

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            NoiseStream(-1)


class TestSampleIncrements:
    """The loop's Brownian increments: one N(0, dt I) draw of UAV_INPUTS
    values per step from the agent's KIND_SIM stream."""

    def test_variance_matches_dt(self):
        # One percent at a million samples.
        dt = 0.05
        gen = NoiseStream(11).child(KIND_SIM, 0, 0).generator()
        draws = gen.normal(0.0, np.sqrt(dt), size=(500_000, UAV_INPUTS))
        assert abs(np.var(draws) - dt) < 0.01 * dt

    def test_shapes(self):
        # Per-step draws match the input dimension and chain into one
        # (steps, UAV_INPUTS) draw, so the variance above is the loop's.
        assert uav_dynamics().input_dim == UAV_INPUTS
        gen = NoiseStream(0).child(KIND_SIM, 1, 0).generator()
        steps = [gen.normal(0.0, np.sqrt(0.1), size=UAV_INPUTS) for _ in range(7)]
        assert all(s.shape == (UAV_INPUTS,) for s in steps)
        bulk = (
            NoiseStream(0)
            .child(KIND_SIM, 1, 0)
            .generator()
            .normal(0.0, np.sqrt(0.1), size=(7, UAV_INPUTS))
        )
        np.testing.assert_array_equal(np.stack(steps), bulk)


class TestEmStep:
    def test_exact_for_constant_drift_no_noise(self):
        # n steps of g dt + B u dt reproduce the closed form.
        dyn = ControlAffineDynamics(
            state_dim=2,
            input_dim=1,
            drift=lambda x: np.array([1.5, -0.25]),
            control_matrix=np.array([[0.0], [2.0]]),
            noise_cov=np.array([[0.1]]),
        )
        x = np.array([0.0, 0.0])
        u = np.array([0.5])
        dt = 0.25
        for _ in range(8):
            x = em_step(dyn, x, u, dt, np.zeros(1))
        expected = 8 * dt * (np.array([1.5, -0.25]) + np.array([0.0, 2.0]) * 0.5)
        np.testing.assert_allclose(x, expected, atol=1e-12)

    def test_noise_enters_through_control_matrix(self):
        dyn = double_integrator()
        x0 = np.array([1.0, 2.0])
        out = em_step(dyn, x0, np.array([0.0]), 0.0, np.array([4.0]))
        # B sigma dw only touches the velocity row.
        np.testing.assert_allclose(out, [1.0, 2.0 + 0.3 * 4.0])

    def test_nonfinite_rejected(self):
        dyn = double_integrator()
        with pytest.raises(SimulationError):
            em_step(dyn, np.array([np.nan, 0.0]), np.array([0.0]), 0.1, np.zeros(1))


class TestDynamicsValidation:
    @given(
        n=st.integers(min_value=1, max_value=4),
        m=st.integers(min_value=1, max_value=4),
        rows=st.integers(min_value=1, max_value=3),
    )
    @example(n=2, m=2, rows=2)
    @example(n=2, m=2, rows=3)
    @settings(max_examples=20)
    def test_noise_cov_shape_enforced(self, n, m, rows):
        cov = np.eye(m)
        build = lambda: ControlAffineDynamics(
            state_dim=2, input_dim=n,
            drift=lambda x: x, control_matrix=np.zeros((rows, n)),
            noise_cov=cov,
        )
        if rows != 2:
            with pytest.raises(ValueError, match="control_matrix"):
                build()
        elif n != m:
            with pytest.raises(ValueError, match="noise_cov"):
                build()
        else:
            dyn = build()
            assert dyn.noise_cov.shape == (n, n)
            assert dyn.control_matrix.shape == (2, n)
