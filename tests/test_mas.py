"""Agent graph, factorial subsystems, and joint-block assembly."""

from __future__ import annotations

import numpy as np
import pytest

from safe_lsoc.mas import (
    AgentGraph,
    FactorialSubsystem,
    assemble_joint,
    build_subsystems,
    joint_dynamics,
)
from safe_lsoc.lsoc import RolloutBatch, estimate_optimal_control
from safe_lsoc.scenarios import UAV_INPUTS, uav_dynamics


class TestAgentGraph:
    def test_edges_normalize_orientation(self):
        g1 = AgentGraph.from_edge_list(3, [[0, 1], [2, 1]])
        g2 = AgentGraph.from_edge_list(3, [[1, 0], [1, 2]])
        assert g1.edges == g2.edges

    def test_neighbors_sorted_and_symmetric(self):
        g = AgentGraph.from_edge_list(4, [[2, 0], [0, 1]])
        assert g.neighbors(0) == [1, 2]
        assert g.neighbors(2) == [0]
        assert g.neighbors(3) == []

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            AgentGraph.from_edge_list(2, [[1, 1]])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            AgentGraph.from_edge_list(2, [[0, 2]])

    def test_bad_edge_arity_rejected(self):
        with pytest.raises(ValueError):
            AgentGraph.from_edge_list(3, [[0, 1, 2]])

    def test_empty_graph(self):
        g = AgentGraph.from_edge_list(1, [])
        assert g.neighbors(0) == []


class TestSubsystems:
    def test_one_per_agent_central_first(self):
        g = AgentGraph.from_edge_list(3, [[0, 1], [1, 2]])
        subs = build_subsystems(g)
        assert [s.central for s in subs] == [0, 1, 2]
        assert subs[0].members == (0, 1)
        assert subs[1].members == (1, 0, 2)
        assert subs[2].members == (2, 1)

    def test_central_must_occupy_block_zero(self):
        with pytest.raises(ValueError):
            FactorialSubsystem(central=1, members=(0, 1))

    def test_duplicate_members_rejected(self):
        with pytest.raises(ValueError):
            FactorialSubsystem(central=0, members=(0, 1, 1))

    def test_block_lookup(self):
        sub = FactorialSubsystem(central=2, members=(2, 0, 3))
        assert sub.block(2) == 0
        assert sub.block(3) == 2
        assert sub.size == 3


class TestAssembleJoint:
    def test_concatenates_in_block_order(self):
        sub = FactorialSubsystem(central=1, members=(1, 0))
        states = [np.array([0.0, 0.0]), np.array([1.0, 2.0])]
        np.testing.assert_array_equal(
            assemble_joint(sub, states), [1.0, 2.0, 0.0, 0.0]
        )

    def test_missing_state_rejected(self):
        sub = FactorialSubsystem(central=0, members=(0, 3))
        with pytest.raises(IndexError):
            assemble_joint(sub, [np.zeros(2)])


class TestJointDynamics:
    def test_blocks_partition_state_and_input(self):
        dyn = joint_dynamics(uav_dynamics(), 2)
        assert dyn.state_dim == 8
        assert dyn.input_dim == 4
        assert dyn.noise_cov.shape == (4, 4)
        np.testing.assert_allclose(
            np.diag(dyn.noise_cov), [0.05, 0.025, 0.05, 0.025]
        )

    def test_drift_stacks_blockwise(self):
        single = uav_dynamics()
        joint = joint_dynamics(single, 2)
        xa = np.array([0.0, 0.0, 2.0, 0.5])
        xb = np.array([3.0, 1.0, 1.0, -0.25])
        out = joint.drift(np.concatenate([xa, xb]))
        np.testing.assert_allclose(out[:4], single.drift(xa))
        np.testing.assert_allclose(out[4:], single.drift(xb))

    def test_drift_vectorized_over_batches(self):
        joint = joint_dynamics(uav_dynamics(), 2)
        batch = np.random.default_rng(0).normal(size=(7, 8))
        out = joint.drift(batch)
        assert out.shape == (7, 8)
        np.testing.assert_allclose(out[3], joint.drift(batch[3]))

    def test_control_matrix_block_diagonal(self):
        joint = joint_dynamics(uav_dynamics(), 2)
        b = joint.control_matrix
        assert b.shape == (8, 4)
        np.testing.assert_allclose(b[:4, 2:], 0.0)
        np.testing.assert_allclose(b[4:, :2], 0.0)
        np.testing.assert_allclose(b[2, 0], 1.0)
        np.testing.assert_allclose(b[7, 3], 1.0)


class TestBlockZeroEstimate:
    """The loop applies est.control[:UAV_INPUTS], block 0 of the joint control."""

    def test_batch_slice(self):
        # Block 0 of the joint estimate is the single-agent estimate from the
        # first UAV_INPUTS columns of the joint first-step noise.
        single = uav_dynamics()
        joint = joint_dynamics(single, 2)
        dw0 = np.arange(8.0).reshape(2, 4)
        np.testing.assert_array_equal(dw0[:, :UAV_INPUTS], [[0.0, 1.0], [4.0, 5.0]])
        costs = np.array([1.0, 1.5])

        def batch(dyn, dw):
            return RolloutBatch(
                dt=0.1,
                noise_cov=dyn.noise_cov,
                dw0=dw,
                exit_states=np.zeros((2, dyn.state_dim)),
                exit_steps=np.ones(2, dtype=int),
                running_costs=costs,
            )

        def no_final_cost(x):
            return np.zeros(len(x))

        u_joint = estimate_optimal_control(
            batch(joint, dw0), no_final_cost, 0.7
        ).control
        u_local = estimate_optimal_control(
            batch(single, dw0[:, :UAV_INPUTS]), no_final_cost, 0.7
        ).control
        assert u_joint.shape == (4,)
        np.testing.assert_allclose(u_joint[:UAV_INPUTS], u_local, rtol=1e-14, atol=0)
