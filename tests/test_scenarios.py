"""Vehicle model, cost shapes, and scenario file validation."""

from __future__ import annotations

import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from safe_lsoc.lsoc import rollout_batch
from safe_lsoc.mas import assemble_joint, build_subsystems
from safe_lsoc.scenarios import (
    UAV_DIM,
    UAV_INPUTS,
    CostParams,
    FinalCost,
    Obstacle,
    PiParams,
    ScenarioError,
    bundled_scenario_path,
    disc_barriers,
    final_cost,
    list_bundled_scenarios,
    load_scenario,
    obstacle_discs,
    running_cost_coop,
    SimParams,
    TaskSpec,
    subsystem_composition_weights,
    subsystem_final_cost,
    subsystem_problem,
    subsystem_rollouts,
    uav_drift,
    uav_dynamics,
)
from safe_lsoc.sde import ControlAffineDynamics, NoiseStream
from safe_lsoc.selfcheck import BATCH_ARRAYS, rollout_kernel_check
from safe_lsoc.zcbf import (
    BarrierFunction,
    chain_lift,
    constraint_coeffs,
    detect_relative_degree,
)

from conftest import tiny_composite_dict, tiny_scenario_dict


def _with_second_agent(data: dict, edges: list) -> None:
    data["agents"].append({"start": [5.0, 12.0, 2.5, 0.0], "target": [15.0, 12.0]})
    data["edges"] = edges


class TestVehicleModel:
    def test_drift_components(self):
        x = np.array([1.0, 2.0, 3.0, np.pi / 2.0])
        g = uav_drift(x)
        np.testing.assert_allclose(g, [3.0 * np.cos(np.pi / 2), 3.0, 0.0, 0.0], atol=1e-12)

    def test_drift_batch_shape(self):
        xs = np.zeros((7, 5, UAV_DIM))
        xs[..., 2] = 2.0
        g = uav_drift(xs)
        assert g.shape == xs.shape
        np.testing.assert_allclose(g[..., 0], 2.0)
        np.testing.assert_allclose(g[..., 2:], 0.0)

    def test_dynamics_dimensions_and_noise(self):
        dyn = uav_dynamics(sigma=0.05, nu=0.025)
        assert dyn.state_dim == UAV_DIM and dyn.input_dim == UAV_INPUTS
        np.testing.assert_array_equal(dyn.noise_cov, np.diag([0.05, 0.025]))
        b = dyn.control_matrix
        assert b.shape == (UAV_DIM, UAV_INPUTS)
        np.testing.assert_array_equal(b[:2], 0.0)

    def test_dynamics_rejects_nonpositive_noise(self):
        with pytest.raises(ValueError):
            uav_dynamics(sigma=0.0)
        with pytest.raises(ValueError):
            uav_dynamics(nu=-0.01)


class TestObstacle:
    def test_keepout_radius(self):
        ob = Obstacle(center=(1.0, 2.0), radius=3.0, margin=1.5)
        assert ob.keepout_radius == 4.5

    def test_contains_is_physical_disc_only(self):
        ob = Obstacle(center=(0.0, 0.0), radius=2.0, margin=1.0)
        assert ob.contains(np.array([1.9, 0.0]))
        # Inside the margin band but outside the disc: soft cost free.
        assert not ob.contains(np.array([2.5, 0.0]))
        assert not ob.contains(np.array([2.0, 0.0]))

    def test_contains_batch(self):
        ob = Obstacle(center=(0.0, 0.0), radius=1.0, margin=0.0)
        pos = np.array([[0.0, 0.0], [2.0, 0.0], [0.5, 0.5]])
        np.testing.assert_array_equal(ob.contains(pos), [True, False, True])

    def test_validation(self):
        with pytest.raises(ValueError):
            Obstacle(center=(0.0, 0.0), radius=0.0, margin=1.0)
        with pytest.raises(ValueError):
            Obstacle(center=(0.0, 0.0), radius=1.0, margin=-0.5)
        with pytest.raises(ValueError):
            Obstacle(center=(0.0, 0.0), radius=1.0, margin=0.0, soft_cost=-1.0)
        for bad in ({"radius": np.inf}, {"margin": np.nan}, {"soft_cost": np.nan}):
            args = {"radius": 1.0, "margin": 0.0, **bad}
            with pytest.raises(ValueError, match="finite"):
                Obstacle(center=(0.0, 0.0), **args)

    def test_chain_has_relative_degree_one(self):
        ob = Obstacle(center=(5.0, 5.0), radius=2.0, margin=1.0)
        h0 = BarrierFunction.circle(ob.center, ob.radius, ob.margin)
        # Moving states beside the disc expose the control coupling.
        states = np.array([[10.0, 5.0, 1.5, 0.0], [2.0, 9.0, 1.5, 2.7]])
        assert detect_relative_degree(h0, uav_dynamics(), states) == 1


class TestDiscBarriers:
    """The loop's closed-form disc chain against the finite-difference one."""

    @settings(max_examples=60, deadline=None)
    @given(
        state=st.tuples(
            st.floats(-5.0, 45.0), st.floats(-5.0, 40.0),
            st.floats(0.0, 3.0), st.floats(-np.pi, np.pi),
        ),
        discs=st.lists(
            st.tuples(
                st.floats(0.0, 40.0), st.floats(0.0, 35.0),
                st.floats(0.5, 5.0), st.floats(0.0, 2.0),
            ),
            min_size=1, max_size=4,
        ),
        # The oracle's finite-difference hessian error scales with |S|^2;
        # at this range it stays below a quarter of the b tolerance.
        noise=st.tuples(
            st.floats(0.01, 0.06), st.floats(-0.02, 0.02),
            st.floats(-0.02, 0.02), st.floats(0.01, 0.06),
        ),
        full_noise=st.booleans(),
    )
    def test_matches_finite_difference_chain(
        self, state, discs, noise, full_noise
    ):
        x = np.array(state)
        s_vv, s_vp, s_pv, s_pp = noise
        if full_noise:
            # Correlated noise on (v, phi): the trace term gains k S_v.S_phi.
            dyn = ControlAffineDynamics(
                state_dim=UAV_DIM,
                input_dim=UAV_INPUTS,
                drift=uav_drift,
                control_matrix=uav_dynamics().control_matrix,
                noise_cov=np.array([[s_vv, s_vp], [s_pv, s_pp]]),
            )
        else:
            dyn = uav_dynamics(sigma=s_vv, nu=s_pp)
        obstacles = [
            Obstacle(center=(cx, cy), radius=rad, margin=m)
            for cx, cy, rad, m in discs
        ]
        h, a, b = disc_barriers(x, obstacle_discs(obstacles), dyn.noise_cov)
        n = len(obstacles)
        assert h.shape == (n, 2) and a.shape == (n, 2) and b.shape == (n,)
        for j, ob in enumerate(obstacles):
            h0 = BarrierFunction.circle(ob.center, ob.radius, ob.margin)
            h1 = chain_lift(h0, dyn)
            a_ref, b_ref = constraint_coeffs(h1, dyn, x)
            np.testing.assert_allclose(
                h[j], [h0.value(x), h1.value(x)], rtol=1e-9, atol=1e-9
            )
            np.testing.assert_allclose(a[j], a_ref, rtol=0.0, atol=1e-6)
            assert abs(b[j] - b_ref) <= 1e-6 * max(1.0, abs(b_ref))

    def test_no_obstacles_gives_empty_tables(self):
        h, a, b = disc_barriers(
            np.array([1.0, 2.0, 1.0, 0.3]), obstacle_discs([]), np.eye(2)
        )
        assert h.shape == (0, 2) and a.shape == (0, 2) and b.shape == (0,)

    @pytest.mark.parametrize("n_obs", [0, 2])
    @pytest.mark.parametrize("n_states", [1, 3, 5])
    def test_stacked_states_match_one_state_calls(self, n_states, n_obs):
        rng = np.random.default_rng(10 * n_states + n_obs)
        xs = rng.uniform([-20.0, -20.0, 0.0, -np.pi], [20.0, 20.0, 3.0, np.pi],
                         size=(n_states, UAV_DIM))
        discs = obstacle_discs(
            [Obstacle(center=(3.0, -4.0), radius=2.0, margin=0.5),
             Obstacle(center=(-6.0, 8.0), radius=1.5, margin=1.0)][:n_obs]
        )
        noise = np.array([[0.05, 0.01], [-0.02, 0.025]])
        h, a, b = disc_barriers(xs, discs, noise)
        assert h.shape == (n_states, n_obs, 2)
        assert a.shape == (n_states, n_obs, 2) and b.shape == (n_states, n_obs)
        for i, x in enumerate(xs):
            for stacked, single in zip((h, a, b), disc_barriers(x, discs, noise)):
                assert np.array_equal(stacked[i], single)

    def test_unsafe_start_names_agent_and_obstacle(self, write_scenario):
        data = tiny_scenario_dict()
        data["agents"].append({"start": [9.0, 7.5, 2.5, 0.0], "target": [15.0, 12.0]})
        message = "agents[1] starts outside the safe set of obstacle 0"
        with pytest.raises(ScenarioError, match=re.escape(message)):
            write_scenario(data)


def goal_cost(states, target, d_max, obstacles=()):
    """Running cost of an agent with no cooperation partners."""
    return running_cost_coop(
        states, [target], d_max, pair_blocks=(), goal_weight=1.0,
        pair_weight=0.0, obstacles=obstacles,
    )


class TestRunningCosts:
    @given(
        px=st.floats(-30.0, 30.0),
        py=st.floats(-30.0, 30.0),
        d_max=st.floats(0.0, 40.0),
    )
    @settings(max_examples=200)
    def test_single_cost_nonnegative(self, px, py, d_max):
        q = goal_cost(
            np.array([px, py, 1.0, 0.0]),
            np.array([3.0, 4.0]),
            d_max,
            [Obstacle(center=(0.0, 0.0), radius=1.0, margin=0.5)],
        )
        assert np.all(np.asarray(q) >= 0.0)

    def test_single_cost_zero_inside_start_radius(self):
        target = np.array([10.0, 0.0])
        d_max = 10.0
        states = np.array([[0.0, 0.0, 1.0, 0.0], [5.0, 0.0, 1.0, 0.0]])
        q = goal_cost(states, target, d_max)
        np.testing.assert_array_equal(q, [0.0, 0.0])

    def test_single_cost_linear_beyond_radius(self):
        q = goal_cost(
            np.array([-4.0, 0.0, 1.0, 0.0]), np.array([10.0, 0.0]), 10.0
        )
        assert float(q) == pytest.approx(4.0, abs=1e-12)

    def test_soft_obstacle_penalty_added(self):
        # Penalty is additive on top of the goal term: exactly soft_cost
        # inside the disc, exactly zero in the margin band and beyond.
        ob = Obstacle(center=(0.0, 0.0), radius=2.0, margin=1.0, soft_cost=160.0)
        target, d_max = np.array([0.0, 8.0]), 8.0
        for pos, expected in [([0.5, 0.0], 160.0), ([2.5, 0.0], 0.0)]:
            state = np.array([pos[0], pos[1], 1.0, 0.0])
            with_ob = goal_cost(state, target, d_max, [ob])
            without = goal_cost(state, target, d_max)
            assert float(with_ob - without) == pytest.approx(expected, abs=1e-12)

    def test_coop_cost_combines_goal_and_pair_terms(self):
        # central at origin, partner 3 away, initial pair distance 2
        joint = np.array([0.0, 0.0, 1.0, 0.0, 3.0, 0.0, 1.0, 0.0])
        member_targets = np.array([[10.0, 0.0], [10.0, 0.0]])
        q = running_cost_coop(
            joint, member_targets, d_max=4.0, pair_blocks=[(1, 2.0)],
            goal_weight=0.7, pair_weight=1.4,
        )
        # goal term 0.7 (10 - 4) + pair term 1.4 (3 - 2)
        assert float(q) == pytest.approx(0.7 * 6.0 + 1.4 * 1.0, abs=1e-9)

    def test_coop_cost_clamped_jointly(self):
        # Goal surplus below d_max outweighs the pair excess: clamps to zero.
        joint = np.array([9.0, 0.0, 1.0, 0.0, 3.0, 0.0, 1.0, 0.0])
        member_targets = np.array([[10.0, 0.0], [10.0, 0.0]])
        q = running_cost_coop(
            joint, member_targets, d_max=10.0, pair_blocks=[(1, 2.0)],
            goal_weight=1.0, pair_weight=1.0,
        )
        assert float(q) == 0.0

    def test_final_cost_l1_form(self):
        x = np.array([3.0, -1.0, 2.0, 0.3])
        phi = final_cost(x, np.array([1.0, 1.0]), c=0.5, d=4.0, alpha=0.25)
        assert float(phi) == pytest.approx((4.0 / 2.0) * (2.0 + 2.0 + 0.5) + 0.25)

    def test_final_cost_batch(self):
        xs = np.zeros((6, UAV_DIM))
        phi = final_cost(xs, np.array([1.0, 0.0]))
        np.testing.assert_allclose(phi, np.ones(6))


class TestScenarioLoading:
    def test_tiny_scenario_loads(self, tiny_scenario):
        assert tiny_scenario.n_agents == 1
        assert tiny_scenario.task.mode == "single"
        assert tiny_scenario.pi.rollouts == 200
        assert tiny_scenario.sim.seeds == (0, 1)

    def test_tiny_composite_loads(self, tiny_composite):
        task = tiny_composite.task
        assert task.mode == "composite"
        assert [c.targets.tolist() for c in task.components] == [
            [[14.0, 10.0]], [[14.0, 4.0]]
        ]
        np.testing.assert_array_equal(task.new_targets, [[14.0, 7.0]])

    @pytest.mark.parametrize(
        "name",
        [
            "single_uav",
            "three_uav_team",
            "two_target_composition",
            "five_uav_composition",
        ],
    )
    def test_bundled_scenarios_load_and_validate(self, bundled, name):
        sc = bundled(name)
        assert sc.name == name
        assert sc.n_agents >= 1

    def test_bundled_listing_matches(self):
        names = list_bundled_scenarios()
        assert "single_uav" in names and "two_target_composition" in names

    def test_unknown_bundled_name(self):
        with pytest.raises(ScenarioError, match="available"):
            bundled_scenario_path("nonexistent_scenario")

    def test_unknown_top_level_key_rejected(self, write_scenario):
        data = tiny_scenario_dict()
        data["extra_block"] = {}
        with pytest.raises(ScenarioError, match="unknown keys"):
            write_scenario(data)

    @pytest.mark.parametrize(
        "field, edit",
        [
            ("pi.rollouts", lambda d: d["pi"].update(rollouts="many")),
            ("pi.rollouts", lambda d: d["pi"].update(rollouts=2.7)),
            ("sim.dt", lambda d: d["sim"].update(dt="fast")),
            ("agents[0].start", lambda d: d["agents"][0].update(start="here")),
            ("obstacles", lambda d: d.update(obstacles=3)),
            ("edges", lambda d: d.update(edges=[7])),
            ("costs.coop_pairs", lambda d: d["costs"].update(coop_pairs=[5])),
            ("sim.seeds[0]", lambda d: d["sim"].update(seeds=[True])),
            (
                "sim.seeds[1]: duplicate seed 2",
                lambda d: d["sim"].update(seeds=[2, 2]),
            ),
            ("sim.max_time", lambda d: d["sim"].update(max_time=0.02)),
            (
                "agents[0].start: within sim.target_radius",
                lambda d: d["agents"][0].update(start=[14.0, 10.0, 1.0, 0.4636]),
            ),
            ("obstacles[0].radius", lambda d: d["obstacles"][0].update(radius="big")),
            (
                "sim.domain[0][1]",
                lambda d: d["sim"].update(domain=[[-5.0, float("nan")], [-5.0, 20.0]]),
            ),
            ("sim.dt", lambda d: d["sim"].update(dt="0.05")),
            ("pi.temperature", lambda d: d["pi"].update(temperature=True)),
            (
                "agents[0].start",
                lambda d: d["agents"][0].update(start=["5", "5", "1", "0.4636"]),
            ),
            ("agents[0].target", lambda d: d["agents"][0].update(target=[True, 10.0])),
            ("obstacles[0].radius", lambda d: d["obstacles"][0].update(radius="2")),
            (
                "sim.domain[0][0]",
                lambda d: d["sim"].update(domain=[["-5", 25], [-5.0, 20.0]]),
            ),
            ("edges[0]", lambda d: _with_second_agent(d, edges=[[0, 1.9]])),
            ("edges[0]", lambda d: _with_second_agent(d, edges=[[True, 0]])),
            ("edges[0]", lambda d: _with_second_agent(d, edges=[["1", 0]])),
            ("sim.dt: must be finite", lambda d: d["sim"].update(dt=10**400)),
        ],
        ids=[
            "rollouts_string", "rollouts_fraction", "dt_string", "start_string",
            "obstacles_number", "edge_number", "coop_pair_number", "seed_boolean",
            "seed_duplicate", "max_time_zero_steps", "start_inside_target",
            "radius_string", "domain_nan", "dt_numeric_string",
            "temperature_boolean", "start_numeric_strings", "target_boolean",
            "radius_numeric_string", "domain_numeric_string", "edge_fraction",
            "edge_boolean", "edge_string", "dt_integer_overflow",
        ],
    )
    def test_malformed_field_rejected_with_its_path(
        self, write_scenario, field, edit
    ):
        data = tiny_scenario_dict()
        edit(data)
        with pytest.raises(ScenarioError, match=re.escape(field)):
            write_scenario(data)

    @pytest.mark.parametrize(
        "message, edit",
        [
            (
                "task.components[1].targets (agent 0): outside the domain box",
                lambda d: d["task"]["components"][1].update(targets=[30.0, 4.0]),
            ),
            (
                "task.components[1].targets (agent 0): (8.0, 14.5) lies inside "
                "obstacle 0's keep-out disc",
                lambda d: d["task"]["components"][1].update(targets=[[8.0, 14.5]]),
            ),
            (
                "task.new_target (agent 0): outside the domain box",
                lambda d: d["task"].update(new_target=[14.0, 25.0]),
            ),
            (
                "task.new_target (agent 0): (8.5, 14.0) lies inside "
                "obstacle 0's keep-out disc",
                lambda d: d["task"].update(new_target=[8.5, 14.0]),
            ),
            (
                "agents[0].target: (8.0, 13.0) lies inside obstacle 0's keep-out disc",
                lambda d: d["agents"][0].update(target=[8.0, 13.0]),
            ),
        ],
        ids=[
            "component_outside_box", "component_in_disc", "new_target_outside_box",
            "new_target_in_disc", "agent_target_in_disc",
        ],
    )
    def test_composite_target_rejected_with_its_path(
        self, write_scenario, message, edit
    ):
        data = tiny_composite_dict()
        edit(data)
        with pytest.raises(ScenarioError, match=re.escape(message)):
            write_scenario(data)

    def test_optional_fields_take_their_dataclass_defaults(self, write_scenario):
        data = tiny_scenario_dict()
        sc = write_scenario({
            "agents": data["agents"],
            "obstacles": [],
            "sim": {k: data["sim"][k] for k in ("dt", "max_time", "seeds")},
            "task": {"mode": "single"},
        })
        assert sc.graph.edges == frozenset()
        assert sc.costs == CostParams(1.0, 0.0, (), FinalCost(0.0, 2.0, 0.0))
        assert sc.pi == PiParams(2000, 60, 1.0, 0.05, 0.025)
        assert sc.sim.target_radius == 1.0
        assert sc.sim.domain == ((-5.0, 45.0), (-5.0, 40.0))
        for block in (sc.costs, sc.costs.final, sc.pi, sc.sim):
            for field in dataclasses.fields(block):
                if field.default is not dataclasses.MISSING:
                    assert getattr(block, field.name) == field.default
        assert write_scenario(tiny_scenario_dict()).obstacles[0].soft_cost == 160.0
        composite = tiny_composite_dict()
        del composite["task"]["kernel_width"]
        assert write_scenario(composite).task.kernel_width == TaskSpec.kernel_width

    def test_component_final_is_read_like_costs_final(self, write_scenario):
        # A component without a final shares costs.final; a component's final
        # is a whole terminal cost, its missing keys at the FinalCost defaults.
        data = tiny_composite_dict()
        data["costs"]["final"] = {"c": 0.5}
        data["task"]["components"][0]["final"] = {"d": 3.0}
        upper, lower = write_scenario(data).task.components
        assert upper.final == FinalCost(c=0.0, d=3.0, alpha=0.0)
        assert lower.final == FinalCost(c=0.5, d=2.0, alpha=0.0)

    def test_unknown_nested_key_rejected(self, write_scenario):
        data = tiny_scenario_dict()
        data["pi"]["typo_key"] = 3
        with pytest.raises(ScenarioError, match="unknown keys"):
            write_scenario(data)

    def test_missing_required_key_rejected(self, write_scenario):
        data = tiny_scenario_dict()
        del data["sim"]["dt"]
        with pytest.raises(ScenarioError, match="missing required"):
            write_scenario(data)

    def test_bad_edge_rejected(self, write_scenario):
        data = tiny_scenario_dict()
        data["edges"] = [[0, 5]]
        with pytest.raises(ScenarioError):
            write_scenario(data)

    def test_coop_pair_must_be_graph_edge(self, write_scenario):
        data = tiny_scenario_dict()
        data["agents"].append(
            {"start": [5.0, 12.0, 2.5, 0.0], "target": [15.0, 12.0]}
        )
        data["costs"]["coop_pairs"] = [[0, 1]]
        with pytest.raises(ScenarioError, match="not a graph edge"):
            write_scenario(data)

    def test_start_inside_keepout_rejected(self, write_scenario):
        data = tiny_scenario_dict()
        data["agents"][0]["start"] = [9.0, 7.5, 2.5, 0.0]
        with pytest.raises(ScenarioError, match="safe set"):
            write_scenario(data)

    def test_target_inside_keepout_rejected(self, write_scenario):
        data = tiny_scenario_dict()
        data["agents"][0]["target"] = [10.5, 7.5]
        with pytest.raises(ScenarioError, match="keep-out"):
            write_scenario(data)

    def test_start_outside_domain_rejected(self, write_scenario):
        data = tiny_scenario_dict()
        data["agents"][0]["start"] = [-20.0, 5.0, 2.5, 0.0]
        with pytest.raises(ScenarioError, match="outside the domain"):
            write_scenario(data)

    def test_target_outside_domain_rejected(self, write_scenario):
        data = tiny_scenario_dict()
        data["agents"][0]["target"] = [24.0, 19.5]
        data["sim"]["domain"] = [[-5.0, 20.0], [-5.0, 20.0]]
        with pytest.raises(
            ScenarioError, match=re.escape("agents[0].target: outside the domain box")
        ):
            write_scenario(data)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("components", [{"targets": [14.0, 7.0]}]),
            ("new_target", [14.0, 7.0]),
            ("kernel_width", 5.0),
        ],
        ids=["components", "new_target", "kernel_width"],
    )
    def test_single_mode_rejects_composite_keys(self, key, value, write_scenario):
        data = tiny_scenario_dict()
        data["task"][key] = value
        with pytest.raises(
            ScenarioError, match=f"task.{key}: only valid in composite mode"
        ):
            write_scenario(data)

    def test_composite_requires_components(self, write_scenario):
        data = tiny_composite_dict()
        del data["task"]["components"]
        with pytest.raises(ScenarioError, match="composite mode requires"):
            write_scenario(data)

    def test_composite_new_target_in_keepout_rejected(self, write_scenario):
        data = tiny_composite_dict()
        data["task"]["new_target"] = [8.5, 14.0]
        with pytest.raises(ScenarioError, match="keep-out"):
            write_scenario(data)

    def test_kernel_width_underflowing_every_weight_rejected(self, write_scenario):
        # Both components sit 3 from the new target: exp(-0.5 * 1000 * 9)
        # underflows, so no component would carry any weight.
        data = tiny_composite_dict()
        data["task"]["kernel_width"] = 1000.0
        with pytest.raises(ScenarioError, match=r"task\.kernel_width: agent 0"):
            write_scenario(data)

    def test_nonpositive_dt_rejected(self, write_scenario):
        data = tiny_scenario_dict()
        data["sim"]["dt"] = 0.0
        with pytest.raises(ScenarioError, match="positive"):
            write_scenario(data)

    def test_bad_seeds_rejected(self, write_scenario):
        data = tiny_scenario_dict()
        data["sim"]["seeds"] = [0, -3]
        with pytest.raises(ScenarioError, match="seeds"):
            write_scenario(data)

    def test_targets_broadcast_to_all_agents(self, write_scenario):
        data = tiny_composite_dict()
        sc = write_scenario(data)
        assert sc.task.components[0].targets.shape == (1, 2)


class TestTaskView:
    def test_plain_task_is_one_component_on_the_agents_targets(self, tiny_scenario):
        targets, components = tiny_scenario.task_view()
        np.testing.assert_array_equal(targets, [[15.0, 10.0]])
        (comp,) = components
        np.testing.assert_array_equal(comp.targets, targets)
        c = tiny_scenario.costs
        assert (comp.final.c, comp.final.d, comp.final.alpha) == (
            c.final.c, c.final.d, c.final.alpha
        )

    def test_composite_view_is_new_targets_and_components(self, tiny_composite):
        targets, components = tiny_composite.task_view()
        assert targets is tiny_composite.task.new_targets
        assert components is tiny_composite.task.components

    def test_view_follows_a_replaced_task(self, tiny_composite):
        single = dataclasses.replace(tiny_composite, task=TaskSpec(mode="single"))
        targets, components = single.task_view()
        np.testing.assert_array_equal(targets, [[14.0, 7.0]])
        assert len(components) == 1

    def test_weights_of_plain_and_bundled_composite_tasks(self, tiny_scenario, bundled):
        sub = build_subsystems(tiny_scenario.graph)[0]
        w = subsystem_composition_weights(tiny_scenario, sub)
        assert w.normalized.tolist() == [1.0]
        # The bundled new targets lie midway between their two components.
        for name in ("two_target_composition", "five_uav_composition"):
            sc = bundled(name)
            for sub in build_subsystems(sc.graph):
                w = subsystem_composition_weights(sc, sub)
                assert w.normalized.tolist() == [0.5, 0.5]


class TestSubsystemPlumbing:
    def test_one_subsystem_per_agent(self, bundled):
        sc = bundled("three_uav_team")
        subs = build_subsystems(sc.graph)
        assert [s.central for s in subs] == [0, 1, 2]
        # middle agent sees both neighbors
        assert set(subs[1].members) == {0, 1, 2}

    def test_running_cost_zero_at_start(self, tiny_scenario):
        sub = build_subsystems(tiny_scenario.graph)[0]
        targets = np.array([a.target for a in tiny_scenario.agents])
        q = subsystem_problem(tiny_scenario, sub, targets).running_cost
        assert float(np.asarray(q(tiny_scenario.agents[0].start))) == 0.0

    def test_coop_running_cost_zero_at_joint_start(self, bundled):
        sc = bundled("three_uav_team")
        subs = build_subsystems(sc.graph)
        targets = np.array([a.target for a in sc.agents])
        for sub in subs:
            joint0 = np.concatenate(
                [sc.agents[m].start for m in sub.members]
            )
            q = subsystem_problem(sc, sub, targets).running_cost
            assert float(np.asarray(q(joint0))) == 0.0

    def test_problem_assembly_respects_lambda(self, tiny_scenario):
        sub = build_subsystems(tiny_scenario.graph)[0]
        targets, _ = tiny_scenario.task_view()
        prob = subsystem_problem(tiny_scenario, sub, targets)
        assert prob.lam == tiny_scenario.pi.temperature
        assert prob.dynamics.state_dim == UAV_DIM
        # start is interior, target is on the exit set
        start = tiny_scenario.agents[0].start
        at_target = np.array([15.0, 10.0, 2.5, 0.0])
        assert not bool(prob.domain.boundary_mask(start[None])[0])
        assert bool(prob.domain.boundary_mask(at_target[None])[0])

    def test_final_cost_params_override(self, tiny_composite):
        sub = build_subsystems(tiny_composite.graph)[0]
        comp = tiny_composite.task.components[0]
        phi = subsystem_final_cost(tiny_composite, sub, comp)
        x = np.array([14.0, 11.0, 2.5, 0.0])
        expected = final_cost(
            x, comp.targets[0], comp.final.c, comp.final.d, comp.final.alpha
        )
        np.testing.assert_allclose(phi(x), expected, rtol=1e-12)


class TestRolloutKernel:
    def test_matches_generic_rollouts_bit_for_bit(self):
        check = rollout_kernel_check()
        assert check.passed, check.detail
        for attr in BATCH_ARRAYS:
            assert check.stats[f"max_diff_{attr}"] == 0.0
        for size in (1, 2, 3):
            assert check.stats[f"size{size}_batches"] > 0
        assert check.stats["ball_exits"] > 0
        assert check.stats["box_exits"] > 0
        assert check.stats["mixed_batches"] > 0


# Generated scenarios: 60 x 60 arena, starts and targets in the band
# 4 <= y <= 36, disc centres at y >= 48, so every start and target is at
# least d = 12 from every disc centre.  With a keep-out radius rho <= 3 and a
# speed v <= 2.5 each start is in every disc's safe set: h1 >= 0 needs
# d^2 - 2 v d - rho^2 >= 0, which holds for d >= 6.4.
_ARENA = [[0.0, 60.0], [0.0, 60.0]]


def _generated_dict(agents, edges, coop_pairs, discs, draws) -> dict:
    """A single-task scenario dict around the given agents, graph and discs."""
    return {
        "agents": agents,
        "edges": edges,
        "obstacles": discs,
        "costs": {
            "goal_weight": draws["goal_weight"],
            "pair_weight": draws["pair_weight"],
            "coop_pairs": coop_pairs,
        },
        "pi": {
            "rollouts": draws["rollouts"],
            "horizon_steps": draws["horizon"],
            "temperature": 0.1,
            "sigma": draws["sigma"],
            "nu": draws["nu"],
        },
        "sim": {
            "dt": draws["dt"],
            "max_time": 1.0,
            "seeds": [0],
            "target_radius": 1.5,
            "domain": _ARENA,
        },
        "task": {"mode": "single"},
    }


@st.composite
def scenario_dicts(draw) -> dict:
    """Valid scenarios: 1-4 agents, random edges and cooperation pairs, 0-3 discs."""
    angle = st.floats(-math.pi, math.pi)
    agents = []
    for _ in range(draw(st.integers(1, 4))):
        x, y = draw(st.floats(12.0, 48.0)), draw(st.floats(12.0, 28.0))
        reach, bearing = draw(st.floats(2.5, 8.0)), draw(angle)
        agents.append({
            "start": [x, y, draw(st.floats(0.0, 2.5)), draw(angle)],
            "target": [x + reach * math.cos(bearing), y + reach * math.sin(bearing)],
        })
    pairs = [[i, j] for i in range(len(agents)) for j in range(i + 1, len(agents))]
    edges = [pair for pair in pairs if draw(st.booleans())]
    coop = [pair for pair in edges if draw(st.booleans())]
    discs = [
        {
            "center": [draw(st.floats(3.0, 57.0)), draw(st.floats(48.0, 57.0))],
            "radius": draw(st.floats(0.5, 2.0)),
            "margin": draw(st.floats(0.0, 1.0)),
        }
        for _ in range(draw(st.integers(0, 3)))
    ]
    draws = {
        "goal_weight": draw(st.floats(0.5, 2.0)),
        "pair_weight": draw(st.floats(0.0, 1.0)),
        "rollouts": draw(st.integers(16, 64)),
        "horizon": draw(st.integers(3, 12)),
        "sigma": draw(st.floats(0.02, 0.3)),
        "nu": draw(st.floats(0.01, 0.3)),
        "dt": draw(st.floats(0.02, 0.1)),
    }
    return _generated_dict(agents, edges, coop, discs, draws)


def two_partner_dict(n_discs: int) -> dict:
    """Agent 0 cooperates with agents 1 and 2, both in its subsystem."""
    agents = [
        {"start": [20.0, 20.0, 1.0, 0.3], "target": [26.0, 24.0]},
        {"start": [16.0, 14.0, 2.0, -1.0], "target": [22.0, 30.0]},
        {"start": [30.0, 16.0, 0.5, 2.0], "target": [24.0, 10.0]},
    ]
    discs = [
        {"center": [10.0 + 15.0 * k, 50.0], "radius": 2.0, "margin": 1.0}
        for k in range(n_discs)
    ]
    draws = {"goal_weight": 0.8, "pair_weight": 0.5, "rollouts": 48,
             "horizon": 10, "sigma": 0.05, "nu": 0.025, "dt": 0.05}
    edges = [[0, 1], [0, 2]]
    return _generated_dict(agents, edges, edges, discs, draws)


def _starts_at_the_exits(sc, sub, targets) -> list[np.ndarray]:
    """The joint start, then the central agent at rest 1e-7 outside its target
    ball and 1e-7 inside an arena edge, facing out of the interior.

    From rest the speed noise decides each path's first move, so about half
    of the paths exit at step 2 and the rest run on.
    """
    joint = assemble_joint(sub, [a.start for a in sc.agents])
    bearing = 0.7 * (sub.central + 1)
    to_ball = joint.copy()
    to_ball[:UAV_DIM] = [
        *(targets[sub.central]
          + (sc.sim.target_radius + 1e-7) * np.array([math.cos(bearing), math.sin(bearing)])),
        0.0,
        bearing + math.pi,
    ]
    edge = sub.central % 4  # +x, -x, +y, -y
    to_box = joint.copy()
    to_box[edge // 2] = sc.sim.domain[edge // 2][1 - edge % 2] + (-1e-7, 1e-7)[edge % 2]
    to_box[2:UAV_DIM] = [0.0, (0.0, math.pi, 0.5 * math.pi, -0.5 * math.pi)[edge]]
    return [joint, to_ball, to_box]


class TestGeneratedScenarioKernel:
    @given(raw=scenario_dicts())
    @example(raw=two_partner_dict(n_discs=0))
    @example(raw=two_partner_dict(n_discs=3))
    @settings(derandomize=True, max_examples=100, deadline=None)
    def test_kernel_matches_rollout_batch(self, raw, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "generated.json"
        path.write_text(json.dumps(raw))
        sc = load_scenario(path)
        targets, _ = sc.task_view()
        dt, horizon, k = sc.sim.dt, sc.pi.horizon_steps, sc.pi.rollouts
        for sub in build_subsystems(sc.graph):
            kernel = subsystem_rollouts(sc, sub, targets)
            problem = subsystem_problem(sc, sub, targets)
            for j, x0 in enumerate(_starts_at_the_exits(sc, sub, targets)):
                stream = NoiseStream(3).child(5, sub.central, j)
                got = kernel.sample(x0, stream)
                want = rollout_batch(problem, x0, dt, horizon, k, stream)
                for attr in (*BATCH_ARRAYS, "noise_cov"):
                    assert np.array_equal(getattr(got, attr), getattr(want, attr)), (
                        f"agent {sub.central}, start {j}: {attr}"
                    )
                if j:
                    assert np.any(want.exit_steps < horizon)
