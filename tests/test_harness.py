"""Closed-loop runners, metrics, export determinism, and the margin sweep."""

from __future__ import annotations

import copy
import csv
import hashlib
import json
import multiprocessing
import sys
import threading

import numpy as np
import pytest

from safe_lsoc import harness
from safe_lsoc.harness import (
    AgentRecord,
    RunResult,
    compute_metrics,
    export_run,
    margin_sweep,
    metrics_from_trajectory_csv,
    run_generalization,
    run_seeds,
    run_task,
    trajectory_header,
    write_sweep_csv,
    write_trajectories_csv,
)
from safe_lsoc.lsoc import estimate_optimal_control
from safe_lsoc.mas import assemble_joint, build_subsystems
from safe_lsoc.scenarios import (
    ScenarioError,
    disc_barriers,
    obstacle_discs,
    subsystem_final_cost,
    subsystem_rollouts,
)
from safe_lsoc.sde import (
    EXIT_INFEASIBLE,
    EXIT_MAX_TIME,
    EXIT_TARGET,
    KIND_ROLLOUT,
    KIND_SIM,
    NoiseStream,
    SafetyInfeasible,
    em_step,
)
from safe_lsoc.zcbf import safety_filter

from conftest import (
    corridor_composite_dict,
    tiny_composite_dict,
    tiny_scenario_dict,
)


def assert_same_run(a: RunResult, b: RunResult) -> None:
    assert a.scenario == b.scenario and a.mode == b.mode and a.seed == b.seed
    assert len(a.agents) == len(b.agents)
    for ra, rb in zip(a.agents, b.agents):
        np.testing.assert_array_equal(ra.times, rb.times)
        np.testing.assert_array_equal(ra.states, rb.states)
        np.testing.assert_array_equal(
            ra.controls, rb.controls
        )
        assert ra.exit_reason == rb.exit_reason
        np.testing.assert_array_equal(ra.raw_controls, rb.raw_controls)
        np.testing.assert_array_equal(ra.h_values, rb.h_values)


class TestRunTask:
    def test_mode_and_task_validation(self, tiny_scenario, tiny_composite):
        with pytest.raises(ValueError, match="mode"):
            run_task(tiny_scenario, 0, mode="unfiltered")
        with pytest.raises(ScenarioError, match="single"):
            run_task(tiny_composite, 0)
        with pytest.raises(ScenarioError, match="composite"):
            run_generalization(tiny_scenario, 0)

    def test_bitwise_repeatable(self, tiny_scenario):
        a = run_task(tiny_scenario, seed=3)
        b = run_task(tiny_scenario, seed=3)
        assert_same_run(a, b)

    def test_records_are_consistent(self, tiny_scenario):
        res = run_task(tiny_scenario, seed=0)
        rec = res.agents[0]
        t = len(rec.controls)
        assert len(rec.states) == t + 1
        assert rec.raw_controls.shape == (t, 2)
        assert rec.ess.shape == (t,)
        assert rec.h_values.shape == (t + 1, 1, 2)
        assert rec.component_weights is None
        assert res.wall_time > 0.0

    def test_no_obstacles_filtered_equals_baseline(self, write_scenario):
        data = tiny_scenario_dict()
        data["obstacles"] = []
        sc = write_scenario(data, "open")
        filtered = run_task(sc, seed=1, mode="filtered")
        baseline = run_task(sc, seed=1, mode="baseline")
        for ra, rb in zip(filtered.agents, baseline.agents):
            np.testing.assert_array_equal(
                ra.states, rb.states
            )
            np.testing.assert_array_equal(
                ra.controls, rb.controls
            )
        assert compute_metrics(filtered, sc)["filter_activation_count"] == 0

    def test_inactive_filter_matches_baseline_noise_for_noise(self, write_scenario):
        # Obstacle far off the flight path: the filter is present but never
        # binds, so the filtered run reproduces the baseline exactly.
        data = tiny_scenario_dict()
        data["obstacles"] = [{"center": [22.0, 18.0], "radius": 1.0, "margin": 0.5}]
        sc = write_scenario(data, "far_obstacle")
        filtered = run_task(sc, seed=2, mode="filtered")
        baseline = run_task(sc, seed=2, mode="baseline")
        for ra, rb in zip(filtered.agents, baseline.agents):
            np.testing.assert_array_equal(
                ra.states, rb.states
            )
        m = compute_metrics(filtered, sc)
        assert m["filter_activation_count"] == 0

    def test_arena_exit_recorded_as_max_time(self, write_scenario):
        # Start next to the left wall heading straight out: the vehicle
        # leaves the arena long before the clock runs out.
        data = tiny_scenario_dict()
        data["agents"][0]["start"] = [-3.5, 5.0, 2.5, float(np.pi)]
        sc = write_scenario(data, "runaway")
        res = run_task(sc, seed=0, mode="baseline")
        rec = res.agents[0]
        assert rec.exit_reason == EXIT_MAX_TIME
        assert rec.times[-1] < sc.sim.max_time - sc.sim.dt / 2.0
        assert rec.states[-1][0] < -4.5


class TestStepRebuild:
    def test_states_rebuild_from_em_step_and_sim_streams(self, pair_scenario):
        # Each agent's states follow from its applied controls and its own
        # KIND_SIM stream, one N(0, dt I) pair per step in step order.
        sc = pair_scenario
        res = run_task(sc, seed=0, mode="baseline")
        dyn = sc.agent_dynamics()
        dt = sc.sim.dt
        for i, rec in enumerate(res.agents):
            assert len(rec.controls) > 0
            gen = NoiseStream(0).child(KIND_SIM, i, 0).generator()
            x = np.array(sc.agents[i].start, dtype=float)
            np.testing.assert_array_equal(rec.states[0], x)
            for k, u in enumerate(rec.controls):
                dw = gen.normal(0.0, np.sqrt(dt), size=2)
                x = em_step(dyn, x, u, dt, dw)
                np.testing.assert_array_equal(rec.states[k + 1], x)
                assert rec.times[k + 1] == (k + 1) * dt


class TestRunSeeds:
    def test_matches_individual_runs(self, tiny_scenario):
        batch = run_seeds(tiny_scenario, [0, 1], mode="filtered")
        singles = [run_task(tiny_scenario, s, mode="filtered") for s in (0, 1)]
        for got, want in zip(batch, singles):
            assert_same_run(got, want)

    def test_pool_returns_seed_order_and_serial_runs(
        self, tiny_scenario, monkeypatch
    ):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        pooled = run_seeds(tiny_scenario, [1, 0], mode="filtered")
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
        serial = run_seeds(tiny_scenario, [1, 0], mode="filtered")
        assert [r.seed for r in pooled] == [1, 0]
        for got, want in zip(pooled, serial):
            assert_same_run(got, want)
        assert multiprocessing.active_children() == []

    def test_worker_error_keeps_type_and_names_seed(
        self, tiny_scenario, monkeypatch
    ):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)

        def runner(sc, seed, mode):
            if seed == 1:
                raise ScenarioError("no run for this seed")
            return run_task(sc, seed, mode=mode)

        with pytest.raises(ScenarioError, match="no run for this seed") as exc:
            run_seeds(tiny_scenario, [0, 1, 2], runner=runner)
        assert exc.value.__notes__ == ["seed 1"]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus, run_cpus", [(2, 1), (4, 2)])
    def test_pool_workers_integrate_inline_when_the_pool_fills_the_cpus(
        self, tiny_scenario, monkeypatch, cpus, run_cpus
    ):
        # Two workers on two CPUs leave no CPU for a helper thread; on four
        # CPUs each worker has two.
        monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)

        def runner(sc, seed, mode):
            res = run_task(sc, seed, mode=mode)
            res.run_cpus = harness._run_cpus()
            return res

        results = run_seeds(tiny_scenario, [0, 1], runner=runner)
        assert [r.run_cpus for r in results] == [run_cpus, run_cpus]
        assert harness._run_cpus() == cpus

    def test_one_seed_runs_in_this_process(self, tiny_scenario, monkeypatch):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        calls = []

        def runner(sc, seed, mode):
            calls.append(seed)
            return run_task(sc, seed, mode=mode)

        (res,) = run_seeds(tiny_scenario, [1], runner=runner)
        assert calls == [1] and res.seed == 1


def synthetic_result(sc) -> RunResult:
    states0 = np.array(
        [[0.0, 0.0, 1.0, 0.0], [10.0, 7.5, 1.0, 0.0], [20.0, 0.0, 1.0, 0.0]]
    )
    rec0 = AgentRecord(
        times=np.array([0.0, 0.05, 0.1]),
        states=states0,
        controls=np.array([[0.0, 0.0], [1.0, 0.0]]),
        exit_reason=EXIT_MAX_TIME,
        raw_controls=np.array([[0.0, 0.0], [2.0, 0.0]]),
        ess=np.array([150.0, 140.0]),
        h_values=np.array([[[9.0, 9.0]], [[-9.0, -9.0]], [[291.0, 291.0]]]),
    )
    rec1 = AgentRecord(
        times=np.array([0.0, 0.05]),
        states=np.array([[0.0, 3.0, 1.0, 0.0], [1.0, 3.0, 1.0, 0.0]]),
        controls=np.array([[0.0, 0.0]]),
        exit_reason=EXIT_TARGET,
        raw_controls=np.array([[0.0, 0.0]]),
        ess=np.array([150.0]),
        h_values=np.array([[[9.0, 9.0]], [[9.0, 9.0]]]),
    )
    return RunResult(
        scenario="synthetic",
        mode="filtered",
        seed=0,
        agents=[rec0, rec1],
        task_targets=np.array([[18.0, 0.0], [18.0, 3.0]]),
    )


@pytest.fixture
def pair_scenario(write_scenario):
    data = tiny_scenario_dict()
    data["agents"] = [
        {"start": [0.0, 0.0, 1.0, 0.0], "target": [18.0, 0.0]},
        {"start": [0.0, 3.0, 1.0, 0.0], "target": [18.0, 3.0]},
    ]
    data["edges"] = [[0, 1]]
    data["costs"]["coop_pairs"] = [[0, 1]]
    data["costs"]["goal_weight"] = 0.7
    data["costs"]["pair_weight"] = 1.4
    return write_scenario(data, "pair")


class TestComputeMetrics:
    def test_counts_and_distances(self, pair_scenario):
        m = compute_metrics(synthetic_result(pair_scenario), pair_scenario)
        assert m["safety_violation_count"] == 1
        assert m["filter_activation_count"] == 1
        assert m["reached"] == [False, True]
        assert m["steps"] == [2, 1]
        np.testing.assert_allclose(m["terminal_position_error"], [2.0, 17.0])
        assert m["min_center_distance"][0] == pytest.approx(0.0, abs=1e-12)

    def test_pair_metrics_pad_finished_agent(self, pair_scenario):
        m = compute_metrics(synthetic_result(pair_scenario), pair_scenario)
        d0 = 3.0
        d1 = float(np.hypot(9.0, 4.5))
        d2 = float(np.hypot(19.0, 3.0))
        assert m["pair_mean_distance"]["0-1"] == pytest.approx(
            (d0 + d1 + d2) / 3.0, rel=1e-12
        )
        assert m["pair_initial_distance"]["0-1"] == pytest.approx(3.0)

    def test_ess_summary(self, pair_scenario):
        m = compute_metrics(synthetic_result(pair_scenario), pair_scenario)
        assert m["mean_ess"] == [145.0, 150.0]
        assert m["min_ess"] == [140.0, 150.0]


class TestExport:
    def test_csv_metrics_round_trip_exact(self, tiny_scenario, tmp_path):
        res = run_task(tiny_scenario, seed=0, mode="filtered")
        metrics = export_run(res, tiny_scenario, tmp_path)
        csv_path = tmp_path / "tiny_filtered_seed0_trajectories.csv"
        redo = metrics_from_trajectory_csv(csv_path, tiny_scenario)
        assert redo["terminal_position_error"] == metrics["terminal_position_error"]
        assert redo["min_center_distance"] == metrics["min_center_distance"]
        assert redo["safety_violation_count"] == metrics["safety_violation_count"]

    def test_csv_bytes_deterministic(self, tiny_scenario, tmp_path):
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_trajectories_csv(run_task(tiny_scenario, seed=1), p1)
        write_trajectories_csv(run_task(tiny_scenario, seed=1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_zero_agents_gives_header_only_csv(self, tmp_path):
        empty = RunResult(
            scenario="empty",
            mode="filtered",
            seed=0,
            agents=[],
            task_targets=np.zeros((0, 2)),
        )
        path = write_trajectories_csv(empty, tmp_path / "empty.csv")
        assert path.read_text() == ",".join(trajectory_header(0)) + "\n"

    def test_rows_time_major_with_empty_final_controls(self, tiny_scenario, tmp_path):
        res = run_task(tiny_scenario, seed=0)
        path = write_trajectories_csv(res, tmp_path / "t.csv")
        with path.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        times = [float(r["t"]) for r in rows]
        assert times == sorted(times)
        assert rows[-1]["u1"] == "" and rows[-1]["u2"] == ""
        # every float cell round-trips exactly through repr
        state = res.agents[0].states[0]
        assert float(rows[0]["x"]) == state[0] and float(rows[0]["phi"]) == state[3]

    def test_metrics_json_readable(self, tiny_scenario, tmp_path):
        res = run_task(tiny_scenario, seed=0)
        metrics = export_run(res, tiny_scenario, tmp_path)
        loaded = json.loads(
            (tmp_path / "tiny_filtered_seed0_metrics.json").read_text()
        )
        assert loaded["seed"] == 0
        assert loaded["terminal_position_error"] == metrics["terminal_position_error"]
        assert loaded["infeasible_agent"] is None
        assert loaded["infeasible_constraints"] is None


class TestMarginSweep:
    def test_rows_cover_margins_modes_and_clearance(self, tiny_scenario):
        rows = margin_sweep(tiny_scenario, [0.0, 1.5], seeds=[0])
        assert len(rows) == 2 * 2 * 1 * 1
        assert {r.mode for r in rows} == {"baseline", "filtered"}
        assert {r.margin for r in rows} == {0.0, 1.5}
        for r in rows:
            radius = tiny_scenario.obstacles[r.obstacle].radius
            assert r.threshold == pytest.approx(radius + r.margin)
            assert r.cleared == (r.min_center_distance >= r.threshold - 0.1)

    def test_zero_margin_threshold_is_plain_clearance(self, tiny_scenario):
        rows = margin_sweep(tiny_scenario, [0.0], seeds=[0])
        assert [r.mode for r in rows] == ["baseline", "filtered"]
        for r in rows:
            assert r.threshold == tiny_scenario.obstacles[0].radius

    def test_composite_rejected(self, tiny_composite):
        with pytest.raises(ScenarioError, match="single-task"):
            margin_sweep(tiny_composite, [1.0], seeds=[0])

    def test_sweep_csv(self, tiny_scenario, tmp_path):
        rows = margin_sweep(tiny_scenario, [1.0], seeds=[0])
        path = write_sweep_csv(rows, tmp_path / "sweep.csv")
        with path.open(newline="") as fh:
            parsed = list(csv.DictReader(fh))
        assert len(parsed) == len(rows) == 2
        for got, row in zip(parsed, rows):
            assert got["mode"] == row.mode
            assert float(got["min_center_distance"]) == row.min_center_distance
            assert got["cleared"] == str(int(row.cleared))


class TestRunGeneralization:
    def test_component_weights_recorded_and_convex(self, tiny_composite):
        res = run_generalization(tiny_composite, seed=0, mode="filtered")
        rec = res.agents[0]
        t = len(rec.controls)
        assert rec.component_weights is not None
        assert rec.component_weights.shape == (t, 2)
        sums = rec.component_weights.sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)
        assert np.all(rec.component_weights >= 0.0)

    def test_bitwise_repeatable(self, tiny_composite):
        a = run_generalization(tiny_composite, seed=4)
        b = run_generalization(tiny_composite, seed=4)
        assert_same_run(a, b)

    def test_new_target_on_component_recovers_single_task(self, write_scenario):
        # A composite whose new target sits exactly on one component, with a
        # kernel sharp enough that the other component's weight underflows,
        # must reproduce the plain single-task run bitwise.
        comp = tiny_composite_dict()
        comp["task"]["new_target"] = [14.0, 10.0]
        comp["task"]["kernel_width"] = 60.0
        sc_comp = write_scenario(comp, "collapsed")

        single = copy.deepcopy(comp)
        single["agents"][0]["target"] = [14.0, 10.0]
        single["task"] = {"mode": "single"}
        sc_single = write_scenario(single, "collapsed_single")

        res_comp = run_generalization(sc_comp, seed=0, mode="filtered")
        res_single = run_task(sc_single, seed=0, mode="filtered")
        for ra, rb in zip(res_comp.agents, res_single.agents):
            np.testing.assert_array_equal(
                ra.states, rb.states
            )
            np.testing.assert_array_equal(
                ra.controls, rb.controls
            )
            assert ra.exit_reason == rb.exit_reason


class TestRawControlContract:
    """The recorded raw control is what the filter saw for the applied one."""

    def test_raw_control_is_block_zero_of_joint_estimate(self, pair_scenario):
        # Agent 0's step-0 estimate over its two-member subsystem, built by
        # hand from the sampler and the estimator the loop uses.
        sc = pair_scenario
        res = run_task(sc, seed=0, mode="filtered")
        sub = build_subsystems(sc.graph)[0]
        targets, (task,) = sc.task_view()
        final = subsystem_final_cost(sc, sub, task)
        batch = subsystem_rollouts(sc, sub, targets).sample(
            assemble_joint(sub, [a.start for a in sc.agents]),
            NoiseStream(0).child(KIND_ROLLOUT, 0, 0),
        )
        joint_u = estimate_optimal_control(batch, final, sc.pi.temperature).control
        assert joint_u.shape == (4,)
        np.testing.assert_array_equal(res.agents[0].raw_controls[0], joint_u[:2])

    def test_finished_neighbour_is_held_at_its_last_state(self, write_scenario):
        # Agent 1 starts 2.0 from its target, heading at it, and finishes
        # within a few steps; agent 0 flies on with agent 1 in its subsystem.
        data = tiny_scenario_dict()
        data["agents"] = [
            {"start": [0.0, 0.0, 1.0, 0.0], "target": [18.0, 0.0]},
            {"start": [0.0, 3.0, 1.0, 0.0], "target": [2.0, 3.0]},
        ]
        data["edges"] = [[0, 1]]
        data["costs"]["coop_pairs"] = [[0, 1]]
        data["costs"]["pair_weight"] = 1.4
        sc = write_scenario(data, "early_finish")
        res = run_task(sc, seed=0, mode="filtered")
        t0, t1 = (len(rec.controls) for rec in res.agents)
        rec = res.agents[1]
        assert rec.exit_reason == EXIT_TARGET
        assert 0 < t1 < t0
        assert rec.times.shape == (t1 + 1,)
        assert rec.states.shape == (t1 + 1, 4)
        assert rec.raw_controls.shape == (t1, 2)
        assert rec.ess.shape == (t1,)
        assert rec.h_values.shape == (t1 + 1, 1, 2)
        assert res.agents[0].exit_reason == EXIT_MAX_TIME
        assert t0 == sc.sim.max_steps
        assert compute_metrics(res, sc)["steps"] == [t0, t1]

        # Agent 0's estimate two steps after agent 1 finished, built by hand
        # with agent 1 at its last recorded state.
        k = t1 + 2
        sub = build_subsystems(sc.graph)[0]
        targets, (task,) = sc.task_view()
        final = subsystem_final_cost(sc, sub, task)
        joint = assemble_joint(
            sub, [res.agents[0].states[k], rec.states[-1]]
        )
        batch = subsystem_rollouts(sc, sub, targets).sample(
            joint, NoiseStream(0).child(KIND_ROLLOUT, 0, k)
        )
        joint_u = estimate_optimal_control(batch, final, sc.pi.temperature).control
        np.testing.assert_array_equal(res.agents[0].raw_controls[k], joint_u[:2])

    def test_single_task_records_unfiltered_estimate(self, tiny_scenario):
        res = run_task(tiny_scenario, seed=0, mode="filtered")
        assert compute_metrics(res, tiny_scenario)["filter_activation_count"] > 0
        assert res.agents[0].component_weights is None

    def test_composite_applies_the_projection_of_its_mix(
        self, write_scenario
    ):
        # The disc beside the corridor binds the mix on about a third of the
        # steps; each applied control is the filter's projection of its raw
        # control onto the half-spaces at the recorded state.
        sc = write_scenario(corridor_composite_dict(), "corridor")
        discs, noise_cov = obstacle_discs(sc.obstacles), sc.agent_dynamics().noise_cov
        for seed in (0, 1, 2):
            res = run_generalization(sc, seed=seed, mode="filtered")
            metrics = compute_metrics(res, sc)
            assert metrics["filter_activation_count"] > 0
            assert metrics["safety_violation_count"] == 0
            rec = res.agents[0]
            assert rec.component_weights is not None
            for k, (raw_u, u) in enumerate(zip(rec.raw_controls, rec.controls)):
                # The loop passes the (n_agents, 4) states of step k.
                _, a_mat, b_vec = disc_barriers(
                    rec.states[k : k + 1], discs, noise_cov
                )
                np.testing.assert_array_equal(
                    u, safety_filter(raw_u, a_mat[0], b_vec[0])
                )


FORCED_IDS = (0,)


def fail_filter_on_call(monkeypatch, k: int) -> None:
    """Make the k-th safety_filter call of the closed loop infeasible."""
    real = harness.safety_filter
    calls = [0]

    def flaky(u, a_mat, b_vec):
        calls[0] += 1
        if calls[0] == k:
            raise SafetyInfeasible("forced", FORCED_IDS)
        return real(u, a_mat, b_vec)

    monkeypatch.setattr(harness, "safety_filter", flaky)


class TestInfeasibleHalt:
    def test_run_task_halts_every_agent_at_that_step(
        self, pair_scenario, monkeypatch
    ):
        # Two agents, one filter call each per step: call 8 is agent 1 at
        # step 3, after agent 0's step-3 control was already computed.
        fail_filter_on_call(monkeypatch, 8)
        res = run_task(pair_scenario, seed=0, mode="filtered")
        assert res.infeasible_agent == 1
        assert res.infeasible_constraints == FORCED_IDS
        metrics = compute_metrics(res, pair_scenario)
        assert metrics["infeasible_agent"] == 1
        assert metrics["infeasible_constraints"] == list(FORCED_IDS)
        dt = pair_scenario.sim.dt
        for rec in res.agents:
            assert rec.exit_reason == EXIT_INFEASIBLE
            assert len(rec.controls) == 3
            assert len(rec.raw_controls) == 3
            assert rec.times[-1] == pytest.approx(3 * dt)

    def test_run_generalization_halts_at_that_step(
        self, tiny_composite, monkeypatch
    ):
        # One call per step, on the mix of the two components: call 5 is
        # step 4.
        fail_filter_on_call(monkeypatch, 5)
        res = run_generalization(tiny_composite, seed=0, mode="filtered")
        assert res.infeasible_agent == 0
        assert res.infeasible_constraints == FORCED_IDS
        rec = res.agents[0]
        assert rec.exit_reason == EXIT_INFEASIBLE
        assert len(rec.controls) == 4
        assert rec.component_weights.shape == (4, 2)
        assert rec.times[-1] == pytest.approx(
            4 * tiny_composite.sim.dt
        )


def integration_threads(monkeypatch) -> list[int]:
    """Record the thread of every integration stage the closed loop runs."""
    threads = []
    real = harness.subsystem_rollouts

    def recording(sc, sub, targets):
        sampler = real(sc, sub, targets)

        def integrate(x0, dw):
            threads.append(threading.get_ident())
            return sampler.integrate(x0, dw)

        return sampler._replace(integrate=integrate)

    monkeypatch.setattr(harness, "subsystem_rollouts", recording)
    return threads


def noise_keys(monkeypatch) -> tuple[list, list]:
    """Record the stream key of every noise draw and of every integration."""
    drawn, integrated = [], []
    real = harness.subsystem_rollouts

    def recording(sc, sub, targets):
        sampler = real(sc, sub, targets)

        def draw(stream):
            dw = sampler.draw(stream)
            # Every drawn array stays alive, so identity names its key.
            drawn.append((stream, dw))
            return dw

        def integrate(x0, dw):
            integrated.append(next((key for key, d in drawn if d is dw), None))
            return sampler.integrate(x0, dw)

        return sampler._replace(draw=draw, integrate=integrate)

    monkeypatch.setattr(harness, "subsystem_rollouts", recording)
    return drawn, integrated


class TestRolloutPipeline:
    """The helper thread that integrates while the next noise is drawn."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        # The helper thread runs whenever more than one CPU is usable.
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)

    def test_no_thread_outlives_a_run(self, pair_scenario, monkeypatch):
        threads = integration_threads(monkeypatch)
        before = threading.enumerate()
        res = run_task(pair_scenario, seed=0, mode="filtered")
        assert threading.enumerate() == before
        assert not res.halted_infeasible
        # Two agents integrate at every step, never on this thread.
        assert len(threads) == 2 * len(res.agents[0].controls)
        assert threading.get_ident() not in threads

    def test_no_thread_outlives_an_infeasible_halt(
        self, pair_scenario, monkeypatch
    ):
        fail_filter_on_call(monkeypatch, 8)
        before = threading.enumerate()
        res = run_task(pair_scenario, seed=0, mode="filtered")
        assert threading.enumerate() == before
        assert res.infeasible_agent == 1

    def test_integration_error_reaches_the_caller(
        self, pair_scenario, monkeypatch
    ):
        real = harness.subsystem_rollouts
        calls = [0]

        def failing(sc, sub, targets):
            sampler = real(sc, sub, targets)

            def integrate(x0, dw):
                calls[0] += 1
                if calls[0] == 5:
                    raise FloatingPointError("forced in the integration stage")
                return sampler.integrate(x0, dw)

            return sampler._replace(integrate=integrate)

        monkeypatch.setattr(harness, "subsystem_rollouts", failing)
        before = threading.enumerate()
        with pytest.raises(FloatingPointError, match="integration stage"):
            run_task(pair_scenario, seed=0, mode="filtered")
        assert threading.enumerate() == before

    @pytest.mark.parametrize("halt", [False, True])
    def test_look_ahead_draws_each_key_once(
        self, pair_scenario, monkeypatch, halt
    ):
        # The look-ahead drops at most one draw per agent: the one for an
        # agent-step that did not come after all.
        if halt:
            fail_filter_on_call(monkeypatch, 8)
        drawn, integrated = noise_keys(monkeypatch)
        res = run_task(pair_scenario, seed=0, mode="filtered")
        assert res.halted_infeasible == halt
        keys = [key for key, _ in drawn]
        assert len(set(keys)) == len(keys)
        assert None not in integrated
        assert len(set(integrated)) == len(integrated)
        assert 0 <= len(keys) - len(integrated) <= pair_scenario.n_agents
        # The integrated keys are the agent-steps the run took, in loop
        # order.  Call 8 halts agent 1, the last, at step 3, so both agents
        # integrated that step too.
        base = NoiseStream(0)
        steps = [len(rec.controls) + halt for rec in res.agents]
        assert integrated == [
            base.child(KIND_ROLLOUT, i, k)
            for k in range(max(steps))
            for i, t in enumerate(steps)
            if k < t
        ]

    def test_one_usable_cpu_integrates_inline_with_the_same_bytes(
        self, pair_scenario, tmp_path, monkeypatch
    ):
        threads = integration_threads(monkeypatch)
        csv_bytes = {}
        interval = sys.getswitchinterval()
        for cpus in (1, 2):
            monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
            del threads[:]
            # Frequent thread switches interleave the draw and the
            # integration as finely as the interpreter allows.
            sys.setswitchinterval(1e-6)
            try:
                res = run_task(pair_scenario, seed=0, mode="filtered")
            finally:
                sys.setswitchinterval(interval)
            path = write_trajectories_csv(res, tmp_path / f"cpus{cpus}.csv")
            csv_bytes[cpus] = path.read_bytes()
            inline = set(threads) == {threading.get_ident()}
            assert inline == (cpus == 1)
        assert csv_bytes[1] == csv_bytes[2]


@pytest.mark.parametrize(
    "name, mode, csv_prefix, metrics_prefix",
    [
        ("single_uav", "baseline", "743e27e40d21a34a", "7e556f6a69124656"),
        ("single_uav", "filtered", "7832b6921ce25887", "24e8acd789898c0a"),
        ("three_uav_team", "filtered", "a25fe88c6afada0e", "89831b067575ba30"),
        ("two_target_composition", "filtered", "d6e6504b626bebde", "3ebceab0c050dfb2"),
        ("five_uav_composition", "baseline", "d10056ae247c0b64", "9f8dd6f96a53652c"),
        ("five_uav_composition", "filtered", "d10056ae247c0b64", "71d8fb349f237de7"),
    ],
)
def test_seed_0_outputs_keep_their_digests(
    bundled, tmp_path, name, mode, csv_prefix, metrics_prefix
):
    """sha256 prefixes of the trajectory CSV and of the metrics JSON.

    The metrics are hashed without wall_time_s, as json.dumps(sort_keys=True).
    The digests were recorded on numpy 2.4.6 / x86-64.  A change that alters
    trajectories on purpose (ROADMAP items 3 and 8) records them again and
    lists that in CHANGES.md.
    """
    sc = bundled(name)
    runner = run_task if sc.task.mode == "single" else run_generalization
    metrics = export_run(runner(sc, 0, mode=mode), sc, tmp_path)
    del metrics["wall_time_s"]
    csv_bytes = (tmp_path / f"{name}_{mode}_seed0_trajectories.csv").read_bytes()
    assert hashlib.sha256(csv_bytes).hexdigest()[:16] == csv_prefix
    metrics_json = json.dumps(metrics, sort_keys=True).encode()
    assert hashlib.sha256(metrics_json).hexdigest()[:16] == metrics_prefix


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the continuous-time barrier condition does not survive the noisy "
        "Euler step: filtered single_uav seed 5003 puts 125 states inside "
        "a keep-out disc while every applied control satisfies its "
        "half-space"
    ),
)
def test_filtered_single_uav_seed_5003_stays_outside_discs(bundled):
    sc = bundled("single_uav")
    res = run_task(sc, seed=5003, mode="filtered")
    assert compute_metrics(res, sc)["safety_violation_count"] == 0


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the continuous-time barrier condition does not survive the noisy "
        "Euler step: filtered single_uav seed 5004 puts 88 states inside "
        "a keep-out disc (minimum centre distance 3.9788 against a keep-out "
        "radius of 4.0)"
    ),
)
def test_filtered_single_uav_seed_5004_stays_outside_discs(bundled):
    sc = bundled("single_uav")
    res = run_task(sc, seed=5004, mode="filtered")
    assert compute_metrics(res, sc)["safety_violation_count"] == 0
