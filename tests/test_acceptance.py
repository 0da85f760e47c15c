"""End-to-end acceptance gate.

One test per shipped guarantee, each printing a single PASS/FAIL line with
the measured numbers (visible in the -rA summary), then asserting.  The
expensive closed-loop batches run once per module and are shared.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np
import pytest
import scipy.optimize

from safe_lsoc import harness
from safe_lsoc.compose import composite_control, composition_weights, state_weights
from safe_lsoc.harness import (
    compute_metrics,
    margin_sweep,
    run_generalization,
    run_seeds,
    run_task,
    write_trajectories_csv,
)
from safe_lsoc.scenarios import TaskSpec, bundled_scenario_path, load_scenario
from safe_lsoc.selfcheck import (
    chain_closed_form_check,
    filter_projection_check,
    pi_oracle_check,
)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def load_bundle(name: str):
    return load_scenario(bundled_scenario_path(name), name=name)


@pytest.fixture(scope="module")
def single_uav_runs():
    sc = load_bundle("single_uav")
    t0 = time.perf_counter()
    results = run_seeds(sc, list(sc.sim.seeds), mode="filtered")
    return sc, results, time.perf_counter() - t0


@pytest.fixture(scope="module")
def team_runs():
    sc = load_bundle("three_uav_team")
    t0 = time.perf_counter()
    results = run_seeds(sc, list(sc.sim.seeds), mode="filtered")
    return sc, results, time.perf_counter() - t0


def test_criterion_1_safety_invariance(single_uav_runs, team_runs):
    details = []
    ok = True
    for sc, results, elapsed in (single_uav_runs, team_runs):
        assert sc.pi.rollouts == 2000
        assert sc.sim.dt == 0.05
        assert len(results) == 10
        violations = 0
        worst_slack = np.inf
        for res in results:
            m = compute_metrics(res, sc)
            violations += m["safety_violation_count"]
            for j, ob in enumerate(sc.obstacles):
                slack = m["min_center_distance"][j] - (ob.keepout_radius - 0.1)
                worst_slack = min(worst_slack, slack)
        scenario_ok = violations == 0 and worst_slack >= 0.0 and elapsed <= 120.0
        ok = ok and scenario_ok
        details.append(
            f"{sc.name}: violations={violations} worst_clearance_slack="
            f"{worst_slack:+.2f} wall={elapsed:.0f}s"
        )
    report("criterion 1 safety invariance", ok, "; ".join(details))
    assert ok


def test_criterion_2_margin_sweep():
    sc = load_bundle("single_uav")
    rows = margin_sweep(sc, [0.5, 1.0, 1.5, 2.0])
    filtered = [r for r in rows if r.mode == "filtered"]
    baseline = [r for r in rows if r.mode == "baseline"]
    assert len(filtered) == 4 * 10 * len(sc.obstacles)
    filtered_short = [r for r in filtered if not r.cleared]
    baseline_short = [r for r in baseline if not r.cleared]
    ok = not filtered_short
    report(
        "criterion 2 margin sweep",
        ok,
        f"filtered short rows={len(filtered_short)}/{len(filtered)}; "
        f"baseline short rows={len(baseline_short)}/{len(baseline)} "
        "(baseline contrast reported, not gated)",
    )
    assert ok, [dataclasses.asdict(r) for r in filtered_short]


class TestCriterion3Composition:
    def test_criterion_3_terminal_error(self):
        sc = load_bundle("two_target_composition")
        assert [list(c.targets[0]) for c in sc.task.components] == [
            [35.0, 28.0],
            [35.0, 14.0],
        ]
        assert list(sc.task.new_targets[0]) == [35.0, 21.0]
        results = run_seeds(
            sc, list(sc.sim.seeds), mode="filtered", runner=run_generalization
        )
        errors = [
            float(np.linalg.norm(r.agents[0].states[-1][:2] - [35.0, 21.0]))
            for r in results
        ]
        hits = sum(e <= 3.0 for e in errors)
        ok = hits >= 8
        report(
            "criterion 3 composition accuracy",
            ok,
            f"terminal error <= 3.0 in {hits}/10 seeds, "
            f"median {np.median(errors):.2f}",
        )
        assert ok, errors

    def test_criterion_3_single_component_composite_is_bitwise(self):
        sc = load_bundle("two_target_composition")
        comp = sc.task.components[0]
        degenerate = dataclasses.replace(
            sc,
            task=dataclasses.replace(
                sc.task, components=(comp,), new_targets=comp.targets
            ),
        )
        single = dataclasses.replace(
            sc,
            agents=tuple(
                dataclasses.replace(a, target=comp.targets[i])
                for i, a in enumerate(sc.agents)
            ),
            task=TaskSpec(mode="single"),
        )
        res_c = run_generalization(degenerate, seed=0, mode="filtered")
        res_s = run_task(single, seed=0, mode="filtered")
        same = True
        for ra, rb in zip(res_c.agents, res_s.agents):
            same &= bool(np.array_equal(ra.times, rb.times))
            same &= bool(np.array_equal(ra.states, rb.states))
            same &= bool(np.array_equal(ra.controls, rb.controls))
            same &= ra.exit_reason == rb.exit_reason
            same &= bool(np.array_equal(ra.ess, rb.ess))
            same &= bool(np.array_equal(ra.h_values, rb.h_values))
        report(
            "criterion 3 degenerate composite",
            same,
            "one-component composite reproduces the plain task run bitwise",
        )
        assert same


def test_criterion_4_filter_projection_oracle():
    check = filter_projection_check()
    report("criterion 4 projection oracle", check.passed, check.detail)
    assert check.passed


def test_criterion_5_sampled_vs_grid_desirability():
    check = pi_oracle_check()
    report("criterion 5 sampled-vs-grid oracle", check.passed, check.detail)
    assert check.passed


def test_criterion_6_barrier_chain_closed_form():
    check = chain_closed_form_check()
    report("criterion 6 barrier chain", check.passed, check.detail)
    assert check.passed


def test_criterion_7_weight_algebra():
    rng = np.random.default_rng(20240817)
    n_instances = 10_000
    worst_kernel_sum = 0.0
    worst_state_sum = 0.0
    worst_hull = 0.0
    worst_scale = 0.0
    with np.errstate(divide="ignore"):
        for k in range(n_instances):
            n_comp = int(rng.integers(1, 6))
            targets = rng.uniform(-40.0, 40.0, size=(n_comp, 2))
            anchor = targets[int(rng.integers(n_comp))]
            new_target = anchor + rng.uniform(-5.0, 5.0, size=2)
            width = 10.0 ** rng.uniform(-2.0, 0.5)
            weights = composition_weights(
                list(targets), new_target, np.diag([width, width])
            )
            worst_kernel_sum = max(
                worst_kernel_sum, abs(float(np.sum(weights.normalized)) - 1.0)
            )
            log_z = rng.uniform(-600.0, 0.0, size=n_comp)
            w = state_weights(weights, log_z)
            worst_state_sum = max(worst_state_sum, abs(float(np.sum(w)) - 1.0))
            if k % 100 == 0:
                controls = rng.normal(size=(n_comp, 2))
                u = composite_control(w, list(controls))
                worst_hull = max(worst_hull, _hull_distance(u, controls))
                w_scaled = state_weights(weights, log_z + rng.uniform(-300.0, 300.0))
                worst_scale = max(
                    worst_scale, float(np.max(np.abs(w_scaled - w)))
                )
    ok = (
        worst_kernel_sum <= 1e-12
        and worst_state_sum <= 1e-12
        and worst_hull <= 1e-9
        and worst_scale <= 1e-9
    )
    report(
        "criterion 7 weight algebra",
        ok,
        f"{n_instances} instances: |sum-1| kernel {worst_kernel_sum:.1e}, "
        f"state {worst_state_sum:.1e}; hull distance {worst_hull:.1e}; "
        f"scale drift {worst_scale:.1e}",
    )
    assert ok


def _hull_distance(point: np.ndarray, vertices: np.ndarray) -> float:
    big = 1e6
    a_mat = np.vstack([vertices.T, big * np.ones(vertices.shape[0])])
    b_vec = np.concatenate([point, [big]])
    coeff, _ = scipy.optimize.nnls(a_mat, b_vec)
    return float(np.linalg.norm(vertices.T @ coeff - point))


def test_criterion_8_team_cohesion(team_runs):
    sc, results, _ = team_runs
    held = 0
    ratios = []
    for res in results:
        m = compute_metrics(res, sc)
        mean_d = m["pair_mean_distance"]["0-1"]
        init_d = m["pair_initial_distance"]["0-1"]
        ratios.append(mean_d / init_d)
        held += mean_d <= init_d
    ok = held >= 9
    report(
        "criterion 8 team cohesion",
        ok,
        f"mean pair distance <= initial in {held}/10 seeds "
        f"(ratio range {min(ratios):.2f}-{max(ratios):.2f})",
    )
    assert ok, ratios


def test_criterion_9_export_determinism(tmp_path, monkeypatch):
    cases = [
        ("single_uav", run_task, [0, 1, 2]),
        ("two_target_composition", run_generalization, [0]),
    ]
    ok = True
    for name, runner, seeds in cases:
        sc = load_bundle(name)
        exports: dict[str, dict[int, bytes]] = {}
        for workers in (1, 2):
            monkeypatch.setattr(harness, "_usable_cpus", lambda n=workers: n)
            for attempt in ("a", "b"):
                tag = f"{name}_w{workers}_{attempt}"
                out = tmp_path / tag
                out.mkdir()
                blobs = {}
                for res in run_seeds(sc, seeds, mode="filtered", runner=runner):
                    p = write_trajectories_csv(
                        res, out / f"seed{res.seed}.csv"
                    )
                    blobs[res.seed] = p.read_bytes()
                exports[tag] = blobs
        for workers in (1, 2):
            ok &= exports[f"{name}_w{workers}_a"] == exports[f"{name}_w{workers}_b"]
        ok &= exports[f"{name}_w1_a"] == exports[f"{name}_w2_a"]
    report(
        "criterion 9 determinism",
        ok,
        "CSV bytes identical across repeat executions and worker counts",
    )
    assert ok
