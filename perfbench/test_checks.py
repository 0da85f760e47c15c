"""Self-tests of the benchmark's output checks.

Each check must accept a real run's output and reject a copy of it that has
been tampered with in the way the check exists to catch.  The real outputs
come from two short bundled scenarios: single_uav in filtered mode and
two_target_composition in baseline mode.  Run from the repository root:

    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

import safe_lsoc  # noqa: E402
from checks import (  # noqa: E402
    EXIT_TARGET,
    RunOutput,
    ScenarioFacts,
    check_exit,
    check_half_space,
    check_kinematics,
    check_metrics_json,
    check_projection,
    check_run,
    check_safety,
    check_sampler,
    half_spaces,
    read_trajectory_csv,
)


def _real_output(name: str, mode: str, runner, out_dir: Path):
    sc = safe_lsoc.load_scenario(safe_lsoc.bundled_scenario_path(name), name=name)
    res = runner(sc, 0, mode=mode)
    safe_lsoc.export_run(res, sc, out_dir)
    stem = out_dir / f"{name}_{mode}_seed0"
    out = RunOutput(
        mode=mode,
        tracks=read_trajectory_csv(f"{stem}_trajectories.csv"),
        metrics=json.loads(Path(f"{stem}_metrics.json").read_text()),
        raw_controls=[np.asarray(a.raw_controls) for a in res.agents],
        ess=[np.asarray(a.ess) for a in res.agents],
        weights=[a.component_weights for a in res.agents],
    )
    facts = ScenarioFacts.from_json(SRC / "safe_lsoc" / "data" / f"{name}.json")
    return facts, out


@pytest.fixture(scope="module")
def filtered(tmp_path_factory):
    return _real_output(
        "single_uav", "filtered", safe_lsoc.run_task, tmp_path_factory.mktemp("f")
    )


@pytest.fixture(scope="module")
def composite(tmp_path_factory):
    return _real_output(
        "two_target_composition",
        "baseline",
        safe_lsoc.run_generalization,
        tmp_path_factory.mktemp("c"),
    )


def _rejects(check, facts, out, text: str) -> bool:
    """The check fails the output, for the reason named by text."""
    return any(text in e for e in check(facts, out))


def _projected_step(out: RunOutput) -> int:
    track = out.tracks[0]
    moved = np.any(track.controls != out.raw_controls[0], axis=1)
    assert moved.any(), "the filtered run never projected a control"
    return int(np.argmax(moved))


def test_real_outputs_pass(filtered, composite):
    for facts, out in (filtered, composite):
        assert check_run(facts, out) == []


def test_position_in_keepout_disc_rejected(filtered):
    facts, out = filtered
    bad = copy.deepcopy(out)
    cx, cy, rho = facts.obstacles[0]
    bad.tracks[0].states[40, :2] = [cx + 0.5 * rho, cy]
    assert _rejects(check_safety, facts, bad, "1 state(s) inside a keep-out disc, the first at row 40")
    assert _rejects(check_safety, facts, bad, "h0_obs0 row 40")
    assert _rejects(check_kinematics, facts, bad, "kinematics give")


def test_barrier_column_mismatch_rejected(filtered):
    facts, out = filtered
    bad = copy.deepcopy(out)
    bad.tracks[0].h["h1_obs1"][7] += 1e-3
    assert _rejects(check_safety, facts, bad, "h1_obs1 row 7")


def test_control_off_half_space_rejected(filtered):
    facts, out = filtered
    t = _projected_step(out)
    bad = copy.deepcopy(out)
    a, b = half_spaces(facts, bad.tracks[0].states[t])
    j = int(np.argmin(a @ bad.tracks[0].controls[t] - b))
    bad.tracks[0].controls[t] -= 0.05 * a[j] / np.linalg.norm(a[j])
    assert _rejects(check_half_space, facts, bad, "violates")
    assert _rejects(check_projection, facts, bad, "projection of raw")


def test_projection_of_feasible_control_rejected(filtered):
    facts, out = filtered
    bad = copy.deepcopy(out)
    t = int(np.argmax(np.all(out.tracks[0].controls == out.raw_controls[0], axis=1)))
    bad.tracks[0].controls[t] += [1e-3, 0.0]
    assert _rejects(check_projection, facts, bad, "feasible raw control")


def test_unprojected_infeasible_control_rejected(filtered):
    facts, out = filtered
    t = _projected_step(out)
    bad = copy.deepcopy(out)
    bad.tracks[0].controls[t] = bad.raw_controls[0][t]
    assert _rejects(check_projection, facts, bad, "projection of raw")


def test_baseline_control_change_rejected(composite):
    facts, out = composite
    bad = copy.deepcopy(out)
    bad.tracks[0].controls[3, 1] += 1e-9
    assert _rejects(check_projection, facts, bad, "unfiltered control changed")


def test_broken_position_update_rejected(filtered):
    facts, out = filtered
    bad = copy.deepcopy(out)
    bad.tracks[0].states[50:, 0] += 1e-4
    assert _rejects(check_kinematics, facts, bad, "kinematics give")


def test_wrong_noise_scale_rejected(filtered):
    facts, out = filtered
    bad = copy.deepcopy(out)
    states = bad.tracks[0].states
    dv = np.diff(states[:, 2])
    states[1:, 2] = states[0, 2] + np.cumsum(2.0 * dv)
    assert _rejects(check_kinematics, facts, bad, "implied v noise")


def test_target_reached_outside_ball_rejected(filtered, composite):
    facts, out = filtered
    bad = copy.deepcopy(out)
    bad.metrics["exit_reasons"][0] = EXIT_TARGET
    assert _rejects(check_exit, facts, bad, "target_reached at distance")

    facts, out = composite
    reached = out.metrics["exit_reasons"].index(EXIT_TARGET)
    bad = copy.deepcopy(out)
    bad.tracks[reached].states[-1, :2] = bad.tracks[reached].states[0, :2]
    assert _rejects(check_exit, facts, bad, "target_reached at distance")


def test_early_stop_inside_arena_rejected(filtered):
    facts, out = filtered
    bad = copy.deepcopy(out)
    track = bad.tracks[0]
    track.states = track.states[:-5]
    track.controls = track.controls[:-5]
    assert _rejects(check_exit, facts, bad, "inside the arena")


def test_weights_not_summing_to_one_rejected(composite):
    facts, out = composite
    bad = copy.deepcopy(out)
    bad.weights[0][5] *= 1.1
    assert _rejects(check_sampler, facts, bad, "sum to")
    bad = copy.deepcopy(out)
    bad.weights[0][5] = [1.5, -0.5]
    assert _rejects(check_sampler, facts, bad, "negative component weight")


def test_ess_out_of_range_rejected(filtered):
    facts, out = filtered
    for value in (0.5, facts.rollouts + 1.0):
        bad = copy.deepcopy(out)
        bad.ess[0][3] = value
        assert _rejects(check_sampler, facts, bad, "ESS outside")


def test_metrics_json_disagreeing_with_csv_rejected(filtered):
    facts, out = filtered
    bad = copy.deepcopy(out)
    bad.metrics["terminal_position_error"][0] -= 0.5
    assert _rejects(check_metrics_json, facts, bad, "terminal_position_error")
    bad = copy.deepcopy(out)
    bad.metrics["safety_violation_count"] = 1
    assert _rejects(check_metrics_json, facts, bad, "safety_violation_count")
