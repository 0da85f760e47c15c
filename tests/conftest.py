"""Shared fixtures: tiny fast scenarios written to disk, bundled loads."""

from __future__ import annotations

import json

import pytest

from safe_lsoc.scenarios import bundled_scenario_path, load_scenario


def tiny_scenario_dict() -> dict:
    """One agent, one obstacle, short horizon; runs in well under a second."""
    return {
        "agents": [
            # Slow enough that the barrier chain holds at the start state.
            {"start": [5.0, 5.0, 1.0, 0.4636], "target": [15.0, 10.0]}
        ],
        "obstacles": [
            {"center": [10.0, 7.5], "radius": 2.0, "margin": 1.0}
        ],
        "costs": {"final": {"c": 0.0, "d": 2.0, "alpha": 0.0}},
        "pi": {
            "rollouts": 200,
            "horizon_steps": 10,
            "temperature": 0.02,
            "sigma": 0.05,
            "nu": 0.025,
        },
        "sim": {
            "dt": 0.05,
            "max_time": 2.0,
            "seeds": [0, 1],
            "target_radius": 1.5,
            "domain": [[-5.0, 25.0], [-5.0, 20.0]],
        },
        "task": {"mode": "single"},
    }


def tiny_composite_dict() -> dict:
    """Two components above/below a shared corridor, blended to the middle."""
    sc = tiny_scenario_dict()
    sc["agents"] = [{"start": [2.0, 7.0, 2.5, 0.0], "target": [14.0, 7.0]}]
    sc["obstacles"] = [{"center": [8.0, 14.0], "radius": 2.0, "margin": 1.0}]
    sc["sim"]["max_time"] = 3.0
    sc["sim"]["target_radius"] = 2.0
    sc["task"] = {
        "mode": "composite",
        "components": [
            {"id": "upper", "targets": [14.0, 10.0]},
            {"id": "lower", "targets": [14.0, 4.0]},
        ],
        "new_target": [14.0, 7.0],
        "kernel_width": 0.02,
    }
    return sc


def corridor_composite_dict() -> dict:
    """The tiny composite with a disc beside the corridor that binds the filter."""
    sc = tiny_composite_dict()
    sc["obstacles"] = [{"center": [8.0, 9.5], "radius": 2.0, "margin": 1.0}]
    return sc


def past_the_noise_keys(case: str) -> tuple[dict, str]:
    """The tiny scenario past a limit of the noise-key layout, and the field named.

    A stream id packs the agent into 14 bits and the control step into 46:
    "agents" has 2**14 + 1 agents, "steps" 1e14 control steps, and "ratio"
    a max_time / dt that overflows to infinity.
    """
    data = tiny_scenario_dict()
    if case == "agents":
        data["agents"] *= 2**14 + 1
        return data, "agents"
    data["sim"]["max_time"], data["sim"]["dt"] = {
        "steps": (1e9, 1e-5), "ratio": (1e308, 1e-10)
    }[case]
    return data, "sim.max_time"


@pytest.fixture
def write_scenario(tmp_path):
    """Dump a scenario dict to a temp file and load it back."""

    def _write(data: dict, name: str = "case"):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        return load_scenario(path, name=name)

    return _write


@pytest.fixture
def scenario_path_factory(tmp_path):
    def _write(data: dict, name: str = "case"):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        return path

    return _write


@pytest.fixture
def tiny_scenario(write_scenario):
    return write_scenario(tiny_scenario_dict(), "tiny")


@pytest.fixture
def tiny_composite(write_scenario):
    return write_scenario(tiny_composite_dict(), "tiny_composite")


@pytest.fixture(scope="session")
def bundled():
    cache = {}

    def _load(name: str):
        if name not in cache:
            cache[name] = load_scenario(bundled_scenario_path(name), name=name)
        return cache[name]

    return _load
