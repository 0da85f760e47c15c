"""The package namespace exports exactly what its modules still provide."""

from __future__ import annotations

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import safe_lsoc

from conftest import tiny_scenario_dict

ROOT = Path(__file__).resolve().parents[1]

MODULES = [
    "compose", "harness", "hjb", "lsoc", "mas", "scenarios", "sde", "zcbf",
]


def test_every_exported_name_resolves():
    assert len(set(safe_lsoc.__all__)) == len(safe_lsoc.__all__)
    missing = [n for n in safe_lsoc.__all__ if not hasattr(safe_lsoc, n)]
    assert missing == []


def test_every_public_reexport_is_listed():
    public = {
        name
        for name, value in vars(safe_lsoc).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == set(safe_lsoc.__all__)


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"safe_lsoc.{module}")
    missing = [n for n in getattr(mod, "__all__", []) if not hasattr(mod, n)]
    assert missing == []


RUN_PATH = """
import sys
from pathlib import Path

import safe_lsoc

out = Path(sys.argv[1])
path = out / "tiny.json"
path.write_text(sys.argv[2])
sc = safe_lsoc.load_scenario(path)
results = safe_lsoc.run_seeds(sc, [0], mode="filtered")
safe_lsoc.export_run(results[0], sc, out)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_run_path_imports_no_scipy(tmp_path):
    # scipy serves only the oracles (hjb, selfcheck); loading, running and
    # exporting a scenario must not pull it in.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [
            sys.executable, "-c", RUN_PATH,
            str(tmp_path), json.dumps(tiny_scenario_dict()),
        ],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "tiny_filtered_seed0_trajectories.csv").is_file()
