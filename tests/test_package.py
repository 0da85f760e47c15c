"""The package namespace exports exactly what its modules still provide."""

from __future__ import annotations

import ast
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


def _src_env() -> dict:
    """The environment of a child interpreter that imports this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


RUN_PATH = """
import sys
from pathlib import Path

import safe_lsoc

out = Path(sys.argv[1])
path = out / "tiny.json"
path.write_text(sys.argv[2])
sc = safe_lsoc.load_scenario(path)
print(sorted(m for m in ("multiprocessing", "concurrent.futures") if m in sys.modules))
results = safe_lsoc.run_seeds(sc, [0], mode="filtered")
safe_lsoc.export_run(results[0], sc, out)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_run_path_imports_no_scipy(tmp_path):
    # scipy serves only the oracles (hjb, selfcheck); loading, running and
    # exporting a scenario must not pull it in.  The worker pool of
    # run_seeds is imported only when a call runs seeds in parallel, so
    # importing the package and loading a scenario stays as fast as before.
    proc = subprocess.run(
        [
            sys.executable, "-c", RUN_PATH,
            str(tmp_path), json.dumps(tiny_scenario_dict()),
        ],
        capture_output=True, text=True, env=_src_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["[]", "[]"]
    assert (tmp_path / "tiny_filtered_seed0_trajectories.csv").is_file()


def test_import_leaves_out_the_pools():
    # run_seeds imports its process pool and the closed loop its helper
    # thread's executor only when a run needs them; the import of the
    # package, timed as setup, pays for neither.
    code = (
        "import sys, safe_lsoc; "
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') "
        "if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=_src_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _program_files() -> list[Path]:
    files = sorted((ROOT / "src").rglob("*.py"))
    files += [
        p for p in sorted((ROOT / "perfbench").glob("*.py"))
        if not p.name.startswith("test_")
    ]
    return files


def _references_outside_definition(tree: ast.AST) -> set[str]:
    """Names read in tree, skipping each def or class body of the same name."""
    found: set[str] = set()

    def visit(node: ast.AST, inside: frozenset[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and node.id not in inside:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return found


def _program_reads() -> set[str]:
    used: set[str] = set()
    for path in _program_files():
        used |= _references_outside_definition(ast.parse(path.read_text()))
    return used


def test_every_export_is_used_by_the_program():
    # A public name that only the tests reach is dead code: src/ or the
    # benchmark must read it.
    unused = sorted(set(safe_lsoc.__all__) - _program_reads())
    assert unused == []


# Module exports that only the tests read, each an independent oracle.
ORACLE_EXPORTS = {
    # The closed form the mixed control of a composite run is checked against.
    "compose.composite_final_cost",
    # Re-derives the metrics from an exported CSV, to check the exporter.
    "harness.metrics_from_trajectory_csv",
}


def test_every_module_export_is_used_by_the_program():
    # The same rule for every module's __all__, not only the package's.
    used = _program_reads()
    unused = set()
    for path in (ROOT / "src" / "safe_lsoc").glob("[!_]*.py"):  # not __init__
        mod = importlib.import_module(f"safe_lsoc.{path.stem}")
        unused |= {
            f"{path.stem}.{name}"
            for name in getattr(mod, "__all__", [])
            if name not in used
        }
    assert unused == ORACLE_EXPORTS


def test_namespace_holds_the_run_path():
    # Load, run, summarize, export, and the error loading raises; every
    # other name, oracles included, is imported from its module.
    assert sorted(safe_lsoc.__all__) == [
        "ScenarioError",
        "bundled_scenario_path",
        "compute_metrics",
        "export_run",
        "load_scenario",
        "run_generalization",
        "run_seeds",
        "run_task",
    ]
