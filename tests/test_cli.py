"""Command line behavior: arguments, exit codes, and file outputs."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import safe_lsoc.selfcheck
from safe_lsoc import cli, harness
from safe_lsoc.harness import RunResult, run_task
from safe_lsoc.sde import EXIT_INFEASIBLE

from conftest import tiny_composite_dict, tiny_scenario_dict


@pytest.fixture
def tiny_path(scenario_path_factory):
    return scenario_path_factory(tiny_scenario_dict(), "tiny")


@pytest.fixture
def composite_path(scenario_path_factory):
    return scenario_path_factory(tiny_composite_dict(), "tc")


class TestParser:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args([])
        assert exc.value.code == 2

    def test_unknown_mode_rejected(self, tiny_path):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(["run", str(tiny_path), "--mode", "off"])
        assert exc.value.code == 2

    def test_epilog_lists_bundled_scenarios(self):
        assert "single_uav" in cli.build_parser().epilog


class TestRunCommand:
    def test_run_prints_one_line_per_seed(self, tiny_path, capsys):
        code = cli.main(["run", str(tiny_path)])
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        lines = [l for l in out.splitlines() if l.startswith("seed")]
        assert len(lines) == 2  # scenario declares seeds [0, 1]
        assert "[filtered]" in lines[0]
        assert out.splitlines()[-1].startswith("total: seeds=2 reached=")

    def test_run_writes_outputs(self, tiny_path, tmp_path, capsys):
        out_dir = tmp_path / "results"
        code = cli.main(
            ["run", str(tiny_path), "--seeds", "0", "--out", str(out_dir)]
        )
        assert code == cli.EXIT_OK
        assert (out_dir / "tiny_filtered_seed0_trajectories.csv").is_file()
        assert (out_dir / "tiny_filtered_seed0_metrics.json").is_file()

    def test_run_rejects_composite_scenario(self, composite_path, capsys):
        code = cli.main(["run", str(composite_path), "--seeds", "0"])
        assert code == cli.EXIT_INVALID
        assert "error:" in capsys.readouterr().err

    def test_unknown_bundled_name(self, capsys):
        code = cli.main(["run", "no_such_scenario"])
        assert code == cli.EXIT_INVALID
        assert "no bundled scenario" in capsys.readouterr().err

    def test_missing_scenario_file_named(self, tmp_path, capsys):
        missing = tmp_path / "results" / "single.json"
        code = cli.main(["run", str(missing)])
        assert code == cli.EXIT_INVALID
        assert f"error: {missing}: no such file" in capsys.readouterr().err

    def test_malformed_field_returns_invalid_exit(
        self, scenario_path_factory, capsys
    ):
        data = tiny_scenario_dict()
        data["pi"]["rollouts"] = "many"
        path = scenario_path_factory(data, "bad")
        code = cli.main(["run", str(path)])
        assert code == cli.EXIT_INVALID
        assert "error: pi.rollouts" in capsys.readouterr().err

    def test_bad_seeds(self, tiny_path, capsys):
        code = cli.main(["run", str(tiny_path), "--seeds", "0,x"])
        assert code == cli.EXIT_INVALID
        assert "--seeds" in capsys.readouterr().err

    def test_repeated_seed_rejected(self, tiny_path, capsys):
        code = cli.main(["run", str(tiny_path), "--seeds", "2,0,2"])
        assert code == cli.EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.err == "error: --seeds[2]: duplicate seed 2\n"
        assert captured.out == ""

    def test_composite_rejected_inside_the_worker_pool(self, capfd):
        # Two seeds run in worker processes, where run_task raises; the
        # error still reaches the exit code, and no worker prints anything.
        code = cli.main(["run", "two_target_composition", "--seeds", "0,1"])
        assert code == cli.EXIT_INVALID
        assert capfd.readouterr().err == (
            "error: run_task requires a scenario with task.mode single\n"
        )

    def test_infeasible_run_returns_unsafe_exit(
        self, tiny_path, monkeypatch, capsys
    ):
        sc = cli._resolve_scenario(str(tiny_path))
        halted = run_task(sc, seed=0, mode="baseline")
        halted = RunResult(
            scenario=halted.scenario,
            mode=halted.mode,
            seed=halted.seed,
            agents=halted.agents,
            task_targets=halted.task_targets,
            infeasible_agent=0,
            infeasible_constraints=(0,),
        )
        for rec in halted.agents:
            rec.exit_reason = EXIT_INFEASIBLE
        monkeypatch.setattr(cli, "run_seeds", lambda *a, **k: [halted])
        code = cli.main(["run", str(tiny_path), "--seeds", "0"])
        assert code == cli.EXIT_UNSAFE
        err = capsys.readouterr().err
        assert "agent 0" in err and "obstacles [0]" in err


class TestComposeCommand:
    def test_compose_runs_composite(self, composite_path, capsys):
        code = cli.main(["compose", str(composite_path), "--seeds", "0"])
        assert code == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "seed   0" in out
        assert out.splitlines()[-1].startswith("total: seeds=1 reached=")

    def test_compose_rejects_single_task(self, tiny_path, capsys):
        code = cli.main(["compose", str(tiny_path), "--seeds", "0"])
        assert code == cli.EXIT_INVALID

    def test_compose_writes_outputs(self, composite_path, tmp_path):
        out_dir = tmp_path / "results"
        code = cli.main(
            [
                "compose", str(composite_path),
                "--seeds", "0", "--out", str(out_dir),
            ]
        )
        assert code == cli.EXIT_OK
        assert (out_dir / "tc_filtered_seed0_trajectories.csv").is_file()


class TestSweepCommand:
    def test_sweep_writes_csv(self, tiny_path, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        code = cli.main(
            [
                "sweep", str(tiny_path),
                "--margins", "0.0", "--seeds", "0", "--out", str(out_dir),
            ]
        )
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        assert (out_dir / "tiny_margin_sweep.csv").is_file()
        assert "margin 0.00" in out
        closing = out.splitlines()[-2:]
        assert [line.split()[0] for line in closing] == ["[baseline]", "[filtered]"]
        assert all(line.endswith("/1 rows short") for line in closing)

    def test_invalid_margin_fails_before_any_run(
        self, tiny_path, monkeypatch, capsys
    ):
        # A keep-out radius of 2 + 10 covers the target: the last margin is
        # rejected before the first margin's runs.
        calls = []
        monkeypatch.setattr(
            harness, "run_seeds", lambda *args, **kwargs: calls.append(args)
        )
        code = cli.main(
            ["sweep", str(tiny_path), "--margins", "0.5,10", "--seeds", "0"]
        )
        assert code == cli.EXIT_INVALID
        assert calls == []
        assert "error: --margins 10.0: agents[0].target" in capsys.readouterr().err

    def test_bad_margins(self, tiny_path, capsys):
        for margins in ("1.0,-2", "nan", "inf", "0.5,-inf", "1.0,1.0"):
            code = cli.main(["sweep", str(tiny_path), "--margins", margins])
            assert code == cli.EXIT_INVALID, margins
            assert "error: --margins" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "compose", "sweep"])
def test_out_naming_a_file_fails_before_any_run(
    command, tiny_path, composite_path, tmp_path, monkeypatch, capsys
):
    taken = tmp_path / "taken"
    taken.write_text("")

    def no_run(*args, **kwargs):
        raise AssertionError("a run started before --out was checked")

    monkeypatch.setattr(cli, "run_seeds", no_run)
    monkeypatch.setattr(cli, "margin_sweep", no_run)
    path = composite_path if command == "compose" else tiny_path
    code = cli.main([command, str(path), "--seeds", "0", "--out", str(taken)])
    assert code == cli.EXIT_INVALID
    assert "error: --out:" in capsys.readouterr().err
    assert taken.read_text() == ""


@pytest.mark.parametrize(
    "args", [["validate"], ["compose", "--seeds", "0"]], ids=["validate", "compose"]
)
def test_kernel_width_underflowing_every_weight_rejected(
    args, scenario_path_factory, capsys
):
    data = tiny_composite_dict()
    data["task"]["kernel_width"] = 1000.0
    path = scenario_path_factory(data, "wide")
    code = cli.main([args[0], str(path), *args[1:]])
    assert code == cli.EXIT_INVALID
    assert "error: task.kernel_width: agent 0" in capsys.readouterr().err


@dataclass
class FakeCheck:
    name: str
    passed: bool

    def __str__(self) -> str:
        return f"[{'ok' if self.passed else 'FAIL'}] {self.name}"


class TestValidateCommand:
    def test_validate_scenario_summary_and_checks(
        self, tiny_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(
            safe_lsoc.selfcheck, "run_all_checks",
            lambda fast=True: [FakeCheck("stub", True)],
        )
        code = cli.main(["validate", str(tiny_path)])
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        assert "task mode single" in out
        assert "[ok] stub" in out

    def test_validate_fails_on_failed_check(self, monkeypatch, capsys):
        monkeypatch.setattr(
            safe_lsoc.selfcheck, "run_all_checks",
            lambda fast=True: [FakeCheck("stub", False)],
        )
        assert cli.main(["validate"]) == cli.EXIT_INVALID

    def test_validate_full_flag_forwarded(self, monkeypatch):
        seen = {}

        def fake(fast=True):
            seen["fast"] = fast
            return []

        monkeypatch.setattr(safe_lsoc.selfcheck, "run_all_checks", fake)
        assert cli.main(["validate", "--full"]) == cli.EXIT_OK
        assert seen["fast"] is False

    def test_validate_bad_scenario_file(self, scenario_path_factory, capsys):
        data = tiny_scenario_dict()
        data["sim"]["dt"] = -1.0
        path = scenario_path_factory(data, "broken")
        code = cli.main(["validate", str(path)])
        assert code == cli.EXIT_INVALID
        assert "error:" in capsys.readouterr().err

    def test_validate_real_fast_checks_pass(self, capsys):
        # One genuine execution of the fast oracle suite end to end.
        code = cli.main(["validate"])
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        assert out.count("[ok]") >= 3


def test_console_entry_point_runs():
    import os
    import subprocess
    import sys

    # The package need not be installed: the checkout's src is put on the path.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1] / "src"),
                    env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "safe_lsoc.cli", "--help"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "run" in proc.stdout and "compose" in proc.stdout


def test_readme_commands_parse():
    # Every command the README shows must still parse; nothing runs.
    readme = Path(__file__).resolve().parents[1] / "README.md"
    in_code = False
    commands = []
    for line in readme.read_text().splitlines():
        if line.startswith("```"):
            in_code = not in_code
        elif in_code and line.startswith("safe-lsoc "):
            commands.append(line.split("#")[0].split()[1:])
    assert commands
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: safe-lsoc {' '.join(argv)}")
