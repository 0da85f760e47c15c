"""Command line front end.

Subcommands: run (closed-loop task), compose (generalize solved tasks to a
new target), sweep (safety-margin study), validate (scenario schema plus
the numeric oracle checks). Exit codes: 0 success, 2 invalid scenario,
arguments, or failed check, 3 a run halted because the safety constraints
became infeasible.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path

from .harness import (
    MODE_BASELINE,
    MODE_FILTERED,
    RunResult,
    compute_metrics,
    export_run,
    margin_sweep,
    run_generalization,
    run_seeds,
    run_task,
    write_sweep_csv,
)
from .scenarios import (
    Scenario,
    ScenarioError,
    bundled_scenario_path,
    list_bundled_scenarios,
    load_scenario,
    parse_seeds,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_UNSAFE = 3


def _resolve_scenario(token: str) -> Scenario:
    path = Path(token)
    if path.is_file():
        return load_scenario(path)
    if token not in list_bundled_scenarios():
        raise ScenarioError(
            f"{token}: no such file and no bundled scenario of that name; "
            f"available: {list_bundled_scenarios()}"
        )
    return load_scenario(bundled_scenario_path(token), name=token)


def _parse_seeds(raw: str | None, sc: Scenario) -> list[int]:
    if raw is None:
        return list(sc.sim.seeds)
    # A token that is not a decimal integer stays a string, which the rule rejects.
    tokens = [tok.strip() for tok in raw.split(",") if tok.strip() != ""]
    seeds = [int(t) if t.isdecimal() else t for t in tokens]
    return list(parse_seeds(seeds, "--seeds"))


def _parse_margins(raw: str) -> list[float]:
    try:
        margins = [float(tok) for tok in raw.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ScenarioError(f"--margins: {exc}") from exc
    if not margins or not all(0 <= m < float("inf") for m in margins):
        raise ScenarioError("--margins: expected comma-separated finite numbers >= 0")
    for k, m in enumerate(margins):
        if m in margins[:k]:
            raise ScenarioError(f"--margins[{k}]: duplicate margin {m}")
    return margins


def _out_dir(raw: str | None) -> Path | None:
    """Create the --out directory before any run starts."""
    if not raw:
        return None
    try:
        Path(raw).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ScenarioError(f"--out: {exc}") from exc
    return Path(raw)


def _summarize(metrics: dict) -> str:
    err = ", ".join(f"{e:.2f}" for e in metrics["terminal_position_error"])
    dists = ", ".join(f"{d:.2f}" for d in metrics["min_center_distance"])
    return (
        f"seed {metrics['seed']:>3} [{metrics['mode']}] "
        f"reached={sum(metrics['reached'])}/{len(metrics['reached'])} "
        f"terminal_err=[{err}] min_obstacle_dist=[{dists}] "
        f"violations={metrics['safety_violation_count']} "
        f"filter_hits={metrics['filter_activation_count']} "
        f"wall={metrics['wall_time_s']:.1f}s"
    )


def _total(runs: list[dict]) -> str:
    """One closing line over the metrics of every seed."""
    reached = [r for m in runs for r in m["reached"]]
    errors = [e for m in runs for e in m["terminal_position_error"]]
    dists = [d for m in runs for d in m["min_center_distance"]]
    worst = f"{min(dists):.2f}" if dists else "none"
    return (
        f"total: seeds={len(runs)} reached={sum(reached)}/{len(reached)} "
        f"violations={sum(m['safety_violation_count'] for m in runs)} "
        f"filter_hits={sum(m['filter_activation_count'] for m in runs)} "
        f"min_obstacle_dist={worst} "
        f"median_terminal_err={statistics.median(errors):.2f}"
    )


def _report_runs(results: list[RunResult], sc: Scenario, out: Path | None) -> int:
    """Summarize each run, exporting it under out, then print the total.

    Returns EXIT_UNSAFE if any run halted infeasible.
    """
    code = EXIT_OK
    runs = []
    for res in results:
        metrics = export_run(res, sc, out) if out else compute_metrics(res, sc)
        runs.append(metrics)
        print(_summarize(metrics))
        if res.halted_infeasible:
            ids = list(res.infeasible_constraints or ())
            print(
                f"error: seed {res.seed}: agent {res.infeasible_agent} halted, "
                f"the barrier half-spaces of obstacles {ids} admit no control",
                file=sys.stderr,
            )
            code = EXIT_UNSAFE
    print(_total(runs))
    return code


def _cmd_run(args: argparse.Namespace) -> int:
    """run and compose: the seeds of args.runner, reported and exported."""
    sc = _resolve_scenario(args.scenario)
    seeds = _parse_seeds(args.seeds, sc)
    out = _out_dir(args.out)
    results = run_seeds(sc, seeds, mode=args.mode, runner=args.runner)
    return _report_runs(results, sc, out)


def _cmd_sweep(args: argparse.Namespace) -> int:
    sc = _resolve_scenario(args.scenario)
    seeds = _parse_seeds(args.seeds, sc)
    margins = _parse_margins(args.margins)
    out = _out_dir(args.out)
    rows = margin_sweep(sc, margins, seeds)
    for row in rows:
        status = "clear" if row.cleared else "short"
        print(
            f"margin {row.margin:.2f} seed {row.seed:>3} [{row.mode}] "
            f"obstacle {row.obstacle} min_dist={row.min_center_distance:.3f} "
            f"threshold={row.threshold:.2f} {status}"
        )
    for mode in (MODE_BASELINE, MODE_FILTERED):
        mode_rows = [row for row in rows if row.mode == mode]
        short = sum(not row.cleared for row in mode_rows)
        print(f"[{mode}] {short}/{len(mode_rows)} rows short")
    if out:
        write_sweep_csv(rows, out / f"{sc.name}_margin_sweep.csv")
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    from .selfcheck import run_all_checks

    if args.scenario is not None:
        sc = _resolve_scenario(args.scenario)
        print(
            f"{sc.name}: {sc.n_agents} agent(s), {len(sc.obstacles)} "
            f"obstacle(s), {len(sc.graph.edges)} edge(s), task mode "
            f"{sc.task.mode}"
        )
    code = EXIT_OK
    for result in run_all_checks(fast=not args.full):
        print(result)
        if not result.passed:
            code = EXIT_INVALID
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="safe-lsoc",
        description=(
            "Sampled stochastic optimal control with barrier-function "
            "safety filtering"
        ),
        epilog=f"bundled scenarios: {', '.join(list_bundled_scenarios())}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, modes: bool = True) -> None:
        p.add_argument("scenario", help="scenario file path or bundled name")
        p.add_argument("--out", help="directory for CSV and JSON output")
        p.add_argument("--seeds", help="comma-separated seed list")
        if modes:
            p.add_argument(
                "--mode",
                choices=[MODE_BASELINE, MODE_FILTERED],
                default=MODE_FILTERED,
            )

    p_run = sub.add_parser("run", help="run a task scenario closed loop")
    add_common(p_run)
    p_run.set_defaults(func=_cmd_run, runner=run_task)

    p_comp = sub.add_parser(
        "compose", help="generalize component tasks to a new target"
    )
    add_common(p_comp)
    p_comp.set_defaults(func=_cmd_run, runner=run_generalization)

    p_sweep = sub.add_parser("sweep", help="margin sweep, both control modes")
    add_common(p_sweep, modes=False)
    p_sweep.add_argument("--margins", default="0.5,1.0,1.5,2.0")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_val = sub.add_parser(
        "validate",
        help="run the numeric oracle checks, optionally on a scenario file",
    )
    p_val.add_argument(
        "scenario", nargs="?", help="scenario file path or bundled name"
    )
    p_val.add_argument(
        "--full", action="store_true",
        help="full-scale checks (slower, acceptance-grade sample counts)",
    )
    p_val.set_defaults(func=_cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
