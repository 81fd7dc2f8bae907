"""Command-line interface.

Exit codes: 0 on success, 1 for validation errors, 2 for runtime errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .environment import format_trace
from .metrics import FitVariant
from .scenario import Scenario, ScenarioError, finite_number, load_scenario, validate_scenario
from .simulate import fig2_scenario, render_csv, render_json, run_scenario, scenario_trace

__all__ = ["main"]


def _seed_range(text: str) -> range:
    try:
        first, _, last = text.partition("..")
        seeds = range(int(first), int(last) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A..B, got {text!r}") from None
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}: A must not exceed B")
    return seeds


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _variant(args: argparse.Namespace) -> FitVariant | None:
    return FitVariant(args.fit_variant) if args.fit_variant else None


def _render(report, fmt: str) -> str:
    return render_json(report) if fmt == "json" else render_csv(report)


def _load(path: str, seeded_by: str | None) -> Scenario:
    # a fixed trace cannot honour a seed, so naming one is an error
    scenario = load_scenario(path)
    if seeded_by and scenario.turbulence is None:
        raise ScenarioError(f"{seeded_by} needs a scenario with a turbulence spec")
    return scenario


def cmd_run(args: argparse.Namespace) -> int:
    scenario = _load(args.scenario, "--seed" if args.seed is not None else None)
    report = run_scenario(
        scenario, seed=args.seed, variant=_variant(args), weight=args.cost_weight
    )
    if args.emit_trace:
        Path(args.emit_trace).write_text(format_trace(scenario_trace(scenario, args.seed)))
    _emit(_render(report, args.format), args.out)
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    violations = validate_scenario(scenario)
    if violations:
        for violation in violations:
            print(violation, file=sys.stderr)
        return 1
    print(f"{args.scenario}: ok")
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    report = run_scenario(fig2_scenario(), variant=_variant(args), weight=args.cost_weight)
    _emit(_render(report, args.format), args.out)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    scenario = _load(args.scenario, "sweep")
    lines = ["seed,mean_finite_fit,neg_inf_ticks,total_cost"]
    for seed in args.seeds:
        report = run_scenario(
            scenario, seed=seed, variant=_variant(args), weight=args.cost_weight
        )
        s = report.summary
        lines.append(f"{seed},{s.mean_finite_fit!r},{s.neg_inf_ticks},{s.total_cost!r}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="behaviorfit",
        description="Simulate system-environment fit under turbulent conditions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_overrides(p: argparse.ArgumentParser, with_seed: bool = False) -> None:
        if with_seed:
            p.add_argument("--seed", type=int, default=None, help="override the trace seed")
        p.add_argument(
            "--fit-variant", choices=["linear", "quadratic"], default=None,
            help="fit shape (default: scenario setting, linear)",
        )
        p.add_argument(
            "--cost-weight", type=finite_number, default=None,
            help="cost penalty weight (default: scenario setting, 0)",
        )
        p.add_argument("--out", default=None, help="write output to a file instead of stdout")

    p_run = sub.add_parser("run", help="simulate a scenario file")
    p_run.add_argument("--scenario", required=True)
    add_overrides(p_run, with_seed=True)
    p_run.add_argument("--format", choices=["csv", "json"], default="csv")
    p_run.add_argument(
        "--emit-trace", default=None, metavar="FILE",
        help="also write the environment trace that was used, in trace format",
    )
    p_run.set_defaults(func=cmd_run)

    p_validate = sub.add_parser("validate", help="check a scenario file")
    p_validate.add_argument("--scenario", required=True)
    p_validate.set_defaults(func=cmd_validate)

    p_demo = sub.add_parser("demo", help="run a built-in scenario")
    p_demo.add_argument("what", choices=["fig2"])
    add_overrides(p_demo)
    p_demo.add_argument("--format", choices=["csv", "json"], default="csv")
    p_demo.set_defaults(func=cmd_demo)

    p_sweep = sub.add_parser("sweep", help="run a scenario over a seed range")
    p_sweep.add_argument("--scenario", required=True)
    p_sweep.add_argument("--seeds", type=_seed_range, required=True, metavar="A..B")
    add_overrides(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # any other failure is a runtime error
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
