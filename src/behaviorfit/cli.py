"""Command-line interface.

Exit codes: 0 on success, 1 for validation errors, 2 for runtime errors.

The simulator's names ``render_csv``, ``render_json`` and ``run_scenario``,
the three the traced benchmark swaps, are attributes of this module: the
module ``__getattr__`` looks each up in ``behaviorfit.simulate`` on every
read (PEP 562), so ``validate`` never imports the simulator. The verbs call
them as attributes of this module, never as bare names (``sweep`` reads
``run_scenario`` once), so a name set here is what they call, and deleting
it brings back the simulator's. The verbs write the rows ``render_csv`` or
``render_json`` would join straight to ``--out`` or stdout, one row at a
time, and open the file only once the run has returned.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Iterable, Iterator
from dataclasses import replace
from pathlib import Path

from .behavior import _ascii_number
from .environment import format_trace
from .metrics import FitVariant
from .scenario import Scenario, ScenarioError, fig2_scenario, load_scenario, scenario_trace

__all__ = ["main"]

_SIMULATOR = ("render_csv", "render_json", "run_scenario")


def __getattr__(name: str):
    if name not in _SIMULATOR:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import simulate

    return getattr(simulate, name)


_cli = sys.modules[__name__]  # this module, also when it runs as __main__


def _seed_range(text: str) -> range:
    try:
        first, _, last = text.partition("..")
        seeds = range(_ascii_number(first, int), _ascii_number(last, int) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A..B, got {text!r}") from None
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}: A must not exceed B")
    return seeds


def _ascii(kind: type[int] | type[float]):
    """An argparse type: ``kind`` of a number written in ASCII without ``_``."""
    def convert(text: str) -> int | float:
        return _ascii_number(text, kind)
    convert.__name__ = kind.__name__  # argparse names the type in its error
    return convert


def _emit(chunks: Iterable[str], out: str | None) -> None:
    """Write ``chunks`` one at a time to the file ``out``, or to stdout."""
    if out:
        with open(out, "w") as file:
            file.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _overridden(scenario: Scenario, args: argparse.Namespace, seed: int | None = None) -> Scenario:
    """The scenario a verb runs: ``--fit-variant`` and ``--cost-weight``
    applied, and the trace that ``seed`` draws pinned, so a run and its
    ``--emit-trace`` share one draw. ``run_scenario`` validates the result."""
    return replace(
        scenario,
        trace=scenario_trace(scenario, seed),
        turbulence=None,
        variant=FitVariant(args.fit_variant) if args.fit_variant else scenario.variant,
        weight=scenario.weight if args.cost_weight is None else args.cost_weight,
    )


def _render(report, fmt: str) -> Iterator[str]:
    """The chunks ``render_json`` or ``render_csv`` would join, per ``fmt``."""
    from .simulate import _csv_chunks, _json_chunks

    return _json_chunks(report) if fmt == "json" else _csv_chunks(report)


def cmd_run(args: argparse.Namespace) -> int:
    scenario = _overridden(load_scenario(args.scenario), args, args.seed)
    report = _cli.run_scenario(scenario)
    if args.emit_trace:
        Path(args.emit_trace).write_text(format_trace(scenario.trace))
    _emit(_render(report, args.format), args.out)
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    load_scenario(args.scenario)
    print(f"{args.scenario}: ok")
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    report = _cli.run_scenario(_overridden(fig2_scenario(), args))
    _emit(_render(report, args.format), args.out)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    scenario, run = load_scenario(args.scenario), _cli.run_scenario
    lines = ["seed,mean_finite_fit,neg_inf_ticks,total_cost\n"]
    for seed in args.seeds:
        s = run(_overridden(scenario, args, seed)).summary
        lines.append(f"{seed},{s.mean_finite_fit!r},{s.neg_inf_ticks},{s.total_cost!r}\n")
    _emit(lines, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="behaviorfit",
        description="Simulate system-environment fit under turbulent conditions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_overrides(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--fit-variant", choices=[v.value for v in FitVariant], default=None,
            help="fit shape (default: scenario setting, linear)",
        )
        p.add_argument(
            "--cost-weight", type=_ascii(float), default=None,
            help="cost penalty weight (default: scenario setting, 0)",
        )
        p.add_argument("--out", default=None, help="write output to a file instead of stdout")

    p_run = sub.add_parser("run", help="simulate a scenario file")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--seed", type=_ascii(int), default=None, help="override the trace seed")
    add_overrides(p_run)
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
    except Exception as exc:  # a ScenarioError is bad input, any other failure a runtime error
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ScenarioError) else 2


if __name__ == "__main__":
    raise SystemExit(main())
