"""The benchmark's workloads: scenario text and CLI calls made from a seed.

Every figure id is ``fNN`` and every sensor id ``sNNN``, zero-padded, and
every set is written in ``sorted()`` order, so a scenario file depends on
(workload, seed) alone and never on string hash randomisation.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    verb: str  # "run" or "sweep"
    fmt: str  # output format of a "run" op; "" for "sweep"
    figures: int  # universe size F
    horizon: int  # ticks per simulated trace
    seeds_per_op: int  # trace seeds one op simulates
    inputs: int  # distinct op inputs per benchmark run; ops cycle over them


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("controller-long", "run", "csv", 32, 5000, 1, 6),
        Workload("sensors-long", "run", "json", 32, 5000, 1, 12),
        Workload("sweep-short", "sweep", "", 16, 200, 200, 3),
    )
}


def figure_ids(n: int) -> list[str]:
    return [f"f{i:02d}" for i in range(n)]


def _braced(figures) -> str:
    return "{" + ",".join(sorted(figures)) + "}"


def scenario_text(workload: Workload, seed: int, horizon: int | None = None) -> str:
    """Scenario file for one benchmark run; ``horizon`` shrinks it for self-tests."""
    figs = figure_ids(workload.figures)
    horizon = workload.horizon if horizon is None else horizon
    lines = [
        f"name = {workload.name}",
        "universe = " + ",".join(figs),
        f"turbulence.seed = {seed}",
        f"turbulence.class_walk = {0 if workload.name == 'sensors-long' else 0.1}",
        "turbulence.figure_flip = 0.1",
        "turbulence.mean_segment_len = 10",
        f"turbulence.horizon = {horizon}",
    ]
    if workload.name == "controller-long":
        lines += [
            "system.behavior = pur" + _braced(figs[:28]),
            "controller.predictor = majority:5",
            "controller.weight = 0.05",
            "costs.figure = 0.01",
            "costs.borrow = 0.05",
            "costs.switch = 0.1",
            "capability.figures = " + ",".join(figs[:28]),
            "capability.max_class = pro",
            # two peers lend the figures the system cannot acquire; f30 is
            # lent by both, so the lowest-id lender rule is exercised
            "peers.pa.figures = " + ",".join(figs[28:31]),
            "peers.pb.figures = " + ",".join(figs[30:32]),
        ]
    elif workload.name == "sensors-long":
        n = workload.figures
        lines.append("system.behavior = pur{}")
        for i in range(2 * n):
            covered = {figs[i % n], figs[(7 * i + 1) % n], figs[(13 * i + 2) % n]}
            lines.append(f"sensors.s{i:03d} = {_braced(covered)} {1 + (i % 5) / 10!r}")
        lines.append("critical = " + _braced(figs[:8]))
    else:
        lines.append("system.behavior = rea" + _braced(figs[::2]))
    return "\n".join(lines) + "\n"


def op_seeds(workload: Workload, seed: int, k: int, seeds_per_op: int | None = None) -> range:
    """Trace seeds simulated by the ``k``-th distinct input of run ``seed``."""
    per_op = workload.seeds_per_op if seeds_per_op is None else seeds_per_op
    first = 1000 * seed + per_op * k
    return range(first, first + per_op)


def op_argv(workload: Workload, scenario: Path, seeds: range, out: Path) -> list[str]:
    """The ``behaviorfit`` command line of one op."""
    if workload.verb == "sweep":
        return ["sweep", "--scenario", str(scenario), "--seeds", f"{seeds[0]}..{seeds[-1]}",
                "--out", str(out)]
    return ["run", "--scenario", str(scenario), "--seed", str(seeds[0]),
            "--format", workload.fmt, "--out", str(out)]
