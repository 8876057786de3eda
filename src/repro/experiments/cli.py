"""Command-line entry point: ``python -m repro.experiments.cli <experiment>``.

Lists and runs the experiment drivers (one per paper table/figure) so the
evaluation can be regenerated without writing any Python.  ``python -m repro``
forwards here as well.

The simulation engine behind the drivers is configured here: layer
simulations shard across one worker process per usable CPU by default
(``--parallel N`` or ``REPRO_PARALLEL=N`` sets the pool size, and ``1``
runs serially; the output is identical either way), and ``--cache-dir
PATH`` persists finished metrics to a content-addressed on-disk cache so
re-running an experiment with unchanged inputs is instant
(``REPRO_CACHE_DIR`` sets the same root environment-wide; ``--no-cache``
overrides both).

Six subcommands are dispatched before experiment parsing: ``repro
compare`` runs cross-architecture comparison sweeps over the architecture
registry (:mod:`repro.experiments.compare`), ``repro workloads`` lists the
workload registry and its density profiles
(:mod:`repro.experiments.workloads`), ``repro serve`` boots the HTTP
service (:mod:`repro.service`) on one warm engine, ``repro submit
SCENARIO`` sends a scenario to a running service and prints the result
JSON, ``repro stats`` prints (or ``--watch``-es) a running service's
counters or raw ``/metrics`` exposition, and ``repro lint`` runs the
project's static-analysis rule catalogue (:mod:`repro.devtools.lint`).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Dict, List, Sequence

from repro.engine import configure_default_engine

from repro.experiments import (
    fig1_density,
    fig7_sensitivity,
    fig8_performance,
    fig9_utilization,
    fig10_energy,
    sec6c_granularity,
    sec6d_tiling,
    table1_networks,
    table2_design_params,
    table3_area,
    table4_configs,
)

EXPERIMENTS: Dict[str, tuple] = {
    "table1": (table1_networks, "Table I: network characteristics"),
    "table2": (table2_design_params, "Table II: SCNN design parameters"),
    "table3": (table3_area, "Table III: SCNN PE area breakdown"),
    "table4": (table4_configs, "Table IV: accelerator configurations"),
    "fig1": (fig1_density, "Figure 1: per-layer density and work reduction"),
    "fig7": (fig7_sensitivity, "Figure 7: sensitivity to density"),
    "fig8": (fig8_performance, "Figure 8: performance vs DCNN"),
    "fig9": (fig9_utilization, "Figure 9: utilization and idle time"),
    "fig10": (fig10_energy, "Figure 10: energy vs DCNN"),
    "sec6c": (sec6c_granularity, "Section VI-C: PE granularity"),
    "sec6d": (sec6d_tiling, "Section VI-D: DRAM tiling"),
}


# Subcommands dispatched before experiment parsing, so `repro serve --port
# 8001` or `repro compare --list` never collide with experiment ids.
SERVICE_COMMANDS = ("serve", "submit", "stats")
COMPARE_COMMAND = "compare"
WORKLOADS_COMMAND = "workloads"
LINT_COMMAND = "lint"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the SCNN paper's tables and figures.",
        epilog="Subcommands: 'repro compare' sweeps registered accelerator "
        "architectures against each other; 'repro workloads' lists the "
        "workload zoo and its density profiles; 'repro serve' boots the "
        "HTTP simulation service, 'repro submit SCENARIO' sends it work, "
        "'repro stats' watches a running service's counters, and "
        "'repro lint' checks the codebase invariants "
        "(each accepts --help).",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="EXPERIMENT",
        help="experiment ids to run (default: all); use --list to see them",
    )
    parser.add_argument(
        "--list", action="store_true", help="list available experiments and exit"
    )
    parser.add_argument(
        "--parallel",
        type=int,
        default=None,
        metavar="N",
        help="shard layer simulations across N worker processes "
        "(-1 = one per usable CPU, the default unless $REPRO_PARALLEL is "
        "set; 1 = serial, with identical output)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="persist simulation results to a content-addressed cache at PATH "
        "(default: $REPRO_CACHE_DIR if set, else no on-disk cache)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk result cache even if $REPRO_CACHE_DIR is set",
    )
    return parser


def list_experiments() -> str:
    lines = ["Available experiments:"]
    for key, (_, description) in EXPERIMENTS.items():
        lines.append(f"  {key:8s} {description}")
    lines.append("  all      run every experiment in order")
    return "\n".join(lines)


def run_experiments(names: Sequence[str]) -> List[str]:
    """Run the named experiments (or all of them) and return their ids."""
    if not names or "all" in names:
        names = list(EXPERIMENTS)
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        raise KeyError(
            f"unknown experiment(s): {', '.join(unknown)}; "
            f"available: {', '.join(EXPERIMENTS)}"
        )
    executed = []
    for name in names:
        module, description = EXPERIMENTS[name]
        banner = f"== {description} =="
        print("\n" + banner)
        started = time.monotonic()
        module.main()
        print(f"[{name} completed in {time.monotonic() - started:.1f} s]")
        executed.append(name)
    return executed


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in SERVICE_COMMANDS:
        from repro.service.cli import serve_main, stats_main, submit_main

        handler = {
            "serve": serve_main,
            "submit": submit_main,
            "stats": stats_main,
        }[argv[0]]
        return handler(argv[1:])
    if argv and argv[0] == COMPARE_COMMAND:
        from repro.experiments.compare import compare_main

        return compare_main(argv[1:])
    if argv and argv[0] == WORKLOADS_COMMAND:
        from repro.experiments.workloads import workloads_main

        return workloads_main(argv[1:])
    if argv and argv[0] == LINT_COMMAND:
        from repro.devtools.lint.cli import lint_main

        return lint_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list:
        print(list_experiments())
        return 0
    cache_dir = False if args.no_cache else args.cache_dir
    parallel = args.parallel
    if parallel is None and not os.environ.get("REPRO_PARALLEL"):
        parallel = -1
    configure_default_engine(cache_dir=cache_dir, parallel=parallel)
    try:
        run_experiments(args.experiments)
    except KeyError as error:
        print(str(error), file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
