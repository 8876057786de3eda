"""The repository's benchmark: one command, three workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload repro_all_cold|dse_grid|service_mix \
        --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with the benchmark's tracing
off; ``--trace 1`` runs the workload's traced variant and reports the
per-layer metrics instead.  Every run checks the program's outputs
(:mod:`gates`).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
on success, 1 when a correctness gate fails (after printing
``"correct": false``), and 2 when the benchmark cannot run at all (no
program source in the checkout, a child process crashed).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import BenchmarkError, emit, import_program  # noqa: E402

WORKLOADS = ("repro_all_cold", "dse_grid", "service_mix")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        import_program()
        from gates import GateError

        if args.workload == "repro_all_cold":
            import repro_cold as workload
        elif args.workload == "dse_grid":
            import dse_grid as workload
        else:
            import service_mix as workload
        run = workload.run_traced if args.trace else workload.run
        try:
            attempted, failed, metrics = run(args.seed, args.seconds)
        except GateError as error:
            print(f"correctness gate failed: {error}", file=sys.stderr)
            emit(False, 1, 1, {})
            return 1
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    emit(True, attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
