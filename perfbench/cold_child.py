"""One cold reproduction in a fresh interpreter: ``python -m repro all --no-cache``.

Usage (from the checkout root, with ``PYTHONPATH=src``)::

    python perfbench/cold_child.py                 # untraced
    python perfbench/cold_child.py --trace OUT.json  # with the benchmark's probes

Runs the ``repro`` package's ``__main__`` exactly as ``python -m repro all
--no-cache`` does, so stdout is the reproduction's own output.  After it
returns, the three networks' seed-0 simulations are read back from the
process's engine memo (no recomputation) and their digest is written to
stderr on a line starting with ``DIGEST``.  With ``--trace`` the probes of
:mod:`probes` are installed first and the per-layer aggregates are written to
``OUT.json``.
"""

from __future__ import annotations

import json
import runpy
import sys
import time

from harness import NETWORKS, import_program, use_checkout_source


def main(argv) -> int:
    trace_out = argv[argv.index("--trace") + 1] if "--trace" in argv else None
    tracer = None
    if trace_out is not None:
        import probes
        from spans import Tracer

        use_checkout_source()
        # Timed: everything ``python -m repro`` imports before it runs,
        # the package's own eager imports included.
        start = time.perf_counter()
        import repro  # noqa: F401
        import repro.experiments.cli  # noqa: F401

        import_s = time.perf_counter() - start
    import_program()
    if trace_out is not None:
        tracer = Tracer()
        probes.install(tracer, experiments=True)
    sys.argv = ["repro", "all", "--no-cache"]
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    except SystemExit as exit_:
        if exit_.code:
            return int(exit_.code) if isinstance(exit_.code, int) else 1
    sys.stdout.flush()
    if tracer is not None:
        tracer.uninstall()

    from gates import digest_record, simulation_rows
    from repro.engine import default_engine

    engine = default_engine()
    hits = engine.stats()["hits"]
    simulations = {net: engine.run_network(net, seed=0) for net in NETWORKS}
    if engine.stats()["hits"] - hits != len(NETWORKS):
        print("the reproduction left no seed-0 network simulations in the "
              "engine memo", file=sys.stderr)
        return 3
    print("DIGEST " + json.dumps(digest_record(simulation_rows(simulations))),
          file=sys.stderr)

    if tracer is not None:
        import probes

        values = probes.stage_metrics(tracer)
        values["cli.import_s"] = import_s
        for eid in probes.EXPERIMENT_IDS:
            values[f"experiments.{eid}_s"] = tracer.busy_s(f"experiments.{eid}")
        with open(trace_out, "w") as handle:
            json.dump(values, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
