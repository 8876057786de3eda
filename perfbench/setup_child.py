"""Set up one workload in a fresh interpreter and report when it is ready.

Usage (from the checkout root, with ``PYTHONPATH=src``)::

    python perfbench/setup_child.py dse_grid|service_mix

Prints ``READY`` once the workload could take its first operation, then
tears down and exits.  The benchmark times spawn-to-``READY`` as the
workload's ``setup_s``.
"""

from __future__ import annotations

import sys

from harness import import_program


def main(workload: str) -> int:
    import_program()
    if workload == "dse_grid":
        import dse_grid

        dse_grid.prepare()
        print("READY", flush=True)
        return 0
    import service_mix

    session = service_mix.Session()
    try:
        session.warm_up()
        print("READY", flush=True)
    finally:
        session.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
