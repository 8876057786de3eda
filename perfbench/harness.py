"""Shared plumbing of the benchmark: paths, child processes, statistics, output.

Everything the benchmark reads or writes stays inside the checkout it runs
from: the program is imported from ``<checkout>/src`` and scratch state (the
service's cache directory) lives under ``<checkout>/.perfbench_work``.
"""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterable, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
GOLDEN = BENCH_DIR / "golden"

#: The three Table I networks the paper evaluates (72 conv layers in all).
NETWORKS = ("alexnet", "googlenet", "vggnet")

#: Environment knobs of the program that would change what a run measures
#: (an on-disk cache root, a default process-pool size); children never
#: inherit them.
_SCRUBBED_ENV = ("REPRO_CACHE_DIR", "REPRO_PARALLEL")


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (no program source, a child crashed)."""


def require_source() -> None:
    """Fail unless the checkout holds the program's source tree."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(
            f"no program source at {SRC / 'repro'}; run the benchmark from "
            "the root of a repository checkout"
        )


def use_checkout_source() -> None:
    """Point ``import repro`` at this checkout's ``src/repro``, without importing it."""
    require_source()
    for name in _SCRUBBED_ENV:
        os.environ.pop(name, None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src/repro``."""
    use_checkout_source()
    import repro

    location = Path(repro.__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise BenchmarkError(f"imported repro from {location}, not from {SRC}")


def child_env() -> Dict[str, str]:
    """Environment for child interpreters: this checkout's program, no knobs."""
    env = {k: v for k, v in os.environ.items() if k not in _SCRUBBED_ENV}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(
    argv: Sequence[str], timeout: float = 120.0
) -> Tuple[float, subprocess.CompletedProcess]:
    """Run one child to completion; returns (wall seconds, completed process)."""
    start = time.perf_counter()
    completed = subprocess.run(
        list(argv),
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    return time.perf_counter() - start, completed


def time_until_ready(argv: Sequence[str], marker: str, timeout: float = 120.0) -> float:
    """Seconds from spawning ``argv`` until it prints a line equal to ``marker``.

    The child is then left to shut down on its own and is waited for, so
    no process outlives the call.
    """
    start = time.perf_counter()
    process = subprocess.Popen(
        list(argv),
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    ready_at: Optional[float] = None
    try:
        assert process.stdout is not None
        for line in process.stdout:
            if line.strip() == marker:
                ready_at = time.perf_counter()
                break
        _, err = process.communicate(timeout=timeout)
    except BaseException:
        process.kill()
        process.wait()
        raise
    if ready_at is None or process.returncode != 0:
        raise BenchmarkError(
            f"set-up child {' '.join(argv[1:])} exited {process.returncode} "
            f"without becoming ready:\n{err[-2000:]}"
        )
    return ready_at - start


def quantile(values: Iterable[float], q: float) -> float:
    """The q-quantile by linear interpolation between order statistics."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no samples")
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Iterable[float]) -> float:
    return quantile(values, 0.5)


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set size in MiB, of this process or of its largest child."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def work_dir(prefix: str) -> Path:
    """A fresh, empty scratch directory under the checkout's work area."""
    WORK.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=WORK))


def remove_work_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:
        pass  # still holds another run's directory


def latency_metrics(
    setup_s: float, latencies: Sequence[float], per_s: float, rss_mb: float
) -> Dict[str, Tuple[float, str]]:
    """The end-to-end metrics every workload reports, from its samples."""
    return {
        "setup_s": (setup_s, "s"),
        "latency_p50_s": (median(latencies), "s"),
        "latency_p90_s": (quantile(latencies, 0.9), "s"),
        "throughput_per_s": (per_s, "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def emit(
    correct: bool,
    attempted: int,
    failed: int,
    metrics: Dict[str, Tuple[float, str]],
) -> None:
    """Print the result object as the last line of standard output."""
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": {
                    name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        ),
        flush=True,
    )
