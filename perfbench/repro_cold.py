"""Workload ``repro_all_cold``: the paper reproduction from a cold start.

Each operation is one fresh ``python -m repro all --no-cache`` interpreter
(:mod:`cold_child`), so every run pays the lazy set-up a user pays: imports,
workload synthesis, the oracle's first call.  The CLI takes no seed, so the
inputs are always the paper's fixed seed 0; ``--seed`` changes nothing here.
Every operation's stdout is checked against the committed golden (timing
lines stripped) and its simulated statistics against the seed-0 digest.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Dict, List, Tuple

import probes
from gates import GateError, check_digest, check_repro_stdout
from harness import (
    BENCH_DIR,
    GOLDEN,
    BenchmarkError,
    latency_metrics,
    median,
    peak_rss_mb,
    remove_work_dir,
    run_child,
    work_dir,
)

SETUP_REPEATS = 5
COLD_CHILD = str(BENCH_DIR / "cold_child.py")


def _goldens() -> Tuple[str, Dict]:
    stdout = (GOLDEN / "repro_all_stdout.txt").read_text()
    digest = json.loads((GOLDEN / "repro_all_seed0.json").read_text())
    return stdout, digest


def _reproduce(golden_stdout: str, golden_digest: Dict, *extra: str) -> float:
    """One cold reproduction; returns its wall time after checking its output."""
    seconds, completed = run_child([sys.executable, COLD_CHILD, *extra], timeout=150)
    if completed.returncode != 0:
        raise BenchmarkError(
            f"repro all exited {completed.returncode}:\n{completed.stderr[-2000:]}"
        )
    check_repro_stdout(completed.stdout, golden_stdout)
    digests = [
        line[len("DIGEST "):]
        for line in completed.stderr.splitlines()
        if line.startswith("DIGEST ")
    ]
    if len(digests) != 1:
        raise GateError("the reproduction reported no statistics digest")
    check_digest(json.loads(digests[0]), golden_digest)
    return seconds


def setup_seconds() -> float:
    """Median wall time of ``python -m repro --list``: interpreter to ready."""
    samples = []
    for _ in range(SETUP_REPEATS):
        seconds, completed = run_child([sys.executable, "-m", "repro", "--list"])
        if completed.returncode != 0 or "Available experiments" not in completed.stdout:
            raise BenchmarkError(f"repro --list failed:\n{completed.stderr[-2000:]}")
        samples.append(seconds)
    return median(samples)


def run(seed: int, seconds: float) -> Tuple[int, int, Dict[str, Tuple[float, str]]]:
    """The end-to-end run: returns (attempted, failed, metrics)."""
    golden_stdout, golden_digest = _goldens()
    setup = setup_seconds()
    latencies: List[float] = []
    start = time.perf_counter()
    # Closed loop, one caller: start another reproduction while it is
    # expected to finish inside the window (always at least one).
    while not latencies or (
        time.perf_counter() - start + median(latencies) <= seconds
    ):
        latencies.append(_reproduce(golden_stdout, golden_digest))
    metrics = latency_metrics(
        setup, latencies, len(latencies) / sum(latencies), peak_rss_mb(children=True)
    )
    return len(latencies), 0, metrics


def run_traced(seed: int, seconds: float) -> Tuple[int, int, Dict[str, Tuple[float, str]]]:
    """Untraced and traced cold runs in pairs, order alternating, for the
    window (at least one pair); per-layer metrics are their medians."""
    golden_stdout, golden_digest = _goldens()
    untraced: List[float] = []
    traced: List[float] = []
    samples: List[Dict[str, float]] = []
    scratch = work_dir("repro-trace-")
    start = time.perf_counter()
    try:
        while not traced or (
            time.perf_counter() - start + median(untraced) + median(traced) <= seconds
        ):
            for with_trace in (False, True) if len(traced) % 2 == 0 else (True, False):
                if not with_trace:
                    untraced.append(_reproduce(golden_stdout, golden_digest))
                    continue
                out = scratch / "spans.json"
                traced.append(_reproduce(golden_stdout, golden_digest, "--trace", str(out)))
                samples.append(json.loads(out.read_text()))
    finally:
        remove_work_dir(scratch)
    values = {name: median(sample[name] for sample in samples) for name in samples[0]}
    spans = values["cli.import_s"] + sum(
        values[f"experiments.{eid}_s"] for eid in probes.EXPERIMENT_IDS
    )
    values["trace.overhead_s"] = median(traced) - median(untraced)
    values["trace.coverage.repro_all"] = spans / median(traced)
    print(f"repro_all_cold traced: untraced {untraced} s, traced {traced} s",
          file=sys.stderr)
    return len(untraced) + len(traced), 0, probes.report(values)
