"""Process-pool sharding for the simulation engine.

Independent units of work — layer simulations, (workload, config) cycle
evaluations, DSE candidate configurations — are mapped over a
``concurrent.futures`` process pool.  Three rules keep the parallel path
bitwise-identical to the serial one:

* every worker function is a pure function of its (picklable) task tuple;
* results are collected in submission order, never completion order;
* workloads cross the process boundary as :class:`~repro.engine.workloads.WorkloadHandle`
  recipes and are regenerated inside the worker from the same per-layer seed
  stream the serial path uses.

``parallel_map`` degrades to the plain serial loop for ``workers in (None,
0, 1)`` or when there is a single task, so callers never need two code
paths.  When it does use a pool, it hands tasks out one at a time, the
costliest first (by an optional caller-supplied ``cost``), so a large task
never starts last and leaves the other workers idle behind it.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, List, Optional, Sequence, TypeVar

Task = TypeVar("Task")
Result = TypeVar("Result")


def resolve_workers(workers: Optional[int], num_tasks: int) -> int:
    """Number of pool processes to use for ``num_tasks`` tasks.

    ``None``, ``0`` and ``1`` mean serial; ``-1`` means one worker per
    CPU this process may run on (its affinity mask).  The result is never
    larger than the task count.
    """
    if not num_tasks:
        return 0
    if workers is None or workers == 0 or workers == 1:
        return 0
    if workers < 0:
        workers = _usable_cpus()
    return max(0, min(workers, num_tasks))


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, not the host's count.

    A ``taskset``- or cgroup-pinned process on a large host can use only the
    CPUs in its mask; ``os.cpu_count()`` (the fallback where the platform
    has no affinity call) would count every CPU of the host.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool_context() -> multiprocessing.context.BaseContext:
    """Prefer ``fork`` (fast, inherits sys.path) where it is actually safe.

    macOS lists ``fork`` as available but forking after the Objective-C /
    Accelerate runtimes initialise is unsafe (the reason CPython switched
    the macOS default to ``spawn``), so only Linux opts in.
    """
    if sys.platform == "linux" and "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def parallel_map(
    function: Callable[[Task], Result],
    tasks: Sequence[Task],
    workers: Optional[int] = None,
    cost: Optional[Callable[[Task], float]] = None,
) -> List[Result]:
    """``[function(task) for task in tasks]``, optionally across processes.

    The output order always matches the input order, so serial and parallel
    runs are interchangeable.  With a pool, tasks are dispatched one per
    message in descending ``cost(task)`` (ties and ``cost=None`` keep the
    submission order): longest-processing-time-first list scheduling, which
    keeps the pool's tail short when task sizes differ by orders of
    magnitude, as the layers of one network do.
    """
    tasks = list(tasks)
    pool_size = resolve_workers(workers, len(tasks))
    if pool_size <= 1:
        return [function(task) for task in tasks]
    order = list(range(len(tasks)))
    if cost is not None:
        order.sort(key=lambda index: -cost(tasks[index]))
    results: List[Optional[Result]] = [None] * len(tasks)
    with ProcessPoolExecutor(
        max_workers=pool_size, mp_context=_pool_context()
    ) as pool:
        dispatched = pool.map(function, [tasks[index] for index in order], chunksize=1)
        for index, result in zip(order, dispatched):
            results[index] = result
    return results
