"""Workload ``service_mix``: two callers drive the simulation service.

An in-process server configured like the documented deployment (``repro
serve``: thread mode, 2 workers, fast path and observability on, engine memo
bounded at 512 entries) over a fresh, empty ``--cache-dir`` under the
checkout's work area.  Two client threads form a closed loop: each waits for
its own reply, polling every :data:`POLL_S` seconds, well below the
cheapest layer job.  They take operations in turn from one fixed schedule
(:data:`SCHEDULE`); the seed draws the jobs' input seeds and which earlier
request a ``repeat`` sends:

* ``small`` — a layer job on AlexNet conv2 on a fresh seed (~47 ms alone);
* ``large`` — a layer job on VGGNet conv1_2 on a fresh seed (~0.5 s alone);
* ``network`` — a GoogLeNet network job on a fresh seed (~1.3 s alone);
* ``dse`` — a ``dse_sweep`` on one of the three networks (enqueued the
  first time, answered by the fast path after);
* ``repeat`` — a request that already completed, picked at random
  (fast path, read from the payload cache);
* ``dup`` — one fresh ``small`` request submitted twice at once (coalesced).

The class shares and their order are a synthetic choice, not taken from
observed or documented traffic (none is recorded for the service): each
class has a narrow cost, and the shares put the median inside the ``small``
jobs and the 90th percentile inside the ``large`` ones, so the quantiles do
not jump between classes from run to run.  The same order is used for every
seed.

After the window every repeated key is checked to have returned identical
payloads, and a seeded sample of payloads is recomputed on the serial
in-process path (``simulate_layer``, ``simulate_network``, the per-config
DSE sweep).
"""

from __future__ import annotations

import json
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import probes
from gates import canonical, check_layer_payload, check_same_payload
from harness import (
    BENCH_DIR,
    NETWORKS,
    latency_metrics,
    median,
    peak_rss_mb,
    quantile,
    remove_work_dir,
    time_until_ready,
    work_dir,
)

#: One round of the schedule: 20 operations, 21 jobs (a ``dup`` is two).
SCHEDULE = (
    "small", "repeat", "large", "small", "repeat", "network", "small",
    "dup", "repeat", "large", "small", "repeat", "dse", "small",
    "large", "repeat", "small", "large", "repeat", "small",
)
#: The (network, layer) of each layer-job class.
LAYER_JOBS = {"small": ("alexnet", "conv2"), "large": ("vggnet", "conv1_2"), "dup": ("alexnet", "conv2")}
CLIENTS = 2
WORKERS = 2
#: Client poll interval, seconds: well below the cheapest layer job (~10 ms).
POLL_S = 0.005
NETWORK_JOB = "googlenet"
SETUP_REPEATS = 3
#: Peak RSS is read when this many operations (five schedule rounds) have
#: been handed out.  Every distinct network or large-layer job adds to the
#: engine memo, so a reading at the end of the window would grow with
#: throughput; at a fixed operation count it measures memory per work done.
RSS_OPERATIONS = 5 * len(SCHEDULE)
#: Operations of each pass of the traced run: one round of the schedule.
TRACED_OPERATIONS = len(SCHEDULE)
#: Payloads re-simulated on the serial path after the window, per class.
CHECKED_LAYERS = 3
CHECKED_NETWORKS = 1
#: Warm-up requests at set-up; the mix never submits these keys.
WARM_UP = (
    ("layer", {"network": "alexnet", "layer": "conv2", "seed": 0}),
    ("network", {"network": "alexnet", "seed": 0}),
    ("dse_sweep", {"network": "alexnet", "include_baseline": False}),
)


def _key(scenario: str, params: Dict[str, Any]) -> str:
    return canonical([scenario, params])


@dataclass
class Job:
    kind: str
    scenario: str
    params: Dict[str, Any]
    repeat: bool
    latency: Optional[float] = None
    job_id: Optional[str] = None
    payload: Any = None
    error: Optional[str] = None


class Session:
    """One booted service, its client, and the cache directory it owns."""

    def __init__(self) -> None:
        from repro.engine import SimulationEngine
        from repro.service import ServiceClient, create_server

        self.cache_dir = work_dir("service-cache-")
        engine = SimulationEngine(cache_dir=self.cache_dir, memory_max_entries=512)
        self.server = create_server(port=0, engine=engine, num_workers=WORKERS)
        self.server.start()
        self.client = ServiceClient(self.server.url)

    def warm_up(self) -> None:
        """Ready: ``/healthz`` answers and one job of each class has run."""
        self.client.health()
        for scenario, params in WARM_UP:
            job_id = self.client.submit(scenario, params)
            self.client.wait(job_id, poll_interval=POLL_S)
            self.client.result(job_id)

    def close(self) -> None:
        self.server.stop()
        remove_work_dir(self.cache_dir)


class Mix:
    """The fixed operation schedule both clients draw from, with seeded inputs."""

    def __init__(self, seed: int, seconds: Optional[float] = None,
                 operations: Optional[int] = None) -> None:
        self.deadline = None if seconds is None else time.perf_counter() + seconds
        self.operations = operations
        self.errors: List[BaseException] = []
        self.rng = np.random.default_rng(seed)
        self.position = 0
        self.dse_turn = 0
        self.completed: List[Tuple[str, Dict[str, Any]]] = []
        self.submitted: set = set()
        self.jobs: List[Job] = []
        self.condition = threading.Condition()
        #: Peak RSS once RSS_OPERATIONS operations were handed out, in MiB.
        self.rss_mb: Optional[float] = None

    def _fresh_seed(self) -> int:
        return int(self.rng.integers(1, 2**31))

    def next(self) -> Optional[Tuple[str, str, Dict[str, Any]]]:
        """The next operation, (kind, scenario, params), or None once the
        window is over.  Random draws are the same for a given seed whatever
        order the clients run in."""
        with self.condition:
            if self.operations is not None and self.position >= self.operations:
                return None
            if self.deadline is not None and time.perf_counter() >= self.deadline:
                return None
            if self.position == RSS_OPERATIONS:
                self.rss_mb = peak_rss_mb()
            kind = SCHEDULE[self.position % len(SCHEDULE)]
            self.position += 1
            if kind in LAYER_JOBS:
                net, layer = LAYER_JOBS[kind]
                return kind, "layer", {
                    "network": net, "layer": layer, "seed": self._fresh_seed()
                }
            if kind == "network":
                return kind, "network", {"network": NETWORK_JOB, "seed": self._fresh_seed()}
            if kind == "dse":
                net = NETWORKS[self.dse_turn % len(NETWORKS)]
                self.dse_turn += 1
                return kind, "dse_sweep", {"network": net, "include_baseline": True}
            pick = self.rng.random()
            while not self.completed:
                if self.errors:
                    return None  # the other client died; drive() raises
                if not self.condition.wait(timeout=60.0):
                    raise TimeoutError("no job completed within 60 s")
            scenario, params = self.completed[int(pick * len(self.completed))]
            return kind, scenario, params

    def admit(self, kind: str, scenario: str, params: Dict[str, Any]) -> Job:
        with self.condition:
            key = _key(scenario, params)
            job = Job(kind, scenario, params, repeat=key in self.submitted)
            self.submitted.add(key)
            self.jobs.append(job)
        return job

    def settle(self, job: Job) -> None:
        with self.condition:
            if job.error is None and not job.repeat:
                self.completed.append((job.scenario, job.params))
                self.condition.notify_all()


def _client_loop(session: Session, mix: Mix) -> None:
    try:
        _submit_operations(session.client, mix)
    except BaseException as error:  # surfaced by drive() after the join
        with mix.condition:
            mix.errors.append(error)
            mix.condition.notify_all()


def _submit_operations(client, mix: Mix) -> None:
    from repro.service import ServiceError

    while True:
        operation = mix.next()
        if operation is None:
            return
        kind, scenario, params = operation
        jobs = [mix.admit(kind, scenario, params) for _ in range(2 if kind == "dup" else 1)]
        starts = []
        for job in jobs:
            starts.append(time.perf_counter())
            try:
                job.job_id = client.submit(scenario, params, max_backpressure_wait=0)
            except ServiceError as error:
                job.error = f"submit: {error}"
        for job, start in zip(jobs, starts):
            if job.job_id is not None:
                try:
                    record = client.wait(job.job_id, poll_interval=POLL_S)
                    if record["state"] != "done":
                        job.error = f"job {record['state']}: {record.get('error')}"
                    else:
                        job.payload = client.result(job.job_id)
                        job.latency = time.perf_counter() - start
                except (ServiceError, TimeoutError) as error:
                    job.error = str(error)
            mix.settle(job)


def drive(session: Session, seed: int, seconds: Optional[float] = None,
          operations: Optional[int] = None) -> Tuple[Mix, float]:
    """Run the closed loop for ``seconds`` or for ``operations`` operations."""
    start = time.perf_counter()
    mix = Mix(seed, seconds=seconds, operations=operations)
    threads = [
        threading.Thread(target=_client_loop, args=(session, mix),
                         name=f"perfbench-client-{n}")
        for n in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if mix.errors:
        raise mix.errors[0]
    return mix, time.perf_counter() - start


def check(mix: Mix, seed: int) -> None:
    """Repeats returned identical payloads; a sample matches the serial path."""
    from repro.analysis.serialization import design_points_payload, simulation_payload
    from repro.arch import SCNN_CONFIG
    from repro.nn.densities import network_sparsity
    from repro.nn.inference import build_layer_workload
    from repro.nn.networks import get_network
    from repro.scnn.simulator import simulate_layer, simulate_network
    from repro.timeloop.dse import default_candidates, sweep

    first: Dict[str, Job] = {}
    for job in mix.jobs:
        if job.error is not None:
            continue
        key = _key(job.scenario, job.params)
        if key in first:
            check_same_payload(job.payload, first[key].payload, f"repeat of {key}")
        else:
            first[key] = job
    rng = np.random.default_rng([seed, 1])
    by_scenario: Dict[str, List[Job]] = {}
    for job in first.values():
        by_scenario.setdefault(job.scenario, []).append(job)

    def sample(scenario: str, count: int) -> List[Job]:
        jobs = by_scenario.get(scenario, [])
        picks = rng.permutation(len(jobs))[:count]
        return [jobs[i] for i in sorted(picks)]

    for job in sample("layer", CHECKED_LAYERS):
        network = get_network(job.params["network"])
        index = [spec.name for spec in network.layers].index(job.params["layer"])
        spec = network.layers[index]
        # build_network_workloads seeds layer i of seed s with [s, i].
        workload = build_layer_workload(
            network.name, spec, network_sparsity(network)[spec.name],
            np.random.default_rng([job.params["seed"], index]),
        )
        check_layer_payload(job.payload, simulate_layer(workload, include_oracle=False))
    for job in sample("network", CHECKED_NETWORKS):
        reference = simulate_network(
            get_network(job.params["network"]), seed=job.params["seed"]
        )
        check_same_payload(job.payload, simulation_payload(reference), "network job")
    for job in by_scenario.get("dse_sweep", []):
        reference = design_points_payload(sweep(
            [SCNN_CONFIG, *default_candidates()],
            get_network(job.params["network"]),
            batched=False,
        ))
        got = {name: job.payload.get(name) for name in reference}
        check_same_payload(got, reference, "dse_sweep job")


def setup_seconds() -> float:
    """Median time from a fresh interpreter to a booted, warmed service."""
    argv = [sys.executable, str(BENCH_DIR / "setup_child.py"), "service_mix"]
    return median(time_until_ready(argv, "READY") for _ in range(SETUP_REPEATS))


def _outcome(mix: Mix) -> Tuple[int, int, List[float]]:
    failed = [job for job in mix.jobs if job.error is not None]
    for job in failed[:5]:
        print(f"service_mix: {job.scenario} {job.params}: {job.error}", file=sys.stderr)
    latencies = [job.latency for job in mix.jobs if job.error is None]
    return len(mix.jobs), len(failed), latencies


def run(seed: int, seconds: float) -> Tuple[int, int, Dict[str, Tuple[float, str]]]:
    setup = setup_seconds()
    session = Session()
    try:
        session.warm_up()
        mix, wall = drive(session, seed, seconds=seconds)
    finally:
        session.close()
    rss = mix.rss_mb
    if rss is None:
        rss = peak_rss_mb()
        print(f"service_mix: only {mix.position} of the {RSS_OPERATIONS} operations "
              "before the RSS reading fit the window; peak_rss_mb is read at its end",
              file=sys.stderr)
    attempted, failed, latencies = _outcome(mix)
    _describe_traffic(mix)
    check(mix, seed)
    metrics = latency_metrics(setup, latencies, len(latencies) / wall, rss)
    return attempted, failed, metrics


def _describe_traffic(mix: Mix) -> None:
    """The traffic properties BENCHMARK.json records, on stderr."""
    kinds: Dict[str, int] = {}
    for job in mix.jobs:
        kinds[job.kind] = kinds.get(job.kind, 0) + 1
    repeats = sum(job.repeat for job in mix.jobs)
    print(f"service_mix traffic: {len(mix.jobs)} jobs, repeat share "
          f"{repeats / len(mix.jobs):.3f}, {len(mix.submitted)} distinct keys "
          f"(engine memo bound 512), mix {kinds}", file=sys.stderr)


def _trace_metrics(session: Session, mix: Mix) -> Dict[str, float]:
    """Per-layer service metrics from ``/stats`` and the jobs' timelines."""
    stats = session.client.stats()
    admission: Dict[str, List[float]] = {tier: [] for tier in probes.ADMISSION_TIERS}
    queue_wait: List[float] = []
    run_s: Dict[str, List[float]] = {}
    gaps: List[float] = []
    for job in mix.jobs:
        if job.error is not None:
            continue
        timeline = session.client.trace(job.job_id)
        phases = {span["name"]: span for span in timeline["spans"]}
        tier = phases["admission"]["attrs"]["tier"]
        admission[tier].append(phases["admission"]["duration_s"])
        if "run" in phases:
            queue_wait.append(phases["queue"]["duration_s"])
            run_s.setdefault(job.scenario, []).append(phases["run"]["duration_s"])
        if timeline["duration_s"] is not None:
            gaps.append(job.latency - timeline["duration_s"])
    values: Dict[str, float] = {
        f"service.admission_s.{tier}": median(samples)
        for tier, samples in admission.items() if samples
    }
    values.update({
        f"service.run_s.{name}": median(samples) for name, samples in run_s.items()
    })
    if queue_wait:
        values["service.queue_wait_s.p50"] = median(queue_wait)
        values["service.queue_wait_s.p90"] = quantile(queue_wait, 0.9)
    values["service.client_poll_gap_s"] = median(gaps)
    repeats = sum(job.repeat for job in mix.jobs)
    values["service.repeat_share"] = repeats / len(mix.jobs)
    values["service.fast_path_ratio"] = (
        stats["service"]["fast_path_hits"] / repeats if repeats else 0.0
    )
    values["service.coalesced"] = stats["service"]["coalesced"]
    engine = stats["engine"]
    values["engine.cache.hit_rate"] = engine["hit_rate"]
    values["engine.cache.disk_hits"] = engine["disk_hits"]
    values["engine.cache.disk_write_failures"] = engine["disk_write_failures"]
    for name, kinds in (("layer", tuple(LAYER_JOBS)), ("network", ("network",))):
        samples = [j.latency for j in mix.jobs
                   if j.kind in kinds and j.error is None and not j.repeat]
        if samples:
            values[f"service.job_p50_s.{name}"] = median(samples)
    for name in probes.SERVICE_SCENARIOS:
        sizes = [len(json.dumps(j.payload)) for j in mix.jobs
                 if j.scenario == name and j.error is None]
        if sizes:
            values[f"analysis.serialization.payload_bytes.{name}"] = median(sizes)
    return values


def run_traced(seed: int, seconds: float) -> Tuple[int, int, Dict[str, Tuple[float, str]]]:
    """A fixed number of operations untraced, then traced, each on a fresh service."""
    from spans import Tracer

    tracer = Tracer()
    walls = []
    for traced in (False, True):
        session = Session()
        try:
            session.warm_up()
            if traced:
                probes.install(tracer)
            try:
                mix, wall = drive(session, seed, operations=TRACED_OPERATIONS)
            finally:
                tracer.uninstall()
            if traced:
                values = _trace_metrics(session, mix)
        finally:
            session.close()
        walls.append(wall)
    attempted, failed, _ = _outcome(mix)
    check(mix, seed)
    values.update(probes.stage_metrics(tracer))
    values["trace.overhead_s"] = walls[1] - walls[0]
    network_latency = sum(
        job.latency for job in mix.jobs
        if job.kind == "network" and job.error is None and not job.repeat
    )
    if network_latency:
        values["trace.coverage.network_job"] = (
            tracer.covered_s("engine.run_network") / network_latency
        )
    print(f"service_mix traced: untraced {walls[0]:.3f} s, traced {walls[1]:.3f} s "
          f"over {TRACED_OPERATIONS} operations", file=sys.stderr)
    return attempted, failed, probes.report(values)
