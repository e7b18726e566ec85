"""Experiment runner: the collocation experiment's clients and results.

This is the driver behind every figure/table reproduction.  The shared
set-up lives in :mod:`repro.experiments.harness`; this module adds the
per-job clients and the latency/throughput/utilization extraction.
Offline profiles (the §5.2 phase) are computed once per (model, kind,
device) and cached across experiments, exactly as a real deployment
would reuse profile files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core import OrionBackend
from repro.gpu.specs import DeviceSpec, get_device
from repro.metrics.latency import LatencySummary, summarize_latencies
from repro.metrics.throughput import throughput as throughput_of
from repro.metrics.utilization import UtilizationAverages, average_utilization
from repro.profiler.nsight import profile_plan
from repro.profiler.profiles import ModelProfile
from repro.sim.rng import substream_seed
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracer import NULL_TRACER
from repro.workloads.apollo import apollo_trace
from repro.workloads.arrivals import make_arrivals
from repro.workloads.clients import ClientStats, InferenceClient, TrainingClient
from repro.workloads.registry import build_plan

from .config import ExperimentConfig
from .harness import Harness

__all__ = ["ExperimentResult", "JobResult", "get_profile",
           "solo_throughput", "solo_latency_summary"]

# (model, kind, batch, device) -> ModelProfile; offline profiles are
# deterministic, so sharing them across experiments is sound.
_PROFILE_CACHE: Dict[tuple, ModelProfile] = {}


def get_profile(model: str, kind: str, device_spec: DeviceSpec,
                batch_size: int = 0) -> ModelProfile:
    key = (model, kind, batch_size, device_spec.name)
    if key not in _PROFILE_CACHE:
        plan = build_plan(model, kind, batch_size=batch_size)
        _PROFILE_CACHE[key] = profile_plan(plan, device_spec)
    return _PROFILE_CACHE[key]


@dataclass
class JobResult:
    """Per-job outcome of one experiment."""

    name: str
    model: str
    kind: str
    high_priority: bool
    latency: LatencySummary
    throughput: float
    stats: ClientStats


@dataclass
class ExperimentResult:
    """Everything one experiment run produced."""

    config: ExperimentConfig
    jobs: Dict[str, JobResult]
    utilization: Optional[UtilizationAverages] = None
    utilization_segments: List = field(default_factory=list)
    backend_stats: Dict = field(default_factory=dict)
    # The run's tracer (NULL_TRACER unless config.telemetry.tracing)
    # and the backend's metrics registry.
    tracer: object = NULL_TRACER
    metrics: Optional[MetricsRegistry] = None
    # Uniform run accounting for the Scenario API (bench/sweep).
    events_processed: int = 0
    sim_time: float = 0.0

    @property
    def hp_job(self) -> JobResult:
        for job in self.jobs.values():
            if job.high_priority:
                return job
        raise KeyError("no high-priority job in this experiment")

    def be_jobs(self) -> List[JobResult]:
        return [j for j in self.jobs.values() if not j.high_priority]

    @property
    def aggregate_throughput(self) -> float:
        return sum(j.throughput for j in self.jobs.values())


def simulate(config: ExperimentConfig) -> ExperimentResult:
    """Run one collocation experiment end to end."""
    h = Harness(config.seed, config.device, config.telemetry)

    # Offline profiling phase (cached across runs).
    hp_latency: Optional[float] = None
    for job in config.jobs:
        profile = get_profile(job.model, job.kind, h.device_spec,
                              job.batch_size)
        h.store.add(profile)
        if job.high_priority:
            hp_latency = profile.request_latency
    orion = dict(config.orion)
    orion.setdefault("hp_request_latency", hp_latency)
    backend = h.build_backend(config.backend, orion,
                              record_utilization=config.record_utilization)

    clients = []
    for job in config.jobs:
        ctx = h.ctx(job.name, job.high_priority, job.kind)
        plan = build_plan(job.model, job.kind, batch_size=job.batch_size)
        if job.kind == "training":
            client = TrainingClient(h.sim, ctx, plan, h.device_spec,
                                    job.name, horizon=config.duration)
        else:
            rng = timestamps = None
            if job.arrivals == "poisson":
                rng = h.rng.stream(f"poisson:{job.name}")
            elif job.arrivals == "apollo":
                timestamps = apollo_trace(config.duration, seed=substream_seed(
                    config.seed, f"apollo:{job.name}"))
            arrivals = make_arrivals(
                "trace" if timestamps is not None else job.arrivals,
                job.rps, rng=rng, timestamps=timestamps)
            client = InferenceClient(h.sim, ctx, plan, h.device_spec,
                                     arrivals, job.name,
                                     horizon=config.duration)
        clients.append((job, client))

    backend.start()
    for _job, client in clients:
        client.start()
    accounting = h.run(config.duration)

    jobs: Dict[str, JobResult] = {}
    for job, client in clients:
        records = client.stats.records
        latency = summarize_latencies(records, after=config.warmup)
        tput = throughput_of(records, config.warmup, config.duration)
        jobs[job.name] = JobResult(job.name, job.model, job.kind,
                                   job.high_priority, latency, tput,
                                   client.stats)

    result = ExperimentResult(config=config, jobs=jobs, tracer=h.tracer,
                              metrics=backend.metrics, **accounting)
    if config.record_utilization:
        segments = []
        for device in backend.devices():
            segments.extend(device.utilization_segments)
        result.utilization_segments = segments
        result.utilization = average_utilization(segments, config.warmup,
                                                 config.duration)
    if isinstance(backend, OrionBackend):
        result.backend_stats = {
            "be_kernels_launched": backend.be_kernels_launched,
            "be_kernels_deferred": backend.be_kernels_deferred,
            "profile_misses": backend.profile_misses,
            "sm_threshold": backend.sm_threshold,
            "clients_deregistered": backend.clients_deregistered,
            "watchdog_flags": len(backend.watchdog_flags),
            "hp_deadline_misses": backend.hp_deadline_misses,
            "be_suspensions": backend.be_suspensions,
        }
        result.backend_stats["queue_telemetry"] = backend.queue_telemetry()
    return result


def solo_throughput(model: str, kind: str, device: str = "V100-16GB",
                    batch_size: int = 0) -> float:
    """Dedicated-GPU throughput (1 / solo request latency)."""
    profile = get_profile(model, kind, get_device(device), batch_size)
    return 1.0 / profile.request_latency


def solo_latency_summary(model: str, device: str = "V100-16GB",
                         batch_size: int = 0) -> float:
    """Dedicated-GPU inference request latency (the Ideal reference)."""
    profile = get_profile(model, "inference", get_device(device), batch_size)
    return profile.request_latency
