"""Overload scenario: an inference service pushed past GPU capacity.

One high-priority inference client shares the GPU with N best-effort
inference clients under the Orion scheduler; the offered load totals a
multiple of the device's capacity (1 / solo request latency), so
without protection the best-effort work drowns the high-priority job.
The scenario wires up the full overload-protection stack of
DESIGN.md §6.2:

* bounded best-effort software queues ("block" backpressure or
  "reject" load shedding with the retryable ``QUEUE_FULL`` status);
* per-request deadlines with shed-at-admission on every client;
* optionally the adaptive :class:`~repro.core.sloguard.SloGuard`,
  which tightens DUR_THRESHOLD / suspends best-effort admission when
  the windowed HP latency quantile breaches the SLO.

The Orion config deliberately starts with a *loose* DUR_THRESHOLD
(``initial_dur_frac``), so the unguarded run demonstrates the breach
the guard exists to fix.  Used by ``python -m repro run overload``, the
``examples/overload.py`` demo, and ``benchmarks/test_overload_guard``.
Fully deterministic under (seed, arguments).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core import SloGuard, SloGuardConfig
from repro.experiments.params import OverloadParams
from repro.experiments.runner import get_profile
from repro.metrics.availability import ErrorLedger
from repro.metrics.latency import LatencySummary, summarize_latencies
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracer import NULL_TRACER
from repro.workloads.arrivals import make_arrivals
from repro.workloads.clients import ClientStats, InferenceClient
from repro.workloads.registry import build_plan

from .harness import Harness

__all__ = ["OverloadResult"]


@dataclass
class OverloadResult:
    """Everything one overload scenario produced."""

    capacity: float              #: requests/s the GPU serves solo
    solo_latency: float          #: dedicated-GPU request latency (s)
    slo: Optional[float]         #: HP latency SLO handed to the guard (s)
    hp_latency: LatencySummary
    jobs: Dict[str, ClientStats]
    ledger: ErrorLedger
    backend_stats: Dict = field(default_factory=dict)
    queue_telemetry: Dict[str, dict] = field(default_factory=dict)
    guard_actions: List[dict] = field(default_factory=list)
    guard_summary: Optional[dict] = None
    # The run's tracer (NULL_TRACER unless telemetry.tracing was set),
    # the backend's metrics registry, and any utilization segments the
    # device recorded (only when tracing, for the trace's counters).
    tracer: object = NULL_TRACER
    metrics: Optional[MetricsRegistry] = None
    utilization_segments: List = field(default_factory=list)
    # Uniform run accounting for the Scenario API (bench/sweep).
    events_processed: int = 0
    sim_time: float = 0.0

    @property
    def hp_stats(self) -> ClientStats:
        return self.jobs["hp"]

    def be_goodput(self, duration: float, warmup: float = 0.0) -> float:
        """Served best-effort requests per second (shed/failed excluded)."""
        span = duration - warmup
        if span <= 0:
            return 0.0
        served = sum(len(stats.completed(after=warmup))
                     for name, stats in self.jobs.items() if name != "hp")
        return served / span

    def total_shed(self) -> int:
        return sum(stats.shed for stats in self.jobs.values())


def simulate(p: OverloadParams) -> OverloadResult:
    """Run the overload scenario and return its accounting.

    ``hp_load`` and ``be_load`` are offered loads as fractions of the
    solo capacity (``be_load`` is split across the ``be_clients``
    best-effort clients); their sum past 1.0 is overload by
    construction.  ``arrivals`` picks the HP arrival process
    ("poisson", "burst", or "ramp"); best-effort clients always use
    Poisson arrivals.  ``deadline_mult`` (× solo latency, None
    disables) arms shed-at-admission on the best-effort clients;
    ``slo_mult`` × solo latency is the HP SLO the guard enforces when
    ``guard`` is on.  ``queue_depth``/``policy`` bound the best-effort
    software queues; ``initial_dur_frac`` is the (deliberately loose)
    starting DUR_THRESHOLD fraction the guard tightens from.
    """
    h = Harness(p.seed, p.device, p.telemetry)
    device_spec = h.device_spec
    profile = get_profile(p.model, "inference", device_spec)
    h.store.add(profile)
    solo_latency = profile.request_latency
    capacity = 1.0 / solo_latency
    slo = p.slo_mult * solo_latency
    be_deadline = None if p.deadline_mult is None \
        else p.deadline_mult * solo_latency

    # Utilization segments feed the trace's device counters; recording
    # them without a tracer would only burn memory.
    backend = h.build_backend("orion", dict(
        hp_request_latency=solo_latency,
        dur_threshold_frac=p.initial_dur_frac,
        be_queue_depth=p.queue_depth,
        overload_policy=p.policy,
    ), record_utilization=h.tracer.enabled)

    plan = build_plan(p.model, "inference")
    hp_rps = p.hp_load * capacity
    hp_arrivals = make_arrivals(
        p.arrivals, rps=hp_rps, rng=h.rng.stream("arrivals:hp"),
        burst_rps=3.0 * hp_rps, burst_every=p.duration / 4,
        burst_duration=p.duration / 16,
        end_rps=3.0 * hp_rps, ramp_duration=p.duration,
    )
    clients: List[InferenceClient] = [InferenceClient(
        h.sim, h.ctx("hp", True, "inference"), plan, device_spec,
        hp_arrivals, "hp", horizon=p.duration, ledger=h.ledger,
    )]
    be_rps = (p.be_load * capacity / p.be_clients) if p.be_clients else 0.0
    for i in range(p.be_clients):
        name = f"be-{i}"
        clients.append(InferenceClient(
            h.sim, h.ctx(name, False, "inference"), plan, device_spec,
            make_arrivals("poisson", rps=be_rps,
                          rng=h.rng.stream(f"arrivals:{name}")),
            name, horizon=p.duration, ledger=h.ledger, deadline=be_deadline,
        ))

    slo_guard: Optional[SloGuard] = None
    if p.guard:
        slo_guard = SloGuard(h.sim, backend, SloGuardConfig(
            slo=slo, check_interval=max(4.0 * solo_latency, 1e-4),
        )).start()

    backend.start()
    for client in clients:
        client.start()
    accounting = h.run(p.duration)

    jobs = {c.name: c.stats for c in clients}
    hp_latency = summarize_latencies(jobs["hp"].records, after=p.warmup)

    backend_stats = {
        "be_kernels_launched": backend.be_kernels_launched,
        "be_kernels_deferred": backend.be_kernels_deferred,
        "hp_deadline_misses": backend.hp_deadline_misses,
        "be_suspensions": backend.be_suspensions,
        "dur_threshold_frac": backend.config.dur_threshold_frac,
    }
    return OverloadResult(
        capacity=capacity,
        solo_latency=solo_latency,
        slo=slo if p.guard else None,
        hp_latency=hp_latency,
        jobs=jobs,
        ledger=h.ledger,
        backend_stats=backend_stats,
        queue_telemetry=backend.queue_telemetry(),
        guard_actions=list(slo_guard.actions) if slo_guard else [],
        guard_summary=slo_guard.summary() if slo_guard else None,
        tracer=h.tracer,
        metrics=backend.metrics,
        utilization_segments=list(backend.device.utilization_segments),
        **accounting,
    )
