"""Canonical fault-injection scenario: Orion collocation under faults.

One high-priority inference client and N best-effort training clients
share a GPU; a seeded :class:`~repro.faults.plan.FaultPlan` injects
client kills (and optionally kernel/transfer faults) mid-run.  Clients
run under restart supervisors, so the scenario exercises the full
recovery loop: death → deregistration (queue drained, stream destroyed,
memory freed, scheduler state repaired) → backoff → re-registration →
serving again.  Used by ``python -m repro run faults``, the
``examples/fault_tolerance.py`` demo, and the recovery benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core import OrionBackend
from repro.experiments.harness import Harness
from repro.experiments.params import SHARED_GPU_BACKENDS, FaultsParams
from repro.experiments.runner import get_profile
from repro.metrics.availability import ErrorLedger
from repro.metrics.latency import LatencySummary, summarize_latencies
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.clients import (
    ClientStats,
    RestartingInferenceClient,
    RestartingTrainingClient,
)
from repro.workloads.registry import build_plan

from .injector import FaultInjector
from .plan import FaultPlan

__all__ = ["FaultScenarioResult"]


@dataclass
class FaultScenarioResult:
    """Everything one fault scenario produced."""

    plan: FaultPlan
    ledger: ErrorLedger
    jobs: Dict[str, ClientStats]
    hp_latency: LatencySummary
    backend_stats: Dict = field(default_factory=dict)
    # Uniform run accounting for the Scenario API (bench/sweep).
    events_processed: int = 0
    sim_time: float = 0.0

    @property
    def hp_stats(self) -> ClientStats:
        return self.jobs["hp"]


def simulate(p: FaultsParams) -> FaultScenarioResult:
    """Run the collocation-under-faults scenario and return its ledger.

    The injected plan is ``p.fault_plan()``: by default the first
    best-effort client is killed at 40% of the horizon.  Fully
    deterministic under (seed, arguments).
    """
    plan = p.fault_plan()
    h = Harness(p.seed, p.device)
    device_spec = h.device_spec
    inf_profile = get_profile(p.model, "inference", device_spec)
    h.store.add(inf_profile)
    h.store.add(get_profile(p.model, "training", device_spec))
    be = h.build_backend(p.backend, dict(
        hp_request_latency=inf_profile.request_latency,
        watchdog_multiple=p.watchdog_multiple,
    ), choices=SHARED_GPU_BACKENDS)

    clients: List = []
    hp_plan = build_plan(p.model, "inference")
    hp = RestartingInferenceClient(
        h.sim, h.ctx("hp", True, "inference"), hp_plan, device_spec,
        PoissonArrivals(p.hp_rps, h.rng.stream("poisson:hp")),
        "hp", horizon=p.duration,
        ctx_factory=lambda: h.ctx("hp", True, "inference"),
        ledger=h.ledger,
    )
    clients.append(hp)
    train_plan = build_plan(p.model, "training")
    for i in range(p.be_clients):
        name = f"be-{i}"
        clients.append(RestartingTrainingClient(
            h.sim, h.ctx(name, False, "training"), train_plan, device_spec,
            name, horizon=p.duration,
            ctx_factory=lambda n=name: h.ctx(n, False, "training"),
            ledger=h.ledger,
        ))

    injector = FaultInjector(
        h.sim, plan, device=be.device,
        clients={c.name: c for c in clients},
        profiles=h.store,
    ).start()

    be.start()
    for client in clients:
        client.start()
    accounting = h.run(p.duration)
    for entry in injector.log:
        h.ledger.record_injection(entry)

    jobs = {c.name: c.stats for c in clients}
    hp_latency = summarize_latencies(hp.stats.records, after=p.warmup)

    backend_stats: Dict = {}
    if isinstance(be, OrionBackend):
        backend_stats = {
            "be_kernels_launched": be.be_kernels_launched,
            "be_kernels_deferred": be.be_kernels_deferred,
            "clients_deregistered": be.clients_deregistered,
            "watchdog_flags": len(be.watchdog_flags),
        }
    return FaultScenarioResult(plan=plan, ledger=h.ledger, jobs=jobs,
                               hp_latency=hp_latency,
                               backend_stats=backend_stats, **accounting)
