"""Scenario harness: the set-up every single-GPU scenario family shares.

A run needs a simulator, a device spec, seeded RNG streams, a profile
store, an error ledger, a tracer, one backend on a fresh device, a
shared host GIL, and one client context per job.  :class:`Harness`
builds all of that once; the family runners (experiment, overload,
faults, llm) add only their client drivers and result extractors.

:func:`make_backend` is the one table that maps a backend name plus
Orion config overrides to a backend instance.  The multi-GPU fleet
boots each of its GPUs through it, with :func:`client_context` for
its tenant workers.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Optional, Sequence

from repro.baselines import (
    BASELINE_NAMES,
    DedicatedBackend,
    MpsBackend,
    PriorityStreamsBackend,
    ReefBackend,
    StreamsBackend,
    TemporalBackend,
    TickTockBackend,
)
from repro.core import OrionBackend, OrionConfig
from repro.gpu.device import GpuDevice
from repro.gpu.specs import get_device
from repro.metrics.availability import ErrorLedger
from repro.profiler.profiles import ProfileStore
from repro.runtime.backend import Backend, BackendOptions
from repro.runtime.client import ClientContext
from repro.runtime.host import HostGil, HostThread
from repro.sim.engine import Simulator
from repro.sim.rng import RngFactory
from repro.telemetry.tracer import NULL_TRACER, TelemetryConfig

__all__ = ["Harness", "make_backend", "client_context"]

#: Backends that share one device among all clients: name -> class.
_SHARED_DEVICE = {
    "temporal": TemporalBackend,
    "streams": StreamsBackend,
    "priority-streams": PriorityStreamsBackend,
    "mps": MpsBackend,
    "reef": ReefBackend,
    "ticktock": TickTockBackend,
}


def make_backend(name: str, sim: Simulator,
                 device_factory: Callable[[], GpuDevice],
                 store: ProfileStore,
                 orion: Optional[Mapping] = None,
                 tracer=NULL_TRACER,
                 choices: Sequence[str] = BASELINE_NAMES) -> Backend:
    """Build backend ``name`` on devices from ``device_factory``.

    ``orion`` holds :class:`OrionConfig` keyword overrides and is
    ignored by every other backend.  ``choices`` is the set of names
    the calling scenario family supports.
    """
    if name not in choices:
        raise ValueError(f"unknown backend {name!r}; this scenario "
                         f"supports {', '.join(choices)}")
    options = BackendOptions(tracer=tracer)
    if name == "ideal":
        return DedicatedBackend(sim, device_factory, options)
    if name == "orion":
        return OrionBackend(sim, device_factory(), store,
                            OrionConfig(**(orion or {})), options)
    return _SHARED_DEVICE[name](sim, device_factory(), options=options)


def client_context(backend: Backend, gil: Optional[HostGil], name: str,
                   high_priority: bool, kind: str) -> ClientContext:
    """Register client ``name`` on ``backend`` behind its own host
    thread, serialized through ``gil`` when one is given."""
    host = HostThread(backend.sim, gil=gil,
                      interception_overhead=backend.interception_overhead())
    return ClientContext(backend, name, host, high_priority=high_priority,
                         kind=kind)


class Harness:
    """One scenario run's shared set-up.

    Construct it, add the run's offline profiles to :attr:`store`, call
    :meth:`build_backend`, create clients with :meth:`ctx`, start them,
    and finish with :meth:`run`.
    """

    def __init__(self, seed: int, device: str,
                 telemetry: Optional[TelemetryConfig] = None):
        self.sim = Simulator()
        self.device_spec = get_device(device)
        self.rng = RngFactory(seed)
        self.store = ProfileStore()
        self.ledger = ErrorLedger()
        telemetry = telemetry or TelemetryConfig()
        self.tracer = telemetry.build_tracer(self.sim)
        if telemetry.engine_events:
            self.sim.attach_tracer(self.tracer)
        self.backend: Optional[Backend] = None
        self.gil: Optional[HostGil] = None

    def build_backend(self, name: str, orion: Optional[Mapping] = None,
                      choices: Sequence[str] = BASELINE_NAMES,
                      record_utilization: bool = False) -> Backend:
        """Build the run's backend through :func:`make_backend`, wired
        to the run's tracer, plus the GIL its clients share (none when
        every client is its own process)."""
        sim, spec = self.sim, self.device_spec
        self.backend = make_backend(
            name, sim,
            lambda: GpuDevice(sim, spec,
                              record_utilization=record_utilization),
            self.store, orion, self.tracer, choices)
        self.gil = None if self.backend.process_per_client else HostGil(sim)
        return self.backend

    def ctx(self, name: str, high_priority: bool,
            kind: str) -> ClientContext:
        """A client context on the run's backend."""
        return client_context(self.backend, self.gil, name, high_priority,
                              kind)

    def run(self, until: float) -> Dict[str, float]:
        """Run to ``until``, finalize the ledger, and return the run's
        ``events_processed`` and ``sim_time``."""
        self.sim.run(until=until)
        self.ledger.finalize(until)
        return {"events_processed": self.sim.events_processed,
                "sim_time": self.sim.now}
