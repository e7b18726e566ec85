"""Host-side launch model.

Submitting a CUDA op costs CPU time on the submitting thread.  Backends
that run every client as a thread of one Python process (the GPU
Streams baseline, and Orion's default in-process mode) serialize
launches through the Python global interpreter lock; process-based
backends (MPS) give each client its own interpreter.  The paper calls
this out as the reason MPS slightly outperforms Streams (§6.2.1).

``HostThread.launch_cost()`` yields the per-op host delay: a fixed
launch overhead, serialized through a shared :class:`HostGil` when one
is attached, plus any interception overhead the backend charges
(Orion's wrapper overhead, measured at <1% in §6.5).
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.sim.engine import Simulator
from repro.sim.process import Timeout
from repro.sim.resources import FifoLock

__all__ = ["HostGil", "HostThread", "DEFAULT_LAUNCH_OVERHEAD"]

# CPU time to issue one CUDA runtime call (cudaLaunchKernel & friends).
DEFAULT_LAUNCH_OVERHEAD = 4e-6


class HostGil:
    """The Python GIL shared by all threads of one process."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._lock = FifoLock(sim)
        self.contended_acquisitions = 0

    def hold(self, duration: float) -> Generator:
        """Generator: hold the GIL for ``duration`` seconds."""
        grant = self._lock.acquire()
        if not grant.triggered:
            self.contended_acquisitions += 1
        yield grant
        try:
            yield Timeout(duration)
        except GeneratorExit:
            # Garbage collection is closing the process of a run that
            # has ended: releasing would resume that dead run's waiters
            # (and schedule on its simulator) at an arbitrary moment.
            raise
        except BaseException:
            self._lock.release()
            raise
        self._lock.release()


class HostThread:
    """One client's submitting CPU thread."""

    def __init__(
        self,
        sim: Simulator,
        gil: Optional[HostGil] = None,
        launch_overhead: float = DEFAULT_LAUNCH_OVERHEAD,
        interception_overhead: float = 0.0,
    ):
        if launch_overhead < 0 or interception_overhead < 0:
            raise ValueError("host overheads must be >= 0")
        self.sim = sim
        self.gil = gil
        self.launch_overhead = launch_overhead
        self.interception_overhead = interception_overhead
        self.ops_launched = 0
        self.host_time = 0.0

    def launch_cost(self) -> Generator:
        """Generator that consumes the host-side cost of one op launch."""
        cost = self.launch_overhead + self.interception_overhead
        self.ops_launched += 1
        start = self.sim.now
        if self.gil is not None:
            yield from self.gil.hold(cost)
        else:
            yield Timeout(cost)
        self.host_time += self.sim.now - start
