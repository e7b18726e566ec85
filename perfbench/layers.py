"""Per-layer attribution of a traced run.

Self time (cProfile ``tottime``) is summed per top-level ``repro``
package; code outside ``repro`` (stdlib, numpy, this benchmark) is
``external``.  Call counts are cProfile's exact ``ncalls`` of named
public functions.  For the daemon, every thread gets its own profiler
(:class:`ThreadProfiles`), so self times are summed over threads.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import threading
import time
from typing import Dict, List, Tuple

#: The repro packages reported as layers, plus the buckets that make
#: the attribution add up to the traced host time.
LAYERS = ("sim", "gpu", "core", "runtime", "workloads", "profiler",
          "baselines", "cluster", "experiments", "telemetry", "serve",
          "kernels", "frameworks", "metrics", "faults")
OTHER = "repro_other"     # repro modules outside the packages above
EXTERNAL = "external"     # everything outside repro

#: Layers whose ``submit`` functions implement ``Backend.submit``.
_BACKEND_LAYERS = ("runtime", "core", "baselines")


def _repro_dir() -> str:
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


class Attribution:
    """Self time per layer and call counts from merged profiles."""

    def __init__(self, profiles: List[cProfile.Profile]):
        stats = pstats.Stats(profiles[0])
        for prof in profiles[1:]:
            stats.add(prof)
        root = _repro_dir()
        self.self_s: Dict[str, float] = {name: 0.0 for name in LAYERS}
        self.self_s[OTHER] = 0.0
        self.self_s[EXTERNAL] = 0.0
        # (layer, module file relative to the layer, function) -> (calls, cumulative s)
        self._funcs: Dict[Tuple[str, str, str], Tuple[int, float]] = {}
        for (filename, _, func), (_, ncalls, tottime, cumtime, _) in \
                stats.stats.items():
            layer, module = self._locate(filename, root)
            self.self_s[layer] += tottime
            key = (layer, module, func)
            calls, cum = self._funcs.get(key, (0, 0.0))
            self._funcs[key] = (calls + ncalls, cum + cumtime)

    @staticmethod
    def _locate(filename: str, root: str) -> Tuple[str, str]:
        path = os.path.abspath(filename) if filename != "~" else filename
        if not path.startswith(root):
            return EXTERNAL, filename
        parts = path[len(root):].split(os.sep)
        if len(parts) > 1 and parts[0] in LAYERS:
            return parts[0], "/".join(parts[1:])
        return OTHER, "/".join(parts)

    def calls(self, layer: str, module: str, func: str) -> int:
        return self._funcs.get((layer, module, func), (0, 0.0))[0]

    def cumulative(self, layer: str, module: str, func: str) -> float:
        return self._funcs.get((layer, module, func), (0, 0.0))[1]

    def backend_submits(self) -> int:
        return sum(calls for (layer, _, func), (calls, _) in self._funcs.items()
                   if func == "submit" and layer in _BACKEND_LAYERS)

    @property
    def total_self_s(self) -> float:
        return sum(self.self_s.values())


class ThreadProfiles:
    """Profile every thread started inside the ``with`` block, each with
    its own cProfile, and record how long each one ran."""

    def __init__(self):
        self.profiles: List[cProfile.Profile] = []
        self.thread_s = 0.0
        self.threads: List[threading.Thread] = []
        self._lock = threading.Lock()
        self._original = threading.Thread.run

    def __enter__(self) -> "ThreadProfiles":
        original = self._original
        owner = self

        def run(thread):
            prof = cProfile.Profile()
            start = time.perf_counter()
            prof.enable()
            try:
                original(thread)
            finally:
                prof.disable()
                with owner._lock:
                    owner.profiles.append(prof)
                    owner.thread_s += time.perf_counter() - start

        def start(thread, _start=threading.Thread.start):
            with owner._lock:
                owner.threads.append(thread)
            _start(thread)

        self._original_start = threading.Thread.start
        threading.Thread.run = run
        threading.Thread.start = start
        return self

    def __exit__(self, *exc_info) -> None:
        threading.Thread.run = self._original
        threading.Thread.start = self._original_start

    def join(self, timeout: float) -> None:
        """Wait for every profiled thread (their profiles land on exit)."""
        deadline = time.monotonic() + timeout
        for thread in list(self.threads):
            thread.join(max(0.0, deadline - time.monotonic()))
