"""The benchmark's workloads: which scenario jobs each one runs.

A workload is an endless stream of jobs, each with a fresh scenario
seed derived from the benchmark seed; a timed run takes jobs from it
until its time is up.  The first ``cycle_len`` jobs are the *cycle*, a
fixed amount of work that traced runs repeat and per-layer counts are
reported for.  A job is one catalog scenario
(``make_scenario(name, seed=..., duration=..., **overrides)``), run
either directly in the benchmark process or through the serve daemon.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

#: Device every workload's scenarios run on (the catalog default).
DEVICE = "V100-16GB"


@dataclass(frozen=True)
class Job:
    """One scenario run: a catalog name, its seed, and its overrides."""

    name: str
    seed: int
    duration: Optional[float] = None
    overrides: Tuple[Tuple[str, object], ...] = ()

    def scenario(self):
        from repro.experiments.registry import make_scenario

        return make_scenario(self.name, seed=self.seed,
                             duration=self.duration, **dict(self.overrides))

    def label(self) -> str:
        extra = "".join(f" {k}={v}" for k, v in self.overrides)
        dur = "" if self.duration is None else f" duration={self.duration:g}"
        return f"{self.name} seed={self.seed}{dur}{extra}"


@dataclass(frozen=True)
class Workload:
    name: str
    #: "direct" runs jobs in the benchmark process, "daemon" through
    #: ``repro serve``.
    mode: str
    #: Jobs in one cycle: the fixed unit of work that per-layer counts
    #: and model outputs are reported for.
    cycle_len: int
    #: (model, kind) pairs whose offline profiles set-up builds.
    profiles: Tuple[Tuple[str, str], ...]
    why: str

    def jobs(self, seed: int) -> Iterator[Job]:
        """Endless job stream; every job has a fresh scenario seed."""
        rng = random.Random(f"{self.name}:{seed}")
        while True:
            yield from _ROUNDS[self.name](lambda: rng.randrange(1, 2 ** 31))

    def cycle(self, seed: int) -> List[Job]:
        return list(itertools.islice(self.jobs(seed), self.cycle_len))

    @property
    def round_len(self) -> int:
        """Jobs per round of the stream (the paper mix's cells)."""
        return len(_ROUNDS[self.name](lambda: 0))


def _orion_overload(seed) -> List[Job]:
    # One Poisson HP client and four BE clients on Orion with the SLO
    # guard on: every wake re-runs the BE policy for each blocked client.
    return [Job("overload", seed(), 0.05, (("be_clients", 4),))]


def _fleet_failover(seed) -> List[Job]:
    # Eight GPUs, one crash, one degrade, measured-interference
    # rebalancing; the catalog's 0.1 s warmup is shortened to fit the
    # horizon.
    return [Job("fleet_rebalance", seed(), 0.05, (("warmup", 0.01),))]


def _paper_mix(seed) -> List[Job]:
    # The paper's single-GPU cells, one BE client each.  Experiment
    # cells keep the catalog's 0.5 s warmup (a ``warmup`` override
    # raises TypeError), so their horizon must exceed it.
    cells = [
        Job("inf-train", seed(), 0.6),
        Job("train-train", seed(), 0.6),
        Job("inf-inf", seed(), 0.6),
    ]
    cells += [Job("inf-train", seed(), 0.6, (("backend", backend),))
              for backend in ("reef", "mps", "temporal")]
    cells.append(Job("llm_ref", seed()))
    cells.append(Job("faults", seed(), None, (("be_clients", 1),)))
    return cells


def _daemon_jobs(seed) -> List[Job]:
    # Few-ms jobs, so the daemon's own path (socket, journal,
    # compaction) is most of each round trip.
    return [Job("overload", seed(), 0.001)]


_ROUNDS = {
    "orion_overload": _orion_overload,
    "fleet_failover": _fleet_failover,
    "paper_mix": _paper_mix,
    "daemon_jobs": _daemon_jobs,
}

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("orion_overload", "direct", 4, (("mobilenet_v2", "inference"),),
             "multi-BE Orion policy re-evaluation and contention rates"),
    Workload("fleet_failover", "direct", 3, (("mobilenet_v2", "inference"),),
             "largest event heap; cluster routing and migration"),
    Workload("paper_mix", "direct", 8, (
        ("resnet50", "inference"), ("resnet50", "training"),
        ("resnet101", "inference"), ("mobilenet_v2", "inference"),
        ("mobilenet_v2", "training")),
        "baselines, profiling set-up and LLM serving; little multi-BE work"),
    Workload("daemon_jobs", "daemon", 256, (),
             "daemon socket, journal and compaction; almost no simulation"),
)}


# ---------------------------------------------------------------------------
# Results: digests, conservation checks, simulated model outputs.

def digest(result_json: str) -> str:
    return hashlib.sha256(result_json.encode("utf-8")).hexdigest()


def _client_stats(result: Dict) -> Dict[str, Dict]:
    """name -> canonical client stats, for every scenario kind."""
    jobs = result.get("jobs", {})
    return {name: (entry["stats"] if "stats" in entry else entry)
            for name, entry in jobs.items()}


def conservation_problems(canonical: Dict) -> List[str]:
    """Conservation facts a canonical result exposes; [] when all hold."""
    result = canonical["result"]
    problems = []
    ledger = (result.get("ledger") or {}).get("clients") or {}
    for name, stats in _client_stats(result).items():
        entry = ledger.get(name)
        if entry is None:
            continue
        if (entry["served"], entry["failed"], entry["shed"]) != \
                (len(stats["records"]), stats["failed"], stats["shed"]):
            problems.append(f"client {name}: ledger served/failed/shed "
                            "disagree with the client's own records")
    kv = result.get("kv")
    if kv is not None:
        if not kv["conserved"] or kv["granted_bytes"] != \
                kv["released_bytes"] + kv["in_use_bytes"]:
            problems.append("llm KV bytes not conserved")
        requests = result["requests"]
        if requests["completed"] + requests["failed"] > requests["arrived"]:
            problems.append("llm requests finished exceed requests arrived")
    routing = result.get("routing")
    if routing is not None and routing["submitted"] > routing["decisions"]:
        problems.append("fleet routed more jobs than it decided")
    return problems


def scenario_warmup(scenario) -> float:
    if scenario.kind == "experiment":
        return float(scenario.experiment.warmup)
    return float(scenario.params.get("warmup", 0.0))


def model_samples(canonical: Dict, warmup: float) -> Tuple[List[float], int]:
    """HP request latencies (simulated s) after warmup, and the number
    of BE work items completed after warmup.  The LLM cell's requests
    are not client records, so it contributes only its BE items."""
    result = canonical["result"]
    hp: List[float] = []
    be = 0
    jobs = result.get("jobs", {})
    for name, stats in _client_stats(result).items():
        entry = jobs[name]
        high = entry["high_priority"] if "high_priority" in entry \
            else name == "hp"
        done = [r for r in stats["records"] if r[0] >= warmup]
        if high:
            hp.extend(r[2] - r[0] for r in done)
        else:
            be += len(done)
    return hp, be


def tail_percentile(count: int) -> float:
    """The highest percentile of a ladder with at least ten samples
    beyond it.  Fewer than 20 samples support no tail; the median is
    reported then."""
    for q in (99.9, 99.0, 95.0, 90.0, 75.0):
        if count * (1.0 - q / 100.0) >= 10.0 - 1e-9:
            return q
    return 50.0


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median_and_tail(values: List[float]) -> Tuple[float, float, str]:
    """(median, tail value, tail label) of a timing sample."""
    q = tail_percentile(len(values))
    return (percentile(values, 50.0), percentile(values, q),
            f"p{q:g} of n={len(values)}")
