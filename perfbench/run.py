"""Repository benchmark: host cost of the simulator and the serve daemon.

    python3 perfbench/run.py --workload orion_overload --seed 1 \
        --seconds 25 --trace 0

Runs one workload (see ``perfbench/workloads.py`` and
``perfbench/README.md``) for ``--seconds`` seconds from the repository
root, imports ``repro`` from ``src/``, checks every result, and prints
a report followed by one JSON line: ``{"correct", "attempted",
"failed", "metrics"}``.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` repeats the work under cProfile and reports the per-layer
metrics.  End-to-end host times are rescaled to a fixed speed of the
machine, sampled while they are measured (:class:`SpeedProbe`).  Exits
1 on any correctness miss and 2 when ``src/repro`` is missing.
"""

from __future__ import annotations

import argparse
import cProfile
import importlib
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from workloads import (DEVICE, WORKLOADS, Job, Workload,  # noqa: E402
                       conservation_problems, digest, median_and_tail,
                       model_samples, percentile, scenario_warmup)

#: Set-up is measured this many times per run, each in a fresh process.
SETUP_REPEATS = 7

#: The daemon run is a fixed number of jobs, ``--seconds`` times this
#: (about its rate on a 2-vCPU VM), not a time limit: each compaction
#: serialises every job served so far, so a faster daemon must not be
#: charged for serving more jobs.
DAEMON_JOBS_PER_S = 100

#: The machine's speed is sampled while the timed jobs run (see
#: :class:`SpeedProbe`) and every host time is rescaled to the speed at
#: which the reference loop takes ``REF_NOMINAL_S``: its usual time
#: inside jobs on the 2.1 GHz Xeon VM the benchmark was tuned on.
REF_NOMINAL_S = 500e-6
#: Host times scale as the loop's time to this power: fitted over
#: repeats of one job while the machine's speed moved, the exponent was
#: 0.74 on orion_overload, 0.68 on fleet_failover and 0.87 on REEF.
REF_EXPONENT = 0.75
#: The loop's time on that core between set-ups, outside any job (it
#: runs slower inside jobs, whose work evicts its state from caches).
SETUP_REF_NOMINAL_S = 360e-6
#: A sample every this many engine polls (one poll per 1024 events).
REF_EVERY_POLLS = 4
#: Daemon jobs per block whose between-job samples rescale the block.
DAEMON_BLOCK = 64

#: Module ``run(scenario)`` imports for each scenario kind; set-up
#: imports it so the first timed job pays no import.
_FAMILY_MODULES = {
    "experiment": "repro.experiments.runner",
    "overload": "repro.experiments.overload",
    "faults": "repro.faults.scenario",
    "fleet": "repro.cluster.fleet",
    "llm": "repro.workloads.llmserve",
}

#: name -> (unit, better) of every end-to-end metric.
END_TO_END = {
    "wall_per_sim_s": ("s/s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "rtt_p50_ms": ("ms", "lower"),
    "jobs_per_s": ("1/s", "higher"),
}

_SELF = ("s", "lower")
_COUNT = ("count", "lower")

#: name -> (unit, better) of every per-layer metric.  Counts and self
#: times are per cycle of the workload (a fixed amount of work).
PER_LAYER = {
    "sim.events": _COUNT,
    "sim.scheduled": _COUNT,
    "sim.fired_ratio": ("ratio", "higher"),
    "sim.wall_per_event_us": ("us", "lower"),
    "sim.self_s": _SELF,
    "gpu.contention.rates.calls": _COUNT,
    "gpu.self_s": _SELF,
    "core.be_launched": ("count", "higher"),
    "core.be_deferred": _COUNT,
    "core.be_launch_ratio": ("ratio", "higher"),
    "core.submit.calls": _COUNT,
    "core.self_s": _SELF,
    "runtime.submit.calls": _COUNT,
    "runtime.self_s": _SELF,
    "baselines.self_s": _SELF,
    "workloads.self_s": _SELF,
    "workloads.build_plan.s": _SELF,
    "profiler.profile_plan.s": _SELF,
    "profiler.self_s": _SELF,
    "experiments.self_s": _SELF,
    "telemetry.self_s": _SELF,
    "cluster.self_s": _SELF,
    "cluster.routing.decisions": _COUNT,
    "cluster.migration.started": _COUNT,
    "serve.self_s": _SELF,
    "serve.queue_wait_ms": ("ms", "lower"),
    "serve.run_ms": ("ms", "lower"),
    "serve.rtt_tail_ms": ("ms", "lower"),
    "serve.overhead_ms": ("ms", "lower"),
    "serve.journal.append.calls": _COUNT,
    "serve.journal.flush.s": _SELF,
    "serve.journal.snapshot.calls": _COUNT,
    "serve.journal.snapshot.max_ms": ("ms", "lower"),
    "kernels.self_s": _SELF,
    "frameworks.self_s": _SELF,
    "metrics.self_s": _SELF,
    "faults.self_s": _SELF,
    "repro_other.self_s": _SELF,
    "external.self_s": _SELF,
    "trace.unattributed_s": _SELF,
    "trace.overhead_frac": ("ratio", "lower"),
    "model.hp_p50_ms": ("ms", "lower"),
    "model.hp_tail_ms": ("ms", "lower"),
    "model.be_throughput": ("1/s", "higher"),
}


# ---------------------------------------------------------------------------
# Jobs and their checks

@dataclass
class Outcome:
    job: Job
    host_s: float       #: submit -> result bytes, host seconds
    sim_s: float
    events: int
    record: Optional[Dict] = None   #: daemon job record (status verb)
    ref_s: List[float] = field(default_factory=list)  #: speed samples


_REF_TABLE = {i: i for i in range(512)}


def reference_loop() -> int:
    """Fixed pure-Python work whose time tracks the machine's speed."""
    total = 0
    for i in range(6000):
        total += _REF_TABLE[i & 511]
    return total


def speed_now() -> float:
    """Median time of :func:`reference_loop` now, after a warm-up."""
    for _ in range(10):
        reference_loop()
    times = []
    for _ in range(30):
        start = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class SpeedProbe:
    """Times :func:`reference_loop` during a run, to rescale host times.

    On a shared host, other tenants slow the benchmark by 20-40 % for
    seconds to minutes at a time.  The loop slows with them, so a job's
    host time rescaled by the loop's median time over the same interval
    (:func:`rescale`) stays put while the machine's speed moves.  On a
    shared 2-vCPU Xeon VM, rescaling cut the spread of host times across
    ten seeds from 10-31 % to 3-6 %.  Installed as the
    engine's abort hook (``repro.sim.engine.set_abort_check``, polled
    every 1024 events, never aborting), it samples inside jobs run in
    this process; :meth:`sample` also runs after every job.  The time
    spent sampling inside a job is taken out of its host time.
    """

    def __init__(self):
        self.samples: List[float] = []
        self.spent_s = 0.0
        self._polls = 0
        self._previous = None

    def sample(self) -> None:
        start = time.perf_counter()
        reference_loop()
        took = time.perf_counter() - start
        self.samples.append(took)
        self.spent_s += took

    def _poll(self) -> bool:
        self._polls += 1
        if self._polls % REF_EVERY_POLLS == 0:
            self.sample()
        return False

    def __enter__(self) -> "SpeedProbe":
        from repro.sim.engine import set_abort_check

        for _ in range(20):  # warm the loop before its samples count
            reference_loop()
        self._previous = set_abort_check(self._poll)
        return self

    def __exit__(self, *exc_info) -> None:
        from repro.sim.engine import set_abort_check

        set_abort_check(self._previous)


@dataclass
class Checker:
    """Digest and conservation checks over every job of a run."""

    digests: Dict[Job, str] = field(default_factory=dict)
    canonical: Dict[Job, Dict] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def observe(self, job: Job, result_json: Optional[str],
                error: Optional[str] = None) -> None:
        self.attempted += 1
        if result_json is None:
            self.fail(f"{job.label()}: no result ({error})")
            return
        sha = digest(result_json)
        first = self.digests.setdefault(job, sha)
        if first != sha:
            self.fail(f"{job.label()}: same-seed repeat changed digest "
                      f"{first[:12]} -> {sha[:12]}")
        elif job not in self.canonical:
            canonical = json.loads(result_json)
            self.canonical[job] = canonical
            for problem in conservation_problems(canonical):
                self.fail(f"{job.label()}: {problem}")

    def expect(self, job: Job, result_json: str, source: str) -> None:
        """A second source of the same job's bytes must match."""
        if digest(result_json) != self.digests.get(job):
            self.fail(f"{job.label()}: {source} digest differs")

    @property
    def correct(self) -> bool:
        return self.failed == 0


def drive(jobs: Iterable[Job], run_job: Callable[[Job], Tuple],
          checker: Checker, seconds: Optional[float] = None,
          least: int = 1,
          probe: Optional[SpeedProbe] = None) -> Tuple[List[Outcome], float]:
    """Run jobs in order: all of ``jobs``, or with ``seconds`` as many
    as start within that many seconds (at least ``least``).  Returns
    the outcomes and the elapsed host seconds.  With ``probe``, each
    outcome carries the speed samples taken during and after its job."""
    outcomes: List[Outcome] = []
    start = time.perf_counter()
    for job in jobs:
        if seconds is not None and len(outcomes) >= least and \
                time.perf_counter() - start >= seconds:
            break
        first = len(probe.samples) if probe is not None else 0
        spent = probe.spent_s if probe is not None else 0.0
        t0 = time.perf_counter()
        try:
            result_json, sim_s, events, record = run_job(job)
            error = None
        except Exception as exc:  # one failed job must not end the run
            result_json, sim_s, events, record = None, 0.0, 0, None
            error = f"{type(exc).__name__}: {exc}"
        host_s = time.perf_counter() - t0
        outcome = Outcome(job, host_s, sim_s, events, record)
        if probe is not None:
            outcome.host_s -= probe.spent_s - spent
            probe.sample()
            outcome.ref_s = probe.samples[first:]
        checker.observe(job, result_json, error)
        outcomes.append(outcome)
    return outcomes, time.perf_counter() - start


def run_direct(job: Job):
    from repro.experiments.scenario import run

    result = run(job.scenario())
    return result.to_json(), result.sim_time, result.events_processed, None


def setup_direct(workload: Workload, seed: int) -> List[Job]:
    """Import, build the cycle's scenarios, and build their offline
    profiles: everything before the first timed job."""
    from repro.experiments.runner import get_profile
    from repro.gpu.specs import get_device

    cycle = workload.cycle(seed)
    scenarios = [job.scenario() for job in cycle]
    for kind in sorted({s.kind for s in scenarios}):
        importlib.import_module(_FAMILY_MODULES[kind])
    spec = get_device(DEVICE)
    for model, kind in workload.profiles:
        get_profile(model, kind, spec)
    return cycle


# ---------------------------------------------------------------------------
# The serve daemon

WORK_DIR = os.path.join(".perfbench_work", str(os.getpid()))


class Daemon:
    """``repro serve`` in a child process: one worker, journal on."""

    def __init__(self, tag: str):
        os.makedirs(WORK_DIR, exist_ok=True)
        sock = os.path.join(WORK_DIR, f"{tag}.sock")
        self.address = f"unix:{sock}"
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        self._log = open(os.path.join(WORK_DIR, f"{tag}.log"), "wb")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", sock,
             "--workers", "1", "--journal",
             os.path.join(WORK_DIR, f"{tag}.journal")],
            env=env, stdout=self._log, stderr=subprocess.STDOUT)
        try:
            from repro.serve import ServeClient

            self.client = ServeClient.connect_retry(self.address,
                                                    timeout=60.0, poll=0.005)
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - start

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        try:
            self.client.shutdown()
            self.client.close()
            self.proc.wait(timeout=60)
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._log.close()


class InProcessDaemon:
    """``ServeServer`` hosted in the benchmark process, so a profiler
    sees its threads; same configuration as :class:`Daemon`."""

    def __init__(self, tag: str):
        from repro.serve import ServeClient, ServeConfig, ServeServer

        os.makedirs(WORK_DIR, exist_ok=True)
        self.server = ServeServer(ServeConfig(
            address=f"unix:{os.path.join(WORK_DIR, tag + '.sock')}",
            workers=1,
            journal_path=os.path.join(WORK_DIR, f"{tag}.journal")))
        self.address = self.server.start()
        self.client = ServeClient.connect_retry(self.address, timeout=60.0,
                                                poll=0.005)

    def stop(self) -> None:
        self.client.close()
        self.server.shutdown()


def daemon_runner(client) -> Callable[[Job], Tuple]:
    def run_job(job: Job):
        job_id = client.submit(job.name, seed=job.seed, duration=job.duration,
                               overrides=dict(job.overrides))
        record = client.wait(job_id, timeout=60.0, poll=0.001)
        result_json = client.result_json(job_id)
        return result_json, record["sim_time"], record["events_processed"], \
            record
    return run_job


def check_against_direct(cycle: List[Job], checker: Checker) -> None:
    """Every distinct daemon job's bytes must equal a direct run's."""
    for job in cycle:
        if job in checker.digests:
            checker.expect(job, run_direct(job)[0], "direct run vs daemon")


def daemon_job_count(seconds: float) -> int:
    return max(WORKLOADS["daemon_jobs"].cycle_len,
               int(seconds * DAEMON_JOBS_PER_S))


def daemon_setup_samples() -> List[float]:
    """Daemon set-up times, rescaled by the speed measured right after."""
    samples = []
    for i in range(SETUP_REPEATS):
        daemon = Daemon(f"setup{i}")
        try:
            samples.append(rescale(daemon.setup_s, speed_now(),
                                   SETUP_REF_NOMINAL_S))
        finally:
            daemon.stop()
    return samples


# ---------------------------------------------------------------------------
# Metrics

def process_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rescale(host_s: float, speed: float, nominal: float) -> float:
    """``host_s``, measured while the reference loop took ``speed``
    seconds, at the speed where it takes ``nominal``."""
    return host_s * (nominal / speed) ** REF_EXPONENT


def rescaled_host_s(outcomes: List[Outcome], block: int) -> List[float]:
    """Each job's host time at the reference speed, by the median speed
    sample of its block of ``block`` consecutive jobs."""
    hosts: List[float] = []
    for i in range(0, len(outcomes), block):
        part = outcomes[i:i + block]
        speed = statistics.median(s for o in part for s in o.ref_s)
        hosts += [rescale(o.host_s, speed, REF_NOMINAL_S) for o in part]
    return hosts


def end_to_end(outcomes: List[Outcome], block: int, round_len: int,
               setup: List[float], rss_mb: float,
               rss_source: str) -> Tuple[Dict, Dict]:
    """The end-to-end metric values, and labels for the report.  Host
    times are rescaled to the reference speed and summed per complete
    round: one job, or the paper mix's cells."""
    hosts = rescaled_host_s(outcomes, block)
    done = [(sum(hosts[i:i + round_len]),
             sum(o.sim_s for o in outcomes[i:i + round_len]))
            for i in range(0, len(outcomes) - round_len + 1, round_len)]
    scaled_s = sum(host for host, _ in done)
    unscaled = sum(o.host_s for o in outcomes[:len(done) * round_len])
    speed = statistics.median(s for o in outcomes for s in o.ref_s)
    values = {
        "wall_per_sim_s": scaled_s / sum(sim for _, sim in done),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_mb,
        "rtt_p50_ms": percentile([host * 1e3 for host, _ in done], 50.0),
        "jobs_per_s": len(done) * round_len / scaled_s,
    }
    labels = {
        "wall_per_sim_s": f"sum over {len(done)} rounds of "
                          f"{round_len} jobs",
        "setup_s": f"median of {len(setup)} fresh processes",
        "peak_rss_mb": f"{rss_source} process",
        "rtt_p50_ms": f"n={len(done)}",
        "jobs_per_s": f"{len(done) * round_len} jobs in "
                      f"{scaled_s:.2f} s rescaled, "
                      f"{unscaled:.2f} s measured",
        "speed": f"reference loop median {speed * 1e6:.1f} us over "
                 f"{sum(len(o.ref_s) for o in outcomes)} samples "
                 f"(rescaled to {REF_NOMINAL_S * 1e6:.0f} us)",
    }
    return values, labels


def model_outputs(cycle: List[Job], checker: Checker) -> Dict[str, float]:
    """Simulated HP latency and BE throughput over one cycle's results
    (deterministic per seed).  0 when the cycle completes none."""
    hp: List[float] = []
    be = 0
    span = 0.0
    for job in cycle:
        canonical = checker.canonical.get(job)
        if canonical is None:
            continue
        scenario = job.scenario()
        warmup = scenario_warmup(scenario)
        lat, items = model_samples(canonical, warmup)
        hp.extend(x * 1e3 for x in lat)
        be += items
        span += canonical["sim_time"] - warmup
    p50, tail, label = median_and_tail(hp) if hp else (0.0, 0.0, "n=0")
    return {"model.hp_p50_ms": p50, "model.hp_tail_ms": tail,
            "model.be_throughput": be / span if span > 0 else 0.0,
            "hp_tail_label": label}


def result_counters(cycle: List[Job], checker: Checker) -> Dict[str, float]:
    """Per-cycle counters the canonical results carry."""
    events = launched = deferred = decisions = migrations = 0
    for job in cycle:
        canonical = checker.canonical.get(job, {})
        result = canonical.get("result", {})
        events += canonical.get("events_processed", 0)
        stats = result.get("backend_stats") or {}
        launched += stats.get("be_kernels_launched", 0)
        deferred += stats.get("be_kernels_deferred", 0)
        decisions += (result.get("routing") or {}).get("decisions", 0)
        migrations += (result.get("migration") or {}).get("started", 0)
    return {
        "sim.events": events,
        "core.be_launched": launched,
        "core.be_deferred": deferred,
        "core.be_launch_ratio": launched / (launched + deferred)
        if launched + deferred else 0.0,
        "cluster.routing.decisions": decisions,
        "cluster.migration.started": migrations,
    }


def profile_counters(attr) -> Dict[str, float]:
    """Self times and call counts of the traced cycle."""
    from layers import EXTERNAL, LAYERS, OTHER

    out = {f"{layer}.self_s": attr.self_s[layer]
           for layer in LAYERS + (OTHER, EXTERNAL)}
    out.update({
        "sim.scheduled": attr.calls("sim", "engine.py", "call_at"),
        "gpu.contention.rates.calls":
            attr.calls("gpu", "contention.py", "rates"),
        "core.submit.calls": attr.calls("core", "scheduler.py", "submit"),
        "runtime.submit.calls": attr.backend_submits(),
    })
    return out


def setup_profile_counters(attr) -> Dict[str, float]:
    return {
        "profiler.profile_plan.s":
            attr.cumulative("profiler", "nsight.py", "profile_plan"),
        "workloads.build_plan.s":
            attr.cumulative("workloads", "registry.py", "build_plan"),
    }


# ---------------------------------------------------------------------------
# Runs

def measure(workload: Workload, seed: int, seconds: float,
            checker: Checker) -> Tuple[Dict, Dict, List[Job]]:
    """Untraced run: the end-to-end metrics.  After the timed jobs the
    first job runs once more, and must give the same bytes."""
    if workload.mode == "daemon":
        setup = daemon_setup_samples()
        cycle = workload.cycle(seed)
        daemon = Daemon("main")
        try:
            run_job = daemon_runner(daemon.client)
            with SpeedProbe() as probe:
                outcomes, _ = drive(
                    itertools.islice(workload.jobs(seed),
                                     daemon_job_count(seconds)),
                    run_job, checker, probe=probe)
            drive(cycle[:1], run_job, checker)
            rss = daemon.peak_rss_mb()
        finally:
            daemon.stop()
        check_against_direct(cycle, checker)
        block = DAEMON_BLOCK
    else:
        setup = setup_samples(workload, seed)
        cycle = setup_direct(workload, seed)
        with SpeedProbe() as probe:
            outcomes, _ = drive(workload.jobs(seed), run_direct, checker,
                                seconds, workload.round_len, probe)
        drive(cycle[:1], run_direct, checker)
        rss = process_peak_rss_mb()
        block = workload.round_len
    values, labels = end_to_end(
        outcomes, block, workload.round_len, setup, rss,
        "daemon" if workload.mode == "daemon" else "benchmark")
    return values, labels, cycle


def trace(workload: Workload, seed: int, seconds: float,
          checker: Checker) -> Tuple[Dict, Dict, List[Job]]:
    """Traced run: one cycle untraced for the counters and the baseline,
    then the same cycle under the profiler."""
    tracer = trace_daemon if workload.mode == "daemon" else trace_direct
    t = tracer(workload, seed, seconds, checker)
    per_layer = dict(t.per_layer)
    per_layer.update(result_counters(t.cycle, checker))
    per_layer.update(profile_counters(t.attr))
    per_layer["sim.fired_ratio"] = per_layer["sim.events"] / \
        per_layer["sim.scheduled"] if per_layer["sim.scheduled"] else 0.0
    per_layer["trace.unattributed_s"] = t.host_s - t.attr.total_self_s
    per_layer["trace.overhead_frac"] = t.traced_s / t.base_s - 1.0
    return per_layer, {"trace": t.label}, t.cycle


@dataclass
class Traced:
    cycle: List[Job]
    base_s: float        #: host seconds of the untraced cycle
    traced_s: float      #: host seconds of the traced cycle
    host_s: float        #: host seconds the profiles cover
    attr: object         #: layers.Attribution of the traced cycle
    per_layer: Dict[str, float]
    label: str


def trace_direct(workload: Workload, seed: int, seconds: float,
                 checker: Checker) -> Traced:
    from layers import Attribution

    prof = cProfile.Profile()
    prof.enable()
    cycle = setup_direct(workload, seed)
    prof.disable()
    per_layer = setup_profile_counters(Attribution([prof]))
    outcomes, base_s = drive(cycle, run_direct, checker)
    per_layer["sim.wall_per_event_us"] = \
        base_s / sum(o.events for o in outcomes) * 1e6
    per_layer.update({name: 0.0 for name in SERVE_COUNTERS})
    prof = cProfile.Profile()
    prof.enable()
    _, traced_s = drive(cycle, run_direct, checker)
    prof.disable()
    return Traced(cycle, base_s, traced_s, traced_s, Attribution([prof]),
                  per_layer, f"{len(cycle)} jobs")


def trace_daemon(workload: Workload, seed: int, seconds: float,
                 checker: Checker) -> Traced:
    """The ``serve.*`` counters come from the daemon as a child process,
    over the jobs of an untraced run; the profile from ``ServeServer``
    hosted in-process, over one cycle untraced and then traced."""
    from layers import Attribution, ThreadProfiles

    cycle = workload.cycle(seed)
    daemon = Daemon("counters")
    try:
        outcomes, _ = drive(
            itertools.islice(workload.jobs(seed), daemon_job_count(seconds)),
            daemon_runner(daemon.client), checker)
        journal = daemon.client.telemetry()["snapshot"]["journal"]
    finally:
        daemon.stop()
    check_against_direct(cycle, checker)
    per_layer = serve_counters(outcomes, journal)
    per_layer["profiler.profile_plan.s"] = 0.0
    per_layer["workloads.build_plan.s"] = 0.0
    baseline = InProcessDaemon("untraced")
    try:
        _, base_s = drive(cycle, daemon_runner(baseline.client), checker)
    finally:
        baseline.stop()
    prof = cProfile.Profile()
    with JournalProbe() as probe, ThreadProfiles() as threads:
        traced = InProcessDaemon("traced")
        prof.enable()
        try:
            _, traced_s = drive(cycle, daemon_runner(traced.client), checker)
        finally:
            prof.disable()
            traced.stop()
        threads.join(timeout=60.0)
    per_layer.update(probe.metrics())
    return Traced(cycle, base_s, traced_s, traced_s + threads.thread_s,
                  Attribution([prof] + threads.profiles), per_layer,
                  f"{len(cycle)} jobs; self times summed over "
                  f"{len(threads.profiles) + 1} threads")


#: Per-layer metrics only the daemon workload produces.
SERVE_COUNTERS = tuple(name for name in PER_LAYER
                       if name.startswith("serve.") and name != "serve.self_s")


def serve_counters(outcomes: List[Outcome],
                   journal: Dict) -> Dict[str, float]:
    """Medians from the job records' wall-clock transitions, the round
    trip's tail, and the journal's own counters."""
    wait, run_ms, overhead = [], [], []
    for o in outcomes:
        times = {state: clock for state, clock in o.record["transitions"]}
        wait.append((times["RUNNING"] - times["QUEUED"]) * 1e3)
        run_ms.append((times["COMPLETED"] - times["RUNNING"]) * 1e3)
        overhead.append(o.host_s * 1e3 - run_ms[-1])
    _, tail, _ = median_and_tail([o.host_s * 1e3 for o in outcomes])
    return {
        "serve.rtt_tail_ms": tail,
        "sim.wall_per_event_us":
            sum(run_ms) * 1e3 / sum(o.events for o in outcomes),
        "serve.queue_wait_ms": percentile(wait, 50.0),
        "serve.run_ms": percentile(run_ms, 50.0),
        "serve.overhead_ms": percentile(overhead, 50.0),
        "serve.journal.append.calls": journal["records_appended"],
        "serve.journal.snapshot.calls": journal["snapshots_written"],
    }


class JournalProbe:
    """Wrap ``JobJournal.write_snapshot`` and ``os.fsync`` to time the
    daemon's compactions and disk flushes (every thread)."""

    def __enter__(self) -> "JournalProbe":
        from repro.serve.journal import JobJournal

        self._journal_cls = JobJournal
        self._snapshot = JobJournal.write_snapshot
        self._fsync = os.fsync
        self.snapshot_ms: List[float] = []
        self.fsync_s = 0.0
        probe = self

        def write_snapshot(journal, *args, **kwargs):
            start = time.perf_counter()
            try:
                return probe._snapshot(journal, *args, **kwargs)
            finally:
                probe.snapshot_ms.append((time.perf_counter() - start) * 1e3)

        def fsync(fd):
            start = time.perf_counter()
            try:
                return probe._fsync(fd)
            finally:
                probe.fsync_s += time.perf_counter() - start

        JobJournal.write_snapshot = write_snapshot
        os.fsync = fsync
        return self

    def __exit__(self, *exc_info) -> None:
        self._journal_cls.write_snapshot = self._snapshot
        os.fsync = self._fsync

    def metrics(self) -> Dict[str, float]:
        return {
            "serve.journal.flush.s": self.fsync_s,
            "serve.journal.snapshot.max_ms": max(self.snapshot_ms, default=0.0),
        }


def setup_samples(workload: Workload, seed: int) -> List[float]:
    """Set-up time of the direct workloads, each in a fresh process and
    rescaled by the speed that process measured right after."""
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload.name, "--seed", str(seed)],
            check=True, capture_output=True, text=True, timeout=120)
        took, speed = map(float, out.stdout.strip().splitlines()[-1].split())
        samples.append(rescale(took, speed, SETUP_REF_NOMINAL_S))
    return samples


def setup_probe(workload: Workload, seed: int) -> None:
    start = time.perf_counter()
    setup_direct(workload, seed)
    took = time.perf_counter() - start
    print(repr(took), repr(speed_now()))


# ---------------------------------------------------------------------------
# Report

def print_report(workload: Workload, seed: int, trace_on: bool,
                 metrics: Dict, labels: Dict, model: Dict,
                 cycle: List[Job], checker: Checker) -> None:
    print(f"workload {workload.name} ({workload.mode}): {workload.why}")
    print(f"seed {seed}; cycle of {len(cycle)} jobs: "
          + "; ".join(job.label() for job in cycle[:8])
          + (" ..." if len(cycle) > 8 else ""))
    if not trace_on:
        print(f"{'metric':<16} {'value':>14} {'unit':<5} {'better':<7} sample")
        for name, (unit, better) in END_TO_END.items():
            print(f"{name:<16} {metrics[name]:>14.6g} {unit:<5} {better:<7} "
                  f"{labels[name]}")
        print(f"host times are rescaled to the reference speed: "
              f"{labels['speed']}")
    else:
        print(f"per-layer metrics, per cycle ({labels['trace']}):")
        for name in sorted(metrics):
            print(f"  {name:<32} {metrics[name]:>14.6g}")
    print(f"error_rate {checker.failed}/{checker.attempted} "
          f"(failed / attempted jobs, lower)")
    print(f"model outputs (simulated, over one cycle): "
          f"hp_p50_ms {model['model.hp_p50_ms']:.6g}, "
          f"hp_tail_ms {model['model.hp_tail_ms']:.6g} "
          f"({model['hp_tail_label']}), "
          f"be_throughput {model['model.be_throughput']:.6g} items/s")
    for job in cycle:
        print(f"digest {checker.digests.get(job, 'missing')} {job.label()}")
    for problem in checker.problems:
        print(f"CHECK FAILED: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: {SRC}/repro not found; run from a full checkout",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        setup_probe(workload, args.seed)
        return 0

    checker = Checker()
    try:
        if args.trace:
            metrics, labels, cycle = trace(workload, args.seed, args.seconds,
                                           checker)
        else:
            metrics, labels, cycle = measure(workload, args.seed,
                                             args.seconds, checker)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(WORK_DIR))
        except OSError:
            pass  # another run's directory is still there
    model = model_outputs(cycle, checker)
    if args.trace:
        metrics.update({k: v for k, v in model.items()
                        if k.startswith("model.")})
    print_report(workload, args.seed, bool(args.trace), metrics, labels,
                 model, cycle, checker)
    spec = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, (unit, _) in spec.items()},
    }))
    return 0 if checker.correct else 1


if __name__ == "__main__":
    sys.exit(main())
