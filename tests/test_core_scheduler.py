"""Behavioural tests for the Orion scheduler backend on synthetic kernels."""

import pytest

import repro.core.scheduler as scheduler_module
from repro.core.policy import be_block_reason
from repro.core.scheduler import OrionBackend, OrionConfig
from repro.experiments.registry import make_scenario
from repro.experiments.scenario import run as run_scenario
from repro.gpu.device import GpuDevice
from repro.gpu.specs import V100_16GB
from repro.kernels.kernel import MemoryOp, MemoryOpKind
from repro.profiler.profiles import KernelProfile, ProfileStore
from repro.runtime.client import ClientContext
from repro.runtime.host import HostThread
from repro.sim.engine import Simulator
from repro.sim.process import Timeout, spawn

from helpers import compute_spec, make_kernel, memory_spec, track_sweeps


def store_for(*ops):
    store = ProfileStore()
    from repro.profiler.profiles import ModelProfile

    profile = ModelProfile("synthetic", "inference", "V100-16GB", 10e-3)
    for op in ops:
        profile.kernels[op.spec.name] = KernelProfile(
            op.spec.name, op.duration, op.compute_util, op.memory_util,
            op.sm_needed, op.profile,
        )
    store.add(profile)
    return store


def setup_backend(sim, config=None, ops=()):
    device = GpuDevice(sim, V100_16GB)
    backend = OrionBackend(sim, device, store_for(*ops),
                           config or OrionConfig(hp_request_latency=10e-3))
    hp_ctx = ClientContext(backend, "hp", HostThread(sim), high_priority=True)
    be_ctx = ClientContext(backend, "be", HostThread(sim))
    backend.start()
    return backend, device, hp_ctx, be_ctx


def test_single_hp_client_enforced():
    sim = Simulator()
    device = GpuDevice(sim, V100_16GB)
    backend = OrionBackend(sim, device, ProfileStore())
    ClientContext(backend, "hp1", HostThread(sim), high_priority=True)
    with pytest.raises(ValueError):
        ClientContext(backend, "hp2", HostThread(sim), high_priority=True)


def test_hp_kernels_forwarded_immediately():
    sim = Simulator()
    op = make_kernel(compute_spec("hp-k", duration=1e-3))
    backend, device, hp_ctx, _ = setup_backend(sim, ops=[op])
    record = {}

    def run():
        yield from hp_ctx.launch_kernel(op)
        yield from hp_ctx.synchronize()
        record["t"] = sim.now

    spawn(sim, run())
    sim.run()
    assert record["t"] == pytest.approx(1e-3, rel=0.05)


def test_be_kernel_runs_when_hp_idle():
    sim = Simulator()
    op = make_kernel(memory_spec("be-k", duration=1e-3))
    backend, device, _, be_ctx = setup_backend(sim, ops=[op])
    record = {}

    def run():
        yield from be_ctx.launch_kernel(op)
        yield from be_ctx.synchronize()
        record["t"] = sim.now

    spawn(sim, run())
    sim.run()
    assert record["t"] == pytest.approx(1e-3, rel=0.05)
    assert backend.be_kernels_launched == 1


def test_same_profile_be_deferred_until_hp_done():
    sim = Simulator()
    hp_op = make_kernel(compute_spec("hp-k", duration=2e-3, sms=160))
    be_op = make_kernel(compute_spec("be-k", duration=1e-4, sms=160))
    backend, device, hp_ctx, be_ctx = setup_backend(sim, ops=[hp_op, be_op])
    record = {}

    def hp():
        yield from hp_ctx.launch_kernel(hp_op)
        yield from hp_ctx.synchronize()
        record["hp_end"] = sim.now

    def be():
        yield Timeout(1e-4)  # arrive while HP is running
        yield from be_ctx.launch_kernel(be_op)
        yield from be_ctx.synchronize()
        record["be_end"] = sim.now

    spawn(sim, hp())
    spawn(sim, be())
    sim.run()
    # BE (compute) could not collocate with HP (compute): it waited.
    assert record["be_end"] >= record["hp_end"]
    assert backend.be_kernels_deferred > 0


def test_opposite_profile_be_collocates():
    sim = Simulator()
    hp_op = make_kernel(compute_spec("hp-k", duration=2e-3, sms=160))
    be_op = make_kernel(memory_spec("be-k", duration=1e-4, blocks=64))
    backend, device, hp_ctx, be_ctx = setup_backend(sim, ops=[hp_op, be_op])
    record = {}

    def hp():
        yield from hp_ctx.launch_kernel(hp_op)
        yield from hp_ctx.synchronize()
        record["hp_end"] = sim.now

    def be():
        yield Timeout(1e-4)
        yield from be_ctx.launch_kernel(be_op)
        yield from be_ctx.synchronize()
        record["be_end"] = sim.now

    spawn(sim, hp())
    spawn(sim, be())
    sim.run()
    # Memory-bound BE ran inside the HP window instead of after it.
    assert record["be_end"] < record["hp_end"]


def test_sm_threshold_blocks_large_be():
    sim = Simulator()
    hp_op = make_kernel(compute_spec("hp-k", duration=2e-3, sms=160))
    be_op = make_kernel(memory_spec("be-k", duration=1e-4, blocks=4096))
    assert be_op.sm_needed >= 80
    backend, device, hp_ctx, be_ctx = setup_backend(sim, ops=[hp_op, be_op])
    record = {}

    def hp():
        yield from hp_ctx.launch_kernel(hp_op)
        yield from hp_ctx.synchronize()
        record["hp_end"] = sim.now

    def be():
        yield Timeout(1e-4)
        yield from be_ctx.launch_kernel(be_op)
        yield from be_ctx.synchronize()
        record["be_end"] = sim.now

    spawn(sim, hp())
    spawn(sim, be())
    sim.run()
    assert record["be_end"] >= record["hp_end"]


def test_duration_throttle_limits_outstanding_be():
    sim = Simulator()
    # Budget = 2.5% x 10 ms = 250 us; kernels of 200 us each.
    ops = [make_kernel(memory_spec(f"be-{i}", duration=2e-4, blocks=64))
           for i in range(10)]
    backend, device, _, be_ctx = setup_backend(sim, ops=ops)
    max_resident = {"n": 0}

    def be():
        for op in ops:
            yield from be_ctx.launch_kernel(op)
        yield from be_ctx.synchronize()

    def monitor():
        for _ in range(500):
            max_resident["n"] = max(max_resident["n"], len(device.running))
            yield Timeout(1e-5)

    spawn(sim, be())
    spawn(sim, monitor())
    sim.run()
    # The throttle drains the pipeline every ~2 kernels; the whole batch
    # must never be committed at once (stream serializes anyway, but the
    # *outstanding* count stays near the budget).
    assert backend.be_kernels_launched == 10
    assert backend.be_kernels_deferred > 0


def test_memory_ops_bypass_policy():
    sim = Simulator()
    hp_op = make_kernel(compute_spec("hp-k", duration=5e-3, sms=160))
    backend, device, hp_ctx, be_ctx = setup_backend(sim, ops=[hp_op])
    record = {}

    def hp():
        yield from hp_ctx.launch_kernel(hp_op)
        yield from hp_ctx.synchronize()

    def be():
        yield Timeout(1e-4)
        yield from be_ctx.memcpy(1000, MemoryOpKind.MEMCPY_H2D, blocking=True)
        record["copy_done"] = sim.now

    spawn(sim, hp())
    spawn(sim, be())
    sim.run()
    # The copy completed long before the HP kernel finished.
    assert record["copy_done"] < 5e-3


def test_round_robin_across_be_clients():
    sim = Simulator()
    device = GpuDevice(sim, V100_16GB)
    ops = {name: make_kernel(memory_spec(f"{name}-k", duration=1e-4, blocks=64),
                             client_id=name)
           for name in ("be1", "be2", "be3")}
    backend = OrionBackend(sim, device, store_for(*ops.values()),
                           OrionConfig(hp_request_latency=1.0))
    ClientContext(backend, "hp", HostThread(sim), high_priority=True)
    ctxs = {name: ClientContext(backend, name, HostThread(sim))
            for name in ops}
    backend.start()
    finish = {}

    def client(name):
        yield from ctxs[name].launch_kernel(ops[name])
        yield from ctxs[name].synchronize()
        finish[name] = sim.now

    for name in ops:
        spawn(sim, client(name))
    sim.run()
    assert set(finish) == {"be1", "be2", "be3"}


def test_hp_latency_ewma_fallback():
    sim = Simulator()
    device = GpuDevice(sim, V100_16GB)
    backend = OrionBackend(sim, device, ProfileStore(), OrionConfig())
    ctx = ClientContext(backend, "hp", HostThread(sim), high_priority=True)
    backend.start()
    op = make_kernel(compute_spec("k", duration=2e-3))

    def run():
        yield from ctx.begin_request()
        yield from ctx.launch_kernel(op)
        yield from ctx.synchronize()
        ctx.end_request()

    spawn(sim, run())
    sim.run()
    assert backend.hp_requests_completed == 1
    assert backend.hp_request_latency == pytest.approx(2e-3, rel=0.1)


def test_unprofiled_kernel_counts_miss_and_treated_unknown():
    sim = Simulator()
    backend, device, _, be_ctx = setup_backend(sim, ops=[])
    op = make_kernel(memory_spec("never-profiled", duration=1e-4, blocks=64))

    def run():
        yield from be_ctx.launch_kernel(op)
        yield from be_ctx.synchronize()

    spawn(sim, run())
    sim.run()
    assert backend.profile_misses >= 1
    assert backend.be_kernels_launched == 1


def test_interception_overhead_positive():
    sim = Simulator()
    backend, *_ = setup_backend(sim)
    assert 0 < backend.interception_overhead() < 2e-6


def _drop_be_profile(backend):
    backend.profiles.drop("be-short")


def _relax_dur_threshold(backend):
    # What the SLO guard does when the HP SLO recovers.
    backend.config.dur_threshold_frac = 0.5


@pytest.mark.parametrize("be_spec,hp_latency,blocked_by,change", [
    # Same-profile collocation is blocked; unprofiled counts as
    # unknown, which may co-run.
    (compute_spec("be-short", duration=1e-4, sms=8), 0.1, "policy",
     _drop_be_profile),
    # A ~1 ms kernel is over 2.5% of the 10 ms HP latency but under 50%.
    (memory_spec("be-short", duration=1e-3, blocks=8), 1e-2,
     "dur_threshold", _relax_dur_threshold),
])
def test_change_off_the_hp_side_invalidates_memoized_block(
        be_spec, hp_latency, blocked_by, change):
    """A blocked BE kernel is re-judged on the next wake after a change
    to its profile or to the policy config, even though nothing on the
    HP side changed."""
    sim = Simulator()
    hp_op = make_kernel(compute_spec("hp-long", duration=5e-3),
                        client_id="hp")
    be_op = make_kernel(be_spec, client_id="be")
    backend, _device, hp_ctx, be_ctx = setup_backend(
        sim, OrionConfig(hp_request_latency=hp_latency),
        ops=[hp_op, be_op])
    done = {}

    def client(ctx, op, delay):
        yield Timeout(delay)
        yield from ctx.launch_kernel(op)
        yield from ctx.synchronize()
        done[ctx.client_id] = sim.now

    def change_at_1ms():
        yield Timeout(1e-3)
        assert backend._be_state("be").memo[4] == blocked_by
        change(backend)
        backend._wake_scheduler()

    for proc in (client(hp_ctx, hp_op, 0.0), client(be_ctx, be_op, 1e-4),
                 change_at_1ms()):
        spawn(sim, proc)
    sim.run()
    # Re-judged at 1 ms, the BE kernel finishes before the 5 ms HP
    # kernel instead of waiting it out.
    assert done["be"] < done["hp"]


def _live_block_reason(backend, state, op):
    """be_block_reason over the backend's live state, without touching
    any counter."""
    outstanding = state.outstanding
    if outstanding > 0 and state.event.query():
        outstanding = 0.0
    be_profile = None
    if not isinstance(op, MemoryOp):
        be_profile = backend.profiles.lookup(op.spec.name)
        if be_profile is None:
            misses = backend.profile_misses
            be_profile = backend._fallback_profile(op)
            backend.profile_misses = misses
    hp_running = backend.hp_task_running
    return be_block_reason(
        backend.config, be_profile, outstanding,
        backend.hp_request_latency, backend.sm_threshold, hp_running,
        backend._current_hp_profile() if hp_running else None,
        backend.be_admission_suspended, backend._hp_transfers_active > 0,
        backend._hp_phase == "prefill")


@pytest.mark.parametrize("name,overrides,reason", [
    # 0.12 s lets the SLO guard tighten dur_threshold_frac twice.
    ("overload", {"duration": 0.12, "be_clients": 4, "guard": True},
     "dur_threshold"),
    ("llm", {"duration": 0.1, "protect_prefill": True}, "prefill_protect"),
    ("faults", {"duration": 0.1}, "dur_threshold"),
    ("fleet_rebalance", {"duration": 0.05, "warmup": 0.01},
     "dur_threshold"),
    ("inf-inf", {"duration": 0.15, "warmup": 0.05,
                 "orion": {"manage_pcie": True}}, "pcie_hold"),
])
def test_memoized_decisions_match_live_state(monkeypatch, name, overrides,
                                             reason):
    """Every admission decision, memo hits included, equals
    be_block_reason evaluated on the live scheduler state at that
    moment: a state input missing from the memo key shows up here."""
    counts = {"fresh": 0, "hits": 0}
    reasons = set()
    deferred = []
    fresh_rule = scheduler_module.be_block_reason
    try_launch = OrionBackend._try_launch_be
    defer = OrionBackend._defer_be

    def counted_rule(*args):
        counts["fresh"] += 1
        return fresh_rule(*args)

    def recorded_defer(self, client_id, why):
        deferred.append(why)
        defer(self, client_id, why)

    def checked_try_launch(self, client_id):
        state = self._be_state(client_id)
        op = state.queue.peek()
        if op is None:
            return try_launch(self, client_id)
        expected = _live_block_reason(self, state, op)
        fresh_before = counts["fresh"]
        deferred.clear()
        launched = try_launch(self, client_id)
        decided = None if launched else deferred[-1]
        assert decided == expected, (self.sim.now, client_id)
        if counts["fresh"] == fresh_before:
            counts["hits"] += 1
        reasons.add(decided)
        return launched

    monkeypatch.setattr(scheduler_module, "be_block_reason", counted_rule)
    monkeypatch.setattr(OrionBackend, "_defer_be", recorded_defer)
    monkeypatch.setattr(OrionBackend, "_try_launch_be", checked_try_launch)
    run_scenario(make_scenario(name, seed=0, **overrides))
    assert counts["hits"] > 0 and counts["fresh"] > 0
    assert reason in reasons


# ----------------------------------------------------------------------
# Wake semantics of the direct-call scheduler
# ----------------------------------------------------------------------
def test_no_be_launch_before_the_start_event():
    sim = Simulator()
    ops = [make_kernel(memory_spec(f"be-k{i}", duration=5e-5), client_id="be")
           for i in range(2)]
    device = GpuDevice(sim, V100_16GB)
    backend = OrionBackend(sim, device, store_for(*ops),
                           OrionConfig(hp_request_latency=10e-3))
    backend.register_client("be", high_priority=False, kind="inference")
    depth = track_sweeps(backend)
    first = backend.submit("be", ops[0])    # a wake before start()
    backend.start()
    second = backend.submit("be", ops[1])   # a wake before the start event
    assert backend.be_kernels_launched == 0 and depth["sweeps"] == 0
    assert sim.peek() == 0.0
    assert sim.step()                       # the start event: first sweep
    assert depth["sweeps"] == 1 and backend.be_kernels_launched >= 1
    sim.run()
    assert first.ok and second.ok
    assert backend.be_kernels_launched == 2 and depth["max"] == 1


def test_wakes_inside_a_sweep_do_not_nest():
    sim = Simulator()
    ops = [make_kernel(memory_spec(f"be{i}-k", duration=5e-5),
                       client_id=f"be{i}") for i in range(3)]
    device = GpuDevice(sim, V100_16GB)
    backend = OrionBackend(sim, device, store_for(*ops),
                           OrionConfig(hp_request_latency=10e-3))
    for i in range(3):
        backend.register_client(f"be{i}", high_priority=False,
                                kind="inference")
    depth = track_sweeps(backend)
    try_launch = backend._try_launch_be

    def deregister_mid_sweep(client_id):
        if "be2" in backend.clients:
            # Drains be2's queue (its signal completes synchronously,
            # with an error) and wakes the scheduler, all mid-sweep.
            backend.deregister_client("be2")
        return try_launch(client_id)

    backend._try_launch_be = deregister_mid_sweep
    dones = [backend.submit(f"be{i}", op) for i, op in enumerate(ops)]
    backend.start()
    sim.run()
    assert depth["inner_wakes"] >= 1 and depth["max"] == 1
    assert dones[0].ok and dones[1].ok
    assert dones[2].triggered and dones[2].error is not None
    assert backend.be_kernels_launched == 2


def test_scheduler_counters_pinned():
    # Counts of the scheduler's wake semantics: a wake absorbed or
    # added anywhere moves them.
    result = run_scenario(make_scenario("overload", seed=0, duration=0.05,
                                        be_clients=4))
    stats = result.result.backend_stats
    assert (stats["be_kernels_launched"], stats["be_kernels_deferred"]) \
        == (5781, 44569)

    sim = Simulator()
    hp_op = make_kernel(compute_spec("hp-k", duration=1e-3), client_id="hp")
    backend, device, hp_ctx, be_ctx = setup_backend(sim, ops=[hp_op])

    def hp_job():
        for _ in range(5):
            yield from hp_ctx.begin_request()
            yield from hp_ctx.launch_kernel(
                make_kernel(compute_spec("hp-k", duration=1e-3),
                            client_id="hp"))
            yield from hp_ctx.synchronize()
            hp_ctx.end_request()
            yield Timeout(2e-4)

    def be_job():
        for i in range(12):
            yield from be_ctx.launch_kernel(make_kernel(
                memory_spec(f"unprofiled-{i % 3}", duration=2e-4, blocks=64),
                client_id="be"))
        yield from be_ctx.synchronize()

    spawn(sim, hp_job())
    spawn(sim, be_job())
    sim.run()
    assert (backend.be_kernels_launched, backend.be_kernels_deferred,
            backend.profile_misses) == (12, 22, 34)
