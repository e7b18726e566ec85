"""Unit tests for the runtime layer: hosts/GIL, client contexts, backends."""

import gc

import pytest

from repro.gpu.device import GpuDevice
from repro.gpu.specs import V100_16GB
from repro.kernels.kernel import MemoryOpKind
from repro.runtime.backend import SoftwareQueue
from repro.runtime.client import ClientContext
from repro.runtime.direct import DedicatedBackend, DirectStreamBackend
from repro.runtime.host import HostGil, HostThread
from repro.sim.engine import Simulator
from repro.sim.process import Timeout, spawn

from helpers import compute_spec, make_kernel, memory_spec


@pytest.fixture
def sim():
    return Simulator()


def drive(sim, gen):
    p = spawn(sim, gen)
    sim.run()
    return p


# ----------------------------------------------------------------------
# Host model
# ----------------------------------------------------------------------
def test_launch_cost_without_gil(sim):
    host = HostThread(sim, launch_overhead=5e-6)
    record = {}

    def run():
        yield from host.launch_cost()
        record["t"] = sim.now

    drive(sim, run())
    assert record["t"] == pytest.approx(5e-6)
    assert host.ops_launched == 1


def test_interception_overhead_adds_to_cost(sim):
    host = HostThread(sim, launch_overhead=5e-6, interception_overhead=1e-6)
    record = {}

    def run():
        yield from host.launch_cost()
        record["t"] = sim.now

    drive(sim, run())
    assert record["t"] == pytest.approx(6e-6)


def test_gil_serializes_threads(sim):
    gil = HostGil(sim)
    hosts = [HostThread(sim, gil=gil, launch_overhead=10e-6) for _ in range(3)]
    ends = []

    def launcher(host):
        yield from host.launch_cost()
        ends.append(sim.now)

    for host in hosts:
        spawn(sim, launcher(host))
    sim.run()
    # Three 10us launches through one GIL take 30us, not 10us.
    assert max(ends) == pytest.approx(30e-6)
    assert gil.contended_acquisitions >= 2


def test_collected_gil_holder_does_not_resume_a_finished_run():
    # When a finished run's objects are garbage-collected, closing a
    # process suspended inside the GIL must not hand the GIL to a waiter
    # and so schedule events on the dead simulator.
    sim = Simulator()
    gil = HostGil(sim)
    scheduled = []

    def launcher(host):
        while True:
            yield from host.launch_cost()

    for _ in range(3):
        spawn(sim, launcher(HostThread(sim, gil=gil, launch_overhead=10e-6)))
    sim.run(until=15e-6)  # one thread holds the GIL, two wait for it
    sim.call_at = lambda time, callback: scheduled.append(callback)
    del sim, gil
    gc.collect()
    assert scheduled == []


def test_host_time_accounting(sim):
    host = HostThread(sim, launch_overhead=5e-6)

    def run():
        for _ in range(4):
            yield from host.launch_cost()

    drive(sim, run())
    assert host.host_time == pytest.approx(20e-6)


def test_negative_overheads_rejected(sim):
    with pytest.raises(ValueError):
        HostThread(sim, launch_overhead=-1e-6)


# ----------------------------------------------------------------------
# Software queue
# ----------------------------------------------------------------------
def test_software_queue_fifo(sim):
    queue = SoftwareQueue(sim, "c")
    a, b = make_kernel(compute_spec("a")), make_kernel(compute_spec("b"))
    queue.push(a)
    queue.push(b)
    assert queue.peek() is a
    op, _sig = queue.pop()
    assert op is a
    assert queue.peek() is b


def test_software_queue_pop_empty_raises(sim):
    with pytest.raises(IndexError):
        SoftwareQueue(sim, "c").pop()


def test_software_queue_len_and_counter(sim):
    queue = SoftwareQueue(sim, "c")
    for i in range(3):
        queue.push(make_kernel(compute_spec(f"k{i}")))
    assert len(queue) == 3
    assert queue.enqueued_total == 3


# ----------------------------------------------------------------------
# Client context semantics
# ----------------------------------------------------------------------
def make_ctx(sim, backend=None):
    if backend is None:
        device = GpuDevice(sim, V100_16GB)
        backend = DirectStreamBackend(sim, device)
    host = HostThread(sim)
    return ClientContext(backend, "job", host), backend


def test_kernel_launch_is_async(sim):
    ctx, _ = make_ctx(sim)
    op = make_kernel(compute_spec(duration=5e-3))
    record = {}

    def run():
        yield from ctx.launch_kernel(op)
        record["after_launch"] = sim.now
        yield from ctx.synchronize()
        record["after_sync"] = sim.now

    drive(sim, run())
    assert record["after_launch"] < 1e-4  # returned before the kernel ran
    assert record["after_sync"] >= 5e-3


def test_blocking_memcpy_waits(sim):
    ctx, _ = make_ctx(sim)
    nbytes = int(16e9 * 1e-3)
    record = {}

    def run():
        yield from ctx.memcpy(nbytes, MemoryOpKind.MEMCPY_H2D, blocking=True)
        record["t"] = sim.now

    drive(sim, run())
    assert record["t"] >= 1e-3


def test_async_memcpy_returns_immediately(sim):
    ctx, _ = make_ctx(sim)
    nbytes = int(16e9 * 1e-3)
    record = {}

    def run():
        yield from ctx.memcpy(nbytes, MemoryOpKind.MEMCPY_H2D, blocking=False)
        record["t"] = sim.now
        yield from ctx.synchronize()
        record["sync"] = sim.now

    drive(sim, run())
    assert record["t"] < 1e-4
    assert record["sync"] >= 1e-3


def test_memcpy_rejects_non_transfer(sim):
    ctx, _ = make_ctx(sim)

    def run():
        yield from ctx.memcpy(100, MemoryOpKind.MALLOC)

    spawn(sim, run())
    with pytest.raises(ValueError):
        sim.run()


def test_malloc_blocks_until_sync(sim):
    ctx, _ = make_ctx(sim)
    record = {}

    def run():
        yield from ctx.malloc(1024)
        record["t"] = sim.now

    drive(sim, run())
    assert record["t"] >= V100_16GB.device_sync_latency


def test_synchronize_with_nothing_outstanding(sim):
    ctx, _ = make_ctx(sim)

    def run():
        yield from ctx.synchronize()
        yield Timeout(0.0)

    p = drive(sim, run())
    assert p.triggered


def test_outstanding_prune_is_bounded_and_amortized(sim):
    # 200 ops in flight, refilled one per completion: the outstanding
    # list stays within twice the live ops, and is rebuilt only when it
    # doubles rather than on every issue.
    ctx, _ = make_ctx(sim)
    seen = {"max_ratio_ok": True, "rebuilds": 0, "issues": 0}

    def launch(i):
        before = ctx._outstanding
        done = yield from ctx.launch_kernel(
            make_kernel(memory_spec(f"k{i}", duration=1e-5)))
        live = sum(not s.triggered for s in ctx._outstanding)
        if len(ctx._outstanding) > max(32, 2 * live) + 1:
            seen["max_ratio_ok"] = False
        seen["rebuilds"] += ctx._outstanding is not before
        seen["issues"] += 1
        return done

    def run():
        dones = []
        for i in range(200):
            dones.append((yield from launch(i)))
        for i in range(200, 1200):
            yield dones[i - 200]
            dones.append((yield from launch(i)))
        yield from ctx.synchronize()

    drive(sim, run())
    assert seen["issues"] == 1200 and seen["max_ratio_ok"]
    assert seen["rebuilds"] <= 10


def test_synchronize_yields_untriggered_signals_in_issue_order(sim):
    ctx, _ = make_ctx(sim)
    observed = {}

    def run():
        dones = []
        for i in range(200):
            dones.append((yield from ctx.launch_kernel(
                make_kernel(memory_spec(f"k{i}", duration=1e-5)))))
            if i == 150:
                yield dones[100]  # let a prefix complete
        expected = [d for d in dones if not d.triggered]
        sync = ctx.synchronize()
        yielded = []
        try:
            target = next(sync)
            while True:
                yielded.append(target)
                yield target
                target = sync.send(None)
        except StopIteration:
            pass
        observed["ok"] = (len(expected) < 200 and len(yielded) == len(expected)
                          and all(a is b for a, b in zip(yielded, expected)))

    drive(sim, run())
    assert observed["ok"]


# ----------------------------------------------------------------------
# Direct backends
# ----------------------------------------------------------------------
def test_direct_backend_one_stream_per_client(sim):
    device = GpuDevice(sim, V100_16GB)
    backend = DirectStreamBackend(sim, device)
    backend.register_client("a", high_priority=False, kind="inference")
    backend.register_client("b", high_priority=True, kind="training")
    assert len(device.streams) == 2


def test_direct_backend_priority_mapping(sim):
    device = GpuDevice(sim, V100_16GB)
    backend = DirectStreamBackend(sim, device, use_priorities=True)
    backend.register_client("hp", high_priority=True, kind="inference")
    backend.register_client("be", high_priority=False, kind="inference")
    priorities = {s.name: s.priority for s in device.streams}
    assert priorities["hp-stream"] == 1
    assert priorities["be-stream"] == 0


def test_duplicate_client_rejected(sim):
    device = GpuDevice(sim, V100_16GB)
    backend = DirectStreamBackend(sim, device)
    backend.register_client("a", high_priority=False, kind="inference")
    with pytest.raises(ValueError):
        backend.register_client("a", high_priority=False, kind="inference")


def test_bad_job_kind_rejected(sim):
    device = GpuDevice(sim, V100_16GB)
    backend = DirectStreamBackend(sim, device)
    with pytest.raises(ValueError):
        backend.register_client("a", high_priority=False, kind="mystery")


def test_dedicated_backend_one_device_per_client(sim):
    backend = DedicatedBackend(sim, lambda: GpuDevice(sim, V100_16GB))
    backend.register_client("a", high_priority=True, kind="inference")
    backend.register_client("b", high_priority=False, kind="training")
    assert len(backend.devices()) == 2
    assert backend.device_for("a") is not backend.device_for("b")
