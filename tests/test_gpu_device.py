"""Unit tests for the GPU device: streams, dispatch, priorities,
non-preemption, memory semantics, events, telemetry."""

import pytest

from repro.gpu.cuda_events import CudaEvent
from repro.gpu.device import GpuDevice
from repro.gpu.specs import V100_16GB
from repro.kernels.kernel import MemoryOp, MemoryOpKind
from repro.sim.engine import Simulator
from repro.sim.process import Timeout, spawn

from helpers import compute_spec, memory_spec, make_kernel, tiny_spec


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def device(sim):
    return GpuDevice(sim, V100_16GB)


def drive(sim, gen):
    p = spawn(sim, gen)
    sim.run()
    return p


def test_stream_executes_kernel(sim, device):
    stream = device.create_stream()
    op = make_kernel(compute_spec())
    times = {}

    def run():
        done = stream.submit(op)
        yield done
        times["end"] = sim.now

    drive(sim, run())
    assert times["end"] == pytest.approx(op.duration)
    assert device.kernels_completed == 1


def test_stream_is_fifo(sim, device):
    stream = device.create_stream()
    finish_order = []

    def run():
        first = stream.submit(make_kernel(compute_spec("long", duration=2e-3)))
        second = stream.submit(make_kernel(compute_spec("short", duration=1e-4)))
        first.add_callback(lambda _s: finish_order.append("long"))
        second.add_callback(lambda _s: finish_order.append("short"))
        yield second

    drive(sim, run())
    assert finish_order == ["long", "short"]


def test_one_in_flight_op_per_stream(sim, device):
    stream = device.create_stream()

    def run():
        stream.submit(make_kernel(compute_spec("a")))
        stream.submit(make_kernel(compute_spec("b")))
        yield Timeout(1e-4)
        assert len(device.running) == 1
        yield stream.synchronize_signal()

    drive(sim, run())


def test_two_streams_run_concurrently(sim, device):
    s1, s2 = device.create_stream(), device.create_stream()

    def run():
        s1.submit(make_kernel(compute_spec("a", sms=100)))
        s2.submit(make_kernel(memory_spec("b")))
        yield Timeout(1e-4)
        assert len(device.running) == 2
        yield s1.synchronize_signal()
        yield s2.synchronize_signal()

    drive(sim, run())


def test_collocation_of_opposite_profiles_overlaps(sim, device):
    s1, s2 = device.create_stream(), device.create_stream()
    c = make_kernel(compute_spec("c", duration=1e-3))
    m = make_kernel(memory_spec("m", duration=1e-3))
    end = {}

    def run():
        d1, d2 = s1.submit(c), s2.submit(m)
        yield d1
        yield d2
        end["t"] = sim.now

    drive(sim, run())
    sequential = c.duration + m.duration
    assert end["t"] < sequential * 0.9


def test_sm_admission_cap_blocks_third_big_kernel(sim, device):
    streams = [device.create_stream() for _ in range(3)]
    big = compute_spec("big", duration=1e-3, sms=640)  # 80 SMs each

    def run():
        for s in streams:
            s.submit(make_kernel(big))
        yield Timeout(1e-5)
        # Cap = 2.0 x 80 SMs: two resident, third waits.
        assert len(device.running) == 2
        for s in streams:
            yield s.synchronize_signal()

    drive(sim, run())


def test_priority_stream_dispatches_first(sim, device):
    hp = device.create_stream(priority=1)
    be = device.create_stream(priority=0)
    big = compute_spec("big", duration=1e-3, sms=640)
    blocker = device.create_stream()
    order = []

    def run():
        # Fill the device so both arrivals must queue.
        b1 = blocker.submit(make_kernel(big))
        b2 = blocker.submit(make_kernel(big))
        yield Timeout(1e-5)
        done_be = be.submit(make_kernel(big))
        done_hp = hp.submit(make_kernel(big))
        done_be.add_callback(lambda _s: order.append("be"))
        done_hp.add_callback(lambda _s: order.append("hp"))
        yield done_be
        yield done_hp

    drive(sim, run())
    assert order == ["hp", "be"]


def test_running_kernel_is_not_preempted(sim, device):
    hp = device.create_stream(priority=1)
    be = device.create_stream(priority=0)
    big = compute_spec("big", duration=2e-3, sms=640)
    record = {}

    def run():
        be_done = be.submit(make_kernel(big))
        be2_done = be.submit(make_kernel(big))
        yield Timeout(1e-5)
        hp_done = hp.submit(make_kernel(big))
        yield be_done
        record["be1"] = sim.now
        yield hp_done
        record["hp"] = sim.now
        yield be2_done
        record["be2"] = sim.now

    drive(sim, run())
    # HP arrived while two BE kernels were committed.  The in-flight BE
    # kernel was never preempted: HP had to timeshare with it, finishing
    # no earlier than BE1 and far later than its 2 ms solo time.
    assert record["be1"] <= record["hp"]
    assert record["hp"] > 3e-3
    # The second committed BE kernel ran after HP completed.
    assert record["be2"] > record["hp"]


def test_malloc_synchronizes_device(sim, device):
    stream = device.create_stream()
    other = device.create_stream()
    record = {}

    def run():
        other.submit(make_kernel(compute_spec("busy", duration=1e-3)))
        yield Timeout(1e-5)
        malloc_done = stream.submit(
            MemoryOp(kind=MemoryOpKind.MALLOC, nbytes=1024)
        )
        yield malloc_done
        record["malloc"] = sim.now

    drive(sim, run())
    # Malloc waited for the running kernel plus the sync latency.
    assert record["malloc"] >= 1e-3 + V100_16GB.device_sync_latency * 0.9


def test_malloc_blocks_subsequent_dispatch(sim, device):
    s1, s2 = device.create_stream(), device.create_stream()
    record = {}

    def run():
        s1.submit(MemoryOp(kind=MemoryOpKind.MALLOC, nbytes=1024))
        done = s2.submit(make_kernel(compute_spec("after", duration=1e-4)))
        yield done
        record["k"] = sim.now

    drive(sim, run())
    assert record["k"] >= V100_16GB.device_sync_latency


@pytest.mark.parametrize("pending_sync", [False, True])
def test_survivor_speeds_up_when_corunner_completes(sim, device,
                                                    pending_sync):
    """When a co-runner completes, the survivor runs at its solo rate
    from that instant on, both when the same-time dispatch pass admits
    nothing (the next kernel waits behind the survivor on its stream)
    and when the pass returns early behind a pending cudaMalloc."""
    s_a, s_b, s_sync = (device.create_stream() for _ in range(3))
    a = make_kernel(compute_spec("short", duration=1e-3))
    b = make_kernel(memory_spec("long", duration=3e-3))
    c = make_kernel(memory_spec("next", duration=1e-4))
    corun = device.contention.rates([a, b], {})
    solo = device.contention.rates([b], {})[b.seq]
    t_a = a.duration / corun[a.seq]
    assert t_a < b.duration / corun[b.seq]  # a finishes first
    # The device's own float steps: advance b to t_a at the co-run
    # rate, then finish the rest at the solo rate.
    expected_b = t_a + (b.duration - t_a * corun[b.seq]) / solo
    finished = {}

    def run():
        ops = {"a": s_a.submit(a), "b": s_b.submit(b), "c": s_b.submit(c)}
        if pending_sync:
            ops["sync"] = s_sync.submit(
                MemoryOp(kind=MemoryOpKind.MALLOC, nbytes=1024))
        for name, done in ops.items():
            done.add_callback(
                lambda _sig, name=name: finished.setdefault(name, sim.now))
        yield ops["c"]

    drive(sim, run())
    assert finished["a"] == t_a
    assert finished["b"] == expected_b
    assert finished["c"] > finished["b"]
    if pending_sync:
        # The sync waited for the device to drain.
        assert finished["b"] < finished["sync"] < finished["c"]


def test_blocking_h2d_copy_stalls_kernel_dispatch(sim, device):
    s1, s2 = device.create_stream(), device.create_stream()
    copy_bytes = int(16e9 * 1e-3)  # ~1 ms on a 16 GB/s bus
    record = {}

    def run():
        s1.submit(MemoryOp(kind=MemoryOpKind.MEMCPY_H2D, nbytes=copy_bytes,
                           blocking=True))
        yield Timeout(1e-5)
        done = s2.submit(make_kernel(compute_spec("k", duration=1e-4)))
        yield done
        record["k"] = sim.now

    drive(sim, run())
    assert record["k"] > 1e-3  # waited out the copy


def test_async_copy_does_not_stall_dispatch(sim, device):
    s1, s2 = device.create_stream(), device.create_stream()
    copy_bytes = int(16e9 * 1e-3)
    record = {}

    def run():
        s1.submit(MemoryOp(kind=MemoryOpKind.MEMCPY_H2D, nbytes=copy_bytes,
                           blocking=False))
        yield Timeout(1e-5)
        done = s2.submit(make_kernel(compute_spec("k", duration=1e-4)))
        yield done
        record["k"] = sim.now

    drive(sim, run())
    assert record["k"] < 5e-4


def test_memset_completes(sim, device):
    stream = device.create_stream()

    def run():
        done = stream.submit(MemoryOp(kind=MemoryOpKind.MEMSET, nbytes=10**6))
        yield done

    p = drive(sim, run())
    assert p.triggered


def test_cuda_event_tracks_stream_progress(sim, device):
    stream = device.create_stream()
    event = CudaEvent("probe")
    checks = {}

    def run():
        stream.submit(make_kernel(compute_spec("k", duration=1e-3)))
        event.record(stream)
        checks["immediately"] = event.query()
        yield Timeout(2e-3)
        checks["after"] = event.query()

    drive(sim, run())
    assert checks["immediately"] is False
    assert checks["after"] is True
    assert event.completed_at == pytest.approx(1e-3, rel=0.01)


def test_unrecorded_event_queries_true():
    assert CudaEvent().query() is True


def test_event_rerecord_supersedes(sim, device):
    stream = device.create_stream()
    event = CudaEvent()

    def run():
        stream.submit(make_kernel(compute_spec("k1", duration=1e-3)))
        event.record(stream)
        yield Timeout(2e-3)
        stream.submit(make_kernel(compute_spec("k2", duration=1e-3)))
        event.record(stream)
        assert event.query() is False
        yield Timeout(2e-3)
        assert event.query() is True

    p = drive(sim, run())
    assert p.triggered


def test_utilization_segments_recorded(sim):
    device = GpuDevice(sim, V100_16GB, record_utilization=True)
    stream = device.create_stream()

    def run():
        done = stream.submit(make_kernel(compute_spec("k", duration=1e-3)))
        yield done

    drive(sim, run())
    assert device.utilization_segments
    busy = [s for s in device.utilization_segments if s[2] > 0]
    assert busy
    total_busy = sum(s[1] - s[0] for s in busy)
    assert total_busy == pytest.approx(1e-3, rel=0.05)


def test_kernel_busy_time_accumulates(sim, device):
    stream = device.create_stream()

    def run():
        done = stream.submit(make_kernel(compute_spec("k", duration=2e-3)))
        yield done

    drive(sim, run())
    assert device.kernel_busy_time == pytest.approx(2e-3, rel=0.01)


def test_synchronize_signal_waits_for_all_streams(sim, device):
    s1, s2 = device.create_stream(), device.create_stream()
    record = {}

    def run():
        s1.submit(make_kernel(compute_spec("a", duration=1e-3)))
        s2.submit(make_kernel(memory_spec("b", duration=2e-3)))
        yield device.synchronize_signal()
        record["t"] = sim.now

    drive(sim, run())
    assert record["t"] >= 2e-3


def test_tiny_kernels_complete(sim, device):
    stream = device.create_stream()

    def run():
        for i in range(50):
            done = stream.submit(make_kernel(tiny_spec(f"t{i}")))
        yield done

    p = drive(sim, run())
    assert p.triggered
    assert device.kernels_completed == 50
