"""Shared test fixtures: synthetic kernels and mini-workload builders."""

from __future__ import annotations

from repro.gpu.specs import V100_16GB, DeviceSpec
from repro.kernels.costmodel import instantiate_kernel
from repro.kernels.kernel import KernelOp, KernelSpec
from repro.kernels.launch import LaunchConfig

__all__ = [
    "compute_spec",
    "memory_spec",
    "tiny_spec",
    "make_kernel",
    "track_sweeps",
    "CONV_LIKE",
    "BN_LIKE",
]


def compute_spec(name: str = "compute-k", duration: float = 1e-3,
                 util: float = 0.85, sms: int = 640,
                 device: DeviceSpec = V100_16GB) -> KernelSpec:
    """A compute-bound kernel with ~``duration`` solo time on ``device``."""
    flops = device.peak_flops * util * duration
    return KernelSpec(
        name=name,
        flops=flops,
        bytes_moved=device.memory_bandwidth * 0.1 * duration,
        launch=LaunchConfig(num_blocks=sms, threads_per_block=256),
        compute_efficiency=min(1.0, util),
        memory_efficiency=1.0,
    )


def memory_spec(name: str = "memory-k", duration: float = 1e-3,
                util: float = 0.8, blocks: int = 128,
                device: DeviceSpec = V100_16GB) -> KernelSpec:
    """A memory-bound kernel with ~``duration`` solo time on ``device``."""
    nbytes = device.memory_bandwidth * util * duration
    return KernelSpec(
        name=name,
        flops=device.peak_flops * 0.05 * duration,
        bytes_moved=nbytes,
        launch=LaunchConfig(num_blocks=blocks, threads_per_block=512),
        compute_efficiency=1.0,
        memory_efficiency=min(1.0, util),
    )


def tiny_spec(name: str = "tiny-k") -> KernelSpec:
    """A kernel below the roofline-analysis duration (unknown profile)."""
    return KernelSpec(
        name=name,
        flops=1e5,
        bytes_moved=1e4,
        launch=LaunchConfig(num_blocks=2, threads_per_block=128),
    )


def make_kernel(spec: KernelSpec, device: DeviceSpec = V100_16GB,
                client_id: str = "test") -> KernelOp:
    return instantiate_kernel(spec, device, client_id=client_id)


# The Table 2 toy kernels (paper-quoted utilizations and solo times).
CONV_LIKE = KernelSpec(
    "table2-conv2d",
    flops=V100_16GB.peak_flops * 0.89 * 1.347e-3,
    bytes_moved=V100_16GB.memory_bandwidth * 0.20 * 1.347e-3,
    launch=LaunchConfig(num_blocks=640, threads_per_block=256),
    compute_efficiency=0.89,
    memory_efficiency=1.0,
)
BN_LIKE = KernelSpec(
    "table2-bn2d",
    flops=V100_16GB.peak_flops * 0.14 * 0.927e-3,
    bytes_moved=V100_16GB.memory_bandwidth * 0.80 * 0.927e-3,
    launch=LaunchConfig(num_blocks=128, threads_per_block=512),
    compute_efficiency=1.0,
    memory_efficiency=0.80,
)


def track_sweeps(backend) -> dict:
    """Wrap ``backend``'s direct-call scheduler sweep and wake on the
    instance: the record counts sweeps, their nesting depth and the
    wakes raised while a sweep runs."""
    depth = {"now": 0, "max": 0, "sweeps": 0, "inner_wakes": 0}
    sweep, wake = backend._sweep, backend._wake_scheduler

    def tracked_sweep():
        depth["now"] += 1
        depth["sweeps"] += 1
        depth["max"] = max(depth["max"], depth["now"])
        try:
            sweep()
        finally:
            depth["now"] -= 1

    def tracked_wake():
        depth["inner_wakes"] += depth["now"] > 0
        wake()

    backend._sweep = tracked_sweep
    backend._wake_scheduler = tracked_wake
    return depth
