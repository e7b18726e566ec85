"""Orion's best-effort admission policy — one pure decision function.

:func:`be_block_reason` is the single copy of every rule that decides
whether the best-effort op at the head of a client's software queue may
launch now.  The scheduler calls it on each re-evaluation and the unit
tests call it directly, so the rule that runs is the rule that is
tested.  Rules, in the order they are checked:

* suspension   — the SLO guard's emergency brake admits nothing;
* PCIe hold    — a queued best-effort host<->device copy waits while a
  high-priority transfer owns the bus (§5.1.3 extension);
* prefill rule — while the high-priority client is in a declared
  ``"prefill"`` phase with work in flight, no best-effort kernel is
  admitted (§7 phase hints);
* duration rule — outstanding (submitted but unfinished) best-effort
  work is capped at DUR_THRESHOLD x the high-priority request latency,
  because submitted kernels cannot be preempted (Listing 1 lines
  12-16);
* SM rule      — the best-effort kernel must need fewer SMs than
  SM_THRESHOLD so it cannot starve high-priority thread blocks;
* profile rule — a best-effort kernel may co-run only if its
  compute/memory profile differs from the current high-priority
  kernel's (unknown profiles are optimistically allowed, §5.2).

The SM and profile rules are Listing 1's ``schedule_be``; the Figure-14
ablations switch rules off through :class:`PolicyConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.kernels.kernel import ResourceProfile
from repro.profiler.profiles import KernelProfile

__all__ = ["PolicyConfig", "have_different_profiles", "be_block_reason"]

# Paper default: 2.5% of the high-priority request latency (§6.4).
DEFAULT_DUR_THRESHOLD_FRAC = 0.025


@dataclass
class PolicyConfig:
    """Tunables and ablation switches of the Orion policy.

    ``protect_prefill`` (phase-aware scheduling, §7 extension): while
    the high-priority client has declared a ``"prefill"`` phase and its
    work is in flight, no best-effort kernel is admitted at all — the
    compute-bound prefill gets the whole GPU so TTFT stays flat, while
    decode phases fall back to the resource-aware rules (which happily
    collocate the memory-bound decode with compute-heavy best-effort
    kernels).  Inert for workloads that never declare a prefill phase.
    """

    # None -> use the device's total SM count (paper default).
    sm_threshold: Optional[int] = None
    dur_threshold_frac: float = DEFAULT_DUR_THRESHOLD_FRAC
    # Ablation switches (Figure 14).
    use_profiles: bool = True
    use_sm_limit: bool = True
    use_dur_throttle: bool = True
    use_stream_priorities: bool = True
    protect_prefill: bool = True

    def __post_init__(self):
        if self.sm_threshold is not None and self.sm_threshold < 0:
            raise ValueError("sm_threshold must be >= 0")
        if not (0 < self.dur_threshold_frac <= 1):
            raise ValueError("dur_threshold_frac must be in (0, 1]")


def have_different_profiles(hp: ResourceProfile, be: ResourceProfile) -> bool:
    """True when collocation is low-interference by the roofline classes.

    Unknown kernels are tiny and freely collocatable (paper §5.2).
    """
    if ResourceProfile.UNKNOWN in (hp, be):
        return True
    return hp is not be


def be_block_reason(
    config: PolicyConfig,
    be_kernel: Optional[KernelProfile],
    outstanding: float,
    hp_request_latency: float,
    sm_threshold: int,
    hp_task_running: bool,
    hp_profile: Optional[ResourceProfile] = None,
    suspended: bool = False,
    hp_transfer_active: bool = False,
    hp_prefill: bool = False,
) -> Optional[str]:
    """Why the best-effort op at the head of a queue may not launch now.

    Returns ``"suspended"``, ``"pcie_hold"``, ``"prefill_protect"``,
    ``"dur_threshold"`` or ``"policy"``, or None to admit the op.
    ``be_kernel`` is the kernel's profile, or None when the op is a
    queued host<->device copy (only the suspension and PCIe rules
    apply to those).  ``outstanding`` is this client's submitted but
    unfinished best-effort work in seconds; ``hp_profile`` is the
    profile of the high-priority kernel on the GPU now (None counts as
    unknown); ``hp_prefill`` says the high-priority client declared a
    ``"prefill"`` phase.

    Extension over the listing's duration rule (documented in
    DESIGN.md): while a high-priority task is ongoing, a kernel whose
    *own* expected duration exceeds the whole budget is deferred, so a
    single long kernel cannot slip under an empty budget and then hold
    the GPU past the high-priority job's latency target.  With the
    high-priority job idle the listing applies unchanged.
    """
    if suspended:
        return "suspended"
    if be_kernel is None:
        return "pcie_hold" if hp_transfer_active else None
    if hp_task_running and hp_prefill and config.protect_prefill:
        return "prefill_protect"
    if config.use_dur_throttle:
        budget = config.dur_threshold_frac * hp_request_latency
        if outstanding > budget or (
                hp_task_running and be_kernel.duration > budget):
            return "dur_threshold"
    if hp_task_running:
        if config.use_sm_limit and be_kernel.sm_needed >= sm_threshold:
            return "policy"
        if config.use_profiles:
            current = hp_profile if hp_profile is not None \
                else ResourceProfile.UNKNOWN
            if not have_different_profiles(current, be_kernel.profile):
                return "policy"
    return None
