"""Unit tests for Orion's best-effort admission rule (Listing 1).

Every case calls :func:`be_block_reason`, the one function the
scheduler runs on each re-evaluation.
"""

import pytest

from repro.core.policy import (
    DEFAULT_DUR_THRESHOLD_FRAC,
    PolicyConfig,
    be_block_reason,
    have_different_profiles,
)
from repro.kernels.kernel import ResourceProfile
from repro.profiler.profiles import KernelProfile

C = ResourceProfile.COMPUTE
M = ResourceProfile.MEMORY
U = ResourceProfile.UNKNOWN
HP_LATENCY = 10e-3  # duration budget = 250 us at the paper default


def be_kernel(profile=M, sm=10, duration=1e-4):
    return KernelProfile("be-k", duration, 0.5, 0.5, sm, profile)


def reason(be=None, hp_running=True, hp_profile=C, config=None,
           outstanding=0.0, hp_latency=HP_LATENCY, sm_threshold=80,
           **state):
    """be_block_reason with defaults: HP running a compute kernel, an
    empty best-effort pipeline, 80 SMs."""
    return be_block_reason(config or PolicyConfig(), be, outstanding,
                           hp_latency, sm_threshold, hp_running, hp_profile,
                           **state)


def schedule_be(hp_running, hp_profile, kernel, sm_threshold, config):
    """Listing 1's schedule_be verdict: admitted, or blocked by the SM
    or profile rule."""
    verdict = reason(kernel, hp_running, hp_profile, config,
                     sm_threshold=sm_threshold)
    assert verdict in (None, "policy")
    return verdict is None


def duration_throttled(outstanding, hp_latency, config):
    """Listing 1 lines 12-16 verdict, with the HP job idle."""
    verdict = reason(be_kernel(), hp_running=False, config=config,
                     outstanding=outstanding, hp_latency=hp_latency)
    assert verdict in (None, "dur_threshold")
    return verdict == "dur_threshold"


# ----------------------------------------------------------------------
# have_different_profiles
# ----------------------------------------------------------------------
@pytest.mark.parametrize("hp,be,expected", [
    (C, C, False),
    (M, M, False),
    (C, M, True),
    (M, C, True),
    (U, C, True),
    (U, M, True),
    (C, U, True),
    (M, U, True),
    (U, U, True),
])
def test_profile_compatibility_table(hp, be, expected):
    assert have_different_profiles(hp, be) is expected


# ----------------------------------------------------------------------
# SM and profile rules (Listing 1's schedule_be)
# ----------------------------------------------------------------------
def test_be_allowed_when_hp_idle_regardless_of_profile():
    config = PolicyConfig()
    assert schedule_be(False, C, be_kernel(C, sm=1000), 80, config)


def test_be_blocked_same_profile_while_hp_running():
    config = PolicyConfig()
    assert not schedule_be(True, C, be_kernel(C, sm=10), 80, config)


def test_be_allowed_opposite_profile_small_kernel():
    config = PolicyConfig()
    assert schedule_be(True, C, be_kernel(M, sm=10), 80, config)


def test_be_blocked_by_sm_threshold():
    config = PolicyConfig()
    assert not schedule_be(True, C, be_kernel(M, sm=80), 80, config)


def test_sm_threshold_is_strict_inequality():
    config = PolicyConfig()
    assert schedule_be(True, C, be_kernel(M, sm=79), 80, config)
    assert not schedule_be(True, C, be_kernel(M, sm=80), 80, config)


def test_unknown_be_profile_is_optimistically_allowed():
    config = PolicyConfig()
    assert schedule_be(True, C, be_kernel(U, sm=10), 80, config)
    assert schedule_be(True, M, be_kernel(U, sm=10), 80, config)


def test_unknown_hp_profile_allows_any_be():
    config = PolicyConfig()
    assert schedule_be(True, None, be_kernel(C, sm=10), 80, config)


def test_ablation_disable_profiles():
    config = PolicyConfig(use_profiles=False)
    assert schedule_be(True, C, be_kernel(C, sm=10), 80, config)


def test_ablation_disable_sm_limit():
    config = PolicyConfig(use_sm_limit=False)
    assert schedule_be(True, C, be_kernel(M, sm=500), 80, config)


def test_ablation_disable_both_admits_everything():
    config = PolicyConfig(use_profiles=False, use_sm_limit=False)
    assert schedule_be(True, C, be_kernel(C, sm=500), 80, config)


# ----------------------------------------------------------------------
# Duration rule (Listing 1 lines 12-16)
# ----------------------------------------------------------------------
def test_default_threshold_is_paper_value():
    assert DEFAULT_DUR_THRESHOLD_FRAC == 0.025


def test_throttled_above_budget():
    config = PolicyConfig()
    hp_latency = 10e-3  # budget = 250 us
    assert duration_throttled(300e-6, hp_latency, config)
    assert not duration_throttled(200e-6, hp_latency, config)


def test_budget_scales_with_hp_latency():
    config = PolicyConfig()
    assert not duration_throttled(1e-3, 100e-3, config)
    assert duration_throttled(1e-3, 10e-3, config)


def test_custom_threshold_fraction():
    config = PolicyConfig(dur_threshold_frac=0.2)
    assert not duration_throttled(1.9e-3, 10e-3, config)
    assert duration_throttled(2.1e-3, 10e-3, config)


def test_ablation_disable_throttle():
    config = PolicyConfig(use_dur_throttle=False)
    assert not duration_throttled(1e6, 1e-3, config)


def test_config_validation():
    with pytest.raises(ValueError):
        PolicyConfig(sm_threshold=-1)
    with pytest.raises(ValueError):
        PolicyConfig(dur_threshold_frac=0.0)
    with pytest.raises(ValueError):
        PolicyConfig(dur_threshold_frac=1.5)


# ----------------------------------------------------------------------
# Suspension, PCIe hold, prefill protection, and the order rules apply in
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kwargs,expected", [
    # The SLO guard's brake blocks kernels and copies, HP busy or idle.
    (dict(be=be_kernel(), suspended=True), "suspended"),
    (dict(be=be_kernel(), hp_running=False, suspended=True), "suspended"),
    (dict(be=None, suspended=True), "suspended"),
    (dict(be=None, suspended=True, hp_transfer_active=True), "suspended"),
    # A queued BE copy waits only while an HP transfer holds the bus.
    (dict(be=None, hp_transfer_active=True), "pcie_hold"),
    (dict(be=None), None),
    (dict(be=None, hp_profile=M, outstanding=1.0), None),
    # Prefill protection holds every BE kernel while HP work runs.
    (dict(be=be_kernel(), hp_prefill=True), "prefill_protect"),
    (dict(be=be_kernel(), hp_prefill=True, outstanding=1.0),
     "prefill_protect"),
    (dict(be=be_kernel(), hp_running=False, hp_prefill=True), None),
    (dict(be=be_kernel(), hp_prefill=True,
          config=PolicyConfig(protect_prefill=False)), None),
    (dict(be=be_kernel(), hp_transfer_active=True), None),
    # A kernel longer than the whole budget waits while HP runs.
    (dict(be=be_kernel(duration=300e-6)), "dur_threshold"),
    (dict(be=be_kernel(duration=300e-6), hp_running=False), None),
    # The duration rule is checked before the SM and profile rules.
    (dict(be=be_kernel(C, sm=500), outstanding=1.0), "dur_threshold"),
])
def test_block_reason_rules_and_order(kwargs, expected):
    assert reason(**kwargs) == expected
