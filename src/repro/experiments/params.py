"""Typed per-kind scenario parameters: the one definition of each knob.

Each params-kind scenario family (overload, faults, fleet, llm) has a
frozen dataclass here that holds every knob's name, default and range
check.  The family's ``simulate`` takes that dataclass as its only
argument, so there is no second copy of the surface to keep in step.
:func:`validate_params` is invoked from ``Scenario.__post_init__`` so
**every** construction path (CLI ``--set`` and ``make_scenario``
overrides, serve-daemon submits, hand-built scenarios) fails fast on
unknown keys, out-of-range values, unknown model or device names and
fault plans that target something the run does not have.

A ``Scenario`` carries the sparse override dict (``to_params()``
renders one: only non-default fields); ``Scenario.config`` builds the
dataclass from it with the defaults filled in.
"""

from __future__ import annotations

import functools
import numbers
import typing
from dataclasses import MISSING, dataclass, fields
from typing import Any, Dict, Mapping, Optional

__all__ = [
    "OverloadParams",
    "FaultsParams",
    "FleetParams",
    "LlmParams",
    "PARAM_TYPES",
    "SHARED_GPU_BACKENDS",
    "LLM_BACKENDS",
    "validate_params",
]

#: Backends the faults and fleet families run on (one shared device per
#: GPU), and those the LLM serving family runs on; the families pass
#: these to ``make_backend(choices=...)``.
SHARED_GPU_BACKENDS = ("orion", "reef", "streams", "priority-streams")
LLM_BACKENDS = ("orion", "temporal", "streams", "priority-streams")

# Kept as literals (not imports) so scenario construction stays light.
_OVERLOAD_POLICIES = ("block", "reject")
_CACHE_POLICIES = ("evict", "block")
_OVERLOAD_ARRIVALS = ("poisson", "burst", "ramp")
_PLACEMENTS = ("all", "plan", "adversarial")


@functools.lru_cache(maxsize=None)
def _field_types(cls) -> Dict[str, Any]:
    return typing.get_type_hints(cls)


def _type_ok(value, hint) -> bool:
    """Whether ``value`` fits a field annotated ``hint``: an int fills a
    float field, a bool fills neither a float nor an int field."""
    if hint is object:
        return True
    if typing.get_origin(hint) is typing.Union:
        return any(_type_ok(value, arg) for arg in typing.get_args(hint))
    if hint in (int, float):
        number = numbers.Integral if hint is int else numbers.Real
        return isinstance(value, number) and not isinstance(value, bool)
    return isinstance(value, hint)


def _type_name(hint) -> str:
    return hint.__name__ if isinstance(hint, type) \
        else str(hint).replace("typing.", "")


class _ParamsBase:
    """Shared machinery: sparse rendering, type and range checks."""

    def to_params(self) -> Dict[str, Any]:
        """Sparse params dict: only fields that differ from defaults."""
        out: Dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            default = f.default if f.default is not MISSING else MISSING
            if default is MISSING or value != default:
                out[f.name] = value
        return out

    def _check_types(self) -> None:
        """Reject a knob whose value does not match its annotation, so
        ``be_clients=1.5`` fails at construction, not inside the run."""
        for name, hint in _field_types(type(self)).items():
            value = getattr(self, name)
            if not _type_ok(value, hint):
                raise ValueError(f"{name} must be {_type_name(hint)}, "
                                 f"got {value!r}")

    def _require_positive(self, *names: str) -> None:
        for name in names:
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive, got {value!r}")

    def _require_non_negative(self, *names: str) -> None:
        for name in names:
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0, got {value!r}")

    def _require_choice(self, name: str, choices) -> None:
        value = getattr(self, name)
        if value not in choices:
            raise ValueError(f"{name} must be one of {choices}, got {value!r}")

    def _require_device(self) -> None:
        from repro.gpu.specs import DEVICES

        self._require_choice("device", tuple(sorted(DEVICES)))

    def _require_workload(self, name: str, llm: bool = False) -> None:
        """Check field ``name`` names a registered DNN (or, with ``llm``,
        LLM) workload: the lookup the run would make, made up front."""
        from repro.workloads.registry import get_workload

        try:
            workload = get_workload(getattr(self, name))
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None
        if (getattr(workload, "config", None) is not None) != llm:
            family = "an LLM" if llm else "a DNN (not LLM)"
            raise ValueError(f"{name} must be {family} workload; "
                             f"{workload.name!r} is {'not ' if llm else ''}"
                             "an LLM workload")

    def _require_plan(self) -> None:
        from repro.faults.plan import FaultPlan

        if self.plan is not None and not isinstance(self.plan, FaultPlan):
            raise ValueError(f"plan must be a FaultPlan, "
                             f"got {type(self.plan).__name__}")


@dataclass(frozen=True)
class OverloadParams(_ParamsBase):
    """Knobs of ``Scenario(kind="overload")`` (see experiments.overload)."""

    seed: int = 0
    duration: float = 0.4
    model: str = "mobilenet_v2"
    device: str = "V100-16GB"
    be_clients: int = 2
    hp_load: float = 0.3
    be_load: float = 2.0
    arrivals: str = "poisson"
    deadline_mult: Optional[float] = 20.0
    slo_mult: float = 1.2
    guard: bool = True
    queue_depth: Optional[int] = 32
    policy: str = "block"
    initial_dur_frac: float = 0.35
    warmup: float = 0.0
    telemetry: Optional[object] = None

    def __post_init__(self):
        self._check_types()
        self._require_positive("duration", "hp_load", "slo_mult",
                               "deadline_mult", "queue_depth",
                               "initial_dur_frac")
        self._require_non_negative("be_clients", "be_load", "warmup")
        self._require_choice("policy", _OVERLOAD_POLICIES)
        self._require_choice("arrivals", _OVERLOAD_ARRIVALS)
        self._require_device()
        self._require_workload("model")


@dataclass(frozen=True)
class FaultsParams(_ParamsBase):
    """Knobs of ``Scenario(kind="faults")`` (see faults.scenario)."""

    seed: int = 0
    duration: float = 0.2
    plan: Optional[object] = None   #: FaultPlan; None kills be-0 at 40%
    backend: str = "orion"
    be_clients: int = 2
    model: str = "mobilenet_v2"
    device: str = "V100-16GB"
    hp_rps: float = 100.0
    watchdog_multiple: Optional[float] = None
    warmup: float = 0.0

    def __post_init__(self):
        from repro.faults.plan import KillClient

        self._check_types()
        self._require_positive("duration", "hp_rps", "watchdog_multiple")
        self._require_non_negative("be_clients", "warmup")
        self._require_choice("backend", SHARED_GPU_BACKENDS)
        self._require_device()
        self._require_workload("model")
        self._require_plan()
        targets = {"hp"} | {f"be-{i}" for i in range(self.be_clients)}
        for event in self.fault_plan():
            if isinstance(event, KillClient) and event.client not in targets:
                raise ValueError(
                    f"fault plan targets unknown client {event.client!r}; "
                    f"this scenario has {sorted(targets)}")

    def fault_plan(self):
        """The plan the run injects: ``plan``, or by default a kill of
        ``be-0`` at 40% of the horizon (the paper-style "BE job dies, HP
        job must not notice" experiment)."""
        from repro.faults.plan import FaultPlan, KillClient

        if self.plan is not None:
            return self.plan
        return FaultPlan((KillClient("be-0", at_time=self.duration * 0.4),))


@dataclass(frozen=True)
class FleetParams(_ParamsBase):
    """Knobs of ``Scenario(kind="fleet")`` (see cluster.fleet)."""

    seed: int = 0
    duration: float = 0.2
    num_gpus: int = 8
    backend: str = "orion"
    model: str = "mobilenet_v2"
    device: str = "V100-16GB"
    tenants: Optional[object] = None  #: Sequence[TenantSpec]
    plan: Optional[object] = None     #: FaultPlan; None samples from seed
    crashes: int = 1
    degrades: int = 1
    slowdown: float = 3.0
    recover_after: Optional[float] = None
    hp_load: float = 0.25
    be_load: float = 0.35
    be_tenants: int = 2
    interference_weight: float = 1.0
    health_weight: float = 4.0
    warmup: float = 0.0
    telemetry: Optional[object] = None
    placement: object = "all"
    max_tenants_per_gpu: int = 2
    rebalance: bool = False
    rebalance_interval: float = 0.02
    migration_cooldown: float = 0.04
    max_inflight_migrations: int = 1
    migration_min_gain: float = 0.05
    migration_cost_weight: float = 1.0
    measure_window: int = 32
    measure_min_samples: int = 8

    def __post_init__(self):
        self._check_types()
        self._require_tenants()
        self._require_positive("duration", "num_gpus", "slowdown",
                               "recover_after", "rebalance_interval",
                               "max_tenants_per_gpu", "measure_window",
                               "measure_min_samples")
        self._require_non_negative("crashes", "degrades", "be_tenants",
                                   "warmup", "hp_load", "be_load",
                                   "migration_cooldown",
                                   "max_inflight_migrations",
                                   "migration_min_gain")
        self._require_choice("backend", SHARED_GPU_BACKENDS)
        if isinstance(self.placement, str):
            self._require_choice("placement", _PLACEMENTS)
        elif not isinstance(self.placement, dict):
            raise ValueError(
                f"placement must be one of {_PLACEMENTS} or a tenant->gpu "
                f"mapping, got {self.placement!r}")
        self._require_device()
        self._require_workload("model")
        self._require_plan()
        if self.plan is not None:
            from repro.faults.plan import GpuCrash, GpuDegrade, GpuRecover

            non_fleet = [ev for ev in self.plan if not isinstance(
                ev, (GpuCrash, GpuDegrade, GpuRecover))]
            if non_fleet:
                raise ValueError(
                    "fleet scenarios accept only GPU-level fault events "
                    f"(GpuCrash/GpuDegrade/GpuRecover); got {non_fleet[0]!r}")
            if self.plan.max_gpu_index() >= self.num_gpus:
                raise ValueError(
                    f"fault plan targets gpu {self.plan.max_gpu_index()} but "
                    f"the fleet has only {self.num_gpus} GPUs")

    def _require_tenants(self) -> None:
        if self.tenants is None:
            return
        from repro.cluster.fleet import TenantSpec

        if not isinstance(self.tenants, (list, tuple)) or not all(
                isinstance(t, TenantSpec) for t in self.tenants):
            raise ValueError(f"tenants must be a sequence of TenantSpec, "
                             f"got {self.tenants!r}")


@dataclass(frozen=True)
class LlmParams(_ParamsBase):
    """Knobs of ``Scenario(kind="llm")`` (see workloads.llmserve)."""

    seed: int = 0
    duration: float = 0.2
    model: str = "llm-small"
    device: str = "V100-16GB"
    backend: str = "orion"
    request_rate: float = 80.0
    prompt_mean: float = 64.0
    prompt_cap: int = 256
    output_mean: float = 8.0
    output_cap: int = 64
    max_batch: int = 8
    kv_budget_mb: Optional[float] = None
    kv_block_tokens: int = 16
    cache_policy: str = "evict"
    be_model: str = "mobilenet_v2"
    be_clients: int = 1
    protect_prefill: bool = True
    ttft_slo_mult: float = 3.0
    warmup: float = 0.0
    telemetry: Optional[object] = None

    def __post_init__(self):
        self._check_types()
        self._require_positive("duration", "request_rate", "prompt_mean",
                               "prompt_cap", "output_mean", "output_cap",
                               "max_batch", "kv_budget_mb",
                               "kv_block_tokens", "ttft_slo_mult")
        self._require_non_negative("be_clients", "warmup")
        self._require_choice("cache_policy", _CACHE_POLICIES)
        self._require_choice("backend", LLM_BACKENDS)
        self._require_device()
        self._require_workload("model", llm=True)
        self._require_workload("be_model")
        if self.prompt_mean > self.prompt_cap:
            raise ValueError("prompt_mean must be <= prompt_cap")
        if self.output_mean > self.output_cap:
            raise ValueError("output_mean must be <= output_cap")


#: kind -> typed params dataclass (experiment scenarios carry an
#: ExperimentConfig instead and are validated by it).
PARAM_TYPES = {
    "overload": OverloadParams,
    "faults": FaultsParams,
    "fleet": FleetParams,
    "llm": LlmParams,
}


def validate_params(kind: str, params: Mapping[str, Any]):
    """Build ``kind``'s typed params from ``params``, failing fast on
    unknown or out-of-range knobs; None for a kind without typed params.

    Raises ``ValueError`` naming the offending key (with the valid
    surface) or the out-of-range value.  Does not mutate or expand
    ``params`` — scenarios keep carrying sparse override dicts.
    """
    cls = PARAM_TYPES.get(kind)
    if cls is None:
        return None
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(params) - known)
    if unknown:
        raise ValueError(
            f"unknown {kind} scenario parameter(s) {', '.join(unknown)}; "
            f"valid: {', '.join(sorted(known))}")
    return cls(**params)  # range/choice checks in __post_init__
