"""Experiment catalog: config builders and the named-scenario registry.

Each config builder returns an :class:`ExperimentConfig` for one
(workload pair, backend) cell of a figure.  Rates come from Table 3;
batch sizes from Table 1 (via the model zoo defaults).

The bottom half of the module is the named-:class:`Scenario` catalog:
``make_scenario(name, seed=..., duration=..., **overrides)`` builds a
complete scenario description the CLI, the sweep engine, and the bench
harness all share.  Names ending in ``_ref`` are the pinned benchmark
references (fixed workloads and horizons, see DESIGN.md §6.4).
"""

from __future__ import annotations

import inspect
from dataclasses import fields
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.workloads.rates import rps_for

from .config import ExperimentConfig, JobSpec
from .params import PARAM_TYPES
from .scenario import Scenario

__all__ = [
    "inf_train_config",
    "train_train_config",
    "inf_inf_config",
    "multi_client_config",
    "solo_inference_config",
    "SCENARIOS",
    "make_scenario",
    "override_keys",
    "scenario_names",
    "scenario_catalog",
]

DEFAULT_DURATION = 4.0
DEFAULT_WARMUP = 0.5


def inf_train_config(hp_model: str, be_model: str, backend: str,
                     arrivals: str = "poisson",
                     duration: float = DEFAULT_DURATION,
                     warmup: float = DEFAULT_WARMUP,
                     seed: int = 0, **kwargs) -> ExperimentConfig:
    """§6.2.1: HP latency-sensitive inference + BE training."""
    rps = rps_for(hp_model, "inf_train_poisson")
    hp = JobSpec(model=hp_model, kind="inference", high_priority=True,
                 arrivals=arrivals, rps=rps if arrivals == "poisson" else 0.0)
    be = JobSpec(model=be_model, kind="training", high_priority=False)
    return ExperimentConfig(jobs=[hp, be], backend=backend, duration=duration,
                            warmup=warmup, seed=seed, **kwargs)


def train_train_config(hp_model: str, be_model: str, backend: str,
                       duration: float = DEFAULT_DURATION,
                       warmup: float = DEFAULT_WARMUP,
                       seed: int = 0, **kwargs) -> ExperimentConfig:
    """§6.2.2: HP training + BE training, both closed loop."""
    hp = JobSpec(model=hp_model, kind="training", high_priority=True)
    be = JobSpec(model=be_model, kind="training", high_priority=False)
    return ExperimentConfig(jobs=[hp, be], backend=backend, duration=duration,
                            warmup=warmup, seed=seed, **kwargs)


def inf_inf_config(hp_model: str, be_model: str, backend: str,
                   arrivals: str = "apollo",
                   duration: float = DEFAULT_DURATION,
                   warmup: float = DEFAULT_WARMUP,
                   seed: int = 0, **kwargs) -> ExperimentConfig:
    """§6.2.3: HP inference + BE offline inference.

    Apollo scenario: HP replays the (synthetic) Apollo trace, BE uses
    uniform arrivals at the Table 3 uniform rate.  Poisson scenario:
    both Poisson at the Table 3 Poisson rates.
    """
    if arrivals == "apollo":
        hp = JobSpec(model=hp_model, kind="inference", high_priority=True,
                     arrivals="apollo")
        be = JobSpec(model=be_model, kind="inference", high_priority=False,
                     arrivals="uniform", rps=rps_for(be_model, "inf_inf_uniform"))
    elif arrivals == "poisson":
        hp = JobSpec(model=hp_model, kind="inference", high_priority=True,
                     arrivals="poisson", rps=rps_for(hp_model, "inf_inf_poisson"))
        be = JobSpec(model=be_model, kind="inference", high_priority=False,
                     arrivals="poisson", rps=rps_for(be_model, "inf_inf_poisson"))
    else:
        raise ValueError(f"inf-inf arrivals must be apollo|poisson, got {arrivals!r}")
    return ExperimentConfig(jobs=[hp, be], backend=backend, duration=duration,
                            warmup=warmup, seed=seed, **kwargs)


def multi_client_config(hp_model: str, be_models: Sequence[str], backend: str,
                        device: str = "A100-40GB",
                        duration: float = DEFAULT_DURATION,
                        warmup: float = DEFAULT_WARMUP,
                        seed: int = 0, **kwargs) -> ExperimentConfig:
    """§6.3: one HP inference client + N BE inference clients (Figure 13)."""
    jobs: List[JobSpec] = [
        JobSpec(model=hp_model, kind="inference", high_priority=True,
                arrivals="poisson", rps=rps_for(hp_model, "inf_inf_poisson"))
    ]
    for index, model in enumerate(be_models):
        jobs.append(
            JobSpec(model=model, kind="inference", high_priority=False,
                    arrivals="poisson", rps=rps_for(model, "inf_inf_poisson"),
                    name=f"be{index}-{model}")
        )
    return ExperimentConfig(jobs=jobs, backend=backend, device=device,
                            duration=duration, warmup=warmup,
                            seed=seed, **kwargs)


def solo_inference_config(model: str, rps: Optional[float] = None,
                          arrivals: str = "uniform",
                          duration: float = DEFAULT_DURATION,
                          warmup: float = DEFAULT_WARMUP,
                          seed: int = 0, **kwargs) -> ExperimentConfig:
    """A single inference job on a dedicated GPU (Figures 8a/9a)."""
    job = JobSpec(model=model, kind="inference", high_priority=True,
                  arrivals=arrivals,
                  rps=rps if rps is not None else 0.0)
    return ExperimentConfig(jobs=[job], backend="ideal", duration=duration,
                            warmup=warmup, seed=seed, **kwargs)


# ---------------------------------------------------------------------------
# Named-scenario catalog (the Scenario API's registry).

def _experiment_scenario(name: str, maker: Callable,
                         defaults: Dict) -> Callable[..., Scenario]:
    def build(seed: int = 0, duration: Optional[float] = None,
              **overrides) -> Scenario:
        kwargs = dict(defaults)
        kwargs.update(overrides)
        hp = kwargs.pop("hp")
        be = kwargs.pop("be")
        backend = kwargs.pop("backend")
        if duration is not None:
            kwargs["duration"] = duration
        config = maker(hp, be, backend, seed=seed, **kwargs)
        return Scenario(kind="experiment", name=name, experiment=config)

    build.keys = tuple(sorted(
        ({"hp", "be"} | set(inspect.signature(maker).parameters)
         | {f.name for f in fields(ExperimentConfig)})
        - {"hp_model", "be_model", "kwargs", "jobs", "seed", "duration"}))
    return build


def _params_scenario(name: str, kind: str,
                     defaults: Dict) -> Callable[..., Scenario]:
    def build(seed: int = 0, duration: Optional[float] = None,
              **overrides) -> Scenario:
        params = dict(defaults)
        params.update(overrides)
        params["seed"] = seed
        if duration is not None:
            params["duration"] = duration
        return Scenario(kind=kind, name=name, params=params)

    build.keys = tuple(sorted(f.name for f in fields(PARAM_TYPES[kind])
                              if f.name not in ("seed", "duration")))
    return build


#: name -> builder(seed=..., duration=..., **overrides) -> Scenario.
#: The ``*_ref`` entries are the benchmark references: their workloads
#: and horizons are pinned so ops/sec numbers stay comparable across
#: commits (DESIGN.md §6.4).
SCENARIOS: Dict[str, Callable[..., Scenario]] = {
    "inf-train": _experiment_scenario(
        "inf-train", inf_train_config,
        {"hp": "resnet50", "be": "mobilenet_v2", "backend": "orion"}),
    "train-train": _experiment_scenario(
        "train-train", train_train_config,
        {"hp": "resnet50", "be": "mobilenet_v2", "backend": "orion"}),
    "inf-inf": _experiment_scenario(
        "inf-inf", inf_inf_config,
        {"hp": "resnet101", "be": "resnet50", "backend": "orion"}),
    "overload": _params_scenario("overload", "overload", {}),
    "faults": _params_scenario("faults", "faults", {}),
    "fleet": _params_scenario("fleet", "fleet", {}),
    "llm": _params_scenario("llm", "llm", {}),
    # Self-healing fleet: adversarial initial packing, measured-
    # interference rebalancing on, faults firing while tenants move.
    "fleet_rebalance": _params_scenario(
        "fleet_rebalance", "fleet",
        {"duration": 0.3, "num_gpus": 8, "crashes": 1, "degrades": 1,
         "placement": "adversarial", "rebalance": True,
         "be_tenants": 6, "warmup": 0.1}),
    # Benchmark references (pinned workloads/horizons).
    "overload_ref": _params_scenario(
        "overload_ref", "overload", {"duration": 0.4}),
    "llm_ref": _params_scenario(
        "llm_ref", "llm",
        {"duration": 0.4, "request_rate": 80.0, "max_batch": 8,
         "be_clients": 1, "warmup": 0.05}),
    "fleet_ref": _params_scenario(
        "fleet_ref", "fleet",
        {"duration": 0.15, "num_gpus": 8, "crashes": 1, "degrades": 1}),
    "inf_train_ref": _experiment_scenario(
        "inf_train_ref", inf_train_config,
        {"hp": "resnet50", "be": "mobilenet_v2", "backend": "orion",
         "duration": 0.6}),
    "train_train_ref": _experiment_scenario(
        "train_train_ref", train_train_config,
        {"hp": "resnet50", "be": "mobilenet_v2", "backend": "orion",
         "duration": 0.6}),
}


def make_scenario(name: str, seed: int = 0,
                  duration: Optional[float] = None, **overrides) -> Scenario:
    """Build a named :class:`Scenario`, applying per-call overrides.

    ``seed``/``duration`` apply uniformly to every scenario family;
    remaining keyword overrides go to the family's config surface
    (``ExperimentConfig`` builder kwargs for experiment scenarios, the
    kind's typed params fields for the others).
    """
    builder = SCENARIOS.get(name)
    if builder is None:
        raise ValueError(f"unknown scenario {name!r}; "
                         f"known: {', '.join(sorted(SCENARIOS))}")
    return builder(seed=seed, duration=duration, **overrides)


def override_keys(name: str) -> Tuple[str, ...]:
    """The keyword overrides ``make_scenario(name, ...)`` accepts.

    ``seed`` and ``duration`` are ``make_scenario``'s own arguments and
    are not listed.  Used to explain a rejected ``--set``.
    """
    builder = SCENARIOS.get(name)
    if builder is None:
        raise ValueError(f"unknown scenario {name!r}; "
                         f"known: {', '.join(sorted(SCENARIOS))}")
    return builder.keys


def scenario_names() -> Tuple[str, ...]:
    return tuple(sorted(SCENARIOS))


def scenario_catalog() -> Dict[str, Dict]:
    """JSON-safe description of every named scenario: name -> ``{kind,
    params}``.

    Built by instantiating each catalog entry at its defaults (cheap:
    nothing runs), so the summary always matches what a defaults-only
    ``make_scenario(name)`` would execute.  Shared by ``repro
    scenarios`` and the serve daemon's ``scenarios`` verb — the list of
    valid submit targets.
    """
    catalog: Dict[str, Dict] = {}
    for name in scenario_names():
        scenario = SCENARIOS[name]()
        if scenario.kind == "experiment":
            cfg = scenario.experiment
            params = {
                "backend": cfg.backend,
                "device": cfg.device,
                "duration": cfg.duration,
                "jobs": [
                    f"{'hp' if job.high_priority else 'be'}:"
                    f"{job.model}:{job.kind}"
                    for job in cfg.jobs
                ],
            }
        else:
            params = {k: v for k, v in sorted(scenario.params.items())
                      if k != "seed"}
        catalog[name] = {"kind": scenario.kind, "params": params}
    return catalog
