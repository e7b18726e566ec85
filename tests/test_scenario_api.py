"""The unified Scenario API: dataclass validation, run(), canonical
results, the named-scenario catalog, and construction-time
BackendOptions."""

import json

import pytest

from repro.core.scheduler import OrionBackend, OrionConfig
from repro.experiments.params import FaultsParams, OverloadParams
from repro.experiments.registry import (
    SCENARIOS,
    inf_train_config,
    make_scenario,
    scenario_names,
)
from repro.experiments.scenario import (
    SCENARIO_KINDS,
    Scenario,
    ScenarioResult,
    run,
)
from repro.gpu.device import GpuDevice
from repro.gpu.specs import V100_16GB
from repro.profiler.profiles import ProfileStore
from repro.runtime.backend import BackendOptions
from repro.sim.engine import Simulator
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracer import Tracer


class TestScenarioDataclass:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario kind"):
            Scenario(kind="bogus")

    def test_experiment_kind_requires_config(self):
        with pytest.raises(ValueError, match="requires an ExperimentConfig"):
            Scenario(kind="experiment")

    def test_params_kinds_reject_experiment_payload(self):
        config = inf_train_config("resnet50", "mobilenet_v2", "orion")
        with pytest.raises(ValueError, match="params"):
            Scenario(kind="overload", experiment=config)

    def test_seed_and_duration_surface_uniformly(self):
        config = inf_train_config("resnet50", "mobilenet_v2", "orion",
                                  duration=0.8, seed=7)
        exp = Scenario(kind="experiment", experiment=config)
        assert exp.config is config
        assert exp.seed == 7 and exp.config.duration == 0.8
        ovl = Scenario(kind="overload", params={"seed": 3, "duration": 0.1})
        assert ovl.config == OverloadParams(seed=3, duration=0.1)
        assert ovl.seed == 3 and ovl.config.duration == 0.1
        # Absent params mean the typed surface's defaults; params stays
        # the sparse override dict.
        faults = Scenario(kind="faults")
        assert faults.params == {}
        assert faults.config == FaultsParams()
        assert faults.seed == 0 and faults.config.duration == 0.2

    def test_name_defaults_to_kind(self):
        assert Scenario(kind="overload").name == "overload"


class TestRun:
    def test_overload_scenario_runs_and_accounts(self):
        res = run(Scenario(kind="overload",
                           params={"seed": 0, "duration": 0.05}))
        assert isinstance(res, ScenarioResult)
        assert res.events_processed > 0
        assert res.sim_time == pytest.approx(0.05)
        assert res.wall_time > 0
        assert res.ops_per_sec > 0
        assert res.result.hp_latency.count > 0

    def test_faults_scenario_runs(self):
        res = run(Scenario(kind="faults",
                           params={"seed": 2, "duration": 0.1}))
        assert res.result.ledger is not None
        assert res.events_processed > 0

    def test_experiment_scenario_runs(self):
        config = inf_train_config("resnet50", "mobilenet_v2", "orion",
                                  duration=0.55)
        res = run(Scenario(kind="experiment", experiment=config))
        assert res.result.hp_job.stats.records
        assert res.events_processed > 0

    def test_canonical_excludes_wall_clock(self):
        res = run(Scenario(kind="overload",
                           params={"seed": 0, "duration": 0.05}))
        payload = res.to_json()
        assert "wall" not in payload
        # Same seed, same bytes — the sweep merge contract.
        again = run(Scenario(kind="overload",
                             params={"seed": 0, "duration": 0.05}))
        assert again.to_json() == payload

    def test_canonical_round_trips_as_json(self):
        res = run(Scenario(kind="faults",
                           params={"seed": 1, "duration": 0.1}))
        decoded = json.loads(res.to_json())
        assert decoded["kind"] == "faults"
        assert decoded["seed"] == 1
        assert decoded["events_processed"] == res.events_processed


class TestScenarioCatalog:
    def test_unknown_name_lists_known(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            make_scenario("nope")

    def test_names_cover_cli_and_bench(self):
        names = scenario_names()
        for required in ("inf-train", "train-train", "inf-inf", "overload",
                         "faults", "overload_ref", "inf_train_ref",
                         "train_train_ref"):
            assert required in names

    def test_seed_and_duration_propagate(self):
        exp = make_scenario("inf-train", seed=9, duration=1.5)
        assert exp.experiment.seed == 9
        assert exp.experiment.duration == 1.5
        ovl = make_scenario("overload_ref", seed=3)
        assert ovl.params["seed"] == 3
        assert ovl.params["duration"] == 0.4  # pinned reference horizon

    def test_overrides_reach_the_family_surface(self):
        scenario = make_scenario("overload", seed=0, duration=0.05,
                                 policy="reject", be_clients=1)
        assert scenario.params["policy"] == "reject"
        res = run(scenario)
        assert set(res.result.jobs) == {"hp", "be-0"}

    @pytest.mark.parametrize("name", ["inf-train", "train-train", "inf-inf"])
    def test_experiment_entries_accept_warmup(self, name):
        scenario = make_scenario(name, duration=1.0, warmup=0.2)
        assert scenario.experiment.warmup == 0.2
        assert make_scenario(name).experiment.warmup == 0.5

    def test_every_catalog_entry_builds(self):
        for name in SCENARIOS:
            scenario = make_scenario(name, seed=1)
            assert scenario.kind in SCENARIO_KINDS

    @pytest.mark.parametrize("name,overrides,needle", [
        ("overload", {"be_clients": 1.5}, "be_clients must be int"),
        ("overload", {"guard": 1}, "guard must be bool"),
        ("faults", {"hp_rps": "fast"}, "hp_rps must be float"),
        ("fleet", {"tenants": [1]}, "tenants must be a sequence of TenantSpec"),
        ("llm", {"max_batch": True}, "max_batch must be int"),
    ])
    def test_wrong_typed_knob_rejected_at_construction(self, name, overrides,
                                                       needle):
        with pytest.raises(ValueError, match=needle):
            make_scenario(name, **overrides)

    def test_int_fills_a_float_knob(self):
        scenario = make_scenario("overload", hp_load=1, deadline_mult=None)
        assert scenario.config.hp_load == 1


class TestFaultPlanValidation:
    def test_unknown_kill_target_rejected(self):
        from repro.faults.plan import FaultPlan, KillClient

        plan = FaultPlan((KillClient("be-7", at_time=0.02),))
        with pytest.raises(ValueError, match="unknown client 'be-7'"):
            run(Scenario(kind="faults",
                         params={"duration": 0.05, "be_clients": 1,
                                 "plan": plan}))

    def test_default_plan_target_checked_at_construction(self):
        # The default plan kills be-0, which a scenario without
        # best-effort clients does not have.
        with pytest.raises(ValueError, match="unknown client 'be-0'"):
            Scenario(kind="faults", params={"be_clients": 0})
        with pytest.raises(ValueError, match="unknown client 'be-0'"):
            make_scenario("faults", be_clients=0)
        # An empty plan needs no best-effort client.
        from repro.faults.plan import FaultPlan

        Scenario(kind="faults", params={"be_clients": 0,
                                        "plan": FaultPlan(())})


class TestBackendOptions:
    """Telemetry/overload hooks consolidated at construction time."""

    def _backend(self, options=None):
        sim = Simulator()
        device = GpuDevice(sim, V100_16GB)
        backend = OrionBackend(sim, device, ProfileStore(),
                               OrionConfig(hp_request_latency=1e-3),
                               options=options)
        return sim, backend

    def test_defaults_match_setter_era(self):
        _sim, backend = self._backend()
        assert isinstance(backend.metrics, MetricsRegistry)
        assert not backend.tracer.enabled

    def test_construction_time_wiring(self):
        sim = Simulator()
        tracer = Tracer(sim, capacity=64)
        metrics = MetricsRegistry()
        options = BackendOptions(tracer=tracer, metrics=metrics,
                                 overload_policies={"be-0": "reject"})
        _sim, backend = self._backend(options)
        assert backend.tracer is tracer
        assert backend.metrics is metrics
        backend.register_client("be-0", high_priority=False, kind="inference")
        backend.register_client("be-1", high_priority=False, kind="inference")
        assert backend._be["be-0"].policy == "reject"
        # Unlisted clients keep the config-wide policy.
        assert backend._be["be-1"].policy == backend.config.overload_policy
